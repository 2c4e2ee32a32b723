"""Noisy qubit channels as Kraus-operator collections.

A channel is an ordered list of Kraus operators ``{K_i}`` acting as
``rho -> sum_i K_i rho K_i^dag`` and satisfying the completeness relation
``sum_i K_i^dag K_i = I``. The catalog here covers the standard
single-qubit noise models (bit flip, phase flip, Pauli, depolarizing).

Channels are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import PAULIS, as_complex_matrix, probability, square_matrix, subsystem_dims

__all__ = [
    "Channel",
    "COMPLETENESS_TOL",
    "bit_flip",
    "phase_flip",
    "pauli",
    "depolarizing",
    "identity_channel",
    "apply",
    "complementary_output",
    "completeness_defect",
]

#: Max-abs deviation allowed for ``sum K^dag K`` from the identity.
COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Channel:
    """Kraus representation of a quantum channel.

    Parameters
    ----------
    kraus : sequence of ndarray
        Kraus operators, each of shape ``(d_out, d_in)``, or one
        ``(n, d_out, d_in)`` array. They are stored as ``kraus``, one read-only
        C-ordered complex128 ``(n, d_out, d_in)`` array: ``kraus[i]`` is the
        ``i``-th operator. A ``(n, d_out, d_in)`` array that owns its data
        (``base is None``), is read-only, C-contiguous and complex128 is
        adopted as ``kraus`` without a copy: whoever made it hands it over
        and must not make it writable again. Any other input (a writable
        array, a view, a list, another layout or dtype) is copied once.
    input_dims : tuple of int
        Tensor-factor dimensions of the input space. For composed
        channels the convention is control-major: control/path factors
        first, the message (target) factor last.
    output_dims : tuple of int
        Tensor-factor dimensions of the output space, same convention.
    label : str
        Human-readable tag used in reports and CSV output.

    Raises ``ValueError`` when a dimension is not a positive integer (the
    text names the tuple that fails), an operator has the wrong shape or a
    non-finite entry, or when ``sum_i K_i^dag K_i`` deviates from the
    identity by more than ``COMPLETENESS_TOL`` (an empty list included).
    """

    kraus: np.ndarray
    input_dims: tuple
    output_dims: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "input_dims", subsystem_dims(self.input_dims))
        object.__setattr__(self, "output_dims", subsystem_dims(self.output_dims))
        shape = (math.prod(self.output_dims), math.prod(self.input_dims))
        kraus = self.kraus
        if isinstance(kraus, np.ndarray) and kraus.ndim == 3:
            wrong = {kraus.shape[1:]} - {shape}
            flags = kraus.flags
            adopt = (
                kraus.base is None
                and not flags.writeable
                and flags.c_contiguous
                and kraus.dtype == np.complex128
            )
        else:
            wrong = {np.shape(k) for k in kraus} - {shape}
            adopt = False
        if wrong:
            raise ValueError(f"Kraus operator of shape {wrong.pop()} does not match {shape}")
        if not adopt:
            kraus = np.array(kraus, dtype=complex, order="C").reshape(-1, *shape)
            kraus.setflags(write=False)
            object.__setattr__(self, "kraus", kraus)
        # A NaN or Inf entry makes a diagonal entry of the Gram non-finite, so
        # the defect fails the test below and only then is finiteness checked.
        defect = completeness_defect(self)
        if not defect <= COMPLETENESS_TOL:
            as_complex_matrix(kraus.reshape(-1, shape[1]))
            raise ValueError(f"Kraus operators violate completeness by {defect:.3e}")

    @property
    def d_in(self) -> int:
        return math.prod(self.input_dims)

    @property
    def d_out(self) -> int:
        return math.prod(self.output_dims)

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def __repr__(self):
        return (
            f"Channel(label={self.label!r}, n_kraus={self.n_kraus}, "
            f"in={self.input_dims}, out={self.output_dims})"
        )


_BIT_FLIP_OPS, _PHASE_FLIP_OPS = PAULIS[[0, 1]], PAULIS[[0, 3]]


def _weighted(weights: list, operators: np.ndarray) -> np.ndarray:
    """``sqrt(w_i) * operators[i]``, as one read-only array a ``Channel`` adopts."""
    kraus = np.sqrt(weights)[:, None, None] * operators
    kraus.setflags(write=False)
    return kraus


def bit_flip(p: float) -> Channel:
    """Bit-flip channel: identity with probability 1-p, sigma_x with p."""
    p = probability(p, "p")
    return Channel(_weighted([1 - p, p], _BIT_FLIP_OPS), (2,), (2,), label=f"bitflip(p={p:g})")


def phase_flip(p: float) -> Channel:
    """Phase-flip channel: identity with probability 1-p, sigma_z with p."""
    p = probability(p, "p")
    return Channel(_weighted([1 - p, p], _PHASE_FLIP_OPS), (2,), (2,), label=f"phaseflip(p={p:g})")


def _pauli_kraus(px: float, py: float, pz: float) -> np.ndarray:
    total = px + py + pz
    if total > 1.0 + 1e-12:
        raise ValueError(f"px + py + pz = {total} exceeds 1")
    return _weighted([max(1 - total, 0.0), px, py, pz], PAULIS)


def pauli(px: float, py: float, pz: float) -> Channel:
    """Pauli channel with independent x, y and z error probabilities."""
    px = probability(px, "px")
    py = probability(py, "py")
    pz = probability(pz, "pz")
    return Channel(_pauli_kraus(px, py, pz), (2,), (2,), label=f"pauli({px:g},{py:g},{pz:g})")


def depolarizing(p: float) -> Channel:
    """Depolarizing channel: Pauli channel with equal error probabilities p/3."""
    p = probability(p, "p")
    return Channel(_pauli_kraus(p / 3, p / 3, p / 3), (2,), (2,), label=f"depolarizing(p={p:g})")


def identity_channel(dim: int = 2) -> Channel:
    """Noiseless channel on a ``dim``-dimensional system."""
    return Channel((np.eye(dim, dtype=complex),), (dim,), (dim,), label="identity")


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel: ``sum_i K_i rho K_i^dag``.

    ``rho`` must be a ``d_in x d_in`` matrix; the result is ``d_out x d_out``.
    The sum is one matrix product: the operators ``K_i rho`` side by side,
    ``(d_out, n d_in)``, times the conjugated operators laid out the same way
    and transposed.
    """
    rho = square_matrix(rho, ch.d_in)
    ks, d_out = ch.kraus, ch.d_out
    products = (ks @ rho).transpose(1, 0, 2).reshape(d_out, -1)
    return products @ ks.conj().transpose(1, 0, 2).reshape(d_out, -1).T


def complementary_output(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Environment state seen through the complementary channel.

    Entry ``(a, b)`` is ``Tr(K_a rho K_b^dag)``; the result is a valid
    density matrix of dimension equal to the Kraus count.
    """
    rho = square_matrix(rho, ch.d_in)
    ks = ch.kraus
    n = ch.n_kraus
    products = (ks @ rho).reshape(n, -1)
    return products @ ks.conj().reshape(n, -1).T


#: Recombines the real Gram's row pairs ``(2k, 2k + 1)`` into complex rows.
_ROW_PAIR = np.array([1.0, -1.0j])


@np.errstate(invalid="ignore", over="ignore")
def completeness_defect(ch: Channel) -> float:
    """Max-abs deviation of ``sum_i K_i^dag K_i`` from the identity.

    The Gram comes from the float64 view of the stacked rows, without a
    conjugated copy. With ``K = A + iB`` its columns interleave ``A`` and
    ``B``, so the real product ``g = r^T r`` holds ``A^T A``, ``A^T B``,
    ``B^T A`` and ``B^T B`` entrywise, and ``K^dag K = (A^T A + B^T B) +
    i (A^T B - B^T A)`` takes one product with ``(1, -i)`` over the pairs.
    numpy's warnings on NaN or Inf entries (and on overflow) are silenced:
    they leave the defect non-finite, which no tolerance accepts.
    """
    d = ch.d_in
    r = ch.kraus.reshape(-1, d).view(np.float64)
    gram = np.dot(r.T, r)
    gram.reshape(-1)[:: 4 * d + 2] -= 1.0  # entries (2k, 2k), the diagonal of A^T A
    return float(np.abs(np.dot(_ROW_PAIR, gram.view(complex).reshape(d, 2, d))).max())

