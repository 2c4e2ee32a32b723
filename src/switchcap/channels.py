"""Noisy qubit channels as Kraus-operator collections.

A channel is an ordered list of Kraus operators ``{K_i}`` acting as
``rho -> sum_i K_i rho K_i^dag`` and satisfying the completeness relation
``sum_i K_i^dag K_i = I``. The catalog here covers the standard
single-qubit noise models (bit flip, phase flip, Pauli, depolarizing)
plus the vacuum extension used to place channels on superposed paths.

Channels are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qmatrix import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_complex_matrix

__all__ = [
    "Channel",
    "VacuumExtendedChannel",
    "COMPLETENESS_TOL",
    "AMPLITUDE_TOL",
    "bit_flip",
    "phase_flip",
    "pauli",
    "depolarizing",
    "identity_channel",
    "apply",
    "complementary_output",
    "completeness_defect",
    "normalized_amplitudes",
    "concentrated_amplitudes",
    "vacuum_extend",
]

#: Max-abs deviation allowed for ``sum K^dag K`` from the identity.
COMPLETENESS_TOL = 1e-10
#: Max deviation allowed for ``sum |gamma_i|^2`` from 1.
AMPLITUDE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Channel:
    """Kraus representation of a quantum channel.

    Parameters
    ----------
    kraus : sequence of ndarray
        Kraus operators, each of shape ``(d_out, d_in)``, or one
        ``(n, d_out, d_in)`` array. They are copied once into the read-only
        array ``stacked``, and ``kraus`` becomes the tuple of its ``n`` views.
    input_dims : tuple of int
        Tensor-factor dimensions of the input space. For composed
        channels the convention is control-major: control/path factors
        first, the message (target) factor last.
    output_dims : tuple of int
        Tensor-factor dimensions of the output space, same convention.
    label : str
        Human-readable tag used in reports and CSV output.

    Raises ``ValueError`` when an operator has the wrong shape or a
    non-finite entry, or when ``sum_i K_i^dag K_i`` deviates from the
    identity by more than ``COMPLETENESS_TOL`` (an empty list included).
    """

    kraus: tuple
    input_dims: tuple
    output_dims: tuple
    label: str = ""
    stacked: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "output_dims", tuple(int(d) for d in self.output_dims))
        if any(d < 1 for d in self.input_dims + self.output_dims):
            raise ValueError("subsystem dimensions must be positive")
        shape = (self.d_out, self.d_in)
        kraus = self.kraus
        if isinstance(kraus, np.ndarray) and kraus.ndim == 3:
            wrong = {kraus.shape[1:]} - {shape}
        else:
            wrong = {np.shape(k) for k in kraus} - {shape}
        if wrong:
            raise ValueError(f"Kraus operator of shape {wrong.pop()} does not match {shape}")
        stacked = np.array(self.kraus, dtype=complex, order="C").reshape(-1, *shape)
        if not np.isfinite(stacked).all():
            raise ValueError("matrix contains NaN or Inf entries")
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "kraus", tuple(stacked))
        defect = completeness_defect(self)
        if defect > COMPLETENESS_TOL:
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


def _check_probability(value: float, name: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return v


def bit_flip(p: float) -> Channel:
    """Bit-flip channel: identity with probability 1-p, sigma_x with p."""
    p = _check_probability(p, "p")
    kraus = (np.sqrt(1 - p) * IDENTITY_2, np.sqrt(p) * SIGMA_X)
    return Channel(kraus, (2,), (2,), label=f"bitflip(p={p:g})")


def phase_flip(p: float) -> Channel:
    """Phase-flip channel: identity with probability 1-p, sigma_z with p."""
    p = _check_probability(p, "p")
    kraus = (np.sqrt(1 - p) * IDENTITY_2, np.sqrt(p) * SIGMA_Z)
    return Channel(kraus, (2,), (2,), label=f"phaseflip(p={p:g})")


def _pauli_kraus(px: float, py: float, pz: float) -> tuple:
    total = px + py + pz
    if total > 1.0 + 1e-12:
        raise ValueError(f"px + py + pz = {total} exceeds 1")
    return (
        np.sqrt(max(1 - total, 0.0)) * IDENTITY_2,
        np.sqrt(px) * SIGMA_X,
        np.sqrt(py) * SIGMA_Y,
        np.sqrt(pz) * SIGMA_Z,
    )


def pauli(px: float, py: float, pz: float) -> Channel:
    """Pauli channel with independent x, y and z error probabilities."""
    px = _check_probability(px, "px")
    py = _check_probability(py, "py")
    pz = _check_probability(pz, "pz")
    return Channel(_pauli_kraus(px, py, pz), (2,), (2,), label=f"pauli({px:g},{py:g},{pz:g})")


def depolarizing(p: float) -> Channel:
    """Depolarizing channel: Pauli channel with equal error probabilities p/3."""
    p = _check_probability(p, "p")
    return Channel(_pauli_kraus(p / 3, p / 3, p / 3), (2,), (2,), label=f"depolarizing(p={p:g})")


def identity_channel(dim: int = 2) -> Channel:
    """Noiseless channel on a ``dim``-dimensional system."""
    return Channel((np.eye(dim, dtype=complex),), (dim,), (dim,), label="identity")


def _input_state(ch: Channel, rho) -> np.ndarray:
    """``rho`` as a complex matrix, rejected unless it is ``d_in x d_in``."""
    rho = as_complex_matrix(rho)
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(
            f"state of shape {rho.shape} does not match channel input dim {ch.d_in}"
        )
    return rho


def apply(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel: ``sum_i K_i rho K_i^dag``.

    ``rho`` must be a ``d_in x d_in`` matrix; the result is ``d_out x d_out``.
    """
    rho = _input_state(ch, rho)
    ks = ch.stacked
    return np.einsum("aij,jk,alk->il", ks, rho, ks.conj())


def complementary_output(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Environment state seen through the complementary channel.

    Entry ``(a, b)`` is ``Tr(K_a rho K_b^dag)``; the result is a valid
    density matrix of dimension equal to the Kraus count.
    """
    rho = _input_state(ch, rho)
    ks = ch.stacked
    n = ch.n_kraus
    products = (ks @ rho).reshape(n, -1)
    return products @ ks.conj().reshape(n, -1).T


def completeness_defect(ch: Channel) -> float:
    """Max-abs deviation of ``sum_i K_i^dag K_i`` from the identity."""
    rows = ch.stacked.reshape(-1, ch.d_in)
    return float(np.max(np.abs(rows.conj().T @ rows - np.eye(ch.d_in))))


def normalized_amplitudes(amps: Sequence[complex], n_kraus: int) -> np.ndarray:
    """Validate a vacuum-amplitude vector and return it as a read-only array.

    The length must be ``n_kraus`` and the squared magnitudes must sum to 1
    within ``AMPLITUDE_TOL``.
    """
    arr = np.asarray(amps, dtype=complex).ravel().copy()
    if arr.size != n_kraus:
        raise ValueError(
            f"expected {n_kraus} vacuum amplitudes (one per Kraus operator), got {arr.size}"
        )
    norm = float(np.sum(np.abs(arr) ** 2))
    if not abs(norm - 1.0) <= AMPLITUDE_TOL:
        raise ValueError(f"vacuum amplitudes have squared norm {norm}, expected 1")
    arr.setflags(write=False)
    return arr


def concentrated_amplitudes(n: int) -> np.ndarray:
    """Default vacuum amplitudes ``(1, 0, ..., 0)`` of length ``n``."""
    arr = np.zeros(n, dtype=complex)
    arr[0] = 1.0
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class VacuumExtendedChannel:
    """A channel together with its action on the vacuum sector.

    It stands for the extended Kraus operators ``K_i (+) gamma_i`` on
    ``d_in + 1`` dimensions, the appended last basis vector being the
    vacuum; :func:`~switchcap.supermaps.coherent_superposition` reads
    ``base`` and ``amps`` without building them. The amplitudes
    ``gamma_i`` satisfy ``sum |gamma_i|^2 = 1``.
    """

    base: Channel
    amps: np.ndarray

    def __post_init__(self):
        amps = normalized_amplitudes(self.amps, self.base.n_kraus)
        object.__setattr__(self, "amps", amps)


def vacuum_extend(ch: Channel, amps: Sequence[complex]) -> VacuumExtendedChannel:
    """Attach vacuum amplitudes to a channel, one per Kraus operator.

    Raises ``ValueError`` when the amplitude vector has the wrong length
    or deviates from unit norm by more than ``AMPLITUDE_TOL``.
    """
    if ch.d_in != ch.d_out:
        raise ValueError("only square channels can be vacuum extended")
    return VacuumExtendedChannel(ch, np.asarray(amps, dtype=complex))
