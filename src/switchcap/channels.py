"""Noisy qubit channels as Kraus-operator collections.

A channel is an ordered list of Kraus operators ``{K_i}`` acting as
``rho -> sum_i K_i rho K_i^dag`` and satisfying the completeness relation
``sum_i K_i^dag K_i = I``. The catalog here covers the standard
single-qubit noise models (bit flip, phase flip, Pauli, depolarizing)
plus the vacuum extension used to place channels on superposed paths.

Channels are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .qmatrix import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_complex_matrix,
    direct_sum,
)

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
    "verify_completeness",
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
    kraus : tuple of ndarray
        Kraus operators, each of shape ``(d_out, d_in)``.
    input_dims : tuple of int
        Tensor-factor dimensions of the input space. For composed
        channels the convention is control-major: control/path factors
        first, the message (target) factor last.
    output_dims : tuple of int
        Tensor-factor dimensions of the output space, same convention.
    label : str
        Human-readable tag used in reports and CSV output.
    """

    kraus: tuple
    input_dims: tuple
    output_dims: tuple
    label: str = ""

    def __post_init__(self):
        ops = []
        for k in self.kraus:
            m = as_complex_matrix(k).copy()
            m.setflags(write=False)
            ops.append(m)
        object.__setattr__(self, "kraus", tuple(ops))
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "output_dims", tuple(int(d) for d in self.output_dims))
        if any(d < 1 for d in self.input_dims + self.output_dims):
            raise ValueError("subsystem dimensions must be positive")
        shape = (self.d_out, self.d_in)
        for m in self.kraus:
            if m.shape != shape:
                raise ValueError(
                    f"Kraus operator of shape {m.shape} does not match {shape}"
                )

    @property
    def d_in(self) -> int:
        return int(np.prod(self.input_dims))

    @property
    def d_out(self) -> int:
        return int(np.prod(self.output_dims))

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    @cached_property
    def stacked(self) -> np.ndarray:
        """All Kraus operators as one read-only ``(n, d_out, d_in)`` array."""
        arr = (
            np.stack(self.kraus)
            if self.kraus
            else np.zeros((0, self.d_out, self.d_in), dtype=complex)
        )
        arr.setflags(write=False)
        return arr

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


def pauli(px: float, py: float, pz: float) -> Channel:
    """Pauli channel with independent x, y and z error probabilities."""
    px = _check_probability(px, "px")
    py = _check_probability(py, "py")
    pz = _check_probability(pz, "pz")
    total = px + py + pz
    if total > 1.0 + 1e-12:
        raise ValueError(f"px + py + pz = {total} exceeds 1")
    kraus = (
        np.sqrt(max(1 - total, 0.0)) * IDENTITY_2,
        np.sqrt(px) * SIGMA_X,
        np.sqrt(py) * SIGMA_Y,
        np.sqrt(pz) * SIGMA_Z,
    )
    return Channel(kraus, (2,), (2,), label=f"pauli({px:g},{py:g},{pz:g})")


def depolarizing(p: float) -> Channel:
    """Depolarizing channel: Pauli channel with equal error probabilities p/3."""
    p = _check_probability(p, "p")
    ch = pauli(p / 3, p / 3, p / 3)
    return Channel(ch.kraus, (2,), (2,), label=f"depolarizing(p={p:g})")


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


def completeness_defect(ch: Channel) -> float:
    """Max-abs deviation of ``sum_i K_i^dag K_i`` from the identity."""
    ks = ch.stacked
    gram = np.einsum("aij,aik->jk", ks.conj(), ks)
    return float(np.max(np.abs(gram - np.eye(ch.d_in))))


def verify_completeness(ch: Channel, tol: float = COMPLETENESS_TOL) -> bool:
    """True iff the Kraus set resolves the identity within ``tol``.

    An empty Kraus list trivially fails (its sum is the zero matrix).
    """
    return completeness_defect(ch) <= tol


def normalized_amplitudes(amps: Sequence[complex], n_kraus: Optional[int] = None) -> np.ndarray:
    """Validate a vacuum-amplitude vector and return it as a read-only array.

    The squared magnitudes must sum to 1 within ``AMPLITUDE_TOL``; if
    ``n_kraus`` is given the length must match it.
    """
    arr = np.asarray(amps, dtype=complex).ravel().copy()
    if n_kraus is not None and arr.size != n_kraus:
        raise ValueError(
            f"expected {n_kraus} vacuum amplitudes (one per Kraus operator), got {arr.size}"
        )
    norm = float(np.sum(np.abs(arr) ** 2))
    if abs(norm - 1.0) > AMPLITUDE_TOL:
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

    The extended Kraus operators ``K_i (+) gamma_i`` act on ``d_in + 1``
    dimensions, the appended last basis vector being the vacuum. The
    amplitudes ``gamma_i`` satisfy ``sum |gamma_i|^2 = 1``.
    """

    base: Channel
    amps: np.ndarray

    def __post_init__(self):
        amps = normalized_amplitudes(self.amps, self.base.n_kraus)
        object.__setattr__(self, "amps", amps)

    @cached_property
    def extended(self) -> Channel:
        """The extended Kraus operators as a ``(d_in + 1)``-dimensional channel."""
        ext_kraus = tuple(
            direct_sum(k, np.array([[g]], dtype=complex))
            for k, g in zip(self.base.kraus, self.amps)
        )
        dim = self.base.d_in + 1
        return Channel(ext_kraus, (dim,), (dim,), label=f"{self.base.label}+vac")


def vacuum_extend(ch: Channel, amps: Sequence[complex]) -> VacuumExtendedChannel:
    """Attach vacuum amplitudes to a channel, one per Kraus operator.

    Raises ``ValueError`` when the amplitude vector has the wrong length
    or deviates from unit norm by more than ``AMPLITUDE_TOL``.
    """
    if ch.d_in != ch.d_out:
        raise ValueError("only square channels can be vacuum extended")
    return VacuumExtendedChannel(ch, np.asarray(amps, dtype=complex))
