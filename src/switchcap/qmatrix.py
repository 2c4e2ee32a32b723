"""Dense complex linear algebra for small composite quantum systems.

All operators are plain ``numpy.ndarray`` objects of dtype complex128 in
row-major order. Dimensions in this package stay tiny (at most 16), so
everything is dense and eager; no attempt is made at sparsity or
large-dimension performance.

Entropies are reported in bits (log base 2) throughout. This module owns the
entry rules: the checks, and their error texts, of matrices, states,
subsystem dimensions and probabilities; every other module calls them.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "IDENTITY_2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "HERMITIAN_TOL",
    "EIGENVALUE_FLOOR",
    "as_complex_matrix",
    "subsystem_dims",
    "probability",
    "partial_trace",
    "eig_hermitian",
    "von_neumann_entropy",
    "entropy_of_spectrum",
    "assert_density_matrix",
    "unit_vector",
]

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
#: The Pauli operators ``I, X, Y, Z`` stacked, shape ``(4, 2, 2)``.
PAULIS = np.stack((IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z))

#: Tolerance for Hermiticity and trace checks (max-abs deviation).
HERMITIAN_TOL = 1e-10
#: Eigenvalues above this floor are treated as floating-point slack and
#: clamped to zero; anything below it is a genuine positivity violation.
EIGENVALUE_FLOOR = -1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array; reject NaN or Inf in either part, by one scan."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def subsystem_dims(dims) -> tuple:
    """``dims`` as a tuple of ``int``s, each an ``operator.index`` integer of at least 1."""
    given = tuple(dims)
    try:
        dims = tuple(map(operator.index, given))
        positive = all(d >= 1 for d in dims)
    except TypeError:
        positive = False
    if not positive:
        raise ValueError(f"subsystem dimensions must be positive integers, got {given}")
    return dims


def probability(value, name: str) -> float:
    """``value`` as a float in ``[0, 1]``, which NaN fails; ``name`` names it in errors."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return v


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Reduced state on the subsystems listed in ``keep``.

    Parameters
    ----------
    rho : ndarray
        Square matrix on the composite space ``prod(dims)``.
    dims : sequence of int
        Dimension of each subsystem, in order.
    keep : iterable of int
        Indices (into ``dims``) of the subsystems to keep. Order of the
        kept factors is preserved.

    Raises
    ------
    ValueError
        If a dimension is not a positive integer, ``prod(dims)`` does not
        match the matrix dimension, or ``keep`` is empty, out of range or
        holds a non-integer.
    """
    rho = as_complex_matrix(rho)
    dims = subsystem_dims(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(
            f"matrix of shape {rho.shape} does not factor as subsystems {dims}"
        )
    keep = tuple(keep)
    try:
        keep = sorted(set(map(operator.index, keep)))
    except TypeError:
        raise ValueError(f"keep indices must be integers, got {keep}") from None
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    # Row axis i is labelled i and column axis n + i; a traced subsystem's
    # column axis takes its row label, so einsum sums over the pair.
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    kept_dim = int(np.prod([dims[i] for i in keep]))
    reduced = np.einsum(rho.reshape(dims + dims), [*range(n), *cols], keep + [n + i for i in keep])
    return reduced.reshape(kept_dim, kept_dim)


def eig_hermitian(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted ascending.

    Uses a dedicated Hermitian solver so the spectrum is real by
    construction. Raises ``ValueError`` if ``h`` deviates from Hermiticity
    by more than ``HERMITIAN_TOL`` in max-abs norm, after :func:`as_complex_matrix`.
    """
    h = as_complex_matrix(h)
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigvalsh(h)


def entropy_of_spectrum(eigs: np.ndarray) -> float:
    """Shannon entropy in bits of a probability spectrum, with 0 log 0 = 0.

    Eigenvalues in ``[EIGENVALUE_FLOOR, 0)`` are clamped to zero (and values
    marginally above 1 down to 1) before the logarithm; anything below the
    floor raises, since that indicates a genuinely non-positive state.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size and eigs.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {eigs.min():.3e} below positivity floor")
    clamped = np.clip(eigs, 0.0, 1.0)
    nonzero = clamped[clamped > 0.0]
    return float(-(nonzero * np.log2(nonzero)).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy ``-Tr(rho log2 rho)`` in bits."""
    return entropy_of_spectrum(eig_hermitian(rho))


def assert_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` unless ``rho`` satisfies all density-matrix invariants.

    Checks, each within ``HERMITIAN_TOL``: finite entries, Hermiticity
    (max-abs deviation of ``rho - rho†``, by :func:`eig_hermitian`), unit
    trace, and eigenvalues bounded below by ``-HERMITIAN_TOL``. Returns
    ``rho`` as the checked complex matrix.
    """
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    eigs = eig_hermitian(rho)
    tr = np.trace(rho)
    if abs(tr - 1.0) > HERMITIAN_TOL:
        raise ValueError(f"trace {tr} differs from 1 by more than {HERMITIAN_TOL}")
    if eigs.min() < -HERMITIAN_TOL:
        raise ValueError(f"negative eigenvalue {eigs.min():.3e}")
    return rho


def unit_vector(v, dim: int, what: str) -> np.ndarray:
    """``v`` as a read-only complex ket of shape ``(dim,)`` and squared norm 1.

    Every pure state enters the package here. The squared norm must be 1
    within ``HERMITIAN_TOL``, which NaN and Inf fail. ``what`` names the
    vector in errors; only the length error keeps a trailing ``(...)``
    saying what ``dim`` counts.
    """
    ket = np.array(v, dtype=complex)
    if ket.shape != (dim,):
        got = len(ket) if ket.ndim == 1 else f"shape {ket.shape}"
        raise ValueError(f"expected {dim} {what}, got {got}")
    norm = float((np.abs(ket) ** 2).sum())
    if not abs(norm - 1.0) <= HERMITIAN_TOL:
        raise ValueError(f"{what.split(' (')[0]} have squared norm {norm}, expected 1")
    ket.setflags(write=False)
    return ket
