"""Holevo and coherent information, and one-shot capacity estimation.

Two capacities are computed for a composed channel whose control has been
fixed (see :func:`switchcap.supermaps.fix_control`):

* ``classical_capacity`` - the message is encoded in the computational
  basis of the target qubit. The receiver reads the target subsystem, so
  the Holevo information is evaluated on the target marginal of the
  output (control and path factors traced out), and the signaling prior
  is optimized. This is the quantity the closed-form reference
  expressions in :mod:`switchcap.oracle` describe.

* ``quantum_capacity`` - the maximum coherent information over all
  target input states (full Bloch ball). Here the full output including
  control and path factors is kept; this is what makes the result
  sensitive to the choice of vacuum amplitudes on superposed paths.

The classical capacity is one bounded scalar solve of a concave function.
The quantum capacity runs a multistart Nelder-Mead with a canonical start
(maximally mixed state) plus seeded random restarts, deterministic for a
fixed seed, because coherent information is not concave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from ._optim import maximize_multistart
from .channels import Channel, apply
from .qmatrix import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_complex_matrix,
    assert_density_matrix,
    entropy_of_spectrum,
    partial_trace,
    von_neumann_entropy,
)

__all__ = [
    "Ensemble",
    "OptimizerConfig",
    "CapacityResult",
    "holevo_information",
    "complementary_output",
    "exchange_entropy",
    "coherent_information",
    "target_marginal",
    "classical_capacity",
    "quantum_capacity",
]

_KET0 = np.diag([1.0, 0.0]).astype(complex)
_KET1 = np.diag([0.0, 1.0]).astype(complex)
#: Absolute tolerance on the signaling weight in the classical solve.
_WEIGHT_XATOL = 1e-12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Signaling ensemble: pure states with probabilities.

    ``entries`` is a sequence of ``(probability, density_matrix)`` pairs.
    Probabilities must be non-negative and sum to 1 within 1e-10; each
    state must be pure (``Tr(rho^2) = 1`` within 1e-9).
    """

    entries: tuple

    def __post_init__(self):
        pairs = []
        total = 0.0
        for prob, rho in self.entries:
            prob = float(prob)
            if prob < -1e-12:
                raise ValueError(f"negative ensemble probability {prob}")
            rho = as_complex_matrix(rho)
            assert_density_matrix(rho)
            purity = float(np.trace(rho @ rho).real)
            if abs(purity - 1.0) > 1e-9:
                raise ValueError(f"ensemble state has purity {purity}, expected pure")
            frozen = rho.copy()
            frozen.setflags(write=False)
            pairs.append((max(prob, 0.0), frozen))
            total += prob
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"ensemble probabilities sum to {total}, expected 1")
        object.__setattr__(self, "entries", tuple(pairs))

    @staticmethod
    def computational(weight: float = 0.5) -> "Ensemble":
        """Two-state qubit ensemble ``{(w, |0>), (1-w, |1>)}``."""
        return Ensemble(((weight, _KET0), (1.0 - weight, _KET1)))


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the capacity maximizations.

    ``max_iterations`` caps each solver run of both capacities; the rest
    reach only the quantum one. ``restarts`` counts total Nelder-Mead runs
    (the canonical start plus ``restarts - 1`` seeded random ones).
    ``tolerance`` is the absolute agreement, in bits, required between
    the two best restarts for the run to be flagged converged.
    """

    restarts: int = 6
    max_iterations: int = 400
    tolerance: float = 1e-6
    seed: int = 20240601

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Outcome of a capacity maximization.

    ``value`` is the reported capacity in bits (clamped at zero for the
    quantum capacity, whose raw optimum is kept in ``raw_value``).
    ``argmax`` is the maximizing :class:`Ensemble` (classical) or input
    density matrix (quantum).
    """

    value: float
    argmax: object
    converged: bool
    evaluations: int
    raw_value: float


def holevo_information(ch: Channel, ens: Ensemble) -> float:
    """Holevo information of an ensemble sent through a channel.

    Computes ``S(sum_i p_i E(rho_i)) - sum_i p_i S(E(rho_i))`` on the
    channel outputs. Result lies in ``[0, log2 d_out]``.
    """
    outputs = []
    probs = []
    for prob, rho in ens.entries:
        outputs.append(apply(ch, rho))
        probs.append(prob)
    average = sum(p * out for p, out in zip(probs, outputs))
    chi = von_neumann_entropy(average) - sum(
        p * von_neumann_entropy(out) for p, out in zip(probs, outputs)
    )
    return float(max(chi, 0.0))


def complementary_output(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Environment state seen through the complementary channel.

    Entry ``(a, b)`` is ``Tr(K_a rho K_b^dag)``; the result is a valid
    density matrix of dimension equal to the Kraus count.
    """
    rho = as_complex_matrix(rho)
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(
            f"state of shape {rho.shape} does not match channel input dim {ch.d_in}"
        )
    ks = ch.stacked
    n = ch.n_kraus
    products = (ks @ rho).reshape(n, -1)
    return products @ ks.conj().reshape(n, -1).T


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(rho)
    root = np.sqrt(np.clip(eigvals, 0.0, None))
    return (eigvecs * root) @ eigvecs.conj().T


def exchange_entropy(ch: Channel, rho: np.ndarray) -> float:
    """Entropy in bits of the environment output for input ``rho``.

    Spectrally equivalent to ``von_neumann_entropy(complementary_output(
    ch, rho))`` but computed from a Gram matrix of size at most
    ``d_out * d_in``, which is much smaller than the Kraus count for the
    nested compositions.
    """
    rho = as_complex_matrix(rho)
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(
            f"state of shape {rho.shape} does not match channel input dim {ch.d_in}"
        )
    return _exchange_entropy_fast(ch.stacked, rho)


def _exchange_entropy_fast(stacked: np.ndarray, rho: np.ndarray) -> float:
    n = stacked.shape[0]
    vecs = (stacked @ _sqrt_psd(rho)).reshape(n, -1)
    if n <= vecs.shape[1]:
        gram = vecs @ vecs.conj().T
    else:
        gram = vecs.conj().T @ vecs
    return entropy_of_spectrum(np.linalg.eigvalsh(gram))


def coherent_information(ch: Channel, rho: np.ndarray) -> float:
    """Coherent information ``S(E(rho)) - S_e(rho)``; may be negative."""
    rho = as_complex_matrix(rho)
    assert_density_matrix(rho)
    return von_neumann_entropy(apply(ch, rho)) - exchange_entropy(ch, rho)


def target_marginal(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Channel output reduced to the target (last) output factor."""
    out = apply(ch, rho)
    if len(ch.output_dims) == 1:
        return out
    return partial_trace(out, ch.output_dims, keep=[len(ch.output_dims) - 1])


def classical_capacity(ch: Channel, cfg: Optional[OptimizerConfig] = None) -> CapacityResult:
    """One-shot classical capacity over computational-basis signaling.

    Maximizes the Holevo information of ``{(w, |0>), (1-w, |1>)}`` on the
    target marginal over ``w`` by one bounded scalar solve; the quantity is
    concave in ``w``, so ``converged`` (the solver's success) certifies the
    maximum. The input space must be a qubit.
    """
    cfg = cfg or OptimizerConfig()
    if ch.d_in != 2:
        raise ValueError("classical capacity requires a qubit input space")
    m0 = target_marginal(ch, _KET0)
    m1 = target_marginal(ch, _KET1)
    s0 = von_neumann_entropy(m0)
    s1 = von_neumann_entropy(m1)

    def negative_holevo(w: float) -> float:
        avg = w * m0 + (1.0 - w) * m1
        return float(w * s0 + (1.0 - w) * s1 - von_neumann_entropy(avg))

    res = minimize_scalar(
        negative_holevo,
        bounds=(0.0, 1.0),
        method="bounded",
        options={"maxiter": cfg.max_iterations, "xatol": _WEIGHT_XATOL},
    )
    # ``0.0 - fun``, not ``-fun``: a zero optimum must stay +0 so CSVs print "0".
    raw = 0.0 - float(res.fun)
    return CapacityResult(
        value=max(raw, 0.0),
        argmax=Ensemble.computational(float(res.x)),
        converged=bool(res.success),
        evaluations=int(res.nfev),
        raw_value=raw,
    )


def _bloch_density(r: float, theta: float, phi: float) -> np.ndarray:
    direction = (
        np.sin(theta) * np.cos(phi) * SIGMA_X
        + np.sin(theta) * np.sin(phi) * SIGMA_Y
        + np.cos(theta) * SIGMA_Z
    )
    return 0.5 * (IDENTITY_2 + r * direction)


def quantum_capacity(ch: Channel, cfg: Optional[OptimizerConfig] = None) -> CapacityResult:
    """One-shot quantum capacity: maximum coherent information.

    Searches the full Bloch ball of target inputs (radius, polar and
    azimuthal angle; the radius is squashed through sin^2 so the search
    is unconstrained). The reported value is clamped at zero; the raw
    optimum survives in ``raw_value``.
    """
    cfg = cfg or OptimizerConfig()
    if ch.d_in != 2:
        raise ValueError("quantum capacity requires a qubit input space")
    stacked = ch.stacked

    def objective(x: np.ndarray) -> float:
        r = float(np.sin(x[0]) ** 2)
        rho = _bloch_density(r, x[1], x[2])
        out = np.einsum("aij,jk,alk->il", stacked, rho, stacked.conj())
        s_out = entropy_of_spectrum(np.linalg.eigvalsh(out))
        return s_out - _exchange_entropy_fast(stacked, rho)

    rng = np.random.default_rng(cfg.seed)
    starts = [np.array([0.0, np.pi / 2, 0.0])]
    for _ in range(cfg.restarts - 1):
        starts.append(
            np.array(
                [
                    rng.uniform(0.0, np.pi / 2),
                    rng.uniform(0.0, np.pi),
                    rng.uniform(0.0, 2 * np.pi),
                ]
            )
        )
    res = maximize_multistart(objective, starts, cfg.max_iterations, cfg.tolerance)
    r = float(np.sin(res.x[0]) ** 2)
    best_rho = _bloch_density(r, res.x[1], res.x[2])
    return CapacityResult(
        value=max(res.value, 0.0),
        argmax=best_rho,
        converged=res.converged,
        evaluations=res.evaluations,
        raw_value=res.value,
    )
