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
Coherent information is not concave, so ``quantum_capacity`` runs its own
multistart Nelder-Mead over the Bloch ball: a canonical start (maximally
mixed state) plus seeded random restarts, deterministic for a fixed seed.

Both entropies of the coherent information come from one product
``V_a = K_a sqrt(rho)``: the output state is ``sum_a V_a V_a^dag`` and the
environment state has entries ``Tr(V_a V_b^dag)``, so each entropy is the
spectrum of the smaller Gram matrix of one reshape of ``V``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .channels import Channel, _input_state, apply
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
    rho = _input_state(ch, rho)
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
    ``min(n_kraus, d_out * d_in)``.
    """
    rho = _input_state(ch, rho)
    return _gram_entropy((ch.stacked @ _sqrt_psd(rho)).reshape(ch.n_kraus, -1))


def _gram_entropy(m: np.ndarray) -> float:
    """Entropy in bits of ``m m^dag``, read from the smaller Gram matrix of ``m``.

    ``m m^dag`` and ``m^dag m`` share their nonzero spectrum.
    """
    if m.shape[0] <= m.shape[1]:
        gram = m @ m.conj().T
    else:
        gram = m.conj().T @ m
    return entropy_of_spectrum(np.linalg.eigvalsh(gram))


def _coherent_information(stacked: np.ndarray, rho: np.ndarray) -> float:
    """``S(E(rho)) - S_e(rho)`` for a Kraus stack, from ``V_a = K_a sqrt(rho)``.

    Laying the ``V_a`` side by side gives a matrix whose Gram is the output
    state; flattening each ``V_a`` to a row gives one whose Gram is the
    environment state.
    """
    n, d_out, _ = stacked.shape
    v = stacked @ _sqrt_psd(rho)
    s_out = _gram_entropy(v.transpose(1, 0, 2).reshape(d_out, -1))
    return s_out - _gram_entropy(v.reshape(n, -1))


def coherent_information(ch: Channel, rho: np.ndarray) -> float:
    """Coherent information ``S(E(rho)) - S_e(rho)``; may be negative."""
    assert_density_matrix(rho)
    return _coherent_information(ch.stacked, _input_state(ch, rho))


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


def _bloch_density(x: np.ndarray) -> np.ndarray:
    """Qubit state with Bloch vector ``x / max(1, |x|)``.

    The origin must be a regular point of this map. The canonical restart
    starts there, at the maximally mixed input, and a map with zero slope
    at the origin (such as the radius ``sin^2 x[0]``) makes it a
    stationary point of every objective, where Nelder-Mead can stop short
    of the optimum. Inside the unit ball the map is the identity; outside,
    ``x`` gives the pure state on the boundary in its direction.
    """
    bloch = x / max(1.0, float(np.linalg.norm(x)))
    return 0.5 * (IDENTITY_2 + bloch[0] * SIGMA_X + bloch[1] * SIGMA_Y + bloch[2] * SIGMA_Z)


def quantum_capacity(ch: Channel, cfg: Optional[OptimizerConfig] = None) -> CapacityResult:
    """One-shot quantum capacity: maximum coherent information.

    Searches the full Bloch ball of target inputs (the search point is the
    Bloch vector, projected onto the sphere from outside, so the search is
    unconstrained) with one Nelder-Mead run per restart: one from the
    maximally mixed input and the rest from seeded points drawn uniformly
    in the ball. The best run wins, the lowest restart index among exact
    ties. ``converged`` means the two best runs agree within
    ``cfg.tolerance``; a single run reports the solver's own success. The
    reported value is clamped at zero; the raw optimum survives in
    ``raw_value``.
    """
    cfg = cfg or OptimizerConfig()
    if ch.d_in != 2:
        raise ValueError("quantum capacity requires a qubit input space")
    stacked = ch.stacked

    def negative_coherent_information(x: np.ndarray) -> float:
        return -_coherent_information(stacked, _bloch_density(x))

    rng = np.random.default_rng(cfg.seed)
    directions = rng.normal(size=(cfg.restarts - 1, 3))
    radii = rng.uniform(size=(cfg.restarts - 1, 1)) ** (1 / 3)
    seeded = radii * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    runs = [
        minimize(
            negative_coherent_information,
            x0,
            method="Nelder-Mead",
            options={"maxiter": cfg.max_iterations, "xatol": 1e-9, "fatol": 1e-12},
        )
        for x0 in [np.zeros(3), *seeded]
    ]
    values = np.array([-res.fun for res in runs])
    best = int(np.argmax(values))
    if len(runs) >= 2:
        second, first = np.sort(values)[-2:]
        converged = bool(first - second <= cfg.tolerance)
    else:
        converged = bool(runs[0].success)
    raw = float(values[best])
    return CapacityResult(
        value=max(raw, 0.0),
        argmax=_bloch_density(runs[best].x),
        converged=converged,
        evaluations=sum(int(res.nfev) for res in runs),
        raw_value=raw,
    )
