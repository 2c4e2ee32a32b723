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

The classical capacity is one bounded Brent solve (golden section with
parabolic steps) of a concave function, and needs a qubit target output
factor. The target marginals of the two basis inputs are built and checked
once per call; each evaluation is the closed-form entropy of their 2 x 2
mixture, computed on floats.

Coherent information is not concave, so ``quantum_capacity`` runs a
multistart BFGS with a backtracking line search over the Bloch ball: a
canonical start (maximally mixed state) plus seeded random restarts,
deterministic for a fixed seed. Output and environment states are affine in
the Bloch vector, so one evaluation is two Hermitian eigendecompositions,
which give the value and its exact gradient. Both solvers are short loops in
this module, on floats and numpy arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import Channel, apply, complementary_output
from .qmatrix import (
    EIGENVALUE_FLOOR,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    assert_density_matrix,
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

#: Absolute tolerance on the signaling weight in the classical solve. Chi is flat
#: to second order at its maximum, so finer weights change it by < 1e-15 bits.
_WEIGHT_XATOL = 1e-8
#: Max-abs gradient at which a quantum-capacity BFGS run stops.
_GRADIENT_TOL = 1e-8
#: Eigenvalues at or below this drop out of the entropy and its gradient.
_SPECTRUM_FLOOR = 1e-15
#: ``sigma_mu / 2`` for ``mu = 0..3``: a qubit state is ``[0] + r . [1:]``.
_PAULI_HALVES = np.stack([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]) / 2


def _pure_state(rho) -> np.ndarray:
    """``rho`` checked as a pure density matrix, as a read-only copy."""
    rho = assert_density_matrix(rho)
    purity = float(np.trace(rho @ rho).real)
    if abs(purity - 1.0) > 1e-9:
        raise ValueError(f"ensemble state has purity {purity}, expected pure")
    frozen = rho.copy()
    frozen.setflags(write=False)
    return frozen


#: ``|0><0|`` and ``|1><1|``, checked once for every computational ensemble.
_BASIS = (_pure_state(np.diag([1.0, 0.0])), _pure_state(np.diag([0.0, 1.0])))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Signaling ensemble: pure states with probabilities.

    ``entries`` is a sequence of ``(probability, density_matrix)`` pairs.
    Probabilities must be non-negative and sum to 1 within 1e-10; each
    state must be pure (``Tr(rho^2) = 1`` within 1e-9).
    """

    entries: tuple

    def __post_init__(self):
        self._freeze(self.entries, _pure_state)

    def _freeze(self, entries, check_state) -> None:
        """Check each probability, pass each state through ``check_state``, store both."""
        pairs, total = [], 0.0
        for prob, rho in entries:
            prob = float(prob)
            if prob < -1e-12:
                raise ValueError(f"negative ensemble probability {prob}")
            pairs.append((max(prob, 0.0), check_state(rho)))
            total += prob
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"ensemble probabilities sum to {total}, expected 1")
        object.__setattr__(self, "entries", tuple(pairs))

    @staticmethod
    def computational(weight: float = 0.5) -> "Ensemble":
        """Two-state qubit ensemble ``{(w, |0>), (1-w, |1>)}``; only ``w`` is checked."""
        ens = object.__new__(Ensemble)
        ens._freeze(zip((weight, 1.0 - weight), _BASIS), lambda rho: rho)
        return ens


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the capacity maximizations.

    ``max_iterations`` caps each solver run of both capacities (objective
    evaluations of the bounded Brent solve, or BFGS iterations); the rest
    reach only the quantum one. ``restarts`` counts total BFGS runs (the
    canonical start plus ``restarts - 1`` seeded random ones).
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
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Outcome of a capacity maximization.

    ``value`` is the reported capacity in bits (clamped to ``[0, log2 d_in]``
    for the quantum capacity, whose raw optimum is kept in ``raw_value``).
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


def exchange_entropy(ch: Channel, rho: np.ndarray) -> float:
    """Entropy in bits of the environment output for input ``rho``."""
    return von_neumann_entropy(complementary_output(ch, rho))


def coherent_information(ch: Channel, rho: np.ndarray) -> float:
    """Coherent information ``S(E(rho)) - S_e(rho)``; may be negative."""
    assert_density_matrix(rho)
    return von_neumann_entropy(apply(ch, rho)) - exchange_entropy(ch, rho)


def target_marginal(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Channel output reduced to the target (last) output factor."""
    out = apply(ch, rho)
    if len(ch.output_dims) == 1:
        return out
    return partial_trace(out, ch.output_dims, keep=[len(ch.output_dims) - 1])


def _holevo_objective(ch: Channel):
    """``w -> -chi(w)`` for the prior ``{(w, |0>), (1-w, |1>)}`` on the target marginal.

    The target marginals ``m0`` and ``m1`` of the two basis inputs come from
    one contraction over the Kraus operators and pass the checks of
    :func:`von_neumann_entropy` (finite, Hermitian, spectrum above
    ``EIGENVALUE_FLOOR``), which also gives their entropies. Each evaluation
    is then closed-form arithmetic on floats: the eigenvalues of the 2 x 2
    average ``w m0 + (1-w) m1`` are ``trace/2 +- hypot(...)``. The target
    output factor must be a qubit.
    """
    cols = ch.stacked.reshape(ch.n_kraus, -1, 2, 2)
    m0, m1 = np.einsum("arti,arui->itu", cols, cols.conj())
    s0 = von_neumann_entropy(m0)
    s1 = von_neumann_entropy(m1)
    # A convex combination of the two validated states is Hermitian and
    # finite, and its smallest eigenvalue is at least the smaller of theirs
    # (the smallest eigenvalue is concave), so an evaluation repeats only the
    # floor check, on two floats.
    a0, d0, b0 = float(m0[0, 0].real), float(m0[1, 1].real), complex(m0[1, 0])
    a1, d1, b1 = float(m1[0, 0].real), float(m1[1, 1].real), complex(m1[1, 0])

    def negative_holevo(w: float) -> float:
        v = 1.0 - w
        a, d, b = w * a0 + v * a1, w * d0 + v * d1, w * b0 + v * b1
        half = 0.5 * (a + d)
        radius = math.hypot(0.5 * (a - d), b.real, b.imag)
        entropy = 0.0
        for eig in (half - radius, half + radius):
            if eig < EIGENVALUE_FLOOR:
                raise ValueError(f"eigenvalue {eig:.3e} below positivity floor")
            eig = min(eig, 1.0)
            if eig > 0.0:
                entropy -= eig * math.log2(eig)
        return w * s0 + v * s1 - entropy

    return negative_holevo


#: Where one solver run stopped: point, value, evaluations, iterations, success.
_Run = namedtuple("_Run", "x fun nfev nit success")
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_brent(f, a: float, b: float, xatol: float, maxfun: int) -> _Run:
    """Minimize a scalar function on ``[a, b]`` by Brent's bounded method.

    The steps and stopping rule of scipy's ``minimize_scalar(method="bounded")``,
    on floats: a parabola through the three best points when it lands inside the
    bracket and shrinks the step, else a golden-section step, never closer than
    ``tol1`` to a known point. Fails when ``maxfun`` evaluations run out first.
    """
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    n, d, e = 1, 0.0, 0.0
    while True:
        xm, tol1 = 0.5 * (a + b), math.sqrt(2.2e-16) * abs(x) + xatol / 3.0
        if n > 1 and n >= maxfun:
            return _Run(x, fx, n, n, False)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            return _Run(x, fx, n, n, True)
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden, d = False, p / q
                u = x + d
                if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = a - x if x >= xm else b - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = f(u)
        n += 1
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def classical_capacity(ch: Channel, cfg: Optional[OptimizerConfig] = None) -> CapacityResult:
    """One-shot classical capacity over computational-basis signaling.

    Maximizes the Holevo information of ``{(w, |0>), (1-w, |1>)}`` on the
    target marginal over ``w`` by one bounded scalar solve; the quantity is
    concave in ``w``, so ``converged`` (the solver's success) certifies the
    maximum. The input space and the target (last) output factor must be
    qubits. The two target marginals are built and checked once, at entry;
    each evaluation is the closed-form 2 x 2 entropy of their mixture.
    """
    cfg = cfg or OptimizerConfig()
    if ch.d_in != 2:
        raise ValueError("classical capacity requires a qubit input space")
    if ch.output_dims[-1] != 2:
        raise ValueError("classical capacity requires a qubit target output factor")
    res = _bounded_brent(_holevo_objective(ch), 0.0, 1.0, _WEIGHT_XATOL, cfg.max_iterations)
    # ``0.0 - fun``, not ``-fun``: a zero optimum must stay +0 so CSVs print "0".
    raw = 0.0 - float(res.fun)
    return CapacityResult(
        value=max(raw, 0.0),
        argmax=Ensemble.computational(float(res.x)),
        converged=bool(res.success),
        evaluations=int(res.nfev),
        raw_value=raw,
    )


def _entropy_and_gradient(maps: np.ndarray, r: np.ndarray) -> tuple:
    """Entropy in bits of ``maps[0] + r . maps[1:]`` and its gradient in ``r``.

    The slopes ``maps[1:]`` are traceless, so ``dS/dr_i = -Tr(maps[i+1] log2 rho)``.
    Eigenvalues at or below ``_SPECTRUM_FLOOR`` add nothing to either.
    """
    eigvals, eigvecs = np.linalg.eigh(maps[0] + np.tensordot(r, maps[1:], axes=1))
    keep = eigvals > _SPECTRUM_FLOOR
    weights, vecs = eigvals[keep], eigvecs[:, keep]
    logs = np.log2(weights)
    slopes = np.einsum("ik,nik->nk", vecs.conj(), maps[1:] @ vecs).real
    return -float(weights @ logs), -(slopes @ logs)


def _objective(ch: Channel):
    """``x -> (-I_c, -grad I_c)`` at the Bloch vector ``r = x / max(1, |x|)``.

    The input ``(I + r . sigma) / 2`` has output ``out[0] + r . out[1:]`` and
    environment state ``env[0] + r . env[1:]``, from the images of
    ``sigma_mu / 2`` built once here. Outside the unit ball the gradient
    is chained through the projection onto the sphere.
    """
    out = np.stack([apply(ch, half) for half in _PAULI_HALVES])
    env = np.stack([complementary_output(ch, half) for half in _PAULI_HALVES])

    def negative_coherent_information(x: np.ndarray) -> tuple:
        norm = float(np.linalg.norm(x))
        r = x / max(1.0, norm)
        s_out, g_out = _entropy_and_gradient(out, r)
        s_env, g_env = _entropy_and_gradient(env, r)
        value, grad = s_env - s_out, g_env - g_out
        if norm > 1.0:
            grad = (grad - r * (r @ grad)) / norm
        return value, grad

    return negative_coherent_information


def _bfgs(fun, x: np.ndarray, gtol: float, maxiter: int) -> _Run:
    """Minimize ``fun`` (value and gradient) from ``x`` by BFGS.

    Each line search starts at scipy's BFGS trial step, ``min(1, 2.02 (f - f_prev)
    / slope)``, and halves it until the Armijo condition holds; a step shorter
    than ``1e-6`` of the trial fails the run. The inverse Hessian takes the
    BFGS update whenever the curvature ``y . s`` is positive. Succeeds when the
    max-abs gradient reaches ``gtol`` within ``maxiter`` iterations.
    """
    f, g = fun(x)
    nfev, nit = 1, 0
    f_prev, h = f + float(np.linalg.norm(g)) / 2, np.eye(len(x))
    while np.abs(g).max() > gtol and nit < maxiter:
        p = -h @ g
        slope = float(g @ p)
        trial = step = min(1.0, 2.02 * (f - f_prev) / slope)
        while step > 1e-6 * trial:
            f_new, g_new = fun(x + step * p)
            nfev += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            return _Run(x, f, nfev, nit, False)
        s, y = step * p, g_new - g
        x, f_prev, f, g, nit = x + s, f, f_new, g_new, nit + 1
        if (sy := s @ y) > 0:
            a = np.eye(len(x)) - np.outer(s, y) / sy
            h = a @ h @ a.T + np.outer(s, s) / sy
    return _Run(x, f, nfev, nit, nit < maxiter)


def quantum_capacity(ch: Channel, cfg: Optional[OptimizerConfig] = None) -> CapacityResult:
    """One-shot quantum capacity: maximum coherent information.

    Runs BFGS on the exact gradient over the full Bloch ball of target
    inputs, once from the maximally mixed input and once from each of
    ``cfg.restarts - 1`` seeded points drawn uniformly in the ball. The
    search point is the Bloch vector, projected onto the sphere from
    outside, so the search is unconstrained. The best run wins, the lowest
    restart index among exact ties. One evaluation gives value and gradient.

    ``converged`` means the two best runs agree within ``cfg.tolerance``.
    A single run reports the solver's success, but a run that ends at its
    start after no iteration is no success: the gradient vanishes at the
    maximally mixed input of every Pauli-covariant channel, maximum or not.
    The value is clamped to ``[0, log2 d_in]``, the range of the quantum
    capacity (rounding can put a noiseless optimum a few ulp above 1 bit);
    the raw optimum survives in ``raw_value``.
    """
    cfg = cfg or OptimizerConfig()
    if ch.d_in != 2:
        raise ValueError("quantum capacity requires a qubit input space")
    objective = _objective(ch)

    rng = np.random.default_rng(cfg.seed)
    directions = rng.normal(size=(cfg.restarts - 1, 3))
    radii = rng.uniform(size=(cfg.restarts - 1, 1)) ** (1 / 3)
    seeded = radii * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    starts = [np.zeros(3), *seeded]
    runs = [_bfgs(objective, x0, _GRADIENT_TOL, cfg.max_iterations) for x0 in starts]
    values = np.array([0.0 - res.fun for res in runs])
    best = int(np.argmax(values))
    if len(runs) >= 2:
        second, first = np.sort(values)[-2:]
        converged = bool(first - second <= cfg.tolerance)
    else:
        converged = bool(runs[0].success and runs[0].nit > 0)
    raw = float(values[best])
    bloch = runs[best].x / max(1.0, float(np.linalg.norm(runs[best].x)))
    return CapacityResult(
        value=min(max(raw, 0.0), math.log2(ch.d_in)),
        argmax=_PAULI_HALVES[0] + np.tensordot(bloch, _PAULI_HALVES[1:], axes=1),
        converged=converged,
        evaluations=sum(int(res.nfev) for res in runs),
        raw_value=raw,
    )
