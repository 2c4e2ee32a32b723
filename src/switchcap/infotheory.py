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

The classical capacity maximizes a concave function of one weight by
bisection on the sign of its exact slope, and needs a qubit target output
factor. The target marginals of the two basis inputs are built and checked
once per call; value and slope are closed-form 2 x 2 arithmetic on their
mixture, computed on floats.

Coherent information is not concave, so ``quantum_capacity`` runs a
multistart BFGS with a backtracking line search over the Bloch ball: a
canonical start (maximally mixed state) plus seeded random restarts,
deterministic for a fixed seed. Output and environment states are affine in
the Bloch vector, so their eigendecompositions give the value and its exact
gradient; a point on or outside the sphere is a pure input, scored 0 with
zero gradient and no eigendecomposition. The restarts advance in lockstep, each
round with one eigendecomposition per map of its points inside the ball.
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
    "exchange_entropy",
    "coherent_information",
    "target_marginal",
    "classical_capacity",
    "quantum_capacity",
]

#: Max-abs gradient at which a solver run stops: chi' for the classical
#: capacity, the gradient of I_c for the quantum one.
_GRADIENT_TOL = 1e-8
#: Most slope evaluations of a classical solve, and BFGS iterations of a quantum run.
_MAX_ITERATIONS = 400
#: Eigenvalues at or below this drop out of the entropy and its gradient.
_SPECTRUM_FLOOR = 1e-15
#: ``sigma_mu / 2`` for ``mu = 0..3``: a qubit state is ``[0] + r . [1:]``.
_PAULI_HALVES = np.stack([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]) / 2
#: Most runs :func:`_lockstep` advances together, which bounds the memory of one round.
_BLOCK = 32


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
            if not -1e-12 <= prob:
                raise ValueError(f"negative ensemble probability {prob}")
            pairs.append((max(prob, 0.0), check_state(rho)))
            total += prob
        if not abs(total - 1.0) <= 1e-10:
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
    """Settings for the quantum capacity maximization.

    ``restarts`` counts total BFGS runs (the canonical start plus
    ``restarts - 1`` seeded ones), which advance in lockstep. ``tolerance``
    is the absolute agreement, in bits, required between the two best
    restarts for the run to be flagged converged.
    """

    restarts: int = 6
    tolerance: float = 1e-6
    seed: int = 20240601

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
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
    """``w -> chi(w)`` and ``w -> chi'(w)`` for the prior ``{(w, |0>), (1-w, |1>)}``.

    chi is the Holevo information on the target marginal, which must be a
    qubit. The marginals ``m0`` and ``m1`` of the two basis inputs come from one
    contraction over the Kraus operators and pass the checks of
    :func:`von_neumann_entropy` (finite, Hermitian, spectrum above
    ``EIGENVALUE_FLOOR``), which also gives their entropies ``s0`` and ``s1``.
    Each evaluation is then closed-form arithmetic on floats: ``M(w) = w m0 +
    (1-w) m1`` has eigenvalues ``l+- = trace/2 +- R``, ``R`` the length of its
    half Bloch vector ``u``, so ``chi'(w) = s1 - s0 - (u . du / R) log2(l+ / l-)``
    with ``du = u(1) - u(0)``, or ``s1 - s0`` where ``u . du = 0`` or ``l- <= 0``
    (``m0 = m1`` pure, where chi vanishes).
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
    du = (0.5 * ((a0 - d0) - (a1 - d1)), (b0 - b1).real, (b0 - b1).imag)

    def mixture(w: float) -> tuple:
        """Half trace, half Bloch vector and its length ``R`` for ``M(w)``."""
        v = 1.0 - w
        a, d, b = w * a0 + v * a1, w * d0 + v * d1, w * b0 + v * b1
        u = (0.5 * (a - d), b.real, b.imag)
        return 0.5 * (a + d), u, math.hypot(*u)

    def holevo(w: float) -> float:
        half, _, radius = mixture(w)
        entropy = 0.0
        for eig in (half - radius, half + radius):
            if eig < EIGENVALUE_FLOOR:
                raise ValueError(f"eigenvalue {eig:.3e} below positivity floor")
            eig = min(eig, 1.0)
            if eig > 0.0:
                entropy -= eig * math.log2(eig)
        return entropy - (w * s0 + (1.0 - w) * s1)

    def slope(w: float) -> float:
        half, u, radius = mixture(w)
        dot = u[0] * du[0] + u[1] * du[1] + u[2] * du[2]
        if dot == 0.0 or half - radius <= 0.0:
            return s1 - s0
        return s1 - s0 - dot / radius * math.log2((half + radius) / (half - radius))

    return holevo, slope


#: Where one solver run stopped: point, value, evaluations, iterations, success.
_Run = namedtuple("_Run", "x fun nfev nit success")


def _bisect(fun, slope, gtol: float, maxiter: int) -> _Run:
    """Maximize a concave ``fun`` on ``[0, 1]`` by bisection on the sign of ``slope``.

    Succeeds at the first midpoint where ``|slope| <= gtol``, which by concavity
    puts ``fun`` within ``gtol`` of its maximum; fails when ``maxiter`` slope
    evaluations run out first. ``nit`` counts slope evaluations, and ``nfev``
    adds the one evaluation of ``fun``, at the returned point.
    """
    lo, hi = 0.0, 1.0
    for nit in range(1, maxiter + 1):
        x = 0.5 * (lo + hi)
        grad = slope(x)
        if abs(grad) <= gtol:
            break
        lo, hi = (x, hi) if grad > 0.0 else (lo, x)
    return _Run(x, fun(x), nit + 1, nit, abs(grad) <= gtol)


def classical_capacity(ch: Channel) -> CapacityResult:
    """One-shot classical capacity over computational-basis signaling.

    Maximizes the Holevo information chi of ``{(w, |0>), (1-w, |1>)}`` on the
    target marginal over ``w`` by bisection on the sign of its exact slope.
    The input space and the target (last) output factor must be qubits. The
    two target marginals are built and checked once, at entry; each
    evaluation is closed-form 2 x 2 arithmetic on their mixture.

    chi is concave, so ``converged`` is a certificate: the solve stopped at a
    weight where ``|chi'| <= 1e-8``, so the value is within 1e-8 bits of the
    maximum. ``evaluations`` counts slope evaluations (at most 400) plus the
    one value evaluation.
    """
    if ch.d_in != 2:
        raise ValueError("classical capacity requires a qubit input space")
    if ch.output_dims[-1] != 2:
        raise ValueError("classical capacity requires a qubit target output factor")
    res = _bisect(*_holevo_objective(ch), _GRADIENT_TOL, _MAX_ITERATIONS)
    return CapacityResult(
        value=max(res.fun, 0.0),
        argmax=Ensemble.computational(res.x),
        converged=res.success,
        evaluations=res.nfev,
        raw_value=res.fun,
    )


def _entropy_and_gradient(maps: np.ndarray, r: np.ndarray) -> tuple:
    """Entropy in bits of ``maps[0] + r . maps[1:]`` and its gradient, per row ``r``.

    The states are assembled elementwise and eigendecomposed as one stack;
    no step mixes rows. The slopes ``maps[1:]`` are traceless and Hermitian,
    so ``dS/dr_i = -Tr(maps[i+1] log2 rho)`` is the real part of the sum of
    ``conj(maps[i+1]) * log2 rho``, with ``log2 rho`` rebuilt by one batched
    product. Eigenvalues at or below ``_SPECTRUM_FLOOR`` take log 1 and add nothing.
    """
    x, y, z = r.T[:, :, None, None]
    states = maps[0] + x * maps[1] + y * maps[2] + z * maps[3]
    eigvals, eigvecs = np.linalg.eigh(states)
    logs = np.log2(np.where(eigvals > _SPECTRUM_FLOOR, eigvals, 1.0))
    log_rho = (eigvecs * logs[:, None]) @ eigvecs.conj().transpose(0, 2, 1)
    traces = np.einsum("nij,mij->mn", maps[1:].conj(), log_rho).real
    return -(eigvals * logs).sum(axis=1), -traces


def _objective(ch: Channel):
    """``x -> (-I_c, -grad I_c)`` at the Bloch vector ``x``, per row ``x``.

    The input ``(I + x . sigma) / 2`` has output ``out[0] + x . out[1:]`` and
    environment state ``env[0] + x . env[1:]``, from the images of
    ``sigma_mu / 2`` built once here. A row with ``|x| >= 1`` is a pure input,
    whose output and environment entropies are equal: it scores 0 with zero
    gradient and no eigendecomposition.
    """
    ks, n = ch.stacked, ch.n_kraus
    images = ks @ _PAULI_HALVES[:, None]
    out = (images @ ks.conj().transpose(0, 2, 1)).sum(axis=1)
    env = images.reshape(4, n, -1) @ ks.conj().reshape(n, -1).T

    def negative_coherent_information(xs: np.ndarray) -> tuple:
        values, grads = np.zeros(len(xs)), np.zeros(xs.shape)
        inside = (xs * xs).sum(axis=1) < 1.0
        if inside.any():
            s_out, g_out = _entropy_and_gradient(out, xs[inside])
            s_env, g_env = _entropy_and_gradient(env, xs[inside])
            values[inside], grads[inside] = s_env - s_out, g_env - g_out
        return values, grads

    return negative_coherent_information


def _bfgs(x: np.ndarray, gtol: float, maxiter: int):
    """Minimize from ``x`` by BFGS: yield each point, be sent its value and gradient.

    The first point is ``x``, and the generator returns a ``_Run``. Each line
    search starts at the unit step along ``-h @ g`` and halves it until the
    Armijo condition holds; a step below ``1e-6`` fails the run. The inverse
    Hessian ``h`` takes the BFGS update whenever the curvature ``y . s`` is
    positive. Succeeds when the max-abs gradient reaches ``gtol`` within
    ``maxiter`` iterations.
    """
    f, g = yield x
    nfev, nit, h = 1, 0, np.eye(len(x))
    while np.abs(g).max() > gtol and nit < maxiter:
        p = -h @ g
        slope = float(g @ p)
        step = 1.0
        while step >= 1e-6:
            f_new, g_new = yield x + step * p
            nfev += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            return _Run(x, f, nfev, nit, False)
        s, y = step * p, g_new - g
        x, f, g, nit = x + s, f_new, g_new, nit + 1
        if (sy := s @ y) > 0:
            a = np.eye(len(x)) - np.outer(s, y) / sy
            h = a @ h @ a.T + np.outer(s, s) / sy
    return _Run(x, f, nfev, nit, nit < maxiter)


def _lockstep(fun, runs) -> list:
    """The ``_Run``s of the :func:`_bfgs` generators ``runs``, advanced in rounds.

    Each round stacks the pending points of the live runs, at most ``_BLOCK`` at
    a time, into one call of ``fun`` (``k`` rows to ``k`` values and gradients).
    """
    results = [None] * len(runs)
    for first in range(0, len(runs), _BLOCK):
        pending = {i: next(runs[i]) for i in range(len(runs))[first : first + _BLOCK]}
        while pending:
            values, grads = fun(np.array(list(pending.values())))
            for i, value, grad in zip(list(pending), values, grads):
                try:
                    pending[i] = runs[i].send((float(value), grad))
                except StopIteration as stop:
                    results[i] = stop.value
                    del pending[i]
    return results


def quantum_capacity(ch: Channel, cfg: Optional[OptimizerConfig] = None) -> CapacityResult:
    """One-shot quantum capacity: maximum coherent information.

    Runs BFGS on the exact gradient over the full Bloch ball of target inputs,
    once from the maximally mixed input and once from each of
    ``cfg.restarts - 1`` seeded points drawn uniformly in the ball. The search
    is unconstrained: a point with ``|x| >= 1`` is the pure input in its
    direction, where I_c is 0, and scores exactly 0 with zero gradient. The
    runs advance in lockstep, and ``evaluations`` counts all their points,
    eigendecomposed or not. The best run wins, the lowest restart index among exact ties.

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
    runs = _lockstep(objective, [_bfgs(x0, _GRADIENT_TOL, _MAX_ITERATIONS) for x0 in starts])
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
