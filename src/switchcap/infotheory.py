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

The classical capacity maximizes a concave function of one weight by a
Newton iteration on its exact slope and curvature, safeguarded by
bisection on the slope's sign, and needs a qubit target output factor. The
target marginals of the two basis inputs are built once per call; their
entropies, the value, slope and curvature are closed-form 2 x 2 arithmetic
on their mixture, computed on floats with no eigensolver.

Coherent information is not concave, so ``quantum_capacity`` runs a
multistart BFGS with a backtracking line search over the Bloch ball: a
canonical start (maximally mixed state) plus seeded random restarts,
deterministic for a fixed seed. Output and environment states are affine in
the Bloch vector, so their eigendecompositions give the value and its exact
gradient; a point on or outside the sphere is a pure input, scored 0 with
zero gradient and no eigendecomposition. The restarts advance in lockstep, each
round with one eigendecomposition per map of its points inside the ball. Each
run keeps its point, gradient and inverse Hessian in Python floats, and a
round assembles its states and gradient traces by products batched over its
points, one call per point, so a round costs little beyond its eigendecompositions
and no point's value depends on how many share its round.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import Channel, apply, complementary_output
from .qmatrix import (
    PAULIS,
    assert_density_matrix,
    partial_trace,
    unit_vector,
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
#: Relative decrease, ``-g . p <= _DECREASE_FLOOR * max(1, |f|)``, below which a
#: BFGS step is lost in the rounding of ``f`` and the run stops as a success.
_DECREASE_FLOOR = 1e-14
#: ``ln 2``, for derivatives of ``log2``.
_LN2 = math.log(2.0)
#: Eigenvalues at or below this drop out of the entropy and its gradient.
_SPECTRUM_FLOOR = 1e-15
#: ``sigma_mu / 2`` for ``mu = 0..3``: a qubit state is ``[0] + r . [1:]``.
_PAULI_HALVES = PAULIS / 2
#: Most runs :func:`_lockstep` advances together, which bounds the memory of one round.
_BLOCK = 32


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Signaling ensemble: pure states with probabilities.

    ``entries`` is a sequence of ``(probability, ket)`` pairs. Probabilities
    must be non-negative and sum to 1 within 1e-10; the kets, all of the first
    one's length, pass :func:`~switchcap.qmatrix.unit_vector`.
    """

    entries: tuple

    def __post_init__(self):
        pairs, total = [], 0.0
        for prob, ket in self.entries:
            prob = float(prob)
            if not -1e-12 <= prob:
                raise ValueError(f"negative ensemble probability {prob}")
            dim = len(pairs[0][1]) if pairs else len(np.atleast_1d(ket))
            # The read-only basis kets passed unit_vector once, at import.
            if dim != 2 or not (ket is _BASIS_KETS[0] or ket is _BASIS_KETS[1]):
                ket = unit_vector(ket, dim, _KET_WHAT)
            pairs.append((max(prob, 0.0), ket))
            total += prob
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"ensemble probabilities sum to {total}, expected 1")
        object.__setattr__(self, "entries", tuple(pairs))

    @staticmethod
    def computational(weight: float = 0.5) -> "Ensemble":
        """Two-state qubit ensemble ``{(w, |0>), (1-w, |1>)}``, sharing one ``|0>`` and ``|1>``."""
        return Ensemble(((weight, _BASIS_KETS[0]), (1.0 - weight, _BASIS_KETS[1])))


#: What an ensemble ket is called in ``unit_vector`` errors.
_KET_WHAT = "ensemble state amplitudes"
#: ``|0>`` and ``|1>``, checked here once for every computational ensemble.
_BASIS_KETS = tuple(unit_vector(ket, 2, _KET_WHAT) for ket in ((1.0, 0.0), (0.0, 1.0)))


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the quantum capacity maximization.

    ``restarts`` counts total BFGS runs (the canonical start plus
    ``restarts - 1`` seeded ones), which advance in lockstep. ``tolerance``
    is the absolute agreement, in bits, required between the two best
    restarts for the run to be flagged converged. ``restarts`` and ``seed``
    must be integers (whatever ``operator.index`` accepts), stored as ``int``;
    ``tolerance`` whatever ``float`` accepts, numeric strings too, as ``float``.
    """

    restarts: int = 6
    tolerance: float = 1e-6
    seed: int = 20240601

    def __post_init__(self):
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        try:
            object.__setattr__(self, "tolerance", float(self.tolerance))
        except (TypeError, ValueError):
            object.__setattr__(self, "tolerance", math.nan)
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

    Computes ``S(sum_i p_i E(rho_i)) - sum_i p_i S(E(rho_i))`` on the channel
    outputs, ``rho_i = |psi_i><psi_i|``. Result lies in ``[0, log2 d_out]``.
    """
    probs = [prob for prob, _ in ens.entries]
    outputs = [apply(ch, np.outer(ket, ket.conj())) for _, ket in ens.entries]
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
    """Channel output reduced to the target (last) output factor: all of a one-factor output."""
    return partial_trace(apply(ch, rho), ch.output_dims, keep=[len(ch.output_dims) - 1])


def _qubit_entropy(a: float, d: float, b: complex) -> float:
    """Entropy in bits of the Hermitian ``[[a, b*], [b, d]]``, from its spectrum in closed form.

    The eigenvalues are ``(a + d)/2 +- R``, ``R`` the length of ``((a - d)/2,
    Re b, Im b)``. As in :func:`entropy_of_spectrum`, they are clamped to
    ``[0, 1]``.
    """
    half, radius = 0.5 * (a + d), math.hypot(0.5 * (a - d), b.real, b.imag)
    entropy = 0.0
    for eig in (half - radius, half + radius):
        eig = min(eig, 1.0)
        if eig > 0.0:
            entropy -= eig * math.log2(eig)
    return entropy


def _holevo_objective(ch: Channel):
    """``w -> chi(w)`` and ``w -> (chi'(w), chi''(w))`` for the prior ``{(w, |0>), (1-w, |1>)}``.

    chi is the Holevo information on the target marginal, which must be a
    qubit. The marginals ``m0`` and ``m1`` of the two basis inputs are built
    once, by one contraction over the Kraus operators of the checked ``ch``.
    Everything after is closed-form arithmetic on floats: ``M(w) = w m0 +
    (1-w) m1`` has eigenvalues ``h +- R``, ``h`` half its trace and ``R`` the
    length of its half Bloch vector ``u``, so ``S(M(w))`` is :func:`_qubit_entropy`,
    and ``s0 = S(m0)``, ``s1 = S(m1)`` are its values at ``w = 1`` and ``w = 0``,
    taken once. With ``du = u(1) - u(0)``,
    ``L = log2((h + R) / (h - R))`` and ``k = u . du / R``,
    ``chi' = s1 - s0 - k L`` and ``chi'' = -((|du|^2 - k^2) L / R + 2 h k^2 / (ln 2 (h^2 - R^2)))``.
    Where ``u . du = 0`` or ``h - R <= 0`` (``m0 = m1`` pure, where chi
    vanishes), ``chi' = s1 - s0`` and ``chi''`` reads 0.
    """
    cols = ch.kraus.reshape(ch.n_kraus, -1, 2, 2)
    m0, m1 = np.einsum("arti,arui->itu", cols, cols.conj()).tolist()
    (a0, d0, b0), (a1, d1, b1) = ((m[0][0].real, m[1][1].real, m[1][0]) for m in (m0, m1))
    s0, s1 = _qubit_entropy(a0, d0, b0), _qubit_entropy(a1, d1, b1)
    du = (0.5 * ((a0 - d0) - (a1 - d1)), (b0 - b1).real, (b0 - b1).imag)
    du2 = du[0] * du[0] + du[1] * du[1] + du[2] * du[2]

    def mixture(w: float) -> tuple:
        """``(a, d, b)`` of ``M(w)``."""
        v = 1.0 - w
        return w * a0 + v * a1, w * d0 + v * d1, w * b0 + v * b1

    def holevo(w: float) -> float:
        return _qubit_entropy(*mixture(w)) - (w * s0 + (1.0 - w) * s1)

    def derivatives(w: float) -> tuple:
        a, d, b = mixture(w)
        half, u = 0.5 * (a + d), (0.5 * (a - d), b.real, b.imag)
        radius = math.hypot(*u)
        dot = u[0] * du[0] + u[1] * du[1] + u[2] * du[2]
        if dot == 0.0 or half - radius <= 0.0:
            return s1 - s0, 0.0
        log_ratio = math.log2((half + radius) / (half - radius))
        k2 = (dot / radius) ** 2
        curvature = (du2 - k2) * log_ratio / radius + 2.0 * half * k2 / (
            _LN2 * (half - radius) * (half + radius)
        )
        return s1 - s0 - dot / radius * log_ratio, -curvature

    return holevo, derivatives


#: Where one solver run stopped: point, value, evaluations, iterations, success.
_Run = namedtuple("_Run", "x fun nfev nit success")


def _bisect(fun, derivatives, gtol: float, maxiter: int) -> _Run:
    """Maximize a concave ``fun`` on ``[0, 1]``, safeguarded Newton on its slope.

    ``derivatives(x)`` gives the slope and the curvature. Each evaluation
    shrinks the bracket ``[lo, hi]`` by the sign of the slope; the next point
    is the Newton step ``x - slope / curvature`` when the curvature is negative
    and the step lands strictly inside the bracket, else its midpoint. The
    first point is ``1/2``. Succeeds at the first point where ``|slope| <= gtol``,
    which by concavity puts ``fun`` within ``gtol`` of its maximum; fails when
    ``maxiter`` evaluations run out first. ``nit`` counts ``derivatives``
    evaluations, and ``nfev`` adds the one evaluation of ``fun``, at the
    returned (last evaluated) point.
    """
    lo, hi, trial = 0.0, 1.0, 0.5
    for nit in range(1, maxiter + 1):
        x = trial
        grad, curvature = derivatives(x)
        if abs(grad) <= gtol:
            break
        lo, hi = (x, hi) if grad > 0.0 else (lo, x)
        trial = x - grad / curvature if curvature < 0.0 else hi
        if not lo < trial < hi:
            trial = 0.5 * (lo + hi)
    return _Run(x, fun(x), nit + 1, nit, abs(grad) <= gtol)


def classical_capacity(ch: Channel) -> CapacityResult:
    """One-shot classical capacity over computational-basis signaling.

    Maximizes the Holevo information chi of ``{(w, |0>), (1-w, |1>)}`` on the
    target marginal over ``w`` by a safeguarded Newton iteration on its exact
    slope and curvature inside a bisection bracket. The input space and the
    target (last) output factor must be qubits. The two target marginals are
    built once, at entry; their entropies and each evaluation are closed-form
    2 x 2 arithmetic on their mixture, with no eigensolver call.

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

    The states are assembled by one product of each row with the flattened
    slopes, batched over the rows, and eigendecomposed as one stack. The
    slopes ``maps[1:]`` are traceless and Hermitian, so ``dS/dr_i = -Tr(maps[i+1]
    log2 rho)`` is the real part of the sum of ``conj(maps[i+1]) * log2 rho``:
    the product of the real views of ``log2 rho``, rebuilt by one batched
    product, and of the slopes, again batched over the rows. Every product is
    one call per row, so no row's arithmetic depends on how many are
    stacked. Eigenvalues at or below ``_SPECTRUM_FLOOR`` take log 1 and add nothing.
    """
    k, flat = len(r), maps.reshape(4, -1)
    slopes = flat[1:].view(np.float64)
    states = flat[0] + np.matmul(r[:, None], slopes).view(np.complex128)
    eigvals, eigvecs = np.linalg.eigh(states.reshape(k, *maps.shape[1:]))
    logs = np.log2(np.where(eigvals > _SPECTRUM_FLOOR, eigvals, 1.0))
    log_rho = (eigvecs * logs[:, None]) @ eigvecs.conj().transpose(0, 2, 1)
    traces = np.matmul(log_rho.view(np.float64).reshape(k, 1, -1), slopes.T)
    return -(eigvals * logs).sum(axis=1), -traces[:, 0]


def _objective(ch: Channel):
    """``x -> (-I_c, -grad I_c)`` at the Bloch vector ``x``, per row ``x``.

    The input ``(I + x . sigma) / 2`` has output ``out[0] + x . out[1:]`` and
    environment state ``env[0] + x . env[1:]``, from the images of
    ``sigma_mu / 2`` built once here. A row with ``|x| >= 1`` is a pure input,
    whose output and environment entropies are equal: it scores 0 with zero
    gradient and no eigendecomposition. A round with every row inside the
    ball returns the two stacked passes as they are.
    """
    ks, n = ch.kraus, ch.n_kraus
    images = ks @ _PAULI_HALVES[:, None]
    out = (images @ ks.conj().transpose(0, 2, 1)).sum(axis=1)
    env = images.reshape(4, n, -1) @ ks.conj().reshape(n, -1).T

    def stacked(xs: np.ndarray) -> tuple:
        s_out, g_out = _entropy_and_gradient(out, xs)
        s_env, g_env = _entropy_and_gradient(env, xs)
        return s_env - s_out, g_env - g_out

    def negative_coherent_information(xs: np.ndarray) -> tuple:
        inside = (xs * xs).sum(axis=1) < 1.0
        if inside.all():
            return stacked(xs)
        values, grads = np.zeros(len(xs)), np.zeros(xs.shape)
        if inside.any():
            values[inside], grads[inside] = stacked(xs[inside])
        return values, grads

    return negative_coherent_information


def _bfgs(x, gtol: float, maxiter: int):
    """Minimize from ``x`` by BFGS: yield each point, be sent its value and gradient.

    ``x`` is a three-dimensional Bloch vector, kept in floats: the point and
    the gradient as three Python floats each, the symmetric inverse Hessian
    ``h`` as its six distinct entries. Each point, the first being ``x``, is
    yielded as a tuple of three floats and answered with ``(value, gradient)``,
    the gradient any sequence of three floats; the generator returns a
    ``_Run`` whose ``x`` is an ndarray. Each line search starts at the unit
    step along ``-h g`` and halves it until the Armijo condition holds; a step
    below ``1e-6`` fails the run. With ``s`` the step, ``y`` the change of
    gradient and ``q = h y``, ``h`` takes the update ``h - (q s^T + s q^T) / sy
    + (1 + y . q / sy) s s^T / sy`` (Nocedal & Wright, eq. 6.17), the BFGS
    update expanded, whenever the curvature ``sy = s . y`` is positive.
    Succeeds when the max-abs gradient reaches ``gtol`` within ``maxiter``
    iterations, or once the decrease ``-g . p`` a step predicts is at most
    ``_DECREASE_FLOOR * max(1, |f|)``, 1e-14 relative, where the Armijo test
    could fail on the rounding of ``f`` alone.
    """
    x0, x1, x2 = map(float, x)
    f, (g0, g1, g2) = yield x0, x1, x2
    nfev, nit = 1, 0
    h00, h01, h02, h11, h12, h22 = 1.0, 0.0, 0.0, 1.0, 0.0, 1.0
    while max(abs(g0), abs(g1), abs(g2)) > gtol and nit < maxiter:
        p0 = -(h00 * g0 + h01 * g1 + h02 * g2)
        p1 = -(h01 * g0 + h11 * g1 + h12 * g2)
        p2 = -(h02 * g0 + h12 * g1 + h22 * g2)
        slope = g0 * p0 + g1 * p1 + g2 * p2
        if -slope <= _DECREASE_FLOOR * max(1.0, abs(f)):
            break
        step = 1.0
        while step >= 1e-6:
            f_new, grad = yield x0 + step * p0, x1 + step * p1, x2 + step * p2
            nfev += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            return _Run(np.array([x0, x1, x2]), f, nfev, nit, False)
        s0, s1, s2 = step * p0, step * p1, step * p2
        y0, y1, y2 = grad[0] - g0, grad[1] - g1, grad[2] - g2
        x0, x1, x2, f, nit = x0 + s0, x1 + s1, x2 + s2, f_new, nit + 1
        g0, g1, g2 = grad
        if (sy := s0 * y0 + s1 * y1 + s2 * y2) > 0:
            q0 = (h00 * y0 + h01 * y1 + h02 * y2) / sy
            q1 = (h01 * y0 + h11 * y1 + h12 * y2) / sy
            q2 = (h02 * y0 + h12 * y1 + h22 * y2) / sy
            c = (1.0 + y0 * q0 + y1 * q1 + y2 * q2) / sy
            h00 += c * s0 * s0 - 2.0 * q0 * s0
            h01 += c * s0 * s1 - (q0 * s1 + s0 * q1)
            h02 += c * s0 * s2 - (q0 * s2 + s0 * q2)
            h11 += c * s1 * s1 - 2.0 * q1 * s1
            h12 += c * s1 * s2 - (q1 * s2 + s1 * q2)
            h22 += c * s2 * s2 - 2.0 * q2 * s2
    return _Run(np.array([x0, x1, x2]), f, nfev, nit, nit < maxiter)


def _lockstep(fun, runs) -> list:
    """The ``_Run``s of the :func:`_bfgs` generators ``runs``, advanced in rounds.

    Each round stacks the pending points of the live runs, at most ``_BLOCK`` at
    a time, into one call of ``fun`` (``k`` rows to ``k`` values and ``(k, 3)``
    gradients, as ndarrays), and sends each run its value and gradient as
    Python floats.
    """
    results = [None] * len(runs)
    for first in range(0, len(runs), _BLOCK):
        pending = {i: next(runs[i]) for i in range(len(runs))[first : first + _BLOCK]}
        while pending:
            values, grads = fun(np.array(list(pending.values())))
            for i, value, grad in zip(list(pending), values.tolist(), grads.tolist()):
                try:
                    pending[i] = runs[i].send((value, grad))
                except StopIteration as stop:
                    results[i] = stop.value
                    del pending[i]
    return results


@functools.lru_cache(maxsize=16)
def _starts(seed: int, restarts: int) -> np.ndarray:
    """The read-only ``(restarts, 3)`` starts of :func:`quantum_capacity`.

    Row 0 is the maximally mixed input; the others are drawn uniformly in the
    ball from ``default_rng(seed)``. They depend on nothing else, so each
    ``(seed, restarts)`` is drawn once and shared as a view, which cannot be
    made writable again.
    """
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(restarts - 1, 3))
    radii = rng.uniform(size=(restarts - 1, 1)) ** (1 / 3)
    seeded = radii * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    starts = np.vstack([np.zeros(3), seeded])
    starts.setflags(write=False)
    return starts[:]


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

    starts = _starts(cfg.seed, cfg.restarts)
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
