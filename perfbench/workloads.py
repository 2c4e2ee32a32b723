"""Seeded benchmark workloads and the failure accounting of each estimate.

A workload is a list of :class:`Task` values drawn from the benchmark seed;
the library only ever sees the drawn ``p`` and amplitude values. One
capacity estimate is ``build_supermap`` -> ``fix_control`` -> the capacity
call -> a correctness check, and it fails when any of these holds:

* it raises;
* the optimizer reports ``converged=False``;
* on ``oracle-validate``, the value is off its closed form by more than
  the acceptance tolerance ``ORACLE_TOL``;
* on the quantum workloads, the value lies outside ``[0, 1]`` (coherent
  information of a qubit input is at most ``S(rho) <= 1`` bit), or the
  reported input does not reach the reported optimum within ``ARGMAX_TOL``.

Only names expected to survive the planned refactors are used:
``build_supermap``, ``fix_control``, the two capacity functions,
``coherent_information``, ``apply``, ``exchange_entropy``,
``von_neumann_entropy``, ``closed_form`` and ``list_available``, plus the
``SupermapKind`` and ``Family`` tokens.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from switchcap import (
    Family,
    SupermapKind,
    apply,
    build_supermap,
    classical_capacity,
    closed_form,
    coherent_information,
    exchange_entropy,
    fix_control,
    list_available,
    quantum_capacity,
    von_neumann_entropy,
)

ORACLE_TOL = 1e-3
ARGMAX_TOL = 1e-9

SOLVERS: Dict[str, Callable] = {
    "classical": classical_capacity,
    "quantum": quantum_capacity,
}

@dataclass(frozen=True)
class Task:
    """One capacity estimate: what to compose, at which noise, which capacity."""

    kind: str
    family: str
    p: float
    capacity: str
    amps: Optional[tuple] = None
    form_id: object = None

    def spec(self) -> dict:
        """JSON-safe description, enough to rebuild the composed channel."""
        amps = None if self.amps is None else [[a.real, a.imag] for a in self.amps]
        return {"kind": self.kind, "family": self.family, "p": self.p, "amps": amps}


@dataclass
class Outcome:
    """What one estimate produced; ``reason`` is None when it passed."""

    task: Task
    reason: Optional[str]
    seconds: float = 0.0
    build_kraus: int = 0
    fixed_kraus: int = 0
    evaluations: int = 0
    converged: bool = False
    fixed: object = None
    argmax: object = None


def _oracle_validate(rng: np.random.Generator) -> List[Task]:
    # Every registered closed form at one drawn noise level plus both
    # endpoints, where the closed forms take their limit branches.
    tasks = []
    for form_id in list_available():
        for p in (0.0, 1.0, rng.uniform(0.0, 1.0)):
            tasks.append(
                Task(
                    form_id.configuration.token,
                    form_id.family.token,
                    float(p),
                    form_id.capacity_type.token,
                    form_id=form_id,
                )
            )
    return tasks


def _nested_quantum(rng: np.random.Generator) -> List[Task]:
    # Nested depolarizing channels carry 4^4 = 256 Kraus operators, the
    # case this workload exists for. Nested bit- and phase-flip families
    # carry only 2^4 = 16, which vacuum-amplitudes already covers.
    return [
        Task(kind, "depolarizing", float(rng.uniform(0.0, 1.0)), "quantum")
        for kind in ("sos", "soc", "cos", "coc")
    ]


def _vacuum_amplitudes(rng: np.random.Generator) -> List[Task]:
    tasks = []
    for _ in range(12):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        p = float(rng.uniform(0.0, 1.0))
        tasks.append(
            Task("cohsup", "depolarizing", p, "quantum", amps=tuple(complex(a) for a in amps))
        )
    return tasks


WORKLOADS = {
    "oracle-validate": _oracle_validate,
    "nested-quantum": _nested_quantum,
    "vacuum-amplitudes": _vacuum_amplitudes,
}


def make_tasks(workload: str, seed: int) -> List[Task]:
    """The workload's estimates; the same seed gives the same list."""
    return WORKLOADS[workload](np.random.default_rng(seed))


def check(task: Task, fixed, result) -> Optional[str]:
    """Why ``result`` is wrong for ``task``, or None when it passes."""
    if not result.converged:
        return "not converged"
    if task.form_id is not None:
        reference = closed_form(task.form_id, task.p)
        if abs(result.value - reference) > ORACLE_TOL:
            return f"value {result.value!r} vs closed form {reference!r}"
        return None
    if not 0.0 <= result.value <= 1.0:
        return f"value {result.value!r} outside [0, 1]"
    gap = abs(coherent_information(fixed, result.argmax) - result.raw_value)
    if gap > ARGMAX_TOL:
        return f"argmax reaches {gap!r} away from the reported optimum"
    return None


def _no_span(name: str):
    return contextlib.nullcontext()


def run_estimate(task: Task, span=_no_span, solvers=SOLVERS) -> Outcome:
    """Run one estimate, with ``span(name)`` around each library call."""
    start = time.perf_counter()
    try:
        with span("build"):
            composed = build_supermap(
                SupermapKind(task.kind), Family(task.family), task.p, task.amps
            )
        with span("fix_control"):
            fixed = fix_control(composed)
        with span(task.capacity):
            result = solvers[task.capacity](fixed)
        with span("oracle" if task.form_id is not None else "coherent_information"):
            reason = check(task, fixed, result)
    except Exception as exc:  # an estimate that raises is a failed estimate
        return Outcome(task, f"raised {exc!r}", time.perf_counter() - start)
    return Outcome(
        task,
        reason,
        time.perf_counter() - start,
        build_kraus=composed.n_kraus,
        fixed_kraus=fixed.n_kraus,
        evaluations=result.evaluations,
        converged=result.converged,
        fixed=fixed,
        argmax=result.argmax,
    )


def probe_kernels(outcomes: List[Outcome], tracer, repeats: int) -> None:
    """Time ``apply`` and the two entropies on each fixed channel, at its argmax.

    A classical optimum is a prior over basis states rather than an input
    state, so those channels are probed on the maximally mixed input; the
    cost of these kernels depends on the shapes only.
    """
    for index, outcome in enumerate(outcomes):
        if outcome.fixed is None:
            continue
        fixed, rho = outcome.fixed, outcome.argmax
        if outcome.task.capacity != "quantum":
            rho = np.eye(fixed.d_in, dtype=complex) / fixed.d_in
        trace_id = f"probe-{index}"
        for _ in range(repeats):
            with tracer.span("apply", trace_id):
                out = apply(fixed, rho)
            with tracer.span("entropy", trace_id):
                von_neumann_entropy(out)
            with tracer.span("exchange_entropy", trace_id):
                exchange_entropy(fixed, rho)


def apply_counts(fixed) -> tuple:
    """Real flops and stacked-Kraus bytes of one ``apply`` call, from shapes.

    ``sum_a K_a rho K_a^dag`` with ``n`` complex ``d_out x d_in`` operators
    costs ``n (d_out d_in^2 + d_out^2 d_in)`` complex multiply-adds of 8
    real flops each; the stacked operators take 16 bytes per entry.
    """
    n, d_in, d_out = fixed.n_kraus, fixed.d_in, fixed.d_out
    return 8 * n * d_out * d_in * (d_in + d_out), 16 * n * d_out * d_in
