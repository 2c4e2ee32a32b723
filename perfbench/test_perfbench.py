"""Checks of the benchmark's own accounting; run with
``PYTHONPATH=src python -m pytest perfbench -q`` from the repository root."""

import dataclasses
import functools
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import workloads
from tracing import Span, Tracer, self_times

RUN = Path(run.__file__).resolve()


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_tasks(name, 7) == workloads.make_tasks(name, 7)
        assert workloads.make_tasks(name, 7) != workloads.make_tasks(name, 8)


def test_oracle_workload_counts_closed_forms_from_the_registry():
    tasks = workloads.make_tasks("oracle-validate", 0)
    assert len(tasks) == 3 * len(workloads.list_available())


def test_failed_frac_counts_a_wrong_value_and_an_unconverged_result():
    tasks = workloads.make_tasks("oracle-validate", 0)[:5]
    calls = []

    def injected(fixed):
        result = workloads.classical_capacity(fixed)
        calls.append(None)
        if len(calls) == 2:
            return dataclasses.replace(result, value=result.value + 0.01)
        if len(calls) == 4:
            return dataclasses.replace(result, converged=False)
        return result

    solvers = dict(workloads.SOLVERS, classical=injected)
    injected_workloads = types.SimpleNamespace(
        run_estimate=functools.partial(workloads.run_estimate, solvers=solvers)
    )
    runner = run.Runner(injected_workloads, tasks)
    runner.untraced_pass()
    assert (runner.failed, runner.attempted) == (2, 5)
    reasons = sorted(r for rs in runner.failures.values() for r in rs)
    assert reasons[0] == "not converged"
    assert "closed form" in reasons[1]


def test_quantum_checks_catch_a_range_error_and_an_unreached_optimum():
    task = workloads.make_tasks("vacuum-amplitudes", 0)[0]
    outcome = workloads.run_estimate(task)
    assert outcome.reason is None

    def shifted(**changes):
        def solver(fixed):
            return dataclasses.replace(workloads.quantum_capacity(fixed), **changes)

        return dict(workloads.SOLVERS, quantum=solver)

    high = workloads.run_estimate(task, solvers=shifted(value=1.5))
    assert "outside [0, 1]" in high.reason
    off = workloads.run_estimate(task, solvers=shifted(raw_value=0.25))
    assert "argmax" in off.reason


def test_a_raising_estimate_is_a_failure():
    def broken(fixed):
        raise ValueError("eigenvalue below positivity floor")

    task = workloads.make_tasks("nested-quantum", 0)[0]
    outcome = workloads.run_estimate(task, solvers={"quantum": broken})
    assert outcome.reason.startswith("raised ValueError")


def test_self_time_subtracts_children():
    spans = [
        Span(0, "a", None, "estimate", 0.0, 10.0),
        Span(1, "a", 0, "build", 1.0, 3.0),
        Span(2, "a", 0, "quantum", 3.0, 9.0),
        Span(3, "b", None, "estimate", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx(
        {"estimate": 3.0, "build": 2.0, "quantum": 6.0}
    )


def test_tracer_links_children_to_their_parent():
    tracer = Tracer()
    with tracer.span("estimate", "t"):
        with tracer.span("build", "t"):
            pass
    root, child = tracer.spans
    assert (root.parent, child.parent, child.trace_id) == (None, 0, "t")


def test_run_refuses_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "nested-quantum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
