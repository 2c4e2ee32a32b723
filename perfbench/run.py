"""Capacity benchmark for switchcap, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload oracle-validate --seed 1 --seconds 30 --trace 0

Workloads (inputs drawn from ``--seed``, see ``workloads.py``):

* ``oracle-validate``   every registered closed form at one drawn ``p``
  plus 0 and 1, checked against it; classical solves and nested builds
  dominate.
* ``nested-quantum``    quantum capacity of the four nested kinds over
  depolarizing channels (256 Kraus operators) at drawn ``p``.
* ``vacuum-amplitudes`` quantum capacity of ``cohsup``/depolarizing with
  drawn complex vacuum amplitudes (16 Kraus operators) at drawn ``p``.

``vacuum-amplitudes`` is not listed in ``BENCHMARK.json``: for about one
estimate in a hundred, most with ``p`` near 0.2, fewer than two of
``quantum_capacity``'s restarts reach its best value, so it reports
``converged=False`` and the estimate counts as failed. Run it by name to
see those failures.

One pass runs the workload's whole set of estimates. Passes repeat, closed
loop in this one process, until the next pass would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics with tracing off:
``setup_s`` (median over fresh interpreters, one after each pass, of a cold
``import switchcap`` plus the first fixed channel), ``solve_s`` (mean pass time),
``capacity_ms.p50`` (median estimate latency) and ``peak_rss_mb``.
``capacity_ms.p90`` and ``failed_frac`` are printed too; the first only
where at least ten samples lie above it.

``--trace 1`` alternates untraced and traced passes over the same inputs
and reports per-layer metrics: self times per pass from spans around each
library call, counts from the results, kernel probes of ``apply`` and the
two entropies at each estimate's argmax, and the tracing overhead. Spans
go to ``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment
record and the failures go to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, durations, self_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_COLD_STARTS = 5
PROBE_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_library():
    if not (SRC / "switchcap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no switchcap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import switchcap

    if Path(switchcap.__file__).resolve().parent != SRC / "switchcap":
        sys.exit(f"perfbench: imported switchcap from {switchcap.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
    }


def cold_start_seconds(task) -> float:
    """One cold import plus the first fixed channel, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_start.py"), str(SRC), json.dumps(task.spec())],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout.split()[-1])


def repeat(run_pass, seconds: float) -> None:
    """Call ``run_pass`` until the next call would overrun ``seconds``; at least once."""
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        run_pass()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


class Runner:
    """Runs passes over one workload's tasks and keeps what the metrics need."""

    def __init__(self, workloads, tasks):
        self.workloads = workloads
        self.tasks = tasks
        # Per mode, one list of per-estimate seconds for each pass.
        self.latencies = {"untraced": [], "traced": []}
        self.attempted = 0
        self.failures = {}
        self.tracer = Tracer()
        self.traced_outcomes = None
        self.cold_starts = []

    def _record(self, outcomes) -> None:
        self.attempted += len(outcomes)
        for outcome in outcomes:
            if outcome.reason is not None:
                key = json.dumps(outcome.task.spec()) + " " + outcome.task.capacity
                self.failures.setdefault(key, []).append(outcome.reason)

    @property
    def failed(self) -> int:
        return sum(len(reasons) for reasons in self.failures.values())

    def pass_seconds(self, mode: str) -> float:
        """Mean over the passes of ``mode`` of the set's summed latencies."""
        return statistics.fmean(sum(one_pass) for one_pass in self.latencies[mode])

    def untraced_pass(self) -> None:
        outcomes = [self.workloads.run_estimate(task) for task in self.tasks]
        self.latencies["untraced"].append([o.seconds for o in outcomes])
        self._record(outcomes)

    def timed_pass(self) -> None:
        """An untraced pass, then one cold start.

        Other tenants of a shared host slow everything for seconds at a
        time; spreading the cold starts over the run, like the passes,
        keeps ``setup_s`` from landing in a single fast or slow stretch.
        """
        self.untraced_pass()
        self.cold_starts.append(cold_start_seconds(self.tasks[0]))

    def traced_pass(self) -> None:
        tag = len(self.latencies["traced"])
        outcomes, seconds = [], []
        for index, task in enumerate(self.tasks):
            trace_id = f"{tag}-{index}"
            span = functools.partial(self.tracer.span, trace_id=trace_id)
            t0 = time.perf_counter()
            with span("estimate"):
                outcomes.append(self.workloads.run_estimate(task, span))
            seconds.append(time.perf_counter() - t0)
        self.latencies["traced"].append(seconds)
        self._record(outcomes)
        if self.traced_outcomes is None:
            self.traced_outcomes = outcomes

    def paired_pass(self) -> None:
        self.untraced_pass()
        self.traced_pass()


def end_to_end(runner: Runner) -> tuple:
    """The ``--trace 0`` metrics, plus printed-only figures.

    On a shared host, other tenants can slow every step by up to about 2x
    for seconds at a time, so single timings are bimodal. A median of a few
    passes flips between the two modes; a mean over the passes follows the
    share of slow time smoothly. ``solve_s`` is therefore the mean pass
    time and ``capacity_ms.p50`` the median over the set's estimates of
    each estimate's mean latency. ``capacity_ms.p90`` describes the tail
    that a single run meets, so it is taken over every run of an estimate.
    """
    passes = runner.latencies["untraced"]
    lat_ms = sorted(1e3 * s for one_pass in passes for s in one_pass)
    mean_ms = [1e3 * statistics.fmean(times) for times in zip(*passes)]
    metrics = {
        "setup_s": {"value": statistics.median(runner.cold_starts), "unit": "s"},
        "solve_s": {"value": runner.pass_seconds("untraced"), "unit": "s"},
        "capacity_ms.p50": {"value": statistics.median(mean_ms), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= 2 else lat_ms[0]
    above = sum(1 for x in lat_ms if x > p90)
    printed = {
        "capacity_ms.p90": (p90 if above >= 10 else None, "ms"),
        "failed_frac": (runner.failed / runner.attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(runner.cold_starts)} fresh interpreters",
        "solve_s": f"mean of {len(passes)} passes of {len(runner.tasks)} estimates",
        "capacity_ms.p50": f"{len(mean_ms)} estimates, each the mean of {len(passes)} runs",
        "capacity_ms.p90": f"{above} samples above"
        + ("" if above >= 10 else "; dropped, fewer than ten"),
        "failed_frac": f"{runner.failed} of {runner.attempted}",
    }
    return metrics, printed, notes


def per_layer(runner: Runner) -> tuple:
    """The ``--trace 1`` metrics, from the traced passes and kernel probes."""
    workloads = runner.workloads
    n_passes = len(runner.latencies["traced"])
    spans = runner.tracer.spans
    per_pass = {name: t / n_passes for name, t in self_times(spans).items()}
    outcomes = runner.traced_outcomes

    probes = Tracer()
    workloads.probe_kernels(outcomes, probes, PROBE_REPEATS)
    counts = [workloads.apply_counts(o.fixed) for o in outcomes if o.fixed is not None]

    def count(field, capacity=None):
        return sum(
            getattr(o, field)
            for o in outcomes
            if capacity is None or o.task.capacity == capacity
        )

    def us_per_call(name):
        times = durations(probes.spans, name)
        return 1e6 * statistics.fmean(times) if times else 0.0

    untraced = runner.pass_seconds("untraced")
    traced = runner.pass_seconds("traced")
    values = {
        "build.s": (per_pass.get("build", 0.0), "s"),
        "build.calls": (len(durations(spans, "build")) / n_passes, "count"),
        "build.kraus": (count("build_kraus"), "count"),
        "fix_control.s": (per_pass.get("fix_control", 0.0), "s"),
        "fix_control.kraus": (count("fixed_kraus"), "count"),
    }
    for capacity in ("classical", "quantum"):
        seconds = per_pass.get(capacity, 0.0)
        evals = count("evaluations", capacity)
        values[f"{capacity}.s"] = (seconds, "s")
        values[f"{capacity}.evals"] = (evals, "count")
        values[f"{capacity}.us_per_eval"] = (1e6 * seconds / evals if evals else 0.0, "us")
    values.update(
        {
            "optim.evals_per_capacity": (count("evaluations") / len(outcomes), "count"),
            "optim.unconverged": (sum(1 for o in outcomes if not o.converged), "count"),
            "apply.us": (us_per_call("apply"), "us"),
            "apply.flops_computed": (statistics.fmean(c[0] for c in counts), "flop"),
            "apply.bytes_computed": (statistics.fmean(c[1] for c in counts), "B"),
            "entropy.us": (us_per_call("entropy"), "us"),
            "exchange_entropy.us": (us_per_call("exchange_entropy"), "us"),
            "oracle.s": (per_pass.get("oracle", 0.0), "s"),
            "trace.overhead_frac": ((traced - untraced) / untraced, "ratio"),
        }
    )
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    notes = {
        "trace.overhead_frac": f"traced {traced:.4f} s vs untraced {untraced:.4f} s, "
        f"means of {n_passes} passes each",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    tasks = workloads.make_tasks(args.workload, args.seed)
    runner = Runner(workloads, tasks)
    workloads.run_estimate(tasks[0])  # warm-up, untimed and not counted
    if args.trace:
        repeat(runner.paired_pass, args.seconds)
        metrics, notes = per_layer(runner)
        printed = {}
    else:
        repeat(runner.timed_pass, args.seconds)
        while len(runner.cold_starts) < MIN_COLD_STARTS:
            runner.cold_starts.append(cold_start_seconds(tasks[0]))
        metrics, printed, notes = end_to_end(runner)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        runner.tracer.write(OUT / f"spans-{stem}.jsonl")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  environment=environment(args.seed), failures=runner.failures,
                  latencies=runner.latencies, cold_starts=runner.cold_starts)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    rows = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    rows += [(n, v, u) for n, (v, u) in printed.items()]
    for name, value, unit in rows:
        shown = "dropped" if value is None else f"{value:.6g}"
        note = notes.get(name, "")
        print(f"  {name:26s} {shown:>12s} {unit:6s} {note}")
    for key, reasons in runner.failures.items():
        print(f"FAILED {key}: {reasons[0]} (x{len(reasons)})", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
