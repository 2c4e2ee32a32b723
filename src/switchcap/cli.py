"""Command-line front end: capacity sweeps, oracle validation, amplitude sweeps.

Three subcommands are provided:

* ``sweep``        - capacity of one configuration/family over a noise grid,
                     written as CSV.
* ``validate``     - compare the numerical optimizer against every closed-form
                     reference on a grid and report the worst deviations.
* ``vacuum-sweep`` - quantum capacity of the coherent superposition of two
                     depolarizing channels for several vacuum-amplitude sets.

The library checks that an amplitude set has one entry per Kraus operator.
``--seed`` must be >= 0 and ``--tol`` finite and > 0.

Exit codes: 0 success, 1 usage or I/O error, 2 optimizer non-convergence,
3 requested tolerance unachievable, 4 numerical failure (a capacity solver
raised). CSV output is byte-deterministic for a fixed seed: fixed column
order, floats at 9 significant digits (capacities below
``CAPACITY_NOISE_BITS`` print as ``0``), LF line endings, rows sorted
before writing.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from .infotheory import OptimizerConfig, classical_capacity, quantum_capacity
from .oracle import CapacityType, closed_form, list_available
from .supermaps import Family, SupermapKind, build_fixed

__all__ = ["main", "main_entry"]

_SWEEP_HEADER = "p,configuration,family,capacity_type,value,converged,restarts,seed"
_VACUUM_HEADER = (
    "p,configuration,family,capacity_type,amplitudes,value,converged,restarts,seed"
)
_VALIDATE_HEADER = (
    "configuration,family,capacity_type,worst_abs_deviation,worst_p,within_tolerance"
)

#: Default amplitude sets for ``vacuum-sweep``, ordered by increasing first
#: component; each is the common vacuum-amplitude vector of both channels.
DEFAULT_AMPLITUDE_SETS = (
    (0.5, 0.5, 0.5, 0.5),
    (1 / math.sqrt(2), 1 / math.sqrt(6), 1 / math.sqrt(6), 1 / math.sqrt(6)),
    (math.sqrt(3) / 2, 1 / (2 * math.sqrt(3)), 1 / (2 * math.sqrt(3)), 1 / (2 * math.sqrt(3))),
    (1.0, 0.0, 0.0, 0.0),
)


class _UsageError(Exception):
    pass


class _NumericalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


#: Capacities smaller than this in magnitude, in bits, are solver rounding
#: noise (far below the 1e-6 restart tolerance) and print as ``0``, so the
#: CSV bytes do not follow changes at the 1e-16 level.
CAPACITY_NOISE_BITS = 1e-12


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _fmt_capacity(value: float) -> str:
    return "0" if abs(value) < CAPACITY_NOISE_BITS else _fmt(value)


def _fmt_amplitude(a: complex) -> str:
    """CSV label of an amplitude: ``_fmt`` of a real one, ``<re>+<im>j`` of a
    complex one, each part by ``_fmt`` (``+`` dropped before a negative part)."""
    if a.imag == 0:
        return _fmt(a.real)
    imag = _fmt(a.imag)
    return f"{_fmt(a.real)}{'' if imag.startswith('-') else '+'}{imag}j"


def _parse_amps(text: str) -> np.ndarray:
    """Parse comma-separated amplitudes; normalize only tiny defects.

    Each amplitude is a Python ``complex`` literal, such as ``0.5`` or
    ``0.5+0.5j``; a set without imaginary parts is returned as reals. The
    squared norm must be within 1e-6 of 1; anything farther off (or not
    finite) is rejected rather than silently rescaled.
    """
    try:
        values = np.array([complex(t) for t in text.split(",")])
    except ValueError as exc:
        raise _UsageError(f"could not parse amplitudes {text!r}: {exc}") from None
    if not values.imag.any():
        values = values.real
    norm_sq = float(np.sum(np.abs(values) ** 2))
    if not abs(norm_sq - 1.0) <= 1e-6:
        raise _UsageError(
            f"amplitudes {text!r} have squared norm {norm_sq:.8f}; "
            "must be normalized to within 1e-6"
        )
    return values / math.sqrt(norm_sq)


def _grid(start: float, end: float, steps: int) -> List[float]:
    if steps < 1:
        raise _UsageError("--p-steps must be at least 1")
    if not (0.0 <= start <= 1.0 and 0.0 <= end <= 1.0):
        raise _UsageError("--p-start and --p-end must lie in [0, 1]")
    if start > end:
        raise _UsageError("--p-start must not exceed --p-end")
    return [float(v) for v in np.linspace(start, end, steps)]


def _write_lines(path: Optional[str], lines: Sequence[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _optimizer_config(args) -> OptimizerConfig:
    """The optimizer settings of ``args``; settings it rejects are a usage error."""
    try:
        return OptimizerConfig(restarts=args.restarts, tolerance=args.tol, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _add_common(parser, tol_help: str, default_tol: float = OptimizerConfig.tolerance):
    parser.add_argument("--p-start", type=float, default=0.0)
    parser.add_argument("--p-end", type=float, default=1.0)
    parser.add_argument("--p-steps", type=int, default=21)
    parser.add_argument("--out", type=str, default=None, help="output CSV path")
    parser.add_argument(
        "--restarts", type=int, default=OptimizerConfig.restarts, help="quantum-capacity restarts"
    )
    parser.add_argument("--tol", type=float, default=default_tol, help=tol_help)
    parser.add_argument("--seed", type=int, default=OptimizerConfig.seed)


def build_parser() -> _Parser:
    parser = _Parser(prog="switchcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="capacity of one configuration over a p grid")
    sweep.add_argument(
        "--config",
        required=True,
        choices=[k.token for k in SupermapKind],
    )
    sweep.add_argument(
        "--family",
        required=True,
        choices=[f.token for f in Family],
    )
    sweep.add_argument(
        "--capacity",
        default="both",
        choices=[c.token for c in CapacityType] + ["both"],
    )
    sweep.add_argument(
        "--amps",
        type=str,
        default=None,
        help="comma-separated vacuum amplitudes (real or complex, e.g. 0.5+0.5j), "
        "one per Kraus operator of the channel being extended",
    )
    _add_common(sweep, "quantum-capacity restart-agreement tolerance in bits")

    validate = sub.add_parser(
        "validate", help="compare the optimizer against every closed form"
    )
    _add_common(validate, "maximum |numeric - closed form| accepted", 1e-3)

    vacuum = sub.add_parser(
        "vacuum-sweep",
        help="quantum capacity of superposed depolarizing channels per amplitude set",
    )
    vacuum.add_argument(
        "--amps",
        action="append",
        default=None,
        help="amplitude set (comma-separated, one per Kraus operator of a depolarizing "
        "channel, real or complex); repeatable, defaults to four reference sets",
    )
    _add_common(vacuum, "quantum-capacity restart-agreement tolerance in bits")
    sweep.set_defaults(run=cmd_sweep)
    validate.set_defaults(run=cmd_validate)
    vacuum.set_defaults(run=cmd_vacuum_sweep)
    return parser


def _capacity(cap: CapacityType, fixed, cfg: OptimizerConfig):
    """Solve the built channel ``fixed`` for ``cap``, the quantum one with
    ``cfg``; a ``ValueError`` the solver raises is a numerical failure."""
    try:
        if cap is CapacityType.CLASSICAL:
            return classical_capacity(fixed)
        return quantum_capacity(fixed, cfg)
    except ValueError as exc:
        raise _NumericalError(f"{cap.token} capacity of {fixed.label}: {exc}") from None


def _sweep(args, progress: str, header: str, kind, family, amp_sets, capacities) -> int:
    """One CSV row per grid point, amplitude set and capacity, sorted in that order.

    The stable sort keys on the value of ``p``, so a grid that repeats a value
    writes all its classical rows there before the quantum ones. ``amp_sets``
    pairs each amplitude vector with the CSV fields labelling it. Each (point,
    vector) is built once, with its control fixed, and every capacity is solved
    on that build. The first point is built before any solve, so a vector the
    library rejects (say, of the wrong length) is a usage error.
    """
    grid = _grid(args.p_start, args.p_end, args.p_steps)

    def build(p: float) -> list:
        return [build_fixed(kind, family, p, amps) for amps, _ in amp_sets]

    try:
        fixed = build(grid[0])
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    cfg = _optimizer_config(args)

    rows = []
    all_converged = True
    for step, p in enumerate(grid):
        print(f"{progress} p={p:.4f}", file=sys.stderr)
        if step:
            fixed = build(p)
        for index, ((_, labels), channel) in enumerate(zip(amp_sets, fixed)):
            for cap in capacities:
                res = _capacity(cap, channel, cfg)
                all_converged &= res.converged
                converged = "true" if res.converged else "false"
                fields = [_fmt(p), kind.token, family.token, cap.token, *labels,
                          _fmt_capacity(res.value), converged, str(cfg.restarts), str(cfg.seed)]
                rows.append(((p, index, cap.token), ",".join(fields)))
    rows.sort(key=lambda r: r[0])
    _write_lines(args.out, [header] + [line for _, line in rows])
    return 0 if all_converged else 2


def cmd_sweep(args) -> int:
    kind = SupermapKind(args.config)
    family = Family(args.family)
    amps = None if args.amps is None else _parse_amps(args.amps)
    capacities = [c for c in CapacityType if args.capacity in ("both", c.token)]
    progress = f"sweep {kind.token}/{family.token}"
    return _sweep(args, progress, _SWEEP_HEADER, kind, family, [(amps, [])], capacities)


def cmd_validate(args) -> int:
    grid = _grid(args.p_start, args.p_end, args.p_steps)
    tolerance = args.tol
    cfg = _optimizer_config(args)
    # One build per (configuration, family, p), shared by its capacity types.
    build = functools.cache(build_fixed)
    report_rows = []
    worst_overall = 0.0
    all_within = True
    for form_id in list_available():
        print(f"validate {form_id}", file=sys.stderr)
        worst_dev = -1.0
        worst_p = grid[0]
        for p in grid:
            reference = closed_form(form_id, p)
            fixed = build(form_id.configuration, form_id.family, p)
            res = _capacity(form_id.capacity_type, fixed, cfg)
            dev = abs(res.value - reference)
            if dev > worst_dev:
                worst_dev, worst_p = dev, p
        within = worst_dev <= tolerance
        all_within &= within
        worst_overall = max(worst_overall, worst_dev)
        report_rows.append((form_id, worst_dev, worst_p, within))
        print(
            f"{str(form_id):40s} worst |dev| = {worst_dev:.3e} at p = {worst_p:.3g}"
            f"  [{'ok' if within else 'FAIL'}]"
        )
    print(
        f"worst deviation overall: {worst_overall:.3e} "
        f"(tolerance {tolerance:g}) -> {'ok' if all_within else 'unachievable'}"
    )
    if args.out is not None:
        lines = [_VALIDATE_HEADER]
        for form_id, dev, p, within in report_rows:
            lines.append(
                f"{form_id.configuration.token},{form_id.family.token},"
                f"{form_id.capacity_type.token},{_fmt(dev)},{_fmt(p)},"
                f"{'true' if within else 'false'}"
            )
        _write_lines(args.out, lines)
    return 0 if all_within else 3


def cmd_vacuum_sweep(args) -> int:
    if args.amps is None:
        amp_sets = [np.array(s, dtype=float) for s in DEFAULT_AMPLITUDE_SETS]
    else:
        amp_sets = [_parse_amps(text) for text in args.amps]
    labelled = [(amps, ["|".join(_fmt_amplitude(a) for a in amps)]) for amps in amp_sets]
    return _sweep(
        args, "vacuum-sweep", _VACUUM_HEADER, SupermapKind.COHERENT_SUP,
        Family.DEPOLARIZING, labelled, [CapacityType.QUANTUM],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (_UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
