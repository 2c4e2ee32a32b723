"""Command-line front end: capacity sweeps, oracle validation, amplitude sweeps.

Three subcommands are provided:

* ``sweep``        - capacity of one configuration/family over a noise grid,
                     written as CSV.
* ``validate``     - compare the numerical optimizer against every closed-form
                     reference on a grid and report the worst deviations.
* ``vacuum-sweep`` - quantum capacity of the coherent superposition of two
                     depolarizing channels for several vacuum-amplitude sets.

Exit codes: 0 success, 1 usage or I/O error, 2 optimizer non-convergence,
3 requested tolerance unachievable. CSV output is byte-deterministic for a
fixed seed: fixed column order, floats at 9 significant digits, LF line
endings, rows sorted before writing.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from .configs import Family, build_fixed, build_supermap
from .infotheory import OptimizerConfig, classical_capacity, quantum_capacity
from .oracle import CapacityType, closed_form, list_available
from .supermaps import SupermapKind

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


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _parse_amps(text: str) -> np.ndarray:
    """Parse comma-separated real amplitudes; normalize only tiny defects.

    The squared norm must be within 1e-6 of 1; anything farther off is
    rejected rather than silently rescaled.
    """
    try:
        values = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _UsageError(f"could not parse amplitudes {text!r}: {exc}") from None
    if values.size == 0:
        raise _UsageError("empty amplitude list")
    norm_sq = float(np.sum(values**2))
    if abs(norm_sq - 1.0) > 1e-6:
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
    if steps == 1:
        return [start]
    return [float(v) for v in np.linspace(start, end, steps)]


def _write_lines(path: Optional[str], lines: Sequence[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, tolerance=args.tol, seed=args.seed)


def _add_common(parser, default_tol: float, tol_help: str):
    parser.add_argument("--p-start", type=float, default=0.0)
    parser.add_argument("--p-end", type=float, default=1.0)
    parser.add_argument("--p-steps", type=int, default=21)
    parser.add_argument("--out", type=str, default=None, help="output CSV path")
    parser.add_argument("--restarts", type=int, default=6, help="quantum-capacity restarts")
    parser.add_argument("--tol", type=float, default=default_tol, help=tol_help)
    parser.add_argument("--seed", type=int, default=20240601)


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
        choices=["classical", "quantum", "both"],
    )
    sweep.add_argument(
        "--amps",
        type=str,
        default=None,
        help="comma-separated vacuum amplitudes, one per Kraus operator "
        "of the channel being extended",
    )
    _add_common(sweep, 1e-6, "quantum-capacity restart-agreement tolerance in bits")

    validate = sub.add_parser(
        "validate", help="compare the optimizer against every closed form"
    )
    _add_common(validate, 1e-3, "maximum |numeric - closed form| accepted")

    vacuum = sub.add_parser(
        "vacuum-sweep",
        help="quantum capacity of superposed depolarizing channels per amplitude set",
    )
    vacuum.add_argument(
        "--family",
        default=Family.DEPOLARIZING.token,
        choices=[Family.DEPOLARIZING.token],
    )
    vacuum.add_argument(
        "--amps",
        action="append",
        default=None,
        help="amplitude set (comma-separated, length 4); repeatable, "
        "defaults to four reference sets",
    )
    _add_common(vacuum, 1e-6, "quantum-capacity restart-agreement tolerance in bits")
    return parser


_SOLVERS = {
    CapacityType.CLASSICAL: classical_capacity,
    CapacityType.QUANTUM: quantum_capacity,
}


def cmd_sweep(args) -> int:
    kind = SupermapKind(args.config)
    family = Family(args.family)
    amps = None if args.amps is None else _parse_amps(args.amps)
    grid = _grid(args.p_start, args.p_end, args.p_steps)
    try:
        build_supermap(kind, family, grid[0], amps)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.capacity == "both":
        capacities = [CapacityType.CLASSICAL, CapacityType.QUANTUM]
    else:
        capacities = [CapacityType(args.capacity)]
    cfg = _optimizer_config(args)

    rows = []
    all_converged = True
    for p in grid:
        print(f"sweep {kind.token}/{family.token} p={p:.4f}", file=sys.stderr)
        fixed = build_fixed(kind, family, p, amps)
        for cap in capacities:
            res = _SOLVERS[cap](fixed, cfg)
            all_converged &= res.converged
            rows.append(
                (
                    p,
                    cap.token,
                    f"{_fmt(p)},{kind.token},{family.token},{cap.token},"
                    f"{_fmt(res.value)},{'true' if res.converged else 'false'},"
                    f"{cfg.restarts},{cfg.seed}",
                )
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_lines(args.out, [_SWEEP_HEADER] + [r[2] for r in rows])
    return 0 if all_converged else 2


def cmd_validate(args) -> int:
    grid = _grid(args.p_start, args.p_end, args.p_steps)
    tolerance = args.tol
    cfg = _optimizer_config(args)
    report_rows = []
    worst_overall = 0.0
    all_within = True
    for form_id in list_available():
        print(f"validate {form_id}", file=sys.stderr)
        worst_dev = -1.0
        worst_p = grid[0]
        for p in grid:
            reference = closed_form(form_id, p)
            fixed = build_fixed(form_id.configuration, form_id.family, p)
            res = _SOLVERS[form_id.capacity_type](fixed, cfg)
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
    family = Family(args.family)
    if args.amps is None:
        amp_sets = [np.array(s, dtype=float) for s in DEFAULT_AMPLITUDE_SETS]
    else:
        amp_sets = [_parse_amps(text) for text in args.amps]
    for amps in amp_sets:
        if amps.size != 4:
            raise _UsageError(
                f"each amplitude set needs 4 entries (got {amps.size}); the "
                "constituent depolarizing channels have 4 Kraus operators"
            )
    grid = _grid(args.p_start, args.p_end, args.p_steps)
    cfg = _optimizer_config(args)

    rows = []
    all_converged = True
    for p in grid:
        print(f"vacuum-sweep p={p:.4f}", file=sys.stderr)
        for index, amps in enumerate(amp_sets):
            fixed = build_fixed(SupermapKind.COHERENT_SUP, family, p, amps)
            res = quantum_capacity(fixed, cfg)
            all_converged &= res.converged
            label = "|".join(_fmt(a) for a in amps)
            rows.append(
                (
                    p,
                    index,
                    f"{_fmt(p)},cohsup,{family.token},quantum,{label},"
                    f"{_fmt(res.value)},{'true' if res.converged else 'false'},"
                    f"{cfg.restarts},{cfg.seed}",
                )
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_lines(args.out, [_VACUUM_HEADER] + [r[2] for r in rows])
    return 0 if all_converged else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "vacuum-sweep":
            return cmd_vacuum_sweep(args)
        raise _UsageError(f"unknown command {args.command}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
