import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import switchcap
from switchcap import cli
from switchcap.cli import CAPACITY_NOISE_BITS, main
from switchcap.supermaps import Family, build_fixed
from switchcap.infotheory import OptimizerConfig, classical_capacity, quantum_capacity
from switchcap.oracle import CapacityType
from switchcap.supermaps import SupermapKind

SWEEP_HEADER = "p,configuration,family,capacity_type,value,converged,restarts,seed"


def run(tmp_path, *args):
    return main(list(args))


class TestSweep:
    def test_phase_flip_switch_classical_all_ones(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config", "switch",
                "--family", "phaseflip",
                "--capacity", "classical",
                "--p-steps", "11",
                "--restarts", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == SWEEP_HEADER
        rows = [l.split(",") for l in lines[1:] if l]
        assert len(rows) == 11
        for row in rows:
            assert row[1] == "switch"
            assert row[2] == "phaseflip"
            assert row[3] == "classical"
            assert float(row[4]) == pytest.approx(1.0, abs=1e-3)
            assert row[5] == "true"

    def test_coherent_bit_flip_at_zero_noise(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "sweep", "--config", "cohsup", "--family", "bitflip",
                "--capacity", "classical", "--p-start", "0", "--p-end", "0",
                "--p-steps", "1", "--restarts", "3", "--out", str(out),
            ]
        )
        assert code == 0
        value = float(out.read_text().split("\n")[1].split(",")[4])
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_quantum_switch_bit_flip_at_half(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--capacity", "quantum", "--p-start", "0.5", "--p-end", "0.5",
                "--p-steps", "1", "--restarts", "3", "--out", str(out),
            ]
        )
        assert code == 0
        value = float(out.read_text().split("\n")[1].split(",")[4])
        assert value == pytest.approx(0.0, abs=1e-3)

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        args = [
            "sweep", "--config", "cohsup", "--family", "depolarizing",
            "--capacity", "both", "--p-steps", "3", "--restarts", "4",
            "--seed", "31415",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rounding_noise_prints_as_zero(self, tmp_path):
        # The bit-flip switch carries no quantum information at p = 1/2;
        # the solver's optimum is zero up to rounding.
        fixed = build_fixed(SupermapKind.SWITCH, Family.BIT_FLIP, 0.5)
        assert 0.0 < quantum_capacity(fixed).value < CAPACITY_NOISE_BITS
        out = tmp_path / "noise.csv"
        code = main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--capacity", "quantum", "--p-start", "0.5", "--p-end", "0.5",
                "--p-steps", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().split("\n")[1].split(",")[4] == "0"

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lf.csv"
        main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--capacity", "classical", "--p-steps", "2", "--restarts", "2",
                "--out", str(out),
            ]
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rows_sorted_by_p_then_capacity(self, tmp_path):
        out = tmp_path / "s.csv"
        main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--capacity", "both", "--p-steps", "3", "--restarts", "2",
                "--out", str(out),
            ]
        )
        rows = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
        keys = [(float(r[0]), r[3]) for r in rows]
        assert keys == sorted(keys)

    def test_unwritable_output_path(self, tmp_path):
        code = main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--capacity", "classical", "--p-steps", "1", "--restarts", "2",
                "--out", str(tmp_path / "missing_dir" / "x.csv"),
            ]
        )
        assert code == 1

    def test_usage_errors(self):
        assert main(["sweep", "--family", "bitflip"]) == 1  # missing config
        assert main(
            ["sweep", "--config", "switch", "--family", "bitflip", "--p-steps", "0"]
        ) == 1
        assert main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--p-start", "0.8", "--p-end", "0.2",
            ]
        ) == 1

    def test_p_outside_the_unit_interval_is_a_usage_error(self, capsys):
        argv = ["sweep", "--config", "switch", "--family", "bitflip", "--p-start", "1.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --p-start and --p-end must lie in [0, 1]\n"
        assert captured.out == ""

    def test_stdout_without_out_is_the_csv_bytes(self, tmp_path, capsys):
        args = [
            "sweep", "--config", "switch", "--family", "bitflip",
            "--capacity", "classical", "--p-steps", "3",
        ]
        out = tmp_path / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_amps_rejected_for_switch(self):
        code = main(
            [
                "sweep", "--config", "switch", "--family", "bitflip",
                "--amps", "1,0",
            ]
        )
        assert code == 1

    def test_amps_wrong_length_for_family(self, capsys):
        code = main(
            [
                "sweep", "--config", "cohsup", "--family", "depolarizing",
                "--amps", "0.6,0.8", "--p-steps", "1",
            ]
        )
        assert code == 1
        assert "error: expected 4 vacuum amplitudes" in capsys.readouterr().err

    def test_empty_amps_rejected(self, capsys):
        code = main(
            [
                "sweep", "--config", "cohsup", "--family", "bitflip",
                "--amps", "", "--p-steps", "1",
            ]
        )
        assert code == 1
        assert "error: could not parse amplitudes ''" in capsys.readouterr().err

    def test_mixed_block_rejected_for_two_channels(self, capsys):
        code = main(["sweep", "--config", "switch", "--family", "mixed_block"])
        assert code == 1
        assert "error: mixed_block needs a multiple of 4 channels" in capsys.readouterr().err

    def test_amps_must_be_normalized(self):
        code = main(
            [
                "sweep", "--config", "cohsup", "--family", "bitflip",
                "--amps", "0.9,0.1", "--p-steps", "1",
            ]
        )
        assert code == 1

    def test_amps_small_defect_autonormalized(self, tmp_path):
        # within 1e-6 of unit norm: accepted and rescaled
        out = tmp_path / "amps.csv"
        a = np.sqrt(0.5) + 2e-7
        code = main(
            [
                "sweep", "--config", "cohsup", "--family", "bitflip",
                "--capacity", "classical", "--amps", f"{a},{np.sqrt(0.5)}",
                "--p-start", "0.3", "--p-end", "0.3", "--p-steps", "1",
                "--restarts", "2", "--out", str(out),
            ]
        )
        assert code == 0


class TestValidate:
    def test_exit_zero_at_default_tolerance(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "validate", "--p-start", "0.1", "--p-end", "0.9", "--p-steps", "3",
                "--restarts", "3", "--tol", "1e-3", "--out", str(out),
            ]
        )
        assert code == 0
        report = out.read_text().split("\n")
        assert report[0].startswith("configuration,family,capacity_type")
        assert all(",true" in line for line in report[1:] if line)

    def test_exit_three_when_tolerance_unachievable(self):
        # Numeric and closed-form paths agree only to rounding (~1e-16),
        # so a tolerance below that floor is unachievable.
        code = main(
            [
                "validate", "--p-start", "0.15", "--p-end", "0.35", "--p-steps", "2",
                "--restarts", "2", "--tol", "1e-17",
            ]
        )
        assert code == 3

    def test_every_closed_form_within_1e_14_on_21_points(self, tmp_path, capsys):
        # The figure README quotes: at the default optimizer settings every one
        # of the 29 closed forms matches its capacity to 1e-14 at p = 0, 0.05, ..., 1.
        out = tmp_path / "report.csv"
        assert main(["validate", "--p-steps", "21", "--tol", "1e-14", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 29
        assert all(row.endswith(",true") for row in rows)
        assert capsys.readouterr().out.endswith("(tolerance 1e-14) -> ok\n")

    def test_empty_grid_is_usage_error(self):
        assert main(["validate", "--p-steps", "0"]) == 1


class TestOneBuildPerPoint:
    """Every capacity at a point is solved on one build of its channel."""

    @staticmethod
    def _count_builds(monkeypatch):
        calls = []

        def counting(kind, family, p, *rest):
            calls.append((kind, family, p))
            return build_fixed(kind, family, p, *rest)

        monkeypatch.setattr(cli, "build_fixed", counting)
        return calls

    def test_sweep_with_both_capacities(self, monkeypatch, tmp_path):
        calls = self._count_builds(monkeypatch)
        code = main(
            [
                "sweep", "--config", "switch", "--family", "bitflip", "--capacity", "both",
                "--p-steps", "3", "--restarts", "2", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 0
        assert calls == [(SupermapKind.SWITCH, Family.BIT_FLIP, p) for p in (0.0, 0.5, 1.0)]

    def test_validate_shares_a_build_across_capacity_types(self, monkeypatch):
        # switch/bitflip has both a classical and a quantum closed form.
        calls = self._count_builds(monkeypatch)
        main(["validate", "--p-steps", "2", "--restarts", "2"])
        for p in (0.0, 1.0):
            assert calls.count((SupermapKind.SWITCH, Family.BIT_FLIP, p)) == 1
        assert len(calls) == len(set(calls))


class TestVacuumSweep:
    def test_explicit_sets_and_schema(self, tmp_path):
        out = tmp_path / "vac.csv"
        code = main(
            [
                "vacuum-sweep",
                "--amps", "1,0,0,0",
                "--amps", "0.5,0.5,0.5,0.5",
                "--p-start", "0", "--p-end", "0.1", "--p-steps", "2",
                "--restarts", "3", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == (
            "p,configuration,family,capacity_type,amplitudes,value,converged,restarts,seed"
        )
        rows = [l.split(",") for l in lines[1:] if l]
        assert len(rows) == 4
        assert all(r[1] == "cohsup" and r[2] == "depolarizing" and r[3] == "quantum" for r in rows)
        # p = 0 rows: both amplitude sets give one full qubit
        for r in rows[:2]:
            assert float(r[5]) == pytest.approx(1.0, abs=1e-3)

    def test_default_sets_are_four(self, tmp_path):
        out = tmp_path / "vac4.csv"
        code = main(
            [
                "vacuum-sweep", "--p-start", "0.2", "--p-end", "0.2",
                "--p-steps", "1", "--restarts", "4", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [l for l in out.read_text().split("\n")[1:] if l]
        assert len(rows) == 4

    def test_nonconvergence_exit_code_still_writes_rows(self, tmp_path):
        # With a single restart nothing can corroborate the optimum, so the
        # run reports exit code 2 but the rows are still written.
        out = tmp_path / "vac1.csv"
        code = main(
            [
                "vacuum-sweep", "--amps", "0.5,0.5,0.5,0.5",
                "--p-start", "0.2", "--p-end", "0.2", "--p-steps", "1",
                "--restarts", "2", "--out", str(out),
            ]
        )
        assert code == 2
        rows = [l for l in out.read_text().split("\n")[1:] if l]
        assert len(rows) == 1
        assert rows[0].split(",")[6] == "false"

    def test_unnormalized_set_rejected(self):
        assert main(["vacuum-sweep", "--amps", "1,1,0,0", "--p-steps", "1"]) == 1

    def test_wrong_length_rejected(self, capsys):
        assert main(["vacuum-sweep", "--amps", "1,0", "--p-steps", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: expected 4 vacuum amplitudes (one per Kraus operator), got 2\n"
        )


class TestNumericalFailure:
    """A solver that raises mid-run gives exit code 4 and one error line."""

    MESSAGE = "eigenvalue -1.000e-03 below positivity floor"

    def _break(self, monkeypatch, capacity):
        def boom(ch, *cfg):
            raise ValueError(self.MESSAGE)

        monkeypatch.setattr(cli, f"{capacity.token}_capacity", boom)

    @pytest.mark.parametrize(
        ("capacity", "argv"),
        [
            (
                CapacityType.CLASSICAL,
                ["sweep", "--config", "switch", "--family", "bitflip", "--p-steps", "2"],
            ),
            (CapacityType.CLASSICAL, ["validate", "--p-steps", "2"]),
            (CapacityType.QUANTUM, ["vacuum-sweep", "--p-steps", "2"]),
        ],
        ids=["sweep", "validate", "vacuum-sweep"],
    )
    def test_exit_four(self, capacity, argv, monkeypatch, capsys, tmp_path):
        self._break(monkeypatch, capacity)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"error: {capacity.token} capacity of " in err
        assert err.rstrip().endswith(self.MESSAGE)
        assert "Traceback" not in err
        assert not out.exists()

    def test_documented(self):
        assert "4 numerical failure" in cli.__doc__


class TestComplexAmplitudes:
    def test_parse_complex_syntax(self):
        values = cli._parse_amps("0.5+0.5j,0.5,-0.5j,0")
        assert values.dtype == complex
        assert_allclose(values, [0.5 + 0.5j, 0.5, -0.5j, 0], rtol=0, atol=1e-15)

    def test_real_sets_stay_real(self):
        values = cli._parse_amps("0.6,0.8")
        assert values.dtype == np.float64
        assert values.tolist() == [0.6, 0.8]

    def test_complex_norm_rule(self):
        with pytest.raises(cli._UsageError, match="squared norm"):
            cli._parse_amps("0.9j,0.1")
        with pytest.raises(cli._UsageError, match="squared norm"):
            cli._parse_amps("nan,0")
        with pytest.raises(cli._UsageError, match="could not parse"):
            cli._parse_amps("0.5+,0.5")
        a = np.sqrt(0.5) + 2e-7
        assert abs(cli._parse_amps(f"{a}j,{np.sqrt(0.5)}")[0]) == pytest.approx(np.sqrt(0.5))

    def test_labels(self):
        assert cli._fmt_amplitude(np.float64(0.5)) == "0.5"
        assert cli._fmt_amplitude(0.5 + 0j) == "0.5"
        assert cli._fmt_amplitude(0.5 + 0.25j) == "0.5+0.25j"
        assert cli._fmt_amplitude(-0.5 - 1 / 3 * 1j) == "-0.5-0.333333333j"
        assert complex(cli._fmt_amplitude(1 / 3 - 2j / 3)) == pytest.approx(1 / 3 - 2j / 3)

    def test_vacuum_sweep_row(self, tmp_path):
        out = tmp_path / "vac.csv"
        code = main(
            [
                "vacuum-sweep", "--amps", "0.5+0.5j,0.5,-0.5j,0", "--amps", "1,0,0,0",
                "--p-start", "0.3", "--p-end", "0.3", "--p-steps", "1",
                "--restarts", "3", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
        assert [r[4] for r in rows] == ["0.5+0.5j|0.5|0-0.5j|0", "1|0|0|0"]
        fixed = build_fixed(
            SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.3, (0.5 + 0.5j, 0.5, -0.5j, 0)
        )
        expected = quantum_capacity(fixed, OptimizerConfig(restarts=3)).value
        assert rows[0][5] == cli._fmt_capacity(expected)

    def test_sweep_takes_complex_amps(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--config", "cohsup", "--family", "bitflip",
                "--capacity", "classical", "--amps", "0.6j,0.8",
                "--p-start", "0.3", "--p-end", "0.3", "--p-steps", "1", "--out", str(out),
            ]
        )
        assert code == 0
        row = out.read_text().split("\n")[1].split(",")
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.BIT_FLIP, 0.3, (0.6j, 0.8))
        assert row[4] == cli._fmt_capacity(classical_capacity(fixed).value)


class TestOptimizerSettings:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--config", "switch", "--family", "bitflip", "--restarts", "0"],
             "restarts must be >= 1"),
            (["validate", "--tol", "0"], "tolerance must be finite and positive"),
            (["vacuum-sweep", "--restarts", "0"], "restarts must be >= 1"),
            (["sweep", "--config", "switch", "--family", "bitflip", "--capacity", "quantum",
              "--p-steps", "2", "--tol", "nan"], "tolerance must be finite and positive"),
            (["validate", "--tol", "inf"], "tolerance must be finite and positive"),
            (["vacuum-sweep", "--seed", "-1"], "seed must be >= 0"),
            (["validate", "--seed", "-1"], "seed must be >= 0"),
        ],
    )
    def test_invalid_optimizer_settings_are_usage_errors(self, argv, message, capsys):
        # Rejected before any solve: no progress line, no traceback.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--config", "switch", "--family", "bitflip"], ["validate"], ["vacuum-sweep"]],
    )
    def test_defaults_are_the_optimizer_configs(self, argv):
        # validate's --tol is the closed-form bound, not the restart agreement.
        args = cli.build_parser().parse_args(argv)
        cfg = OptimizerConfig()
        assert (args.restarts, args.seed) == (cfg.restarts, cfg.seed)
        assert args.tol == (1e-3 if argv == ["validate"] else cfg.tolerance)


class TestEntryPoint:
    def test_python_dash_m(self):
        # ``python -m switchcap.cli`` as a process: ``main_entry``'s exit status and streams.
        paths = [str(Path(switchcap.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

        def run_module(*args):
            return subprocess.run(
                [sys.executable, "-m", "switchcap.cli", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )

        proc = run_module("sweep", "--no-such-flag")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        proc = run_module(
            "vacuum-sweep", "--amps", "1,0,0,0", "--p-start", "0", "--p-end", "0",
            "--p-steps", "1", "--restarts", "2",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == (
            "p,configuration,family,capacity_type,amplitudes,value,converged,restarts,seed"
        )
