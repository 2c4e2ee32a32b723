"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Capacities are memoized across criteria so the whole suite stays
within a few minutes.
"""

import functools

import numpy as np
import pytest

from _helpers import plus_state, random_density, random_unitary
from switchcap.channels import (
    apply,
    bit_flip,
    completeness_defect,
    complementary_output,
    phase_flip,
)
from switchcap.cli import main as cli_main
from switchcap.supermaps import Family, build_fixed, build_supermap, family_channels
from switchcap.infotheory import OptimizerConfig, classical_capacity, quantum_capacity
from switchcap.oracle import CapacityType, ClosedFormId, closed_form, list_available
from switchcap.qmatrix import partial_trace, von_neumann_entropy
from switchcap.supermaps import SupermapKind, compose, fix_control, switch

GRID = [float(p) for p in np.linspace(0.0, 1.0, 21)]
INTERIOR = GRID[1:-1]
CFG = OptimizerConfig(restarts=6, seed=20240601)

ORACLE_TOL = 1e-3
EQUALITY_TOL = 1e-3
ORDERING_SLACK = 1e-3
MONOTONE_SLACK = 1e-6

#: Uniform vacuum amplitudes for the nested coherent constructions; the
#: dominance claims of criterion 4 concern this convention, while the pair
#: superposition uses its optimal concentrated default.
UNIFORM_4 = (0.5, 0.5, 0.5, 0.5)
UNIFORM_16 = (0.25,) * 16

AMPLITUDE_SETS = (
    (0.5, 0.5, 0.5, 0.5),
    (1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)),
    (np.sqrt(3) / 2, 1 / (2 * np.sqrt(3)), 1 / (2 * np.sqrt(3)), 1 / (2 * np.sqrt(3))),
    (1.0, 0.0, 0.0, 0.0),
)

NESTED = (
    SupermapKind.SWITCH_OF_SWITCH,
    SupermapKind.SWITCH_OF_COH,
    SupermapKind.COH_OF_SWITCH,
    SupermapKind.COH_OF_COH,
)


def solve(fixed, capacity_type):
    if capacity_type is CapacityType.CLASSICAL:
        return classical_capacity(fixed).value
    return quantum_capacity(fixed, CFG).value


@functools.lru_cache(maxsize=None)
def capacity(kind, family, p, capacity_type, amps=None):
    return solve(build_fixed(kind, family, p, amps), capacity_type)


def _report(number, text):
    print(f"ACCEPTANCE CRITERION {number}: PASS - {text}", flush=True)


def test_criterion_1_classical_oracle_agreement():
    worst = 0.0
    for form_id in list_available():
        if form_id.capacity_type is not CapacityType.CLASSICAL:
            continue
        for p in GRID:
            reference = closed_form(form_id, p)
            numeric = capacity(
                form_id.configuration, form_id.family, p, CapacityType.CLASSICAL
            )
            dev = abs(numeric - reference)
            worst = max(worst, dev)
            assert dev <= ORACLE_TOL, (str(form_id), p, numeric, reference)

    # anchors
    for p in GRID:
        assert closed_form(
            ClosedFormId(SupermapKind.SWITCH, Family.PHASE_FLIP, CapacityType.CLASSICAL), p
        ) == 1.0
    assert closed_form(
        ClosedFormId(SupermapKind.COHERENT_SUP, Family.BIT_FLIP, CapacityType.CLASSICAL), 0.5
    ) == pytest.approx(0.0, abs=1e-12)
    full_noise_switch = closed_form(
        ClosedFormId(SupermapKind.SWITCH, Family.DEPOLARIZING, CapacityType.CLASSICAL), 1.0
    )
    assert full_noise_switch > 0.0
    assert capacity(
        SupermapKind.SWITCH, Family.DEPOLARIZING, 1.0, CapacityType.CLASSICAL
    ) == pytest.approx(full_noise_switch, abs=ORACLE_TOL)
    _report(1, f"classical oracle agreement on 21-point grid (worst dev {worst:.2e})")


def test_criterion_2_quantum_oracle_agreement():
    qid = ClosedFormId(SupermapKind.SWITCH, Family.BIT_FLIP, CapacityType.QUANTUM)
    worst = 0.0
    for p in GRID:
        reference = closed_form(qid, p)
        numeric = capacity(SupermapKind.SWITCH, Family.BIT_FLIP, p, CapacityType.QUANTUM)
        dev = abs(numeric - reference)
        worst = max(worst, dev)
        assert dev <= ORACLE_TOL, (p, numeric, reference)
    assert closed_form(qid, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert closed_form(qid, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert closed_form(qid, 0.5) == pytest.approx(0.0, abs=1e-12)
    _report(2, f"quantum oracle agreement on 21-point grid (worst dev {worst:.2e})")


def test_criterion_3_equality_claims():
    # (a) nesting two path superpositions adds nothing classically
    for family in (Family.BIT_FLIP, Family.PHASE_FLIP, Family.DEPOLARIZING):
        for p in GRID:
            pair = capacity(SupermapKind.COHERENT_SUP, family, p, CapacityType.CLASSICAL)
            nested = capacity(SupermapKind.COH_OF_COH, family, p, CapacityType.CLASSICAL)
            assert abs(pair - nested) <= EQUALITY_TOL, (family, p)

    # (b) switch, switch-of-superpositions and superposition-of-switches
    # coincide classically for identical channels
    for family in (Family.BIT_FLIP, Family.PHASE_FLIP, Family.DEPOLARIZING):
        for p in GRID:
            values = [
                capacity(kind, family, p, CapacityType.CLASSICAL)
                for kind in (
                    SupermapKind.SWITCH,
                    SupermapKind.SWITCH_OF_COH,
                    SupermapKind.COH_OF_SWITCH,
                )
            ]
            assert max(values) - min(values) <= EQUALITY_TOL, (family, p, values)

    # (c) phase-flip channels: every configuration carries one full bit
    for kind in SupermapKind:
        for p in GRID:
            value = capacity(kind, Family.PHASE_FLIP, p, CapacityType.CLASSICAL)
            assert value == pytest.approx(1.0, abs=EQUALITY_TOL), (kind, p)

    # (d) quantum capacity agrees between bit-flip and phase-flip switches
    for p in GRID:
        bit = capacity(SupermapKind.SWITCH, Family.BIT_FLIP, p, CapacityType.QUANTUM)
        phase = capacity(SupermapKind.SWITCH, Family.PHASE_FLIP, p, CapacityType.QUANTUM)
        assert abs(bit - phase) <= EQUALITY_TOL, (p, bit, phase)
    _report(3, "equality claims (nested-vs-pair, switch family, phase-flip unit, bit/phase quantum)")


def test_criterion_4_ordering_claims():
    # (a) the double switch is classically the weakest configuration
    for family in (Family.BIT_FLIP, Family.DEPOLARIZING):
        for p in INTERIOR:
            sos = capacity(SupermapKind.SWITCH_OF_SWITCH, family, p, CapacityType.CLASSICAL)
            for kind in (
                SupermapKind.SWITCH,
                SupermapKind.SWITCH_OF_COH,
                SupermapKind.COH_OF_SWITCH,
                SupermapKind.COHERENT_SUP,
            ):
                other = capacity(kind, family, p, CapacityType.CLASSICAL)
                assert sos <= other + ORDERING_SLACK, (family, p, kind, sos, other)

    # (b) classical: the pair superposition dominates every nested
    # configuration for depolarizing channels
    for p in INTERIOR:
        coh = capacity(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, p, CapacityType.CLASSICAL)
        for kind in NESTED:
            nested = capacity(kind, Family.DEPOLARIZING, p, CapacityType.CLASSICAL)
            assert coh >= nested - ORDERING_SLACK, (p, kind, coh, nested)

    # (c) quantum: same dominance, evaluated with uniform path amplitudes
    # for the nested coherent constructions (the pair superposition keeps
    # its optimal concentrated default); one vector per superposition, in
    # fold order
    nested_quantum_node_amps = {
        SupermapKind.SWITCH_OF_SWITCH: [],
        SupermapKind.SWITCH_OF_COH: [UNIFORM_4, UNIFORM_4],
        SupermapKind.COH_OF_SWITCH: [UNIFORM_16],
        SupermapKind.COH_OF_COH: [UNIFORM_4, UNIFORM_4, UNIFORM_16],
    }
    for p in INTERIOR:
        coh = capacity(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, p, CapacityType.QUANTUM)
        channels = family_channels(Family.DEPOLARIZING, p, 4)
        for kind, node_amps in nested_quantum_node_amps.items():
            fixed = fix_control(compose(kind, channels, node_amps))
            nested = solve(fixed, CapacityType.QUANTUM)
            assert coh >= nested - ORDERING_SLACK, (p, kind, coh, nested)
    _report(4, "ordering claims (double switch weakest; pair superposition dominant for depolarizing)")


def test_criterion_5_vacuum_amplitude_monotonicity():
    values = {}
    for amps in AMPLITUDE_SETS:
        for p in GRID:
            values[(amps, p)] = capacity(
                SupermapKind.COHERENT_SUP,
                Family.DEPOLARIZING,
                p,
                CapacityType.QUANTUM,
                amps,
            )
    for p in GRID:
        curve = [values[(amps, p)] for amps in AMPLITUDE_SETS]
        for lower, upper in zip(curve, curve[1:]):
            assert lower <= upper + MONOTONE_SLACK, (p, curve)
        assert curve[-1] >= max(curve) - MONOTONE_SLACK, (p, curve)
    # all sets transmit one full qubit at zero noise
    for amps in AMPLITUDE_SETS:
        assert values[(amps, 0.0)] == pytest.approx(1.0, abs=1e-3)
    # concentrated amplitudes at full noise: regression value pinned from
    # the first run of this suite
    assert values[((1.0, 0.0, 0.0, 0.0), 1.0)] == pytest.approx(0.0, abs=1e-9)
    _report(5, "vacuum-amplitude curves ordered by their first component, concentrated set dominant")


def test_criterion_6_structural_suite():
    rng = np.random.default_rng(20240601)

    # completeness of every composed Kraus set on the grid
    for kind in SupermapKind:
        families = [
            f for f in Family if not (kind.n_channels == 2 and f is Family.MIXED_BLOCK)
        ]
        for family in families:
            for p in GRID:
                raw = build_supermap(kind, family, p)
                assert completeness_defect(raw) <= 1e-10, (kind, family, p)
                fixed = build_fixed(kind, family, p)
                assert completeness_defect(fixed) <= 1e-10, (kind, family, p)

    # Kraus-count law: m inner times n inner operators
    assert switch(bit_flip(0.2), phase_flip(0.3)).n_kraus == 4
    for kind in SupermapKind:
        assert build_supermap(kind, Family.DEPOLARIZING, 0.4).n_kraus == 4**kind.n_channels

    # p = 0 identity collapse for every configuration
    rho = random_density(rng, 2)
    for kind in SupermapKind:
        fixed = build_fixed(kind, Family.DEPOLARIZING, 0.0)
        n_ctrl = len(fixed.output_dims) - 1
        np.testing.assert_allclose(
            apply(fixed, rho), np.kron(plus_state(n_ctrl), rho), atol=1e-12
        )

    # entropy identities
    for _ in range(10):
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert von_neumann_entropy(np.kron(a, b)) == pytest.approx(
            von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9
        )
        u = random_unitary(rng, 4)
        ab = np.kron(a, b)
        assert von_neumann_entropy(u @ ab @ u.conj().T) == pytest.approx(
            von_neumann_entropy(ab), abs=1e-9
        )

    # complementary outputs preserve the trace on the grid
    for kind in (SupermapKind.SWITCH, SupermapKind.COH_OF_COH):
        for p in GRID:
            fixed = build_fixed(kind, Family.DEPOLARIZING, p)
            w = complementary_output(fixed, random_density(rng, 2))
            assert np.trace(w).real == pytest.approx(1.0, abs=1e-10)

    # classical control states reduce to sequential composition
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    e1, e2 = bit_flip(0.3), phase_flip(0.45)
    state = random_density(rng, 2)
    forward = partial_trace(
        apply(fix_control(switch(e1, e2), ket0), state), (2, 2), keep=[1]
    )
    np.testing.assert_allclose(forward, apply(e2, apply(e1, state)), atol=1e-12)
    backward = partial_trace(
        apply(fix_control(switch(e1, e2), ket1), state), (2, 2), keep=[1]
    )
    np.testing.assert_allclose(backward, apply(e1, apply(e2, state)), atol=1e-12)
    _report(6, "structural suite (completeness, Kraus counts, collapse, entropy, environment, ordering)")


def test_criterion_7_csv_determinism(tmp_path):
    args = [
        "sweep", "--config", "soc", "--family", "mixed_alt", "--capacity", "both",
        "--p-start", "0.1", "--p-end", "0.9", "--p-steps", "3",
        "--restarts", "4", "--seed", "777",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(7, "repeated sweeps with a fixed seed are byte-identical")
