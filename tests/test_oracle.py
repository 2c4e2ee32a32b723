import numpy as np
import pytest

from _helpers import drawn_node_amps, eligible_families
from switchcap import supermaps
from switchcap.supermaps import Family, build_fixed, family_channels
from switchcap.infotheory import target_marginal
from switchcap.oracle import (
    CapacityType,
    ClosedFormId,
    binary_entropy,
    closed_form,
    effective_flip_probability,
    list_available,
)
from switchcap.supermaps import SupermapKind, compose, fix_control

C = CapacityType.CLASSICAL
Q = CapacityType.QUANTUM

GRID = np.linspace(0.0, 1.0, 201)
KET0 = np.diag([1.0, 0.0]).astype(complex)


def _flip_of_kraus_build(kind, family, p, node_amps=None):
    """``<1| target_marginal(|0><0|) |1>`` of the composed, fixed channel.

    ``build_fixed`` composes it with default amplitudes, and ``compose`` with
    the vectors ``node_amps``, one per superposition.
    """
    if node_amps is None:
        fixed = build_fixed(kind, family, p)
    else:
        fixed = fix_control(compose(kind, family_channels(family, p, kind.n_channels), node_amps))
    return target_marginal(fixed, KET0)[1, 1].real


def _cid(kind, family, cap=C):
    return ClosedFormId(kind, family, cap)


class TestExamples:
    @pytest.mark.parametrize("p", [0.0, 0.17, 0.5, 0.99, 1.0])
    def test_phase_flip_switch_is_one(self, p):
        assert closed_form(_cid(SupermapKind.SWITCH, Family.PHASE_FLIP), p) == 1.0

    def test_coherent_bit_flip_vanishes_at_half(self):
        # log(2 - 2p) and p log(p / (1-p)) both vanish at p = 1/2.
        value = closed_form(_cid(SupermapKind.COHERENT_SUP, Family.BIT_FLIP), 0.5)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_quantum_switch_vanishes_at_half(self):
        value = closed_form(_cid(SupermapKind.SWITCH, Family.BIT_FLIP, Q), 0.5)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_depolarizing_switch_at_full_noise_is_positive(self):
        # Independent derivation: the traced pair of depolarizing channels
        # contracts the Bloch z component by eta^2 = 1/9, so the reference
        # equals 1 - H2(4/9) > 0.
        value = closed_form(_cid(SupermapKind.SWITCH, Family.DEPOLARIZING), 1.0)
        assert value == pytest.approx(1.0 - binary_entropy(4.0 / 9.0), abs=1e-12)
        assert value > 0.008


class TestListAvailable:
    def test_contains_depolarizing_switch(self):
        assert _cid(SupermapKind.SWITCH, Family.DEPOLARIZING) in list_available()

    def test_exactly_one_quantum_entry(self):
        quantum = [i for i in list_available() if i.capacity_type is Q]
        assert quantum == [_cid(SupermapKind.SWITCH, Family.BIT_FLIP, Q)]

    def test_stable_count(self):
        first = list_available()
        second = list_available()
        assert first == second
        # 4 families for the two-channel configurations, 5 for the nested
        # four, plus the single quantum entry.
        assert len(first) == 4 + 4 + 5 * 4 + 1

    def test_unmapped_id_error_lists_available(self):
        bad = _cid(SupermapKind.SWITCH, Family.MIXED_BLOCK)
        with pytest.raises(ValueError, match="available"):
            closed_form(bad, 0.2)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p"):
            closed_form(_cid(SupermapKind.SWITCH, Family.BIT_FLIP), 1.2)


class TestInvariants:
    def test_finite_on_dense_grid(self):
        for form_id in list_available():
            values = [closed_form(form_id, p) for p in GRID]
            assert np.all(np.isfinite(values)), form_id

    def test_classical_values_within_unit_interval(self):
        for form_id in list_available():
            if form_id.capacity_type is not C:
                continue
            for p in GRID:
                v = closed_form(form_id, p)
                assert -1e-12 <= v <= 1.0 + 1e-12, (form_id, p, v)

    def test_quantum_endpoints(self):
        qid = _cid(SupermapKind.SWITCH, Family.BIT_FLIP, Q)
        assert closed_form(qid, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert closed_form(qid, 1.0) == pytest.approx(1.0, abs=1e-15)


class TestDuplicateExpressions:
    """Configurations whose expressions coincide must agree pointwise."""

    @pytest.mark.parametrize(
        "kinds,family",
        [
            (
                (SupermapKind.SWITCH, SupermapKind.SWITCH_OF_COH, SupermapKind.COH_OF_SWITCH),
                Family.BIT_FLIP,
            ),
            (
                (SupermapKind.SWITCH, SupermapKind.SWITCH_OF_COH, SupermapKind.COH_OF_SWITCH),
                Family.DEPOLARIZING,
            ),
            ((SupermapKind.COHERENT_SUP, SupermapKind.COH_OF_COH), Family.DEPOLARIZING),
        ],
    )
    def test_groups_agree(self, kinds, family):
        for p in GRID:
            values = [closed_form(_cid(k, family), p) for k in kinds]
            assert max(values) - min(values) <= 1e-12, (kinds, family, p)

    def test_coherent_bit_flip_equals_mixed_switch(self):
        for p in GRID:
            a = closed_form(_cid(SupermapKind.COHERENT_SUP, Family.BIT_FLIP), p)
            b = closed_form(_cid(SupermapKind.SWITCH, Family.MIXED_ALTERNATING), p)
            assert a == pytest.approx(b, abs=1e-12)

    def test_nested_mixed_families_coincide_for_coc(self):
        for p in GRID:
            a = closed_form(_cid(SupermapKind.COH_OF_COH, Family.MIXED_ALTERNATING), p)
            b = closed_form(_cid(SupermapKind.COH_OF_COH, Family.MIXED_BLOCK), p)
            assert a == pytest.approx(b, abs=1e-12)

    def test_soc_and_cos_mixed_variants_cross_match(self):
        # The alternating family of one nesting order matches the block
        # family of the other: both reduce to the same marginal.
        for p in GRID:
            a = closed_form(_cid(SupermapKind.SWITCH_OF_COH, Family.MIXED_ALTERNATING), p)
            b = closed_form(_cid(SupermapKind.COH_OF_SWITCH, Family.MIXED_BLOCK), p)
            assert a == pytest.approx(b, abs=1e-12)
            c = closed_form(_cid(SupermapKind.SWITCH_OF_COH, Family.MIXED_BLOCK), p)
            d = closed_form(_cid(SupermapKind.COH_OF_SWITCH, Family.MIXED_ALTERNATING), p)
            assert c == pytest.approx(d, abs=1e-12)


class TestFlipProbabilityModel:
    def test_every_classical_form_matches_binary_symmetric_model(self):
        # Independent cross-check: each analytic expression must equal
        # 1 - H2(f) with f from the Bloch-multiplier composition rules.
        for form_id in list_available():
            if form_id.capacity_type is not C:
                continue
            for p in GRID:
                f = effective_flip_probability(form_id.configuration, form_id.family, p)
                expected = 1.0 - binary_entropy(f)
                assert closed_form(form_id, p) == pytest.approx(
                    expected, abs=1e-10
                ), (form_id, p)

    def test_quantum_form_matches_flip_model(self):
        # The switch of two bit-flip channels behaves as an effective
        # bit-flip with probability 2p(1-p) for quantum signaling too.
        qid = _cid(SupermapKind.SWITCH, Family.BIT_FLIP, Q)
        for p in GRID:
            expected = 1.0 - binary_entropy(2 * p * (1 - p))
            assert closed_form(qid, p) == pytest.approx(expected, abs=1e-10)

    def test_flip_probability_ordering_for_nesting(self):
        # Deeper switch nesting contracts the Bloch vector further, so the
        # four-fold composition always flips at least as often.
        for family in (Family.BIT_FLIP, Family.DEPOLARIZING):
            for p in GRID[1:-1]:
                shallow = effective_flip_probability(SupermapKind.SWITCH, family, p)
                deep = effective_flip_probability(
                    SupermapKind.SWITCH_OF_SWITCH, family, p
                )
                assert abs(deep - 0.5) <= abs(shallow - 0.5) + 1e-12

    @pytest.mark.parametrize("kind", list(SupermapKind))
    def test_tree_matches_kraus_build(self, kind):
        # The oracle folds the same composition tree as the Kraus build,
        # with hand-derived multipliers in place of Kraus operators.
        for family in eligible_families(kind):
            for p in (0.0, 0.2, 0.5, 0.8, 1.0):
                expected = effective_flip_probability(kind, family, p)
                numeric = _flip_of_kraus_build(kind, family, p)
                assert numeric == pytest.approx(expected, abs=1e-12), (family, p)

    @pytest.mark.parametrize(
        "kind",
        [
            SupermapKind.COHERENT_SUP,
            SupermapKind.SWITCH_OF_COH,
            SupermapKind.COH_OF_SWITCH,
            SupermapKind.COH_OF_COH,
        ],
    )
    def test_tree_matches_kraus_build_with_drawn_amplitudes(self, kind):
        # Tracing the path controls removes every amplitude from the target
        # marginal, so drawn complex vectors leave the flip probability alone.
        rng = np.random.default_rng(71)
        for family in (Family.BIT_FLIP, Family.MIXED_ALTERNATING, Family.DEPOLARIZING):
            n = 4 if family is Family.DEPOLARIZING else 2
            for p in rng.uniform(size=3):
                expected = effective_flip_probability(kind, family, p)
                numeric = _flip_of_kraus_build(kind, family, p, drawn_node_amps(rng, kind, n))
                assert numeric == pytest.approx(expected, abs=1e-12), (family, p)

    @pytest.mark.parametrize(
        "tree",
        [
            ("coh", ("switch", 0, 1), ("coh", 2, 3)),
            ("coh", ("coh", 0, 1), ("switch", 2, 3)),
            ("switch", ("coh", 0, 1), ("switch", 2, 3)),
            ("switch", ("switch", 0, 1), ("coh", 2, 3)),
        ],
    )
    def test_hybrid_trees_match_kraus_build(self, tree, monkeypatch):
        # Trees outside the six, where a switch and a superposition are
        # siblings: the switch's doubled branches keep the weights right.
        kind = SupermapKind.COH_OF_COH
        monkeypatch.setitem(supermaps._TREES, kind, tree)
        assert kind.n_channels == 4
        # Each superposition takes its own drawn vector through ``compose``;
        # a root superposition over a switch and a superposition reads one
        # amplitude per n * n composite Kraus index of its children.
        rng = np.random.default_rng(29)
        for family in (Family.BIT_FLIP, Family.MIXED_BLOCK, Family.DEPOLARIZING):
            n = 4 if family is Family.DEPOLARIZING else 2
            for p in (0.1, 0.3, 0.7):
                expected = effective_flip_probability(kind, family, p)
                numeric = _flip_of_kraus_build(kind, family, p)
                assert numeric == pytest.approx(expected, abs=1e-12), (family, p)
                numeric = _flip_of_kraus_build(kind, family, p, drawn_node_amps(rng, kind, n))
                assert numeric == pytest.approx(expected, abs=1e-12), (family, p)
