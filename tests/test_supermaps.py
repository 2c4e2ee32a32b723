import operator

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from _helpers import (
    channel_pairs_and_states,
    direct_sum,
    eligible_families,
    projector,
    random_channel,
    random_density,
    random_unit_vector,
    uncompressed_fixed,
)
from switchcap.channels import (
    Channel,
    apply,
    bit_flip,
    completeness_defect,
    depolarizing,
    identity_channel,
    phase_flip,
    vacuum_extend,
)
from switchcap.configs import Family, build_fixed, build_supermap, family_channels
from switchcap.infotheory import coherent_information, exchange_entropy
from switchcap.qmatrix import partial_trace, plus_state
from switchcap.supermaps import (
    SupermapKind,
    coherent_superposition,
    fix_control,
    fold,
    switch,
)

KET0 = projector(np.array([1, 0], dtype=complex))
KET1 = projector(np.array([0, 1], dtype=complex))

ALL_KINDS = list(SupermapKind)


def _extended(ch, amps=None):
    if amps is None:
        amps = [0.0] * ch.n_kraus
        amps[0] = 1.0
    return vacuum_extend(ch, amps)


class TestSwitch:
    def test_kraus_count_is_product(self):
        ch = switch(bit_flip(0.2), phase_flip(0.4))
        assert ch.n_kraus == 4

    def test_identity_switch_is_identity(self):
        ch = switch(identity_channel(), identity_channel())
        assert ch.n_kraus == 1
        assert_allclose(ch.kraus[0], np.eye(4))

    def test_bit_flip_pair_diagonal_operators(self):
        # sigma_x squared is the identity, so the (0,0) and (1,1) operators
        # are proportional to the identity on control (x) target.
        p = 0.3
        ch = switch(bit_flip(p), bit_flip(p))
        assert_allclose(ch.kraus[0], (1 - p) * np.eye(4), atol=1e-15)
        assert_allclose(ch.kraus[3], p * np.eye(4), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            switch(bit_flip(0.1), identity_channel(4))

    def test_swap_symmetry_for_identical_channels(self):
        rng = np.random.default_rng(0)
        rho = np.kron(plus_state(), random_density(rng, 2))
        a = switch(bit_flip(0.3), bit_flip(0.3))
        b = switch(bit_flip(0.3), bit_flip(0.3))
        assert_allclose(apply(a, rho), apply(b, rho), atol=1e-12)
        mixed_ab = switch(bit_flip(0.3), phase_flip(0.3))
        mixed_ba = switch(phase_flip(0.3), bit_flip(0.3))
        assert_allclose(apply(mixed_ab, rho), apply(mixed_ba, rho), atol=1e-12)


class TestCoherentSuperposition:
    def test_uniform_bit_flip_matches_block_form(self):
        # With all amplitudes 1/sqrt(2) each composed operator is the
        # block-diagonal (K_i (+) L_j) / sqrt(2).
        p = 0.3
        amps = (1 / np.sqrt(2), 1 / np.sqrt(2))
        e1 = vacuum_extend(bit_flip(p), amps)
        e2 = vacuum_extend(bit_flip(p), amps)
        ch = coherent_superposition(e1, e2)
        ks = bit_flip(p).kraus
        idx = 0
        for i in range(2):
            for j in range(2):
                expected = direct_sum(ks[i], ks[j]) / np.sqrt(2)
                assert_allclose(ch.kraus[idx], expected, atol=1e-15)
                idx += 1

    def test_identity_channels_give_identity(self):
        e = vacuum_extend(identity_channel(), (1.0,))
        ch = coherent_superposition(e, e)
        assert ch.n_kraus == 1
        assert_allclose(ch.kraus[0], np.eye(4))

    def test_completeness_for_random_amplitudes(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = rng.uniform(0, 1)
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps = raw / np.linalg.norm(raw)
            ch = coherent_superposition(
                vacuum_extend(depolarizing(p), amps),
                vacuum_extend(depolarizing(p), amps),
            )
            assert completeness_defect(ch) <= 1e-10


class TestBlockConstruction:
    """The batched compositions against one ``direct_sum`` per Kraus pair."""

    def test_switch_pairs(self):
        rng = np.random.default_rng(8)
        e1, e2 = random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 3)
        ch = switch(e1, e2)
        pairs = [(k, l) for k in e1.kraus for l in e2.kraus]
        assert ch.n_kraus == len(pairs)
        for m, (k, l) in zip(ch.kraus, pairs):
            assert_allclose(m, direct_sum(l @ k, k @ l), rtol=0, atol=1e-15)

    def test_superposition_pairs(self):
        rng = np.random.default_rng(9)
        e1, e2 = random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 3)
        alpha, beta = random_unit_vector(rng, 2), random_unit_vector(rng, 3)
        ch = coherent_superposition(vacuum_extend(e1, alpha), vacuum_extend(e2, beta))
        pairs = [(k, a, l, b) for k, a in zip(e1.kraus, alpha) for l, b in zip(e2.kraus, beta)]
        assert ch.n_kraus == len(pairs)
        for m, (k, a, l, b) in zip(ch.kraus, pairs):
            assert_allclose(m, direct_sum(k * b, a * l), rtol=0, atol=1e-15)


class TestNestedCompositions:
    """The four nests built from ``switch`` and ``coherent_superposition``."""

    def test_sos_identities(self):
        inner = switch(identity_channel(), identity_channel())
        ch = switch(inner, inner)
        assert_allclose(ch.kraus[0], np.eye(8))

    def test_sos_kraus_count(self):
        inner = switch(bit_flip(0.2), bit_flip(0.2))
        assert switch(inner, inner).n_kraus == 16

    def test_sos_noiseless_first_operator(self):
        inner = switch(bit_flip(0.0), bit_flip(0.0))
        assert_allclose(switch(inner, inner).kraus[0], np.eye(8), atol=1e-15)

    def test_soc_identities(self):
        e = _extended(identity_channel())
        inner = coherent_superposition(e, e)
        ch = switch(inner, inner)
        nonzero = [k for k in ch.kraus if np.abs(k).max() > 1e-14]
        assert len(nonzero) == 1
        assert_allclose(nonzero[0], np.eye(8))

    def test_soc_kraus_count(self):
        e = _extended(bit_flip(0.2))
        inner = coherent_superposition(e, e)
        assert switch(inner, inner).n_kraus == 16

    def test_coc_identities_concentrated(self):
        e = _extended(identity_channel())
        inner = _extended(coherent_superposition(e, e))
        ch = coherent_superposition(inner, inner)
        nonzero = [k for k in ch.kraus if np.abs(k).max() > 1e-14]
        assert len(nonzero) == 1
        assert_allclose(nonzero[0], np.eye(8))

    def test_cos_identities_concentrated(self):
        inner = _extended(switch(identity_channel(), identity_channel()))
        ch = coherent_superposition(inner, inner)
        nonzero = [k for k in ch.kraus if np.abs(k).max() > 1e-14]
        assert len(nonzero) == 1
        assert_allclose(nonzero[0], np.eye(8))

    def test_outer_amplitude_normalization_enforced(self):
        e = _extended(bit_flip(0.3))
        inner = coherent_superposition(e, e)
        with pytest.raises(ValueError, match="norm"):
            vacuum_extend(inner, np.full(4, 0.9))

    def test_hybrid_nest_outside_the_six_configurations(self):
        # A switch between a path superposition and a switch: no
        # configuration token names it, but the combinators compose it.
        c = depolarizing(0.3)
        e = vacuum_extend(c, (0.5, 0.5, 0.5, 0.5))
        ch = switch(coherent_superposition(e, e), switch(c, c))
        assert ch.n_kraus == 256
        assert completeness_defect(ch) <= 1e-10
        fixed = fix_control(ch)
        assert fixed.d_in == 2
        assert fixed.output_dims == (2, 2, 2)
        assert completeness_defect(fixed) <= 1e-10


class TestBuildWork:
    """Each channel of a build is constructed, and so checked, once."""

    @pytest.mark.parametrize(
        ("kind", "family", "count"),
        [
            # One bit-flip leaf, two superpositions, one switch.
            (SupermapKind.SWITCH_OF_COH, Family.BIT_FLIP, 4),
            (SupermapKind.SWITCH, Family.DEPOLARIZING, 2),
            (SupermapKind.COH_OF_COH, Family.MIXED_ALTERNATING, 5),
        ],
    )
    def test_channel_constructions(self, kind, family, count, monkeypatch):
        calls = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: calls.append(1) or init(ch))
        build_supermap(kind, family, 0.3)
        assert len(calls) == count

    def test_repeated_leaves_share_one_channel(self):
        bit, bit_again, phase, phase_again = family_channels(Family.MIXED_BLOCK, 0.3, 4)
        assert bit is bit_again and phase is phase_again
        assert bit.label == "bitflip(p=0.3)" and phase.label == "phaseflip(p=0.3)"


class TestFold:
    def test_superpositions_are_reached_in_post_order(self):
        # Children fold before their parent, first before second: the order
        # in which ``build_supermap`` hands out one amplitude vector per node.
        visited = []

        def coh_rule(first, second):
            visited.append((first, second))
            return first + second

        assert fold(SupermapKind.COH_OF_COH, str, operator.add, coh_rule) == "0123"
        assert visited == [("0", "1"), ("2", "3"), ("01", "23")]


class TestAmplitudeRejection:
    @pytest.mark.parametrize("kind", [SupermapKind.SWITCH, SupermapKind.SWITCH_OF_SWITCH])
    def test_amps_rejected_without_a_superposition(self, kind):
        with pytest.raises(ValueError, match="does not take vacuum amplitudes"):
            build_supermap(kind, Family.BIT_FLIP, 0.3, amps=(1.0, 0.0))

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not SupermapKind.COH_OF_COH])
    def test_outer_amps_rejected_except_for_coc(self, kind):
        with pytest.raises(ValueError, match="outer_amps only applies to coc"):
            build_supermap(kind, Family.BIT_FLIP, 0.3, outer_amps=(1.0, 0.0, 0.0, 0.0))

    def test_nan_amplitudes_rejected_by_the_norm_check(self):
        with pytest.raises(ValueError, match="vacuum amplitudes have squared norm nan"):
            build_supermap(SupermapKind.COHERENT_SUP, Family.BIT_FLIP, 0.3, [float("nan"), 0])


class TestCompletenessGrid:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_default_amplitudes_grid(self, kind):
        for family in eligible_families(kind):
            for p in np.linspace(0, 1, 11):
                ch = build_supermap(kind, family, float(p))
                assert completeness_defect(ch) <= 1e-10, (kind, family, p)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_kraus_count_law(self, kind):
        ch = build_supermap(kind, Family.DEPOLARIZING, 0.3)
        assert ch.n_kraus == 4**kind.n_channels


class TestFixControl:
    def test_identity_switch_prepends_control(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        fixed = fix_control(switch(identity_channel(), identity_channel()))
        out = apply(fixed, rho)
        assert_allclose(out, np.kron(plus_state(), rho), atol=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fixed_channels_complete_on_target(self, kind):
        for family in eligible_families(kind):
            for p in (0.0, 0.3, 0.7, 1.0):
                fixed = build_fixed(kind, family, p)
                assert fixed.d_in == 2
                assert completeness_defect(fixed) <= 1e-10

    def test_fixing_equals_joint_application(self):
        # Applying the fixed channel to rho matches applying the raw
        # channel to control (x) rho.
        rng = np.random.default_rng(2)
        for kind in ALL_KINDS:
            raw = build_supermap(kind, Family.MIXED_ALTERNATING, 0.35)
            fixed = fix_control(raw)
            rho = random_density(rng, 2)
            n_ctrl = len(raw.input_dims) - 1
            joint = np.kron(plus_state(n_ctrl), rho)
            assert_allclose(apply(fixed, rho), apply(raw, joint), atol=1e-12)

    def test_mixed_control_rejected(self):
        ch = switch(bit_flip(0.2), bit_flip(0.2))
        with pytest.raises(ValueError, match="pure"):
            fix_control(ch, np.eye(2) / 2)

    @pytest.mark.parametrize(
        "control,reason",
        [
            ([[0.5, 5], [0.5, 0.5]], "Hermitian"),
            ([[1.0, 0.0], [0.0, 1.0]], "trace"),
            ([[1.5, 0.0], [0.0, -0.5]], "negative eigenvalue"),
            ([[np.nan, 0.0], [0.0, 1.0]], "NaN"),
        ],
    )
    def test_invalid_control_rejected(self, control, reason):
        # eigh reads one triangle only, so Hermiticity needs its own check.
        ch = switch(bit_flip(0.3), bit_flip(0.3))
        with pytest.raises(ValueError, match=f"control is not a valid density matrix: .*{reason}"):
            fix_control(ch, control)

    def test_control_shape_checked_first(self):
        ch = switch(bit_flip(0.3), bit_flip(0.3))
        with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match control dim 2"):
            fix_control(ch, np.eye(4) / 4)

    def test_plain_channel_rejected(self):
        with pytest.raises(ValueError, match="control"):
            fix_control(bit_flip(0.2))

    @settings(derandomize=True, deadline=None)
    @given(case=channel_pairs_and_states())
    def test_compressed_matches_uncompressed(self, case):
        (e1, e2), rho = case
        for composed in (switch(e1.base, e2.base), coherent_superposition(e1, e2)):
            fixed = fix_control(composed)
            reference = uncompressed_fixed(composed)
            assert fixed.n_kraus <= fixed.d_in * fixed.d_out
            assert completeness_defect(fixed) <= 1e-10
            assert_allclose(apply(fixed, rho), apply(reference, rho), rtol=0, atol=1e-12)
            assert coherent_information(fixed, rho) == pytest.approx(
                coherent_information(reference, rho), abs=1e-12
            )
            assert exchange_entropy(fixed, rho) == pytest.approx(
                exchange_entropy(reference, rho), abs=1e-12
            )


class TestNoiselessCollapse:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_p_zero_acts_as_identity(self, kind):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        fixed = build_fixed(kind, Family.DEPOLARIZING, 0.0)
        n_ctrl = len(fixed.output_dims) - 1
        assert_allclose(apply(fixed, rho), np.kron(plus_state(n_ctrl), rho), atol=1e-12)


class TestSequentialEquivalence:
    @pytest.mark.parametrize(
        "control,order",
        [(KET0, "forward"), (KET1, "reverse")],
    )
    def test_classical_control_reduces_to_sequential(self, control, order):
        # Control |0><0| runs first-argument-first; |1><1| reverses it.
        rng = np.random.default_rng(4)
        e1, e2 = bit_flip(0.25), phase_flip(0.6)
        fixed = fix_control(switch(e1, e2), control)
        for _ in range(5):
            rho = random_density(rng, 2)
            marginal = partial_trace(apply(fixed, rho), (2, 2), keep=[1])
            if order == "forward":
                expected = apply(e2, apply(e1, rho))
            else:
                expected = apply(e1, apply(e2, rho))
            assert_allclose(marginal, expected, atol=1e-12)
