import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from _helpers import (
    channel_pairs_and_states,
    direct_sum,
    eligible_families,
    plus_state,
    random_channel,
    random_density,
    drawn_node_amps,
    random_unit_vector,
    reference_build,
    uncompressed_fixed,
)
from switchcap import supermaps
from switchcap.channels import (
    Channel,
    apply,
    bit_flip,
    completeness_defect,
    depolarizing,
    identity_channel,
    phase_flip,
)
from switchcap.supermaps import Family, build_fixed, build_supermap, family_channels
from switchcap.infotheory import coherent_information, exchange_entropy
from switchcap.qmatrix import partial_trace
from switchcap.supermaps import (
    SupermapKind,
    coherent_superposition,
    compose,
    concentrated_amplitudes,
    fix_control,
    fold,
    leaf_models,
    switch,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)

ALL_KINDS = list(SupermapKind)

#: The vectors ``build_supermap(kind, family, p, a)`` gives the superpositions
#: of ``kind`` in fold order: ``a`` where no superposition lies below, else
#: the concentrated default.
ROUTES = {
    SupermapKind.SWITCH: lambda a: [],
    SupermapKind.COHERENT_SUP: lambda a: [a],
    SupermapKind.SWITCH_OF_SWITCH: lambda a: [],
    SupermapKind.SWITCH_OF_COH: lambda a: [a, a],
    SupermapKind.COH_OF_SWITCH: lambda a: [a],
    SupermapKind.COH_OF_COH: lambda a: [a, a, None],
}
SUPERPOSING_KINDS = [kind for kind in ALL_KINDS if ROUTES[kind](None)]


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
        ch = coherent_superposition(bit_flip(p), amps, bit_flip(p), amps)
        ks = bit_flip(p).kraus
        idx = 0
        for i in range(2):
            for j in range(2):
                expected = direct_sum(ks[i], ks[j]) / np.sqrt(2)
                assert_allclose(ch.kraus[idx], expected, atol=1e-15)
                idx += 1

    def test_identity_channels_give_identity(self):
        e = identity_channel()
        ch = coherent_superposition(e, (1.0,), e, (1.0,))
        assert ch.n_kraus == 1
        assert_allclose(ch.kraus[0], np.eye(4))

    def test_completeness_for_random_amplitudes(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = rng.uniform(0, 1)
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps = raw / np.linalg.norm(raw)
            ch = coherent_superposition(depolarizing(p), amps, depolarizing(p), amps)
            assert completeness_defect(ch) <= 1e-10



def _extended_channel(ch, amps):
    """The ``K_i (+) gamma_i`` Kraus set of ``ch`` on ``d_in + 1`` dimensions."""
    dim = ch.d_in + 1
    kraus = [direct_sum(k, [[g]]) for k, g in zip(ch.kraus, amps)]
    return Channel(kraus, (dim,), (dim,))


class TestVacuumAmplitudes:
    """The vacuum amplitudes a superposition reads, one per Kraus operator."""

    def test_bit_flip_uniform_amplitudes(self):
        # Extended operators are K_i (+) 1/sqrt(2) on the 3-dimensional
        # space with the vacuum as last basis vector.
        p = 0.3
        ext = _extended_channel(bit_flip(p), (1 / np.sqrt(2), 1 / np.sqrt(2)))
        for i, base in enumerate(bit_flip(p).kraus):
            expected = np.zeros((3, 3), dtype=complex)
            expected[:2, :2] = base
            expected[2, 2] = 1 / np.sqrt(2)
            assert_allclose(ext.kraus[i], expected)
        assert completeness_defect(ext) <= 1e-10

    def test_concentrated_amplitudes(self):
        amps = concentrated_amplitudes(4)
        assert not amps.flags.writeable
        vac_components = [k[2, 2] for k in _extended_channel(depolarizing(0.5), amps).kraus]
        assert vac_components[0] == 1.0
        assert_allclose(vac_components[1:], 0)

    def test_shared_vector_cannot_be_made_writable(self):
        before = build_supermap(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.3)
        shared = concentrated_amplitudes(4)
        with pytest.raises(ValueError):
            shared.setflags(write=True)
        assert concentrated_amplitudes(4).tobytes() == np.array([1, 0, 0, 0], complex).tobytes()
        after = build_supermap(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.3)
        assert after.kraus.tobytes() == before.kraus.tobytes()

    def test_only_integer_lengths_share_a_vector(self):
        # The cache keeps the length's type in its key: a float length is
        # rejected as numpy rejects it, even once the int length is cached.
        concentrated_amplitudes(2)
        with pytest.raises(TypeError):
            concentrated_amplitudes(2.0)
        assert concentrated_amplitudes(np.int64(2)).tobytes() == concentrated_amplitudes(2).tobytes()

    def test_uniform_depolarizing_amplitudes_complete(self):
        ext = _extended_channel(depolarizing(0.7), (0.5, 0.5, 0.5, 0.5))
        assert completeness_defect(ext) <= 1e-10

    def test_restriction_reproduces_base_action(self):
        rng = np.random.default_rng(10)
        ch = depolarizing(0.4)
        rho = random_density(rng, 2)
        embedded = np.zeros((3, 3), dtype=complex)
        embedded[:2, :2] = rho
        out = apply(_extended_channel(ch, (0.5, 0.5, 0.5, 0.5)), embedded)
        assert_allclose(out[:2, :2], apply(ch, rho), atol=1e-14)

    def test_superposition_is_the_one_particle_sector_of_the_extended_pair(self):
        # Path 0 carries the message through the first extended channel while
        # the second sees the vacuum, path 1 the reverse: the isometry V maps
        # |0, a> to |a, vac> and |1, b> to |vac, b>, and each composed operator
        # is V^dag (E_i (x) F_j) V.
        rng = np.random.default_rng(11)
        e1, e2 = random_channel(rng, 2, 2, 2), random_channel(rng, 2, 2, 3)
        alpha, beta = random_unit_vector(rng, 2), random_unit_vector(rng, 3)
        v = np.zeros((9, 4))
        v[[2, 5, 6, 7], [0, 1, 2, 3]] = 1.0
        ext1, ext2 = _extended_channel(e1, alpha), _extended_channel(e2, beta)
        expected = [v.T @ np.kron(a, b) @ v for a in ext1.kraus for b in ext2.kraus]
        ch = coherent_superposition(e1, alpha, e2, beta)
        assert_allclose(ch.kraus, expected, rtol=0, atol=1e-15)

    def test_none_is_the_concentrated_vector(self):
        e1, e2 = bit_flip(0.3), depolarizing(0.6)
        explicit = coherent_superposition(
            e1, concentrated_amplitudes(2), e2, concentrated_amplitudes(4)
        )
        assert np.array_equal(coherent_superposition(e1, None, e2, None).kraus, explicit.kraus)

    @pytest.mark.parametrize(
        ("alpha", "beta", "message"),
        [
            ((1.0,), None, "expected 2 vacuum amplitudes (one per Kraus operator), got 1"),
            ((0.9, 0.1), None, "vacuum amplitudes have squared norm 0.8200000000000001, expected 1"),
            ((float("nan"), 0.0), None, "vacuum amplitudes have squared norm nan, expected 1"),
            # The first vector is checked first, each against its own channel.
            ((1.0,), (1.0, 0.0), "expected 2 vacuum amplitudes (one per Kraus operator), got 1"),
            (None, (1.0, 0.0), "expected 4 vacuum amplitudes (one per Kraus operator), got 2"),
        ],
        ids=["wrong_length", "unnormalized", "nan", "first_checked_first", "second_length"],
    )
    def test_invalid_amplitudes_rejected(self, alpha, beta, message):
        with pytest.raises(ValueError) as info:
            coherent_superposition(bit_flip(0.3), alpha, depolarizing(0.3), beta)
        assert str(info.value) == message

    def test_non_square_channels_rejected(self):
        embedding = Channel((np.eye(3, 2),), (2,), (3,))
        with pytest.raises(ValueError, match="^composition requires square Kraus operators$"):
            coherent_superposition(embedding, None, embedding, None)


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
        ch = coherent_superposition(e1, alpha, e2, beta)
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
        e = identity_channel()
        inner = coherent_superposition(e, None, e, None)
        ch = switch(inner, inner)
        nonzero = [k for k in ch.kraus if np.abs(k).max() > 1e-14]
        assert len(nonzero) == 1
        assert_allclose(nonzero[0], np.eye(8))

    def test_soc_kraus_count(self):
        e = bit_flip(0.2)
        inner = coherent_superposition(e, None, e, None)
        assert switch(inner, inner).n_kraus == 16

    def test_coc_identities_concentrated(self):
        e = identity_channel()
        inner = coherent_superposition(e, None, e, None)
        ch = coherent_superposition(inner, None, inner, None)
        nonzero = [k for k in ch.kraus if np.abs(k).max() > 1e-14]
        assert len(nonzero) == 1
        assert_allclose(nonzero[0], np.eye(8))

    def test_cos_identities_concentrated(self):
        inner = switch(identity_channel(), identity_channel())
        ch = coherent_superposition(inner, None, inner, None)
        nonzero = [k for k in ch.kraus if np.abs(k).max() > 1e-14]
        assert len(nonzero) == 1
        assert_allclose(nonzero[0], np.eye(8))

    def test_outer_amplitude_normalization_enforced(self):
        e = bit_flip(0.3)
        inner = coherent_superposition(e, None, e, None)
        with pytest.raises(ValueError, match="norm"):
            coherent_superposition(inner, np.full(4, 0.9), inner, None)

    def test_hybrid_nest_outside_the_six_configurations(self):
        # A switch between a path superposition and a switch: no
        # configuration token names it, but the combinators compose it.
        c = depolarizing(0.3)
        amps = (0.5, 0.5, 0.5, 0.5)
        ch = switch(coherent_superposition(c, amps, c, amps), switch(c, c))
        assert ch.n_kraus == 256
        assert completeness_defect(ch) <= 1e-10
        fixed = fix_control(ch)
        assert fixed.d_in == 2
        assert fixed.output_dims == (2, 2, 2)
        assert completeness_defect(fixed) <= 1e-10


class TestBuildWork:
    """A build checks each distinct leaf once and the composed root once.

    Inner nodes are stacked Kraus arrays, not channels.
    """

    @pytest.mark.parametrize(
        ("kind", "family", "count"),
        [
            # One bit-flip leaf, then the root.
            (SupermapKind.SWITCH_OF_COH, Family.BIT_FLIP, 2),
            (SupermapKind.SWITCH, Family.DEPOLARIZING, 2),
            (SupermapKind.COH_OF_COH, Family.MIXED_ALTERNATING, 3),
            (SupermapKind.SWITCH_OF_SWITCH, Family.DEPOLARIZING, 2),
        ],
    )
    def test_channel_constructions(self, kind, family, count, monkeypatch):
        calls = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: calls.append(1) or init(ch))
        build_supermap(kind, family, 0.3)
        assert len(calls) == count

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_build_walks_its_tree_once(self, kind, monkeypatch):
        # Every walk of the tree unpacks its root once. The leaf count, the
        # vector count and the amplitude routing come from a plan folded once
        # per tree, so a build whose plan is cached walks the tree only for
        # its rules.
        walks = []

        class CountedRoot(tuple):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        monkeypatch.setitem(supermaps._TREES, kind, CountedRoot(supermaps._TREES[kind]))
        counts = []
        for _ in range(2):
            walks.clear()
            build_supermap(kind, Family.DEPOLARIZING, 0.3)
            counts.append(len(walks))
        assert counts[0] <= 2 and counts[1] == 1

    def test_public_rules_check_one_channel_each(self, monkeypatch):
        bf, pf = bit_flip(0.2), phase_flip(0.4)
        calls = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: calls.append(1) or init(ch))
        switch(bf, pf)
        coherent_superposition(bf, None, pf, None)
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", [SupermapKind.COH_OF_COH, SupermapKind.SWITCH_OF_SWITCH])
    def test_root_is_the_one_full_size_array(self, kind):
        # The 256-operator root is allocated once and adopted by its Channel;
        # the two blocks the root's rule computes are a quarter of it each. A
        # copy of the root or a full-size temporary in the completeness check
        # would lift the peak to twice the root or more.
        build_supermap(kind, Family.DEPOLARIZING, 0.3)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            root = build_supermap(kind, Family.DEPOLARIZING, 0.3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert root.n_kraus == 256
        assert peak <= 1.6 * root.kraus.nbytes

    def test_repeated_leaves_share_one_channel(self):
        bit, bit_again, phase, phase_again = family_channels(Family.MIXED_BLOCK, 0.3, 4)
        assert bit is bit_again and phase is phase_again
        assert bit.label == "bitflip(p=0.3)" and phase.label == "phaseflip(p=0.3)"


class TestFold:
    def test_superpositions_are_reached_in_post_order(self):
        # Children fold before their parent, first before second: the order
        # in which ``compose`` takes one amplitude vector per node.
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

    def test_nan_amplitudes_rejected_by_the_norm_check(self):
        with pytest.raises(ValueError, match="vacuum amplitudes have squared norm nan"):
            build_supermap(SupermapKind.COHERENT_SUP, Family.BIT_FLIP, 0.3, [float("nan"), 0])

    @pytest.mark.parametrize(
        ("kind", "family", "which", "vec", "message"),
        [
            (SupermapKind.COHERENT_SUP, Family.BIT_FLIP, "amps", [1.0],
             "expected 2 vacuum amplitudes (one per Kraus operator), got 1"),
            (SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, "amps", [1.0, 1.0, 0.0, 0.0],
             "vacuum amplitudes have squared norm 2.0, expected 1"),
            (SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, "amps", [np.nan, 0.0, 0.0, 0.0],
             "vacuum amplitudes have squared norm nan, expected 1"),
            (SupermapKind.SWITCH_OF_COH, Family.DEPOLARIZING, "amps", [1.0, 0.0],
             "expected 4 vacuum amplitudes (one per Kraus operator), got 2"),
            (SupermapKind.SWITCH_OF_COH, Family.BIT_FLIP, "amps", [1.0, 1.0],
             "vacuum amplitudes have squared norm 2.0, expected 1"),
            (SupermapKind.SWITCH_OF_COH, Family.MIXED_BLOCK, "amps", [0.0, np.nan],
             "vacuum amplitudes have squared norm nan, expected 1"),
            # The superposition of switches reads one amplitude per switch Kraus pair.
            (SupermapKind.COH_OF_SWITCH, Family.BIT_FLIP, "amps", [1.0, 0.0],
             "expected 4 vacuum amplitudes (one per Kraus operator), got 2"),
            (SupermapKind.COH_OF_SWITCH, Family.BIT_FLIP, "amps", [1.0, 1.0, 0.0, 0.0],
             "vacuum amplitudes have squared norm 2.0, expected 1"),
            (SupermapKind.COH_OF_SWITCH, Family.PHASE_FLIP, "amps", [np.nan, 0.0, 0.0, 0.0],
             "vacuum amplitudes have squared norm nan, expected 1"),
            # The outer superposition of ``coc``, given its vector through ``compose``.
            (SupermapKind.COH_OF_COH, Family.DEPOLARIZING, "outer", [1.0, 0.0, 0.0, 0.0],
             "expected 16 vacuum amplitudes (one per Kraus operator), got 4"),
            (SupermapKind.COH_OF_COH, Family.BIT_FLIP, "outer", [1.0, 1.0, 0.0, 0.0],
             "vacuum amplitudes have squared norm 2.0, expected 1"),
            (SupermapKind.COH_OF_COH, Family.MIXED_ALTERNATING, "outer", [np.nan, 0, 0, 0],
             "vacuum amplitudes have squared norm nan, expected 1"),
        ],
    )
    def test_invalid_amplitudes_rejected_by_the_superposition_rule(
        self, kind, family, which, vec, message
    ):
        with pytest.raises(ValueError) as info:
            if which == "amps":
                build_supermap(kind, family, 0.3, vec)
            else:
                compose(kind, family_channels(family, 0.3, 4), [None, None, vec])
        assert str(info.value) == message


class TestComposeCounts:
    """``compose`` takes exactly one channel per leaf and one vector per
    superposition, and rejects any other count before building a channel."""

    @pytest.fixture
    def rejected(self, monkeypatch):
        """``compose``'s error message, asserting that it checked no channel."""
        calls = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: calls.append(1) or init(ch))

        def run(kind, channels, node_amps):
            before = len(calls)
            with pytest.raises(ValueError) as info:
                compose(kind, channels, node_amps)
            assert len(calls) == before
            return str(info.value)

        return run

    def test_counts_follow_the_tree_in_trees(self, monkeypatch):
        # The counts are cached per tree, not per kind: another tree put in
        # ``_TREES`` is counted afresh.
        kind = SupermapKind.SWITCH
        channels = family_channels(Family.BIT_FLIP, 0.3, 4)
        assert kind.n_channels == 2
        monkeypatch.setitem(supermaps._TREES, kind, ("coh", ("switch", 0, 1), ("switch", 2, 3)))
        assert kind.n_channels == 4
        ch = compose(kind, channels, [None])
        assert ch.n_kraus == 16 and ch.input_dims == (2, 2, 2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wrong_channel_count_rejected(self, kind, rejected):
        n, nodes = kind.n_channels, ROUTES[kind](None)
        for count in (n - 1, n + 1):
            channels = family_channels(Family.BIT_FLIP, 0.3, count)
            assert rejected(kind, channels, nodes) == (
                f"{kind.token} takes {n} channels and {len(nodes)} vacuum-amplitude vectors "
                f"(one per superposition), got {count} and {len(nodes)}"
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_wrong_vector_count_rejected(self, kind, rejected):
        n, nodes = kind.n_channels, ROUTES[kind](None)
        channels = family_channels(Family.BIT_FLIP, 0.3, n)
        for given in [g for g in (len(nodes) - 1, len(nodes) + 1) if g >= 0]:
            assert rejected(kind, channels, [None] * given) == (
                f"{kind.token} takes {n} channels and {len(nodes)} vacuum-amplitude vectors "
                f"(one per superposition), got {n} and {given}"
            )

    @pytest.mark.parametrize(
        ("kind", "count", "node_amps", "message"),
        [
            (SupermapKind.SWITCH_OF_SWITCH, 2, [], "sos takes 4 channels and 0 "
             "vacuum-amplitude vectors (one per superposition), got 2 and 0"),
            (SupermapKind.COHERENT_SUP, 2, [], "cohsup takes 2 channels and 1 "
             "vacuum-amplitude vectors (one per superposition), got 2 and 0"),
            (SupermapKind.COHERENT_SUP, 2, [None, [0.6, 0.8, 0.0]], "cohsup takes 2 channels "
             "and 1 vacuum-amplitude vectors (one per superposition), got 2 and 2"),
            (SupermapKind.SWITCH, 4, [[1, 2, 3]], "switch takes 2 channels and 0 "
             "vacuum-amplitude vectors (one per superposition), got 4 and 1"),
        ],
        ids=["sos_two_channels", "cohsup_no_vector", "cohsup_two_vectors", "switch_four_channels"],
    )
    def test_counts_checked_before_the_rules(self, kind, count, node_amps, message, rejected):
        # Unchecked, these fail inside the fold (IndexError, a bare
        # StopIteration) or build a channel from part of their input.
        channels = family_channels(Family.BIT_FLIP, 0.3, count)
        assert rejected(kind, channels, node_amps) == message

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: leaf_models(Family.BIT_FLIP, 2.0),
             "bitflip needs a multiple of 1 channels, got 2.0"),
            (lambda: leaf_models(Family.BIT_FLIP, "4"),
             "bitflip needs a multiple of 1 channels, got '4'"),
            (lambda: family_channels(Family.MIXED_ALTERNATING, 0.3, 4.0),
             "mixed_alt needs a multiple of 2 channels, got 4.0"),
            (lambda: family_channels(Family.MIXED_ALTERNATING, 0.3, np.int64(3)),
             "mixed_alt needs a multiple of 2 channels, got 3"),
            (lambda: concentrated_amplitudes(0),
             "vacuum amplitudes need at least one entry, got 0"),
        ],
        ids=[
            "float_count", "string_count", "float_family_count", "numpy_odd_count", "empty_vector"
        ],
    )
    def test_bad_counts_raise_value_error(self, call, message):
        # A float or string count once failed with a TypeError from ``*`` or
        # ``<``, and a zero-length default vector with an IndexError.
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestComposeEquivalence:
    """``build_supermap`` folds the same rules as the public ``switch`` and
    ``coherent_superposition``, with one checked channel at the root."""

    @staticmethod
    def _assert_same(built, reference):
        assert np.array_equal(built.kraus, reference.kraus)
        assert built.label == reference.label
        assert (built.input_dims, built.output_dims) == (
            reference.input_dims, reference.output_dims
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_default_amplitudes(self, kind):
        for family in eligible_families(kind):
            for p in (0.0, 0.3, 1.0):
                self._assert_same(
                    build_supermap(kind, family, p),
                    reference_build(kind, family, p, ROUTES[kind](None)),
                )

    @pytest.mark.parametrize("kind", SUPERPOSING_KINDS)
    def test_drawn_complex_amplitudes(self, kind):
        rng = np.random.default_rng(43)
        for family in eligible_families(kind):
            n = 4 if family is Family.DEPOLARIZING else 2
            for p in (0.0, 0.3, 1.0):
                node_amps = drawn_node_amps(rng, kind, n)
                chans = family_channels(family, p, kind.n_channels)
                self._assert_same(
                    compose(kind, chans, node_amps),
                    reference_build(kind, family, p, node_amps),
                )

    @pytest.mark.parametrize("kind", SUPERPOSING_KINDS)
    def test_build_supermap_routes_amps_as_documented(self, kind):
        # ``amps`` reaches every superposition with none below it; a
        # superposition above another keeps the concentrated default.
        rng = np.random.default_rng(2404)
        for family in eligible_families(kind):
            n = 4 if family is Family.DEPOLARIZING else 2
            for p in (0.0, 0.3, 0.77, 1.0):
                a = random_unit_vector(rng, n * n if kind is SupermapKind.COH_OF_SWITCH else n)
                chans = family_channels(family, p, kind.n_channels)
                self._assert_same(
                    build_supermap(kind, family, p, a), compose(kind, chans, ROUTES[kind](a))
                )

    @settings(derandomize=True, deadline=None)
    @given(
        n1=st.integers(1, 16),
        n2=st.integers(1, 16),
        d=st.sampled_from([2, 4, 8]),
        data=st.data(),
    )
    def test_switch_kernel_matches_pairwise_products(self, n1, n2, d, data):
        # One matrix product per order gives the pairwise products of the
        # broadcast reference. With this BLAS they agree bit for bit for d = 4
        # and 8; 2 x 2 products may round differently, so the bound is 1e-15.
        parts = [
            data.draw(arrays(np.float64, (2, n, d, d), elements=st.floats(-1, 1)))
            for n in (n1, n2)
        ]
        k, l = (part[0] + 1j * part[1] for part in parts)
        out = supermaps._switch_kraus(k, l).reshape(n1, n2, 2 * d, 2 * d)
        assert_allclose(out[..., :d, :d], l[None] @ k[:, None], rtol=0, atol=1e-15)
        assert_allclose(out[..., d:, d:], k[:, None] @ l[None], rtol=0, atol=1e-15)
        assert not out[..., :d, d:].any() and not out[..., d:, :d].any()


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

    @settings(derandomize=True, deadline=None)
    @given(
        case=st.sampled_from([(k, f) for k in ALL_KINDS for f in eligible_families(k)]),
        p=st.floats(0, 1),
        parts=arrays(np.float64, (2, 4), elements=st.floats(-1, 1)),
    )
    def test_any_pure_control_equals_joint_application(self, case, p, parts):
        raw = build_supermap(*case, p)
        d_control = raw.d_in // 2
        c = parts[0, :d_control] + 1j * parts[1, :d_control]
        assume(np.linalg.norm(c) > 1e-3)
        c = c / np.linalg.norm(c)
        rho = random_density(np.random.default_rng(5), 2)
        joint = np.kron(np.outer(c, c.conj()), rho)
        assert_allclose(apply(fix_control(raw, c), rho), apply(raw, joint), rtol=0, atol=1e-12)

    def test_default_control_is_uniform_for_any_control_dimension(self):
        # Three channels in the cyclic orders abc, bca and cab, chosen by a qutrit
        # control; its default is the uniform ket 3 ** -0.5 (1, 1, 1).
        rng = np.random.default_rng(6)
        a, b, c = (random_channel(rng, 2, 2, n) for n in (2, 2, 3))
        kraus = [
            direct_sum(direct_sum(kc @ kb @ ka, ka @ kc @ kb), kb @ ka @ kc)
            for ka in a.kraus
            for kb in b.kraus
            for kc in c.kraus
        ]
        ch = Channel(kraus, (3, 2), (3, 2))
        fixed = fix_control(ch)
        assert (fixed.input_dims, fixed.output_dims) == ((2,), (3, 2))
        assert completeness_defect(fixed) <= 1e-10
        uniform = np.full(3, 3**-0.5)
        rho = random_density(rng, 2)
        joint = np.kron(np.outer(uniform, uniform), rho)
        assert_allclose(apply(fixed, rho), apply(ch, joint), rtol=0, atol=1e-12)
        orders = [(a, b, c), (b, c, a), (c, a, b)]
        sequential = [apply(z, apply(y, apply(x, rho))) for x, y, z in orders]
        marginal = partial_trace(apply(fixed, rho), (3, 2), keep=[1])
        assert_allclose(marginal, sum(sequential) / 3, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        ("kind", "family", "compressed"),
        [
            (SupermapKind.SWITCH, Family.BIT_FLIP, False),
            (SupermapKind.SWITCH_OF_COH, Family.MIXED_ALTERNATING, False),
            (SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, True),
            (SupermapKind.COH_OF_COH, Family.DEPOLARIZING, True),
        ],
    )
    def test_default_control_is_the_uniform_ket_bit_for_bit(self, kind, family, compressed):
        root = build_supermap(kind, family, 0.3)
        d_control = root.d_in // 2
        default = fix_control(root)
        explicit = fix_control(root, np.full(d_control, d_control**-0.5))
        assert (root.n_kraus > default.n_kraus) == compressed
        assert default.kraus.tobytes() == explicit.kraus.tobytes()
        for fixed in (default, explicit):
            assert fixed.kraus.base is None and not fixed.kraus.flags.writeable

    def test_fixed_operators_are_adopted(self, monkeypatch):
        root = build_supermap(SupermapKind.SWITCH, Family.BIT_FLIP, 0.3)
        handed = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: handed.append(ch.kraus) or init(ch))
        fixed = fix_control(root)
        assert len(handed) == 1 and fixed.kraus is handed[0]

    def test_shared_embedding_cannot_be_made_writable(self):
        root = build_supermap(SupermapKind.SWITCH_OF_SWITCH, Family.BIT_FLIP, 0.3)
        before = fix_control(root)
        with pytest.raises(ValueError):
            supermaps._uniform_embedding(4, 2).setflags(write=True)
        assert fix_control(root).kraus.tobytes() == before.kraus.tobytes()

    def test_mixed_control_rejected(self):
        ch = switch(bit_flip(0.2), bit_flip(0.2))
        with pytest.raises(ValueError, match=r"expected 2 control amplitudes, got shape \(2, 2\)"):
            fix_control(ch, np.eye(2) / 2)

    @pytest.mark.parametrize(
        "control,reason",
        [
            ([[0.5, 5], [0.5, 0.5]], "got shape (2, 2)"),
            ([[1.0, 0.0], [0.0, 1.0]], "got shape (2, 2)"),
            ([[1.5, 0.0], [0.0, -0.5]], "got shape (2, 2)"),
            ([[np.nan, 0.0], [0.0, 1.0]], "got shape (2, 2)"),
            ([1.0, 1.0], "squared norm 2.0"),
            ([np.nan, 0.0], "squared norm nan"),
            ([np.inf, 0.0], "squared norm inf"),
        ],
    )
    def test_invalid_control_rejected(self, control, reason):
        # A control is a ket; matrices, valid density matrices or not, are refused.
        ch = switch(bit_flip(0.3), bit_flip(0.3))
        with pytest.raises(ValueError, match=f"control amplitudes.*{re.escape(reason)}"):
            fix_control(ch, control)

    def test_control_shape_checked_first(self):
        ch = switch(bit_flip(0.3), bit_flip(0.3))
        with pytest.raises(ValueError, match=r"expected 2 control amplitudes, got shape \(4, 4\)"):
            fix_control(ch, np.eye(4) / 4)
        with pytest.raises(ValueError, match="expected 2 control amplitudes, got 4"):
            fix_control(ch, np.full(4, 0.5))

    def test_plain_channel_rejected(self):
        with pytest.raises(ValueError, match="control"):
            fix_control(bit_flip(0.2))

    @settings(derandomize=True, deadline=None)
    @given(case=channel_pairs_and_states())
    def test_compressed_matches_uncompressed(self, case):
        ((e1, alpha), (e2, beta)), rho = case
        for composed in (switch(e1, e2), coherent_superposition(e1, alpha, e2, beta)):
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
        # Control |0> runs first-argument-first; |1> reverses it.
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
