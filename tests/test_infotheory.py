import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import (
    channel_pairs_and_states,
    eligible_families,
    projector,
    random_channel,
    random_density,
    random_unit_vector,
    reference_bfgs,
    stinespring_marginals,
    uncompressed_fixed,
)
from switchcap import infotheory, qmatrix
from switchcap.channels import (
    Channel,
    apply,
    bit_flip,
    complementary_output,
    depolarizing,
    identity_channel,
    phase_flip,
)
from switchcap.supermaps import Family, build_fixed, build_supermap
from switchcap.infotheory import (
    CapacityResult,
    Ensemble,
    OptimizerConfig,
    classical_capacity,
    coherent_information,
    exchange_entropy,
    holevo_information,
    quantum_capacity,
    target_marginal,
)
from switchcap.oracle import CapacityType, ClosedFormId, closed_form
from switchcap.qmatrix import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    assert_density_matrix,
    von_neumann_entropy,
)
from switchcap.supermaps import SupermapKind, coherent_superposition, fix_control, switch

ZERO = np.array([1, 0], dtype=complex)
ONE = np.array([0, 1], dtype=complex)
KET0 = projector(ZERO)
KET1 = projector(ONE)

FAST = OptimizerConfig(restarts=4, seed=99)

ALL_KINDS = list(SupermapKind)


def binary_holevo(ch, w):
    """Holevo information of ``{(w, |0>), (1-w, |1>)}`` on the target marginal."""
    m0 = target_marginal(ch, KET0)
    m1 = target_marginal(ch, KET1)
    return von_neumann_entropy(w * m0 + (1 - w) * m1) - (
        w * von_neumann_entropy(m0) + (1 - w) * von_neumann_entropy(m1)
    )


@st.composite
def channels_and_states(draw):
    """A random channel with its input state.

    Dimensions may be rectangular; the Kraus count falls on either side of
    ``d_out * d_in`` (so both Gram sides of the environment entropy are
    used), and the state is pure when its drawn rank is 1.
    """
    d_in = draw(st.integers(1, 3))
    d_out = draw(st.integers(1, 4))
    side = d_out * d_in
    if draw(st.booleans()):
        n = draw(st.integers(side + 1, 2 * side + 1))
    else:
        n = draw(st.integers(-(-d_in // d_out), side))
    rank = draw(st.integers(1, d_in))
    entries = st.floats(-1, 1)
    k = draw(arrays(np.float64, (2, n * d_out, d_in), elements=entries))
    g = draw(arrays(np.float64, (2, d_in, rank), elements=entries))
    isometry, _ = np.linalg.qr(k[0] + 1j * k[1])
    ch = Channel(tuple(isometry.reshape(n, d_out, d_in)), (d_in,), (d_out,))
    g = g[0] + 1j * g[1]
    assume(np.linalg.norm(g) > 1e-3)
    rho = g @ g.conj().T
    return ch, rho / np.trace(rho)


def drawn_amplitude_channel():
    """``cohsup``/depolarizing with complex amplitudes drawn by one benchmark seed.

    It is not Pauli-covariant, so the gradient does not vanish at the
    maximally mixed input, and its capacity is positive.
    """
    amps = (
        0.1621623459504823 + 0.2704143068404502j,
        -0.14280486585289207 - 0.21152106976220741j,
        0.04481940132427893 - 0.4908108226938635j,
        -0.19019283402229487 + 0.7459006147103633j,
    )
    return build_fixed(
        SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.20091807621373647, amps
    )


def entropy_and_gradient_by_rows(maps, r):
    """Reference for ``infotheory._entropy_and_gradient``: each row reduced alone.

    The state is assembled as the stacked pass assembles it, ``maps[0]`` plus
    the product of the row with the real view of the flattened slopes, so
    both see the same spectrum: a sum in another order can put an eigenvalue
    of a pure row on the other side of the floor. The entropy and
    ``-Tr(maps[i+1] log2 rho)`` are then sums over the eigenpairs kept above
    the floor.
    """
    values, grads = [], []
    flat = maps.reshape(len(maps), -1)
    for x in r:
        state = flat[0] + (x @ flat[1:].view(np.float64)).view(np.complex128)
        eigvals, eigvecs = np.linalg.eigh(state.reshape(maps.shape[1:]))
        keep = eigvals > infotheory._SPECTRUM_FLOOR
        weights, vecs = eigvals[keep], eigvecs[:, keep]
        logs = np.log2(weights)
        slopes = np.einsum("ik,nik->nk", vecs.conj(), maps[1:] @ vecs).real
        values.append(-weights @ logs)
        grads.append(-(slopes @ logs))
    return np.array(values), np.array(grads)


def amplitude_damping(g):
    kraus = (
        np.array([[1, 0], [0, np.sqrt(1 - g)]]),
        np.array([[0, np.sqrt(g)], [0, 0]]),
    )
    return Channel(kraus, (2,), (2,), label=f"amplitude_damping({g:g})")


def reset_to_zero(seed=None):
    """The channel ``rho -> |0><0|``; with a ``seed``, its Kraus pair mixed by a drawn unitary.

    Both target marginals are ``|0><0|``. Mixed operators make them differ by
    rounding, which leaves ``u . du`` nonzero where ``M(1/2)`` has a zero eigenvalue.
    """
    kraus = np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], dtype=complex)
    if seed is not None:
        rng = np.random.default_rng(seed)
        unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        kraus = np.tensordot(unitary, kraus, axes=1)
    return Channel(kraus, (2,), (2,))


class TestEnsemble:
    def test_computational_helper(self):
        ens = Ensemble.computational(0.25)
        probs = [p for p, _ in ens.entries]
        assert_allclose(probs, [0.25, 0.75])

    def test_rejects_unnormalized_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.6, ZERO), (0.6, ONE)))

    def test_rejects_nan_probabilities(self):
        with pytest.raises(ValueError, match="negative ensemble probability nan"):
            Ensemble.computational(float("nan"))
        with pytest.raises(ValueError, match="negative ensemble probability nan"):
            Ensemble(((float("nan"), ZERO), (0.5, ONE)))

    def test_rejects_mixed_states(self):
        # A density matrix, pure or not, is not a ket.
        shape = r"expected 2 ensemble state amplitudes, got shape \(2, 2\)"
        for rho in (np.eye(2) / 2, KET0):
            with pytest.raises(ValueError, match=shape):
                Ensemble(((1.0, rho),))
        with pytest.raises(ValueError, match="ensemble state amplitudes have squared norm 2.0"):
            Ensemble(((1.0, (1.0, 1.0)),))

    def test_rejects_non_finite_states(self):
        with pytest.raises(ValueError, match="squared norm nan"):
            Ensemble(((1.0, np.array([1.0, np.nan])),))
        with pytest.raises(ValueError, match="squared norm inf"):
            Ensemble(((1.0, np.array([np.inf, 0.0])),))

    def test_kets_share_one_length(self):
        with pytest.raises(ValueError, match="expected 2 ensemble state amplitudes, got 3"):
            Ensemble(((0.5, ZERO), (0.5, (0.0, 0.0, 1.0))))

    def test_each_state_is_coerced_and_scanned_once(self, monkeypatch):
        calls = []
        check = qmatrix.unit_vector
        counted = lambda *args: calls.append(1) or check(*args)  # noqa: E731
        monkeypatch.setattr(infotheory, "unit_vector", counted)
        Ensemble(((0.3, ZERO), (0.7, ONE)))
        assert len(calls) == 2

    def test_computational_kets_are_checked_once(self, monkeypatch):
        # Every computational ensemble shares the two basis kets checked at
        # import; a basis ket in an ensemble of another dimension is checked.
        first = Ensemble.computational(0.3)
        calls = []
        check = qmatrix.unit_vector
        counted = lambda *args: calls.append(1) or check(*args)  # noqa: E731
        monkeypatch.setattr(infotheory, "unit_vector", counted)
        second = Ensemble.computational(0.6)
        assert calls == []
        for (_, ket), (_, again) in zip(first.entries, second.entries, strict=True):
            assert ket is again
        with pytest.raises(ValueError, match="expected 3 ensemble state amplitudes, got 2"):
            Ensemble(((0.5, (0.0, 0.0, 1.0)), (0.5, first.entries[0][1])))
        assert len(calls) == 2

    def test_computational_checks_only_the_weight(self):
        ens = Ensemble.computational(0.3)
        reference = Ensemble(((0.3, ZERO), (0.7, ONE)))
        for (p, ket), (q, ref) in zip(ens.entries, reference.entries, strict=True):
            assert p == q
            assert np.array_equal(ket, ref)
            assert not ket.flags.writeable
        for weight, bad in [(-0.5, -0.5), (1.5, 1.0 - 1.5)]:
            with pytest.raises(ValueError, match=f"negative ensemble probability {bad}"):
                Ensemble.computational(weight)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        for tolerance in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be"):
                OptimizerConfig(tolerance=tolerance)
        with pytest.raises(ValueError, match="seed must be"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize(
        "field,value", [("restarts", 2.5), ("restarts", 3.0), ("seed", 1.5), ("seed", "7")]
    )
    def test_non_integers_rejected(self, field, value):
        # Rejected at construction, not as a TypeError inside quantum_capacity.
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
            OptimizerConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = OptimizerConfig(restarts=np.int64(2), seed=np.uint32(5))
        assert quantum_capacity(identity_channel(), cfg).evaluations > 0

    @pytest.mark.parametrize("value", [None, "tight", "", 1j, [1e-6], "nan", "-1e-6"])
    def test_tolerance_that_is_no_positive_number_rejected(self, value):
        # Rejected with the text of the range rule, not a comparison TypeError.
        with pytest.raises(ValueError, match=r"^tolerance must be finite and positive$"):
            OptimizerConfig(tolerance=value)

    @pytest.mark.parametrize("value", ["1e-3", " 0.001 ", np.float32(0.5), 2])
    def test_tolerance_is_stored_as_the_float_it_converts_to(self, value):
        # Numeric strings are accepted, as ``qmatrix.probability`` accepts them.
        cfg = OptimizerConfig(tolerance=value)
        assert type(cfg.tolerance) is float
        assert cfg.tolerance == float(value)
        assert cfg == OptimizerConfig(tolerance=float(value))


class TestHolevoInformation:
    def test_identity_with_orthogonal_ensemble(self):
        chi = holevo_information(identity_channel(), Ensemble.computational())
        assert chi == pytest.approx(1.0, abs=1e-12)

    def test_single_state_ensemble_is_zero(self):
        ens = Ensemble(((1.0, ZERO),))
        assert holevo_information(bit_flip(0.3), ens) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_phase_flip_switch_carries_one_bit(self, p):
        fixed = fix_control(switch(phase_flip(p), phase_flip(p)))
        chi = holevo_information(fixed, Ensemble.computational())
        assert chi == pytest.approx(1.0, abs=1e-12)

    def test_post_processing_cannot_raise_it(self):
        # Data processing: chi(N o E) <= chi(E) for any channels E and N.
        rng = np.random.default_rng(13)
        for _ in range(40):
            d_mid = int(rng.integers(1, 4))
            # At least d_in / d_out operators, or no isometry exists.
            e = random_channel(rng, 2, d_mid, int(rng.integers(-(-2 // d_mid), 5)))
            n = random_channel(rng, d_mid, 2, int(rng.integers(-(-d_mid // 2), 5)))
            composed = Channel(
                tuple(b @ a for a in e.kraus for b in n.kraus), (2,), (2,)
            )
            ens = Ensemble.computational(rng.uniform())
            chi_e = holevo_information(e, ens)
            assert holevo_information(composed, ens) <= chi_e + 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ch = depolarizing(rng.uniform(0, 1))
            states = [random_unit_vector(rng, 2) for _ in range(3)]
            probs = rng.dirichlet(np.ones(3))
            ens = Ensemble(tuple(zip(probs, states)))
            chi = holevo_information(ch, ens)
            assert -1e-12 <= chi <= min(np.log2(ch.d_out), np.log2(3)) + 1e-12


class TestComplementaryOutput:
    def test_identity_single_kraus(self):
        w = complementary_output(identity_channel(), np.eye(2) / 2)
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(1.0)

    def test_bit_flip_on_maximally_mixed(self):
        # Off-diagonal W entries vanish because Tr(sigma_x) = 0.
        p = 0.3
        w = complementary_output(bit_flip(p), np.eye(2) / 2)
        assert_allclose(w, np.diag([1 - p, p]), atol=1e-14)

    def test_trace_one_for_catalog(self):
        rng = np.random.default_rng(21)
        for make in (bit_flip, phase_flip, depolarizing):
            for _ in range(25):
                w = complementary_output(make(rng.uniform(0, 1)), random_density(rng, 2))
                assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)

    def test_valid_density_for_composed_channels(self):
        rng = np.random.default_rng(22)
        for kind in ALL_KINDS:
            for p in (0.0, 0.4, 0.8):
                fixed = build_fixed(kind, Family.DEPOLARIZING, p)
                w = complementary_output(fixed, random_density(rng, 2))
                assert_density_matrix(w)

    def test_exchange_entropy_matches_full_environment_state(self):
        # Reference: the environment marginal of the Stinespring state.
        rng = np.random.default_rng(23)
        for kind in (SupermapKind.SWITCH, SupermapKind.COH_OF_COH):
            fixed = build_fixed(kind, Family.DEPOLARIZING, 0.45)
            rho = random_density(rng, 2)
            _, env = stinespring_marginals(fixed, rho)
            direct = von_neumann_entropy(env)
            assert exchange_entropy(fixed, rho) == pytest.approx(direct, abs=1e-9)


class TestCoherentInformation:
    def test_identity_on_maximally_mixed(self):
        assert coherent_information(identity_channel(), np.eye(2) / 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_identity_on_pure_state(self):
        assert coherent_information(identity_channel(), KET0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_can_be_negative(self):
        value = coherent_information(depolarizing(0.9), np.eye(2) / 2)
        assert value < 0.0

    @settings(derandomize=True, deadline=None)
    @given(case=channels_and_states())
    def test_random_channel_matches_reference_entropies(self, case):
        ch, rho = case
        out, env = stinespring_marginals(ch, rho)
        assert_allclose(complementary_output(ch, rho), env, rtol=0, atol=1e-12)
        s_env = von_neumann_entropy(env)
        reference = von_neumann_entropy(out) - s_env
        assert exchange_entropy(ch, rho) == pytest.approx(s_env, abs=1e-9)
        assert coherent_information(ch, rho) == pytest.approx(reference, abs=1e-9)
        # A pure input leaves output and environment in a pure joint state,
        # so S(B) = S(E).
        if np.linalg.matrix_rank(rho, hermitian=True) == 1:
            assert coherent_information(ch, rho) == pytest.approx(0.0, abs=1e-12)


class TestClassicalCapacity:
    def test_identity(self):
        res = classical_capacity(identity_channel())
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_coherent_superposition_bit_flip_half(self):
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.BIT_FLIP, 0.5)
        res = classical_capacity(fixed)
        assert res.value == pytest.approx(0.0, abs=1e-3)
        assert not np.signbit(res.value)

    def test_switch_of_fully_depolarizing(self):
        # The composed switch keeps a small but strictly positive capacity
        # even when each constituent is at full noise.
        reference = closed_form(
            ClosedFormId(SupermapKind.SWITCH, Family.DEPOLARIZING, CapacityType.CLASSICAL),
            1.0,
        )
        assert reference > 0.0
        fixed = build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 1.0)
        res = classical_capacity(fixed)
        assert res.value == pytest.approx(reference, abs=1e-6)

    def test_requires_qubit_input(self):
        with pytest.raises(ValueError, match="qubit"):
            classical_capacity(identity_channel(4))

    def test_requires_qubit_target(self):
        embedding = np.eye(3, 2)
        with pytest.raises(ValueError, match="qubit target"):
            classical_capacity(Channel((embedding,), (2,), (3,)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: amplitude_damping(0.7),
            lambda: fix_control(switch(amplitude_damping(0.3), amplitude_damping(0.6))),
            lambda: fix_control(
                coherent_superposition(amplitude_damping(0.3), None, amplitude_damping(0.6), None)
            ),
        ],
        ids=["amplitude_damping", "switch", "cohsup"],
    )
    def test_eigensolver_calls_do_not_grow_with_evaluations(self, make, monkeypatch):
        # The entropies of the target marginals, the objective and its
        # derivatives are closed-form arithmetic; see test_no_eigensolver_call.
        ch = make()
        calls = []
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg,
                name,
                lambda *a, _solver=solver, **k: calls.append(1) or _solver(*a, **k),
            )
        res = classical_capacity(ch)
        assert res.evaluations > 4
        assert len(calls) <= 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_fixed(SupermapKind.COH_OF_COH, Family.MIXED_ALTERNATING, 0.3),
            lambda: build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 0.6),
            lambda: amplitude_damping(0.7),
        ],
        ids=["coc_mixed_alt", "switch_depolarizing", "amplitude_damping"],
    )
    def test_no_eigensolver_call(self, make, monkeypatch):
        ch = make()
        reference = classical_capacity(ch)

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called on the classical path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        res = classical_capacity(ch)
        assert res.converged
        assert (res.raw_value, res.evaluations) == (reference.raw_value, reference.evaluations)

    @pytest.mark.parametrize("g", [0.05, 0.3, 0.7, 0.95])
    def test_off_half_optimum_takes_few_evaluations(self, g):
        # The Newton step on the exact curvature; bisection alone took 20-29.
        res = classical_capacity(amplitude_damping(g))
        assert res.converged
        assert res.evaluations <= 7

    def test_dominates_uniform_signaling(self):
        for kind in ALL_KINDS:
            fixed = build_fixed(kind, Family.MIXED_ALTERNATING, 0.3)
            res = classical_capacity(fixed)
            assert res.value >= binary_holevo(fixed, 0.5) - 1e-9

    @pytest.mark.parametrize("g", [0.1, 0.5, 0.9])
    def test_amplitude_damping_optimum_away_from_half(self, g):
        # Amplitude damping read in the computational basis is the
        # Z-channel, whose optimal prior is not uniform.
        res = classical_capacity(amplitude_damping(g))
        expected = np.log2(1 + (1 - g) * g ** (g / (1 - g)))
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert res.converged
        weight = res.argmax.entries[0][0]
        assert abs(weight - 0.5) >= 0.03

    def test_converged_is_a_certificate(self, monkeypatch):
        # chi is concave, so |chi'(w)| <= 1e-8 bounds the gap to the maximum.
        ch = amplitude_damping(0.5)
        with monkeypatch.context() as patch:
            patch.setattr(infotheory, "_MAX_ITERATIONS", 1)
            assert not classical_capacity(ch).converged
        res = classical_capacity(ch)
        assert res.converged
        _, derivatives = infotheory._holevo_objective(ch)
        assert abs(derivatives(res.argmax.entries[0][0])[0]) <= 1e-8

    @pytest.mark.parametrize(
        "make,expected",
        [
            (reset_to_zero, 0.0),
            (lambda: reset_to_zero(seed=0), 0.0),
            (lambda: depolarizing(0.75), 0.0),
            (lambda: bit_flip(0.0), 1.0),
        ],
        ids=["reset", "reset_mixed_kraus", "depolarizing_075", "bitflip_0"],
    )
    def test_degenerate_slopes_stay_finite(self, make, expected):
        # u . du = 0 (m0 = m1, or M(1/2) maximally mixed) or lambda- <= 0
        # (m0 = m1 pure up to rounding): the slope is s1 - s0, never NaN.
        res = classical_capacity(make())
        assert math.isfinite(res.raw_value)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.converged

    @settings(derandomize=True, deadline=None)
    @given(
        parts=arrays(np.float64, (2, 8, 2), elements=st.floats(-1, 1)),
        w=st.floats(0, 1),
    )
    def test_random_channel_bounds_and_optimality(self, parts, w):
        isometry, _ = np.linalg.qr(parts[0] + 1j * parts[1])
        ch = Channel(tuple(isometry.reshape(4, 2, 2)), (2,), (2,))
        res = classical_capacity(ch)
        assert 0.0 <= res.value <= 1.0
        # Drawn weights cluster at 0, so a fixed grid keeps the optimality
        # check sharp when the optimum sits away from w = 1/2.
        for weight in (w, *np.linspace(0, 1, 41)):
            assert res.value >= binary_holevo(ch, weight) - 1e-12


def _target_channel(ch):
    """``ch`` followed by the partial trace onto its last output factor.

    Its Kraus operators are the blocks ``(<r| (x) I) K_a`` over the basis
    ``r`` of the traced factors.
    """
    blocks = ch.kraus.reshape(-1, ch.output_dims[-1], ch.d_in)
    return Channel(blocks, ch.input_dims, ch.output_dims[-1:])


class TestClosedFormObjective:
    """``_holevo_objective`` against ``holevo_information`` on the target marginal."""

    WEIGHTS = np.linspace(0, 1, 11)

    def _check(self, ch):
        holevo, _ = infotheory._holevo_objective(ch)
        target = _target_channel(ch)
        for w in self.WEIGHTS:
            reference = holevo_information(target, Ensemble.computational(w))
            assert holevo(w) == pytest.approx(reference, abs=1e-12)

    @staticmethod
    def _random_channel(parts, rest, n):
        rows = n * rest * 2
        isometry, _ = np.linalg.qr(parts[0, :rows] + 1j * parts[1, :rows])
        dims = (2,) if rest == 1 else (rest, 2)
        return Channel(isometry.reshape(n, rest * 2, 2), (2,), dims)

    @settings(derandomize=True, deadline=None)
    @given(
        parts=arrays(np.float64, (2, 24, 2), elements=st.floats(-1, 1)),
        rest=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 4),
    )
    def test_random_channels(self, parts, rest, n):
        self._check(self._random_channel(parts, rest, n))

    @settings(derandomize=True, deadline=None)
    @given(
        parts=arrays(np.float64, (2, 24, 2), elements=st.floats(-1, 1)),
        rest=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 4),
        w=st.floats(0.05, 0.95),
    )
    def test_slope_matches_central_differences(self, parts, rest, n, w):
        holevo, derivatives = infotheory._holevo_objective(self._random_channel(parts, rest, n))
        h = 1e-6
        central = (holevo(w + h) - holevo(w - h)) / (2 * h)
        assert derivatives(w)[0] == pytest.approx(central, abs=1e-6)

    @settings(derandomize=True, deadline=None)
    @given(
        parts=arrays(np.float64, (2, 24, 2), elements=st.floats(-1, 1)),
        rest=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 4),
        w=st.floats(0.05, 0.95),
    )
    def test_curvature_matches_central_differences(self, parts, rest, n, w):
        _, derivatives = infotheory._holevo_objective(self._random_channel(parts, rest, n))
        slope, curvature = derivatives(w)
        h = 1e-6
        central = (derivatives(w + h)[0] - derivatives(w - h)[0]) / (2 * h)
        assert curvature <= 0.0
        assert curvature == pytest.approx(central, rel=1e-5, abs=1e-5)

    @staticmethod
    def _rounded_unitary():
        """A unitary from QR, whose marginals at ``w = 1/2`` leave R = 1.4e-17, not 0."""
        isometry, _ = np.linalg.qr(np.ones((2, 2)) * (1 + 1j))
        return Channel(isometry.reshape(1, 2, 2), (2,), (2,))

    @pytest.mark.parametrize(
        "make",
        [identity_channel, lambda: bit_flip(0.0), lambda: phase_flip(0.4), _rounded_unitary],
        ids=["identity", "bitflip0", "phaseflip", "rounded_unitary"],
    )
    def test_curvature_where_the_mixture_is_maximally_mixed(self, make):
        # M(1/2) = I/2 puts R = 0, where chi'' takes its limit -2 |du|^2 / (ln 2 h):
        # -4 / ln 2 with orthogonal pure marginals, as the slope's central difference.
        # At R = 1.4e-17, L / R by log2 of the eigenvalue ratio read -6.68.
        _, derivatives = infotheory._holevo_objective(make())
        slope, curvature = derivatives(0.5)
        h = 1e-6
        central = (derivatives(0.5 + h)[0] - derivatives(0.5 - h)[0]) / (2 * h)
        assert abs(slope) <= 1e-15
        assert curvature == pytest.approx(-4 / math.log(2), rel=1e-12)
        assert curvature == pytest.approx(central, rel=1e-5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pure_marginals_at_zero_noise(self, kind):
        fixed = build_fixed(kind, Family.BIT_FLIP, 0.0)
        assert_allclose(target_marginal(fixed, KET0), KET0, atol=1e-12)
        self._check(fixed)

    def test_fully_mixed_marginals(self):
        ch = depolarizing(0.75)
        assert_allclose(target_marginal(ch, KET0), np.eye(2) / 2, atol=1e-15)
        self._check(ch)
        assert classical_capacity(ch).value == pytest.approx(0.0, abs=1e-12)


def _closed_form_entropy(m):
    """Entropy of a 2 x 2 target marginal as the classical solve takes it."""
    (a, _), (b, d) = m.tolist()
    return infotheory._qubit_entropy(a.real, d.real, b)


class TestQubitSpectrum:
    """The classical solve's marginals and their closed-form entropies ``s0``, ``s1``."""

    @settings(derandomize=True, deadline=None)
    @given(
        parts=arrays(np.float64, (2, 24, 2), elements=st.floats(-1, 1)),
        rest=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 4),
    )
    def test_target_marginals(self, parts, rest, n):
        ch = TestClosedFormObjective._random_channel(parts, rest, n)
        for ket in (KET0, KET1):
            m = target_marginal(ch, ket)
            assert _closed_form_entropy(m) == pytest.approx(von_neumann_entropy(m), abs=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(
        parts=arrays(np.float64, (2, 2, 2), elements=st.floats(-1, 1)),
        pure=st.booleans(),
    )
    def test_density_matrices(self, parts, pure):
        g = parts[0] + 1j * parts[1]
        if pure:
            g = g[:, :1]
        rho = g @ g.conj().T
        trace = np.trace(rho).real
        assume(trace > 1e-6)
        rho = rho / trace
        assert _closed_form_entropy(rho) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), d_out=st.sampled_from([2, 4, 8]))
    def test_contracted_marginals_are_hermitian_and_above_the_floor(self, seed, n, d_out):
        # The classical solve rechecks neither property of its two marginals:
        # every checked channel must give both, Hermiticity bit for bit.
        kraus = random_channel(np.random.default_rng(seed), 2, d_out, n).kraus
        ch = Channel(kraus, (2,), (2,) if d_out == 2 else (d_out // 2, 2))
        cols = ch.kraus.reshape(n, -1, 2, 2)  # the contraction of _holevo_objective
        marginals = np.einsum("arti,arui->itu", cols, cols.conj())
        for m, ket in zip(marginals, (KET0, KET1)):
            assert_allclose(m, target_marginal(ch, ket), atol=1e-12)
            assert np.array_equal(m, m.conj().T)
            assert np.linalg.eigvalsh(m).min() >= -1e-14


class TestQuantumCapacity:
    def test_identity(self):
        res = quantum_capacity(identity_channel(), FAST)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_rejects_a_non_qubit_input(self):
        with pytest.raises(ValueError, match=r"^quantum capacity requires a qubit input space$"):
            quantum_capacity(identity_channel(4))

    @pytest.mark.parametrize("p,expected", [(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)])
    def test_bit_flip_switch_endpoints(self, p, expected):
        fixed = build_fixed(SupermapKind.SWITCH, Family.BIT_FLIP, p)
        res = quantum_capacity(fixed, FAST)
        assert res.value == pytest.approx(expected, abs=1e-3)

    def test_noisy_channel_capacity_vanishes(self):
        # At high depolarizing noise the mixed-input coherent information
        # is strictly negative; the optimum retreats to the pure-state
        # boundary where it vanishes identically, so the reported
        # capacity is zero up to solver noise.
        fixed = build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 0.9)
        assert coherent_information(fixed, np.eye(2) / 2) < -0.1
        res = quantum_capacity(fixed, FAST)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.value >= 0.0
        assert res.value == max(res.raw_value, 0.0)

    @pytest.mark.parametrize(
        "kind,p", [(SupermapKind.COH_OF_SWITCH, 0.75), (SupermapKind.SWITCH, 1.0)]
    )
    def test_zero_optimum_is_positive_zero(self, kind, p):
        # The best objective is exactly 0 here; the capacity must be +0.0.
        res = quantum_capacity(build_fixed(kind, Family.DEPOLARIZING, p), FAST)
        assert res.value == 0.0
        assert not np.signbit(res.value)

    @pytest.mark.parametrize(
        "kind,p",
        [
            (SupermapKind.SWITCH_OF_SWITCH, 0.944),
            (SupermapKind.COH_OF_COH, 0.657),
            (SupermapKind.SWITCH, 1.0),
        ],
    )
    def test_zero_capacity_raw_value_is_exact_zero(self, kind, p):
        # The best run ends outside the ball, where the objective is exactly
        # 0, not rounding noise such as 4.4e-16.
        res = quantum_capacity(build_fixed(kind, Family.DEPOLARIZING, p))
        assert res.raw_value == 0.0
        assert not np.signbit(res.raw_value)

    def test_dominates_maximally_mixed_input(self):
        for kind in ALL_KINDS:
            fixed = build_fixed(kind, Family.BIT_FLIP, 0.2)
            res = quantum_capacity(fixed, FAST)
            assert res.value >= coherent_information(fixed, np.eye(2) / 2) - 1e-9


class TestOptimizerBehaviour:
    def test_restart_doubling_is_stable(self):
        for kind, family, p in [
            (SupermapKind.SWITCH, Family.BIT_FLIP, 0.15),
            (SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.35),
            (SupermapKind.SWITCH_OF_COH, Family.MIXED_ALTERNATING, 0.6),
        ]:
            fixed = build_fixed(kind, family, p)
            q_few = quantum_capacity(fixed, OptimizerConfig(restarts=4, seed=5))
            q_many = quantum_capacity(fixed, OptimizerConfig(restarts=8, seed=5))
            assert abs(q_few.value - q_many.value) <= 1e-6

    def test_deterministic_for_fixed_seed(self):
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.12)
        a = quantum_capacity(fixed, OptimizerConfig(restarts=5, seed=77))
        b = quantum_capacity(fixed, OptimizerConfig(restarts=5, seed=77))
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    def test_starts_are_drawn_once_per_configuration(self, monkeypatch):
        drawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed) or default_rng(seed))
        infotheory._starts.cache_clear()
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.12)
        cfg = OptimizerConfig(restarts=5, seed=77)
        first = quantum_capacity(fixed, cfg)
        for _ in range(3):
            again = quantum_capacity(fixed, cfg)
            assert (again.raw_value, again.evaluations) == (first.raw_value, first.evaluations)
        # The tolerance does not move the starts; the restart count does.
        quantum_capacity(fixed, OptimizerConfig(restarts=5, tolerance=1e-3, seed=77))
        assert drawn == [77]
        quantum_capacity(fixed, OptimizerConfig(restarts=6, seed=77))
        assert drawn == [77, 77]
        assert not infotheory._starts(77, 5).flags.writeable

    def test_shared_starts_cannot_be_made_writable(self):
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.12)
        cfg = OptimizerConfig(restarts=5, seed=77)
        first = quantum_capacity(fixed, cfg)
        with pytest.raises(ValueError):
            infotheory._starts(77, 5).setflags(write=True)
        again = quantum_capacity(fixed, cfg)
        assert (again.raw_value, again.evaluations) == (first.raw_value, first.evaluations)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_capacity_is_one(self, kind):
        fixed = build_fixed(kind, Family.DEPOLARIZING, 0.0)
        assert classical_capacity(fixed).value == pytest.approx(1.0, abs=1e-3)
        assert quantum_capacity(fixed, FAST).value == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_quantum_capacity_at_most_one_bit(self, kind):
        # A qubit input carries at most log2(2) = 1 bit; rounding put the
        # raw optimum a few ulp above it for the nested kinds.
        for family in eligible_families(kind):
            res = quantum_capacity(build_fixed(kind, family, 0.0))
            assert res.value <= 1.0, (family, res.raw_value)
            assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_quantum_converged_rule(self, monkeypatch):
        # One run reports the solver's own success; two or more report
        # whether the two best runs agree within the tolerance, whatever
        # the runs' own success.
        runs = []

        lockstep = infotheory._lockstep

        def recording_lockstep(*args):
            runs.extend(lockstep(*args))
            return runs

        monkeypatch.setattr(infotheory, "_lockstep", recording_lockstep)
        # The origin is not stationary here, so a single run is judged by
        # the solver alone (see test_stationary_start_is_not_a_converged_run).
        fixed = drawn_amplitude_channel()
        for cfg, max_iterations, converged in [
            (OptimizerConfig(restarts=1), 400, True),
            (OptimizerConfig(restarts=1), 1, False),
            (OptimizerConfig(restarts=3), 400, True),
            (OptimizerConfig(restarts=3), 2, False),
            (OptimizerConfig(restarts=3, tolerance=10.0), 2, True),
        ]:
            monkeypatch.setattr(infotheory, "_MAX_ITERATIONS", max_iterations)
            runs.clear()
            res = quantum_capacity(fixed, cfg)
            assert len(runs) == cfg.restarts
            if cfg.restarts == 1:
                assert res.converged == bool(runs[0].success)
            else:
                second, first = sorted(-r.fun for r in runs)[-2:]
                assert res.converged == (first - second <= cfg.tolerance)
            assert res.converged == converged
        assert not any(r.success for r in runs)

    def test_no_restart_fails_on_rounding(self, monkeypatch):
        # One restart here reaches |x| = 1.8e-8 with a gradient just above 1e-8,
        # where the decrease a step predicts is below the rounding of I_c. It
        # used to halve its step to 1e-6 on rounding alone and fail after 88
        # evaluations, at the value its siblings reached in 8.
        runs = []
        lockstep = infotheory._lockstep
        monkeypatch.setattr(
            infotheory, "_lockstep", lambda *args: runs.extend(lockstep(*args)) or runs
        )
        res = quantum_capacity(build_fixed(SupermapKind.COH_OF_COH, Family.MIXED_ALTERNATING, 0.1))
        assert len(runs) == 6
        assert [r.success for r in runs] == [True] * 6
        assert res.converged and res.evaluations <= 40

    def test_quantum_argmax_reproduces_raw_value(self):
        # The optimizer sees the compressed fixed channel; its argmax must
        # reach the same value on the 256-operator uncompressed one.
        raw = build_supermap(SupermapKind.COH_OF_COH, Family.DEPOLARIZING, 0.3)
        reference = uncompressed_fixed(raw)
        assert reference.n_kraus == 256
        res = quantum_capacity(fix_control(raw), FAST)
        assert coherent_information(reference, res.argmax) == pytest.approx(
            res.raw_value, abs=1e-12
        )

    def test_restarts_do_not_stall_at_maximally_mixed_input(self):
        # With these amplitudes fewer than two of the six restarts used to
        # reach the optimum, so the run reported converged=False.
        fixed = drawn_amplitude_channel()
        res = quantum_capacity(fixed)
        assert res.converged
        assert res.value >= coherent_information(fixed, np.eye(2) / 2) - 1e-9
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        bloch = np.array([np.trace(res.argmax @ s).real for s in paulis])
        direction = sum(b * s for b, s in zip(bloch / np.linalg.norm(bloch), paulis))
        for r in np.linspace(0.0, 1.0, 21):
            rho = 0.5 * (np.eye(2) + r * direction)
            assert res.value >= coherent_information(fixed, rho) - 1e-9

    def test_stationary_start_is_not_a_converged_run(self):
        # The gradient vanishes at the maximally mixed input of every
        # Pauli-covariant channel; here that input is not the maximum,
        # which is 0 on the pure boundary.
        fixed = build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 0.2)
        assert not quantum_capacity(fixed, OptimizerConfig(restarts=1)).converged
        res = quantum_capacity(fixed)
        assert res.raw_value >= -1e-12
        assert res.converged

    @pytest.mark.parametrize("p", [0.05, 0.5])
    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.n_channels == 4])
    def test_nested_evaluation_budget(self, kind, p):
        # Deterministic for the default seed, so this pins the solver's cost.
        fixed = build_fixed(kind, Family.DEPOLARIZING, p)
        assert quantum_capacity(fixed).evaluations <= 200

    def test_result_reports_evaluations(self):
        res = classical_capacity(identity_channel())
        assert isinstance(res, CapacityResult)
        assert res.evaluations > 0


class TestSolvers:
    @staticmethod
    def _bisect(slope, maxiter=400, curvature=0.0):
        # fun = -(x - 0.3)^2 / 2 has slope 0.3 - x. A curvature that is not
        # negative never takes a Newton step, so only the sign of slope steers.
        return infotheory._bisect(
            lambda x: -((x - 0.3) ** 2) / 2, lambda x: (slope(x), curvature), 1e-8, maxiter
        )

    def test_bisection_finds_interior_zero(self):
        res = self._bisect(lambda x: 0.3 - x)
        assert res.success
        assert abs(0.3 - res.x) <= 1e-8
        assert res.fun == pytest.approx(0.0, abs=1e-16)
        assert res.nfev == res.nit + 1 < 400

    def test_bisection_zero_slope_stops_at_half(self):
        res = self._bisect(lambda x: 0.0)
        assert (res.x, res.nit, res.nfev, res.success) == (0.5, 1, 2, True)

    def test_bisection_fails_when_evaluations_run_out(self):
        res = self._bisect(lambda x: 0.3 - x, maxiter=1)
        assert (res.x, res.nit, res.nfev, res.success) == (0.5, 1, 2, False)

    def test_newton_step_lands_on_the_zero(self):
        # With the exact curvature -1 the step from 1/2 lands on 0.3.
        res = self._bisect(lambda x: 0.3 - x, curvature=-1.0)
        assert res.success
        assert abs(0.3 - res.x) <= 1e-15
        assert (res.nit, res.nfev) == (2, 3)

    @pytest.mark.parametrize(
        "slope,curvature",
        [(lambda x: 0.3 - x, 1.0), (lambda x: -1.0 - x, -1.0)],
        ids=["positive_curvature", "step_below_the_bracket"],
    )
    def test_bisects_where_a_newton_step_is_unsafe(self, slope, curvature):
        # A curvature that is not negative, or a step outside the bracket
        # (here always to -1), leaves the bisection path unchanged.
        assert self._bisect(slope, 60, curvature) == self._bisect(slope, 60)

    def test_bisection_without_a_zero_fails(self):
        # No zero in [0, 1]: the midpoints approach 0 until maxiter runs out.
        res = self._bisect(lambda x: -1.0 - x, maxiter=60)
        assert (res.nit, res.nfev, res.success) == (60, 61, False)
        assert res.x < 1e-15

    @staticmethod
    def _rowwise(fun):
        # The stacked form ``_lockstep`` calls, with ``fun`` applied row by row.
        def rows(xs):
            values, grads = zip(*map(fun, xs))
            return np.array(values), np.array(grads)

        return rows

    @classmethod
    def _bfgs(cls, fun, x, gtol, maxiter):
        # One run advanced through ``_lockstep``.
        (res,) = infotheory._lockstep(cls._rowwise(fun), [infotheory._bfgs(x, gtol, maxiter)])
        return res

    @staticmethod
    def _rosenbrock(x):
        # Rosenbrock's function in three variables, with its gradient.
        inner = x[1:] - x[:-1] ** 2
        grad = np.zeros(3)
        grad[:-1] = -400 * x[:-1] * inner - 2 * (1 - x[:-1])
        grad[1:] += 200 * inner
        return float(np.sum(100 * inner**2 + (1 - x[:-1]) ** 2)), grad

    @staticmethod
    def _quadratic(seed=3):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3))
        a, b = m @ m.T + np.eye(3), rng.normal(size=3)
        return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), np.linalg.solve(a, b)

    def test_bfgs_reaches_gtol_on_convex_quadratic(self):
        fun, minimum = self._quadratic()
        res = self._bfgs(fun, np.zeros(3), 1e-8, 400)
        assert res.success
        assert 0 < res.nit < res.nfev <= 20
        assert np.abs(fun(res.x)[1]).max() <= 1e-8
        assert_allclose(res.x, minimum, atol=1e-8)

    def test_bfgs_first_step_is_the_unit_step(self):
        # On |x|^2 / 2 the unit step along -g lands on the minimum.
        res = self._bfgs(lambda x: (0.5 * x @ x, x), np.array([3.0, 0.0, 0.0]), 1e-8, 400)
        assert (res.nit, res.nfev, res.success) == (1, 2, True)
        assert res.fun == 0.0
        assert np.array_equal(res.x, np.zeros(3))

    def test_bfgs_stationary_start_takes_no_iteration(self):
        fun, minimum = self._quadratic()
        res = self._bfgs(fun, minimum, 1e-8, 400)
        assert (res.nit, res.nfev, res.success) == (0, 1, True)
        assert np.array_equal(res.x, minimum)

    def test_bfgs_stops_where_the_predicted_decrease_is_rounding(self):
        # At f = 1e6 a decrease of -g . p = 1e-12 is below the rounding of f,
        # so the run stops as a success though |g| = 1e-6 is above gtol.
        x0 = np.array([1e-6, 0.0, 0.0])
        res = self._bfgs(lambda x: (1e6 + 0.5 * x @ x, x), x0, 1e-8, 400)
        assert (res.nit, res.nfev, res.success) == (0, 1, True)
        assert np.array_equal(res.x, x0)
        # At f near 0 the same gradient is no rounding, and the run steps on.
        res = self._bfgs(lambda x: (0.5 * x @ x, x), x0, 1e-8, 400)
        assert (res.nit, res.nfev, res.success) == (1, 2, True)

    def test_bfgs_fails_when_iterations_run_out(self):
        # On Rosenbrock's function no single step reaches gtol.
        rosenbrock = self._rosenbrock
        res = self._bfgs(rosenbrock, np.zeros(3), 1e-8, 1)
        assert (res.nit, res.success) == (1, False)
        assert res.fun < rosenbrock(np.zeros(3))[0]
        res = self._bfgs(rosenbrock, np.zeros(3), 1e-8, 400)
        assert res.success
        assert_allclose(res.x, np.ones(3), atol=1e-6)

    def test_bfgs_fails_when_the_line_search_finds_no_decrease(self):
        # The value rises along the descent direction -g, so every halving of
        # the step fails the Armijo test: the unit step and 19 halvings, down
        # to 2**-19, are tried before the step drops below 1e-6.
        x0 = np.array([0.25, -0.5, 0.0])

        def rising(x):
            return float(np.abs(x - x0).sum()), np.array([1.0, 0.0, 0.0])

        res = self._bfgs(rising, x0, 1e-8, 400)
        assert (res.nit, res.nfev, res.success) == (0, 21, False)
        assert res.fun == 0.0
        assert np.array_equal(res.x, x0)

    @classmethod
    def _matches_reference(cls, fun, x, maxiter=400):
        """The ``_bfgs`` run from ``x``, checked against ``reference_bfgs`` in one lockstep."""
        gtol = infotheory._GRADIENT_TOL
        scalar, vector = infotheory._lockstep(
            cls._rowwise(fun),
            [infotheory._bfgs(x, gtol, maxiter), reference_bfgs(x, gtol, maxiter)],
        )
        assert scalar[2:] == vector[2:]
        assert isinstance(scalar.x, np.ndarray)
        assert_allclose(scalar.x, vector.x, rtol=0, atol=1e-12)
        assert abs(scalar.fun - vector.fun) <= 1e-12
        return scalar

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        m=arrays(np.float64, (3, 3), elements=st.floats(-1, 1)),
        b=arrays(np.float64, 3, elements=st.floats(-1, 1)),
        x=arrays(np.float64, 3, elements=st.floats(-2, 2)),
        shift=st.floats(0.1, 1),
    )
    def test_bfgs_matches_the_numpy_reference_on_convex_quadratics(self, m, b, x, shift):
        a = m @ m.T + shift * np.eye(3)
        res = self._matches_reference(lambda v: (0.5 * v @ a @ v - b @ v, a @ v - b), x)
        assert res.success

    @pytest.mark.parametrize("maxiter", [1, 400])
    @pytest.mark.parametrize(
        "x",
        [(0.0, 0.0, 0.0), (-1.2, 1.0, 1.0), (-1.0, -1.0, -1.0), (2.0, 2.0, 2.0)],
        ids=["origin", "classic", "negative", "beyond"],
    )
    def test_bfgs_matches_the_numpy_reference_on_rosenbrock(self, x, maxiter):
        # Both forms round differently, and mid-run Rosenbrock's curvature
        # carries the points apart by up to 4e-10; a failed first iteration
        # and a converged run agree within 1e-12.
        res = self._matches_reference(self._rosenbrock, np.array(x), maxiter)
        assert res.success == (maxiter == 400)


class TestBlochObjective:
    @settings(derandomize=True, deadline=None)
    @given(
        case=channel_pairs_and_states(),
        point=arrays(np.float64, 3, elements=st.floats(-1, 1)),
        mixing=arrays(np.float64, (2, 8, 8), elements=st.floats(-1, 1)),
    )
    def test_random_composed_channels(self, case, point, mixing):
        ((e1, alpha), (e2, beta)), _ = case
        norm = np.linalg.norm(point)
        r = 0.9 * point / max(1.0, norm)
        sphere = point / norm if norm > 1e-6 else np.array([0.0, 0.0, 1.0])
        rho = 0.5 * (np.eye(2) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)
        for composed in (switch(e1, e2), coherent_superposition(e1, alpha, e2, beta)):
            fixed = fix_control(composed)
            objective = infotheory._objective(fixed)
            (value,), (grad,) = objective(r[None])
            assert -value == pytest.approx(coherent_information(fixed, rho), abs=1e-12)
            h = 1e-6
            shifted, _ = objective(np.concatenate([r + h * np.eye(3), r - h * np.eye(3)]))
            central = (shifted[:3] - shifted[3:]) / (2 * h)
            assert_allclose(grad, central, rtol=0, atol=1e-6)
            # The stacked pass agrees with the rows reduced one at a time; and a
            # pure input gives equal output and environment entropies, which
            # the objective relies on to answer |x| >= 1 without eigh.
            output, environment = self._stacked_matches_rows(fixed, [r, sphere, *np.eye(3)])
            assert_allclose(output[1:], environment[1:], rtol=0, atol=1e-12)
            values, grads = objective(np.array([*np.eye(3), 2 * sphere, -1.5 * sphere]))
            assert np.array_equal(values, np.zeros(5))
            assert np.array_equal(grads, np.zeros((5, 3)))

            # I_c(rho) <= S(rho) <= 1; a noiseless channel reads 1 up to rounding.
            res = quantum_capacity(fixed)
            assert res.value <= 1.0 + 1e-12
            n = fixed.n_kraus
            unitary, _ = np.linalg.qr(mixing[0, :n, :n] + 1j * mixing[1, :n, :n])
            mixed = Channel(
                tuple(np.tensordot(unitary, fixed.kraus, axes=1)),
                fixed.input_dims,
                fixed.output_dims,
            )
            assert quantum_capacity(mixed).value == pytest.approx(res.value, abs=1e-9)

    @staticmethod
    def _stacked_matches_rows(fixed, rows) -> list:
        """Output and environment entropies of the stacked pass, checked row by row."""
        rows, entropies = np.array(rows), []
        for image in (apply, complementary_output):
            maps = np.array([image(fixed, half) for half in infotheory._PAULI_HALVES])
            values, grads = infotheory._entropy_and_gradient(maps, rows)
            expected_values, expected_grads = entropy_and_gradient_by_rows(maps, rows)
            assert_allclose(values, expected_values, rtol=0, atol=1e-12)
            assert_allclose(grads, expected_grads, rtol=0, atol=1e-10)
            entropies.append(values)
        return entropies

    def test_near_unitary_leaf_at_a_pure_row(self):
        # A second Kraus operator of 8.4e-8 leaves an output eigenvalue near
        # the spectrum floor at a pure row. Summed as maps[0] + x0 maps[1] + ...,
        # the reference put it on the other side and read gradients 1e-2 off.
        corner = np.array([[1, 1], [1, -1], [2.0**-23, 0], [0, 0]], dtype=complex)
        isometry, _ = np.linalg.qr(corner)
        leaf = Channel(isometry.reshape(2, 2, 2), (2,), (2,))
        self._stacked_matches_rows(fix_control(switch(leaf, identity_channel())), [np.ones(3) / 3**0.5])

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "make", [identity_channel, lambda: bit_flip(0.0)], ids=["identity", "bitflip0"]
    )
    def test_rank_deficient_states_stay_finite(self, make, radius):
        objective = infotheory._objective(make())
        directions = np.array([*np.eye(3), np.array([1.0, -2.0, 2.0]) / 3])
        values, grads = objective(radius * directions)
        assert np.all(np.isfinite(values))
        assert np.all(np.isfinite(grads))


class TestLockstep:
    """The restarts advance together; batching must not change any run."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        case=channel_pairs_and_states(),
        points=arrays(np.float64, (5, 3), elements=st.floats(-2, 2)),
    )
    def test_rows_equal_points_evaluated_alone(self, case, points):
        self._assert_rows_alone(case, points)

    @pytest.mark.parametrize("rows", [6, infotheory._BLOCK], ids=["restarts", "block"])
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(case=channel_pairs_and_states(), data=st.data())
    def test_rows_equal_points_evaluated_alone_at_real_stack_sizes(self, rows, case, data):
        # The default restart count and a full block; the points pulled into
        # the ball make rounds with every row inside.
        points = data.draw(arrays(np.float64, (rows, 3), elements=st.floats(-2, 2)))
        self._assert_rows_alone(case, points)
        self._assert_rows_alone(case, points / (1 + np.linalg.norm(points, axis=1))[:, None])

    @staticmethod
    def _assert_rows_alone(case, points):
        """Each row of one stacked objective call is bit for bit the row evaluated alone."""
        ((e1, alpha), (e2, beta)), _ = case
        for composed in (switch(e1, e2), coherent_superposition(e1, alpha, e2, beta)):
            objective = infotheory._objective(fix_control(composed))
            values, grads = objective(points)
            for row, x in enumerate(points):
                (value,), (grad,) = objective(x[None])
                assert value == values[row]
                assert np.array_equal(grad, grads[row])

    @staticmethod
    def _recording(monkeypatch):
        """Patch ``_lockstep`` to keep the runs it returns, in one list per call."""
        lockstep, recorded = infotheory._lockstep, []

        def recording(fun, runs):
            recorded.append(lockstep(fun, runs))
            return recorded[-1]

        monkeypatch.setattr(infotheory, "_lockstep", recording)
        return recorded

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_fixed(SupermapKind.SWITCH_OF_SWITCH, Family.DEPOLARIZING, 0.944),
            lambda: build_fixed(SupermapKind.SWITCH, Family.BIT_FLIP, 0.629),
            drawn_amplitude_channel,
        ],
        ids=["sos", "switch", "drawn"],
    )
    def test_lockstep_matches_runs_driven_alone(self, make, monkeypatch):
        lockstep, compared = infotheory._lockstep, []
        gtol, maxiter = infotheory._GRADIENT_TOL, infotheory._MAX_ITERATIONS

        def checked(fun, runs):
            # Each run first asks for its start point.
            starts = [next(run) for run in runs]
            together = lockstep(fun, [infotheory._bfgs(x, gtol, maxiter) for x in starts])
            for x, res in zip(starts, together):
                (alone,) = lockstep(fun, [infotheory._bfgs(x, gtol, maxiter)])
                assert np.array_equal(alone.x, res.x)
                assert alone[1:] == res[1:]
            compared.append(together)
            return together

        monkeypatch.setattr(infotheory, "_lockstep", checked)
        quantum_capacity(make())
        (runs,) = compared
        assert len(runs) == 6
        assert len({res.nfev for res in runs}) > 1

    @staticmethod
    def _counting(monkeypatch):
        """Patch ``_objective`` to record the stacked points of each call of the objective."""
        objective, calls = infotheory._objective, []

        def counting_objective(ch):
            fun = objective(ch)

            def counted(xs):
                calls.append(xs.copy())
                return fun(xs)

            return counted

        monkeypatch.setattr(infotheory, "_objective", counting_objective)
        return calls

    @staticmethod
    def _live_per_round(nfev):
        """Rows of each round when round ``k`` evaluates the runs that need more than ``k`` points."""
        return [sum(n > k for n in nfev) for k in range(max(nfev))]

    def test_one_objective_call_and_two_eigh_calls_per_round(self, monkeypatch):
        fixed = build_fixed(SupermapKind.SWITCH_OF_SWITCH, Family.DEPOLARIZING, 0.944)
        eigh, stacks = np.linalg.eigh, []

        def counting_eigh(a):
            stacks.append(len(a))
            return eigh(a)

        calls, recorded = self._counting(monkeypatch), self._recording(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        res = quantum_capacity(fixed)
        (runs,) = recorded
        nfev = [run.nfev for run in runs]
        rows = [len(xs) for xs in calls]
        assert rows == self._live_per_round(nfev)
        # One stack for the output map and one for the environment map, of the
        # round's points inside the ball; a round with none makes no eigh call.
        inside = [int(np.sum((xs * xs).sum(axis=1) < 1.0)) for xs in calls]
        assert 0 in inside and any(0 < k < n for k, n in zip(inside, rows))
        assert stacks == [k for k in inside if k for _ in range(2)]
        # Every point counts as an evaluation, eigendecomposed or not.
        assert res.evaluations == sum(nfev) == sum(rows) > sum(inside)

    def test_blocks_bound_the_stack(self, monkeypatch):
        block = infotheory._BLOCK
        cfg = OptimizerConfig(restarts=2 * block + 1)
        fixed = build_fixed(SupermapKind.SWITCH, Family.BIT_FLIP, 0.3)
        calls, recorded = self._counting(monkeypatch), self._recording(monkeypatch)
        res = quantum_capacity(fixed, cfg)
        (runs,) = recorded
        nfev, rows = [run.nfev for run in runs], [len(xs) for xs in calls]
        assert len(runs) == cfg.restarts
        blocks = [nfev[first : first + block] for first in range(0, len(nfev), block)]
        assert rows == [k for part in blocks for k in self._live_per_round(part)]
        assert max(rows) == block
        assert res.evaluations == sum(rows)


class TestTargetMarginal:
    def test_marginal_of_plain_channel_is_full_output(self):
        from switchcap.channels import apply

        rho = random_density(np.random.default_rng(31), 2)
        assert_array_equal(target_marginal(bit_flip(0.2), rho), apply(bit_flip(0.2), rho))

    def test_marginal_traces_control(self):
        fixed = build_fixed(SupermapKind.SWITCH, Family.PHASE_FLIP, 0.3)
        out = target_marginal(fixed, KET0)
        assert out.shape == (2, 2)
        assert_allclose(out, KET0, atol=1e-12)
