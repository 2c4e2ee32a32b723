import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.optimize import minimize as scipy_minimize

from _helpers import random_density, random_pure
from switchcap import infotheory
from switchcap.channels import (
    Channel,
    apply,
    bit_flip,
    depolarizing,
    identity_channel,
    phase_flip,
)
from switchcap.configs import Family, build_fixed
from switchcap.infotheory import (
    CapacityResult,
    Ensemble,
    OptimizerConfig,
    classical_capacity,
    coherent_information,
    complementary_output,
    exchange_entropy,
    holevo_information,
    quantum_capacity,
    target_marginal,
)
from switchcap.oracle import CapacityType, ClosedFormId, closed_form
from switchcap.qmatrix import assert_density_matrix, projector, von_neumann_entropy
from switchcap.supermaps import SupermapKind, fix_control, switch

KET0 = projector(np.array([1, 0], dtype=complex))
KET1 = projector(np.array([0, 1], dtype=complex))

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


def amplitude_damping(g):
    kraus = (
        np.array([[1, 0], [0, np.sqrt(1 - g)]]),
        np.array([[0, np.sqrt(g)], [0, 0]]),
    )
    return Channel(kraus, (2,), (2,), label=f"amplitude_damping({g:g})")


class TestEnsemble:
    def test_computational_helper(self):
        ens = Ensemble.computational(0.25)
        probs = [p for p, _ in ens.entries]
        assert_allclose(probs, [0.25, 0.75])

    def test_rejects_unnormalized_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.6, KET0), (0.6, KET1)))

    def test_rejects_mixed_states(self):
        with pytest.raises(ValueError, match="pur"):
            Ensemble(((1.0, np.eye(2) / 2),))


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)


class TestHolevoInformation:
    def test_identity_with_orthogonal_ensemble(self):
        chi = holevo_information(identity_channel(), Ensemble.computational())
        assert chi == pytest.approx(1.0, abs=1e-12)

    def test_single_state_ensemble_is_zero(self):
        ens = Ensemble(((1.0, KET0),))
        assert holevo_information(bit_flip(0.3), ens) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_phase_flip_switch_carries_one_bit(self, p):
        fixed = fix_control(switch(phase_flip(p), phase_flip(p)))
        chi = holevo_information(fixed, Ensemble.computational())
        assert chi == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ch = depolarizing(rng.uniform(0, 1))
            states = [random_pure(rng, 2) for _ in range(3)]
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
        # The reduced-Gram path must agree with the entropy of the full W.
        rng = np.random.default_rng(23)
        for kind in (SupermapKind.SWITCH, SupermapKind.COH_OF_COH):
            fixed = build_fixed(kind, Family.DEPOLARIZING, 0.45)
            rho = random_density(rng, 2)
            direct = von_neumann_entropy(complementary_output(fixed, rho))
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
        s_env = von_neumann_entropy(complementary_output(ch, rho))
        reference = von_neumann_entropy(apply(ch, rho)) - s_env
        assert exchange_entropy(ch, rho) == pytest.approx(s_env, abs=1e-9)
        assert coherent_information(ch, rho) == pytest.approx(reference, abs=1e-9)


class TestClassicalCapacity:
    def test_identity(self):
        res = classical_capacity(identity_channel(), FAST)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_coherent_superposition_bit_flip_half(self):
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.BIT_FLIP, 0.5)
        res = classical_capacity(fixed, FAST)
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
        res = classical_capacity(fixed, FAST)
        assert res.value == pytest.approx(reference, abs=1e-6)

    def test_requires_qubit_input(self):
        with pytest.raises(ValueError, match="qubit"):
            classical_capacity(identity_channel(4), FAST)

    def test_dominates_uniform_signaling(self):
        for kind in ALL_KINDS:
            fixed = build_fixed(kind, Family.MIXED_ALTERNATING, 0.3)
            res = classical_capacity(fixed, FAST)
            assert res.value >= binary_holevo(fixed, 0.5) - 1e-9

    @pytest.mark.parametrize("g", [0.1, 0.5, 0.9])
    def test_amplitude_damping_optimum_away_from_half(self, g):
        # Amplitude damping read in the computational basis is the
        # Z-channel, whose optimal prior is not uniform.
        res = classical_capacity(amplitude_damping(g), FAST)
        expected = np.log2(1 + (1 - g) * g ** (g / (1 - g)))
        assert res.value == pytest.approx(expected, abs=1e-9)
        assert res.converged
        weight = res.argmax.entries[0][0]
        assert abs(weight - 0.5) >= 0.03

    def test_converged_is_a_certificate(self):
        fixed = build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 0.35)
        assert not classical_capacity(fixed, OptimizerConfig(max_iterations=1)).converged
        assert classical_capacity(fixed).converged

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


class TestQuantumCapacity:
    def test_identity(self):
        res = quantum_capacity(identity_channel(), FAST)
        assert res.value == pytest.approx(1.0, abs=1e-6)

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
            few = classical_capacity(fixed, OptimizerConfig(restarts=4, seed=5))
            many = classical_capacity(fixed, OptimizerConfig(restarts=8, seed=5))
            assert few.value == many.value
            q_few = quantum_capacity(fixed, OptimizerConfig(restarts=4, seed=5))
            q_many = quantum_capacity(fixed, OptimizerConfig(restarts=8, seed=5))
            assert abs(q_few.value - q_many.value) <= 1e-6

    def test_deterministic_for_fixed_seed(self):
        fixed = build_fixed(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, 0.12)
        a = quantum_capacity(fixed, OptimizerConfig(restarts=5, seed=77))
        b = quantum_capacity(fixed, OptimizerConfig(restarts=5, seed=77))
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_noiseless_capacity_is_one(self, kind):
        fixed = build_fixed(kind, Family.DEPOLARIZING, 0.0)
        assert classical_capacity(fixed, FAST).value == pytest.approx(1.0, abs=1e-3)
        assert quantum_capacity(fixed, FAST).value == pytest.approx(1.0, abs=1e-3)

    def test_quantum_converged_rule(self, monkeypatch):
        # One run reports the solver's own success; two or more report
        # whether the two best runs agree within the tolerance, whatever
        # the runs' own success.
        runs = []

        def recording_minimize(*args, **kwargs):
            runs.append(scipy_minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(infotheory, "minimize", recording_minimize)
        fixed = build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 0.2)
        for cfg, converged in [
            (OptimizerConfig(restarts=1), True),
            (OptimizerConfig(restarts=1, max_iterations=1), False),
            (OptimizerConfig(restarts=3), True),
            (OptimizerConfig(restarts=3, max_iterations=2), False),
            (OptimizerConfig(restarts=3, max_iterations=2, tolerance=10.0), True),
        ]:
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

    def test_quantum_argmax_reproduces_raw_value(self):
        fixed = build_fixed(SupermapKind.COH_OF_COH, Family.DEPOLARIZING, 0.3)
        assert fixed.n_kraus == 256
        res = quantum_capacity(fixed, FAST)
        assert coherent_information(fixed, res.argmax) == pytest.approx(
            res.raw_value, abs=1e-12
        )

    def test_result_reports_evaluations(self):
        res = classical_capacity(identity_channel(), FAST)
        assert isinstance(res, CapacityResult)
        assert res.evaluations > 0


class TestTargetMarginal:
    def test_marginal_of_plain_channel_is_full_output(self):
        from switchcap.channels import apply

        rho = random_density(np.random.default_rng(31), 2)
        assert_allclose(target_marginal(bit_flip(0.2), rho), apply(bit_flip(0.2), rho))

    def test_marginal_traces_control(self):
        fixed = build_fixed(SupermapKind.SWITCH, Family.PHASE_FLIP, 0.3)
        out = target_marginal(fixed, KET0)
        assert out.shape == (2, 2)
        assert_allclose(out, KET0, atol=1e-12)
