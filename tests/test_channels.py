import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import direct_sum, projector, random_density
from switchcap.channels import (
    Channel,
    apply,
    bit_flip,
    completeness_defect,
    depolarizing,
    identity_channel,
    pauli,
    phase_flip,
    vacuum_extend,
)
from switchcap.qmatrix import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    assert_density_matrix,
)

KET0 = projector(np.array([1, 0], dtype=complex))
KET1 = projector(np.array([0, 1], dtype=complex))
PLUS = projector(np.array([1, 1], dtype=complex) / np.sqrt(2))

CATALOG = [
    lambda p: bit_flip(p),
    lambda p: phase_flip(p),
    lambda p: pauli(p / 2, p / 4, p / 4),
    lambda p: depolarizing(p),
]


class TestBitFlip:
    def test_noiseless_limit(self):
        ch = bit_flip(0.0)
        assert_allclose(ch.kraus[0], IDENTITY_2)
        assert_allclose(ch.kraus[1], np.zeros((2, 2)))
        rho = random_density(np.random.default_rng(1), 2)
        assert_allclose(apply(ch, rho), rho, atol=1e-15)

    def test_deterministic_flip(self):
        ch = bit_flip(1.0)
        rho = random_density(np.random.default_rng(2), 2)
        assert_allclose(apply(ch, rho), SIGMA_X @ rho @ SIGMA_X, atol=1e-15)

    def test_completeness_at_p03(self):
        ks = bit_flip(0.3).kraus
        total = sum(k.conj().T @ k for k in ks)
        assert_allclose(total, IDENTITY_2, atol=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            bit_flip(p)


class TestPhaseFlip:
    def test_noiseless_limit(self):
        rho = random_density(np.random.default_rng(3), 2)
        assert_allclose(apply(phase_flip(0.0), rho), rho, atol=1e-15)

    def test_fully_dephasing_at_half(self):
        # (1-p) rho + p Z rho Z kills the coherences exactly at p = 1/2.
        rho = random_density(np.random.default_rng(4), 2)
        out = apply(phase_flip(0.5), rho)
        assert_allclose(out, np.diag(np.diag(rho)), atol=1e-15)

    def test_plus_state_eigenvalues(self):
        p = 0.2
        out = apply(phase_flip(p), PLUS)
        assert_allclose(np.linalg.eigvalsh(out), [p, 1 - p], atol=1e-12)


class TestPauli:
    def test_reduces_to_bit_flip(self):
        p = 0.35
        ch = pauli(p, 0.0, 0.0)
        bf = bit_flip(p)
        assert_allclose(ch.kraus[0], bf.kraus[0])
        assert_allclose(ch.kraus[1], bf.kraus[1])
        assert_allclose(ch.kraus[2], 0)
        assert_allclose(ch.kraus[3], 0)

    def test_reduces_to_phase_flip(self):
        p = 0.6
        ch = pauli(0.0, 0.0, p)
        pf = phase_flip(p)
        assert_allclose(ch.kraus[0], pf.kraus[0])
        assert_allclose(ch.kraus[3], pf.kraus[1])

    def test_equal_thirds_matches_twirl_identity(self):
        # Checked on a basis of Hermitian 2x2 inputs via the twirl identity
        # X rho X + Y rho Y + Z rho Z = 2 Tr(rho) I - rho, so equal thirds
        # send rho to (2 I - rho) / 3.
        ch = pauli(1 / 3, 1 / 3, 1 / 3)
        basis = [KET0, KET1, PLUS, projector(np.array([1, 1j]) / np.sqrt(2))]
        for rho in basis:
            assert_allclose(apply(ch, rho), (2 * IDENTITY_2 - rho) / 3, atol=1e-12)

    def test_equal_quarters_is_completely_depolarizing(self):
        ch = pauli(0.25, 0.25, 0.25)
        basis = [KET0, KET1, PLUS, projector(np.array([1, 1j]) / np.sqrt(2))]
        for rho in basis:
            assert_allclose(apply(ch, rho), IDENTITY_2 / 2, atol=1e-12)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            pauli(-0.1, 0.2, 0.2)
        with pytest.raises(ValueError):
            pauli(0.5, 0.4, 0.3)


class TestDepolarizing:
    def test_noiseless_limit(self):
        rho = random_density(np.random.default_rng(5), 2)
        assert_allclose(apply(depolarizing(0.0), rho), rho, atol=1e-15)

    def test_action_on_ket0(self):
        # Summing the four Kraus terms by hand gives diag(1-2p/3, 2p/3).
        p = 0.45
        assert_allclose(
            apply(depolarizing(p), KET0),
            np.diag([1 - 2 * p / 3, 2 * p / 3]),
            atol=1e-12,
        )

    def test_matches_pauli_mixture_at_full_noise(self):
        rho = random_density(np.random.default_rng(6), 2)
        p = 1.0
        expected = (1 - p) * rho + (p / 3) * (
            SIGMA_X @ rho @ SIGMA_X + SIGMA_Y @ rho @ SIGMA_Y + SIGMA_Z @ rho @ SIGMA_Z
        )
        assert_allclose(apply(depolarizing(p), rho), expected, atol=1e-12)


class TestApply:
    def test_identity_channel(self):
        rho = random_density(np.random.default_rng(7), 2)
        assert_allclose(apply(identity_channel(), rho), rho)

    def test_deterministic_bit_flip_on_ket0(self):
        assert_allclose(apply(bit_flip(1.0), KET0), KET1, atol=1e-15)

    def test_partial_bit_flip_on_ket0(self):
        assert_allclose(apply(bit_flip(0.3), KET0), np.diag([0.7, 0.3]), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(bit_flip(0.1), np.eye(4) / 4)

    def test_preserves_density_validity(self):
        rng = np.random.default_rng(8)
        for make in CATALOG:
            for _ in range(250):
                ch = make(rng.uniform(0, 1))
                out = apply(ch, random_density(rng, 2))
                assert_density_matrix(out)
                assert abs(np.trace(out) - 1.0) <= 1e-10

    def test_catalog_channels_are_unital(self):
        for make in CATALOG:
            for p in (0.1, 0.5, 0.9):
                out = apply(make(p), IDENTITY_2 / 2)
                assert_allclose(out, IDENTITY_2 / 2, atol=1e-10)


class TestCompleteness:
    def test_catalog_at_quarter(self):
        for make in CATALOG:
            assert completeness_defect(make(0.25)) <= 1e-10

    def test_scaled_kraus_fails(self):
        ch = bit_flip(0.3)
        with pytest.raises(ValueError, match="completeness"):
            Channel((1.01 * ch.kraus[0], ch.kraus[1]), (2,), (2,), label="broken")

    def test_empty_kraus_list_fails(self):
        with pytest.raises(ValueError, match="completeness"):
            Channel((), (2,), (2,), label="empty")


class TestChannelStorage:
    def test_kraus_are_read_only_views_of_one_array(self):
        source = [k.copy() for k in bit_flip(0.3).kraus]
        ch = Channel(source, (2,), (2,))
        source[0][0, 0] = 5.0
        assert ch.stacked.shape == (2, 2, 2)
        assert not ch.stacked.flags.writeable
        for k, row in zip(ch.kraus, ch.stacked):
            assert np.shares_memory(k, ch.stacked)
            assert_allclose(k, row)
        assert ch.kraus[0][0, 0] == pytest.approx(np.sqrt(0.7))

    def test_stacked_is_c_contiguous_whatever_the_input_layout(self):
        # Kernels on ``stacked`` round differently on other layouts.
        kraus = np.asfortranarray(np.stack(depolarizing(0.3).kraus))
        ch = Channel(kraus, (2,), (2,))
        assert ch.stacked.flags.c_contiguous
        assert_allclose(ch.stacked, kraus)

    def test_rejects_non_finite_entries(self):
        k = np.eye(2, dtype=complex)
        k[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            Channel((k,), (2,), (2,))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match \(2, 2\)"):
            Channel((np.eye(2), np.zeros((3, 3))), (2,), (2,))

    def test_rejects_wrong_shape_of_a_stacked_array(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match \(2, 2\)"):
            Channel(np.zeros((2, 3, 3)), (2,), (2,))


def _extended_channel(ext):
    """The ``K_i (+) gamma_i`` Kraus set of ``ext`` on ``d_in + 1`` dimensions."""
    dim = ext.base.d_in + 1
    kraus = [direct_sum(k, [[g]]) for k, g in zip(ext.base.kraus, ext.amps)]
    return Channel(kraus, (dim,), (dim,))


class TestVacuumExtend:
    def test_bit_flip_uniform_amplitudes(self):
        # Extended operators are K_i (+) 1/sqrt(2) on the 3-dimensional
        # space with the vacuum as last basis vector.
        p = 0.3
        ext = _extended_channel(vacuum_extend(bit_flip(p), (1 / np.sqrt(2), 1 / np.sqrt(2))))
        for i, base in enumerate(bit_flip(p).kraus):
            expected = np.zeros((3, 3), dtype=complex)
            expected[:2, :2] = base
            expected[2, 2] = 1 / np.sqrt(2)
            assert_allclose(ext.kraus[i], expected)
        assert completeness_defect(ext) <= 1e-10

    def test_concentrated_amplitudes(self):
        ext = vacuum_extend(depolarizing(0.5), (1, 0, 0, 0))
        vac_components = [k[2, 2] for k in _extended_channel(ext).kraus]
        assert vac_components[0] == 1.0
        assert_allclose(vac_components[1:], 0)

    def test_uniform_depolarizing_amplitudes_normalized(self):
        ext = vacuum_extend(depolarizing(0.7), (0.5, 0.5, 0.5, 0.5))
        assert np.sum(np.abs(ext.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert completeness_defect(_extended_channel(ext)) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            vacuum_extend(bit_flip(0.3), (0.9, 0.1))
        with pytest.raises(ValueError, match="vacuum amplitudes have squared norm nan"):
            vacuum_extend(bit_flip(0.3), (float("nan"), 0.0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            vacuum_extend(bit_flip(0.3), (1.0,))

    def test_restriction_reproduces_base_action(self):
        rng = np.random.default_rng(10)
        ext = vacuum_extend(depolarizing(0.4), (0.5, 0.5, 0.5, 0.5))
        rho = random_density(rng, 2)
        embedded = np.zeros((3, 3), dtype=complex)
        embedded[:2, :2] = rho
        out = apply(_extended_channel(ext), embedded)
        assert_allclose(out[:2, :2], apply(ext.base, rho), atol=1e-14)
