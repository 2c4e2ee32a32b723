import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import direct_sum, projector, random_density, random_unitary
from switchcap.qmatrix import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    as_complex_matrix,
    assert_density_matrix,
    eig_hermitian,
    entropy_of_spectrum,
    partial_trace,
    unit_vector,
    von_neumann_entropy,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


class TestDirectSum:
    def test_identity_blocks(self):
        assert_allclose(direct_sum(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_pauli_blocks_square_to_identity(self):
        s = direct_sum(SIGMA_X, SIGMA_Z)
        assert_allclose(s @ s, np.eye(4), atol=1e-15)
        assert_allclose(s[:2, 2:], 0)
        assert_allclose(s[2:, :2], 0)

    def test_bit_flip_identity_components(self):
        # K0 = L0 = sqrt(1-p) * I at p = 0.3, so the block sum is sqrt(0.7) I4.
        p = 0.3
        k0 = np.sqrt(1 - p) * IDENTITY_2
        assert_allclose(direct_sum(k0, k0), np.sqrt(0.7) * np.eye(4))

    def test_operator_norm_is_max_of_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            norm = np.linalg.svd(direct_sum(a, b), compute_uv=False)[0]
            expected = max(
                np.linalg.svd(a, compute_uv=False)[0],
                np.linalg.svd(b, compute_uv=False)[0],
            )
            assert norm == pytest.approx(expected, abs=1e-12)


class TestAsComplexMatrix:
    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(2,\)$"):
            as_complex_matrix(np.ones(2))

    @pytest.mark.parametrize(
        "entry",
        [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf), complex(np.inf, np.nan)],
    )
    def test_rejects_nan_or_inf_in_either_part(self, entry):
        m = np.eye(2, dtype=complex)
        m[1, 0] = entry
        with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
            as_complex_matrix(m)


class TestPartialTrace:
    def test_product_state(self):
        rho00 = projector(np.kron(KET0, KET0))
        assert_allclose(partial_trace(rho00, (2, 2), keep=[0]), projector(KET0))
        # Keeping 14 factors takes 28 einsum labels, more than one alphabet.
        assert_allclose(partial_trace(np.eye(1), [1] * 14, keep=range(14)), np.eye(1))

    def test_product_of_random_states(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        joint = np.kron(rho, sigma)
        assert_allclose(partial_trace(joint, (2, 3), keep=[1]), sigma, atol=1e-12)
        assert_allclose(partial_trace(joint, (2, 3), keep=[0]), rho, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = projector((np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2))
        assert_allclose(partial_trace(bell, (2, 2), keep=[0]), np.eye(2) / 2)

    def test_trace_preserved_and_output_valid(self):
        rng = np.random.default_rng(9)
        for dims in [(2, 2), (2, 4), (2, 2, 2)]:
            rho = random_density(rng, int(np.prod(dims)))
            for keep in ([0], [len(dims) - 1]):
                reduced = partial_trace(rho, dims, keep)
                assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)
                assert_density_matrix(reduced)

    def test_malformed_factorization_raises(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 3), keep=[0])
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2), keep=[])
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2), keep=[2])

    @pytest.mark.parametrize(
        "dims",
        [(2.7, 2), (2.0, 2), (np.inf, 2), (2, 0), (-2, -2)],
        ids=["fractional", "float", "inf", "zero", "negative"],
    )
    def test_invalid_dimensions_rejected(self, dims):
        # A fractional dimension is not truncated to a smaller subsystem.
        with pytest.raises(ValueError, match="subsystem dimensions must be positive integers"):
            partial_trace(np.eye(4) / 4, dims, keep=[0])

    def test_numpy_integer_dimensions_accepted(self):
        dims = (np.int64(2), np.uint8(2))
        assert_allclose(partial_trace(np.eye(4) / 4, dims, keep=[0]), np.eye(2) / 2)

    @pytest.mark.parametrize(
        "keep", [[0.7], [0, 1.0], [np.float64(1.0)]], ids=["fractional", "float", "numpy_float"]
    )
    def test_non_integer_keep_indices_rejected(self, keep):
        # 0.7 is not truncated to factor 0, which would return diag(1, 0) here.
        rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        with pytest.raises(ValueError, match=r"keep indices must be integers, got \("):
            partial_trace(rho, (2, 2), keep=keep)

    def test_numpy_integer_keep_indices_accepted(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        keep = [np.int64(0), np.uint8(1)]
        assert_allclose(partial_trace(rho, (2, 2), keep=keep), rho)
        assert_allclose(partial_trace(rho, (2, 2), keep=[np.int32(1)]), np.eye(2) / 2)


class TestEigHermitian:
    def test_diagonal(self):
        assert_allclose(eig_hermitian(np.diag([0.75, 0.25])), [0.25, 0.75])

    def test_sigma_x_spectrum(self):
        assert_allclose(eig_hermitian(SIGMA_X), [-1.0, 1.0], atol=1e-12)

    def test_scalar_matrix(self):
        assert_allclose(eig_hermitian(np.eye(4) / 4), [0.25] * 4)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = random_density(rng, 5) * 3.0
            assert eig_hermitian(h).sum() == pytest.approx(
                np.trace(h).real, abs=1e-9
            )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        assert von_neumann_entropy(projector(KET0)) == pytest.approx(0.0)

    def test_maximally_mixed_two_qubits(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)

    def test_additive_under_tensor(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = random_density(rng, 2)
            sigma = random_density(rng, 2)
            assert von_neumann_entropy(np.kron(rho, sigma)) == pytest.approx(
                von_neumann_entropy(rho) + von_neumann_entropy(sigma), abs=1e-9
            )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            rho = random_density(rng, 4)
            u = random_unitary(rng, 4)
            assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )

    def test_eigenvalue_clamping(self):
        # Slack just above the floor is clamped to zero rather than NaN.
        assert entropy_of_spectrum(np.array([1.0, -5e-11])) == pytest.approx(0.0)
        with pytest.raises(ValueError, match="floor"):
            entropy_of_spectrum(np.array([1.0, -1e-8]))


class TestDensityValidation:
    def test_accepts_valid(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 3)
        assert_allclose(assert_density_matrix(rho), rho)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(2), "trace"),
            (np.array([[0.5, 0.5], [-0.5, 0.5]]), "not Hermitian"),
            (np.diag([1.5, -0.5]), "negative eigenvalue"),
            (np.ones((2, 3)) / 3, r"^density matrix must be square, got \(2, 3\)$"),
        ],
    )
    def test_rejects_invalid(self, rho, message):
        with pytest.raises(ValueError, match=message):
            assert_density_matrix(rho)


class TestUnitVector:
    def test_returns_a_read_only_complex_copy(self):
        source = [0.6, 0.8]
        ket = unit_vector(source, 2, "amplitudes")
        assert ket.dtype == complex and not ket.flags.writeable
        assert ket.tolist() == [0.6, 0.8]
        array = np.array([1.0, 0.0])
        assert not np.shares_memory(unit_vector(array, 2, "amplitudes"), array)

    def test_norm_tolerance_is_hermitian_tol(self):
        unit_vector([np.sqrt(1 + 0.5e-10), 0.0], 2, "amplitudes")
        with pytest.raises(ValueError, match="amplitudes have squared norm 1.0000000002"):
            unit_vector([np.sqrt(1 + 2e-10), 0.0], 2, "amplitudes")

    @pytest.mark.parametrize(
        ("v", "message"),
        [
            ([np.nan, 0.0], "squared norm nan"),
            ([np.inf, 0.0], "squared norm inf"),
            ([1j * np.inf, 0.0], "squared norm inf"),
            ([0.0, 0.0], "squared norm 0.0"),
        ],
    )
    def test_non_finite_and_zero_fail_the_norm(self, v, message):
        with pytest.raises(ValueError, match=f"^amplitudes have {message}, expected 1$"):
            unit_vector(v, 2, "amplitudes")

    def test_shape_is_checked_first(self):
        with pytest.raises(ValueError, match="^expected 2 amplitudes, got 3$"):
            unit_vector([1.0, 1.0, 1.0], 2, "amplitudes")
        with pytest.raises(ValueError, match=r"^expected 2 amplitudes, got shape \(2, 2\)$"):
            unit_vector(np.eye(2), 2, "amplitudes")
        with pytest.raises(ValueError, match=r"^expected 1 amplitudes, got shape \(\)$"):
            unit_vector(1.0, 1, "amplitudes")

    def test_parenthetical_only_in_the_length_error(self):
        what = "vacuum amplitudes (one per Kraus operator)"
        with pytest.raises(ValueError, match=r"^expected 4 vacuum amplitudes \(one per Kraus"):
            unit_vector([1.0, 0.0], 4, what)
        with pytest.raises(ValueError, match="^vacuum amplitudes have squared norm 2.0, expected 1$"):
            unit_vector([1.0, 1.0], 2, what)
