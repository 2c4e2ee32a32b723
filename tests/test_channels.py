import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import eligible_families, projector, random_density
from switchcap.channels import (
    Channel,
    apply,
    bit_flip,
    completeness_defect,
    depolarizing,
    identity_channel,
    pauli,
    phase_flip,
)
from switchcap.supermaps import Family, build_supermap
from switchcap.qmatrix import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    assert_density_matrix,
    partial_trace,
)
from switchcap.supermaps import SupermapKind, coherent_superposition, fix_control, switch

KET0 = projector(np.array([1, 0], dtype=complex))
KET1 = projector(np.array([0, 1], dtype=complex))
PLUS = projector(np.array([1, 1], dtype=complex) / np.sqrt(2))

PAULIS = [IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]

INVALID_DIMENSIONS = pytest.mark.parametrize(
    "input_dims,output_dims",
    [
        ((2.7,), (2,)),
        ((2,), (2.5,)),
        ((2.0,), (2,)),
        ((np.nan,), (2,)),
        ((0,), (2,)),
        (("2",), (2,)),
    ],
    ids=["fractional_input", "fractional_output", "float", "nan", "zero", "string"],
)

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

    def test_defect_equals_the_identity_formula(self):
        channels = [make(p) for make in CATALOG for p in np.linspace(0, 1, 11)]
        for kind in SupermapKind:
            for family in eligible_families(kind):
                composed = build_supermap(kind, family, 0.3)
                channels += [composed, fix_control(composed)]
        for ch in channels:
            assert completeness_defect(ch) == pytest.approx(_conj_gram_defect(ch), abs=1e-15)

    @settings(derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 64),
        d=st.sampled_from([2, 4, 8]),
        complete=st.booleans(),
        data=st.data(),
    )
    def test_defect_matches_the_conjugated_gram(self, n, d, complete, data):
        parts = data.draw(arrays(np.float64, (2, n * d, d), elements=st.floats(-1, 1)))
        rows = parts[0] + 1j * parts[1]
        if complete:
            rows, _ = np.linalg.qr(rows)
        stack = SimpleNamespace(kraus=np.ascontiguousarray(rows).reshape(n, d, d), d_in=d)
        reference = _conj_gram_defect(stack)
        # The real-view Gram sums the n * d rows in another order. For a
        # complete stack each Gram entry is within (n * d + 2) eps of the exact
        # one either way (its columns have unit norm), so the two differ by at
        # most twice that.
        tolerance = 2 * (n * d + 2) * np.finfo(float).eps if reference < 1e-10 else 0.0
        assert completeness_defect(stack) == pytest.approx(reference, rel=1e-13, abs=tolerance)


def _conj_gram_defect(ch):
    """``max |sum_i K_i^dag K_i - I|`` from the conjugated rows of ``ch.kraus``."""
    rows = ch.kraus.reshape(-1, ch.d_in)
    return np.max(np.abs(rows.conj().T @ rows - np.eye(ch.d_in)))


class TestCatalogArrays:
    """Each catalog channel weighs a stacked set of Pauli operators in one array."""

    @staticmethod
    def _weighted(weights, operators):
        return np.stack([np.sqrt(w) * sigma for w, sigma in zip(weights, operators)])

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.3, 1.0])
    def test_leaves_are_the_weighted_operators_bit_for_bit(self, p):
        q = p / 3
        cases = [
            (bit_flip(p), [1 - p, p], [IDENTITY_2, SIGMA_X]),
            (phase_flip(p), [1 - p, p], [IDENTITY_2, SIGMA_Z]),
            (depolarizing(p), [max(1 - (q + q + q), 0.0), q, q, q], PAULIS),
        ]
        for ch, weights, operators in cases:
            assert ch.kraus.tobytes() == self._weighted(weights, operators).tobytes(), ch.label

    def test_pauli_is_the_weighted_operators_bit_for_bit(self):
        weights = [max(1 - (0.1 + 0.2 + 0.3), 0.0), 0.1, 0.2, 0.3]
        expected = self._weighted(weights, PAULIS)
        assert pauli(0.1, 0.2, 0.3).kraus.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", CATALOG)
    def test_leaf_array_is_adopted(self, make, monkeypatch):
        handed = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: handed.append(ch.kraus) or init(ch))
        ch = make(0.3)
        assert len(handed) == 1 and ch.kraus is handed[0]
        assert ch.kraus.base is None and not ch.kraus.flags.writeable


class TestChannelStorage:
    def test_repr_names_label_kraus_count_and_dimensions(self):
        assert repr(bit_flip(0.2)) == "Channel(label='bitflip(p=0.2)', n_kraus=2, in=(2,), out=(2,))"
        composed = fix_control(switch(depolarizing(0.1), depolarizing(0.1)))
        assert repr(composed) == (
            f"Channel(label={composed.label!r}, n_kraus={composed.n_kraus}, in=(2,), out=(2, 2))"
        )

    def test_kraus_are_read_only_views_of_one_array(self):
        source = [k.copy() for k in bit_flip(0.3).kraus]
        ch = Channel(source, (2,), (2,))
        source[0][0, 0] = 5.0
        assert ch.kraus.shape == (2, 2, 2)
        assert not ch.kraus.flags.writeable
        assert ch.kraus[0][0, 0] == pytest.approx(np.sqrt(0.7))

    def test_writable_array_is_copied(self):
        kraus = bit_flip(0.3).kraus.copy()
        ch = Channel(kraus, (2,), (2,))
        kraus[0, 0, 0] = 5.0
        assert not np.shares_memory(ch.kraus, kraus)
        assert ch.kraus[0, 0, 0] == pytest.approx(np.sqrt(0.7))

    def test_read_only_view_of_a_writable_base_is_copied(self):
        base = bit_flip(0.3).kraus.copy()
        view = base[:]
        view.setflags(write=False)
        ch = Channel(view, (2,), (2,))
        base[0, 0, 0] = 5.0
        assert not np.shares_memory(ch.kraus, base)
        assert ch.kraus[0, 0, 0] == pytest.approx(np.sqrt(0.7))

    def test_read_only_owning_array_is_adopted(self):
        kraus = bit_flip(0.3).kraus.copy()
        kraus.setflags(write=False)
        assert Channel(kraus, (2,), (2,)).kraus is kraus

    @pytest.mark.parametrize(
        ("source", "convert"),
        [
            (lambda: depolarizing(0.3), np.asfortranarray),
            # 0.5 times a Pauli matrix is exact in complex64.
            (lambda: pauli(0.25, 0.25, 0.25), lambda k: k.astype(np.complex64)),
            (lambda: bit_flip(0.3), lambda k: k.real.copy()),
        ],
        ids=["fortran", "complex64", "float64"],
    )
    def test_read_only_array_of_another_layout_or_dtype_is_copied(self, source, convert):
        kraus = convert(source().kraus)
        kraus.setflags(write=False)
        ch = Channel(kraus, (2,), (2,))
        assert ch.kraus is not kraus
        assert ch.kraus.flags.c_contiguous and ch.kraus.dtype == np.complex128
        assert_allclose(ch.kraus, kraus)

    def test_public_rules_return_adopted_roots(self, monkeypatch):
        bf, pf = bit_flip(0.2), phase_flip(0.4)
        handed = []
        init = Channel.__post_init__
        monkeypatch.setattr(Channel, "__post_init__", lambda ch: handed.append(ch.kraus) or init(ch))
        roots = [switch(bf, pf), coherent_superposition(bf, (1, 0), pf, (0.6, 0.8))]
        assert len(handed) == 2
        for root, given_array in zip(roots, handed):
            assert root.kraus is given_array
            assert root.kraus.base is None and not root.kraus.flags.writeable

    @pytest.mark.parametrize("kind", list(SupermapKind))
    def test_composed_root_shares_memory_with_no_live_array(self, kind):
        ch = build_supermap(kind, Family.DEPOLARIZING, 0.3)
        assert ch.kraus.base is None and not ch.kraus.flags.writeable
        # No view of the root (and no other reference to it) outlives the channel.
        root = weakref.ref(ch.kraus)
        del ch
        assert root() is None

    def test_kraus_is_c_contiguous_whatever_the_input_layout(self):
        # Kernels on ``kraus`` round differently on other layouts.
        kraus = np.asfortranarray(np.stack(depolarizing(0.3).kraus))
        ch = Channel(kraus, (2,), (2,))
        assert ch.kraus.flags.c_contiguous
        assert_allclose(ch.kraus, kraus)

    def test_rejects_non_finite_entries(self):
        k = np.eye(2, dtype=complex)
        k[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            Channel((k,), (2,), (2,))

    @pytest.mark.parametrize(
        "entry",
        [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)],
        ids=["nan", "inf", "minus_inf", "imaginary_inf", "nan_real_part"],
    )
    @pytest.mark.parametrize("incomplete", [False, True], ids=["complete", "incomplete"])
    def test_non_finite_entry_is_named_before_completeness(self, entry, incomplete):
        kraus = bit_flip(0.3).kraus.copy()
        if incomplete:
            kraus[1] *= 2.0
        kraus[0, 1, 0] = entry
        with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
            Channel(kraus, (2,), (2,))

    def test_kraus_is_read_only_c_contiguous_complex128(self):
        ch = depolarizing(0.3)
        assert ch.kraus.shape == (4, 2, 2)
        assert ch.kraus.flags.c_contiguous and ch.kraus.dtype == np.complex128
        assert not ch.kraus.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[0][0, 0] = 1.0

    def test_kraus_indexes_iterates_and_stacks(self):
        source = [np.sqrt(0.7) * IDENTITY_2, np.sqrt(0.3) * SIGMA_X]
        ch = Channel(source, (2,), (2,))
        assert ch.n_kraus == len(ch.kraus) == 2
        assert_array_equal(ch.kraus[1], source[1])
        assert_array_equal(ch.kraus[-1], source[1])
        items = list(ch.kraus)
        assert [k.shape for k in items] == [(2, 2), (2, 2)]
        for k, expected in zip(items, source):
            assert_array_equal(k, expected)
        assert_array_equal(np.vstack(ch.kraus), np.vstack(source))

    @INVALID_DIMENSIONS
    def test_rejects_invalid_dimensions(self, input_dims, output_dims):
        # A fractional dimension is not truncated to a smaller subsystem.
        with pytest.raises(
            ValueError, match=r"^subsystem dimensions must be positive integers, got \(.*\)$"
        ):
            Channel((np.eye(2),), input_dims, output_dims)

    @INVALID_DIMENSIONS
    def test_dimension_error_is_the_one_partial_trace_raises(self, input_dims, output_dims):
        # One rule words both: the text names the tuple that fails.
        bad = input_dims if output_dims == (2,) else output_dims
        with pytest.raises(ValueError) as from_channel:
            Channel((np.eye(2),), input_dims, output_dims)
        with pytest.raises(ValueError) as from_partial_trace:
            partial_trace(np.eye(2) / 2, bad, keep=[0])
        assert str(from_channel.value) == str(from_partial_trace.value)

    def test_numpy_integer_dimensions_are_stored_as_ints(self):
        ch = Channel((np.eye(2),), (np.int64(2),), (np.uint8(2),))
        assert ch.input_dims == ch.output_dims == (2,)
        assert all(type(d) is int for d in ch.input_dims + ch.output_dims)

    def test_plain_and_other_integers_mix(self):
        # Plain ints pass unchanged; any other integer, a bool included, is stored as int.
        ch = Channel((np.eye(4),), (2, np.int64(2)), (4, True))
        assert (ch.input_dims, ch.output_dims) == ((2, 2), (4, 1))
        assert all(type(d) is int for d in ch.input_dims + ch.output_dims)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match \(2, 2\)"):
            Channel((np.eye(2), np.zeros((3, 3))), (2,), (2,))

    def test_rejects_wrong_shape_of_a_stacked_array(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match \(2, 2\)"):
            Channel(np.zeros((2, 3, 3)), (2,), (2,))

