"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchcap.channels import Channel, vacuum_extend
from switchcap.configs import Family
from switchcap.qmatrix import partial_trace


def projector(vec):
    """Rank-one projector ``|v><v|`` onto a (normalized) vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


def direct_sum(a, b):
    """Block-diagonal matrix ``diag(a, b)`` with exactly zero off-diagonal blocks."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def random_density(rng, dim):
    """Random full-rank density matrix via a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pure(rng, dim):
    """Random pure-state density matrix."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(rng, dim):
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng, n):
    """Complex vector of unit norm, e.g. vacuum amplitudes."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def eligible_families(kind):
    """The families defined for ``kind``: ``MIXED_BLOCK`` needs four channels."""
    return [f for f in Family if not (kind.n_channels == 2 and f is Family.MIXED_BLOCK)]


def random_channel(rng, d_in, d_out, n):
    """Random channel of ``n`` Kraus operators cut from a Ginibre isometry."""
    g = rng.normal(size=(n * d_out, d_in)) + 1j * rng.normal(size=(n * d_out, d_in))
    isometry, _ = np.linalg.qr(g)
    return Channel(isometry.reshape(n, d_out, d_in), (d_in,), (d_out,))


def stinespring_marginals(ch, rho):
    """Output and environment marginals of ``V rho V^dag``, ``V = sum_a |a>_E (x) K_a``.

    An independent reference for ``apply`` and ``complementary_output``.
    """
    v = np.vstack(ch.kraus)
    joint = v @ rho @ v.conj().T
    dims = (ch.n_kraus, ch.d_out)
    return partial_trace(joint, dims, keep=[1]), partial_trace(joint, dims, keep=[0])


def uncompressed_fixed(ch):
    """Reference for ``fix_control`` at ``|+...+>``: every ``M_a (|+...+> (x) I)``.

    Keeps one Kraus operator per composed one, where ``fix_control``
    returns at most ``d_in * d_out``.
    """
    d_target = ch.input_dims[-1]
    d_control = ch.d_in // d_target
    embed = np.kron(np.full((d_control, 1), d_control**-0.5), np.eye(d_target))
    return Channel(tuple(m @ embed for m in ch.kraus), (d_target,), ch.output_dims)


@st.composite
def channel_pairs_and_states(draw):
    """Two random qubit channels with vacuum amplitudes, and an input state.

    Each channel is an isometric Kraus set of 1-6 operators, so composed
    pairs fall on both sides of the ``d_in * d_out = 8`` compression
    threshold; the state is pure when its drawn rank is 1.
    """
    entries = st.floats(-1, 1)
    extended = []
    for _ in range(2):
        n = draw(st.integers(1, 6))
        k = draw(arrays(np.float64, (2, 2 * n, 2), elements=entries))
        a = draw(arrays(np.float64, (2, n), elements=entries))
        amps = a[0] + 1j * a[1]
        assume(np.linalg.norm(amps) > 1e-3)
        isometry, _ = np.linalg.qr(k[0] + 1j * k[1])
        ch = Channel(tuple(isometry.reshape(n, 2, 2)), (2,), (2,))
        extended.append(vacuum_extend(ch, amps / np.linalg.norm(amps)))
    rank = draw(st.integers(1, 2))
    g = draw(arrays(np.float64, (2, 2, rank), elements=entries))
    g = g[0] + 1j * g[1]
    assume(np.linalg.norm(g) > 1e-3)
    rho = g @ g.conj().T
    return extended, rho / np.trace(rho)
