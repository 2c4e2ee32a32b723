"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchcap import infotheory, supermaps
from switchcap.channels import Channel
from switchcap.supermaps import Family, concentrated_amplitudes, family_channels
from switchcap.qmatrix import partial_trace
from switchcap.supermaps import coherent_superposition, fold, switch

#: Four-leaf trees outside the six configurations, where a switch and a
#: superposition are siblings.
HYBRID_TREES = [
    ("coh", ("switch", 0, 1), ("coh", 2, 3)),
    ("coh", ("coh", 0, 1), ("switch", 2, 3)),
    ("switch", ("coh", 0, 1), ("switch", 2, 3)),
    ("switch", ("switch", 0, 1), ("coh", 2, 3)),
]


def projector(vec):
    """Rank-one projector ``|v><v|`` onto a (normalized) vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


def plus_state(n_qubits=1):
    """Density matrix of ``|+>^n``, the default control of ``fix_control`` on qubits."""
    dim = 2**n_qubits
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


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


def reference_build(kind, family, p, node_amps):
    """``compose`` as a fold over the public ``switch`` and
    ``coherent_superposition``, one checked channel per node.

    ``node_amps`` holds one vector per superposition in fold order, as
    ``compose`` takes it; ``None`` is the concentrated default.
    """
    chans = family_channels(family, p, kind.n_channels)
    vectors = iter(node_amps)

    def superpose(first, second):
        vec = next(vectors)
        return coherent_superposition(first, vec, second, vec)

    return fold(kind, chans.__getitem__, switch, superpose)


def drawn_node_amps(rng, kind, n):
    """One random complex unit vector per superposition of ``kind``, in fold order.

    ``n`` is the Kraus count of each leaf; each vector has one amplitude
    per Kraus operator of its node's children.
    """

    def merge(a, b, *vector):
        return a[0] * b[0], a[1] + b[1] + list(vector)

    _, vectors = fold(
        kind,
        lambda index: (n, []),
        merge,
        lambda a, b: merge(a, b, random_unit_vector(rng, a[0])),
    )
    return vectors


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


def choi(kraus):
    """Choi matrix ``sum_a vec(A_a) vec(A_a)^dag``, ``vec`` row-major, as a ``(o, i, o', i')`` array."""
    return np.einsum("aoi,apj->oipj", kraus, kraus.conj())


def root_fixed_choi(rule, first, second, vector=None):
    """Choi matrix of the root ``rule`` over ``first`` and ``second``, control fixed at ``|+...+>``.

    An independent reference for ``fix_control`` of a composed root: no
    root Kraus operator is formed. ``E = |+...+> (x) I`` embeds the target
    in the children's own controls, and ``J_XE`` is ``X``'s Choi matrix
    through ``E``. The root control splits the result into 2 x 2 blocks:

    - switch: ``(L (x) id)(J_KE) / 2`` and ``(K (x) id)(J_LE) / 2`` on the
      diagonal, ``sum J_L[a,b,f,g] J_K[b,e,c,f] E[e,x] conj(E[g,y]) / 2`` off
      it, a function of the children's Choi matrices alone;
    - superposition with ``vector`` (``None`` the concentrated default) for
      both children: ``J_KE / 2`` and ``J_LE / 2`` on the diagonal and
      ``v_K v_L^dag / 2`` off it, ``v = vec(F E)`` with ``F = sum conj(gamma_a)
      M_a`` over the child's operators ``M_a``.
    """
    d, d_t = first.d_in, first.input_dims[-1]
    d_c = d // d_t
    embed = np.kron(np.full((d_c, 1), d_c**-0.5), np.eye(d_t))
    jk, jl = choi(first.kraus), choi(second.kraus)

    def through(j):
        return np.einsum("befg,ex,gy->bxfy", j, embed, embed.conj())

    if rule == "switch":
        first_path = np.einsum("abcf,bxfy->axcy", jl, through(jk))
        second_path = np.einsum("abcf,bxfy->axcy", jk, through(jl))
        coherence = np.einsum("abfg,becf,ex,gy->axcy", jl, jk, embed, embed.conj())
    else:
        gamma = concentrated_amplitudes(first.n_kraus) if vector is None else np.asarray(vector)
        vk, vl = (np.tensordot(gamma.conj(), c.kraus, axes=1) @ embed for c in (first, second))
        first_path, second_path = through(jk), through(jl)
        coherence = np.einsum("ax,cy->axcy", vk, vl.conj())
    out = np.empty((2, d, d_t, 2, d, d_t), dtype=complex)
    out[0, :, :, 0], out[1, :, :, 1] = first_path, second_path
    out[0, :, :, 1], out[1, :, :, 0] = coherence, coherence.transpose(2, 3, 0, 1).conj()
    return 0.5 * out.reshape(2 * d * d_t, -1)


def tree_fixed_choi(kind, channels, node_amps):
    """:func:`root_fixed_choi` of the tree of ``kind``, vectors consumed as ``compose`` takes them.

    Inner nodes are built by the public ``switch`` and
    ``coherent_superposition``; only the root is folded at the Choi level.
    """
    vectors = iter(node_amps)

    def build(node):
        if isinstance(node, int):
            return channels[node]
        rule, first, second = node
        first, second = build(first), build(second)
        if rule == "switch":
            return switch(first, second)
        vec = next(vectors)
        return coherent_superposition(first, vec, second, vec)

    rule, first, second = supermaps._TREES[kind]
    first, second = build(first), build(second)
    return root_fixed_choi(rule, first, second, next(vectors) if rule == "coh" else None)


def reference_bfgs(x, gtol, maxiter):
    """The BFGS of ``infotheory._bfgs`` on numpy vectors and a 3 x 3 inverse Hessian.

    A reference for the scalar form: the same protocol (yield each point, be
    sent its value and gradient, return an ``infotheory._Run``), the same unit
    first step, Armijo backtracking, update rule and stops, with the update
    taken as ``a h a^T + s s^T / sy``, ``a = I - s y^T / sy``.
    """
    f, g = yield x
    g = np.asarray(g)
    nfev, nit, h = 1, 0, np.eye(len(x))
    while np.abs(g).max() > gtol and nit < maxiter:
        p = -h @ g
        slope = float(g @ p)
        if -slope <= infotheory._DECREASE_FLOOR * max(1.0, abs(f)):
            break
        step = 1.0
        while step >= 1e-6:
            f_new, g_new = yield x + step * p
            g_new = np.asarray(g_new)
            nfev += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            return infotheory._Run(x, f, nfev, nit, False)
        s, y = step * p, g_new - g
        x, f, g, nit = x + s, f_new, g_new, nit + 1
        if (sy := s @ y) > 0:
            a = np.eye(len(x)) - np.outer(s, y) / sy
            h = a @ h @ a.T + np.outer(s, s) / sy
    return infotheory._Run(x, f, nfev, nit, nit < maxiter)


@st.composite
def channel_pairs_and_states(draw):
    """Two random qubit ``(channel, vacuum amplitudes)`` pairs, and an input state.

    Each channel is an isometric Kraus set of 1-6 operators, so composed
    pairs fall on both sides of the ``d_in * d_out = 8`` compression
    threshold; the state is pure when its drawn rank is 1.
    """
    entries = st.floats(-1, 1)
    pairs = []
    for _ in range(2):
        n = draw(st.integers(1, 6))
        k = draw(arrays(np.float64, (2, 2 * n, 2), elements=entries))
        a = draw(arrays(np.float64, (2, n), elements=entries))
        amps = a[0] + 1j * a[1]
        assume(np.linalg.norm(amps) > 1e-3)
        isometry, _ = np.linalg.qr(k[0] + 1j * k[1])
        ch = Channel(tuple(isometry.reshape(n, 2, 2)), (2,), (2,))
        pairs.append((ch, amps / np.linalg.norm(amps)))
    rank = draw(st.integers(1, 2))
    g = draw(arrays(np.float64, (2, 2, rank), elements=entries))
    g = g[0] + 1j * g[1]
    assume(np.linalg.norm(g) > 1e-3)
    rho = g @ g.conj().T
    return pairs, rho / np.trace(rho)
