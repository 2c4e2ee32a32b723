"""Configurations of channels: the switch, path superposition and their trees.

This one module knows a configuration: its kind, its composition tree, the
plan folded from that tree, the :class:`Family` of its leaves, and its
build (:func:`build_supermap`, and :func:`build_fixed` with the control fixed).
Two composition rules are provided. Two channels can be placed in an
indefinite causal order controlled by a qubit (``switch``) or routed
along superposed paths (``coherent_superposition``, with one vacuum
amplitude per Kraus operator of each channel). Both accept any pair of
equal-dimension square channels, composed ones included, so every
configuration is a tree of the two rules over its constituent channels.
``_TREES`` holds the tree of each of the six, and :func:`fold` is the one
reader of its encoding: :func:`compose` folds it into Kraus operators,
and :func:`switchcap.oracle.effective_flip_probability` into Bloch
z-multipliers. What a build needs besides the rules (the leaf count and
which superposition has another below it) is folded once per tree and
cached, so :func:`compose` checks its counts of channels and vectors, and
:func:`build_supermap` routes its vector, without walking the tree again.
Nothing keyed on ``p``, amplitudes or channel contents is cached.

Each rule is one private function on the stacked Kraus operators of its
two children, built by literal substitution, so the Kraus count multiplies
(m inner times n inner operators give m*n composed ones). ``switch`` and
``coherent_superposition`` wrap one checked
:class:`~switchcap.channels.Channel` around one application; :func:`compose`
folds a whole configuration with the same rules and checks only its root,
which adopts the array :func:`_controlled` allocated without a copy.
:func:`fix_control` hands its channel an array it allocated in the same way.

Ordering convention: composite spaces are control-major, ``control (x)
target`` with any outer control first, so a controlled operator
``|0><0| (x) a + |1><1| (x) b`` is the direct sum ``a (+) b`` and the
block index of a direct sum is the control basis index. The control
qubit of branch order "first argument first" is ``|0>``.

``fix_control`` freezes the control factors at a ket and yields the
rectangular channel on the bare target that the capacity optimizers
consume, with at most ``d_in * d_out`` Kraus operators. Only this fixed
channel is compressed: a superposition depends on the Kraus
representation of its channels and their vacuum amplitudes, not only on
the channels (Chiribella & Kristjansson 2019, "Quantum Shannon theory
with superpositions of trajectories"), so the composed channels keep
every operator.
"""

from __future__ import annotations

import functools
import operator
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .channels import Channel, bit_flip, depolarizing, phase_flip
from .qmatrix import unit_vector

__all__ = [
    "SupermapKind",
    "fold",
    "compose",
    "switch",
    "coherent_superposition",
    "concentrated_amplitudes",
    "fix_control",
    "Family",
    "leaf_models",
    "family_channels",
    "build_supermap",
    "build_fixed",
]


class SupermapKind(Enum):
    """The six channel-composition configurations."""

    SWITCH = "switch"
    COHERENT_SUP = "cohsup"
    SWITCH_OF_SWITCH = "sos"
    SWITCH_OF_COH = "soc"
    COH_OF_SWITCH = "cos"
    COH_OF_COH = "coc"

    @property
    def token(self) -> str:
        return self.value

    @property
    def n_channels(self) -> int:
        return _tree_plan(_TREES[self]).leaves


#: Composition tree of each configuration: nested ``(rule, first, second)``
#: nodes over constituent indices, ``rule`` being ``"switch"`` or ``"coh"``.
_TREES = {
    SupermapKind.SWITCH: ("switch", 0, 1),
    SupermapKind.COHERENT_SUP: ("coh", 0, 1),
    SupermapKind.SWITCH_OF_SWITCH: ("switch", ("switch", 0, 1), ("switch", 2, 3)),
    SupermapKind.SWITCH_OF_COH: ("switch", ("coh", 0, 1), ("coh", 2, 3)),
    SupermapKind.COH_OF_SWITCH: ("coh", ("switch", 0, 1), ("switch", 2, 3)),
    SupermapKind.COH_OF_COH: ("coh", ("coh", 0, 1), ("coh", 2, 3)),
}


def fold(
    kind: SupermapKind,
    leaf: Callable[[int], Any],
    switch_rule: Callable[[Any, Any], Any],
    coh_rule: Callable[[Any, Any], Any],
):
    """Fold the composition tree of ``kind`` bottom-up.

    A leaf becomes ``leaf(index)``, a switch node ``switch_rule(first,
    second)`` and a superposition node ``coh_rule(first, second)`` of its
    folded children. Children fold before their parent, first before
    second, so the rules are called in post-order.
    """
    return _fold_tree(_TREES[kind], leaf, switch_rule, coh_rule)


def _fold_tree(tree, leaf, switch_rule, coh_rule):
    """:func:`fold` over the tree ``tree`` itself."""

    def walk(node):
        if isinstance(node, int):
            return leaf(node)
        rule, first, second = node
        return (switch_rule if rule == "switch" else coh_rule)(walk(first), walk(second))

    return walk(tree)


class _Plan(NamedTuple):
    """What a build needs of a tree besides its rules, from one fold of it.

    ``nested`` holds one flag per superposition, in fold order: whether
    another superposition lies below it.
    """

    leaves: int
    nested: tuple


@functools.lru_cache(maxsize=16)
def _tree_plan(tree) -> _Plan:
    """The :class:`_Plan` of ``tree``, folded once per tree.

    It is keyed on the tree, not on its kind, so a tree put in ``_TREES``
    gets its own plan.
    """

    def merge(a, b, *node):
        return _Plan(a.leaves + b.leaves, a.nested + b.nested + node)

    def superpose(a, b):
        return merge(a, b, bool(a.nested or b.nested))

    return _fold_tree(tree, lambda index: _Plan(1, ()), merge, superpose)


class _Composite(NamedTuple):
    """The fields of a :class:`Channel`, before it is built and checked; the rules read either."""

    kraus: np.ndarray
    input_dims: tuple
    output_dims: tuple
    label: str


#: A rule's operand: a built ``Channel`` or a composite not yet built.
_Node = Union[Channel, _Composite]


def _require_square_equal(first: _Node, second: _Node) -> None:
    dims = {(c.kraus.shape[2], c.kraus.shape[1]) for c in (first, second)}
    if len(dims) != 1:
        raise ValueError(f"channels must share one dimension, got {sorted(dims)}")
    d_in, d_out = dims.pop()
    if d_in != d_out:
        raise ValueError("composition requires square Kraus operators")


def _controlled(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The operators ``first[i, j] (+) second[i, j]``, stacked in ``(i, j)`` order.

    The one ``(n1 * n2, 2d, 2d)`` output is allocated here, after its two
    ``(n1, n2, d, d)`` blocks, and both are written through a reshaped view.
    It owns its data and is returned read-only, so the :class:`Channel`
    built on it adopts it without a copy.
    """
    n1, n2, d, _ = first.shape
    out = np.zeros((n1 * n2, 2 * d, 2 * d), dtype=complex)
    blocks = out.reshape(n1, n2, 2 * d, 2 * d)
    blocks[..., :d, :d] = first
    blocks[..., d:, d:] = second
    out.setflags(write=False)
    return out


def _switch_kraus(k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Stacked ``L_j K_i (+) K_i L_j`` over pairs ``(i, j)``, ``i`` major.

    Every ``L_j K_i`` comes from one product of the ``L_j`` stacked as rows
    with the ``K_i`` side by side, ``(n2 d x d) @ (d x n1 d)``, whose block
    ``(j, i)`` is ``L_j K_i``; every ``K_i L_j`` comes from the swapped one.
    """
    n1, d, _ = k.shape
    n2 = len(l)
    lk = (l.reshape(n2 * d, d) @ k.transpose(1, 0, 2).reshape(d, n1 * d)).reshape(n2, d, n1, d)
    kl = (k.reshape(n1 * d, d) @ l.transpose(1, 0, 2).reshape(d, n2 * d)).reshape(n1, d, n2, d)
    return _controlled(lk.transpose(2, 0, 1, 3), kl.transpose(0, 2, 1, 3))


def _switch_rule(first: _Node, second: _Node) -> _Composite:
    _require_square_equal(first, second)
    return _Composite(
        _switch_kraus(first.kraus, second.kraus),
        (2,) + first.input_dims,
        (2,) + first.output_dims,
        f"switch[{first.label}; {second.label}]",
    )


@functools.lru_cache(maxsize=16, typed=True)
def concentrated_amplitudes(n: int) -> np.ndarray:
    """Default vacuum amplitudes ``(1, 0, ..., 0)`` of length ``n``.

    One vector is built per ``n`` and every call shares it, as a read-only
    view: a view of a read-only array cannot be made writable again. A
    length that is not an integer raises ``TypeError``, and one below 1
    ``ValueError``.
    """
    if operator.index(n) < 1:
        raise ValueError(f"vacuum amplitudes need at least one entry, got {n}")
    arr = np.zeros(n, dtype=complex)
    arr[0] = 1.0
    arr.setflags(write=False)
    return arr[:]


def _coh_rule(
    first: _Node, alpha: Optional[Sequence], second: _Node, beta: Optional[Sequence]
) -> _Composite:
    """The rule of :func:`coherent_superposition`, which checks ``alpha`` then ``beta``."""
    _require_square_equal(first, second)
    alpha, beta = (
        concentrated_amplitudes(len(c.kraus))
        if vec is None
        else unit_vector(vec, len(c.kraus), "vacuum amplitudes (one per Kraus operator)")
        for c, vec in ((first, alpha), (second, beta))
    )
    k, l = first.kraus[:, None], second.kraus[None, :]
    return _Composite(
        _controlled(k * beta[None, :, None, None], alpha[:, None, None, None] * l),
        (2,) + first.input_dims,
        (2,) + first.output_dims,
        f"cohsup[{first.label}; {second.label}]",
    )


def compose(kind: SupermapKind, channels: Sequence[Channel], node_amps: Sequence) -> Channel:
    """The configuration ``kind`` over ``channels``, one per leaf index.

    ``node_amps`` holds one vacuum-amplitude vector per superposition node
    in fold order, ``None`` selecting the concentrated default; it is the
    one way to give each node its own vector. Both children of a node get
    its vector, checked as :func:`coherent_superposition` checks it. Counts
    of channels or vectors that do not match the tree raise ``ValueError``
    before anything is composed; they come from the cached plan of the tree,
    so the rules are the one walk of it. Only the root becomes a checked
    :class:`Channel`. Inner nodes need no check: for complete ``{K_i}`` and
    ``{L_j}``, ``sum (L K)^dag (L K) = sum K^dag (sum L^dag L) K = I`` in
    either order, and unit amplitude vectors keep each superposition complete.
    """
    plan = _tree_plan(_TREES[kind])
    leaves, nodes = plan.leaves, len(plan.nested)
    if (len(channels), len(node_amps)) != (leaves, nodes):
        raise ValueError(
            f"{kind.token} takes {leaves} channels and {nodes} vacuum-amplitude vectors "
            f"(one per superposition), got {len(channels)} and {len(node_amps)}"
        )
    vectors = iter(node_amps)

    def superpose(first: _Node, second: _Node) -> _Composite:
        vec = next(vectors)
        return _coh_rule(first, vec, second, vec)

    return Channel(*fold(kind, channels.__getitem__, _switch_rule, superpose))


def switch(e1: Channel, e2: Channel) -> Channel:
    """Quantum switch of two channels, controlled by a fresh qubit.

    On control ``|0>`` the message traverses ``e1`` then ``e2``; on ``|1>``
    the order is reversed. The composed Kraus operators are
    ``|0><0| (x) L_j K_i + |1><1| (x) K_i L_j = L_j K_i (+) K_i L_j`` over
    all Kraus pairs.
    """
    return Channel(*_switch_rule(e1, e2))


def coherent_superposition(
    e1: Channel, alpha: Optional[Sequence], e2: Channel, beta: Optional[Sequence]
) -> Channel:
    """Coherent superposition of two channels with their vacuum amplitudes.

    Each channel acts on the message or on the vacuum: its extended Kraus
    operators are ``K_i (+) gamma_i`` on ``d_in + 1`` dimensions, the vacuum
    being the last basis vector, with one amplitude ``gamma_i`` per Kraus
    operator. ``alpha`` holds those of ``e1`` and ``beta`` those of ``e2``;
    each must be a unit vector (checked by
    :func:`~switchcap.qmatrix.unit_vector`), and ``None`` selects
    :func:`concentrated_amplitudes`, as in ``build_supermap``.

    The message travels path 0 through ``e1`` or path 1 through ``e2``;
    whichever channel is not traversed acts on the vacuum, contributing its
    amplitude as a scalar. The composed Kraus operators are the
    block-diagonal ``K_i beta_j (+) alpha_i L_j``, the direct-sum block
    index doubling as the path-control basis index. Raises ``ValueError``
    when the channels are not square of one dimension, or an amplitude
    vector has the wrong length or is not normalized.
    """
    return Channel(*_coh_rule(e1, alpha, e2, beta))


def fix_control(ch: Channel, control: Optional[np.ndarray] = None) -> Channel:
    """Freeze the control factors of a composed channel at a pure state.

    Returns the channel from the bare target space to the full output
    space, with Kraus operators ``A = M (|c> (x) I_target)``. The control
    ``|c>`` is a ket over the control factors, checked by ``unit_vector``;
    by default every amplitude is ``d_control ** -0.5`` (``|+...+>`` on qubits).

    When there are more than ``d_in * d_out`` operators ``A_a``, they are
    replaced by exactly ``d_in * d_out`` operators with the same Gram
    ``V^dag V`` of the stacked ``vec(A_a)``, hence the same channel. Below
    full Choi rank the extra ones have norms near sqrt(eps), about 1e-8, as
    the Gram squares the conditioning of ``V``. Capacities are unchanged:
    the complementary channel changes only by an isometry on the environment.

    The embedding ``|c> (x) I_target`` of the default control is built once
    per ``(d_control, d_target)``. The operators, plain or compressed, are
    written into one array allocated here and adopted by the returned
    channel without a copy.
    """
    if len(ch.input_dims) < 2:
        raise ValueError("channel has no control factor to fix")
    d_target = ch.input_dims[-1]
    d_control = ch.d_in // d_target
    if control is None:
        embed = _uniform_embedding(d_control, d_target)
    else:
        cvec = unit_vector(control, d_control, "control amplitudes")
        embed = _embedding(cvec, d_target).reshape(ch.d_in, d_target)
    n, d_out, _ = ch.kraus.shape
    rank = d_out * d_target
    stacked = ch.kraus.reshape(-1, ch.d_in)
    kraus = np.empty((min(n, rank), d_out, d_target), dtype=complex)
    if n > rank:
        # Rows sqrt(lam_i) u_i^dag have Gram sum_i lam_i u_i u_i^dag = V^dag V.
        v = (stacked @ embed).reshape(n, rank)
        eigvals, eigvecs = np.linalg.eigh(v.conj().T @ v)
        weights = np.sqrt(np.clip(eigvals, 0.0, None))[:, None]
        np.multiply(weights, eigvecs.conj().T, out=kraus.reshape(rank, rank))
    else:
        np.matmul(stacked, embed, out=kraus.reshape(n * d_out, d_target))
    kraus.setflags(write=False)
    return Channel(kraus, (d_target,), ch.output_dims, label=f"{ch.label} @ fixed control")


def _embedding(cvec: np.ndarray, d_target: int) -> np.ndarray:
    """``|c> (x) I_target`` as its ``(d_control, d_target, d_target)`` blocks ``c_k I``."""
    return cvec[:, None, None] * np.eye(d_target, dtype=complex)


@functools.lru_cache(maxsize=16)
def _uniform_embedding(d_control: int, d_target: int) -> np.ndarray:
    """The read-only ``(d_control * d_target, d_target)`` embedding of the default control.

    Built once per dimension pair and shared as a view, like
    :func:`concentrated_amplitudes`.
    """
    blocks = _embedding(np.full(d_control, d_control**-0.5, dtype=complex), d_target)
    blocks.setflags(write=False)
    return blocks.reshape(-1, d_target)


class Family(Enum):
    """Which noise model each constituent channel uses (see ``_LEAF_MODELS``).

    ``MIXED_ALTERNATING`` interleaves bit- and phase-flip channels (bit,
    phase, bit, phase); ``MIXED_BLOCK`` groups them (bit, bit, phase, phase),
    so it is defined for four-channel (nested) configurations only.
    """

    BIT_FLIP = "bitflip"
    PHASE_FLIP = "phaseflip"
    MIXED_ALTERNATING = "mixed_alt"
    MIXED_BLOCK = "mixed_block"
    DEPOLARIZING = "depolarizing"

    @property
    def token(self) -> str:
        return self.value


#: The noise models of each family's constituent channels, repeated in
#: order over a configuration's leaves (whose count they must divide).
_LEAF_MODELS = {
    Family.BIT_FLIP: (bit_flip,),
    Family.PHASE_FLIP: (phase_flip,),
    Family.MIXED_ALTERNATING: (bit_flip, phase_flip),
    Family.MIXED_BLOCK: (bit_flip, bit_flip, phase_flip, phase_flip),
    Family.DEPOLARIZING: (depolarizing,),
}


def leaf_models(family: Family, count: int) -> tuple:
    """The noise model of each of ``count`` constituent channels of ``family``.

    ``count`` must be a positive integer (one ``operator.index`` accepts)
    that the number of models of ``family`` divides; else ``ValueError``,
    which shows a count that is no integer by its ``repr``.
    """
    models = _LEAF_MODELS[family]
    try:
        repeats, rest = divmod(operator.index(count), len(models))
    except TypeError:
        repeats, rest, count = 0, 0, repr(count)
    if repeats < 1 or rest:
        raise ValueError(
            f"{family.token} needs a multiple of {len(models)} channels, got {count}"
        )
    return models * repeats


def family_channels(family: Family, p: float, count: int) -> tuple:
    """The ``count`` constituent channels of ``family`` at noise ``p``.

    Each distinct noise model is built once; channels are immutable, so
    the leaves that repeat it share one instance.
    """
    models = leaf_models(family, count)
    built = {model: model(p) for model in dict.fromkeys(models)}
    return tuple(built[model] for model in models)


def build_supermap(
    kind: SupermapKind, family: Family, p: float, amps: Optional[Sequence[complex]] = None
) -> Channel:
    """Compose the configuration ``kind`` over channels of ``family`` at ``p``.

    :func:`compose` folds the tree of ``kind`` into one checked ``Channel``.
    Each superposition gives both of its children one vacuum-amplitude
    vector: ``amps`` if no other superposition lies below it (so for
    ``COH_OF_SWITCH`` it is the outer vector over the inner switch Kraus
    indices), else the concentrated default ``(1, 0, ..., 0)`` that
    ``amps=None`` selects everywhere. ``amps`` is rejected for a ``kind``
    without a superposition. Any other choice of vectors, one per node, goes
    through :func:`compose`.
    """
    plan = _tree_plan(_TREES[kind])
    chans = family_channels(family, p, plan.leaves)
    if amps is not None and not plan.nested:
        raise ValueError(f"{kind.token} does not take vacuum amplitudes")
    return compose(kind, chans, [None if below else amps for below in plan.nested])


def build_fixed(
    kind: SupermapKind, family: Family, p: float, amps: Optional[Sequence[complex]] = None
) -> Channel:
    """Composed configuration with its control fixed at ``|+...+>``."""
    return fix_control(build_supermap(kind, family, p, amps))
