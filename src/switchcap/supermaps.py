"""Higher-order compositions of channels: the switch and path superposition.

Two composition rules are provided. Two channels can be placed in an
indefinite causal order controlled by a qubit (``switch``) or routed
along superposed paths (``coherent_superposition`` of vacuum-extended
channels). Both accept any pair of equal-dimension square channels,
composed ones included, so every configuration is a tree of the two
rules over its constituent channels. ``_TREES`` holds the tree of each
of the six, and :func:`fold` is the one reader of its encoding:
:func:`switchcap.configs.build_supermap` folds it into Kraus operators,
and :func:`switchcap.oracle.effective_flip_probability` into Bloch
z-multipliers.

Every composition returns an ordinary :class:`~switchcap.channels.Channel`
whose Kraus operators are built by literal substitution of the inner Kraus
lists, so the Kraus count multiplies (m inner times n inner operators give
m*n composed ones).

Ordering convention: composite spaces are control-major, ``control (x)
target`` with any outer control first, so a controlled operator
``|0><0| (x) a + |1><1| (x) b`` is the direct sum ``a (+) b`` and the
block index of a direct sum is the control basis index. The control
qubit of branch order "first argument first" is ``|0>``.

``fix_control`` freezes the control factors at a ket, uniform by default,
yielding a rectangular-Kraus channel from the bare target space to the
full output space, which is what the capacity optimizers consume. It
returns at most ``d_in * d_out`` Kraus operators (16 for a nested
composition over qubits, whatever the composed count). Only this fixed
channel is compressed: a composition built from vacuum-extended channels
depends on their Kraus representation, not only on the channels
(Chiribella & Kristjansson 2019, "Quantum Shannon theory with
superpositions of trajectories"), so the composed channels keep every
operator. The fixed channel is rectangular, so it cannot be vacuum
extended or composed further.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .channels import Channel, VacuumExtendedChannel
from .qmatrix import unit_vector

__all__ = [
    "SupermapKind",
    "fold",
    "switch",
    "coherent_superposition",
    "fix_control",
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
        return fold(self, lambda index: 1, operator.add, operator.add)


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

    def walk(node):
        if isinstance(node, int):
            return leaf(node)
        rule, first, second = node
        return (switch_rule if rule == "switch" else coh_rule)(walk(first), walk(second))

    return walk(_TREES[kind])


def _require_square_equal(channels: Sequence[Channel]) -> None:
    dims = {(c.d_in, c.d_out) for c in channels}
    if len(dims) != 1:
        raise ValueError(f"channels must share one dimension, got {sorted(dims)}")
    d_in, d_out = dims.pop()
    if d_in != d_out:
        raise ValueError("composition requires square Kraus operators")


def _controlled(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The operators ``first[i, j] (+) second[i, j]``, stacked in ``(i, j)`` order."""
    n1, n2, d, _ = first.shape
    out = np.zeros((n1, n2, 2 * d, 2 * d), dtype=complex)
    out[..., :d, :d] = first
    out[..., d:, d:] = second
    return out.reshape(n1 * n2, 2 * d, 2 * d)


def switch(e1: Channel, e2: Channel) -> Channel:
    """Quantum switch of two channels, controlled by a fresh qubit.

    On control ``|0>`` the message traverses ``e1`` then ``e2``; on ``|1>``
    the order is reversed. The composed Kraus operators are
    ``|0><0| (x) L_j K_i + |1><1| (x) K_i L_j = L_j K_i (+) K_i L_j`` over
    all Kraus pairs.
    """
    _require_square_equal((e1, e2))
    k, l = e1.stacked[:, None], e2.stacked[None, :]
    return Channel(
        _controlled(l @ k, k @ l),
        (2,) + e1.input_dims,
        (2,) + e1.output_dims,
        label=f"switch[{e1.label}; {e2.label}]",
    )


def coherent_superposition(
    e1: VacuumExtendedChannel, e2: VacuumExtendedChannel
) -> Channel:
    """Coherent superposition of two vacuum-extended channels.

    The message travels path 0 through the first channel or path 1 through
    the second; whichever channel is not traversed acts on the vacuum,
    contributing its amplitude as a scalar. With amplitudes ``alpha_i``
    (first channel) and ``beta_j`` (second), the composed Kraus operators
    are the block-diagonal ``K_i beta_j (+) alpha_i L_j``, the direct-sum
    block index doubling as the path-control basis index.
    """
    base1, base2 = e1.base, e2.base
    _require_square_equal((base1, base2))
    alpha = e1.amps[:, None, None, None]
    beta = e2.amps[None, :, None, None]
    return Channel(
        _controlled(base1.stacked[:, None] * beta, alpha * base2.stacked[None, :]),
        (2,) + base1.input_dims,
        (2,) + base1.output_dims,
        label=f"cohsup[{base1.label}; {base2.label}]",
    )


def fix_control(ch: Channel, control: Optional[np.ndarray] = None) -> Channel:
    """Freeze the control factors of a composed channel at a pure state.

    Returns the channel from the bare target space to the full output
    space, with Kraus operators ``A = M (|c> (x) I_target)``. The control
    ``|c>`` is a ket over the control factors, checked by ``unit_vector``;
    by default every amplitude is ``d_control ** -0.5`` (``|+...+>`` on qubits).

    When there are more than ``d_in * d_out`` operators ``A_a``, they are
    replaced by exactly ``d_in * d_out`` operators with the same Gram
    matrix ``V^dag V`` of the stacked ``vec(A_a)``, hence the same channel;
    where its Choi rank is smaller, the extra operators are zero up to
    rounding. Capacities are unchanged: the complementary channel changes
    only by an isometry on the environment.
    """
    if len(ch.input_dims) < 2:
        raise ValueError("channel has no control factor to fix")
    d_target = ch.input_dims[-1]
    d_control = ch.d_in // d_target
    if control is None:
        control = np.full(d_control, d_control**-0.5)
    cvec = unit_vector(control, d_control, "control amplitudes")
    embed = (cvec[:, None, None] * np.eye(d_target, dtype=complex)).reshape(ch.d_in, d_target)
    n, d_out, _ = ch.stacked.shape
    kraus = (ch.stacked.reshape(-1, ch.d_in) @ embed).reshape(n, d_out, d_target)
    if n > d_out * d_target:
        # Rows sqrt(lam_i) u_i^dag have Gram sum_i lam_i u_i u_i^dag = V^dag V.
        v = kraus.reshape(n, -1)
        eigvals, eigvecs = np.linalg.eigh(v.conj().T @ v)
        rows = np.sqrt(np.clip(eigvals, 0.0, None))[:, None] * eigvecs.conj().T
        kraus = rows.reshape(-1, d_out, d_target)
    return Channel(
        kraus,
        (d_target,),
        ch.output_dims,
        label=f"{ch.label} @ fixed control",
    )
