"""Named channel families and ready-made configuration builders.

These helpers assemble the supermap configurations studied by the
capacity sweeps: pick a family (which noise model each constituent
channel uses), a composition kind, and a noise parameter ``p``, and get
back the composed channel, either raw or with its control already fixed
at the uniform superposition.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .channels import (
    Channel,
    bit_flip,
    concentrated_amplitudes,
    depolarizing,
    phase_flip,
    vacuum_extend,
)
from .supermaps import _TREES, SupermapKind, coherent_superposition, fix_control, switch

__all__ = ["Family", "family_channels", "build_supermap", "build_fixed"]


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


def _leaf_models(family: Family, count: int) -> tuple:
    """The noise model of each of ``count`` constituent channels of ``family``."""
    models = _LEAF_MODELS[family]
    if count < 1 or count % len(models):
        raise ValueError(
            f"{family.token} needs a multiple of {len(models)} channels, got {count}"
        )
    return models * (count // len(models))


def family_channels(family: Family, p: float, count: int) -> tuple:
    """The ``count`` constituent channels of ``family`` at noise ``p``.

    Each distinct noise model is built once; channels are immutable, so
    the leaves that repeat it share one instance.
    """
    models = _leaf_models(family, count)
    built = {model: model(p) for model in dict.fromkeys(models)}
    return tuple(built[model] for model in models)


def _slot(node) -> str:
    """``outer_amps`` for a superposition of two superpositions, else ``amps``."""
    nested = all(not isinstance(child, int) and child[0] == "coh" for child in node[1:])
    return "outer_amps" if nested else "amps"


def _slots(node) -> set:
    """The amplitude arguments read by the superpositions of a tree."""
    if isinstance(node, int):
        return set()
    own = {_slot(node)} if node[0] == "coh" else set()
    return own | _slots(node[1]) | _slots(node[2])


def _compose(node, chans: Sequence[Channel], vacuum: dict) -> Channel:
    """Fold a composition tree with ``switch`` and ``coherent_superposition``."""
    if isinstance(node, int):
        return chans[node]
    pair = [_compose(child, chans, vacuum) for child in node[1:]]
    if node[0] == "switch":
        return switch(*pair)
    amps = vacuum[_slot(node)]
    return coherent_superposition(
        *(
            vacuum_extend(ch, concentrated_amplitudes(ch.n_kraus) if amps is None else amps)
            for ch in pair
        )
    )


def build_supermap(
    kind: SupermapKind,
    family: Family,
    p: float,
    amps: Optional[Sequence[complex]] = None,
    outer_amps: Optional[Sequence[complex]] = None,
) -> Channel:
    """Compose the configuration ``kind`` over channels of ``family`` at ``p``.

    The composition tree of ``kind`` is folded with ``switch`` and
    ``coherent_superposition``. Each superposition vacuum-extends its two
    channels with ``outer_amps`` if both are superpositions (the outer
    level of ``COH_OF_COH``, indexed by the inner composite Kraus indices),
    and with ``amps`` otherwise (so for ``COH_OF_SWITCH`` it is the outer
    vector over the inner switch Kraus indices). ``None`` selects the
    concentrated default ``(1, 0, ..., 0)``. A vector no superposition of
    ``kind`` reads is rejected.
    """
    tree = _TREES[kind]
    chans = family_channels(family, p, kind.n_channels)
    slots = _slots(tree)
    if outer_amps is not None and "outer_amps" not in slots:
        raise ValueError(f"outer_amps only applies to coc, not {kind.token}")
    if amps is not None and "amps" not in slots:
        raise ValueError(f"{kind.token} does not take vacuum amplitudes")
    return _compose(tree, chans, {"amps": amps, "outer_amps": outer_amps})


def build_fixed(
    kind: SupermapKind,
    family: Family,
    p: float,
    amps: Optional[Sequence[complex]] = None,
    outer_amps: Optional[Sequence[complex]] = None,
    control: Optional[np.ndarray] = None,
) -> Channel:
    """Composed configuration with its control fixed (default ``|+...+>``)."""
    return fix_control(build_supermap(kind, family, p, amps, outer_amps), control)
