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

from .channels import Channel, bit_flip, depolarizing, phase_flip
from .supermaps import SupermapKind, compose, fix_control

__all__ = ["Family", "leaf_models", "family_channels", "build_supermap", "build_fixed"]


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
    models = leaf_models(family, count)
    built = {model: model(p) for model in dict.fromkeys(models)}
    return tuple(built[model] for model in models)


def build_supermap(
    kind: SupermapKind, family: Family, p: float, amps: Optional[Sequence[complex]] = None
) -> Channel:
    """Compose the configuration ``kind`` over channels of ``family`` at ``p``.

    :func:`~switchcap.supermaps.compose` folds the tree of ``kind`` into one
    checked ``Channel``. Each superposition gives both of its children one
    vacuum-amplitude vector: ``amps`` if no other superposition lies below
    it (so for ``COH_OF_SWITCH`` it is the outer vector over the inner
    switch Kraus indices), else the concentrated default ``(1, 0, ..., 0)``
    that ``amps=None`` selects everywhere. ``amps`` is rejected for a
    ``kind`` without a superposition. Any other choice of vectors, one per
    node, goes through :func:`~switchcap.supermaps.compose`. The leaf count
    and this routing come from the plan ``supermaps`` folds once per tree,
    so a build walks its tree once, for the rules.
    """
    plan = kind._plan
    chans = family_channels(family, p, plan.leaves)
    if amps is not None and not plan.nested:
        raise ValueError(f"{kind.token} does not take vacuum amplitudes")
    return compose(kind, chans, [None if below else amps for below in plan.nested])


def build_fixed(
    kind: SupermapKind, family: Family, p: float, amps: Optional[Sequence[complex]] = None
) -> Channel:
    """Composed configuration with its control fixed at ``|+...+>``."""
    return fix_control(build_supermap(kind, family, p, amps))
