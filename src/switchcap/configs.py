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
from .supermaps import SupermapKind, coherent_superposition, fix_control, switch

__all__ = ["Family", "family_channels", "build_supermap", "build_fixed"]


class Family(Enum):
    """Which noise model each constituent channel uses.

    The two mixed families only differ for four-channel (nested)
    configurations: ``MIXED_ALTERNATING`` interleaves bit- and phase-flip
    channels (bit, phase, bit, phase) while ``MIXED_BLOCK`` groups them
    (bit, bit, phase, phase). For two-channel configurations the
    alternating family degenerates to one bit-flip plus one phase-flip
    channel and the block family is not defined.
    """

    BIT_FLIP = "bitflip"
    PHASE_FLIP = "phaseflip"
    MIXED_ALTERNATING = "mixed_alt"
    MIXED_BLOCK = "mixed_block"
    DEPOLARIZING = "depolarizing"

    @property
    def token(self) -> str:
        return self.value


def family_channels(family: Family, p: float, count: int) -> tuple:
    """The ``count`` constituent channels (count is 2 or 4) at noise ``p``."""
    if count not in (2, 4):
        raise ValueError(f"count must be 2 or 4, got {count}")
    if family is Family.BIT_FLIP:
        return tuple(bit_flip(p) for _ in range(count))
    if family is Family.PHASE_FLIP:
        return tuple(phase_flip(p) for _ in range(count))
    if family is Family.DEPOLARIZING:
        return tuple(depolarizing(p) for _ in range(count))
    if family is Family.MIXED_ALTERNATING:
        if count == 2:
            return (bit_flip(p), phase_flip(p))
        return (bit_flip(p), phase_flip(p), bit_flip(p), phase_flip(p))
    if family is Family.MIXED_BLOCK:
        if count == 2:
            raise ValueError(
                "mixed_block needs four channels; use a nested configuration"
            )
        return (bit_flip(p), bit_flip(p), phase_flip(p), phase_flip(p))
    raise ValueError(f"unknown family {family}")


def _superpose(pair: Sequence[Channel], amps) -> Channel:
    """Superpose ``pair``, each vacuum-extended with ``amps`` (default concentrated)."""
    return coherent_superposition(
        *(
            vacuum_extend(ch, concentrated_amplitudes(ch.n_kraus) if amps is None else amps)
            for ch in pair
        )
    )


_NO_AMPS = {
    SupermapKind.SWITCH: "switch",
    SupermapKind.SWITCH_OF_SWITCH: "switch of switch",
}


def build_supermap(
    kind: SupermapKind,
    family: Family,
    p: float,
    amps: Optional[Sequence[complex]] = None,
    outer_amps: Optional[Sequence[complex]] = None,
) -> Channel:
    """Compose the configuration ``kind`` over channels of ``family`` at ``p``.

    Nested kinds apply an inner layer (two switches or two superpositions
    of the family's channels) and then an outer ``switch`` or
    ``coherent_superposition`` over the inner pair.

    ``amps`` supplies vacuum amplitudes where the construction extends
    channels onto the vacuum sector (all coherent-superposition branches;
    for ``COH_OF_SWITCH`` it is the outer amplitude vector over the inner
    switch Kraus indices). ``outer_amps`` sets the outer vector of
    ``COH_OF_COH``, indexed by the inner composite Kraus indices. ``None``
    selects the concentrated default ``(1, 0, ..., 0)`` everywhere.
    """
    chans = family_channels(family, p, kind.n_channels)
    if outer_amps is not None and kind is not SupermapKind.COH_OF_COH:
        raise ValueError(f"outer_amps only applies to coc, not {kind.token}")
    if amps is not None and kind in _NO_AMPS:
        raise ValueError(f"{_NO_AMPS[kind]} does not take vacuum amplitudes")
    if kind is SupermapKind.SWITCH:
        return switch(*chans)
    if kind is SupermapKind.COHERENT_SUP:
        return _superpose(chans, amps)
    pairs = (chans[:2], chans[2:])
    if kind in (SupermapKind.SWITCH_OF_SWITCH, SupermapKind.COH_OF_SWITCH):
        inner = tuple(switch(*pair) for pair in pairs)
    else:
        inner = tuple(_superpose(pair, amps) for pair in pairs)
    if kind in (SupermapKind.SWITCH_OF_SWITCH, SupermapKind.SWITCH_OF_COH):
        return switch(*inner)
    return _superpose(inner, amps if kind is SupermapKind.COH_OF_SWITCH else outer_amps)


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
