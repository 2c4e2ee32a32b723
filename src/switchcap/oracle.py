"""Closed-form reference capacities for the composed configurations.

These expressions are the ground truth the numerical optimizer is
validated against. Every classical entry reduces to the binary-symmetric
form ``1 - H2(f)`` where ``f`` is the probability that computational-basis
signaling is flipped by the target marginal of the configuration; the
expressions are nevertheless implemented in their original analytic
structure (inverse hyperbolic functions, natural logs converted to bits)
so that the comparison with :func:`effective_flip_probability` is a real
cross-check rather than a tautology.

Removable singularities are evaluated as limits: ``p log(p/(1-p))``
vanishes at the endpoints, and the ``ArcTanh``/``arccoth`` divergences at
``p in {0, 1}`` and ``p = 3/4`` are always paired with vanishing
prefactors, so the affected term contributes zero there.

For the switch-of-switch configuration no independent analytic source is
available, so its entries are derived from the composition rules (the
target marginal is the four-fold sequential product of the constituent
channels); they carry the same ``1 - H2(f)`` form as everything else.

One quantum entry exists: the switch of two bit-flip channels. Its
decimal constants are ``2/ln 2`` and ``1/ln 2`` implemented exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Tuple

from .channels import bit_flip, depolarizing, phase_flip
from .qmatrix import probability
from .supermaps import Family, SupermapKind, fold, leaf_models

__all__ = [
    "CapacityType",
    "ClosedFormId",
    "closed_form",
    "list_available",
    "effective_flip_probability",
    "binary_entropy",
]

_LN2 = math.log(2.0)
_TWO_OVER_LN2 = 2.0 / _LN2
_ONE_OVER_LN2 = 1.0 / _LN2


class CapacityType(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"

    @property
    def token(self) -> str:
        return self.value


@dataclass(frozen=True)
class ClosedFormId:
    """Key of one closed-form expression: configuration, family, capacity."""

    configuration: SupermapKind
    family: Family
    capacity_type: CapacityType

    def __str__(self):
        return (
            f"{self.configuration.token}/{self.family.token}/"
            f"{self.capacity_type.token}"
        )


def binary_entropy(f: float) -> float:
    """Binary entropy ``H2(f)`` in bits, with the 0 log 0 = 0 convention."""
    if f <= 0.0 or f >= 1.0:
        return 0.0
    return float(-f * math.log2(f) - (1.0 - f) * math.log2(1.0 - f))


def _bsc_capacity(f: float) -> float:
    return 1.0 - binary_entropy(f)


# --- classical expressions, in their original analytic structure ----------


def _switch_bitflip(p: float) -> float:
    """((4p(p-1) ArcTanh((1-2p)^2) + ln(2+4p(p-1))) / ln 2; endpoints -> 1."""
    if p in (0.0, 1.0):
        return 1.0
    return (
        4 * p * (p - 1) * math.atanh((1 - 2 * p) ** 2) + math.log(2 + 4 * p * (p - 1))
    ) / _LN2


def _unit(p: float) -> float:
    """Phase-flip families: capacity 1 at every noise level."""
    return 1.0


def _pair_mixed_log_ratio(p: float) -> float:
    """(ln(2-2p) + p ln(p/(1-p))) / ln 2; endpoints -> 1."""
    if p in (0.0, 1.0):
        return 1.0
    return (math.log(2 - 2 * p) + p * math.log(p / (1 - p))) / _LN2


def _entropy_form(p: float) -> float:
    """1 + p log2 p + (1-p) log2(1-p); endpoints -> 1."""
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)


def _pair_mixed_halfsum(p: float) -> float:
    """((2-p) ln(2-p) + p ln p) / ln 4; p = 0 -> 1."""
    if p == 0.0:
        return 1.0
    return ((2 - p) * math.log(2 - p) + p * math.log(p)) / math.log(4.0)


def _nested_mixed_halfsum(p: float) -> float:
    """((2-p) log2(2-p) + p log2 p) / 2; p = 0 -> 1."""
    if p == 0.0:
        return 1.0
    return 0.5 * ((2 - p) * math.log2(2 - p) + p * math.log2(p))


def _soc_mixed_alternating(p: float) -> float:
    """(2p(p-1) ArcTanh(1+2p(p-1)) + ln(2+2p(p-1))) / ln 2; endpoints -> 1."""
    if p in (0.0, 1.0):
        return 1.0
    x = 2 * p * (p - 1)
    return (x * math.atanh(1 + x) + math.log(2 + x)) / _LN2


def _cos_mixed_block(p: float) -> float:
    """1 + log2(1+p(p-1)) + 2p(p-1) ArcTanh(1+2p(p-1)) / ln 2; endpoints -> 1."""
    if p in (0.0, 1.0):
        return 1.0
    y = p * (p - 1)
    return 1.0 + math.log2(1 + y) + 2 * y * math.atanh(1 + 2 * y) / _LN2


def _pair_depolarizing(p: float) -> float:
    """1 - 4p ArcTanh(1-4p/3)/ln 8 + 3 ln(1-2p/3)/ln 8; p = 0 -> 1."""
    if p == 0.0:
        return 1.0
    ln8 = math.log(8.0)
    return (
        1.0
        - 4 * p * math.atanh(1 - 4 * p / 3) / ln8
        + 3 * math.log(1 - 2 * p / 3) / ln8
    )


def _depolarizing_square_term(p: float) -> float:
    """8p(2p-3) arccoth(9/(3-4p)^2), evaluated as a limit where singular."""
    prefactor = 8 * p * (2 * p - 3)
    x = (3 - 4 * p) ** 2
    if prefactor == 0.0 or x == 0.0:
        # arccoth argument diverges (p = 3/4) or the prefactor vanishes
        # (p = 0); either way the product's limit is zero.
        return 0.0
    return prefactor * math.atanh(x / 9.0)


def _switch_depolarizing(p: float) -> float:
    """(8p(2p-3) arccoth(9/(3-4p)^2) + ln 512 + 9 ln(1+4p(2p-3)/9)) / ln 512."""
    ln512 = math.log(512.0)
    return (
        _depolarizing_square_term(p) + ln512 + 9 * math.log(1 + (4 / 9) * p * (2 * p - 3))
    ) / ln512


def _nested_depolarizing(p: float) -> float:
    """1 + 8p(2p-3) arccoth(9/(3-4p)^2)/(9 ln 2) + log2(1+4p(2p-3)/9)."""
    return (
        1.0
        + _depolarizing_square_term(p) / (9 * _LN2)
        + math.log2(1 + (4 / 9) * p * (2 * p - 3))
    )


# --- switch-of-switch, derived from the composition rules -----------------


def _sos_bitflip(p: float) -> float:
    return _bsc_capacity((1 - (1 - 2 * p) ** 4) / 2)


def _sos_mixed(p: float) -> float:
    return _bsc_capacity(2 * p * (1 - p))


def _sos_depolarizing(p: float) -> float:
    return _bsc_capacity((1 - (1 - 4 * p / 3) ** 4) / 2)


# --- quantum ---------------------------------------------------------------


def _quantum_switch_bitflip(p: float) -> float:
    """1 - (2/ln2) p(p-1) ln(-2p(p-1)) + (1/ln2)(1+2p(p-1)) ln(1+2p(p-1))."""
    y = p * (p - 1)
    first = 0.0 if y == 0.0 else -_TWO_OVER_LN2 * y * math.log(-2 * y)
    z = 1 + 2 * y
    second = 0.0 if z <= 0.0 else _ONE_OVER_LN2 * z * math.log(z)
    return 1.0 + first + second


# --- registry ---------------------------------------------------------------

_C = CapacityType.CLASSICAL
_Q = CapacityType.QUANTUM

_REGISTRY: Dict[ClosedFormId, Callable[[float], float]] = {}


def _register(kind: SupermapKind, entries: List[Tuple[Family, Callable]]):
    for family, fn in entries:
        _REGISTRY[ClosedFormId(kind, family, _C)] = fn


_register(
    SupermapKind.SWITCH,
    [
        (Family.BIT_FLIP, _switch_bitflip),
        (Family.PHASE_FLIP, _unit),
        (Family.MIXED_ALTERNATING, _pair_mixed_log_ratio),
        (Family.DEPOLARIZING, _switch_depolarizing),
    ],
)
_register(
    SupermapKind.COHERENT_SUP,
    [
        (Family.BIT_FLIP, _pair_mixed_log_ratio),
        (Family.PHASE_FLIP, _unit),
        (Family.MIXED_ALTERNATING, _pair_mixed_halfsum),
        (Family.DEPOLARIZING, _pair_depolarizing),
    ],
)
_register(
    SupermapKind.SWITCH_OF_SWITCH,
    [
        (Family.BIT_FLIP, _sos_bitflip),
        (Family.PHASE_FLIP, _unit),
        (Family.MIXED_ALTERNATING, _sos_mixed),
        (Family.MIXED_BLOCK, _sos_mixed),
        (Family.DEPOLARIZING, _sos_depolarizing),
    ],
)
_register(
    SupermapKind.SWITCH_OF_COH,
    [
        (Family.BIT_FLIP, _switch_bitflip),
        (Family.PHASE_FLIP, _unit),
        (Family.MIXED_ALTERNATING, _soc_mixed_alternating),
        (Family.MIXED_BLOCK, _entropy_form),
        (Family.DEPOLARIZING, _nested_depolarizing),
    ],
)
_register(
    SupermapKind.COH_OF_SWITCH,
    [
        (Family.BIT_FLIP, _switch_bitflip),
        (Family.PHASE_FLIP, _unit),
        (Family.MIXED_ALTERNATING, _entropy_form),
        (Family.MIXED_BLOCK, _cos_mixed_block),
        (Family.DEPOLARIZING, _nested_depolarizing),
    ],
)
_register(
    SupermapKind.COH_OF_COH,
    [
        (Family.BIT_FLIP, _entropy_form),
        (Family.PHASE_FLIP, _unit),
        (Family.MIXED_ALTERNATING, _nested_mixed_halfsum),
        (Family.MIXED_BLOCK, _nested_mixed_halfsum),
        (Family.DEPOLARIZING, _pair_depolarizing),
    ],
)
_REGISTRY[ClosedFormId(SupermapKind.SWITCH, Family.BIT_FLIP, _Q)] = (
    _quantum_switch_bitflip
)


def list_available() -> List[ClosedFormId]:
    """All ids with a closed form, in stable registration order."""
    return list(_REGISTRY)


def closed_form(form_id: ClosedFormId, p: float) -> float:
    """Evaluate the closed-form capacity for ``form_id`` at noise ``p``, in bits."""
    p = probability(p, "p")
    fn = _REGISTRY.get(form_id)
    if fn is None:
        available = ", ".join(str(i) for i in _REGISTRY)
        raise ValueError(f"no closed form for {form_id}; available: {available}")
    return float(fn(p))


# --- independent flip-probability model -------------------------------------

#: Bloch z-multiplier of each catalog noise model at ``p``, derived by hand.
_Z_MULTIPLIERS = {
    bit_flip: lambda p: 1.0 - 2 * p,
    phase_flip: lambda p: 1.0,
    depolarizing: lambda p: 1.0 - 4 * p / 3,
}


def effective_flip_probability(kind: SupermapKind, family: Family, p: float) -> float:
    """Flip probability of computational signaling through the target marginal.

    Tracing the controls reduces each configuration to an algebra on the
    Bloch z-multipliers of its constituents, which
    :func:`~switchcap.supermaps.fold` folds over the composition tree into
    one multiplier per control branch. A leaf is one branch; a
    superposition lists its children's branches; a switch multiplies them
    branch by branch (both orders give the same product for these
    commuting channels) and lists each product twice, once per order. The
    target marginal averages over every control branch, and the flip
    probability is ``(1 - eta_z) / 2`` of that average.
    """
    etas = [_Z_MULTIPLIERS[m](p) for m in leaf_models(family, kind.n_channels)]
    branches = fold(
        kind,
        lambda index: [etas[index]],
        lambda left, right: [a * b for a, b in zip(left, right, strict=True) for _ in range(2)],
        lambda left, right: left + right,
    )
    return (1.0 - sum(branches) / len(branches)) / 2.0
