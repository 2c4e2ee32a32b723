"""Quantum switch and coherent-superposition channel compositions.

Build noisy qubit channels from Kraus operators, compose them into the
six switch/path-superposition configurations, and estimate one-shot
classical and quantum capacities, validated against closed-form
reference expressions.
"""

from .channels import (
    Channel,
    VacuumExtendedChannel,
    apply,
    bit_flip,
    complementary_output,
    completeness_defect,
    concentrated_amplitudes,
    depolarizing,
    identity_channel,
    normalized_amplitudes,
    pauli,
    phase_flip,
    vacuum_extend,
)
from .configs import Family, build_fixed, build_supermap, family_channels
from .infotheory import (
    CapacityResult,
    Ensemble,
    OptimizerConfig,
    classical_capacity,
    coherent_information,
    exchange_entropy,
    holevo_information,
    quantum_capacity,
    target_marginal,
)
from .oracle import (
    CapacityType,
    ClosedFormId,
    closed_form,
    effective_flip_probability,
    list_available,
)
from .qmatrix import eig_hermitian, partial_trace, plus_state, von_neumann_entropy
from .supermaps import SupermapKind, coherent_superposition, fix_control, switch

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "VacuumExtendedChannel",
    "apply",
    "bit_flip",
    "phase_flip",
    "pauli",
    "depolarizing",
    "identity_channel",
    "vacuum_extend",
    "completeness_defect",
    "normalized_amplitudes",
    "concentrated_amplitudes",
    "SupermapKind",
    "switch",
    "coherent_superposition",
    "fix_control",
    "Family",
    "family_channels",
    "build_supermap",
    "build_fixed",
    "Ensemble",
    "OptimizerConfig",
    "CapacityResult",
    "holevo_information",
    "complementary_output",
    "exchange_entropy",
    "coherent_information",
    "target_marginal",
    "classical_capacity",
    "quantum_capacity",
    "CapacityType",
    "ClosedFormId",
    "closed_form",
    "list_available",
    "effective_flip_probability",
    "partial_trace",
    "eig_hermitian",
    "von_neumann_entropy",
    "plus_state",
]
