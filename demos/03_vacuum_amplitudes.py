"""Quantum capacity of superposed depolarizing channels vs vacuum amplitudes.

The choice of vacuum amplitude is free (any normalized vector works), but
it changes how much path coherence survives, and with it the quantum
capacity. Concentrating the amplitude on the no-error Kraus operator is
best; the curves below are ordered by the first amplitude component at
every noise level.
"""

import numpy as np

from switchcap import (
    Family,
    OptimizerConfig,
    SupermapKind,
    build_fixed,
    quantum_capacity,
)
from switchcap.cli import DEFAULT_AMPLITUDE_SETS

cfg = OptimizerConfig(restarts=5)
labels = ["(1/2,1/2,1/2,1/2)", "(.71,.41,.41,.41)", "(.87,.29,.29,.29)", "(1,0,0,0)"]

print("one-shot quantum capacity of the superposition of two depolarizing channels")
print("p      " + "".join(f"{l:>20s}" for l in labels))
for p in np.linspace(0.0, 0.3, 7):
    row = [f"p={p:4.2f}"]
    for amps in DEFAULT_AMPLITUDE_SETS:
        value = quantum_capacity(
            build_fixed(SupermapKind.COHERENT_SUP, Family.DEPOLARIZING, float(p), amps), cfg
        ).value
        row.append(f"{value:20.6f}")
    print(" ".join(row))

print("\nsame data via the CLI:  switchcap vacuum-sweep --p-steps 7 --p-end 0.3 --out vac.csv")
