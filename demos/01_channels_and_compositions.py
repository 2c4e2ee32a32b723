"""Building blocks: noisy channels, the switch, and path superposition.

Walks through the Kraus catalog, composes two bit-flip channels both ways,
and shows that classical control states reduce the switch to ordinary
sequential composition.
"""

import numpy as np

from switchcap import (
    apply,
    bit_flip,
    coherent_superposition,
    completeness_defect,
    fix_control,
    partial_trace,
    phase_flip,
    switch,
    vacuum_extend,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

p = 0.3
bf = bit_flip(p)
pf = phase_flip(p)

print("A bit-flip channel at p = 0.3 has two Kraus operators:")
for i, k in enumerate(bf.kraus):
    print(f"K{i} =\n{k.real}")
print("completeness defect:", completeness_defect(bf))

print("\nSending |0><0| through it mixes the populations:")
ket0 = np.diag([1.0, 0.0]).astype(complex)
print(apply(bf, ket0).real)

print("\n--- quantum switch -------------------------------------------")
sw = switch(bf, pf)
print(f"switch of a bit-flip and a phase-flip channel: {sw.n_kraus} Kraus operators")
print("composite space is control (x) target, dims", sw.input_dims)

fixed = fix_control(sw)  # control at |+>
out = apply(fixed, ket0)
print("output with the control in |+> (4x4, control kept):")
print(out.real)

print("\nWith a classical control the switch is just sequential composition:")
ket0_ctrl = np.diag([1.0, 0.0]).astype(complex)
ket1_ctrl = np.diag([0.0, 1.0]).astype(complex)
forward = partial_trace(apply(fix_control(sw, ket0_ctrl), ket0), (2, 2), keep=[1])
print("control |0>: target marginal equals phase_flip(bit_flip(rho)):")
print(forward.real, "=", apply(pf, apply(bf, ket0)).real)

print("\n--- coherent superposition of paths --------------------------")
amps = (1 / np.sqrt(2), 1 / np.sqrt(2))
sup = coherent_superposition(vacuum_extend(bf, amps), vacuum_extend(bf, amps))
print(f"superposition of two bit-flip channels: {sup.n_kraus} Kraus operators")
print("each is the block-diagonal (K_i (+) K_j) / sqrt(2); the first:")
print(sup.kraus[0].real)
print("completeness defect:", completeness_defect(sup))
