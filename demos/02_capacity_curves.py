"""Classical capacity of all six configurations against the closed forms.

Prints capacity-vs-noise tables for bit-flip constituents. The double
switch is visibly the weakest configuration, the plain switch, the
switch of superpositions and the superposition of switches coincide, and
the numerics track the closed forms to solver precision.
"""

import numpy as np

from switchcap import (
    CapacityType,
    ClosedFormId,
    Family,
    SupermapKind,
    build_fixed,
    classical_capacity,
    closed_form,
)

family = Family.BIT_FLIP
grid = np.linspace(0.0, 1.0, 9)

print(f"one-shot classical capacity, {family.token} constituents (bits)")
header = "p      " + "".join(f"{k.token:>9s}" for k in SupermapKind)
print(header)
for p in grid:
    row = [f"p={p:4.2f}"]
    for kind in SupermapKind:
        value = classical_capacity(build_fixed(kind, family, float(p))).value
        row.append(f"{value:9.4f}")
    print(" ".join(row))

print("\nnumeric vs closed form for the switch:")
cid = ClosedFormId(SupermapKind.SWITCH, family, CapacityType.CLASSICAL)
for p in grid:
    numeric = classical_capacity(build_fixed(SupermapKind.SWITCH, family, float(p))).value
    reference = closed_form(cid, float(p))
    print(f"p={p:4.2f}  numeric={numeric:.9f}  closed={reference:.9f}  |dev|={abs(numeric-reference):.2e}")

print("\nthe switch keeps a sliver of capacity even at full depolarizing noise:")
cid_dep = ClosedFormId(SupermapKind.SWITCH, Family.DEPOLARIZING, CapacityType.CLASSICAL)
numeric = classical_capacity(build_fixed(SupermapKind.SWITCH, Family.DEPOLARIZING, 1.0)).value
print(f"p=1.00  numeric={numeric:.9f}  closed={closed_form(cid_dep, 1.0):.9f}")
