"""Gradings on the superalgebra of 2x2 matrices plus a 2-dimensional odd
part (characteristic 3): the 5-grading, its universal group, and the
complete coarsening lattice.

Run with:  python demos/02_gradings_and_universal_groups.py
"""

from compsuper import GF, b42, coarsenings_enum, gamma_grading_b42, universal_group, validate
from compsuper.abelian import AbGroup

F = GF(3)
B = b42(F)
Z = AbGroup(1)
g = gamma_grading_b42(B, Z, Z.element(1))

ok, _ = validate(g)
print("the 5-grading (deg u = 1, deg x = 2):", "valid" if ok else "INVALID")
for d, vs in g.comps:
    print(f"  degree {d}: ", ", ".join(B.fmt(v) for v in vs))
print("support:", sorted(d.coords[0] for d in g.degrees()))

G, proj, injective = universal_group(g)
print("universal grading group:", G, "| injective:", injective)

print("\nall coarsenings (each over its universal group):")
for c in coarsenings_enum(g):
    shape = " + ".join(str(len(vs)) for _, vs in c.comps)
    print(f"  {str(c.group):5s} components of dims {shape}")
