"""Counting rank-1 subsheaves of a trivial bundle over a curve.

When the expected dimension v of the space of degree -d line subsheaves
of O^{r0} is zero the count is r0^g.  The closed form extends to any v
by pairing a truncated exponential of theta against a form l on the
Jacobian, and the value stabilizes once v reaches the genus.
"""

from ruledinv.exterior import Multivector, SurfaceTopology
from ruledinv.indices import abelian_v
from ruledinv.invariants import ggw_abelian, quot_count

ONE = Multivector.scalar(1)

print("the r0^g pattern:")
for genus in range(5):
    row = [quot_count(genus, r0) for r0 in range(1, 6)]
    print(f"  g={genus}:", row)

# same numbers through the general formula at v = g
print("\nggw_abelian at v = g reproduces the table:")
for genus in range(5):
    row = [ggw_abelian(genus, r0, genus, ONE) for r0 in range(1, 6)]
    print(f"  g={genus}:", row)

# v comes out of the bundle data; negative v means an empty moduli space
genus, r0 = 2, 3
for d, d0 in ((-1, 0), (0, 0), (1, 2)):
    v = abelian_v(r0, d, d0, genus)
    print(f"\nd={d} d0={d0}: v = {v}, count = {ggw_abelian(genus, r0, v, ONE)}")

# pairing against a partial blade instead of 1 picks out other numbers
topo = SurfaceTopology(2)
a1b1 = Multivector.blade((topo.a(1), topo.b(1)))
print("\ngenus 2, r0 = 3, against a1^b1:")
for v in range(4):
    print(f"  v={v}: {ggw_abelian(2, 3, v, a1b1)}")
