"""Seiberg-Witten invariants of a ruled surface over a genus-g curve.

The surface is the projectivization of O + V0 over the curve, with
section class s, fibre class f, s^2 = deg V0.  A spin-c structure
twisted by d*f + n*s has determinant c with <c,f> = 2n + 2; its
invariant in the chamber signed by that pairing is an explicit count,
and the opposite chamber always gives zero.
"""

from ruledinv.exterior import Multivector
from ruledinv.indices import (
    H2Class,
    RuledSurfaceGeometry,
    canonical_class,
    douady_index,
    index_wc,
    intersect,
    spinc_det,
)
from ruledinv.invariants import sw_for_class, sw_ruled

ONE = Multivector.scalar(1)

# the worked instance: genus 1, twist d=1 n=1, trivial V0
geom = RuledSurfaceGeometry(1, 0)
K = canonical_class(geom)
print(f"geometry: genus 1, deg V0 = 0, K = {K.s}s + {K.f}f, K^2 = {intersect(K, K, geom)}")

c = spinc_det(1, 1, geom)
print(f"determinant c = {c.s}s + {c.f}f")
print("c^2 =", intersect(c, c, geom))
print("w_c =", index_wc(c, geom))
print("<c,f> =", intersect(c, H2Class(0, 1), geom))

res = sw_ruled(1, 1, geom, ONE)
print("SW+ (1) =", res.value_signed_chamber, " SW- =", res.value_opposite_chamber)
res = sw_ruled(1, 1, geom, Multivector.blade((0, 1)))
print("SW+ (a1^b1) =", res.value_signed_chamber)

# the index dictionary: both index computations halve to the same v
m = H2Class(1, 1)  # f + s
print("\ndouady_index(f + s) =", douady_index(m, geom))
print("index_wc(c)/2 =", index_wc(c, geom) // 2)

# zero law: a class pairing trivially with the fibre kills both chambers
flat = sw_for_class(H2Class(0, 3), geom, ONE)
print("\npure fibre class: sign", flat.sign, " values", (flat.value_signed_chamber, flat.value_opposite_chamber))

# negative pairing flips which chamber carries the value
res = sw_for_class(H2Class(-2, 0), RuledSurfaceGeometry(1, 0), ONE)
print("negative pairing: sign", res.sign, " signed-chamber value", res.value_signed_chamber)
