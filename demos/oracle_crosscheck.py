"""Two roads to the same count, step by step.

The closed formula sums divided powers of r0*theta.  The oracle route
never sees that formula: it pushes the universal line bundle's Chern
character down the curve with a Riemann-Roch twist, converts it to a
total Chern class by Newton's identities, runs the same identities on
the negated character for the Segre series s = 1/c = c(-E), and pairs
the matching coefficient.  The check command sweeps both over a
grid; here the pipeline is unrolled on one instance.
"""

from ruledinv.checks import run_oracle_grid
from ruledinv.exterior import Multivector
from ruledinv.indices import abelian_v
from ruledinv.invariants import ggw_abelian
from ruledinv.picard import (
    chern_series,
    ggw_via_segre,
    grr_pushforward,
    integrate_sigma,
    min_valid_aux_twist,
    poincare_chern,
    segre_series,
)

genus, r0, d, d0 = 2, 2, -1, 1
ONE = Multivector.scalar(1)

v = abelian_v(r0, d, d0, genus)
twist = min_valid_aux_twist(genus, r0, d, d0)
dprime = d - twist
print(f"instance: g={genus} r0={r0} d={d} d0={d0}  ->  v={v}, aux twist {twist}, d'={dprime}")

kc = poincare_chern(dprime, genus)
print("universal character, eta part:", integrate_sigma(kc))

pushed = grr_pushforward(dprime, r0, genus)
print("pushforward character:", pushed)
print("total Chern class:", chern_series(pushed))
print("Segre series:", segre_series(pushed))

oracle = ggw_via_segre(genus, r0, d, d0, twist, ONE)
closed = ggw_abelian(genus, r0, v, ONE)
print(f"oracle route: {oracle}   closed form: {closed}")
assert oracle == closed

# the oracle cannot depend on the auxiliary twist
for extra in range(1, 4):
    assert ggw_via_segre(genus, r0, d, d0, twist + extra, ONE) == closed
print("twist independence holds for", [twist + e for e in range(4)])

# and the full grid agrees case by case
report = run_oracle_grid(max_genus=2, max_r0=3, max_deg=2)
print(f"grid sweep: {report.cases} cases, {report.failures} failures")
