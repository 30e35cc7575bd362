"""Cross-validation grids behind the check command and the acceptance tests.

Two independent routes to every number: the closed formula against the
Segre-series oracle on one grid, and the Seiberg-Witten route against
the quotient-count dictionary on the other.  Cases run in a fixed
nested order and reports carry the first counterexample, so output is
deterministic for a given grid size.
"""

from dataclasses import dataclass

from .exterior import Multivector, SurfaceTopology
from .indices import RuledSurfaceGeometry, abelian_v, spinc_det, intersect
from .invariants import FIBRE, ggw_abelian, sw_equals_ggw_check, sw_ruled
from .picard import ggw_via_segre, min_valid_aux_twist

__all__ = [
    "CheckReport",
    "basis_monomials",
    "run_oracle_grid",
    "run_dictionary_grid",
    "run_all",
]


@dataclass
class CheckReport:
    name: str
    cases: int
    failures: int
    first_counterexample: dict | None


def basis_monomials(topo: SurfaceTopology):
    """All 2^(2g) basis blades of the exterior algebra, grade order."""
    rank = topo.rank
    blades = [
        tuple(i for i in range(rank) if mask & (1 << i)) for mask in range(1 << rank)
    ]
    blades.sort(key=lambda b: (len(b), b))
    return [Multivector({b: 1}) for b in blades]


def run_oracle_grid(max_genus: int = 4, max_r0: int = 4, max_deg: int = 3) -> CheckReport:
    """Closed formula vs Segre oracle, two valid twists per grid point."""
    cases = failures = 0
    first = None
    for genus in range(max_genus + 1):
        topo = SurfaceTopology(genus)
        monomials = basis_monomials(topo)
        for r0 in range(1, max_r0 + 1):
            for d in range(-max_deg, max_deg + 1):
                for d0 in range(-max_deg, max_deg + 1):
                    v = abelian_v(r0, d, d0, genus)
                    base_twist = min_valid_aux_twist(genus, r0, d, d0)
                    for l in monomials:
                        want = ggw_abelian(genus, r0, v, l)
                        for twist in (base_twist, base_twist + 1):
                            cases += 1
                            got = ggw_via_segre(genus, r0, d, d0, twist, l)
                            if got != want:
                                failures += 1
                                if first is None:
                                    first = {
                                        "genus": genus,
                                        "r0": r0,
                                        "d": d,
                                        "d0": d0,
                                        "aux_twist": twist,
                                        "l": repr(l),
                                        "closed_form": want,
                                        "oracle": got,
                                    }
    return CheckReport("oracle_equivalence", cases, failures, first)


def run_dictionary_grid(max_genus: int = 4, max_n: int = 3, max_deg: int = 3) -> CheckReport:
    """Seiberg-Witten values vs the quotient-count dictionary."""
    cases = failures = 0
    first = None
    for genus in range(max_genus + 1):
        topo = SurfaceTopology(genus)
        monomials = basis_monomials(topo)
        for d0 in range(-max_deg, max_deg + 1):
            geom = RuledSurfaceGeometry(genus, d0)
            for d in range(-max_deg, max_deg + 1):
                for n in range(max_n + 1):
                    pair = intersect(spinc_det(d, n, geom), FIBRE, geom)
                    for l in monomials:
                        cases += 1
                        ok = pair == 2 * n + 2 and sw_equals_ggw_check(d, n, geom, l)
                        if not ok:
                            failures += 1
                            if first is None:
                                res = sw_ruled(d, n, geom, l)
                                first = {
                                    "genus": genus,
                                    "d": d,
                                    "n": n,
                                    "d0": d0,
                                    "l": repr(l),
                                    "sw": res.value_signed_chamber,
                                    "pair_with_fibre": res.pair_with_fibre,
                                }
    return CheckReport("sw_dictionary", cases, failures, first)


def run_all(max_genus: int = 4, max_r0: int = 4, max_deg: int = 3) -> list[CheckReport]:
    """Both grids; bounds that leave a grid empty are refused before any case runs."""
    if max_genus < 0 or max_r0 < 1 or max_deg < 0:
        raise ValueError("empty check grid: needs max_genus >= 0, max_r0 >= 1, max_deg >= 0")
    return [
        run_oracle_grid(max_genus, max_r0, max_deg),
        run_dictionary_grid(max_genus, max_r0 - 1, max_deg),
    ]
