"""Cross-validation grids behind the check command and the acceptance tests.

Two independent routes to every number: the closed formula against the
Segre-series oracle on one grid, and the Seiberg-Witten route against
the quotient-count dictionary on the other.  Each grid is a generator
that yields one outcome per case, in a fixed nested order: None when the
case passes, the counterexample dict when it fails.  One runner counts
cases and failures and keeps the first counterexample, so output is
deterministic for a given grid size.  A grid calls its route through
this module's globals, once per case, so a caller that rebinds
`ggw_via_segre` or `sw_equals_ggw_check` here sees every case.
"""

from itertools import combinations, product

from .exterior import Multivector, Record, SurfaceTopology
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

# cases run_all accepts: the default grids have 200,508, --max-genus 5 has 802,620
MAX_CHECK_CASES = 1_000_000
# oracle points (genus, r0, d, d0) run_all accepts, max_r0 * (2*max_deg + 1)^2 *
# (max_genus + 1): each builds its own Segre series, so work grows with points, not
# cases.  The default grids have 980, --max-genus 5 has 1,176; the slowest grid under
# both caps, --max-genus 4 --max-r0 600 --max-deg 0, ran in about 5 s on 2 CPUs
MAX_CHECK_POINTS = 3_000


class CheckReport(Record):
    __slots__ = ("name", "cases", "failures", "first_counterexample")
    __hash__ = None

    def __init__(self, name: str, cases: int, failures: int, first_counterexample: dict | None):
        self.name, self.cases, self.failures = name, cases, failures
        self.first_counterexample = first_counterexample


def basis_monomials(topo: SurfaceTopology):
    """All 2^(2g) basis blades of the exterior algebra, grade order."""
    rank = topo.rank
    return [
        Multivector({b: 1}) for k in range(rank + 1) for b in combinations(range(rank), k)
    ]


def _run_grid(name, outcomes) -> CheckReport:
    """Count one grid's outcomes: None passes, a counterexample dict fails."""
    cases = failures = 0
    first = None
    for cases, outcome in enumerate(outcomes, 1):
        if outcome is not None:
            failures += 1
            if first is None:
                first = outcome
    return CheckReport(name, cases, failures, first)


def _oracle_outcomes(max_genus, max_r0, max_deg):
    degrees = range(-max_deg, max_deg + 1)
    for genus in range(max_genus + 1):
        monomials = basis_monomials(SurfaceTopology(genus))
        for r0, d, d0 in product(range(1, max_r0 + 1), degrees, degrees):
            v = abelian_v(r0, d, d0, genus)
            base_twist = min_valid_aux_twist(genus, r0, d, d0)
            for l in monomials:
                want = ggw_abelian(genus, r0, v, l)
                for twist in (base_twist, base_twist + 1):
                    got = ggw_via_segre(genus, r0, d, d0, twist, l)
                    yield None if got == want else {
                        "genus": genus,
                        "r0": r0,
                        "d": d,
                        "d0": d0,
                        "aux_twist": twist,
                        "l": repr(l),
                        "closed_form": want,
                        "oracle": got,
                    }


def _dictionary_outcomes(max_genus, max_n, max_deg):
    degrees = range(-max_deg, max_deg + 1)
    for genus in range(max_genus + 1):
        monomials = basis_monomials(SurfaceTopology(genus))
        for d0 in degrees:
            geom = RuledSurfaceGeometry(genus, d0)
            for d, n in product(degrees, range(max_n + 1)):
                fits = intersect(spinc_det(d, n, geom), FIBRE, geom) == 2 * n + 2
                for l in monomials:
                    if fits and sw_equals_ggw_check(d, n, geom, l):
                        yield None
                        continue
                    res = sw_ruled(d, n, geom, l)
                    yield {
                        "genus": genus,
                        "d": d,
                        "n": n,
                        "d0": d0,
                        "l": repr(l),
                        "sw": res.value_signed_chamber,
                        "pair_with_fibre": res.pair_with_fibre,
                    }


def run_oracle_grid(max_genus: int = 4, max_r0: int = 4, max_deg: int = 3) -> CheckReport:
    """Closed formula vs Segre oracle, two valid twists per grid point."""
    return _run_grid("oracle_equivalence", _oracle_outcomes(max_genus, max_r0, max_deg))


def run_dictionary_grid(max_genus: int = 4, max_n: int = 3, max_deg: int = 3) -> CheckReport:
    """Seiberg-Witten values vs the quotient-count dictionary."""
    return _run_grid("sw_dictionary", _dictionary_outcomes(max_genus, max_n, max_deg))


def run_all(max_genus: int = 4, max_r0: int = 4, max_deg: int = 3) -> list[CheckReport]:
    """Both grids; bounds that leave a grid empty, or make it larger than
    MAX_CHECK_CASES or MAX_CHECK_POINTS, are refused before any case runs."""
    if max_genus < 0 or max_r0 < 1 or max_deg < 0:
        raise ValueError("empty check grid: needs max_genus >= 0, max_r0 >= 1, max_deg >= 0")
    # (2 oracle twists + 1 dictionary case) per point and blade, over
    # sum_g 4^g = (4^(G+1) - 1) / 3 blades; 4^11 alone passes the cap, so a
    # larger genus is counted as 10 and its power is never built
    genus = min(max_genus, 10)
    cases = max_r0 * (2 * max_deg + 1) ** 2 * (4 ** (genus + 1) - 1)
    if cases > MAX_CHECK_CASES:
        least = "at least " if genus < max_genus else ""
        raise ValueError(f"check grid of {least}{cases} cases is over the limit of {MAX_CHECK_CASES}")
    points = max_r0 * (2 * max_deg + 1) ** 2 * (max_genus + 1)
    if points > MAX_CHECK_POINTS:
        raise ValueError(f"check grid of {points} oracle points is over the limit of {MAX_CHECK_POINTS}")
    return [
        run_oracle_grid(max_genus, max_r0, max_deg),
        run_dictionary_grid(max_genus, max_r0 - 1, max_deg),
    ]
