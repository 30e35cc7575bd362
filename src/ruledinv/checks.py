"""Cross-validation grids behind the check command and the acceptance tests.

Two independent routes to every number: the closed formula against the
Segre-series oracle on one grid, and on the other the Seiberg-Witten
value against the Segre oracle's count of the quot problem that the
index dictionary sends it to.  Each grid is a generator
that yields one outcome per case, in a fixed nested order: None when the
case passes, the counterexample dict when it fails.  One runner counts
cases and failures and keeps the first counterexample, so output is
deterministic for a given grid size.  A route that raises an
ArithmeticError or ValueError fails its case, and the counterexample
carries the error's text.  A grid calls its route through
this module's globals, once per case, so a caller that rebinds
`ggw_via_segre` or `sw_equals_ggw_check` here sees every case.  Both
grids count through the Segre oracle, which does the work of a point
(genus, r0, d, d0, twist) once and keeps it, so a case only pairs its
blade; a point that raises is never kept and fails every case it has.
"""

from itertools import combinations, product

from .exterior import Multivector, Record, SurfaceTopology
from . import picard
from .indices import RuledSurfaceGeometry, abelian_v, spinc_det
from .invariants import ggw_abelian, sw_chamber, sw_value
from .picard import ggw_via_segre, min_valid_aux_twist

__all__ = [
    "CheckReport",
    "basis_monomials",
    "dictionary_point",
    "sw_equals_ggw_check",
    "run_oracle_grid",
    "run_dictionary_grid",
    "run_all",
]

# cases run_all accepts: the default grids have 200,508, --max-genus 5 has 802,620
MAX_CHECK_CASES = 1_000_000
# oracle points (genus, r0, d, d0) run_all accepts, max_r0 * (2*max_deg + 1)^2 *
# (max_genus + 1): each builds its own Segre series, so work grows with points, not
# cases.  The dictionary grid has as many points (genus, d0, d, n), each with a Segre
# series of its own quot problem, so one count bounds both.  The default grids have
# 980, --max-genus 5 has 1,176; the slowest grid under both caps, --max-genus 4
# --max-r0 600 --max-deg 0, runs in about 0.6 s on 2 CPUs (median of 7 fresh
# runs).  The oracle keeps 4,096 points with their twist (the default grids visit
# 2,310); a grid runs one point's cases together, so a larger grid loses only the
# reuse between its two grids
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


def _shown(result):
    """A route's result as a counterexample shows it: an int, or the error it raised."""
    return f"{type(result).__name__}: {result}" if isinstance(result, Exception) else result


def _oracle_outcomes(max_genus, max_r0, max_deg):
    degrees = range(-max_deg, max_deg + 1)
    for genus in range(max_genus + 1):
        monomials = basis_monomials(SurfaceTopology(genus))
        for r0, d, d0 in product(range(1, max_r0 + 1), degrees, degrees):
            v = abelian_v(r0, d, d0, genus)
            base_twist = min_valid_aux_twist(genus, r0, d, d0)
            for l in monomials:
                try:
                    want = ggw_abelian(genus, r0, v, l)
                except (ArithmeticError, ValueError) as err:
                    want = err  # equal to no result, so both of l's cases fail
                for twist in (base_twist, base_twist + 1):
                    try:
                        got = ggw_via_segre(genus, r0, d, d0, twist, l)
                    except (ArithmeticError, ValueError) as err:
                        got = err
                    yield None if got == want else {
                        "genus": genus,
                        "r0": r0,
                        "d": d,
                        "d0": d0,
                        "aux_twist": twist,
                        "l": repr(l),
                        "closed_form": _shown(want),
                        "oracle": _shown(got),
                    }


def dictionary_point(d: int, n: int, geom: RuledSurfaceGeometry):
    """The work shared by the dictionary's cases at (d, n, geom): (chamber, quot).

    chamber is the sw_chamber of the structure twisted by d*f + n*s; quot
    is ggw_via_segre's (r0, d, d0, aux_twist) for the quot problem the
    dictionary sends it to.  Raises ArithmeticError when the fibre pairing
    is not 2n + 2 or the index identity w_c = 2v fails.
    """
    chamber = sw_chamber(spinc_det(d, n, geom), geom)
    if chamber[1] != 2 * n + 2:
        raise ArithmeticError(f"index dictionary: fibre pairing {chamber[1]}, but 2n + 2 = {2 * n + 2}")
    r0 = n + 1
    d0_eff = n * (n + 1) * geom.v0_degree // 2
    v = abelian_v(r0, -d, d0_eff, geom.genus)
    if chamber[2] != 2 * v:
        raise ArithmeticError(f"index dictionary: w_c = {chamber[2]}, but 2v = {2 * v}")
    return chamber, (r0, -d, d0_eff, min_valid_aux_twist(geom.genus, r0, -d, d0_eff))


def sw_equals_ggw_check(chamber: tuple, genus: int, quot: tuple, l: Multivector) -> bool:
    """One dictionary case at this genus: the Seiberg-Witten value on l against
    the chamber's sign times the Segre oracle's count of the quot problem."""
    return sw_value(chamber, genus, l) == chamber[0] * picard.ggw_via_segre(genus, *quot, l)


def _dictionary_outcomes(max_genus, max_n, max_deg):
    degrees = range(-max_deg, max_deg + 1)
    for genus in range(max_genus + 1):
        monomials = basis_monomials(SurfaceTopology(genus))
        for d0 in degrees:
            geom = RuledSurfaceGeometry(genus, d0)
            for d, n in product(degrees, range(max_n + 1)):
                where = {"genus": genus, "d": d, "n": n, "d0": d0}
                try:
                    chamber, quot = dictionary_point(d, n, geom)
                except (ArithmeticError, ValueError) as err:
                    for l in monomials:
                        yield {**where, "l": repr(l), "error": _shown(err)}
                    continue
                for l in monomials:
                    try:
                        if sw_equals_ggw_check(chamber, genus, quot, l):
                            yield None
                            continue
                        oracle = chamber[0] * picard.ggw_via_segre(genus, *quot, l)
                        found = {"sw": sw_value(chamber, genus, l), "oracle": oracle}
                    except (ArithmeticError, ValueError) as err:
                        found = {"error": _shown(err)}
                    yield {**where, "l": repr(l), **found}


def run_oracle_grid(max_genus: int = 4, max_r0: int = 4, max_deg: int = 3) -> CheckReport:
    """Closed formula vs Segre oracle, two valid twists per grid point."""
    return _run_grid("oracle_equivalence", _oracle_outcomes(max_genus, max_r0, max_deg))


def run_dictionary_grid(max_genus: int = 4, max_n: int = 3, max_deg: int = 3) -> CheckReport:
    """Seiberg-Witten values vs the Segre oracle, through the index dictionary."""
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
