"""Closed-form invariants: quotient counts and Seiberg-Witten values.

The gauge-theoretic count attached to the rank-1 subsheaf problem has a
finite closed form over the exterior algebra of the curve: a truncated
exponential of the theta class, scaled by the target rank, paired
against the orientation blade.  The Seiberg-Witten invariants of the
ruled surface are the same expression run through the index dictionary,
with the scale read off the fibre pairing of the determinant class.
"""

from .exterior import Multivector, Record, SurfaceTopology, pair_theta_powers
from .indices import (
    H2Class,
    RuledSurfaceGeometry,
    abelian_v,
    index_wc,
    intersect,
    spinc_det,
)

__all__ = [
    "ggw_abelian",
    "quot_count",
    "SWResult",
    "sw_for_class",
    "sw_ruled",
    "sw_equals_ggw_check",
]

FIBRE = H2Class(0, 1)


def ggw_abelian(genus: int, r0: int, v: int, l: Multivector) -> int:
    """Count paired against l: sum of (r0*Theta)^i/i! for g-v <= i <= g.

    v below zero leaves an empty sum, so the value is 0.  Linear in l;
    odd-degree parts of l never reach the top grade and contribute 0.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if r0 < 1:
        raise ValueError("target rank must be >= 1")
    return pair_theta_powers(l, SurfaceTopology(genus), r0, genus - v)


def quot_count(genus: int, r0: int) -> int:
    """Number of kernel line subsheaves in the zero-dimensional regime."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if r0 < 1:
        raise ValueError("target rank must be >= 1")
    return r0**genus


class SWResult(Record):
    """Both chamber values of the Seiberg-Witten invariant for one class.

    sign is the sign of the fibre pairing (0 when the pairing vanishes).
    value_signed_chamber is the invariant in the chamber carrying that
    sign; the opposite chamber always vanishes.
    """

    __slots__ = (
        "sign", "value_signed_chamber", "value_opposite_chamber", "w_c", "c", "pair_with_fibre"
    )

    def __init__(
        self,
        sign: int,
        value_signed_chamber: int,
        value_opposite_chamber: int,
        w_c: int,
        c: H2Class,
        pair_with_fibre: int,
    ):
        self.sign, self.value_signed_chamber = sign, value_signed_chamber
        self.value_opposite_chamber, self.w_c = value_opposite_chamber, w_c
        self.c, self.pair_with_fibre = c, pair_with_fibre


def sw_for_class(c: H2Class, geom: RuledSurfaceGeometry, l: Multivector) -> SWResult:
    """Seiberg-Witten values for an arbitrary characteristic class c."""
    genus = geom.genus
    pair = intersect(c, FIBRE, geom)
    w_c = index_wc(c, geom)
    if pair == 0:
        return SWResult(0, 0, 0, w_c, c, 0)
    if pair % 2:
        raise ValueError(f"fibre pairing {pair} is odd")
    if w_c % 2:
        raise ValueError(f"index {w_c} is odd; cannot halve for the truncation bound")
    sign = 1 if pair > 0 else -1
    total = pair_theta_powers(l, SurfaceTopology(genus), pair // 2, genus - w_c // 2)
    return SWResult(sign, sign * total, 0, w_c, c, pair)


def sw_ruled(d: int, n: int, geom: RuledSurfaceGeometry, l: Multivector) -> SWResult:
    """Invariant of the structure twisted by d*f + n*s on the ruled surface."""
    return sw_for_class(spinc_det(d, n, geom), geom, l)


def sw_equals_ggw_check(d: int, n: int, geom: RuledSurfaceGeometry, l: Multivector) -> bool:
    """Cross-check the SW value against the quotient count dictionary.

    The dictionary sends the twist (d, n) to the rank-(n+1) target
    problem with kernel degree -d and effective target degree
    n(n+1)*d0/2; needs n >= 0 so the target rank is positive.
    """
    if n < 0:
        raise ValueError("dictionary requires n >= 0")
    r0 = n + 1
    d0_eff = n * (n + 1) * geom.v0_degree // 2
    v = abelian_v(r0, -d, d0_eff, geom.genus)
    res = sw_ruled(d, n, geom, l)
    # the index dictionary must agree before the values can
    if res.w_c != 2 * v:
        raise ArithmeticError(f"index dictionary: w_c = {res.w_c}, but 2v = {2 * v}")
    return res.value_signed_chamber == res.sign * ggw_abelian(geom.genus, r0, v, l)
