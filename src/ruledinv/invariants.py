"""Closed-form invariants: quotient counts and Seiberg-Witten values.

The gauge-theoretic count attached to the rank-1 subsheaf problem has a
finite closed form over the exterior algebra of the curve: a truncated
exponential of the theta class, scaled by the target rank, paired
against the orientation blade.  The Seiberg-Witten invariants of the
ruled surface are the same expression run through the index dictionary,
with the scale read off the fibre pairing of the determinant class.
"""

from .exterior import Multivector, Record, check_counts, pair_theta_powers
from .indices import (
    H2Class,
    RuledSurfaceGeometry,
    index_wc,
    intersect,
    spinc_det,
)

__all__ = [
    "ggw_abelian",
    "quot_count",
    "SWResult",
    "sw_chamber",
    "sw_value",
    "sw_for_class",
    "sw_ruled",
]

FIBRE = H2Class(0, 1)


def ggw_abelian(genus: int, r0: int, v: int, l: Multivector) -> int:
    """Count paired against l: sum of (r0*Theta)^i/i! for g-v <= i <= g.

    v below zero leaves an empty sum, so the value is 0.  Linear in l;
    odd-degree parts of l never reach the top grade and contribute 0.
    """
    # tested inline, as a grid runs this once per case: a bare call cost 3-6% on 10^5 calls
    if genus < 0 or r0 < 1:
        check_counts(genus, r0)
    return pair_theta_powers(l, genus, r0, genus - v)


def quot_count(genus: int, r0: int) -> int:
    """Number of kernel line subsheaves in the zero-dimensional regime."""
    check_counts(genus, r0)
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


def sw_chamber(c: H2Class, geom: RuledSurfaceGeometry) -> tuple:
    """The part of sw_for_class that l does not enter: (sign, pair, w_c, scale, lowest).

    The signed chamber's value on l is sign times the kernel at scale
    pair/2, summed from the power g - w_c/2.  A zero fibre pairing puts
    the lowest power past the genus, so its value is 0 on every l.
    """
    genus = geom.genus
    pair = intersect(c, FIBRE, geom)
    w_c = index_wc(c, geom)
    if pair == 0:
        return 0, 0, w_c, 0, genus + 1
    if pair % 2:
        raise ValueError(f"fibre pairing {pair} is odd")
    if w_c % 2:
        raise ValueError(f"index {w_c} is odd; cannot halve for the truncation bound")
    return (1 if pair > 0 else -1), pair, w_c, pair // 2, genus - w_c // 2


def sw_value(chamber: tuple, genus: int, l: Multivector) -> int:
    """The signed chamber's value on l at this genus, for a chamber from sw_chamber."""
    return chamber[0] * pair_theta_powers(l, genus, *chamber[3:])  # (scale, lowest)


def sw_for_class(c: H2Class, geom: RuledSurfaceGeometry, l: Multivector) -> SWResult:
    """Seiberg-Witten values for an arbitrary characteristic class c."""
    chamber = sw_chamber(c, geom)
    sign, pair, w_c, _, _ = chamber
    return SWResult(sign, sw_value(chamber, geom.genus, l), 0, w_c, c, pair)


def sw_ruled(d: int, n: int, geom: RuledSurfaceGeometry, l: Multivector) -> SWResult:
    """Invariant of the structure twisted by d*f + n*s on the ruled surface."""
    return sw_for_class(spinc_det(d, n, geom), geom, l)
