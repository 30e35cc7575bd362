"""Index arithmetic: Riemann-Roch counts and ruled-surface classes.

Dimension counts for maps from line bundles into a fixed bundle on a
genus-g curve, and the intersection ring of the projectivization of a
rank-2 bundle over the curve.  Everything is exact integer arithmetic.
"""

from .exterior import Record, check_counts

__all__ = [
    "RuledSurfaceGeometry",
    "H2Class",
    "abelian_v",
    "intersect",
    "canonical_class",
    "spinc_det",
    "index_wc",
    "douady_index",
]


def abelian_v(r0: int, d: int, d0: int, genus: int) -> int:
    """Rank-1 kernel specialization d0 - r0*d + (r0-1)(1-g)."""
    check_counts(genus, r0)
    return d0 - r0 * d + (r0 - 1) * (1 - genus)


class RuledSurfaceGeometry(Record):
    """Projectivized rank-2 bundle over a genus-g curve.

    Classes in H^2 are written x*s + y*f with s the tautological section
    class and f the fibre; s.s = v0_degree, s.f = 1, f.f = 0.
    """

    __slots__ = ("genus", "v0_degree")

    def __init__(self, genus: int, v0_degree: int):
        check_counts(genus)
        self.genus, self.v0_degree = genus, v0_degree


class H2Class(Record):
    """Integer class x*s + y*f on the ruled surface."""

    __slots__ = ("s", "f")

    def __init__(self, s: int, f: int):
        self.s, self.f = s, f

    def __add__(self, other):
        return H2Class(self.s + other.s, self.f + other.f)

    def __sub__(self, other):
        return H2Class(self.s - other.s, self.f - other.f)

    def __rmul__(self, n: int):
        return H2Class(n * self.s, n * self.f)


def intersect(x: H2Class, y: H2Class, geom: RuledSurfaceGeometry) -> int:
    return x.s * y.s * geom.v0_degree + x.s * y.f + x.f * y.s


def canonical_class(geom: RuledSurfaceGeometry) -> H2Class:
    """-2s + (2g - 2 + d0) f; its square is 8(1-g) for every d0."""
    return H2Class(-2, 2 * geom.genus - 2 + geom.v0_degree)


def spinc_det(d: int, n: int, geom: RuledSurfaceGeometry) -> H2Class:
    """Determinant 2(d*f + n*s) - K of the structure twisted by d*f + n*s."""
    return H2Class(2 * n + 2, 2 * d - (2 * geom.genus - 2 + geom.v0_degree))


def index_wc(c: H2Class, geom: RuledSurfaceGeometry) -> int:
    """Expected dimension c^2/4 + 2(g-1) of the monopole moduli space.

    Requires c^2 - 3*sig - 2*e divisible by 4, which here comes down to
    4 | c^2 since sig = 0 and e = 4(1-g).
    """
    csq = intersect(c, c, geom)
    if csq % 4:
        raise ValueError(f"class with square {csq} is not characteristic for this geometry")
    return csq // 4 + 2 * (geom.genus - 1)


def douady_index(m: H2Class, geom: RuledSurfaceGeometry) -> int:
    """Expected dimension m(m - K)/2 of the divisor moduli problem."""
    val = intersect(m, m - canonical_class(geom), geom)
    # integral classes on these geometries always give an even product
    if val % 2:
        raise ArithmeticError(f"odd intersection number {val} for {m}")
    return val // 2
