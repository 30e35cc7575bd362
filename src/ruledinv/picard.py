"""Independent oracle for the abelian count via the Picard-variety route.

This module recomputes the quotient count without the closed formula:
push the universal sheaf's character down the curve, turn it into a
Segre series with Newton's identities on the negated character, and
pair the right Segre coefficient against the orientation blade under
the standard identification of the Picard cohomology with the exterior
algebra (theta goes to Theta).

The series in theta, and the classes of the product ring
H*(Pic) (x) H*(curve) the character lives in, are combinations on
exterior's shared core in the divided-power basis theta^[k] =
theta^k/k!, where every coefficient of the character, the Chern class
and the Segre series is an int; the count sums their pairings as ints.
The character is the core's truncated exponential of the first Chern
class, multiplied through the Kunneth relations.

A blade B pairs with the divided power Theta^[k] through the
Pfaffian-minor expansion (Ishikawa-Wakayama, "Minor summation formula of
Pfaffians", Linear Multilinear Algebra 39, 1995): a 2-form with skew
matrix A has omega^[k] = sum over |S| = 2k of Pf(A_S) e_S, so
<Theta^[k] ^ e_B, top> = eps(B^c, B) * Pf(A_{B^c}), with eps the shuffle
sign.  The Pfaffian is fraction-free elimination (Bareiss 1968; Knuth,
"Overlapping Pfaffians", 1996), never building Theta^[k]'s C(g, k) blades.
"""

from bisect import bisect_left
from functools import lru_cache
from math import comb, factorial, perm

from .exterior import Combination, Multivector, check_counts, check_range, merge_blades
from .indices import abelian_v

__all__ = [
    "ThetaSeries",
    "KunnethClass",
    "poincare_chern",
    "integrate_sigma",
    "grr_pushforward",
    "chern_series",
    "segre_series",
    "min_valid_aux_twist",
    "ggw_via_segre",
]


class ThetaSeries(Combination):
    """Polynomial in the degree-2 class theta, truncated past theta^genus.

    A combination on exterior's shared core whose monomial k is the
    divided power theta^[k] = theta^k/k!, for k in 0..genus, with int
    coefficients.  theta^[i] * theta^[j] = C(i + j, i) * theta^[i + j],
    so merge_monomials returns that binomial and drops a product past
    theta^genus, as a repeated generator vanishes in a blade; the genus
    is the shape two operands must share.  Indexing past the genus
    reads 0.
    """

    __slots__ = ("genus",)

    def __init__(self, coeffs, genus: int):
        super().__init__(dict(enumerate(coeffs)))
        check_counts(genus)
        self.genus = genus
        self.terms = {i: c for i, c in self.terms.items() if i <= genus}

    def merge_monomials(self, i, j):
        return (i + j, comb(i + j, i)) if i + j <= self.genus else None

    @property
    def coeffs(self) -> tuple:
        return tuple(self.terms.get(i, 0) for i in range(self.genus + 1))

    def __getitem__(self, i: int):
        # an int 0 for a missing power: the oracle reads one per blade
        if i < 0:
            raise IndexError(i)
        return self.terms.get(i, 0)

    def __repr__(self):
        # theta^k has c/k! for the c of theta^[k]; no request but a repr loads fractions
        from fractions import Fraction
        plain = [str(Fraction(c, factorial(k))) for k, c in enumerate(self.coeffs)]
        return f"ThetaSeries({plain})"


class KunnethClass(Combination):
    """Element of the product ring H*(Pic) (x) H*(curve), truncated past theta^genus.

    A combination on exterior's shared core whose monomial (k, part) is
    theta^[k] times 1, gamma or eta for part 0, 1 or 2, with k in
    0..genus and int coefficients; the genus is the shape.  eta is the
    curve's point class and gamma the H^1 (x) H^1 part of the universal
    class: eta^2 = 0, gamma*eta = 0 and gamma^2 = -2*theta*eta
    (Arbarello-Cornalba-Griffiths-Harris, Geometry of Algebraic Curves I,
    ch. VIII).  merge_monomials multiplies the theta parts as ThetaSeries
    does, with theta * theta^[k] = (k + 1) * theta^[k + 1] for gamma^2;
    a product past theta^genus vanishes.
    """

    __slots__ = ("genus",)

    def __init__(self, terms, genus: int):
        check_counts(genus)
        super().__init__(terms)
        for m in terms:
            if not (
                type(m) is tuple and len(m) == 2 and isinstance(m[0], int)
                and 0 <= m[0] <= genus and m[1] in (0, 1, 2)
            ):
                raise ValueError(f"monomial {m!r} is not (k, part) with k in 0..{genus}, part 0..2")
        self.genus = genus

    def merge_monomials(self, m1, m2):
        (i, p), (j, q) = m1, m2
        k = i + j
        if p + q > 2:  # eta^2 = gamma*eta = 0
            return None
        if p == q == 1:  # gamma^2 = -2*theta*eta
            return ((k + 1, 2), -2 * comb(k, i) * (k + 1)) if k < self.genus else None
        return ((k, p + q), comb(k, i)) if k <= self.genus else None

    def __repr__(self):
        # (k, part) order is degree order: theta^[k] has degree 2k, gamma and eta add 2
        return f"KunnethClass({dict(sorted(self.terms.items()))!r}, genus={self.genus})"


def poincare_chern(dprime: int, genus: int) -> KunnethClass:
    """Character 1 + d'*eta + gamma - theta*eta of the universal line bundle.

    The core's truncated exponential of the first Chern class
    d'*eta + gamma: the square of that class is -2*theta*eta and the
    cube vanishes, so the loop stops on its own.  A negative genus
    raises in KunnethClass.
    """
    c1 = KunnethClass({(0, 1): 1, (0, 2): dprime}, genus)
    return c1.exp(KunnethClass({(0, 0): 1}, genus), "poincare_chern")


def integrate_sigma(kc: KunnethClass) -> ThetaSeries:
    """Fibre integration over the curve: the eta terms, as a theta series."""
    eta = {k: c for (k, part), c in kc.terms.items() if part == 2}
    return ThetaSeries([0], kc.genus)._like(eta)


def grr_pushforward(dprime: int, r0: int, genus: int) -> ThetaSeries:
    """Character of the pushed-down hom bundle: r0*((d'+1-g) - theta).

    Pairs the universal character with the curve's Todd correction
    1 + (1-g)*eta before integrating, then scales by the target rank.
    """
    check_counts(genus, r0)
    todd = KunnethClass({(0, 0): 1, (0, 2): 1 - genus}, genus)
    return r0 * integrate_sigma(poincare_chern(dprime, genus) * todd)


def chern_series(ch: ThetaSeries) -> ThetaSeries:
    """Total Chern class from a Chern character, by Newton's identities.

    The character's theta^[i] coefficient is the power sum p_i = i! ch_i.
    With E_k = k! e_k, the recurrence k*e_k = sum_{i=1..k} (-1)^(i-1)
    e_{k-i} p_i reads E_k = sum_i (-1)^(i-1) perm(k-1, i-1) E_{k-i} p_i,
    summed over the character's terms alone.  segre_series runs it on -ch.
    """
    powers = [(i, (-1) ** (i - 1) * p) for i, p in ch.terms.items() if i]
    e = [1]
    for k in range(1, ch.genus + 1):
        e.append(sum(perm(k - 1, i - 1) * p * e[k - i] for i, p in powers if i <= k))
    return ch._like(dict(enumerate(e)))


def segre_series(ch: ThetaSeries) -> ThetaSeries:
    """Segre series s(E) = 1/c(E) = c(-E) of ch: c is multiplicative (Fulton 3.2)."""
    return chern_series(-ch)


@lru_cache(maxsize=4096)
def _pushforward_segre(genus: int, r0: int, dprime: int) -> ThetaSeries:
    # grid checks revisit the same twisted degrees thousands of times
    return segre_series(grr_pushforward(dprime, r0, genus))


def min_valid_aux_twist(genus: int, r0: int, d: int, d0: int) -> int:
    """Smallest twist meeting the pushforward and section-count bounds."""
    check_counts(genus, r0)
    bundle_bound = d - min(-1, d0) + 2 * genus
    count_bound = -((-d0) // r0)  # ceil(d0 / r0)
    return max(bundle_bound, count_bound)


def pfaffian(rows) -> int:
    """Pfaffian of the integer skew matrix with sparse rows {i: {j: a_ij}}.

    Every index keys a row, an empty one too, taken in sorted order, and
    a row holding a_ij has a_ji = -a_ij in row j.  By fraction-free skew
    elimination (Bareiss, Math. Comp. 22, 1968): pivot on the last row
    i left, at its last nonzero column j, a shift of sign (-1)^(pos+1)
    for j's place pos among the other indices left; then a_kl becomes
    (a_ij*a_kl + a_jk*a_il - a_ik*a_jl) / (previous pivot), exactly, as
    each is a Pfaffian (Knuth, "Overlapping Pfaffians", 1996).  The last
    pivot times the shift signs is Pf.  Off the rows meeting i or j that
    is a rescaling: an entry keeps the pivot current when written, read
    as x * last // stamp.  A row with nothing left makes Pf 0.

    The stamps are kept because plain Bareiss, which rescales every
    entry left whenever the pivot changes, is quadratic where the pivot
    changes at each step.  It ran Theta's blocks faster (0.57 against
    0.99 ms at g = 200, on a 2-CPU host), but on 3*Theta, pivots 3, 9,
    27, ..., it took 24 ms at g = 200 and 1.4 s at g = 800, where
    stamps take 1 and 4 ms.
    """
    rows = {i: {j: (a, 1) for j, a in row.items() if a} for i, row in rows.items()}
    left = sorted(rows)
    sign = last = 1
    while left:
        i = left.pop()
        u = rows.pop(i)
        if not u:
            return 0
        j = max(u)
        pos = bisect_left(left, j)
        w = rows.pop(j)
        del w[i], left[pos]
        u, w = ({k: x * last // s for k, (x, s) in r.items()} for r in (u, w))
        a = u.pop(j)
        sign = sign if pos & 1 else -sign
        met = u.keys() | w.keys()
        for k in met:
            row = rows[k]
            row.pop(i, None)
            row.pop(j, None)
            uk, wk = u.get(k, 0), w.get(k, 0)
            for m in met:
                if m != k:
                    x, s = row.get(m, (0, 1))
                    x = (a * (x * last // s) + wk * u.get(m, 0) - uk * w.get(m, 0)) // last
                    if x:
                        row[m] = x, a
                    else:
                        row.pop(m, None)
        last = a
    return sign * last


@lru_cache(maxsize=4096)
def _theta_pairing(genus: int, blade: tuple) -> int:
    """<Theta^[k] ^ e_B, top> for the blade B of even grade 2g - 2k within the genus.

    eps(B^c, B) * Pf of Theta's matrix on the complement B^c, built from
    the handles left whole: a_h ^ b_h is the blade (2h, 2h + 1).  Cached:
    a grid asks for the same few blades at every point.
    """
    inside = set(blade)
    rows = {i: {} for i in range(2 * genus) if i not in inside}
    for i in rows:
        if not i & 1 and i + 1 in rows:
            rows[i][i + 1], rows[i + 1][i] = 1, -1
    return merge_blades(tuple(rows), blade)[1] * pfaffian(rows)


@lru_cache(maxsize=4096)
def _segre_point(genus: int, r0: int, d: int, d0: int, aux_twist: int):
    """(series, lowest) of one grid point, or None when v < 0.

    Everything in ggw_via_segre that does not depend on l, with its
    checks in its order.  Cached: a grid pairs many blades at each
    point, and a point that raises is never stored, so it raises again
    on every call.  A caller that rebinds this module's abelian_v clears
    the cache, or the points it holds keep the old v.
    """
    check_counts(genus, r0)
    dprime = d - aux_twist
    if dprime > min(-1, d0) - 2 * genus:
        raise ValueError(
            f"aux_twist {aux_twist} too small: twisted degree {dprime} "
            f"exceeds {min(-1, d0) - 2 * genus}"
        )
    k = r0 * aux_twist - d0
    if k < 0:
        raise ValueError(f"aux_twist {aux_twist} gives negative section count {k}")
    big_n = r0 * (1 - genus - dprime) - 1
    v = abelian_v(r0, d, d0, genus)
    if genus + big_n - k != v:
        raise ArithmeticError(f"Segre bookkeeping: g + N - k = {genus + big_n - k}, but v = {v}")
    if v < 0:
        return None
    return _pushforward_segre(genus, r0, dprime), max(0, genus - v)


def ggw_via_segre(
    genus: int, r0: int, d: int, d0: int, aux_twist: int, l: Multivector
) -> int:
    """Abelian count recomputed through the Segre series of the pushforward.

    aux_twist must be large enough that the twisted kernel degree
    d' = d - aux_twist keeps the pushed-down hom sheaf a bundle
    (d' <= min(-1, d0) - 2g, a conservative bound) and that the section
    count k = r0*aux_twist - d0 is nonnegative.  The bookkeeping
    identity (g + N) - k = v ties the Segre index to the closed form's
    truncation and is checked.  Each blade B of l pairs with
    Theta^[g - |B|/2] through the Pfaffian-minor expansion, as
    eps(B^c, B) * Pf(Theta on B^c).  v below zero leaves no Segre index
    to pair, so the count is 0 unchecked; otherwise any blade of l past
    the genus raises, whether or not it pairs, as in ggw_abelian.  The
    checks and the series are cached per point (genus, r0, d, d0,
    aux_twist), and the pairings per blade.
    """
    point = _segre_point(genus, r0, d, d0, aux_twist)
    if point is None:
        return 0
    series, lowest = point
    total = 0
    for blade, coeff in l.terms.items():
        if blade and blade[-1] >= 2 * genus:
            check_range(blade[-1], genus, "ggw_via_segre")
        # of the Segre indices lowest..g, only g - |B|/2 tops off against blade B
        idx, odd = divmod(2 * genus - len(blade), 2)
        if odd or idx < lowest:
            continue
        pairing = _theta_pairing(genus, blade)
        if pairing:
            total += coeff * series[idx] * pairing
    return total
