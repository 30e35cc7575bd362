"""Independent oracle for the abelian count via the Picard-variety route.

This module recomputes the quotient count without the closed formula:
push the universal sheaf's character down the curve, turn the character
into a total Chern class with Newton's identities, invert it to a Segre
series, and pair the right Segre coefficient against the orientation
blade under the standard identification of the Picard cohomology with
the exterior algebra (theta goes to Theta).

The series in theta are combinations on exterior's shared core, with
exact rational coefficients; the count sums their pairings exactly and
returns the total as an int, or raises ArithmeticError if it is not
integral.

A blade B pairs with the divided power Theta^[k] through the
Pfaffian-minor expansion (Ishikawa-Wakayama, "Minor summation formula of
Pfaffians", Linear Multilinear Algebra 39, 1995): a 2-form with skew
matrix A has omega^[k] = sum over |S| = 2k of Pf(A_S) e_S, so
<Theta^[k] ^ e_B, top> = eps(B^c, B) * Pf(A_{B^c}), with eps the shuffle
sign.  The Pfaffian is exact skew elimination, which never builds
Theta^[k] and its C(g, k) blades.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exterior import Combination, Multivector, Record, SurfaceTopology
from .exterior import merge_blades, theta_class
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

    A combination on exterior's shared core whose monomials are the
    powers 0..genus of theta, with exact Fraction coefficients.
    merge_monomials adds powers and drops a product past theta^genus, as
    a repeated generator vanishes in a blade; the genus is the shape two
    operands must share.  Indexing past the genus reads 0.
    """

    __slots__ = ("genus",)

    def __init__(self, coeffs, genus=None):
        coeffs = [Fraction(c) for c in coeffs]
        if genus is not None and genus < 0:
            raise ValueError("genus must be nonnegative")
        self.genus = len(coeffs) - 1 if genus is None else genus
        if self.genus < 0:
            raise ValueError("need at least the constant coefficient")
        self.terms = {i: c for i, c in enumerate(coeffs[: self.genus + 1]) if c}

    def merge_monomials(self, i, j):
        return (i + j, 1) if i + j <= self.genus else None

    @staticmethod
    def monomial_degree(i):
        return 2 * i  # theta has degree 2

    @classmethod
    def constant(cls, value, genus: int) -> "ThetaSeries":
        return cls([value], genus)

    @property
    def coeffs(self) -> tuple:
        return tuple(self.terms.get(i, 0) for i in range(self.genus + 1))

    def __getitem__(self, i: int):
        # an int 0 for a missing power: the oracle reads one per blade
        if i < 0:
            raise IndexError(i)
        return self.terms.get(i, 0)

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return self._like({i: c * other for i, c in self.terms.items()})
        return Combination.__mul__(self, other)

    __rmul__ = __mul__

    def shift(self) -> "ThetaSeries":
        """Multiply by theta."""
        return self._like({i + 1: c for i, c in self.terms.items() if i < self.genus})

    def inverse(self) -> "ThetaSeries":
        """Multiplicative inverse; the leading term must be nonzero."""
        if not self[0]:
            raise ValueError("leading term 0 is not invertible")
        lead = 1 / self[0]
        out = {0: lead}
        for k in range(1, self.genus + 1):
            out[k] = -lead * sum(c * out[k - i] for i, c in self.terms.items() if 0 < i <= k)
        return self._like(out)

    def __repr__(self):
        return f"ThetaSeries({[str(c) for c in self.coeffs]})"


class KunnethClass(Record):
    """Element one + gamma_part*gamma + eta_part*eta of the product ring.

    Relations: eta^2 = 0, gamma*eta = 0, gamma^2 = -2*theta*eta, theta
    central.  gamma*eta = 0 closes the three-component representation.
    """

    __slots__ = ("one", "gamma_part", "eta_part")

    def __init__(self, one: ThetaSeries, gamma_part: ThetaSeries, eta_part: ThetaSeries):
        if not one.genus == gamma_part.genus == eta_part.genus:
            raise ValueError("components disagree on genus")
        self.one, self.gamma_part, self.eta_part = one, gamma_part, eta_part

    @classmethod
    def unit(cls, genus: int) -> "KunnethClass":
        z = ThetaSeries.constant(0, genus)
        return cls(ThetaSeries.constant(1, genus), z, z)

    def __add__(self, other):
        if not isinstance(other, KunnethClass):
            return NotImplemented
        return KunnethClass(
            self.one + other.one,
            self.gamma_part + other.gamma_part,
            self.eta_part + other.eta_part,
        )

    def __mul__(self, other):
        if isinstance(other, KunnethClass):
            return KunnethClass(
                self.one * other.one,
                self.one * other.gamma_part + self.gamma_part * other.one,
                self.one * other.eta_part
                + self.eta_part * other.one
                - 2 * (self.gamma_part * other.gamma_part).shift(),
            )
        if isinstance(other, (int, Fraction)):
            return KunnethClass(
                self.one * other, self.gamma_part * other, self.eta_part * other
            )
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.one.is_zero() and self.gamma_part.is_zero() and self.eta_part.is_zero()


def poincare_chern(dprime: int, genus: int) -> KunnethClass:
    """Character 1 + d'*eta + gamma - theta*eta of the universal line bundle.

    Computed as the exponential of the first Chern class d'*eta + gamma;
    the square of that class is -2*theta*eta and the cube vanishes, so
    the loop stops on its own.  A negative genus raises in ThetaSeries.
    """
    zero = ThetaSeries.constant(0, genus)
    c1 = KunnethClass(zero, ThetaSeries.constant(1, genus), ThetaSeries.constant(dprime, genus))
    result = KunnethClass.unit(genus)
    power = KunnethClass.unit(genus)
    k = 0
    while True:
        k += 1
        power = power * c1 * Fraction(1, k)
        if power.is_zero():
            return result
        result = result + power


def integrate_sigma(kc: KunnethClass) -> ThetaSeries:
    """Fibre integration over the curve: keep the eta coefficient."""
    return kc.eta_part


def grr_pushforward(dprime: int, r0: int, genus: int) -> ThetaSeries:
    """Character of the pushed-down hom bundle: r0*((d'+1-g) - theta).

    Pairs the universal character with the curve's Todd correction
    1 + (1-g)*eta before integrating, then scales by the target rank.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if r0 < 1:
        raise ValueError("target rank must be >= 1")
    zero = ThetaSeries.constant(0, genus)
    todd = KunnethClass(
        ThetaSeries.constant(1, genus), zero, ThetaSeries.constant(1 - genus, genus)
    )
    return r0 * integrate_sigma(poincare_chern(dprime, genus) * todd)


def chern_series(ch: ThetaSeries) -> ThetaSeries:
    """Total Chern class from a Chern character, by Newton's identities.

    Power sums are i! times the character coefficients; the recurrence
    k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i rebuilds the elementary
    symmetric side.  The rank term must be an integer.
    """
    if ch[0].denominator != 1:
        raise ValueError(f"rank term {ch[0]} is not an integer")
    g = ch.genus
    p = [factorial(i) * ch[i] for i in range(g + 1)]
    e = [Fraction(1)]
    for k in range(1, g + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i]
        e.append(acc / k)
    return ThetaSeries(e)


def segre_series(ch: ThetaSeries) -> ThetaSeries:
    """Inverse of the total Chern class of ch."""
    return chern_series(ch).inverse()


@lru_cache(maxsize=None)
def _pushforward_segre(genus: int, r0: int, dprime: int) -> ThetaSeries:
    # grid checks revisit the same twisted degrees thousands of times
    return segre_series(grr_pushforward(dprime, r0, genus))


def min_valid_aux_twist(genus: int, r0: int, d: int, d0: int) -> int:
    """Smallest twist meeting the pushforward and section-count bounds."""
    bundle_bound = d - min(-1, d0) + 2 * genus
    count_bound = -((-d0) // r0)  # ceil(d0 / r0)
    return max(bundle_bound, count_bound)


def pfaffian(rows) -> Fraction:
    """Pfaffian of the skew matrix with sparse rows {i: {j: a_ij}}.

    Every index keys a row, an empty one too, taken in sorted order, and
    a row holding a_ij has a_ji = -a_ij in row j.  Exact skew
    elimination: pivot on the first row i left, at its first nonzero
    column j; moving j next to i is a cyclic shift of sign (-1)^(pos-1),
    pos being j's place among the indices left.  Then
    Pf = sign * a_ij * Pf(S) for the Schur complement S, in which only the
    rows that meet column i or j change.  A row with nothing left, as
    the last row of an odd matrix has, makes the Pfaffian 0.
    """
    rows = {i: {j: Fraction(a) for j, a in row.items() if a} for i, row in rows.items()}
    left = sorted(rows)
    pf = Fraction(1)
    while left:
        i = left[0]
        u = rows.pop(i)
        if not u:
            return Fraction(0)
        j = min(u)
        pos = bisect_left(left, j)
        a = u.pop(j)
        w = rows.pop(j)
        del w[i], left[pos], left[0]
        pf *= a if pos & 1 else -a
        # S_kl = a_kl + (a_jk * a_il - a_ik * a_jl) / a_ij
        met = u.keys() | w.keys()
        for k in met:
            row = rows[k]
            row.pop(i, None)
            row.pop(j, None)
            uk, wk = u.get(k, 0), w.get(k, 0)
            for m in met:
                if m != k:
                    x = row.get(m, 0) + (wk * u.get(m, 0) - uk * w.get(m, 0)) / a
                    if x:
                        row[m] = x
                    else:
                        row.pop(m, None)
    return pf


@lru_cache(maxsize=4096)
def _theta_pairing(genus: int, blade: tuple) -> int:
    """<Theta^[k] ^ e_B, top> for the blade B of even grade 2g - 2k; B past 2g raises.

    eps(B^c, B) * Pf of Theta's matrix on the complement B^c, the matrix
    read from the grade-2 blades of theta_class.  Cached: a grid asks
    for the same few blades at every point.
    """
    if blade and blade[-1] >= 2 * genus:
        raise ValueError(
            f"ggw_via_segre: generator index {blade[-1]} out of range for genus {genus}"
        )
    inside = set(blade)
    rows = {i: {} for i in range(2 * genus) if i not in inside}
    for (i, j), c in theta_class(SurfaceTopology(genus)).terms.items():
        if i in rows and j in rows:
            rows[i][j], rows[j][i] = c, -c
    pf = pfaffian(rows)
    if pf.denominator != 1:
        raise ArithmeticError(f"non-integral Pfaffian {pf} on the complement of {blade}")
    return merge_blades(tuple(rows), blade)[1] * int(pf)


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
    eps(B^c, B) * Pf(Theta on B^c); a blade it pairs that lies past the
    genus raises.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if r0 < 1:
        raise ValueError("target rank must be >= 1")
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

    series = _pushforward_segre(genus, r0, dprime)
    lowest = max(0, genus - v)
    total = 0  # Fraction terms keep it exact once one is added
    for blade, coeff in l.terms.items():
        # of the Segre indices lowest..g, only g - |B|/2 tops off against blade B
        idx, odd = divmod(2 * genus - len(blade), 2)
        if odd or idx < lowest:
            continue
        pairing = _theta_pairing(genus, blade)
        if pairing:
            total += coeff * series[idx] * factorial(idx) * pairing
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral count {total}")
    return int(total)
