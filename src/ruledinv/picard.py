"""Independent oracle for the abelian count via the Picard-variety route.

This module recomputes the quotient count without the closed formula:
push the universal sheaf's character down the curve, turn the character
into a total Chern class with Newton's identities, invert it to a Segre
series, and pair the right Segre coefficient against the orientation
blade under the standard identification of the Picard cohomology with
the exterior algebra (theta goes to Theta).

Coefficients are exact rationals throughout; integrality is asserted
only at the final pairing.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exterior import Multivector, SurfaceTopology, theta_divided_power, top_pairing, wedge
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


class ThetaSeries:
    """Polynomial in the degree-2 class theta, truncated past theta^genus.

    Coefficients are Fractions indexed 0..genus.  Indexing past genus
    reads 0, matching the ring truncation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, genus=None):
        coeffs = [Fraction(c) for c in coeffs]
        if genus is not None:
            if genus < 0:
                raise ValueError("genus must be nonnegative")
            coeffs = coeffs[: genus + 1]
            coeffs += [Fraction(0)] * (genus + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value, genus: int) -> "ThetaSeries":
        return cls([value], genus)

    @property
    def genus(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        if i < 0:
            raise IndexError(i)
        return self.coeffs[i] if i <= self.genus else Fraction(0)

    def _match(self, other: "ThetaSeries"):
        if self.genus != other.genus:
            raise ValueError(f"mixed genus {self.genus} and {other.genus}")

    def __add__(self, other):
        if not isinstance(other, ThetaSeries):
            return NotImplemented
        self._match(other)
        return ThetaSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, ThetaSeries):
            return NotImplemented
        self._match(other)
        return ThetaSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return ThetaSeries([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, ThetaSeries):
            self._match(other)
            g = self.genus
            out = [Fraction(0)] * (g + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(g + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return ThetaSeries(out)
        if isinstance(other, (int, Fraction)):
            return ThetaSeries([a * other for a in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def shift(self) -> "ThetaSeries":
        """Multiply by theta."""
        return ThetaSeries([Fraction(0), *self.coeffs], self.genus)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def inverse(self) -> "ThetaSeries":
        """Multiplicative inverse; the leading term must be nonzero."""
        if not self.coeffs[0]:
            raise ValueError("leading term 0 is not invertible")
        lead = Fraction(1) / self.coeffs[0]
        out = [lead]
        for k in range(1, self.genus + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out.append(-lead * acc)
        return ThetaSeries(out)

    def __eq__(self, other):
        if not isinstance(other, ThetaSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ThetaSeries({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class KunnethClass:
    """Element one + gamma_part*gamma + eta_part*eta of the product ring.

    Relations: eta^2 = 0, gamma*eta = 0, gamma^2 = -2*theta*eta, theta
    central.  gamma*eta = 0 closes the three-component representation.
    """

    one: ThetaSeries
    gamma_part: ThetaSeries
    eta_part: ThetaSeries

    def __post_init__(self):
        if not self.one.genus == self.gamma_part.genus == self.eta_part.genus:
            raise ValueError("components disagree on genus")

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
    the loop stops on its own.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
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


def ggw_via_segre(
    genus: int, r0: int, d: int, d0: int, aux_twist: int, l: Multivector
) -> int:
    """Abelian count recomputed through the Segre series of the pushforward.

    aux_twist must be large enough that the twisted kernel degree
    d' = d - aux_twist keeps the pushed-down hom sheaf a bundle
    (d' <= min(-1, d0) - 2g, a conservative bound) and that the section
    count k = r0*aux_twist - d0 is nonnegative.  The bookkeeping
    identity (g + N) - k = v ties the Segre index to the closed form's
    truncation and is checked.
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
        raise ArithmeticError((genus, big_n, k, v))

    topo = SurfaceTopology(genus)
    series = _pushforward_segre(genus, r0, dprime)
    total = Fraction(0)
    for blade, coeff in l.items():
        # of the Segre indices max(0, g-v)..g, only g - |B|/2 tops off against blade B
        idx, odd = divmod(2 * genus - len(blade), 2)
        if odd or idx < max(0, genus - v):
            continue
        lam = Multivector({blade: 1})
        pairing = top_pairing(wedge(theta_divided_power(topo, idx), lam, topo), topo)
        if pairing:
            total += coeff * series[idx] * factorial(idx) * pairing
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral count {total}")
    return int(total)
