"""Exterior algebra of the first homology of a closed genus-g surface.

Multivectors are finite integer combinations of blades in the symplectic
basis a1, b1, ..., ag, bg.  All arithmetic is exact: coefficients are
Python ints, exponentials truncate by nilpotency, and the top pairing
reads off the coefficient of the orientation blade a1^b1^...^ag^bg,
normalized so that blade itself pairs to +1.

Generators carry flat indices 0..2g-1 with a_k at 2(k-1) and b_k at
2(k-1)+1; a blade is a strictly increasing tuple of such indices.

Multivector and the slant algebra's NormalForm share one sparse integer
core, Combination.  Validation happens where terms enter: the public
constructors and the parsers.  Results built from terms that are
already valid (wedge, sums, scalings, theta and its powers, exp_even)
come through the trusted Combination._like.
"""

import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

__all__ = [
    "SurfaceTopology",
    "Multivector",
    "merge_blades",
    "wedge",
    "theta_class",
    "theta_divided_power",
    "exp_even",
    "top_pairing",
    "pair_theta_powers",
    "grade_part",
    "TextSyntaxError",
    "parse_multivector",
    "format_multivector",
]

Blade = tuple


@dataclass(frozen=True)
class SurfaceTopology:
    """Genus bookkeeping for the surface whose H_1 we work over."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")

    @property
    def rank(self) -> int:
        # rank of H_1
        return 2 * self.genus

    def a(self, k: int) -> int:
        """Flat index of a_k, 1-based k."""
        self._check_handle(k)
        return 2 * (k - 1)

    def b(self, k: int) -> int:
        """Flat index of b_k, 1-based k."""
        self._check_handle(k)
        return 2 * (k - 1) + 1

    def _check_handle(self, k: int):
        if not 1 <= k <= self.genus:
            raise ValueError(f"handle index {k} out of range for genus {self.genus}")

    def generator_name(self, index: int) -> str:
        k, parity = divmod(index, 2)
        return f"{'ab'[parity]}{k + 1}"

    def top_blade(self) -> Blade:
        return tuple(range(self.rank))


def merge_blades(x: tuple, y: tuple):
    """Merge two strictly increasing tuples; None if they share an entry.

    The sign is the parity of the shuffle moving y's entries into place,
    so the entries behave as anticommuting generators: blades here, odd
    slant classes in the slant algebra.
    """
    if not x:
        return y, 1
    if not y:
        return x, 1
    merged = []
    parity = 0
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        if x[i] == y[j]:
            return None
        if x[i] < y[j]:
            merged.append(x[i])
            i += 1
        else:
            # y[j] jumps over the nx - i remaining entries of x
            merged.append(y[j])
            j += 1
            parity ^= (nx - i) & 1
    merged.extend(x[i:])
    merged.extend(y[j:])
    return tuple(merged), (-1 if parity else 1)


class Combination:
    """Sparse integer combination of monomials, with its arithmetic.

    terms maps monomials to nonzero ints.  Immutable by convention: no
    method mutates, operators return fresh instances.  A subclass
    supplies four hooks:

    - monomial_degree(m), the degree of one monomial;
    - _shape(), what two operands must share (None here);
    - _like(terms), a result of the same shape from terms whose
      monomials are already valid; it drops zeros and checks nothing
      else;
    - merge_monomials(m1, m2), the product of two monomials as
      (monomial, sign), or None when it vanishes.

    x * n scales by an int n.  x * y, for y of x's type and shape, is the
    bilinear product: each pair of terms multiplies through
    merge_monomials.  Any other operand is a TypeError.

    Public constructors and parsers validate; everything computed from
    valid operands comes through _like.
    """

    __slots__ = ("terms",)

    def _shape(self):
        return None

    def _check_shape(self, other):
        if self._shape() != other._shape():
            raise ValueError(f"{type(self).__name__}s built over different contexts")

    def signed_sum(self, parts):
        """self plus sign * part over (sign, part) pairs, summed in one dict."""
        terms = dict(self.terms)
        for sign, part in parts:
            self._check_shape(part)
            for m, c in part.terms.items():
                terms[m] = terms.get(m, 0) + sign * c
        return self._like(terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.signed_sum(((1, other),))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.signed_sum(((-1, other),))

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def _product(self, other):
        """The bilinear product of self and other; shapes are not checked."""
        merge = self.merge_monomials
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = merge(m1, m2)
                if hit is None:
                    continue
                m, sign = hit
                terms[m] = terms.get(m, 0) + sign * c1 * c2
        return self._like(terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like({m: c * other for m, c in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        self._check_shape(other)
        return self._product(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __hash__(self):
        return hash((self._shape(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Terms as (monomial, coefficient), sorted by degree then monomial."""
        return sorted(self.terms.items(), key=lambda t: (self.monomial_degree(t[0]), t[0]))

    def degrees(self):
        return {self.monomial_degree(m) for m in self.terms}

    def homogeneous_part(self, degree: int):
        return self._like(
            {m: c for m, c in self.terms.items() if self.monomial_degree(m) == degree}
        )


class Multivector(Combination):
    """Sparse integer element of the exterior algebra; monomials are blades.

    The constructor validates each coefficient and blade.  x * y is the
    wedge product; :func:`wedge` also validates generator ranges.
    """

    __slots__ = ()

    monomial_degree = staticmethod(len)
    merge_monomials = staticmethod(merge_blades)

    def __init__(self, terms=None):
        clean = {}
        for blade, coeff in (terms or {}).items():
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an int")
            blade = tuple(blade)
            if any(blade[i] >= blade[i + 1] for i in range(len(blade) - 1)):
                raise ValueError(f"blade {blade} is not strictly increasing")
            if blade and blade[0] < 0:
                raise ValueError(f"blade {blade} has a negative generator index")
            if coeff:
                clean[blade] = coeff
        self.terms = clean

    @classmethod
    def _like(cls, terms):
        out = object.__new__(cls)
        out.terms = {b: c for b, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls) -> "Multivector":
        return cls()

    @classmethod
    def scalar(cls, n: int) -> "Multivector":
        return cls({(): n})

    @classmethod
    def generator(cls, index: int) -> "Multivector":
        return cls({(index,): 1})

    @classmethod
    def blade(cls, indices, coeff: int = 1) -> "Multivector":
        """Blade from possibly unsorted indices; zero on a repeated index."""
        blade, sign = (), 1
        for index in indices:
            hit = merge_blades(blade, (index,))
            if hit is None:
                return cls.zero()
            blade, s = hit
            sign *= s
        return cls({blade: sign * coeff})

    def coefficient(self, blade) -> int:
        return self.terms.get(tuple(blade), 0)

    def max_index(self) -> int:
        """Largest generator index used, -1 for scalars and zero."""
        return max((blade[-1] for blade in self.terms if blade), default=-1)

    def __repr__(self):
        return f"Multivector({dict(self.items())!r})"


def _check_range(x: Multivector, topo: SurfaceTopology, who: str):
    if x.max_index() >= topo.rank:
        raise ValueError(
            f"{who}: generator index {x.max_index()} out of range for genus {topo.genus}"
        )


def wedge(x: Multivector, y: Multivector, topo: SurfaceTopology) -> Multivector:
    """Exterior product x * y: Combination's product, range-checked against topo."""
    _check_range(x, topo, "wedge")
    _check_range(y, topo, "wedge")
    return x._product(y)


def theta_class(topo: SurfaceTopology) -> Multivector:
    """Sum of a_k^b_k over the handles; zero in genus 0."""
    return Multivector._like({(2 * h, 2 * h + 1): 1 for h in range(topo.genus)})


@lru_cache(maxsize=None)
def theta_divided_power(topo: SurfaceTopology, k: int) -> Multivector:
    """Theta^k/k!: the sum of all k-handle orientation blades.

    Agrees with grade_part(exp_even(theta_class(topo)), 2k); distinct
    a_i^b_i blocks commute, so each k-subset of handles contributes one
    blade with coefficient +1.  Cached: results are immutable and the
    cross-validation grids ask for the same powers constantly.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k > topo.genus:
        return Multivector.zero()
    # handle h (0-based) is the blade (2h, 2h+1)
    terms = {}
    for subset in combinations(range(topo.genus), k):
        terms[tuple(i for h in subset for i in (2 * h, 2 * h + 1))] = 1
    return Multivector._like(terms)


def exp_even(x: Multivector, topo: SurfaceTopology) -> Multivector:
    """Exponential sum of x^k/k!, truncated by nilpotency at grade 2g.

    x must be zero or homogeneous of even degree >= 2.  Each division by
    k must come out exact; blade sums with integer coefficients always
    satisfy this (a k-fold product of distinct blades shows up k! times).
    """
    _check_range(x, topo, "exp_even")
    if x.is_zero():
        return Multivector.scalar(1)
    degs = x.degrees()
    if len(degs) != 1:
        raise ValueError("exp_even: input is not homogeneous")
    (deg,) = degs
    if deg % 2 or deg < 2:
        raise ValueError(f"exp_even: degree {deg} is not even and >= 2")
    result = Multivector.scalar(1)
    power = Multivector.scalar(1)
    k = 0
    while True:
        k += 1
        raw = wedge(power, x, topo)
        if raw.is_zero():
            break
        terms = {}
        for blade, coeff in raw.terms.items():
            q, r = divmod(coeff, k)
            if r:
                raise ArithmeticError(
                    f"exp_even: coefficient {coeff} on {blade} not divisible by {k}"
                )
            terms[blade] = q
        power = Multivector._like(terms)
        result = result + power
    return result


def top_pairing(x: Multivector, topo: SurfaceTopology) -> int:
    """Coefficient of the orientation blade a1^b1^...^ag^bg."""
    _check_range(x, topo, "top_pairing")
    return x.coefficient(topo.top_blade())


def pair_theta_powers(l: Multivector, topo: SurfaceTopology, scale: int, powers) -> int:
    """Sum over i in powers of the top pairing of (scale*Theta)^i/i! with l.

    The one kernel behind the closed forms: the count scales Theta by the
    target rank, the Seiberg-Witten value by half the fibre pairing.  The
    cached Theta^i/i! is paired as it is and scale^i multiplies the
    integer pairing.  An empty powers range pairs nothing, so l is not
    range-checked then.
    """
    total = 0
    for i in powers:
        total += scale**i * top_pairing(wedge(theta_divided_power(topo, i), l, topo), topo)
    return total


def grade_part(x: Multivector, k: int) -> Multivector:
    """Grade-k component of x."""
    if k < 0:
        raise ValueError("grade_part: grade must be nonnegative")
    return x.homogeneous_part(k)


# -- text front end ----------------------------------------------------------
#
# Forms and slant expressions (slant.py) share one tokenizer, one token
# cursor and one term printer.  Tokens are integers, words (a letter or
# '_', then letters, digits or '_') and the symbols < > | ( ) . , + - * ^
# [ ]; whitespace between them is ignored.  Malformed text raises
# TextSyntaxError, a ValueError ending in "at position N" with N the
# offset of the offending character.  Integer literals and printed
# integers stay within the interpreter's digit limit (4300 by default).
#
#   form  := ['+'|'-'] term (('+'|'-') term)*
#   term  := integer ['*' blade] | blade
#   blade := gen ('^' gen)*
#   gen   := ('a'|'b') index          with 1 <= index <= genus


class TextSyntaxError(ValueError):
    """Malformed text; position is the offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<word>[A-Za-z_][A-Za-z_\d]*)|(?P<sym>[<>|().,+\-*^\[\]])|(?P<bad>\S))"
)
_WORD_SPLIT = re.compile(r"^([A-Za-z]+?)(\d+)$")


class TokenCursor:
    """Tokens (kind, value, position) of one text and a read position.

    kind is "int", "word", "eof" or the symbol.  Parsers subclass this and
    set error to their own TextSyntaxError subclass.
    """

    error = TextSyntaxError

    def __init__(self, text: str):
        self.tokens = self._scan(text)
        self.tokens.append(("eof", None, len(text)))
        self.pos = 0

    def _scan(self, text: str):
        # no int or word may outgrow the digit limit, so int() of its digits succeeds
        limit = sys.get_int_max_str_digits()
        tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            value, at = m.group(kind), m.start(kind)
            if kind == "bad":
                raise self.error(f"unexpected character {value!r}", at)
            if kind in ("int", "word") and 0 < limit < len(value):
                raise self.error(f"{kind} longer than the {limit}-digit limit", at)
            if kind == "int":
                value = int(value)
            elif kind == "sym":
                kind = value
            tokens.append((kind, value, at))
        return tokens

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise self.expected(repr(kind), tok)
        self.pos += 1
        return tok

    def expected(self, what, tok):
        """The error for finding tok where what was expected."""
        found = "end of input" if tok[0] == "eof" else clip(repr(tok[1]))
        return self.error(f"expected {what}, found {found}", tok[2])

    def at(self, kind):
        return self.peek()[0] == kind

    def check_index(self, what, value, hi, position):
        if not 1 <= value <= hi:
            raise self.error(
                f"{clip(what)} index {clip(str(value))} out of range 1..{hi}", position
            )

    def split_word(self, tok):
        """(letters, index) of a word like 'c12'; (None, None) for any other token."""
        m = _WORD_SPLIT.match(tok[1]) if tok[0] == "word" else None
        if m:
            return m.group(1), int(m.group(2))
        return None, None

    def signed_terms(self, term):
        """['+'|'-'] term (('+'|'-') term)* as a list of (sign, term())."""
        terms = []
        while True:
            kind = self.peek()[0]
            if kind in ("+", "-"):
                self.pos += 1
            elif terms:
                # only the first term may go without a sign
                return terms
            terms.append((-1 if kind == "-" else 1, term()))

    def finish(self, node):
        """node, once the whole text has been read; trailing input is an error."""
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(f"trailing input {clip(repr(tok[1]))}", tok[2])
        return node


def clip(text: str) -> str:
    """Echoed input for an error line: past 40 characters, cut there with '...'."""
    return text if len(text) <= 40 else text[:40] + "..."


def format_int(n: int) -> str:
    """Decimal text of n; past the interpreter's digit limit a ValueError naming it."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer has more than {limit} decimal digits") from None


def format_terms(terms) -> str:
    """Join (body, coeff) pairs as 'c*body', a coefficient of +-1 as a sign.

    A body of "" stands for a scalar; no terms at all print as "0".
    """
    text = ""
    for body, coeff in terms:
        if text:
            text += " - " if coeff < 0 else " + "
        elif coeff < 0:
            text = "-"
        if not body:
            text += format_int(abs(coeff))
        elif abs(coeff) == 1:
            text += body
        else:
            text += f"{format_int(abs(coeff))}*{body}"
    return text or "0"


class _FormParser(TokenCursor):
    def __init__(self, text: str, topo: SurfaceTopology):
        super().__init__(text)
        self.topo = topo

    def term(self):
        if not self.at("int"):
            return Multivector.blade(self.blade())
        coeff = self.take("int")[1]
        if not self.at("*"):
            return Multivector.scalar(coeff)
        self.take("*")
        return Multivector.blade(self.blade(), coeff)

    def blade(self):
        indices = [self.gen()]
        while self.at("^"):
            self.take("^")
            indices.append(self.gen())
        return indices

    def gen(self):
        tok = self.peek()
        letters, k = self.split_word(tok)
        if letters not in ("a", "b"):
            raise self.expected("a generator", tok)
        self.check_index(f"generator {tok[1]}", k, self.topo.genus, tok[2])
        self.take("word")
        return self.topo.a(k) if letters == "a" else self.topo.b(k)


def parse_multivector(text: str, topo: SurfaceTopology) -> Multivector:
    """Parse text like '2*a1^b1 - a2^b2 + 3' into a multivector."""
    parser = _FormParser(text, topo)
    return parser.finish(Multivector.zero().signed_sum(parser.signed_terms(parser.term)))


def format_multivector(x: Multivector, topo: SurfaceTopology) -> str:
    """Canonical text form, parseable by parse_multivector."""
    _check_range(x, topo, "format_multivector")
    return format_terms(
        ("^".join(topo.generator_name(i) for i in blade), coeff) for blade, coeff in x.items()
    )
