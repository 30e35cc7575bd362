"""Exterior algebra of the first homology of a closed genus-g surface.

Multivectors are finite integer combinations of blades in the symplectic
basis a1, b1, ..., ag, bg.  All arithmetic is exact: coefficients are
Python ints, exponentials truncate by nilpotency, and the top pairing
reads off the coefficient of the orientation blade a1^b1^...^ag^bg,
normalized so that blade itself pairs to +1.

Generators carry flat indices 0..2g-1 with a_k at 2(k-1) and b_k at
2(k-1)+1; a blade is a strictly increasing tuple of such indices.

Multivector, the slant algebra's NormalForm and the Segre oracle's
ThetaSeries and KunnethClass share one sparse core, Combination, with
one truncated exponential and one bilinear product, product_terms, a
loop over two term dicts that normalize in the slant layer calls too.
Validation happens where terms enter: the public constructors and the
parsers.  Results built from terms that are already valid (wedge, sums,
scalings, theta and its powers, exponentials) come through the one
trusted Combination._like.  Every value class is a __slots__ class on Record:
the small ones of every layer (SurfaceTopology here), and Combination,
whose subclasses' own __slots__ are their shape.
"""

import re
import sys
from functools import lru_cache
from itertools import combinations, islice
from operator import attrgetter, ge
from string import ascii_letters

__all__ = [
    "check_counts",
    "SurfaceTopology",
    "Multivector",
    "merge_blades",
    "product_terms",
    "wedge",
    "theta_class",
    "theta_divided_power",
    "exp_even",
    "top_pairing",
    "pair_theta_powers",
    "TextSyntaxError",
    "parse_multivector",
    "format_multivector",
]

Blade = tuple


class Record:
    """Base of the value classes: __slots__ names the fields, in order.

    Instances compare, hash and print by their fields, as a frozen
    dataclass would, and are immutable by convention.  A subclass whose
    fields are not all hashable sets __hash__ = None.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # no fields read None, through a staticmethod: a plain function would bind
        cls._fields = attrgetter(*cls.__slots__) if cls.__slots__ else staticmethod(lambda r: None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def check_counts(genus: int, r0: int = 1):
    """Refuse a negative genus, then a target rank below 1: every layer's one text."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if r0 < 1:
        raise ValueError("target rank must be >= 1")


class SurfaceTopology(Record):
    """Genus bookkeeping for the surface whose H_1 we work over."""

    __slots__ = ("genus",)

    def __init__(self, genus: int):
        check_counts(genus)
        self.genus = genus

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
    merged = []
    parity = i = j = 0
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


def product_terms(x: dict, y: dict, merge) -> dict:
    """The bilinear product of two term dicts, without its zero terms.

    Each pair of monomials multiplies through merge, a merge_monomials
    hook: (monomial, multiplier), or None when the product vanishes.
    Combination's product and the slant layer's normalize both call it,
    so the algebra has one product loop.
    """
    terms = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            hit = merge(m1, m2)
            if hit is None:
                continue
            m, factor = hit
            terms[m] = terms.get(m, 0) + factor * c1 * c2
    return {m: c for m, c in terms.items() if c}


class Combination(Record):
    """Sparse exact combination of monomials, with its arithmetic.

    terms maps monomials to nonzero int coefficients.  Immutable by
    convention: no method mutates, operators return fresh instances.  A
    subclass's own __slots__ are its shape, what two operands must
    share, read through Record's _fields (None for a subclass with no
    slots).  It supplies two hooks:

    - monomial_degree(m), the degree of one monomial;
    - merge_monomials(m1, m2), the product of two monomials as
      (monomial, multiplier), or None when it vanishes: a sign for
      blades, a binomial for theta's divided powers, the Kunneth
      relations for picard's KunnethClass.

    x * n scales by an int n, and exact_div divides by one.  x * y, for
    y of x's type and shape, is the bilinear product, product_terms over
    the two term dicts: each pair of terms multiplies through
    merge_monomials.  Any other operand is a TypeError.  x.exp(one, who)
    is the truncated exponential of a nilpotent x.

    Public constructors and parsers validate; everything computed from
    valid operands comes through _like.
    """

    __slots__ = ("terms",)

    def _like(self, terms):
        """self's type and shape over terms of valid monomials; drops zeros, checks nothing."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    def _check_shape(self, other):
        if self._fields(self) != other._fields(other):
            raise ValueError(f"{type(self).__name__} operands built over different contexts")

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
        return self._like(product_terms(self.terms, other.terms, self.merge_monomials))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like({m: c * other for m, c in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        self._check_shape(other)
        return self._product(other)

    __rmul__ = __mul__

    def exact_div(self, k: int, who: str):
        """Every coefficient divided by k; ArithmeticError, naming who, if one is not divisible."""
        for m, c in self.terms.items():
            if c % k:
                raise ArithmeticError(f"{who}: coefficient {c} on {m} not divisible by {k}")
        return self._like({m: c // k for m, c in self.terms.items()})

    def exp(self, one, who: str):
        """Sum of self^k/k! from one, self's unit, to the last power that does not vanish.

        self must be nilpotent.  Each power is divided by k before the
        next is taken, and each division must come out exact, or it
        raises ArithmeticError naming who.
        """
        result = power = one
        k = 0
        while True:
            k += 1
            power = power * self
            if power.is_zero():
                return result
            power = power.exact_div(k, who)
            result = result + power

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other) and self.terms == other.terms

    def __hash__(self):
        return hash((self._fields(self), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Terms as (monomial, coefficient), sorted by degree then monomial."""
        return sorted(self.terms.items(), key=lambda t: (self.monomial_degree(t[0]), t[0]))

    def degrees(self):
        return {self.monomial_degree(m) for m in self.terms}


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
            if any(map(ge, blade, blade[1:])):
                raise ValueError(f"blade {blade} is not strictly increasing")
            if blade and blade[0] < 0:
                raise ValueError(f"blade {blade} has a negative generator index")
            if coeff:
                clean[blade] = coeff
        self.terms = clean

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
        """Blade from possibly unsorted indices; zero on a repeated index.

        Strictly increasing indices go through the constructor as they
        are.  Others are the wedge of their two halves' blades, so
        merge_blades signs them by the permutation that sorts them, as the
        generators anticommute: O(m log m) for m indices.
        """
        indices = tuple(indices)
        if not any(map(ge, indices, indices[1:])):
            return cls({indices: coeff})
        if len(set(indices)) < len(indices):
            return cls.zero()
        half = len(indices) // 2
        return cls.blade(indices[:half], coeff) * cls.blade(indices[half:])

    def coefficient(self, blade) -> int:
        return self.terms.get(tuple(blade), 0)

    def max_index(self) -> int:
        """Largest generator index used, -1 for scalars and zero."""
        return max((blade[-1] for blade in self.terms if blade), default=-1)

    def __repr__(self):
        return f"Multivector({dict(self.items())!r})"


def _check_range(x: Multivector, genus: int, who: str):
    if x.max_index() >= 2 * genus:
        raise ValueError(f"{who}: generator index {x.max_index()} out of range for genus {genus}")


def wedge(x: Multivector, y: Multivector, topo: SurfaceTopology) -> Multivector:
    """Exterior product x * y: Combination's product, range-checked against topo."""
    _check_range(x, topo.genus, "wedge")
    _check_range(y, topo.genus, "wedge")
    return x._product(y)


def theta_class(topo: SurfaceTopology) -> Multivector:
    """Sum of a_k^b_k over the handles; zero in genus 0."""
    return Multivector()._like({(2 * h, 2 * h + 1): 1 for h in range(topo.genus)})


@lru_cache(maxsize=None)
def theta_divided_power(topo: SurfaceTopology, k: int) -> Multivector:
    """Theta^k/k!: the sum of all k-handle orientation blades.

    Agrees with the degree-2k terms of exp_even(theta_class(topo)); distinct
    a_i^b_i blocks commute, so each k-subset of handles contributes one
    blade with coefficient +1.  Neither route builds it: the closed forms
    read handle blades, the Segre oracle pairs through a Pfaffian.  The
    cache stays while the benchmark's sweep set-up fills it and reports
    its hit ratio.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k > topo.genus:
        return Multivector.zero()
    # handle h (0-based) is the blade (2h, 2h+1)
    handles = [(2 * h, 2 * h + 1) for h in range(topo.genus)]
    return Multivector()._like(dict.fromkeys((sum(s, ()) for s in combinations(handles, k)), 1))


def exp_even(x: Multivector, topo: SurfaceTopology) -> Multivector:
    """Exponential sum of x^k/k!, truncated by nilpotency at grade 2g.

    x must be zero or homogeneous of even degree >= 2.  Each division by
    k must come out exact; blade sums with integer coefficients always
    satisfy this (a k-fold product of distinct blades shows up k! times).
    """
    _check_range(x, topo.genus, "exp_even")
    if x.is_zero():
        return Multivector.scalar(1)
    degs = x.degrees()
    if len(degs) != 1:
        raise ValueError("exp_even: input is not homogeneous")
    (deg,) = degs
    if deg % 2 or deg < 2:
        raise ValueError(f"exp_even: degree {deg} is not even and >= 2")
    return x.exp(Multivector.scalar(1), "exp_even")


def top_pairing(x: Multivector, topo: SurfaceTopology) -> int:
    """Coefficient of the orientation blade a1^b1^...^ag^bg."""
    _check_range(x, topo.genus, "top_pairing")
    return x.coefficient(topo.top_blade())


def pair_theta_powers(l: Multivector, genus: int, scale: int, lowest: int) -> int:
    """Sum over i >= lowest of the top pairing of (scale*Theta)^i/i! with l.

    The one kernel behind the closed forms, which pass the genus they hold:
    the count scales Theta by the target rank, the Seiberg-Witten value by
    half the fibre pairing, and each truncates below its own lowest power; a
    lowest below 0 sums them all.  Theta^i/i! is the sum of the i-handle
    blades, so only handle blades of l, made of whole a_k^b_k pairs, reach
    the top grade.  A handle blade B pairs to +1 with Theta^i/i! for
    i = g - |B|/2 alone, since disjoint degree-2 blocks commute; a term c*B
    adds c*scale^i when i >= lowest.  A negative genus raises; a lowest
    past the genus gives 0 unchecked, else a blade past the genus raises
    with l's largest index.  Only a handle blade's entries fill |B|/2 handles.
    """
    if genus < 0:
        check_counts(genus)
    if lowest > genus:
        return 0
    rank = 2 * genus
    total = 0
    for blade, coeff in l.terms.items():
        if blade and blade[-1] >= rank:
            _check_range(l, genus, "pair_theta_powers")
        i, odd = divmod(2 * genus - len(blade), 2)
        if not odd and i >= lowest and len({x >> 1 for x in blade}) == genus - i:
            total += coeff * scale**i
    return total


# -- text front end ----------------------------------------------------------
#
# Forms and slant expressions (slant.py) share one tokenizer, one token
# cursor and one term printer.  Tokens are integers, words (a letter or
# '_', then letters, digits or '_') and the symbols < > | ( ) . , + - * ^
# [ ]; whitespace between them is ignored.  A token is its own text, and
# its position is found only when an error needs it.  Malformed text
# raises TextSyntaxError, a ValueError ending in "at position N" with N
# the offset of the offending character.  Integer literals and printed
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


# a word token: a letter or '_', then letters, digits or '_'
WORD = r"[A-Za-z_][A-Za-z_\d]*"
# symbols first, as most tokens are; the first character alone picks the class
_TOKEN_RE = re.compile(rf"\s*([<>|().,+\-*^\[\]]|\d+|{WORD}|\S)")
# a character no token class takes; the tokenizer's \S catches it alone
_BAD_RE = re.compile(r"[^\s\dA-Za-z_<>|().,+\-*^\[\]]")
# the kinds of token other than symbols, read off the first character
_KIND_TESTS = {"int": str.isdecimal, "word": str.isidentifier}


class TokenCursor:
    """The tokens of one text, as strings, and a read index into them.

    A token's kind is read off its text: "" ends the input, a symbol is
    its own kind, one that starts with a decimal digit is an int (taken
    as an int) and any other a word.  An error names a token by index and
    scans the text again for its position.  Parsers subclass this and set
    error to their own TextSyntaxError subclass.
    """

    error = TextSyntaxError

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        # no int or word may outgrow the digit limit, so int() of its digits succeeds;
        # no token outgrows the text, so a short text skips the scan
        limit = sys.get_int_max_str_digits()
        bad = _BAD_RE.search(text)
        if 0 < limit < len(text) and limit < max(map(len, self.tokens), default=0):
            index, tok = next((n, tok) for n, tok in enumerate(self.tokens) if len(tok) > limit)
            kind = "int" if tok[0].isdecimal() else "word"
            error = self.fail(f"{kind} longer than the {limit}-digit limit", index)
            if bad is None or error.position < bad.start():
                raise error
        if bad is not None:
            raise self.error(f"unexpected character {bad.group()!r}", bad.start())
        self.tokens.append("")
        self.pos = 0

    def fail(self, message, index):
        """The error for message at token index; past the last token is the end of the text."""
        m = next(islice(_TOKEN_RE.finditer(self.text), index, None), None)
        return self.error(message, m.start(1) if m else len(self.text))

    def take(self, kind):
        """The next token, which must be of kind: a symbol, "int" or "word"; an int as an int."""
        tok = self.tokens[self.pos]
        # a symbol is its own kind; the words "int" and "word" are not those kinds
        if tok != kind or kind == "int" or kind == "word":
            test = _KIND_TESTS.get(kind)
            if not (test and test(tok[:1])):
                raise self.expected(repr(kind), self.pos)
        self.pos += 1
        return int(tok) if kind == "int" else tok

    def echo(self, index):
        """The token at index as an error line shows it; an int as its value."""
        tok = self.tokens[index]
        return clip(repr(int(tok) if tok[:1].isdecimal() else tok))

    def expected(self, what, index):
        """The error for finding token index where what was expected."""
        found = self.echo(index) if self.tokens[index] else "end of input"
        return self.fail(f"expected {what}, found {found}", index)

    def check_index(self, what, value, hi, index):
        if not 1 <= value <= hi:
            raise self.fail(f"{clip(what)} index {clip(str(value))} out of range 1..{hi}", index)

    def split_word(self, tok):
        """(letters, index) of a word like 'c12'; (None, None) for any other token."""
        digits = tok.lstrip(ascii_letters)
        if digits.isdecimal() and len(digits) < len(tok):
            return tok[: -len(digits)], int(digits)
        return None, None

    def signed_terms(self, term):
        """['+'|'-'] term (('+'|'-') term)* as a list of (sign, term())."""
        terms = []
        while True:
            tok = self.tokens[self.pos]
            if tok == "+" or tok == "-":
                self.pos += 1
            elif terms:
                # only the first term may go without a sign
                return terms
            terms.append((-1 if tok == "-" else 1, term()))

    def finish(self, node):
        """node, once the whole text has been read; trailing input is an error."""
        if self.tokens[self.pos]:
            raise self.fail(f"trailing input {self.echo(self.pos)}", self.pos)
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
        if not self.tokens[self.pos][:1].isdecimal():
            return Multivector.blade(self.blade())
        coeff = self.take("int")
        if self.tokens[self.pos] != "*":
            return Multivector.scalar(coeff)
        self.pos += 1
        return Multivector.blade(self.blade(), coeff)

    def blade(self):
        indices = [self.gen()]
        while self.tokens[self.pos] == "^":
            self.pos += 1
            indices.append(self.gen())
        return indices

    def gen(self):
        tok = self.tokens[self.pos]
        letters, k = self.split_word(tok)
        if letters not in ("a", "b"):
            raise self.expected("a generator", self.pos)
        self.check_index(f"generator {tok}", k, self.topo.genus, self.pos)
        self.pos += 1
        return self.topo.a(k) if letters == "a" else self.topo.b(k)


def parse_multivector(text: str, topo: SurfaceTopology) -> Multivector:
    """Parse text like '2*a1^b1 - a2^b2 + 3' into a multivector."""
    parser = _FormParser(text, topo)
    return parser.finish(Multivector.zero().signed_sum(parser.signed_terms(parser.term)))


def format_multivector(x: Multivector, topo: SurfaceTopology) -> str:
    """Canonical text form, parseable by parse_multivector."""
    _check_range(x, topo.genus, "format_multivector")
    return format_terms(
        ("^".join(topo.generator_name(i) for i in blade), coeff) for blade, coeff in x.items()
    )
