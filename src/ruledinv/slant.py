"""Slant-product algebra: parsing, normal forms, abelian evaluation.

The algebra is generated by slant products of Chern classes c_1..c_r of
the universal bundle against homology classes of the curve: the point
class pt, the curve class S, and the odd classes g_1..g_{2g} in a
symplectic basis.  Normal monomials use

    u_i = <c_i|pt>        even, degree 2i
    v_i = <c_i|S>         even, degree 2i-2, kept for i >= 2
    G[i,j] = <c_i|g_j>    odd, degree 2i-1

v_1 is eliminated eagerly: <c_1|S> reduces to a context scalar, minus
the kernel degree.  Products of cup classes split left-to-right;
splitting over pt is multiplicative, over an odd class it
Leibniz-expands with the sign of the right factor's degree, and over
S it picks up the intersection-form double sum.  Degree-2 classes
pulled back from the curve slant to a context number over S and to zero
over pt and the odd classes.

Those signs are all +1: every cup atom has even degree (c_i has degree
2i, a pulled-back class degree 2), so the code writes none.

Accepted syntax (whitespace-insensitive), read by the tokenizer that
exterior's forms use too; malformed text raises SlantSyntaxError, whose
message ends in "at position N":

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := primary ('^' integer)*
    primary:= integer | slant | 'u' index | 'v' index
            | 'G' '[' index ',' index ']' | '(' expr ')'
    slant  := '<' cup '|' base '>'
    cup    := atom ('.' atom)*
    atom   := 'c' index | 'k0' '[' ident ']'
    base   := 'pt' | 'S' | 'g' index

The u/v/G forms and the optional leading sign are what print_normal
emits, so printing parses back.  At most MAX_NESTING parentheses nest,
'^' follow one primary and atoms share one cup; deeper text is a syntax
error rather than a stack overflow in parsing or normalizing.
"""

from dataclasses import dataclass, field
from operator import add

from .exterior import Combination, Multivector, SurfaceTopology, merge_blades, pair_theta_powers
from .exterior import TextSyntaxError, TokenCursor, clip, format_terms

__all__ = [
    "AlgebraContext",
    "SlantSyntaxError",
    "parse_expr",
    "NormalForm",
    "normalize",
    "print_normal",
    "evaluate_abelian",
]


@dataclass(frozen=True, eq=True)
class AlgebraContext:
    """Rank, genus, and reduction data for the algebra.

    scalar_degree feeds the <c1|S> reduction, whose value is fixed as
    -scalar_degree.  k0_eval sends names of degree-2 classes pulled back
    from the curve to their integrals.
    """

    r: int
    genus: int
    scalar_degree: int = 0
    k0_eval: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")


# AST nodes are tagged tuples:
#   ("int", n)
#   ("add", ((sign, node), ...))
#   ("mul", (node, ...))
#   ("pow", node, k)
#   ("slant", cup, base)    cup: (("c", i) | ("k0", name), ...)
#                           base: ("pt",) | ("sigma",) | ("gamma", j)


MAX_NESTING = 100


class SlantSyntaxError(TextSyntaxError):
    """Malformed slant expression; position is where the text goes wrong."""


class _Parser(TokenCursor):
    error = SlantSyntaxError

    def __init__(self, text: str, ctx: AlgebraContext):
        super().__init__(text)
        self.ctx = ctx
        self.depth = 0

    def check_nesting(self, count, what, tok):
        if count > MAX_NESTING:
            raise SlantSyntaxError(f"more than {MAX_NESTING} {what}", tok[2])

    def expr(self):
        terms = self.signed_terms(self.term)
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return ("add", tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.at("*"):
            self.take("*")
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return ("mul", tuple(factors))

    def factor(self):
        node = self.primary()
        powers = 0
        while self.at("^"):
            powers += 1
            self.check_nesting(powers, "'^' in a row", self.take("^"))
            node = ("pow", node, self.take("int")[1])
        return node

    def primary(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take("int")
            return ("int", tok[1])
        if tok[0] == "(":
            self.depth += 1
            self.check_nesting(self.depth, "nested parentheses", self.take("("))
            node = self.expr()
            self.take(")")
            self.depth -= 1
            return node
        if tok[0] == "<":
            return self.slant()
        letters, num = self.split_word(tok)
        if letters in ("u", "v"):
            self.take("word")
            self.check_index("chern", num, self.ctx.r, tok[2])
            return ("slant", (("c", num),), ("pt",) if letters == "u" else ("sigma",))
        if tok[1] == "G":
            self.take("word")
            self.take("[")
            i_tok = self.take("int")
            self.check_index("chern", i_tok[1], self.ctx.r, i_tok[2])
            self.take(",")
            j_tok = self.take("int")
            self.check_index("odd", j_tok[1], 2 * self.ctx.genus, j_tok[2])
            self.take("]")
            return ("slant", (("c", i_tok[1]),), ("gamma", j_tok[1]))
        raise self.expected("a factor", tok)

    def slant(self):
        self.take("<")
        cup = [self.atom()]
        while self.at("."):
            self.take(".")
            self.check_nesting(len(cup) + 1, "atoms in a cup", self.peek())
            cup.append(self.atom())
        self.take("|")
        base = self.base()
        self.take(">")
        return ("slant", tuple(cup), base)

    def atom(self):
        tok = self.peek()
        if tok[1] == "k0":
            self.take("word")
            self.take("[")
            name = self.take("word")[1]
            self.take("]")
            return ("k0", name)
        letters, num = self.split_word(tok)
        if letters == "c":
            self.take("word")
            self.check_index("chern", num, self.ctx.r, tok[2])
            return ("c", num)
        raise self.expected("a cup atom", tok)

    def base(self):
        tok = self.peek()
        if tok[1] == "pt":
            self.take("word")
            return ("pt",)
        if tok[1] == "S":
            self.take("word")
            return ("sigma",)
        letters, num = self.split_word(tok)
        if letters == "g":
            self.take("word")
            self.check_index("odd", num, 2 * self.ctx.genus, tok[2])
            return ("gamma", num)
        raise self.expected("a base class", tok)


def parse_expr(text: str, ctx: AlgebraContext):
    """Parse text into an AST; indices are validated against ctx."""
    parser = _Parser(text, ctx)
    return parser.finish(parser.expr())


# -- normal forms ------------------------------------------------------------


class NormalForm(Combination):
    """Integer combination of normal monomials over a fixed context shape.

    Keys are (u_exponents, v_exponents, odd_generators): u covers
    u_1..u_r, v covers v_2..v_r, odd is a sorted tuple of (i, j) pairs
    for G[i,j].  Only r and genus are carried; they are the shape two
    operands must share.  The reduction scalars live in the context and
    are consumed during normalize.  All arithmetic comes from the shared
    core, exterior.Combination; merge_monomials multiplies two keys.
    """

    __slots__ = ("r", "genus")

    def __init__(self, r: int, genus: int, terms=None):
        self.r = r
        self.genus = genus
        clean = {}
        for key, coeff in (terms or {}).items():
            if coeff:
                clean[key] = coeff
        self.terms = clean

    def _shape(self):
        return (self.r, self.genus)

    def _like(self, terms):
        return NormalForm(self.r, self.genus, terms)

    @classmethod
    def zero(cls, ctx: AlgebraContext) -> "NormalForm":
        return cls(ctx.r, ctx.genus)

    @classmethod
    def scalar(cls, ctx: AlgebraContext, n: int) -> "NormalForm":
        return cls(ctx.r, ctx.genus, {cls.unit_key(ctx): n})

    @staticmethod
    def unit_key(ctx: AlgebraContext):
        return ((0,) * ctx.r, (0,) * (ctx.r - 1), ())

    @classmethod
    def u_gen(cls, ctx: AlgebraContext, i: int) -> "NormalForm":
        u = tuple(1 if k == i - 1 else 0 for k in range(ctx.r))
        return cls(ctx.r, ctx.genus, {(u, (0,) * (ctx.r - 1), ()): 1})

    @classmethod
    def v_gen(cls, ctx: AlgebraContext, i: int) -> "NormalForm":
        if i < 2:
            raise ValueError("v_1 is not a normal generator; it reduces to a scalar")
        v = tuple(1 if k == i - 2 else 0 for k in range(ctx.r - 1))
        return cls(ctx.r, ctx.genus, {((0,) * ctx.r, v, ()): 1})

    @classmethod
    def odd_gen(cls, ctx: AlgebraContext, i: int, j: int) -> "NormalForm":
        return cls(ctx.r, ctx.genus, {((0,) * ctx.r, (0,) * (ctx.r - 1), ((i, j),)): 1})

    @staticmethod
    def merge_monomials(m1, m2):
        (u1, v1, o1), (u2, v2, o2) = m1, m2
        hit = merge_blades(o1, o2)
        if hit is None:
            return None
        odd, sign = hit
        return (tuple(map(add, u1, u2)), tuple(map(add, v1, v2)), odd), sign

    def monomial_degree(self, key) -> int:
        u, v, odd = key
        deg = sum(e * 2 * (i + 1) for i, e in enumerate(u))
        deg += sum(e * (2 * (i + 2) - 2) for i, e in enumerate(v))
        deg += sum(2 * i - 1 for i, _ in odd)
        return deg

    def __repr__(self):
        return f"NormalForm(r={self.r}, genus={self.genus}, {print_normal(self)!r})"


def _reduce_slant(cup, base, ctx: AlgebraContext) -> NormalForm:
    # pulled-back degree-2 classes peel off first: they cap the base
    for pos, atom in enumerate(cup):
        if atom[0] == "k0":
            name = atom[1]
            if name not in ctx.k0_eval:
                raise ValueError(f"unknown base-class name {clip(repr(name))} in context")
            if base[0] != "sigma":
                return NormalForm.zero(ctx)
            rest = cup[:pos] + cup[pos + 1 :]
            return ctx.k0_eval[name] * _reduce_slant(rest, ("pt",), ctx)
    if not cup:
        # the empty cup is the unit class; it only sees the point
        if base[0] == "pt":
            return NormalForm.scalar(ctx, 1)
        return NormalForm.zero(ctx)
    if len(cup) == 1:
        i = cup[0][1]
        if base[0] == "pt":
            return NormalForm.u_gen(ctx, i)
        if base[0] == "gamma":
            return NormalForm.odd_gen(ctx, i, base[1])
        if i == 1:
            return NormalForm.scalar(ctx, -ctx.scalar_degree)
        return NormalForm.v_gen(ctx, i)
    head, tail = cup[:1], cup[1:]
    if base[0] == "pt":
        return _reduce_slant(head, base, ctx) * _reduce_slant(tail, base, ctx)
    out = _reduce_slant(head, base, ctx) * _reduce_slant(tail, ("pt",), ctx)
    out = out + _reduce_slant(head, ("pt",), ctx) * _reduce_slant(tail, base, ctx)
    if base[0] == "gamma":
        return out
    corr = NormalForm.zero(ctx)
    for h in range(1, ctx.genus + 1):
        odd1, odd2 = ("gamma", 2 * h - 1), ("gamma", 2 * h)
        corr = corr + _reduce_slant(head, odd1, ctx) * _reduce_slant(tail, odd2, ctx)
        corr = corr - _reduce_slant(head, odd2, ctx) * _reduce_slant(tail, odd1, ctx)
    return out - corr


def normalize(expr, ctx: AlgebraContext) -> NormalForm:
    """Rewrite an AST into its normal form over ctx."""
    tag = expr[0]
    if tag == "int":
        return NormalForm.scalar(ctx, expr[1])
    if tag == "add":
        return NormalForm.zero(ctx).signed_sum((s, normalize(node, ctx)) for s, node in expr[1])
    if tag == "mul":
        out = NormalForm.scalar(ctx, 1)
        for node in expr[1]:
            out = out * normalize(node, ctx)
        return out
    if tag == "pow":
        if expr[2] < 0:
            raise ValueError(f"negative power {expr[2]}")
        base = normalize(expr[1], ctx)
        out = NormalForm.scalar(ctx, 1)
        for _ in range(expr[2]):
            out = out * base
        return out
    if tag == "slant":
        return _reduce_slant(tuple(expr[1]), tuple(expr[2]), ctx)
    raise ValueError(f"unknown node tag {tag!r}")


def print_normal(nf: NormalForm) -> str:
    """Canonical text form; parse_expr of the output normalizes back to nf."""
    terms = []
    for (u, v, odd), coeff in nf.items():
        parts = []
        for letter, first, exponents in (("u", 1, u), ("v", 2, v)):
            for i, e in enumerate(exponents, first):
                if e:
                    parts.append(f"{letter}{i}" + (f"^{e}" if e > 1 else ""))
        for i, j in odd:
            parts.append(f"G[{i},{j}]")
        terms.append(("*".join(parts), coeff))
    return format_terms(terms)


def evaluate_abelian(nf: NormalForm, genus: int, r0: int, v: int) -> int:
    """Pair a rank-1 normal form against the abelian moduli fundamental class.

    The monomial u1^a times a product of G[1,j] maps to the pairing of
    (r0*Theta)^(a+g-v)/(a+g-v)! wedged with the matching odd blade;
    indices outside 0..g contribute nothing.
    """
    if nf.r != 1:
        raise NotImplementedError("evaluation is only defined for the rank-1 algebra")
    if nf.genus != genus:
        raise ValueError(f"normal form genus {nf.genus} does not match {genus}")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if r0 < 1:
        raise ValueError("target rank must be >= 1")
    topo = SurfaceTopology(genus)
    total = 0
    for (u, _v, odd), coeff in nf.terms.items():
        a = u[0]
        idx = a + genus - v
        if not 0 <= idx <= genus:
            continue
        blade = Multivector.blade([j - 1 for _, j in odd])
        total += coeff * pair_theta_powers(blade, topo, r0, (idx,))
    return total
