"""Slant-product algebra: parsing, normal forms, abelian evaluation.

The algebra is generated by slant products of Chern classes c_1..c_r of
the universal bundle against homology classes of the curve: the point
class pt, the curve class S, and the odd classes g_1..g_{2g} in a
symplectic basis.  Normal monomials use

    u_i = <c_i|pt>        even, degree 2i
    v_i = <c_i|S>         even, degree 2i-2, kept for i >= 2
    G[i,j] = <c_i|g_j>    odd, degree 2i-1

v_1 is eliminated eagerly: <c_1|S> reduces to a context scalar s_1,
minus the kernel degree; s_i = v_i for i >= 2.  A cup c_{i_1}...c_{i_k}
slants in one pass, over S with the intersection-form double sum:

    over pt    u_{i_1}...u_{i_k}
    over g_j   sum_m G[i_m,j] prod_{n!=m} u_{i_n}
    over S     sum_m s_{i_m} prod_{n!=m} u_{i_n} - sum_{m<n} sum_h prod_{p!=m,n} u_{i_p}
               * (G[i_m,2h-1] G[i_n,2h] - G[i_m,2h] G[i_n,2h-1])

Every cup atom has even degree (c_i has degree 2i, a pulled-back class
degree 2), so moving one past another costs no sign; keys are written
sorted.  Degree-2 classes pulled back from the curve slant to a context
number over S and to zero over pt and the odd classes.

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
error rather than a stack overflow in parsing or normalizing.  Powers
past MAX_EXPONENT, ranks past MAX_RANK and S-slants of more than
MAX_SLANT_TERMS terms are refused before any work.
"""

from itertools import combinations
from operator import add, ge

from .exterior import Combination, Multivector, merge_blades, pair_theta_powers, product_terms
from .exterior import Record, TextSyntaxError, TokenCursor, check_counts, clip, format_terms

__all__ = [
    "AlgebraContext",
    "SlantSyntaxError",
    "parse_expr",
    "NormalForm",
    "normalize",
    "print_normal",
    "evaluate_abelian",
]


class AlgebraContext(Record):
    """Rank, genus, and reduction data for the algebra.

    scalar_degree feeds the <c1|S> reduction, whose value is fixed as
    -scalar_degree.  k0_eval sends names of degree-2 classes pulled back
    from the curve to their integrals.  Unhashable, as k0_eval is a dict.
    """

    __slots__ = ("r", "genus", "scalar_degree", "k0_eval")
    __hash__ = None

    def __init__(self, r: int, genus: int, scalar_degree: int = 0, k0_eval: dict | None = None):
        if r < 1:
            raise ValueError("rank must be >= 1")
        if r > MAX_RANK:
            raise ValueError(f"rank {clip(str(r))} is over the limit of {MAX_RANK}")
        check_counts(genus)
        self.r, self.genus, self.scalar_degree = r, genus, scalar_degree
        self.k0_eval = {} if k0_eval is None else k0_eval


# AST nodes are tagged tuples:
#   ("int", n)
#   ("add", ((sign, node), ...))
#   ("mul", (node, ...))
#   ("pow", node, k)
#   ("slant", cup, base)    cup: (("c", i) | ("k0", name), ...)
#                           base: ("pt",) | ("sigma",) | ("gamma", j)


MAX_NESTING = 100
# a power grows with its exponent (4^(10^20) fills memory); u1^MAX_EXPONENT still answers
MAX_EXPONENT = 1_000_000
# every normal-form key holds r-tuples, so the rank is in the cost of each term
MAX_RANK = 1000
# an S-slant's terms grow with its index pairs times the genus; <c1.c1|S> at g = 10^6
# takes seconds and prints 29 MB, and it is counted before it is expanded
MAX_SLANT_TERMS = 1_000_000


class SlantSyntaxError(TextSyntaxError):
    """Malformed slant expression; position is where the text goes wrong."""


class _Parser(TokenCursor):
    """The recursive-descent reader of one text over one context.

    Every method reads at the cursor's one position, self.pos, and every
    expected-token and index-range error comes from TokenCursor's take
    and check_index.  Each distinct leaf text is read and validated once
    per parse: leaves maps an int, u<i> or v<i> token, or the five tokens
    after a G as a tuple, to the AST node read from it.  A printed normal
    form repeats a few leaves over thousands of terms.  Only a leaf that
    passed every check is stored, so a bad leaf is read afresh each time
    and fails with the same message at the same position.  Sharing a node
    is safe, as AST nodes are immutable tuples; the dict dies with the
    parser, so a leaf is never accepted against another context.
    """

    error = SlantSyntaxError

    def __init__(self, text: str, ctx: AlgebraContext):
        super().__init__(text)
        self.ctx = ctx
        self.depth = 0
        self.leaves = {}

    def check_nesting(self, count, what):
        if count > MAX_NESTING:
            raise self.fail(f"more than {MAX_NESTING} {what}", self.pos)

    def expr(self):
        terms = self.signed_terms(self.term)
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return ("add", tuple(terms))

    def term(self):
        """factor ('*' factor)*, factor := primary ('^' int)*; int, u, v and G read here."""
        tokens, leaves = self.tokens, self.leaves
        factors = []
        while True:
            tok = tokens[self.pos]
            node = leaves.get(tok)
            if node is not None:
                self.pos += 1
            elif tok == "G":
                # past the end the slice is short, so it is never a stored key
                key = tuple(tokens[self.pos + 1 : self.pos + 6])
                node = leaves.get(key)
                if node is not None:
                    self.pos += 6
                else:
                    self.pos += 1
                    self.take("[")
                    i = self.take("int")
                    self.check_index("chern", i, self.ctx.r, self.pos - 1)
                    self.take(",")
                    j = self.take("int")
                    self.check_index("odd", j, 2 * self.ctx.genus, self.pos - 1)
                    self.take("]")
                    node = leaves[key] = ("slant", (("c", i),), ("gamma", j))
            elif (first := tok[:1]).isdecimal():
                node = leaves[tok] = ("int", int(tok))
                self.pos += 1
            elif (first == "u" or first == "v") and tok[1:].isdecimal():
                i = int(tok[1:])
                self.check_index("chern", i, self.ctx.r, self.pos)
                node = leaves[tok] = ("slant", (("c", i),), ("pt",) if first == "u" else ("sigma",))
                self.pos += 1
            else:
                node = self.primary()
            powers = 0
            while tokens[self.pos] == "^":
                powers += 1
                self.check_nesting(powers, "'^' in a row")
                self.pos += 1
                node = ("pow", node, self.take("int"))
            factors.append(node)
            if tokens[self.pos] != "*":
                return factors[0] if len(factors) == 1 else ("mul", tuple(factors))
            self.pos += 1

    def primary(self):
        tok = self.tokens[self.pos]
        if tok == "(":
            self.depth += 1
            self.check_nesting(self.depth, "nested parentheses")
            self.pos += 1
            node = self.expr()
            self.take(")")
            self.depth -= 1
            return node
        if tok == "<":
            return self.slant()
        raise self.expected("a factor", self.pos)

    def slant(self):
        self.pos += 1
        cup = [self.atom()]
        while self.tokens[self.pos] == ".":
            self.pos += 1
            self.check_nesting(len(cup) + 1, "atoms in a cup")
            cup.append(self.atom())
        self.take("|")
        base = self.base()
        self.take(">")
        return ("slant", tuple(cup), base)

    def atom(self):
        tok = self.tokens[self.pos]
        if tok == "k0":
            self.pos += 1
            self.take("[")
            name = self.take("word")
            self.take("]")
            return ("k0", name)
        letters, num = self.split_word(tok)
        if letters == "c":
            self.check_index("chern", num, self.ctx.r, self.pos)
            self.pos += 1
            return ("c", num)
        raise self.expected("a cup atom", self.pos)

    def base(self):
        tok = self.tokens[self.pos]
        if tok == "pt" or tok == "S":
            self.pos += 1
            return ("pt",) if tok == "pt" else ("sigma",)
        letters, num = self.split_word(tok)
        if letters == "g":
            self.check_index("odd", num, 2 * self.ctx.genus, self.pos)
            self.pos += 1
            return ("gamma", num)
        raise self.expected("a base class", self.pos)


def parse_expr(text: str, ctx: AlgebraContext):
    """Parse text into an AST; indices are validated against ctx."""
    parser = _Parser(text, ctx)
    return parser.finish(parser.expr())


# -- normal forms ------------------------------------------------------------


class NormalForm(Combination):
    """Integer combination of normal monomials over a fixed context shape.

    Keys are (u_exponents, v_exponents, odd_generators): u covers
    u_1..u_r, v covers v_2..v_r, odd is a sorted tuple of (i, j) pairs
    for G[i,j].  Only r and genus, the shape two operands must share, are
    carried; the context's reduction scalars are consumed by normalize.
    The shared core, exterior.Combination, checks each coefficient and
    does all arithmetic; merge_monomials multiplies two keys.
    """

    __slots__ = ("r", "genus")

    def __init__(self, r: int, genus: int, terms=None):
        super().__init__(terms or {})
        self.r, self.genus = r, genus

    @classmethod
    def scalar(cls, ctx: AlgebraContext, n: int) -> "NormalForm":
        return cls(ctx.r, ctx.genus, {((0,) * ctx.r, (0,) * (ctx.r - 1), ()): n})

    @classmethod
    def u_gen(cls, ctx: AlgebraContext, i: int) -> "NormalForm":
        u = tuple(1 if k == i - 1 else 0 for k in range(ctx.r))
        return cls(ctx.r, ctx.genus, {(u, (0,) * (ctx.r - 1), ()): 1})

    @classmethod
    def odd_gen(cls, ctx: AlgebraContext, i: int, j: int) -> "NormalForm":
        return cls(ctx.r, ctx.genus, {((0,) * ctx.r, (0,) * (ctx.r - 1), ((i, j),)): 1})

    @staticmethod
    def merge_monomials(m1, m2):
        (u1, v1, o1), (u2, v2, o2) = m1, m2
        if o1 and o2:
            hit = merge_blades(o1, o2)
            if hit is None:
                return None
            odd, sign = hit
        else:
            # an empty odd part leaves the other as it is
            odd, sign = o1 or o2, 1
        return (tuple(map(add, u1, u2)), tuple(map(add, v1, v2)), odd), sign

    def __repr__(self):
        return f"NormalForm(r={self.r}, genus={self.genus}, {print_normal(self)!r})"


def _even_degree(u, v) -> int:
    """Degree of a key's u and v exponents: u_k and v_{k+1} both have degree 2k."""
    return sum([2 * k * e for k, e in enumerate(map(add, u, v + (0,)), 1)])


def _reduce_slant(cup, base, ctx: AlgebraContext) -> dict:
    """The slant of one cup over base, as a term dict with no zero coefficient.

    One loop reads the whole cup: c atoms are counted by index, and each
    k0 name, which must be in ctx, caps the base, taking S to pt times
    its integral and any other base (pt, g_j, or S already capped) to
    zero.  Terms see indices, not atoms: each distinct index m with n_m
    atoms drops one atom off u_m at weight n_m, to G[m,j] over g_j and
    to s_m over S.  Over S each index pair then drops two atoms, every
    key written sorted, over handles h = 1..g:

        m = p    G[m,2h-1] G[m,2h]  at -n_m (n_m - 1)
        m < p    G[m,2h-1] G[p,2h]  at -n_m n_p,   G[m,2h] G[p,2h-1]  at +n_m n_p

    These keys are distinct, at most g per same-index pair, 2g per cross
    pair and one per index, refused past MAX_SLANT_TERMS before any is built.
    """
    every = [0] * ctx.r
    scale, kind = 1, base[0]
    for tag, arg in cup:
        if tag == "c":
            every[arg - 1] += 1
        elif arg not in ctx.k0_eval:
            raise ValueError(f"unknown base-class name {clip(repr(arg))} in context")
        else:
            # a pulled-back degree-2 class caps the base
            scale, kind = (ctx.k0_eval[arg] if kind == "sigma" else 0), "pt"
    no_v = (0,) * (ctx.r - 1)
    if kind == "pt":
        return {(tuple(every), no_v, ()): scale} if scale else {}
    counts = [(i, n) for i, n in enumerate(every, 1) if n]
    pairs = []
    if kind == "sigma":
        # C(n, 2) atom pairs of one index, each of whose two terms sorts to the same key
        pairs = [(m, m, -n * (n - 1)) for m, n in counts if n > 1]
        pairs += [(m, p, -n * n2) for (m, n), (p, n2) in combinations(counts, 2)]
        if sum(1 + (m < p) for m, p, _ in pairs) * ctx.genus + len(counts) > MAX_SLANT_TERMS:
            raise ValueError(f"S-slant expands to more than the limit of {MAX_SLANT_TERMS} terms")
    terms = {}
    for i, n in counts:
        every[i - 1] -= 1
        rest = tuple(every)
        every[i - 1] += 1
        if kind == "gamma":
            terms[rest, no_v, ((i, base[1]),)] = n
        elif i > 1:
            terms[rest, no_v[: i - 2] + (1,) + no_v[i - 1 :], ()] = n
        elif ctx.scalar_degree:
            terms[rest, no_v, ()] = -n * ctx.scalar_degree
    for m, p, weight in pairs:
        every[m - 1] -= 1
        every[p - 1] -= 1
        rest = tuple(every)
        every[m - 1] += 1
        every[p - 1] += 1
        for j in range(2, 2 * ctx.genus + 1, 2):
            terms[rest, no_v, ((m, j - 1), (p, j))] = weight
            if m < p:
                terms[rest, no_v, ((m, j), (p, j - 1))] = -weight
    return terms


def normalize(expr, ctx: AlgebraContext) -> NormalForm:
    """Rewrite an AST into its normal form over ctx.

    The recursion works on plain {key: coeff} dicts, with no zero
    coefficient, and builds one NormalForm at the end.  Products go
    through exterior.product_terms with NormalForm.merge_monomials, read
    here at call time.
    """
    return NormalForm(ctx.r, ctx.genus, _normal_terms(expr, ctx, NormalForm.merge_monomials))


def _normal_terms(expr, ctx: AlgebraContext, merge) -> dict:
    """normalize's term dict for one AST node, with no zero coefficient."""
    tag = expr[0]
    if tag == "slant":
        return _reduce_slant(expr[1], expr[2], ctx)
    if tag == "int":
        return NormalForm.scalar(ctx, expr[1]).terms
    if tag == "add":
        terms = {}
        for sign, node in expr[1]:
            for key, coeff in _normal_terms(node, ctx, merge).items():
                terms[key] = terms.get(key, 0) + sign * coeff
        return {key: coeff for key, coeff in terms.items() if coeff}
    if tag == "mul":
        out = _normal_terms(expr[1][0], ctx, merge)
        for node in expr[1][1:]:
            out = product_terms(out, _normal_terms(node, ctx, merge), merge)
        return out
    if tag == "pow":
        if expr[2] < 0:
            raise ValueError(f"negative power {expr[2]}")
        if expr[2] > MAX_EXPONENT:
            raise ValueError(f"power {clip(str(expr[2]))} is over the limit of {MAX_EXPONENT}")
        base, e = _normal_terms(expr[1], ctx, merge), expr[2]
        if e == 0:
            return NormalForm.scalar(ctx, 1).terms
        # out = base^k over e's bits from the top.  Squaring costs |out|^2 merges, k more
        # factors of base about k*|out|*|base|: a wider power, a sum's, grows by base.
        out, k = base, 1
        for bit in bin(e)[3:]:
            if len(out) <= k * len(base):
                out = product_terms(out, out, merge)
            else:
                for _ in range(k):
                    out = product_terms(out, base, merge)
            out, k = (product_terms(out, base, merge), 2 * k + 1) if bit == "1" else (out, 2 * k)
        return out
    raise ValueError(f"unknown node tag {tag!r}")


def print_normal(nf: NormalForm) -> str:
    """Canonical text form; parse_expr of the output normalizes back to nf.

    Terms come sorted by (degree, key), each body its u, v and G factors
    joined by '*'; u_k and v_{k+1} have degree 2k, G[i,j] degree 2i - 1.
    The u/v text and the even degree of each distinct (u, v) pair are
    worked out once per call, as many terms share them and differ in
    their odd part only.  The terms are then sorted once, as tuples led by (degree, key); keys
    are distinct, so no comparison goes past the key.  A string is
    immutable, so sharing one changes no byte.
    """
    even = {}
    rows = []
    for key, coeff in nf.terms.items():
        u, v, odd = key
        hit = even.get((u, v))
        if hit is None:
            parts = [f"u{i}^{e}" if e > 1 else f"u{i}" for i, e in enumerate(u, 1) if e]
            parts += [f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(v, 2) if e]
            hit = even[u, v] = (_even_degree(u, v), "*".join(parts))
        degree, body = hit
        if odd:
            degree += sum([2 * i - 1 for i, _ in odd])
            g = "*".join([f"G[{i},{j}]" for i, j in odd])
            body = f"{body}*{g}" if body else g
        rows.append((degree, key, body, coeff))
    rows.sort()
    return format_terms([(body, coeff) for _, _, body, coeff in rows])


def evaluate_abelian(nf: NormalForm, genus: int, r0: int, v: int) -> int:
    """Pair a rank-1 normal form against the abelian moduli fundamental class.

    The monomial u1^a times G[1,j1]...G[1,jm] maps to (r0*Theta)^i/i!,
    i = a+g-v, wedged with the odd blade B = e_{j1-1}...e_{jm-1}; it
    reaches the top grade only when 2i + |B| = 2g, that is 2(v-a) = |B|.
    Each such term's odd indices, 0-based, go into one term dict l as its
    blade when they are strictly increasing and nonnegative, as in every
    normal form normalize makes; any other odd part goes through
    Multivector.blade, which signs it by its sort, drops it on a repeated
    index and refuses a negative one.  l is paired in one kernel pass
    over the powers 0..g.
    """
    if nf.r != 1:
        raise NotImplementedError("evaluation is only defined for the rank-1 algebra")
    if nf.genus != genus:
        raise ValueError(f"normal form genus {nf.genus} does not match {genus}")
    # inline for the same reason as in ggw_abelian: one call per evaluation
    if genus < 0 or r0 < 1:
        check_counts(genus, r0)
    terms = {}
    for (u, _v, odd), coeff in nf.terms.items():
        if 2 * (v - u[0]) == len(odd):
            blade = tuple([j - 1 for _, j in odd])
            if blade and (blade[0] < 0 or any(map(ge, blade, blade[1:]))):
                for blade, c in Multivector.blade(blade, coeff).terms.items():
                    terms[blade] = terms.get(blade, 0) + c
            else:
                terms[blade] = terms.get(blade, 0) + coeff
    return pair_theta_powers(terms, genus, r0, 0)
