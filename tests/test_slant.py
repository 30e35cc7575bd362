import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzz_exprs import random_context, random_expr
from ruledinv import slant
from ruledinv.invariants import ggw_abelian
from ruledinv.exterior import (
    Multivector,
    clip,
    merge_blades,
    SurfaceTopology,
    format_terms,
    theta_divided_power,
    top_pairing,
    wedge,
)
from ruledinv.slant import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_RANK,
    AlgebraContext,
    NormalForm,
    SlantSyntaxError,
    _reduce_slant,
    evaluate_abelian,
    normalize,
    parse_expr,
    print_normal,
)

CTX22 = AlgebraContext(r=2, genus=2, scalar_degree=-1)


def norm(text, ctx):
    return normalize(parse_expr(text, ctx), ctx)


# -- parsing -----------------------------------------------------------------


def test_parse_shapes():
    assert parse_expr("u1", CTX22) == ("slant", (("c", 1),), ("pt",))
    assert parse_expr("v2", CTX22) == ("slant", (("c", 2),), ("sigma",))
    assert parse_expr("G[2,3]", CTX22) == ("slant", (("c", 2),), ("gamma", 3))
    assert parse_expr("<c1.c2|S>", CTX22) == (
        "slant",
        (("c", 1), ("c", 2)),
        ("sigma",),
    )
    assert parse_expr("u1^2", CTX22) == ("pow", ("slant", (("c", 1),), ("pt",)), 2)
    assert parse_expr("2*u1 + 3", CTX22) == (
        "add",
        (
            (1, ("mul", (("int", 2), ("slant", (("c", 1),), ("pt",))))),
            (1, ("int", 3)),
        ),
    )
    assert parse_expr("-u1", CTX22) == ("add", ((-1, ("slant", (("c", 1),), ("pt",))),))
    assert parse_expr("( u1 )", CTX22) == parse_expr("u1", CTX22)


def test_parse_whitespace_insensitive():
    a = parse_expr("<c1.c2|g3> * u1 - 4", CTX22)
    b = parse_expr("<c1 . c2|g3>*u1-4", CTX22)
    assert a == b


@pytest.mark.parametrize(
    "text,position",
    [
        ("$", 0),
        ("", 0),
        ("u1 u2", 3),
        ("<c9|pt>", 1),
        ("G[1,7]", 4),
        ("(u1", 3),
        ("u1^", 3),
        ("<c1|q>", 4),
        ("<c1,pt>", 3),
        ("<k0[h|pt>", 5),
        # whole messages where the tokens are scanned ahead of the parse
        ("u1 + é", "unexpected character 'é' at position 5"),
        pytest.param(
            "9" * 4301 + " é",
            "int longer than the 4300-digit limit at position 0",
            id="long-int-first",
        ),
        pytest.param(
            "é " + "9" * 4301, "unexpected character 'é' at position 0", id="bad-character-first"
        ),
        pytest.param(
            "x" * 4301, "word longer than the 4300-digit limit at position 0", id="long-word"
        ),
        ("u1 0012", "trailing input 12 at position 3"),
        ("<c1|\t\tq>", "expected a base class, found 'q' at position 6"),
        ("G[1, 0012]", "odd index 12 out of range 1..4 at position 5"),
        ("u1^2^", "expected 'int', found end of input at position 5"),
        ("u1^int", "expected 'int', found 'int' at position 3"),
        ("<k0[12]|S>", "expected 'word', found 12 at position 4"),
        ("<x|S>", "expected a cup atom, found 'x' at position 1"),
    ],
)
def test_parse_errors_carry_positions(text, position):
    # position is the offset alone, or the whole message ending in it
    message = position if isinstance(position, str) else None
    if message:
        position = int(message.rsplit(" ", 1)[1])
    with pytest.raises(SlantSyntaxError) as err:
        parse_expr(text, CTX22)
    assert err.value.position == position
    assert isinstance(err.value, ValueError)
    assert f"position {position}" in str(err.value)
    assert message in (None, str(err.value))


@pytest.mark.parametrize(
    "build,position",
    [
        (lambda n: "(" * n + "u1" + ")" * n, lambda n: n - 1),
        (lambda n: "u1" + "^1" * n, lambda n: 2 * n),
        (lambda n: "<" + ".".join(["c1"] * n) + "|pt>", lambda n: 3 * n - 2),
    ],
    ids=["parentheses", "powers", "cup_atoms"],
)
def test_nesting_bound(build, position):
    # exactly MAX_NESTING parses and normalizes; one more is a syntax error
    ctx = AlgebraContext(r=1, genus=1)
    nf = norm(build(MAX_NESTING), ctx)
    assert nf in (norm("u1", ctx), norm(f"u1^{MAX_NESTING}", ctx))
    with pytest.raises(SlantSyntaxError) as err:
        parse_expr(build(MAX_NESTING + 1), ctx)
    assert err.value.position == position(MAX_NESTING + 1)


def test_odd_index_range_tracks_genus():
    parse_expr("G[1,4]", CTX22)
    with pytest.raises(SlantSyntaxError):
        parse_expr("G[1,5]", CTX22)
    with pytest.raises(SlantSyntaxError):
        parse_expr("<c1|g1>", AlgebraContext(r=1, genus=0))


PARSE_GOLDEN = Path(__file__).resolve().parent / "golden" / "slant_parse.jsonl"


def test_parse_golden_replays():
    # the committed parses, written by tests/golden/make_slant_parse_golden.py
    lines = PARSE_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 2000
    for line in lines:
        r, genus, text, expected = json.loads(line)
        try:
            got = repr(parse_expr(text, AlgebraContext(r=r, genus=genus)))
        except SlantSyntaxError as err:
            got = str(err)
        assert got == expected, (r, genus, text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("u1*G", "expected '[', found end of input at position 4"),
        ("u1*G[", "expected 'int', found end of input at position 5"),
        ("G[1,2", "expected ']', found end of input at position 5"),
        ("G[1,2]*G[1", "expected ',', found end of input at position 10"),
        ("G[1,2]*G[1,", "expected 'int', found end of input at position 11"),
        ("G[1,2]*G[1,2", "expected ']', found end of input at position 12"),
        ("G[1,2]*G[1,5]", "odd index 5 out of range 1..4 at position 11"),
        ("u1*u2*u1*u3", "chern index 3 out of range 1..2 at position 9"),
    ],
)
def test_a_leaf_cut_short_reaches_the_end_of_input(text, message):
    # a G whose five tokens run past the end is read against the end-of-input
    # sentinel, never indexed past it, after the same leaves have parsed whole
    with pytest.raises(SlantSyntaxError) as err:
        parse_expr(text, CTX22)
    assert str(err.value) == message


def test_a_repeated_leaf_parses_to_equal_nodes():
    node = ("slant", (("c", 2),), ("gamma", 1))
    assert parse_expr("*".join(["G[2,1]"] * 50), CTX22) == ("mul", (node,) * 50)
    assert parse_expr("u2*7*u2*G[2, 1]*7*G[2,1]", CTX22) == parse_expr("u2*7*u2*G[2,1]*7*G[2,1]", CTX22)


def test_a_leaf_accepted_at_one_rank_is_refused_at_a_lower_one():
    # leaves are validated once per parse, not once per process
    wide, narrow = AlgebraContext(r=3, genus=1), AlgebraContext(r=1, genus=1)
    for text, position in (("u3", 0), ("v3", 0), ("G[3,1]", 2)):
        parse_expr(f"{text}*{text}", wide)
        with pytest.raises(SlantSyntaxError, match=f"chern index 3 out of range 1..1 at position {position}$"):
            parse_expr(text, narrow)
    parse_expr("G[1,2]", wide)
    with pytest.raises(SlantSyntaxError, match="odd index 2 out of range 1..0 at position 4$"):
        parse_expr("G[1,2]", AlgebraContext(r=1, genus=0))


# -- normal forms ------------------------------------------------------------


def test_square_of_first_slant_class():
    nf = norm("<c1.c1|S>", CTX22)
    assert print_normal(nf) == "-2*G[1,1]*G[1,2] - 2*G[1,3]*G[1,4] + 2*u1"
    # same identity with the generators assembled by hand
    expected = (
        2 * NormalForm.u_gen(CTX22, 1)
        - 2 * NormalForm.odd_gen(CTX22, 1, 1) * NormalForm.odd_gen(CTX22, 1, 2)
        - 2 * NormalForm.odd_gen(CTX22, 1, 3) * NormalForm.odd_gen(CTX22, 1, 4)
    )
    assert nf == expected


@pytest.mark.parametrize("sd", [-3, -1, 0, 2])
@pytest.mark.parametrize("sign", [-1])  # <c1|S> = -scalar_degree, a fixed convention
def test_square_tracks_scalar_degree_and_sign(sd, sign):
    ctx = AlgebraContext(r=2, genus=1, scalar_degree=sd)
    nf = norm("<c1.c1|S>", ctx)
    expected = 2 * sign * sd * NormalForm.u_gen(ctx, 1) - 2 * NormalForm.odd_gen(
        ctx, 1, 1
    ) * NormalForm.odd_gen(ctx, 1, 2)
    assert nf == expected


def test_genus_zero_sigma_square():
    ctx = AlgebraContext(r=2, genus=0, scalar_degree=2)
    assert print_normal(norm("<c1.c1|S>", ctx)) == "-4*u1"


def test_first_class_sigma_is_a_scalar():
    nf = norm("<c1|S>", CTX22)
    assert nf == NormalForm.scalar(CTX22, 1)  # -(-1)
    assert norm("v1", CTX22) == nf


def test_point_base_splits_multiplicatively():
    assert norm("<c1.c2.c1|pt>", CTX22) == norm("u1^2 * u2", CTX22)


def test_pulled_back_classes_cap_sigma():
    ctx = AlgebraContext(r=2, genus=1, k0_eval={"h": 3})
    assert print_normal(norm("<c1.k0[h].c1|S>", ctx)) == "3*u1^2"
    assert norm("<k0[h]|S>", ctx) == NormalForm.scalar(ctx, 3)
    assert norm("<k0[h]|pt>", ctx).is_zero()
    assert norm("<c1.k0[h]|g1>", ctx).is_zero()
    with pytest.raises(ValueError):
        norm("<k0[q]|S>", ctx)


def test_print_forms():
    assert print_normal(NormalForm.zero(CTX22)) == "0"
    assert print_normal(norm("0*u1", CTX22)) == "0"
    assert print_normal(norm("u1^0", CTX22)) == "1"
    assert print_normal(norm("u1*u1", CTX22)) == "u1^2"
    assert print_normal(norm("-v2", CTX22)) == "-v2"
    assert print_normal(norm("2^3 - u2*7", CTX22)) == "8 - 7*u2"
    assert print_normal(norm("G[1,2]*G[1,1]", CTX22)) == "-G[1,1]*G[1,2]"
    # any decimal digit reads as int() reads it
    assert print_normal(norm("u1^٣", CTX22)) == "u1^3"


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        normalize(("pow", ("int", 2), -1), CTX22)
    with pytest.raises(ValueError, match="^unknown node tag 'bogus'$"):
        normalize(("bogus",), CTX22)
    with pytest.raises(SlantSyntaxError):
        parse_expr("u1^-1", CTX22)


def test_power_and_rank_caps():
    # the largest power and rank still answer; one past either is refused
    # before any squaring or any r-tuple is built
    ctx = AlgebraContext(r=1, genus=1)
    assert print_normal(norm(f"u1^{MAX_EXPONENT}", ctx)) == f"u1^{MAX_EXPONENT}"
    with pytest.raises(ValueError, match=f"power {MAX_EXPONENT + 1} is over the limit"):
        norm(f"4^{MAX_EXPONENT + 1}", ctx)
    assert print_normal(norm("u1*v2", AlgebraContext(r=MAX_RANK, genus=0))) == "u1*v2"
    with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} is over the limit"):
        AlgebraContext(r=MAX_RANK + 1, genus=0)
    with pytest.raises(ValueError, match="^rank must be >= 1$"):
        AlgebraContext(0, 1)
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        AlgebraContext(1, -1)


def test_power_of_a_sum_grows_by_its_base(monkeypatch):
    # squaring a wide power costs more merges than multiplying it by its base e - 1 times
    ctx = AlgebraContext(r=3, genus=3)
    base = norm("u1+u2+u3+v2+G[1,1]+G[2,3]", ctx)
    powers = [base]
    for _ in range(11):
        powers.append(powers[-1] * base)
    merges = []
    merge = NormalForm.merge_monomials
    monkeypatch.setattr(
        NormalForm, "merge_monomials", staticmethod(lambda m1, m2: merges.append(1) or merge(m1, m2))
    )
    for e in (8, 12):
        merges.clear()
        assert norm(f"(u1+u2+u3+v2+G[1,1]+G[2,3])^{e}", ctx) == powers[e - 1]
        assert len(merges) <= len(base.terms) * sum(len(p.terms) for p in powers[: e - 1])
    # a power that stays narrow still squares: 19 squarings of at most 2 x 2 terms
    for text, want in (("u1^524288", "u1^524288"), ("(1+G[1,1])^524288", "1 + 524288*G[1,1]")):
        merges.clear()
        assert print_normal(norm(text, CTX22)) == want
        assert len(merges) <= 4 * 19


@pytest.mark.parametrize("r", [1, 2, 3])
def test_monomial_degree_orders_the_terms(r):
    # the grading written out: u_i has degree 2i, v_i degree 2i - 2, G[i,j] degree 2i - 1
    def degree(key):
        u, v, odd = key
        deg = sum(2 * i * e for i, e in enumerate(u, 1))
        deg += sum((2 * i - 2) * e for i, e in enumerate(v, 2))
        return deg + sum(2 * i - 1 for i, _ in odd)

    rng = random.Random(r)
    odd_gens = [(i, j) for i in range(1, r + 1) for j in range(1, 5)]
    keys = {
        (
            tuple(rng.randint(0, 3) for _ in range(r)),
            tuple(rng.randint(0, 3) for _ in range(r - 1)),
            tuple(sorted(rng.sample(odd_gens, rng.randint(0, 3)))),
        )
        for _ in range(300)
    }
    nf = NormalForm(r, 2, dict.fromkeys(keys, 1))
    assert all(nf.monomial_degree(key) == degree(key) for key in keys)
    assert [key for key, _ in nf.items()] == sorted(keys, key=lambda key: (degree(key), key))


def test_normal_form_repr_names_shape_and_text():
    nf = norm("u1 - 2*G[1,1]*G[1,2]", CTX22)
    assert repr(nf) == "NormalForm(r=2, genus=2, '-2*G[1,1]*G[1,2] + u1')"


def test_context_shape_mismatch():
    # normal forms of different (r, genus) do not combine and never compare equal
    x = norm("u1", CTX22)
    for other in (AlgebraContext(r=1, genus=2), AlgebraContext(r=2, genus=3)):
        y = norm("u1", other)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: y * x):
            with pytest.raises(ValueError, match="different contexts"):
                op()
        assert x != y and y != x
        assert NormalForm.zero(other) != NormalForm.zero(CTX22)
    # a multivector and a normal form are different kinds of combination
    m = Multivector.scalar(1)
    one = NormalForm.scalar(CTX22, 1)
    for op in (lambda: m + one, lambda: one + m, lambda: m - one, lambda: m * one, lambda: one * m):
        with pytest.raises(TypeError):
            op()
    assert m != one and not (one == m)


def test_cup_order_is_immaterial():
    ctx = AlgebraContext(r=3, genus=1, scalar_degree=2)
    for base in ("pt", "S", "g1", "g2"):
        assert norm(f"<c1.c2|{base}>", ctx) == norm(f"<c2.c1|{base}>", ctx)
        assert norm(f"<c2.c3.c1|{base}>", ctx) == norm(f"<c1.c2.c3|{base}>", ctx)


def test_odd_generators_anticommute():
    a = NormalForm.odd_gen(CTX22, 1, 1)
    b = NormalForm.odd_gen(CTX22, 2, 3)
    assert (a * a).is_zero()
    assert a * b == -(b * a)


def reference_reduce(cup, base, ctx):
    """The slant reduction as a left-to-right recursion over the cup."""
    for pos, atom in enumerate(cup):
        if atom[0] == "k0":
            name = atom[1]
            if name not in ctx.k0_eval:
                raise ValueError(f"unknown base-class name {name!r} in context")
            if base[0] != "sigma":
                return NormalForm.zero(ctx)
            rest = cup[:pos] + cup[pos + 1 :]
            return ctx.k0_eval[name] * reference_reduce(rest, ("pt",), ctx)
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
        v = tuple(1 if k == i - 2 else 0 for k in range(ctx.r - 1))
        return NormalForm(ctx.r, ctx.genus, {((0,) * ctx.r, v, ()): 1})
    head, tail = cup[:1], cup[1:]
    if base[0] == "pt":
        return reference_reduce(head, base, ctx) * reference_reduce(tail, base, ctx)
    out = reference_reduce(head, base, ctx) * reference_reduce(tail, ("pt",), ctx)
    out = out + reference_reduce(head, ("pt",), ctx) * reference_reduce(tail, base, ctx)
    if base[0] == "gamma":
        return out
    corr = NormalForm.zero(ctx)
    for h in range(1, ctx.genus + 1):
        odd1, odd2 = ("gamma", 2 * h - 1), ("gamma", 2 * h)
        corr = corr + reference_reduce(head, odd1, ctx) * reference_reduce(tail, odd2, ctx)
        corr = corr - reference_reduce(head, odd2, ctx) * reference_reduce(tail, odd1, ctx)
    return out - corr


def test_reduce_slant_matches_the_recursion():
    # every base and scalar degree, cups of 1-5 atoms with known and unknown k0 names
    rng = random.Random(2024)
    cases = 0
    for _ in range(1500):
        r, genus = rng.randint(1, 3), rng.randint(0, 4)
        ctx = AlgebraContext(r, genus, rng.randint(-3, 3), {"h": rng.randint(-3, 3), "k": 2})
        names = ["h", "k", "q"]
        cup = tuple(
            ("k0", rng.choice(names)) if rng.random() < 0.2 else ("c", rng.randint(1, r))
            for _ in range(rng.randint(1, 5))
        )
        bases = [("pt",), ("sigma",)] + [("gamma", j) for j in range(1, 2 * genus + 1)]
        base = rng.choice(bases)
        try:
            want = reference_reduce(cup, base, ctx)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                _reduce_slant(cup, base, ctx)
            assert str(got.value) == str(err)
            continue
        assert NormalForm(ctx.r, ctx.genus, _reduce_slant(cup, base, ctx)) == want, (cup, base, ctx)
        cases += not want.is_zero()
    # most cases compare nonzero forms, not zero with zero
    assert cases > 800


def atom_pair_reduce(cup, base, ctx: AlgebraContext) -> NormalForm:
    """The slant reduction over every atom and atom pair of the cup, one term each."""
    # pulled-back degree-2 classes peel off first: they cap the base
    scale = 1
    for name in (atom[1] for atom in cup if atom[0] == "k0"):
        if name not in ctx.k0_eval:
            raise ValueError(f"unknown base-class name {clip(repr(name))} in context")
        if base[0] != "sigma":
            return NormalForm.zero(ctx)
        scale, base = ctx.k0_eval[name], ("pt",)
    chern = [atom[1] for atom in cup if atom[0] == "c"]
    no_v = (0,) * (ctx.r - 1)
    every = [0] * ctx.r
    for i in chern:
        every[i - 1] += 1

    def u(*drop):
        # exponents of the u_i from the atoms not at the positions in drop
        exps = every.copy()
        for m in drop:
            exps[chern[m] - 1] -= 1
        return tuple(exps)

    if base[0] == "pt":
        keys = [((u(), no_v, ()), 1)]
    elif base[0] == "gamma":
        keys = [((u(m), no_v, ((i, base[1]),)), 1) for m, i in enumerate(chern)]
    else:
        keys = [
            ((u(m), no_v, ()), -ctx.scalar_degree) if i == 1
            else ((u(m), no_v[: i - 2] + (1,) + no_v[i - 1 :], ()), 1)
            for m, i in enumerate(chern)
        ]
        for m, n in combinations(range(len(chern)), 2):
            rest = u(m, n)
            for h in range(1, ctx.genus + 1):
                for jm, jn, sign in ((2 * h - 1, 2 * h, -1), (2 * h, 2 * h - 1, 1)):
                    odd, flip = merge_blades(((chern[m], jm),), ((chern[n], jn),))
                    keys.append(((rest, no_v, odd), sign * flip))
    terms = {}
    for key, coeff in keys:
        terms[key] = terms.get(key, 0) + scale * coeff
    return NormalForm(ctx.r, ctx.genus, terms)



def test_reduce_slant_matches_the_atom_pair_loop():
    # long cups with repeated indices, k0 atoms with known and unknown names,
    # every base: summing over distinct indices gives the atom loop's terms
    rng = random.Random(2029)
    cases = 0
    for _ in range(400):
        r, genus = rng.randint(1, 3), rng.randint(0, 6)
        ctx = AlgebraContext(r, genus, rng.randint(-3, 3), {"h": rng.randint(-3, 3), "k": 2})
        favourite = rng.randint(1, r)
        cup = tuple(
            ("k0", rng.choice(["h", "k", "q"])) if rng.random() < 0.05
            else ("c", favourite if rng.random() < 0.5 else rng.randint(1, r))
            for _ in range(rng.randint(1, 30))
        )
        bases = [("pt",), ("sigma",), ("sigma",)] + [("gamma", j) for j in range(1, 2 * genus + 1)]
        base = rng.choice(bases)
        try:
            want = atom_pair_reduce(cup, base, ctx)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                _reduce_slant(cup, base, ctx)
            assert str(got.value) == str(err)
            continue
        assert NormalForm(ctx.r, ctx.genus, _reduce_slant(cup, base, ctx)) == want, (cup, base, ctx)
        cases += not want.is_zero()
    assert cases > 200


def test_s_slant_term_cap(monkeypatch):
    # c1.c2.c1 over S at genus 3: index pairs (1, 1) and (1, 2) give 2 * 2 * 3
    # pair terms, and two indices give two more
    ctx = AlgebraContext(r=2, genus=3, scalar_degree=1)
    cup, base = (("c", 1), ("c", 2), ("c", 1)), ("sigma",)
    monkeypatch.setattr(slant, "MAX_SLANT_TERMS", 14)
    assert NormalForm(ctx.r, ctx.genus, _reduce_slant(cup, base, ctx)) == atom_pair_reduce(cup, base, ctx)
    monkeypatch.setattr(slant, "MAX_SLANT_TERMS", 13)
    with pytest.raises(ValueError, match="^S-slant expands to more than the limit of 13 terms$"):
        _reduce_slant(cup, base, ctx)
    # one term past the cap at a genus no expansion could reach: the count comes first
    huge = AlgebraContext(r=1, genus=10**18)
    monkeypatch.setattr(slant, "MAX_SLANT_TERMS", 2 * 10**18)
    with pytest.raises(ValueError, match="more than the limit"):
        _reduce_slant((("c", 1), ("c", 1)), base, huge)
    # the other bases and a capped base never expand, so the cap does not apply
    nf = norm("<c1.c1|pt> + <c1.c1|g1> + <k0[h].c1.c1|S>", AlgebraContext(1, 10**18, 0, {"h": 1}))
    assert print_normal(nf) == "2*u1*G[1,1] + 2*u1^2"


# -- structural fuzz ---------------------------------------------------------


def _fuzz_pairs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        ctx = random_context(rng)
        yield ctx, norm(random_expr(rng, ctx), ctx)


def test_round_trip_fuzz():
    for ctx, nf in _fuzz_pairs(300, seed=1137):
        again = norm(print_normal(nf), ctx)
        assert again == nf, print_normal(nf)


def degree_part(x, degree):
    return x._like({m: c for m, c in x.terms.items() if x.monomial_degree(m) == degree})


def test_graded_commutativity_fuzz():
    rng = random.Random(4002)
    for _ in range(150):
        ctx = random_context(rng)
        x = norm(random_expr(rng, ctx), ctx)
        y = norm(random_expr(rng, ctx), ctx)
        for p in x.degrees():
            for q in y.degrees():
                xp, yq = degree_part(x, p), degree_part(y, q)
                flip = -1 if (p * q) % 2 else 1
                assert xp * yq == flip * (yq * xp), (p, q)


def test_product_associativity_fuzz():
    # depth 2 keeps factors leaf-sized; triple products of full trees blow up
    rng = random.Random(77)
    for _ in range(100):
        ctx = random_context(rng)
        x = norm(random_expr(rng, ctx, depth=2), ctx)
        y = norm(random_expr(rng, ctx, depth=2), ctx)
        z = norm(random_expr(rng, ctx, depth=2), ctx)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * 3 == 3 * x and (x * 0).is_zero()


def constructor_form(rng, ctx, sort):
    """A form over ctx from the public constructor: scalar-only, pure-odd
    and mixed terms, each odd part in drawn order unless sort."""
    gens = [(i, j) for i in range(1, ctx.r + 1) for j in range(1, 2 * ctx.genus + 1)]
    most = min(4, len(gens))
    terms = {}
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["scalar", "odd", "mixed"] if gens else ["scalar", "mixed"])
        even = kind == "mixed"
        u = tuple(rng.randint(0, 3) if even else 0 for _ in range(ctx.r))
        v = tuple(rng.randint(0, 2) if even else 0 for _ in range(ctx.r - 1))
        odd = [] if kind == "scalar" else rng.sample(gens, rng.randint(kind == "odd", most))
        coeff = rng.choice([1, -1, rng.randint(-(10**30), 10**30)])
        terms[u, v, tuple(sorted(odd) if sort else odd)] = coeff
    return NormalForm(ctx.r, ctx.genus, terms)


def reference_print(nf):
    # the term-by-term join: every term's body built afresh from its factors
    terms = []
    for (u, v, odd), coeff in nf.items():
        parts = [f"u{i}^{e}" if e > 1 else f"u{i}" for i, e in enumerate(u, 1) if e]
        parts += [f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(v, 2) if e]
        parts += [f"G[{i},{j}]" for i, j in odd]
        terms.append(("*".join(parts), coeff))
    return format_terms(terms)


def test_print_matches_the_term_by_term_join():
    rng = random.Random(2210)
    for _ in range(300):
        ctx = random_context(rng)
        nf = constructor_form(rng, ctx, sort=False)
        assert print_normal(nf) == reference_print(nf)
    for _, nf in _fuzz_pairs(200, seed=2211):
        assert print_normal(nf) == reference_print(nf)


def reference_product(x, y):
    # every pair of terms merged through its concatenated odd part, sorted and
    # signed by its inversion count, zero on a repeated generator; this never
    # calls merge_monomials, so never its shortcut for an empty odd part
    terms = {}
    for (u1, v1, o1), c1 in x.terms.items():
        for (u2, v2, o2), c2 in y.terms.items():
            odd = o1 + o2
            if len(set(odd)) < len(odd):
                continue
            sign = (-1) ** sum(a > b for a, b in combinations(odd, 2))
            key = (tuple(map(sum, zip(u1, u2))), tuple(map(sum, zip(v1, v2))), tuple(sorted(odd)))
            terms[key] = terms.get(key, 0) + sign * c1 * c2
    return NormalForm(x.r, x.genus, terms)


def test_product_matches_the_sorted_merge():
    rng = random.Random(2212)
    for _ in range(300):
        ctx = random_context(rng)
        x, y = constructor_form(rng, ctx, sort=True), constructor_form(rng, ctx, sort=True)
        assert x * y == reference_product(x, y)
        x, y = norm(random_expr(rng, ctx), ctx), norm(random_expr(rng, ctx), ctx)
        assert x * y == reference_product(x, y)
        # an odd part times an empty one comes back as it was, unsorted too
        nf, one = constructor_form(rng, ctx, sort=False), NormalForm.scalar(ctx, 1)
        assert nf * one == nf == one * nf


def reference_normalize(expr, ctx):
    """normalize node by node, one NormalForm per node, each slant by atom pairs."""
    tag = expr[0]
    if tag == "int":
        return NormalForm.scalar(ctx, expr[1])
    if tag == "add":
        return NormalForm.zero(ctx).signed_sum((s, reference_normalize(node, ctx)) for s, node in expr[1])
    if tag == "mul":
        out = reference_normalize(expr[1][0], ctx)
        for node in expr[1][1:]:
            out = out * reference_normalize(node, ctx)
        return out
    if tag == "pow":
        if expr[2] < 0:
            raise ValueError(f"negative power {expr[2]}")
        if expr[2] > MAX_EXPONENT:
            raise ValueError(f"power {clip(str(expr[2]))} is over the limit of {MAX_EXPONENT}")
        base, e = reference_normalize(expr[1], ctx), expr[2]
        if e == 0:
            return NormalForm.scalar(ctx, 1)
        out, k = base, 1
        for bit in bin(e)[3:]:
            if len(out.terms) <= k * len(base.terms):
                out = out * out
            else:
                for _ in range(k):
                    out = out * base
            out, k = (out * base, 2 * k + 1) if bit == "1" else (out, 2 * k)
        return out
    if tag == "slant":
        return atom_pair_reduce(tuple(expr[1]), tuple(expr[2]), ctx)
    raise ValueError(f"unknown node tag {tag!r}")


def random_ast(rng, ctx, depth=0):
    """An AST over ctx: ints with 0 among them, slants with known and unknown
    k0 names, sums, products and powers, of sums too."""
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        if rng.random() < 0.2:
            return ("int", rng.choice([0, 0, 1, -2, rng.randint(-9, 9)]))
        cup = tuple(
            ("k0", rng.choice("hkq")) if rng.random() < 0.15 else ("c", rng.randint(1, ctx.r))
            for _ in range(rng.randint(1, 3))
        )
        bases = [("pt",), ("sigma",), ("sigma",)] + [("gamma", j) for j in range(1, 2 * ctx.genus + 1)]
        return ("slant", cup, rng.choice(bases))
    if roll < 0.65:
        parts = tuple((rng.choice((1, -1)), random_ast(rng, ctx, depth + 1)) for _ in range(rng.randint(1, 3)))
        return ("add", parts)
    if roll < 0.85:
        return ("mul", tuple(random_ast(rng, ctx, depth + 1) for _ in range(rng.randint(2, 3))))
    base = random_ast(rng, ctx, depth + 1)
    if rng.random() < 0.5:
        base = ("add", ((1, base), (rng.choice((1, -1)), random_ast(rng, ctx, depth + 1))))
    return ("pow", base, rng.randint(0, 3))


def test_normalize_matches_the_node_by_node_route():
    # the term-dict recursion against one NormalForm per node: equal forms, the
    # same printed bytes as the per-term sort of items(), the same error text
    rng = random.Random(2213)
    nonzero = sum_powers = errors = 0
    for _ in range(600):
        ctx = AlgebraContext(
            rng.randint(1, 3), rng.randint(0, 4), rng.randint(-3, 3), {"h": rng.randint(-2, 2), "k": 3}
        )
        expr = random_ast(rng, ctx)
        try:
            want = reference_normalize(expr, ctx)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                normalize(expr, ctx)
            assert str(got.value) == str(err)
            errors += 1
            continue
        got = normalize(expr, ctx)
        assert got == want, expr
        assert print_normal(got) == reference_print(want), expr
        nonzero += not want.is_zero()
        sum_powers += repr(expr).count("('pow', ('add'")
    assert nonzero > 300 and sum_powers > 50 and errors > 30, (nonzero, sum_powers, errors)


def test_slant_degree_bookkeeping():
    rng = random.Random(5150)
    base_deg = {"pt": 0, "S": 2}
    for _ in range(200):
        ctx = random_context(rng)
        atoms = [f"c{rng.randint(1, ctx.r)}" for _ in range(rng.randint(1, 3))]
        cup_deg = sum(2 * int(a[1:]) for a in atoms)
        bases = ["pt", "S"] + [f"g{j}" for j in range(1, 2 * ctx.genus + 1)]
        base = rng.choice(bases)
        drop = base_deg.get(base, 1)
        nf = norm(f"<{'.'.join(atoms)}|{base}>", ctx)
        assert nf.degrees() <= {cup_deg - drop}


# -- abelian evaluation ------------------------------------------------------

CTX1 = AlgebraContext(r=1, genus=1)


def test_evaluate_odd_blade():
    nf = norm("G[1,1]*G[1,2]", CTX1)
    assert evaluate_abelian(nf, 1, 2, 1) == 1
    assert evaluate_abelian(nf, 1, 2, 0) == 0
    assert evaluate_abelian(nf, 1, 5, 1) == 1


def test_evaluate_point_power():
    assert evaluate_abelian(norm("u1", CTX1), 1, 2, 1) == 2
    assert evaluate_abelian(norm("u1", CTX1), 1, 3, 1) == 3
    # index outside 0..g contributes nothing
    assert evaluate_abelian(norm("u1^2", CTX1), 1, 3, 1) == 0


def test_evaluate_matches_closed_count():
    ctx = AlgebraContext(r=1, genus=2)
    for r0 in (1, 2, 3):
        for v in (0, 1, 2, 3):
            stack = " + ".join(f"u1^{a}" for a in range(max(v, 0) + 1))
            nf = norm(f"({stack}) * G[1,1]*G[1,2]", ctx)
            lam = Multivector.blade((0, 1))
            assert evaluate_abelian(nf, 2, r0, v) == ggw_abelian(2, r0, v, lam)


def test_evaluate_pairs_in_one_kernel_call(monkeypatch):
    # the grade rule picks the terms, the kernel picks each one's power
    ctx = AlgebraContext(r=1, genus=2)
    nf = norm("(1 + 2*u1 + u1^2 + u1^3) * (1 + G[1,1]*G[1,2] - 3*G[1,3]*G[1,4] + G[1,1]*G[1,3])", ctx)
    calls = []
    kernel = slant.pair_theta_powers
    monkeypatch.setattr(slant, "pair_theta_powers", lambda *args: calls.append(1) or kernel(*args))
    for r0 in (1, 3):
        for v in range(-1, 5):
            calls.clear()
            assert evaluate_abelian(nf, 2, r0, v) == reference_evaluate(nf, 2, r0, v)
            assert len(calls) == 1


def test_evaluate_validation():
    nf2 = norm("u1", CTX22)
    with pytest.raises(NotImplementedError):
        evaluate_abelian(nf2, 2, 2, 0)
    with pytest.raises(ValueError):
        evaluate_abelian(norm("u1", CTX1), 2, 2, 0)
    with pytest.raises(ValueError):
        evaluate_abelian(norm("u1", CTX1), 1, 0, 0)
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        evaluate_abelian(NormalForm(1, -1), -1, 1, 0)


def odd_term(genus, js, coeff=1, a=0):
    # the public constructor keeps the odd part in the order given
    return NormalForm(1, genus, {((a,), (), tuple((1, j) for j in js)): coeff})


def test_evaluate_signs_an_unsorted_odd_part():
    # G[1,j] anticommute: the sign is the parity of the sort of j1..jm
    for js, v, want in (
        ((2, 1), 1, -3),
        ((4, 1, 2, 3), 2, -1),
        ((2, 1, 4, 3), 2, 1),
        ((3, 4, 1, 2), 2, 1),
        ((2, 4, 1, 3), 2, -1),
    ):
        assert evaluate_abelian(odd_term(2, js), 2, 3, v) == want
    nf = odd_term(2, (2, 1), 5) + odd_term(2, (4, 3), -2) + odd_term(2, (3, 1, 4, 2), 4, a=1)
    assert evaluate_abelian(nf, 2, 3, 1) == -9


@pytest.mark.parametrize("genus", [200, 1000])
def test_evaluate_a_top_grade_term(genus):
    js = list(range(1, 2 * genus + 1))
    assert evaluate_abelian(odd_term(genus, js, 7), genus, 3, genus) == 7
    js[0], js[1] = js[1], js[0]
    assert evaluate_abelian(odd_term(genus, js, 7), genus, 3, genus) == -7


def reference_evaluate(nf, genus, r0, v):
    # exterior's generic route, which the kernel never calls: wedge the
    # divided theta power with the term's odd blade and read the top grade
    topo = SurfaceTopology(genus)
    total = 0
    for (u, _v, odd), coeff in nf.terms.items():
        i = u[0] + genus - v
        if 0 <= i <= genus:
            blade = Multivector.blade([j - 1 for _, j in odd])
            total += coeff * r0**i * top_pairing(wedge(theta_divided_power(topo, i), blade, topo), topo)
    return total


@st.composite
def rank1_forms(draw):
    """A fuzzed rank-1 normal form plus hand-built keys whose odd indices
    are unsorted or repeated, as neither parse_expr nor normalize makes."""
    genus = draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k0 = {"h": rng.randint(-3, 3)} if rng.random() < 0.4 else {}
    ctx = AlgebraContext(1, genus, rng.randint(-3, 3), k0)
    nf = norm(random_expr(rng, ctx), ctx)
    keys = draw(
        st.dictionaries(
            st.tuples(
                st.integers(0, genus + 2),
                st.lists(st.integers(1, 2 * genus), max_size=2 * genus + 1) if genus else st.just([]),
            ).map(lambda t: ((t[0],), (), tuple((1, j) for j in t[1]))),
            st.integers(-5, 5),
            max_size=6,
        )
    )
    return genus, nf + NormalForm(1, genus, keys)


@settings(max_examples=200, deadline=None)
@given(rank1_forms(), st.integers(1, 4), st.data())
def test_evaluate_matches_the_generic_route(form, r0, data):
    genus, nf = form
    v = data.draw(st.integers(-1, genus + 2))
    assert evaluate_abelian(nf, genus, r0, v) == reference_evaluate(nf, genus, r0, v)
