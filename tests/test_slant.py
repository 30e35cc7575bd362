import random

import pytest

from fuzz_exprs import random_context, random_expr
from ruledinv.invariants import ggw_abelian
from ruledinv.exterior import Multivector
from ruledinv.slant import (
    MAX_NESTING,
    AlgebraContext,
    NormalForm,
    SlantSyntaxError,
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
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(SlantSyntaxError) as err:
        parse_expr(text, CTX22)
    assert err.value.position == position
    assert isinstance(err.value, ValueError)
    assert f"position {position}" in str(err.value)


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
    with pytest.raises(ValueError):
        NormalForm.v_gen(CTX22, 1)


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


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        normalize(("pow", ("int", 2), -1), CTX22)
    with pytest.raises(SlantSyntaxError):
        parse_expr("u1^-1", CTX22)


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


def test_graded_commutativity_fuzz():
    rng = random.Random(4002)
    for _ in range(150):
        ctx = random_context(rng)
        x = norm(random_expr(rng, ctx), ctx)
        y = norm(random_expr(rng, ctx), ctx)
        for p in x.degrees():
            for q in y.degrees():
                xp, yq = x.homogeneous_part(p), y.homogeneous_part(q)
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


def test_homogeneous_parts_partition():
    for ctx, nf in _fuzz_pairs(100, seed=909):
        total = NormalForm.zero(ctx)
        for d in nf.degrees():
            total = total + nf.homogeneous_part(d)
        assert total == nf


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


def test_evaluate_validation():
    nf2 = norm("u1", CTX22)
    with pytest.raises(NotImplementedError):
        evaluate_abelian(nf2, 2, 2, 0)
    with pytest.raises(ValueError):
        evaluate_abelian(norm("u1", CTX1), 2, 2, 0)
    with pytest.raises(ValueError):
        evaluate_abelian(norm("u1", CTX1), 1, 0, 0)
