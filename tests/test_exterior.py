import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledinv.exterior import (
    Multivector,
    SurfaceTopology,
    exp_even,
    format_multivector,
    grade_part,
    parse_multivector,
    theta_class,
    theta_divided_power,
    top_pairing,
    wedge,
)
from ruledinv.slant import AlgebraContext, parse_expr


def mv(genus, *specs):
    """Multivector from (coeff, indices) pairs, for terse test setup."""
    out = Multivector.zero()
    for coeff, indices in specs:
        out = out + Multivector.blade(indices, coeff)
    return out


@st.composite
def multivectors(draw, genus, max_terms=5, max_coeff=9):
    rank = 2 * genus
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        blade = tuple(sorted(draw(st.sets(st.integers(0, max(rank - 1, 0)), max_size=rank))))
        if rank == 0:
            blade = ()
        terms[blade] = terms.get(blade, 0) + draw(st.integers(-max_coeff, max_coeff))
    return Multivector(terms)


# -- frozen examples ---------------------------------------------------------


def test_wedge_theta_squared_genus2():
    topo = SurfaceTopology(2)
    th = theta_class(topo)
    assert wedge(th, th, topo) == Multivector({(0, 1, 2, 3): 2})


def test_wedge_anticommutes_on_generators():
    topo = SurfaceTopology(1)
    a, b = Multivector.generator(0), Multivector.generator(1)
    assert wedge(a, b, topo) == -1 * wedge(b, a, topo)
    assert wedge(a, a, topo).is_zero()


def test_top_pairing_reversed_blade_is_minus_one():
    topo = SurfaceTopology(1)
    assert top_pairing(Multivector.blade([topo.b(1), topo.a(1)]), topo) == -1
    assert top_pairing(Multivector.blade([topo.a(1), topo.b(1)]), topo) == 1


def test_top_pairing_theta_divided_power():
    topo = SurfaceTopology(2)
    assert top_pairing(theta_divided_power(topo, 2), topo) == 1


def test_exp_even_theta_genus2_full_expansion():
    topo = SurfaceTopology(2)
    assert exp_even(theta_class(topo), topo) == Multivector(
        {(): 1, (0, 1): 1, (2, 3): 1, (0, 1, 2, 3): 1}
    )


def test_genus_zero_algebra_is_integers():
    topo = SurfaceTopology(0)
    x = Multivector.scalar(5)
    assert theta_class(topo).is_zero()
    assert top_pairing(x, topo) == 5
    assert wedge(x, Multivector.scalar(3), topo) == Multivector.scalar(15)


def test_grade_part_picks_components():
    topo = SurfaceTopology(2)
    x = mv(2, (3, ()), (2, (0, 1)), (-1, (0, 1, 2, 3)))
    assert grade_part(x, 0) == Multivector.scalar(3)
    assert grade_part(x, 2) == Multivector({(0, 1): 2})
    assert grade_part(x, 1).is_zero()
    with pytest.raises(ValueError):
        grade_part(x, -1)


def test_blade_constructor_sorts_with_sign():
    assert Multivector.blade([2, 0]) == Multivector({(0, 2): -1})
    assert Multivector.blade([1, 1]).is_zero()


def test_constructor_validates_and_drops_zeros():
    for coeff in (1.0, "1", None):
        with pytest.raises(TypeError):
            Multivector({(0,): coeff})
    for blade in ((1, 0), (0, 0), (2, 1, 3), (-1,), (-2, 0)):
        with pytest.raises(ValueError):
            Multivector({blade: 1})
    x = Multivector({(0, 1): 0, (1,): 3, (): 0, (0, 2, 3): 0})
    assert x == Multivector({(1,): 3})
    assert Multivector({(0,): 0}).is_zero()


def test_generator_out_of_range_rejected():
    topo = SurfaceTopology(1)
    bad = Multivector.generator(2)
    with pytest.raises(ValueError):
        wedge(bad, bad, topo)
    with pytest.raises(ValueError):
        top_pairing(bad, topo)


def test_exp_even_input_validation():
    topo = SurfaceTopology(2)
    with pytest.raises(ValueError):
        exp_even(Multivector.generator(0), topo)  # odd degree
    with pytest.raises(ValueError):
        exp_even(Multivector.scalar(1) + Multivector.blade([0, 1]), topo)  # mixed
    assert exp_even(Multivector.zero(), topo) == Multivector.scalar(1)


def _assert_clean(result):
    # results built without validation hold exactly what validation would keep
    assert result == Multivector(dict(result.terms))
    assert 0 not in result.terms.values()


@settings(max_examples=150)
@given(
    st.integers(0, 4).flatmap(
        lambda g: st.tuples(st.just(g), multivectors(g), multivectors(g))
    ),
    st.integers(-3, 3),
    st.lists(st.integers(0, 9), max_size=8),
)
def test_trusted_results_equal_validated_ones(triple, n, indices):
    genus, x, y = triple
    topo = SurfaceTopology(genus)
    results = [wedge(x, y, topo), x + y, x - y, x - x, -x, n * x, x * n, x * 0]
    results += [grade_part(x, k) for k in range(2 * genus + 1)]
    results += [exp_even(grade_part(x, 2 * k), topo) for k in range(1, genus + 1)]
    results.append(parse_multivector(format_multivector(x, topo), topo))
    for result in results:
        _assert_clean(result)
    # Multivector.blade signs by the parity of the sorting permutation
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1 :])
    if len(set(indices)) < len(indices):
        expected = Multivector.zero()
    else:
        expected = Multivector({tuple(sorted(indices)): n * (-1) ** inversions})
    assert Multivector.blade(indices, n) == expected
    _assert_clean(Multivector.blade(indices, n))


# -- parsing and printing ----------------------------------------------------


def test_parse_multivector_example():
    topo = SurfaceTopology(2)
    got = parse_multivector("2*a1^b1 - a2^b2 + 3", topo)
    assert got == Multivector({(0, 1): 2, (2, 3): -1, (): 3})


def test_parse_multivector_signs_and_whitespace():
    topo = SurfaceTopology(1)
    assert parse_multivector("  -a1 ^ b1+2 ", topo) == Multivector({(0, 1): -1, (): 2})
    assert parse_multivector("0", topo).is_zero()


def test_parse_multivector_errors_carry_position():
    topo = SurfaceTopology(1)
    with pytest.raises(ValueError, match="position"):
        parse_multivector("a1^^b1", topo)
    with pytest.raises(ValueError, match="a2"):
        parse_multivector("a2", topo)
    with pytest.raises(ValueError, match="position"):
        parse_multivector("2*", topo)


# grammar characters of both languages, digits that int() does and does
# not read, and anything else
TEXT = st.text(st.sampled_from(list("ab0123456789uvcgGkSpt_<>|().,+-*^[] ²٣x")) | st.characters())


@settings(max_examples=300)
@given(st.integers(0, 3), TEXT)
@example(1, "a1^b²")
@example(1, "(" * 300 + "u1" + ")" * 300)
@example(1, "9" * 5000)
def test_malformed_text_raises_positioned_errors(genus, text):
    # forms and slant expressions alike: any text parses or raises a
    # ValueError that carries the offending position
    ctx = AlgebraContext(r=2, genus=genus, k0_eval={"h": 1})
    for parse in (
        lambda: parse_multivector(text, SurfaceTopology(genus)),
        lambda: parse_expr(text, ctx),
    ):
        try:
            parse()
        except ValueError as err:
            assert 0 <= err.position <= len(text)
            assert str(err).endswith(f"at position {err.position}")


@settings(max_examples=200)
@given(st.integers(0, 3).flatmap(lambda g: st.tuples(st.just(g), multivectors(g))))
def test_format_parse_round_trip(pair):
    genus, x = pair
    topo = SurfaceTopology(genus)
    assert parse_multivector(format_multivector(x, topo), topo) == x


# -- algebra laws ------------------------------------------------------------


@settings(max_examples=150)
@given(
    st.integers(0, 3).flatmap(
        lambda g: st.tuples(st.just(g), multivectors(g), multivectors(g))
    )
)
def test_wedge_graded_commutativity(triple):
    genus, x, y = triple
    topo = SurfaceTopology(genus)
    for p in range(2 * genus + 1):
        xp = grade_part(x, p)
        for q in range(2 * genus + 1):
            yq = grade_part(y, q)
            sign = -1 if (p * q) % 2 else 1
            assert wedge(xp, yq, topo) == sign * wedge(yq, xp, topo)


@settings(max_examples=150)
@given(
    st.integers(0, 2).flatmap(
        lambda g: st.tuples(
            st.just(g), multivectors(g), multivectors(g), multivectors(g)
        )
    )
)
def test_wedge_associative_and_distributive(quad):
    genus, x, y, z = quad
    topo = SurfaceTopology(genus)
    assert wedge(wedge(x, y, topo), z, topo) == wedge(x, wedge(y, z, topo), topo)
    assert wedge(x, y + z, topo) == wedge(x, y, topo) + wedge(x, z, topo)


@settings(max_examples=100)
@given(st.integers(0, 3).flatmap(lambda g: st.tuples(st.just(g), multivectors(g))))
def test_grade_parts_sum_back(pair):
    genus, x = pair
    total = Multivector.zero()
    for k in range(2 * genus + 1):
        total = total + grade_part(x, k)
    assert total == x


@pytest.mark.parametrize("genus", range(7))
def test_top_pairing_of_divided_top_power_is_one(genus):
    topo = SurfaceTopology(genus)
    assert top_pairing(theta_divided_power(topo, genus), topo) == 1


@pytest.mark.parametrize("genus", range(6))
def test_exp_even_theta_times_exp_minus_theta(genus):
    topo = SurfaceTopology(genus)
    th = theta_class(topo)
    prod = wedge(exp_even(th, topo), exp_even(-1 * th, topo), topo)
    assert prod == Multivector.scalar(1)


@pytest.mark.parametrize("genus", range(6))
def test_divided_powers_match_exp_grades(genus):
    topo = SurfaceTopology(genus)
    expo = exp_even(theta_class(topo), topo)
    for k in range(genus + 2):
        assert theta_divided_power(topo, k) == grade_part(expo, 2 * k)
