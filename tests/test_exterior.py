import inspect
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ruledinv
from ruledinv.exterior import (
    Multivector,
    SurfaceTopology,
    TextSyntaxError,
    check_counts,
    exp_even,
    format_multivector,
    pair_theta_powers,
    parse_multivector,
    theta_class,
    theta_divided_power,
    top_pairing,
    wedge,
)
from ruledinv.checks import CheckReport
from ruledinv.indices import H2Class, RuledSurfaceGeometry, abelian_v
from ruledinv.invariants import ggw_abelian, quot_count, sw_ruled, sw_value
from ruledinv.picard import (
    KunnethClass,
    ThetaSeries,
    ggw_via_segre,
    grr_pushforward,
    min_valid_aux_twist,
    poincare_chern,
)
from ruledinv.slant import AlgebraContext, NormalForm, evaluate_abelian, parse_expr


def mv(genus, *specs):
    """Multivector from (coeff, indices) pairs, for terse test setup."""
    out = Multivector.zero()
    for coeff, indices in specs:
        out = out + Multivector.blade(indices, coeff)
    return out


def degree_part(x, degree):
    return x._like({m: c for m, c in x.terms.items() if x.monomial_degree(m) == degree})


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
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        theta_divided_power(topo, -1)


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


def test_blade_constructor_sorts_with_sign():
    assert Multivector.blade([2, 0]) == Multivector({(0, 2): -1})
    assert Multivector.blade([1, 1]).is_zero()


@pytest.mark.parametrize("m", [2, 3, 1000, 20000])
def test_reversed_blade_is_signed_by_wedging_its_halves(m):
    # reversing m indices is m(m-1)/2 transpositions; each level of halves
    # merges in O(m), so 20,000 indices take well under a second
    sign = (-1) ** (m * (m - 1) // 2)
    assert Multivector.blade(reversed(range(m)), 3) == Multivector({tuple(range(m)): 3 * sign})


def test_unsorted_blade_checks_repeats_and_coefficients():
    # a repeated index split across the two halves still gives zero
    assert Multivector.blade([3, 1, 2, 3]).is_zero()
    for coeff in (1.0, "1", None):
        with pytest.raises(TypeError):
            Multivector.blade([2, 0, 1], coeff)


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
    with pytest.raises(ValueError, match="^handle index 3 out of range for genus 2$"):
        SurfaceTopology(2).a(3)
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
    results += [degree_part(x, k) for k in range(2 * genus + 1)]
    results += [exp_even(degree_part(x, 2 * k), topo) for k in range(1, genus + 1)]
    results.append(parse_multivector(format_multivector(x, topo), topo))
    for result in results:
        _assert_clean(result)
    # the shared product against a reference that never calls merge_blades:
    # each pair of terms gives its sorted blade, signed by the inversion
    # count of the concatenation, and vanishes on a repeated index
    reference = Multivector.zero()
    for bx, cx in x.terms.items():
        for by, cy in y.terms.items():
            reference = reference + _sorted_blade(bx + by, cx * cy)
    assert wedge(x, y, topo) == reference
    assert x * y == reference
    # Multivector.blade signs by the parity of the sorting permutation
    assert Multivector.blade(indices, n) == _sorted_blade(indices, n)
    _assert_clean(Multivector.blade(indices, n))


def _sorted_blade(indices, coeff):
    if len(set(indices)) < len(indices):
        return Multivector.zero()
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1 :])
    return Multivector({tuple(sorted(indices)): coeff * (-1) ** inversions})


INDEX_LISTS = st.one_of(
    st.lists(st.integers(0, 60), max_size=40),
    st.lists(st.integers(0, 60), max_size=40, unique=True),
    st.lists(st.integers(0, 60), max_size=40, unique=True).map(sorted),
)


@settings(max_examples=300)
@given(INDEX_LISTS, st.integers(-3, 3), st.data())
def test_blade_signs_by_the_sorting_permutation(indices, coeff, data):
    assert Multivector.blade(indices, coeff) == _sorted_blade(indices, coeff)
    bad = data.draw(st.permutations(indices + [data.draw(st.integers(-5, -1))]))
    if len(set(bad)) < len(bad):
        assert Multivector.blade(bad, coeff).is_zero()
        return
    for build in (Multivector.blade, _sorted_blade):
        with pytest.raises(ValueError, match="has a negative generator index$"):
            build(bad, coeff)


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("a1^b1 + 3*", "expected a generator, found end of input at position 10"),
        ("a1 ^ c2", "expected a generator, found 'c2' at position 5"),
        ("a1 b1", "trailing input 'b1' at position 3"),
        ("a1^b1 + int", "expected a generator, found 'int' at position 8"),
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
    ],
)
def test_parse_multivector_error_messages(text, message):
    with pytest.raises(TextSyntaxError) as err:
        parse_multivector(text, SurfaceTopology(1))
    assert str(err.value) == message
    assert message.endswith(f"at position {err.value.position}")


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
        xp = degree_part(x, p)
        for q in range(2 * genus + 1):
            yq = degree_part(y, q)
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
        total = total + degree_part(x, k)
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


def theta_divided_power_by_generators(topo, k):
    """The divided power built with a generator per handle subset: the reference."""
    terms = {}
    for subset in combinations(range(topo.genus), k):
        terms[tuple(i for h in subset for i in (2 * h, 2 * h + 1))] = 1
    return Multivector()._like(terms)


@pytest.mark.parametrize("genus", range(11))
def test_divided_powers_match_the_generator_build(genus):
    # same blades in the same key order, for every k and one past the genus
    topo = SurfaceTopology(genus)
    for k in range(genus + 2):
        want = theta_divided_power_by_generators(topo, k)
        got = theta_divided_power(topo, k)
        assert got == want and list(got.terms) == list(want.terms)


@pytest.mark.parametrize("genus", range(6))
def test_divided_powers_match_exp_grades(genus):
    topo = SurfaceTopology(genus)
    expo = exp_even(theta_class(topo), topo)
    for k in range(genus + 2):
        assert theta_divided_power(topo, k) == degree_part(expo, 2 * k)


# -- the theta-power kernel --------------------------------------------------


def _lowest(genus):
    """Lowest powers below 0 (every power), within the genus, and past it (none)."""
    return st.integers(-2, genus + 2)


@st.composite
def kernel_cases(draw):
    genus = draw(st.integers(0, 6))
    rank = 2 * genus
    coeff = st.integers(-(2**60), 2**60)
    if draw(st.booleans()) and genus <= 4:
        # dense: every basis blade, each with its own 60-bit coefficient
        rng = draw(st.randoms(use_true_random=False))
        blades = [tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)]
        terms = {blade: rng.getrandbits(61) - 2**60 for blade in blades}
    else:
        # random blades, mostly odd or non-handle, mixed with handle blades
        handles = st.sets(st.integers(0, genus - 1) if genus else st.nothing())
        handle_blades = handles.map(lambda hs: [i for h in hs for i in (2 * h, 2 * h + 1)])
        generators = st.sets(st.integers(0, rank - 1) if rank else st.nothing(), max_size=rank)
        blades = draw(st.lists(generators | handle_blades, max_size=24))
        terms = {tuple(sorted(blade)): draw(coeff) for blade in blades}
    return genus, Multivector(terms), draw(st.integers(-3, 5)), draw(_lowest(genus))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_pair_theta_powers_matches_wedged_theta_powers(case):
    # reference: build each Theta^i/i!, wedge it with l and read the top blade
    genus, l, scale, lowest = case
    topo = SurfaceTopology(genus)
    want = sum(
        scale**i * top_pairing(wedge(theta_divided_power(topo, i), l, topo), topo)
        for i in range(max(0, lowest), genus + 1)
    )
    assert pair_theta_powers(l, genus, scale, lowest) == want


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 12).flatmap(lambda g: st.tuples(st.just(g), _lowest(g))),
    st.integers(-3, 5),
    st.integers(-3, 5),
)
def test_pair_theta_powers_binomial_identity(pair, r0, t):
    # l = sum_k t^k Theta^k/k! pairs to sum_{i >= lowest} r0^i t^(g-i) C(g, i)
    genus, lowest = pair
    topo = SurfaceTopology(genus)
    l = Multivector.zero()
    for k in range(genus + 1):
        l = l + t**k * theta_divided_power(topo, k)
    powers = range(max(0, lowest), genus + 1)
    want = sum(r0**i * t ** (genus - i) * math.comb(genus, i) for i in powers)
    assert pair_theta_powers(l, genus, r0, lowest) == want


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
def test_pair_theta_powers_range_check_in_the_pass(where):
    # the blade with l's largest index, 7, may come anywhere in l's dict
    # order, before or after another blade past genus 2; the message names 7
    # either way, and l is not checked when the lowest power is past the genus
    terms = [((0, 1), 2), ((4,), -1)]
    terms.insert(where, ((3, 6, 7), 3))
    l = Multivector(dict(terms))
    assert list(l.terms)[where] == (3, 6, 7)
    message = "pair_theta_powers: generator index 7 out of range for genus 2"
    with pytest.raises(ValueError) as err:
        pair_theta_powers(l, 2, 3, 0)
    assert str(err.value) == message
    assert pair_theta_powers(l, 2, 3, 3) == 0


def test_oracle_returns_a_plain_int():
    # odd blades all skip the pairing; the handle blade and 1 pair to nonzero
    genus, r0, d, d0 = 2, 2, -1, 1
    twist = min_valid_aux_twist(genus, r0, d, d0)
    skipped = ggw_via_segre(genus, r0, d, d0, twist, Multivector({(0,): 4, (0, 1, 2): 5}))
    paired = ggw_via_segre(genus, r0, d, d0, twist, Multivector({(): 1, (0, 1): 3}))
    assert type(skipped) is int and skipped == 0
    assert type(paired) is int and paired != 0


# -- the one refusal of a bad genus or target rank ---------------------------

ONE = Multivector.scalar(1)
# every public entry that takes a genus, called as f(genus, r0), and
# whether it takes a target rank too.  Below genus 0 the kernel's lowest
# power is never past the genus: l = 1 would pair to 2**-1 at scale 2,
# and divide by zero at the chamber's scale 0
COUNT_ENTRIES = {
    "check_counts": (check_counts, True),
    "SurfaceTopology": (lambda g, r0: SurfaceTopology(g), False),
    "pair_theta_powers": (lambda g, r0: pair_theta_powers(ONE, g, 2, -5), False),
    "RuledSurfaceGeometry": (lambda g, r0: RuledSurfaceGeometry(g, 0), False),
    "abelian_v": (lambda g, r0: abelian_v(r0, 0, 0, g), True),
    "ggw_abelian": (lambda g, r0: ggw_abelian(g, r0, 0, ONE), True),
    "quot_count": (quot_count, True),
    "sw_value": (lambda g, r0: sw_value((1, 0, 0, 0, -3), g, ONE), False),
    "ThetaSeries": (lambda g, r0: ThetaSeries([1], g), False),
    "KunnethClass": (lambda g, r0: KunnethClass({}, g), False),
    "poincare_chern": (lambda g, r0: poincare_chern(0, g), False),
    "grr_pushforward": (lambda g, r0: grr_pushforward(0, r0, g), True),
    "min_valid_aux_twist": (lambda g, r0: min_valid_aux_twist(g, r0, 0, 0), True),
    "ggw_via_segre": (lambda g, r0: ggw_via_segre(g, r0, -1, 0, 10, ONE), True),
    "AlgebraContext": (lambda g, r0: AlgebraContext(1, g), False),
    "evaluate_abelian": (lambda g, r0: evaluate_abelian(NormalForm(1, g), g, r0, 0), True),
}
GENUS = "^genus must be nonnegative$"
RANK = "^target rank must be >= 1$"
REFUSALS = [(name, -1, 1, GENUS) for name in COUNT_ENTRIES]
for name, (_, takes_rank) in COUNT_ENTRIES.items():
    if takes_rank:
        # the genus is named first when both are bad
        REFUSALS += [(name, 1, 0, RANK), (name, -1, 0, GENUS)]


@pytest.mark.parametrize(
    "name, genus, r0, message", REFUSALS, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in REFUSALS]
)
def test_every_entry_refuses_a_bad_genus_or_rank_in_one_text(name, genus, r0, message):
    with pytest.raises(ValueError, match=message):
        COUNT_ENTRIES[name][0](genus, r0)


def test_the_refusal_texts_are_written_in_check_counts_alone():
    package = Path(ruledinv.__file__).parent
    source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
    for text in ("genus must be nonnegative", "target rank must be >= 1"):
        assert source.count(text) == 1 and text in inspect.getsource(check_counts)


# -- the value classes -------------------------------------------------------


def test_value_classes_compare_hash_and_print_by_fields():
    # each class on Record keeps what its frozen dataclass gave: the field
    # repr, equality by fields within one class, and a hash where all
    # fields are hashable
    geom = RuledSurfaceGeometry(1, 0)
    hashable = [
        (SurfaceTopology(2), SurfaceTopology(genus=2), "SurfaceTopology(genus=2)"),
        (geom, RuledSurfaceGeometry(genus=1, v0_degree=0),
         "RuledSurfaceGeometry(genus=1, v0_degree=0)"),
        (H2Class(4, -2), H2Class(s=4, f=-2), "H2Class(s=4, f=-2)"),
        (sw_ruled(1, 1, geom, Multivector.scalar(1)), sw_ruled(1, 1, geom, Multivector.scalar(1)),
         "SWResult(sign=1, value_signed_chamber=2, value_opposite_chamber=0, w_c=4,"
         " c=H2Class(s=4, f=2), pair_with_fibre=4)"),
        (KunnethClass({(1, 2): -1, (0, 0): 1}, 1), KunnethClass({(0, 0): 1, (1, 2): -1}, genus=1),
         "KunnethClass({(0, 0): 1, (1, 2): -1}, genus=1)"),
    ]
    for x, y, text in hashable:
        assert x == y and hash(x) == hash(y) and repr(x) == text
        assert x != 1 and x.__eq__(1) is NotImplemented
    assert SurfaceTopology(2) != SurfaceTopology(3) and H2Class(1, 2) != H2Class(2, 1)
    assert H2Class(0, 1) != RuledSurfaceGeometry(0, 1)
    unhashable = [
        (AlgebraContext(2, 1, k0_eval={"h": 3}), AlgebraContext(r=2, genus=1, k0_eval={"h": 3}),
         "AlgebraContext(r=2, genus=1, scalar_degree=0, k0_eval={'h': 3})"),
        (CheckReport("grid", 3, 1, None), CheckReport(name="grid", cases=3, failures=1,
         first_counterexample=None),
         "CheckReport(name='grid', cases=3, failures=1, first_counterexample=None)"),
    ]
    for x, y, text in unhashable:
        assert x == y and repr(x) == text
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    assert AlgebraContext(1, 1).k0_eval == {} and AlgebraContext(1, 1) != AlgebraContext(1, 2)
