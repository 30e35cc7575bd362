import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledinv import picard
from ruledinv.exterior import (
    Multivector,
    SurfaceTopology,
    exp_even,
    theta_class,
    theta_divided_power,
    top_pairing,
    wedge,
)
from ruledinv.indices import RuledSurfaceGeometry, abelian_v
from ruledinv.invariants import ggw_abelian, sw_ruled
from ruledinv.picard import (
    KunnethClass,
    ThetaSeries,
    chern_series,
    ggw_via_segre,
    grr_pushforward,
    integrate_sigma,
    min_valid_aux_twist,
    pfaffian,
    poincare_chern,
    segre_series,
)
from ruledinv.slant import AlgebraContext, evaluate_abelian, normalize, parse_expr

ONE = Multivector.scalar(1)


def series(*coeffs, genus=None):
    return ThetaSeries(coeffs, genus)


# -- truncated polynomial ring -----------------------------------------------


def test_series_construction_and_indexing():
    t = series(1, 2, genus=3)
    assert t.coeffs == (1, 2, 0, 0)
    assert t.genus == 3
    assert t[1] == 2
    assert t[17] == 0  # truncation reads as zero
    with pytest.raises(IndexError):
        t[-1]
    assert series(1, 2, 3, 4, genus=1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        ThetaSeries([])
    with pytest.raises(ValueError):
        ThetaSeries([1], genus=-1)


def test_series_ring_ops():
    a = series(1, 2, genus=2)
    b = series(0, 1, 1, genus=2)
    assert (a + b).coeffs == (1, 3, 1)
    assert (a - b).coeffs == (1, 1, -1)
    assert (-a).coeffs == (-1, -2, 0)
    assert (a * b).coeffs == (0, 1, 3)  # theta^3 truncated away
    assert (3 * a).coeffs == (3, 6, 0)
    assert a.shift().coeffs == (0, 1, 2)
    with pytest.raises(ValueError):
        a + series(1, genus=4)


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=150)
@given(
    st.integers(0, 6),
    st.lists(small_fractions, min_size=1, max_size=8),
    st.lists(small_fractions, min_size=1, max_size=8),
    st.integers(-5, 5),
    small_fractions,
)
def test_series_ring_matches_dense_reference(genus, xs, ys, n, q):
    a, b = ThetaSeries(xs, genus), ThetaSeries(ys, genus)
    x = (xs + [0] * genus)[: genus + 1]
    y = (ys + [0] * genus)[: genus + 1]
    # the Cauchy product, dropping every power past theta^genus
    cauchy = [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(genus + 1)]
    assert (a * b).coeffs == tuple(cauchy)
    assert (a + b).coeffs == tuple(s + t for s, t in zip(x, y))
    assert (a - b).coeffs == tuple(s - t for s, t in zip(x, y))
    assert (-a).coeffs == tuple(-s for s in x)
    assert (n * a).coeffs == (a * n).coeffs == tuple(n * s for s in x)
    assert (a * q).coeffs == (q * a).coeffs == tuple(q * s for s in x)
    assert a.shift().coeffs == tuple([0] + x[:genus])


@pytest.mark.parametrize("op", [add, sub, mul])
def test_series_of_mixed_genus_do_not_combine(op):
    a, b = series(1, 2, genus=2), series(1, 2, genus=3)
    with pytest.raises(ValueError):
        op(a, b)
    with pytest.raises(ValueError):
        op(b, a)


def test_series_inverse():
    s = series(1, -1, Fraction(1, 2), genus=2)
    assert s.inverse().coeffs == (1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        series(0, 1, genus=1).inverse()


@settings(max_examples=150)
@given(
    st.integers(0, 5),
    st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6),
)
def test_series_inverse_is_two_sided(genus, coeffs):
    if not coeffs[0]:
        coeffs[0] = Fraction(1)
    s = ThetaSeries(coeffs, genus)
    one = ThetaSeries.constant(1, genus)
    assert s * s.inverse() == one
    assert s.inverse() * s == one


# -- two-factor ring with the odd square rule --------------------------------


def _gamma(genus):
    z = ThetaSeries.constant(0, genus)
    return KunnethClass(z, ThetaSeries.constant(1, genus), z)


def _eta(genus):
    z = ThetaSeries.constant(0, genus)
    return KunnethClass(z, z, ThetaSeries.constant(1, genus))


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
def test_kunneth_relations(genus):
    gamma, eta = _gamma(genus), _eta(genus)
    sq = gamma * gamma
    assert sq.one.is_zero() and sq.gamma_part.is_zero()
    assert sq.eta_part == -2 * ThetaSeries([0, 1], genus)
    assert (gamma * eta).is_zero()
    assert (eta * eta).is_zero()


def test_kunneth_genus_mismatch():
    with pytest.raises(ValueError):
        KunnethClass(
            ThetaSeries.constant(1, 1),
            ThetaSeries.constant(0, 1),
            ThetaSeries.constant(0, 2),
        )


def test_poincare_chern_closed_form():
    # exp(d'*eta + gamma) = 1 + gamma + (d' - theta)*eta
    kc = poincare_chern(5, 2)
    assert kc.one == ThetaSeries.constant(1, 2)
    assert kc.gamma_part == ThetaSeries.constant(1, 2)
    assert kc.eta_part == series(5, -1, genus=2)
    assert integrate_sigma(kc) == series(5, -1, genus=2)
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        poincare_chern(0, -1)


def test_grr_pushforward_examples():
    assert grr_pushforward(0, 1, 1) == series(0, -1, genus=1)
    assert grr_pushforward(5, 3, 2) == series(12, -3, genus=2)
    assert grr_pushforward(-3, 2, 2) == series(-8, -2, genus=2)
    with pytest.raises(ValueError):
        grr_pushforward(0, 0, 1)
    # a negative genus is named, and before a bad rank
    for r0 in (1, 0):
        with pytest.raises(ValueError, match="^genus must be nonnegative$"):
            grr_pushforward(0, r0, -1)


@given(st.integers(-6, 6), st.integers(1, 5), st.integers(0, 5))
def test_grr_rank_term_is_scaled_euler_char(dprime, r0, genus):
    pushed = grr_pushforward(dprime, r0, genus)
    assert pushed[0] == r0 * (dprime + 1 - genus)  # r0 * euler char of a degree-d' line
    if genus >= 1:
        assert pushed[1] == -r0
    assert all(pushed[i] == 0 for i in range(2, genus + 1))


# -- Chern and Segre series --------------------------------------------------


def test_chern_series_rejects_fractional_rank():
    with pytest.raises(ValueError):
        chern_series(series(Fraction(1, 2), 1, genus=1))


@settings(max_examples=100)
@given(st.integers(0, 5), st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_chern_series_on_split_characters(genus, roots):
    # ch of a sum of line pieces exp(x*theta) = sum_k x^k theta^k / k! must
    # produce the factored total class prod(1 + x*theta); checks Newton's
    # identities head-on.
    ch = ThetaSeries.constant(0, genus)
    for x in roots:
        ch = ch + ThetaSeries([Fraction(x**k, factorial(k)) for k in range(genus + 1)], genus)
    expected = ThetaSeries.constant(1, genus)
    for x in roots:
        expected = expected * ThetaSeries([1, x], genus)
    assert chern_series(ch) == expected
    assert segre_series(ch) == expected.inverse()


def test_segre_of_line_pushforward():
    # chern is 1 - theta + theta^2/2 regardless of the twist; invert
    assert segre_series(grr_pushforward(-5, 1, 2)) == series(
        1, 1, Fraction(1, 2), genus=2
    )


# -- the Pfaffian pairing ----------------------------------------------------


def skew_rows(form, indices):
    """Sparse skew rows of a 2-form's matrix, restricted to indices."""
    rows = {i: {} for i in indices}
    for (i, j), c in form.terms.items():
        if i in rows and j in rows:
            rows[i][j], rows[j][i] = c, -c
    return rows


def test_pfaffian_small_cases():
    assert pfaffian({}) == 1
    assert pfaffian({0: {}}) == 0  # odd size
    assert pfaffian({3: {5: 7}, 5: {3: -7}}) == 7
    # Pf = a01*a23 - a02*a13 + a03*a12, here with a01 = 0, so the first
    # pivot is a02 and moving column 2 next to row 0 flips the sign
    a = {(0, 2): 2, (1, 3): 3, (0, 3): 5, (1, 2): 7, (2, 3): 11}
    assert pfaffian(skew_rows(Multivector(a), range(4))) == -2 * 3 + 5 * 7
    assert pfaffian({0: {1: Fraction(1, 2)}, 1: {0: Fraction(-1, 2)}}) == Fraction(1, 2)


def entries_above_the_diagonal(genus):
    size = genus * (2 * genus - 1)
    return st.lists(st.integers(-3, 3), min_size=size, max_size=size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda g: st.tuples(st.just(g), entries_above_the_diagonal(g))))
@example((2, [0, 2, 5, 7, 3, 11]))
def test_pfaffian_is_the_divided_power_coefficient(pair):
    # omega^[k] = sum over |S| = 2k of Pf(omega_S) e_S: the Pfaffian of every
    # principal minor, the whole matrix among them, is a coefficient of exp(omega)
    genus, entries = pair
    topo = SurfaceTopology(genus)
    pairs = [(i, j) for i in range(topo.rank) for j in range(i + 1, topo.rank)]
    omega = Multivector(dict(zip(pairs, entries)))
    exp = exp_even(omega, topo)
    assert pfaffian(skew_rows(omega, range(topo.rank))) == top_pairing(exp, topo)
    for k in range(0, topo.rank + 1, 2):
        for minor in combinations(range(topo.rank), k):
            assert pfaffian(skew_rows(omega, minor)) == exp.coefficient(minor)


@pytest.mark.parametrize("genus", range(5))
def test_theta_pairing_matches_wedge_and_top_pairing(genus):
    # every even blade, through the Pfaffian and through the generic algebra
    topo = SurfaceTopology(genus)
    for size in range(0, topo.rank + 1, 2):
        for blade in combinations(range(topo.rank), size):
            power = theta_divided_power(topo, genus - size // 2)
            want = top_pairing(wedge(power, Multivector({blade: 1}), topo), topo)
            assert picard._theta_pairing(genus, blade) == want


def test_theta_pairing_refuses_a_fractional_pfaffian(monkeypatch):
    monkeypatch.setattr(picard, "pfaffian", lambda rows: Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="^non-integral Pfaffian 1/2 on the complement"):
        picard._theta_pairing.__wrapped__(1, ())


def test_oracle_refuses_a_blade_past_the_genus():
    t = min_valid_aux_twist(2, 2, -1, 1)
    for blade in ((0, 5), (1, 2, 3, 7)):  # pairs with Theta^[1] and Theta^[0]
        with pytest.raises(ValueError) as err:
            ggw_via_segre(2, 2, -1, 1, t, Multivector({blade: 1}))
        message = f"ggw_via_segre: generator index {blade[-1]} out of range for genus 2"
        assert str(err.value) == message


# -- the oracle count --------------------------------------------------------


def test_segre_route_spot_values():
    topo = SurfaceTopology(2)
    a1b1 = Multivector.blade((0, 1))
    t = min_valid_aux_twist(2, 2, -1, 1)
    assert ggw_via_segre(2, 2, -1, 1, t, ONE) == 4
    t = min_valid_aux_twist(3, 2, -1, 0)
    assert ggw_via_segre(3, 2, -1, 0, t, Multivector.scalar(1)) == 8
    t = min_valid_aux_twist(2, 4, -1, 2)
    assert ggw_via_segre(2, 4, -1, 2, t, ONE) == 16
    t = min_valid_aux_twist(2, 2, -1, 0)
    assert ggw_via_segre(2, 2, -1, 0, t, a1b1) == 2
    t = min_valid_aux_twist(2, 3, -1, 1)
    assert ggw_via_segre(2, 3, -1, 1, t, a1b1) == 3


def test_segre_route_preconditions():
    with pytest.raises(ValueError):
        ggw_via_segre(1, 2, 0, 0, 0, ONE)  # twist leaves d' = 0 > -3
    with pytest.raises(ValueError):
        ggw_via_segre(0, 1, -5, 3, 0, ONE)  # section count 0 - 3 < 0
    with pytest.raises(ValueError):
        ggw_via_segre(-1, 1, 0, 0, 5, ONE)
    with pytest.raises(ValueError):
        ggw_via_segre(1, 0, 0, 0, 5, ONE)


def test_segre_bookkeeping_error_names_both_sides(monkeypatch):
    # a v off by one breaks (g + N) - k = v; the error says what disagreed
    monkeypatch.setattr(picard, "abelian_v", lambda *args: abelian_v(*args) + 1)
    t = min_valid_aux_twist(2, 3, -1, 1)
    with pytest.raises(ArithmeticError, match=r"^Segre bookkeeping: g \+ N - k = 2, but v = 3$"):
        ggw_via_segre(2, 3, -1, 1, t, ONE)


@given(st.integers(0, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_min_valid_aux_twist_is_tight(genus, r0, d, d0):
    t = min_valid_aux_twist(genus, r0, d, d0)
    ggw_via_segre(genus, r0, d, d0, t, ONE)  # must not raise
    with pytest.raises(ValueError):
        ggw_via_segre(genus, r0, d, d0, t - 1, ONE)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 3),
)
def test_segre_route_matches_closed_form(genus, r0, d, d0, extra):
    topo = SurfaceTopology(genus)
    picks = [ONE, 2 * ONE]
    if genus >= 1:
        picks.append(Multivector.blade((0, 1)))
        picks.append(theta_class(topo))
    t = min_valid_aux_twist(genus, r0, d, d0) + extra
    v = abelian_v(r0, d, d0, genus)
    for l in picks:
        assert ggw_via_segre(genus, r0, d, d0, t, l) == ggw_abelian(genus, r0, v, l)


# -- the oracle past the grids' genus bound ----------------------------------
#
# The check grids stop at genus 4 and pair only basis monomials.  Here
# the closed forms meet the Segre route at genus 5..7 on handle blades
# (the only blades with a nonzero pairing), odd and non-handle blades
# (which must pair to 0), and dense forms with 60-bit coefficients.

LONG_GENERA = (5, 6, 7)


def handle_blade(topo, handles):
    return Multivector.blade([i for h in handles for i in (topo.a(h), topo.b(h))])


def long_forms(genus):
    topo = SurfaceTopology(genus)
    rng = random.Random(genus)
    forms = [handle_blade(topo, range(1, m + 1)) for m in range(genus + 1)]
    forms.append(handle_blade(topo, (2, genus)))
    forms.append(Multivector.blade((topo.a(1), topo.b(2))))  # even, not a handle blade
    forms.append(Multivector.blade((topo.a(1), topo.b(1), topo.a(3))))  # odd grade
    for _ in range(2):
        dense = {}
        for m in range(genus + 1):
            handles = rng.sample(range(1, genus + 1), m)
            blade = tuple(sorted(i for h in handles for i in (topo.a(h), topo.b(h))))
            dense[blade] = rng.randrange(-(2**60), 2**60)
        for _ in range(12):
            blade = tuple(sorted(rng.sample(range(topo.rank), rng.randint(1, topo.rank))))
            dense[blade] = rng.randrange(-(2**60), 2**60)
        forms.append(Multivector(dense))
    return forms


def segre_at(genus, r0, w, l):
    """Oracle count with abelian index w, through kernel degree 0."""
    d0 = w - (r0 - 1) * (1 - genus)
    assert abelian_v(r0, 0, d0, genus) == w
    return ggw_via_segre(genus, r0, 0, d0, min_valid_aux_twist(genus, r0, 0, d0), l)


@pytest.mark.parametrize("genus", LONG_GENERA)
def test_closed_count_matches_oracle_past_grid_genus(genus):
    nonzero = 0
    for r0 in (1, 2, 3):
        for v, d in product((-1, 0, 1, 2, genus // 2, genus, genus + 1), (-1, 2)):
            d0 = v + r0 * d - (r0 - 1) * (1 - genus)
            assert abelian_v(r0, d, d0, genus) == v
            twist = min_valid_aux_twist(genus, r0, d, d0)
            for l in long_forms(genus):
                want = ggw_via_segre(genus, r0, d, d0, twist, l)
                assert ggw_abelian(genus, r0, v, l) == want
                nonzero += want != 0
    assert nonzero >= 200


@pytest.mark.parametrize("genus", LONG_GENERA)
def test_sw_matches_oracle_past_grid_genus(genus):
    nonzero = 0
    for v0 in (-1, 0, 1):
        geom = RuledSurfaceGeometry(genus, v0)
        for n in (0, 1, 2):
            d0_eff = n * (n + 1) * v0 // 2
            for d in range(-3 * genus, 3 * genus):
                v = abelian_v(n + 1, -d, d0_eff, genus)
                if not -1 <= v <= genus + 1:
                    continue
                for l in long_forms(genus):
                    res = sw_ruled(d, n, geom, l)
                    want = segre_at(genus, n + 1, v, l)
                    assert res.value_signed_chamber == want
                    nonzero += want != 0
                assert res.sign == 1 and res.value_opposite_chamber == 0
    assert nonzero >= 200


@pytest.mark.parametrize("genus", LONG_GENERA)
def test_evaluate_matches_oracle_past_grid_genus(genus):
    # u1^a * (odd blade) at index v pairs like the top term of the count at
    # index v - a, which is the count at v - a minus the count at v - a - 1
    ctx = AlgebraContext(r=1, genus=genus)
    rng = random.Random(100 + genus)
    odd_sets = [(), (1, 2), (1, 2, 2 * genus - 1, 2 * genus), (3,), (1, 4)]
    odd_sets += [tuple(range(1, 2 * m + 1)) for m in range(2, genus + 1)]
    terms = []
    for odd in odd_sets:
        for a in range(3):
            factors = [f"u1^{a}"] + [f"G[1,{j}]" for j in odd]
            terms.append(f"{rng.randrange(1, 2**60)}*" + "*".join(factors))
    nonzero = 0
    for text in terms + [" - ".join(terms)]:
        nf = normalize(parse_expr(text, ctx), ctx)
        for r0 in (1, 2, 3):
            for v in range(-1, genus + 3):
                want = 0
                for (u, _, odd), coeff in nf.terms.items():
                    blade = Multivector({tuple(j - 1 for _, j in odd): 1})
                    w = v - u[0]
                    want += coeff * (
                        segre_at(genus, r0, w, blade) - segre_at(genus, r0, w - 1, blade)
                    )
                assert evaluate_abelian(nf, genus, r0, v) == want
                nonzero += want != 0
    assert nonzero >= 80


# -- the oracle at large genus -----------------------------------------------
#
# The Pfaffian pairing never builds Theta^[k], so the oracle reaches the
# genera where the closed forms run: mid-grade handle blades, a
# non-handle even blade and a dense form, each of which it must price
# as the closed form does.


@pytest.mark.parametrize("genus", [30, 64, 200])
def test_oracle_matches_closed_form_at_large_genus(genus):
    topo = SurfaceTopology(genus)
    rng = random.Random(genus)
    half = genus // 2
    forms = [
        handle_blade(topo, range(1, half + 1)),
        handle_blade(topo, range(2, genus + 1, 2)),
        # a1^b2 beside half - 1 whole handles: even and mid-grade, not a handle blade
        handle_blade(topo, range(3, half + 2)) * Multivector.blade((topo.a(1), topo.b(2))),
    ]
    dense = {}
    for _ in range(12):
        handles = rng.sample(range(1, genus + 1), rng.randint(half - 2, half + 2))
        dense.update((handle_blade(topo, handles) * rng.randrange(-(2**60), 2**60)).terms)
        blade = tuple(sorted(rng.sample(range(topo.rank), genus + rng.randint(-1, 1))))
        dense[blade] = rng.randrange(-(2**60), 2**60)
    forms.append(Multivector(dense))
    for r0, v in ((2, half), (3, genus)):
        d0 = v - r0 - (r0 - 1) * (1 - genus)
        assert abelian_v(r0, -1, d0, genus) == v
        twist = min_valid_aux_twist(genus, r0, -1, d0)
        values = [ggw_via_segre(genus, r0, -1, d0, twist, l) for l in forms]
        assert values == [ggw_abelian(genus, r0, v, l) for l in forms]
        assert values[0] == r0**half and values[2] == 0 and values[3] != 0
