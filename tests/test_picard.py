import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledinv import picard
from ruledinv.checks import run_all
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


def plain(coeffs):
    """theta^k coefficients of divided-power coefficients: c_k / k!."""
    return [Fraction(c, factorial(k)) for k, c in enumerate(coeffs)]


def plain_product(factors, genus):
    """Cauchy product of theta^k coefficient lists, dropping powers past theta^genus."""
    out = [1] + [0] * genus
    for f in factors:
        f = (list(f) + [0] * genus)[: genus + 1]
        out = [sum(out[i] * f[k - i] for i in range(k + 1)) for k in range(genus + 1)]
    return out


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
    # coefficients are on the divided powers theta^[k] = theta^k/k!
    a = series(1, 2, genus=2)
    b = series(0, 1, 1, genus=2)
    assert (a + b).coeffs == (1, 3, 1)
    assert (a - b).coeffs == (1, 1, -1)
    assert (-a).coeffs == (-1, -2, 0)
    # (1 + 2 theta)(theta + theta^[2]) = theta + (1 + 2*2) theta^[2]; theta^3 truncated away
    assert (a * b).coeffs == (0, 1, 5)
    assert (3 * a).coeffs == (3, 6, 0)
    with pytest.raises(ValueError):
        a + series(1, genus=4)
    with pytest.raises(TypeError, match=r"^coefficient Fraction\(1, 2\) is not an int$"):
        series(1, Fraction(1, 2))
    with pytest.raises(TypeError):
        a * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * a


int_coeffs = st.integers(-8, 8) | st.integers(-(2**70), 2**70)


@settings(max_examples=150)
@given(
    st.integers(0, 6),
    st.lists(int_coeffs, min_size=1, max_size=8),
    st.lists(int_coeffs, min_size=1, max_size=8),
    st.integers(-5, 5),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
)
def test_series_ring_matches_dense_reference(genus, xs, ys, n, q):
    # the reference works on theta^k coefficients and never calls merge_monomials
    a, b = ThetaSeries(xs, genus), ThetaSeries(ys, genus)
    x = plain((xs + [0] * genus)[: genus + 1])
    y = plain((ys + [0] * genus)[: genus + 1])
    assert plain((a * b).coeffs) == plain_product([x, y], genus)
    assert plain((a + b).coeffs) == [s + t for s, t in zip(x, y)]
    assert plain((a - b).coeffs) == [s - t for s, t in zip(x, y)]
    assert plain((-a).coeffs) == [-s for s in x]
    assert plain((n * a).coeffs) == plain((a * n).coeffs) == [n * s for s in x]
    assert all(type(c) is int for c in (a * b).coeffs)
    # a Fraction scales nothing, even a whole one
    for op in (lambda: a * q, lambda: q * a):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("op", [add, sub, mul])
def test_series_of_mixed_genus_do_not_combine(op):
    a, b = series(1, 2, genus=2), series(1, 2, genus=3)
    with pytest.raises(ValueError):
        op(a, b)
    with pytest.raises(ValueError):
        op(b, a)


def test_series_inverse():
    # the line character sum x^k theta^[k] = e^(x theta) has c = 1 + x theta and
    # Segre series 1/(1 + x theta) = sum (-x)^k theta^k = sum (-x)^k k! theta^[k]
    pins = {
        1: (1, -1, 2, -6, 24),
        -1: (1, 1, 2, 6, 24),
        2: (1, -2, 8, -48, 384),
        -3: (1, 3, 18, 162, 1944),
        0: (1, 0, 0, 0, 0),
    }
    for x, segre in pins.items():
        for genus in range(5):
            ch = ThetaSeries([x**k for k in range(genus + 1)], genus)
            assert segre_series(ch).coeffs == segre[: genus + 1]


@settings(max_examples=150)
@given(st.integers(0, 5), st.lists(int_coeffs, max_size=6))
def test_series_inverse_is_two_sided(genus, coeffs):
    ch = ThetaSeries(coeffs, genus)
    chern, segre = chern_series(ch), segre_series(ch)
    one = ThetaSeries([1], genus)
    assert segre * chern == one
    assert chern * segre == one
    # and on theta^k coefficients, against the plain Cauchy product
    assert plain_product([plain(segre.coeffs), plain(chern.coeffs)], genus) == plain(one.coeffs)


# -- two-factor ring with the odd square rule --------------------------------


# the Kunneth relations on plain theta^k coefficients: part 0, 1, 2 is 1, gamma, eta;
# gamma^2 = -2*theta*eta, gamma*eta = eta^2 = 0; the table never calls merge_monomials
# (p, q) -> (extra theta power, part, sign) of part p times part q; absent pairs vanish
PART_PRODUCTS = {(0, 0): (0, 0, 1), (0, 1): (0, 1, 1), (1, 0): (0, 1, 1), (0, 2): (0, 2, 1),
                 (2, 0): (0, 2, 1), (1, 1): (1, 2, -2)}


def kunneth_table(genus):
    """(m1, m2) -> the terms of m1 * m2, for every pair of monomials theta^[k] * part."""
    monomials = [(k, part) for k in range(genus + 1) for part in range(3)]
    table = {}
    for (i, p), (j, q) in product(monomials, repeat=2):
        want = {}
        if (p, q) in PART_PRODUCTS:
            extra, part, sign = PART_PRODUCTS[p, q]
            n = i + j + extra  # theta^[i] theta^[j] theta^extra = theta^n / (i! j!)
            if n <= genus:
                want[n, part] = sign * factorial(n) // (factorial(i) * factorial(j))
        table[(i, p), (j, q)] = want
    return table


@pytest.mark.parametrize("genus", [0, 1, 2, 3, 4])
def test_kunneth_relations(genus):
    # every product of two monomials, theta-carrying ones and those past theta^genus among them
    for (m1, m2), want in kunneth_table(genus).items():
        got = KunnethClass({m1: 1}, genus) * KunnethClass({m2: 1}, genus)
        assert got.terms == want, (m1, m2)
    gamma, eta = KunnethClass({(0, 1): 1}, genus), KunnethClass({(0, 2): 1}, genus)
    assert (gamma * gamma).terms == ({(1, 2): -2} if genus else {})
    assert (gamma * eta).is_zero() and (eta * eta).is_zero()


def test_kunneth_genus_mismatch():
    with pytest.raises(ValueError, match="^KunnethClass operands built over different contexts$"):
        KunnethClass({(0, 1): 1}, 1) * KunnethClass({(0, 1): 1}, 2)
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        KunnethClass({}, -1)
    for bad in [(2, 0), (-1, 0), (0, 3), (0, -1), (0,), (0, 1, 2), 0, (0.5, 0)]:
        with pytest.raises(ValueError, match="^monomial .* is not"):
            KunnethClass({bad: 1}, 1)
    with pytest.raises(TypeError, match=r"^coefficient Fraction\(1, 2\) is not an int$"):
        KunnethClass({(0, 0): Fraction(1, 2)}, 1)
    assert KunnethClass({(0, 0): 0, (1, 2): 3}, 1).terms == {(1, 2): 3}


def test_poincare_chern_closed_form():
    # exp(d'*eta + gamma) = 1 + gamma + (d' - theta)*eta
    kc = poincare_chern(5, 2)
    assert kc.terms == {(0, 0): 1, (0, 1): 1, (0, 2): 5, (1, 2): -1}
    assert integrate_sigma(kc) == series(5, -1, genus=2)
    # in genus 0 theta vanishes, and so does gamma^2
    assert poincare_chern(5, 0).terms == {(0, 0): 1, (0, 1): 1, (0, 2): 5}
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
    # a character with a fractional rank term cannot be stated: the series
    # refuses it, so Newton's identities only ever see ints
    with pytest.raises(TypeError, match=r"^coefficient Fraction\(1, 2\) is not an int$"):
        chern_series(series(Fraction(1, 2), 1, genus=1))
    with pytest.raises(TypeError, match=r"^coefficient 0.5 is not an int$"):
        chern_series(series(0.5, 1, genus=1))
    # the rank term itself never enters the total class
    assert chern_series(series(7, -1, genus=2)) == chern_series(series(-3, -1, genus=2))


@settings(max_examples=100)
@given(st.integers(0, 5), st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_chern_series_on_split_characters(genus, roots):
    # ch of a sum of line pieces exp(x*theta) = sum_k x^k theta^[k] must
    # produce the factored total class prod(1 + x*theta), and the Segre
    # series prod(1/(1 + x*theta)); checks Newton's identities head-on
    # against theta^k coefficients that never go through merge_monomials.
    ch = ThetaSeries([0], genus)
    for x in roots:
        ch = ch + ThetaSeries([x**k for k in range(genus + 1)], genus)
    chern = plain_product([[1, x] for x in roots], genus)
    segre = plain_product([[(-x) ** k for k in range(genus + 1)] for x in roots], genus)
    assert plain(chern_series(ch).coeffs) == chern
    assert plain(segre_series(ch).coeffs) == segre
    expected = ThetaSeries([1], genus)
    for x in roots:
        expected = expected * ThetaSeries([1, x], genus)
    assert chern_series(ch) == expected
    assert segre_series(ch) * expected == ThetaSeries([1], genus)


def test_segre_of_line_pushforward():
    # chern is 1 - theta + theta^2/2 = sum (-1)^k theta^[k] regardless of
    # the twist; its inverse is 1 + theta + theta^2/2 = sum theta^[k]
    pushed = grr_pushforward(-5, 1, 2)
    assert chern_series(pushed) == series(1, -1, 1, genus=2)
    assert segre_series(pushed) == series(1, 1, 1, genus=2)
    assert repr(segre_series(pushed)) == "ThetaSeries(['1', '1', '1/2'])"


@pytest.mark.parametrize("genera", [range(61), [1600]], ids=["genus<=60", "genus=1600"])
def test_pushforward_classes_are_the_picard_bundle_exponentials(genera):
    # c = e^(-r0 theta) and s = e^(r0 theta) (Arbarello-Cornalba-Griffiths-Harris,
    # Geometry of Algebraic Curves I): E_k = (-r0)^k and S_k = r0^k on theta^[k],
    # whatever the twist; the oracle derives them, the test pins them
    for genus, r0 in product(genera, (1, 2, 3)):
        for dprime in (-1, -2 * genus - 5):
            pushed = grr_pushforward(dprime, r0, genus)
            assert chern_series(pushed).coeffs == tuple((-r0) ** k for k in range(genus + 1))
            assert segre_series(pushed).coeffs == tuple(r0**k for k in range(genus + 1))


def test_series_repr_prints_theta_power_coefficients():
    assert repr(ThetaSeries([1, 2, 2])) == "ThetaSeries(['1', '2', '1'])"
    assert repr(ThetaSeries([0, 0, 0, -3], 4)) == "ThetaSeries(['0', '0', '0', '-1/2', '0'])"


def test_exact_div_divides_or_names_the_coefficient():
    assert ThetaSeries([4, -6, 0, 2]).exact_div(2, "who") == ThetaSeries([2, -3, 0, 1])
    x = Multivector({(0, 1): 6, (): -9})
    assert x.exact_div(3, "who") == Multivector({(0, 1): 2, (): -3})
    with pytest.raises(ArithmeticError, match=r"^who: coefficient 7 on 1 not divisible by 2$"):
        ThetaSeries([4, 7]).exact_div(2, "who")
    message = r"^exp_even: coefficient -9 on \(\) not divisible by 2$"
    with pytest.raises(ArithmeticError, match=message):
        x.exact_div(2, "exp_even")
    # the core's exponential divides each power exactly: 1, not nilpotent, fails at 1^2/2
    with pytest.raises(ArithmeticError, match=r"^who: coefficient 1 on \(\) not divisible by 2$"):
        ONE.exp(ONE, "who")


# -- the Pfaffian pairing ----------------------------------------------------


def skew_rows(form, indices):
    """Sparse skew rows of a 2-form's matrix, restricted to indices."""
    rows = {i: {} for i in indices}
    for (i, j), c in form.terms.items():
        if i in rows and j in rows:
            rows[i][j], rows[j][i] = c, -c
    return rows


def fraction_pfaffian(rows) -> Fraction:
    """The Pfaffian by exact skew elimination over Fraction: the reference."""
    rows = {i: {j: Fraction(a) for j, a in row.items() if a} for i, row in rows.items()}
    left = sorted(rows)
    pf = Fraction(1)
    while left:
        i = left[0]
        u = rows.pop(i)
        if not u:
            return Fraction(0)
        j = min(u)
        pos = bisect_left(left, j)
        a = u.pop(j)
        w = rows.pop(j)
        del w[i], left[pos], left[0]
        pf *= a if pos & 1 else -a
        # S_kl = a_kl + (a_jk * a_il - a_ik * a_jl) / a_ij
        met = u.keys() | w.keys()
        for k in met:
            row = rows[k]
            row.pop(i, None)
            row.pop(j, None)
            uk, wk = u.get(k, 0), w.get(k, 0)
            for m in met:
                if m != k:
                    x = row.get(m, 0) + (wk * u.get(m, 0) - uk * w.get(m, 0)) / a
                    if x:
                        row[m] = x
                    else:
                        row.pop(m, None)
    return pf


def fraction_det(rows):
    """Determinant of the matrix with sparse rows in key order, by Gaussian elimination over Fraction."""
    keys = sorted(rows)
    n = len(keys)
    m = [[Fraction(rows[i].get(j, 0)) for j in keys] for i in keys]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@st.composite
def skew_matrices(draw, max_size, bits, densities=(0.0, 0.2, 0.5, 1.0)):
    """Sparse skew rows on n <= max_size indices, odd n and empty rows included.

    The indices are 0..n-1 relabelled by a random increasing map, as the
    oracle's rows skip the indices of the blade they pair.
    """
    n = draw(st.integers(0, max_size))
    density = draw(st.sampled_from(densities))
    keys = sorted(draw(st.sets(st.integers(0, 3 * max_size), min_size=n, max_size=n)))
    rows = {i: {} for i in keys}
    for i, j in combinations(keys, 2):
        if draw(st.floats(0, 1, exclude_max=True)) < density:
            c = draw(st.integers(-(2**bits), 2**bits))
            rows[i][j], rows[j][i] = c, -c
    return rows


@settings(max_examples=200, deadline=None)
@given(skew_matrices(12, 3))
@example({0: {}, 1: {2: 5}, 2: {1: -5}})  # odd, with an empty row
@example({i: {} for i in range(4)})
def test_pfaffian_matches_the_fraction_elimination(rows):
    got = pfaffian(rows)
    assert type(got) is int and got == fraction_pfaffian(rows)


@settings(max_examples=40, deadline=None)
@given(skew_matrices(16, 60, densities=(1.0,)))
def test_pfaffian_squares_to_the_determinant_on_large_dense_entries(rows):
    assert pfaffian(rows) ** 2 == fraction_det(rows)


def test_pfaffian_small_cases():
    assert pfaffian({}) == 1
    assert pfaffian({0: {}}) == 0  # odd size
    assert pfaffian({3: {5: 7}, 5: {3: -7}}) == 7
    # Pf = a01*a23 - a02*a13 + a03*a12, here with a23 = 0, so the first
    # pivot is a31, the last row at its last nonzero column; column 1 sits
    # at place 1 among 0..2, so its shift sign (-1)^(1+1) keeps the sign
    a = {(0, 1): 11, (0, 2): 2, (1, 3): 3, (0, 3): 5, (1, 2): 7}
    assert pfaffian(skew_rows(Multivector(a), range(4))) == -2 * 3 + 5 * 7
    # 60-bit entries stay exact ints: here Pf = a01*a23 - a02*a13
    b = 2**60
    a = {(0, 1): b, (0, 2): 3, (1, 3): 1, (2, 3): b + 1}
    assert pfaffian(skew_rows(Multivector(a), range(4))) == b * (b + 1) - 3


@pytest.mark.parametrize("s", [3, -2, 2**61 - 1])
def test_pfaffian_of_a_scaled_theta_reads_its_stamps(s):
    # s*Theta's pivots are s, s^2, ..., s^g, and no step updates an entry,
    # so every block after the first is read through its stamp of 1
    genus = 400
    rows = {}
    for h in range(genus):
        rows[2 * h], rows[2 * h + 1] = {2 * h + 1: s}, {2 * h: -s}
    assert pfaffian(rows) == s**genus


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


def test_oracle_refuses_a_blade_past_the_genus():
    # v = 2 pairs (0, 5) with Theta^[1] and (1, 2, 3, 7) with Theta^[0]; the
    # odd blade pairs with nothing, and v = 0 pairs (0, 5) with nothing either
    for (r0, d, d0), blade in (
        ((2, -1, 1), (0, 5)),
        ((2, -1, 1), (1, 2, 3, 7)),
        ((2, -1, 1), (1, 2, 3, 4, 7)),
        ((1, 0, 0), (0, 5)),
    ):
        t = min_valid_aux_twist(2, r0, d, d0)
        with pytest.raises(ValueError) as err:
            ggw_via_segre(2, r0, d, d0, t, Multivector({blade: 1}))
        message = f"ggw_via_segre: generator index {blade[-1]} out of range for genus 2"
        assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(1, 3),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.lists(st.tuples(st.sets(st.integers(0, 8), max_size=5), st.integers(-3, 3)), max_size=4),
)
def test_both_routes_refuse_or_agree_past_the_genus(genus, r0, d, d0, terms):
    # blades reach index 8, past every genus drawn; v < 0 gives 0 unchecked
    l = Multivector.zero()
    for indices, coeff in terms:
        l = l + Multivector({tuple(sorted(indices)): coeff})
    v = abelian_v(r0, d, d0, genus)
    outcomes = []
    for route in (
        lambda: ggw_abelian(genus, r0, v, l),
        lambda: ggw_via_segre(genus, r0, d, d0, min_valid_aux_twist(genus, r0, d, d0), l),
    ):
        try:
            outcomes.append(route())
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1]
    past = l.max_index() >= 2 * genus
    assert (outcomes[0] is ValueError) == (past and v >= 0)


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
    # a point that raises is never cached, so it raises the same text again
    picard._segre_point.cache_clear()
    for args, message in (
        ((1, 2, 0, 0, 0), "aux_twist 0 too small: twisted degree 0 exceeds -3"),  # d' = 0 > -3
        ((0, 1, -5, 3, 0), "aux_twist 0 gives negative section count -3"),  # 0 - 3 < 0
        ((-1, 1, 0, 0, 5), "genus must be nonnegative"),
        ((1, 0, 0, 0, 5), "target rank must be >= 1"),
    ):
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                ggw_via_segre(*args, ONE)
            assert str(err.value) == message
    assert picard._segre_point.cache_info().currsize == 0


def test_segre_bookkeeping_error_names_both_sides(monkeypatch):
    # a v off by one breaks (g + N) - k = v; the error says what disagreed,
    # on every call, as a point that raises is never cached
    monkeypatch.setattr(picard, "abelian_v", lambda *args: abelian_v(*args) + 1)
    picard._segre_point.cache_clear()  # a point cached by an earlier test never sees the patch
    t = min_valid_aux_twist(2, 3, -1, 1)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"^Segre bookkeeping: g \+ N - k = 2, but v = 3$"):
            ggw_via_segre(2, 3, -1, 1, t, ONE)
    assert picard._segre_point.cache_info().currsize == 0
    monkeypatch.undo()
    picard._segre_point.cache_clear()


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


# -- the per-point cache -----------------------------------------------------


def ggw_via_segre_uncached(genus, r0, d, d0, aux_twist, l):
    """The oracle count in one body with no per-point cache: the reference."""
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
        raise ArithmeticError(f"Segre bookkeeping: g + N - k = {genus + big_n - k}, but v = {v}")

    if v < 0:
        return 0
    series = picard._pushforward_segre(genus, r0, dprime)
    lowest = max(0, genus - v)
    total = 0
    for blade, coeff in l.terms.items():
        if blade and blade[-1] >= 2 * genus:
            raise ValueError(
                f"ggw_via_segre: generator index {blade[-1]} out of range for genus {genus}"
            )
        idx, odd = divmod(2 * genus - len(blade), 2)
        if odd or idx < lowest:
            continue
        pairing = picard._theta_pairing(genus, blade)
        if pairing:
            total += coeff * series[idx] * pairing
    return total


def outcome(route, *args):
    """A route's value, or the type and text of the error it raised."""
    try:
        return route(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


def test_check_grids_read_the_same_with_the_point_cache_cold_and_warm():
    picard._segre_point.cache_clear()
    cold = run_all(2, 2, 1)
    filled = picard._segre_point.cache_info()
    assert filled.currsize > 0
    assert run_all(2, 2, 1) == cold
    warm = picard._segre_point.cache_info()
    assert warm.currsize == filled.currsize and warm.misses == filled.misses


def test_a_cached_point_still_checks_every_blade():
    # a valid point (v = 2) raises on a blade past the genus, cold or warm;
    # a point with v < 0 gives 0 on it unchecked, cold or warm
    picard._segre_point.cache_clear()
    t = min_valid_aux_twist(2, 2, -1, 1)
    assert ggw_via_segre(2, 2, -1, 1, t, ONE) == 4
    for _ in range(2):
        with pytest.raises(ValueError, match="^ggw_via_segre: generator index 5 out of range for genus 2$"):
            ggw_via_segre(2, 2, -1, 1, t, Multivector({(0, 5): 1}))
    assert abelian_v(2, 1, 0, 2) == -3
    t = min_valid_aux_twist(2, 2, 1, 0)
    for _ in range(2):
        assert ggw_via_segre(2, 2, 1, 0, t, Multivector({(0, 5): 1})) == 0
    info = picard._segre_point.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 2, 2)


def dense_forms(genus):
    """Up to six terms on any blades within the genus, 60-bit coefficients."""
    blades = st.sets(st.integers(0, 2 * genus - 1), max_size=2 * genus) if genus else st.just(set())
    terms = st.lists(st.tuples(blades, st.integers(-(2**60), 2**60)), max_size=6)
    return terms.map(lambda ts: Multivector({tuple(sorted(b)): c for b, c in ts}))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4).flatmap(lambda g: st.tuples(st.just(g), dense_forms(g))),
    st.integers(1, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-1, 2),
)
def test_cached_oracle_matches_the_uncached_body(pair, r0, d, d0, extra):
    # extra = -1 is a twist one short, which raises on both
    genus, l = pair
    t = min_valid_aux_twist(genus, r0, d, d0) + extra
    want = outcome(ggw_via_segre_uncached, genus, r0, d, d0, t, l)
    assert outcome(ggw_via_segre, genus, r0, d, d0, t, l) == want  # cold or warm
    assert outcome(ggw_via_segre, genus, r0, d, d0, t, l) == want  # warm


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


def test_oracle_matches_closed_form_on_a_half_handle_blade_at_genus_1600():
    genus, r0 = 1600, 2
    topo = SurfaceTopology(genus)
    l = handle_blade(topo, range(1, genus // 2 + 1))
    d0 = genus // 2 - r0 - (r0 - 1) * (1 - genus)
    v = abelian_v(r0, -1, d0, genus)
    assert v == genus // 2
    twist = min_valid_aux_twist(genus, r0, -1, d0)
    value = ggw_via_segre(genus, r0, -1, d0, twist, l)
    assert value == ggw_abelian(genus, r0, v, l) == r0 ** (genus // 2)
