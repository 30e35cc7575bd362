import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledinv import checks
from ruledinv.checks import dictionary_point, sw_equals_ggw_check
from ruledinv.exterior import Multivector, SurfaceTopology, theta_class
from ruledinv.indices import H2Class, RuledSurfaceGeometry, abelian_v
from ruledinv.invariants import (
    ggw_abelian,
    quot_count,
    sw_for_class,
    sw_ruled,
)

ONE = Multivector.scalar(1)


def blade_of(topo, *handles):
    indices = []
    for h in handles:
        indices.extend([topo.a(h), topo.b(h)])
    return Multivector.blade(indices)


# -- closed-form count -------------------------------------------------------


def test_ggw_hand_examples():
    topo = SurfaceTopology(1)
    a1b1 = blade_of(topo, 1)
    assert ggw_abelian(1, 3, 2, a1b1) == 1
    assert ggw_abelian(1, 2, 2, ONE) == 2
    assert ggw_abelian(0, 2, -1, ONE) == 0
    assert ggw_abelian(0, 7, 0, ONE) == 1


def test_ggw_values_match_segre_oracle_spots():
    # frozen from the independent Segre-series pipeline
    topo2 = SurfaceTopology(2)
    a1b1 = blade_of(topo2, 1)
    assert ggw_abelian(2, 2, 2, ONE) == 4
    assert ggw_abelian(3, 2, 0, ONE) == 8
    assert ggw_abelian(2, 4, 3, ONE) == 16
    assert ggw_abelian(2, 2, 1, a1b1) == 2
    assert ggw_abelian(2, 3, 2, a1b1) == 3


def test_ggw_input_validation():
    with pytest.raises(ValueError):
        ggw_abelian(-1, 2, 0, ONE)
    with pytest.raises(ValueError):
        ggw_abelian(1, 0, 0, ONE)
    with pytest.raises(ValueError):
        ggw_abelian(1, 2, 0, Multivector.generator(5))
    # v < 0 pairs no theta power, so l is never range-checked
    assert ggw_abelian(1, 2, -1, Multivector.generator(5)) == 0


@given(st.integers(0, 4), st.integers(1, 4), st.integers(-2, 8))
def test_ggw_negative_v_vanishes_and_high_v_stabilizes(genus, r0, v):
    if v < 0:
        assert ggw_abelian(genus, r0, v, ONE) == 0
    if v >= genus:
        assert ggw_abelian(genus, r0, v, ONE) == ggw_abelian(genus, r0, genus, ONE)


@settings(max_examples=100)
@given(
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_ggw_linear_in_l(genus, r0, v, c1, c2):
    topo = SurfaceTopology(genus)
    x = blade_of(topo, *range(1, genus + 1)) if genus else ONE
    y = theta_class(topo) if genus else Multivector.scalar(2)
    lhs = ggw_abelian(genus, r0, v, c1 * x + c2 * y)
    assert lhs == c1 * ggw_abelian(genus, r0, v, x) + c2 * ggw_abelian(genus, r0, v, y)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 4))
def test_ggw_kills_odd_grades(genus, r0, v):
    odd = Multivector.generator(0)
    assert ggw_abelian(genus, r0, v, odd) == 0


@given(st.integers(0, 5), st.integers(1, 5))
def test_quot_count_is_rank_power_and_matches_ggw(genus, r0):
    assert quot_count(genus, r0) == r0**genus
    assert quot_count(genus, r0) == ggw_abelian(genus, r0, genus, ONE)


def test_quot_count_validation():
    with pytest.raises(ValueError):
        quot_count(-1, 2)
    with pytest.raises(ValueError):
        quot_count(2, 0)


# -- Seiberg-Witten values ---------------------------------------------------


def test_sw_worked_instance():
    geom = RuledSurfaceGeometry(1, 0)
    topo = SurfaceTopology(1)
    res = sw_ruled(1, 1, geom, ONE)
    assert res.c == H2Class(4, 2)
    assert res.w_c == 4
    assert res.sign == 1
    assert res.value_signed_chamber == 2
    assert res.value_opposite_chamber == 0
    assert sw_ruled(1, 1, geom, blade_of(topo, 1)).value_signed_chamber == 1


def test_sw_frozen_spots():
    assert sw_ruled(0, 1, RuledSurfaceGeometry(2, 1), ONE).value_signed_chamber == 4
    res = sw_ruled(-1, 2, RuledSurfaceGeometry(2, 0), ONE)
    assert (res.value_signed_chamber, res.w_c) == (0, -10)
    res = sw_ruled(1, 0, RuledSurfaceGeometry(3, -1), ONE)
    assert (res.value_signed_chamber, res.w_c) == (1, 2)


def test_sw_zero_fibre_pairing_branch():
    geom = RuledSurfaceGeometry(2, 0)
    # n = -1 makes the determinant a fibre multiple
    res = sw_ruled(3, -1, geom, ONE)
    assert (res.sign, res.value_signed_chamber, res.value_opposite_chamber) == (0, 0, 0)
    # and directly, any pure fibre class
    res = sw_for_class(H2Class(0, 3), geom, ONE)
    assert (res.sign, res.value_signed_chamber, res.value_opposite_chamber) == (0, 0, 0)
    assert res.pair_with_fibre == 0


def test_sw_negative_fibre_pairing_flips_sign():
    geom = RuledSurfaceGeometry(1, 0)
    res = sw_for_class(H2Class(-2, 0), geom, ONE)
    assert res.sign == -1
    assert res.value_opposite_chamber == 0


def test_sw_for_class_validation():
    geom = RuledSurfaceGeometry(0, 0)
    with pytest.raises(ValueError):
        sw_for_class(H2Class(1, 0), geom, ONE)  # odd fibre pairing
    with pytest.raises(ValueError):
        sw_for_class(H2Class(2, 1), geom, ONE)  # index -1 is odd


def test_sw_equals_ggw_spot_cases():
    topo = SurfaceTopology(1)
    for d, n, geom, l in [
        (1, 1, RuledSurfaceGeometry(1, 0), ONE),
        (0, 0, RuledSurfaceGeometry(1, 0), blade_of(topo, 1)),
        (-2, 3, RuledSurfaceGeometry(2, 2), ONE),
    ]:
        chamber, quot = dictionary_point(d, n, geom)
        assert sw_equals_ggw_check(chamber, geom.genus, quot, l)
    with pytest.raises(ValueError):
        dictionary_point(0, -1, RuledSurfaceGeometry(1, 0))


def test_dictionary_error_names_both_sides(monkeypatch):
    # a v off by one breaks w_c = 2v; the error says what disagreed
    monkeypatch.setattr(checks, "abelian_v", lambda *args: abelian_v(*args) + 1)
    with pytest.raises(ArithmeticError, match="^index dictionary: w_c = 4, but 2v = 6$"):
        dictionary_point(1, 1, RuledSurfaceGeometry(1, 0))


@given(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
def test_sw_linear_in_l(d, n, genus, d0):
    geom = RuledSurfaceGeometry(genus, d0)
    topo = SurfaceTopology(genus)
    x = blade_of(topo, *range(1, genus + 1)) if genus else ONE
    two = sw_ruled(d, n, geom, 2 * x + 3 * ONE).value_signed_chamber
    assert two == 2 * sw_ruled(d, n, geom, x).value_signed_chamber + 3 * sw_ruled(
        d, n, geom, ONE
    ).value_signed_chamber
