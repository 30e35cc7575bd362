from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruledinv.indices import (
    H2Class,
    RuledSurfaceGeometry,
    abelian_v,
    canonical_class,
    douady_index,
    index_wc,
    intersect,
    spinc_det,
)

F = H2Class(0, 1)
S = H2Class(1, 0)


def test_abelian_v_examples():
    assert abelian_v(2, -1, 0, 1) == 2
    assert abelian_v(2, 1, 2, 1) == 0
    assert abelian_v(1, 0, 0, 5) == 0


def test_validation_errors():
    with pytest.raises(ValueError):
        abelian_v(0, 0, 0, 1)
    with pytest.raises(ValueError):
        abelian_v(1, 0, 0, -1)
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        RuledSurfaceGeometry(-1, 0)


# -- ruled surface intersection ring ----------------------------------------


def test_intersection_ring_relations():
    geom = RuledSurfaceGeometry(2, 3)
    assert intersect(S, S, geom) == 3
    assert intersect(S, F, geom) == 1
    assert intersect(F, F, geom) == 0


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 4),
    st.integers(-4, 4),
)
def test_intersect_symmetric_bilinear(xs, xf, ys, yf, genus, d0):
    geom = RuledSurfaceGeometry(genus, d0)
    x, y, xy = H2Class(xs, xf), H2Class(ys, yf), H2Class(xs + ys, xf + yf)
    assert intersect(x, y, geom) == intersect(y, x, geom)
    assert intersect(xy, xy, geom) == (
        intersect(x, x, geom) + 2 * intersect(x, y, geom) + intersect(y, y, geom)
    )


def test_canonical_class_examples():
    assert canonical_class(RuledSurfaceGeometry(0, 0)) == H2Class(-2, -2)
    assert canonical_class(RuledSurfaceGeometry(2, 1)) == H2Class(-2, 3)


@given(st.integers(0, 5), st.integers(-5, 5))
def test_canonical_square_is_eight_minus_eight_g(genus, d0):
    geom = RuledSurfaceGeometry(genus, d0)
    K = canonical_class(geom)
    assert intersect(K, K, geom) == 8 * (1 - genus)


def test_spinc_det_examples():
    assert spinc_det(1, 1, RuledSurfaceGeometry(1, 0)) == H2Class(4, 2)
    assert spinc_det(0, 0, RuledSurfaceGeometry(1, 0)) == H2Class(2, 0)


def test_spinc_det_is_twice_the_twist_minus_canonical():
    # reference: 2(d*f + n*s) - K through the class arithmetic
    for genus, d0, d, n in product(range(5), range(-3, 4), range(-3, 4), range(-3, 4)):
        geom = RuledSurfaceGeometry(genus, d0)
        assert spinc_det(d, n, geom) == H2Class(2 * n, 2 * d) - canonical_class(geom)


@given(st.integers(-4, 4), st.integers(-2, 4), st.integers(0, 4), st.integers(-4, 4))
def test_spinc_fibre_pairing_is_2n_plus_2(d, n, genus, d0):
    geom = RuledSurfaceGeometry(genus, d0)
    assert intersect(spinc_det(d, n, geom), F, geom) == 2 * n + 2


def test_index_wc_examples():
    g0 = RuledSurfaceGeometry(0, 0)
    k = canonical_class(g0)
    assert index_wc(H2Class(-k.s, -k.f), g0) == 0
    assert index_wc(H2Class(4, 2), RuledSurfaceGeometry(1, 0)) == 4


def test_index_wc_rejects_non_characteristic_square():
    geom = RuledSurfaceGeometry(0, 1)
    with pytest.raises(ValueError):
        index_wc(H2Class(1, 0), geom)  # square 1, not divisible by 4


def test_douady_examples():
    for genus in range(4):
        geom = RuledSurfaceGeometry(genus, 0)
        assert douady_index(F, geom) == 1
    assert douady_index(H2Class(1, 1), RuledSurfaceGeometry(0, 0)) == 3


@given(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 4), st.integers(-3, 3))
def test_douady_matches_halved_spinc_index(d, n, genus, d0):
    # the divisor problem for d*f + n*s and the monopole index see the same number
    geom = RuledSurfaceGeometry(genus, d0)
    m = H2Class(n, d)
    assert douady_index(m, geom) == index_wc(spinc_det(d, n, geom), geom) // 2


@given(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 4), st.integers(-3, 3))
def test_index_dictionary_hits_abelian_v(d, n, genus, d0):
    geom = RuledSurfaceGeometry(genus, d0)
    w_c = index_wc(spinc_det(d, n, geom), geom)
    assert w_c % 2 == 0
    assert w_c // 2 == abelian_v(n + 1, -d, n * (n + 1) * d0 // 2, genus)
