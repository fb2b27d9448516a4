"""Point-set construction and the additive/multiplicative set algebra."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from incidencelab import (
    InvalidArgumentError,
    StructureError,
    interval,
    is_direct_sum,
    point_set,
    sumset,
)
from incidencelab.setops import gcd_with_modulus

small_q = st.integers(min_value=2, max_value=40)


@st.composite
def sets_mod_q(draw, q=None):
    if q is None:
        q = draw(small_q)
    elems = draw(st.sets(st.integers(min_value=0, max_value=q - 1),
                         min_size=1, max_size=q))
    return point_set(q, elems)


def test_point_set_basic():
    a = point_set(7, [3, 9, -1])
    assert a.sorted_elements() == [2, 3, 6]
    assert len(a) == 3
    assert 6 in a and 5 not in a
    assert a.dimension == 1


def test_point_set_tuples_infer_dimension():
    a = point_set(5, [(1, 2), (6, -1)])
    assert a.dimension == 2
    assert a.sorted_elements() == [(1, 2), (1, 4)]


def test_point_set_rejects_reduction_collision():
    with pytest.raises(InvalidArgumentError):
        point_set(7, [1, 8])


def test_point_set_empty_needs_dimension():
    with pytest.raises(InvalidArgumentError):
        point_set(7, [])
    assert len(point_set(7, [], dimension=1)) == 0


def test_point_set_equality_ignores_identity():
    assert point_set(7, [1, 2]) == point_set(7, [8, 9])
    assert point_set(7, [1]) != point_set(11, [1])


def test_sumset_known():
    q = 10
    a = point_set(q, [1, 2])
    b = point_set(q, [0, 5])
    assert sumset(a, b).sorted_elements() == [1, 2, 6, 7]


def test_sumset_dimension_two():
    a = point_set(5, [(1, 2)])
    b = point_set(5, [(4, 4)])
    assert sumset(a, b).sorted_elements() == [(0, 1)]


def test_mixed_moduli_rejected():
    with pytest.raises(InvalidArgumentError):
        sumset(point_set(5, [1]), point_set(7, [1]))


@given(sets_mod_q(q=23), sets_mod_q(q=23))
def test_sumset_commutes(a, b):
    assert sumset(a, b) == sumset(b, a)


@given(sets_mod_q(q=19), sets_mod_q(q=19))
def test_sumset_size_bounds(a, b):
    s = sumset(a, b)
    assert max(len(a), len(b)) <= len(s) <= min(19, len(a) * len(b))


def test_is_direct_sum():
    q = 20
    i = point_set(q, [1, 2])
    lam = point_set(q, [0, 10])
    assert is_direct_sum(i, lam)
    assert not is_direct_sum(point_set(q, [1, 2]), point_set(q, [0, 1]))


def test_interval():
    i = interval(11, 4)
    assert i.sorted_elements() == [1, 2, 3, 4]
    with pytest.raises(StructureError):
        interval(11, 11)
    with pytest.raises(StructureError):
        interval(11, 0)


def test_gcd_with_modulus():
    assert gcd_with_modulus(4, 6) == 2
    assert gcd_with_modulus((2, 3), 6) == 1
    assert gcd_with_modulus((0, 0), 6) == 6
