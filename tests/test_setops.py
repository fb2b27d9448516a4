"""Point-set construction, and the interval sumset I + Λ that replaced the sumset helpers."""

import pytest

from incidencelab import InvalidArgumentError, StructureError, interval_union, point_set


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


def test_is_direct_sum():
    # I = {1, 2} and Λ = {0, 10} mod 20 add directly; Λ = {0, 1} overlaps.
    assert interval_union(20, [0, 10], 2) == (1, 2, 11, 12)
    with pytest.raises(StructureError):
        interval_union(20, [0, 1], 2)


def test_interval():
    assert interval_union(11, [0], 4) == (1, 2, 3, 4)
    for length in (11, 0):  # the interval must lie in [1, q)
        with pytest.raises(StructureError):
            interval_union(11, [0], length)
