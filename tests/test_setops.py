"""Point-set construction, and the interval sumset I + Λ that replaced the sumset helpers."""

import numpy as np
import pytest

from incidencelab import InvalidArgumentError, StructureError, interval_union, point_set


def test_point_set_basic():
    a = point_set(7, [3, 9, -1])
    assert list(a) == [2, 3, 6]
    assert all(type(x) is int for x in a)  # dimension 1 iterates as ints
    assert len(a) == 3
    assert 6 in a and 5 not in a
    assert a.dimension == 1
    assert a.labels.dtype == np.int64 and a.labels.tolist() == [[2], [3], [6]]


def test_point_set_tuples_infer_dimension():
    a = point_set(5, [(1, 2), (6, -1)])
    assert a.dimension == 2
    assert list(a) == [(1, 2), (1, 4)]
    unsorted = point_set(11, [(3, 0), (1, 9), (14, -2), (1, 2)])
    assert list(unsorted) == [(1, 2), (1, 9), (3, 0), (3, 9)]
    assert unsorted.labels.tolist() == [[1, 2], [1, 9], [3, 0], [3, 9]]
    assert not unsorted.labels.flags.writeable


def test_point_set_from_an_array_equals_the_tuples():
    rows = [(4, 1, 0), (0, 2, 6), (8, 8, 8)]
    from_tuples = point_set(7, rows)
    from_array = point_set(7, np.array(rows, dtype=np.int64), dimension=3)
    assert from_tuples == from_array
    assert from_array.labels.dtype == np.int64
    assert np.array_equal(from_tuples.labels, from_array.labels)
    assert from_tuples != point_set(7, rows[:2])


def test_point_set_beyond_int64_holds_python_ints():
    q = 3 ** 41
    a = point_set(q, [(q + 5, -1), (2, q - 2)])
    assert a.labels.dtype == object
    assert list(a) == [(2, q - 2), (5, q - 1)]
    assert point_set(q, [-1]).labels.tolist() == [[q - 1]]


@pytest.mark.parametrize("rows, expected", [
    ([(0, 5), (1, 2), (3, 4)], [(0, 5), (1, 2), (3, 4)]),   # reduced and sorted
    ([(3, 4), (0, 5), (1, 2)], [(0, 5), (1, 2), (3, 4)]),   # unsorted
    ([(1, 2), (1, 0)], [(1, 0), (1, 2)]),                   # unsorted past column 0
    ([(0, 5), (1, 9), (3, 4)], [(0, 5), (1, 2), (3, 4)]),   # unreduced
    ([(8, 5), (1, -5), (3, 4)], [(1, 2), (1, 5), (3, 4)]),  # unreduced and unsorted
])
def test_point_set_array_is_reduced_and_sorted(rows, expected):
    arr = np.array(rows, dtype=np.int64)
    a = point_set(7, arr)
    assert a.labels.tolist() == [list(r) for r in expected]
    assert not a.labels.flags.writeable
    assert arr.tolist() == [list(r) for r in rows] and arr.flags.writeable


def test_point_set_holds_a_reduced_sorted_array_without_a_copy():
    arr = np.array([(0, 5), (1, 2), (3, 4)], dtype=np.int64)
    assert np.shares_memory(point_set(7, arr).labels, arr)
    assert not np.shares_memory(point_set(5, arr).labels, arr)  # 5 needs reducing


@pytest.mark.parametrize("rows", [
    [(1, 2), (1, 2), (3, 4)],   # sorted and reduced, with a repeat
    [(1, 2), (3, 4), (1, 2)],   # unsorted, with a repeat
    [(1, 2), (1, 9)],           # distinct until reduced
])
def test_point_set_array_refuses_collisions(rows):
    with pytest.raises(InvalidArgumentError, match="collide"):
        point_set(7, np.array(rows, dtype=np.int64))


def test_point_set_rejects_reduction_collision():
    with pytest.raises(InvalidArgumentError):
        point_set(7, [1, 8])
    with pytest.raises(InvalidArgumentError, match="collide"):
        point_set(7, np.array([(1, 2), (3, 4), (8, 9)]))


@pytest.mark.parametrize("elements, dimension", [
    ([(1, 2), (3, 4, 5)], None),     # rows of two widths
    ([(1, 2), (3, 4)], 3),           # rows narrower than the dimension
    ([(1, 2), 3], None),             # a scalar among tuples
    ([3, (1, 2)], None),             # a tuple among scalars
    ([((1, 2), (3, 4))], None),      # nested tuples
    (np.zeros((2, 3), dtype=np.int64), 2),
    ([1, 2], 0),
])
def test_point_set_refuses_malformed_elements(elements, dimension):
    with pytest.raises(InvalidArgumentError):
        point_set(7, elements, dimension=dimension)


def test_point_set_empty_needs_dimension():
    with pytest.raises(InvalidArgumentError):
        point_set(7, [])
    assert len(point_set(7, [], dimension=1)) == 0
    assert point_set(7, [], dimension=3).labels.shape == (0, 3)


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
