import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsi.errors import DimensionMismatch, InvalidIndexSet
from gsi.lattice import (
    Box,
    Cmp,
    box_points,
    join,
    leq,
    meet,
    normalize_index_set,
    partial_cmp,
    project,
    unit_vector,
)

points = st.integers(1, 4).flatmap(
    lambda r: st.tuples(*([st.integers(-10, 10)] * r)))


def triples(r):
    coord = st.integers(-10, 10)
    p = st.tuples(*([coord] * r))
    return st.tuples(p, p, p)


def test_meet_examples():
    assert meet((3, 4), (4, 3)) == (3, 3)
    assert meet((0, 0), (5, 5)) == (0, 0)
    assert meet((2, 7, 1), (3, 1, 1)) == (2, 1, 1)


def test_meet_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        meet((1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        leq((1,), (1, 2))


def test_order_examples():
    assert leq((0, 0), (3, 4))
    assert partial_cmp((3, 4), (4, 3)) is Cmp.INCOMPARABLE
    assert partial_cmp((2, 2), (2, 2)) is Cmp.EQ
    assert partial_cmp((1, 1), (2, 3)) is Cmp.LT
    assert partial_cmp((5, 5), (2, 3)) is Cmp.GT


def test_unit_vector_examples():
    assert unit_vector(2, {1}) == (1, 0)
    assert unit_vector(3, {1, 2, 3}) == (1, 1, 1)
    assert unit_vector(2, set()) == (0, 0)
    with pytest.raises(InvalidIndexSet):
        unit_vector(2, {3})


def test_index_set_out_of_range():
    with pytest.raises(InvalidIndexSet, match=r"^indices \(3,\) out of range 1\.\.2$"):
        normalize_index_set(2, [3])


def test_box_dimension():
    assert Box((0, 0), (1, 1)).r == 2
    assert Box((4,), (-1,)).r == 1


def test_project_examples():
    assert project((3, 4), {2}) == (4,)
    assert project((3, 4), {1, 2}) == (3, 4)
    assert project((5, 1, 9), {1, 3}) == (5, 9)
    with pytest.raises(InvalidIndexSet):
        project((3, 4), set())


@given(st.integers(2, 4).flatmap(lambda r: triples(r)))
def test_meet_lattice_laws(abc):
    a, b, c = abc
    assert meet(a, b) == meet(b, a)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert meet(a, a) == a
    assert leq(meet(a, b), a) and leq(meet(a, b), b)
    assert leq(a, b) == (meet(a, b) == a)


@given(st.integers(1, 3).flatmap(
    lambda r: st.tuples(st.tuples(*([st.integers(-4, 4)] * r)),
                        st.tuples(*([st.integers(0, 3)] * r)))))
def test_box_iteration(lo_width):
    lo, width = lo_width
    hi = tuple(l + w for l, w in zip(lo, width))
    pts = list(box_points(lo, hi))
    expected = 1
    for w in width:
        expected *= w + 1
    assert len(pts) == expected == len(Box(lo, hi))
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert leq(lo, p) and leq(p, hi)
        assert p in Box(lo, hi)


def test_empty_box():
    b = Box((0, 0), (-1, 2))
    assert b.is_empty and len(b) == 0 and list(b) == []


def test_box_points_is_box_iteration():
    # box_points is itertools.product over the ranges, Box's iteration, on
    # every box of r = 1..4 with each width in -1..2 (a width of -1 is an
    # empty axis), and raises Box's error on mismatched dimensions
    for r in range(1, 5):
        for width in itertools.product(range(-1, 3), repeat=r):
            lo = tuple(range(-1, r - 1))
            hi = tuple(l + w for l, w in zip(lo, width))
            assert list(box_points(lo, hi)) == list(Box(lo, hi)), (lo, hi)
            assert (min(width) < 0) == (list(box_points(lo, hi)) == [])
    for lo, hi in (((0, 0), (1, 1, 1)), ((0, 0, 0), (1,))):
        with pytest.raises(DimensionMismatch) as want:
            Box(lo, hi)
        with pytest.raises(DimensionMismatch, match=f"^{str(want.value)}$"):
            list(box_points(lo, hi))


def test_join():
    assert join((1, 5), (2, 3)) == (2, 5)
