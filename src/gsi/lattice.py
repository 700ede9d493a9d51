"""Points of Z^r with the componentwise partial order and lattice operations.

A point is a plain tuple of ints.  Index sets at the public interface are
1-based; internal storage is 0-based tuples.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from operator import add, sub
from typing import Iterable, Iterator

from .errors import DimensionMismatch, InvalidIndexSet

Point = tuple[int, ...]


class Cmp(enum.Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


def check_same_dim(a: Point, b: Point) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"points of dimension {len(a)} and {len(b)}")


def meet(a: Point, b: Point) -> Point:
    """Componentwise minimum."""
    check_same_dim(a, b)
    return tuple(map(min, a, b))


def join(a: Point, b: Point) -> Point:
    """Componentwise maximum."""
    check_same_dim(a, b)
    return tuple(map(max, a, b))


def leq(a: Point, b: Point) -> bool:
    """a <= b in the componentwise order."""
    check_same_dim(a, b)
    return all(x <= y for x, y in zip(a, b))


def partial_cmp(a: Point, b: Point) -> Cmp:
    check_same_dim(a, b)
    if a == b:
        return Cmp.EQ
    down = all(x <= y for x, y in zip(a, b))
    up = all(x >= y for x, y in zip(a, b))
    if down:
        return Cmp.LT
    if up:
        return Cmp.GT
    return Cmp.INCOMPARABLE


def vadd(a: Point, b: Point) -> Point:
    check_same_dim(a, b)
    return tuple(map(add, a, b))


def vsub(a: Point, b: Point) -> Point:
    check_same_dim(a, b)
    return tuple(map(sub, a, b))


def zero(r: int) -> Point:
    return (0,) * r


def ones(r: int) -> Point:
    return (1,) * r


def normalize_index_set(r: int, js: Iterable[int]) -> tuple[int, ...]:
    """Sorted tuple of distinct 1-based indices; must be nonempty and in 1..r."""
    out = tuple(sorted(set(js)))
    if not out:
        raise InvalidIndexSet("index set must be nonempty")
    if out[0] < 1 or out[-1] > r:
        raise InvalidIndexSet(f"indices {out} out of range 1..{r}")
    return out


def unit_vector(r: int, js: Iterable[int]) -> Point:
    """Coordinate i is 1 for i in js (1-based), else 0.  js may be empty."""
    out = [0] * r
    for j in set(js):
        if j < 1 or j > r:
            raise InvalidIndexSet(f"index {j} out of range 1..{r}")
        out[j - 1] = 1
    return tuple(out)


def project(a: Point, js: Iterable[int]) -> Point:
    """Coordinates of a at the 1-based indices js, ascending."""
    sel = normalize_index_set(len(a), js)
    return tuple(a[j - 1] for j in sel)


@dataclass(frozen=True)
class Box:
    """Closed integer box [lo, hi].  Empty when lo exceeds hi somewhere."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        check_same_dim(self.lo, self.hi)

    @property
    def r(self) -> int:
        return len(self.lo)

    @property
    def is_empty(self) -> bool:
        return any(l > h for l, h in zip(self.lo, self.hi))

    def __len__(self) -> int:
        n = 1
        for l, h in zip(self.lo, self.hi):
            if l > h:
                return 0
            n *= h - l + 1
        return n

    def __contains__(self, p: Point) -> bool:
        check_same_dim(self.lo, p)
        return all(l <= x <= h for l, x, h in zip(self.lo, p, self.hi))

    def __iter__(self) -> Iterator[Point]:
        if self.is_empty:
            return iter(())
        return itertools.product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))


def box_points(lo: Point, hi: Point) -> Iterator[Point]:
    """Lexicographic iteration over [lo, hi]; empty when lo exceeds hi, as
    a reversed range is.  The dimensions are checked when it is called."""
    check_same_dim(lo, hi)
    return itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)])
