"""Fibers of points with respect to coordinate subsets, and maximal points.

For a nonempty J inside {1..r}, the open fiber of alpha holds the members
agreeing with alpha on J and strictly larger elsewhere; the closed fiber
relaxes strict to weak.  Each answer is one bit, at alpha clamped into
[m - e, c] (:meth:`SmallRep.index`), of the closed fiber table for a single
fiber (an open one reads it at alpha + e on the free axes,
:meth:`SmallRep.fiber_occupied`) and of the (p, q) layers
(:attr:`Tables.fiber_layers`, the holder :attr:`SmallRep.tables`) for p, q
and maximal points.  Emptiness reads the layer P[1] alone, off the grid
(:attr:`Tables.p1`), with no table built.
Once the table says a fiber is occupied, :func:`fiber_witness` names its
first member in a capped box it builds itself (the pinned axes at alpha,
each free axis from alpha or alpha + 1 up to the conductor); the maximal
points are the grid mask's set bits off the layer P[1].
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .ideal import SmallRep, _bits, search_member
from .lattice import Point, check_same_dim, normalize_index_set


def fiber_witness(E: SmallRep, alpha: Point, J: Iterable[int],
                  closed: bool = False) -> Point | None:
    """Some member of the fiber F_J(E, alpha) (closed variant on request),
    or None when the fiber is empty.

    The table decides emptiness.  A witness is then searched in a capped
    box: the coordinates in J pinned to alpha and each free coordinate k
    over [low, max(c_k, low)], low = alpha_k + 1 when open and alpha_k when
    closed.  The cap is lossless: meeting a remote member of the fiber with
    a member above the conductor pulls it into the box without leaving the
    fiber.
    """
    check_same_dim(alpha, E.c)
    axes = sum(1 << (j - 1) for j in normalize_index_set(E.r, J))
    if not E.fiber_occupied(alpha, axes, closed):
        return None
    ranges = []
    for k, (a, ck) in enumerate(zip(alpha, E.c)):
        if axes >> k & 1:
            ranges.append((a, a))
        else:
            low = a if closed else a + 1
            ranges.append((low, max(ck, low)))
    return search_member(E, ranges)


def fiber_empty(E: SmallRep, alpha: Point) -> bool:
    """Emptiness of F(E, alpha), the union of the singleton open fibers:
    one bit of the layer P[1], read off the grid (:attr:`Tables.p1`)."""
    check_same_dim(alpha, E.c)
    return not E.tables.p1 >> E.index(alpha) & 1


def is_maximal(E: SmallRep, alpha: Point) -> bool:
    return E.contains(alpha) and fiber_empty(E, alpha)


def _pq(E: SmallRep, i: int) -> tuple[int, int]:
    """(p, q) at grid bit i: the least k with bit i of P[k], minus 1, and
    the least k >= 1 with bit i of Q[k]."""
    P, Q = E.tables.fiber_layers
    return (next(k for k in range(E.r + 2) if P[k] >> i & 1) - 1,
            next(k for k in range(1, E.r + 2) if Q[k] >> i & 1))


def p_value(E: SmallRep, alpha: Point) -> int:
    """Largest n such that every fiber with at most n indices is empty.

    Returns 0 when some singleton fiber is nonempty, r when every fiber is
    empty (which forces alpha outside E).
    """
    check_same_dim(alpha, E.c)
    return _pq(E, E.index(alpha))[0]


def q_value(E: SmallRep, alpha: Point) -> int:
    """Least n such that every fiber with at least n indices is nonempty.

    Returns r + 1 exactly when alpha is not a member (the full fiber is
    empty); always exceeds p_value.
    """
    check_same_dim(alpha, E.c)
    return _pq(E, E.index(alpha))[1]


class MaximalKind(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"
    TYPE_PQ = "type_pq"
    BOTH = "both"


@dataclass(frozen=True)
class MaximalInfo:
    point: Point
    p: int
    q: int
    kind: MaximalKind


def _classify(r: int, p: int, q: int) -> MaximalKind:
    absolute = p == r - 1
    relative = p == 1 and q == 2
    if absolute and relative:
        return MaximalKind.BOTH
    if absolute:
        return MaximalKind.ABSOLUTE
    if relative:
        return MaximalKind.RELATIVE
    return MaximalKind.TYPE_PQ


def maximals(E: SmallRep) -> list[MaximalInfo]:
    """All maximal points with their (p, q) types, in lexicographic order.

    They are the set bits of E's grid mask off the layer P[1], in bit
    order.  Each is a point of [m, c - e]: a member with alpha_k >= c_k has
    alpha + N(e - e_k), which meets down to c, in its open {k}-fiber.
    """
    out = []
    for i in _bits(E.grid & ~E.tables.fiber_layers[0][1]):
        p, q = _pq(E, i)
        out.append(MaximalInfo(E.layout.point(i), p, q, _classify(E.r, p, q)))
    return out
