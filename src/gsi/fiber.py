"""Fibers of points with respect to coordinate subsets, and maximal points.

For a nonempty J inside {1..r}, the open fiber of alpha holds the members
agreeing with alpha on J and strictly larger elsewhere; the closed fiber
relaxes strict to weak.  Emptiness is read from the ideal's fiber table
(:attr:`SmallRep.fiber_table`), one lookup per J after clamping alpha into
[m, c].  Only :func:`fiber_witness` still searches a box, and only to name a
witness point once the table says one exists.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .ideal import SmallRep, search_member
from .lattice import Point, box_points, check_same_dim, normalize_index_set, ones, vsub


def fiber_witness(E: SmallRep, alpha: Point, J: Iterable[int],
                  closed: bool = False) -> Point | None:
    """Some member of the fiber F_J(E, alpha) (closed variant on request),
    or None when the fiber is empty.

    The table decides emptiness.  A witness is then searched with the
    coordinates in J pinned to alpha and each free coordinate k over
    (alpha_k, max(c_k, alpha_k + 1)] when open, [alpha_k, max(c_k, alpha_k)]
    when closed: meeting a remote witness with a member above the conductor
    pulls it into that box without leaving the fiber.
    """
    check_same_dim(alpha, E.c)
    js = normalize_index_set(E.r, J)
    if not E.fiber_occupied(alpha, sum(1 << (j - 1) for j in js), closed):
        return None
    ranges = []
    for k in range(E.r):
        if k + 1 in js:
            ranges.append((alpha[k], alpha[k]))
        else:
            low = alpha[k] if closed else alpha[k] + 1
            ranges.append((low, max(E.c[k], low)))
    return search_member(E, ranges)


def fiber_empty(E: SmallRep, alpha: Point) -> bool:
    """Emptiness of F(E, alpha), the union of the singleton open fibers."""
    check_same_dim(alpha, E.c)
    return not any(E.fiber_occupied(alpha, 1 << k) for k in range(E.r))


def is_maximal(E: SmallRep, alpha: Point) -> bool:
    return E.contains(alpha) and fiber_empty(E, alpha)


def _fiber_sizes(E: SmallRep, alpha: Point) -> tuple[int, int]:
    """The least size of an occupied open fiber of alpha (r + 1 if none) and
    the largest size of an empty one (0 if none), over all nonempty J."""
    check_same_dim(alpha, E.c)
    least_occupied, most_empty = E.r + 1, 0
    occupancy = E.fiber_occupancy(alpha)
    for J in range(1, 1 << E.r):
        n = J.bit_count()
        if occupancy[J]:
            least_occupied = min(least_occupied, n)
        else:
            most_empty = max(most_empty, n)
    return least_occupied, most_empty


def p_value(E: SmallRep, alpha: Point) -> int:
    """Largest n such that every fiber with at most n indices is empty.

    Returns 0 when some singleton fiber is nonempty, r when every fiber is
    empty (which forces alpha outside E).
    """
    return _fiber_sizes(E, alpha)[0] - 1


def q_value(E: SmallRep, alpha: Point) -> int:
    """Least n such that every fiber with at least n indices is nonempty.

    Returns r + 1 exactly when alpha is not a member (the full fiber is
    empty); always exceeds p_value.
    """
    return _fiber_sizes(E, alpha)[1] + 1


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

    Maximal points live in [m, c - e]: beyond that region some coordinate
    reaches the conductor and the matching singleton fiber is nonempty.
    """
    out = []
    hi = vsub(E.c, ones(E.r))
    for alpha in box_points(E.m, hi):
        if E.contains(alpha) and fiber_empty(E, alpha):
            p = p_value(E, alpha)
            q = q_value(E, alpha)
            out.append(MaximalInfo(alpha, p, q, _classify(E.r, p, q)))
    return out
