"""Finite representation of a good semigroup ideal E of Z^r.

A good semigroup ideal is determined by its minimum m, its conductor c (the
least point with c + N^r contained in E), and the finite set of *small
elements* E intersected with [m, c].  Membership anywhere follows the rule

    alpha in E  <=>  meet(alpha, c) in small.

Meet-closure forces the forward direction; the converse is an axiom of the
representation and is cross-checked against the brute-force oracle on every
fixture.  Everything here is immutable and pure.

Membership, and with it every open or closed fiber, is constant on *clamp
classes*: clamping each coordinate into [m_k - 1, c_k] changes nothing.  So
an ideal is one bit mask over the grid [m - e, c] (:attr:`SmallRep.grid`),
laid out with the last axis fastest, which makes bit order lexicographic
order.  The fiber tables (a mask per index set, closed and open) and the
(p, q) layers (a mask per fiber size) live on that grid too.  ``validate``
decides E1 and E2 for all pairs of small elements from a few ANDs of table
entries when the grid is no larger than the number of pairs.  Box questions
read masks: ``members`` lists the set bits of E's window over a box
(``_window``, which cuts a table entry or layer the same way), ``equals``
and ``is_subset`` compare windows, the sum sweeps shift them, and the
quotient behind ``duality.cd_difference`` shifts one window per small
element of the divisor (for the top class ANDed over its box), so no box is
walked point by point.  ``_least_conductor`` reads a point set's least
conductor off the runs down the axes from its box top and checks the
membership rule against the set in one mask comparison.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch
from .lattice import (
    Box,
    Point,
    box_points,
    check_same_dim,
    join,
    leq,
    meet,
    ones,
    vadd,
    vsub,
)
from .report import CheckReport, pt


class Grid(NamedTuple):
    """The clamp-class grid [lo, c] of an ideal, lo = m - e, as one bit mask.

    Axis k has dims[k] = c_k - m_k + 2 values; a point t of the grid (offset
    from lo) has bit sum(t_k * strides[k]), the last axis fastest.  Row
    m_k - 1 of each axis holds no member.
    """

    lo: Point
    dims: tuple[int, ...]
    strides: tuple[int, ...]
    mask: int


@dataclass(frozen=True)
class SmallRep:
    """Canonical finite data of a good semigroup ideal.

    Invariants (enforced by :func:`validate`, not by construction): m and c
    are small elements, every small element lies in [m, c], small is closed
    under meet, the exchange axiom E2 holds, and c is the least conductor.

    The membership grid, the fiber tables and the layers are built on first
    use and then kept on the instance for as long as the ideal lives.  They
    are pure functions of the four fields, so they take no part in equality
    or hashing.
    """

    r: int
    m: Point
    c: Point
    small: frozenset[Point]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.m) != self.r or len(self.c) != self.r:
            raise DimensionMismatch("min/conductor dimension does not match r")
        if not self.small:
            raise ValueError("small element set must be nonempty")
        for p in self.small:
            if len(p) != self.r:
                raise DimensionMismatch(f"small element {p} has wrong dimension")

    def contains(self, alpha: Point) -> bool:
        check_same_dim(alpha, self.c)
        return tuple(map(min, alpha, self.c)) in self.small

    def __contains__(self, alpha: Point) -> bool:
        return self.contains(alpha)

    @cached_property
    def grid(self) -> Grid:
        """The small elements as a mask over the grid [m - e, c].

        Small elements outside [m, c], which only a rep failing
        :func:`validate` has, are left out.
        """
        lo = vsub(self.m, ones(self.r))
        dims = tuple(c - l + 1 for l, c in zip(lo, self.c))
        strides = _strides(dims)
        bits = bytearray((math.prod(dims) + 7) // 8)
        for p in self.small:
            if all(l < x <= c for l, x, c in zip(lo, p, self.c)):
                i = sum((x - l) * s for x, l, s in zip(p, lo, strides))
                bits[i >> 3] |= 1 << (i & 7)
        return Grid(lo, dims, strides, int.from_bytes(bits, "little"))

    @cached_property
    def fiber_table(self) -> tuple[int, ...]:
        """Occupied closed fibers as grid masks, indexed by a bitmask J of
        0-based axes.

        Bit t of entry J is set when the closed J-fiber (members equal to the
        point on J and at least it elsewhere) of grid point t is nonempty
        (:func:`_closed_fibers`).
        """
        g = self.grid
        return tuple(_closed_fibers(
            g.mask, [_doubling_steps(g.dims, g.strides, k) for k in range(self.r)]))

    @cached_property
    def open_table(self) -> tuple[int, ...]:
        """Occupied open fibers as grid masks, indexed like
        :attr:`fiber_table`.  The open J-fiber of t is the closed one at
        t + 1 on the free axes, clamped, so each closed entry is stepped
        :meth:`up` once along every free axis."""
        table = list(self.fiber_table)
        for J in range(1, len(table)):
            for k in range(self.r):
                if not J >> k & 1:
                    table[J] = self.up(table[J], k)
        return tuple(table)

    @cached_property
    def _below_top(self) -> tuple[int, ...]:
        """Per axis k, the grid points below the top row of axis k."""
        dims = self.grid.dims
        return tuple(_box_mask(dims, dims[:k] + (dims[k] - 1,) + dims[k + 1:])
                     for k in range(self.r))

    def up(self, mask: int, k: int) -> int:
        """A grid mask stepped one row up along axis k: bit t reads the mask
        at t + e_k, clamped into the grid as :meth:`index` clamps, so the top
        row stays put."""
        keep = self._below_top[k]
        return mask >> self.grid.strides[k] & keep | mask & ~keep

    @cached_property
    def fiber_layers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (p, q) layers (P, Q), grid masks for k = 0..r + 1: bit t of
        P[k] is set when some open fiber of grid point t with at most k
        indices is occupied (p < k), of Q[k] when all with at least k are
        (q <= k).  Each :attr:`open_table` entry is ORed into P[|J|] and
        ANDed into Q[|J|]; a prefix OR and a suffix AND finish, and
        P[r + 1] = Q[r + 1] is the whole grid."""
        r = self.r
        whole = (1 << math.prod(self.grid.dims)) - 1
        P, Q = [0] * (r + 1) + [whole], [whole] * (r + 2)
        for J in range(1, 1 << r):
            entry = self.open_table[J]
            n = J.bit_count()
            P[n] |= entry
            Q[n] &= entry
        for k in range(1, r + 1):
            P[k] |= P[k - 1]
        for k in range(r, -1, -1):
            Q[k] &= Q[k + 1]
        return tuple(P), tuple(Q)

    def index(self, alpha: Point) -> int:
        """The grid bit of alpha clamped into [m - e, c], where every table
        entry and layer reads alpha.  The clamp is exact: membership is
        constant beyond c in each coordinate and empty below m, so on a
        pinned axis the fiber is empty below m_j and unchanged above c_j, and
        on a free axis any value below m_k is as good as m_k - 1 and any
        above c_k as good as c_k.  alpha must have dimension r; the public
        fiber functions check it."""
        g = self.grid
        i = 0
        for a, lo, hi, s in zip(alpha, g.lo, self.c, g.strides):
            i += ((hi if a > hi else a if a > lo else lo) - lo) * s
        return i

    def fiber_occupied(self, alpha: Point, J: int, closed: bool = False) -> bool:
        """Whether the J-fiber of alpha (J a bitmask of 0-based axes) meets E:
        one bit of :attr:`fiber_table`.  The open fiber is the closed fiber
        at alpha + 1 on the free axes."""
        if not closed:
            alpha = tuple(a if J >> k & 1 else a + 1 for k, a in enumerate(alpha))
        return self.fiber_table[J] >> self.index(alpha) & 1 == 1


def _strides(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Bit strides of a box layout, the last axis fastest."""
    out = [1] * len(dims)
    for k in range(len(dims) - 1, 0, -1):
        out[k - 1] = out[k] * dims[k]
    return tuple(out)


def _repeat(block: int, width: int, n: int) -> int:
    """n copies of a block of width bits, side by side from bit 0, built by
    doubling shifts (a repunit by big-integer division is quadratic)."""
    out, size = 0, 0
    while n > 0:
        if n & 1:
            out |= block << size
            size += width
        n >>= 1
        if n:
            block |= block << width
            width *= 2
    return out


def _box_mask(dims: tuple[int, ...], sub: tuple[int, ...]) -> int:
    """The points t with t_k < sub_k for every k, in the layout of dims."""
    mask, width = 1, 1
    for d, n in zip(reversed(dims), reversed(sub)):
        mask = _repeat(mask, width, n)
        width *= d
    return mask


def _closed_fibers(mask: int, steps: Sequence[Iterable[tuple[int, int]]]) -> list[int]:
    """The closed fibers of a point set, one mask per bitmask J of axes:
    bit t of entry J is set when some point of the mask equals t on the
    axes of J and is at least t on the others.

    Entry 0 is 0 and the full entry is the mask.  Every other entry
    suffix-ORs the entry with its lowest free axis k pinned along k, so a
    bit takes the OR of the bits at or above it on its k-line, by
    shift-and-OR with the doubling steps ``steps[k]`` of
    :func:`_doubling_steps`.  The entries of k depend only on entries of
    higher axes, so the axes run from the last down, and each step of k is
    taken once for all entries of k.
    """
    r = len(steps)
    full = (1 << r) - 1
    T = [0] * full + [mask]
    for k in range(r - 1, -1, -1):
        group = range((1 << k) - 1 or 2, full, 2 << k)  # J: axes below k pinned, k free
        for J in group:
            T[J] = T[J | 1 << k]
        for shift, keep in steps[k]:
            for J in group:
                T[J] |= T[J] >> shift & keep
    return T


def _doubling_steps(dims: tuple[int, ...], strides: tuple[int, ...],
                    k: int) -> Iterator[tuple[int, int]]:
    """The steps s = 1, 2, 4, ... < d_k of a suffix OR along axis k of the
    layout of dims, as (shift, keep) pairs built when taken: before a step
    a bit holds the OR of s bits, after it of 2s, and the keep mask (the
    points with t_k < d_k - s, a run of d_k - s rows repeated once per
    k-line) stops a shifted bit from crossing into the next k-line."""
    d, stride = dims[k], strides[k]
    lines = math.prod(dims) // (d * stride)
    for i in range((d - 1).bit_length()):
        s = 1 << i
        yield s * stride, _repeat((1 << (d - s) * stride) - 1, d * stride, lines)


def _window(E: SmallRep, lo: Point, hi: Point, mask: int | None = None) -> int:
    """A grid mask of E over [lo, hi], in that box's layout: a fiber-table
    entry or a layer, membership (the grid mask) when None.

    Bit t is the mask's bit at :meth:`SmallRep.index` of the box point t,
    each coordinate clamped into [m - e, c], so the box may reach below m
    and beyond c anywhere.  Rows of each axis are cut out by halving and the
    windows of distinct rows joined by halving, so a window costs its bits
    times the log of its rows; the clamped-off rows repeat the first or the
    last grid row.
    """
    if mask is None:
        mask = E.grid.mask
    dims = tuple(h - l + 1 for l, h in zip(lo, hi))
    if min(dims) <= 0:
        return 0
    g = E.grid
    strides = _strides(dims)
    last = E.r - 1

    def axis(k: int, slab: int) -> int:
        # the window of axes k.. from the grid bits of axes k..
        l, h, origin, c, width = lo[k], hi[k], g.lo[k], E.c[k], strides[k]
        first, top = (min(max(x, origin), c) - origin for x in (l, h))
        n = top - first + 1
        step = g.strides[k]
        out = rows(k, slab >> first * step & (1 << n * step) - 1, n)
        below = min(h, origin) - l  # box rows past the first, clamped to row 0
        above = h - max(l, c)       # box rows past the first, clamped to row c
        if above > 0:
            out |= _repeat(out >> (n - 1) * width, width, above) << n * width
        if below > 0:
            out = _repeat(out & (1 << width) - 1, width, below) | out << below * width
        return out

    def rows(k: int, chunk: int, n: int) -> int:
        # the windows of n grid rows of axis k, side by side
        if k == last or not chunk:
            return chunk  # a last-axis row is one bit, its own window
        if n == 1:
            return axis(k + 1, chunk)
        half = n // 2
        cut = half * g.strides[k]
        return (rows(k, chunk & (1 << cut) - 1, half)
                | rows(k, chunk >> cut, n - half) << half * strides[k])

    return axis(0, mask)


def _layout(lo: Point, hi: Point) -> tuple[int, tuple[int, ...]]:
    """The mask of every point of [lo, hi] and the bit strides of its layout."""
    dims = tuple(h - l + 1 for l, h in zip(lo, hi))
    return (1 << math.prod(dims)) - 1, _strides(dims)


def _reflected(E: SmallRep, f: Point, lo: Point, hi: Point, mask: int) -> int:
    """A grid mask of E at f - beta for beta over [lo, hi], indexed like
    [lo, hi]: the window over [f - hi, f - lo] read backwards, since its bit
    s is the point f - hi + s = f - beta for the beta of bit n - 1 - s in
    [lo, hi]."""
    n = math.prod(h - l + 1 for l, h in zip(lo, hi))
    W = _window(E, vsub(f, hi), vsub(f, lo), mask)
    return _reversed_bits(W, n) if W else 0


# each byte with its bits in reverse order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_bits(W: int, n: int) -> int:
    """W < 2^n with its n low bits in reverse order: the bytes of W are
    reversed in order and each bit by bit through a table, which reverses
    8 * nb bits, and the 8 * nb - n padding bits are shifted off."""
    nb = (n + 7) // 8
    return int.from_bytes(W.to_bytes(nb, "little").translate(_REVERSED_BYTES),
                          "big") >> 8 * nb - n


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a mask, ascending."""
    digits = format(mask, "b")[::-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _point(i: int, lo: Point, strides: tuple[int, ...]) -> Point:
    """The point of bit i in the layout with these strides, based at lo."""
    out = []
    for l, s in zip(lo, strides):
        q, i = divmod(i, s)
        out.append(l + q)
    return tuple(out)


def contains(E: SmallRep, alpha: Point) -> bool:
    """Membership via the meet-with-conductor rule."""
    return E.contains(alpha)


def min_elem(E: SmallRep) -> Point:
    return E.m


def conductor(E: SmallRep) -> Point:
    return E.c


def frobenius(E: SmallRep) -> Point:
    """conductor minus (1, ..., 1)."""
    return vsub(E.c, ones(E.r))


def translate(E: SmallRep, delta: Point) -> SmallRep:
    """The shifted ideal delta + E."""
    check_same_dim(delta, E.m)
    return SmallRep(
        E.r,
        vadd(E.m, delta),
        vadd(E.c, delta),
        frozenset(vadd(p, delta) for p in E.small),
    )


def members(E: SmallRep, lo: Point, hi: Point) -> list[Point]:
    """Members of E inside [lo, hi], in lexicographic order (window bit order)."""
    check_same_dim(lo, E.c)
    check_same_dim(hi, E.c)
    strides = _strides(tuple(h - l + 1 for l, h in zip(lo, hi)))
    return [_point(i, lo, strides) for i in _bits(_window(E, lo, hi))]


def _decision_box(E1: SmallRep, E2: SmallRep) -> tuple[Point, Point]:
    return meet(E1.m, E2.m), vadd(join(E1.c, E2.c), ones(E1.r))


def _require_same_r(E1: SmallRep, E2: SmallRep) -> None:
    if E1.r != E2.r:
        raise DimensionMismatch("ideals of different dimension")


def equals(E1: SmallRep, E2: SmallRep) -> bool:
    """Equality of the represented (infinite) sets.

    Decided on [meet(m1,m2), join(c1,c2) + e]: outside that box membership of
    both sides is forced by their meet-with-conductor rules.
    """
    _require_same_r(E1, E2)
    box = _decision_box(E1, E2)
    return _window(E1, *box) == _window(E2, *box)


def is_subset(E1: SmallRep, E2: SmallRep) -> bool:
    """Inclusion of represented sets, decided on the shared box."""
    _require_same_r(E1, E2)
    box = _decision_box(E1, E2)
    return _window(E1, *box) & ~_window(E2, *box) == 0


def _least_conductor(P: SmallRep) -> SmallRep | str:
    """P normalised to its least conductor, or why its point set is not the
    window of a good ideal.

    P holds the set on [m, c], m its minimum and c the box top, which the
    set treats as conducting; P need not be valid.  The candidates are the
    h with [h, c] in the set, and their meet g must be one of them.  With
    small the points below g, the rule ``q in E <=> meet(q, g) in small``
    must agree with the set on P's grid [m - e, c].
    """
    c, small = P.c, P.small
    if c not in small:
        return "no conducting candidate"
    # A candidate h has [h_k, c_k] on the k-line through c in the set, so h
    # is at least g, the ends of the runs down from c, which are candidates.
    g = list(c)
    for k in range(P.r):
        while c[:k] + (g[k] - 1,) + c[k + 1:] in small:
            g[k] -= 1
    g = tuple(g)
    if not all(q in small for q in box_points(g, c)):
        return "conducting candidates are not meet-closed"
    # With g == c, meet(q, c) = q on the box, so the rule reads the set
    # unchanged and cannot disagree with it.
    if g == c:
        return P
    rep = SmallRep(P.r, P.m, g, frozenset(p for p in small if leq(p, g)))
    # bit order is lexicographic, so the lowest wrong bit is the least point
    wrong = P.grid.mask ^ _window(rep, P.grid.lo, c)
    if wrong:
        at = _point((wrong & -wrong).bit_length() - 1, P.grid.lo, P.grid.strides)
        return f"membership rule disagrees with region at {at}"
    return rep


@dataclass(frozen=True)
class RegionSet:
    """A raw bounded point set with its bounding box.

    Used for computed duals before goodness promotion; ``promoted`` holds the
    SmallRep when promotion succeeded, otherwise ``promotion_failure`` says
    why it did not.
    """

    r: int
    box: Box
    points: frozenset[Point]
    promoted: SmallRep | None = None
    promotion_failure: str | None = None

    def __post_init__(self) -> None:
        for p in self.points:
            if p not in self.box:
                raise ValueError(f"region point {p} outside box")


def _e2_fiber(a: Point, b: Point, i: int) -> tuple[Point, int]:
    """The point and axes of the closed fiber holding the E2 witnesses for a
    pair (a, b) that agrees at 0-based i: meet(a, b) + e_i, pinned where a
    and b differ."""
    x = [*map(min, a, b)]
    x[i] += 1
    J = 0
    for k, (u, v) in enumerate(zip(a, b)):
        if u != v:
            J |= 1 << k
    return tuple(x), J


def _in_fiber(points: list[Point], x: Point, J: int) -> bool:
    """Whether one of the sorted points lies in the closed J-fiber of x:
    equal to x on the axes of J and at least x elsewhere.  Such a point is
    at least x, so the search starts where x would be inserted.

    Over E's sorted small elements and x clamped to min(x, c), this is
    whether E's closed J-fiber of x is occupied, as
    :meth:`SmallRep.fiber_occupied` reads it: a member y of the fiber clamps
    to the small element min(y, c), which lies in the fiber of min(x, c),
    and a small element g there lifts to the member of x's fiber that
    equals x on J and max(g, x) elsewhere, whose clamp is g."""
    for i in range(bisect_left(points, x), len(points)):
        if all(u == v if J >> k & 1 else u >= v
               for k, (u, v) in enumerate(zip(points[i], x))):
            return True
    return False


def _pairs_good(E: SmallRep) -> bool:
    """Whether every pair of small elements passes E1 and E2, read off the
    fiber table T and the open table O.  E must be structurally valid.

    E1: a pair meets at x exactly when, for J the axes where a equals x, a
    lies in the closed J-fiber of x and b in the closed (full ^ J)-fiber,
    so T[J] & T[full ^ J] must lie inside the grid mask.  E2: a pair that
    agrees on K (0 < K < full) and meets at x, with Ja the axes where
    a = x < b and Jb the rest of J = full ^ K, has a in the open
    (K | Ja)-fiber of x and b in the open (K | Jb)-fiber; its witness at
    i in K is the closed J-fiber of x + e_i, the entry T[J] stepped
    :meth:`SmallRep.up` along i.
    """
    T, O = E.fiber_table, E.open_table
    full = (1 << E.r) - 1
    outside = ~E.grid.mask
    for J in range(1, full, 2):  # each split once, axis 0 in J
        if T[J] & T[full ^ J] & outside:
            return False
    for K in range(1, full):
        J = full ^ K
        # each unordered split once: Jb runs over the subsets of J without
        # its lowest axis, and Ja is the rest of J
        rest = J & J - 1
        Jb, pairs = rest, 0
        while True:
            pairs |= O[K | J ^ Jb] & O[K | Jb]
            if not Jb:
                break
            Jb = Jb - 1 & rest
        if pairs:
            for i in range(E.r):
                if K >> i & 1 and pairs & ~E.up(T[J], i):
                    return False
    return True


def search_member(E: SmallRep, ranges: list[tuple[int, int]]) -> Point | None:
    """First member of E (lexicographically) in the product of closed ranges."""
    found = members(E, tuple(a for a, _ in ranges), tuple(b for _, b in ranges))
    return found[0] if found else None


def _members_in(E: SmallRep, top: Point, dims: tuple[int, ...]) -> int:
    """E's members over [m, top] in the layout of dims, based at m."""
    e = ones(E.r)
    return (_window(E, E.m, vadd(E.m, vsub(dims, e)))
            & _box_mask(dims, vadd(vsub(top, E.m), e)))


def _sum_failure(outer: SmallRep, inner: SmallRep,
                 target: SmallRep) -> tuple[Point, Point, Point] | None:
    """The first o + i outside target, for o over the members of outer in
    [m, c + e] and then i over those of inner, both in lexicographic order,
    as (o, i, o + i); None when every sum lands in target.

    One window W of target covers all the sums, with o + i at bit
    offset(o - m_o) + offset(i - m_i).  For each o, the bits of the inner
    members P that W >> offset(o - m_o) lacks are the failing i, and the
    lowest one is the first.
    """
    e = ones(target.r)
    lo = vadd(outer.m, inner.m)
    hi = vadd(vadd(outer.c, inner.c), vadd(e, e))
    W = _window(target, lo, hi)
    dims = tuple(h - l + 1 for l, h in zip(lo, hi))
    strides = _strides(dims)
    P = _members_in(inner, vadd(inner.c, e), dims)
    for off in _bits(_members_in(outer, vadd(outer.c, e), dims)):
        bad = P & ~(W >> off)
        if bad:
            o = _point(off, outer.m, strides)
            i = _point((bad & -bad).bit_length() - 1, inner.m, strides)
            return o, i, vadd(o, i)
    return None


def _and_run(mask: int, stride: int, n: int) -> int:
    """The AND of mask >> t * stride over t in [0, n), by doubling shifts:
    before a step of s a bit holds the AND of width shifts, after it of
    width + s."""
    width = 1
    while width < n:
        step = min(width, n - width)
        mask &= mask >> step * stride
        width += step
    return mask


def _quotient(EJ: SmallRep, EI: SmallRep, lo: Point, hi: Point,
              cap: Point) -> set[Point]:
    """The beta of [lo, hi] with beta + alpha in EJ for every member alpha
    of EI in [m_I, cap], where beta + cap >= c_J + e.

    One window W of EJ covers every sum, with beta at bit offset(beta - lo),
    so W >> offset(alpha - m_I) reads beta + alpha there.  The answer is the
    AND of W >> offset(s - m_I) over the small elements s, with W ANDed over
    [0, cap - c_I] by doubling shifts for s = c_I, cut to the box of betas.
    That puts beta + c_I + N^r in EJ, as EJ clamps past beta + cap.  The
    rest of the clamp class of s steps along the axes i with s_i = c_i, and
    x = beta + s in EJ takes each step: x and beta + c_I + e - e_i agree at
    i and x is lower elsewhere, so E2 puts some x + t e_i, t >= 1, in EJ,
    and its meet with beta + c_I + e is x + e_i; repeat from there.
    """
    e = ones(EJ.r)
    wlo, whi = vadd(lo, EI.m), vadd(hi, cap)
    dims = tuple(h - l + 1 for l, h in zip(wlo, whi))
    strides = _strides(dims)
    W = _window(EJ, wlo, whi)
    acc = _box_mask(dims, vadd(vsub(hi, lo), e))
    for s in sorted(EI.small):
        if s == EI.c:  # the last small element, as all lie below c_I
            for k, st in enumerate(strides):
                W = _and_run(W, st, cap[k] - EI.c[k] + 1)
        acc &= W >> sum((x - m) * st for x, m, st in zip(s, EI.m, strides))
        if not acc:
            break
    return {_point(i, lo, strides) for i in _bits(acc)}


def _compatibility_failure(E: SmallRep, S: SmallRep) -> dict | None:
    """The first violation of S + E <= E as report data, or None.

    E and S must have the same dimension.  S + E <= E forces c <= m + c(S);
    checking it first makes the sweep of s over S's members in [m_S, c_S + e]
    against p over E's members in [m, c + e] exhaustive.
    """
    bound = vadd(E.m, S.c)
    if not leq(E.c, bound):
        return {"reason": "conductor exceeds min + c(S)",
                "conductor": pt(E.c), "bound": pt(bound)}
    failure = _sum_failure(S, E, E)
    if failure is not None:
        s, p, q = failure
        return {"s": pt(s), "p": pt(p), "sum": pt(q)}
    return None


def validate(E: SmallRep, S: SmallRep | None = None, *, semigroup: bool = False) -> CheckReport:
    """Check the good-semigroup-ideal axioms on the finite box [m, c + e].

    The structural part comes first: m <= c, both are small elements, and
    every small element lies in [m, c], which holds exactly when the
    per-axis minima and maxima of the small elements are m and c, so it
    costs two passes over the coordinates; only when it fails are the small
    elements walked in sorted order to name the first one outside.
    Beyond the conductor, membership is monotone by construction of the rule,
    so the box quantifiers are exhaustive for the represented set.  E1 and E2
    pair the small elements alone, the clamps min(a, c) of the members a:
    clamping commutes with meet, a member pair has the E2 witness fiber of its
    clamped pair, and that pair lies below it, hence comes first in
    lexicographic order, so the first failing member pair is a small one
    (pairs whose clamps coincide, or that agree at a coordinate >= c_i, pass).
    When the grid [m - e, c] has at most n^2 points for n small elements,
    :func:`_pairs_good` decides both axioms for every pair on the fiber-table
    masks, and the pair loops run only to name the first failing pair; on a
    larger grid they run instead.  The pair loops build no grid: E1 is a set
    lookup, and an E2 witness is looked up among the sorted small elements
    (:func:`_in_fiber`), so a sparse ideal's grid stays unbuilt.  With
    S given,
    compatibility S + E <= E is checked over boxes; with ``semigroup``, 0 in
    E and E + E <= E are checked as well.  The first failing axiom is
    reported with its violating pair.
    """
    r = E.r
    universe = f"axiom box [{list(E.m)}, {list(vadd(E.c, ones(r)))}]"
    rep = CheckReport("validate", True, universe)

    def fail(axiom: str, **data) -> CheckReport:
        rep.passed = False
        rep.counterexamples.append({"axiom": axiom, **data})
        return rep

    # Structural part: reported as its own failure class, not an axiom.
    if not leq(E.m, E.c):
        return fail("structural", reason="min exceeds conductor",
                    min=pt(E.m), conductor=pt(E.c))
    if E.m not in E.small:
        return fail("structural", reason="min not among small elements", min=pt(E.m))
    if E.c not in E.small:
        return fail("structural", reason="conductor not among small elements",
                    conductor=pt(E.c))
    small = sorted(E.small)
    if tuple(map(min, zip(*small))) != E.m or tuple(map(max, zip(*small))) != E.c:
        for p in small:
            if not (leq(E.m, p) and leq(p, E.c)):
                return fail("structural", reason="small element outside [min, conductor]",
                            point=pt(p))

    # E1 and E2 on the masks when the grid has at most as many points as
    # there are pairs; the pair loops run otherwise, or to name the first
    # failing pair.
    n = len(small)
    volume = math.prod(c - m + 2 for m, c in zip(E.m, E.c))
    if volume > n * n or not _pairs_good(E):
        # E1: closure under componentwise minimum.
        for idx, a in enumerate(small):
            for b in small[idx + 1:]:
                g = tuple(map(min, a, b))
                if g not in E.small:
                    return fail("E1", pair=[pt(a), pt(b)], missing_meet=pt(g))

        # E2: exchange witness for every pair agreeing in some coordinate,
        # looked up among the small elements.
        for idx, a in enumerate(small):
            for b in small[idx + 1:]:
                for i in range(r):
                    if a[i] == b[i]:
                        x, J = _e2_fiber(a, b, i)
                        if not _in_fiber(small, meet(x, E.c), J):
                            return fail("E2", pair=[pt(a), pt(b)], coordinate=i + 1)

    # Conductor minimality: c - e_i must not conduct.  Every point above
    # c - e_i with coordinate i pinned to c_i - 1 meets down to c - e_i, so
    # membership of that single point decides it.
    for i in range(r):
        down = tuple(E.c[k] - 1 if k == i else E.c[k] for k in range(r))
        if E.contains(down):
            return fail("conductor", coordinate=i + 1, point=pt(down),
                        reason="conductor not minimal: c - e_i already conducts")

    if S is not None:
        if S.r != r:
            return fail("structural", reason="semigroup dimension mismatch")
        failure = _compatibility_failure(E, S)
        if failure is not None:
            return fail("compatibility", **failure)

    if semigroup:
        z = (0,) * r
        if not E.contains(z):
            return fail("semigroup", reason="0 not a member")
        # the first failing pair has b >= a: a failing (b, a) with b < a
        # would have come first
        failure = _sum_failure(E, E, E)
        if failure is not None:
            a, b, q = failure
            return fail("semigroup", pair=[pt(a), pt(b)], sum=pt(q))

    return rep
