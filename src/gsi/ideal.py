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
an ideal is one bit mask (:attr:`SmallRep.grid`) over the grid [m - e, c],
whose geometry is :attr:`SmallRep.layout`.  A :class:`Layout` is the one
bit layout of every box mask here: the last axis fastest, which makes bit
order lexicographic order, so a mask's lowest set bit, read as a point by
:meth:`Layout.lowest`, is its least point.  The fiber tables (a mask per
index set, closed and open) and the (p, q) layers (a mask per fiber size)
live on that grid too, and so does the layer P[1] alone
(:attr:`Tables.p1`), read off the grid with no table for the duality
layer.  They depend on the grid's dims and mask only, so they live in one
holder per shape, :class:`Tables`, and every reader reads them there:
:attr:`SmallRep.tables` looks its shape up in a weak map of this module,
so every live rep of one shape, translates and the certificates of
computed duals among them, reads one holder, and the holder goes with the
last rep that reads it.  Only this module decides which reps share one.
The axiom kernel ``_axiom_failure`` returns the first failing axiom's
record, or None, and builds no report: every
promotion and constructor certifies through it, and ``validate`` only
wraps its record in a report.  It decides E1 and E2 for all pairs of
small elements from a few ANDs of table entries when the grid is no larger
than the number of pairs (``_pairs_good``), and passes a rep whose one
small element is m = c with no work of its own.  Every per-axis row mask of a
layout comes from its one row family, :class:`Rows`: the rows below a
row, the suffix-OR steps behind the fiber tables, the points on and at
or above each row, and the moves built of them (a read-up, an up-move and
a fiber cut).  A rep's holder keeps its grid's family
(:attr:`Tables.rows`).
The mask algebra of the two axioms has one home: ``_fibers`` builds the
closed and the open fiber table of a mask by one recurrence, and
``_meets`` (E1's meets) and ``_failing_demands`` (E2's failing demands)
read them.  The kernel reads them on an ideal's grid and ``constructors.random_good`` on its
draw box [m, c].  Box questions read
masks: ``members`` lists the set bits of E's window over a box
(``_window``, which cuts a table entry or layer the same way, in r passes
of whole-integer shifts and masks, one per axis), ``search_member`` reads
its lowest set bit, ``equals`` and ``is_subset`` compare windows, or the
grids of two ideals on one layout, the sum sweeps AND a window over the
clamp classes of one side (``_class_and``), and the quotient behind
``duality.cd_difference`` shifts one window per small element of the
divisor but its conductor, so no box is walked point by point (a
principal divisor's one-point box is returned as it is).
``_least_conductor`` reads a point set's least conductor off the runs
down the axes from its box top and checks the membership rule against the
set by counting its clamp classes, with no grid; when the two disagree it
keeps the set as given.  It normalises
parsed and drawn data only (``constructors.from_small_elements``): computed
duals and canonical ideals are promoted at conductors their docstrings
prove least (``duality``).
"""
from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_
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


class Layout(NamedTuple):
    """The bit layout of the box [lo, lo + dims - e]: the point lo + t has
    bit sum(t_k * strides[k]), the last axis fastest, so bit order is
    lexicographic order.  Every mask over a box is read through one."""

    lo: Point
    dims: tuple[int, ...]
    strides: tuple[int, ...]

    @classmethod
    def of(cls, lo: Point, hi: Point) -> Layout:
        """The layout of [lo, hi]; a reversed box has a dim of 0 and no bits."""
        dims = tuple([h - l + 1 if h >= l else 0 for l, h in zip(lo, hi)])
        stride, strides = 1, []
        for d in dims[::-1]:
            strides.append(stride)
            stride *= d
        return cls(lo, dims, tuple(strides[::-1]))

    @property
    def whole(self) -> int:
        """The mask of every point of the box."""
        return (1 << math.prod(self.dims)) - 1

    def index(self, p: Point) -> int:
        """The bit of a point of the box."""
        return sum((x - l) * s for x, l, s in zip(p, self.lo, self.strides))

    def point(self, i: int) -> Point:
        """The point of bit i."""
        out = []
        for l, s in zip(self.lo, self.strides):
            q, i = divmod(i, s)
            out.append(l + q)
        return tuple(out)

    def points(self, mask: int) -> list[Point]:
        """The points at the set bits of a mask, in lexicographic order:
        coordinate k of bit i is lo_k + (i // strides[k]) mod dims[k], taken
        one axis at a time over all the bits."""
        bits = _bits(mask)
        return list(zip(*[[l + i // s % d for i in bits]
                          for l, d, s in zip(self.lo, self.dims, self.strides)]))

    def lowest(self, mask: int) -> Point:
        """The point of the lowest set bit of a nonzero mask: its least
        point."""
        return self.point((mask & -mask).bit_length() - 1)


@dataclass(frozen=True)
class SmallRep:
    """Canonical finite data of a good semigroup ideal.

    Invariants (enforced by :func:`validate`, not by construction): m and c
    are small elements, every small element lies in [m, c], small is closed
    under meet, the exchange axiom E2 holds, and c is the least conductor.

    The membership grid is built, and the holder of the fiber tables and
    layers (:attr:`tables`) found or made, on first use; both are then kept
    on the instance for as long as the ideal lives.  They are pure
    functions of the four fields, so they take no part in equality or
    hashing.
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
        if set(map(len, self.small)) != {self.r}:
            p = next(p for p in self.small if len(p) != self.r)
            raise DimensionMismatch(f"small element {p} has wrong dimension")

    def contains(self, alpha: Point) -> bool:
        check_same_dim(alpha, self.c)
        return tuple(map(min, alpha, self.c)) in self.small

    def __contains__(self, alpha: Point) -> bool:
        return self.contains(alpha)

    @cached_property
    def layout(self) -> Layout:
        """The layout of the grid [m - e, c]: axis k has c_k - m_k + 2 rows,
        and row m_k - 1 holds no member."""
        return Layout.of(tuple(x - 1 for x in self.m), self.c)

    @cached_property
    def grid(self) -> int:
        """The small elements as a mask in :attr:`layout`.

        The bit indices are summed one axis at a time over all the points.
        Small elements outside [m, c], which only a rep failing
        :func:`validate` has, are left out (:func:`_columns`).
        """
        g = self.layout
        cols = _columns(self.small, self.m, self.c)
        idx = [0] * len(cols[0]) if cols else []
        for l, s, col in zip(g.lo, g.strides, cols):
            idx = [i + (x - l) * s for i, x in zip(idx, col)]
        bits = bytearray((math.prod(g.dims) + 7) // 8)
        for i in idx:
            bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")

    @cached_property
    def tables(self) -> Tables:
        """The holder of this grid's fiber tables and layers.  They are
        functions of the layout's dims and the grid alone, so every live
        rep of one shape, translates among them, reads one holder: the one
        :data:`_holders` maps the shape (dims, grid) to, made on a miss.
        The rep keeps it, so it lives as long as some rep of the shape
        reads it."""
        key = self.layout.dims, self.grid
        holder = _holders.get(key)
        if holder is None:
            holder = _holders[key] = Tables(self.layout, self.grid)
        return holder

    def index(self, alpha: Point) -> int:
        """The grid bit of alpha clamped into [m - e, c], where every table
        entry and layer reads alpha.  The clamp is exact: membership is
        constant beyond c in each coordinate and empty below m, so on a
        pinned axis the fiber is empty below m_j and unchanged above c_j, and
        on a free axis any value below m_k is as good as m_k - 1 and any
        above c_k as good as c_k.  alpha must have dimension r; the public
        fiber functions check it."""
        g = self.layout
        i = 0
        for a, lo, hi, s in zip(alpha, g.lo, self.c, g.strides):
            i += ((hi if a > hi else a if a > lo else lo) - lo) * s
        return i

    def fiber_occupied(self, alpha: Point, J: int, closed: bool = False) -> bool:
        """Whether the J-fiber of alpha (J a bitmask of 0-based axes) meets E:
        one bit of :attr:`Tables.fiber_table` entry J, read at alpha clamped
        (:meth:`index`) when closed.  The open J-fiber of alpha is the
        closed one at alpha + 1 on the free axes, so the open bit is the
        closed entry read at that point clamped, the read-up along every
        free axis in index form, and :attr:`Tables.open_table` is not
        built.  It is the open entry's bit at alpha: on a free axis the clamp of
        alpha_k + 1 is the row above alpha's clamped row, or the top row
        c_k when alpha_k >= c_k, and where alpha_k < m_k - 1 it is row
        m_k - 1 and the open entry reads row m_k, which agree as row
        m_k - 1 holds no member."""
        alpha = alpha if closed else tuple([a + (~J >> k & 1) for k, a in enumerate(alpha)])
        return self.tables.fiber_table[J] >> self.index(alpha) & 1 == 1


def _columns(pts: Iterable[Point], lo: Point, hi: Point) -> list[tuple[int, ...]]:
    """The coordinate columns of the points that lie in [lo, hi]; the
    per-point test runs only when the per-axis minima and maxima show that
    some point lies outside."""
    cols = list(zip(*pts))
    if not all(l <= min(col) and max(col) <= h for l, h, col in zip(lo, hi, cols)):
        cols = list(zip(*[p for p in pts if all(l <= x <= h for l, x, h in zip(lo, p, hi))]))
    return cols


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


class Rows:
    """The row masks of one :class:`Layout`, all of them runs from one
    formula, :meth:`below`: per axis k, ``top`` holds the points below the
    top row, :meth:`steps` the doubling steps of a suffix OR along k, and
    ``eq`` and ``ge`` the points on and at or above each row (so
    t_k > v is ``ge[k][v + 1]``).  On them sit the read-up (:meth:`read_up`),
    the up-move T_d (:meth:`shift`) and the cut of a fiber (:meth:`fiber`).
    ``top``, ``eq`` and ``ge`` are built on first use
    and steps when taken: a holder's family (:attr:`Tables.rows`) keeps
    ``top`` only, and a draw (``constructors._closure_fixpoint``) lists
    every row and its steps once for its small box."""

    def __init__(self, layout: Layout):
        self.layout = layout

    def below(self, k: int, v: int) -> int:
        """The points with t_k < v: a run of v rows repeated once per
        k-line, the lines being as many as the points of the earlier
        axes."""
        dims, s = self.layout.dims, self.layout.strides[k]
        return _repeat((1 << v * s) - 1, dims[k] * s, math.prod(dims[:k]))

    @cached_property
    def top(self) -> tuple[int, ...]:
        """Per axis k, the points below the top row of k."""
        return tuple([self.below(k, d - 1) for k, d in enumerate(self.layout.dims)])

    def steps(self, k: int) -> Iterator[tuple[int, int]]:
        """The steps s = 1, 2, 4, ... < d_k of a suffix OR along axis k, as
        (shift, keep) pairs built when taken: before a step a bit holds the
        OR of s bits, after it of 2s, and the keep mask ``below(k, d_k - s)``
        stops a shifted bit from crossing into the next k-line.  It is
        ``top[k]`` for s = 1 and keep & keep >> s stride_k for 2s, exactly:
        a point with t_k < d_k - s stays on its k-line moved s rows up."""
        d, stride, keep = self.layout.dims[k], self.layout.strides[k], self.top[k]
        for i in range((d - 1).bit_length()):
            if i:
                keep &= keep >> (stride << i - 1)
            yield stride << i, keep

    @cached_property
    def eq(self) -> tuple[tuple[int, ...], ...]:
        """Per axis k and row v < d_k, the points with t_k = v: row 0,
        ``below(k, 1)``, moved up v rows."""
        _, dims, strides = self.layout
        firsts = [self.below(k, 1) for k in range(len(dims))]
        return tuple([tuple([row << v * s for v in range(d)])
                      for row, d, s in zip(firsts, dims, strides)])

    @cached_property
    def ge(self) -> tuple[tuple[int, ...], ...]:
        """Per axis k and row v <= d_k, the points with t_k >= v: the OR of
        the rows from v up."""
        return tuple([tuple(accumulate(reversed(eq), or_, initial=0))[::-1] for eq in self.eq])

    def read_up(self, O: list[int], k: int, entries: Iterable[int]) -> None:
        """Read the entries of O up along k, in place: bit t of each is
        read at t + e_k, clamped into the box, so on the top row of k, where
        t + e_k leaves it, at t_k itself: the one step from closed fibers
        to open ones (:func:`_fibers`).  The mask shifted down a row is
        merged into the mask through ``top[k]`` as a ^ (a ^ b) & top, which
        holds fewer whole-grid temporaries at once than two ANDs and an
        OR."""
        s, keep = self.layout.strides[k], self.top[k]
        for J in entries:
            O[J] = (O[J] >> s ^ O[J]) & keep ^ O[J]

    def fiber(self, mask: int, t: Point, J: int, closed: bool) -> int:
        """The points of mask equal to the row offsets t on the axes of J and
        at least t (closed) or above t (open) on the others."""
        for k, v in enumerate(t):
            if not mask:
                break
            mask &= self.eq[k][v] if J >> k & 1 else self.ge[k][v if closed else v + 1]
        return mask

    def shift(self, M: int, d: Point, steps: Sequence[list[tuple[int, int]]]) -> int:
        """T_d(M): every t of M sent to min(t + d, dims - e), one axis at a
        time: rows move up d_k, and the top d_k + 1 rows of the n rows of
        k, ORed together on row low = n - 1 - d_k by the suffix OR of
        ``steps[k]`` (:meth:`steps`, listed once by the caller), land on
        the top row."""
        for k, (dk, n, s) in enumerate(zip(d, self.layout.dims, self.layout.strides)):
            if dk:
                low, fold = n - 1 - dk, M
                for shift, keep in steps[k]:
                    fold |= fold >> shift & keep
                M = (M & ~self.ge[k][low] | fold & self.eq[k][low]) << dk * s
        return M


def _fibers(rows: Rows, mask: int, opened: bool = False) -> list[int]:
    """The fiber table of a point set in the layout of ``rows``, one mask
    per bitmask J of axes: bit t of entry J is set when some point of the
    mask equals t on J and is at least t elsewhere (closed), or, when
    ``opened``, at least t + e_k on each free axis k but its top row, where
    t_k will do (open: the closed entry read up a row along each free axis).

    Entry 0 is 0 and the full entry is the mask.  Entry J is entry J | e_k,
    k its lowest free axis, suffix-ORed along k with the doubling steps of
    :meth:`Rows.steps`, and when opened read up a row along k
    (:meth:`Rows.read_up`).  The entries of k read only those of higher
    axes, so the axes run from the last down and each step of k is built
    and taken once for all entries of k.

    This is exact: a suffix OR or a read-up along k sets bit t from bits
    that differ from t at k alone, at rows fixed by t_k alone, so those
    along different axes commute, and the open entry, a read-up after a
    suffix OR along each free axis, is the closed entry read up along
    every free axis.  A suffix OR then a read-up along k is the open suffix
    along k: bit t ORs the rows of its k-line from t_k + 1 up, or row t_k
    alone on the top row.
    """
    r = len(rows.layout.dims)
    full = (1 << r) - 1
    T = [0] * full + [mask]
    for k in range(r - 1, -1, -1):
        group = range((1 << k) - 1 or 2, full, 2 << k)  # J: axes below k pinned, k free
        for J in group:
            T[J] = T[J | 1 << k]
        for shift, keep in rows.steps(k):
            for J in group:
                T[J] |= T[J] >> shift & keep
        if opened:
            rows.read_up(T, k, group)
    return T


class Tables:
    """The fiber tables and (p, q) layers of one grid mask in a layout,
    built on first read and kept.  The holder keeps the layout's shape
    alone, its dims and strides with the corner moved to 0, so it serves
    every rep of one shape (:attr:`SmallRep.tables`, through
    :data:`_holders`, which holds it weakly), each reading the masks
    through its own :meth:`SmallRep.index`.  ``rows`` is the row family
    of that layout; the holder reads its ``top`` only, and each
    table is built from the grid alone, taking its steps as they are
    built, so no step or other row is kept (a grid may have thousands of
    rows)."""

    def __init__(self, layout: Layout, grid: int):
        self.grid = grid
        self.layout = Layout((0,) * len(layout.dims), layout.dims, layout.strides)
        self.rows = Rows(self.layout)

    @cached_property
    def fiber_table(self) -> tuple[int, ...]:
        """Occupied closed fibers as grid masks, indexed by a bitmask J of
        0-based axes.

        Bit t of entry J is set when the closed J-fiber (members equal to the
        point on J and at least it elsewhere) of grid point t is nonempty
        (:func:`_fibers`).
        """
        return tuple(_fibers(self.rows, self.grid))

    @cached_property
    def open_table(self) -> tuple[int, ...]:
        """Occupied open fibers as grid masks, indexed like
        :attr:`fiber_table` but read off the grid with no closed table
        (:func:`_fibers`): the open J-fiber of t is the closed one at t + 1
        on the free axes, clamped into the grid."""
        return tuple(_fibers(self.rows, self.grid, True))

    @cached_property
    def fiber_layers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (p, q) layers (P, Q), grid masks for k = 0..r + 1: bit t of
        P[k] is set when some open fiber of grid point t with at most k
        indices is occupied (p < k), of Q[k] when all with at least k are
        (q <= k).  Each :attr:`open_table` entry is ORed into P[|J|] and
        ANDed into Q[|J|]; a prefix OR and a suffix AND finish, and
        P[r + 1] = Q[r + 1] is the whole grid."""
        r = len(self.layout.dims)
        whole = self.layout.whole
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

    @cached_property
    def p1(self) -> int:
        """The layer P[1] of :attr:`fiber_layers`, the grid points with some
        singleton open fiber occupied, read off the grid with no table
        built: the OR over k of the open {k}-fiber entry O[k], the grid
        suffix-ORed and read up along every axis j other than k, in any
        order of the axes (:func:`_fibers` proves it free).  The axes j run
        outermost, so each step of j is built once for the r - 1 entries it
        serves: r step lists and r (r - 1) suffix ORs and read-ups of the
        grid, where the tables cost 2^r entries."""
        rows, r = self.rows, len(self.layout.dims)
        O = [self.grid] * r
        for j in range(r):
            others = [k for k in range(r) if k != j]
            for shift, keep in rows.steps(j):
                for k in others:
                    O[k] |= O[k] >> shift & keep
            rows.read_up(O, j, others)
        return reduce(or_, O)


# (dims, grid) -> the holder every live rep of that shape reads; an entry
# goes with the last rep that keeps its holder.  Two threads that miss at
# once make two holders of one shape, both correct, so no lock is needed
_holders: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _window(E: SmallRep, lo: Point, hi: Point, mask: int | None = None) -> int:
    """A grid mask of E over [lo, hi], in that box's layout: a fiber-table
    entry or a layer, membership (the grid mask) when None.

    Bit t is the mask's bit at :meth:`SmallRep.index` of the box point t,
    each coordinate clamped into [m - e, c], so the box may reach below m
    and beyond c anywhere; over the grid [m - e, c] itself it is the mask
    as it is.  Otherwise the rows of axis 0 that the box clamps to are
    cut out first; then the axes are turned from the grid's layout into the
    box's one at a time, the last first, each by a few operations on the
    whole integer (Warren, *Hacker's Delight*, ch. 7).  Before the pass of
    axis k, a row of k is B bits, B the product of the box dims of the
    later axes, and the mask holds L lines of g_k rows, L the product of the
    grid dims g of the earlier axes (g_0 counting the kept rows only).  The
    pass keeps the rows [first, top]
    that the box clamps to, moves line i from bit i * g_k * B to
    i * d_k * B (d_k the box dim) in log2(L) steps, step t moving the lines
    with bit t of i set by 2^t (d_k - g_k) B, and repeats the first and the
    last kept row into the clamped-off rows by doubling shifts.  A step
    selects its lines with one repeated run: when the lines widen, the high
    bits of i go first, so that every moved line lands in space no line
    holds; when they narrow, the low bits do.
    """
    if mask is None:
        mask = E.grid
    dims = tuple(h - l + 1 for l, h in zip(lo, hi))
    if min(dims) <= 0:
        return 0
    g = E.layout
    if lo == g.lo and hi == E.c:
        return mask
    kept = [(min(max(l, o), c) - o, min(max(h, o), c) - o)  # rows [first, top]
            for l, h, o, c in zip(lo, hi, g.lo, E.c)]
    # axis 0 is one line, so its cut is one shift and one mask, and a box
    # that keeps few of its rows leaves the passes little to turn
    first, top = kept[0]
    x = mask >> first * g.strides[0] & (1 << (top - first + 1) * g.strides[0]) - 1
    gdims = (top - first + 1, *g.dims[1:])
    kept[0] = (0, top - first)
    B, L = 1, math.prod(gdims)
    for k in range(E.r - 1, -1, -1):
        l, h, origin, c, gd, d = lo[k], hi[k], g.lo[k], E.c[k], gdims[k], dims[k]
        L //= gd
        first, top = kept[k]
        n = top - first + 1
        a, b = gd * B, d * B  # line widths before and after
        if n < gd:
            x = x >> first * B & _repeat((1 << n * B) - 1, a, L)
            if not x:
                return 0
        if a != b:
            steps = range((L - 1).bit_length())
            for t in reversed(steps) if b > a else steps:
                # widening, line j 2^(t+1) + u (u < 2^(t+1)) is at
                # j 2^(t+1) b + u a, and u >= 2^t moves; narrowing, line
                # j 2^t + u (u < 2^t) is at j 2^t a + u b, and odd j moves:
                # either way the bits [2^t a, 2^(t+1) a) of each 2^(t+1)
                # max(a, b) bits
                run = a << t
                moved = x & _repeat(((1 << run) - 1) << run, max(a, b) << t + 1,
                                    (L - 1 >> t + 1) + 1)
                x ^= moved
                x |= moved << (b - a << t) if b > a else moved >> (a - b << t)
        below = min(h, origin) - l  # box rows past the first, clamped to row 0
        above = h - max(l, c)       # box rows past the first, clamped to row c
        if below > 0 or above > 0:
            # each line's row 0: x itself when it keeps one row
            row = _repeat((1 << B) - 1, b, L) if n > 1 else x
            if above > 0:
                x |= _repeat(x >> (n - 1) * B & row, B, above) << n * B
            if below > 0:
                x = x << below * B | _repeat(x & row, B, below)
        B = b
    return x


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
    """The shifted ideal delta + E; E itself when delta is zero."""
    check_same_dim(delta, E.m)
    if not any(delta):
        return E
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
    return Layout.of(lo, hi).points(_window(E, lo, hi))


def _decision_box(E1: SmallRep, E2: SmallRep) -> tuple[Point, Point]:
    return meet(E1.m, E2.m), vadd(join(E1.c, E2.c), ones(E1.r))


def _require_same_r(E1: SmallRep, E2: SmallRep) -> None:
    if E1.r != E2.r:
        raise DimensionMismatch("ideals of different dimension")


def equals(E1: SmallRep, E2: SmallRep) -> bool:
    """Equality of the represented (infinite) sets.

    Decided on [meet(m1,m2), join(c1,c2) + e]: outside that box membership of
    both sides is forced by their meet-with-conductor rules.

    Two reps on one layout compare their grids instead.  A layout fixes m
    (its corner is m - e) and, when no dim is 0, c (its top), so the box is
    [m, c + e] and each window copies its grid bit for bit: bit t reads the
    grid bit at min(t, c).  The copy reads every grid row but m_k - 1,
    which :attr:`SmallRep.grid` leaves empty, so the windows are equal, or
    one inside the other, exactly when the grids are.  A dim of 0 puts
    c_k below m_k - 1 for both: both grids and both windows are 0.
    """
    _require_same_r(E1, E2)
    if E1 == E2:
        return True
    if E1.layout == E2.layout:
        return E1.grid == E2.grid
    box = _decision_box(E1, E2)
    return _window(E1, *box) == _window(E2, *box)


def is_subset(E1: SmallRep, E2: SmallRep) -> bool:
    """Inclusion of represented sets, decided on the shared box, or on the
    grids when the two reps share a layout (see :func:`equals`)."""
    _require_same_r(E1, E2)
    if E1.layout == E2.layout:
        return E1.grid & ~E2.grid == 0
    box = _decision_box(E1, E2)
    return _window(E1, *box) & ~_window(E2, *box) == 0


def _least_conductor(P: SmallRep) -> SmallRep:
    """P with its conductor shrunk to the least one its point set
    supports, or P itself when no conductor below c does.

    P holds the set on [m, c], m its minimum and c the box top, which the
    set treats as conducting, with c in the set and no point outside
    [m, c]; P need not be valid otherwise, and ``validate`` judges what is
    returned.  The candidates are the h with [h, c] in the set, and their
    meet g must be one of them.  With small the points below g, the rule
    ``q in E <=> meet(q, g) in small`` must agree with the set on P's grid
    [m - e, c].
    """
    c, small = P.c, P.small
    # A candidate h has [h_k, c_k] on the k-line through c in the set, so h
    # is at least g, the ends of the runs down from c, which are candidates.
    g = list(c)
    for k in range(P.r):
        while c[:k] + (g[k] - 1,) + c[k + 1:] in small:
            g[k] -= 1
    g = tuple(g)
    # With g == c, [g, c] is {c}, in the set, and meet(q, c) = q on the
    # box, so the rule reads the set unchanged and cannot disagree with it.
    if g == c:
        return P
    # The rule's set on [m, c] is the disjoint union of the clamp classes
    # {q : meet(q, g) = s} of the s in small below g, and the class of s has
    # prod(c_k - g_k + 1) points over the axes with s_k = g_k.  The set lies
    # in that union iff the meets with g of its points are all in it, and
    # then equals it iff the sizes agree.  As c is in the set, g is among
    # the meets, and its class is [g, c]: so g is a candidate too.
    meets = frozenset(tuple(map(min, p, g)) for p in small)
    rep = SmallRep(P.r, P.m, g, meets & small)  # the points below g
    size = sum(math.prod(y - x + 1 for u, x, y in zip(s, g, c) if u == x)
               for s in rep.small)
    return rep if meets <= small and size == len(small) else P


@dataclass(frozen=True)
class RegionSet:
    """A raw bounded point set with its bounding box, and the good ideal
    ``promoted`` that it is the box window of (the fiber dual).
    """

    r: int
    box: Box
    points: frozenset[Point]
    promoted: SmallRep

    def __post_init__(self) -> None:
        # one dimension check, then the coordinate columns' extremes against
        # the box; the points are walked only to name the first offender
        lo, hi = self.box.lo, self.box.hi
        if set(map(len, self.points)) <= {len(lo)} and all(
                l <= min(col) and max(col) <= h
                for l, h, col in zip(lo, hi, zip(*self.points))):
            return
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


def _split_pairs(O: Sequence[int], K: int, J: int) -> int:
    """The OR of O[K | Ja] & O[K | Jb] over the splits of J into Ja and Jb,
    O a fiber table: each unordered split once, as Jb runs over the subsets
    of J without its lowest axis and Ja is the rest of J."""
    rest = J & J - 1
    Jb, pairs = rest, 0
    while True:
        pairs |= O[K | J ^ Jb] & O[K | Jb]
        if not Jb:
            return pairs
        Jb = Jb - 1 & rest


def _meets(T: Sequence[int]) -> int:
    """The meets of the pairs of a point set, T its closed fibers: t is
    meet(a, b) exactly when, for Ja the axes where a equals t, a lies in the
    closed Ja-fiber of t and b in the closed (full ^ Ja)-fiber, so the meets
    are the OR of T[Ja] & T[full ^ Ja] over the splits of all the axes
    (the split of full into full and nothing reads T[0] = 0)."""
    return _split_pairs(T, 0, len(T) - 1)


def _failing_demands(T: Sequence[int], O: Sequence[int],
                     rows: Rows) -> Iterator[tuple[int, int, dict[int, int]]]:
    """The E2 demands that fail, per set K of agreeing axes (0 < K < full,
    ascending) that has one: K, the mask of the meets t with a failing
    demand, and per axis i of K with failures the mask of those failing
    at i.

    A pair a < b that agrees exactly on K and meets at t, with Ja the axes
    of J = full ^ K where a = t < b and Jb the rest, has a in the open
    (K | Ja)-fiber of t and b in the open (K | Jb)-fiber, so the t with
    such a pair are ``pairs`` (:func:`_split_pairs`).  At i in K the pair
    demands a point in the closed J-fiber of t + e_i, T[J] shifted down a
    row along i; the failing ones are ``pairs & rows.top[i] &
    ~(T[J] >> strides[i])``.  The top row of i is not tested, where t + e_i
    leaves the box.  A K with no pairs shifts no entry."""
    full = len(T) - 1
    strides, top = rows.layout.strides, rows.top
    for K in range(1, full):
        J = full ^ K
        pairs = _split_pairs(O, K, J)
        if pairs:
            failing, union = {}, 0
            for i in range(len(strides)):
                if K >> i & 1:
                    F = pairs & top[i] & ~(T[J] >> strides[i])
                    if F:
                        failing[i] = F
                        union |= F
            if union:
                yield K, union, failing


def _pairs_good(E: SmallRep) -> bool:
    """Whether every pair of small elements passes E1 and E2, read off the
    fiber table T and the open table O.  E must be structurally valid.

    E1: the meets of member pairs (:func:`_meets`) must lie inside the grid
    mask.  E2: no demand may fail (:func:`_failing_demands`).  The top row
    of i is not tested: the grid clamps t + e_i to t there, and t, the meet
    of a member pair, is in E by E1, checked first, so in its own closed
    J-fiber.
    """
    tables = E.tables
    T = tables.fiber_table
    if _meets(T) & ~E.grid:
        return False
    return not any(_failing_demands(T, tables.open_table, tables.rows))


def search_member(E: SmallRep, ranges: list[tuple[int, int]]) -> Point | None:
    """First member of E (lexicographically) in the product of closed ranges:
    the lowest set bit of E's window over them, as bit order is
    lexicographic order."""
    lo, hi = tuple(a for a, _ in ranges), tuple(b for _, b in ranges)
    check_same_dim(lo, E.c)
    W = _window(E, lo, hi)
    return Layout.of(lo, hi).lowest(W) if W else None


def _classes(E: SmallRep, strides: Sequence[int]) -> list[tuple[int, list[int]]]:
    """E's members in [m, c + e] as clamp classes, grouped as (K, offsets):
    the members clamping to a small element s are s + {0,1}^K, K the
    bitmask of the axes where s_k = c_k, and s sits at
    sum((s_k - m_k) * strides[k]).  The offsets and K are summed one axis
    at a time over all the small elements.  Small elements outside [m, c],
    which only a rep failing :func:`validate` has, are left out, as
    :attr:`SmallRep.grid` leaves them out (:func:`_columns`)."""
    cols = _columns(E.small, E.m, E.c)
    offs = Ks = [0] * len(cols[0]) if cols else []
    for k, (a, b, stride, col) in enumerate(zip(E.m, E.c, strides, cols)):
        offs = [o + (x - a) * stride for o, x in zip(offs, col)]
        Ks = [K | (x == b) << k for K, x in zip(Ks, col)]
    groups: dict[int, list[int]] = {}
    for K, off in zip(Ks, offs):
        groups.setdefault(K, []).append(off)
    return list(groups.items())


def _class_and(W: int, strides: Sequence[int], groups: list[tuple[int, list[int]]],
               k: int = 0) -> int:
    """The AND of W_K >> offset over the (K, offsets) of groups, W_K the
    AND of W >> offset(t) over the t of the box {0,1}^K: bit x is set when
    W holds x + offset + t for every t, read on x's whole class.

    The axes go up from k.  At axis k a group with no axis left reads W as
    it is; the groups with axis k go on with W & W >> strides[k], W ANDed
    along k, and the rest with W, by recursion.  So each W_K prefix is
    built once, and W is ANDed once per small element.
    """
    acc = -1
    while groups:
        on, rest = [], []
        for group in groups:
            K = group[0] >> k
            if not K:
                for off in group[1]:
                    acc &= W >> off
            elif K & 1:
                on.append(group)
            else:
                rest.append(group)
        if rest:
            acc &= _class_and(W, strides, rest, k + 1)
        if on:
            W &= W >> strides[k]
        groups, k = on, k + 1
    return acc


def _sum_failure(outer: SmallRep, inner: SmallRep,
                 target: SmallRep) -> tuple[Point, Point, Point] | None:
    """The first o + i outside target, for o over the members of outer in
    [m, c + e] and then i over those of inner, both in lexicographic order,
    as (o, i, o + i); None when every sum lands in target.

    One window W of target covers all the sums, with o + i at bit
    offset(o - m_o) + offset(i - m_i).  The o whose sums all land in W are
    the bits of the AND of W >> offset(i - m_i) over the members i of
    inner, taken over inner's clamp classes (:func:`_classes`,
    :func:`_class_and`), so the AND is one shift per small element and one
    per prefix of class axes, not one per member.  The failing o are the
    members of outer missing from it, the first is the lowest of them, and
    its first failing i is the lowest member of inner that W >> offset(o)
    lacks.  As the sum is symmetric, when outer is another ideal with no
    more small elements than inner, the AND over its classes first gives
    the i whose sums all land in W.  When that holds every member of inner
    nothing fails and no members of outer are cut; only a failure takes
    the AND over inner's classes to name it.
    """
    e = ones(target.r)
    lo = vadd(outer.m, inner.m)
    hi = vadd(vadd(outer.c, inner.c), vadd(e, e))
    W = _window(target, lo, hi)
    _, dims, strides = Layout.of(lo, hi)

    def members(E: SmallRep) -> int:
        # E's members over [m, c + e], based at m; W is E's own window when
        # E is the target and lo = m, as when outer holds 0 at its minimum
        window = W if E is target and E.m == lo else _window(E, E.m, vadd(E.m, vsub(dims, e)))
        return window & _box_mask(dims, vadd(vsub(E.c, E.m), vadd(e, e)))

    P = members(inner)
    if (outer is not inner and len(outer.small) <= len(inner.small)
            and not P & ~_class_and(W, strides, _classes(outer, strides))):
        return None
    O = P if outer is inner else members(outer)
    failing = O & ~_class_and(W, strides, _classes(inner, strides))
    if not failing:
        return None
    off = (failing & -failing).bit_length() - 1
    o = Layout(outer.m, dims, strides).point(off)
    i = Layout(inner.m, dims, strides).lowest(P & ~(W >> off))
    return o, i, vadd(o, i)


def _quotient(EJ: SmallRep, EI: SmallRep, lo: Point, hi: Point) -> set[Point]:
    """The beta of [lo, hi] with beta + alpha in EJ for every member alpha
    of EI, where lo + c_I >= c_J, so that beta + c_I + N^r, the top clamp
    class of EI moved by beta, lies in EJ for every beta of the box.

    One window W of EJ over [lo + m_I, hi + c_I] covers every sum, with
    beta at bit offset(beta - lo), so W >> offset(alpha - m_I) reads
    beta + alpha there.  The answer is the AND of W >> offset(s - m_I) over
    the small elements s other than c_I, cut to the box of betas.  When
    c_I is the only one, no window is built and the answer is the whole
    box, returned as {lo} when the box is that one point.  A valid such EI
    is c_I + N^r, whose m_I = c_I makes the dual's box [c_J - c_I,
    c_J - m_I] one point; a larger box comes only from an invalid EI with
    m_I < c_I, and is walked.  The rest of the clamp class of s steps
    along the axes i with s_i = c_i, and x = beta + s in EJ takes each
    step: x and beta + c_I + e - e_i agree at i and x is lower elsewhere,
    so E2 puts some x + t e_i, t >= 1, in EJ, and its meet with
    beta + c_I + e is x + e_i; repeat from there.
    """
    rest = EI.small - {EI.c}
    if not rest:
        return {lo} if lo == hi else set(box_points(lo, hi))
    wlo, whi = vadd(lo, EI.m), vadd(hi, EI.c)
    _, dims, strides = Layout.of(wlo, whi)
    acc = _box_mask(dims, vadd(vsub(hi, lo), ones(EJ.r)))
    W = _window(EJ, wlo, whi)
    alphas = Layout(EI.m, dims, strides)
    for s in rest:
        acc &= W >> alphas.index(s)
    return set(Layout(lo, dims, strides).points(acc))


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


def _axiom_failure(E: SmallRep, S: SmallRep | None = None) -> dict | None:
    """The first failing axiom of E as its counterexample record,
    ``{"axiom": ..., **data}``, or None when every axiom holds on the finite
    box [m, c + e].  ``validate`` wraps the record in its report; every
    computed or parsed ideal is certified here, with no report built unless
    it fails.

    The structural part comes first: m <= c, both are small elements, and
    every small element lies in [m, c].  The per-axis minima and maxima of
    the small elements are read first, off one transpose of them;
    when they are m and c, m <= c holds and no element lies outside, so only
    the two memberships are tested.  Otherwise m <= c is tested and the
    small elements are walked in sorted order to name the first one outside.
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
    (:func:`_in_fiber`), so a sparse ideal's grid stays unbuilt; only they
    sort the small elements.

    A rep whose one small element is m = c passes the structural part: m
    and c are small elements, and nothing lies outside [m, c] = {c}.  It
    has no pair, so E1 and E2 hold, and c - e_i, which is not c, is no
    small element, so c is the least conductor.  So those three facts are
    read first, from n = len(small) before any transpose, and such a rep
    goes straight to the S check: a principal dual
    (``duality.cd_difference``) costs three tests.  Any other one-element
    rep fails the structural part (were m and c both its element, m = c),
    which names the failure as before, so no record changes.

    With S given, compatibility S + E <= E is checked over boxes.  The
    semigroup axioms 0 in E and E + E <= E have their own kernel,
    :func:`_semigroup_failure`, run once these pass.
    """
    r, n = E.r, len(E.small)
    # Structural part: reported as its own failure class, not an axiom.
    if n > 1 or E.m != E.c or E.c not in E.small:
        cols = list(zip(*E.small))
        bounded = tuple(map(min, cols)) == E.m and tuple(map(max, cols)) == E.c
        if not bounded and not leq(E.m, E.c):
            return dict(axiom="structural", reason="min exceeds conductor",
                        min=pt(E.m), conductor=pt(E.c))
        if E.m not in E.small:
            return dict(axiom="structural", reason="min not among small elements",
                        min=pt(E.m))
        if E.c not in E.small:
            return dict(axiom="structural", reason="conductor not among small elements",
                        conductor=pt(E.c))
        if not bounded:
            for p in sorted(E.small):
                if not (leq(E.m, p) and leq(p, E.c)):
                    return dict(axiom="structural",
                                reason="small element outside [min, conductor]", point=pt(p))

    if n > 1:  # else m = c is the one small element, and the axioms hold
        # E1 and E2 on the masks when the grid has at most as many points
        # as there are pairs; the pair loops run otherwise, or to name the
        # first failing pair.
        volume = math.prod(c - m + 2 for m, c in zip(E.m, E.c))
        if volume > n * n or not _pairs_good(E):
            small = sorted(E.small)
            # E1: closure under componentwise minimum.
            for idx, a in enumerate(small):
                for b in small[idx + 1:]:
                    g = tuple(map(min, a, b))
                    if g not in E.small:
                        return dict(axiom="E1", pair=[pt(a), pt(b)], missing_meet=pt(g))

            # E2: exchange witness for every pair agreeing in some
            # coordinate, looked up among the small elements.
            for idx, a in enumerate(small):
                for b in small[idx + 1:]:
                    for i in range(r):
                        if a[i] == b[i]:
                            x, J = _e2_fiber(a, b, i)
                            if not _in_fiber(small, meet(x, E.c), J):
                                return dict(axiom="E2", pair=[pt(a), pt(b)],
                                            coordinate=i + 1)

        # Conductor minimality: c - e_i must not conduct.  Every point above
        # c - e_i with coordinate i pinned to c_i - 1 meets down to c - e_i,
        # so membership of that single point decides it, and as it lies
        # below c, membership is being a small element.
        c = E.c
        for i in range(r):
            down = c[:i] + (c[i] - 1,) + c[i + 1:]
            if down in E.small:
                return dict(axiom="conductor", coordinate=i + 1, point=pt(down),
                            reason="conductor not minimal: c - e_i already conducts")

    if S is not None:
        if S.r != r:
            return dict(axiom="structural", reason="semigroup dimension mismatch")
        failure = _compatibility_failure(E, S)
        if failure is not None:
            return dict(axiom="compatibility", **failure)
    return None


def _semigroup_failure(E: SmallRep) -> dict | None:
    """The first failure of 0 in E and E + E <= E as its counterexample
    record, or None: what ``validate``'s ``semigroup`` checks once
    :func:`_axiom_failure` finds nothing.  A caller that holds E certified
    as an ideal checks a semigroup with this alone."""
    if not E.contains((0,) * E.r):
        return dict(axiom="semigroup", reason="0 not a member")
    # the first failing pair has b >= a: a failing (b, a) with b < a
    # would have come first
    failure = _sum_failure(E, E, E)
    if failure is not None:
        a, b, q = failure
        return dict(axiom="semigroup", pair=[pt(a), pt(b)], sum=pt(q))
    return None


def validate(E: SmallRep, S: SmallRep | None = None, *, semigroup: bool = False) -> CheckReport:
    """Check the good-semigroup-ideal axioms on the finite box [m, c + e],
    with S given the compatibility S + E <= E, and with ``semigroup`` also
    0 in E and E + E <= E.  The first failing axiom is reported with its
    violating pair, as :func:`_axiom_failure` finds it, and then
    :func:`_semigroup_failure`."""
    failure = _axiom_failure(E, S)
    if failure is None and semigroup:
        failure = _semigroup_failure(E)
    universe = f"axiom box [{list(E.m)}, {[x + 1 for x in E.c]}]"
    return CheckReport("validate", failure is None, universe,
                       counterexamples=[] if failure is None else [failure])
