"""Finite representation of a good semigroup ideal E of Z^r.

A good semigroup ideal is determined by its minimum m, its conductor c (the
least point with c + N^r contained in E), and the finite set of *small
elements* E intersected with [m, c].  Membership anywhere follows the rule

    alpha in E  <=>  meet(alpha, c) in small.

Meet-closure forces the forward direction; the converse is an axiom of the
representation and is cross-checked against the brute-force oracle on every
fixture.  Everything here is immutable and pure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class SmallRep:
    """Canonical finite data of a good semigroup ideal.

    Invariants (enforced by :func:`validate`, not by construction): m and c
    are small elements, every small element lies in [m, c], small is closed
    under meet, the exchange axiom E2 holds, and c is the least conductor.

    Fiber questions are answered from :attr:`fiber_table`, which is built on
    the first fiber query and then kept on the instance for as long as the
    ideal lives.  It is a pure function of the four fields, so it takes no
    part in equality or hashing.
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
    def fiber_table(self) -> tuple[frozenset[Point], ...]:
        """Occupied closed fibers, indexed by a bitmask J of 0-based axes.

        Entry J holds the points x of [m, c] whose closed J-fiber (members
        equal to x on J and at least x elsewhere) is nonempty: the small
        elements closed downward, within [m, c], along the axes outside J.
        Entry 0 is empty.  Each entry adds one axis to the closure of an
        entry already built, so the cost is proportional to the output.
        """
        full = (1 << self.r) - 1
        table: list[frozenset[Point]] = [frozenset()] * (full + 1)
        table[full] = self.small
        for J in range(full - 1, 0, -1):
            k = ((full ^ J) & -(full ^ J)).bit_length() - 1  # lowest free axis
            table[J] = _close_down(table[J | 1 << k], k, self.m[k])
        return tuple(table)

    def fiber_occupied(self, alpha: Point, J: int, closed: bool = False) -> bool:
        """Whether the J-fiber of alpha (J a bitmask of 0-based axes) meets E.

        One lookup in :attr:`fiber_table` after clamping alpha into [m, c].
        The clamp is exact because membership is constant beyond c in each
        coordinate and empty below m: on an axis in J the fiber is empty
        below m_j and unchanged above c_j; on a free axis any value below m_k
        is as good as m_k and any value above c_k as good as c_k.  The open
        fiber is the closed fiber at alpha + 1 on the free axes.  alpha must
        have dimension r; the public fiber functions check it.
        """
        x = []
        for k, (a, lo, hi) in enumerate(zip(alpha, self.m, self.c)):
            if J >> k & 1:
                if a < lo:
                    return False
            elif not closed:
                a += 1
            x.append(lo if a < lo else hi if a > hi else a)
        return tuple(x) in self.fiber_table[J]

    def fiber_occupancy(self, alpha: Point, closed: bool = False) -> list[bool]:
        """:meth:`fiber_occupied` for every J at once, indexed by the bitmask
        (entry 0 is False).  alpha is clamped once per axis, both as a pinned
        value (None below m, which no table entry holds) and as a free one;
        the key for J takes the pinned value on the axes in J."""
        pinned, free = [], []
        for a, lo, hi in zip(alpha, self.m, self.c):
            pinned.append(None if a < lo else hi if a > hi else a)
            if not closed:
                a += 1
            free.append(lo if a < lo else hi if a > hi else a)
        # product() varies its last factor fastest, so with the axes reversed
        # the n-th key picks the pinned value exactly on the axes in J = n
        keys = itertools.product(*zip(reversed(free), reversed(pinned)))
        return [key[::-1] in entry for key, entry in zip(keys, self.fiber_table)]


def _close_down(points: frozenset[Point], k: int, low: int) -> frozenset[Point]:
    """points together with everything below them along axis k, down to low."""
    out = set(points)
    for p in points:
        head, tail = p[:k], p[k + 1:]
        for v in range(p[k] - 1, low - 1, -1):
            q = head + (v,) + tail
            if q in out:
                break  # below q is covered by the walk that added q, or q's own
            out.add(q)
    return frozenset(out)


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
    """Members of E inside [lo, hi], in lexicographic order."""
    return [p for p in box_points(lo, hi) if E.contains(p)]


def _decision_box(E1: SmallRep, E2: SmallRep) -> Box:
    lo = meet(E1.m, E2.m)
    hi = vadd(join(E1.c, E2.c), ones(E1.r))
    return Box(lo, hi)


def equals(E1: SmallRep, E2: SmallRep) -> bool:
    """Equality of the represented (infinite) sets.

    Decided on [meet(m1,m2), join(c1,c2) + e]: outside that box membership of
    both sides is forced by their meet-with-conductor rules.
    """
    if E1.r != E2.r:
        raise DimensionMismatch("ideals of different dimension")
    return all(E1.contains(p) == E2.contains(p) for p in _decision_box(E1, E2))


def is_subset(E1: SmallRep, E2: SmallRep) -> bool:
    """Inclusion of represented sets, decided on the shared box."""
    if E1.r != E2.r:
        raise DimensionMismatch("ideals of different dimension")
    return all(E2.contains(p) for p in _decision_box(E1, E2) if E1.contains(p))


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


def _e2_witness_ranges(a: Point, b: Point, i: int, c: Point) -> list[tuple[int, int]]:
    """Search ranges for an E2 witness for the pair (a, b) agreeing at 0-based i.

    The witness needs coordinate i strictly above a[i], coordinates pinned to
    min(a, b) where a and b differ, and at least a[j] elsewhere.  Caps at
    max(c_k, low_k) are lossless: meeting any remote witness with a member
    above the conductor pulls it into the box.
    """
    ranges = []
    for k in range(len(a)):
        if k == i:
            low = a[k] + 1
            ranges.append((low, max(c[k], low)))
        elif a[k] != b[k]:
            v = min(a[k], b[k])
            ranges.append((v, v))
        else:
            low = a[k]
            ranges.append((low, max(c[k], low)))
    return ranges


def search_member(E: SmallRep, ranges: list[tuple[int, int]]) -> Point | None:
    """First member of E (lexicographically) in the product of closed ranges."""
    lo = tuple(a for a, _ in ranges)
    hi = tuple(b for _, b in ranges)
    for p in box_points(lo, hi):
        if E.contains(p):
            return p
    return None


def validate(E: SmallRep, S: SmallRep | None = None, *, semigroup: bool = False) -> CheckReport:
    """Check the good-semigroup-ideal axioms on the finite box [m, c + e].

    Beyond the conductor, membership is monotone by construction of the rule,
    so the box quantifiers are exhaustive for the represented set.  With S
    given, compatibility S + E <= E is checked over boxes; with ``semigroup``,
    0 in E and E + E <= E are checked as well.  The first failing axiom is
    reported with its violating pair.
    """
    r = E.r
    e = ones(r)
    hi = vadd(E.c, e)
    universe = f"axiom box [{list(E.m)}, {list(hi)}]"
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
    for p in sorted(E.small):
        if not (leq(E.m, p) and leq(p, E.c)):
            return fail("structural", reason="small element outside [min, conductor]",
                        point=pt(p))

    mem = members(E, E.m, hi)

    # E1: closure under componentwise minimum.
    for idx, a in enumerate(mem):
        for b in mem[idx + 1:]:
            g = tuple(map(min, a, b))
            if not E.contains(g):
                return fail("E1", pair=[pt(a), pt(b)], missing_meet=pt(g))

    # E2: exchange witness for every pair agreeing in some coordinate.
    for idx, a in enumerate(mem):
        for b in mem[idx + 1:]:
            if a == b:
                continue
            for i in range(r):
                if a[i] != b[i]:
                    continue
                w = search_member(E, _e2_witness_ranges(a, b, i, E.c))
                if w is None:
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
        # S + E <= E forces c <= m + c(S); checking it first makes the box
        # quantifier below exhaustive.
        bound = vadd(E.m, S.c)
        if not leq(E.c, bound):
            return fail("compatibility", reason="conductor exceeds min + c(S)",
                        conductor=pt(E.c), bound=pt(bound))
        smem = members(S, S.m, vadd(S.c, e))
        for s in smem:
            for p in mem:
                q = vadd(s, p)
                if not E.contains(q):
                    return fail("compatibility", s=pt(s), p=pt(p), sum=pt(q))

    if semigroup:
        z = (0,) * r
        if not E.contains(z):
            return fail("semigroup", reason="0 not a member")
        for idx, a in enumerate(mem):
            for b in mem[idx:]:
                q = vadd(a, b)
                if not E.contains(q):
                    return fail("semigroup", pair=[pt(a), pt(b)], sum=pt(q))

    return rep
