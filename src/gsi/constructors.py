"""Builders for valid good semigroups and good semigroup ideals.

Every constructor normalizes its data (clip to the conductor, then shrink
the conductor of that provisional rep to the least one consistent with the
stored elements, through the same ``ideal._least_conductor`` that promotes
computed duals) and runs full axiom validation once before returning.
``random_good`` first grows its sample by rounds of meets, compatibility
with S and E2 witnesses on one bit mask of its box (``_closure_fixpoint``),
each step a few shifts, ANDs and ORs of masks, and decodes the mask once
for ``from_small_elements``.  All constructors are deterministic given their
inputs plus seed.
"""
from __future__ import annotations

import math
import random

from .errors import GenerationError, ValidationError
from .ideal import (
    SmallRep,
    _bits,
    _box_mask,
    _closed_fibers,
    _compatibility_failure,
    _least_conductor,
    _point,
    _repeat,
    _strides,
    validate,
)
from .lattice import Point, leq, meet, ones, zero
from .report import CheckReport


def from_small_elements(r: int, m: Point, c: Point, elems) -> SmallRep:
    """Normalize raw small-element data and validate it once.

    Points are clipped by meet with the conductor, and ``_least_conductor``
    shrinks their provisional rep on [m, c] to the least conductor the data
    supports; when it finds none, the rep is kept and validation judges.
    Raises ValidationError carrying the failing axiom otherwise.
    """
    pts = {meet(tuple(p), c) for p in elems}
    pts.add(meet(m, c))
    # every point is >= m iff the per-axis minima are; the loop names the
    # first point below m in the set's order
    if not leq(m, tuple(map(min, zip(*pts)))):
        for p in pts:
            if not leq(m, p):
                rep = SmallRep(r, m, c, frozenset(pts | {m, c}))
                report = validate(rep)
                report.passed = False
                report.counterexamples.insert(
                    0, {"axiom": "structural", "reason": "element below declared min",
                        "point": list(p)})
                raise ValidationError(report)
    pts.add(c)
    P = SmallRep(r, m, c, frozenset(pts))
    rep = _least_conductor(P)
    if isinstance(rep, str):
        rep = P
    report = validate(rep)
    if not report.passed:
        raise ValidationError(report)
    return rep


def numerical(generators: list[int]) -> SmallRep:
    """The numerical semigroup generated by the given positive integers.

    Small elements come from a sieve up to the conductor; requires gcd 1,
    otherwise no conductor exists.
    """
    gens = sorted(set(int(g) for g in generators))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError(f"gcd of generators {gens} is not 1; no conductor exists")
    # Schur: every n >= (a_1 - 1)(a_n - 1) is reachable, well below bound
    bound = max(gens) * gens[0] + gens[0] + 1
    reach = [False] * (bound + 1)
    reach[0] = True
    for n in range(1, bound + 1):
        reach[n] = any(g <= n and reach[n - g] for g in gens)
    cond = max((n + 1 for n in range(bound + 1) if not reach[n]), default=0)
    small = frozenset((n,) for n in range(cond + 1) if reach[n])
    rep = SmallRep(1, (0,), (cond,), small)
    report = validate(rep, semigroup=True)
    if not report.passed:
        raise ValidationError(report)
    return rep


def node(r: int) -> SmallRep:
    """{0} union (e + N^r): the transversal-lines fixture.

    For r = 1 this is N itself and normalization shrinks the conductor to 0.
    """
    if r < 1:
        raise ValueError("dimension must be >= 1")
    e = ones(r)
    rep = from_small_elements(r, zero(r), e, {zero(r), e})
    report = validate(rep, semigroup=True)
    if not report.passed:
        raise ValidationError(report)
    return rep


def product(A: SmallRep, B: SmallRep) -> SmallRep:
    """Concatenation of coordinates; axioms verified post hoc, not assumed."""
    r = A.r + B.r
    small = frozenset(a + b for a in A.small for b in B.small)
    rep = SmallRep(r, A.m + B.m, A.c + B.c, small)
    report = validate(rep)
    if not report.passed:
        raise ValidationError(report)
    return rep


class _Box:
    """The box [m, c] as bit masks, laid out like ``ideal.Grid`` (the last
    axis fastest, so bit order is lexicographic order) but with no row below
    m, and holding a point set, which, unlike an ideal, has nothing past c.
    A point is held by its row offsets t = p - m.  Per axis k and row v,
    ``below[k][v]`` is the mask of the points with t_k < v, and ``eq``,
    ``ge`` and ``gt`` those with t_k = v, t_k >= v and t_k > v.  ``steps``
    holds the doubling steps of each axis, kept for the fiber tables
    (``ideal._closed_fibers``) of every round."""

    def __init__(self, m: Point, c: Point):
        self.m = m
        self.dims = dims = tuple(h - l + 1 for l, h in zip(m, c))
        self.strides = strides = _strides(dims)
        size = math.prod(dims)
        whole = (1 << size) - 1
        self.below, self.eq, self.ge, self.gt, self.steps = [], [], [], [], []
        for d, s in zip(dims, strides):
            starts = _repeat(1, d * s, size // (d * s))  # bit 0 of each k-line
            below = [((1 << v * s) - 1) * starts for v in range(d + 1)]
            self.below.append(below)
            self.eq.append([below[v + 1] ^ below[v] for v in range(d)])
            self.ge.append([whole ^ b for b in below[:d]])
            self.gt.append([whole ^ b for b in below[1:]])
            # the doubling steps of a suffix OR along k, as
            # ideal._doubling_steps gives them, with their keep masks
            # taken from below
            self.steps.append([(s << i, below[d - (1 << i)])
                               for i in range((d - 1).bit_length())])

    def index(self, p: Point) -> int:
        return sum((x - l) * s for x, l, s in zip(p, self.m, self.strides))

    def offsets(self, i: int) -> Point:
        return _point(i, (0,) * len(self.dims), self.strides)

    def fiber(self, mask: int, t: Point, J: int, closed: bool) -> int:
        """The points of mask equal to t on the axes of J and at least t
        (closed) or above t (open) on the others."""
        for k, v in enumerate(t):
            if not mask:
                break
            mask &= (self.eq if J >> k & 1 else self.ge if closed else self.gt)[k][v]
        return mask

    def shift(self, M: int, d: tuple[int, ...]) -> int:
        """T_d(M): every t of M sent to min(t + d, c - m), one axis at a
        time: rows move up d_k, and the top d_k + 1 rows, ORed together by
        doubling shifts, land on the top row."""
        for k, dk in enumerate(d):
            if dk:
                s, low = self.strides[k], self.dims[k] - 1 - dk
                fold, width = M, 1
                while width <= dk:
                    step = min(width, dk + 1 - width)
                    fold |= fold >> step * s
                    width += step
                M = (M & self.below[k][low] | fold & self.eq[k][low]) << dk * s
        return M


def _e2_repairs(box: _Box, M: int, T: list[int]) -> int:
    """The points the E2 step adds to M, as a mask, T the closed fibers of
    M (``ideal._closed_fibers``).

    A pair a < b of M that agrees exactly on K meets at t with a in the
    open (K | Ja)-fiber of t and b in the open (K | Jb)-fiber, Ja and Jb
    the axes of J = full ^ K where a and b equal t.  So the t with such a
    pair are ``pairs``, the OR over the unordered splits of J of the ANDs of
    open-table entries (the open J-fiber of t being the closed one at t + 1
    on the free axes, empty past c).  At k in K with t_k < c_k the pair
    demands a point of M in the closed J-fiber of x = t + e_k; the demands
    failing on M are ``pairs`` below the top row of k and off T[J] read at
    t + e_k (T[J] shifted down one row along k).

    Replayed in the order of the first point a of their first pair, a
    failing demand adds x iff its fiber holds none of the points added
    before it.  This is the pair loop's outcome: M only grows, so a demand
    that passes on M passes all along, and after its first occurrence a
    demand's fiber holds x or an earlier point.  The rest of the loop's
    order (b, then k) cannot matter, because two demands with the same a
    have the same x or each x outside the other's fiber: if
    x1 = t1 + e_k1 lies in the closed J2-fiber of x2 = t2 + e_k2, then at
    k2, where t2 equals a, x1_k2 >= a_k2 + 1, which t1 <= a allows only
    for k1 = k2; so t1 >= t2 = a on the rest of K2 and t1 = t2 on J2, and
    x1 = x2.  The a of a demand is found from masks: it is the least point
    of the closed K-fiber of t with a partner there, and having one depends
    only on the axes Z of J where the point equals t (the partner lies in
    the open (K | J ^ Z)-fiber of t), so whole patterns Z are dropped until
    the least point left has one.
    """
    r = len(box.dims)
    full = (1 << r) - 1
    O = list(T)  # open fibers
    for J in range(1, full):
        for k in range(r):
            if not J >> k & 1:
                O[J] = O[J] >> box.strides[k] & box.below[k][box.dims[k] - 1]
    demands = []
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
        failing, union = {}, 0
        for k in range(r):
            if K >> k & 1:
                F = pairs & box.below[k][box.dims[k] - 1] & ~(T[J] >> box.strides[k])
                if F:
                    failing[k] = F
                    union |= F
        for i in _bits(union):
            t = box.offsets(i)
            G = box.fiber(M, t, K, True)
            while True:
                a = (G & -G).bit_length() - 1
                Z = sum(1 << j for j, (u, v) in enumerate(zip(box.offsets(a), t))
                        if J >> j & 1 and u == v)
                if O[K | J ^ Z] >> i & 1:
                    break
                G &= ~box.fiber(-1, t, K | Z, False)
            demands += [(a, i + box.strides[k], J, t[:k] + (t[k] + 1,) + t[k + 1:])
                        for k, F in failing.items() if F >> i & 1]
    added = 0
    for _, bit, J, x in sorted(demands):
        if not box.fiber(added, x, J, True):
            added |= 1 << bit
    return added


def _closure_fixpoint(r: int, m: Point, c: Point, pts: set[Point],
                      S: SmallRep | None) -> set[Point]:
    """Grow pts inside [m, c] by rounds of three steps until a round adds
    nothing.  Every input point must lie in [m, c], as both callers ensure,
    and S, when given, is a semigroup (its small elements are >= 0).

    The set is one mask M over the box (``_Box``), decoded once at the end.
    With S, the top sub-box [min(m + c(S), c), c] is put in first, since
    c <= m + c(S) must hold.  Each round then runs:

    Meet: meet(a, b) over the pairs of the round's M.  t is meet(a, b)
    exactly when, for J the axes where a equals t, a lies in the closed
    J-fiber of t and b in the closed (full ^ J)-fiber, so M gains
    T[J] & T[full ^ J] over the splits of the axes, T the closed fibers
    (``ideal._closed_fibers``).

    Compatibility: for each small s of S in order, meet(s + p, c) over the
    p of M as it stands, M |= T_d(M).  As s >= 0 and p >= m, the k-th
    coordinate min(s_k + p_k, c_k) equals min(d_k + p_k, c_k) for
    d = min(s, c - m): both are c_k once s_k >= c_k - m_k.  So T_d depends
    on d alone and acts on each axis's rows apart (``_Box.shift``).  d = 0
    is the identity, and d = c - m sends every point to c, which is in M;
    both are skipped.

    E2: for each pair of M and axis k with a_k = b_k < c_k, the witness
    fiber is x = meet(a, b) + e_k pinned where a and b differ, and x is
    added when no point of M lies in it, in the order of the pairs and k
    (``_e2_repairs``).
    """
    box = _Box(m, c)
    M = 0
    for p in pts:
        M |= 1 << box.index(p)
    shifts = []
    if S is not None:
        base = tuple(min(x + y, z) for x, y, z in zip(m, S.c, c))
        M |= _box_mask(box.dims, tuple(z - b + 1 for b, z in zip(base, c))) << box.index(base)
        top = tuple(d - 1 for d in box.dims)
        for s in sorted(S.small):
            d = tuple(map(min, s, top))
            if any(d) and d != top:
                shifts.append(d)
    full = (1 << r) - 1
    prev = None
    while M != prev:
        prev = M
        T = _closed_fibers(M, box.steps)
        for J in range(1, full, 2):  # each split once, axis 0 in J
            M |= T[J] & T[full ^ J]
        for d in shifts:
            M |= box.shift(M, d)
        if M != prev:  # else the round's fibers are still M's
            T = _closed_fibers(M, box.steps)
        M |= _e2_repairs(box, M, T)
    return {_point(i, m, box.strides) for i in _bits(M)}


def random_good(S: SmallRep, seed: int, *, max_width: int = 4,
                samples: int = 6, offset: int = 2, retries: int = 20) -> SmallRep:
    """A seeded random good semigroup ideal E with S + E <= E.

    Sample points in a bounded box, close under meet, force compatibility,
    repair E2 with minimal witnesses, iterate to a fixpoint, then normalize and
    validate the axioms once (``from_small_elements``) and compatibility with
    S.  Deterministic per (S, seed, bounds).
    """
    r = S.r
    rng = random.Random(f"{seed}:{max_width}:{samples}:{offset}")
    last_report = None
    for _ in range(retries):
        m = tuple(rng.randint(-offset, offset) for _ in range(r))
        c = tuple(m[k] + rng.randint(0, max_width) for k in range(r))
        pts = {m, c}
        for _ in range(samples):
            pts.add(tuple(rng.randint(m[k], c[k]) for k in range(r)))
        pts = _closure_fixpoint(r, m, c, pts, S)
        try:
            rep = from_small_elements(r, m, c, pts)
        except ValidationError as err:
            last_report = err.report
            continue
        failure = _compatibility_failure(rep, S)
        if failure is None:
            return rep
        last_report = CheckReport("validate", False, "compatibility with S",
                                  counterexamples=[{"axiom": "compatibility", **failure}])
    raise GenerationError(
        f"no valid ideal after {retries} attempts (seed {seed}); "
        f"last failure: {last_report.summary() if last_report else 'none'}")
