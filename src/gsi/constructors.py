"""Builders for valid good semigroups and good semigroup ideals.

Every constructor normalizes its data (clip to the conductor, then shrink
the conductor of that provisional rep to the least one consistent with the
stored elements, through ``ideal._least_conductor``, which serves parsed
and drawn data only) and certifies the axioms once before returning,
through the report-free kernel ``ideal._axiom_failure`` (``_certified``):
``validate``'s report is built only for the ValidationError of a rep that
fails.
``random_good`` draws once: it grows its sample by rounds of meets,
compatibility with S and E2 witnesses on one bit mask of its box
(``_closure_fixpoint``), each step a few shifts, ANDs and ORs of masks, and
decodes the mask once for ``from_small_elements``.  Its row masks and
moves come from the row family of its box (``ideal.Rows``), the one every
ideal's grid has too, and its fiber tables, meets and E2 demands are
built and read by the code the axiom kernel uses (``ideal._fibers``,
``ideal._meets`` and ``ideal._failing_demands``).
That fixpoint is always a good ideal compatible with S (the proof is in
``_closure_fixpoint``), so the draw needs no retry.  All constructors are
deterministic given their inputs plus seed.
"""
from __future__ import annotations

import math
import random
from operator import gt

from .errors import SoundnessError, ValidationError
from .ideal import (
    Layout,
    Rows,
    SmallRep,
    _axiom_failure,
    _bits,
    _box_mask,
    _compatibility_failure,
    _failing_demands,
    _fibers,
    _least_conductor,
    _meets,
    _semigroup_failure,
    validate,
)
from .lattice import Point, check_same_dim, leq, meet, ones, zero


def from_small_elements(r: int, m: Point, c: Point, elems) -> SmallRep:
    """Normalize raw small-element data and validate it once.

    One set of the points' lengths checks their dimension; when it holds
    another than c's, the first such point in ``elems`` is named.  Points
    are clipped by meet with the conductor, a step taken only when some
    column's maximum exceeds c.  Either way their set is built in
    ``elems``' order, which names the first point below m.
    ``_least_conductor`` shrinks their provisional rep on [m, c] to the
    least conductor the data supports; when it finds none, it keeps the rep
    and validation judges.  Raises ValidationError carrying the failing
    axiom otherwise.
    """
    elems = list(elems)
    if set(map(len, elems)) - {len(c)}:
        for p in elems:
            check_same_dim(p, c)  # raises at the first point of another dimension
    if any(map(gt, map(max, zip(*elems)), c)):
        pts = {tuple(map(min, p, c)) for p in elems}
    else:
        pts = set(map(tuple, elems))  # added one by one, as the clip adds them
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
    return _certified(_least_conductor(SmallRep(r, m, c, frozenset(pts))))


def _certified(rep: SmallRep, semigroup: bool = False) -> SmallRep:
    """rep, once ``ideal._axiom_failure`` finds no failing axiom; else
    ValidationError carrying ``validate``'s report, which is built only
    then."""
    if _axiom_failure(rep, semigroup=semigroup) is not None:
        raise ValidationError(validate(rep, semigroup=semigroup))
    return rep


def _semigroup(E: SmallRep) -> SmallRep:
    """E, an ideal whose axioms are certified, once 0 in E and E + E <= E
    hold as well (``ideal._semigroup_failure``); else ValidationError
    carrying ``validate(E, semigroup=True)``'s report, which is built only
    then and names the same failure, as E's ideal axioms hold."""
    if _semigroup_failure(E) is not None:
        raise ValidationError(validate(E, semigroup=True))
    return E


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
    return _certified(SmallRep(1, (0,), (cond,), small), semigroup=True)


def node(r: int) -> SmallRep:
    """{0} union (e + N^r): the transversal-lines fixture.

    For r = 1 this is N itself and normalization shrinks the conductor to 0.
    """
    if r < 1:
        raise ValueError("dimension must be >= 1")
    e = ones(r)
    return _semigroup(from_small_elements(r, zero(r), e, {zero(r), e}))


def product(A: SmallRep, B: SmallRep) -> SmallRep:
    """Concatenation of coordinates; axioms verified post hoc, not assumed."""
    r = A.r + B.r
    small = frozenset(a + b for a in A.small for b in B.small)
    return _certified(SmallRep(r, A.m + B.m, A.c + B.c, small))


def _e2_repairs(rows: Rows, M: int, T: list[int], O: list[int]) -> int:
    """The points the E2 step adds to M, as a mask over the draw box [m, c]
    of ``rows`` (``ideal.Rows``), T and O the closed and open fibers of M
    (``ideal._fibers``).

    A pair of M that agrees exactly on K and meets at t demands, at k in K
    with t_k < c_k, a point of M in the closed J-fiber of x = t + e_k,
    J = full ^ K; ``ideal._failing_demands`` gives those failing on M, read
    off T and O over the box.

    The box, unlike an ideal's grid, has no row m - e; its bit order is
    lexicographic order all the same, so the replay below, keyed by bits,
    runs in the order of the points.  O keeps the top row of each free
    axis, as on an ideal's grid, though M has nothing past c.  Where t is
    below the top row on every axis of J, the two rules read the same
    bits.  At a t on the top row of an axis j
    of J, O shows pairs whose points both sit at c_j, so they agree on
    K | e_j.  In the box, the closed J-fiber of x equals the closed
    (J ^ e_j)-fiber, as x_j = c_j, and O's entries at t equal those with j
    pinned, so K's pairs and failing demands at t are among those of
    K | e_j; over every such axis, they repeat demands of a larger K whose
    t is below the top row on every axis of its J.  A repeat would find x
    or an earlier point in the same fiber and add nothing, at the cost of
    a key search, so the replay keeps only the meets below the top row on
    every axis of J: the demands of open fibers empty past c.

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
    _, dims, strides = rows.layout
    offsets = Layout(zero(len(dims)), dims, strides)  # bits read as row offsets t
    full = len(T) - 1
    demands = []
    for K, union, failing in _failing_demands(T, O, rows):
        J = full ^ K
        for j in _bits(J):  # the meets on the top row of j repeat demands of K | e_j
            union &= rows.top[j]
        for i in _bits(union):
            t = offsets.point(i)
            G = rows.fiber(M, t, K, True)
            while True:
                a = (G & -G).bit_length() - 1
                Z = sum(1 << j for j, (u, v) in enumerate(zip(offsets.point(a), t))
                        if J >> j & 1 and u == v)
                if O[K | J ^ Z] >> i & 1:
                    break
                G &= ~rows.fiber(-1, t, K | Z, False)
            demands += [(a, i + strides[k], J, t[:k] + (t[k] + 1,) + t[k + 1:])
                        for k, F in failing.items() if F >> i & 1]
    added = 0
    for _, bit, J, x in sorted(demands):
        if not rows.fiber(added, x, J, True):
            added |= 1 << bit
    return added


def _closure_fixpoint(r: int, m: Point, c: Point, pts: set[Point],
                      S: SmallRep | None) -> set[Point]:
    """Grow pts inside [m, c] by rounds of three steps until a round adds
    nothing.  Every input point must lie in [m, c], as its one caller
    ``random_good`` ensures, and S, when given, is a semigroup (its small
    elements are >= 0).

    The set is one mask M over the box, decoded once at the end; its row
    masks are those of the box's row family (``ideal.Rows``), every row and
    each axis's suffix-OR steps for the up-moves built once per call.
    With S, the top sub-box [min(m + c(S), c), c] is put in first, since
    c <= m + c(S) must hold.  Each round then runs:

    Meet: meet(a, b) over the pairs of the round's M.  t is meet(a, b)
    exactly when, for J the axes where a equals t, a lies in the closed
    J-fiber of t and b in the closed (full ^ J)-fiber, so M gains
    T[J] & T[full ^ J] over the splits of the axes (``ideal._meets``), T
    the closed fibers (``ideal._fibers``).

    Compatibility: for each small s of S in order, meet(s + p, c) over the
    p of M as it stands, M |= T_d(M).  As s >= 0 and p >= m, the k-th
    coordinate min(s_k + p_k, c_k) equals min(d_k + p_k, c_k) for
    d = min(s, c - m): both are c_k once s_k >= c_k - m_k.  So T_d depends
    on d alone and acts on each axis's rows apart (``Rows.shift``).  d = 0
    is the identity, and d = c - m sends every point to c, which is in M;
    both are skipped.

    E2: for each pair of M and axis k with a_k = b_k < c_k, the witness
    fiber is x = meet(a, b) + e_k pinned where a and b differ, and x is
    added when no point of M lies in it, in the order of the pairs and k
    (``_e2_repairs``, on M's two fiber tables from ``ideal._fibers``).

    The fixpoint P, read by the membership rule, is a good ideal, and with
    S one compatible with S.  Call h a candidate when [h, c] lies in P, and
    let g be the meet of the candidates.

    1. Candidates are meet-closed: a point q of [meet(h1, h2), c] is
       meet(join(q, h1), join(q, h2)), a meet of two points of P.  So g is
       a candidate, and it is the end of the runs down from c that
       ``ideal._least_conductor`` walks: each run end, pinned into c, is a
       candidate, and every candidate lies above all of them.
    2. Step: if p is in P and g_k <= p_k < c_k, then p + e_k is in P.  For
       p >= g this is [g, c] in P.  Otherwise v = join(p, g) is in P and
       equals p exactly on the axes A where p_j >= g_j, k among them.  The
       E2 demand of (p, v) at k gives w in P equal to p off A and at least
       p + e_k on A, and meet(w, join(p + e_k, g)) = p + e_k.
    3. So a q of [m, c] is in P iff meet(q, g) is: one way by meets with g,
       the other by steps up from meet(q, g) to q.  The rule
       q in E <=> meet(q, g) in P agrees with P on [m, c], and
       ``_least_conductor`` returns g.  g - e_i is not in P, as the run
       along i stopped at the point c - (c_i - g_i + 1) e_i, whose meet with
       g it is (or it lies below m), so g is the least conductor.
    4. E1 holds as P is meet-closed.  For E2, take points a, b of P below g
       that agree at i, and x = meet(a, b) + e_i.  If a_i < g_i, the
       demand's witness w in P clamps to meet(w, g), which lies in the
       closed fiber of x = meet(x, g); else meet(x, g) = meet(a, b), in P.
    5. The top box is in P, so g <= min(m + c(S), c).  For s in S and p in
       E, let s' = meet(s, c(S)) and p' = meet(p, c), in P by 3.  Then
       meet(s + p, g) = meet(min(s' + p', c), g), since on an axis where
       s or p was clamped both sides are g_k (s' >= 0, p' >= m).  The shift
       by min(s', c - m) put min(s' + p', c) in P, so s + p is in E.

    So ``from_small_elements`` accepts P and ``_compatibility_failure``
    finds nothing, and ``random_good`` needs no second draw.
    """
    rows = Rows(Layout.of(m, c))
    layout = rows.layout
    steps = [list(rows.steps(k)) for k in range(r)]
    M = 0
    for p in pts:
        M |= 1 << layout.index(p)
    shifts = []
    if S is not None:
        base = tuple(min(x + y, z) for x, y, z in zip(m, S.c, c))
        sub = tuple(z - b + 1 for b, z in zip(base, c))
        M |= _box_mask(layout.dims, sub) << layout.index(base)
        top = tuple(d - 1 for d in layout.dims)
        for s in sorted(S.small):
            d = tuple(map(min, s, top))
            if any(d) and d != top:
                shifts.append(d)
    prev = None
    while M != prev:
        prev = M
        T = _fibers(rows, M)
        M |= _meets(T)
        for d in shifts:
            M |= rows.shift(M, d, steps)
        if M != prev:  # else the round's fibers are still M's
            T = _fibers(rows, M)
        M |= _e2_repairs(rows, M, T, _fibers(rows, M, True))
    return set(layout.points(M))


_OFFSET = 2  # each coordinate of the box minimum is drawn from [-_OFFSET, _OFFSET]


def random_good(S: SmallRep, seed: int, *, max_width: int = 4,
                samples: int = 6) -> SmallRep:
    """A seeded random good semigroup ideal E with S + E <= E.

    Draw m, c and ``samples`` points of the box [m, c], grow them to the
    fixpoint of ``_closure_fixpoint``, then normalize and validate the
    axioms once (``from_small_elements``).  The fixpoint is a good ideal
    compatible with S, as its docstring proves, so the draw never fails:
    validation and the compatibility test are postconditions, and a failure
    of either raises SoundnessError.  Deterministic per (S, seed, bounds).
    """
    r = S.r
    rng = random.Random(f"{seed}:{max_width}:{samples}:{_OFFSET}")
    m = tuple(rng.randint(-_OFFSET, _OFFSET) for _ in range(r))
    c = tuple(m[k] + rng.randint(0, max_width) for k in range(r))
    pts = {m, c}
    for _ in range(samples):
        pts.add(tuple(rng.randint(m[k], c[k]) for k in range(r)))
    pts = _closure_fixpoint(r, m, c, pts, S)
    try:
        rep = from_small_elements(r, m, c, pts)
    except ValidationError as err:
        raise SoundnessError(f"random_good draw {seed} is not a good ideal: {err}") from err
    failure = _compatibility_failure(rep, S)
    if failure is not None:
        raise SoundnessError(f"random_good draw {seed} is not compatible with S: {failure}")
    return rep
