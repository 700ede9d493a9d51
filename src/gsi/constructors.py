"""Builders for valid good semigroups and good semigroup ideals.

Every constructor normalizes its data (clip to the conductor, then shrink
the conductor of that provisional rep to the least one consistent with the
stored elements, through the same ``ideal._least_conductor`` that promotes
computed duals) and runs full axiom validation once before returning.  ``random_good`` first grows its
sample by rounds of meets, compatibility with S and E2 witnesses, each
witness a closed fiber looked up among the stored points.  All constructors
are deterministic given their inputs plus seed.
"""
from __future__ import annotations

import math
import random
from operator import le

from .errors import GenerationError, ValidationError
from .ideal import (
    SmallRep,
    _compatibility_failure,
    _e2_fiber,
    _least_conductor,
    validate,
)
from .lattice import Point, box_points, leq, meet, ones, vadd, zero
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


def _closure_fixpoint(r: int, m: Point, c: Point, pts: set[Point],
                      S: SmallRep | None) -> set[Point]:
    """Grow pts inside [m, c] by rounds of three steps until a round adds
    nothing.  Every input point must be <= c, as both callers ensure; each
    added point is a meet with such a point, so the set stays below c.

    Meet: meet(a, b) over the pairs of the round's sorted snapshot.
    Compatibility: for each small s of S in order, meet(s + p, c) over the
    set as it stands.  E2: for each pair of a fresh sorted snapshot and axis
    k with a_k = b_k < c_k (at c_k the rule supplies a witness), the witness
    fiber is x = meet(a, b) + e_k pinned where a and b differ
    (``ideal._e2_fiber``); below c it is the box [x, x on the pinned axes
    and c elsewhere], and x is added when no stored point lies in it.
    """
    if S is not None:
        # c <= m + c(S) must hold, so the top sub-box is forced in.
        base = meet(vadd(m, S.c), c)
        pts.update(box_points(base, c))

    size = None
    while size != len(pts):
        size = len(pts)
        snap = sorted(pts)
        pts.update(meet(a, b) for i, a in enumerate(snap) for b in snap[i + 1:])
        if S is not None:
            for s in sorted(S.small):
                pts.update([meet(vadd(s, p), c) for p in pts])
        snap = sorted(pts)
        for i, a in enumerate(snap):
            for b in snap[i + 1:]:
                for k in range(r):
                    if a[k] == b[k] < c[k]:
                        x, J = _e2_fiber(a, b, k)
                        if x in pts:
                            continue
                        hi = tuple(v if J >> j & 1 else cj
                                   for j, (v, cj) in enumerate(zip(x, c)))
                        if not any(all(map(le, x, g)) and all(map(le, g, hi))
                                   for g in pts):
                            pts.add(x)
    return pts


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
