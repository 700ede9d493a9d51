"""The bit-grid kernel against the point-by-point code it replaced.

The references below are the former implementations, copied verbatim: the
point-by-point ``members`` they all enumerate with, the box sweeps of
``validate`` (its E2 witness search included), of the compatibility test and
of ``check_sum``, the per-point quantifier of ``cd_difference``, the
per-point length and rho sweeps, the per-point ``fiber_empty`` sweeps of
``fiber_dual`` and of ``canonical_ideal`` on its former search box, face
test included, the two fiber-table routines that
``ideal._fibers`` replaced, the structural loop of
``from_small_elements``, the per-row recursion of ``_window``, the
``members`` scan of ``search_member``, the point-set reads of the fiber
dual in the fibra and duality checks and in ``is_canonical``, the mask-path
``validate`` that sorted its small elements first, and the promotion of a
dual on the box [lo, U + e] with its top row, the open table and mask E1/E2
test that stepped entries with ``SmallRep.up``, the doubling loop of the
up-move ``Rows.shift`` that the suffix OR of ``Rows.steps`` replaced, the
dual box of ``duality._dual_box``, and the quotient of ``cd_difference`` on
[m_J - c_I, U] with its capped fold over the top class of EI, the
per-point loop of ``SmallRep.grid``, the window comparisons of ``equals``
and ``is_subset`` on reps of one layout, and the per-member loop of
``_sum_failure``, and ``validate`` as it was before its report-free
kernel ``_axiom_failure`` was split off.  The fast
paths must give the same reports, regions and first counterexamples, byte
for byte.
"""
import collections
import functools
import itertools
import json
import math
import operator
import random
from dataclasses import replace
from functools import reduce
from operator import or_

import pytest
from conftest import TABLES

import gsi.ideal as ideal_module
import gsi.theorems as theorems
from gsi.constructors import from_small_elements, node, numerical, product, random_good
from gsi.duality import (
    _fiber_region,
    _promote_region,
    canonical_ideal,
    cd_difference,
    fiber_dual,
    is_canonical,
)
from gsi.errors import (
    DimensionMismatch,
    GsiError,
    SoundnessError,
    ValidationError,
)
from gsi.fiber import fiber_empty, fiber_witness, maximals, p_value, q_value
from gsi.gsi_format import parse_gsi
from gsi.ideal import (
    Layout,
    RegionSet,
    Rows,
    SmallRep,
    Tables,
    _axiom_failure,
    _bits,
    _box_mask,
    _compatibility_failure,
    _decision_box,
    _e2_fiber,
    _fibers,
    _in_fiber,
    _least_conductor,
    _pairs_good,
    _quotient,
    _reflected,
    _repeat,
    _require_same_r,
    _reversed_bits,
    _semigroup_failure,
    _split_pairs,
    _sum_failure,
    _window,
    equals,
    frobenius,
    is_subset,
    members,
    search_member,
    translate,
    validate,
)
from gsi.lattice import (
    Box,
    Point,
    box_points,
    join,
    leq,
    meet,
    ones,
    unit_vector,
    vadd,
    vsub,
    zero,
)
from gsi.oracle import materialize
from gsi.report import CheckReport, pt
from gsi.theorems import (
    _CheckContext,
    _sweep_box,
    check_duality,
    check_fibra,
    check_length_pairing,
    check_rho,
    check_sum,
    length_step,
    rho,
)


def _dual_box(EJ: SmallRep, EI: SmallRep) -> tuple[Point, Point, Point]:
    """The former ``duality._dual_box``, kept verbatim for the references
    below: [m_J - c_I, U + e] with U = c_J - m_I."""
    e = ones(EJ.r)
    lo = vsub(EJ.m, EI.c)
    U = vsub(EJ.c, EI.m)
    hi = vadd(U, e)
    return lo, hi, U


def _old_e2_witness_ranges(a: Point, b: Point, i: int, c: Point) -> list[tuple[int, int]]:
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


def _old_search_member(E: SmallRep, ranges: list[tuple[int, int]]) -> Point | None:
    """First member of E (lexicographically) in the product of closed ranges."""
    lo = tuple(a for a, _ in ranges)
    hi = tuple(b for _, b in ranges)
    for p in box_points(lo, hi):
        if E.contains(p):
            return p
    return None


def _old_members(E: SmallRep, lo: Point, hi: Point) -> list[Point]:
    """Members of E inside [lo, hi], in lexicographic order."""
    return [p for p in box_points(lo, hi) if E.contains(p)]


def _old_compatibility_failure(E: SmallRep, S: SmallRep,
                               mem: list[Point] | None = None) -> dict | None:
    """The first violation of S + E <= E as report data, or None.

    E and S must have the same dimension; ``mem`` is E's members over
    [m, c + e] when the caller already has them.  S + E <= E forces
    c <= m + c(S); checking it first makes the box quantifier exhaustive.
    """
    e = ones(E.r)
    bound = vadd(E.m, S.c)
    if not leq(E.c, bound):
        return {"reason": "conductor exceeds min + c(S)",
                "conductor": pt(E.c), "bound": pt(bound)}
    if mem is None:
        mem = _old_members(E, E.m, vadd(E.c, e))
    for s in _old_members(S, S.m, vadd(S.c, e)):
        for p in mem:
            q = vadd(s, p)
            if not E.contains(q):
                return {"s": pt(s), "p": pt(p), "sum": pt(q)}
    return None


def _old_validate(E: SmallRep, S: SmallRep | None = None, *, semigroup: bool = False) -> CheckReport:
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

    mem = _old_members(E, E.m, hi)

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
                w = _old_search_member(E, _old_e2_witness_ranges(a, b, i, E.c))
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
        failure = _old_compatibility_failure(E, S, mem)
        if failure is not None:
            return fail("compatibility", **failure)

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


def _old_report_validate(E: SmallRep, S: SmallRep | None = None, *,
                          semigroup: bool = False) -> CheckReport:
    """Check the good-semigroup-ideal axioms on the finite box [m, c + e].

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
    sort the small elements.  With S given, compatibility S + E <= E is
    checked over boxes; with ``semigroup``, 0 in E and E + E <= E are checked
    as well.  The first failing axiom is reported with its violating pair.
    """
    r = E.r
    universe = f"axiom box [{list(E.m)}, {[x + 1 for x in E.c]}]"
    rep = CheckReport("validate", True, universe)

    def fail(axiom: str, **data) -> CheckReport:
        rep.passed = False
        rep.counterexamples.append({"axiom": axiom, **data})
        return rep

    # Structural part: reported as its own failure class, not an axiom.
    cols = list(zip(*E.small))
    bounded = tuple(map(min, cols)) == E.m and tuple(map(max, cols)) == E.c
    if not bounded and not leq(E.m, E.c):
        return fail("structural", reason="min exceeds conductor",
                    min=pt(E.m), conductor=pt(E.c))
    if E.m not in E.small:
        return fail("structural", reason="min not among small elements", min=pt(E.m))
    if E.c not in E.small:
        return fail("structural", reason="conductor not among small elements",
                    conductor=pt(E.c))
    if not bounded:
        for p in sorted(E.small):
            if not (leq(E.m, p) and leq(p, E.c)):
                return fail("structural", reason="small element outside [min, conductor]",
                            point=pt(p))

    # E1 and E2 on the masks when the grid has at most as many points as
    # there are pairs; the pair loops run otherwise, or to name the first
    # failing pair.
    n = len(E.small)
    volume = math.prod(c - m + 2 for m, c in zip(E.m, E.c))
    if volume > n * n or not _pairs_good(E):
        small = sorted(E.small)
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
    # membership of that single point decides it, and as it lies below c,
    # membership is being a small element.
    c = E.c
    for i in range(r):
        down = c[:i] + (c[i] - 1,) + c[i + 1:]
        if down in E.small:
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


def _old_sorted_validate(E: SmallRep, S: SmallRep | None = None, *,
                         semigroup: bool = False) -> CheckReport:
    """The former mask-path ``validate``: it sorted the small elements
    first, tested m <= c and walked the sorted elements whenever the
    per-axis bounds failed, and read conductor minimality through
    ``contains``."""
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


def _old_check_sum(EJ: SmallRep, EI: SmallRep, D: SmallRep | None = None) -> CheckReport:
    """beta in D and alpha in EI always sum into EJ (sum rule)."""
    if D is None:
        D = cd_difference(EJ, EI)
    e = ones(EJ.r)
    rep = CheckReport(
        "sum", True,
        f"alpha in EI over [{list(EI.m)}, {list(vadd(EI.c, e))}], "
        f"beta in D over [{list(D.m)}, {list(vadd(D.c, e))}]")
    al = _old_members(EI, EI.m, vadd(EI.c, e))
    for beta in _old_members(D, D.m, vadd(D.c, e)):
        for a in al:
            s = vadd(beta, a)
            if not EJ.contains(s):
                rep.passed = False
                rep.counterexamples.append(
                    {"beta": pt(beta), "alpha": pt(a), "sum": pt(s)})
                return rep
    return rep


def _old_promote_region(r: int, points: set[Point], hi: Point,
                        U: Point) -> tuple[SmallRep | None, str | None]:
    """Try to read a bounded point set as the box window of a good ideal.

    Requires a minimum m and the point U (everything from U up is known to
    belong), then normalises the points on [m, hi], hi the box top, with
    ``_least_conductor`` and validates the axioms; below m the region and
    its membership rule are both empty.  Any miss returns a reason instead.
    """
    if not points:
        return None, "empty region"
    m = tuple(map(min, zip(*points)))
    if m not in points:
        return None, f"no minimum: meet of region is {m}, not a region point"
    if U not in points:
        return None, f"expected conducting point {U} missing"
    rep = _least_conductor(SmallRep(r, m, hi, frozenset(points)))
    if isinstance(rep, str):
        return None, rep
    report = _old_sorted_validate(rep)
    if not report.passed:
        return None, f"axiom validation failed: {report.summary()}"
    return rep, None


# The former mask paths of cd_difference and fiber_dual, kept verbatim but
# for the promotion they call: the quotient ran on [lo, U + e] and the whole
# fiber region was promoted, both with top U + e.  The quotient is now the
# one of today, on [c_J - c_I, U + e], so that only the promotion differs.
def _old_full_box_cd_difference(EJ: SmallRep, EI: SmallRep) -> SmallRep:
    """The good ideal D = {beta : beta + EI <= EJ} (value-set ideal quotient)."""
    _require_same_r(EJ, EI)
    _, hi, U = _dual_box(EJ, EI)
    points = _quotient(EJ, EI, vsub(EJ.c, EI.c), hi)
    rep, failure = _old_promote_region(EJ.r, points, hi, U)
    if rep is None:
        raise SoundnessError(f"cd_difference result is not a good ideal: {failure}")
    return rep


def _old_full_box_fiber_dual(EJ: SmallRep, EI: SmallRep) -> tuple:
    """{beta : F(EI, frobenius(EJ) - beta) = empty} over the dual box.

    Goodness of this set is not guaranteed for non-canonical EJ, so the raw
    region is returned with the outcome of a promotion attempt.
    """
    _require_same_r(EJ, EI)
    lo, hi, region = _fiber_region(EJ, EI)
    points = set(Layout.of(lo, hi).points(region))
    rep, failure = _old_promote_region(EJ.r, points, hi, vsub(hi, ones(EJ.r)))
    return EJ.r, Box(lo, hi), frozenset(points), rep, failure


def _old_cd_difference(EJ: SmallRep, EI: SmallRep) -> SmallRep:
    """The good ideal D = {beta : beta + EI <= EJ} (value-set ideal quotient)."""
    e = ones(EJ.r)
    lo, hi, U = _dual_box(EJ, EI)
    # superset of every per-beta quantifier cap K(beta); quantifying over the
    # larger window is equivalent by the cap argument
    kmax = vadd(join(EI.c, vsub(EJ.c, lo)), e)
    alphas = _old_members(EI, EI.m, kmax)
    points = set()
    for beta in box_points(lo, hi):
        if all(EJ.contains(vadd(beta, a)) for a in alphas):
            points.add(beta)
    rep, failure = _old_promote_region(EJ.r, points, hi, U)
    if rep is None:
        raise SoundnessError(f"cd_difference result is not a good ideal: {failure}")
    return rep


def _old_check_length_pairing(EJ: SmallRep, EI: SmallRep,
                              D: SmallRep | None = None) -> CheckReport:
    """Length pairing: the two one-step lengths at complementary points never
    both fire, and they complement exactly when EJ is canonical.

    For every alpha in the sweep box, with beta = c(EJ) - alpha and every i:
    step(EI, alpha, i) + step(D, beta - e_i, i) <= 1.  The
    ``equality_everywhere`` flag records whether the sum is 1 throughout.
    """
    if D is None:
        D = cd_difference(EJ, EI)
    r = EJ.r
    lo, hi = _sweep_box(EI, D, EJ.c, 2)
    rep = CheckReport("length", True,
                      f"alpha over [{list(lo)}, {list(hi)}], i in 1..{r}")
    equality = True
    for alpha in box_points(lo, hi):
        beta = vsub(EJ.c, alpha)
        for i in range(1, r + 1):
            ei = tuple(1 if k == i - 1 else 0 for k in range(r))
            a = length_step(EI, alpha, i)
            b = length_step(D, vsub(beta, ei), i)
            if a + b > 1:
                rep.passed = False
                rep.counterexamples.append(
                    {"alpha": pt(alpha), "beta": pt(beta), "i": i,
                     "lhs": a, "rhs": b})
                return rep
            if a + b == 0 and equality:
                equality = False
                rep.witnesses.append(
                    {"alpha": pt(alpha), "i": i, "note": "equality gap"})
    rep.flags["equality_everywhere"] = equality
    return rep


def _old_check_rho(ctx: _CheckContext, EI: SmallRep, EJ: SmallRep,
                   S: SmallRep | None = None) -> CheckReport:
    D = ctx.dual(EJ, EI)
    r = EJ.r
    lo, hi = _sweep_box(EI, D, frobenius(EJ), 2)
    rep = CheckReport("rho", True, f"alpha over [{list(lo)}, {list(hi)}]")
    equality = True
    for alpha in box_points(lo, hi):
        val = rho(EI, EJ, alpha, D)
        if val < r:
            rep.passed = False
            rep.counterexamples.append({"alpha": pt(alpha), "rho": val, "r": r})
            return rep
        if val > r and equality:
            equality = False
            rep.witnesses.append({"alpha": pt(alpha), "rho": val,
                                  "note": "strictly above r"})
    rep.flags["equality_everywhere"] = equality
    if S is not None:
        rep.flags["ej_canonical"] = ctx.is_canonical(EJ, S)
    return rep


def _old_box_check_length_pairing(EJ: SmallRep, EI: SmallRep,
                                  D: SmallRep | None = None) -> CheckReport:
    """Length pairing: the two one-step lengths at complementary points never
    both fire, and they complement exactly when EJ is canonical.

    For every alpha in the sweep box, with beta = c(EJ) - alpha and every i:
    step(EI, alpha, i) + step(D, beta - e_i, i) <= 1.  The
    ``equality_everywhere`` flag records whether the sum is 1 throughout.
    Per i, the EI side is EI's closed {i} window over the box and the D side
    D's closed {i} window over c(EJ) - e_i - box, reversed; the first
    (alpha, i) in sweep order is the least (point, i) of their AND, and the
    first equality gap the least of their NOR.
    """
    if D is None:
        D = cd_difference(EJ, EI)
    r = EJ.r
    lo, hi = _sweep_box(EI, D, EJ.c, 2)
    rep = CheckReport("length", True,
                      f"alpha over [{list(lo)}, {list(hi)}], i in 1..{r}")
    layout = Layout.of(lo, hi)
    box = layout.whole
    both, neither = [], []
    for k in range(r):
        a = _window(EI, lo, hi, EI.tables.fiber_table[1 << k])
        b = _reflected(D, vsub(EJ.c, unit_vector(r, [k + 1])), lo, hi,
                       D.tables.fiber_table[1 << k])
        both.append(a & b)
        neither.append(box & ~(a | b))
    bad, gap = _old_first(layout, both), _old_first(layout, neither)
    if gap is not None and (bad is None or gap < bad):
        rep.witnesses.append({"alpha": pt(gap[0]), "i": gap[1] + 1,
                              "note": "equality gap"})
    if bad is not None:
        alpha = bad[0]
        rep.passed = False
        rep.counterexamples.append(
            {"alpha": pt(alpha), "beta": pt(vsub(EJ.c, alpha)), "i": bad[1] + 1,
             "lhs": 1, "rhs": 1})
        return rep
    rep.flags["equality_everywhere"] = gap is None
    return rep


def _old_first(layout: Layout, masks: list[int]) -> tuple[Point, int] | None:
    """The least (point, index) over the set bits of the masks in a layout,
    None if none: the lowest bits m & -m order as their points do."""
    first = min(((m & -m, i) for i, m in enumerate(masks) if m), default=None)
    return None if first is None else (layout.lowest(first[0]), first[1])


def _old_box_check_rho(ctx: _CheckContext, EI: SmallRep, EJ: SmallRep,
                       S: SmallRep | None = None) -> CheckReport:
    """rho >= r on a full sweep; equality everywhere is the canonicity flag.

    Cross-references is_canonical(EJ, S) when a semigroup context is
    supplied.  The sweep runs on masks over the box, indexed like it.
    With f = frobenius(EJ), A_k (p < k at alpha) is the window of EI's layer
    P[k] over the box, and B_k (q <= k at f - alpha) the window of D's layer
    Q[k] over f - box, reversed; A_{r+1} and B_{r+1} are the whole box.
    rho < r is the OR over a < r of A_{a+1} & B_{r-a}, rho > r the
    complement of the OR over a <= r of A_{a+1} & B_{r+1-a}, and rho itself
    is evaluated only where reported.
    """
    D = ctx.dual(EJ, EI)
    r = EJ.r
    f = frobenius(EJ)
    lo, hi = _sweep_box(EI, D, f, 2)
    rep = CheckReport("rho", True, f"alpha over [{list(lo)}, {list(hi)}]")
    layout = Layout.of(lo, hi)
    box = layout.whole
    P, Q = EI.tables.fiber_layers[0], D.tables.fiber_layers[1]
    ks = range(1, r + 1)
    # the layers of successive k often hold one mask: window each once
    Pw = {mask: _window(EI, lo, hi, mask) for mask in {P[k] for k in ks}}
    Qw = {mask: _reflected(D, f, lo, hi, mask) for mask in {Q[k] for k in ks}}
    A = [0, *(Pw[P[k]] for k in ks), box]
    B = [box, *(Qw[Q[k]] for k in ks), box]
    below = _old_first(layout, [reduce(or_, (A[a + 1] & B[r - a] for a in range(r)))])
    above = _old_first(layout, [box & ~reduce(or_, (A[a + 1] & B[r + 1 - a]
                                                    for a in range(r + 1)))])
    if above is not None and (below is None or above < below):
        alpha = above[0]
        rep.witnesses.append({"alpha": pt(alpha), "rho": rho(EI, EJ, alpha, D),
                              "note": "strictly above r"})
    if below is not None:
        alpha = below[0]
        rep.passed = False
        rep.counterexamples.append({"alpha": pt(alpha), "rho": rho(EI, EJ, alpha, D),
                                    "r": r})
        return rep
    rep.flags["equality_everywhere"] = above is None
    if S is not None:
        rep.flags["ej_canonical"] = ctx.is_canonical(EJ, S)
    return rep


def _old_fiber_dual(EJ: SmallRep, EI: SmallRep) -> tuple:
    """{beta : F(EI, frobenius(EJ) - beta) = empty} over the dual box.

    Goodness of this set is not guaranteed for non-canonical EJ, so the raw
    region is returned with the outcome of a promotion attempt.
    """
    lo, hi, U = _dual_box(EJ, EI)
    f = frobenius(EJ)
    points = {beta for beta in box_points(lo, hi)
              if fiber_empty(EI, vsub(f, beta))}
    rep, failure = _old_promote_region(EJ.r, points, hi, U)
    return EJ.r, Box(lo, hi), frozenset(points), rep, failure


def _former_fiber_dual(region: tuple):
    """What ``_outcome(fiber_dual, ...)`` gives for a former fiber dual, the
    fields (r, box, points, promoted, failure) of its RegionSet: the region
    with its promotion, or the SoundnessError that carries the failure."""
    r, box, points, rep, failure = region
    if rep is None:
        return SoundnessError, f"fiber dual is not a good ideal: {failure}"
    return RegionSet(r, box, points, rep)


class BoundaryInstabilityError(GsiError, RuntimeError):
    """The former error of a member on the face of the canonical search box,
    kept for ``_old_canonical_ideal``; the package no longer has it."""


def _old_canonical_ideal(S: SmallRep) -> SmallRep:
    """The canonical ideal {alpha : F(S, frobenius(S) - alpha) = empty}.

    Postconditions are asserted: the Frobenius vector is preserved, S is
    contained in the result, and the result, validated on promotion, is
    compatible with S.
    """
    if not S.contains(zero(S.r)):
        raise ValueError("canonical ideal needs a good semigroup (0 missing)")
    e = ones(S.r)
    span = vsub(S.c, S.m)
    lo = vsub(vsub(S.m, span), e)
    hi = S.c
    f = frobenius(S)
    points = {a for a in box_points(lo, hi) if fiber_empty(S, vsub(f, a))}
    for p in points:
        if any(x == l for x, l in zip(p, lo)):
            raise BoundaryInstabilityError(
                f"canonical-ideal member {p} touches the search-box face at {lo}")
    rep, failure = _old_promote_region(S.r, points, hi, S.c)
    if rep is None:
        raise SoundnessError(f"canonical ideal is not a good ideal: {failure}")
    if frobenius(rep) != f:
        raise SoundnessError(
            f"canonical ideal changed the Frobenius vector: {frobenius(rep)} != {f}")
    if not is_subset(S, rep):
        raise SoundnessError("canonical ideal does not contain the semigroup")
    failure = _compatibility_failure(rep, S)
    if failure is not None:
        raise SoundnessError(f"canonical ideal is not an ideal of S: {failure}")
    return rep


def _semigroups() -> dict[str, SmallRep]:
    n2, n1 = numerical([2, 3]), numerical([3, 4, 5])
    return {
        "n1": n1, "n2": n2, "n57": numerical([5, 7]),
        "node2": node(2), "node3": node(3), "prod22": product(n2, n2),
        "n1xn2": product(n1, n2), "n2xnode2": product(n2, node(2)),
    }


def _meet_closure(pts: set[Point]) -> set[Point]:
    pts = set(pts)
    while True:
        new = {meet(a, b) for a in pts for b in pts} - pts
        if not new:
            return pts
        pts |= new


def _random_rep(rng: random.Random, S: SmallRep, within_bound: bool = False) -> SmallRep:
    """A seeded ideal of S's dimension: a random point set in a small box,
    closed under meet in most draws, or a translate of an ideal over S, so
    all axioms fail now and then.  With ``within_bound`` the box obeys
    c <= m + c(S), which compatibility needs before it sweeps."""
    r = S.r
    kind = rng.randrange(4)
    if kind == 3 and not within_bound:
        E = random_good(S, rng.randrange(1000))
        return translate(E, tuple(rng.randint(-2, 2) for _ in range(r)))
    m = tuple(rng.randint(-2, 2) for _ in range(r))
    span = S.c if within_bound else (4 if r < 3 else 3,) * r
    c = tuple(x + rng.randint(0, w) for x, w in zip(m, span))
    pts = {m, c}
    for _ in range(rng.randint(0, 6)):
        pts.add(tuple(rng.randint(lo, hi) for lo, hi in zip(m, c)))
    if kind:
        pts = _meet_closure(pts)
    return SmallRep(r, m, c, frozenset(pts))


def test_validate_matches_point_sweep_reference():
    semigroups = _semigroups()
    names = sorted(semigroups)
    rng = random.Random(20260)
    axioms = set()
    for _ in range(500):
        S = semigroups[rng.choice(names)]
        E = _random_rep(rng, S)
        for S_arg, semigroup in ((None, False), (S, False), (S, True), (None, True)):
            want = _old_validate(E, S_arg, semigroup=semigroup).to_dict()
            got = validate(E, S_arg, semigroup=semigroup).to_dict()
            assert got == want, (E, S_arg, semigroup)
            axioms.update(c["axiom"] for c in got["counterexamples"])
    assert axioms >= {"E1", "E2", "conductor", "compatibility", "semigroup"}, axioms


def _dense_rep(rng: random.Random, r: int) -> SmallRep:
    """A seeded point set dense in a small box, so that its grid has at most
    n^2 points for n small elements in most draws; meet-closed in most
    draws, so that E1 and E2 pass about as often as they fail."""
    m = tuple(rng.randint(-2, 2) for _ in range(r))
    c = tuple(x + rng.randint(0, 3 if r < 3 else 2) for x in m)
    density = rng.uniform(0.3, 0.9)
    pts = {p for p in box_points(m, c) if rng.random() < density} | {m, c}
    if rng.randrange(4):
        pts = _meet_closure(pts)
    return SmallRep(r, m, c, frozenset(pts))


def _old_grid(E: SmallRep) -> int:
    """The small elements as a mask in :attr:`layout`.

    Small elements outside [m, c], which only a rep failing
    :func:`validate` has, are left out.
    """
    g = E.layout
    bits = bytearray((math.prod(g.dims) + 7) // 8)
    for p in E.small:
        if all(l < x <= c for l, x, c in zip(g.lo, p, E.c)):
            i = g.index(p)
            bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def test_grid_matches_former_point_loop():
    # dense reps, S, K(S) and a draw of each semigroup, and point sets with
    # small elements outside [m, c], which only the per-point test drops
    # (all of them in the last rep, whose grid is empty)
    rng = random.Random(20261)
    reps = [_dense_rep(rng, rng.randint(1, 4)) for _ in range(300)]
    for S in _semigroups().values():
        reps += [S, canonical_ideal(S), random_good(S, 1)]
    for _ in range(300):
        m = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
        c = tuple(x + rng.randint(0, 3) for x in m)
        pts = {tuple(rng.randint(x - 2, y + 2) for x, y in zip(m, c))
               for _ in range(rng.randint(1, 8))}
        reps.append(SmallRep(len(m), m, c, frozenset(pts)))
    reps.append(SmallRep(2, (0, 0), (2, 2), frozenset({(-1, 0), (3, 1)})))
    outside = 0
    for E in reps:
        assert E.grid == _old_grid(E), E
        outside += not all(leq(E.m, p) and leq(p, E.c) for p in E.small)
    assert outside > 200 and reps[-1].grid == 0, outside


def _document_rep(text: str) -> SmallRep:
    """The SmallRep a GSI document lists, unvalidated."""
    fields, elems = {}, set()
    for line in text.splitlines():
        key, *rest = line.split("#", 1)[0].split() or [""]
        if key == "elem":
            elems.add(tuple(map(int, rest)))
        elif key:
            fields[key] = tuple(map(int, rest))
    return SmallRep(fields["r"][0], fields["min"], fields["conductor"], frozenset(elems))


def test_validate_mask_path_matches_point_sweep_reference(data_dir, monkeypatch):
    # validate decides E1 and E2 on the fiber-table masks when the grid has
    # at most n^2 points; these inputs reach that path, pass and fail on it,
    # and must give the reports of the verbatim point sweeps
    import gsi.ideal as ideal

    outcomes = []

    def counted(E, pairs_good=ideal._pairs_good):
        outcomes.append(pairs_good(E))
        return outcomes[-1]

    monkeypatch.setattr(ideal, "_pairs_good", counted)
    rng = random.Random(20261)
    semigroups = _semigroups()
    semigroups["n57xn56"] = product(numerical([5, 7]), numerical([5, 6]))
    assert len(semigroups["n57xn56"].small) == 143
    bases = [(_dense_rep(rng, rng.randint(1, 3)), None) for _ in range(300)]
    for S in semigroups.values():
        bases += [(E, S) for E in [S, canonical_ideal(S)]
                  + [random_good(S, seed) for seed in range(3)]]
    bases += [(_document_rep(path.read_text(encoding="utf-8")), None)
              for path in sorted(data_dir.glob("*.gsi"))]
    cases = []
    for E, S in bases:
        cases.append((E, S))
        inner = sorted(E.small - {E.m, E.c})
        if inner:  # one small element short: E1, E2 or the conductor fail
            cases.append((SmallRep(E.r, E.m, E.c, E.small - {rng.choice(inner)}), S))
    failed_on_masks = set()
    for E, S in cases:
        for S_arg, semigroup in [(None, False)] + [(S, True)] * (S is not None):
            before = len(outcomes)
            want = _old_validate(E, S_arg, semigroup=semigroup).to_dict()
            got = validate(E, S_arg, semigroup=semigroup).to_dict()
            assert got == want, (E, S_arg, semigroup)
            if len(outcomes) > before and not outcomes[-1]:
                # the masks found a failure, so the pair loops must name one
                first = got["counterexamples"][:1]
                failed_on_masks.add(first[0]["axiom"] if first else "passed")
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50, \
        (outcomes.count(True), outcomes.count(False))
    assert failed_on_masks == {"E1", "E2"}, failed_on_masks


def test_first_counterexamples_match_point_sweeps():
    semigroups = _semigroups()
    rng = random.Random(7)
    failures = {"compatibility": 0, "sum": 0}
    for name, S in sorted(semigroups.items()):
        K = canonical_ideal(S)
        ideals = [S, K, translate(K, ones(S.r))]
        ideals += [random_good(S, seed) for seed in range(4)]
        ideals += [random_good(T, 3) for T in semigroups.values() if T.r == S.r]
        for E in ideals + [_random_rep(rng, S, True) for _ in range(20)]:
            want = _old_compatibility_failure(E, S)
            assert _compatibility_failure(E, S) == want, (name, E)
            failures["compatibility"] += want is not None and "sum" in want
        for EJ in (S, K):
            for EI in ideals[:5]:
                D = cd_difference(EJ, EI)
                # D itself never fails; its translates and other ideals do
                shift = tuple(rng.randint(-2, 1) for _ in range(S.r))
                for cand in (D, translate(D, shift), rng.choice(ideals)):
                    want = _old_check_sum(EJ, EI, cand).to_dict()
                    assert check_sum(EJ, EI, cand).to_dict() == want, (name, EJ, EI)
                    failures["sum"] += not want["passed"]
    assert min(failures.values()) >= 20, failures


def _old_members_in(E: SmallRep, top: Point, dims: tuple[int, ...]) -> int:
    """E's members over [m, top] in the layout of dims, based at m."""
    e = ones(E.r)
    return (_window(E, E.m, vadd(E.m, vsub(dims, e)))
            & _box_mask(dims, vadd(vsub(top, E.m), e)))


def _old_sum_failure(outer: SmallRep, inner: SmallRep,
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
    _, dims, strides = Layout.of(lo, hi)
    P = _old_members_in(inner, vadd(inner.c, e), dims)
    O = P if outer is inner else _old_members_in(outer, vadd(outer.c, e), dims)
    for off in _bits(O):
        bad = P & ~(W >> off)
        if bad:
            o = Layout(outer.m, dims, strides).point(off)
            i = Layout(inner.m, dims, strides).lowest(bad)
            return o, i, vadd(o, i)
    return None


def _old_equals(E1: SmallRep, E2: SmallRep) -> bool:
    """Equality of the represented (infinite) sets.

    Decided on [meet(m1,m2), join(c1,c2) + e]: outside that box membership of
    both sides is forced by their meet-with-conductor rules.
    """
    _require_same_r(E1, E2)
    if E1 == E2:
        return True
    box = _decision_box(E1, E2)
    return _window(E1, *box) == _window(E2, *box)


def _old_is_subset(E1: SmallRep, E2: SmallRep) -> bool:
    """Inclusion of represented sets, decided on the shared box."""
    _require_same_r(E1, E2)
    box = _decision_box(E1, E2)
    return _window(E1, *box) & ~_window(E2, *box) == 0


def _sweep_family() -> list[list[SmallRep]]:
    """Per semigroup S of ``_semigroups()`` and node(1)-node(5): S, K(S)
    and six ``random_good`` draws, each followed by its variants of one
    layout (:func:`_one_layout_variants`)."""
    semigroups = [*_semigroups().values(), *(node(r) for r in range(1, 6))]
    family = []
    for S in semigroups:
        ideals = [S, canonical_ideal(S), *(random_good(S, seed) for seed in range(6))]
        family.append([V for E in ideals for V in (E, *_one_layout_variants(E))])
    return family


def _one_layout_variants(E: SmallRep) -> list[SmallRep]:
    """E with its middle small element other than m and c removed, with the
    middle point of [m, c] outside E added, and with c + e added, when
    there are such: reps on E's layout that mostly fail ``validate``."""
    out = []
    inner = sorted(E.small - {E.m, E.c})
    if inner:
        out.append(replace(E, small=E.small - {inner[len(inner) // 2]}))
    gaps = [p for p in box_points(E.m, E.c) if p not in E.small]
    if gaps:
        out.append(replace(E, small=E.small | {gaps[len(gaps) // 2]}))
    out.append(replace(E, small=E.small | {vadd(E.c, ones(E.r))}))
    return out


def test_equals_and_is_subset_on_one_layout_match_windows():
    # reps on one layout compare grids; the former window bodies decide
    # every ordered pair of one layout alike, invalid reps included
    pairs = 0
    for ideals in _sweep_family():
        by_layout = collections.defaultdict(list)
        for E in ideals:
            by_layout[E.layout].append(E)
        for group in by_layout.values():
            for E1 in group:
                for E2 in group:
                    assert equals(E1, E2) == _old_equals(E1, E2), (E1, E2)
                    assert is_subset(E1, E2) == _old_is_subset(E1, E2), (E1, E2)
                    pairs += E1 != E2
    assert pairs >= 700, pairs


def _outer_first(outer: SmallRep, inner: SmallRep) -> bool:
    """Whether ``_sum_failure`` ANDs over outer's clamp classes first."""
    return outer is not inner and len(outer.small) <= len(inner.small)


def test_sum_failure_matches_per_member_loop(data_dir):
    # the same first (o, i, o + i) as the former loop over outer's members,
    # on every triple of S, K(S) and the draws, so that semigroup and
    # compatibility failures compare their first counterexamples, and the
    # loop over outer's classes runs with and without a failure to name
    sides = collections.Counter()
    for ideals in _sweep_family():
        valid = [E for E in ideals if validate(E).passed]
        for outer in valid:
            for inner in valid:
                for target in valid:
                    got = _sum_failure(outer, inner, target)
                    assert got == _old_sum_failure(outer, inner, target), (outer, inner, target)
                    sides[_outer_first(outer, inner), got is None] += 1
        # E + E <= E and S + E <= E on the reps of one layout that fail validate
        S = ideals[0]
        for E in ideals:
            for outer in (E, S):
                got = _sum_failure(outer, E, E)
                assert got == _old_sum_failure(outer, E, E), (outer, E)
                sides[_outer_first(outer, E), got is None] += 1
    # the failing documents: broken.gsi misses a meet, and the E1 and
    # conductor examples of from_small_elements, unvalidated
    documents = [_document_rep((data_dir / "broken.gsi").read_text()),
                 SmallRep(2, (0, 0), (5, 5), frozenset({(0, 0), (3, 4), (4, 3), (5, 5)})),
                 SmallRep(2, (0, 0), (2, 2), frozenset({(0, 0), (1, 2), (2, 1), (2, 2)}))]
    semigroups = [S for S in _semigroups().values() if S.r == 2]
    for E in documents:
        for outer in (E, *semigroups):
            got = _sum_failure(outer, E, E)
            assert got == _old_sum_failure(outer, E, E), (outer, E)
            sides[_outer_first(outer, E), got is None] += 1
    assert min(sides[key] for key in itertools.product((True, False), repeat=2)) >= 20, sides


def test_cd_difference_matches_point_quantifier():
    semigroups = _semigroups()
    for name, S in sorted(semigroups.items()):
        K = canonical_ideal(S)
        ideals = [S, K] + [random_good(S, seed) for seed in (1, 5, 9)]
        pairs = [(K, S), (S, K), (K, K), (S, S)]
        pairs += [(EJ, EI) for EJ in (S, K) for EI in ideals[2:]]
        pairs += [(ideals[2], ideals[3]), (translate(K, ones(S.r)), ideals[4])]
        for EJ, EI in pairs:
            assert cd_difference(EJ, EI) == _old_cd_difference(EJ, EI), (name, EJ, EI)
    # sparse ideals: two or three small elements in a large box, some on a
    # face of the conductor, so that clamp classes are lines as well as boxes
    sparse = [
        [(0, 0), (40, 40)],
        [(0, 0), (7, 3), (25, 31)],
        [(0, 0), (5, 20), (20, 20)],
        [(2, -1), (9, 12), (30, 12)],
        [(0, 0, 0), (10, 10, 10)],
        [(0, 0, 0), (2, 5, 3), (9, 10, 8)],
        [(0, 0, 0), (3, 10, 10), (10, 10, 10)],
    ]
    ideals = [SmallRep(len(s[0]), s[0], s[-1], frozenset(s)) for s in sparse]
    for E in ideals:
        assert validate(E).passed, E
    for EJ in ideals:
        for EI in ideals:
            if EJ.r == EI.r:
                assert cd_difference(EJ, EI) == _old_cd_difference(EJ, EI), (EJ, EI)


def test_window_matches_contains():
    semigroups = _semigroups()
    ideals = list(semigroups.values())
    ideals += [canonical_ideal(S) for S in semigroups.values()]
    ideals += [random_good(S, 11) for S in semigroups.values()]
    for E in ideals:
        e = ones(E.r)
        e2 = vadd(e, e)
        boxes = [
            (vsub(E.m, e2), vadd(E.c, e2)),           # around the whole grid
            (vadd(E.m, e), vadd(E.c, vadd(e2, e))),   # inside m, well past c
            (vadd(E.c, e), vadd(E.c, e2)),            # above c only
            (vsub(E.m, vadd(e2, e)), vsub(E.m, e)),   # below m only
            (vsub(E.m, e), vsub(E.c, e)),             # inside the grid
            (E.c, vadd(E.c, e)),
        ]
        # a box below m on one axis and beyond c on the others
        boxes.append(((E.m[0] - 3,) + vadd(E.c, e)[1:], (E.m[0] - 1,) + vadd(E.c, e2)[1:]))
        # reversed boxes, with no points: on axis 0 only, and on every axis
        boxes.append(((E.c[0] + 1,) + E.m[1:], (E.m[0],) + E.c[1:]))
        boxes.append((vadd(E.c, e), E.m))
        for lo, hi in boxes:
            W = _window(E, lo, hi)
            points = list(box_points(lo, hi))
            for i, p in enumerate(points):
                assert (W >> i & 1 == 1) == E.contains(p), (E, lo, hi, p)
            assert W >> len(points) == 0
            assert members(E, lo, hi) == sorted(materialize(E, lo, hi)), (E, lo, hi)
        with pytest.raises(DimensionMismatch):
            members(E, E.m + (0,), E.c + (0,))


def _old_window(E: SmallRep, lo: Point, hi: Point, mask: int | None = None) -> int:
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
        mask = E.grid
    dims = tuple(h - l + 1 for l, h in zip(lo, hi))
    if min(dims) <= 0:
        return 0
    g = E.layout
    strides = Layout.of(lo, hi).strides
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


def _random_span(rng: random.Random, E: SmallRep, k: int) -> tuple[int, int]:
    """Box bounds on axis k, each end drawn on its own from below m - e,
    the grid or above c; now and then one row, or empty (hi below lo)."""
    lo, c = E.m[k] - 1, E.c[k]
    zones = [(lo - 4, lo - 1), (lo, c), (c + 1, c + 4)]
    a, b = sorted(rng.randint(*rng.choice(zones)) for _ in range(2))
    kind = rng.randrange(8)
    if kind == 0:
        return a, a
    if kind == 1:
        return b, a - 1
    return a, b


@functools.cache
def _window_ideals() -> tuple[SmallRep, ...]:
    """Ideals of dimension 1 to 5: the semigroups, their canonical ideals,
    random_good draws, seeded point sets that may fail the axioms, and
    products up to r = 5."""
    rng = random.Random(47)
    semigroups = _semigroups()
    ideals = list(semigroups.values())
    ideals += [canonical_ideal(S) for S in semigroups.values()]
    ideals += [random_good(S, 13) for S in semigroups.values()]
    ideals += [_random_rep(rng, S) for S in semigroups.values()]
    n1, n2 = semigroups["n1"], semigroups["n2"]
    for S in (node(4), product(n1, node(3)), node(5), product(n2, product(n1, node(3)))):
        ideals += [S, canonical_ideal(S), random_good(S, 5)]
    assert {E.r for E in ideals} == {1, 2, 3, 4, 5}
    return tuple(ideals)


def test_window_matches_former_recursion():
    # every table entry and layer, the grid mask, 0 and sparse masks, over
    # boxes whose ends fall below m - e, inside the grid or past c per axis
    rng = random.Random(53)
    seen = {"empty": 0, "one_row": 0, "nonzero": 0}
    for E in _window_ideals():
        P, Q = E.tables.fiber_layers
        size = math.prod(E.layout.dims)
        masks = [E.grid, 0, *E.tables.fiber_table, *E.tables.open_table, *P, *Q]
        masks += [1 << rng.randrange(size) | 1 << rng.randrange(size) for _ in range(3)]
        masks += [rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)]
        boxes = [(vsub(E.m, ones(E.r)), E.c)]
        boxes += [tuple(zip(*(_random_span(rng, E, k) for k in range(E.r))))
                  for _ in range(12 if E.r < 4 else 4)]
        for lo, hi in boxes:
            dims = [h - l + 1 for l, h in zip(lo, hi)]
            seen["empty"] += min(dims) <= 0
            seen["one_row"] += 1 in dims
            for mask in masks:
                W = _window(E, lo, hi, mask)
                assert W == _old_window(E, lo, hi, mask), (E, lo, hi, mask)
                seen["nonzero"] += W != 0
        assert _window(E, E.m, E.c) == _old_window(E, E.m, E.c)
    assert min(seen.values()) > 10, seen


def test_window_work_grows_with_log_rows(monkeypatch):
    # one window of the whole-grid layer of the two-element ideal
    # {0} u ((300, 300) + N^2) over a box of 600 rows per axis, reaching
    # below m - e and past c on both: the passes make O(r log rows) _repeat
    # calls, where the former recursion made calls per row.  A 3 x 3 box at
    # c keeps two rows of axis 0, which are cut first, so no mask the passes
    # build is longer than a few of its rows.
    import gsi.ideal as ideal

    calls, sizes = [0], []

    def counted(*args, original=ideal._repeat):
        calls[0] += 1
        out = original(*args)
        sizes.append(out.bit_length())
        return out

    c = (300, 300)
    E = SmallRep(2, (0, 0), c, frozenset({(0, 0), c}))
    lo, hi = (-150, -150), (449, 449)
    whole = E.tables.fiber_layers[0][E.r + 1]
    bound = 2 * E.r * math.log2(hi[0] - lo[0] + 1)
    want = _old_window(E, lo, hi, whole)
    monkeypatch.setattr(ideal, "_repeat", counted)
    assert _window(E, lo, hi, whole) == want
    assert 0 < calls[0] <= bound, calls[0]
    calls[0] = 0
    monkeypatch.setitem(globals(), "_repeat", counted)
    _old_window(E, lo, hi, whole)
    assert calls[0] > 10 * bound, calls[0]
    sizes.clear()
    near = (vsub(c, (1, 1)), vadd(c, (1, 1)))
    assert _window(E, *near, whole) == _old_window(E, *near, whole)
    assert 0 < max(sizes) <= 4 * E.layout.dims[1], sizes


def test_search_member_matches_box_scan():
    # the E2 witness ranges of the pairs among the first six small elements,
    # the capped open and closed fiber-witness ranges of random points, and
    # random ranges, empty ones among them
    rng = random.Random(59)
    for E in _window_ideals():
        small = sorted(E.small)
        cases = [_old_e2_witness_ranges(a, b, i, E.c)
                 for a in small[:6] for b in small[:6] for i in range(E.r)
                 if a < b and a[i] == b[i]]
        for _ in range(10):
            alpha = tuple(rng.randint(m - 2, c + 1) for m, c in zip(E.m, E.c))
            J, low = rng.randrange(1 << E.r), rng.randrange(2)
            cases.append([(a, a) if J >> k & 1 else (a + low, max(ck, a + low))
                          for k, (a, ck) in enumerate(zip(alpha, E.c))])
        cases += [[_random_span(rng, E, k) for k in range(E.r)] for _ in range(20)]
        assert any(_old_search_member(E, ranges) is None for ranges in cases)
        for ranges in cases:
            assert search_member(E, ranges) == _old_search_member(E, ranges), (E, ranges)
    with pytest.raises(DimensionMismatch):
        search_member(node(2), [(0, 1)])


def test_repeat_matches_repunit_division():
    # the former formula: the block times the base-2^width repunit of length n
    rng = random.Random(5)
    cases = [(0, 1, 3), (1, 1, 0), (1, 1, -1), (1, 1, 1), (5, 3, 1), (1, 7, 64)]
    cases += [(rng.getrandbits(w), w, rng.randrange(-1, 80))
              for w in rng.choices(range(1, 48), k=400)]
    for block, width, n in cases:
        want = block * (((1 << width * n) - 1) // ((1 << width) - 1)) if n > 0 else 0
        assert _repeat(block, width, n) == want, (block, width, n)


def test_reversed_bits_matches_format_round_trip():
    # the former reversal of _reflected: the n-digit binary string reversed
    rng = random.Random(6)
    cases = [(0, n) for n in range(1, 71)]
    cases += [(rng.getrandbits(n), n) for n in range(1, 71) for _ in range(5)]
    cases += [((1 << n) - 1, n) for n in (1, 7, 9, 63, 65, 70)]
    cases += [(rng.getrandbits(n), n) for n in (1000, 10_001)]
    assert any(n % 8 for _, n in cases)
    for W, n in cases:
        assert _reversed_bits(W, n) == int(format(W, f"0{n}b")[::-1], 2), (W, n)


def test_fiber_windows_match_fiber_occupied():
    semigroups = _semigroups()
    ideals = list(semigroups.values())
    ideals += [canonical_ideal(S) for S in semigroups.values()]
    ideals += [random_good(S, 11) for S in semigroups.values()]
    for E in ideals:
        e = ones(E.r)
        e2 = vadd(e, e)
        boxes = [
            (vsub(E.m, vadd(e2, e)), vadd(E.c, e2)),  # the grid and both sides
            (vsub(E.m, vadd(e2, e2)), vsub(E.m, e2)),  # wholly below m - e
            (vadd(E.c, e), vadd(E.c, vadd(e2, e))),   # wholly past c
            ((E.m[0] - 4,) + E.c[1:], (E.m[0] - 2,) + vadd(E.c, e2)[1:]),
        ]
        P, Q = E.tables.fiber_layers
        for lo, hi in boxes:
            points = list(box_points(lo, hi))

            def want(holds):
                return sum(1 << i for i, p in enumerate(points) if holds(p))

            for J in range(1, 1 << E.r):
                W = _window(E, lo, hi, E.tables.fiber_table[J])
                assert W == want(lambda p: E.fiber_occupied(p, J, closed=True)), \
                    (E, lo, hi, J)
            # Q[0] = Q[1], as every fiber has at least one index
            for k in range(E.r + 2):
                W = _window(E, lo, hi, P[k])
                assert W == want(lambda p: p_value(E, p) < k), (E, lo, hi, "P", k)
                W = _window(E, lo, hi, Q[k])
                assert W == want(lambda p: q_value(E, p) <= max(k, 1)), \
                    (E, lo, hi, "Q", k)


def _mixed_ideals(S: SmallRep, K: SmallRep, seed: int) -> list[SmallRep]:
    """S, K(S), K(S) + e, a random_good draw, the first draw from the seed on
    with two or more small elements, and its dual into K(S)."""
    E = random_good(S, seed)
    while len(E.small) < 2:
        seed += 1
        E = random_good(S, seed)
    return [S, K, translate(K, ones(S.r)), random_good(S, seed + 1), E,
            cd_difference(K, E)]


def test_length_and_rho_match_point_sweeps():
    # planted wrong duals (D translated by +-e, or another pair's dual) make
    # the sweeps find counterexamples, some of them after an equality witness
    rng = random.Random(41)
    seen = {"length_fail": 0, "length_witness_first": 0, "length_gap": 0,
            "rho_fail": 0, "rho_witness_first": 0, "rho_above": 0}
    for name, S in sorted(_semigroups().items()):
        K = canonical_ideal(S)
        ideals = _mixed_ideals(S, K, 7)
        e = ones(S.r)
        for EJ in ideals[:3] + ideals[4:5]:
            duals = [cd_difference(EJ, EI) for EI in ideals]
            for EI, D in zip(ideals, duals):
                cands = [D, translate(D, e), translate(D, vsub(zero(S.r), e)),
                         rng.choice(duals)]
                for cand in cands:
                    want = _old_check_length_pairing(EJ, EI, cand).to_dict()
                    got = check_length_pairing(EJ, EI, cand).to_dict()
                    assert got == want, (name, EJ, EI, cand)
                    fail = not want["passed"]
                    seen["length_fail"] += fail
                    seen["length_witness_first"] += fail and bool(want["witnesses"])
                    seen["length_gap"] += bool(want["witnesses"])
                    for context in ((None, S) if cand is D else (None,)):
                        old, new = _CheckContext(), _CheckContext()
                        old.values["dual", EJ, EI] = new.values["dual", EJ, EI] = cand
                        want = _old_check_rho(old, EI, EJ, context).to_dict()
                        got = check_rho(EI, EJ, context, ctx=new).to_dict()
                        assert got == want, (name, EJ, EI, cand, context)
                        fail = not want["passed"]
                        seen["rho_fail"] += fail
                        seen["rho_witness_first"] += fail and bool(want["witnesses"])
                        seen["rho_above"] += bool(want["witnesses"])
    assert min(seen.values()) >= 50, seen


def test_length_and_rho_match_box_sweeps_high_r():
    # the planted duals of the point-sweep test at r = 6-8, past the point
    # sweeps' reach: the references are the former sweeps over the whole
    # margin box, which the core sweeps must match report for report
    from test_metamorphic import _high_r_pairs
    rng = random.Random(43)
    seen = collections.Counter()
    for A, B in _high_r_pairs():
        S = product(A, B)
        K = canonical_ideal(S)
        e = ones(S.r)
        ideals = [S, K, translate(K, e), product(random_good(A, 5), random_good(B, 5))]
        for EJ in ideals[:2]:
            duals = [cd_difference(EJ, EI) for EI in ideals]
            for EI, D in zip(ideals, duals):
                for cand in (D, translate(D, e), translate(D, vsub(zero(S.r), e)),
                             rng.choice(duals)):
                    want = _old_box_check_length_pairing(EJ, EI, cand).to_dict()
                    assert check_length_pairing(EJ, EI, cand).to_dict() == want, \
                        (S, EJ, EI, cand)
                    seen["length", want["passed"], bool(want["witnesses"])] += 1
                    old, new = _CheckContext(), _CheckContext()
                    old.values["dual", EJ, EI] = new.values["dual", EJ, EI] = cand
                    want = _old_box_check_rho(old, EI, EJ).to_dict()
                    assert check_rho(EI, EJ, ctx=new).to_dict() == want, (S, EJ, EI, cand)
                    seen["rho", want["passed"], bool(want["witnesses"])] += 1
    # failing sweeps, with and without an equality witness first, and
    # passing ones with and without equality everywhere
    assert len(seen) == 8, seen


def test_sweeps_read_no_more_than_the_ei_grid(monkeypatch):
    # with the computed dual, the core of both sweeps is EI's grid
    # [m_I - e, c_I]: no window the length and rho checks read is larger
    volumes = []

    def volume(lo, hi):
        volumes.append(math.prod(h - l + 1 for l, h in zip(lo, hi)))

    monkeypatch.setattr(theorems, "_window", lambda E, lo, hi, mask=None:
                        volume(lo, hi) or _window(E, lo, hi, mask))
    monkeypatch.setattr(theorems, "_reflected", lambda E, f, lo, hi, mask:
                        volume(lo, hi) or _reflected(E, f, lo, hi, mask))
    semigroups = [*_semigroups().values(), *(node(r) for r in range(2, 7))]
    for S in semigroups:
        K = canonical_ideal(S)
        ideals = _mixed_ideals(S, K, 7)
        for EJ in ideals[:3]:
            for EI in ideals:
                grid = math.prod(EI.layout.dims)
                volumes.clear()
                check_length_pairing(EJ, EI, cd_difference(EJ, EI))
                check_rho(EI, EJ)
                assert volumes and max(volumes) <= grid, (S, EJ, EI, volumes, grid)


def _outcome(f, *args):
    """f(*args), or the type and text of the error it raised."""
    try:
        return f(*args)
    except (ValueError, GsiError) as err:
        return type(err), str(err)


def test_fiber_dual_and_canonical_match_point_sweeps():
    rng = random.Random(43)
    for name, S in sorted(_semigroups().items()):
        K = canonical_ideal(S)
        assert K == _old_canonical_ideal(S), name
        ideals = _mixed_ideals(S, K, 3)
        # EJ only sets the reflection point f, so seeded point sets serve too
        for EJ in ideals[:3] + ideals[4:5] + [_random_rep(rng, S) for _ in range(2)]:
            for EI in ideals:
                want = _former_fiber_dual(_old_fiber_dual(EJ, EI))
                assert _outcome(fiber_dual, EJ, EI) == want, (name, EJ, EI)
        # canonical_ideal of sets that hold 0 but need not be semigroups: the
        # same ideal, or the same error
        for E in ideals + [_random_rep(rng, S) for _ in range(10)]:
            if E.contains(zero(S.r)):
                want = _outcome(_old_canonical_ideal, E)
                assert _outcome(canonical_ideal, E) == want, (name, E)


# The former point-set reads of the fiber dual, kept verbatim: the context
# held fiber_dual's decoded and promoted RegionSet, and the fibra and
# duality checks and the fixpoint test of is_canonical compared its points
# with the members of D or EJ.  They read its box and points only, which is
# all a planted region (``_Region``) has.
_Region = collections.namedtuple("_Region", "box points")


class _OldContext(_CheckContext):
    def fiber_dual(self, EJ: SmallRep, EI: SmallRep) -> RegionSet:
        return self._get(("fiber_dual", EJ, EI), lambda: fiber_dual(EJ, EI))

    def is_canonical(self, EJ: SmallRep, S: SmallRep) -> bool:
        return self._get(("is_canonical", EJ, S), lambda: _old_is_canonical(
            EJ, S, canonical_ideal(S), self.fiber_dual(EJ, S)))


def _old_is_canonical(EJ: SmallRep, S: SmallRep, K: SmallRep, fd: RegionSet) -> bool:
    """:func:`is_canonical` from K = canonical_ideal(S) and fd =
    fiber_dual(EJ, S), for callers that already hold them."""
    shift = vsub(frobenius(EJ), frobenius(S))
    by_translate = equals(EJ, translate(K, shift))
    by_fixpoint = set(members(EJ, fd.box.lo, fd.box.hi)) == fd.points
    if by_translate != by_fixpoint:
        raise SoundnessError(
            f"canonicity tests disagree: translate={by_translate}, "
            f"fiber fixpoint={by_fixpoint}")
    return by_translate


def _old_check_fibra(ctx: _CheckContext, EJ: SmallRep, EI: SmallRep) -> CheckReport:
    D = ctx.dual(EJ, EI)
    fd = ctx.fiber_dual(EJ, EI)
    rep = CheckReport(
        "fibra", True,
        f"beta over dual box [{list(fd.box.lo)}, {list(fd.box.hi)}]")
    inside = members(D, fd.box.lo, fd.box.hi)
    for beta in inside:
        if beta not in fd.points:
            rep.passed = False
            rep.counterexamples.append(
                {"beta": pt(beta),
                 "note": "in CD-difference but fiber of frobenius(EJ) - beta is occupied"})
            return rep
    strict = sorted(fd.points.difference(inside))
    if strict:
        rep.witnesses.append({"beta": pt(strict[0]), "note": "strict inclusion witness"})
    rep.flags["strict"] = bool(strict)
    return rep


def _old_check_duality(ctx: _CheckContext, EJ: SmallRep, EI: SmallRep,
                       S: SmallRep | None = None) -> CheckReport:
    D = ctx.dual(EJ, EI)
    fd = ctx.fiber_dual(EJ, EI)
    rep = CheckReport(
        "duality", True,
        f"beta over dual box [{list(fd.box.lo)}, {list(fd.box.hi)}]")
    diffs = sorted(fd.points.symmetric_difference(members(D, fd.box.lo, fd.box.hi)))
    rep.flags["equal"] = not diffs
    if diffs:
        rep.witnesses.append({"beta": pt(diffs[0]),
                              "note": "fiber dual strictly larger here"})
    if S is not None:
        can = ctx.is_canonical(EJ, S)
        rep.flags["ej_canonical"] = can
        if can and diffs:
            rep.passed = False
            rep.counterexamples.append(
                {"beta": pt(diffs[0]),
                 "note": "EJ canonical but CD-difference misses this point"})
    return rep


def _fiber_dual_reports(old: _CheckContext, new: _CheckContext, EJ: SmallRep,
                        EI: SmallRep, S: SmallRep) -> list[str]:
    """The fibra and duality reports (with and without S) from the former
    and the mask checks, as JSON: equal, or the test fails."""
    want = [_old_check_fibra(old, EJ, EI), _old_check_duality(old, EJ, EI, S),
            _old_check_duality(old, EJ, EI)]
    got = [check_fibra(EJ, EI, ctx=new), check_duality(EJ, EI, S, ctx=new),
           check_duality(EJ, EI, ctx=new)]
    want = [json.dumps(r.to_dict()) for r in want]
    assert [json.dumps(r.to_dict()) for r in got] == want, (EJ, EI, S)
    return want


def _is_canonical(EJ: SmallRep, S: SmallRep, region: tuple[Point, Point, int]) -> bool:
    """is_canonical with the fiber-dual region seeded in its context."""
    ctx = _CheckContext()
    ctx.values["fiber_region", EJ.m, EJ.c, S] = region
    return is_canonical(EJ, S, ctx=ctx)


def test_fiber_dual_checks_match_point_set_reference():
    seen = collections.Counter()
    for name, S in sorted(_semigroups().items()):
        K = canonical_ideal(S)
        ideals = _mixed_ideals(S, K, 5)
        for EJ in ideals:
            for EI in ideals:
                fibra, duality, _ = map(json.loads, _fiber_dual_reports(
                    _OldContext(), _CheckContext(), EJ, EI, S))
                seen["strict"] += fibra["flags"]["strict"]
                seen["differs"] += not duality["flags"]["equal"]
                seen["canonical"] += duality["flags"]["ej_canonical"]
            want = _old_is_canonical(EJ, S, K, fiber_dual(EJ, S))
            assert _is_canonical(EJ, S, _fiber_region(EJ, S)) == want, (name, EJ)
            seen["not_canonical"] += not want
    # non-canonical EJ: strict inclusions and differing duals
    assert min(seen.values()) >= 20, seen


def test_fiber_dual_checks_match_reference_on_planted_regions():
    # wrong regions reach the counterexample branches: a point of D taken
    # out fails fibra, and with EJ canonical it fails duality too; a
    # disagreeing fixpoint test fails _is_canonical
    rng = random.Random(47)
    seen = collections.Counter()
    for name, S in sorted(_semigroups().items()):
        K = canonical_ideal(S)
        for EJ in (S, K, translate(K, ones(S.r))):
            can = _old_is_canonical(EJ, S, K, fiber_dual(EJ, S))
            for EI in (S, K, random_good(S, 3)):
                lo, hi, region = _fiber_region(EJ, EI)
                inside = _window(cd_difference(EJ, EI), lo, hi)
                box = Layout.of(lo, hi).whole
                planted = [region ^ (1 << rng.randrange(box.bit_length()))
                           for _ in range(3)]
                planted += [region & ~(1 << rng.choice(_bits(inside))),
                            region & rng.getrandbits(box.bit_length()), 0, box]
                for mask in planted:
                    old, new = _OldContext(), _CheckContext()
                    old.values["is_canonical", EJ, S] = can
                    new.values["is_canonical", EJ, S] = can
                    old.values["fiber_dual", EJ, EI] = _Region(
                        Box(lo, hi), frozenset(Layout.of(lo, hi).points(mask)))
                    new.values["fiber_region", EJ.m, EJ.c, EI] = lo, hi, mask
                    fibra, duality, _ = map(json.loads, _fiber_dual_reports(
                        old, new, EJ, EI, S))
                    seen["fibra_fail"] += not fibra["passed"]
                    seen["duality_fail"] += not duality["passed"]
                    seen["strict"] += fibra["passed"] and fibra["flags"]["strict"]
                    if EI == S:
                        region_set = old.values["fiber_dual", EJ, EI]
                        want = _outcome(_old_is_canonical, EJ, S, K, region_set)
                        got = _outcome(_is_canonical, EJ, S, (lo, hi, mask))
                        assert got == want, (name, EJ, mask)
                        seen["disagree"] += isinstance(want, tuple)
    assert min(seen.values()) >= 10, seen


def test_sweeps_work_bounded_by_reports(ex2, node3, monkeypatch):
    # The length, rho, fiber-dual and canonical-ideal sweeps read windows of
    # fiber-table entries and layers, so their per-point grid lookups (the
    # clamp of SmallRep.index, which every single fiber, p and q query
    # takes) do not grow with the volume of the sweep box: the only ones
    # left are the two of each rho value a rho report shows.  The axiom
    # kernel, run on promotion, queries per pair of small elements and is
    # not counted.
    import gsi.duality as duality
    from gsi.theorems import check_rho

    calls, paused = [0], []

    def counted(self, *args, original=SmallRep.index, **kwargs):
        calls[0] += not paused
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SmallRep, "index", counted)

    def uncounted_axioms(*args, axioms=duality._axiom_failure, **kwargs):
        paused.append(True)
        try:
            return axioms(*args, **kwargs)
        finally:
            paused.pop()

    monkeypatch.setattr(duality, "_axiom_failure", uncounted_axioms)
    for S in (ex2, node3):
        K = canonical_ideal(S)
        D = cd_difference(K, S)
        lo, hi = _sweep_box(S, D, K.c, 2)
        assert len(list(box_points(lo, hi))) >= 100
        sweeps = [lambda: canonical_ideal(replace(S)), lambda: fiber_dual(K, S),
                  lambda: fiber_dual(S, S), lambda: check_length_pairing(K, S, D),
                  lambda: check_length_pairing(S, S), lambda: check_rho(S, K, S),
                  lambda: check_rho(S, S, S)]
        for sweep in sweeps:
            calls[0] = 0
            sweep()
            assert calls[0] <= 4, (S, calls[0])


def _old_suffix_or(mask: int, layout: Layout, k: int) -> int:
    """Each bit ORed with the bits above it along axis k, by shift-and-OR
    with doubling steps; before a step of s a bit holds the OR of s bits,
    after it of 2s, and the keep mask stops a shifted bit from crossing
    into the next k-line."""
    dims = layout.dims
    d, stride = dims[k], layout.strides[k]
    s = 1
    while s < d:
        keep = _box_mask(dims, dims[:k] + (d - s,) + dims[k + 1:])
        mask |= mask >> s * stride & keep
        s *= 2
    return mask


def _old_fiber_table(E: SmallRep) -> tuple[int, ...]:
    """The former fiber table, through ``_old_suffix_or``."""
    full = (1 << E.r) - 1
    table = [0] * (full + 1)
    table[full] = E.grid
    for J in range(full - 1, 0, -1):
        k = ((full ^ J) & -(full ^ J)).bit_length() - 1  # lowest free axis
        table[J] = _old_suffix_or(table[J | 1 << k], E.layout, k)
    return tuple(table)


def _old_box_table(layout: Layout, M: int) -> list[int]:
    """The former table of the draw box, with its keep masks, the points
    with t_k < d - step, built by ``_box_mask`` as ``_old_suffix_or``'s
    are."""
    dims = layout.dims
    full = (1 << len(dims)) - 1
    T = [0] * full + [M]
    for J in range(full - 1, 0, -1):
        k = ((full ^ J) & -(full ^ J)).bit_length() - 1
        X, d, s, step = T[J | 1 << k], dims[k], layout.strides[k], 1
        while step < d:
            X |= X >> step * s & _box_mask(dims, dims[:k] + (d - step,) + dims[k + 1:])
            step *= 2
        T[J] = X
    return T


def test_closed_fibers_match_former_tables():
    # Tables.fiber_table and the closure's box tables share one routine;
    # both must give the tables of the routines each used before
    semigroups = _semigroups()
    semigroups.update(node4=node(4), node5=node(5))
    rng = random.Random(18)
    sizes = set()
    for name, S in sorted(semigroups.items()):
        for E in [S] + [random_good(S, seed) for seed in range(4)]:
            assert E.tables.fiber_table == _old_fiber_table(E), (name, E)
            rows = Rows(Layout.of(E.m, E.c))
            for M in (0, rng.getrandbits(math.prod(rows.layout.dims)), rows.layout.whole):
                assert _fibers(rows, M) == _old_box_table(rows.layout, M), (name, M)
            sizes.add(rows.layout.dims)
    # a sparse grid with long lines, and boxes with a one-row axis
    E = SmallRep(3, (0, 0, 0), (40, 3, 57), frozenset({(0, 0, 0), (7, 1, 20), (40, 3, 57)}))
    assert E.tables.fiber_table == _old_fiber_table(E)
    for dims in [(1,), (1, 4), (3, 1, 2), (2, 2, 2, 2, 2)]:
        rows = Rows(Layout.of((0,) * len(dims), tuple(d - 1 for d in dims)))
        M = rng.getrandbits(math.prod(dims))
        assert _fibers(rows, M) == _old_box_table(rows.layout, M), dims
    assert any(len(d) >= 4 for d in sizes), sizes


def test_bits_matches_bit_scan():
    # _bits keeps its format-and-find form, measured faster than bin/rfind
    # and than a lowest-bit loop on masks of 6,000 and 60,000 bits
    rng = random.Random(19)
    cases = [0, 1, 2, 3, 1 << 70, (1 << 64) - 1]
    cases += [rng.getrandbits(n) for n in (1, 7, 8, 9, 63, 64, 65, 1000, 6000)]
    cases += [rng.getrandbits(60_000) & rng.getrandbits(60_000)]
    for m in cases:
        assert _bits(m) == [i for i in range(m.bit_length()) if m >> i & 1], m


def _old_from_small_elements(r: int, m: Point, c: Point, elems) -> SmallRep:
    """The former ``constructors.from_small_elements``, whose loop names the
    first point below m in the set's order."""
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


def _outcome_report(f, *args):
    """f's result, or the report of the ValidationError it raised."""
    try:
        return f(*args)
    except ValidationError as err:
        return err.report.to_dict()


def test_structural_failures_name_the_former_point():
    # validate decides "every small element in [m, c]" and the constructor
    # "every clipped point >= m" from per-axis bounds, and walk the points
    # in the former order only to name one; with several offending points
    # the reports must be those of the former loops, line annotations too
    rng = random.Random(20)
    named = set()
    for _ in range(400):
        r = rng.randint(1, 3)
        m = tuple(rng.randint(-3, 3) for _ in range(r))
        c = tuple(x + rng.randint(0, 4) for x in m)
        pts = {m, c} | {tuple(rng.randint(x - 3, y + 3) for x, y in zip(m, c))
                        for _ in range(rng.randint(1, 8))}
        E = SmallRep(r, m, c, frozenset(pts))
        for S_arg, semigroup in ((None, False), (E, False), (None, True)):
            want = _old_validate(E, S_arg, semigroup=semigroup).to_dict()
            assert validate(E, S_arg, semigroup=semigroup).to_dict() == want, E
        first = validate(E).counterexamples[:1]
        if first and first[0].get("reason") == "small element outside [min, conductor]":
            named.add(tuple(first[0]["point"]))
        elems = list(pts - {m})
        rng.shuffle(elems)
        want = _outcome_report(_old_from_small_elements, r, m, c, elems)
        assert _outcome_report(from_small_elements, r, m, c, elems) == want, (m, c, elems)
    assert len(named) >= 50, len(named)
    # three elements below the declared min: the document names the same
    # point, and the line it is listed on, as the former loop
    lines = ["gsi 1", "r 2", "min 2 2", "conductor 6 6", "elem 2 2",
             "elem 1 4", "elem 4 4", "elem 3 0", "elem 6 6", "elem 0 5"]
    text = "\n".join(lines) + "\n"
    elems = [tuple(map(int, line.split()[1:])) for line in lines[4:]]
    with pytest.raises(ValidationError) as err:
        parse_gsi(text)
    got = err.value.report.to_dict()
    want = _outcome_report(_old_from_small_elements, 2, (2, 2), (6, 6), elems)
    first = got["counterexamples"][0]
    assert first["reason"] == "element below declared min"
    assert first["line"] == 5 + elems.index(tuple(first["point"]))
    for counter in got["counterexamples"]:
        counter.pop("line", None)
    assert got == want
    # a rep with two small elements outside [m, c], one above and one below
    E = SmallRep(2, (0, 0), (3, 3), frozenset({(0, 0), (3, 3), (4, 1), (1, -1)}))
    assert validate(E).counterexamples == [{
        "axiom": "structural", "reason": "small element outside [min, conductor]",
        "point": [1, -1]}]
    assert validate(E).to_dict() == _old_validate(E).to_dict()


def _structural_documents() -> list[SmallRep]:
    """Documents, unvalidated, that fail each structural reason, E1, E2 and
    conductor minimality, and one that passes."""
    texts = [
        # min exceeds conductor, with both bounds off
        "r 2\nmin 3 3\nconductor 1 1\nelem 3 3\nelem 1 1\n",
        # min exceeds conductor on one axis, min missing too
        "r 2\nmin 0 4\nconductor 2 2\nelem 2 2\nelem 1 1\n",
        # min not among small elements
        "r 2\nmin 0 0\nconductor 2 2\nelem 1 1\nelem 2 2\n",
        # conductor not among small elements
        "r 2\nmin 0 0\nconductor 2 2\nelem 0 0\nelem 1 1\n",
        # small elements outside [min, conductor], above and below
        "r 2\nmin 0 0\nconductor 3 3\nelem 0 0\nelem 3 3\nelem 4 1\nelem 1 -1\n",
        "r 3\nmin 0 0 0\nconductor 1 1 1\nelem 0 0 0\nelem 1 1 1\nelem 1 2 0\n",
        # E1: the meet (1, 1) of (1, 2) and (2, 1) is missing
        "r 2\nmin 0 0\nconductor 2 2\nelem 0 0\nelem 1 2\nelem 2 1\nelem 2 2\n",
        # E2: (0, 0) and (1, 0) agree at 2 with no witness above them
        "r 2\nmin 0 0\nconductor 2 2\nelem 0 0\nelem 1 0\nelem 2 2\n",
        # conductor not minimal: (2, 1) already conducts
        "r 2\nmin 0 0\nconductor 2 2\nelem 0 0\nelem 1 1\nelem 1 2\n"
        "elem 2 1\nelem 2 2\n",
        # the node of Z^2, which passes
        "r 2\nmin 0 0\nconductor 1 1\nelem 0 0\nelem 1 1\n",
    ]
    return [_document_rep(text) for text in texts]


def test_validate_matches_former_sorted_validate(data_dir):
    # validate reads the structural bounds from per-axis minima and maxima
    # before any sort, and tests conductor minimality as a set lookup; the
    # reports must be those of the former validate, which sorted first
    from test_constructors import _random_point_sets

    rng = random.Random(20262)
    semigroups = _semigroups()
    cases = [(SmallRep(len(c), m, c, frozenset(pts)), None)
             for m, c, pts in _random_point_sets(20263)]
    cases += [(E, None) for E in _structural_documents()]
    cases += [(_document_rep(path.read_text(encoding="utf-8")), None)
              for path in sorted(data_dir.glob("*.gsi"))]
    cases += [(_dense_rep(rng, rng.randint(1, 3)), None) for _ in range(100)]
    for _ in range(200):
        S = semigroups[rng.choice(sorted(semigroups))]
        cases.append((_random_rep(rng, S), S))
    seen = set()
    for E, S in cases:
        for S_arg, semigroup in ((None, False), (S, False), (None, True)):
            want = _old_sorted_validate(E, S_arg, semigroup=semigroup).to_dict()
            got = validate(E, S_arg, semigroup=semigroup).to_dict()
            assert got == want, (E, S_arg, semigroup)
            seen.update((c["axiom"], c.get("reason")) for c in got["counterexamples"])
    structural = {"min exceeds conductor", "min not among small elements",
                  "conductor not among small elements",
                  "small element outside [min, conductor]"}
    assert {("structural", reason) for reason in structural} <= seen, seen
    conductor = "conductor not minimal: c - e_i already conducts"
    assert {("E1", None), ("E2", None), ("conductor", conductor),
            ("compatibility", None), ("semigroup", None)} <= seen, seen


def _seeded_dual_ideals():
    """(name, ideals) per semigroup of ``_semigroups``: S, K(S), two
    ``random_good`` draws and six seeded ``_random_rep`` point sets, of
    which many fail ``validate``."""
    rng = random.Random(47)
    for name, S in sorted(_semigroups().items()):
        K = canonical_ideal(S)
        ideals = [S, K] + [random_good(S, seed) for seed in (1, 4)]
        ideals += [_random_rep(rng, S) for _ in range(6)]
        yield name, ideals


def test_dual_promotion_matches_former_full_box():
    # cd_difference promotes its region on [lo, U] and fiber_dual its points
    # up to U, both with top U and no normaliser; the former promotion, on
    # [lo, U + e] with the top row and the normaliser, must give the same
    # reps and the same failure texts wherever EJ is good, EI good or not,
    # and for the fiber dual on every pair, where a former failure text is
    # now the text of the SoundnessError that its promotion raises.  On an
    # EJ that fails validate, cd_difference is outside its domain: where the
    # former normaliser shrank the region's conductor below U, validate's
    # conductor check now rejects the region
    seen = collections.Counter()
    for name, ideals in _seeded_dual_ideals():
        for EJ in ideals:
            report = validate(EJ)
            for EI in ideals:
                got = _outcome(cd_difference, EJ, EI)
                want = _outcome(_old_full_box_cd_difference, EJ, EI)
                if report.passed:
                    assert got == want, (name, EJ, EI)
                    seen["good EJ"] += 1
                    seen["good EJ, bad EI"] += not validate(EI).passed
                elif got != want:
                    assert isinstance(want, SmallRep), (name, EJ, EI)
                    assert want.c != vsub(EJ.c, EI.m), (name, EJ, EI)
                    assert got[0] is SoundnessError, (name, EJ, EI)
                    assert "'axiom': 'conductor'" in got[1], (name, EJ, EI)
                    seen["changed, EJ fails " + report.counterexamples[0]["axiom"]] += 1
                seen["dual " + ("failed" if isinstance(got, tuple) else "promoted")] += 1
                fd = _outcome(fiber_dual, EJ, EI)
                assert fd == _former_fiber_dual(_old_full_box_fiber_dual(EJ, EI)), (
                    name, EJ, EI)
                seen["fiber dual " + ("failed" if isinstance(fd, tuple) else "promoted")] += 1
    assert seen["good EJ"] == 550 and seen["good EJ, bad EI"] == 167, seen
    assert (seen["changed, EJ fails conductor"], seen["changed, EJ fails E2"],
            seen["changed, EJ fails E1"]) == (84, 11, 5), seen
    assert seen["dual failed"] >= 10 and seen["fiber dual failed"] >= 50, seen
    assert seen["dual promoted"] >= 500 and seen["fiber dual promoted"] >= 500, seen


# The quotient and cd_difference as they ran on [m_J - c_I, U], kept
# verbatim: the window of EJ reached up to U + kmax, and the top class of EI
# ANDed it over [0, kmax - c_I] by doubling shifts (``_old_and_run``, the
# AND over a run of shifts as the quotient once ran it).
def _old_and_run(mask: int, stride: int, n: int) -> int:
    width = 1
    while width < n:
        step = min(width, n - width)
        mask &= mask >> step * stride
        width += step
    return mask


def _old_capped_quotient(EJ: SmallRep, EI: SmallRep, lo: Point, hi: Point,
                         cap: Point) -> set[Point]:
    e = ones(EJ.r)
    wlo, whi = vadd(lo, EI.m), vadd(hi, cap)
    _, dims, strides = Layout.of(wlo, whi)
    alphas = Layout(EI.m, dims, strides)
    W = _window(EJ, wlo, whi)
    acc = _box_mask(dims, vadd(vsub(hi, lo), e))
    for s in sorted(EI.small):
        if s == EI.c:  # the last small element, as all lie below c_I
            for k, st in enumerate(strides):
                W = _old_and_run(W, st, cap[k] - EI.c[k] + 1)
        acc &= W >> alphas.index(s)
    return set(Layout(lo, dims, strides).points(acc))


def _old_capped_cd_difference(EJ: SmallRep, EI: SmallRep) -> SmallRep:
    """The good ideal D = {beta : beta + EI <= EJ} (value-set ideal quotient),
    computed on [m_J - c_I, U], U = c_J - m_I, and promoted with top U."""
    _require_same_r(EJ, EI)
    e = ones(EJ.r)
    lo, _, U = _dual_box(EJ, EI)
    # superset of every per-beta quantifier cap K(beta); quantifying over the
    # larger window is equivalent by the cap argument
    kmax = vadd(join(EI.c, vsub(EJ.c, lo)), e)
    points = _old_capped_quotient(EJ, EI, lo, U, kmax)
    return _promote_region("cd_difference result", EJ.r, points, U)


def test_dual_box_matches_former_capped_fold():
    # the quotient on [c_J - c_I, U] must give the reps and failure texts of
    # the former one on [m_J - c_I, U] wherever EJ is good, EI good or not;
    # on an EJ that fails validate, cd_difference is outside its domain
    pairs = [(EJ, EI) for _, ideals in _seeded_dual_ideals()
             for EJ in ideals if validate(EJ).passed for EI in ideals]
    for r in (6, 7, 8):
        S = node(r)
        K = canonical_ideal(S)
        ideals = [S, K, translate(K, ones(r))]
        pairs += [(EJ, EI) for EJ in ideals for EI in ideals]
    seen = collections.Counter()
    for EJ, EI in pairs:
        got = _outcome(cd_difference, EJ, EI)
        assert got == _outcome(_old_capped_cd_difference, EJ, EI), (EJ, EI)
        if isinstance(got, SmallRep):
            assert leq(vsub(EJ.c, EI.c), got.m), (EJ, EI)
        seen[isinstance(got, SmallRep), validate(EI).passed] += 1
    assert seen == {(True, True): 410, (True, False): 167}, seen


# The open table and the mask E1/E2 test as they stepped entries with the
# former ``SmallRep.up`` (a method then, ``self`` read as E here), kept
# verbatim as the reference for the one-axis-at-a-time step and for the E2
# test that leaves the top row of i untested.
def _old_up(E: SmallRep, mask: int, k: int) -> int:
    keep = E.tables.rows.top[k]
    return mask >> E.layout.strides[k] & keep | mask & ~keep


def _old_open_table(E: SmallRep) -> tuple[int, ...]:
    table = list(E.tables.fiber_table)
    for J in range(1, len(table)):
        for k in range(E.r):
            if not J >> k & 1:
                table[J] = _old_up(E, table[J], k)
    return tuple(table)


def _old_pairs_good(E: SmallRep) -> bool:
    T, O = E.tables.fiber_table, _old_open_table(E)
    full = (1 << E.r) - 1
    outside = ~E.grid
    for J in range(1, full, 2):  # each split once, axis 0 in J
        if T[J] & T[full ^ J] & outside:
            return False
    for K in range(1, full):
        J = full ^ K
        pairs = _split_pairs(O, K, J)
        if pairs:
            for i in range(E.r):
                if K >> i & 1 and pairs & ~_old_up(E, T[J], i):
                    return False
    return True


def _top_row_pairs(E: SmallRep) -> bool:
    """Whether some E2 demand of E sits on the top row of its axis i, where
    the mask test no longer looks."""
    O, full = E.tables.open_table, (1 << E.r) - 1
    return any(K >> i & 1 and _split_pairs(O, K, full ^ K) & ~E.tables.rows.top[i]
               for K in range(1, full) for i in range(E.r))


def test_open_table_and_pairs_good_match_former_step_up():
    from test_constructors import _random_point_sets

    rng = random.Random(20281)
    reps = [SmallRep(len(c), m, c, frozenset(pts))
            for m, c, pts in _random_point_sets(20282)]
    reps += _structural_documents()
    reps += [_dense_rep(rng, rng.randint(1, 3)) for _ in range(300)]
    for S in _semigroups().values():
        reps += [S, canonical_ideal(S), random_good(S, 5)]
    reps += [node(r) for r in range(1, 9)]
    reps += [random_good(node(6), seed) for seed in range(3)]
    seen = collections.Counter()
    for E in reps:
        if [c["axiom"] for c in validate(E).counterexamples] == ["structural"]:
            continue  # the tables and _pairs_good take structurally valid reps
        assert E.tables.open_table == _old_open_table(E), E
        got = _pairs_good(E)
        assert got == _old_pairs_good(E), E
        seen[got, _top_row_pairs(E)] += 1
    # the dropped top-row demands occur on passing and failing reps alike
    assert min(seen[True, True], seen[False, True], seen[True, False]) >= 20, seen


# The doubling loop of the draw's up-move T_d (now ``Rows.shift``) before it
# read the suffix OR of its steps, kept verbatim: the OR of the top dk + 1
# rows.
def _old_shift_fold(M: int, s: int, dk: int) -> int:
    fold, width = M, 1
    while width <= dk:
        step = min(width, dk + 1 - width)
        fold |= fold >> step * s
        width += step
    return fold


def _old_box_shift(layout: Layout, M: int, d: tuple[int, ...]) -> int:
    """The former up-move, through ``_old_shift_fold``, with its row masks
    (the points with t_k < low and with t_k = low) built by ``_box_mask``."""
    dims = layout.dims
    for k, dk in enumerate(d):
        if dk:
            s, low = layout.strides[k], dims[k] - 1 - dk
            below = [_box_mask(dims, dims[:k] + (v,) + dims[k + 1:]) for v in (low, low + 1)]
            fold = _old_shift_fold(M, s, dk)
            M = (M & below[0] | fold & below[1] & ~below[0]) << dk * s
    return M


def test_box_shift_matches_former_doubling_loops():
    rng = random.Random(20284)
    for _ in range(3000):
        stride, n = rng.randint(1, 9), rng.randint(1, 20)
        mask = rng.choice((0, (1 << rng.randint(1, 300)) - 1, rng.getrandbits(300)))
        anded = _old_and_run(mask, stride, n)
        ored = _old_shift_fold(mask, stride, n - 1)
        shifts = [mask >> t * stride for t in range(n)]
        assert anded == functools.reduce(operator.and_, shifts)
        assert ored == functools.reduce(operator.or_, shifts)
    # the suffix OR of Rows.steps gives the former shift on every box axis
    for _ in range(600):
        r = rng.randint(1, 4)
        m = tuple(rng.randint(-2, 2) for _ in range(r))
        c = tuple(x + rng.randint(0, 9) for x in m)
        rows = Rows(Layout.of(m, c))
        steps = [list(rows.steps(k)) for k in range(r)]
        layout = rows.layout
        M = rng.choice((0, layout.whole, rng.getrandbits(math.prod(layout.dims))))
        d = tuple(rng.randint(0, y - x) for x, y in zip(m, c))
        assert rows.shift(M, d, steps) == _old_box_shift(layout, M, d), (m, c, M, d)


def test_row_family_masks_are_their_definitions():
    # every mask of Rows against the points it stands for, decoded with
    # Layout.points: the rows below v, top, eq and ge, each step's keep
    # mask, the closed and open fiber tables that _fibers builds with them
    # and the fiber cut, on random layouts with one-row axes and r up to 5
    rng = random.Random(20411)
    seen = collections.Counter()
    for _ in range(200):
        r = rng.randint(1, 5)
        lo = tuple(rng.randint(-2, 2) for _ in range(r))
        dims = tuple(rng.choice((1, 1, 2, 3, 4, 5)) for _ in range(r))
        layout = Layout.of(lo, tuple(x + d - 1 for x, d in zip(lo, dims)))
        rows = Rows(layout)
        pts = list(box_points(layout.lo, tuple(x + d - 1 for x, d in zip(lo, dims))))
        M = rng.getrandbits(len(pts))
        members = set(layout.points(M))

        def where(test):
            return [p for p in pts if test(tuple(x - l for x, l in zip(p, lo)))]

        for k, d in enumerate(dims):
            seen[d == 1] += 1
            for v in range(d + 1):
                assert layout.points(rows.below(k, v)) == where(lambda t: t[k] < v)
                assert layout.points(rows.ge[k][v]) == where(lambda t: t[k] >= v)
            assert [layout.points(x) for x in rows.eq[k]] == [
                where(lambda t: t[k] == v) for v in range(d)]
            assert layout.points(rows.top[k]) == where(lambda t: t[k] < d - 1)
            steps = list(rows.steps(k))
            assert [shift for shift, _ in steps] == [
                s * layout.strides[k] for s in (1, 2, 4, 8) if s < d]
            for shift, keep in steps:
                s = shift // layout.strides[k]
                assert layout.points(keep) == where(lambda t: t[k] < d - s)
        # the fiber tables of M: bit t of entry J holds a member equal to t
        # on J and, on every axis k that J leaves free, at least t_k
        # (closed) or above it (open), or at least t_k on the top row of k
        # (open, the top row kept)
        tables = [_fibers(rows, M), _fibers(rows, M, True)]
        assert [len(T) for T in tables] == [1 << r] * 2 and tables[0][0] == tables[1][0] == 0
        for J in range(1, 1 << r):
            pinned = [k for k in range(r) if J >> k & 1]
            free = [k for k in range(r) if not J >> k & 1]
            by_pinned = collections.defaultdict(list)  # free coordinates by pinned ones
            for q in members:
                by_pinned[tuple([q[k] for k in pinned])].append([q[k] for k in free])
            for opened, table in enumerate(tables):
                fiber = []
                for p in pts:
                    least = [p[k] + (opened and p[k] - lo[k] < dims[k] - 1) for k in free]
                    if any(all(map(operator.ge, q, least))
                           for q in by_pinned[tuple([p[k] for k in pinned])]):
                        fiber.append(p)
                assert layout.points(table[J]) == fiber, (dims, J, opened)
        for _ in range(4):
            t = tuple(rng.randrange(d) for d in dims)
            J, closed = rng.randrange(1 << r), rng.random() < 0.5
            fiber = where(lambda u: all(
                a == b if J >> j & 1 else (a >= b if closed else a > b)
                for j, (a, b) in enumerate(zip(u, t))))
            got = layout.points(rows.fiber(M, t, J, closed))
            assert got == [p for p in fiber if p in members], (dims, t, J, closed)
    assert seen[True] >= 100 and seen[False] >= 100, seen


def test_rep_row_family_keeps_top_only():
    # a rep's family builds the rows below the top row and nothing else:
    # its steps are taken as built, and no per-row list is made, so a grid
    # of thousands of rows per axis keeps r masks beside its tables
    E = SmallRep(3, (0, 0, 0), (40, 3, 57), frozenset({(0, 0, 0), (7, 1, 20), (40, 3, 57)}))
    validate(E)
    assert E.tables.fiber_layers and E.tables.open_table
    assert set(vars(E.tables.rows)) == {"layout", "top"}
    assert len(E.tables.rows.top) == 3


def _built(E: SmallRep) -> set[str]:
    """What E has built and kept: its own cached values and, once it has a
    table holder, the tables and layers built in that holder."""
    holder = vars(E).get("tables")
    return set(vars(E)) | (set(vars(holder)) if holder is not None else set())


def test_open_fiber_bits_read_the_closed_table(holders):
    # fiber_occupied reads an open fiber off the closed table at alpha + e
    # on the free axes, clamped, and builds no open table; its bit is the
    # open table's at alpha, for every J and every box point up to 3 past
    # each side of the grid (up to 2 at r = 3 and 1 at r >= 4).  Each copy
    # is made in an emptied holder registry, so its holder is its own
    fresh = replace(node(6))
    assert fiber_witness(fresh, zero(6), (1,)) is None  # the open fiber is empty
    assert "fiber_table" in _built(fresh) and "open_table" not in _built(fresh)
    semigroups = _semigroups()
    semigroups.update({f"node{r}": node(r) for r in range(1, 6)})
    queries = 0
    for name, S in sorted(semigroups.items()):
        for E in [S] + [random_good(S, seed) for seed in range(4)]:
            holders.clear()
            E = replace(E)
            margin = (3, 3, 3, 2, 1, 1)[E.r]
            lo = tuple(x - 1 - margin for x in E.m)
            hi = tuple(x + margin for x in E.c)
            reads = [[E.fiber_occupied(alpha, J) for J in range(1, 1 << E.r)]
                     for alpha in box_points(lo, hi)]
            assert "open_table" not in _built(E), name
            want = [[E.tables.open_table[J] >> E.index(alpha) & 1 == 1 for J in range(1, 1 << E.r)]
                    for alpha in box_points(lo, hi)]
            assert reads == want, (name, E)
            queries += len(reads) * ((1 << E.r) - 1)
    assert queries > 250_000, queries


def test_normaliser_and_quotient_preconditions(monkeypatch):
    # _least_conductor is only handed sets that hold their box top c
    # (from_small_elements, its one caller, adds c), and the quotient of
    # cd_difference always keeps its top U, as U + alpha >= c_J for every
    # alpha >= m_I: so neither needs a test for an empty answer
    import gsi.constructors as constructors
    import gsi.duality as duality
    from test_constructors import _random_point_sets

    holds_top, keeps_top = [], []

    def normalised(P):
        holds_top.append(P.c in P.small)
        return _least_conductor(P)

    def quotient(EJ, EI, lo, hi):
        points = _quotient(EJ, EI, lo, hi)
        keeps_top.append(hi in points)
        return points

    monkeypatch.setattr(constructors, "_least_conductor", normalised)
    monkeypatch.setattr(duality, "_quotient", quotient)
    for m, c, pts in _random_point_sets(20286):
        _outcome(from_small_elements, len(c), m, c, pts - {c})
    rng = random.Random(20287)
    for S in _semigroups().values():
        ideals = [S, canonical_ideal(S), random_good(S, 2)]
        ideals += [_random_rep(rng, S) for _ in range(4)]
        for EJ in ideals:
            for EI in ideals:
                _outcome(cd_difference, EJ, EI)
                _outcome(fiber_dual, EJ, EI)
    # every point set reaches the normaliser, and random_good's draws do too
    assert len(holds_top) > 300 and all(holds_top)
    assert len(keeps_top) > 300 and all(keeps_top)


def _kernel_cases() -> list[tuple[SmallRep, SmallRep | None, bool]]:
    """(E, S, semigroup) arguments of ``validate`` that reach every branch
    of its kernel: the reps of ``_sweep_family`` and their variants alone
    and against each semigroup of ``_semigroups`` (of every dimension, so
    compatibility fails and S's dimension may differ); the semigroups and
    the family's reps as semigroups, most of which fail; the one-element
    reps {p} with m = c = p at m and at c, with and without S, alone and
    as semigroups; the malformed one-element reps on [m, c] with m != c
    holding m, c, or a point x that is neither (c + e, or an inner small
    element); and per rep each structural failure: min above the
    conductor, min or conductor missing, and an element below m or
    above c."""
    semigroups = list(_semigroups().values())
    family = [E for group in _sweep_family() for E in group]
    own = {S.r: S for S in reversed(semigroups)} | {r: node(r) for r in (4, 5)}
    cases = [(E, None, False) for E in family]
    cases += [(E, S, False) for E in family for S in semigroups]
    cases += [(S, None, True) for S in semigroups + family]
    for E in family:
        e = ones(E.r)
        below, above = vsub(E.m, e), vadd(E.c, e)
        for p in (E.m, E.c):
            point = SmallRep(E.r, p, p, frozenset({p}))
            cases += [(point, S, semigroup) for S in (None, own[E.r])
                      for semigroup in (False, True)]
        inner = sorted(E.small - {E.m, E.c})
        if E.m != E.c:
            cases += [(SmallRep(E.r, E.m, E.c, frozenset({x})), None, False)
                      for x in (E.m, E.c, above, *inner[len(inner) // 2:][:1])]
        cases += [(SmallRep(E.r, m, c, small), None, False) for m, c, small in (
            (E.c, E.m, E.small | {E.m, E.c}), (below, E.c, E.small),
            (E.m, above, E.small), (E.m, E.c, E.small | {below}),
            (E.m, E.c, E.small | {above}))]
    return cases


def test_axiom_kernel_matches_former_validate():
    # validate wraps the record of the report-free kernel _axiom_failure,
    # which every promotion and constructor calls alone; its reports must
    # be those of the former validate, which built its report as it went
    seen = collections.Counter()
    for E, S, semigroup in _kernel_cases():
        want = _old_report_validate(E, S, semigroup=semigroup).to_dict()
        assert validate(E, S, semigroup=semigroup).to_dict() == want, (E, S, semigroup)
        first = want["counterexamples"][0] if want["counterexamples"] else None
        # the semigroup axioms have their own kernel, run once the ideal
        # axioms pass
        kernel = _axiom_failure(E, S)
        if kernel is None and semigroup:
            kernel = _semigroup_failure(E)
        assert kernel == first, (E, S, semigroup)
        seen[(first["axiom"], first.get("reason")) if first else "pass", len(E.small) == 1] += 1
    reasons = ["min exceeds conductor", "min not among small elements",
               "conductor not among small elements",
               "small element outside [min, conductor]", "semigroup dimension mismatch"]
    kinds = [("structural", reason) for reason in reasons] + [
        ("E1", None), ("E2", None), ("compatibility", None),
        ("compatibility", "conductor exceeds min + c(S)"), ("semigroup", None),
        ("semigroup", "0 not a member"),
        ("conductor", "conductor not minimal: c - e_i already conducts"), "pass"]
    assert all(seen[kind, False] >= 5 for kind in kinds), seen
    assert seen["pass", True] >= 50 and seen[("semigroup", None), True] >= 5, seen
    # the one-element reps: m = c passes alone and against S of its
    # dimension, and as a semigroup passes or fails; m != c fails the
    # structural part
    one = [("semigroup", "0 not a member"), ("semigroup", None), ("structural", reasons[1]),
           ("structural", reasons[2]), ("structural", reasons[4])]
    assert all(seen[kind, True] >= 5 for kind in one), seen


def test_p1_is_the_layer_of_the_open_table(holders):
    # Tables.p1 reads P[1] off the grid, building no table; it must be
    # the layer P[1] that fiber_layers ORs from the open table, each read on
    # a copy of its own, made in an emptied holder registry: over the sweep
    # family (S, K(S) and six draws per semigroup of _semigroups and
    # node(1)-node(5), and their invalid variants of one layout),
    # node(1)-node(8) and draws over node(6)
    reps = [E for group in _sweep_family() for E in group]
    reps += [node(r) for r in range(1, 9)]
    reps += [random_good(node(6), seed) for seed in range(3)]
    invalid = 0
    for E in reps:
        holders.clear()
        copy = replace(E)
        p1 = copy.tables.p1
        assert "fiber_table" not in _built(copy) and "open_table" not in _built(copy), E
        holders.clear()
        assert p1 == replace(E).tables.fiber_layers[0][1], E
        invalid += not validate(E).passed
    assert len(reps) >= 250 and invalid >= 50, (len(reps), invalid)


def test_duality_layer_builds_no_fiber_tables(holders, table_builds, monkeypatch):
    # canonical_ideal, fiber_dual, is_canonical and fiber_empty read P[1]
    # off the grid (Tables.p1), so on fresh reps, each made in an emptied
    # holder registry, they build no fiber table and no (p, q) layer.  The
    # axiom kernel that certifies a result builds its own (_pairs_good),
    # and a result may have an input's shape (K(S) = S for a Gorenstein S),
    # so the builds inside the kernel are left out of the count
    tables = {"fiber_table", "open_table", "fiber_layers"}
    kernel = collections.Counter()

    def pairs_good(E, original=ideal_module._pairs_good):
        before = table_builds.copy()
        good = original(E)
        kernel.update(table_builds - before)
        return good

    def built(call, *args):
        # the tables the call builds outside the kernel
        holders.clear()
        args = [replace(E) for E in args]
        table_builds.clear()
        kernel.clear()
        out = call(*args)
        return out, {name for name, *_ in table_builds - kernel}

    monkeypatch.setattr(ideal_module, "_pairs_good", pairs_good)
    for S in [*_semigroups().values(), node(4), node(5), node(8)]:
        K, found = built(canonical_ideal, S)
        assert not tables & found, S
        for E in (S, K, random_good(S, 1), translate(K, ones(S.r))):
            _, found = built(lambda EI: fiber_dual(K, EI), E)
            assert not tables & found, (S, E)
            _, found = built(lambda E: [fiber_empty(E, alpha)
                                        for alpha in (E.m, frobenius(E), E.c)], E)
            assert not tables & found, (S, E)
        can, found = built(lambda S: is_canonical(K, S), S)
        assert can and not tables & found, S


def test_maximals_builds_no_closed_table(holders):
    # maximals reads the layer P[1] of fiber_layers, which reads the open
    # table, and _fibers builds that from the grid: so the closed table
    # stays unbuilt, on node(4), a draw and a sparse rep with long lines,
    # each copied in an emptied holder registry
    sparse = from_small_elements(2, (0, 0), (30, 41), {(0, 0), (3, 7), (30, 41)})
    for E in (node(4), random_good(node(4), 2), sparse):
        want = maximals(E)
        holders.clear()
        fresh = replace(E)
        assert maximals(fresh) == want, E
        assert "open_table" in _built(fresh) and "fiber_table" not in _built(fresh), E


def test_quotient_one_point_box():
    # a principal EI = p + N^r has m_I = c_I = p, so the dual's box
    # [c_J - c_I, c_J - m_I] is the one point c_J - p, which _quotient
    # returns with no window and no box walk, and which cd_difference
    # promotes to c_J - p + N^r.  An EI whose one small element is c_I but
    # with m_I < c_I fails validate; its box is larger and the quotient
    # keeps the former whole box, whose promotion fails the conductor check
    # (c_J - m_I - e_k lies in it)
    seen = collections.Counter()
    for name, S in sorted(_semigroups().items()):
        e = ones(S.r)
        for EJ in (S, canonical_ideal(S), random_good(S, 2)):
            for p in (S.m, S.c, vadd(S.c, e), vsub(S.m, e), *sorted(S.small)[:3]):
                EI = SmallRep(S.r, p, p, frozenset({p}))
                lo = vsub(EJ.c, p)
                assert _quotient(EJ, EI, lo, lo) == {lo} == set(box_points(lo, lo)), (name, p)
                assert cd_difference(EJ, EI) == SmallRep(S.r, lo, lo, frozenset({lo}))
                seen["principal"] += 1
            EI = SmallRep(S.r, S.m, S.c, frozenset({S.c}))
            lo, hi = vsub(EJ.c, EI.c), vsub(EJ.c, EI.m)
            assert lo != hi and _quotient(EJ, EI, lo, hi) == set(box_points(lo, hi)), name
            kind, text = _outcome(cd_difference, EJ, EI)
            assert kind is SoundnessError and "'axiom': 'conductor'" in text, (name, text)
            seen["whole box"] += 1
    assert seen["principal"] >= 100 and seen["whole box"] >= 20, seen


def test_equality_flags_match_the_reports():
    # the consistency sweep reads its length, rho and duality flags off the
    # sweeps' masks (theorems._equality) and builds no report; they must be
    # the flags the three reports give (theorems._equality_flags), for EJ
    # in {S, K(S), K(S) + e} and EI those or a valid rep of the sweep
    # family, and with the context's dual planted as D + e and as D - e,
    # where the sweeps find counterexamples and the flags read False
    seen = collections.Counter()
    for ideals in _sweep_family():
        S = ideals[0]
        K, e = canonical_ideal(S), ones(S.r)
        EJs = [S, K, translate(K, e)]
        EIs = EJs + [E for E in ideals if E not in EJs and _axiom_failure(E, S) is None]
        for EJ in EJs:
            for EI in EIs:
                D = cd_difference(EJ, EI)
                for shift in (None, e, vsub(zero(S.r), e)):
                    ctx = _CheckContext()
                    if shift is not None:
                        ctx.values["dual", EJ, EI] = translate(D, shift)
                    got = theorems._equality(ctx, EJ, EI)
                    want = theorems._equality_flags(
                        check_length_pairing(EJ, EI, ctx.dual(EJ, EI)),
                        check_rho(EI, EJ, ctx=ctx), check_duality(EJ, EI, ctx=ctx))
                    assert got == want, (EJ, EI, shift, got, want)
                    seen[shift is None, got] += 1
    assert seen[True, (True, True, True)] >= 300, seen
    assert seen[True, (False, False, False)] >= 20, seen
    assert seen[False, (False, False, False)] >= 600, seen


def test_check_all_builds_each_table_once_per_shape(holders, table_builds):
    # every rep of one shape (dims, grid) reads one table holder
    # (SmallRep.tables), so within one check_all no table or layer is built
    # twice for a shape, counting the builds of the axiom kernel that
    # certifies each dual: translates such as K + e and
    # D(EJ, K + e) = D(EJ, K) - e read their holders, over products,
    # numerical semigroups and node(3), each call in an emptied registry
    semigroups = [product(numerical([2, 3]), numerical([3, 4, 5])),
                  product(numerical([4, 5]), numerical([2, 3])),
                  numerical([3, 5]), node(3), numerical([3, 7, 11])]
    calls = 0
    for S in semigroups:
        K, e = canonical_ideal(S), ones(S.r)
        for EJ, EI in ((K, S), (S, translate(K, e)), (K, translate(K, e)),
                       (S, random_good(S, 0))):
            holders.clear()
            S1, EJ, EI = replace(S), replace(EJ), replace(EI)
            table_builds.clear()
            theorems.check_all(S1, EJ, EI)
            assert table_builds and max(table_builds.values()) == 1, (S, EJ, EI, table_builds)
            calls += 1
    assert calls == 20


def test_shared_table_holders_hold_each_reps_own_tables(holders, monkeypatch):
    # every holder a rep reads, in check_all and directly, holds the tables
    # a new holder of the rep's own layout and grid builds, also where a
    # rep of the shape had built tables in it first, and keeps the rep's
    # shape with no corner, so no rep reads another's points
    readers = []

    def recording(rep, read=vars(SmallRep)["tables"].func):
        readers.append(rep)
        return read(rep)

    prop = functools.cached_property(recording)
    prop.__set_name__(SmallRep, "tables")
    monkeypatch.setattr(SmallRep, "tables", prop)
    for S in _semigroups().values():
        K, e = canonical_ideal(S), ones(S.r)
        reps = [S, K, translate(K, e), translate(S, vsub(zero(S.r), e)),
                random_good(S, 0), random_good(S, 1)]
        for E in reps[1::2]:
            assert E.tables.open_table  # built before the checks read it
        for EJ in (S, K):
            for EI in reps:
                theorems.check_all(S, EJ, EI)
    shared = {id(rep.tables) for rep in readers}
    assert len(readers) >= 800 and len(shared) < len(readers) / 4, (len(readers), len(shared))
    for rep in readers:
        own = Tables(rep.layout, rep.grid)
        assert rep.tables.layout == own.layout == rep.layout._replace(lo=zero(rep.r)), rep
        for name in TABLES:
            assert getattr(rep.tables, name) == getattr(own, name), (rep, name)
