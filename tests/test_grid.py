"""The bit-grid kernel against the point-by-point code it replaced.

The references below are the former implementations, copied verbatim: the
point-by-point ``members`` they all enumerate with, the box sweeps of
``validate`` (its E2 witness search included), of the compatibility test and
of ``check_sum``, the per-point quantifier of ``cd_difference``, the
per-point length and rho sweeps, the per-point ``fiber_empty`` sweeps of
``fiber_dual`` and ``canonical_ideal``, the two fiber-table routines that
``ideal._closed_fibers`` replaced, and the structural loop of
``from_small_elements``.  The fast paths must give the same
reports, regions and first counterexamples, byte for byte.
"""
import math
import random

import pytest

from gsi.constructors import _Box, from_small_elements, node, numerical, product, random_good
from gsi.duality import (
    _dual_box,
    _promote_region,
    canonical_ideal,
    cd_difference,
    fiber_dual,
)
from gsi.errors import (
    BoundaryInstabilityError,
    DimensionMismatch,
    GsiError,
    SoundnessError,
    ValidationError,
)
from gsi.fiber import fiber_empty, p_value, q_value
from gsi.gsi_format import parse_gsi
from gsi.ideal import (
    RegionSet,
    SmallRep,
    _bits,
    _box_mask,
    _closed_fibers,
    _compatibility_failure,
    _least_conductor,
    _repeat,
    _reversed_bits,
    _strides,
    _window,
    frobenius,
    is_subset,
    members,
    translate,
    validate,
)
from gsi.lattice import Box, Point, box_points, join, leq, meet, ones, vadd, vsub, zero
from gsi.oracle import materialize
from gsi.report import CheckReport, pt
from gsi.theorems import (
    _check_rho,
    _CheckContext,
    _sweep_box,
    check_length_pairing,
    check_sum,
    length_step,
    rho,
)


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
    rep, failure = _promote_region(EJ.r, points, hi, U)
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


def _old_fiber_dual(EJ: SmallRep, EI: SmallRep) -> RegionSet:
    """{beta : F(EI, frobenius(EJ) - beta) = empty} over the dual box.

    Goodness of this set is not guaranteed for non-canonical EJ, so the raw
    region is returned with the outcome of a promotion attempt.
    """
    lo, hi, U = _dual_box(EJ, EI)
    f = frobenius(EJ)
    points = {beta for beta in box_points(lo, hi)
              if fiber_empty(EI, vsub(f, beta))}
    rep, failure = _promote_region(EJ.r, points, hi, U)
    return RegionSet(EJ.r, Box(lo, hi), frozenset(points), rep, failure)


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
    rep, failure = _promote_region(S.r, points, hi, S.c)
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
        for lo, hi in boxes:
            W = _window(E, lo, hi)
            points = list(box_points(lo, hi))
            for i, p in enumerate(points):
                assert (W >> i & 1 == 1) == E.contains(p), (E, lo, hi, p)
            assert W >> len(points) == 0
            assert members(E, lo, hi) == sorted(materialize(E, lo, hi)), (E, lo, hi)
        with pytest.raises(DimensionMismatch):
            members(E, E.m + (0,), E.c + (0,))


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
        P, Q = E.fiber_layers
        for lo, hi in boxes:
            points = list(box_points(lo, hi))

            def want(holds):
                return sum(1 << i for i, p in enumerate(points) if holds(p))

            for J in range(1, 1 << E.r):
                W = _window(E, lo, hi, E.fiber_table[J])
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
                        got = _check_rho(new, EI, EJ, context).to_dict()
                        assert got == want, (name, EJ, EI, cand, context)
                        fail = not want["passed"]
                        seen["rho_fail"] += fail
                        seen["rho_witness_first"] += fail and bool(want["witnesses"])
                        seen["rho_above"] += bool(want["witnesses"])
    assert min(seen.values()) >= 50, seen


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
                assert fiber_dual(EJ, EI) == _old_fiber_dual(EJ, EI), (name, EJ, EI)
        # canonical_ideal of sets that hold 0 but need not be semigroups: the
        # same ideal, or the same error
        for E in ideals + [_random_rep(rng, S) for _ in range(10)]:
            if E.contains(zero(S.r)):
                want = _outcome(_old_canonical_ideal, E)
                assert _outcome(canonical_ideal, E) == want, (name, E)


def test_sweeps_work_bounded_by_reports(ex2, node3, monkeypatch):
    # The length, rho, fiber-dual and canonical-ideal sweeps read windows of
    # fiber-table entries and layers, so their per-point grid lookups (the
    # clamp of SmallRep.index, which every single fiber, p and q query
    # takes) do not grow with the volume of the sweep box: the only ones
    # left are the two of each rho value a rho report shows.  validate, run
    # on promotion, queries per pair of small elements and is not counted.
    import gsi.duality as duality
    from gsi.theorems import check_rho

    calls, paused = [0], []

    def counted(self, *args, original=SmallRep.index, **kwargs):
        calls[0] += not paused
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SmallRep, "index", counted)

    def uncounted_validate(*args, validate=duality.validate, **kwargs):
        paused.append(True)
        try:
            return validate(*args, **kwargs)
        finally:
            paused.pop()

    monkeypatch.setattr(duality, "validate", uncounted_validate)
    for S in (ex2, node3):
        K = canonical_ideal(S)
        D = cd_difference(K, S)
        lo, hi = _sweep_box(S, D, K.c, 2)
        assert len(list(box_points(lo, hi))) >= 100
        sweeps = [lambda: canonical_ideal(S), lambda: fiber_dual(K, S),
                  lambda: fiber_dual(S, S), lambda: check_length_pairing(K, S, D),
                  lambda: check_length_pairing(S, S), lambda: check_rho(S, K, S),
                  lambda: check_rho(S, S, S)]
        for sweep in sweeps:
            calls[0] = 0
            sweep()
            assert calls[0] <= 4, (S, calls[0])


def _old_suffix_or(mask: int, dims: tuple[int, ...], k: int) -> int:
    """Each bit ORed with the bits above it along axis k, by shift-and-OR
    with doubling steps; before a step of s a bit holds the OR of s bits,
    after it of 2s, and the keep mask stops a shifted bit from crossing
    into the next k-line."""
    d, stride = dims[k], _strides(dims)[k]
    s = 1
    while s < d:
        keep = _box_mask(dims, dims[:k] + (d - s,) + dims[k + 1:])
        mask |= mask >> s * stride & keep
        s *= 2
    return mask


def _old_fiber_table(E: SmallRep) -> tuple[int, ...]:
    """The former ``SmallRep.fiber_table``, through ``_old_suffix_or``."""
    g = E.grid
    full = (1 << E.r) - 1
    table = [0] * (full + 1)
    table[full] = g.mask
    for J in range(full - 1, 0, -1):
        k = ((full ^ J) & -(full ^ J)).bit_length() - 1  # lowest free axis
        table[J] = _old_suffix_or(table[J | 1 << k], g.dims, k)
    return tuple(table)


def _old_box_table(box: _Box, M: int) -> list[int]:
    """The former ``_Box.table``, with its keep masks read from ``below``."""
    full = (1 << len(box.dims)) - 1
    T = [0] * full + [M]
    for J in range(full - 1, 0, -1):
        k = ((full ^ J) & -(full ^ J)).bit_length() - 1
        X, d, s, step = T[J | 1 << k], box.dims[k], box.strides[k], 1
        while step < d:
            X |= X >> step * s & box.below[k][d - step]
            step *= 2
        T[J] = X
    return T


def test_closed_fibers_match_former_tables():
    # SmallRep.fiber_table and the closure's box tables share one routine;
    # both must give the tables of the routines each used before
    semigroups = _semigroups()
    semigroups.update(node4=node(4), node5=node(5))
    rng = random.Random(18)
    sizes = set()
    for name, S in sorted(semigroups.items()):
        for E in [S] + [random_good(S, seed) for seed in range(4)]:
            assert E.fiber_table == _old_fiber_table(E), (name, E)
            box = _Box(E.m, E.c)
            for M in (0, rng.getrandbits(math.prod(box.dims)),
                      (1 << math.prod(box.dims)) - 1):
                assert _closed_fibers(M, box.steps) == _old_box_table(box, M), (name, M)
            sizes.add(box.dims)
    # a sparse grid with long lines, and boxes with a one-row axis
    E = SmallRep(3, (0, 0, 0), (40, 3, 57), frozenset({(0, 0, 0), (7, 1, 20), (40, 3, 57)}))
    assert E.fiber_table == _old_fiber_table(E)
    for dims in [(1,), (1, 4), (3, 1, 2), (2, 2, 2, 2, 2)]:
        box = _Box((0,) * len(dims), tuple(d - 1 for d in dims))
        M = rng.getrandbits(math.prod(dims))
        assert _closed_fibers(M, box.steps) == _old_box_table(box, M), dims
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
