import collections
import hashlib
import itertools
import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsi import constructors, duality, ideal
from gsi.constructors import (
    _closure_fixpoint,
    from_small_elements,
    node,
    numerical,
    product,
    random_good,
)
from gsi.errors import DimensionMismatch, SoundnessError, ValidationError
from gsi.fiber import fiber_empty, maximals
from gsi.gsi_format import emit_gsi
from gsi.ideal import (
    Layout,
    Rows,
    SmallRep,
    _bits,
    _e2_fiber,
    _failing_demands,
    _fibers,
    _least_conductor,
    _split_pairs,
    frobenius,
    members,
    validate,
)
from gsi.lattice import Point, box_points, leq, meet, ones, vadd, vsub, zero


# The former conductor normaliser of from_small_elements, kept verbatim as the
# reference that ideal._least_conductor is compared against.
def _shrink_conductor(m: Point, c: Point, pts: set[Point]) -> tuple[Point, frozenset[Point]]:
    """Replace c by the least stored element that already conducts the data.

    A candidate must head a full sub-box [gamma, c] of stored points, and
    re-clipping to it must leave membership unchanged on [m, c + e]; when no
    candidate qualifies the given c is kept and validation will judge.
    """
    cands = []
    for g in sorted(pts):
        if all(q in pts for q in box_points(g, c)):
            cands.append(g)
    if not cands:
        return c, frozenset(pts)
    low = cands[0]
    for g in cands[1:]:
        low = meet(low, g)
    if low not in cands:
        return c, frozenset(pts)
    small = frozenset(meet(p, low) for p in pts)
    hi = vadd(c, ones(len(c)))
    for q in box_points(m, hi):
        if (meet(q, c) in pts) != (meet(q, low) in small):
            return c, frozenset(pts)
    return low, small


# The former box sweep of ideal._least_conductor, kept verbatim as the
# reference its candidate pass and rule-agreement test are compared against.
def _old_least_conductor(points: set[Point], lo: Point,
                         hi: Point) -> tuple[Point, frozenset[Point]] | str:
    """The least conductor of a point set inside [lo, hi], or why it has none.

    hi must be the top corner of the box, which the set's membership rule
    treats as conducting.  The candidates are the points g with the whole
    sub-box [g, hi] in the set; their meet must be one of them.  With g that
    meet and small the points below g, the rule ``q in E <=> meet(q, g) in
    small`` must agree with the set on all of [lo, hi].  Returns (g, small),
    or the failure reason as a string.
    """
    cands = [g for g in points if all(q in points for q in box_points(g, hi))]
    if not cands:
        return "no conducting candidate"
    g = reduce(meet, cands)
    if g not in cands:
        return "conducting candidates are not meet-closed"
    small = frozenset(p for p in points if leq(p, g))
    # With g == hi, small is the whole set and meet(q, hi) = q on the box, so
    # the rule reads the set unchanged and cannot disagree with it.
    if g != hi:
        for q in box_points(lo, hi):
            if (q in points) != (tuple(map(min, q, g)) in small):
                return f"membership rule disagrees with region at {q}"
    return g, small


def test_numerical_fixtures(n1, n2):
    assert sorted(n2.small) == [(0,), (2,)] and n2.c == (2,)
    assert frobenius(n2) == (1,)
    assert sorted(n1.small) == [(0,), (3,)] and n1.c == (3,)
    assert frobenius(n1) == (2,)


def test_numerical_gcd_error():
    with pytest.raises(ValueError):
        numerical([2, 4])
    with pytest.raises(ValueError):
        numerical([0, 3])


def test_numerical_against_combination_oracle():
    for gens in ([2, 3], [3, 4, 5], [4, 6, 9], [5, 7], [6, 10, 15]):
        S = numerical(gens)
        limit = 3 * S.c[0] + 1
        reachable = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x + g
                if y <= limit and y not in reachable:
                    reachable.add(y)
                    frontier.append(y)
        for x in range(limit + 1):
            assert S.contains((x,)) == (x in reachable), (gens, x)


# The former numerical constructor, kept verbatim (it doubled its sieve bound
# until a run of a_1 reachable integers showed, which never took a second
# round) as the reference for the single sieve.
def _old_numerical(generators: list[int]) -> SmallRep:
    gens = sorted(set(int(g) for g in generators))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError(f"gcd of generators {gens} is not 1; no conductor exists")
    step = gens[0]
    bound = max(gens) * step + step + 1
    while True:
        reach = [False] * (bound + 1)
        reach[0] = True
        for n in range(1, bound + 1):
            for g in gens:
                if g <= n and reach[n - g]:
                    reach[n] = True
                    break
        run_start = None
        run = 0
        for n in range(bound + 1):
            run = run + 1 if reach[n] else 0
            if run >= step:
                run_start = n - step + 1
                break
        if run_start is not None:
            gaps = [n for n in range(run_start) if not reach[n]]
            cond = (gaps[-1] + 1) if gaps else 0
            small = frozenset((n,) for n in range(cond + 1) if reach[n])
            rep = SmallRep(1, (0,), (cond,), small)
            report = validate(rep, semigroup=True)
            if not report.passed:
                raise ValidationError(report)
            return rep
        bound *= 2


def test_numerical_matches_doubling_sieve():
    sets = [gens for k in (1, 2, 3) for gens in itertools.combinations(range(1, 21), k)
            if math.gcd(*gens) == 1]
    assert len(sets) > 1000
    for gens in sets:
        assert numerical(list(gens)) == _old_numerical(list(gens)), gens
    for gens in ([2, 4], [0, 3], []):
        with pytest.raises(ValueError):
            _old_numerical(gens)
        with pytest.raises(ValueError):
            numerical(gens)


def test_numerical_trivial():
    S = numerical([1])
    assert S.c == (0,) and sorted(S.small) == [(0,)]


def test_node_fixtures(node2):
    assert sorted(node2.small) == [(0, 0), (1, 1)] and node2.c == (1, 1)
    # r = 1 normalizes to N: the stored conductor shrinks to the least one
    n = node(1)
    assert n.c == (0,) and sorted(n.small) == [(0,)]


def test_node_runs_the_ideal_axioms_once(monkeypatch):
    # from_small_elements certifies node(r) as an ideal; node adds the
    # semigroup part alone, so the axiom kernel runs once, on the result
    runs = []

    def counted(E, *args, original=constructors._axiom_failure, **kwargs):
        runs.append(E)
        return original(E, *args, **kwargs)

    monkeypatch.setattr(constructors, "_axiom_failure", counted)
    monkeypatch.setattr(ideal, "_axiom_failure", counted)
    for r in (1, 2, 3):
        runs.clear()
        E = node(r)
        assert len(runs) == 1 and runs[0] is E
        assert validate(E, semigroup=True).passed


def test_node_rejects_dimension_zero():
    with pytest.raises(ValueError, match=r"^dimension must be >= 1$"):
        node(0)


def test_product_validates_its_result(n2, data_dir):
    # broken.gsi's points, unvalidated, miss the meet (3, 3) of (3, 4) and
    # (4, 3), and so does their product with N(2, 3), on either side
    from test_grid import _document_rep

    broken = _document_rep((data_dir / "broken.gsi").read_text())
    for A, B, pair, meet_ in ((broken, n2, [[3, 4, 0], [4, 3, 0]], [3, 3, 0]),
                              (n2, broken, [[0, 3, 4], [0, 4, 3]], [0, 3, 3])):
        with pytest.raises(ValidationError) as err:
            product(A, B)
        assert err.value.report.counterexamples == [
            {"axiom": "E1", "pair": pair, "missing_meet": meet_}]


def test_product_examples(n1, n2):
    P = product(n2, n2)
    assert P.c == (2, 2)
    assert validate(P, semigroup=True).passed
    assert maximals(P) == []
    Q = product(n1, node(1))
    assert Q.c == (3, 0)
    assert validate(Q, semigroup=True).passed


def test_from_small_elements_ex2(ex2):
    assert sorted(ex2.small) == [(0, 0), (3, 3), (3, 4), (4, 3), (5, 5)]
    assert validate(ex2).passed


def test_from_small_elements_e1_failure():
    with pytest.raises(ValidationError) as err:
        from_small_elements(2, (0, 0), (5, 5),
                            {(0, 0), (3, 4), (4, 3), (5, 5)})
    first = err.value.report.counterexamples[0]
    assert first["axiom"] == "E1"
    assert first["pair"] == [[3, 4], [4, 3]]


def test_from_small_elements_without_least_conductor_validates_as_given():
    # the conducting candidates (1, 2), (2, 1) and (2, 2) are not
    # meet-closed, so no least conductor exists and the data is validated
    # on the declared box
    with pytest.raises(ValidationError) as err:
        from_small_elements(2, (0, 0), (2, 2), {(0, 0), (1, 2), (2, 1), (2, 2)})
    assert err.value.report.counterexamples[0] == {
        "axiom": "E1", "pair": [[1, 2], [2, 1]], "missing_meet": [1, 1]}


def test_from_small_elements_singleton():
    nat = from_small_elements(1, (0,), (0,), {(0,)})
    assert nat.contains((5,)) and not nat.contains((-1,))


def test_from_small_elements_clips_to_conductor():
    rep = from_small_elements(2, (0, 0), (1, 1), {(0, 0), (1, 1), (1, 3)})
    assert sorted(rep.small) == [(0, 0), (1, 1)]


def test_from_small_elements_names_the_first_point_of_another_dimension():
    # each point is length-checked before it is clipped, and the first one
    # of another dimension, in the order given, raises the text of the
    # former per-point meet with the conductor
    for elems, text in (([(0, 1, 2)], "points of dimension 3 and 2"),
                        ([(0, 0), (1,), (1, 1, 1)], "points of dimension 1 and 2"),
                        ([(0, 0), [1, 1, 1], (1,)], "points of dimension 3 and 2")):
        with pytest.raises(DimensionMismatch) as want:
            meet(tuple(next(p for p in elems if len(p) != 2)), (1, 1))
        assert str(want.value) == text
        with pytest.raises(DimensionMismatch, match=f"^{text}$"):
            from_small_elements(2, (0, 0), (1, 1), elems)


def test_random_good_deterministic(ex2):
    a = random_good(ex2, seed=1)
    b = random_good(ex2, seed=1)
    assert a == b
    assert random_good(ex2, seed=2) != a or True  # different seeds may differ


def test_random_good_postconditions(ex2, node2):
    for S in (ex2, node2):
        for seed in range(10):
            E = random_good(S, seed)
            assert validate(E, S).passed


def test_random_good_raises_when_compatibility_fails(monkeypatch, ex2):
    monkeypatch.setattr(constructors, "_compatibility_failure",
                        lambda E, S: {"s": [0, 0], "p": [1, 1], "sum": [1, 1]})
    with pytest.raises(SoundnessError,
                       match=r"draw 0 is not compatible with S: .*'sum': \[1, 1\]"):
        random_good(ex2, 0)


def test_random_good_raises_when_the_draw_is_not_good(monkeypatch, ex2):
    # the raw sample of seed 3, left unclosed, lacks the meet (0, 3)
    monkeypatch.setattr(constructors, "_closure_fixpoint", lambda r, m, c, pts, S: pts)
    with pytest.raises(SoundnessError,
                       match=r"draw 3 is not a good ideal: .*'E1'.*\[0, 3\]") as info:
        random_good(ex2, 3)
    assert isinstance(info.value.__cause__, ValidationError)
    assert not info.value.__cause__.report.passed


def test_random_good_draws_pinned():
    # emit_gsi of every draw below, hashed in order: the draws, and the
    # order in which each takes its numbers from the rng, are pinned byte
    # for byte
    n23 = numerical([2, 3])
    semigroups = [numerical([3, 4, 5]), n23, node(2), node(3), product(n23, n23),
                  product(n23, node(2))]
    h = hashlib.sha256()
    for S in semigroups:
        for seed in range(6):
            for width in (2, 4):
                for samples in (2, 6):
                    E = random_good(S, seed, max_width=width, samples=samples)
                    h.update(emit_gsi(E).encode())
    assert h.hexdigest() == "e7d40e6ba612aac551d8125b5fa59477f9c5e526796e3056b3e9b9c3f634d94b"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_good_always_valid_r1(seed):
    S = numerical([3, 4, 5])
    E = random_good(S, seed)
    assert validate(E, S).passed
    assert fiber_empty(E, frobenius(E))


def test_hundred_seeds_r1(n1):
    for seed in range(100):
        E = random_good(n1, seed)
        assert validate(E, n1).passed
        assert fiber_empty(E, frobenius(E))


def test_constructors_are_semigroups(n1, n2, node2, node3, prod22):
    for S in (n1, n2, node2, node3, prod22):
        assert S.contains(zero(S.r))
        assert validate(S, semigroup=True).passed


def _random_point_sets(seed: int):
    """Seeded point sets inside [m, c] holding m and c, as from_small_elements
    hands them over: sparse and dense, with and without a full top sub-box,
    meet-closed or not."""
    rng = random.Random(seed)
    for _ in range(300):
        r = rng.randint(1, 3)
        m = tuple(rng.randint(-2, 2) for _ in range(r))
        c = tuple(x + rng.randint(0, 3) for x in m)
        box = list(box_points(m, c))
        density = rng.choice((0.2, 0.5, 0.8))
        pts = {m, c} | {p for p in box if rng.random() < density}
        if rng.random() < 0.6:
            g = rng.choice(box)
            pts.update(box_points(g, c))
        if rng.random() < 0.5:
            while True:
                meets = {meet(a, b) for a in pts for b in pts} - pts
                if not meets:
                    break
                pts |= meets
        yield m, c, pts


def _normalised(points: set[Point], m: Point,
                c: Point) -> tuple[Point, frozenset[Point]]:
    """ideal._least_conductor on the provisional rep of points on [m, c],
    read back as the (g, small) pair the references return."""
    found = _least_conductor(SmallRep(len(c), m, c, frozenset(points)))
    assert found.m == m, (found, m)
    return found.c, found.small


def _sparse_documents(n: int):
    """Three sparse documents of conductor (n, n), as from_small_elements
    hands them over: {0, c}, which keeps c; five elements whose top 2 x 2
    block shrinks c to (n - 1, n - 1); and {0, (n - 1, n), c, (n, 5)},
    whose run down from c ends at (n - 1, n) while the rule of that
    conductor puts (n - 1, 5) in, the set not (it fails E1)."""
    m, c = (0, 0), (n, n)
    yield m, c, {m, c}
    yield m, c, {m, c} | {(x, y) for x in (n - 1, n) for y in (n - 1, n)}
    yield m, c, {m, (n - 1, n), c, (n, 5)}


def test_least_conductor_matches_shrink_conductor():
    reasons = set()
    shrunk = 0
    for m, c, pts in (*_random_point_sets(20241), *_sparse_documents(300)):
        found = _normalised(pts, m, c)
        want = _old_least_conductor(pts, m, c)
        if isinstance(want, str):
            # where the former routine gave a reason, P is kept as given
            reasons.add(want.split(" at ")[0])
            assert found == (c, frozenset(pts)), (m, c, sorted(pts))
        else:
            assert found == want, (m, c, sorted(pts))
            shrunk += found[0] != c
        assert found == _shrink_conductor(m, c, pts), (m, c, sorted(pts))
    # every path of the routine is exercised, and both former reasons occur
    assert shrunk >= 20
    assert reasons == {"conducting candidates are not meet-closed",
                            "membership rule disagrees with region"}


def test_least_conductor_builds_no_grid_for_sparse_documents(monkeypatch):
    # the shrunk rule is checked by counting its clamp classes, so no
    # 4M-bit grid is built: not that of the provisional rep, nor that of
    # the result, nor one to name where the rule and the set disagree; the
    # disagreeing document fails E1 in validate's pair loops
    built = []
    grid = SmallRep.grid
    monkeypatch.setattr(SmallRep, "grid", property(lambda P: built.append(P) or grid.func(P)))
    (m, c, keeps), (_, _, shrinks), (_, _, fails) = _sparse_documents(2000)
    E = from_small_elements(2, m, c, keeps)
    assert E.c == c and E.small == {m, c}
    E = from_small_elements(2, m, c, shrinks)
    assert E.c == (1999, 1999) and E.small == {m, E.c}
    with pytest.raises(ValidationError) as err:
        from_small_elements(2, m, c, fails)
    assert err.value.report.counterexamples[0] == {
        "axiom": "E1", "pair": [[1999, 2000], [2000, 5]], "missing_meet": [1999, 5]}
    assert not built, built


def test_least_conductor_matches_box_sweep_on_dual_regions(monkeypatch):
    from test_grid import _semigroups

    inputs, promoted = [], []

    def record(P):
        inputs.append(P)
        return _least_conductor(P)

    # the raw data from_small_elements normalises for random_good, r = 4
    # included, and documents declared one step past their conductor, which
    # shrink; and the promoted duals, fiber duals and canonical ideals, whose
    # tops their docstrings prove least, so the normaliser returns them as
    # they are
    monkeypatch.setattr(constructors, "_least_conductor", record)
    for S in _semigroups().values():
        K = duality.canonical_ideal(S)
        R = random_good(S, 1)
        promoted.append(K)
        for EJ, EI in ((S, S), (K, S), (S, K), (K, R)):
            promoted.append(duality.cd_difference(EJ, EI))
            promoted.append(duality.fiber_dual(EJ, EI).promoted)
        for E in (S, K, R):
            top = vadd(E.c, ones(E.r))
            from_small_elements(E.r, E.m, top, members(E, E.m, top))
    for S in (node(4), product(numerical([2, 3]), node(3))):
        for seed in range(4):
            random_good(S, seed, max_width=3)
    monkeypatch.undo()
    assert len(promoted) >= 70, len(promoted)
    for D in promoted:
        assert _least_conductor(D) is D, D
        assert _old_least_conductor(set(D.small), D.m, D.c) == (D.c, D.small), D
    shrunk = 0
    assert any(P.r == 4 for P in inputs)
    for P in inputs:
        points, lo, hi = set(P.small), P.m, P.c
        found = _normalised(points, lo, hi)
        assert found == _old_least_conductor(points, lo, hi), (lo, hi, sorted(points))
        shrunk += found[0] != hi
    # the rule-agreement test runs on these; the failure reasons are covered
    # by the random point sets above
    assert shrunk >= 20, (shrunk, len(inputs))


# The former witness box of ideal._capped_ranges and the former point-set
# closure of random_good, which walked that box for every pair, kept verbatim
# (under _old_ names) as the references that constructors._closure_fixpoint
# and fiber.fiber_witness are compared against.
def _old_capped_ranges(alpha: Point, J: int, closed: bool,
                       c: Point) -> list[tuple[int, int]]:
    """Search ranges for a member of the J-fiber of alpha (J a bitmask of
    0-based axes), open or closed.

    Axes in J are pinned to alpha; a free axis k runs over [low, max(c_k,
    low)], with low = alpha_k when closed and alpha_k + 1 when open.  The cap
    is lossless: meeting a remote member of the fiber with a member above the
    conductor pulls it into the box without leaving the fiber.
    """
    ranges = []
    for k, (a, ck) in enumerate(zip(alpha, c)):
        if J >> k & 1:
            ranges.append((a, a))
        else:
            low = a if closed else a + 1
            ranges.append((low, max(ck, low)))
    return ranges


def _old_closure_fixpoint(r: int, m: Point, c: Point, pts: set[Point],
                          S: SmallRep | None) -> set[Point]:
    """Grow pts inside [m, c] until meet-closed, E2-repaired, and compatible
    with S.  Terminates: additions are monotone within a finite box."""
    if S is not None:
        # c <= m + c(S) must hold, so the top sub-box is forced in.
        base = meet(vadd(m, S.c), c)
        pts.update(box_points(base, c))

    changed = True
    while changed:
        changed = False
        snap = sorted(pts)
        # meet closure
        for i, a in enumerate(snap):
            for b in snap[i + 1:]:
                g = meet(a, b)
                if g not in pts:
                    pts.add(g)
                    changed = True
        # compatibility: S + E <= E on stored data
        if S is not None:
            for s in sorted(S.small):
                for p in sorted(pts):
                    q = meet(vadd(s, p), c)
                    if q not in pts:
                        pts.add(q)
                        changed = True
        # E2 repair with the componentwise-minimal admissible witness
        snap = sorted(pts)
        for i, a in enumerate(snap):
            for b in snap[i + 1:]:
                for k in range(r):
                    if a[k] != b[k]:
                        continue
                    if a[k] >= c[k]:
                        continue  # rule supplies a witness above the conductor
                    lows, highs = zip(*_old_capped_ranges(*_e2_fiber(a, b, k), True, c))
                    if (lows not in pts and not any(
                            meet(g, c) in pts for g in box_points(lows, highs))):
                        pts.add(lows)
                        changed = True
    return pts


def test_closure_fixpoint_matches_point_set_reference(monkeypatch):
    from test_grid import _semigroups

    def recording(fixpoint, sets):
        def run(r, m, c, pts, S):
            got = fixpoint(r, m, c, pts, S)
            sets.append(frozenset(got))
            return got
        return run

    # random_good draws, r <= 5: the one fixpoint call of each draw returns
    # the same set, and the emitted ideal is the same.
    # Over N(5,7) x N(5,6), with 143 small elements, c - m lies below c(S)
    # on some axes and above it on others.
    n23 = numerical([2, 3])
    semigroups = [*_semigroups().values(), node(4), product(n23, node(3)),
                  product(numerical([5, 7]), numerical([5, 6]))]
    widths = {1: (2, 4, 6), 2: (2, 4, 6), 3: (2, 3, 4), 4: (2, 3)}
    draws = [(S, seed, width) for S in semigroups for seed in range(12)
             for width in widths[S.r]]
    draws += [(S, seed, 6) for S in semigroups if S.r == 3 for seed in range(2)]
    draws += [(node(5), seed, 4) for seed in range(2)]
    # replaying the E2 demands in bit order instead of first-pair order
    # changes the ideal of this draw
    draws += [(product(product(n23, n23), product(n23, n23)), 13, 4)]
    calls = 0
    for S, seed, width in draws:
        runs = []
        for fixpoint in (_old_closure_fixpoint, _closure_fixpoint):
            sets = []
            monkeypatch.setattr(constructors, "_closure_fixpoint", recording(fixpoint, sets))
            runs.append((emit_gsi(random_good(S, seed, max_width=width)), sets))
        assert runs[0] == runs[1], (S, seed, width)
        calls += len(runs[0][1])
    assert calls == len(draws)
    monkeypatch.undo()

    # S given on seeded samples in wider boxes, r <= 3.  The first input
    # has c - m = (1, 2, 4) against c(S) = (2, 2, 2): a compatibility step
    # that also scans the points it adds (a worklist, closing each shift
    # under itself) grows a different set from it.
    n23_3 = product(product(n23, n23), n23)
    cases = [(n23_3, (0, 0, 1), (1, 2, 5), {(0, 0, 1), (1, 0, 5), (1, 2, 1), (1, 2, 5)})]
    rng = random.Random(20253)
    for _ in range(150):
        S = rng.choice((node(2), node(3), n23, product(n23, n23), n23_3,
                        product(numerical([5, 7]), numerical([5, 6]))))
        m = tuple(rng.randint(-2, 2) for _ in range(S.r))
        c = tuple(x + rng.randint(0, 7 if S.r <= 2 else 4) for x in m)
        pts = {m, c} | {tuple(map(rng.randint, m, c)) for _ in range(rng.randint(1, 8))}
        cases.append((S, m, c, pts))
    for S, m, c, pts in cases:
        want = _old_closure_fixpoint(S.r, m, c, set(pts), S)
        assert _closure_fixpoint(S.r, m, c, set(pts), S) == want, (S, m, c, sorted(pts))

    # S = None on seeded point sets inside [m, c], r <= 3, and r = 4 samples
    samples = list(_random_point_sets(20251))
    rng = random.Random(20252)
    for _ in range(40):
        m = tuple(rng.randint(-2, 2) for _ in range(4))
        c = tuple(x + rng.randint(0, 3) for x in m)
        box = list(box_points(m, c))
        samples.append((m, c, {m, c, *rng.sample(box, min(len(box), 6))}))
    # r = 5: replaying the E2 demands in the order they are found (by the
    # agreeing axes, then the meet) instead of first-pair order grows a
    # different set from this one
    samples.append(((1, -1, 0, 1, 1), (2, 1, 1, 3, 3), {
        (1, -1, 0, 1, 1), (1, -1, 0, 3, 1), (1, -1, 1, 1, 3), (1, 1, 1, 1, 1),
        (2, 0, 0, 3, 1), (2, 0, 1, 3, 2), (2, 1, 1, 3, 3)}))
    # r = 4: keying a demand by the least point of the closed K-fiber of its
    # meet t, whether or not that point pairs with another at t, grows a
    # different set from this one
    samples.append(((0, 0, 0, 0), (4, 1, 1, 4), {
        (0, 0, 0, 0), (2, 1, 0, 1), (3, 1, 0, 1), (3, 1, 1, 4), (4, 0, 1, 1),
        (4, 0, 1, 3), (4, 1, 0, 3), (4, 1, 1, 4)}))
    grown = 0
    for m, c, pts in samples:
        want = _old_closure_fixpoint(len(m), m, c, set(pts), None)
        assert _closure_fixpoint(len(m), m, c, set(pts), None) == want, (m, c, sorted(pts))
        grown += want != pts
    assert grown >= 100, grown


def test_box_shift_is_its_definition():
    # T_d(M) = {min(t + d, c - m) : t in M}, read on points of [m, c] as
    # min(p + d, c), for every d in [0, c - m]
    rng = random.Random(33)
    for _ in range(300):
        r = rng.randint(1, 3)
        m = tuple(rng.randint(-2, 2) for _ in range(r))
        c = tuple(x + rng.randint(0, 5) for x in m)
        rows = Rows(Layout.of(m, c))
        layout = rows.layout
        steps = [list(rows.steps(k)) for k in range(r)]
        density = rng.choice((0.0, 0.1, 0.5, 1.0))
        pts = {p for p in box_points(m, c) if rng.random() < density}
        M = sum(1 << layout.index(p) for p in pts)
        for d in box_points(zero(r), vsub(c, m)):
            want = {tuple(map(min, vadd(p, d), c)) for p in pts}
            assert set(layout.points(rows.shift(M, d, steps))) == want, (m, c, sorted(pts), d)


def test_closure_fixpoint_makes_no_meet_or_vadd_calls(monkeypatch):
    # counts, not times: the fixpoint works on one mask of its box, so it
    # calls neither lattice.meet nor lattice.vadd, through any module; the
    # normalisation and validation after it still do
    import sys

    from gsi import lattice

    calls = {"fixpoint": 0, "elsewhere": 0}
    depth = [0]
    for f in (lattice.meet, lattice.vadd):
        def counted(*args, f=f):
            calls["fixpoint" if depth[0] else "elsewhere"] += 1
            return f(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gsi" and getattr(module, f.__name__, None) is f:
                monkeypatch.setattr(module, f.__name__, counted)

    def traced(*args, fixpoint=constructors._closure_fixpoint):
        depth[0] += 1
        try:
            return fixpoint(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(constructors, "_closure_fixpoint", traced)
    n57xn56 = product(numerical([5, 7]), numerical([5, 6]))
    for S, seed in ((node(5), 2), (n57xn56, 0), (n57xn56, 1)):
        random_good(S, seed)
    assert calls["fixpoint"] == 0 and calls["elsewhere"] > 0, calls


# The E2 step of constructors._closure_fixpoint as it was while its open
# fibers were empty past c, kept verbatim (under an _old_ name) as the
# reference for the step on the grid's open-fiber rule, which keeps the top
# row (ideal._fibers with opened, through ideal.Rows.read_up).
def _old_e2_repairs(rows: Rows, M: int, T: list[int]) -> int:
    """The points the E2 step adds to M, as a mask, T the closed fibers of
    M (``ideal._closed_fibers``).

    A pair a < b of M that agrees exactly on K meets at t with a in the
    open (K | Ja)-fiber of t and b in the open (K | Jb)-fiber, Ja and Jb
    the axes of J = full ^ K where a and b equal t.  So the t with such a
    pair are ``pairs``, the OR over the unordered splits of J of the ANDs of
    open-table entries (``ideal._split_pairs``; the open J-fiber of t being
    the closed one at t + 1 on the free axes, empty past c).  At k in K with
    t_k < c_k the pair demands a point of M in the closed J-fiber of
    x = t + e_k; the demands failing on M are ``pairs`` below the top row of
    k and off T[J] read at t + e_k (T[J] shifted down one row along k).

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
    r = len(dims)
    offsets = Layout(zero(r), dims, strides)  # bits read as row offsets t
    full = (1 << r) - 1
    O = list(T)  # open fibers
    for J in range(1, full):
        for k in range(r):
            if not J >> k & 1:
                O[J] = O[J] >> strides[k] & rows.top[k]
    demands = []
    for K in range(1, full):
        J = full ^ K
        pairs = _split_pairs(O, K, J)
        failing, union = {}, 0
        for k in range(r):
            if K >> k & 1:
                F = pairs & rows.top[k] & ~(T[J] >> strides[k])
                if F:
                    failing[k] = F
                    union |= F
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


def _failing_bits(T: list[int], O: list[int], rows: Rows) -> set[tuple[int, int]]:
    """The (K, t) of the failing E2 demands, t a meet of a pair agreeing
    exactly on K."""
    return {(K, t) for K, union, _ in _failing_demands(T, O, rows)
            for t in _bits(union)}


def test_e2_repairs_match_empty_past_c_reference(monkeypatch):
    # every round of these draws adds the same points on either open-fiber
    # rule, though in many of them the kept top row adds failing demands:
    # the repeats of other demands that _e2_repairs drops before keying
    from test_grid import _semigroups

    seen = collections.Counter()

    def checked(rows, M, T, O, e2_repairs=constructors._e2_repairs):
        got = e2_repairs(rows, M, T, O)
        assert got == _old_e2_repairs(rows, M, T), (rows.layout, M)
        empty = list(T)  # the open fibers empty past c
        for J in range(1, len(T) - 1):
            for k, (s, keep) in enumerate(zip(rows.layout.strides, rows.top)):
                if not J >> k & 1:
                    empty[J] = empty[J] >> s & keep
        assert O == _fibers(rows, M, True), (rows.layout, M)  # M's own
        kept = _failing_bits(T, O, rows)
        seen["rounds"] += 1
        seen["top row only"] += not kept <= _failing_bits(T, empty, rows)
        return got

    monkeypatch.setattr(constructors, "_e2_repairs", checked)
    for S in [*_semigroups().values(), node(1), node(4)]:
        for seed, width in itertools.product(range(40), (0, 2, 4)):
            random_good(S, seed, max_width=width)
    assert seen["top row only"] >= 100, seen
