import random

import pytest

from gsi import oracle
from gsi.duality import canonical_ideal, cd_difference
from gsi.errors import SoundnessError
from gsi.ideal import SmallRep, translate, validate
from gsi.lattice import box_points, meet, ones, vadd, vsub
from gsi.oracle import (
    brute_canonical,
    brute_contains,
    brute_dual,
    brute_fiber,
    oracle_box,
)


def test_brute_contains_agrees_on_ex2_box(ex2):
    lo, hi = oracle_box(ex2)
    for p in box_points(lo, hi):
        assert brute_contains(ex2, p) == ex2.contains(p)


def test_brute_contains_n1_triple_conductor(n1):
    for x in range(-1, 3 * n1.c[0] + 1):
        # representable iff a non-negative combination of 3, 4, 5 exists
        rep = any(3 * a + 4 * b + 5 * c == x
                  for a in range(5) for b in range(5) for c in range(5))
        if x <= n1.c[0] + 2:  # inside the oracle window
            assert brute_contains(n1, (x,)) == rep
        assert n1.contains((x,)) == rep


def test_brute_contains_below_min(ex2):
    assert not brute_contains(ex2, (-1, 0))


def test_brute_contains_window_guard(ex2):
    with pytest.raises(ValueError):
        brute_contains(ex2, (100, 100))


def test_brute_fiber_example(ex2):
    assert brute_fiber(ex2, (3, 3), (1,)) == {(3, 4)}


def test_brute_dual_n2(n2):
    bd = brute_dual(n2, n2)
    e = ones(1)
    lo = vsub(vsub(n2.m, n2.c), e)
    hi = vadd(vsub(n2.c, n2.m), vadd(e, e))
    for p in box_points(lo, hi):
        assert (p in bd) == n2.contains(p)


def test_brute_canonical_n1(n1):
    bc = brute_canonical(n1)
    got = sorted(x for (x,) in bc if 0 <= x <= 6)
    assert got == [0, 1, 3, 4, 5, 6]


def test_fast_paths_equal_oracle(ex2, n2):
    D = cd_difference(ex2, ex2)
    bd = brute_dual(ex2, ex2)
    e = ones(2)
    lo = vsub(vsub(ex2.m, ex2.c), e)
    hi = vadd(vsub(ex2.c, ex2.m), vadd(e, e))
    for p in box_points(lo, hi):
        assert D.contains(p) == (p in bd)
    K = canonical_ideal(n2)
    bc = brute_canonical(n2)
    for p in box_points((-8,), (5,)):
        assert K.contains(p) == (p in bc)


def test_window_cache_stays_bounded(ex2):
    oracle._checked_window.cache_clear()
    # many distinct ideals: translates of ex2, each queried at its minimum
    for k in range(3 * oracle.WINDOW_CACHE_SIZE):
        E = translate(ex2, (k, -k))
        assert brute_contains(E, E.m)
        assert not brute_contains(E, vsub(E.m, ones(2)))
        assert oracle._checked_window.cache_info().currsize <= oracle.WINDOW_CACHE_SIZE
    # an evicted ideal is rebuilt with the same answers
    lo, hi = oracle_box(ex2)
    for p in box_points(lo, hi):
        assert brute_contains(ex2, p) == ex2.contains(p)


def test_validate_e1_e2_agree_with_recheck_axioms():
    # validate reads E1 and E2 off fiber-table masks or pairs the small
    # elements; the oracle's recheck pairs every member of its window and
    # searches witnesses point by point, sharing no code with either path.
    # On structurally valid point sets the two must fail together.
    rng = random.Random(31)
    failing = 0
    for _ in range(1000):
        r = rng.randint(1, 3)
        m = tuple(rng.randint(-2, 2) for _ in range(r))
        c = tuple(x + rng.randint(0, 3 if r < 3 else 2) for x in m)
        density = rng.uniform(0.1, 0.9)
        pts = {p for p in box_points(m, c) if rng.random() < density} | {m, c}
        if rng.randrange(2):  # meet-closed in half the draws
            new = pts
            while new:
                new = {meet(a, b) for a in pts for b in pts} - pts
                pts |= new
        E = SmallRep(r, m, c, frozenset(pts))
        rep = validate(E)
        reported = not rep.passed and rep.counterexamples[0]["axiom"] in ("E1", "E2")
        lo, hi = oracle_box(E)
        try:
            oracle._recheck_axioms(E, oracle.materialize(E, lo, hi), lo, hi)
            raised = False
        except SoundnessError:
            raised = True
        assert reported == raised, (E, rep.to_dict())
        failing += raised
    assert 200 <= failing <= 800, failing
