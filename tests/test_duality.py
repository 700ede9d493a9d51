import collections
import functools
import itertools
from dataclasses import replace

import pytest

import gsi.duality as duality
from gsi.constructors import from_small_elements, node, numerical, product, random_good
from gsi.duality import (
    bidual,
    canonical_ideal,
    cd_difference,
    fiber_dual,
    is_canonical,
    is_gorenstein,
)
from gsi.errors import SoundnessError
from gsi.ideal import SmallRep, _axiom_failure, _window, equals, frobenius, is_subset, translate
from gsi.lattice import Box, box_points, ones, vadd, vsub, zero
from gsi.oracle import brute_canonical, brute_dual
from gsi.theorems import check_all


def _inject_below_m(monkeypatch, S, points):
    """Make ``_empty_mask`` put points of S's row m - 1 into K(S)'s region,
    read on S's grid, as a fault would."""
    bits = sum(1 << S.layout.index(p) for p in points)

    def injected(E, f, lo, hi, original=duality._empty_mask):
        return original(E, f, lo, hi) | bits

    monkeypatch.setattr(duality, "_empty_mask", injected)


def test_canonical_members_below_m_raise(ex2, monkeypatch):
    # K(S) is read on S's grid [m - e, c], whose row m - 1 holds no member;
    # a point a fault puts there fails a postcondition: the corner m - e
    # reaches the compatibility check, a face point fails E2 on promotion,
    # and so does the whole row
    lo = ex2.layout.lo
    row = [p for p in box_points(lo, ex2.c) if p[0] == lo[0]]
    for points, match in (([lo], "not an ideal of S: .*conductor exceeds min"),
                          ([(lo[0], 0)], "not a good ideal: .*E2"),
                          (row, "not a good ideal: .*E2")):
        with monkeypatch.context() as patch:
            _inject_below_m(patch, ex2, points)
            with pytest.raises(SoundnessError, match=match):
                canonical_ideal(replace(ex2))  # a fresh ex2, whose K(S) is not yet kept
    # a region that is K(S) - e_k on S's grid is a good ideal's window whose
    # conductor c - e_k lies below its top c, so validate's conductor check
    # fails on promotion
    for S in (ex2, numerical([3, 5]), product(numerical([2, 3]), numerical([3, 4]))):
        K = canonical_ideal(S)
        for k in range(S.r):
            lowered = translate(K, tuple(-(j == k) for j in range(S.r)))
            region = _window(lowered, S.layout.lo, S.c)
            with monkeypatch.context() as patch:
                patch.setattr(duality, "_empty_mask", lambda E, f, lo, hi: region)
                with pytest.raises(SoundnessError, match="'axiom': 'conductor'"):
                    canonical_ideal(replace(S))


def test_canonical_ideal_on_the_semigroup_grid(ex2):
    # K(S) has S's minimum and conductor, so it lives on S's grid; N = node(1)
    # gives products an axis with c_k = 0
    from test_grid import _semigroups

    numericals = [numerical(g) for g in ((2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5),
                                          (4, 6, 7), (5, 6, 7), (3, 7, 8), (5, 7, 9),
                                          (4, 9, 11), (6, 7, 8, 9))]
    N = node(1)
    products = [product(N, numerical([3, 5])), product(numerical([4, 6, 7]), N)]
    semigroups = ([ex2, *_semigroups().values()] + [node(r) for r in range(1, 6)]
                  + numericals + products)
    for S in semigroups:
        K = canonical_ideal(S)
        assert K.layout == S.layout, S
        # the region mask, handed over on promotion, is the grid K builds
        assert vars(K)["grid"] == SmallRep(K.r, K.m, K.c, K.small).grid, S


def test_cd_identity(n1, n2, ex2):
    assert equals(cd_difference(n2, n2), n2)
    assert equals(cd_difference(n1, n1), n1)
    assert equals(cd_difference(ex2, ex2), ex2)


def test_cd_of_canonical(n1):
    k1 = canonical_ideal(n1)
    assert equals(cd_difference(k1, n1), k1)


def test_cd_against_oracle(n1, n2, ex2, node2):
    for EJ, EI in ((n1, n1), (n2, n2), (ex2, ex2), (node2, node2),
                   (canonical_ideal(ex2), ex2)):
        D = cd_difference(EJ, EI)
        bd = brute_dual(EJ, EI)
        e = ones(EJ.r)
        lo = vsub(vsub(EJ.m, EI.c), e)
        hi = vadd(vsub(EJ.c, EI.m), vadd(e, e))
        for p in box_points(lo, hi):
            assert D.contains(p) == (p in bd)


def test_cd_eq1_sum_rule(ex2, n1):
    for EJ, EI in ((ex2, ex2), (canonical_ideal(ex2), ex2), (n1, n1)):
        D = cd_difference(EJ, EI)
        e = ones(EJ.r)
        for beta in box_points(D.m, vadd(D.c, e)):
            if not D.contains(beta):
                continue
            for alpha in box_points(EI.m, vadd(EI.c, e)):
                if EI.contains(alpha):
                    assert EJ.contains(vadd(beta, alpha))


def test_translate_covariance(ex2):
    delta = (2, -1)
    lhs = cd_difference(translate(ex2, delta), ex2)
    rhs = translate(cd_difference(ex2, ex2), delta)
    assert equals(lhs, rhs)


def test_fiber_dual_examples(n1, n2, ex2):
    assert equals(fiber_dual(n2, n2).promoted, n2)
    assert equals(fiber_dual(n1, n1).promoted, canonical_ideal(n1))
    fdx = fiber_dual(ex2, ex2)
    assert (4, 4) in fdx.points and not ex2.contains((4, 4))


def test_fiber_dual_region_contract(ex2):
    fd = fiber_dual(ex2, ex2)
    for p in fd.points:
        assert p in fd.box


def test_canonical_examples(n1, n2, node2, node3):
    k1 = canonical_ideal(n1)
    assert sorted(k1.small) == [(0,), (1,), (3,)] and k1.c == (3,)
    assert equals(canonical_ideal(n2), n2)
    assert equals(canonical_ideal(node2), node2)
    # the transversal-lines semigroup stops being symmetric at r = 3: the
    # canonical ideal picks up the coordinate axes
    k3 = canonical_ideal(node3)
    assert k3.contains((1, 0, 0)) and not node3.contains((1, 0, 0))
    assert sorted(k3.small) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("r", range(2, 12))
def test_canonical_ideal_of_node_closed_form(r):
    """K(node(r)) has m = 0, c = e and the small elements
    {alpha in {0,1}^r : |alpha| != r - 1}, 2^r - r of them.

    node(r) = {0} | (e + N^r) has c = e and f = 0.  K(S) lies in N^r
    (point (1) of ``canonical_ideal``'s docstring) and has conductor e
    (point (2)), so its small elements are the alpha in {0,1}^r with
    F(S, -alpha) empty.  A point z of S in the open {k}-fiber of -alpha has
    z_k = -alpha_k >= 0, so alpha_k = 0 and z = 0, the one point of S with a
    zero coordinate; then 0 > -alpha_j needs alpha_j = 1 for every j != k.
    So exactly the r points e - e_k leave K, and K = S, whose small
    elements are 0 and e, iff 2^r - r = 2, that is iff r <= 2.  This is
    independent of the oracle, which stops at small r.
    """
    S = node(r)
    K = canonical_ideal(S)
    assert (K.m, K.c) == (zero(r), ones(r))
    assert K.small == {a for a in itertools.product((0, 1), repeat=r) if sum(a) != r - 1}
    assert len(K.small) == 2 ** r - r
    assert is_gorenstein(S) == (r <= 2)


def test_canonical_ideal_of_node_1():
    # node(1) normalises to N, with c = 0, so the closed form above (which
    # would drop e - e_1 = 0) does not apply: N is its own canonical ideal
    S = node(1)
    assert (S.m, S.c, S.small) == ((0,), (0,), {(0,)})
    assert canonical_ideal(S) == S and is_gorenstein(S)


def _local_semigroup(r: int, t: int) -> SmallRep:
    """S_t = {0} | (t e + N^r), for t >= 1."""
    return from_small_elements(r, zero(r), (t,) * r, [zero(r), (t,) * r])


def test_fiber_dual_is_dual_into_translated_canonical_ideal():
    # the theorem of fiber_dual's docstring: with t = max(1, c_I - m_I) and
    # K_J = K(S_t) + (f_J - f(S_t)), the promoted fiber dual is K_J - EI,
    # for every valid pair of one dimension, EJ and EI from different
    # semigroups too
    from test_grid import _semigroups

    by_r = collections.defaultdict(list)
    for S in _semigroups().values():
        K = canonical_ideal(S)
        assert fiber_dual(S, S).promoted == K, S
        by_r[S.r] += [S, K, translate(K, ones(S.r))] + [random_good(S, s) for s in (1, 4)]
    local = functools.cache(_local_semigroup)
    pairs = 0
    for r, ideals in by_r.items():
        for EJ in ideals:
            for EI in ideals:
                S_t = local(r, max(1, *vsub(EI.c, EI.m)))
                K_J = translate(canonical_ideal(S_t), vsub(frobenius(EJ), frobenius(S_t)))
                assert fiber_dual(EJ, EI).promoted == cd_difference(K_J, EI), (EJ, EI)
                pairs += 1
    assert pairs == 550, pairs


def test_canonical_postconditions(n1, n2, node2, node3, ex2, prod22):
    for S in (n1, n2, node2, node3, ex2, prod22):
        K = canonical_ideal(S)
        assert frobenius(K) == frobenius(S)
        assert is_subset(S, K)


def test_canonical_against_oracle(n1, n2, node2, ex2):
    for S in (n1, n2, node2, ex2):
        K = canonical_ideal(S)
        bc = brute_canonical(S)
        e = ones(S.r)
        span = vsub(S.c, S.m)
        lo = vsub(vsub(S.m, vadd(span, span)), vadd(e, e))
        hi = vadd(vadd(S.c, span), e)
        for p in box_points(lo, hi):
            assert K.contains(p) == (p in bc)


def test_canonical_requires_semigroup(ex2):
    with pytest.raises(ValueError):
        canonical_ideal(translate(ex2, (1, 1)))


def test_is_canonical_examples(n1, ex2):
    kx = canonical_ideal(ex2)
    assert is_canonical(kx, ex2)
    assert not is_canonical(ex2, ex2)
    assert is_canonical(translate(canonical_ideal(n1), (7,)), n1)


def test_is_canonical_runs_both_tests(ex2, monkeypatch):
    kx = canonical_ideal(ex2)
    lo, hi, _ = duality._fiber_region(kx, ex2)
    # an empty fiber dual fails the fixpoint test while the translate test holds
    monkeypatch.setattr(duality, "_fiber_region", lambda EJ, EI: (lo, hi, 0))
    with pytest.raises(SoundnessError, match="canonicity tests disagree"):
        is_canonical(kx, ex2)


def test_is_canonical_promotes_once(ex2, node3, monkeypatch):
    # the fixpoint test compares EJ's window with the fiber-dual mask, so
    # the canonical ideal is the one region promoted
    calls = [0]

    def counted(*args, original=duality._promote_region):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(duality, "_promote_region", counted)
    for S in (ex2, node3):
        for EJ in (S, canonical_ideal(S)):
            # a fresh S, whose K(S) the call computes; a second call reuses it
            fresh = replace(S)
            for want in (1, 0):
                calls[0] = 0
                is_canonical(EJ, fresh)
                assert calls[0] == want, (S, EJ, calls[0])


def test_canonicity_same_with_and_without_context(n1, n2, ex2, node2, node3):
    # a shared context changes where the fiber-dual region comes from, not
    # the answers; one context serves every call over S, and K(S) is kept
    # on S, not in the context
    for S in (n1, n2, ex2, node2, node3):
        ctx = duality._CheckContext()
        K = canonical_ideal(S)
        assert is_gorenstein(S) == equals(S, K)
        for EJ in (S, K, translate(K, ones(S.r)), random_good(S, 1)):
            assert is_canonical(EJ, S, ctx=ctx) == is_canonical(EJ, S), (S, EJ)
            assert ctx.is_canonical(EJ, S) == is_canonical(EJ, S), (S, EJ)
        assert canonical_ideal(S) is K
        assert all(key[0] != "canonical" for key in ctx.values), ctx.values


def test_canonical_ideal_kept_on_the_semigroup(n1, ex2, node3):
    for S in (n1, ex2, node3):
        S = replace(S)
        assert canonical_ideal(S) is canonical_ideal(S)


def test_canonical_ideal_computed_once_per_semigroup(n1, ex2, node2, node3,
                                                      canonical_runs):
    # every public reader of K(S) on one S runs its body once; a value-equal
    # copy is another object and computes it again
    for S in (n1, ex2, node2, node3):
        S = replace(S)
        K = canonical_ideal(S)
        is_gorenstein(S)
        is_canonical(K, S)
        check_all(S, K, S)
        assert sum(E is S for E in canonical_runs) == 1, S
        copy = SmallRep(S.r, S.m, S.c, S.small)
        assert canonical_ideal(copy) == K and canonical_ideal(copy) is not K
        assert sum(E is copy for E in canonical_runs) == 1, S


def test_failing_canonical_ideal_raises_on_every_call(ex2, monkeypatch):
    # a call that raises keeps nothing, so the next call runs the body again
    S = replace(ex2)
    with monkeypatch.context() as patch:
        _inject_below_m(patch, S, [S.layout.lo])
        for _ in range(2):
            with pytest.raises(SoundnessError):
                canonical_ideal(S)
    assert canonical_ideal(S) == canonical_ideal(ex2)
    no_zero = translate(node(2), (1, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="0 missing"):
            canonical_ideal(no_zero)


def test_is_gorenstein_examples(n1, n2, node2, node3, ex2):
    assert is_gorenstein(n2)
    assert not is_gorenstein(n1)
    assert is_gorenstein(node2)
    assert not is_gorenstein(node3)
    assert not is_gorenstein(ex2)


def test_gorenstein_products(n1, n2):
    # the product rule: for S = A x B, coordinates concatenated, the open
    # {k}-fiber of (a, b) at an axis k of A is occupied in S exactly when
    # that of a is in A, as B holds points above b on every axis of its own
    # (c_B + N^s lies in B).  So F(S, (a, b)) is empty exactly when
    # F(A, a) and F(B, b) are, f(S) = (f(A), f(B)), K(S) = K(A) x K(B),
    # and S is Gorenstein exactly when every factor is.  N(2, 3) is
    # symmetric and N(3, 4, 5) is not: N(2, 3)^r is Gorenstein for every r,
    # and N(2, 3)^r x N(3, 4, 5) for none
    S = n2
    for r in range(1, 9):
        assert S.r == r and is_gorenstein(S), r
        if r <= 6:
            T = product(S, n1)
            assert not is_gorenstein(T), r
            K = product(canonical_ideal(S), canonical_ideal(n1))
            assert equals(canonical_ideal(T), K), r
        S = product(S, n2)
    assert not is_gorenstein(n1)


def test_gorenstein_witness(ex2):
    kx = canonical_ideal(ex2)
    assert kx.contains((4, 4)) and not ex2.contains((4, 4))


def test_bidual(n1, n2, ex2):
    k1 = canonical_ideal(n1)
    assert equals(bidual(k1, n1), n1)
    assert equals(bidual(n2, n2), n2)
    assert is_subset(ex2, bidual(ex2, ex2))


def test_bidual_contains_everywhere(ex2, node2):
    for S in (ex2, node2):
        for seed in range(5):
            EI = random_good(S, seed)
            for EJ in (S, canonical_ideal(S)):
                assert is_subset(EI, bidual(EJ, EI))


def test_promotion_rejects_non_good_regions():
    from gsi.duality import _promote_region

    def why(points, U):
        """The reason of the SoundnessError that promotion raises."""
        with pytest.raises(SoundnessError) as err:
            _promote_region("the region", 2, points, U)
        prefix = "the region is not a good ideal: "
        assert str(err.value).startswith(prefix), str(err.value)
        return str(err.value).removeprefix(prefix)

    failed = "axiom validation failed: validate: FAIL (first counterexample: "
    # not meet-closed: (0,1) and (1,0) without (0,0)
    assert "minimum" in why({(0, 1), (1, 0), (1, 1), (2, 2)}, (2, 2))
    # the node shape on [(0,0), (2,2)]: its least conductor is (1,1), so the
    # top (2,2) is not least, and validate's conductor check says so
    assert why({(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)}, (2, 2)) == failed + (
        "{'axiom': 'conductor', 'coordinate': 1, 'point': [1, 2], "
        "'reason': 'conductor not minimal: c - e_i already conducts'})")
    # the top (2,2) is missing, so it cannot conduct
    assert why({(0, 0), (1, 1)}, (2, 2)) == "expected conducting point (2, 2) missing"
    # (0,2) and (2,0) head full sub-boxes, their meet (0,0) does not
    assert why({(0, 0), (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}, (2, 2)) == failed + (
        "{'axiom': 'E1', 'pair': [[0, 2], [1, 1]], 'missing_meet': [0, 1]})")
    # least conductor (2,2); the rule puts (0,3) in with (0,2), the region
    # not, and (0,0), (0,2) have no E2 witness
    top = {(x, y) for x in (2, 3) for y in (2, 3)}
    assert why({(0, 0), (0, 2)} | top, (3, 3)) == failed + (
        "{'axiom': 'E2', 'pair': [[0, 0], [0, 2]], 'coordinate': 1})")
    assert why(set(), (0, 0)) == "empty region"


def _dual_pairs():
    """(EJ, EI) for EJ and EI in {S, K(S), random_good(S, s)} over fresh
    copies of the semigroups of test_grid, whose K(S) is not yet kept."""
    from test_grid import _semigroups

    for S in _semigroups().values():
        S = replace(S)
        ideals = [S, canonical_ideal(S)] + [random_good(S, seed) for seed in (1, 4)]
        yield S, [(EJ, EI) for EJ in ideals for EI in ideals]


def test_dual_conductor_is_c_J_minus_m_I():
    # beta = U - e_k has beta + m_I = c_J - e_k, not in EJ, while U conducts;
    # the fiber dual and K(S) keep their tops too, as the docstrings of
    # fiber_dual and canonical_ideal prove
    for S, pairs in _dual_pairs():
        assert canonical_ideal(S).c == S.c, S
        for EJ, EI in pairs:
            U = vsub(EJ.c, EI.m)
            assert cd_difference(EJ, EI).c == U, (EJ, EI)
            assert fiber_dual(EJ, EI).promoted.c == U, (EJ, EI)


def test_dual_of_principal_ideal_is_principal():
    # (EJ : m + N^r) = c_J - m + N^r, read off the definition alone: for
    # every m in a range around EI's minima, and for EJ = S, K(S), K(S) + e
    # and random_good(S, 3), the dual is the principal ideal at c_J - m
    from test_grid import _semigroups

    n = 0
    for S in _semigroups().values():
        r = S.r
        K = canonical_ideal(S)
        for EJ in (S, K, translate(K, ones(r)), random_good(S, 3)):
            for t in range(-1, 3):
                for u in range(3):  # m = t e + u e_1
                    m = (t + u, *(t,) * (r - 1))
                    U = vsub(EJ.c, m)
                    D = cd_difference(EJ, SmallRep(r, m, m, frozenset({m})))
                    assert D == SmallRep(r, U, U, frozenset({U})), (EJ, m)
                    n += 1
    assert n == 384


def test_dual_builds_one_window_on_its_box(monkeypatch):
    # the quotient windows EJ once, over [c_J - c_I + m_I, c_J - m_I + c_I],
    # 2 (c_I - m_I) + 1 rows per axis; a principal EI needs no window
    import gsi.ideal as ideal

    rows = []

    def counted_window(E, lo, hi, mask=None, window=ideal._window):
        rows.append(vadd(vsub(hi, lo), ones(E.r)))
        return window(E, lo, hi, mask)

    monkeypatch.setattr(ideal, "_window", counted_window)
    principal = 0
    for _, pairs in _dual_pairs():
        for EJ, EI in pairs:
            rows.clear()
            cd_difference(EJ, EI)
            if EI.small == {EI.c}:
                principal += 1
                assert rows == [], (EJ, EI)
            else:
                want = tuple(2 * (c - m) + 1 for c, m in zip(EI.c, EI.m))
                assert rows == [want], (EJ, EI)
    assert principal > 0
    for r in (3, 4):
        S = node(r)
        K = canonical_ideal(S)
        rows.clear()
        cd_difference(K, SmallRep(r, S.c, S.c, frozenset({S.c})))
        assert rows == []


def test_each_built_ideal_validated_once(monkeypatch, ex2, node2):
    import gsi.constructors
    import gsi.duality

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return _axiom_failure(*args, **kwargs)

    for module in (gsi.constructors, gsi.duality):
        monkeypatch.setattr(module, "_axiom_failure", counted)
    for S in (replace(ex2), replace(node2)):
        for build in (lambda: canonical_ideal(S),
                      lambda: cd_difference(S, S),
                      lambda: random_good(S, 3)):
            calls.clear()
            E = build()
            assert calls == [E]


def _agrees_with_brute_dual(EJ, EI, D) -> bool | None:
    """Whether D is brute_dual(EJ, EI) over the brute-force box
    [m_J - c_I - e, c_J - m_I + 2e]; None when that box has more than 1000
    points."""
    e = ones(EJ.r)
    lo, hi = vsub(vsub(EJ.m, EI.c), e), vadd(vsub(EJ.c, EI.m), vadd(e, e))
    if len(Box(lo, hi)) > 1000:
        return None
    bd = brute_dual(EJ, EI)
    return all(D.contains(p) == (p in bd) for p in box_points(lo, hi))


def test_principal_dual_is_one_point():
    # the dual of a principal EI = c + N^r is (c_J - c) + N^r (Korell,
    # Schulze and Tozzo 2019), the one-element rep at c_J - c, and the
    # bidual into a canonical ideal gives EI back; both agree with the
    # brute-force dual where its box has at most 1000 points
    from test_grid import _semigroups

    semigroups = [*_semigroups().values(), *(node(r) for r in range(1, 6))]
    checked = collections.Counter()
    for S in semigroups:
        r, K = S.r, canonical_ideal(S)
        e = ones(r)
        for EJ in (S, K, *(random_good(S, seed) for seed in (2, 5))):
            for c in {zero(r), EJ.m, EJ.c, vadd(EJ.c, e), vsub(EJ.m, e), S.c,
                      tuple(range(-1, r - 1))}:
                EI = SmallRep(r, c, c, frozenset({c}))
                D = cd_difference(EJ, EI)
                top = vsub(EJ.c, c)
                assert D == SmallRep(r, top, top, frozenset({top})), (EJ, c)
                DK = cd_difference(K, EI)
                assert bidual(K, EI) == EI, (K, c)
                for key, agrees in (("dual", _agrees_with_brute_dual(EJ, EI, D)),
                                    ("bidual", _agrees_with_brute_dual(K, DK, EI))):
                    assert agrees is not False, (key, EJ, c)
                    checked[key] += agrees is True
    assert min(checked.values()) >= 100, checked


def test_lemma_fibra_inclusion(ex2, n1, node2):
    for S in (ex2, n1, node2):
        K = canonical_ideal(S)
        for EJ in (S, K):
            for EI in (S, K, random_good(S, 11)):
                D = cd_difference(EJ, EI)
                fd = fiber_dual(EJ, EI)
                for p in fd.box:
                    if D.contains(p):
                        assert p in fd.points
