import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsi.constructors import (
    _closure_fixpoint,
    from_small_elements,
    node,
    numerical,
    product,
    random_good,
)
from gsi.duality import canonical_ideal, cd_difference
from gsi.errors import DimensionMismatch, InvalidIndexSet
from gsi.fiber import (
    MaximalInfo,
    MaximalKind,
    _classify,
    _pq,
    fiber_empty,
    fiber_witness,
    is_maximal,
    maximals,
    p_value,
    q_value,
)
from gsi.ideal import SmallRep, frobenius, members, translate, validate
from gsi.lattice import box_points, leq, ones, unit_vector, vadd, vsub
from gsi.oracle import brute_fiber, materialize
from gsi.theorems import length_step


def test_fiber_witness_examples(ex2):
    assert fiber_witness(ex2, (3, 4), (1,)) is None
    assert fiber_witness(ex2, (3, 3), (1,)) == (3, 4)
    assert fiber_witness(ex2, (3, 4), (1, 2)) == (3, 4)
    assert fiber_witness(ex2, (1, 1), (1, 2)) is None


def test_fiber_witness_closed(ex2):
    assert fiber_witness(ex2, (3, 3), (1,), closed=True) == (3, 3)
    assert fiber_witness(ex2, (1, 0), (1,), closed=True) is None


def test_fiber_witness_empty_index_set(ex2):
    with pytest.raises(InvalidIndexSet):
        fiber_witness(ex2, (3, 3), ())


def test_fiber_empty_examples(ex2, node2):
    assert fiber_empty(ex2, (4, 4))     # the Frobenius vector
    assert fiber_empty(node2, (0, 0))
    assert fiber_empty(ex2, (0, 0))
    assert not fiber_empty(ex2, (3, 3))


def test_is_maximal_examples(ex2, n1):
    assert is_maximal(ex2, (3, 4))
    assert not is_maximal(ex2, (3, 3))
    assert not is_maximal(n1, (3,))


def test_p_q_examples(ex2):
    assert (p_value(ex2, (3, 4)), q_value(ex2, (3, 4))) == (1, 2)
    assert q_value(ex2, (1, 1)) == 3
    assert p_value(ex2, (3, 3)) == 0
    assert p_value(ex2, (3, 4)) < q_value(ex2, (3, 4))


def test_q_detects_membership(ex2):
    for p in box_points((-1, -1), vadd(ex2.c, ones(2))):
        assert (q_value(ex2, p) <= 2) == ex2.contains(p)


def test_maximals_examples(ex2, node2, n1, n2):
    got = {(m.point, m.p, m.q) for m in maximals(ex2)}
    assert got == {((0, 0), 1, 2), ((3, 4), 1, 2), ((4, 3), 1, 2)}
    assert all(m.kind is MaximalKind.BOTH for m in maximals(ex2))
    node_max = maximals(node2)
    assert [(m.point, m.p, m.q) for m in node_max] == [((0, 0), 1, 2)]
    assert maximals(n1) == []
    assert maximals(product(n2, n2)) == []


def test_maximals_node3(node3):
    infos = maximals(node3)
    assert [(m.point, m.p, m.q, m.kind) for m in infos] == [
        ((0, 0, 0), 2, 3, MaximalKind.ABSOLUTE)]


def test_maximal_of_type_pq_matches_oracle():
    # a maximal point with neither p = r - 1 nor (p, q) = (1, 2); its (p, q)
    # from the definitions over all 15 open fibers of the literal enumeration
    E = random_good(node(4), 24)
    alpha = (-1, 0, 1, -1)
    info = next(m for m in maximals(E) if m.point == alpha)
    assert (info.p, info.q, info.kind) == (1, 4, MaximalKind.TYPE_PQ)
    occ = {J: bool(brute_fiber(E, alpha, [k + 1 for k in range(4) if J >> k & 1]))
           for J in range(1, 16)}
    size = {J: bin(J).count("1") for J in occ}
    p = max(n for n in range(5) if not any(occ[J] for J in occ if size[J] <= n))
    q = min(n for n in range(1, 6) if all(occ[J] for J in occ if size[J] >= n))
    assert (p, q) == (1, 4)


def test_maximals_inside_region(ex2, node3):
    for E in (ex2, node3):
        top = vsub(E.c, ones(E.r))
        for info in maximals(E):
            assert leq(E.m, info.point) and leq(info.point, top)
            assert 1 <= info.p < info.q <= E.r


def test_frobenius_fiber_always_empty(ex2, n1, n2, node2, node3):
    for E in (ex2, n1, n2, node2, node3):
        assert fiber_empty(E, frobenius(E))
    for seed in range(30):
        E = random_good(node2, seed)
        assert fiber_empty(E, frobenius(E))


def test_witness_agrees_with_oracle_exhaustive(ex2, n1, node2):
    # the witness is a member of the literal fiber and the first member of
    # the former capped box, over [m - e, c + e] and over points far below m
    # and past c, where the cap sets a free axis's range
    from test_constructors import _old_capped_ranges

    for E in (ex2, n1, node2, random_good(node(3), 11)):
        r = E.r
        e = ones(r)
        e2, e3 = vadd(e, e), vadd(e, vadd(e, e))
        subsets = [J for k in range(1, r + 1)
                   for J in itertools.combinations(range(1, r + 1), k)]
        far = [vsub(E.m, e2), vsub(E.m, e3), vadd(E.c, e2), vadd(E.c, e3)]
        far += [tuple(m - 4 if k % 2 else c + 3 for k, (m, c) in enumerate(zip(E.m, E.c))),
                tuple(c + 4 if k % 2 else m - 3 for k, (m, c) in enumerate(zip(E.m, E.c)))]
        for alpha in [*box_points(vsub(E.m, e), vadd(E.c, e)), *far]:
            for J in subsets:
                axes = sum(1 << (j - 1) for j in J)
                for closed in (False, True):
                    w = fiber_witness(E, alpha, J, closed)
                    brute = brute_fiber(E, alpha, J, closed)
                    assert (w is not None) == bool(brute)
                    lows, highs = zip(*_old_capped_ranges(alpha, axes, closed, E.c))
                    first = next((p for p in box_points(lows, highs) if E.contains(p)), None)
                    assert w == first, (E, alpha, J, closed)
                    if w is not None:
                        assert E.contains(w) and w in brute


def test_open_fiber_as_shifted_closed_fibers(ex2, node2):
    # the open fiber is the intersection of closed singleton fibers at
    # alpha + e_{J^c}, compared here on a shared enumeration window
    from gsi.lattice import join
    from gsi.oracle import materialize

    for E in (ex2, node2):
        r = E.r
        e = ones(r)
        full = set(range(1, r + 1))
        for alpha in box_points(vsub(E.m, e), vadd(E.c, e)):
            cap = join(vadd(E.c, vadd(e, e)), vadd(alpha, vadd(e, e)))
            window = materialize(E, vsub(E.m, e), cap)
            for k in range(1, r + 1):
                for J in itertools.combinations(sorted(full), k):
                    shifted = vadd(alpha, unit_vector(r, full - set(J)))
                    lhs = {b for b in window
                           if all(b[i - 1] == alpha[i - 1] for i in J)
                           and all(b[i - 1] > alpha[i - 1]
                                   for i in full - set(J))}
                    rhs = None
                    for i in J:
                        fi = {b for b in window
                              if b[i - 1] == shifted[i - 1]
                              and all(b[j - 1] >= shifted[j - 1]
                                      for j in full if j != i)}
                        rhs = fi if rhs is None else rhs & fi
                    assert lhs == rhs


FIBER_QUERIES = {
    "fiber_witness": lambda E, a: fiber_witness(E, a, (1,)),
    "fiber_witness_closed": lambda E, a: fiber_witness(E, a, (1,), closed=True),
    "fiber_empty": fiber_empty,
    "is_maximal": is_maximal,
    "p_value": p_value,
    "q_value": q_value,
    "length_step": lambda E, a: length_step(E, a, 1),
}


@pytest.mark.parametrize("alpha", [(3, 3, 9), (3,), ()])
@pytest.mark.parametrize("query", sorted(FIBER_QUERIES))
def test_fiber_queries_reject_wrong_dimension(ex2, query, alpha):
    with pytest.raises(DimensionMismatch):
        FIBER_QUERIES[query](ex2, alpha)


def _brute_occupancy(E, alpha):
    """Occupancy of every (J, closed) fiber of alpha, one literal fiber
    enumeration (``oracle.brute_fiber``) each."""
    return {(J, closed): bool(brute_fiber(
                E, alpha, [k + 1 for k in range(E.r) if J >> k & 1], closed))
            for J in range(1, 1 << E.r) for closed in (False, True)}


def _window_occupancy(E):
    """Occupancy as ``_brute_occupancy`` gives it, read off the oracle's
    members of [m - e, c + 3e] once per ideal: that window holds all that
    ``brute_fiber`` enumerates for any alpha up to c + 2e.  A member beta at
    or above alpha lies in the closed J-fiber for every nonempty J inside the
    axes where beta equals alpha, and in the open fiber for exactly that J."""
    e = ones(E.r)
    window = materialize(E, vsub(E.m, e), vadd(E.c, vadd(e, vadd(e, e))))

    def occupancy(E, alpha):
        occ = {(J, closed): False for J in range(1, 1 << E.r) for closed in (False, True)}
        for beta in window:
            if all(b >= a for a, b in zip(alpha, beta)):
                eq = sum(1 << k for k, (a, b) in enumerate(zip(alpha, beta)) if a == b)
                if eq:
                    occ[eq, False] = True
                    for J in range(1, eq + 1):
                        if J & eq == J:
                            occ[J, True] = True
        return occ

    return occupancy


def _assert_table_agrees_with_oracle(E, occupancy=_brute_occupancy):
    """Every fiber answer and layer bit at every alpha of [m - 2e, c + 2e]
    against the literal fiber enumeration, with p and q taken from their
    definitions."""
    r = E.r
    e2 = vadd(ones(r), ones(r))
    masks = range(1, 1 << r)
    size = {J: bin(J).count("1") for J in masks}
    for alpha in box_points(vsub(E.m, e2), vadd(E.c, e2)):
        occ = occupancy(E, alpha)
        for closed in (False, True):
            for J in masks:
                js = [k + 1 for k in range(r) if J >> k & 1]
                assert E.fiber_occupied(alpha, J, closed) == occ[J, closed], \
                    (alpha, js, closed)
        member = occ[(1 << r) - 1, True]  # the closed full fiber is {alpha}
        empty = not any(occ[1 << k, False] for k in range(r))
        p = max(n for n in range(r + 1)
                if not any(occ[J, False] for J in masks if size[J] <= n))
        q = min(n for n in range(1, r + 2)
                if all(occ[J, False] for J in masks if size[J] >= n))
        assert fiber_empty(E, alpha) == empty, alpha
        assert is_maximal(E, alpha) == (member and empty), alpha
        assert (p_value(E, alpha), q_value(E, alpha)) == (p, q), alpha
        # every layer bit, not only the least set one that p and q read;
        # Q[0] = Q[1], as every fiber has at least one index
        P, Q = E.tables.fiber_layers
        bit = E.index(alpha)
        for k in range(r + 2):
            assert (P[k] >> bit & 1 == 1) == (p < k), (alpha, "P", k)
            assert (Q[k] >> bit & 1 == 1) == (q <= max(k, 1)), (alpha, "Q", k)
        for i in range(1, r + 1):
            assert length_step(E, alpha, i) == occ[1 << (i - 1), True], (alpha, i)


def test_table_agrees_with_oracle_exhaustive(ex2, n1, node2, node3, prod22):
    # random_good(node3, 11) is a non-principal r = 3 ideal (5 small elements)
    for E in (ex2, n1, node2, node3, prod22, random_good(node3, 11)):
        _assert_table_agrees_with_oracle(E)
    # node(4) and its canonical ideal (12 small elements) run the layers'
    # prefix OR and suffix AND over four fiber sizes; the oracle's members
    # are enumerated once per ideal, since one brute_fiber call per (alpha,
    # J, closed) takes about a minute per ideal at r = 4
    for E in (node(4), canonical_ideal(node(4))):
        _assert_table_agrees_with_oracle(E, _window_occupancy(E))


def test_table_agrees_with_oracle_large_sparse():
    # a sparse r = 3 ideal with span (12, 9, 7): seven sample points repaired
    # to 15 small elements, so each table mask has many rows and lines
    m, c = (0, 0, 0), (12, 9, 7)
    sample = {m, c, (3, 2, 1), (5, 4, 4), (9, 6, 5), (2, 7, 3), (10, 1, 6)}
    E = from_small_elements(3, m, c, _closure_fixpoint(3, m, c, sample, None))
    assert E.c == c and len(E.small) == 15
    _assert_table_agrees_with_oracle(E, _window_occupancy(E))


_PROPERTY_SEMIGROUPS = {
    "node2": lambda: node(2),
    "ex2": lambda: from_small_elements(
        2, (0, 0), (5, 5), {(0, 0), (3, 3), (3, 4), (4, 3), (5, 5)}),
    "n34xn23": lambda: product(numerical([3, 4]), numerical([2, 3])),
}


def _property_ideal(name, kind, seed):
    """A seeded ideal over node(2), the README's ex2 or N(3,4)xN(2,3).

    random_good mostly returns m + N^r, on which open and closed fibers
    agree, so only the "random_good" kind takes it as it comes.  The other
    kinds have at least two small elements: the first random_good ideal from
    the seed on that is not m + N^r, its dual into K(S), and a translate of S
    or of K(S).  Over a product of numerical semigroups every nonempty
    closed fiber has an open neighbour, so the non-product semigroups are
    the ones that tell open fibers from closed ones.
    """
    S = _PROPERTY_SEMIGROUPS[name]()
    if kind == "translate":
        base = S if seed % 2 else canonical_ideal(S)
        return translate(base, (seed % 7 - 3, seed // 7 % 7 - 3))
    E = random_good(S, seed)
    while kind != "random_good" and len(E.small) < 2:
        seed += 1
        E = random_good(S, seed)
    return cd_difference(canonical_ideal(S), E) if kind == "dual" else E


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_PROPERTY_SEMIGROUPS)),
       st.sampled_from(["random_good", "non_principal", "dual", "translate"]),
       st.integers(0, 10_000))
def test_table_agrees_with_oracle_random(name, kind, seed):
    _assert_table_agrees_with_oracle(_property_ideal(name, kind, seed))


def _assert_maximals_complete(E):
    # the maximal-symmetry check reads maximal points and their types from
    # maximals alone, so it must list every maximal point of a wide box
    e2 = vadd(ones(E.r), ones(E.r))
    box = box_points(vsub(E.m, e2), vadd(E.c, e2))
    infos = maximals(E)
    assert [m.point for m in infos] == [a for a in box if is_maximal(E, a)], E
    for m in infos:
        assert (m.p, m.q) == (p_value(E, m.point), q_value(E, m.point)), (E, m)


def test_maximals_complete_on_fixtures(ex2, n1, n2, node2, node3, prod22):
    semigroups = (ex2, n1, n2, node2, node3, prod22)
    for E in (*semigroups, *map(canonical_ideal, semigroups), random_good(node3, 11)):
        _assert_maximals_complete(E)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_PROPERTY_SEMIGROUPS)),
       st.sampled_from(["random_good", "non_principal", "dual", "translate"]),
       st.integers(0, 10_000))
def test_maximals_complete_random(name, kind, seed):
    _assert_maximals_complete(_property_ideal(name, kind, seed))


# The former maximals, kept verbatim as the reference for the grid read: it
# walked the members of [m, c - e] and kept those off the layer P[1].
def _old_maximals(E):
    P1 = E.tables.fiber_layers[0][1]
    out = []
    for alpha in members(E, E.m, vsub(E.c, ones(E.r))):
        i = E.index(alpha)
        if not P1 >> i & 1:
            p, q = _pq(E, i)
            out.append(MaximalInfo(alpha, p, q, _classify(E.r, p, q)))
    return out


def test_maximals_match_member_walk():
    from test_grid import _semigroups

    ideals = [node(4), node(5), canonical_ideal(node(4))]
    for S in (*_semigroups().values(), _PROPERTY_SEMIGROUPS["ex2"]()):
        K = canonical_ideal(S)
        ideals += [S, K]
        for seed in range(6):
            E = random_good(S, seed, max_width=6)
            ideals += [E, cd_difference(K, E), cd_difference(S, E)]
    with_maximals = 0
    for E in ideals:
        got = maximals(E)
        assert got == _old_maximals(E), E
        with_maximals += bool(got)
    assert with_maximals >= 10, (with_maximals, len(ideals))


def _numerical_semigroups(conductor: int) -> list[SmallRep]:
    """Every numerical semigroup of conductor at most the given one, grown
    from N by removing, one at a time, a minimal generator above the
    Frobenius number (each semigroup is reached once)."""
    out, stack = [], [frozenset()]
    while stack:
        gaps = stack.pop()
        c = max(gaps, default=-1) + 1
        out.append(SmallRep(1, (0,), (c,),
                            frozenset((n,) for n in range(c + 1) if n not in gaps)))
        for g in range(c, conductor):  # g becomes the Frobenius number
            if g and all(a in gaps or g - a in gaps for a in range(1, g)):
                stack.append(gaps | {g})
    return out


def test_one_dimensional_ideals_have_no_maximals():
    # a member's open fiber with a single index is, at r = 1, the member
    # itself, so P[1] is the whole grid and no point is maximal
    semigroups = _numerical_semigroups(24)
    assert len({S.small for S in semigroups}) == len(semigroups)
    # N, then the known counts per Frobenius number 1, ..., 23
    per_frobenius = collections.Counter(S.c[0] - 1 for S in semigroups)
    assert [per_frobenius[f] for f in range(-1, 24)] == [
        1, 0, 1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40, 106, 103, 200, 205,
        465, 405, 961, 900, 1828, 1913, 4096]
    for S in semigroups[::97]:
        assert validate(S, semigroup=True).passed, S
    for i, S in enumerate(semigroups):
        assert maximals(S) == [], S
        if i % 5 == 0:
            E = random_good(S, i)
            assert maximals(E) == [], (S, i)
