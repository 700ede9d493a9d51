import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsi.constructors import node, numerical, product, random_good
from gsi.errors import DimensionMismatch, InvalidIndexSet
from gsi.fiber import (
    MaximalKind,
    fiber_empty,
    fiber_witness,
    is_maximal,
    maximals,
    p_value,
    q_value,
)
from gsi.ideal import frobenius
from gsi.lattice import box_points, leq, ones, unit_vector, vadd, vsub
from gsi.oracle import brute_fiber
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
    for E in (ex2, n1, node2):
        e = ones(E.r)
        subsets = [J for k in range(1, E.r + 1)
                   for J in itertools.combinations(range(1, E.r + 1), k)]
        for alpha in box_points(vsub(E.m, e), vadd(E.c, e)):
            for J in subsets:
                for closed in (False, True):
                    w = fiber_witness(E, alpha, J, closed)
                    brute = brute_fiber(E, alpha, J, closed)
                    assert (w is not None) == bool(brute)
                    if w is not None:
                        assert E.contains(w)


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


def _assert_table_agrees_with_oracle(E):
    """Every fiber answer at every alpha of [m - 2e, c + 2e] against the
    literal fiber enumeration, with p and q taken from their definitions."""
    r = E.r
    e2 = vadd(ones(r), ones(r))
    masks = range(1, 1 << r)
    size = {J: bin(J).count("1") for J in masks}
    for alpha in box_points(vsub(E.m, e2), vadd(E.c, e2)):
        occ = {}
        for closed in (False, True):
            every = E.fiber_occupancy(alpha, closed)
            for J in masks:
                js = [k + 1 for k in range(r) if J >> k & 1]
                occ[J, closed] = bool(brute_fiber(E, alpha, js, closed))
                assert E.fiber_occupied(alpha, J, closed) == occ[J, closed], \
                    (alpha, js, closed)
                assert every[J] == occ[J, closed], (alpha, js, closed)
        member = occ[(1 << r) - 1, True]  # the closed full fiber is {alpha}
        empty = not any(occ[1 << k, False] for k in range(r))
        p = max(n for n in range(r + 1)
                if not any(occ[J, False] for J in masks if size[J] <= n))
        q = min(n for n in range(1, r + 2)
                if all(occ[J, False] for J in masks if size[J] >= n))
        assert fiber_empty(E, alpha) == empty, alpha
        assert is_maximal(E, alpha) == (member and empty), alpha
        assert (p_value(E, alpha), q_value(E, alpha)) == (p, q), alpha
        for i in range(1, r + 1):
            assert length_step(E, alpha, i) == occ[1 << (i - 1), True], (alpha, i)


def test_table_agrees_with_oracle_exhaustive(ex2, n1, node2, node3, prod22):
    # random_good(node3, 11) is a non-principal r = 3 ideal (5 small elements)
    for E in (ex2, n1, node2, node3, prod22, random_good(node3, 11)):
        _assert_table_agrees_with_oracle(E)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["node2", "prod22"]), st.integers(0, 10_000))
def test_table_agrees_with_oracle_random(name, seed):
    S = node(2) if name == "node2" else product(numerical([2, 3]), numerical([2, 3]))
    _assert_table_agrees_with_oracle(random_good(S, seed))
