"""Metamorphic cross-checks: relations between outputs on related inputs.

Each property compares the package with itself on transformed inputs
(products, coordinate permutations, translations) or with a count taken
here from the generators, so it holds whichever way the fast paths or the
oracle compute; it shares no code with either.  Inputs are fixtures, small
hypothesis draws, and products of dimension 6 to 8, past the oracle's reach.
"""
import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import gsi.theorems as theorems
from gsi.constructors import from_small_elements, node, numerical, product, random_good
from gsi.duality import canonical_ideal, cd_difference, is_gorenstein
from gsi.fiber import maximals
from gsi.ideal import SmallRep, equals, translate
from gsi.lattice import ones, vsub
from gsi.theorems import check_all


@functools.cache
def _fixtures() -> tuple[SmallRep, ...]:
    """N(2,3), N(3,4,5), N(3,5), node(2) and the README's ex2, last."""
    ex2 = from_small_elements(2, (0, 0), (5, 5), {(0, 0), (3, 3), (3, 4), (4, 3), (5, 5)})
    return numerical([2, 3]), numerical([3, 4, 5]), numerical([3, 5]), node(2), ex2


def _generators(top: int):
    return st.lists(st.integers(2, top), min_size=1, max_size=3).filter(
        lambda gens: math.gcd(*gens) == 1)


generators = _generators(9)
factor_generators = _generators(6)  # products keep their boxes small


def _gaps(gens: list[int]) -> list[int]:
    """The gaps of the numerical semigroup the generators span, by a sieve of
    its own up to (min - 1)(max - 1), past which every integer is reached."""
    bound = (min(gens) - 1) * (max(gens) - 1)
    reach = [True] + [False] * bound
    for n in range(1, bound + 1):
        reach[n] = any(g <= n and reach[n - g] for g in gens)
    return [n for n in range(bound + 1) if not reach[n]]


def _move(p: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The point whose coordinate k is p[perm[k]]."""
    return tuple(p[i] for i in perm)


def _permute(E: SmallRep, perm: tuple[int, ...]) -> SmallRep:
    """E with every point's coordinates permuted by :func:`_move`."""
    return SmallRep(E.r, _move(E.m, perm), _move(E.c, perm),
                    frozenset(_move(p, perm) for p in E.small))


def _flags(reports) -> dict:
    """Per check, whether it passed and its true/false flags (the equality
    flags among them); flags listing points are left out."""
    return {rep.check_name: (rep.passed, {k: v for k, v in rep.flags.items()
                                           if v is None or isinstance(v, bool)})
            for rep in reports}


def _assert_product_rules(A: SmallRep, B: SmallRep) -> None:
    AB = product(A, B)
    assert equals(canonical_ideal(AB), product(canonical_ideal(A), canonical_ideal(B)))
    assert is_gorenstein(AB) == (is_gorenstein(A) and is_gorenstein(B))


def test_product_rules_on_fixtures():
    pairs = [(A, B) for A in _fixtures() for B in _fixtures() if A.r + B.r <= 3]
    for A, B in pairs:
        _assert_product_rules(A, B)
    # both directions of the Gorenstein rule occur
    assert {is_gorenstein(product(A, B)) for A, B in pairs} == {True, False}


@settings(max_examples=12, deadline=None)
@given(factor_generators, factor_generators)
def test_product_rules_random(gens_a, gens_b):
    _assert_product_rules(numerical(gens_a), numerical(gens_b))


@settings(max_examples=60, deadline=None)
@given(generators)
def test_symmetric_iff_half_the_gaps(gens):
    # for r = 1, with F the largest gap (-1 when there is none)
    gaps = _gaps(gens)
    frob = gaps[-1] if gaps else -1
    assert is_gorenstein(numerical(gens)) == (2 * len(gaps) == frob + 1), gens


def test_symmetric_iff_half_the_gaps_both_ways():
    sets = [[2, 3], [3, 4], [3, 5], [3, 4, 5], [4, 5, 6], [2, 7], [5, 6, 7, 8]]
    seen = set()
    for gens in sets:
        gaps = _gaps(gens)
        symmetric = 2 * len(gaps) == gaps[-1] + 1
        assert is_gorenstein(numerical(gens)) == symmetric, gens
        seen.add(symmetric)
    assert seen == {True, False}


def _assert_permutation_commutes(S: SmallRep, EJ: SmallRep, EI: SmallRep,
                                 perm: tuple[int, ...]) -> None:
    assert canonical_ideal(_permute(S, perm)) == _permute(canonical_ideal(S), perm)
    for E in (S, EJ, EI):
        moved = sorted((_move(i.point, perm), i.p, i.q, i.kind) for i in maximals(E))
        got = [(i.point, i.p, i.q, i.kind) for i in maximals(_permute(E, perm))]
        assert got == moved, (E, perm)
    permuted = check_all(*(_permute(E, perm) for E in (S, EJ, EI)))
    assert _flags(permuted) == _flags(check_all(S, EJ, EI)), (S, EJ, EI, perm)


def test_permutation_commutes_on_fixtures():
    S2 = product(numerical([2, 3]), numerical([3, 4, 5]))
    S3 = product(node(2), numerical([2, 3]))
    for S, perms in ((_fixtures()[-1], [(1, 0)]), (S2, [(1, 0)]), (S3, [(2, 0, 1), (1, 2, 0), (0, 2, 1)])):
        K = canonical_ideal(S)
        for EJ, EI in ((S, S), (K, S), (K, random_good(S, 4)), (S, K)):
            for perm in perms:
                _assert_permutation_commutes(S, EJ, EI, perm)


@settings(max_examples=15, deadline=None)
@given(factor_generators, factor_generators, st.integers(0, 1000))
def test_permutation_commutes_random(gens_a, gens_b, seed):
    S = product(numerical(gens_a), numerical(gens_b))
    _assert_permutation_commutes(S, canonical_ideal(S), random_good(S, seed), (1, 0))


@functools.cache
def _high_r_pairs() -> tuple[tuple[SmallRep, SmallRep], ...]:
    """Factor pairs whose products have dimension 6, 7 and 8; the factor
    with N(3,4,5) is not Gorenstein, the nodes are."""
    A = product(numerical([3, 4, 5]), node(2))
    return (A, node(3)), (node(4), A), (product(numerical([3, 4, 5]), node(3)), node(4))


def test_product_rules_high_r():
    assert [A.r + B.r for A, B in _high_r_pairs()] == [6, 7, 8]
    for A, B in _high_r_pairs():
        _assert_product_rules(A, B)


# check_all flags that hold on a product exactly when they hold on both
# factors: canonicity and Gorenstein-ness, by K(A x B) = K(A) x K(B), and
# the bidual equality, as the quotient of products is the product of the
# quotients
_PRODUCT_FLAGS = (("duality", "equal"), ("duality", "ej_canonical"),
                  ("rho", "ej_canonical"), ("consistency", "gorenstein"),
                  ("consistency", "ej_canonical"))


def _product_draws(A: SmallRep, B: SmallRep):
    """random_good, except that over A x B it draws the product of a draw
    over A and one over B, an ideal of A x B too."""
    AB = product(A, B)

    def draw(S: SmallRep, seed: int, **kwargs) -> SmallRep:
        if S == AB:
            return product(random_good(A, seed), random_good(B, seed))
        return random_good(S, seed, **kwargs)

    return draw


def test_product_check_flags_high_r(monkeypatch):
    # each check passes on (A x B, EJ_A x EJ_B, EI_A x EI_B) exactly when it
    # passes on both factor triples.  The consistency sample of the product
    # comes from _product_draws, as a draw of random_good itself takes
    # seconds at r = 8.  At r = 8, where a triple takes a second or more,
    # only (S, S, S) runs.
    seen = set()
    for A, B in _high_r_pairs():
        KA, KB = canonical_ideal(A), canonical_ideal(B)
        AB = product(A, B)
        monkeypatch.setattr(theorems, "random_good", _product_draws(A, B))
        triples = [((A, A), (B, B)), ((KA, A), (KB, B)), ((A, KA), (B, KB))]
        for (EJA, EIA), (EJB, EIB) in triples[:1 if AB.r == 8 else 3]:
            fa, fb = (_flags(check_all(*trip)) for trip in ((A, EJA, EIA), (B, EJB, EIB)))
            got = _flags(check_all(AB, product(EJA, EJB), product(EIA, EIB)))
            assert got.keys() == fa.keys()
            for name, (passed, _) in got.items():
                assert passed == (fa[name][0] and fb[name][0]), (A, B, name)
            for name, flag in _PRODUCT_FLAGS:
                assert got[name][1][flag] == (fa[name][1][flag] and fb[name][1][flag]), \
                    (A, B, EJA, EIA, name, flag)
                seen.add(got[name][1][flag])
    assert seen == {True, False}


def test_permutation_commutes_high_r():
    A, B = _high_r_pairs()[0]
    S = product(A, B)
    K = canonical_ideal(S)
    _assert_permutation_commutes(S, S, S, (3, 4, 5, 0, 1, 2))
    _assert_permutation_commutes(S, K, translate(random_good(S, 4), ones(S.r)),
                                 (5, 0, 2, 1, 4, 3))


def _assert_translation_equivariant(EJ: SmallRep, EI: SmallRep, u, v) -> None:
    want = translate(cd_difference(EJ, EI), vsub(u, v))
    assert equals(cd_difference(translate(EJ, u), translate(EI, v)), want)


def test_cd_difference_translation_equivariant_on_fixtures():
    for S in _fixtures():
        K = canonical_ideal(S)
        shifts = [(-2,) * S.r, (1,) + (0,) * (S.r - 1), (3,) * S.r]
        for EJ, EI in ((S, S), (K, S), (K, random_good(S, 2)), (S, K)):
            for u in shifts:
                for v in shifts:
                    _assert_translation_equivariant(EJ, EI, u, v)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 1000),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_cd_difference_translation_equivariant_random(index, seed, coords):
    S = _fixtures()[index]
    u, v = tuple(coords[:S.r]), tuple(coords[2:2 + S.r])
    _assert_translation_equivariant(canonical_ideal(S), random_good(S, seed), u, v)
