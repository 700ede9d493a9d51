import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsi.constructors import from_small_elements, node, numerical, product, random_good
from gsi.errors import DimensionMismatch
from gsi.gsi_format import parse_gsi
from gsi.ideal import (
    SmallRep,
    conductor,
    contains,
    equals,
    frobenius,
    is_subset,
    members,
    min_elem,
    translate,
    validate,
)
from gsi.lattice import box_points, ones, vadd, vsub
from gsi.oracle import brute_contains, oracle_box
from gsi.duality import canonical_ideal, cd_difference


def test_contains_examples(ex2, n1):
    assert contains(ex2, (6, 7))       # above the conductor (5,5)
    assert not contains(ex2, (3, 5))   # meet with c is (3,5), not small
    assert contains(n1, (7,))          # 7 = 3 + 4
    assert not contains(n1, (2,))
    assert not contains(ex2, (-1, 3))


def test_contains_dimension_mismatch(ex2):
    with pytest.raises(DimensionMismatch):
        contains(ex2, (1, 2, 3))


def test_validate_fixtures(ex2, n1, n2, node2):
    for E in (ex2, n1, n2, node2):
        assert validate(E).passed
        assert validate(E, semigroup=True).passed


def test_validate_reports_first_e1_failure(ex2):
    broken = SmallRep(2, (0, 0), (5, 5),
                      frozenset({(0, 0), (3, 4), (4, 3), (5, 5)}))
    rep = validate(broken)
    assert not rep.passed
    first = rep.counterexamples[0]
    assert first["axiom"] == "E1"
    assert first["pair"] == [[3, 4], [4, 3]]
    assert first["missing_meet"] == [3, 3]


def test_validate_structural_failure():
    rep = validate(SmallRep(1, (1,), (3,), frozenset({(2,), (3,)})))
    assert not rep.passed and rep.counterexamples[0]["axiom"] == "structural"


def test_validate_conductor_minimality():
    # represents (2,1) + N^2 but claims conductor (3,1)
    rep = validate(SmallRep(2, (2, 1), (3, 1), frozenset({(2, 1), (3, 1)})))
    assert not rep.passed
    assert rep.counterexamples[0]["axiom"] == "conductor"


def test_validate_e2_witnessed(ex2):
    # (3,4) and (4,3) differ everywhere; (3,4),(3,3) agree at coordinate 1
    assert validate(ex2).passed
    # removing (4,3) breaks E2 for the pair (3,3),(3,4)... still fine:
    # meet closure keeps holding, E2 witness for pair ((3,3),(3,4)) is (4,3)
    broken = SmallRep(2, (0, 0), (5, 5),
                      frozenset({(0, 0), (3, 3), (3, 4), (5, 5)}))
    rep = validate(broken)
    assert not rep.passed
    assert rep.counterexamples[0]["axiom"] == "E2"


def test_validate_work_bounded_by_small_elements(monkeypatch):
    # {0} together with c + N^2 for c = (1000, 1000): two small elements in a
    # box of a million points.  validate reads the small elements, so it makes
    # O(|small|^2) membership tests and sweeps no box point by point.
    c = (1000, 1000)
    E = SmallRep(2, (0, 0), c, frozenset({(0, 0), c}))
    calls = {"contains": 0, "box_points": 0}
    contains_ = SmallRep.contains

    def counted_contains(self, alpha):
        calls["contains"] += 1
        return contains_(self, alpha)

    monkeypatch.setattr(SmallRep, "contains", counted_contains)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gsi" and hasattr(module, "box_points"):
            def counted_box_points(lo, hi, box_points=module.box_points):
                calls["box_points"] += 1
                return box_points(lo, hi)

            monkeypatch.setattr(module, "box_points", counted_box_points)
    assert validate(E).passed
    n = len(E.small)
    assert calls["contains"] <= 2 * n * n and calls["box_points"] <= n * n, calls


def test_validate_leaves_sparse_grid_unbuilt():
    # {0} together with c + N^2 for c = (10^4, 10^4): a grid of 10^8 points
    # for one pair of small elements, so validate pairs them and builds
    # neither the grid nor the fiber table
    c = (10**4, 10**4)
    E = SmallRep(2, (0, 0), c, frozenset({(0, 0), c}))
    assert validate(E).passed
    assert "grid" not in vars(E) and "fiber_table" not in vars(E), sorted(vars(E))
    # parsed, the document is normalised first, and the least conductor is
    # read off the two points without the grid of the provisional rep
    E = parse_gsi("gsi 1\nr 2\nmin 0 0\nconductor 10000 10000\n"
                  "elem 0 0\nelem 10000 10000\n")
    assert E.c == c and E.small == {(0, 0), c}
    assert "grid" not in vars(E) and "fiber_table" not in vars(E), sorted(vars(E))
    # {0, (0, N), (N, 0), c}: its pairs that agree in a coordinate find their
    # E2 witnesses among the small elements, so the grid stays unbuilt too,
    # and without (0, N) or (N, 0) a pair lacks its witness
    N = c[0]
    small = {(0, 0), (0, N), (N, 0), c}
    E = SmallRep(2, (0, 0), c, frozenset(small))
    assert validate(E).to_dict() == {
        "check_name": "validate", "passed": True,
        "universe": f"axiom box [[0, 0], [{N + 1}, {N + 1}]]",
        "witnesses": [], "counterexamples": [], "flags": {}}
    assert "grid" not in vars(E), sorted(vars(E))
    for gone, pair, i in (((0, N), [[0, 0], [N, 0]], 2), ((N, 0), [[0, 0], [0, N]], 1)):
        F = SmallRep(2, (0, 0), c, frozenset(small - {gone}))
        assert validate(F).counterexamples == [{"axiom": "E2", "pair": pair, "coordinate": i}]
        assert "grid" not in vars(F), sorted(vars(F))


def test_cd_difference_work_bounded_by_small_elements(monkeypatch):
    # {0} together with c + N^2 for c = (300, 300): its quotient by itself
    # quantifies over the 91,205 members of [0, cap], cap = (601, 601).  Every
    # member is in the clamp class of one of the two small elements, so the
    # quotient shifts its window once per small element, plus the doubling
    # shifts that AND the 302 rows [c_k, cap_k] of each axis together.
    import gsi.ideal as ideal

    shifts = []

    class Counted(int):
        def __rshift__(self, n):
            shifts.append(n)
            return Counted(int(self) >> n)

        def __and__(self, other):
            return Counted(int(self) & other)

        __rand__ = __and__

    def counted_window(*args, window=ideal._window):
        return Counted(window(*args))

    monkeypatch.setattr(ideal, "_window", counted_window)
    c = (300, 300)
    E = SmallRep(2, (0, 0), c, frozenset({(0, 0), c}))
    assert equals(cd_difference(E, E), E)
    doubling = 2 * (302 - 1).bit_length()
    assert 0 < len(shifts) <= len(E.small) + doubling, len(shifts)


def test_min_conductor_frobenius(ex2, n1, node2):
    assert min_elem(ex2) == (0, 0)
    assert conductor(ex2) == (5, 5)
    assert frobenius(ex2) == (4, 4)
    assert frobenius(n1) == (2,)
    assert frobenius(node2) == (0, 0)


def test_translate_examples(n2, ex2, node2):
    t = translate(n2, (3,))
    assert sorted(t.small) == [(3,), (5,)]
    assert t.c == (5,)
    assert equals(translate(ex2, (0, 0)), ex2)
    neg = translate(node2, (-1, -1))
    assert sorted(neg.small) == [(-1, -1), (0, 0)]
    assert neg.c == (0, 0)
    assert validate(neg).passed


@given(st.integers(0, 30), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_translate_roundtrip(seed, delta):
    E = random_good(node(2), seed)
    back = translate(translate(E, delta), tuple(-d for d in delta))
    assert back == E


def test_equals_and_subset(n1, n2, ex2):
    assert equals(ex2, ex2)
    k2 = canonical_ideal(n2)
    assert is_subset(n2, k2) and equals(n2, k2)
    k1 = canonical_ideal(n1)
    assert is_subset(n1, k1) and not equals(n1, k1)
    assert contains(k1, (1,)) and not contains(n1, (1,))


def test_equals_differently_normalized():
    # N as an ideal: singleton m = c = 0
    nat = from_small_elements(1, (0,), (0,), {(0,)})
    assert nat.c == (0,)
    assert equals(nat, node(1))


def test_membership_against_oracle_exhaustive(ex2, n1, n2, node2):
    for E in (ex2, n1, n2, node2):
        lo, hi = oracle_box(E)
        for p in box_points(lo, hi):
            assert contains(E, p) == brute_contains(E, p)


def test_membership_above_and_below(ex2):
    e = ones(2)
    for t in box_points((0, 0), (2, 2)):
        assert contains(ex2, vadd(ex2.c, t))
    assert not contains(ex2, vsub(ex2.m, e))


def test_members_listing(n2):
    assert members(n2, (0,), (3,)) == [(0,), (2,), (3,)]


def test_equals_subset_agree_with_pointwise_oracle(node2):
    from gsi.lattice import join, meet
    from gsi.oracle import materialize

    pairs = [(random_good(node2, a), random_good(node2, b))
             for a, b in ((3, 4), (5, 5), (6, 7))]
    for E1, E2 in pairs:
        lo = meet(E1.m, E2.m)
        hi = vadd(join(E1.c, E2.c), ones(2))
        s1 = materialize(E1, lo, hi)
        s2 = materialize(E2, lo, hi)
        assert equals(E1, E2) == (s1 == s2)
        assert is_subset(E1, E2) == (s1 <= s2)


def test_parse_and_validate_leave_layers_unbuilt(data_dir):
    # the (p, q) layers cost 2^r stepped table entries; ideals that are only
    # parsed and validated, as most ingested ones are, never pay for them
    from gsi.errors import ValidationError
    from gsi.fiber import fiber_empty
    from gsi.gsi_format import parse_gsi

    for path in sorted(data_dir.glob("*.gsi")):
        try:
            E = parse_gsi(path.read_text(encoding="utf-8"))
        except ValidationError:
            continue  # broken.gsi: a document that fails validation
        validate(E, E, semigroup=True)
        assert "fiber_layers" not in vars(E), path.name
        fiber_empty(E, E.m)
        assert "fiber_layers" in vars(E), path.name


def test_structural_checks_make_leq_calls_independent_of_small_elements(monkeypatch):
    # counts, not times: validate and from_small_elements read per-axis
    # bounds of the small elements, so their componentwise comparisons do
    # not grow with the number of small elements
    import gsi.constructors as constructors
    import gsi.ideal as ideal

    calls = [0]

    def counted_leq(a, b, leq=ideal.leq):
        calls[0] += 1
        return leq(a, b)

    monkeypatch.setattr(ideal, "leq", counted_leq)
    monkeypatch.setattr(constructors, "leq", counted_leq)
    S = product(numerical([5, 7]), numerical([5, 6]))
    counts = {}
    for name, E in (("node3", node(3)), ("n57xn56", S)):
        counts[name] = []
        for run in (lambda: validate(E), lambda: validate(E, E, semigroup=True),
                    lambda: from_small_elements(E.r, E.m, E.c, E.small)):
            calls[0] = 0
            run()
            counts[name].append(calls[0])
    assert len(node(3).small) == 2 and len(S.small) == 143
    assert counts["node3"] == counts["n57xn56"], counts
    assert max(counts["n57xn56"]) <= 3, counts
