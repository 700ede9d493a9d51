import json

import pytest

from gsi.constructors import random_good
from gsi.duality import canonical_ideal, cd_difference, fiber_dual, is_canonical
from gsi.fiber import maximals
from gsi.ideal import frobenius, translate
from gsi.lattice import ones, vsub
from gsi.report import CheckReport
from gsi.theorems import (
    check_all,
    check_duality,
    check_fibra,
    check_length_pairing,
    check_maximal_symmetry,
    check_rho,
    check_sum,
    length_step,
    rho,
)


def test_length_step_examples(ex2, n1):
    assert length_step(ex2, (3, 3), 1) == 1
    assert length_step(ex2, (1, 0), 1) == 0
    assert length_step(n1, (2,), 1) == 0   # 2 is a gap
    assert length_step(n1, (3,), 1) == 1


def test_length_step_index_range(ex2):
    from gsi.errors import InvalidIndexSet

    with pytest.raises(InvalidIndexSet):
        length_step(ex2, (0, 0), 3)


def test_check_length_pairing(ex2, n2):
    kx = canonical_ideal(ex2)
    rep = check_length_pairing(kx, ex2)
    assert rep.passed and rep.flags["equality_everywhere"]
    rep = check_length_pairing(ex2, ex2)
    assert rep.passed and not rep.flags["equality_everywhere"]
    assert rep.witnesses and "alpha" in rep.witnesses[0]
    rep = check_rho(n2, n2)
    assert rep.passed and rep.flags["equality_everywhere"]
    rep = check_length_pairing(n2, n2)
    assert rep.passed and rep.flags["equality_everywhere"]


def test_rho_examples(ex2, n2):
    kx = canonical_ideal(ex2)
    assert rho(ex2, kx, (3, 4)) == 2
    assert rho(ex2, ex2, (0, 0)) >= 2
    assert rho(n2, n2, (0,)) == 1


def test_check_rho(ex2, n1):
    kx = canonical_ideal(ex2)
    rep = check_rho(ex2, kx)
    assert rep.passed and rep.flags["equality_everywhere"]
    rep = check_rho(ex2, ex2, ex2)
    assert rep.passed and not rep.flags["equality_everywhere"]
    assert rep.flags["ej_canonical"] is False
    assert rep.witnesses and rep.witnesses[0]["rho"] > 2
    k1 = canonical_ideal(n1)
    rep = check_rho(n1, k1)
    assert rep.passed and rep.flags["equality_everywhere"]


def test_check_sum_and_fibra(ex2, n1):
    for EJ, EI in ((ex2, ex2), (canonical_ideal(ex2), ex2), (n1, n1)):
        assert check_sum(EJ, EI).passed
        rep = check_fibra(EJ, EI)
        assert rep.passed


def test_fibra_strict_witness(ex2):
    rep = check_fibra(ex2, ex2)
    assert rep.flags["strict"]
    fd = fiber_dual(ex2, ex2)
    assert (4, 4) in fd.points and not ex2.contains((4, 4))


def test_check_duality(ex2, n1):
    kx = canonical_ideal(ex2)
    rep = check_duality(kx, ex2, ex2)
    assert rep.passed and rep.flags["equal"] and rep.flags["ej_canonical"]
    rep = check_duality(ex2, ex2, ex2)
    assert rep.passed and not rep.flags["equal"]
    rep = check_duality(n1, n1, n1)
    assert rep.passed and not rep.flags["equal"]


def test_maximal_symmetry_canonical(ex2):
    kx = canonical_ideal(ex2)
    rep = check_maximal_symmetry(ex2, kx, ex2)
    assert rep.passed
    assert rep.flags["canonical_mode"]
    assert rep.flags["pairs_checked"] == 3
    f = frobenius(kx)
    D = cd_difference(kx, ex2)
    expected = {vsub(f, m.point) for m in maximals(ex2)}
    assert expected == {m.point for m in maximals(D)}
    assert all(m.p == 1 and m.q == 2 for m in maximals(D))


def test_maximal_symmetry_conditional(ex2, n2):
    rep = check_maximal_symmetry(ex2, ex2, ex2)
    assert rep.passed
    assert not rep.flags["canonical_mode"]
    assert rep.flags["skipped"]  # maximal points with unmatched dual membership
    rep = check_maximal_symmetry(n2, n2, n2)
    assert rep.passed and rep.flags["pairs_checked"] == 0


def test_maximal_symmetry_nonvacuous_noncanonical(ex2):
    # seeds found by search: non-canonical EJ with a genuine maximal pairing
    EJ = random_good(ex2, 0)
    assert not is_canonical(EJ, ex2)
    hits = 0
    for seed in (56, 58, 79):
        EI = random_good(ex2, seed)
        rep = check_maximal_symmetry(EI, EJ, ex2)
        assert rep.passed
        hits += rep.flags["pairs_checked"]
    assert hits >= 3


def test_check_all_gorenstein_case(n2):
    reports = check_all(n2, n2, n2, seed=5)
    assert all(r.passed for r in reports)
    for r in reports:
        for key in ("equality_everywhere", "equal"):
            if key in r.flags:
                assert r.flags[key] is True


def test_check_all_canonical_case(ex2):
    kx = canonical_ideal(ex2)
    reports = check_all(ex2, kx, ex2, seed=5)
    assert all(r.passed for r in reports)
    for r in reports:
        for key in ("equality_everywhere", "equal"):
            if key in r.flags:
                assert r.flags[key] is True


def test_check_all_noncanonical_case(ex2):
    reports = check_all(ex2, ex2, ex2, seed=5)
    assert all(r.passed for r in reports)
    by_name = {r.check_name: r for r in reports}
    assert by_name["length"].flags["equality_everywhere"] is False
    assert by_name["rho"].flags["equality_everywhere"] is False
    assert by_name["duality"].flags["equal"] is False
    assert by_name["consistency"].flags["gorenstein"] is False


def test_equality_flags_track_canonicity(node2, ex2):
    for S in (node2, ex2):
        K = canonical_ideal(S)
        for EJ in (S, K, translate(K, ones(S.r)), random_good(S, 9)):
            can = is_canonical(EJ, S)
            lf = check_length_pairing(EJ, S).flags["equality_everywhere"]
            rf = check_rho(S, EJ).flags["equality_everywhere"]
            df = check_duality(EJ, S).flags["equal"]
            # EI = S is the decisive pair: flags match canonicity exactly
            assert lf == rf == df == can


def test_flags_agree_pairwise(ex2):
    # per-pair agreement of the three equality flags on assorted EI
    for seed in range(4):
        EI = random_good(ex2, 60 + seed)
        for EJ in (ex2, canonical_ideal(ex2)):
            lf = check_length_pairing(EJ, EI).flags["equality_everywhere"]
            rf = check_rho(EI, EJ).flags["equality_everywhere"]
            df = check_duality(EJ, EI).flags["equal"]
            assert lf == rf == df


def test_report_roundtrip(ex2):
    rep = check_rho(ex2, ex2, ex2)
    doc = json.dumps(rep.to_dict())
    back = CheckReport.from_dict(json.loads(doc))
    assert back == rep


def test_reports_deterministic(ex2):
    a = [r.to_dict() for r in check_all(ex2, ex2, ex2, seed=3)]
    b = [r.to_dict() for r in check_all(ex2, ex2, ex2, seed=3)]
    assert a == b


def _golden_triples(ex2, node2, node3):
    return {
        "ex2-ex2-ex2": (ex2, ex2, ex2),
        "ex2-K-ex2": (ex2, canonical_ideal(ex2), ex2),
        "node2-node2-random4": (node2, node2, random_good(node2, 4)),
        "node3-K-node3": (node3, canonical_ideal(node3), node3),
    }


def test_check_all_matches_golden_reports(ex2, node2, node3, data_dir):
    # reports recorded before the checks shared one context per call
    golden = json.loads((data_dir / "check_all_golden.json").read_text())
    for name, (S, EJ, EI) in _golden_triples(ex2, node2, node3).items():
        got = json.loads(json.dumps([r.to_dict() for r in check_all(S, EJ, EI)]))
        assert got == golden[name], name


def test_check_all_computes_each_value_once(ex2, node2, node3, monkeypatch):
    import collections

    import gsi.theorems as theorems

    calls = collections.Counter()

    def counted(name):
        original = getattr(theorems, name)

        def wrapper(*args):
            calls[name, args] += 1
            return original(*args)

        monkeypatch.setattr(theorems, name, wrapper)

    for name in ("cd_difference", "fiber_dual", "canonical_ideal", "_is_canonical"):
        counted(name)
    for S, EJ, EI in _golden_triples(ex2, node2, node3).values():
        calls.clear()
        check_all(S, EJ, EI)
        assert calls and set(calls.values()) == {1}, calls.most_common(3)
        names = collections.Counter(name for name, _ in calls)
        assert names["canonical_ideal"] == names["_is_canonical"] == 1
