import json
from dataclasses import replace

import pytest

from gsi.constructors import from_small_elements, node, numerical, product, random_good
from gsi.duality import canonical_ideal, cd_difference, fiber_dual, is_canonical
from gsi.fiber import is_maximal, maximals, p_value, q_value
from gsi.ideal import SmallRep, equals, frobenius, translate
from gsi.lattice import box_points, join, meet, ones, vadd, vsub
from gsi.report import CheckReport, pt
from gsi.theorems import (
    _CheckContext,
    _gorenstein_consistency,
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


def test_check_rho_windows_each_distinct_layer_once(ex2, node2, node3, monkeypatch):
    # layers P[k] of EI and Q[k] of the dual often repeat along k; each
    # distinct mask is windowed once, and the reports do not change
    import gsi.theorems as theorems

    masks = {"_window": [], "_reflected": []}

    def counted(name):
        original = getattr(theorems, name)

        def wrapper(E, *args):
            masks[name].append(args[-1])
            return original(E, *args)

        monkeypatch.setattr(theorems, name, wrapper)

    pairs = []
    for S in (ex2, node2, node3):
        ideals = [S, canonical_ideal(S), random_good(S, 2)]
        pairs += [(S, EJ, EI) for EJ in ideals for EI in ideals]
    want = [check_rho(EI, EJ, S).to_dict() for S, EJ, EI in pairs]
    counted("_window")
    counted("_reflected")
    repeats = 0
    for (S, EJ, EI), report in zip(pairs, want):
        for found in masks.values():
            found.clear()
        assert check_rho(EI, EJ, S).to_dict() == report, (EJ, EI)
        D, r = cd_difference(EJ, EI), EJ.r
        P, Q = EI.tables.fiber_layers[0][1:r + 1], D.tables.fiber_layers[1][1:r + 1]
        assert sorted(masks["_window"]) == sorted(set(P)), (EJ, EI)
        assert sorted(masks["_reflected"]) == sorted(set(Q)), (EJ, EI)
        repeats += 2 * r - len(set(P)) - len(set(Q))
    assert repeats > 0


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


@pytest.mark.parametrize("r", range(3, 10))
def test_node_sweeps_certify_canonicity_past_the_oracle(r):
    # node(r) is not Gorenstein for r >= 3 (K(node(r)) has 2^r - r small
    # elements), so the length and rho sweeps show equality everywhere
    # against K and not against S itself; at r = 9 each sweep reads 3^9
    # points where the margin box has 7^9
    S = node(r)
    K = canonical_ideal(S)
    assert check_rho(S, K, S).flags["equality_everywhere"]
    assert check_length_pairing(K, S).flags["equality_everywhere"]
    assert not check_rho(S, S, S).flags["equality_everywhere"]
    assert not check_length_pairing(S, S).flags["equality_everywhere"]


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


def test_check_all_computes_each_value_once(ex2, node2, node3, monkeypatch,
                                           canonical_runs):
    import collections

    import gsi.duality as duality

    calls = collections.Counter()

    def counted(name):
        original = getattr(duality, name)

        def wrapper(*args, **kwargs):
            calls[name, args] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, name, wrapper)

    for name in ("cd_difference", "_fiber_region", "is_canonical"):
        counted(name)
    # K(S) is kept on S and check_all reaches canonical_ideal up to three
    # times, so its computations are counted: runs of its body on a fresh S
    for triple in _golden_triples(ex2, node2, node3).values():
        S, EJ, EI = map(replace, triple)
        calls.clear()
        canonical_runs.clear()
        check_all(S, EJ, EI)
        calls["canonical_ideal", (S,)] = sum(E is S for E in canonical_runs)
        assert calls and set(calls.values()) == {1}, calls.most_common(3)
        names = collections.Counter(name for name, _ in calls)
        assert names["canonical_ideal"] == names["is_canonical"] == 1


def test_check_all_cuts_one_fiber_region_per_conductor(ex2, node3, monkeypatch):
    # the fiber-dual region reads EJ only through m_J and c_J, which S and
    # K(S) share: check_all(S, K, E) asks for the regions of (S, x) and of
    # (K, x) for each sampled x, and the context cuts each once
    import collections

    import gsi.duality as duality

    asked, cut = collections.Counter(), collections.Counter()

    def region(EJ, EI, original=duality._fiber_region):
        cut[EJ.m, EJ.c, EI] += 1
        return original(EJ, EI)

    def fiber_region(self, EJ, EI, original=duality._CheckContext.fiber_region):
        asked[EJ, EI] += 1
        return original(self, EJ, EI)

    monkeypatch.setattr(duality, "_fiber_region", region)
    monkeypatch.setattr(duality._CheckContext, "fiber_region", fiber_region)
    for S in (ex2, node3, numerical([3, 5, 7])):
        K, E = canonical_ideal(S), random_good(S, 0)
        assert K != S
        asked.clear()
        cut.clear()
        check_all(S, K, E)
        by_S = {EI for EJ, EI in asked if EJ == S}
        by_K = {EI for EJ, EI in asked if EJ == K}
        assert {S, E} <= by_S & by_K, (by_S, by_K)
        assert set(cut.values()) == {1} and len(cut) == len(by_S | by_K), cut


def test_check_all_promotes_no_fiber_dual(ex2, node2, node3, monkeypatch,
                                          canonical_runs):
    # the fibra and duality checks and the canonicity fixpoint read the fiber
    # dual as a mask, so the only regions promoted are the context's distinct
    # duals and the canonical ideal, computed once on a fresh S
    import collections

    import gsi.duality as duality

    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(duality, "_promote_region")
    counted(duality, "fiber_dual")
    counted(duality, "cd_difference")
    for triple in _golden_triples(ex2, node2, node3).values():
        S, EJ, EI = map(replace, triple)
        calls.clear()
        canonical_runs.clear()
        check_all(S, EJ, EI)
        calls["canonical_ideal"] = sum(E is S for E in canonical_runs)
        assert calls["fiber_dual"] == 0, calls
        assert calls["_promote_region"] == (
            calls["cd_difference"] + calls["canonical_ideal"]), calls


def test_check_all_calls_the_public_checks(ex2, monkeypatch):
    # the bench tracer times the public check names in the theorems
    # namespace, so check_all must run its work through them
    import collections

    import gsi.theorems as theorems

    K = canonical_ideal(ex2)
    want = [r.to_dict() for r in check_all(ex2, K, ex2)]
    calls = collections.Counter()
    names = ("check_sum", "check_fibra", "check_duality", "check_length_pairing",
             "check_rho", "check_maximal_symmetry")

    def counted(name):
        original = getattr(theorems, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(theorems, name, wrapper)

    for name in names:
        counted(name)
    assert [r.to_dict() for r in check_all(ex2, K, ex2)] == want
    assert all(calls[name] >= 1 for name in names), calls


def test_check_all_reports_failing_sweep(ex2, capsys, data_dir, monkeypatch):
    # a sweep that finds a counterexample stops before its equality flag;
    # check_all and the CLI must still report, not raise
    import gsi.theorems as theorems
    from gsi.cli import main

    # the dual side of the length and rho sweeps reads every step as fired
    monkeypatch.setattr(theorems, "_reflected", lambda E, f, lo, hi, mask:
                        theorems.Layout.of(lo, hi).whole)
    by_name = {r.check_name: r for r in check_all(ex2, ex2, ex2)}
    assert not by_name["length"].passed
    assert by_name["length"].counterexamples
    assert "equality_everywhere" not in by_name["length"].flags
    assert not by_name["rho"].passed
    assert "equality_everywhere" not in by_name["rho"].flags
    f = str(data_dir / "ex2.gsi")
    assert main(["check", "all", f, f, "--semigroup", f]) == 1
    out = capsys.readouterr()
    assert "length: FAIL" in out.out and "Traceback" not in out.err


# The former maximal-symmetry check, kept verbatim: it walked every point of
# the sweep box and asked membership, maximality and p/q values point by point.
def _old_check_maximal_symmetry(ctx: _CheckContext, EI: SmallRep, EJ: SmallRep,
                                S: SmallRep | None = None) -> CheckReport:
    D = ctx.dual(EJ, EI)
    B = ctx.dual(EJ, D)
    T = ctx.dual(EJ, B)  # third dual; always equal to D, and D itself if B == EI
    r = EJ.r
    e = ones(r)
    f = frobenius(EJ)
    lo = vsub(meet(EI.m, vsub(f, D.c)), e)
    hi = vadd(join(EI.c, vsub(f, D.m)), e)
    rep = CheckReport("maxsym", True, f"alpha over [{list(lo)}, {list(hi)}]")
    rep.flags["triple_dual_stable"] = equals(T, D)
    if not rep.flags["triple_dual_stable"]:
        rep.passed = False
        rep.counterexamples.append({"note": "third dual differs from first"})
    skipped = []
    pairs_checked = 0
    for alpha in box_points(lo, hi):
        beta = vsub(f, alpha)
        in_i = EI.contains(alpha)
        in_d = D.contains(beta)
        if not (in_i and in_d):
            if (in_i and is_maximal(EI, alpha)) or (in_d and is_maximal(D, beta)):
                skipped.append(pt(alpha))
            continue
        mi = is_maximal(EI, alpha)
        md = is_maximal(D, beta)
        if mi != md:
            rep.passed = False
            rep.counterexamples.append(
                {"alpha": pt(alpha), "beta": pt(beta),
                 "maximal_in_EI": mi, "maximal_in_dual": md})
            continue
        if not mi:
            continue
        pairs_checked += 1
        p = p_value(EI, alpha)
        q = q_value(EI, alpha)
        p2 = p_value(D, beta)
        q2 = q_value(D, beta)
        # q' from rho over EI; p' from rho over the bidual B
        q_formula = rho(EI, EJ, alpha, D) + 1 - p
        rho_b = p_value(B, beta) + q_value(T, alpha) - 1
        p_formula = rho_b + 1 - q_value(B, alpha)
        if q2 != q_formula or p2 != p_formula:
            rep.passed = False
            rep.counterexamples.append(
                {"alpha": pt(alpha), "type": [p, q], "dual_type": [p2, q2],
                 "formula_type": [p_formula, q_formula]})
        else:
            rep.witnesses.append(
                {"alpha": pt(alpha), "type": [p, q], "dual_type": [p2, q2]})
    rep.flags["skipped"] = skipped
    rep.flags["pairs_checked"] = pairs_checked
    canonical_mode = ctx.is_canonical(EJ, S) if S is not None else None
    rep.flags["canonical_mode"] = canonical_mode
    if canonical_mode:
        mi = maximals(EI)
        md = maximals(D)
        fwd = {vsub(f, info.point): (r + 1 - info.q, r + 1 - info.p) for info in mi}
        got = {info.point: (info.p, info.q) for info in md}
        if fwd != got:
            rep.passed = False
            rep.counterexamples.append(
                {"note": "unconditional pairing or type map broken",
                 "expected": sorted((pt(k), list(v)) for k, v in fwd.items()),
                 "got": sorted((pt(k), list(v)) for k, v in got.items())})
        else:
            rep.witnesses.append(
                {"note": "bijection with type map verified",
                 "maximals": sorted((pt(k), list(v)) for k, v in got.items())})
    return rep


def test_maximal_symmetry_matches_box_walk():
    semigroups = [numerical([3, 4, 5]), numerical([2, 3]), numerical([3, 5]),
                  numerical([4, 5, 7]), numerical([2, 5]), node(2), node(3),
                  from_small_elements(2, (0, 0), (5, 5),
                                      {(0, 0), (3, 3), (3, 4), (4, 3), (5, 5)}),
                  product(numerical([2, 3]), numerical([2, 3])),
                  product(numerical([3, 4]), numerical([2, 3])),
                  product(node(2), numerical([2, 3]))]
    triples = 0
    seen = {"skipped": 0, "pairs": 0, "canonical": 0}
    for S in semigroups:
        K = canonical_ideal(S)
        ideals = [S, K, translate(K, ones(S.r))] + [random_good(S, k) for k in range(1, 6)]
        for EJ in ideals[:4]:
            for EI in ideals:
                for context in (None, S):
                    ctx = _CheckContext()
                    want = _old_check_maximal_symmetry(ctx, EI, EJ, context).to_dict()
                    got = check_maximal_symmetry(EI, EJ, context, ctx=ctx).to_dict()
                    assert got == want, (S, EJ, EI, context)
                seen["skipped"] += bool(want["flags"]["skipped"])
                seen["pairs"] += bool(want["flags"]["pairs_checked"])
                seen["canonical"] += bool(want["flags"]["canonical_mode"])
                triples += 1
    assert triples >= 300
    assert min(seen.values()) >= 10, seen


def test_maximal_symmetry_wrong_bidual_fails_p_side(ex2):
    # the p' formula reads the bidual from the context; a wrong one seeded
    # there breaks it, while the q' side, definitional, still agrees
    K = canonical_ideal(ex2)
    D = cd_difference(K, ex2)
    B = cd_difference(K, D)
    assert check_maximal_symmetry(ex2, K).passed
    for wrong in (translate(B, (1, 1)), translate(B, (-1, -1))):
        ctx = _CheckContext()
        ctx.values["dual", K, D] = wrong
        rep = check_maximal_symmetry(ex2, K, ctx=ctx)
        assert not rep.passed
        typed = [c for c in rep.counterexamples if "formula_type" in c]
        assert len(typed) == rep.flags["pairs_checked"] == 3
        for c in typed:
            assert c["formula_type"][0] != c["dual_type"][0]
            assert c["formula_type"][1] == c["dual_type"][1]


def test_maximal_symmetry_wrong_dual_fails_both_pairings(ex2):
    # a dual planted one step up leaves the conditional pairing with a point
    # maximal on one side only, and the unconditional (canonical) pairing
    # with every dual maximal point off by e
    K = canonical_ideal(ex2)
    ctx = _CheckContext()
    ctx.values["dual", K, ex2] = translate(cd_difference(K, ex2), (1, 1))
    rep = check_maximal_symmetry(ex2, K, ex2, ctx=ctx)
    assert not rep.passed
    assert rep.flags["canonical_mode"] is True
    assert rep.flags["pairs_checked"] == 0
    assert rep.counterexamples == [
        {"alpha": [0, 0], "beta": [4, 4],
         "maximal_in_EI": True, "maximal_in_dual": False},
        {"note": "unconditional pairing or type map broken",
         "expected": [([0, 1], [1, 2]), ([1, 0], [1, 2]), ([4, 4], [1, 2])],
         "got": [([1, 2], [1, 2]), ([2, 1], [1, 2]), ([5, 5], [1, 2])]},
    ]


def test_gorenstein_consistency_planted_flags_fail(ex2):
    K = canonical_ideal(ex2)
    # K is canonical, so a pair over it without equality fails; EI is S
    # here, so the planted pair is both the S and the EI entry
    ctx = _CheckContext()
    ctx.values["equality", K, ex2] = (False, False, False)
    rep = _gorenstein_consistency(ctx, ex2, K, ex2, 0)
    assert not rep.passed
    assert rep.flags == {"gorenstein": False, "ej_canonical": True}
    flags = {"EJ": "EJ", "length": False, "rho": False, "duality": False,
             "note": "canonical reference but equality fails"}
    assert rep.counterexamples == [{**flags, "EI": "S"}, {**flags, "EI": "EI"}]
    # ex2 is not Gorenstein, so equality on the decisive (S, S) pair
    # contradicts it
    ctx = _CheckContext()
    ctx.values["equality", ex2, ex2] = (True, True, True)
    rep = _gorenstein_consistency(ctx, ex2, K, ex2, 0)
    assert not rep.passed
    assert rep.counterexamples == [
        {"EJ": "S", "EI": "S", "length": True, "rho": True, "duality": True,
         "note": "decisive EI = S pair contradicts canonicity"}]
