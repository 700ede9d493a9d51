"""Executable verification of the duality and symmetry results.

Each check sweeps a finite box covering every point where the quantities
involved are not yet stabilized by the membership rule, with margin, so the
boundary behavior of the all-of-Z^r quantifiers is exercised and wider
sweeps would be redundant.  Reports carry witnesses for equality cases and
counterexamples for violated relations; a counterexample to one of the
unconditional claims means an implementation bug and fails the build.
"""
from __future__ import annotations

from .duality import (
    canonical_ideal,
    cd_difference,
    fiber_dual,
    is_canonical,
    is_gorenstein,
)
from .errors import InvalidIndexSet
from .fiber import is_maximal, maximals, p_value, q_value
from .ideal import SmallRep, equals, frobenius, members, translate
from .lattice import Point, box_points, check_same_dim, join, meet, ones, vadd, vsub
from .report import CheckReport, pt


def length_step(E: SmallRep, alpha: Point, i: int) -> int:
    """1 when the closed singleton fiber at alpha in coordinate i is occupied.

    This is the combinatorial value of the one-step quotient length along
    coordinate i; module lengths themselves are never computed.
    """
    check_same_dim(alpha, E.c)
    if i < 1 or i > E.r:
        raise InvalidIndexSet(f"index {i} out of range 1..{E.r}")
    return 1 if E.fiber_occupied(alpha, 1 << (i - 1), closed=True) else 0


def check_sum(EJ: SmallRep, EI: SmallRep, D: SmallRep | None = None) -> CheckReport:
    """beta in D and alpha in EI always sum into EJ (sum rule)."""
    if D is None:
        D = cd_difference(EJ, EI)
    e = ones(EJ.r)
    rep = CheckReport(
        "sum", True,
        f"alpha in EI over [{list(EI.m)}, {list(vadd(EI.c, e))}], "
        f"beta in D over [{list(D.m)}, {list(vadd(D.c, e))}]")
    al = members(EI, EI.m, vadd(EI.c, e))
    for beta in members(D, D.m, vadd(D.c, e)):
        for a in al:
            s = vadd(beta, a)
            if not EJ.contains(s):
                rep.passed = False
                rep.counterexamples.append(
                    {"beta": pt(beta), "alpha": pt(a), "sum": pt(s)})
                return rep
    return rep


def check_fibra(EJ: SmallRep, EI: SmallRep, D: SmallRep | None = None) -> CheckReport:
    """The CD-difference sits inside the fiber-formula dual (inclusion only)."""
    if D is None:
        D = cd_difference(EJ, EI)
    fd = fiber_dual(EJ, EI)
    rep = CheckReport(
        "fibra", True,
        f"beta over dual box [{list(fd.box.lo)}, {list(fd.box.hi)}]")
    for beta in fd.box:
        if D.contains(beta) and beta not in fd.points:
            rep.passed = False
            rep.counterexamples.append(
                {"beta": pt(beta),
                 "note": "in CD-difference but fiber of frobenius(EJ) - beta is occupied"})
            return rep
    strict = sorted(p for p in fd.points if not D.contains(p))
    if strict:
        rep.witnesses.append({"beta": pt(strict[0]), "note": "strict inclusion witness"})
    rep.flags["strict"] = bool(strict)
    return rep


def check_duality(EJ: SmallRep, EI: SmallRep, S: SmallRep | None = None,
                  D: SmallRep | None = None) -> CheckReport:
    """Set equality of CD-difference and fiber dual over the dual box,
    cross-referenced with canonicity of EJ when a semigroup is supplied."""
    if D is None:
        D = cd_difference(EJ, EI)
    fd = fiber_dual(EJ, EI)
    rep = CheckReport(
        "duality", True,
        f"beta over dual box [{list(fd.box.lo)}, {list(fd.box.hi)}]")
    diffs = sorted(p for p in fd.box
                   if D.contains(p) != (p in fd.points))
    rep.flags["equal"] = not diffs
    if diffs:
        rep.witnesses.append({"beta": pt(diffs[0]),
                              "note": "fiber dual strictly larger here"})
    if S is not None:
        can = is_canonical(EJ, S)
        rep.flags["ej_canonical"] = can
        if can and diffs:
            rep.passed = False
            rep.counterexamples.append(
                {"beta": pt(diffs[0]),
                 "note": "EJ canonical but CD-difference misses this point"})
    return rep


def check_length_pairing(EJ: SmallRep, EI: SmallRep,
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
    e = ones(r)
    e2 = vadd(e, e)
    # cover the regions where either summand is not yet stabilized: the EI
    # side around [m_I, c_I] and the dual side around c(EJ) - [m_D, c_D]
    lo = vsub(meet(EI.m, vsub(EJ.c, D.c)), e2)
    hi = vadd(join(EI.c, vsub(EJ.c, D.m)), e2)
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


def rho(EI: SmallRep, EJ: SmallRep, alpha: Point,
        D: SmallRep | None = None) -> int:
    """p of alpha in EI plus q of the complementary point in the dual, minus 1."""
    if D is None:
        D = cd_difference(EJ, EI)
    return p_value(EI, alpha) + q_value(D, vsub(frobenius(EJ), alpha)) - 1


def check_rho(EI: SmallRep, EJ: SmallRep, S: SmallRep | None = None,
              D: SmallRep | None = None) -> CheckReport:
    """rho >= r on a full sweep; equality everywhere is the canonicity flag.

    Cross-references is_canonical(EJ, S) when a semigroup context is
    supplied.
    """
    if D is None:
        D = cd_difference(EJ, EI)
    r = EJ.r
    e = ones(r)
    e2 = vadd(e, e)
    f = frobenius(EJ)
    # cover both the p side around [m_I, c_I] and the q side around
    # frobenius(EJ) - [m_D, c_D]; outside, both statistics are stabilized
    lo = vsub(meet(EI.m, vsub(f, D.c)), e2)
    hi = vadd(join(EI.c, vsub(f, D.m)), e2)
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
        rep.flags["ej_canonical"] = is_canonical(EJ, S)
    return rep


def check_maximal_symmetry(EI: SmallRep, EJ: SmallRep,
                           S: SmallRep | None = None) -> CheckReport:
    """Maximal points pair up under alpha -> frobenius(EJ) - alpha.

    Conditionally (both memberships assumed) maximality transfers both ways
    and the dual type obeys the p'/q' formulas computed from rho over the
    bidual and over EI.  With EJ canonical (semigroup context required) the
    pairing is unconditional: a bijection of maximal sets with the type map
    (p, q) -> (r + 1 - q, r + 1 - p).
    """
    D = cd_difference(EJ, EI)
    B = cd_difference(EJ, D)
    T = cd_difference(EJ, B)  # third dual; always equal to D
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
    canonical_mode = is_canonical(EJ, S) if S is not None else None
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


def _gorenstein_consistency(S: SmallRep, EJ: SmallRep, EI: SmallRep,
                            seed: int) -> CheckReport:
    """Equality flags must track canonicity, with EI = S as the decisive pair.

    For a sample of ideals over S: when the reference ideal is canonical the
    length and rho sweeps must show equality everywhere; the converse is
    decided on the EI = S pair, which the proofs single out.  Per-pair
    equality against other EI without canonicity is recorded, not failed.
    """
    from .constructors import random_good

    can_s = canonical_ideal(S)
    sample: list[tuple[str, SmallRep]] = [("S", S), ("canonical", can_s)]
    sample.append(("canonical+e", translate(can_s, ones(S.r))))
    sample.append(("EI", EI))
    for k in range(2):
        sample.append((f"random{k}", random_good(S, seed + k)))
    rep = CheckReport(
        "consistency", True,
        f"EJ fixed, EI sampled over {[name for name, _ in sample]}, seed={seed}")
    gor = is_gorenstein(S)
    can_j = is_canonical(EJ, S)
    rep.flags["gorenstein"] = gor
    rep.flags["ej_canonical"] = can_j
    for ej_name, ej, expect in (("S", S, gor), ("EJ", EJ, can_j)):
        for name, e_i in sample:
            lf = check_length_pairing(ej, e_i).flags["equality_everywhere"]
            rf = check_rho(e_i, ej).flags["equality_everywhere"]
            df = check_duality(ej, e_i).flags["equal"]
            entry = {"EJ": ej_name, "EI": name, "length": lf, "rho": rf,
                     "duality": df}
            if lf != rf or lf != df:
                rep.passed = False
                rep.counterexamples.append({**entry, "note": "flags disagree"})
            elif expect and not lf:
                rep.passed = False
                rep.counterexamples.append(
                    {**entry, "note": "canonical reference but equality fails"})
            elif name == "S" and lf != expect:
                rep.passed = False
                rep.counterexamples.append(
                    {**entry, "note": "decisive EI = S pair contradicts canonicity"})
            elif lf and not expect:
                rep.witnesses.append(
                    {**entry,
                     "note": "per-pair equality without canonicity (allowed off S)"})
            else:
                rep.witnesses.append(entry)
    return rep


def check_all(S: SmallRep, EJ: SmallRep, EI: SmallRep,
              seed: int = 0) -> list[CheckReport]:
    """Run every check for the triple, plus the Gorenstein consistency sweep."""
    D = cd_difference(EJ, EI)
    reports = [
        check_sum(EJ, EI, D),
        check_fibra(EJ, EI, D),
        check_duality(EJ, EI, S, D),
        check_length_pairing(EJ, EI, D),
        check_rho(EI, EJ, S, D),
        check_maximal_symmetry(EI, EJ, S),
        _gorenstein_consistency(S, EJ, EI, seed),
    ]
    return reports
