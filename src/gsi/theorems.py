"""Executable verification of the duality and symmetry results.

The length and rho checks report a finite box covering every point where
the quantities involved are not yet stabilized by the membership rule,
with margin, so the boundary behavior of the all-of-Z^r quantifiers is
exercised and wider sweeps would be redundant; the maximal-symmetry check
reads the maximal points, which lie in its box, and their types from
``maximals``.  The length and rho sweeps read the core of their box
(``_core``), outside which every mask is constant per axis, and put the
points they report back into the box (``_first``; the proof is in
``check_length_pairing``).  The length sweep reads windows
(``ideal._window``) of singleton fiber-table entries of EI and open-table
entries of the dual, the rho sweep of (p, q) layers: the EI side over the
core, the dual side over its reflection (f - core, f = frobenius(EJ)),
bit-reversed so that both are indexed like the core.  Each relation is an
AND or OR of masks, the first counterexample and equality witness in sweep
order are lowest set bits, and the per-point ``length_step`` and ``rho``
are left for the public API and for the values a report shows.  The fibra
and duality checks compare D's window over the dual box with the
fiber-dual mask of ``duality._fiber_region`` the same way, so no fiber
dual is decoded or promoted.
Reports carry witnesses for equality cases and counterexamples for violated
relations; a counterexample to one of the unconditional claims means an
implementation bug and fails the build.

check_all passes one check context (``duality._CheckContext``) to the public
checks as ``ctx`` and memoizes the equality flags per sampled pair in it;
a check called without one makes its own.  The context holds values only:
reps of one shape read one set of fiber tables through ``SmallRep.tables``,
which ``ideal`` keys by shape, so no check hands tables around.
Each sweep's relation is one mask kernel (``_length_masks``,
``_rho_masks``, ``_duality_diffs``): the public checks build their
reports from it, and the consistency sweep reads its flags straight off
it (``_equality``), with no report built.
"""
from __future__ import annotations

from functools import reduce
from operator import or_

from .constructors import random_good
from .duality import _CheckContext, canonical_ideal, cd_difference, is_gorenstein
from .errors import InvalidIndexSet
from .fiber import maximals, p_value, q_value
from .ideal import (
    Layout,
    SmallRep,
    _reflected,
    _sum_failure,
    _window,
    equals,
    frobenius,
    translate,
)
from .lattice import Point, check_same_dim, join, meet, ones, vadd, vsub
from .report import CheckReport, pt


def _equality(ctx: _CheckContext, EJ: SmallRep, EI: SmallRep) -> tuple[bool, bool, bool]:
    """The equality flags of the length, rho and duality sweeps of a pair,
    read off their masks with no report built: length holds with equality
    when no point has both one-step lengths or neither, rho when it is
    neither below nor above r anywhere, duality when the two duals do not
    differ.  A report with a counterexample sets no flag, so these are the
    flags the reports give (``_equality_flags``)."""
    def flags() -> tuple[bool, bool, bool]:
        D = ctx.dual(EJ, EI)
        _, both, neither = _length_masks(EJ, EI, D)
        _, below, above = _rho_masks(EI, EJ, D)
        return (not any(both) and not any(neither), not below and not above,
                not _duality_diffs(EJ, EI, ctx)[2])
    return ctx._get(("equality", EJ, EI), flags)


def _equality_flags(length: CheckReport, rho_rep: CheckReport,
                    duality: CheckReport) -> tuple[bool, bool, bool]:
    # a sweep that found a counterexample stops before setting its flag
    return (length.flags.get("equality_everywhere", False),
            rho_rep.flags.get("equality_everywhere", False), duality.flags["equal"])


def _sweep_box(EI: SmallRep, D: SmallRep, top: Point, margin: int) -> tuple[Point, Point]:
    """The box covering the EI side around [m_I, c_I] and the dual side
    around top - [m_D, c_D], widened by margin; outside it both sides are
    stabilized."""
    e = (margin,) * EI.r
    return (vsub(meet(EI.m, vsub(top, D.c)), e),
            vadd(join(EI.c, vsub(top, D.m)), e))


def _core(EI: SmallRep, D: SmallRep, f: Point) -> tuple[Point, Point]:
    """The core of the length and rho sweeps: the hull of EI's grid
    [m_I - e, c_I] and of f minus D's grid, f - [m_D - e, c_D], where every
    box row outside it is in the clamp class of its end row on both sides
    (``check_length_pairing``)."""
    e = ones(EI.r)
    return (meet(vsub(EI.m, e), vsub(f, D.c)), join(EI.c, vadd(vsub(f, D.m), e)))


def _first(core: Layout, masks: list[int], lo: Point) -> tuple[Point, int] | None:
    """The least (point, index) over the set bits of masks over a sweep's
    core, None if none, as a point of the box with low corner lo: the
    lowest bits m & -m order as their points do, and a coordinate on the
    core's low face stands for the box rows down to lo_k, of which lo_k is
    the least."""
    first = min(((m & -m, i) for i, m in enumerate(masks) if m), default=None)
    if first is None:
        return None
    p = core.lowest(first[0])
    return tuple([l if x == c else x for x, c, l in zip(p, core.lo, lo)]), first[1]


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
    failure = _sum_failure(D, EI, EJ)
    if failure is not None:
        beta, a, s = failure
        rep.passed = False
        rep.counterexamples.append({"beta": pt(beta), "alpha": pt(a), "sum": pt(s)})
    return rep


def check_fibra(EJ: SmallRep, EI: SmallRep, *,
                ctx: _CheckContext | None = None) -> CheckReport:
    """The CD-difference sits inside the fiber-formula dual (inclusion only).

    D's window over the dual box against the fiber-dual mask: the first
    counterexample is the lowest bit of D minus the region, the strictness
    witness the lowest of the region minus D.
    """
    ctx = ctx or _CheckContext()
    D = ctx.dual(EJ, EI)
    lo, hi, region = ctx.fiber_region(EJ, EI)
    rep = CheckReport("fibra", True, f"beta over dual box [{list(lo)}, {list(hi)}]")
    layout = Layout.of(lo, hi)
    inside = _window(D, lo, hi)
    missing = inside & ~region
    if missing:
        rep.passed = False
        rep.counterexamples.append(
            {"beta": pt(layout.lowest(missing)),
             "note": "in CD-difference but fiber of frobenius(EJ) - beta is occupied"})
        return rep
    strict = region & ~inside
    if strict:
        rep.witnesses.append({"beta": pt(layout.lowest(strict)),
                              "note": "strict inclusion witness"})
    rep.flags["strict"] = bool(strict)
    return rep


def _duality_diffs(EJ: SmallRep, EI: SmallRep,
                   ctx: _CheckContext) -> tuple[Point, Point, int]:
    """The dual box [lo, hi] and the mask, in its layout, of the beta where
    the CD-difference and the fiber dual differ."""
    D = ctx.dual(EJ, EI)
    lo, hi, region = ctx.fiber_region(EJ, EI)
    return lo, hi, region ^ _window(D, lo, hi)


def check_duality(EJ: SmallRep, EI: SmallRep, S: SmallRep | None = None, *,
                  ctx: _CheckContext | None = None) -> CheckReport:
    """Set equality of CD-difference and fiber dual over the dual box,
    cross-referenced with canonicity of EJ when a semigroup is supplied."""
    ctx = ctx or _CheckContext()
    lo, hi, diffs = _duality_diffs(EJ, EI, ctx)
    rep = CheckReport("duality", True, f"beta over dual box [{list(lo)}, {list(hi)}]")
    rep.flags["equal"] = not diffs
    if diffs:
        first = Layout.of(lo, hi).lowest(diffs)
        rep.witnesses.append({"beta": pt(first),
                              "note": "fiber dual strictly larger here"})
    if S is not None:
        can = ctx.is_canonical(EJ, S)
        rep.flags["ej_canonical"] = can
        if can and diffs:
            rep.passed = False
            rep.counterexamples.append(
                {"beta": pt(first),
                 "note": "EJ canonical but CD-difference misses this point"})
    return rep


def _length_masks(EJ: SmallRep, EI: SmallRep,
                  D: SmallRep) -> tuple[Layout, list[int], list[int]]:
    """The layout of the length sweep's core and, per axis k, the masks
    over it where both one-step lengths at k fire and where neither does
    (``check_length_pairing``)."""
    f = frobenius(EJ)
    clo, chi = _core(EI, D, f)
    layout = Layout.of(clo, chi)
    whole = layout.whole
    both, neither = [], []
    T, O = EI.tables.fiber_table, D.tables.open_table
    for k in range(EJ.r):
        a = _window(EI, clo, chi, T[1 << k])
        b = _reflected(D, f, clo, chi, O[1 << k])
        both.append(a & b)
        neither.append(whole & ~(a | b))
    return layout, both, neither


def check_length_pairing(EJ: SmallRep, EI: SmallRep,
                         D: SmallRep | None = None) -> CheckReport:
    """Length pairing: the two one-step lengths at complementary points never
    both fire, and they complement exactly when EJ is canonical.

    For every alpha in the sweep box, with beta = c(EJ) - alpha and every i:
    step(EI, alpha, i) + step(D, beta - e_i, i) <= 1.  The
    ``equality_everywhere`` flag records whether the sum is 1 throughout.
    Per i, the EI side is EI's closed {i} window and the D side D's closed
    {i} entry at c(EJ) - e_i - alpha = (f - alpha) + (e - e_i), f =
    frobenius(EJ): the closed {i} entry one row up on the free axes, which
    is D's open {i} entry at f - alpha.  Read clamped, the two differ only
    where f_k - alpha_k < m_D,k - 1 on a free axis k, where the closed
    entry reads row m_D,k - 1 and the open one row m_D,k; a closed fiber
    free on k is the same at both rows, as row m_D,k - 1 holds no member.
    So both sides are windows reflected at f, as in ``check_rho``.

    The sweep reads them on the core C of the box (``_core``): per axis k,
    C.lo_k = min(m_I,k - 1, f_k - c_D,k) and C.hi_k = max(c_I,k, f_k -
    m_D,k + 1).  Below C.lo_k, EI reads its row m_I,k - 1 and D its row
    c_D,k; above C.hi_k, EI reads row c_I,k and D row m_D,k - 1.  So every
    box row outside C is in the clamp class of C's end row on its side,
    and a set of points that the masks compute is a union of products of
    classes.  ``_sweep_box``'s margins put C inside the box, so the least
    point of such a set in the box is its least point in C with each
    coordinate C.lo_k put at the box's lo_k (``_first``), and every value
    shown there is the one at the core point.  The first (alpha, i) in
    sweep order is the least (point, i) of the AND of the two sides, and
    the first equality gap the least of their NOR.
    """
    if D is None:
        D = cd_difference(EJ, EI)
    lo, hi = _sweep_box(EI, D, EJ.c, 2)
    rep = CheckReport("length", True,
                      f"alpha over [{list(lo)}, {list(hi)}], i in 1..{EJ.r}")
    layout, both, neither = _length_masks(EJ, EI, D)
    bad, gap = _first(layout, both, lo), _first(layout, neither, lo)
    if gap is not None and (bad is None or gap < bad):
        rep.witnesses.append({"alpha": pt(gap[0]), "i": gap[1] + 1,
                              "note": "equality gap"})
    if bad is not None:
        alpha = bad[0]
        rep.passed = False
        rep.counterexamples.append(
            {"alpha": pt(alpha), "beta": pt(vsub(EJ.c, alpha)), "i": bad[1] + 1,
             "lhs": 1, "rhs": 1})
        return rep
    rep.flags["equality_everywhere"] = gap is None
    return rep


def rho(EI: SmallRep, EJ: SmallRep, alpha: Point,
        D: SmallRep | None = None) -> int:
    """p of alpha in EI plus q of the complementary point in the dual, minus 1."""
    if D is None:
        D = cd_difference(EJ, EI)
    return p_value(EI, alpha) + q_value(D, vsub(frobenius(EJ), alpha)) - 1


def _rho_masks(EI: SmallRep, EJ: SmallRep, D: SmallRep) -> tuple[Layout, int, int]:
    """The layout of the rho sweep's core and the masks over it where rho
    is below r and where it is above r (``check_rho``)."""
    r = EJ.r
    f = frobenius(EJ)
    clo, chi = _core(EI, D, f)
    layout = Layout.of(clo, chi)
    whole = layout.whole
    P, Q = EI.tables.fiber_layers[0], D.tables.fiber_layers[1]
    ks = range(1, r + 1)
    # the layers of successive k often hold one mask: window each once
    Pw = {mask: _window(EI, clo, chi, mask) for mask in {P[k] for k in ks}}
    Qw = {mask: _reflected(D, f, clo, chi, mask) for mask in {Q[k] for k in ks}}
    A = [0, *(Pw[P[k]] for k in ks), whole]
    B = [whole, *(Qw[Q[k]] for k in ks), whole]
    below = reduce(or_, (A[a + 1] & B[r - a] for a in range(r)))
    above = whole & ~reduce(or_, (A[a + 1] & B[r + 1 - a] for a in range(r + 1)))
    return layout, below, above


def check_rho(EI: SmallRep, EJ: SmallRep, S: SmallRep | None = None, *,
              ctx: _CheckContext | None = None) -> CheckReport:
    """rho >= r on a full sweep; equality everywhere is the canonicity flag.

    Cross-references is_canonical(EJ, S) when a semigroup context is
    supplied.  The sweep runs on masks over the core C of the box
    (``_core``), indexed like it; by the proof in ``check_length_pairing``
    the least point of each set below is found in C and put into the box
    by ``_first``, and rho there is its value at the core point.  With f =
    frobenius(EJ), A_k (p < k at alpha) is the window of EI's layer P[k]
    over C, and B_k (q <= k at f - alpha) the window of D's layer Q[k]
    over f - C, reversed; A_{r+1} and B_{r+1} are the whole core.
    rho < r is the OR over a < r of A_{a+1} & B_{r-a}, rho > r the
    complement of the OR over a <= r of A_{a+1} & B_{r+1-a}, and rho itself
    is evaluated only where reported.  When D is the computed dual
    ``cd_difference(EJ, EI)``, c_D = c_J - m_I and m_D >= c_J - c_I, so C
    is EI's grid: EI's layers are read as they are, and only D's side is
    cut and reflected.
    """
    ctx = ctx or _CheckContext()
    D = ctx.dual(EJ, EI)
    r = EJ.r
    lo, hi = _sweep_box(EI, D, frobenius(EJ), 2)
    rep = CheckReport("rho", True, f"alpha over [{list(lo)}, {list(hi)}]")
    layout, below_mask, above_mask = _rho_masks(EI, EJ, D)
    below, above = _first(layout, [below_mask], lo), _first(layout, [above_mask], lo)
    if above is not None and (below is None or above < below):
        alpha = above[0]
        rep.witnesses.append({"alpha": pt(alpha), "rho": rho(EI, EJ, alpha, D),
                              "note": "strictly above r"})
    if below is not None:
        alpha = below[0]
        rep.passed = False
        rep.counterexamples.append({"alpha": pt(alpha), "rho": rho(EI, EJ, alpha, D),
                                    "r": r})
        return rep
    rep.flags["equality_everywhere"] = above is None
    if S is not None:
        rep.flags["ej_canonical"] = ctx.is_canonical(EJ, S)
    return rep


def check_maximal_symmetry(EI: SmallRep, EJ: SmallRep, S: SmallRep | None = None, *,
                           ctx: _CheckContext | None = None) -> CheckReport:
    """Maximal points pair up under alpha -> frobenius(EJ) - alpha.

    Conditionally (both memberships assumed) maximality transfers both ways
    and the dual type obeys the p' formula computed from rho over the bidual
    B and the third dual.  The q' side of the formula type, rho over EI plus
    1 - p, is definitional: rho(EI, EJ, alpha, D) is p_value(EI, alpha) +
    q_value(D, frobenius(EJ) - alpha) - 1, so q' is the dual q, which the
    reported formula type repeats; only the p' side is compared.  With
    EJ canonical (semigroup context required) the pairing is unconditional: a
    bijection of maximal sets with the type map (p, q) -> (r + 1 - q, r + 1 - p).
    """
    ctx = ctx or _CheckContext()
    D = ctx.dual(EJ, EI)
    B = ctx.dual(EJ, D)
    T = ctx.dual(EJ, B)  # third dual; always equal to D, and D itself if B == EI
    r = EJ.r
    f = frobenius(EJ)
    lo, hi = _sweep_box(EI, D, f, 1)
    rep = CheckReport("maxsym", True, f"alpha over [{list(lo)}, {list(hi)}]")
    rep.flags["triple_dual_stable"] = equals(T, D)
    if not rep.flags["triple_dual_stable"]:
        rep.passed = False
        rep.counterexamples.append({"note": "third dual differs from first"})
    max_i = {info.point: info for info in maximals(EI)}
    max_d = {info.point: info for info in maximals(D)}
    skipped = []
    pairs_checked = 0
    for alpha in sorted(max_i.keys() | {vsub(f, beta) for beta in max_d}):
        beta = vsub(f, alpha)
        if not (EI.contains(alpha) and D.contains(beta)):
            skipped.append(pt(alpha))
            continue
        mi, md = max_i.get(alpha), max_d.get(beta)
        if mi is None or md is None:
            rep.passed = False
            rep.counterexamples.append(
                {"alpha": pt(alpha), "beta": pt(beta),
                 "maximal_in_EI": mi is not None, "maximal_in_dual": md is not None})
            continue
        pairs_checked += 1
        # p' from rho over the bidual B; q' from rho over EI is md.q by the
        # definition of rho, so it is reported, not compared
        rho_b = p_value(B, beta) + q_value(T, alpha) - 1
        p_formula = rho_b + 1 - q_value(B, alpha)
        if md.p != p_formula:
            rep.passed = False
            rep.counterexamples.append(
                {"alpha": pt(alpha), "type": [mi.p, mi.q], "dual_type": [md.p, md.q],
                 "formula_type": [p_formula, md.q]})
        else:
            rep.witnesses.append(
                {"alpha": pt(alpha), "type": [mi.p, mi.q], "dual_type": [md.p, md.q]})
    rep.flags["skipped"] = skipped
    rep.flags["pairs_checked"] = pairs_checked
    canonical_mode = ctx.is_canonical(EJ, S) if S is not None else None
    rep.flags["canonical_mode"] = canonical_mode
    if canonical_mode:
        fwd = {vsub(f, a): (r + 1 - info.q, r + 1 - info.p) for a, info in max_i.items()}
        got = {b: (info.p, info.q) for b, info in max_d.items()}
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


def _gorenstein_consistency(ctx: _CheckContext, S: SmallRep, EJ: SmallRep,
                            EI: SmallRep, seed: int) -> CheckReport:
    """Equality flags must track canonicity, with EI = S as the decisive pair.

    For a sample of ideals over S: when the reference ideal is canonical the
    length and rho sweeps must show equality everywhere; the converse is
    decided on the EI = S pair, which the proofs single out.  Per-pair
    equality against other EI without canonicity is recorded, not failed.
    """
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
    can_j = ctx.is_canonical(EJ, S)
    rep.flags["gorenstein"] = gor
    rep.flags["ej_canonical"] = can_j
    for ej_name, ej, expect in (("S", S, gor), ("EJ", EJ, can_j)):
        for name, e_i in sample:
            lf, rf, df = _equality(ctx, ej, e_i)
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
    """Run every check for the triple, plus the Gorenstein consistency sweep,
    all from one check context."""
    ctx = _CheckContext()
    D = ctx.dual(EJ, EI)
    reports = [
        check_sum(EJ, EI, D),
        check_fibra(EJ, EI, ctx=ctx),
        check_duality(EJ, EI, S, ctx=ctx),
        check_length_pairing(EJ, EI, D),
        check_rho(EI, EJ, S, ctx=ctx),
        check_maximal_symmetry(EI, EJ, S, ctx=ctx),
    ]
    # the consistency sweep samples (EJ, EI) too
    ctx.values["equality", EJ, EI] = _equality_flags(reports[3], reports[4], reports[2])
    reports.append(_gorenstein_consistency(ctx, S, EJ, EI, seed))
    return reports
