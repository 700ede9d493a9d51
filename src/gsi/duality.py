"""Duals of good semigroup ideals and canonical-ideal tests.

The CD-difference D = {beta : beta + EI <= EJ} of good ideals is computed
over the box [c_J - c_I, U], U = c_J - m_I, and promoted with top U.  Below
the box nothing belongs: beta in D makes beta + c_I conduct in EJ, and the
conducting points of EJ are c_J + N^r, as meet(z + x, z' + x) =
meet(z, z') + x is in EJ by E1.  Past U_k every beta_k + alpha_k passes
c_J,k, where EJ clamps, so D is clamp-invariant at U, its conductor.
The fiber dual and the reports keep the box [m_J - c_I, U + e]
(``_fiber_region``).  K(S) is read on S's own grid [m_S - e, c_S] and
promoted with top c_S; ``canonical_ideal`` proves that the grid holds it,
and the region mask becomes K(S)'s grid, as the two share the layout.
The quotient runs on the membership grid of ``ideal`` (``ideal._quotient``):
one window of EJ covers every sum beta + alpha, and its shift by alpha's
offset answers the quantifier for every beta at once.  On the box the top
clamp class of EI, c_I + N^r, always lands in EJ, and by E2 in EJ every
other small element takes one shift of the window, so a principal
EI = c_I + N^r needs none: its box is the one point c_J - c_I, returned
as it is.
``fiber_dual`` and ``canonical_ideal`` read their regions off one window
instead of walking their boxes: the points beta with F(E, f - beta) empty
are the box minus the window of E's layer P[1] (some singleton open fiber
occupied) over the reflected box f - box, bit-reversed to the box's own
indexing.  P[1] is read off E's grid (``Tables.p1``), so E's fiber
tables and layers stay unbuilt.  ``_fiber_region`` returns the fiber dual
as that mask with its box; ``is_canonical`` and the check layer compare it
with windows and never promote it, and only the public ``fiber_dual``
decodes it.
Each region is promoted to a SmallRep with its box top U as conductor:
c_J - m_I for a dual or fiber dual and c_S for K(S), the conductors the
duality fixes (c(EJ - EI) = c_J - m_I and c(K(S)) = c(S); D'Anna 1997,
Korell, Schulze and Tozzo 2019).  Each caller proves in its docstring that
no U - e_k lies in its region, so U is least and nothing normalises it
(``ideal._least_conductor`` serves parsed and drawn data only).
Every region is a good ideal on valid inputs: D by definition, K(S) as
the canonical ideal, and the fiber dual as K_J - EI, the dual of EI into
the translate K_J of a canonical ideal whose Frobenius vector is f_J
(``fiber_dual`` proves it).  So ``_promote_region`` returns the rep or
raises SoundnessError.  ``ideal._axiom_failure``, the axiom kernel of
``validate``, certifies every promoted rep once and builds no report: only
a failure is wrapped in ``validate``'s report, for the error's text.  Its
conductor check rejects a region that a fault lowers, and on valid inputs
any failure there is an internal bug.  A principal EI gives a one-point
region, which the kernel passes with no check of its own.

A private check context holds what the checks of a triple share: each
dual and fiber-dual region and the canonicity of EJ, computed once on first
use and keyed by value (SmallRep is canonical, and hashes as its small set,
which the frozenset keeps), a region by what it reads of EJ, m_J and c_J,
so S and K(S) share theirs.  A hit is one dict lookup, as no value it holds
is None; a compute that raises stores nothing.  ``is_canonical`` reads the
region from the one passed as ``ctx``, or from a fresh one.  It lives for
one call of ``theorems.check_all``, which adds its sweeps' equality flags,
and holds values only, never reports or fiber tables: which reps share
tables is decided in ``ideal`` alone (``SmallRep.tables``, one holder per
shape), so a dual's certificate and the checks read one set of tables
for every rep of a shape.  K(S) lives on S:
``canonical_ideal`` keeps it in S's ``__dict__``, as ``cached_property``
keeps the grid, so a value-equal copy computes it again and a call that
raises stores nothing.
"""
from __future__ import annotations

from typing import Any, Callable

from .errors import SoundnessError
from .ideal import (
    Layout,
    RegionSet,
    SmallRep,
    _axiom_failure,
    _box_mask,
    _compatibility_failure,
    _quotient,
    _reflected,
    _require_same_r,
    _window,
    equals,
    frobenius,
    is_subset,
    translate,
    validate,
)
from .lattice import Box, Point, ones, vadd, vsub, zero


def _promote_region(what: str, r: int, points: set[Point], U: Point,
                    grid: tuple[Layout, int] | None = None) -> SmallRep:
    """Read a bounded point set as the box window of a good ideal.

    The points lie at or below U, the box top, which is known to conduct
    (everything from U up belongs) and which the caller proves least.
    Requires a minimum m and the point U, then certifies the points on
    [m, U] as they stand with ``ideal._axiom_failure``, conductor
    minimality among the axioms, and builds no report unless they fail;
    below m the region and its membership rule are both empty.  Each
    caller proves its region good, so any miss is an internal bug and
    raises SoundnessError "<what> is not a good ideal: <reason>", the
    reason naming ``validate``'s report.

    ``grid`` is the points as a mask in a layout, when the caller has one.
    If that layout is the rep's own, [m - e, U], the mask is the rep's grid
    (the points lie in [m, U]), and the rep keeps it before it is validated.
    """
    m = tuple(map(min, zip(*points)))
    if not points:
        reason = "empty region"
    elif m not in points:
        reason = f"no minimum: meet of region is {m}, not a region point"
    elif U not in points:
        reason = f"expected conducting point {U} missing"
    else:
        rep = SmallRep(r, m, U, frozenset(points))
        if grid is not None and rep.layout == grid[0]:
            vars(rep)["grid"] = grid[1]
        if _axiom_failure(rep) is None:
            return rep
        reason = f"axiom validation failed: {validate(rep).summary()}"
    raise SoundnessError(f"{what} is not a good ideal: {reason}")


def cd_difference(EJ: SmallRep, EI: SmallRep) -> SmallRep:
    """The good ideal D = {beta : beta + EI <= EJ} (value-set ideal quotient)
    of good ideals EJ and EI of one dimension, computed on [c_J - c_I, U],
    U = c_J - m_I, and promoted with top U.  If EJ or EI fails ``validate``
    the result is unspecified: a good ideal that need not be D, or
    SoundnessError.

    No U - e_k is in the region, so U is its least conductor.  A principal
    EI (m_I = c_I) gives the one-point box {U}.  Otherwise m_I is a small
    element other than c_I, and ``_quotient`` ANDs its shift, which reads
    U - e_k + m_I = c_J - e_k in EJ.  That point is not in EJ: every
    z >= c_J - e_k meets c_J in c_J - e_k or c_J, so c_J - e_k would
    conduct, below the conductor of a valid EJ.
    """
    _require_same_r(EJ, EI)
    U = vsub(EJ.c, EI.m)
    points = _quotient(EJ, EI, vsub(EJ.c, EI.c), U)
    return _promote_region("cd_difference result", EJ.r, points, U)


def _empty_mask(E: SmallRep, f: Point, lo: Point, hi: Point) -> int:
    """The mask, in the layout of [lo, hi], of the beta with F(E, f - beta)
    empty: the box minus E's reflected window of the layer P[1], F being
    the union of the singleton open fibers.  P[1] is read off E's grid
    (:attr:`~gsi.ideal.Tables.p1`), so E's fiber tables stay unbuilt."""
    return Layout.of(lo, hi).whole & ~_reflected(E, f, lo, hi, E.tables.p1)


def _fiber_region(EJ: SmallRep, EI: SmallRep) -> tuple[Point, Point, int]:
    """The dual box [lo, hi] = [m_J - c_I, U + e], U = c_J - m_I, and the
    mask, in its layout, of the fiber dual
    {beta : F(EI, frobenius(EJ) - beta) = empty}, neither decoded nor
    promoted."""
    lo, hi = vsub(EJ.m, EI.c), vadd(vsub(EJ.c, EI.m), ones(EJ.r))
    return lo, hi, _empty_mask(EI, frobenius(EJ), lo, hi)


def fiber_dual(EJ: SmallRep, EI: SmallRep) -> RegionSet:
    """{beta : F(EI, frobenius(EJ) - beta) = empty} over the dual box,
    decoded, and promoted as the good ideal K_J - EI defined below.

    EJ and EI must pass ``validate``, as for ``cd_difference``; otherwise
    the region is unspecified and its promotion may raise SoundnessError.
    EJ enters only through f = frobenius(EJ) = c_J - e.

    The region is K_J - EI = {beta : beta + EI <= K_J}, for a canonical
    ideal K_J with Frobenius vector f.  Let t = max(1, max_k(c_I,k - m_I,k))
    and S_t = {0} | (t e + N^r), a good semigroup (E1 and E2 hold on
    t e + N^r, and 0 lies below it and shares no coordinate with it) in
    which 0 is the only element with a zero coordinate.  EI is a good
    relative ideal of S_t: for alpha in EI and s in t e + N^r,
    alpha + s >= m_I + t e >= c_I, so EI + S_t <= EI, and
    t e - m_I + EI <= S_t.  For a good relative ideal E of a good
    semigroup with a canonical ideal K, K - E is a good relative ideal and
    equals {beta : F(E, f_K - beta) = empty} (D'Anna 1997; Korell, Schulze
    and Tozzo 2019).  K(S_t) keeps f(S_t) (``canonical_ideal``, point (2)),
    so K_J = K(S_t) + (f - f(S_t)) is a canonical ideal with f_K = f, and
    the formula with K = K_J and E = EI reads the region.

    The box holds all of it.  Below lo = m_J - c_I nothing belongs: if
    beta_k < lo_k, then x = f - beta has x_k >= c_I,k, and the point equal
    to x at k and to max(x_j + 1, c_I,j) elsewhere lies in c_I + N^r, so
    in EI, and in x's open {k}-fiber.  The region is clamp-invariant at
    U = hi - e (past U, f - beta drops below m_I - 1, where EI's fiber
    index clamps), so only its points up to U are promoted, with top U.
    U is in it (f - U = m_I - e, whose open fibers lie outside m_I + N^r),
    and no U - e_k is: f - (U - e_k) = m_I - e + e_k, and the open
    {k}-fiber of that point holds m_I, a member of EI.  So the promotion
    is a postcondition: on valid inputs it returns K_J - EI with conductor
    U, and a failure is an internal bug.
    """
    _require_same_r(EJ, EI)
    e = ones(EJ.r)
    lo, hi, region = _fiber_region(EJ, EI)
    U = vsub(hi, e)
    layout = Layout.of(lo, hi)
    below_U = _box_mask(layout.dims, vsub(layout.dims, e))
    inner = layout.points(region & below_U)
    rep = _promote_region("fiber dual", EJ.r, set(inner), U)
    points = frozenset(inner + layout.points(region & ~below_U))
    return RegionSet(EJ.r, Box(lo, hi), points, rep)


def canonical_ideal(S: SmallRep) -> SmallRep:
    """The canonical ideal {alpha : F(S, frobenius(S) - alpha) = empty}.

    The region is read on S's own grid [m - e, c] (``S.layout``) and
    promoted with top c.  That grid holds every member up to c: (1) if
    alpha_k < 0, then x = f - alpha, f = c - e, has x_k >= c_k, and the
    point equal to x at k and to max(x_j + 1, c_j) elsewhere lies in
    c + N^r, so in S, and in x's open {k}-fiber; so no member lies below
    0, and m <= 0 as S holds 0 (m = 0 for a good semigroup, whose
    canonical ideal lies in N^r).  (2) No c - e_k is in the region, so c
    is its least conductor and K(S) keeps the Frobenius vector f:
    f - (c - e_k) = e_k - e, and its open {k}-fiber holds 0, in S.
    (3) A point p with some p_k < 0 that a fault puts in the region cannot
    reach a result either: promotion (the axiom kernel's conductor check
    among them), the subset check or the compatibility check fails.  Else
    p + c and c both conduct in the promoted ideal (p + S lies in it, and
    c + N^r in S), so by E1 meet(p + c, c), which is below c at k, conducts
    too, and so does c - e_k, which the kernel's conductor check rejects.
    So no test of the grid's low faces could change a result.

    So on valid input K(S) has S's minimum 0 (S lies in K(S), and by (1)
    no member lies below 0) and, by (2), S's conductor, and with them S's
    layout: the region mask is its grid, which the promotion hands to it
    before validating it (``_promote_region``).  A faulty region with a
    point in row m - 1 has another minimum and layout, and its rep builds
    its own grid.  On one layout ``equals`` and ``is_subset`` compare grids,
    so the subset test below reads the two masks and cuts no window.

    Postconditions are asserted: S is contained in the result, and the
    result, validated on promotion, is compatible with S.  The result is
    kept on S and returned by later calls.
    """
    if "canonical_ideal" in vars(S):
        return vars(S)["canonical_ideal"]
    if not S.contains(zero(S.r)):
        raise ValueError("canonical ideal needs a good semigroup (0 missing)")
    f = frobenius(S)
    layout = S.layout
    region = _empty_mask(S, f, layout.lo, S.c)
    rep = _promote_region("canonical ideal", S.r, set(layout.points(region)), S.c,
                          (layout, region))
    if not is_subset(S, rep):
        raise SoundnessError("canonical ideal does not contain the semigroup")
    failure = _compatibility_failure(rep, S)
    if failure is not None:
        raise SoundnessError(f"canonical ideal is not an ideal of S: {failure}")
    vars(S)["canonical_ideal"] = rep
    return rep


class _CheckContext:
    """What the checks of one call share, each computed once: values keyed
    by kind and argument ideals (duals, fiber-dual regions, canonicity and
    the sweeps' equality flags).  It holds values only; the reps it holds
    share their fiber tables by shape through ``SmallRep.tables``."""

    def __init__(self) -> None:
        self.values: dict[tuple, Any] = {}  # (kind, *argument ideals) -> value

    def _get(self, key: tuple, compute: Callable[[], Any]) -> Any:
        # one lookup answers a hit, as no value is None
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = compute()
        return value

    def dual(self, EJ: SmallRep, EI: SmallRep) -> SmallRep:
        return self._get(("dual", EJ, EI), lambda: cd_difference(EJ, EI))

    def fiber_region(self, EJ: SmallRep, EI: SmallRep) -> tuple[Point, Point, int]:
        # keyed by what the region reads of EJ, its m and c, so S and K(S),
        # which share both, share their regions
        return self._get(("fiber_region", EJ.m, EJ.c, EI), lambda: _fiber_region(EJ, EI))

    def is_canonical(self, EJ: SmallRep, S: SmallRep) -> bool:
        return self._get(("is_canonical", EJ, S), lambda: is_canonical(EJ, S, ctx=self))


def is_canonical(EJ: SmallRep, S: SmallRep, *,
                 ctx: _CheckContext | None = None) -> bool:
    """Whether EJ is a translate of the canonical ideal of S.

    Runs both the translate test and the fiber-dual fixpoint test and demands
    agreement; disagreement is an internal soundness bug.  The fixpoint
    test compares EJ's window over the fiber-dual region's box with its mask.
    """
    _require_same_r(EJ, S)
    ctx = ctx or _CheckContext()
    shift = vsub(frobenius(EJ), frobenius(S))
    by_translate = equals(EJ, translate(canonical_ideal(S), shift))
    lo, hi, mask = ctx.fiber_region(EJ, S)
    by_fixpoint = _window(EJ, lo, hi) == mask
    if by_translate != by_fixpoint:
        raise SoundnessError(
            f"canonicity tests disagree: translate={by_translate}, "
            f"fiber fixpoint={by_fixpoint}")
    return by_translate


def is_gorenstein(S: SmallRep) -> bool:
    """A good semigroup is Gorenstein exactly when it is its own canonical
    ideal (symmetry)."""
    return equals(S, canonical_ideal(S))


def bidual(EJ: SmallRep, EI: SmallRep) -> SmallRep:
    """cd_difference applied twice; always contains EI, equals it when EJ is
    canonical."""
    return cd_difference(EJ, cd_difference(EJ, EI))
