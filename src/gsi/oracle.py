"""Slow, definition-level reference implementations.

Everything here works on explicitly materialized point sets over boxes with
doubled margins and quantifies the literal definitions, with no caps or
shortcut rules inside the box.  The fast paths are certified by exact
agreement with these functions; any disagreement is a hard failure.
"""
from __future__ import annotations

import functools
from typing import Iterable

from .errors import SoundnessError
from .ideal import SmallRep
from .lattice import (
    Point,
    box_points,
    join,
    normalize_index_set,
    ones,
    vadd,
    vsub,
)

def materialize(E: SmallRep, lo: Point, hi: Point) -> set[Point]:
    """Explicit member set of E on [lo, hi] by the membership rule."""
    return {p for p in box_points(lo, hi) if E.contains(p)}


def oracle_box(E: SmallRep) -> tuple[Point, Point]:
    """The doubled-margin window [m - e, c + 2e]."""
    e = ones(E.r)
    return vsub(E.m, e), vadd(E.c, vadd(e, e))


def _recheck_axioms(E: SmallRep, mset: set[Point], lo: Point, hi: Point) -> None:
    """Exhaustively re-verify E1 and E2 on the materialized window.

    E2 witnesses may legitimately sit one step past the window top, so the
    witness pool extends one unit further.
    """
    pts = sorted(mset)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            g = tuple(map(min, a, b))
            if g not in mset:
                raise SoundnessError(
                    f"oracle: E1 fails on window for pair {a}, {b}")
    wide = materialize(E, lo, vadd(hi, ones(E.r)))
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            for k in range(E.r):
                if a[k] != b[k]:
                    continue
                found = False
                for g in wide:
                    if g[k] <= a[k]:
                        continue
                    ok = True
                    for j in range(E.r):
                        if j == k:
                            continue
                        if a[j] != b[j]:
                            if g[j] != min(a[j], b[j]):
                                ok = False
                                break
                        elif g[j] < a[j]:
                            ok = False
                            break
                    if ok:
                        found = True
                        break
                if not found:
                    raise SoundnessError(
                        f"oracle: E2 fails on window for pair {a}, {b} at {k + 1}")


# The rechecked windows of the most recently used ideals; older ones are
# rebuilt on demand, so the bound changes no answer.
WINDOW_CACHE_SIZE = 64


@functools.lru_cache(maxsize=WINDOW_CACHE_SIZE)
def _checked_window(E: SmallRep) -> set[Point]:
    lo, hi = oracle_box(E)
    mset = materialize(E, lo, hi)
    _recheck_axioms(E, mset, lo, hi)
    return mset


def brute_contains(E: SmallRep, alpha: Point) -> bool:
    """Membership by direct lookup in the axiom-rechecked explicit set.

    alpha must lie inside the window [m - e, c + 2e].
    """
    lo, hi = oracle_box(E)
    if not all(l <= x <= h for l, x, h in zip(lo, alpha, hi)):
        raise ValueError(f"{alpha} outside oracle window [{lo}, {hi}]")
    return alpha in _checked_window(E)


def brute_fiber(E: SmallRep, alpha: Point, J: Iterable[int],
                closed: bool = False) -> set[Point]:
    """Literal fiber enumeration over the doubled-margin window."""
    js = set(normalize_index_set(E.r, J))
    lo, hi = oracle_box(E)
    out = set()
    for beta in materialize(E, lo, join(hi, vadd(alpha, ones(E.r)))):
        ok = True
        for k in range(E.r):
            if k + 1 in js:
                if beta[k] != alpha[k]:
                    ok = False
                    break
            elif closed:
                if beta[k] < alpha[k]:
                    ok = False
                    break
            elif beta[k] <= alpha[k]:
                ok = False
                break
        if ok:
            out.add(beta)
    return out


def brute_dual(EJ: SmallRep, EI: SmallRep) -> set[Point]:
    """The set {beta : beta + EI <= EJ} enumerated over an extended dual box.

    The inner quantifier runs over the explicit EI window capped two margins
    past where the fast path stops.
    """
    e = ones(EJ.r)
    lo = vsub(vsub(EJ.m, EI.c), e)
    hi = vadd(vsub(EJ.c, EI.m), vadd(e, e))
    out = set()
    for beta in box_points(lo, hi):
        cap = vadd(join(EI.c, vsub(EJ.c, beta)), vadd(e, e))
        if all(EJ.contains(vadd(beta, a))
               for a in box_points(EI.m, cap) if EI.contains(a)):
            out.add(beta)
    return out


def brute_fiber_empty_window(E: SmallRep, delta: Point) -> bool:
    """Singleton-fiber emptiness at delta, enumerated over a window wide
    enough to contain any capped witness."""
    e = ones(E.r)
    lo = vsub(E.m, e)
    hi = vadd(join(vadd(E.c, e), vadd(delta, e)), e)
    window = materialize(E, lo, hi)
    for k in range(E.r):
        for beta in window:
            if beta[k] != delta[k]:
                continue
            if all(beta[j] > delta[j] for j in range(E.r) if j != k):
                return False
    return True


def brute_canonical(S: SmallRep) -> set[Point]:
    """Literal sweep of {alpha : F(S, frobenius(S) - alpha) = empty} over a
    doubled search region."""
    e = ones(S.r)
    span = vsub(S.c, S.m)
    lo = vsub(vsub(S.m, vadd(span, span)), vadd(e, e))
    hi = vadd(vadd(S.c, span), e)
    f = vsub(S.c, e)
    return {a for a in box_points(lo, hi)
            if brute_fiber_empty_window(S, vsub(f, a))}
