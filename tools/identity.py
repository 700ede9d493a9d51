"""Digest what the package outputs, to compare two checkouts byte for byte.

Standard library only; it imports the package from its own checkout's
``src`` and reads that checkout's ``tests/data``.  Run it from anywhere:

    python tools/identity.py

It prints seven rows, ``<name> <count> <sha256>``:

- ``cli``: ``gsi.cli.main`` run in-process, from the checkout root with
  relative paths, on every subcommand over every file of ``tests/data``
  (ordered pairs for the two-ideal commands, triples for
  ``check ... --semigroup``), plus usage errors and a missing path.  The
  digest covers argv, exit code, stdout and stderr.
- ``draws``: ``random_good`` over six semigroups, seeds 0-19,
  ``max_width`` 2 and 4 and ``samples`` 2 and 6.
- ``canonical``: ``emit_gsi(canonical_ideal(S))`` and ``is_gorenstein(S)``
  over a fixed list of numerical semigroups, nodes and products.
- ``duals``: ``cd_difference``, ``bidual`` and ``fiber_dual`` (its box,
  points and promoted rep) over the ordered pairs of S, K(S), K(S) + e and
  three ``random_good`` draws, for every fourth semigroup of that list.
  The fiber dual of a valid pair is always good (``fiber_dual`` proves
  it), EJ canonical or not.  Then the same three with EJ one of those six
  and EI one-element: principal at m_S, c_S and c_S + e, and the
  principal-looking {c_S} on [m_S, c_S], which fails ``validate``, so its
  duals raise.  Then S and K(S) against the principal ideals p + N^r at
  every p in [0, c_S] for node(4) and node(5).
- ``validate``: ``validate(E).to_dict()`` for every draw E of ``draws``,
  then for E with its middle small element other than m and c removed, and
  with the middle point of [m, c] outside E added, when there is one.  The
  altered sets mostly fail E1 or E2, so the pair loops that name the first
  failing pair run after the mask test.  Then ``validate(E, S)`` for every
  draw E against each semigroup, its own and others, so compatibility
  passes and fails and S's dimension may differ;
  ``validate(S, semigroup=True)`` for the semigroups and the draws, which
  mostly fail it; the one-element reps at m and at c of every draw, with
  and without its semigroup; and per draw the structural failures: min
  above the conductor, min or conductor missing, and an element outside
  [m, c].
- ``checks``: the ``check_all(S, EJ, EI, seed=0)`` reports for (S, S, S),
  (S, K, S), (S, S, E) and (S, K, E), K = K(S) and E = ``random_good(S,
  0)``, for every fourth semigroup of that list; then, for the same (EJ,
  EI) pairs, the length and rho reports with the dual translated by e and
  by -e, which mostly fail, so their first counterexamples are digested;
  then ``check_all`` with EJ in {S, K} and EI one of K + e and S - e,
  translates whose fiber tables a check context shares with K and S.
  Then (S, S, S) and (S, K, S) for node(4), node(5) and node(6).
- ``parse``: each document of :func:`documents` with the outcome of
  ``parse_gsi`` on it: the emitted text of the rep, or the error's type,
  text, line and, for a ValidationError, its report with the line
  annotations.  The documents are every file of ``tests/data``, the
  emitted semigroups of ``draws``, three draws of each and two products,
  and seeded mutations of each: comments and blank lines, other line ends
  and tabs, joined and split lines, wrong keywords and missing headers,
  wrong coordinate counts, non-integer tokens, bad versions and r,
  duplicate and missing elements, and axiom, below-min and conductor
  failures.

An error is digested as its type and text, so a changed error changes the
digest.  To compare a change with its parent, copy this file into a parent
checkout and run both copies; equal rows mean equal outputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gsi  # noqa: E402  (the checkout's own package, after the path)
from gsi import cli  # noqa: E402
from gsi.duality import _CheckContext  # noqa: E402
from gsi.lattice import box_points, unit_vector, vadd, vsub  # noqa: E402

CHECKS = ("sum", "fibra", "length", "rho", "maxsym", "all")
USAGE = ([], ["bogus"], ["--help"], ["gen", "node"], ["gen", "numerical"],
         ["gen", "numerical", "3", "5"], ["gen", "node", "3"],
         ["info", "tests/data/missing.gsi"])


def _digest(records) -> tuple[int, str]:
    """The number of records and the sha256 of their reprs, one a line."""
    h, n = hashlib.sha256(), 0
    for rec in records:
        h.update(repr(rec).encode() + b"\n")
        n += 1
    return n, h.hexdigest()


def _outcome(f, *args):
    """f(*args), or the type name and text of the error it raised."""
    try:
        return f(*args)
    except (gsi.GsiError, ValueError) as err:
        return type(err).__name__, str(err)


def _emitted(outcome):
    """A rep as its GSI text; any other outcome as it is."""
    return gsi.emit_gsi(outcome) if isinstance(outcome, gsi.SmallRep) else outcome


def _cli_argvs():
    files = sorted(f"tests/data/{p.name}" for p in (ROOT / "tests" / "data").iterdir())
    for f in files:
        yield from (["validate", f], ["info", f], ["info", "--plot", f],
                    ["canonical", f], ["gorenstein", f],
                    ["gen", "random", "--semigroup", f, "--seed", "3"])
    for a, b in itertools.product(files, repeat=2):
        yield from (["dual", a, b], ["dual", "--method", "fiber", a, b],
                    ["is-canonical", a, b], ["gen", "product", a, b])
        yield from (["check", which, a, b] for which in CHECKS)
    for a, b, s in itertools.product(files, repeat=3):
        yield from (["check", which, a, b, "--semigroup", s] for which in CHECKS)
    yield from USAGE


def _cli():
    for argv in _cli_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        yield argv, code, out.getvalue(), err.getvalue()


def _draw_semigroups():
    ex2 = gsi.parse_gsi((ROOT / "tests" / "data" / "ex2.gsi").read_text(encoding="utf-8"))
    return [gsi.numerical([3, 5]), gsi.numerical([4, 6, 7]), gsi.node(2), gsi.node(3),
            ex2, gsi.product(gsi.numerical([2, 3]), gsi.numerical([3, 4]))]


def _draw_outcomes():
    """(semigroup index, seed, max_width, samples) and the draw's outcome."""
    for i, S in enumerate(_draw_semigroups()):
        for seed, width, samples in itertools.product(range(20), (2, 4), (2, 6)):
            E = _outcome(lambda: gsi.random_good(S, seed, max_width=width, samples=samples))
            yield (i, seed, width, samples), E


def _draws():
    for key, E in _draw_outcomes():
        yield *key, _emitted(E)


def _structural(E):
    """E with min above the conductor, with min and then conductor missing,
    and with a point below m and one above c added: each fails the
    structural part of ``validate``."""
    e = (1,) * E.r
    below, above = vsub(E.m, e), vadd(E.c, e)
    yield E.c, E.m, E.small | {E.c, E.m}
    yield below, E.c, E.small
    yield E.m, above, E.small
    yield E.m, E.c, E.small | {below}
    yield E.m, E.c, E.small | {above}


def _validate():
    semigroups = _draw_semigroups()
    draws = [(key, E) for key, E in _draw_outcomes() if isinstance(E, gsi.SmallRep)]
    for key, E in draws:
        inner = sorted(E.small - {E.m, E.c})
        outside = sorted(set(box_points(E.m, E.c)) - E.small)
        variants = [E.small]
        variants += [E.small - {inner[len(inner) // 2]}] if inner else []
        variants += [E.small | {outside[len(outside) // 2]}] if outside else []
        for small in variants:
            report = gsi.validate(gsi.SmallRep(E.r, E.m, E.c, small))
            yield *key, sorted(small), report.to_dict()
    for key, E in draws:
        for j, S in enumerate(semigroups):
            yield *key, j, gsi.validate(E, S).to_dict()
    for S in semigroups + [E for _, E in draws]:
        yield sorted(S.small), gsi.validate(S, semigroup=True).to_dict()
    for key, E in draws:
        S = semigroups[key[0]]
        for p in (E.m, E.c):
            point = gsi.SmallRep(E.r, p, p, frozenset({p}))
            yield *key, p, gsi.validate(point).to_dict(), gsi.validate(point, S).to_dict()
        for m, c, small in _structural(E):
            report = gsi.validate(gsi.SmallRep(E.r, m, c, small))
            yield *key, m, c, sorted(small), report.to_dict()


def _numerical_semigroups():
    """The distinct numerical semigroups with two to four generators in
    [2, 13] and conductor at most 24, in the order first generated."""
    seen = []
    for n in (2, 3, 4):
        for gens in itertools.combinations(range(2, 14), n):
            if math.gcd(*gens) == 1:
                S = gsi.numerical(list(gens))
                if S.c[0] <= 24 and S not in seen:
                    seen.append(S)
    return seen


def _canonical_semigroups():
    numerical = _numerical_semigroups()
    N = gsi.node(1)
    nodes = [gsi.node(r) for r in range(1, 7)]
    pairs = [gsi.product(A, B) for A, B in zip(numerical[:24:2], numerical[1:24:2])]
    with_N = [gsi.product(N, S) for S in numerical[:3]] + [gsi.product(S, N) for S in numerical[:3]]
    return numerical + nodes + pairs + with_N


def _canonical():
    for S in _canonical_semigroups():
        yield (gsi.emit_gsi(S), _emitted(_outcome(gsi.canonical_ideal, S)),
               _outcome(gsi.is_gorenstein, S))


def _fiber_dual(EJ, EI):
    fd = _outcome(gsi.fiber_dual, EJ, EI)
    if isinstance(fd, gsi.RegionSet):
        return fd.box, sorted(fd.points), _emitted(fd.promoted)
    return fd


def _dual_row(EJ, EI):
    return (gsi.emit_gsi(EJ), gsi.emit_gsi(EI), _emitted(_outcome(gsi.cd_difference, EJ, EI)),
            _emitted(_outcome(gsi.bidual, EJ, EI)), _fiber_dual(EJ, EI))


def _point(r, m, c):
    """The rep on [m, c] whose one small element is c: c + N^r when m = c."""
    return gsi.SmallRep(r, m, c, frozenset({c}))


def _duals():
    for S in _canonical_semigroups()[::4]:
        K = gsi.canonical_ideal(S)
        e = (1,) * S.r
        ideals = [S, K, gsi.translate(K, e)]
        ideals += [gsi.random_good(S, seed) for seed in range(3)]
        for EJ, EI in itertools.product(ideals, repeat=2):
            yield _dual_row(EJ, EI)
        points = [_point(S.r, p, p) for p in (S.m, S.c, vadd(S.c, e))]
        points.append(_point(S.r, S.m, S.c))
        for EJ, EI in itertools.product(ideals, points):
            yield _dual_row(EJ, EI)
    for S in (gsi.node(4), gsi.node(5)):
        ideals = [S, gsi.canonical_ideal(S)]
        points = [_point(S.r, p, p) for p in box_points((0,) * S.r, S.c)]
        for EJ, EI in itertools.product(ideals, points):
            yield _dual_row(EJ, EI)


def _check_all(S, EJ, EI):
    return [report.to_dict() for report in gsi.check_all(S, EJ, EI, seed=0)]


def _checks():
    for S in _canonical_semigroups()[::4]:
        K, E = gsi.canonical_ideal(S), gsi.random_good(S, 0)
        e, minus_e = (1,) * S.r, (-1,) * S.r
        for EJ, EI in ((S, S), (K, S), (S, E), (K, E)):
            yield _check_all(S, EJ, EI)
            D = gsi.cd_difference(EJ, EI)
            for shift in (e, minus_e):
                planted = gsi.translate(D, shift)
                ctx = _CheckContext()
                ctx.values["dual", EJ, EI] = planted
                yield (gsi.check_length_pairing(EJ, EI, planted).to_dict(),
                       gsi.check_rho(EI, EJ, ctx=ctx).to_dict())
        translates = (gsi.translate(K, e), gsi.translate(S, minus_e))
        for EJ, EI in itertools.product((S, K), translates):
            yield _check_all(S, EJ, EI)
    for r in (4, 5, 6):
        S = gsi.node(r)
        for EJ in (S, gsi.canonical_ideal(S)):
            yield _check_all(S, EJ, S)


# coordinate tokens: int() rejects six, and reads 1_0, +3 and the Arabic-Indic
# digit three as the integers 10, 3 and 3
TOKENS = ("x", "1.0", "1_0", "+3", "\u0663", "-", "0x1", "1e2", "--1")
LINE_ENDS = ("\r\n", "\r", "\x0c", "\u2028", "\x0b", "\x85")


def _document(r, m, c, pts):
    """The GSI text with this header and one elem line per point, in order."""
    fmt = " %d" * r
    return "\n".join(["gsi 1", f"r {r}", "min" + fmt % m, "conductor" + fmt % c]
                     + ["elem" + fmt % tuple(p) for p in pts]) + "\n"


def _line_mutations(text, rng):
    """Syntax mutations of a document of header and elem lines."""
    lines = text.splitlines()
    header, elems = lines[:4], lines[4:]

    def edit(k, line):
        return "\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n"

    def tokens(k):
        return lines[k].split()

    for _ in range(3):  # comments and blank lines anywhere
        out = list(lines)
        for _ in range(rng.randint(1, 4)):
            out.insert(rng.randrange(len(out) + 1),
                       rng.choice(["", "   ", "\t", "# comment", "  # elem 0 0", "#"]))
        yield "\n".join(out) + "\n"
    k = rng.randrange(len(lines))
    yield edit(k, lines[k] + rng.choice([" # trailing", "#", "\t#x 1 2", "#elem 1"]))
    yield edit(k, lines[k] + " # 1 # elem 2")  # the first # starts the comment
    k = rng.randrange(len(lines))
    head, _, tail = lines[k].rpartition(" ")
    yield edit(k, head + "#" + tail)  # a comment that cuts the last field
    for end in LINE_ENDS:
        yield end.join(lines) + end
    yield "".join(line + rng.choice(LINE_ENDS + ("\n",)) for line in lines)  # mixed
    yield "\n".join(lines)  # no final line end
    yield "\n".join(" ".join(t + rng.choice([" ", "\t", "  ", " \t "]) for t in line.split())
                     for line in lines) + "\n"
    k = rng.randrange(len(lines) - 1)  # two lines on one
    for j in (0, 2, k):
        yield "\n".join(lines[:j] + [lines[j] + " " + lines[j + 1]] + lines[j + 2:]) + "\n"
    k = rng.randrange(len(lines))  # one line in two
    t = tokens(k)
    cut = rng.randrange(1, len(t)) if len(t) > 1 else 1
    yield edit(k, " ".join(t[:cut]) + "\n" + " ".join(t[cut:]))
    for word in ("elm", "Elem", "gsi", "min", "r", "conductor"):
        k = rng.randrange(len(lines))
        yield edit(k, " ".join([word] + tokens(k)[1:]))
    for k in range(4):  # a missing header line
        yield "\n".join(lines[:k] + lines[k + 1:]) + "\n"
    yield "\n".join([header[0], header[2], header[1]] + lines[3:]) + "\n"
    for k in (2, 3, rng.randrange(4, len(lines))):  # extra or missing coordinates
        yield edit(k, lines[k] + " 0")
        yield edit(k, " ".join(tokens(k)[:-1]))
    for word in TOKENS:
        k = rng.randrange(2, len(lines))
        t = tokens(k)
        t[rng.randrange(1, len(t))] = word
        yield edit(k, " ".join(t))
    for line in ("gsi 01", "gsi 1.0", "gsi", "gsi 1 1", "GSI 1", "gsi +1"):
        yield edit(0, line)
    r = tokens(1)[1]
    for line in ("r 0", "r -1", "r 1 1", "r x", "r", "r +" + r,
                 "r " + "".join(chr(0x660 + int(d)) for d in r)):  # Arabic-Indic digits
        yield edit(1, line)
    dup = elems + [rng.choice(elems) for _ in range(3)]
    rng.shuffle(dup)
    yield "\n".join(header + dup) + "\n"
    for k in (2, 3):  # min or conductor not listed
        coords = tokens(k)[1:]
        kept = [line for line in elems if line.split()[1:] != coords]
        yield "\n".join(header + kept) + "\n"
    for k in range(4):  # the document cut short
        yield "\n".join(lines[:k]) + "\n"


def _rep_mutations(E, rng):
    """Documents of E's data altered to fail an axiom, to list a point below
    m or above c, or to declare a conductor that is not the least."""
    r, m, c = E.r, E.m, E.c
    pts = sorted(E.small)
    units = [unit_vector(r, [k + 1]) for k in range(r)]
    for unit in units:
        yield _document(r, m, c, pts + [vsub(m, unit)])  # below min
        yield _document(r, m, c, pts + [vadd(c, unit)])  # clipped to c
        yield _document(r, m, c, pts + [vsub(c, unit)])  # c - e_k listed
    below = pts + [vsub(m, (2,) * r)] + [vsub(m, unit) for unit in units]
    rng.shuffle(below)  # several points below m, the first named in set order
    yield _document(r, m, c, below)
    inner = [p for p in pts if p not in (m, c)]
    outside = [p for p in box_points(m, c) if p not in E.small]
    for _ in range(3):
        if inner:
            gone = rng.choice(inner)
            yield _document(r, m, c, [p for p in pts if p != gone])
        if outside:
            yield _document(r, m, c, pts + [rng.choice(outside)])
    for k in (1, 2):  # a conductor above the least one
        top = vadd(c, (k,) * r)
        yield _document(r, m, top, [p for p in box_points(m, top) if E.contains(p)])
        yield _document(r, m, top, pts + [top])


def documents():
    """The GSI texts of the ``parse`` row, in a fixed order."""
    bases = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "tests" / "data").glob("*.gsi"))]
    semigroups = _draw_semigroups()
    reps = semigroups + [gsi.random_good(S, seed) for S in semigroups for seed in range(3)]
    reps += [gsi.product(gsi.node(2), gsi.numerical([3, 4])),
             gsi.product(gsi.numerical([2, 5]), gsi.node(1))]
    bases += [gsi.emit_gsi(E) for E in reps]
    rng = random.Random("parse")
    for text in bases:
        yield text
        E = _outcome(gsi.parse_gsi, text)
        for _ in range(3):  # rounds of seeded choices
            yield from _line_mutations(text, rng)
            if isinstance(E, gsi.SmallRep):
                yield from _rep_mutations(E, rng)


def _parsed(text):
    """parse_gsi's outcome on text: the emitted rep, or the error's type,
    text, line and, for a ValidationError, its report."""
    try:
        return gsi.emit_gsi(gsi.parse_gsi(text))
    except (gsi.GsiError, ValueError) as err:
        report = err.report.to_dict() if isinstance(err, gsi.ValidationError) else None
        return type(err).__name__, str(err), getattr(err, "line", None), report


def _parse():
    for text in documents():
        yield text, _parsed(text)


def main() -> None:
    os.chdir(ROOT)  # the CLI's paths are relative to the checkout root
    for name, records in (("cli", _cli()), ("draws", _draws()), ("canonical", _canonical()),
                          ("duals", _duals()), ("validate", _validate()),
                          ("checks", _checks()), ("parse", _parse())):
        n, digest = _digest(records)
        print(f"{name} {n} {digest}")


if __name__ == "__main__":
    main()
