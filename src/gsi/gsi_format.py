"""The GSI file format.

UTF-8, line-based, ``#`` starts a comment, fields whitespace-separated,
integers signed decimal::

    gsi 1
    r 2
    min 0 0
    conductor 5 5
    elem 0 0
    elem 5 5

Header lines come in that order; one ``elem`` line per small element (min and
conductor must appear among them, order irrelevant).  ``emit_gsi`` sorts
elements lexicographically, so parse-then-emit is byte-identical on
normalized files.

Both directions are bulk passes.  ``parse_gsi`` splits each line once and
reads the ``elem`` lines as a whole: one shape check over all of them and
one ``int`` conversion over all their coordinate tokens.  It walks the lines
one at a time only to name the first ``ParseError``, or, when the axioms
fail, to map the counterexample points back to their lines.  ``emit_gsi``
writes each element line with one format string.
"""
from __future__ import annotations

from itertools import chain, compress, count

from .constructors import from_small_elements
from .errors import ParseError, ValidationError
from .ideal import SmallRep
from .lattice import Point

MAGIC = "gsi"
VERSION = 1


def _ints(fields: list[str], line: int) -> list[int]:
    vals = []
    for tok in fields:
        try:
            vals.append(int(tok))
        except ValueError:
            raise ParseError(f"expected integer, got {tok!r}", line) from None
    return vals


def _point(fields: list[str], r: int, line: int, what: str) -> Point:
    vals = _ints(fields, line)
    if len(vals) != r:
        raise ParseError(f"{what} needs {r} coordinates, got {len(vals)}", line)
    return tuple(vals)


def _elem(fields: list[str], r: int, line: int) -> Point:
    if fields[0] != "elem":
        raise ParseError(f"expected 'elem' line, got {fields[0]!r}", line)
    return _point(fields[1:], r, line, "elem")


def _elements(rows: list[list[str]], numbers: list[int], r: int) -> list[Point]:
    """The points of the ``elem`` lines ``rows``, numbered ``numbers``, in
    order.  When every line has the keyword and r coordinates, and every
    coordinate token is an integer, they are read in bulk; otherwise the
    lines are read one by one, which raises the ParseError of the first
    offending line: a wrong keyword, then a non-integer token, then a wrong
    coordinate count."""
    tokens = list(chain.from_iterable(rows))
    if set(map(len, rows)) == {r + 1} and set(tokens[::r + 1]) == {"elem"}:
        del tokens[::r + 1]
        try:
            return list(zip(*[iter(map(int, tokens))] * r))
        except ValueError:
            pass
    return [_elem(fields, r, no) for no, fields in zip(numbers, rows)]


def parse_gsi(text: str) -> SmallRep:
    """Parse and validate a GSI document.

    Lines are those of ``str.splitlines``, numbered from 1; a line is
    significant when it holds a field before its first ``#``.  The four
    header lines are read one by one and the ``elem`` lines in bulk
    (:func:`_elements`); ``dict.fromkeys`` keeps each point at its first
    occurrence.  Syntax errors carry the offending line; axiom failures are
    raised as ValidationError with the failing axiom, and the report is
    annotated with the line of the first counterexample element when it
    appears in the file.  That point-to-line map is built only then, from
    the points already read.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(map(str.split, lines))
    rows = list(filter(None, lines))
    if not rows:
        raise ParseError("empty document")
    numbers = list(compress(count(1), lines))

    def expect(k: int, keyword: str) -> list[str]:
        if k >= len(rows):
            raise ParseError(f"missing {keyword!r} line", numbers[-1])
        if rows[k][0] != keyword:
            raise ParseError(f"expected {keyword!r} line, got {rows[k][0]!r}", numbers[k])
        return rows[k][1:]

    rest = expect(0, MAGIC)
    if rest != [str(VERSION)]:
        raise ParseError(f"unsupported magic/version {rest}", numbers[0])
    vals = _ints(expect(1, "r"), numbers[1])
    if len(vals) != 1 or vals[0] < 1:
        raise ParseError("r needs a single positive integer", numbers[1])
    r = vals[0]
    m = _point(expect(2, "min"), r, numbers[2], "min")
    c = _point(expect(3, "conductor"), r, numbers[3], "conductor")

    body = rows[4:]
    if not body:
        raise ParseError("no 'elem' lines", numbers[-1])
    points = _elements(body, numbers[4:], r)
    elems = dict.fromkeys(points)
    if m not in elems:
        raise ParseError("min is not listed among the elements", numbers[-1])
    if c not in elems:
        raise ParseError("conductor is not listed among the elements", numbers[-1])

    try:
        return from_small_elements(r, m, c, elems)
    except ValidationError as err:
        where: dict[Point, int] = {}
        for p, no in zip(points, numbers[4:]):
            where.setdefault(p, no)
        for counter in err.report.counterexamples:
            for key in ("pair", "point"):
                val = counter.get(key)
                pts = val if key == "pair" else [val] if val else []
                for q in pts or []:
                    line = where.get(tuple(q))
                    if line is not None:
                        counter.setdefault("line", line)
        raise


def emit_gsi(E: SmallRep) -> str:
    """Normalized text form: header plus lexicographically sorted elements,
    each line written by one format string."""
    coords = " %d" * E.r
    out = [f"{MAGIC} {VERSION}", f"r {E.r}", "min" + coords % E.m,
           "conductor" + coords % E.c]
    out += map(("elem" + coords).__mod__, sorted(E.small))
    return "\n".join(out) + "\n"
