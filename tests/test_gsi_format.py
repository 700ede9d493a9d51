import importlib.util
import pathlib

import pytest

from gsi import constructors, gsi_format
from gsi.errors import GsiError, ParseError, ValidationError
from gsi.gsi_format import MAGIC, VERSION, emit_gsi, parse_gsi
from gsi.ideal import SmallRep, _least_conductor, equals, members, validate
from gsi.lattice import Point, check_same_dim, leq, meet


def test_parse_ex2_file(data_dir, ex2):
    text = (data_dir / "ex2.gsi").read_text()
    E = parse_gsi(text)
    assert E == ex2


def test_roundtrip_byte_identity(data_dir):
    for name in ("n1", "n2", "node2", "ex2"):
        text = (data_dir / f"{name}.gsi").read_text()
        assert emit_gsi(parse_gsi(text)) == text


@pytest.mark.parametrize("name", ["n1", "n2", "node2", "ex2"])
@pytest.mark.parametrize("k", [1, 2])
def test_non_minimal_conductor_normalizes(data_dir, name, k):
    # declare c + k*e with every member of [m, c + k*e] listed: the conductor
    # must shrink back to c and the document emit as the fixture
    text = (data_dir / f"{name}.gsi").read_text()
    E = parse_gsi(text)
    c = tuple(x + k for x in E.c)
    lines = ["gsi 1", f"r {E.r}", "min " + " ".join(map(str, E.m)),
             "conductor " + " ".join(map(str, c))]
    lines += ["elem " + " ".join(map(str, p)) for p in members(E, E.m, c)]
    assert emit_gsi(parse_gsi("\n".join(lines) + "\n")) == text


def test_emit_is_normalization(ex2):
    # comments, shuffled element order, duplicates
    scrambled = """# fixture, scrambled
gsi 1
r 2
min 0 0
conductor 5 5
elem 5 5
elem 3 4   # interior
elem 0 0
elem 4 3
elem 3 3
elem 3 3
"""
    E = parse_gsi(scrambled)
    assert equals(E, ex2)
    assert emit_gsi(E) == emit_gsi(ex2)


def test_missing_conductor_line():
    text = "gsi 1\nr 1\nmin 0\nelem 0\n"
    with pytest.raises(ParseError) as err:
        parse_gsi(text)
    assert "conductor" in str(err.value)


def test_bad_magic():
    with pytest.raises(ParseError) as err:
        parse_gsi("gsi 2\nr 1\nmin 0\nconductor 0\nelem 0\n")
    assert err.value.line == 1


def test_dimension_mismatch_line():
    text = "gsi 1\nr 2\nmin 0 0\nconductor 1 1\nelem 0 0\nelem 1\n"
    with pytest.raises(ParseError) as err:
        parse_gsi(text)
    assert err.value.line == 6


def test_non_integer_field():
    with pytest.raises(ParseError):
        parse_gsi("gsi 1\nr 1\nmin zero\nconductor 0\nelem 0\n")


def test_axiom_failure_names_line(data_dir):
    text = (data_dir / "broken.gsi").read_text()
    with pytest.raises(ValidationError) as err:
        parse_gsi(text)
    first = err.value.report.counterexamples[0]
    assert first["axiom"] == "E1"
    assert first["pair"] == [[3, 4], [4, 3]]
    assert first.get("line") is not None


def test_min_must_be_listed():
    with pytest.raises(ParseError):
        parse_gsi("gsi 1\nr 1\nmin 0\nconductor 2\nelem 2\n")


@pytest.mark.parametrize("text, line, message", [
    ("", None, "empty document"),
    ("# only a comment\n", None, "empty document"),
    ("gsi 1\nr 1 2\n", 2, "r needs a single positive integer"),
    ("gsi 1\nr 0\n", 2, "r needs a single positive integer"),
    ("gsi 1\nr 1\nmin 0\nconductor 0\nfoo 1\n", 5, "expected 'elem' line, got 'foo'"),
    ("gsi 1\nr 1\nmin 0\nconductor 0\n", 4, "no 'elem' lines"),
    ("gsi 1\nr 1\nmin 0\nconductor 2\nelem 0\n", 5,
     "conductor is not listed among the elements"),
])
def test_parse_errors_pinned(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_gsi(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


# The former line-by-line parse_gsi and emit_gsi, and the former
# from_small_elements, which clipped every point, kept verbatim as the
# references that the bulk read and write are compared against.

def _ref_from_small_elements(r: int, m: Point, c: Point, elems) -> SmallRep:
    """Normalize raw small-element data and validate it once.

    Points are clipped by meet with the conductor, each after a length
    check that names the first point of another dimension, and
    ``_least_conductor`` shrinks their provisional rep on [m, c] to the
    least conductor the data supports; when it finds none, it keeps the rep
    and validation judges.  Raises ValidationError carrying the failing
    axiom otherwise.
    """
    pts = set()
    for p in elems:
        if len(p) != len(c):
            check_same_dim(p, c)  # raises, naming both dimensions
        pts.add(tuple(map(min, p, c)))
    pts.add(meet(m, c))
    # every point is >= m iff the per-axis minima are; the loop names the
    # first point below m in the set's order
    if not leq(m, tuple(map(min, zip(*pts)))):
        for p in pts:
            if not leq(m, p):
                rep = SmallRep(r, m, c, frozenset(pts | {m, c}))
                report = validate(rep)
                report.passed = False
                report.counterexamples.insert(
                    0, {"axiom": "structural", "reason": "element below declared min",
                        "point": list(p)})
                raise ValidationError(report)
    pts.add(c)
    return constructors._certified(_least_conductor(SmallRep(r, m, c, frozenset(pts))))


def _ref_significant_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((no, body.split()))
    return out


def _ref_ints(fields: list[str], line: int) -> list[int]:
    vals = []
    for tok in fields:
        try:
            vals.append(int(tok))
        except ValueError:
            raise ParseError(f"expected integer, got {tok!r}", line) from None
    return vals


def _ref_point(fields: list[str], r: int, line: int, what: str) -> Point:
    vals = _ref_ints(fields, line)
    if len(vals) != r:
        raise ParseError(f"{what} needs {r} coordinates, got {len(vals)}", line)
    return tuple(vals)


def _ref_parse_gsi(text: str) -> SmallRep:
    """Parse and validate a GSI document.

    Syntax errors carry the offending line; axiom failures are raised as
    ValidationError with the failing axiom, and the report is annotated with
    the line of the first counterexample element when it appears in the file.
    """
    lines = _ref_significant_lines(text)
    if not lines:
        raise ParseError("empty document")
    pos = 0

    def expect(keyword: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(f"missing {keyword!r} line", last)
        no, fields = lines[pos]
        if fields[0] != keyword:
            raise ParseError(f"expected {keyword!r} line, got {fields[0]!r}", no)
        pos += 1
        return no, fields[1:]

    no, rest = expect(MAGIC)
    if rest != [str(VERSION)]:
        raise ParseError(f"unsupported magic/version {rest}", no)
    no, rest = expect("r")
    vals = _ref_ints(rest, no)
    if len(vals) != 1 or vals[0] < 1:
        raise ParseError("r needs a single positive integer", no)
    r = vals[0]
    no, rest = expect("min")
    m = _ref_point(rest, r, no, "min")
    no, rest = expect("conductor")
    c = _ref_point(rest, r, no, "conductor")

    elems: dict[Point, int] = {}
    while pos < len(lines):
        no, fields = lines[pos]
        if fields[0] != "elem":
            raise ParseError(f"expected 'elem' line, got {fields[0]!r}", no)
        p = _ref_point(fields[1:], r, no, "elem")
        elems.setdefault(p, no)
        pos += 1
    if not elems:
        raise ParseError("no 'elem' lines", lines[-1][0])
    if m not in elems:
        raise ParseError("min is not listed among the elements", lines[-1][0])
    if c not in elems:
        raise ParseError("conductor is not listed among the elements", lines[-1][0])

    try:
        return _ref_from_small_elements(r, m, c, elems.keys())
    except ValidationError as err:
        for counter in err.report.counterexamples:
            for key in ("pair", "point"):
                val = counter.get(key)
                pts = val if key == "pair" else [val] if val else []
                for q in pts or []:
                    line = elems.get(tuple(q))
                    if line is not None:
                        counter.setdefault("line", line)
        raise


def _ref_emit_gsi(E: SmallRep) -> str:
    """Normalized text form: header plus lexicographically sorted elements."""
    out = [f"{MAGIC} {VERSION}", f"r {E.r}",
           "min " + " ".join(map(str, E.m)),
           "conductor " + " ".join(map(str, E.c))]
    for p in sorted(E.small):
        out.append("elem " + " ".join(map(str, p)))
    return "\n".join(out) + "\n"


def _identity_tool():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(parse, text):
    """parse(text), or the error's type, text, line and report."""
    try:
        return parse(text)
    except (GsiError, ValueError) as err:
        report = err.report.to_dict() if isinstance(err, ValidationError) else None
        return type(err), str(err), getattr(err, "line", None), report


def test_bulk_parse_and_emit_match_line_by_line_reference():
    # the seeded corpus of the identity tool's parse row: every tests/data
    # file, emitted semigroups, draws and products, and their mutations;
    # each must parse to an equal rep that emits the same bytes, or raise
    # the same error with the same text, line and annotated report
    kinds = set()
    for text in _identity_tool().documents():
        want, got = _outcome(_ref_parse_gsi, text), _outcome(parse_gsi, text)
        if isinstance(want, SmallRep):
            assert isinstance(got, SmallRep) and got == want, text
            assert emit_gsi(got) == _ref_emit_gsi(got) == _ref_emit_gsi(want), text
            kinds.add("rep")
        else:
            assert got == want, text
            first = want[3]["counterexamples"][0] if want[3] else {}
            kinds.add((want[0].__name__, first.get("axiom"), "line" in first,
                       want[1].split(": ")[-1].split(" ")[0]))
    # the corpus reaches every kind of outcome the parse has
    assert {kind[3] for kind in kinds if kind[0] == "ParseError"} == {
        "conductor", "elem", "empty", "expected", "min", "missing", "no", "r", "unsupported"}
    assert {kind[1:3] for kind in kinds if kind[0] == "ValidationError"} >= {
        ("E1", True), ("E2", True), ("structural", True)}
    assert "rep" in kinds


def test_elem_lines_walked_only_on_failure(monkeypatch):
    # a well-formed document reads its elem lines in bulk, with no per-line
    # step; a bad one names the first offending line
    walked = []
    monkeypatch.setattr(gsi_format, "_elem", lambda *args: walked.append(args) or (0,))
    text = "gsi 1\nr 1\nmin 0\nconductor 2\nelem 0\nelem 2\n"
    assert emit_gsi(parse_gsi(text)) == text and walked == []
    monkeypatch.undo()
    with pytest.raises(ParseError, match="^line 6: expected integer, got 'x'$"):
        parse_gsi(text.replace("elem 2", "elem x") + "elem 1 1\n")


def test_validation_error_reads_the_document_once(monkeypatch, data_dir):
    # the line map of a ValidationError comes from the points already read:
    # the elem lines are read once, in bulk, and never walked
    reads, walked = [], []
    read = gsi_format._elements
    monkeypatch.setattr(gsi_format, "_elements", lambda *args: reads.append(args) or read(*args))
    monkeypatch.setattr(gsi_format, "_elem", lambda *args: walked.append(args))
    text = (data_dir / "broken.gsi").read_text()
    with pytest.raises(ValidationError) as err:
        parse_gsi(text + "elem 3 4\n")  # a duplicate keeps its first line
    assert len(reads) == 1 and walked == []
    assert err.value.report.counterexamples[0]["line"] == 6
