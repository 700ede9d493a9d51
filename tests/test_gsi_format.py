import pytest

from gsi.errors import ParseError, ValidationError
from gsi.gsi_format import emit_gsi, parse_gsi
from gsi.ideal import equals, members


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
