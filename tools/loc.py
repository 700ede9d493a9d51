"""Count the lines of ``src/gsi``: all of them, and those holding code.

Standard library only: ``tokenize`` reads each file's tokens and ``ast``
finds its docstrings.  A line holds code when a token other than a
comment, a docstring or layout (newlines, indents) starts on it or spans
it; blank lines, comment lines and docstring lines do not.  Run it from
anywhere:

    python tools/loc.py

It prints one ``lines <n>, code <n>`` row for the package.
"""
from __future__ import annotations

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gsi"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) starts of the module, class and function
    docstrings."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(lines, lines holding code) of one source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstrings(ast.parse(source))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> None:
    lines = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n, k = count(path)
        lines += n
        code += k
    print(f"lines {lines}, code {code}")


if __name__ == "__main__":
    main()
