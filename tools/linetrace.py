"""List the statements of ``src/gsi`` that the tier-1 test run never executes.

A line trace built on the standard library alone: ``sys.settrace`` records
the lines run in the package's files while pytest runs the suite in this
process, and the statements are read from each file with ``ast``.  Run it
from anywhere; extra arguments go to pytest in place of ``-q tests``:

    python tools/linetrace.py
    python tools/linetrace.py -q tests/test_constructors.py

It prints one ``path:line: source`` row per unexecuted statement, then their
count and pytest's exit code.  A statement counts as run when any line of its
own (for a compound statement, of its header, decorators included) raised a
line event.  Statements no line event can mark, such as a bare ``try:`` or a
function's docstring, are left out.  Code that only a subprocess runs
(``__main__.py``) is reported as unexecuted.
The trace makes the suite several times slower, so it is no part of tier-1.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gsi"


def _code_lines(code) -> set[int]:
    """The lines of a compiled module that can raise a line event."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, range]:
    """The statements of a file that a line event can mark: their first
    line, mapped to the lines whose events count for them."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    traceable = _code_lines(compile(source, str(path), "exec"))
    out = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt):
                continue
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.end_lineno
            lines = range(start, max(end, node.lineno) + 1)
            if traceable.intersection(lines):
                out[node.lineno] = lines
    return out


def trace_suite(args: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run pytest on args under the line trace: the lines run per package
    file, and pytest's exit code."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def tracer_of(seen):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    tracers = {name: tracer_of(seen) for name, seen in files.items()}

    def call(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    os.chdir(ROOT)  # pytest reads the src path from pyproject.toml there
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return files, int(code)


def main(argv: list[str]) -> int:
    seen, code = trace_suite(argv or ["-q", "tests"])
    missed = 0
    for name in sorted(seen):
        path = Path(name)
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, span in sorted(statements(path).items()):
            if not seen[name].intersection(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} unexecuted statements; pytest exit code {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
