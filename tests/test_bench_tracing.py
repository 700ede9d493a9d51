"""The benchmark's tracer names gsi functions by (module, attribute); a rename
in the package must not leave one of those names dangling."""
import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    # read the tables from the source, so that nothing of bench/ is imported
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED")):
            names += ast.literal_eval(node.value).values()
    assert len(names) >= 20
    missing = [f"{module}.{attr}" for module, attr in names
               if module.split(".")[0] != "gsi"
               or not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"named in bench/tracing.py but not in gsi: {missing}"
