"""Source hygiene of the package, read with the standard library's ast: every
import sits at module level, no module imports a name it never uses, every
module-level class not exported through __all__, every private module-level
function and every method or property of a class is referenced somewhere in
the package, no module defines both a name and a private twin _name of
it, every error class is raised or is a base of one that is, no module
keeps a cache or container at module level beyond its named exemptions,
and only the row family ``ideal.Rows`` and two named helpers build runs
with ``ideal._repeat``.  The line counter ``tools/loc.py`` runs, and the
output digests of ``tools/identity.py`` are the rows pinned in
``tests/identity.json``."""
import ast
import json
import pathlib
import re
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsi"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(tree: ast.Module) -> set[str]:
    """Names read in a module, attributes taken and names imported from others."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in used]
    assert not unused, f"imported but never used: {unused}"


def test_imports_at_module_level():
    # one import style: every import sits at the top of its module, none in
    # a function or class body
    nested = set()
    for name, tree in _modules().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {f"{name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not nested, f"imports inside a function or class body: {sorted(nested)}"


def test_classes_are_referenced():
    # a module-level class counts as used when code outside its own body
    # names it, or when its module exports it through __all__
    modules = _modules()
    exported = set().union(*map(_exported, modules.values()))
    dead = []
    for name, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name not in exported:
                rest = [_referenced(t) for n, t in modules.items() if n != name]
                rest += [_referenced(node) for node in tree.body if node is not cls]
                if cls.name not in set().union(*rest):
                    dead.append(f"{name}:{cls.lineno} {cls.name}")
    assert not dead, f"classes nothing in the package references: {dead}"


def _raised(tree: ast.Module) -> set[str]:
    """The names of the exceptions a module raises: ``raise X`` and
    ``raise X(...)``, X a name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(getattr(exc, "attr", getattr(exc, "id", None)))
    return names


def test_error_classes_are_raised():
    # an error class lives while the package raises it or one of its
    # subclasses; being exported is not enough, as nothing can catch an
    # error that is never raised
    modules = _modules()
    live = set().union(*map(_raised, modules.values()))
    classes = [node for node in modules["errors.py"].body if isinstance(node, ast.ClassDef)]
    for cls in reversed(classes):  # a base is defined before its subclasses
        if cls.name in live:
            live.update(base.id for base in cls.bases if isinstance(base, ast.Name))
    dead = [f"errors.py:{cls.lineno} {cls.name}" for cls in classes if cls.name not in live]
    assert not dead, f"error classes the package never raises: {dead}"


def test_private_functions_are_referenced():
    modules = _modules()
    referenced = set().union(*map(_referenced, modules.values()))
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert not dead, f"private functions nothing in the package calls: {dead}"


def _module_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_no_private_twins():
    # a public name and a private body of it are one function split in two:
    # a trace of one never shows the calls made through the other
    twins = []
    for name, tree in _modules().items():
        defined = _module_names(tree)
        twins += [f"{name[:-3]}.{n}" for n in sorted(defined)
                  if n.startswith("_") and not n.startswith("__") and n[1:] in defined]
    assert not twins, f"private twins of public names: {twins}"


# Public methods the package does not call itself, each with its reason.
UNCALLED_API = {
    "from_dict",  # CheckReport: the documented inverse of to_dict
}


def test_methods_are_referenced():
    # public methods count too: a method the package never calls is dead
    # unless the package exports it by name
    modules = _modules()
    used = set().union(*map(_referenced, modules.values()),
                       *map(_exported, modules.values()), UNCALLED_API)
    dead = [f"{name}:{item.lineno} {cls.name}.{item.name}"
            for name, tree in modules.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))
            and item.name not in used]
    assert not dead, f"methods nothing in the package references: {dead}"


# Module-level state that outlives a call, each with its reason.
MODULE_CACHES = {
    "__init__.__all__",  # the export list, never written
    "cli._parser",  # the argument parser, built once per process
    # one fiber-table holder per shape (dims, grid), held weakly: an entry
    # lives only while some rep keeps its holder, so it keeps no ideal alive
    "ideal._holders",
    "oracle._checked_window",  # the oracle's bounded window memo
}
_CACHE_DECORATORS = {"cache", "lru_cache"}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "WeakKeyDictionary", "WeakValueDictionary"}
_CONTAINER_DISPLAYS = (ast.Dict, ast.List, ast.Set)


def _called_name(node: ast.expr) -> str | None:
    """The last name of a call's or a decorator's target: lru_cache for
    functools.lru_cache(maxsize=8), cache for @cache."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_no_module_level_caches():
    # a value computed once per object lives on the object (as SmallRep's
    # cached properties and canonical_ideal's K(S) do), never in module
    # state that keeps it, and every ideal it holds, for the process
    found = set()
    for name, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_called_name(d) in _CACHE_DECORATORS for d in node.decorator_list):
                    found.add(f"{name[:-3]}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                if (isinstance(value, _CONTAINER_DISPLAYS)
                        or (isinstance(value, ast.Call)
                            and _called_name(value) in _CONTAINER_CALLS)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.update(f"{name[:-3]}.{t.id}" for t in targets
                                 if isinstance(t, ast.Name))
    assert found == MODULE_CACHES, (
        f"module-level caches: {sorted(found - MODULE_CACHES)}; "
        f"stale exemptions: {sorted(MODULE_CACHES - found)}")


def test_holder_registry_holds_no_rep():
    # the exemption of ideal._holders: every rep of a shape reads one
    # holder, and once the last rep of the shape is gone, so is its entry
    import gc

    from gsi import ideal

    S = ideal.SmallRep(2, (0, 0), (13, 17), frozenset({(0, 0), (13, 17)}))
    key = S.layout.dims, S.grid
    assert key not in ideal._holders
    T = ideal.translate(S, (5, -3))
    assert T.tables is S.tables and S.tables.fiber_table
    assert ideal._holders[key] is S.tables
    del S
    gc.collect()
    assert key in ideal._holders  # T still reads the holder
    del T
    gc.collect()
    assert key not in ideal._holders


def test_one_row_builder():
    # every per-axis row mask of a layout comes from ideal.Rows: the run
    # builder ideal._repeat is named, in src/gsi, only by Rows, by
    # _box_mask (the low-corner sub-boxes of fresh layouts) and by _window
    # (its per-axis passes), so no second row builder can come back
    named = {f"{name[:-3]}.{getattr(scope, 'name', scope.lineno)}"
             for name, tree in _modules().items() for scope in tree.body
             if "_repeat" in _referenced(scope)}
    assert named == {"ideal._box_mask", "ideal._window", "ideal.Rows"}, sorted(named)


def test_loc_tool_runs():
    # a smoke run: it counts the package and prints both numbers
    tool = PACKAGE.parents[1] / "tools" / "loc.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines, code = map(int, re.fullmatch(r"lines (\d+), code (\d+)\n", proc.stdout).groups())
    assert 0 < code < lines


def test_identity_rows_match_pinned():
    # the tool digests the CLI, the draws, the canonical ideals, the duals,
    # the validate reports, the check reports and the parse outcomes of its
    # generated documents; its (row, count, digest)
    # triples must be those pinned in tests/identity.json, which a change
    # meant to alter an output updates.  The file is kept out of
    # tests/data, whose every file the tool's CLI row reads.
    root = PACKAGE.parents[1]
    proc = subprocess.run([sys.executable, str(root / "tools" / "identity.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _, _ in rows] == ["cli", "draws", "canonical", "duals",
                                           "validate", "checks", "parse"]
    assert all(int(n) > 0 and re.fullmatch(r"[0-9a-f]{64}", digest) for _, n, digest in rows)
    pinned = json.loads((root / "tests" / "identity.json").read_text(encoding="utf-8"))
    assert [[name, int(n), digest] for name, n, digest in rows] == pinned
