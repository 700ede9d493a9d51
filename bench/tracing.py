"""Per-layer tracing for the benchmark, installed from outside the package.

The wrappers replace each traced function in every ``gsi`` namespace that
binds it: modules such as ``theorems`` import ``fiber_witness`` by name, so
patching only the defining module would miss their internal calls.  Timed
functions record one span each (name, start, end, parent span, op index) in
a flat in-memory array that is written out when the pass ends.  The cheap
primitives that run millions of times per op are only counted, which keeps
memory bounded.  A few functions also record their distinct normalized
argument tuples, so a pass can report how many of their calls a perfect memo
could have answered.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Layer metric prefix -> (module, function).  ``oracle`` and ``report`` are
# left out: the oracle is off every user path and ``report`` does no work.
TIMED = {
    "cli.main": ("gsi.cli", "main"),
    "gsi_format.parse_gsi": ("gsi.gsi_format", "parse_gsi"),
    "gsi_format.emit_gsi": ("gsi.gsi_format", "emit_gsi"),
    "constructors.from_small_elements": ("gsi.constructors", "from_small_elements"),
    "constructors.random_good": ("gsi.constructors", "random_good"),
    "ideal.validate": ("gsi.ideal", "validate"),
    "ideal.search_member": ("gsi.ideal", "search_member"),
    "ideal.equals": ("gsi.ideal", "equals"),
    "ideal.is_subset": ("gsi.ideal", "is_subset"),
    "fiber.fiber_witness": ("gsi.fiber", "fiber_witness"),
    "fiber.maximals": ("gsi.fiber", "maximals"),
    "duality.cd_difference": ("gsi.duality", "cd_difference"),
    "duality.canonical_ideal": ("gsi.duality", "canonical_ideal"),
    "duality.fiber_dual": ("gsi.duality", "fiber_dual"),
    "duality.is_canonical": ("gsi.duality", "is_canonical"),
    "theorems.check_sum": ("gsi.theorems", "check_sum"),
    "theorems.check_fibra": ("gsi.theorems", "check_fibra"),
    "theorems.check_duality": ("gsi.theorems", "check_duality"),
    "theorems.check_length_pairing": ("gsi.theorems", "check_length_pairing"),
    "theorems.check_rho": ("gsi.theorems", "check_rho"),
    "theorems.check_maximal_symmetry": ("gsi.theorems", "check_maximal_symmetry"),
    "theorems.gorenstein_consistency": ("gsi.theorems", "_gorenstein_consistency"),
}
COUNTED = {
    "lattice.box_points": ("gsi.lattice", "box_points"),
    "lattice.check_same_dim": ("gsi.lattice", "check_same_dim"),
    "fiber.p_value": ("gsi.fiber", "p_value"),
    "fiber.q_value": ("gsi.fiber", "q_value"),
    "theorems.rho": ("gsi.theorems", "rho"),
    "theorems.length_step": ("gsi.theorems", "length_step"),
}
# Membership is a method; module-level ``ideal.contains`` delegates to it.
CONTAINS = "ideal.contains"
DISTINCT = ("ideal.validate", "fiber.fiber_witness", "duality.cd_difference",
            "duality.canonical_ideal")

# The per-layer metrics a traced pass reports, besides the run's
# ``trace.overhead_ratio``.
PER_LAYER = (
    "cli.main.calls", "cli.main.self_s",
    "gsi_format.parse_gsi.calls", "gsi_format.parse_gsi.self_s",
    "gsi_format.emit_gsi.self_s",
    "constructors.from_small_elements.calls", "constructors.from_small_elements.self_s",
    "constructors.random_good.self_s",
    "ideal.validate.calls", "ideal.validate.self_s", "ideal.validate.distinct_ratio",
    "ideal.search_member.calls", "ideal.search_member.self_s",
    "ideal.equals.self_s", "ideal.is_subset.self_s", "ideal.contains.calls",
    "lattice.box_points.calls", "lattice.check_same_dim.calls",
    "fiber.fiber_witness.calls", "fiber.fiber_witness.self_s",
    "fiber.fiber_witness.distinct_ratio", "fiber.p_value.calls", "fiber.q_value.calls",
    "fiber.maximals.self_s",
    "duality.cd_difference.calls", "duality.cd_difference.self_s",
    "duality.cd_difference.distinct_ratio",
    "duality.canonical_ideal.calls", "duality.canonical_ideal.self_s",
    "duality.canonical_ideal.distinct_ratio",
    "duality.fiber_dual.calls", "duality.fiber_dual.self_s", "duality.is_canonical.self_s",
    "theorems.check_sum.self_s", "theorems.check_fibra.self_s",
    "theorems.check_duality.self_s", "theorems.check_length_pairing.self_s",
    "theorems.check_rho.self_s", "theorems.check_maximal_symmetry.self_s",
    "theorems.gorenstein_consistency.self_s", "theorems.rho.calls",
    "theorems.length_step.calls",
)

STRIDE = 5  # span fields: name index, start ns, end ns, parent span, op
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


def _arg_normalizer(fn):
    """Map a call's arguments to one tuple per parameter, defaults filled in,
    so that equivalent calls written differently share a key."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    defaults = [p.default for p in params]

    def key(args, kwargs):
        if not kwargs and len(args) == len(names):
            return args
        vals = list(args) + defaults[len(args):]
        for name, val in kwargs.items():
            vals[names.index(name)] = val
        return tuple(vals)

    return key


class Tracer:
    """Spans and counters of one pass; ``op`` is the index of the running op."""

    def __init__(self) -> None:
        self.names = list(TIMED)
        self.spans = array("q")
        self.counts = {name: [0] for name in (*COUNTED, CONTAINS)}
        self.keys = {name: set() for name in DISTINCT}
        self.op = -1
        # Reference-probe time (see probe.py) spent while a span was the
        # innermost open one, by span id; it is not the span's own work.
        self.probe_ns: Counter[int] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, nid: int, fn, keys):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter_ns
        normalize = _arg_normalizer(fn) if keys is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                key = normalize(args, kwargs)
                try:
                    keys.add(key)
                except TypeError:
                    keys.add(repr(key))
            sid = len(spans) // STRIDE
            spans.extend((nid, 0, 0, stack[-1], tracer.op))
            stack.append(sid)
            spans[sid * STRIDE + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid * STRIDE + 2] = clock()
                stack.pop()

        return wrapper

    @staticmethod
    def _counted(fn, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "gsi" or modname.startswith("gsi.")):
                continue
            for attr, val in list(vars(module).items()):
                if val is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import gsi.cli  # noqa: F401  (the CLI module binds names too)
        from gsi.ideal import SmallRep

        for nid, (name, (mod, attr)) in enumerate(TIMED.items()):
            original = getattr(sys.modules[mod], attr)
            self._replace_everywhere(
                original, self._timed(nid, original, self.keys.get(name)))
        for name, (mod, attr) in COUNTED.items():
            original = getattr(sys.modules[mod], attr)
            self._replace_everywhere(original, self._counted(original, self.counts[name]))
        original = SmallRep.contains
        self._patches.append((SmallRep, "contains", original))
        SmallRep.contains = self._counted(original, self.counts[CONTAINS])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def add_probe(self, ns: int) -> None:
        """Charge a reference probe that ran inside the innermost open span."""
        if self._stack[-1] >= 0:
            self.probe_ns[self._stack[-1]] += ns

    def summary(self, speed: list[float]) -> dict[str, float]:
        """Per-layer values of the pass: calls, self time and distinct ratio.

        Self time is a span's duration minus the durations of its direct
        child spans and the probes it ran, summed per function.  Each span
        is scaled by ``speed[op]``, the quiet speed over the speed the host
        had while its op ran (see probe.py).
        """
        calls = Counter()
        self_ns = Counter()
        sp = self.spans
        for i in range(0, len(sp), STRIDE):
            name, dur, parent, op = sp[i], sp[i + 2] - sp[i + 1], sp[i + 3], sp[i + 4]
            calls[name] += 1
            self_ns[name] += (dur - self.probe_ns[i // STRIDE]) * speed[op]
            if parent >= 0:
                self_ns[sp[parent * STRIDE]] -= dur * speed[op]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        for name, keys in self.keys.items():
            n = out[f"{name}.calls"]
            out[f"{name}.distinct_ratio"] = len(keys) / n if n else 0.0
        return {name: out[name] for name in PER_LAYER}

    def write(self, stem: Path) -> None:
        """Write the spans as raw int64 rows plus a JSON header naming them."""
        with open(stem.with_suffix(".bin"), "wb") as fh:
            self.spans.tofile(fh)
        header = {"fields": SPAN_FIELDS, "names": self.names,
                  "rows": len(self.spans) // STRIDE}
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")


def read_spans(stem: Path) -> list[tuple[str, int, int, int, int]]:
    """Spans written by :meth:`Tracer.write`, as (name, start, end, parent, op)."""
    header = json.loads(stem.with_suffix(".json").read_text())
    flat = array("q")
    with open(stem.with_suffix(".bin"), "rb") as fh:
        flat.fromfile(fh, header["rows"] * STRIDE)
    names = header["names"]
    return [(names[flat[i]], *flat[i + 1:i + STRIDE])
            for i in range(0, len(flat), STRIDE)]
