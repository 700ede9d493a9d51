"""Command-line interface.

Exit codes: 0 the claim holds, 1 the claim fails (counterexample printed),
2 usage or input error, running out of memory on an oversized input among
them.

``main`` parses with one parser tree per process, built by
:func:`build_parser` on the first call and reused after it.  Building the
tree of eight subcommands costs about as much as validating a small ideal,
so callers that run ``main`` many times in one process (the tests, the
benchmark, embedders) would otherwise pay it per call; a one-shot ``gsi``
process builds it once either way, and ``import gsi`` does not build it.
Reuse is safe: parsing does not change the parser, ``prog`` is fixed, and
help and errors look up ``sys.stdout`` and ``sys.stderr`` when they print.

Each call of ``main`` makes one loader, a cache of :func:`_load` that lives
for that call, and hands it to the command it runs, so a path given more
than once (``check all A A --semigroup A``, ``gen product A A``) is read and
parsed once, and nothing parsed outlives the call.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from . import constructors, duality, theorems
from .errors import GsiError, ParseError, ValidationError
from .fiber import MaximalInfo, maximals
from .gsi_format import emit_gsi, parse_gsi
from .ideal import SmallRep, _compatibility_failure, frobenius, validate
from .lattice import box_points, join, ones, unit_vector, vadd, vsub
from .report import CheckReport

USAGE_ERROR = 2


def _load(path: str) -> SmallRep:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_gsi(fh.read())
    except FileNotFoundError:
        raise _InputError(f"cannot read {path}: no such file")
    except ParseError as err:
        raise _InputError(f"{path}: {err}")


class _InputError(Exception):
    pass


def _load_semigroup(path: str, load: Callable[[str], SmallRep]) -> SmallRep:
    S = load(path)
    report = validate(S, semigroup=True)
    if not report.passed:
        raise _InputError(f"{path} is not a good semigroup: {report.summary()}")
    return S


def _require_ideal_of(path: str, E: SmallRep, s_path: str, S: SmallRep) -> None:
    """Reject E unless S + E <= E, naming the file and the failing sum."""
    if E.r != S.r:
        raise _InputError(
            f"{path} has dimension {E.r} but the semigroup {s_path} has {S.r}")
    failure = _compatibility_failure(E, S)
    if failure is None:
        return
    if "sum" in failure:
        s, p, q = (tuple(failure[k]) for k in ("s", "p", "sum"))
    else:
        # c exceeds m + c(S) at some i, so q = join(c - e_i, m + c(S)) meets
        # down to c - e_i, which is not in E (c is least); q - m is in S
        bound = tuple(failure["bound"])
        i = next(k for k in range(E.r) if E.c[k] > bound[k])
        q = join(vsub(E.c, unit_vector(E.r, [i + 1])), bound)
        s, p = vsub(q, E.m), E.m
    s, p, q = (f"({', '.join(map(str, x))})" for x in (s, p, q))
    raise _InputError(f"{path} is not an ideal of the semigroup {s_path}: "
                      f"{s} + {p} = {q} is not in {path}")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_report(rep: CheckReport) -> None:
    print(rep.summary())
    if rep.flags:
        for key, val in sorted(rep.flags.items()):
            print(f"  {key}: {val}")
    for w in rep.witnesses[:5]:
        print(f"  witness: {w}")
    for ce in rep.counterexamples[:5]:
        print(f"  counterexample: {ce}")


def _cmd_validate(args, load) -> int:
    try:
        load(args.file)
    except ValidationError as err:
        print(f"{args.file}: invalid")
        _print_report(err.report)
        return 1
    print(f"{args.file}: valid")
    return 0


def _grid_plot(E: SmallRep, infos: list[MaximalInfo]) -> str:
    e = ones(E.r)
    lo = vsub(E.m, e)
    hi = vadd(E.c, e)
    lines = []
    if E.r == 1:
        # r = 1: no maximal points, as the open {1}-fiber of alpha is {alpha}
        row = "".join("o" if E.contains(p) else "." for p in box_points(lo, hi))
        lines.append(f"x in [{lo[0]}, {hi[0]}]: " + row)
    else:
        maxpts = {info.point for info in infos}
        for y in range(hi[1], lo[1] - 1, -1):
            row = []
            for x in range(lo[0], hi[0] + 1):
                p = (x, y)
                if p in maxpts:
                    row.append("*")
                elif p == E.c:
                    row.append("C")
                elif E.contains(p):
                    row.append("o")
                else:
                    row.append(".")
            lines.append(f"{y:4d} " + " ".join(row))
        lines.append("     " + " ".join(f"{abs(x) % 10}" for x in range(lo[0], hi[0] + 1)))
        lines.append(f"x in [{lo[0]}, {hi[0]}], y in [{lo[1]}, {hi[1]}]")
    lines.append("legend: o member, * maximal, C conductor, . gap")
    return "\n".join(lines) + "\n"


def _cmd_info(args, load) -> int:
    E = load(args.file)
    print(f"r: {E.r}")
    print("min:", " ".join(map(str, E.m)))
    print("conductor:", " ".join(map(str, E.c)))
    print("frobenius:", " ".join(map(str, frobenius(E))))
    infos = maximals(E)
    print(f"maximals: {len(infos)}")
    for info in infos:
        coords = " ".join(map(str, info.point))
        print(f"  ({coords})  type ({info.p},{info.q})  {info.kind.value}")
    if args.plot:
        if E.r > 2:
            print("--plot supports r <= 2 only", file=sys.stderr)
            return USAGE_ERROR
        sys.stdout.write(_grid_plot(E, infos))
    return 0


def _cmd_canonical(args, load) -> int:
    S = _load_semigroup(args.file, load)
    K = duality.canonical_ideal(S)
    _write_out(emit_gsi(K), args.output)
    return 0


def _cmd_dual(args, load) -> int:
    EJ = load(args.J)
    EI = load(args.I)
    if args.method == "cd":
        D = duality.cd_difference(EJ, EI)
    else:
        D = duality.fiber_dual(EJ, EI).promoted
    _write_out(emit_gsi(D), args.output)
    return 0


def _cmd_is_canonical(args, load) -> int:
    EJ = load(args.J)
    S = _load_semigroup(args.semigroup_file, load)
    result = duality.is_canonical(EJ, S)
    print(f"canonical: {'true' if result else 'false'}")
    return 0 if result else 1


def _cmd_gorenstein(args, load) -> int:
    S = _load_semigroup(args.file, load)
    result = duality.is_gorenstein(S)
    print(f"gorenstein: {'true' if result else 'false'}")
    return 0 if result else 1


def _cmd_check(args, load) -> int:
    EJ = load(args.J)
    EI = load(args.I)
    S = _load_semigroup(args.semigroup, load) if args.semigroup else None
    if S is not None:
        _require_ideal_of(args.J, EJ, args.semigroup, S)
        _require_ideal_of(args.I, EI, args.semigroup, S)
    name = args.which
    if name == "all" and S is None:
        raise _InputError("check all requires --semigroup")
    if name == "sum":
        reports = [theorems.check_sum(EJ, EI)]
    elif name == "fibra":
        reports = [theorems.check_fibra(EJ, EI)]
    elif name == "length":
        reports = [theorems.check_length_pairing(EJ, EI)]
    elif name == "rho":
        reports = [theorems.check_rho(EI, EJ, S)]
    elif name == "maxsym":
        reports = [theorems.check_maximal_symmetry(EI, EJ, S)]
    else:
        reports = theorems.check_all(S, EJ, EI, seed=args.seed)
    passed = all(r.passed for r in reports)
    if args.json:
        if len(reports) == 1:
            doc = reports[0].to_dict()
        else:
            doc = {"passed": passed, "reports": [r.to_dict() for r in reports]}
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            _print_report(r)
    return 0 if passed else 1


def _cmd_gen(args, load) -> int:
    kind = args.kind
    if kind == "numerical":
        if not args.args:
            raise _InputError("gen numerical needs generators")
        gens = [int(a) for a in args.args]
        E = constructors.numerical(gens)
    elif kind == "node":
        if len(args.args) != 1:
            raise _InputError("gen node needs a dimension")
        E = constructors.node(int(args.args[0]))
    elif kind == "product":
        if len(args.args) != 2:
            raise _InputError("gen product needs two input files")
        E = constructors.product(load(args.args[0]), load(args.args[1]))
    else:  # random, the last of the parser's choices
        if args.semigroup is None:
            raise _InputError("gen random requires --semigroup")
        S = _load_semigroup(args.semigroup, load)
        E = constructors.random_good(S, args.seed)
    _write_out(emit_gsi(E), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gsi",
        description="Good semigroup ideals of Z^r: validation, duals, "
                    "canonical ideals, and symmetry checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a GSI file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="min, conductor, frobenius, maximal points")
    p.add_argument("file")
    p.add_argument("--plot", action="store_true",
                   help="textual grid plot (r <= 2)")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("canonical", help="write the canonical ideal of a semigroup")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("dual", help="dual of I with respect to J")
    p.add_argument("J")
    p.add_argument("I")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--method", choices=("cd", "fiber"), default="cd")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("is-canonical", help="is J a canonical ideal of S")
    p.add_argument("J")
    p.add_argument("semigroup_file", metavar="S")
    p.set_defaults(func=_cmd_is_canonical)

    p = sub.add_parser("gorenstein", help="is the semigroup Gorenstein (symmetric)")
    p.add_argument("file", metavar="S")
    p.set_defaults(func=_cmd_gorenstein)

    p = sub.add_parser("check", help="run a theorem check on a pair of ideals")
    p.add_argument("which", choices=("sum", "fibra", "length", "rho", "maxsym", "all"))
    p.add_argument("J")
    p.add_argument("I")
    p.add_argument("--semigroup", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="construct semigroups and ideals")
    p.add_argument("kind", choices=("numerical", "node", "product", "random"))
    p.add_argument("args", nargs="*")
    p.add_argument("--semigroup", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use (see the module docstring)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else USAGE_ERROR
    try:
        return args.func(args, functools.cache(_load))  # each distinct path parsed once
    except _InputError as err:
        print(str(err), file=sys.stderr)
        return USAGE_ERROR
    except ValidationError as err:
        print(f"invalid input: {err.report.summary()}", file=sys.stderr)
        return USAGE_ERROR
    except (GsiError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return USAGE_ERROR
