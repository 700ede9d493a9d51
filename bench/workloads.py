"""Seeded corpora and operations of the benchmark's three workloads.

A workload is built from ``--seed`` alone: the same seed gives the same
semigroups, ideals and GSI files.  Building it is the set-up the benchmark
times; the result is a list of :class:`Op` that one caller runs in order,
each starting after the previous one has finished (a closed loop).

* ``checks``: in-process ``gsi check all`` over (S, EJ, EI) triples with
  EJ in {S, K(S)} and EI in {S, random_good(S)}.  This is the end-to-end path
  and its growth in r; fiber queries do most of the work and a triple
  recomputes the same duals and fibers many times.
* ``duals``: the duality layer on its own, as library calls at low r with
  large conductors and node(r) up to r = 5.  Ops do not repeat each other's
  input, except that cd_difference(K, EI) and cd_difference(S, EI) coincide
  when S is Gorenstein (K(S) = S).
* ``ingest``: parsing, emitting and validating many fresh ideals, each
  queried only a little, plus the CLI ``validate``, ``info`` and
  ``gen random`` commands and invalid files.  Work done per ideal at
  construction pays its cost here without reuse.

Checking an op's output is kept out of the timed loop: ``check`` turns the
value into the bytes that enter the run's output digest and names any
problem, and ``verify`` runs the definition-level oracle where affordable.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gsi
from gsi import cli, oracle
from gsi.errors import ValidationError
from gsi.lattice import box_points, ones, vadd, vsub

# Minimal generating sets of the numerical semigroups with at most three
# generators, all below 26, keyed by conductor.
NUMERICAL = {
    6: [(2, 7), (3, 4), (3, 7, 8)],
    7: [(4, 5, 7)],
    8: [(2, 9), (3, 5), (3, 8, 10), (4, 5, 6), (4, 5, 11)],
    9: [(3, 7, 11), (3, 10, 11)],
    10: [(2, 11), (4, 6, 7), (5, 6, 7), (5, 6, 8)],
    11: [(3, 8, 13), (3, 11, 13), (4, 7, 9), (4, 7, 13)],
    12: [(2, 13), (3, 7), (4, 5), (3, 10, 14), (3, 13, 14), (4, 6, 9), (5, 7, 8)],
    13: [(5, 8, 9)],
    14: [(2, 15), (3, 8), (3, 11, 16), (3, 14, 16), (4, 6, 11), (4, 7, 10),
         (4, 7, 17), (5, 6, 9), (5, 6, 14), (5, 7, 9), (5, 7, 11)],
    15: [(3, 10, 17), (3, 13, 17), (3, 16, 17), (4, 9, 11), (4, 9, 15), (5, 6, 13),
         (5, 6, 19)],
    16: [(2, 17), (4, 6, 13), (4, 9, 10), (4, 9, 19), (6, 7, 10)],
    17: [(3, 11, 19), (3, 14, 19), (3, 17, 19), (5, 7, 13), (5, 7, 18), (5, 9, 12),
         (6, 7, 11)],
    18: [(2, 19), (3, 10), (4, 7), (3, 13, 20), (3, 16, 20), (3, 19, 20), (4, 6, 15),
         (4, 10, 11), (5, 8, 11), (5, 8, 14), (5, 9, 11), (6, 7, 8), (6, 7, 9),
         (6, 7, 16)],
    19: [(4, 11, 13), (4, 11, 17), (4, 11, 21), (5, 7, 16), (5, 7, 23)],
    20: [(2, 21), (3, 11), (5, 6), (3, 14, 22), (3, 17, 22), (3, 20, 22), (4, 6, 17),
         (4, 9, 14), (4, 9, 23), (4, 10, 13), (5, 8, 12), (5, 8, 17), (5, 8, 22),
         (5, 11, 12), (5, 11, 13), (6, 8, 9), (7, 8, 10)],
    21: [(3, 13, 23), (3, 16, 23), (3, 19, 23), (3, 22, 23), (7, 8, 9), (7, 8, 11)],
    22: [(2, 23), (4, 6, 19), (4, 10, 15), (4, 11, 14), (4, 11, 25), (5, 9, 13),
         (5, 9, 17), (5, 12, 13), (6, 8, 11)],
    23: [(3, 14, 25), (3, 17, 25), (3, 20, 25), (3, 23, 25), (4, 13, 15), (4, 13, 19),
         (4, 13, 23), (5, 8, 19), (5, 9, 16), (5, 9, 21), (5, 13, 14), (6, 7, 17),
         (6, 7, 23), (7, 9, 10)],
    24: [(2, 25), (3, 13), (4, 9), (5, 7), (4, 6, 21), (4, 10, 17), (4, 13, 14),
         (5, 11, 14), (5, 12, 14), (5, 12, 16), (6, 7, 15), (6, 7, 22), (6, 8, 13),
         (6, 9, 10), (8, 9, 11)],
}

# Generators of the two numerical factors of each product semigroup, by
# rising conductor pair: (6, 6), (8, 6), (10, 8), (12, 10), (14, 12),
# (16, 14), (20, 16) and (24, 20), the last being N(5,7) x N(5,6).  Close
# rungs spread op costs evenly, so the median op does not sit in a gap
# between two groups of ops; fixed factors keep the cost of the ops on S the
# same for every seed.  Two products have a non-symmetric factor, so that
# K(S) differs from S.
PRODUCTS = (((3, 7, 8), (3, 4)), ((3, 5), (2, 7)), ((4, 6, 7), (3, 5)),
            ((4, 5), (5, 6, 7)), ((3, 8), (4, 6, 9)), ((4, 6, 13), (2, 15)),
            ((3, 11), (4, 9, 10)), ((5, 7), (5, 6)))

# The README's r = 2 example semigroup.
EX2 = ((0, 0), (5, 5), ((0, 0), (3, 3), (3, 4), (4, 3), (5, 5)))

# Invalid documents that parse but fail an axiom, so ``gsi validate`` exits 1.
# Coordinates are shifted per seed.
# "E1" is the document of the package's own broken.gsi test file.
BROKEN = {
    "E1": ((0, 0), (5, 5), ((0, 0), (3, 4), (4, 3), (5, 5))),
    "E2": ((0, 0), (2, 1), ((0, 0), (1, 0), (2, 1))),
}

# The definition-level oracle sweeps boxes with doubled margins; run it only
# where that sweep stays this many points or fewer.
ORACLE_BOX_LIMIT = 1000


@dataclass
class Raised:
    """The exception an op raised, kept as its value."""

    error: BaseException

    def describe(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


@dataclass
class Op:
    """One operation: ``call`` is timed; ``check`` maps its value to digest
    bytes and a problem (None when correct); ``verify`` is the optional
    oracle cross-check, returning a problem or None."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bytes, str | None]]
    verify: Callable[[Any], str | None] | None = None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``gsi.cli.main`` in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _pick_numerical(rng: random.Random, lo: int, hi: int) -> gsi.SmallRep:
    """A numerical semigroup with conductor drawn from [lo, hi]."""
    conductor = rng.randint(lo, hi)
    return gsi.numerical(list(rng.choice(NUMERICAL[conductor])))


def _products():
    """(name, A, B, A x B) for every entry of PRODUCTS."""
    for gens_a, gens_b in PRODUCTS:
        A, B = gsi.numerical(list(gens_a)), gsi.numerical(list(gens_b))
        yield f"prod{A.c[0]}x{B.c[0]}", A, B, gsi.product(A, B)


def _write(corpus: Path, name: str, E: gsi.SmallRep) -> str:
    path = corpus / f"{name}.gsi"
    path.write_text(gsi.emit_gsi(E), encoding="utf-8")
    return str(path)


# --- output checks --------------------------------------------------------

def _raised(value) -> tuple[bytes, str] | None:
    if isinstance(value, Raised):
        return f"raised {type(value.error).__name__}\n".encode(), value.describe()
    return None


def _text_of(value) -> str:
    if isinstance(value, gsi.SmallRep):
        return gsi.emit_gsi(value)
    if isinstance(value, gsi.RegionSet):
        pts = " ".join(",".join(map(str, p)) for p in sorted(value.points))
        promoted = gsi.emit_gsi(value.promoted) if value.promoted else "none\n"
        return f"region {value.box.lo} {value.box.hi}\n{pts}\n{promoted}"
    return f"{value!r}\n"


def expect(predicate: Callable[[Any], str | None] | None = None):
    """A check that digests the value's text and applies ``predicate``."""
    def check(value):
        bad = _raised(value)
        if bad:
            return bad
        return _text_of(value).encode(), predicate(value) if predicate else None
    return check


def expect_cli(code: int, predicate: Callable[[str], str | None] | None = None):
    def check(value):
        bad = _raised(value)
        if bad:
            return bad
        got, out, err = value
        blob = f"exit {got}\n{out}\n{err}".encode()
        if got != code:
            return blob, f"exit code {got}, expected {code}: {err.strip()[:200]}"
        return blob, predicate(out) if predicate else None
    return check


def _check_all_passed(out: str) -> str | None:
    doc = json.loads(out)
    if doc.get("passed") is not True:
        failed = [r["check_name"] for r in doc["reports"] if not r["passed"]]
        return f"check all reported failures: {failed}"
    return None


def _oracle_box_size(lo, hi) -> int:
    return math.prod(max(0, h - l + 1) for l, h in zip(lo, hi))


def _verify_dual(EJ: gsi.SmallRep, EI: gsi.SmallRep, D: gsi.SmallRep) -> str | None:
    """Compare a computed dual with the oracle's literal enumeration."""
    e = ones(EJ.r)
    lo = vsub(vsub(EJ.m, EI.c), e)
    hi = vadd(vsub(EJ.c, EI.m), vadd(e, e))
    if _oracle_box_size(lo, hi) > ORACLE_BOX_LIMIT:
        return None
    brute = oracle.brute_dual(EJ, EI)
    for p in box_points(lo, hi):
        if D.contains(p) != (p in brute):
            return f"dual disagrees with oracle.brute_dual at {p}"
    return None


def _verify_canonical(S: gsi.SmallRep, K: gsi.SmallRep) -> str | None:
    span = vsub(S.c, S.m)
    lo = vsub(vsub(S.m, vadd(span, span)), vadd(ones(S.r), ones(S.r)))
    hi = vadd(vadd(S.c, span), ones(S.r))
    if _oracle_box_size(lo, hi) > ORACLE_BOX_LIMIT:
        return None
    brute = oracle.brute_canonical(S)
    for p in box_points(lo, hi):
        if K.contains(p) != (p in brute):
            return f"canonical ideal disagrees with oracle.brute_canonical at {p}"
    return None


# --- workloads ------------------------------------------------------------

# (semigroup, EJ, EI) of the checks pass: every combination of EJ in {S, K}
# and EI in {S, E} occurs, and each r = 3 semigroup once.  op_tail_ms falls
# on one of the slower ops; node(3) and N(4,5) x N(2,3) with EJ = EI = S cost
# the same for every seed and lie well apart from their neighbours.
CHECK_TRIPLES = (
    ("num_a", "K", "E"), ("num_b", "S", "E"), ("n2xn2", "K", "E"),
    ("ex2", "K", "S"), ("ex2", "S", "E"), ("n45xn2", "S", "S"),
    ("n45xn2", "K", "E"), ("node2", "K", "E"), ("node3", "S", "S"),
    ("n2xn2xn1", "S", "E"), ("n1xnode2", "K", "E"),
)


def _checks(rng: random.Random, corpus: Path) -> list[Op]:
    n2 = gsi.numerical([2, 3])
    n1 = gsi.numerical([3, 4, 5])
    semigroups = {
        "num_a": _pick_numerical(rng, 20, 24),
        "num_b": _pick_numerical(rng, 10, 16),
        "n2xn2": gsi.product(n2, n2),
        "ex2": gsi.from_small_elements(2, *EX2),
        "n45xn2": gsi.product(gsi.numerical([4, 5]), n2),
        "node2": gsi.node(2),
        "node3": gsi.node(3),
        "n2xn2xn1": gsi.product(gsi.product(n2, n2), n1),
        "n1xnode2": gsi.product(n1, gsi.node(2)),
    }
    ideals = {}
    files = {}
    for name, S in semigroups.items():
        ideals[name] = {"S": S, "K": gsi.canonical_ideal(S),
                        "E": gsi.random_good(S, rng.randrange(1 << 30))}
        for kind, E in ideals[name].items():
            files[name, kind] = _write(corpus, f"{kind}_{name}", E)
    ops = []
    # The consistency check samples random ideals from --seed; the op index
    # keeps that sample, and so the cost of the EI = S triples, the same
    # for every run seed.
    for index, (name, j, i) in enumerate(CHECK_TRIPLES):
        argv = ["check", "all", files[name, j], files[name, i], "--semigroup",
                files[name, "S"], "--json", "--seed", str(index)]
        EJ, EI = ideals[name][j], ideals[name][i]
        ops.append(Op(
            f"check all {name} {j}{i}",
            lambda argv=argv: run_cli(argv),
            expect_cli(0, _check_all_passed),
            lambda _, EJ=EJ, EI=EI: _verify_dual(EJ, EI, gsi.cd_difference(EJ, EI))))
    return ops


def _distinct_ideals(S: gsi.SmallRep, rng: random.Random, n: int) -> list[gsi.SmallRep]:
    """``n`` distinct seeded good ideals of S.

    For r >= 4 they are principal, m + N^r at a seeded m.  random_good
    returns mostly those there anyway, but now and then it retries for up to
    a second, or returns a non-principal ideal whose bidual costs up to four
    times as much: how many of those a seed drew moved set-up time and
    op_tail_ms with the seed.
    """
    out: list[gsi.SmallRep] = []
    while len(out) < n:
        if S.r >= 4:
            m = tuple(rng.randint(-2, 2) for _ in range(S.r))
            E = gsi.from_small_elements(S.r, m, m, [m])
        else:
            E = gsi.random_good(S, rng.randrange(1 << 30))
        if E not in out:
            out.append(E)
    return out


# Seeded ideals per semigroup in duals.  Their ops make up most of the ops
# near the median; four per semigroup make those ops many, so the median
# moves little with the seed.
EIS_PER_SEMIGROUP = 4


def _gorenstein_by_gaps(S: gsi.SmallRep) -> bool:
    """r = 1 only: symmetric exactly when the gaps fill half of [0, c)."""
    (c,) = S.c
    gaps = sum(1 for x in range(c) if not S.contains((x,)))
    return 2 * gaps == c


def _duals(rng: random.Random, corpus: Path) -> list[Op]:
    semigroups: dict[str, gsi.SmallRep] = {}
    factors: dict[str, tuple[gsi.SmallRep, gsi.SmallRep]] = {}
    for k, (lo, hi) in enumerate(((6, 11), (12, 17), (18, 21), (22, 24))):
        semigroups[f"num{k}"] = _pick_numerical(rng, lo, hi)
    for name, A, B, S in _products():
        factors[name] = (A, B)
        semigroups[name] = S
    for r in range(2, 6):
        semigroups[f"node{r}"] = gsi.node(r)
    known_gorenstein = {"node2": True, "node3": False}

    results: dict[str, Any] = {}
    ops = []
    for name, S in semigroups.items():
        _write(corpus, f"S_{name}", S)
        eis = _distinct_ideals(S, rng, EIS_PER_SEMIGROUP)
        for k, EI in enumerate(eis):
            _write(corpus, f"E{k}_{name}", EI)

        def canonical(name=name, S=S):
            results[name, "K"] = K = gsi.canonical_ideal(S)
            return K

        def gorenstein_expected(value, name=name, S=S):
            if name in known_gorenstein and value != known_gorenstein[name]:
                return f"is_gorenstein({name}) is {value}, expected {known_gorenstein[name]}"
            if S.r == 1 and value != _gorenstein_by_gaps(S):
                return f"is_gorenstein({name}) is {value}, the gap count says otherwise"
            if name in factors:
                A, B = factors[name]
                if value != (gsi.is_gorenstein(A) and gsi.is_gorenstein(B)):
                    return f"is_gorenstein({name}) disagrees with its factors"
            return None

        ops.append(Op(f"canonical_ideal {name}", canonical, expect(),
                      lambda K, S=S: _verify_canonical(S, K)))
        ops.append(Op(f"is_gorenstein {name}", lambda S=S: gsi.is_gorenstein(S),
                      expect(gorenstein_expected)))
        ops.append(Op(f"is_canonical K {name}",
                      lambda name=name, S=S: gsi.is_canonical(results[name, "K"], S),
                      expect(lambda v: None if v is True else "K(S) not canonical")))
        for k, EI in enumerate(eis):
            tag = f"{name} E{k}"

            def cd_k(name=name, EI=EI, k=k):
                results[name, "D", k] = D = gsi.cd_difference(results[name, "K"], EI)
                return D

            def bidual_is_ei(B, EI=EI):
                return None if gsi.equals(B, EI) else "bidual over K(S) differs from EI"

            def fiber_dual_is_cd(region, name=name, k=k):
                if region.promoted is None:
                    return f"fiber dual over K(S) not good: {region.promotion_failure}"
                if not gsi.equals(region.promoted, results[name, "D", k]):
                    return "fiber dual over K(S) differs from the CD-difference"
                return None

            ops += [
                Op(f"cd_difference K {tag}", cd_k, expect(),
                   lambda D, name=name, EI=EI: _verify_dual(results[name, "K"], EI, D)),
                Op(f"cd_difference S {tag}", lambda S=S, EI=EI: gsi.cd_difference(S, EI),
                   expect(), lambda D, S=S, EI=EI: _verify_dual(S, EI, D)),
                Op(f"bidual K {tag}",
                   lambda name=name, EI=EI: gsi.bidual(results[name, "K"], EI),
                   expect(bidual_is_ei)),
                Op(f"fiber_dual K {tag}",
                   lambda name=name, EI=EI: gsi.fiber_dual(results[name, "K"], EI),
                   expect(fiber_dual_is_cd)),
            ]
    return ops


def _sparse(rng: random.Random, span: tuple[int, ...]) -> gsi.SmallRep:
    """{m < p_1 < p_2 < p_3} together with c + N^r: four small elements in a
    large conductor box, good by construction."""
    r = len(span)
    m = tuple(rng.randint(-3, 3) for _ in range(r))
    steps = [sorted(rng.sample(range(1, s), 3)) for s in span]
    chain = [vadd(m, p) for p in zip(*steps)]
    c = vadd(m, span)
    return gsi.SmallRep(r, m, c, frozenset([m, *chain, c]))


def _nonminimal_text(E: gsi.SmallRep) -> str:
    """A document for E that declares conductor c + e and lists the extra
    box points it implies; parsing normalizes it back to E."""
    c2 = vadd(E.c, ones(E.r))
    elems = [p for p in box_points(E.m, c2) if E.contains(p)]
    lines = ["gsi 1", f"r {E.r}", "min " + " ".join(map(str, E.m)),
             "conductor " + " ".join(map(str, c2))]
    lines += ["elem " + " ".join(map(str, p)) for p in elems]
    return "\n".join(lines) + "\n"


def _roundtrip(text: str) -> tuple[gsi.SmallRep, str]:
    E = gsi.parse_gsi(text)
    return E, gsi.emit_gsi(E)


# Conductor spans of the sparse documents, kept well below the 1000 x 1000
# document whose validation takes seconds.
SPARSE_SPANS = ((200, 200), (160, 250), (30, 30, 30), (24, 36, 30))


def _ingest(rng: random.Random, corpus: Path) -> list[Op]:
    state: dict[str, gsi.SmallRep] = {}
    ops = []

    def roundtrip(name: str, text: str, want: str):
        def call():
            E, out = _roundtrip(text)
            state[name] = E
            return out
        return Op(f"roundtrip {name}", call,
                  expect(lambda out: None if out == want else "emit(parse(text)) differs"))

    def cli_validate(name: str, path: str, code: int):
        verdict = "valid" if code == 0 else "invalid"
        return Op(f"gsi validate {name}", lambda: run_cli(["validate", path]),
                  expect_cli(code, lambda out: None if out.startswith(f"{path}: {verdict}")
                             else f"gsi validate did not say {verdict}"))

    def passed(report):
        return None if report.passed else report.summary()

    for name, _, _, S in _products():
        E = gsi.random_good(S, rng.randrange(1 << 30))
        T = gsi.translate(S, (rng.randint(-4, 4), rng.randint(-4, 4)))
        texts = {kind: gsi.emit_gsi(X) for kind, X in (("S", S), ("E", E), ("T", T))}
        paths = {kind: _write(corpus, f"{kind}_{name}", X)
                 for kind, X in (("S", S), ("E", E), ("T", T))}
        gen_path = str(corpus / f"gen_{name}.gsi")
        seed_op, seed_cli = rng.randrange(1 << 30), rng.randrange(1 << 30)

        def generated(out, S=S, gen_path=gen_path):
            text = Path(gen_path).read_text(encoding="utf-8")
            E2 = gsi.parse_gsi(text)
            if gsi.emit_gsi(E2) != text:
                return "gsi gen random wrote a non-normalized document"
            return passed(gsi.validate(E2, S))

        ops += [roundtrip(f"{kind}_{name}", text, text) for kind, text in texts.items()]
        ops += [
            Op(f"validate E in S {name}",
               lambda name=name: gsi.validate(state[f"E_{name}"], state[f"S_{name}"]),
               expect(passed),
               lambda _, name=name: None if oracle.brute_contains(
                   state[f"E_{name}"], state[f"E_{name}"].m) else "oracle lost the minimum"),
            Op(f"validate T in S {name}",
               lambda name=name: gsi.validate(state[f"T_{name}"], state[f"S_{name}"]),
               expect(passed)),
            Op(f"validate S semigroup {name}",
               lambda name=name: gsi.validate(state[f"S_{name}"], semigroup=True),
               expect(passed)),
            Op(f"random_good {name}",
               lambda name=name, s=seed_op: gsi.random_good(state[f"S_{name}"], s),
               expect(lambda E2, S=S: passed(gsi.validate(E2, S)))),
            cli_validate(f"E_{name}", paths["E"], 0),
            cli_validate(f"T_{name}", paths["T"], 0),
            Op(f"gsi info E_{name}", lambda path=paths["E"]: run_cli(["info", path]),
               expect_cli(0)),
            Op(f"gsi gen random {name}",
               lambda s_path=paths["S"], gen_path=gen_path, s=seed_cli: run_cli(
                   ["gen", "random", "--semigroup", s_path, "--seed", str(s),
                    "-o", gen_path]),
               expect_cli(0, generated)),
        ]
        if name == "prod24x20":
            text = _nonminimal_text(E)
            path = corpus / f"nonminimal_{name}.gsi"
            path.write_text(text, encoding="utf-8")
            ops += [roundtrip(f"nonminimal_{name}", text, texts["E"]),
                    cli_validate(f"nonminimal_{name}", str(path), 0)]

    for span in SPARSE_SPANS:
        E = _sparse(rng, span)
        name = "sparse_" + "x".join(map(str, span))
        path = _write(corpus, name, E)
        text = gsi.emit_gsi(E)
        ops += [roundtrip(name, text, text), cli_validate(name, path, 0)]

    for axiom, (m, c, elems) in BROKEN.items():
        delta = (rng.randint(-5, 5), rng.randint(-5, 5))
        m, c, elems = vadd(m, delta), vadd(c, delta), [vadd(p, delta) for p in elems]
        text = "\n".join(["gsi 1", "r 2", "min %d %d" % m, "conductor %d %d" % c]
                         + ["elem %d %d" % p for p in elems]) + "\n"
        path = corpus / f"broken_{axiom}.gsi"
        path.write_text(text, encoding="utf-8")

        def rejected(value, axiom=axiom):
            if isinstance(value, Raised) and isinstance(value.error, ValidationError):
                got = value.error.report.counterexamples[0]["axiom"]
                blob = f"rejected {got}\n".encode()
                return blob, None if got == axiom else f"rejected for {got}, not {axiom}"
            return _text_of(value).encode(), f"accepted a document failing {axiom}"

        ops += [Op(f"parse broken_{axiom}", lambda text=text: gsi.parse_gsi(text), rejected),
                cli_validate(f"broken_{axiom}", str(path), 1)]
    return ops


BUILDERS = {"checks": _checks, "duals": _duals, "ingest": _ingest}
NAMES = tuple(BUILDERS)


def build(workload: str, seed: int, corpus: Path) -> list[Op]:
    """Generate the workload's corpus for ``seed`` under ``corpus`` and return
    its ops."""
    corpus.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), corpus)
