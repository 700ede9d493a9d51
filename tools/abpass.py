"""Alternate forked benchmark passes of two checkouts, to compare them.

Standard library only; it writes nothing in either checkout, not even
bytecode caches.  Run it from anywhere:

    python tools/abpass.py PARENT CHANGE --workload checks --seed 1 --passes 30

One worker process per checkout imports that checkout's
``bench/worker.py`` (and with it ``src``, ``bench/workloads.py`` and
``bench/probe.py``), and builds the seeded corpus once, under a temporary
directory of its own that it runs in, so the CLI ops of both sides name
the same relative paths.  The workers are started one after the other.
Then they take turns, one pass each per round, the parent first in even
rounds and the change first in odd ones.  A pass is the bench's own
forked pass (``worker.forked_pass``), so every pass starts from the state
the corpus left: every op once, in order, each op's latency less the
probes inside it, here scaled to the quiet speed by the probes before,
inside and after it (``bench/probe.py``).  Only the ops' checks, not the
oracle cross-checks, run after the timed loop, for the output digest.

It prints, per side, the median pass time (the sum of a pass's scaled
latencies), the median of all its scaled op latencies (``op_p50_ms``), the
rounds it won and its output digest.  It exits with 1 when the two sides'
digests differ, so their outputs are not the same.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def serve(root: Path, workload: str, seed: int) -> int:
    """The worker: build the corpus, print ``ready``, then run one forked
    pass per line read and print its scaled latencies and digest as one
    JSON line."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(root / "bench"))
    import worker  # puts the checkout's src first on the path and imports gsi

    worker.SAMPLER.stop()  # it samples the bench worker's set-up from import on
    if not Path(worker.gsi.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported gsi from {worker.gsi.__file__}, not from {root}", file=sys.stderr)
        return 2
    ops = worker.workloads.build(workload, seed, Path("corpus"))
    print("ready", flush=True)
    for _ in sys.stdin:
        if worker.forked_pass(ops, Path("."), 0, False, False) != 0:
            print("failed", flush=True)
            continue
        result = json.loads(Path("pass-0.json").read_text())
        ms = [worker.probe.scaled(ns, around) / 1e6 for _, ns, around in result["ops"]]
        print(json.dumps({"ms": ms, "digest": result["digest"]}), flush=True)
    return 0


class Side:
    """One checkout's worker, running in its own temporary directory."""

    def __init__(self, name: str, root: Path, workload: str, seed: int) -> None:
        self.name = name
        self.dir = tempfile.TemporaryDirectory(prefix=f"abpass-{name}-")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
             "--workload", workload, "--seed", str(seed)],
            cwd=self.dir.name, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.passes: list[list[float]] = []
        self.digests: set[str] = set()
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line or (what and line.strip() != what) or line.strip() == "failed":
            raise RuntimeError(f"{self.name} worker failed (wanted {what or 'a pass'})")
        return line

    def run_pass(self) -> None:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        result = json.loads(self._expect(""))
        self.passes.append(result["ms"])
        self.digests.add(result["digest"])

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.dir.cleanup()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        return serve(args.worker.resolve(), args.workload, args.seed)
    if args.parent is None or args.change is None:
        ap.error("give the PARENT and the CHANGE checkout")
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    sides: list[Side] = []
    try:
        for name, root in (("parent", args.parent), ("change", args.change)):
            sides.append(Side(name, root.resolve(), args.workload, args.seed))
        for k in range(args.passes):
            for side in sides if k % 2 == 0 else sides[::-1]:
                side.run_pass()
    finally:
        for side in sides:
            side.close()

    totals = [[sum(p) for p in side.passes] for side in sides]
    wins = [sum(a < b for a, b in zip(mine, other))
            for mine, other in ((totals[0], totals[1]), (totals[1], totals[0]))]
    print(f"{args.workload} seed {args.seed}, {args.passes} passes per side")
    print("side    pass_ms  op_p50_ms  won  digest")
    for side, total, won in zip(sides, totals, wins):
        pooled = [x for p in side.passes for x in p]
        digest = ",".join(d[:16] for d in sorted(side.digests))
        print(f"{side.name:<7} {statistics.median(total):8.2f} "
              f"{statistics.median(pooled):10.3f}  {won}/{args.passes}  {digest}")
    if sides[0].digests != sides[1].digests or len(sides[0].digests) != 1:
        print("the two sides' output digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
