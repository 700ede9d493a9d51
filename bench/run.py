#!/usr/bin/env python3
"""Benchmark of the gsi package.

Run from the root of a checkout::

    python3 bench/run.py --workload {checks,duals,ingest} --seed N \
        --seconds S --trace {0,1}

A run makes a fixed number of passes over the workload's seeded ops,
``--seconds`` divided by NOMINAL_PASS_S.  One ``bench/worker.py`` process
builds the corpus and forks a fresh child for every pass, which runs the
ops with one caller in a closed loop; no cache survives from one pass to
the next.  Set-up (interpreter start, ``import gsi``, corpus generation and
writing the GSI files) is timed in that process and in SETUP_RUNS extra
set-up-only processes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give the output digest, the pass count, the tail percentile and how much
other load on the host slowed the run.

End-to-end metrics are measured with tracing off.  Every time among them is
scaled to the host's quiet speed by the reference probes taken around it
(see ``probe.py``), because load from outside the benchmark comes in phases
that can slow a whole run down.

* ``setup_s``: median scaled time, over the run's worker processes, from
  spawning a worker until its corpus is ready, less the probes it ran.
* ``wall_s``: one pass over the workload's ops, each op at the median of
  its scaled latencies over the passes.
* ``op_p50_ms``: median of the scaled latencies of all ops of all passes.
* ``op_tail_ms``: the same latencies at the highest percentile that has at
  least ten latencies beyond it.
* ``peak_rss_mb``: median over passes of the pass process's ``ru_maxrss``.
* ``ok_ratio``: ops that succeeded divided by ops attempted.

With ``--trace 1`` the run alternates untraced and traced passes.  The
per-layer metrics come from the traced ones (see ``tracing.py``), and
``trace.overhead_ratio`` is the traced ``wall_s`` divided by the untraced
one.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("checks", "duals", "ingest")
# Seconds one untraced pass takes on a quiet host at the commit that defined
# the benchmark.  A run makes a fixed number of passes from ``--seconds`` and
# this, so every run of a workload, on any commit, pools the same number of
# op latencies.
NOMINAL_PASS_S = {"checks": 4.5, "duals": 4.7, "ingest": 1.95}
MIN_PASSES = 3
# Set-up-only processes per run, on top of the process that makes the passes.
SETUP_RUNS = 6
# Every run must end within 180 s; stop waiting for the workers after this.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the worker's group is left."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_worker(workload: str, seed: int, out: Path, tag: str, deadline: float,
               plan: str = "") -> float:
    """Spawn one worker and return its scaled set-up time in seconds.  An
    empty ``plan`` makes it a set-up-only worker; otherwise its passes write
    their results under ``out``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--plan", plan] if plan else ["--setup-only"]
    log = out / f"{tag}.log"
    with open(log, "w") as err:
        start = time.perf_counter_ns()
        # A session of its own, so that the worker and the children it forks
        # can be killed together.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            ready = proc.stdout.readline().split()
            setup_ns = time.perf_counter_ns() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.returncode is None:
                _kill_group(proc.pid)
                proc.wait()
            _wait_group_gone(proc.pid)
            proc.stdout.close()
    if len(ready) != 3 or ready[0] != "ready" or code != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"{tag} of {workload} failed (exit {code}):\n{tail}")
    mean_probe_ns, probes_ns = float(ready[1]), int(ready[2])
    return probe.scaled(setup_ns - probes_ns, [mean_probe_ns]) / 1e9


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> tuple[list[dict], list[float]]:
    """The run's passes and scaled set-up times.

    Untraced runs make ``seconds / NOMINAL_PASS_S`` passes (at least
    MIN_PASSES); traced runs alternate an untraced and a traced pass about a
    third as often.  The first pass also runs the oracle cross-checks.
    """
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_out" / f"{workload}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("pass-*.json"):
        old.unlink()
    if trace:
        plan = "01" * max(1, round(seconds / (3 * NOMINAL_PASS_S[workload])))
    else:
        plan = "0" * max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    setups = [run_worker(workload, seed, out, f"setup-{k}", deadline)
              for k in range(SETUP_RUNS)]
    setups.append(run_worker(workload, seed, out, "passes", deadline, plan))
    passes = [json.loads((out / f"pass-{k}.json").read_text()) for k in range(len(plan))]
    return passes, setups


def scaled_ms(p: dict) -> list[float]:
    """The pass's op latencies in ms, each scaled by the probes around and
    inside it."""
    return [probe.scaled(ns, probes) / 1e6 for _, ns, probes in p["ops"]]


def load_factor(passes: list[dict]) -> float:
    """How much slower than quiet the probes ran, as a median over the run."""
    return statistics.median(
        x for p in passes for _, _, probes in p["ops"] for x in probes) / probe.QUIET_NS


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten values beyond it,
    with that percentile and the sample count."""
    xs = sorted(values)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float], ok_ratio: float) -> dict:
    plain = [scaled_ms(p) for p in passes if not p["traced"]]
    per_op = [statistics.median(xs) for xs in zip(*plain)]
    pooled = [x for pass_ms in plain for x in pass_ms]
    tail, pct, n = tail_latency(pooled)
    print(f"op_tail_ms: p{pct:.1f} of {n} ops over {len(plain)} passes")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(per_op) / 1e3, "s"),
        "op_p50_ms": metric(statistics.median(pooled), "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(statistics.median(p["rss_kb"] / 1024 for p in passes
                                                if not p["traced"]), "MB"),
        "ok_ratio": metric(ok_ratio, "1"),
    }


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced pass; scaled self times as medians
    over the traced passes.

    Counts must repeat exactly between traced passes; any that do not are
    returned as problems.
    """
    traced = [p for p in passes if p["traced"]]
    layers = [p["layers"] for p in traced]
    first = layers[0]
    problems = [f"{name} differs between traced passes" for name, v in first.items()
                if not name.endswith(".self_s") and any(t[name] != v for t in layers)]
    out = {}
    for name, v in first.items():
        if name.endswith(".self_s"):
            out[name] = metric(statistics.median(t[name] for t in layers), "s")
        elif name.endswith(".distinct_ratio"):
            out[name] = metric(v, "1")
        else:
            out[name] = metric(v, "count")

    def wall(group):
        return statistics.median(sum(scaled_ms(p)) for p in group)

    ratio = wall(traced) / wall([p for p in passes if not p["traced"]])
    out["trace.overhead_ratio"] = metric(ratio, "1")
    return out, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gsi" / "__init__.py").is_file():
        print(f"no gsi sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1

    problems = [f"pass {i}: {label}: {msg}"
                for i, p in enumerate(passes) for label, msg in p["problems"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = len(problems)
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        problems.append(f"passes disagree on the output digest: {sorted(digests)}")
    if args.trace:
        metrics, count_problems = per_layer(passes)
        problems += count_problems
    else:
        metrics = end_to_end(passes, setups, (attempted - failed) / attempted)

    n_traced = sum(p["traced"] for p in passes)
    print(f"passes: {len(passes) - n_traced} untraced, {n_traced} traced")
    print(f"host load: the probes ran {load_factor(passes):.2f} times slower than quiet")
    for digest in sorted(digests):
        print(f"digest: sha256:{digest}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
