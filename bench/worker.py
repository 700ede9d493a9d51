"""The passes of one benchmark run, in a process of their own.

Run by ``run.py`` from the root of a checkout::

    python3 bench/worker.py --workload checks --seed 1 --out DIR \
        [--plan 0101] [--setup-only]

The process imports ``gsi`` from the checkout's ``src``, builds the seeded
corpus and prints ``ready`` with the mean and the total time of the
reference probes it ran during set-up (see ``probe.py``).  With
``--setup-only`` it then exits.  Otherwise it makes one pass per character
of ``--plan`` (``1`` for a traced pass), each in a child forked from the
set-up process, so every pass starts from the same state and no cache
survives from one pass to the next.

A pass runs every op once, in order, with one caller in a closed loop, and
probes before the first op, after each op and while each op runs.  It
writes ``pass-<k>.json`` under ``--out``: for each op its latency less the
probes inside it and the probes around and inside it, then the output
digest, the problems found, the peak RSS and, for a traced pass, the
per-layer values (spans go to ``spans-pass-<k>.bin/.json``).  The oracle
cross-checks run after the timed loop of the first pass.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import probe

# Set-up starts here, as far as Python code can see it: sample the host's
# speed from now until the corpus is ready.
SAMPLER = probe.Sampler()
SETUP_PROBES = [probe.probe()]
SAMPLER.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gsi  # noqa: E402  (set-up includes the import)

import tracing  # noqa: E402
import workloads  # noqa: E402


def corpus_dir(workload: str, seed: int) -> Path:
    """Relative to the checkout root, so CLI output is the same in every
    checkout."""
    return Path(".bench_out") / f"{workload}-{seed}" / "corpus"


def run_pass(ops: list[workloads.Op], tracer: tracing.Tracer | None):
    """Each op's value, latency less the probes inside it, and the probes
    before, inside and after it."""
    values, latencies, probes = [], [], []
    clock = time.perf_counter_ns
    before = probe.probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        SAMPLER.start()
        t = clock()
        try:
            value = op.call()
        except Exception as err:  # an op's failure is a result to report
            value = workloads.Raised(err)
        finally:
            inside = SAMPLER.stop()
        ns = clock() - t - sum(inside)
        after = probe.probe()
        values.append(value)
        latencies.append(ns)
        probes.append([before, *inside, after])
        before = after
    return values, latencies, probes


def _problem(fn, value) -> str | None:
    try:
        return fn(value)
    except Exception as err:  # a check that cannot run counts the op as failed
        return f"check raised {type(err).__name__}: {err}"


def one_pass(ops: list[workloads.Op], out: Path, index: int, traced: bool,
             verify: bool) -> None:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        SAMPLER.on_sample = tracer.add_probe
    values, latencies, probes = run_pass(ops, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.uninstall()
        SAMPLER.on_sample = None
        layers = tracer.summary([probe.speed(around) for around in probes])
        tracer.write(out / f"spans-pass-{index}")

    digest = hashlib.sha256()
    problems = []
    for op, value in zip(ops, values):
        try:
            blob, problem = op.check(value)
        except Exception as err:  # see _problem
            blob, problem = b"", f"check raised {type(err).__name__}: {err}"
        digest.update(op.label.encode() + b"\0" + blob + b"\0")
        if problem is None and verify and op.verify is not None:
            problem = _problem(op.verify, value)
        if problem is not None:
            problems.append([op.label, problem])

    (out / f"pass-{index}.json").write_text(json.dumps({
        "traced": traced,
        "ops": [[op.label, ns, around] for op, ns, around in zip(ops, latencies, probes)],
        "rss_kb": rss_kb,
        "digest": digest.hexdigest(),
        "problems": problems,
        "layers": layers,
    }) + "\n")


def forked_pass(*args) -> int:
    """Run :func:`one_pass` in a forked child and return its exit status."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        # The child must never return into the parent's loop: report any
        # error and leave through os._exit.
        code = 1
        try:
            one_pass(*args)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--plan", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(gsi.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported gsi from {gsi.__file__}, not from this checkout", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, corpus_dir(args.workload, args.seed))
    SETUP_PROBES.extend(SAMPLER.stop())
    SETUP_PROBES.append(probe.probe())
    print(f"ready {statistics.fmean(SETUP_PROBES):.0f} {sum(SETUP_PROBES)}", flush=True)
    if args.setup_only:
        return 0

    for index, traced in enumerate(args.plan):
        code = forked_pass(ops, args.out, index, traced == "1", index == 0)
        if code != 0:
            print(f"pass {index} exited with {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
