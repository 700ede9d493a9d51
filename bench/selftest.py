"""Tests of the benchmark itself (not of the gsi package).

Run from the root of a checkout; takes about two minutes::

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench_run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(proc) -> list[str]:
    return [line for line in proc.stdout.splitlines() if line.startswith("digest:")]


class CorpusTest(unittest.TestCase):
    def test_same_seed_gives_identical_gsi_files(self):
        for workload in workloads.NAMES:
            dirs = [SCRATCH / f"corpus-{workload}-{k}" for k in range(3)]
            for d, seed in zip(dirs, (11, 11, 12)):
                shutil.rmtree(d, ignore_errors=True)
                workloads.build(workload, seed, d)
            files = [{p.name: p.read_bytes() for p in d.glob("*.gsi")} for d in dirs]
            self.assertTrue(files[0])
            self.assertEqual(files[0], files[1], workload)
            self.assertNotEqual(files[0], files[2], workload)


class ProbeTest(unittest.TestCase):
    def test_scaling_is_relative_to_the_quiet_probe(self):
        self.assertEqual(probe.scaled(1000, [probe.QUIET_NS]), 1000)
        self.assertEqual(probe.scaled(1000, [probe.QUIET_NS, 3 * probe.QUIET_NS]), 500)

    def test_sampler_probes_while_an_op_runs_and_stops(self):
        sampler = probe.Sampler()
        seen = []
        sampler.on_sample = seen.append
        sampler.start()
        end = time.monotonic() + 10 * probe.SAMPLE_EVERY_S
        while time.monotonic() < end:
            pass
        samples = sampler.stop()
        self.assertGreaterEqual(len(samples), 3)
        self.assertEqual(samples, seen)
        time.sleep(3 * probe.SAMPLE_EVERY_S)
        self.assertEqual(len(sampler.samples), len(samples))


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_names_and_limits(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [m["name"] for m in spec["end_to_end"]]
        layers = [m["name"] for m in spec["per_layer"]]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layers), 128)
        for name in e2e + layers + [w["name"] for w in spec["workloads"]]:
            self.assertRegex(name, NAME)
        self.assertEqual(len(set(e2e + layers)), len(e2e + layers))
        self.assertEqual(layers, [*tracing.PER_LAYER, "trace.overhead_ratio"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


class RunTest(unittest.TestCase):
    """Two traced runs per workload: each alternates an untraced and a traced
    pass, so one run compares their digests and two runs compare counts."""

    def test_traced_runs_repeat_counts_and_digest(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer_names = [m["name"] for m in spec["per_layer"]]
        for workload in workloads.NAMES:
            a, b = bench_run(workload, 5, 1), bench_run(workload, 5, 1)
            for proc in (a, b):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                doc = last_json(proc)
                self.assertTrue(doc["correct"], proc.stdout)
                self.assertEqual(doc["failed"], 0)
                self.assertEqual(list(doc["metrics"]), layer_names)
                self.assertEqual(len(digests(proc)), 1, "traced and untraced digests differ")
            self.assertEqual(digests(a), digests(b))
            ma, mb = last_json(a)["metrics"], last_json(b)["metrics"]
            for name in layer_names:
                if name.endswith((".calls", ".distinct_ratio")):
                    self.assertEqual(ma[name], mb[name], f"{workload} {name}")

    def test_spans_account_for_the_reported_counts(self):
        proc = bench_run("ingest", 7, 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = last_json(proc)["metrics"]
        spans = tracing.read_spans(ROOT / ".bench_out" / "ingest-7" / "spans-pass-1")
        self.assertTrue(spans)
        for i, (name, start, end, parent, op) in enumerate(spans):
            self.assertLessEqual(start, end)
            self.assertGreaterEqual(op, 0)
            if parent >= 0:
                self.assertLess(parent, i)
                _, p_start, p_end, _, p_op = spans[parent]
                self.assertTrue(p_start <= start and end <= p_end and p_op == op)
        for name in ("cli.main", "gsi_format.parse_gsi", "ideal.validate"):
            calls = sum(1 for span in spans if span[0] == name)
            self.assertEqual(calls, metrics[f"{name}.calls"]["value"], name)

    def test_untraced_run_reports_end_to_end_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = bench_run("ingest", 6, 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = last_json(proc)
        self.assertTrue(doc["correct"])
        self.assertEqual(list(doc["metrics"]), [m["name"] for m in spec["end_to_end"]])
        for m in spec["end_to_end"]:
            self.assertEqual(doc["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(doc["metrics"][m["name"]]["value"], 0)

    def test_fails_without_the_package_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench_run("checks", 1, 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
