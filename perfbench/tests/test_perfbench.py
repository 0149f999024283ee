#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m unittest perfbench/tests/test_perfbench.py

They run perfbench/run.py as BENCHMARK.json's command does and take about
twelve minutes on four cores (the sensitivity check alone makes twenty-three
workload runs). Every run measures for BENCHMARK.json's run_seconds.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
# Each cell span's children (load, construct/reinit, run, store and the
# replay's own checkpoint-directory scan) must cover it to within this
# share of the summed cell time, and any one cell to within 5%.
SPAN_TOLERANCE = 0.02
CELL_SPAN_TOLERANCE = 0.05


def run_bench(workload, seed, trace=0, extra=(), cwd=ROOT):
    """One benchmark run; returns (exit code, stdout lines, result)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def value(result, name):
    return result["metrics"][name]["value"]


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json_one_to_one(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = run_bench("paper_warm_cache", 1, trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(got, expected)


class SpanAccounting(unittest.TestCase):
    def check_workload(self, workload):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            spans_path = os.path.join(tmp, "spans.json")
            code, _, result = run_bench(workload, 3, 1,
                                        ["--spans-out", spans_path])
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            with open(spans_path) as f:
                spans = json.load(f)
        children = {}
        for s in spans:
            if s["parent"] >= 0:
                children.setdefault(s["parent"], 0.0)
                children[s["parent"]] += s["end_us"] - s["start_us"]
        cell_total = covered = 0.0
        cells = [s for s in spans if s["name"] == "cell"]
        self.assertEqual(len(cells), value(result, "engine.cells"))
        for s in cells:
            span = s["end_us"] - s["start_us"]
            kids = children.get(s["id"], 0.0)
            self.assertLessEqual(kids, span + 1e-3)
            self.assertLessEqual(span - kids,
                                 CELL_SPAN_TOLERANCE * span + 20.0,
                                 f"cell span {s['id']} of {span:.1f}us has "
                                 f"{kids:.1f}us of children")
            cell_total += span
            covered += kids
        self.assertLessEqual((cell_total - covered) / cell_total,
                             SPAN_TOLERANCE)
        shares = (value(result, "core.detailed_share") +
                  value(result, "core.ff_share") +
                  value(result, "simulator.run_residual_frac"))
        self.assertAlmostEqual(shares, 1.0, places=6)

    def test_sampled_fill(self):
        self.check_workload("paper_sampled_fill")

    def test_warm_cache(self):
        self.check_workload("paper_warm_cache")


class Sensitivity(unittest.TestCase):
    """A busy-wait in the benchmark's own wrapper around the result-cache
    load, sized to add 10% to paper_warm_cache's cpu_s, must show on that
    workload's cpu_s and load span, and must leave paper_cold inside its
    bounds: the cold grids never load from the cache.

    Runs are paired (plain, delayed) on one seed and alternate, so a slow
    drift of the host's speed falls on both sides of a pair. A move counts
    as seen when at most one pair in five fails to move up and the median
    ratio of the pairs exceeds 1 by more than the quartile spread of the
    plain runs. The cpu_s bound (0.24) is wider than the 10% move, so the
    bound alone would not flag it; see NOTES.md.
    """

    SEEDS = (11, 12, 13, 14, 15)

    def pairs(self, workload, trace, delay_us, seeds):
        plain, slow = [], []
        for seed in seeds:
            for side, extra in ((plain, []),
                                (slow, ["--load-delay-us", str(delay_us)])):
                code, _, result = run_bench(workload, seed, trace, extra)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                side.append(result)
        return plain, slow

    def assert_seen(self, plain, slow, name):
        a = [value(r, name) for r in plain]
        b = [value(r, name) for r in slow]
        q = statistics.quantiles(a, n=4, method="inclusive")
        ratio = statistics.median(y / x for x, y in zip(a, b))
        self.assertLessEqual(sum(y <= x for x, y in zip(a, b)),
                             len(a) // 5, f"{name}: {a} {b}")
        self.assertGreater(ratio - 1.0, (q[2] - q[0]) / statistics.median(a),
                           f"{name}: {a} {b}")
        return ratio - 1.0

    def test_load_delay_moves_warm_cache_only(self):
        code, lines, base = run_bench("paper_warm_cache", self.SEEDS[0])
        self.assertEqual(code, 0)
        passes = next(l for l in lines if l.startswith("# passes"))
        loads = int(passes.split(" cells ")[1].split()[0])
        # Every warm cell is one load, and each busy-waits for the delay
        # on a worker thread, which the pass's CPU time counts.
        delay_us = 0.10 * value(base, "cpu_s") * 1e6 / loads

        plain, slow = self.pairs("paper_warm_cache", 0, delay_us, self.SEEDS)
        cpu_move = self.assert_seen(plain, slow, "cpu_s")
        plain, slow = self.pairs("paper_warm_cache", 1, delay_us,
                                 self.SEEDS[:3])
        load_move = statistics.median(
            value(b, "result_cache.load_us.p50") -
            value(a, "result_cache.load_us.p50") for a, b in zip(plain, slow))
        self.assertGreater(load_move, 0.5 * delay_us)

        plain, slow = self.pairs("paper_cold", 0, delay_us, self.SEEDS[:3])
        for name in ("cpu_s", "sim_minst_per_cpu_s"):
            a = statistics.median(value(r, name) for r in plain)
            b = statistics.median(value(r, name) for r in slow)
            self.assertLessEqual(abs(b / a - 1.0), BOUNDS[name], name)
        print(f"\nsensitivity: {delay_us:.1f}us per load; paper_warm_cache "
              f"cpu_s {cpu_move:+.3f} (bound {BOUNDS['cpu_s']}), "
              f"load_us.p50 {load_move:+.1f}us", file=sys.stderr)


class Refusals(unittest.TestCase):
    def test_benchmark_files_alone_fail_without_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, _ = run_bench("paper_cold", 1, cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))

    def test_unoptimised_build_is_refused(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            build = os.path.join(tmp, "build")
            for cmd in (["cmake", "-S", BENCH, "-B", build,
                         "-DCMAKE_BUILD_TYPE=Debug"],
                        ["cmake", "--build", build, "--target", "perfbench",
                         "-j", str(min(os.cpu_count() or 1, 4))]):
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            proc = subprocess.run(
                [os.path.join(build, "perfbench"), "--workload",
                 "paper_cold", "--seed", "1", "--seconds", "1", "--trace",
                 "0", "--workdir", os.path.join(tmp, "work")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("refusing", proc.stderr)
        self.assertNotIn("metric", proc.stdout)


if __name__ == "__main__":
    unittest.main()
