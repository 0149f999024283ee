#!/usr/bin/env python3
"""Paper-regeneration benchmark: build the perfbench binary, run one
workload, print the result as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 5 \
        --trace 0

The perfbench binary is built from source (Release) under $CARGO_TARGET_DIR,
or .bench_build when that is unset. Scratch stores and exported records
live under .bench_work/ and are removed on exit. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. Any build failure, crash, or mismatch between the printed metric
names and BENCHMARK.json exits non-zero without a result.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cold", "paper_sampled_fill", "paper_warm_cache")
# setup_s is the median of this many set-ups: these extra start-ups that
# stop at the first dispatched cell, half before the measured run and half
# after it, plus the measured run's own.
SETUP_PROBES = 12
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, extra, echo):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", args.workdir, "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    metrics, result = {}, None
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[:1] == ["result"] and len(parts) == 3:
            result = (int(parts[1]), int(parts[2]))
        elif echo:
            print(line)
    return metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--load-delay-us", type=float, default=0.0,
                    help="delay added to every result-cache load "
                         "(sensitivity self-check only)")
    ap.add_argument("--spans-out", default="",
                    help="with --trace 1, copy the span dump here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    args.workdir = os.path.join(ROOT, ".bench_work",
                                f"{args.workload}-{os.getpid()}")
    try:
        delay = ["--load-delay-us", repr(args.load_delay_us)]
        setups = []

        def probe_setups(count):
            for _ in range(count):
                probe, _ = run_binary(binary, args, ["--setup-only"], False)
                setups.append(probe["setup_s"][0])

        if not args.trace:
            probe_setups(SETUP_PROBES // 2)
        metrics, result = run_binary(
            binary, args, delay if args.load_delay_us else [], True)
        if not args.trace:
            probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
        if args.spans_out and args.trace:
            shutil.copy(os.path.join(args.workdir, "spans.json"),
                        args.spans_out)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    if result is None:
        fail("perfbench printed no result line")
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"][0])
        metrics["setup_s"] = (statistics.median(setups), "s")
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        units = sorted(n for n in got if expected.get(n, got[n]) != got[n])
        fail(f"printed metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}, units {units}")
    bad = sorted(n for n, (v, _) in metrics.items() if not math.isfinite(v))
    if bad:
        fail(f"non-finite metrics {bad}")
    attempted, failed = result
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
