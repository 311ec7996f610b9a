#!/usr/bin/env python3
"""Builds and runs the AutoCE end-to-end benchmark.

    python3 perfbench/run.py --workload recommend --seed 7 --seconds 15 --trace 0

Run it from the repository root. It builds perfbench/ (the libraries
under src/ plus the benchmark binary) into .bench_build/perfbench, runs
one workload with AUTOCE_THREADS = min(4, nproc), and prints the binary's
output. Its last stdout line is one JSON object: the end-to-end metrics
named in BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
A per-layer metric a workload does not produce is reported as 0: that
layer is bypassed on that workload. The exit code is non-zero when the
build fails, a metric is missing, or a correctness check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no AutoCE sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", str(BUILD), "-j", str(threads())]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    build()

    # Only the thread count is inherited from us: fault injection, metric
    # dumps and SIMD overrides in the caller's environment must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AUTOCE_")}
    env["AUTOCE_THREADS"] = str(threads())
    out_dir = BUILD / "out" / args.workload
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no result line (exit code {proc.returncode})")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} missing")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name} has unit {got['unit']}, expected {unit}")
        metrics[name] = got
    print(json.dumps({"correct": result["correct"] and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
