#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch-clean --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own arithmetic tests

Run from the repository root. The C++ benchmark program (perfbench/cc) is built with
CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset. Workload
parameters come from perfbench/workloads.json; the metric names and units the
result must carry come from BENCHMARK.json. The last line of stdout is the
JSON result; the exit status is 0 only when every output check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(build_dir, exist_ok=True)
    # Runs started side by side in one checkout build one at a time.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def short_path(path):
    rel = os.path.relpath(path)
    return rel if len(rel) < len(os.path.abspath(path)) else os.path.abspath(path)


def gate(result, expected):
    """Keeps exactly the metrics BENCHMARK.json lists for this mode.

    The program prints every metric it measured; those not listed (for
    example the tail latencies, see workloads.json) stay in its report
    lines only. Returns why the result cannot be gated, or None.
    """
    names = {m["name"]: m["unit"] for m in expected}
    got = result.get("metrics", {})
    missing = sorted(set(names) - set(got))
    if missing:
        return f"metrics missing from the run: {missing}"
    for name, unit in names.items():
        if got[name].get("unit") != unit:
            return f"{name} has unit {got[name].get('unit')}, BENCHMARK.json says {unit}"
    result["metrics"] = {name: got[name] for name in names}
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(HERE, "workloads.json")) as f:
            spec = json.load(f)
        if args.test:
            return subprocess.run([build(build_dir, "perfbench_arith_test")]).returncode
        binary = build(build_dir, "perfbench")
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"cannot build the benchmark: {e}")
        return 2
    if args.workload not in spec["workloads"] or args.seed is None:
        log(f"need --seed and --workload, one of {sorted(spec['workloads'])}")
        return 2

    work_dir = short_path(os.path.join(build_dir, f"work-{os.getpid()}"))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    for key, value in spec["workloads"][args.workload]["params"].items():
        cmd += ["--set", f"{key}={value}"]
    env = dict(os.environ)
    env.pop("SEMDRIFT_THREADS", None)  # The program's default thread count.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit {proc.returncode})")
        return 1
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    problem = gate(result, expected)
    print("\n".join(lines[:-1]), flush=True)
    if problem is not None:
        log(problem)
        return 1
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"output checks failed (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
