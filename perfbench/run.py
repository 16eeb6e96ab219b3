#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One workload (the form the benchmark contract uses):
    python3 perfbench/run.py --workload serve_ckat --seed 3 --seconds 40 --trace 0

Every workload, printing every end-to-end metric by name with its unit and
exiting non-zero if any correctness check fails (--trace 1 adds the
per-layer table and tracing overhead of each):
    python3 perfbench/run.py --all [--seed 1] [--seconds 40] [--trace 1]

The benchmark's own unit tests (statistics and BENCHMARK.json limits):
    python3 perfbench/run.py --self-test

Run from the repository root. The program is built from source: CMake
configures the repository root as the top-level project, with
perfbench/cmake/project_hook.cmake adding the benchmark's targets, into
$CARGO_TARGET_DIR/ckat (default .bench_build/ckat); scratch files go under
$CARGO_TARGET_DIR/run.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics untraced, per-layer
metrics with --trace 1).
"""
import argparse
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
# Workloads the program runs that BENCHMARK.json does not gate: their
# figures swing more from run to run than any bound allows on a 4-vCPU
# host with CPU steal (see README). --all still runs and prints them.
UNGATED = ["serve_sharded", "refresh_under_load"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures and builds `target`; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("repository sources (CMakeLists.txt, src/) not found; nothing to build")
    out = os.path.join(build_dir(), "ckat")
    hook = os.path.join(ROOT, "perfbench", "cmake", "project_hook.cmake")
    steps = [
        ["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
         f"-DCMAKE_PROJECT_ckat_INCLUDE={hook}"],
        ["cmake", "--build", out, "--target", target, "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench", target)


def run_program(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its report and returns the parsed result."""
    workdir = os.path.join(build_dir(), "run")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--workdir", workdir]
    if trace:
        program_trace = os.path.join(workdir, f"{workload}-seed{seed}.ckat.jsonl")
        if os.path.exists(program_trace):
            os.remove(program_trace)
        env["CKAT_TRACE_FILE"] = program_trace
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    for line in done.stderr.splitlines():
        if "warning" in line:
            print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{workload} printed no result (exit code {done.returncode})")
    if done.returncode != 0 and result.get("correct"):
        result["correct"] = False
    return result


def select(result, specs):
    """The contract's metrics: exactly the named ones, each finite."""
    metrics, missing = {}, []
    for spec in specs:
        entry = result["metrics"].get(spec["name"])
        if entry is None or entry["value"] is None or not math.isfinite(entry["value"]):
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    return metrics, missing


def measure(binary, spec, workload, seed, seconds, trace):
    """One benchmark run as the contract defines it."""
    untraced = run_program(binary, workload, seed, seconds, False)
    chosen = untraced
    if trace:
        chosen = run_program(binary, workload, seed, seconds, True)
        base = untraced["metrics"]["work_ms"]["value"]
        traced = chosen["metrics"]["work_ms"]["value"]
        chosen["metrics"]["obs.trace_overhead_frac"] = {
            "value": traced / base - 1.0 if base > 0 else 0.0, "unit": "ratio"}
        chosen["correct"] = chosen["correct"] and untraced["correct"]
    metrics, missing = select(chosen, spec["per_layer" if trace else "end_to_end"])
    correct = bool(chosen["correct"]) and not missing
    if missing:
        print(f"perfbench: metrics missing from the run: {', '.join(missing)}",
              file=sys.stderr)
    for name, ok in chosen.get("checks", {}).items():
        if not ok:
            print(f"perfbench: correctness check failed: {name}", file=sys.stderr)
    return {"correct": correct, "attempted": int(chosen["attempted"]),
            "failed": int(chosen["failed"]), "metrics": metrics}, chosen


def print_table(title, metrics):
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}")


# Serving and training names the benchmark also prints, per workload.
NAMED = ["fit_epoch_s", "fit_epoch_1t_s", "serve_p50_ms", "serve_p99_ms", "knee_qps",
         "failed_frac", "refresh_cycle_s"]


def run_all(binary, spec, seed, seconds, traced):
    all_correct = True
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        gated = "" if workload not in UNGATED else ", not gated by BENCHMARK.json"
        print(f"\n=== {workload} (seed {seed}, {seconds} s{gated}) ===")
        result, raw = measure(binary, spec, workload, seed, seconds, False)
        print_table("end-to-end:", result["metrics"])
        named = {n: raw["metrics"][n] for n in NAMED if n in raw["metrics"]}
        print_table("the same numbers under their workload-specific names:", named)
        all_correct = all_correct and result["correct"]
        if traced:
            layers, _ = measure(binary, spec, workload, seed, seconds, True)
            print_table("per-layer (traced run):", layers["metrics"])
            all_correct = all_correct and layers["correct"]
        print(f"correct: {result['correct']}")
    print(json.dumps({"correct": all_correct}))
    return 0 if all_correct else 1


def self_test():
    done = subprocess.run([build("perfbench_tests")])
    suite = unittest.defaultTestLoader.discover(os.path.join(ROOT, "perfbench", "tests"),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if done.returncode == 0 and ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.all:
        return run_all(build("perfbench"), spec, args.seed, seconds, args.trace == 1)
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    binary = build("perfbench")
    result, raw = measure(binary, spec, args.workload, args.seed, seconds, args.trace == 1)
    print_table("every metric of the run:", raw["metrics"])
    for key, value in sorted(raw.get("info", {}).items()):
        print(f"  info {key}: {value}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
