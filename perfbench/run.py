#!/usr/bin/env python3
"""Build and run the Halfback simulator's campaign benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. Build output goes to stderr. The benchmark prints its metrics and,
as the last line of stdout, one JSON result object; run.py checks that line
against BENCHMARK.json (every end-to-end metric with --trace 0, every
per-layer metric with --trace 1, each with its unit) and exits non-zero if
the build, a run, an output check or that comparison fails.

The workload seed is an argument. DEFAULT_SEED is the seed the benchmark's
figures were tuned on; HELD_OUT_SEED was not used while tuning: pass it with
--seed to confirm a later claim. --seconds defaults to BENCHMARK.json's
run_seconds.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
RUN_TIMEOUT_S = 175
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configure (once) and build `target`; return the binary's path."""
    out = build_dir()
    if not (ROOT / "src").is_dir():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    log = sys.stderr
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail(f"building {target} failed")
    return out / target


def expected_metrics(definition, trace):
    return {m["name"]: m["unit"]
            for m in definition["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Problems with the benchmark's result line (empty when it is valid)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} must have exactly value and unit")
            continue
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"metric {name} has a non-numeric value")
        if not UNIT.match(str(m["unit"])):
            problems.append(f"metric {name} has a bad unit {m['unit']!r}")
        elif name in expected and m["unit"] != expected[name]:
            problems.append(f"metric {name} unit {m['unit']} != {expected[name]}")
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's own helpers")
    args = ap.parse_args()

    if args.selftest:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode

    definition_path = ROOT / "BENCHMARK.json"
    if not definition_path.is_file():
        fail(f"{definition_path} not found")
    definition = json.loads(definition_path.read_text())
    workloads = [w["name"] for w in definition["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    seconds = args.seconds if args.seconds is not None else definition["run_seconds"]

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(build_dir() / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        print(lines[-1], flush=True)
        fail(f"benchmark exited with {proc.returncode}")
    problems = check_result(lines[-1], expected_metrics(definition, args.trace))
    if problems:
        fail("; ".join(problems))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
