#!/usr/bin/env python3
"""End-to-end benchmark of fmtree: builds the benchmark binary from source,
then runs one workload and passes its output through. The last line of
standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the repository root:

    python3 e2ebench/run.py --workload study_cold --seed 1 --seconds 25 --trace 0

Workloads: study_cold, corridor_replay, served_mix (see e2ebench/README.md),
or "all" to run the three one after another, each in its own process; its
last line then sums the counts and prefixes every metric with the workload.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The build goes to .bench_build/e2ebench (RelWithDebInfo, the CLI's build
type); caches and sockets of a run live in .bench_build/run-<pid> and are
removed when the run ends.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

WORKLOADS = ("study_cold", "corridor_replay", "served_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "fmtree_e2e")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("e2ebench: " + message, file=sys.stderr)
    return code


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so standard output carries only the benchmark's lines."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "e2ebench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "fmtree_e2e",
                            "-j", jobs], stdout=sys.stderr) == 0


def commit():
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_workload(workload, args):
    """Runs one workload; returns (exit code, its JSON result or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    sys.stdout.flush()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, child.kill)
    watchdog.start()
    lines = []
    try:
        # Passed through line by line; the last line is the JSON result.
        for line in child.stdout:
            sys.stdout.write(line)
            lines.append(line)
        code = child.wait()
    finally:
        watchdog.cancel()
        # The binary removes its scratch directory itself; this covers a
        # killed run.
        shutil.rmtree(os.path.join(".bench_build", "run-%d" % child.pid), ignore_errors=True)
    if code < 0:
        return fail("run stopped by signal %d (limit %d s)" % (-code, RUN_TIMEOUT_S)), None
    try:
        return code, json.loads(lines[-1])
    except (IndexError, ValueError):
        return code or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0", 2)

    os.chdir(ROOT)
    for var in ("FMTREE_ENGINE", "FMTREE_FAULTS"):
        if var in os.environ:
            return fail(var + " is set; unset it to measure the default path", 3)
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        return fail("fmtree sources (src/) not found next to e2ebench/")
    if not build():
        return fail("build failed")

    if args.workload != "all":
        return run_workload(args.workload, args)[0]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(workload, args)
        worst = max(worst, code)
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "." + name] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
