#!/usr/bin/env python3
"""Records the end-to-end benchmark into a tracked JSON file.

Runs

    python3 e2ebench/run.py --workload <w> --seed <s> --seconds 25 --trace 0

k times for each of the three workloads (k = 5 by default) and writes, for
every workload and end-to-end metric, the median, min and max over the k
runs, with k, the seed, the run length, nproc, each workload's pool width and
the commit. The run length and the workload list are fixed, so the file always
covers every workload at the benchmark's run length. A run that fails its
output checks or reports failed operations stops the recording with exit
status 1: a number from incorrect code is not recorded.

Usage, from anywhere in the repository:

    python3 tools/record_e2e.py [--runs 5] [--seed 1] [--out BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("study_cold", "corridor_replay", "served_mix")
SECONDS = 25
ENV_LINE = re.compile(r"^env: .*\bnproc=(\d+) pool_width=(\d+) .*\bcommit=(\S+)")


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    """One benchmark run: (its JSON result, its env fields)."""
    command = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = {}
    for line in lines:
        match = ENV_LINE.match(line)
        if match:
            env = {"nproc": int(match.group(1)), "pool_width": int(match.group(2)),
                   "commit": match.group(3)}
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"record_e2e: {workload} printed no result (exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("correct") or result.get("failed", 1) != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"record_e2e: {workload} failed its checks (exit {proc.returncode})")
    return result, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per workload (k)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("need --runs >= 1")

    doc = {"benchmark": "e2e",
           "command": f"python3 e2ebench/run.py --workload <w> --seed {args.seed} "
                      f"--seconds {SECONDS} --trace 0",
           "runs": args.runs, "seed": args.seed, "seconds": SECONDS,
           "nproc": None, "commit": None, "workloads": {}}
    for workload in WORKLOADS:
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        env: dict = {}
        for k in range(args.runs):
            result, env = run_once(workload, args.seed)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} run {k + 1}/{args.runs}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)
        doc["nproc"] = env.get("nproc")
        doc["commit"] = env.get("commit")
        doc["workloads"][workload] = {
            "pool_width": env.get("pool_width"),
            "metrics": {
                name: {"unit": units[name], "median": statistics.median(values),
                       "min": min(values), "max": max(values), "samples": len(values)}
                for name, values in samples.items()
            },
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print("wrote " + args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
