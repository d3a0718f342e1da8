#!/usr/bin/env python3
"""The analysis daemon end to end, as its own process (`ctest -L serve`).

Usage: serve_acceptance.py --fmtree <fmtree binary> --source-dir <repo root>
                           --work-dir <work directory, emptied first>

Boots `fmtree serve` on a relative socket inside the work directory, with a
cache directory and a metrics file, and holds it to standalone runs of the
same requests:

  1. the served EI-joint cost curve equals the standalone rendering, less
     the standalone run's `cache:` line (a client never prints it);
  2. a second identical request is answered entirely from the daemon's
     cache and renders the same curve;
  3. a sweep carrying two inline policy scripts renders as its standalone
     run does;
  4. a SIGTERM drains the daemon: it exits 0 and logs `drained`;
  5. the daemon's cache directory holds every entry of the standalone run's,
     byte for byte (same requests, same keys, hexfloat-exact documents);
  6. the daemon's metrics count requests, jobs, cache hits and simulated
     jobs: serve.requests, serve.jobs, batch.cache.hits and
     batch.jobs_simulated are all > 0.

Every command runs in the work directory and names the model and scripts by
absolute path. Standard library only. Exit 0 when every check passes, 1
otherwise.
"""

import argparse
import filecmp
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

SOCKET = "fmtree.sock"  # relative: a build tree's path can outgrow sun_path
TIMEOUT_S = 120


def normalize(text):
    """The curve without its source words and table chrome."""
    return re.sub(r"[ |-]", "", re.sub(r"simulated|cache", "", text))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fmtree", required=True)
    parser.add_argument("--source-dir", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv[1:])
    work = args.work_dir
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    model = os.path.join(args.source_dir, "models", "ei_joint.fmt")
    sweep = [args.fmtree, "sweep", model, "--horizon", "20", "--runs", "20000",
             "--seed", "1", "--frequencies", "0,2,6"]
    scripted = [args.fmtree, "sweep", model, "--horizon", "20", "--runs", "2000",
                "--seed", "1", "--frequencies", "4"]
    for script in ("periodic.mpl", "condition_based.mpl"):
        scripted += ["--policy",
                     os.path.join(args.source_dir, "examples", "policies", script)]

    failures = []

    def check(ok, what, detail=""):
        print(("ok: " if ok else "FAIL: ") + what)
        if not ok:
            failures.append(what)
            if detail:
                print(detail)

    def run(command):
        done = subprocess.run(command, cwd=work, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}:\n"
                               f"{done.stdout}{done.stderr}")
        return done.stdout

    standalone = run(sweep + ["--cache-dir", "cache-standalone"])
    scripted_standalone = run(scripted)

    log_path = os.path.join(work, "serve.log")
    with open(log_path, "w") as log:
        daemon = subprocess.Popen(
            [args.fmtree, "serve", SOCKET, "--cache-dir", "cache-served",
             "--metrics", "serve_metrics.json"],
            cwd=work, stdout=log, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 10
        while not os.path.exists(os.path.join(work, SOCKET)):
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the daemon did not open its socket")
            time.sleep(0.05)

        served = run(sweep + ["--connect", SOCKET])
        expected = "".join(line for line in standalone.splitlines(keepends=True)
                           if not line.startswith("cache:"))
        check(served == expected,
              "the served curve equals the standalone one, less its cache line",
              f"served:\n{served}standalone:\n{standalone}")

        again = run(sweep + ["--connect", SOCKET])
        check("simulated" not in again and normalize(again) == normalize(served),
              "a second identical request comes from the cache with the same curve",
              f"second request:\n{again}first:\n{served}")

        scripted_served = run(scripted + ["--connect", SOCKET])
        check(scripted_served == scripted_standalone,
              "the two-script served sweep equals the standalone one",
              f"served:\n{scripted_served}standalone:\n{scripted_standalone}")

        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            code = None
        with open(log_path) as log:
            logged = log.read()
        check(code == 0 and "drained" in logged,
              "SIGTERM drains the daemon: it exits 0 and logs 'drained'",
              f"exit status {code}, log:\n{logged}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    entries = sorted(os.listdir(os.path.join(work, "cache-standalone")))
    differing = [name for name in entries
                 if not os.path.isfile(os.path.join(work, "cache-served", name))
                 or not filecmp.cmp(os.path.join(work, "cache-standalone", name),
                                    os.path.join(work, "cache-served", name),
                                    shallow=False)]
    check(bool(entries) and not differing,
          "the served cache holds the standalone entries byte for byte",
          f"standalone entries {entries}, missing or different: {differing}")

    try:
        with open(os.path.join(work, "serve_metrics.json")) as f:
            counters = json.load(f)["counters"]
    except (OSError, ValueError, KeyError) as e:
        counters = {}
        print(f"no metrics counters: {e}")
    names = ["serve.requests", "serve.jobs", "batch.cache.hits", "batch.jobs_simulated"]
    check(all(counters.get(name, 0) > 0 for name in names),
          "the daemon's metrics count requests, jobs, cache hits and simulated jobs",
          json.dumps({name: counters.get(name) for name in names}))

    if failures:
        print(f"{len(failures)} of 6 checks failed")
        return 1
    print("all 6 checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"serve_acceptance: {e}", file=sys.stderr)
        sys.exit(1)
