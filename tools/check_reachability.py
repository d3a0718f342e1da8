#!/usr/bin/env python3
"""Link check: every function that src/ exports must reach a shipped binary.

Builds the project and e2ebench/ at -O0 with one section per function and
section garbage collection, so a shipped binary keeps exactly the library
functions it can call:

    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 -fno-inline -ffunction-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

The shipped binaries are every executable target outside tests/, plus
e2ebench's fmtree_e2e; the CMake file API names them, so there is no list to
keep by hand. A function is *exported* when it is a strong text symbol (nm
type T) of a static library under src/, and *unreached* when no shipped
binary defines it. Symbols are compared by demangled name, so the complete
and base-object variants of one constructor count as one function.

The check fails on an unreached function missing from
tools/reachability_allow.txt, and on an allow-list entry that is reached or
no longer exported. Each allow-list line is a demangled name, then "#" and
the reason it stays.

Usage, from anywhere in the repository:

    python3 tools/check_reachability.py [--build-dir build-reachability]

The two trees live under the build directory (default build-reachability/ at
the repository root) and are rebuilt incrementally on later runs.
Exit status: 0 = pass, 1 = check failed, 2 = the build failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
ALLOW_LIST = os.path.join(ROOT, "tools", "reachability_allow.txt")
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -fno-inline -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(command: list[str]) -> None:
    """Runs a configure or build step; its output is shown only on failure."""
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        print(f"check_reachability: {' '.join(command)} exited with {proc.returncode}")
        raise SystemExit(2)


def configure(source: str, build: str) -> list[dict]:
    """Configures `build` from `source` and returns its targets as the CMake
    file API describes them (name, type, source directory, artifacts)."""
    query = os.path.join(build, ".cmake", "api", "v1", "query", "codemodel-v2")
    os.makedirs(os.path.dirname(query), exist_ok=True)
    open(query, "w").close()
    run(["cmake", "-S", source, "-B", build, *FLAGS])
    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = max(f for f in os.listdir(reply) if f.startswith("index-"))
    with open(os.path.join(reply, index)) as f:
        codemodel = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, codemodel)) as f:
        configuration = json.load(f)["configurations"][0]
    targets = []
    for ref in configuration["targets"]:
        with open(os.path.join(reply, ref["jsonFile"])) as f:
            target = json.load(f)
        targets.append({
            "name": target["name"],
            "type": target["type"],
            "source": os.path.realpath(os.path.join(source, target["paths"]["source"])),
            "artifacts": [os.path.join(build, a["path"]) for a in target.get("artifacts", [])],
        })
    return targets


def build(build_dir: str, names: list[str]) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", build_dir, "-j", jobs, "--target", *names])


def symbols(path: str, kind: str | None = None) -> set[str]:
    """Demangled names of the symbols `path` defines, only those of nm type
    `kind` when one is given."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and kind in (None, parts[1]):
            names.add(parts[2])
    return names


def read_allow_list() -> dict[str, str]:
    """Entry -> reason. An entry without a reason is an error."""
    entries = {}
    with open(ALLOW_LIST) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            if not reason.strip():
                raise SystemExit(f"{ALLOW_LIST}:{number}: entry has no reason: {line}")
            entries[name.strip()] = reason.strip()
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-reachability"))
    args = parser.parse_args()

    src = os.path.join(ROOT, "src") + os.sep
    tests = os.path.join(ROOT, "tests") + os.sep
    project_dir = os.path.join(args.build_dir, "project")
    e2e_dir = os.path.join(args.build_dir, "e2ebench")

    project = configure(ROOT, project_dir)
    libraries = [t for t in project
                 if t["type"] == "STATIC_LIBRARY" and (t["source"] + os.sep).startswith(src)]
    shipped = [t for t in project
               if t["type"] == "EXECUTABLE" and not (t["source"] + os.sep).startswith(tests)]
    build(project_dir, [t["name"] for t in libraries + shipped])
    e2ebench = os.path.join(ROOT, "e2ebench")
    e2e = [t for t in configure(e2ebench, e2e_dir)
           if t["type"] == "EXECUTABLE" and t["source"] == e2ebench]
    build(e2e_dir, [t["name"] for t in e2e])
    shipped += e2e

    exported = set()
    for library in libraries:
        for artifact in library["artifacts"]:
            exported |= symbols(artifact, "T")
    reached = set()
    for binary in shipped:
        for artifact in binary["artifacts"]:
            reached |= symbols(artifact)
    unreached = exported - reached
    allowed = read_allow_list()

    print(f"{len(shipped)} shipped binaries, {len(libraries)} src/ libraries")
    print(f"exported: {len(exported)}, unreached: {len(unreached)}, "
          f"allow-listed: {len(allowed)}")
    new = sorted(unreached - allowed.keys())
    stale = sorted(name for name in allowed if name not in unreached)
    for name in new:
        print(f"unreached, not allow-listed: {name}")
    for name in stale:
        state = "reached" if name in exported else "no longer exported"
        print(f"allow-listed but {state}: {name}")
    if new or stale:
        print("FAIL: delete the unreached function, or give it a shipped caller; "
              "keep tools/reachability_allow.txt to test oracles and test-only accessors")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
