#!/usr/bin/env python3
# Copyright 2026 The GraphScape Authors.
# Licensed under the Apache License, Version 2.0.
"""Builds graphscape_bench from source and runs one workload.

Run from the repository root:

  python3 graphscape_bench/run.py --workload kcore-large --seed 1 \
      --seconds 10 --trace 0

The first run configures and builds a Release tree under the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the harness's JSON result; the same numbers, with the machine
they came from, go to <build dir>/result-<workload>.json. --trace 1 also
writes the span trace to <build dir>/trace-<workload>.json and reports
the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import os
import subprocess
import sys


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmake_dir = os.path.join(build, "cmake-release")
    steps = [
        ["cmake", "-S", here, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "graphscape_bench"],
    ]
    if os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps = steps[1:]
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("graphscape_bench: build failed", file=sys.stderr)
            return 1

    command = [
        os.path.join(cmake_dir, "graphscape_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--work-dir", os.path.join(build, "work"),
        "--json", os.path.join(build, "result-%s.json" % args.workload),
        "--commit", git_commit(root),
    ]
    if args.trace:
        command += ["--trace",
                    os.path.join(build, "trace-%s.json" % args.workload)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
