#!/usr/bin/env python3
# Copyright 2026 The GraphScape Authors.
# Licensed under the Apache License, Version 2.0.
"""Prints where the time went in graphscape_bench traces.

  python3 graphscape_bench/trace_summary.py .bench_build/trace-*.json

For each trace file (one workload each) it prints every layer's self
time -- a span's duration minus the part its child spans cover -- and a
stage table with call counts and median durations. It exits 1 when some
pipeline job's child spans do not sum to the job's wall time within 5%,
that is, when a job spends time in calls the trace does not name.
Standard library only.
"""

import argparse
import collections
import json
import statistics
import sys

JOB_SPAN = "harness.job"
TOLERANCE = 0.05


def load(path):
    with open(path) as f:
        doc = json.load(f)
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    workload = doc.get("otherData", {}).get("workload", path)
    return workload, events


def summarize(workload, events):
    child_us = collections.defaultdict(float)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[parent] += e["dur"]

    layer_self = collections.defaultdict(float)
    stage_durs = collections.defaultdict(list)
    stage_self = collections.defaultdict(float)
    for e in events:
        self_us = e["dur"] - child_us[e["args"]["id"]]
        layer_self[e["cat"]] += self_us
        stage_durs[e["name"]].append(e["dur"])
        stage_self[e["name"]] += self_us
    total = sum(layer_self.values()) or 1.0

    print("== %s: %d spans" % (workload, len(events)))
    print("%-10s %12s %7s" % ("layer", "self ms", "share"))
    for layer, us in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print("%-10s %12.3f %6.1f%%" % (layer, us / 1e3, 100.0 * us / total))
    print("%-22s %7s %12s %12s" % ("stage", "calls", "median ms", "self ms"))
    for name in sorted(stage_durs, key=lambda n: -stage_self[n]):
        durs = stage_durs[name]
        print("%-22s %7d %12.4f %12.3f" % (name, len(durs),
                                           statistics.median(durs) / 1e3,
                                           stage_self[name] / 1e3))

    bad = 0
    jobs = [e for e in events if e["name"] == JOB_SPAN]
    for job in jobs:
        covered = child_us[job["args"]["id"]]
        if abs(job["dur"] - covered) > TOLERANCE * job["dur"]:
            bad += 1
            print("job op %d: children cover %.3f of %.3f ms" %
                  (job["args"]["op"], covered / 1e3, job["dur"] / 1e3))
    if jobs:
        print("%d of %d jobs covered by their stage spans within %d%%" %
              (len(jobs) - bad, len(jobs), int(TOLERANCE * 100)))
    print()
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+", help="--trace output files")
    args = parser.parse_args()
    bad = 0
    for path in args.traces:
        bad += summarize(*load(path))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
