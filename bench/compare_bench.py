#!/usr/bin/env python3
# Copyright 2026 The GraphScape Authors.
# Licensed under the Apache License, Version 2.0.
"""CI bench-regression gate: compare a BENCH_merged.json against the
committed baseline and fail on any tracked throughput regression.

Usage:
    compare_bench.py BASELINE CURRENT [--max-regression 0.25]
                     [--min-seconds 0.05]

Tracked rows:

  * Microbenchmark throughput for the hot paths: Algorithm 1 (vertex
    tree), Algorithm 3 (edge tree), the K-Core and K-Truss peels, the
    analysis layer's member index / persistence scans, and the terrain
    pipeline (rasterization pixels/s, spring layout
    vertex-iterations/s). Throughput is on wall time for every row, on
    both sides: Google Benchmark's items_per_second divides by the
    calling thread's cpu_time, so each row is rescaled by
    cpu_time / real_time (a pool-backed /threads:N row's caller sleeps
    while the lanes work, which would otherwise inflate it). A row
    regressing by more than --max-regression (default 25%) fails the
    gate. A tracked row missing from CURRENT fails too — a bench
    silently disappearing is a regression. A row missing from BASELINE
    is reported and skipped (re-baseline to start tracking it).

  * Microbenchmark latency (real_time, lower is better) for hot paths
    that report no item counter — the terrain layout construction under
    both split policies. Same regression bound, inverted.

  * Scaling efficiency for the parallel construction engine
    (docs/PARALLELISM.md): within the CURRENT run, a /threads:1 row's
    real_time over its /threads:4 row's. Every row is an
    informational readout today; a row given a min_speedup gates ONLY
    when the runner reports enough cores (context.num_cpus >= 4).

  * The galloping speedup of the sorted-run intersection layer
    (docs/ARCHITECTURE.md): within the CURRENT run, the scalar merge's
    real_time over the galloping row's (gates >= 5x at 1:1024 skew).
    Both sides come from the same bench_micro_intersect process, so the
    comparison is machine-independent.

  * Table II construction times, aggregated: the sum of tc over all
    KC(v) rows, the sum over all KT(e) rows, and the sum of the numeric
    te cells present in BOTH files. Aggregation keeps the gate out of
    per-row millisecond noise; aggregates whose baseline is below
    --min-seconds are informational only (they gate automatically on
    slower runners, where the sums are large enough to be meaningful).

Re-baselining (e.g. after CI runner hardware changes, or when a PR
legitimately trades one row for a bigger win): download the
BENCH_merged.json artifact from a green run of the bench-smoke job on
main and commit it as bench/baseline/BENCH_baseline.json. Locally:

    cmake -B build -S . && cmake --build build -j
    bench/make_baseline.sh build bench/baseline/BENCH_baseline.json

Exit status: 0 when every gated row is within bounds, 1 otherwise.
"""

import argparse
import json
import re
import sys

TRACKED_BENCHMARKS = [
    "BM_Algorithm1_Distinct/131072",
    "BM_Algorithm1_IntegerField/131072",
    "BM_EdgeTree_Optimized/65536",
    "BM_MemberIndexBuild/131072",
    "BM_MembersFullScan/131072",
    "BM_PersistencePairs/131072",
    "BM_Rasterize/512",
    "BM_SpringLayout/16384",
    # The peeling decompositions behind the K-Core and K-Truss fields.
    "BM_CoreNumbers/65536",
    "BM_TrussNumbers/32768",
    # The fixed-size tree builds, then the parallel construction
    # engine's 4-lane rows (docs/PARALLELISM.md). On 1-core runners a
    # /threads:4 row degrades to the one-lane code path.
    "BM_BuildVertexScalarTree",
    "BM_BuildEdgeScalarTree",
    "BM_TriangleCountParallel/threads:4",
    "BM_PageRankParallel/threads:4",
    "BM_RasterizeParallel/threads:4",
    "BM_SpringLayoutParallel/threads:4",
    # Query service (docs/SERVICE.md): mixed-workload throughput over the
    # loopback wire protocol, from bench_service_qps's BENCH_service.json.
    "SVC_MixedQps",
    # Sorted-run intersection layer (docs/ARCHITECTURE.md): the galloping
    # path at 1:1024 skew and the 3-way count; then the triangle mark
    # passes' end-to-end row.
    "BM_IntersectSkew_Gallop/ratio:1024",
    "BM_IntersectCount3/1024",
    "BM_TriangleCount/65536",
]

# real_time rows (ns, lower is better): benches without an item counter.
TRACKED_TIME_BENCHMARKS = [
    "BM_Layout_SliceDice/65536",
    "BM_Layout_Balanced/65536",
    # Service request latency percentiles (ns) under the mixed workload.
    "SVC_MixedP50",
    "SVC_MixedP99",
]

# Scaling-efficiency readout: within the CURRENT run, real_time of the
# sequential reference divided by its /threads:N row. Rows with a
# min_speedup GATE when the runner actually has the cores
# (context.num_cpus >= the thread count); on smaller machines every row
# is informational — a 1-core container cannot show parallel speedup and
# must not fail on it. min_speedup None = always informational (e.g. the
# raster pays per-band footprint re-decode).
SCALING_CHECKS = [
    ("BM_TriangleCountParallel/threads:1",
     "BM_TriangleCountParallel/threads:4", 4, None),
    ("BM_PageRankParallel/threads:1",
     "BM_PageRankParallel/threads:4", 4, None),
    ("BM_RasterizeParallel/threads:1",
     "BM_RasterizeParallel/threads:4", 4, None),
    ("BM_SpringLayoutParallel/threads:1",
     "BM_SpringLayoutParallel/threads:4", 4, None),
]

# Gallop-vs-merge readout (docs/ARCHITECTURE.md): within the CURRENT
# run, the merge row's real_time over the galloping row's, from
# bench_micro_intersect. Unlike SCALING_CHECKS these gate
# unconditionally — exponential search needs no extra cores. Rows
# missing from the run (a bench filtered out) are skipped, not failed.
KERNEL_CHECKS = [
    ("BM_IntersectSkew_Scalar/ratio:1024",
     "BM_IntersectSkew_Gallop/ratio:1024", 5.0),
]

TABLE2_ROW = re.compile(
    r"^(\w+)\s+(KC\(v\)|KT\(e\))\s+(\d+)\s+([0-9.]+)\s+(\S+)\s+(\S+)")


def load_benchmarks(merged):
    """name -> wall-time items/s for benchmark entries that report one.

    items_per_second is items / cpu_time; items / real_time is that
    times cpu_time / real_time."""
    rows = {}
    for entry in merged.get("benchmarks", []):
        if "items_per_second" in entry:
            rows[entry["name"]] = (float(entry["items_per_second"]) *
                                   float(entry["cpu_time"]) /
                                   float(entry["real_time"]))
    return rows


def load_times(merged):
    """name -> real_time (ns) for every benchmark entry."""
    rows = {}
    for entry in merged.get("benchmarks", []):
        if "real_time" in entry:
            rows[entry["name"]] = float(entry["real_time"])
    return rows


def load_table2(merged):
    """(dataset, scalar) -> {"tc": float, "te": float | None}."""
    rows = {}
    for line in merged.get("tables", {}).get("table2_construction", []):
        match = TABLE2_ROW.match(line)
        if not match:
            continue
        dataset, scalar, _, tc, te, _ = match.groups()
        te_value = float(te) if re.fullmatch(r"[0-9.]+", te) else None
        rows[(dataset, scalar)] = {"tc": float(tc), "te": te_value}
    return rows


def table2_aggregates(base_rows, cur_rows):
    """Aggregate sums over the rows both files report."""
    shared = sorted(set(base_rows) & set(cur_rows))
    aggregates = []
    for scalar, label in (("KC(v)", "table2 tc sum KC(v)"),
                          ("KT(e)", "table2 tc sum KT(e)")):
        keys = [k for k in shared if k[1] == scalar]
        if keys:
            aggregates.append((label,
                               sum(base_rows[k]["tc"] for k in keys),
                               sum(cur_rows[k]["tc"] for k in keys)))
    te_keys = [k for k in shared
               if base_rows[k]["te"] is not None
               and cur_rows[k]["te"] is not None]
    if te_keys:
        aggregates.append(("table2 te sum (naive)",
                           sum(base_rows[k]["te"] for k in te_keys),
                           sum(cur_rows[k]["te"] for k in te_keys)))
    return aggregates


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fractional throughput loss that fails the "
                             "gate (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="table2 aggregates with a baseline below "
                             "this are informational only")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    failures = []
    print(f"{'row':44s} {'baseline':>12s} {'current':>12s} {'delta':>8s}  "
          f"verdict")

    # Microbench throughput rows: higher is better.
    base_bench = load_benchmarks(baseline)
    cur_bench = load_benchmarks(current)
    for name in TRACKED_BENCHMARKS:
        if name not in base_bench:
            print(f"{name:44s} {'-':>12s} {'-':>12s} {'-':>8s}  "
                  f"SKIP (not in baseline; re-baseline to track)")
            continue
        base_value = base_bench[name]
        if name not in cur_bench:
            print(f"{name:44s} {base_value:12.3e} {'-':>12s} {'-':>8s}  "
                  f"FAIL (missing from current run)")
            failures.append(f"{name} missing from current run")
            continue
        cur_value = cur_bench[name]
        delta = cur_value / base_value - 1.0
        ok = cur_value >= base_value * (1.0 - args.max_regression)
        verdict = "ok" if ok else "FAIL"
        print(f"{name:44s} {base_value:12.3e} {cur_value:12.3e} "
              f"{delta:+7.1%}  {verdict}")
        if not ok:
            failures.append(
                f"{name}: {cur_value:.3e} items/s vs baseline "
                f"{base_value:.3e} ({delta:+.1%})")

    # Latency rows: lower is better, same bound inverted.
    base_times = load_times(baseline)
    cur_times = load_times(current)
    for name in TRACKED_TIME_BENCHMARKS:
        if name not in base_times:
            print(f"{name:44s} {'-':>12s} {'-':>12s} {'-':>8s}  "
                  f"SKIP (not in baseline; re-baseline to track)")
            continue
        base_value = base_times[name]
        if name not in cur_times:
            print(f"{name:44s} {base_value:12.3e} {'-':>12s} {'-':>8s}  "
                  f"FAIL (missing from current run)")
            failures.append(f"{name} missing from current run")
            continue
        cur_value = cur_times[name]
        delta = cur_value / base_value - 1.0
        ok = cur_value <= base_value / (1.0 - args.max_regression)
        verdict = "ok" if ok else "FAIL"
        print(f"{name:44s} {base_value:12.3e} {cur_value:12.3e} "
              f"{delta:+7.1%}  {verdict}")
        if not ok:
            failures.append(
                f"{name}: {cur_value:.3e} ns vs baseline "
                f"{base_value:.3e} ({delta:+.1%})")

    # Scaling efficiency (current run only): seq real_time / par real_time.
    num_cpus = (current.get("context") or {}).get("num_cpus", 0)
    for seq_name, par_name, threads, min_speedup in SCALING_CHECKS:
        if seq_name not in cur_times or par_name not in cur_times:
            print(f"{par_name:44s} {'-':>12s} {'-':>12s} {'-':>8s}  "
                  f"SKIP (scaling rows missing from current run)")
            continue
        speedup = cur_times[seq_name] / cur_times[par_name]
        gated = min_speedup is not None and num_cpus >= threads
        label = f"scaling {par_name}"
        if min_speedup is None:
            verdict = "info"
            ok = True
        elif not gated:
            verdict = f"info (num_cpus={num_cpus} < {threads})"
            ok = True
        else:
            ok = speedup >= min_speedup
            verdict = "ok" if ok else "FAIL"
        bound = f">={min_speedup:.1f}x" if min_speedup is not None else "-"
        print(f"{label:44s} {bound:>12s} {speedup:11.2f}x {'':>8s}  "
              f"{verdict}")
        if not ok:
            failures.append(
                f"{par_name}: {speedup:.2f}x speedup over {seq_name}, "
                f"required >= {min_speedup:.1f}x on a "
                f"{num_cpus}-cpu runner")

    # Kernel speedups (current run only): scalar real_time / kernel
    # real_time on the same inputs in the same process.
    for slow_name, fast_name, min_speedup in KERNEL_CHECKS:
        if slow_name not in cur_times or fast_name not in cur_times:
            print(f"{fast_name:44s} {'-':>12s} {'-':>12s} {'-':>8s}  "
                  f"SKIP (kernel rows missing from current run)")
            continue
        speedup = cur_times[slow_name] / cur_times[fast_name]
        ok = speedup >= min_speedup
        verdict = "ok" if ok else "FAIL"
        label = f"kernel {fast_name}"
        bound = f">={min_speedup:.1f}x"
        print(f"{label:44s} {bound:>12s} {speedup:11.2f}x {'':>8s}  "
              f"{verdict}")
        if not ok:
            failures.append(
                f"{fast_name}: {speedup:.2f}x speedup over {slow_name}, "
                f"required >= {min_speedup:.1f}x")

    # Table II aggregates: lower is better.
    for label, base_value, cur_value in table2_aggregates(
            load_table2(baseline), load_table2(current)):
        delta = cur_value / base_value - 1.0 if base_value > 0 else 0.0
        gated = base_value >= args.min_seconds
        ok = cur_value <= base_value / (1.0 - args.max_regression)
        verdict = ("ok" if ok else "FAIL") if gated else "info"
        print(f"{label:44s} {base_value:11.4f}s {cur_value:11.4f}s "
              f"{delta:+7.1%}  {verdict}")
        if gated and not ok:
            failures.append(
                f"{label}: {cur_value:.4f}s vs baseline "
                f"{base_value:.4f}s ({delta:+.1%})")

    if failures:
        for failure in failures:
            print(f"::error::bench regression: {failure}")
        print("::error::if this regression is expected, re-baseline: see "
              "bench/compare_bench.py --help")
        return 1
    print("bench gate: all tracked rows within "
          f"{args.max_regression:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
