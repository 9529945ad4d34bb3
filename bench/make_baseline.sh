#!/usr/bin/env bash
# Copyright 2026 The GraphScape Authors.
# Licensed under the Apache License, Version 2.0.
#
# Regenerate the committed bench baseline (bench/baseline/
# BENCH_baseline.json) from a fresh local run, mirroring exactly what
# CI's bench-smoke job produces as BENCH_merged.json. Usage:
#
#   bench/make_baseline.sh <build-dir> <output.json>
#
# Prefer re-baselining from CI itself (download a green run's
# BENCH_merged.json artifact) so the baseline matches runner hardware;
# this script is for bootstrapping and local experiments. The merged
# JSON records what it was measured on in fields of its own:
# cmake_build_type (the build dir's CMAKE_BUILD_TYPE; the context's
# library_build_type is Google Benchmark's own build), cpu_model and
# num_cpus.

set -euo pipefail

build_dir=${1:?usage: make_baseline.sh <build-dir> <output.json>}
output=${2:?usage: make_baseline.sh <build-dir> <output.json>}
build_dir=$(cd "$build_dir" && pwd)  # bench_service_qps runs from $tmp
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bench in scalar_tree edge_tree queries terrain metrics intersect; do
  "$build_dir/bench_micro_$bench" \
    --benchmark_min_time=0.1 \
    --benchmark_out="$tmp/BENCH_$bench.json" \
    --benchmark_out_format=json
done
"$build_dir/bench_table1_datasets" > "$tmp/table1.txt"
"$build_dir/bench_table2_construction" > "$tmp/table2.txt"
GRAPHSCAPE_BENCH_OUT="$tmp/fig_artifacts" \
  "$build_dir/bench_table456_userstudy" > "$tmp/table456.txt"
# Service throughput rows (SVC_*); writes BENCH_service.json into cwd.
(cd "$tmp" && GRAPHSCAPE_BENCH_OUT="$tmp/fig_artifacts" \
  "$build_dir/bench_service_qps" > "$tmp/service_qps.txt")

python3 - "$tmp" "$output" "$build_dir" <<'EOF'
import json
import os
import platform
import sys

tmp, output, build_dir = sys.argv[1], sys.argv[2], sys.argv[3]
merged = {"context": None, "benchmarks": [], "tables": {}}
for name in ("scalar_tree", "edge_tree", "queries", "terrain",
             "metrics", "intersect", "service"):
    with open(f"{tmp}/BENCH_{name}.json") as f:
        data = json.load(f)
    if merged["context"] is None:
        merged["context"] = data.get("context")
    merged["benchmarks"].extend(data.get("benchmarks", []))
for table, path in (("table1_datasets", f"{tmp}/table1.txt"),
                    ("table2_construction", f"{tmp}/table2.txt"),
                    ("table456_userstudy", f"{tmp}/table456.txt")):
    with open(path) as f:
        merged["tables"][table] = [l for l in f.read().split("\n") if l]


def first_value(path, key, sep):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(sep, 1)[1].strip()
    except OSError:
        pass
    return ""


merged["cmake_build_type"] = first_value(
    f"{build_dir}/CMakeCache.txt", "CMAKE_BUILD_TYPE:", "=")
merged["cpu_model"] = (first_value("/proc/cpuinfo", "model name", ":")
                       or platform.processor())
merged["num_cpus"] = os.cpu_count()
with open(output, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {output}")
EOF
