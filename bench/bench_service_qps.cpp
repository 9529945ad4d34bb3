// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Service throughput bench: an in-process graphscape daemon on an
// ephemeral loopback port, driven closed-loop by concurrent
// BlockingClients over a deterministic mixed query workload — the same
// protocol path a real client pays, sockets included.
//
// Emits BENCH_service.json (Google-Benchmark-shaped, merged by CI's
// bench-smoke job alongside the micro benches):
//   SVC_MixedQps           items_per_second, gated by compare_bench.py
//   SVC_MixedP50 / P99     real_time ns, gated (lower is better)
//   SVC_<class>Qps         per-class readouts, informational
//
// The corpus is built fresh into a bench-local cache (2 datasets x 2
// fields), so the numbers never depend on what an earlier bench left in
// the shared tree cache. Workload mix and seeds are fixed; run-to-run
// variance is the scheduler's, not the workload's.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/artifact_cache.h"
#include "scalar/scalar_field.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"

namespace {

using namespace graphscape;

constexpr long kClients = 4;
constexpr long kRequestsPerClient = 250;

struct ClassStat {
  const char* name;
  uint32_t weight;  // out of the summed total
  uint64_t count = 0;
  double seconds = 0.0;
};

// The mix: read-heavy like a dashboard (peak queries dominate), with
// enough TREE and TILE traffic to keep the big-payload paths honest.
ClassStat g_classes[] = {
    {"tree", 10, 0, 0.0},    {"peaks", 25, 0, 0.0},
    {"toppeaks", 25, 0, 0.0}, {"members", 15, 0, 0.0},
    {"correlation", 10, 0, 0.0}, {"tile", 10, 0, 0.0},
    {"stats", 5, 0, 0.0},
};

Status BuildCorpus(const std::string& root) {
  StatusOr<ArtifactCache> opened = ArtifactCache::Open(root);
  if (!opened.ok()) return opened.status();
  ArtifactCache cache = std::move(opened).value();
  const struct {
    const char* name;
    uint32_t vertices;
    uint64_t seed;
  } kSpecs[] = {{"ba-bench", 1200, 7}, {"er-bench", 800, 11}};
  for (const auto& spec : kSpecs) {
    Rng rng(spec.seed);
    const Graph g = spec.seed == 7
                        ? BarabasiAlbert(spec.vertices, 3, &rng)
                        : ErdosRenyi(spec.vertices, 0.01, &rng);
    std::vector<uint32_t> degrees(g.NumVertices());
    for (uint32_t v = 0; v < g.NumVertices(); ++v) degrees[v] = g.Degree(v);
    const VertexScalarField fields[] = {
        VertexScalarField::FromCounts("KC", CoreNumbers(g)),
        VertexScalarField::FromCounts("DEG", degrees)};
    for (const VertexScalarField& field : fields) {
      TreeArtifact artifact;
      artifact.tree = SuperTree(BuildVertexScalarTree(g, field));
      artifact.field_name = field.Name();
      artifact.field_values = field.Values();
      const Status put =
          cache.Put(ArtifactKey{spec.name, field.Name()}, artifact);
      if (!put.ok()) return put;
    }
  }
  return Status::Ok();
}

std::string MakeLine(const ClassStat& klass, Rng* rng) {
  static const char* kDatasets[] = {"ba-bench", "er-bench"};
  static const char* kFields[] = {"KC", "DEG"};
  static const double kAzimuths[] = {225.0, 45.0, 135.0, 315.0};
  service::Request request;  // an unknown class stays STATS
  request.dataset = kDatasets[rng->UniformInt(2)];
  request.field = kFields[rng->UniformInt(2)];
  const std::string name = klass.name;
  if (name == "tree") {
    request.verb = service::Verb::kTree;
  } else if (name == "peaks") {
    request.verb = service::Verb::kPeaks;
    request.level = rng->UniformDouble() * 8.0;
  } else if (name == "toppeaks") {
    request.verb = service::Verb::kTopPeaks;
    request.k = 1 + rng->UniformInt(16);
  } else if (name == "members") {
    request.verb = service::Verb::kMembers;
    request.node = 0;
  } else if (name == "correlation") {
    request.verb = service::Verb::kCorrelation;
    request.field = "KC";
    request.field_b = "DEG";
  } else if (name == "tile") {
    request.verb = service::Verb::kTile;
    request.azimuth_deg = kAzimuths[rng->UniformInt(4)];
    request.elevation_deg = 42.0;
    request.width = 128;
    request.height = 96;
  }
  return service::FormatRequestLine(request);
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1))];
}

}  // namespace

int main() {
  bench::Banner("Service QPS — mixed query workload over loopback",
                "ROADMAP item 3 (query service): QPS + p50/p99 per class "
                "through the full wire protocol");

  const std::string cache_root = bench::OutputDir() + "/svc_bench_cache";
  Status built = BuildCorpus(cache_root);
  if (!built.ok()) {
    std::fprintf(stderr, "corpus build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }

  StatusOr<std::unique_ptr<service::QueryService>> opened =
      service::QueryService::Open(cache_root);
  if (!opened.ok()) {
    std::fprintf(stderr, "service open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<service::QueryService> query_service =
      std::move(opened).value();
  service::ServiceServer::Options server_options;
  server_options.port = 0;  // ephemeral: parallel CI jobs cannot collide
  server_options.num_threads = bench::Threads();
  service::ServiceServer server(query_service.get(), server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  uint32_t weight_total = 0;
  for (const ClassStat& klass : g_classes) weight_total += klass.weight;

  struct PerClient {
    uint64_t errors = 0;
    std::vector<double> latencies_s;
    std::vector<std::pair<size_t, double>> per_class;  // class idx, secs
  };
  std::vector<PerClient> results(kClients);
  std::vector<std::thread> threads;
  WallTimer wall;
  for (long c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& mine = results[static_cast<size_t>(c)];
      Rng rng(0xbe9c5 + static_cast<uint64_t>(c));
      service::BlockingClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        mine.errors += kRequestsPerClient;
        return;
      }
      for (long r = 0; r < kRequestsPerClient; ++r) {
        uint32_t draw = rng.UniformInt(weight_total);
        size_t klass = 0;
        while (draw >= g_classes[klass].weight) {
          draw -= g_classes[klass].weight;
          ++klass;
        }
        const std::string line = MakeLine(g_classes[klass], &rng);
        WallTimer latency;
        StatusOr<service::ResponseFrame> reply = client.Roundtrip(line);
        const double seconds = latency.Seconds();
        if (!reply.ok() || reply.value().wire_code != service::kWireOk) {
          ++mine.errors;
          continue;
        }
        mine.latencies_s.push_back(seconds);
        mine.per_class.emplace_back(klass, seconds);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = wall.Seconds();
  server.Stop();

  uint64_t errors = 0;
  std::vector<double> latencies;
  for (const PerClient& result : results) {
    errors += result.errors;
    latencies.insert(latencies.end(), result.latencies_s.begin(),
                     result.latencies_s.end());
    for (const auto& entry : result.per_class) {
      ++g_classes[entry.first].count;
      g_classes[entry.first].seconds += entry.second;
    }
  }
  if (latencies.empty() || errors != 0) {
    // The bench measures the happy path; any error means the numbers
    // would be garbage, so fail loudly instead of emitting them.
    std::fprintf(stderr, "service bench saw %llu errors over %llu replies\n",
                 static_cast<unsigned long long>(errors),
                 static_cast<unsigned long long>(latencies.size()));
    return 1;
  }
  std::sort(latencies.begin(), latencies.end());
  const double qps = static_cast<double>(latencies.size()) / elapsed;
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);

  std::printf("%-14s %9s %12s\n", "class", "requests", "mean ms");
  for (const ClassStat& klass : g_classes) {
    std::printf("%-14s %9llu %12.3f\n", klass.name,
                static_cast<unsigned long long>(klass.count),
                klass.count > 0
                    ? 1e3 * klass.seconds / static_cast<double>(klass.count)
                    : 0.0);
  }
  std::printf("mixed qps: %.1f  p50: %.3f ms  p99: %.3f ms  "
              "(%u threads, %ld clients)\n",
              qps, p50 * 1e3, p99 * 1e3, server.num_threads(), kClients);

  // Google-Benchmark-shaped JSON so CI's jq merge and compare_bench.py
  // treat these rows exactly like the micro benches' (SVC_MixedQps is
  // throughput-tracked; the P50/P99 rows are real_time-tracked).
  std::FILE* out = std::fopen("BENCH_service.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_service.json\n");
    return 1;
  }
  // num_cpus is the machine's, as compare_bench.py's scaling gate reads
  // it; the lane count the server ran with goes under its own key.
  std::fprintf(out,
               "{\n \"context\": {\"num_cpus\": %u, \"threads\": %u},\n"
               " \"benchmarks\": [\n",
               std::thread::hardware_concurrency(), bench::Threads());
  std::fprintf(out,
               "  {\"name\": \"SVC_MixedQps\", \"run_type\": \"iteration\", "
               "\"iterations\": %llu, \"real_time\": %.1f, \"cpu_time\": "
               "%.1f, \"time_unit\": \"ns\", \"items_per_second\": %.3f},\n",
               static_cast<unsigned long long>(latencies.size()),
               1e9 * elapsed / static_cast<double>(latencies.size()),
               1e9 * elapsed / static_cast<double>(latencies.size()), qps);
  std::fprintf(out,
               "  {\"name\": \"SVC_MixedP50\", \"run_type\": \"iteration\", "
               "\"iterations\": 1, \"real_time\": %.1f, \"cpu_time\": %.1f, "
               "\"time_unit\": \"ns\"},\n",
               1e9 * p50, 1e9 * p50);
  std::fprintf(out,
               "  {\"name\": \"SVC_MixedP99\", \"run_type\": \"iteration\", "
               "\"iterations\": 1, \"real_time\": %.1f, \"cpu_time\": %.1f, "
               "\"time_unit\": \"ns\"},\n",
               1e9 * p99, 1e9 * p99);
  bool first = true;
  for (const ClassStat& klass : g_classes) {
    if (klass.count == 0) continue;
    std::fprintf(out,
                 "%s  {\"name\": \"SVC_%sQps\", \"run_type\": \"iteration\", "
                 "\"iterations\": %llu, \"real_time\": %.1f, \"cpu_time\": "
                 "%.1f, \"time_unit\": \"ns\", \"items_per_second\": %.3f}",
                 first ? "" : ",\n", klass.name,
                 static_cast<unsigned long long>(klass.count),
                 1e9 * klass.seconds / static_cast<double>(klass.count),
                 1e9 * klass.seconds / static_cast<double>(klass.count),
                 static_cast<double>(klass.count) /
                     (klass.seconds > 0.0 ? klass.seconds : 1.0));
    first = false;
  }
  std::fprintf(out, "\n ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
