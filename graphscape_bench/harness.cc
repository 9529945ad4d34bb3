// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// graphscape_bench: the end-to-end benchmark. One process runs one named
// workload (BENCHMARK.md explains each and why it was chosen):
//
//   kcore-large   pipeline: K-Core field on a CitPatent stand-in, 944k
//                 vertices — the paper's million-node claim
//   ktruss-dense  pipeline: K-Truss edge field on a DBLP stand-in, 79k
//                 vertices, clustering 0.63
//   attr-terrain  pipeline: a given PageRank attribute, distinct values
//   serve-warm    closed-loop clients against a warmed query daemon
//
// A pipeline job turns a graph into terrain PPM bytes (the stages below);
// Streams() jobs run at once, one per thread. A serve operation is one
// request over loopback TCP, from Streams() clients. Every output is
// checked, and a wrong output counts as a failed operation:
//   * a job whose PPM hash or super-tree size differs from the reference
//     job run in set-up;
//   * a non-OK frame, or one whose checksum does not verify;
//   * a TREE payload that differs from SerializeTreeArtifact, or a TILE
//     payload that differs from the harness's own render of that tile;
//   * a PEAKS/TOPPEAKS/MEMBERS/CORRELATION payload that differs from the
//     first reply to the same line.
//
// Output: one "workload metric value unit" line per metric, then, as the
// last line, one JSON object {correct, attempted, failed, metrics}. The
// end-to-end metrics always come from an untraced phase. With --trace
// FILE the measured time is split in half: an untraced half, then a half
// that records a span around every library call the harness makes. The
// spans go to FILE as Chrome trace-event JSON, the per-layer metrics are
// computed from them, and the JSON line carries those instead.
//
// Usage: graphscape_bench --workload NAME [--seed N] [--seconds S]
//                         [--trace FILE] [--json FILE] [--work-dir DIR]
//                         [--commit SHA]

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "graph/graph.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/pagerank.h"
#include "scalar/artifact_cache.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_field.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_io.h"
#include "service/client.h"
#include "service/service.h"
#include "service/wire.h"
#include "terrain/render.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"
#include "trace.h"

#ifndef GRAPHSCAPE_BENCH_BUILD_TYPE
#define GRAPHSCAPE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef GRAPHSCAPE_BENCH_COMPILER
#define GRAPHSCAPE_BENCH_COMPILER "unknown"
#endif
#ifndef GRAPHSCAPE_BENCH_SERVE_BIN
#error "GRAPHSCAPE_BENCH_SERVE_BIN must name the graphscape_serve binary"
#endif

namespace graphscape {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up runs this many times per untraced run; setup_s is the median.
constexpr int kSetupReps = 8;

// A measured phase is split into this many equal windows (serve rounds,
// spans of job start times); p99_ms is the median of the per-window 99th
// percentiles, so one window hit by a neighbour's burst cannot move it
// alone.
constexpr int kWindows = 8;

// Every library call runs on one lane; the machine's CPUs are used by
// running Streams() jobs or clients at once instead.
constexpr ParallelOptions kOneLane{1, 0};

// Job streams on the pipelines, client connections and daemon worker
// threads on serve-warm, and set-ups run at once on every workload: one
// per CPU, at most 4. On a shared host a CPU runs the same job at one of
// two speeds for seconds at a time (kcore-large: about 360 or 470 ms).
// One stream saw only its own CPU's share of slow time, and kcore-large's
// ops_per_s spread 19% over ten seeds; four streams average four CPUs,
// and it spread 5.5%. Parallel lanes inside one job did not help: each
// region waited for its slowest CPU. A serve client mostly waits for its
// reply, so fewer clients left CPUs idle and each request paid for waking
// one: ops_per_s spread 35% with 2 clients against 17% with 4.
uint32_t Streams() {
  const uint32_t hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw));
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Runs fn(i) for every i in [0, n), each on its own thread, and waits.
template <typename Fn>
void OnThreads(size_t n, const Fn& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (std::thread& thread : threads) thread.join();
}

// VmHWM of a process ("self" or a pid), in MB.
double ProcPeakRssMb(const std::string& proc) {
  std::ifstream status("/proc/" + proc + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// By default glibc raises its mmap threshold each time it frees a large
// mapped block. Whether a job's big buffers were recycled from the heap
// or mapped and faulted in afresh then depended on the allocation
// history, which the seed sets, and moved attr-terrain's job time 20%
// between seeds. Fixed thresholds recycle every block under 32 MB, the
// state the default drifts towards, and keep freed heap until
// ResetPeakRss trims it.
void FixAllocatorThresholds() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

// Hands the heap set-up freed back to the kernel, then restarts this
// process's VmHWM from the resident size left, so the peak that follows
// belongs to the measured jobs. Without the trim, how much of set-up's
// freed heap glibc kept depended on the seed's allocation sizes, and the
// peak moved 12% between seeds. (Linux 4.0+; on older kernels the
// write fails and the peak includes set-up.)
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(std::min(line.size(), colon + 2));
    }
  }
  return "unknown";
}

uint64_t Checksum(const std::string& bytes) {
  trace::Span span("harness.check");
  return Fnv1aChecksum(bytes);
}

uint64_t DatasetSeed(uint64_t seed, DatasetId id) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(id) + 1;
}

Dataset Generate(DatasetId id, uint32_t divisor, uint64_t seed) {
  trace::Span span("gen.dataset");
  DatasetOptions options;
  options.scale_divisor = divisor;
  options.seed = DatasetSeed(seed, id);
  return MakeDataset(id, options);
}

// --------------------------------------------------------------- stages --
//
// The calls that turn a graph into terrain bytes, one function per call
// into the library, each wrapped in a span named after its layer:
//
//   field    metrics.kcore | metrics.ktruss | metrics.pagerank, then
//            scalar.field (lifting the raw values to a checked field)
//   tree     scalar.vertex_tree | scalar.edge_tree (Algorithm 1 or 3),
//            scalar.super_tree (Algorithm 2), scalar.member_index
//   terrain  terrain.layout, terrain.raster, terrain.render, terrain.encode
namespace stages {

std::vector<uint32_t> KCore(const Graph& g) {
  trace::Span span("metrics.kcore");
  return CoreNumbers(g);
}

std::vector<uint32_t> KTruss(const Graph& g, const ParallelOptions& par) {
  trace::Span span("metrics.ktruss");
  return TrussNumbersParallel(g, par);
}

std::vector<double> PageRankField(const Graph& g) {
  trace::Span span("metrics.pagerank");
  return PageRankParallel(g, PageRankOptions{}, kOneLane);
}

template <typename Field, typename Value>
Field Lift(const char* name, const std::vector<Value>& values) {
  trace::Span span("scalar.field");
  return Field::FromCounts(name, values);
}

ScalarTree VertexTree(const Graph& g, const VertexScalarField& field,
                      const ParallelOptions& par) {
  trace::Span span("scalar.vertex_tree");
  return BuildVertexScalarTreeParallel(g, field, par);
}

ScalarTree EdgeTree(const Graph& g, const EdgeScalarField& field,
                    const ParallelOptions& par) {
  trace::Span span("scalar.edge_tree");
  return BuildEdgeScalarTreeParallel(g, field, par);
}

// Algorithm 2, then the member index every terrain and query reads.
SuperTree Contract(const ScalarTree& tree) {
  SuperTree super;
  {
    trace::Span span("scalar.super_tree");
    super = SuperTree(tree);
  }
  trace::Span span("scalar.member_index");
  super.MemberIndex();
  return super;
}

struct TerrainOptions {
  uint32_t raster_width = 512;
  uint32_t raster_height = 512;
  uint32_t image_width = 960;
  uint32_t image_height = 720;
  Camera camera;
  uint32_t lanes = 1;  // raster row bands; the bytes do not depend on it
};

// layout -> raster -> render -> PPM bytes. With raster dimensions equal
// to the image's and the default layout, these are the bytes the query
// service's TILE verb returns for the same tree and camera.
std::string Terrain(const SuperTree& tree, const TerrainOptions& options) {
  TerrainLayout layout;
  {
    trace::Span span("terrain.layout");
    layout = BuildTerrainLayout(tree);
  }
  HeightField field;
  {
    trace::Span span("terrain.raster");
    RasterOptions raster;
    raster.width = options.raster_width;
    raster.height = options.raster_height;
    raster.num_threads = options.lanes;
    field = RasterizeTerrain(layout, raster);
  }
  Image image;
  {
    trace::Span span("terrain.render");
    image = RenderOblique(field, HeightColors(tree), options.camera,
                          options.image_width, options.image_height);
  }
  trace::Span span("terrain.encode");
  return EncodePpm(image);
}

}  // namespace stages

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;  // printed, not in the JSON line
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool set_up_ok = true;
};

// One measured phase: per-operation latencies and outcome counts.
struct Phase {
  std::vector<double> latency_s;
  std::vector<double> window_p99_s;
  size_t window_begin = 0;  // first sample of the open window
  double busy_s = 0.0;      // the denominator of ops_per_s
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Closes a window over the samples added since the last one.
  void EndWindow() {
    if (latency_s.size() > window_begin) {
      window_p99_s.push_back(Percentile(
          {latency_s.begin() + window_begin, latency_s.end()}, 0.99));
    }
    window_begin = latency_s.size();
  }
};

void AddEndToEnd(const std::vector<double>& setup_s, const Phase& phase,
                 double peak_rss_mb, Report* report) {
  const double ok = static_cast<double>(phase.attempted - phase.failed);
  report->end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", phase.busy_s > 0.0 ? ok / phase.busy_s : 0.0, "1/s"},
      {"p50_ms", 1e3 * Percentile(phase.latency_s, 0.50), "ms"},
      {"p99_ms", 1e3 * Median(phase.window_p99_s), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  report->attempted = phase.attempted;
  report->failed = phase.failed;
  const double samples = static_cast<double>(phase.latency_s.size());
  const double sum_s =
      std::accumulate(phase.latency_s.begin(), phase.latency_s.end(), 0.0);
  report->detail.push_back({"samples", samples, "count"});
  report->detail.push_back(
      {"mean_ms", samples > 0.0 ? 1e3 * sum_s / samples : 0.0, "ms"});
}

// ------------------------------------------------------------ per layer --

// What the serve layers did in the traced half; zero on the pipeline
// workloads, which serve nothing.
struct ServeLayers {
  double handler_frac = 0.0;
  double tile_hit_frac = 0.0;
  double reply_kb = 0.0;
};

std::map<std::string, std::vector<double>> MsByName(
    const std::vector<trace::Event>& events) {
  std::map<std::string, std::vector<double>> by_name;
  for (const trace::Event& e : events) {
    by_name[e.name].push_back((e.end_ns - e.begin_ns) / 1e6);
  }
  return by_name;
}

double MedianOf(const std::map<std::string, std::vector<double>>& by_name,
                std::initializer_list<const char*> names) {
  std::vector<double> all;
  for (const char* name : names) {
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return Median(all);
}

// The stage metrics are medians over every call in the traced run. Every
// workload makes each call: pipelines in each job, serve workloads while
// building their corpus and reference tiles in set-up.
void AddPerLayer(const std::vector<trace::Event>& events,
                 double super_nodes, double trace_overhead,
                 const ServeLayers& serve, Report* report) {
  const auto ms = MsByName(events);
  const auto gen = ms.find("gen.dataset");
  const double gen_ms =
      gen == ms.end()
          ? 0.0
          : std::accumulate(gen->second.begin(), gen->second.end(), 0.0);
  report->per_layer = {
      {"gen.dataset_s", gen_ms / 1e3, "s"},
      {"metrics.field_ms",
       MedianOf(ms, {"metrics.kcore", "metrics.ktruss", "metrics.pagerank"}),
       "ms"},
      {"scalar.tree_ms",
       MedianOf(ms, {"scalar.vertex_tree", "scalar.edge_tree"}), "ms"},
      {"scalar.super_tree_ms", MedianOf(ms, {"scalar.super_tree"}), "ms"},
      {"scalar.member_index_ms", MedianOf(ms, {"scalar.member_index"}), "ms"},
      {"scalar.super_nodes", super_nodes, "count"},
      {"terrain.layout_ms", MedianOf(ms, {"terrain.layout"}), "ms"},
      {"terrain.raster_ms", MedianOf(ms, {"terrain.raster"}), "ms"},
      {"terrain.render_ms", MedianOf(ms, {"terrain.render"}), "ms"},
      {"terrain.encode_ms", MedianOf(ms, {"terrain.encode"}), "ms"},
      {"service.handler_frac", serve.handler_frac, "fraction"},
      {"service.tile_hit_frac", serve.tile_hit_frac, "fraction"},
      {"service.reply_kb", serve.reply_kb, "KB"},
      {"harness.trace_overhead_frac", trace_overhead, "fraction"},
  };
}

// ------------------------------------------------------------ pipelines --

enum class FieldKind { kCore, kTruss, kAttribute };

struct PipelineWorkload {
  DatasetId dataset;
  uint32_t divisor;
  FieldKind field;
};

struct PipelineInputs {
  Dataset data;
  std::vector<double> attribute;  // kAttribute only
};

struct JobOutput {
  uint32_t super_nodes = 0;
  std::string ppm;
};

JobOutput RunJob(const PipelineWorkload& w, const PipelineInputs& in,
                 uint32_t lanes) {
  const Graph& g = in.data.graph;
  const ParallelOptions par{lanes, 0};
  ScalarTree tree;
  switch (w.field) {
    case FieldKind::kCore:
      tree = stages::VertexTree(
          g, stages::Lift<VertexScalarField>("KC", stages::KCore(g)), par);
      break;
    case FieldKind::kTruss:
      tree = stages::EdgeTree(
          g, stages::Lift<EdgeScalarField>("KT", stages::KTruss(g, par)),
          par);
      break;
    case FieldKind::kAttribute:
      tree = stages::VertexTree(
          g, stages::Lift<VertexScalarField>("PR", in.attribute), par);
      break;
  }
  const SuperTree super = stages::Contract(tree);
  stages::TerrainOptions terrain;
  terrain.lanes = lanes;
  return JobOutput{super.NumNodes(), stages::Terrain(super, terrain)};
}

struct PipelineSetup {
  PipelineInputs inputs;
  uint32_t ref_nodes = 0;
  uint64_t ref_hash = 0;
};

PipelineSetup SetUpPipeline(const PipelineWorkload& w, uint64_t seed) {
  PipelineSetup setup;
  trace::SetOp(0);
  setup.inputs.data = Generate(w.dataset, w.divisor, seed);
  if (w.field == FieldKind::kAttribute) {
    setup.inputs.attribute = stages::PageRankField(setup.inputs.data.graph);
  }
  // The exact sequential path: every measured job must reproduce it.
  const JobOutput ref = RunJob(w, setup.inputs, 1);
  setup.ref_nodes = ref.super_nodes;
  setup.ref_hash = Checksum(ref.ppm);
  return setup;
}

bool Reproduces(const PipelineSetup& setup, const JobOutput& out) {
  return out.super_nodes == setup.ref_nodes &&
         Checksum(out.ppm) == setup.ref_hash;
}

// Runs `reps` set-ups, Streams() at a time, each on its own thread, and
// appends each one's wall time to *setup_s. Returns the last one; false
// in *agree if any reference job differed from the first.
PipelineSetup SetUpPipelines(const PipelineWorkload& w, uint64_t seed,
                             int reps, std::vector<double>* setup_s,
                             bool* agree) {
  PipelineSetup kept;
  for (int done = 0; done < reps;) {
    const int batch = std::min(static_cast<int>(Streams()), reps - done);
    kept = PipelineSetup{};  // at most `batch` graphs in memory at a time
    std::vector<PipelineSetup> built(batch);
    std::vector<double> seconds(batch);
    OnThreads(batch, [&](size_t i) {
      WallTimer timer;
      built[i] = SetUpPipeline(w, seed);
      seconds[i] = timer.Seconds();
    });
    for (int i = 0; i < batch; ++i) {
      setup_s->push_back(seconds[i]);
      if (built[i].ref_nodes != built[0].ref_nodes ||
          built[i].ref_hash != built[0].ref_hash) {
        *agree = false;
      }
    }
    kept = std::move(built[0]);
    done += batch;
  }
  return kept;
}

struct JobRecord {
  double start_s;  // from the start of the phase
  double latency_s;
  bool ok;
};

// Runs Streams() threads of back-to-back 1-lane jobs until `seconds` have
// passed; op ids continue from *next_op. A job counts in the window its
// start time falls in, and ops_per_s divides by the wall time until the
// last job ended.
Phase RunJobs(const PipelineWorkload& w, const PipelineSetup& setup,
              double seconds, std::atomic<uint64_t>* next_op) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Duration(seconds);
  std::vector<std::vector<JobRecord>> streams(Streams());
  OnThreads(streams.size(), [&](size_t i) {
    while (Clock::now() < deadline) {
      trace::SetOp(next_op->fetch_add(1));
      const Clock::time_point begin = Clock::now();
      JobOutput job;
      {
        trace::Span span("harness.job");
        job = RunJob(w, setup.inputs, 1);
      }
      const Clock::time_point end = Clock::now();
      streams[i].push_back({Seconds(begin - start), Seconds(end - begin),
                            Reproduces(setup, job)});
    }
  });

  Phase phase;
  phase.busy_s = Seconds(Clock::now() - start);
  std::vector<JobRecord> jobs;
  for (const std::vector<JobRecord>& records : streams) {
    jobs.insert(jobs.end(), records.begin(), records.end());
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.start_s < b.start_s;
            });
  size_t next = 0;
  for (int window = 1; window <= kWindows; ++window) {
    const double end_s = window == kWindows
                             ? std::numeric_limits<double>::infinity()
                             : seconds * window / kWindows;
    for (; next < jobs.size() && jobs[next].start_s < end_s; ++next) {
      phase.latency_s.push_back(jobs[next].latency_s);
      ++phase.attempted;
      if (!jobs[next].ok) ++phase.failed;
    }
    phase.EndWindow();
  }
  return phase;
}

Report RunPipeline(const PipelineWorkload& w, uint64_t seed, double seconds,
                   bool traced) {
  Report report;
  std::vector<double> setup_s;
  trace::Arm(traced);
  const PipelineSetup setup = SetUpPipelines(
      w, seed, traced ? 1 : kSetupReps, &setup_s, &report.set_up_ok);
  trace::Arm(false);
  report.detail.push_back(
      {"graph_edges", static_cast<double>(setup.inputs.data.graph.NumEdges()),
       "count"});
  // The parallel path must reproduce the sequential reference too.
  if (!Reproduces(setup, RunJob(w, setup.inputs, Streams()))) {
    report.set_up_ok = false;
  }
  ResetPeakRss();
  std::atomic<uint64_t> next_op{1};
  const Phase phase =
      RunJobs(w, setup, traced ? seconds / 2 : seconds, &next_op);
  AddEndToEnd(setup_s, phase, ProcPeakRssMb("self"), &report);
  if (!traced) return report;

  trace::Arm(true);
  const Phase traced_phase = RunJobs(w, setup, seconds / 2, &next_op);
  trace::Arm(false);
  report.attempted += traced_phase.attempted;
  report.failed += traced_phase.failed;
  AddPerLayer(trace::Events(), setup.ref_nodes,
              Median(traced_phase.latency_s) / Median(phase.latency_s) - 1.0,
              ServeLayers{}, &report);
  return report;
}

// ---------------------------------------------------------------- serve --

constexpr double kAzimuths[] = {225.0, 45.0, 135.0, 315.0};
constexpr size_t kNumAzimuths = 4;
constexpr double kElevation = 42.0;
constexpr uint32_t kTileWidth = 256;
constexpr uint32_t kTileHeight = 192;

// The corpus: each of these datasets at full scale, with a KC and a PR key.
constexpr DatasetId kCorpusDatasets[] = {DatasetId::kGrQc, DatasetId::kPPI,
                                         DatasetId::kAstro,
                                         DatasetId::kWikiVote};

struct CorpusKey {
  std::string target;  // "dataset field", as request lines name it
  uint32_t super_nodes = 0;
  double min_value = 0.0;
  double max_value = 0.0;
  std::string serialized;          // what TREE must return
  std::vector<std::string> tiles;  // what TILE must return, per azimuth
};

struct Corpus {
  std::string root;
  std::vector<CorpusKey> keys;
  std::vector<std::string> datasets;  // each carries both KC and PR
};

std::string TileLine(const CorpusKey& key, size_t azimuth) {
  return StrPrintf("TILE %s %.17g %.17g %u %u", key.target.c_str(),
                   kAzimuths[azimuth], kElevation, kTileWidth, kTileHeight);
}

Status AddKey(ArtifactCache* cache, const std::string& dataset,
              const Graph& g, const VertexScalarField& field,
              uint64_t* next_op, Corpus* corpus) {
  trace::SetOp((*next_op)++);
  TreeArtifact artifact;
  artifact.tree = stages::Contract(stages::VertexTree(g, field, kOneLane));
  artifact.field_name = field.Name();
  artifact.field_values = field.Values();
  CorpusKey key;
  key.target = dataset + " " + field.Name();
  key.super_nodes = artifact.tree.NumNodes();
  key.min_value = field.MinValue();
  key.max_value = field.MaxValue();
  {
    trace::Span span("scalar.serialize");
    StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
    if (!bytes.ok()) return bytes.status();
    key.serialized = std::move(bytes).value();
  }
  {
    trace::Span span("scalar.cache_put");
    const Status put =
        cache->Put(ArtifactKey{dataset, field.Name()}, artifact);
    if (!put.ok()) return put;
  }
  for (const double azimuth : kAzimuths) {
    stages::TerrainOptions tile;
    tile.raster_width = tile.image_width = kTileWidth;
    tile.raster_height = tile.image_height = kTileHeight;
    tile.camera.azimuth_deg = azimuth;
    tile.camera.elevation_deg = kElevation;
    key.tiles.push_back(stages::Terrain(artifact.tree, tile));
  }
  corpus->keys.push_back(std::move(key));
  return Status::Ok();
}

StatusOr<Corpus> BuildCorpus(uint64_t seed, const std::string& root) {
  Corpus corpus;
  corpus.root = root;
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  StatusOr<ArtifactCache> opened = ArtifactCache::Open(root);
  if (!opened.ok()) return opened.status();
  ArtifactCache cache = std::move(opened).value();
  uint64_t next_op = 1ull << 40;  // set-up ops, disjoint from request ids
  for (const DatasetId id : kCorpusDatasets) {
    trace::SetOp(0);
    const Dataset data = Generate(id, 1, seed);
    const std::string name = data.spec.name;
    const VertexScalarField kc = stages::Lift<VertexScalarField>(
        "KC", stages::KCore(data.graph));
    Status added = AddKey(&cache, name, data.graph, kc, &next_op, &corpus);
    if (!added.ok()) return added;
    const VertexScalarField pr = stages::Lift<VertexScalarField>(
        "PR", stages::PageRankField(data.graph));
    added = AddKey(&cache, name, data.graph, pr, &next_op, &corpus);
    if (!added.ok()) return added;
    corpus.datasets.push_back(name);
  }
  return corpus;
}

// Request classes, weighed by bench_service_qps's dashboard mix (each
// weight out of the sum).
enum class Kind {
  kTree,
  kPeaks,
  kTopPeaks,
  kMembers,
  kCorrelation,
  kTile,
  kStats
};
//                                       TREE PEAKS TOP MEMBERS CORR TILE STATS
constexpr std::array<uint32_t, 7> kMix = {10, 25, 25, 15, 10, 10, 5};

struct Request {
  std::string line;
  Kind kind = Kind::kStats;
  size_t key = 0;
  size_t azimuth = 0;
  uint64_t op = 0;
};

const char* KindName(Kind kind) {
  static const char* const kNames[] = {"TREE",    "PEAKS",       "TOPPEAKS",
                                       "MEMBERS", "CORRELATION", "TILE",
                                       "STATS"};
  return kNames[static_cast<int>(kind)];
}

Request MakeRequest(const Corpus& corpus, Rng* rng) {
  uint32_t total = 0;
  for (uint32_t weight : kMix) total += weight;
  uint32_t draw = rng->UniformInt(total);
  size_t kind = 0;
  while (draw >= kMix[kind]) draw -= kMix[kind++];
  Request request;
  request.kind = static_cast<Kind>(kind);
  request.key = rng->UniformInt(static_cast<uint32_t>(corpus.keys.size()));
  const CorpusKey& key = corpus.keys[request.key];
  const char* target = key.target.c_str();
  switch (request.kind) {
    case Kind::kTree:
      request.line = StrPrintf("TREE %s", target);
      break;
    case Kind::kPeaks: {
      // One of 16 levels across the field's range, so lines repeat and
      // the first-reply check has something to compare.
      const double q = rng->UniformInt(16) / 16.0;
      request.line =
          StrPrintf("PEAKS %s %.17g", target,
                    key.min_value + q * (key.max_value - key.min_value));
      break;
    }
    case Kind::kTopPeaks:
      request.line =
          StrPrintf("TOPPEAKS %s %u", target, 1 + rng->UniformInt(16));
      break;
    case Kind::kMembers:
      request.line = StrPrintf("MEMBERS %s %u", target,
                               rng->UniformInt(key.super_nodes));
      break;
    case Kind::kCorrelation: {
      const uint32_t pick =
          rng->UniformInt(static_cast<uint32_t>(corpus.datasets.size()));
      request.line = "CORRELATION " + corpus.datasets[pick] + " KC PR";
      break;
    }
    case Kind::kTile:
      request.azimuth = rng->UniformInt(kNumAzimuths);
      request.line = TileLine(key, request.azimuth);
      break;
    case Kind::kStats:
      request.line = "STATS";
      break;
  }
  return request;
}

// Checks a reply against what set-up computed, or against the first reply
// to the same line where only the service knows the answer.
class ReplyChecker {
 public:
  explicit ReplyChecker(const Corpus* corpus) : corpus_(corpus) {}

  bool Check(const Request& request, const service::ResponseFrame& frame) {
    if (frame.wire_code != service::kWireOk) return false;
    const CorpusKey& key = corpus_->keys[request.key];
    switch (request.kind) {
      case Kind::kTree:
        return frame.payload == key.serialized;
      case Kind::kTile:
        return frame.payload == key.tiles[request.azimuth];
      case Kind::kStats:
        return frame.payload.rfind("version ", 0) == 0;
      default:
        break;
    }
    const uint64_t hash = Checksum(frame.payload);
    std::lock_guard<std::mutex> lock(mu_);
    return first_.emplace(request.line, hash).first->second == hash;
  }

 private:
  const Corpus* const corpus_;
  std::mutex mu_;
  std::unordered_map<std::string, uint64_t> first_;  // guarded by mu_
};

struct ClientLog {
  std::vector<double> latency_s;
  std::vector<Request> sent;  // kept only while tracing, for the replay
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reply_bytes = 0;
};

std::atomic<uint64_t> g_next_request_op{1};

// One request on an open connection, timed from send to reply.
void Issue(service::BlockingClient* client, Request request,
           ReplyChecker* checker, ClientLog* log) {
  request.op = g_next_request_op.fetch_add(1);
  trace::SetOp(request.op);
  const Clock::time_point sent = Clock::now();
  StatusOr<service::ResponseFrame> reply = [&] {
    trace::Span span("service.roundtrip", KindName(request.kind));
    return client->Roundtrip(request.line);
  }();
  ++log->attempted;
  log->latency_s.push_back(Seconds(Clock::now() - sent));
  if (!reply.ok() || !checker->Check(request, reply.value())) {
    ++log->failed;
  } else {
    log->reply_bytes += reply.value().payload.size();
  }
  if (trace::Armed()) log->sent.push_back(std::move(request));
}

// Runs one closed-loop client per log, each on its own connection: the
// next request goes when the previous reply arrives, until `seconds` have
// passed. Returns the wall time from start until the last reply.
double RunClients(uint16_t port, const Corpus& corpus, uint64_t stream,
                  double seconds, ReplyChecker* checker,
                  std::vector<ClientLog>* logs) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Duration(seconds);
  OnThreads(logs->size(), [&](size_t c) {
    ClientLog& log = (*logs)[c];
    Rng rng(stream * 64 + c);
    service::BlockingClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      ++log.attempted;
      ++log.failed;
      return;
    }
    while (Clock::now() < deadline) {
      Issue(&client, MakeRequest(corpus, &rng), checker, &log);
    }
  });
  return Seconds(Clock::now() - start);
}

// One graphscape_serve process over the corpus, started the way an
// operator starts it (docs/OPERATIONS.md), so the memory it reports is
// the daemon's own.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { Stop(); }

  Status Start(const std::string& cache_root, const std::string& work_dir) {
    Stop();
    trace::Span span("harness.daemon_start");
    const std::string port_file = work_dir + "/port";
    std::error_code ec;
    std::filesystem::remove(port_file, ec);
    std::vector<std::string> args = {
        GRAPHSCAPE_BENCH_SERVE_BIN, "--cache=" + cache_root, "--port=0",
        "--threads=" + std::to_string(Streams()), "--port-file=" + port_file};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return Status::Unavailable("fork failed");
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec. The daemon
      // dies with the harness, and its stdout stays off ours.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    // The daemon writes "<port>\n" to the port file once it listens.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < give_up) {
      std::ifstream in(port_file);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
        return Status::Ok();
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Unavailable("graphscape_serve exited at start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Stop();
    return Status::DeadlineExceeded("graphscape_serve did not listen in 30 s");
  }

  /// SIGTERM, then wait until the daemon has drained and exited.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  uint16_t port() const { return port_; }
  double PeakRssMb() const { return ProcPeakRssMb(std::to_string(pid_)); }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// The daemon's tile-LRU counters, from its STATS reply.
struct DaemonCounters {
  uint64_t tile_hits = 0;
  uint64_t tile_misses = 0;
};

StatusOr<DaemonCounters> FetchCounters(uint16_t port) {
  service::BlockingClient client;
  const Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) return connected;
  StatusOr<service::ResponseFrame> reply = client.Roundtrip("STATS");
  if (!reply.ok()) return reply.status();
  DaemonCounters counters;
  std::istringstream lines(reply.value().payload);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.find(' ');
    const std::string name = line.substr(0, space);
    const uint64_t value =
        std::strtoull(line.c_str() + std::min(space, line.size()), nullptr, 10);
    if (name == "tile_hits") counters.tile_hits = value;
    if (name == "tile_misses") counters.tile_misses = value;
  }
  return counters;
}

// TREE and every TILE of every key: what warm set-up sends so that every
// artifact is loaded and the tile LRU is full before timing starts.
std::vector<Request> WarmupRequests(const Corpus& corpus) {
  std::vector<Request> requests;
  for (size_t k = 0; k < corpus.keys.size(); ++k) {
    Request tree;
    tree.line = "TREE " + corpus.keys[k].target;
    tree.kind = Kind::kTree;
    tree.key = k;
    requests.push_back(tree);
    for (size_t a = 0; a < corpus.keys[k].tiles.size(); ++a) {
      Request tile;
      tile.line = TileLine(corpus.keys[k], a);
      tile.kind = Kind::kTile;
      tile.key = k;
      tile.azimuth = a;
      requests.push_back(tile);
    }
  }
  return requests;
}

// Serves each client's recorded lines straight into HandleLine, from as
// many threads as there were clients: the server-side cost of the same
// request stream without the socket.
void Replay(service::QueryService* service,
            const std::vector<ClientLog>& logs) {
  OnThreads(logs.size(), [&](size_t c) {
    for (const Request& request : logs[c].sent) {
      trace::SetOp(request.op);
      std::string frame;
      {
        trace::Span span("service.handle", KindName(request.kind));
        frame = service->HandleLine(request.line);
      }
      trace::Span span("service.decode");
      (void)service::DecodeResponseFrame(frame);
    }
  });
}

struct ServeTotals {
  Phase phase;
  uint64_t reply_bytes = 0;
  uint64_t tile_hits = 0;
  uint64_t tile_lookups = 0;
};

void Absorb(const std::vector<ClientLog>& logs, const DaemonCounters& before,
            const DaemonCounters& after, ServeTotals* totals) {
  Phase& phase = totals->phase;
  for (const ClientLog& log : logs) {
    phase.latency_s.insert(phase.latency_s.end(), log.latency_s.begin(),
                           log.latency_s.end());
    phase.attempted += log.attempted;
    phase.failed += log.failed;
    totals->reply_bytes += log.reply_bytes;
  }
  phase.EndWindow();
  totals->tile_hits += after.tile_hits - before.tile_hits;
  totals->tile_lookups += after.tile_hits + after.tile_misses -
                          before.tile_hits - before.tile_misses;
}

// Measures `seconds` of closed-loop traffic against `daemon` in kWindows
// rounds, and appends each round's client logs to *rounds.
StatusOr<ServeTotals> MeasureServe(
    const Corpus& corpus, uint64_t stream, double seconds,
    const DaemonProcess& daemon, ReplyChecker* checker,
    std::vector<std::vector<ClientLog>>* rounds) {
  ServeTotals totals;
  for (int round = 0; round < kWindows; ++round) {
    StatusOr<DaemonCounters> before = FetchCounters(daemon.port());
    if (!before.ok()) return before.status();
    std::vector<ClientLog> logs(Streams());
    totals.phase.busy_s +=
        RunClients(daemon.port(), corpus, stream * 1000 + round,
                   seconds / kWindows, checker, &logs);
    StatusOr<DaemonCounters> after = FetchCounters(daemon.port());
    if (!after.ok()) return after.status();
    Absorb(logs, before.value(), after.value(), &totals);
    rounds->push_back(std::move(logs));
  }
  return totals;
}

// One serve set-up: a corpus in its own directory and a daemon over it,
// warmed with every TREE and TILE. `seconds` sums the three steps.
struct ServeSetup {
  std::string dir;
  Corpus corpus;
  DaemonProcess daemon;
  Status status;
  bool warm_ok = true;
  double seconds = 0.0;
};

void BuildServeCorpus(uint64_t seed, ServeSetup* s) {
  WallTimer timer;
  StatusOr<Corpus> built = BuildCorpus(seed, s->dir + "/corpus");
  s->seconds += timer.Seconds();
  if (!built.ok()) {
    s->status = built.status();
    return;
  }
  s->corpus = std::move(built).value();
}

void StartServeDaemon(ServeSetup* s) {
  if (!s->status.ok()) return;
  WallTimer timer;
  s->status = s->daemon.Start(s->corpus.root, s->dir);
  s->seconds += timer.Seconds();
}

void WarmServeDaemon(ServeSetup* s) {
  if (!s->status.ok()) return;
  WallTimer timer;
  service::BlockingClient client;
  s->status = client.Connect("127.0.0.1", s->daemon.port());
  if (!s->status.ok()) return;
  ReplyChecker checker(&s->corpus);
  for (const Request& request : WarmupRequests(s->corpus)) {
    StatusOr<service::ResponseFrame> reply = client.Roundtrip(request.line);
    if (!reply.ok() || !checker.Check(request, reply.value())) {
      s->warm_ok = false;
    }
  }
  s->seconds += timer.Seconds();
}

// Runs `reps` set-ups, Streams() at a time, like SetUpPipelines, appends
// each one's time to *setup_s, and keeps the last one in *kept.
Status SetUpServes(uint64_t seed, int reps, const std::string& work_dir,
                   std::vector<double>* setup_s, bool* warm_ok,
                   std::unique_ptr<ServeSetup>* kept) {
  for (int done = 0; done < reps;) {
    const size_t batch = std::min<size_t>(Streams(), reps - done);
    kept->reset();  // stops its daemon before its directory is rebuilt
    std::vector<std::unique_ptr<ServeSetup>> built;
    for (size_t i = 0; i < batch; ++i) {
      built.push_back(std::make_unique<ServeSetup>());
      built.back()->dir = work_dir + "/setup-" + std::to_string(i);
    }
    OnThreads(batch, [&](size_t i) { BuildServeCorpus(seed, built[i].get()); });
    // Daemons start from this thread, while no other thread holds a
    // socket the child would inherit; and PR_SET_PDEATHSIG fires when the
    // forking thread exits, which a set-up thread does.
    for (std::unique_ptr<ServeSetup>& s : built) StartServeDaemon(s.get());
    OnThreads(batch, [&](size_t i) { WarmServeDaemon(built[i].get()); });
    for (const std::unique_ptr<ServeSetup>& s : built) {
      if (!s->status.ok()) return s->status;
      if (!s->warm_ok) *warm_ok = false;
      setup_s->push_back(s->seconds);
    }
    *kept = std::move(built[0]);
    done += static_cast<int>(batch);
  }
  return Status::Ok();
}

StatusOr<Report> RunServe(uint64_t seed, double seconds, bool traced,
                          const std::string& work_dir) {
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> kept;
  trace::Arm(traced);
  const Status set_up = SetUpServes(seed, traced ? 1 : kSetupReps, work_dir,
                                    &setup_s, &report.set_up_ok, &kept);
  trace::Arm(false);
  if (!set_up.ok()) return set_up;
  const Corpus& corpus = kept->corpus;
  DaemonProcess& daemon = kept->daemon;
  ReplyChecker checker(&corpus);

  std::vector<std::vector<ClientLog>> rounds;
  StatusOr<ServeTotals> untraced =
      MeasureServe(corpus, seed * 2, traced ? seconds / 2 : seconds, daemon,
                   &checker, &rounds);
  if (!untraced.ok()) return untraced.status();
  AddEndToEnd(setup_s, untraced.value().phase, daemon.PeakRssMb(), &report);
  if (!traced) return report;

  rounds.clear();
  trace::Arm(true);
  StatusOr<ServeTotals> traced_run = MeasureServe(
      corpus, seed * 2 + 1, seconds / 2, daemon, &checker, &rounds);
  trace::Arm(false);
  if (!traced_run.ok()) return traced_run.status();
  daemon.Stop();
  // The same lines again, in-process, against a service opened over the
  // same cache and warmed like the daemon.
  StatusOr<std::unique_ptr<service::QueryService>> opened =
      service::QueryService::Open(corpus.root);
  if (!opened.ok()) return opened.status();
  service::QueryService* in_process = opened.value().get();
  for (const Request& request : WarmupRequests(corpus)) {
    in_process->HandleLine(request.line);
  }
  trace::Arm(true);
  for (const std::vector<ClientLog>& logs : rounds) Replay(in_process, logs);
  trace::Arm(false);
  const ServeTotals& t = traced_run.value();
  report.attempted += t.phase.attempted;
  report.failed += t.phase.failed;

  const std::vector<trace::Event> events = trace::Events();
  std::map<std::string, std::vector<double>> handle_ms;
  double handle_total_ms = 0.0;
  for (const trace::Event& e : events) {
    if (std::strcmp(e.name, "service.handle") != 0) continue;
    const double ms = (e.end_ns - e.begin_ns) / 1e6;
    handle_ms[e.detail].push_back(ms);
    handle_total_ms += ms;
  }
  for (const auto& [verb, ms] : handle_ms) {
    report.detail.push_back(
        {"service.handle_" + verb + "_p50_ms", Percentile(ms, 0.50), "ms"});
    report.detail.push_back(
        {"service.handle_" + verb + "_p99_ms", Percentile(ms, 0.99), "ms"});
  }
  double client_total_ms = 0.0;
  for (double s : t.phase.latency_s) client_total_ms += 1e3 * s;
  const double replies =
      static_cast<double>(t.phase.attempted - t.phase.failed);
  ServeLayers serve;
  serve.handler_frac =
      client_total_ms > 0.0 ? handle_total_ms / client_total_ms : 0.0;
  serve.tile_hit_frac = t.tile_lookups > 0
                            ? static_cast<double>(t.tile_hits) /
                                  static_cast<double>(t.tile_lookups)
                            : 0.0;
  serve.reply_kb =
      replies > 0.0 ? static_cast<double>(t.reply_bytes) / 1024.0 / replies
                    : 0.0;
  double super_nodes = 0.0;
  for (const CorpusKey& key : corpus.keys) super_nodes += key.super_nodes;
  AddPerLayer(events, super_nodes,
              Median(t.phase.latency_s) /
                      Median(untraced.value().phase.latency_s) -
                  1.0,
              serve, &report);
  return report;
}

// ------------------------------------------------------------- workloads --

using RunFn = std::function<StatusOr<Report>(
    uint64_t seed, double seconds, bool traced, const std::string& work_dir)>;

RunFn Pipeline(PipelineWorkload w) {
  return [w](uint64_t seed, double seconds, bool traced, const std::string&)
             -> StatusOr<Report> {
    return RunPipeline(w, seed, seconds, traced);
  };
}

struct Workload {
  const char* name;
  RunFn run;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"kcore-large",
       Pipeline({DatasetId::kCitPatent, 4, FieldKind::kCore})},
      {"ktruss-dense", Pipeline({DatasetId::kDBLP, 4, FieldKind::kTruss})},
      {"attr-terrain",
       Pipeline({DatasetId::kCitPatent, 16, FieldKind::kAttribute})},
      {"serve-warm", RunServe},
  };
  return kWorkloads;
}

// --------------------------------------------------------------- output --

void PrintMetricLines(const std::string& workload,
                      const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrPrintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit.c_str());
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string json_path;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--json") {
      args->json_path = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

bool WriteJson(const Args& args, const std::string& result,
               const Report& report) {
  std::FILE* out = std::fopen(args.json_path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(
      out,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g,\n"
      " \"machine\": {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"lanes\": 1, \"streams\": %u, "
      "\"commit\": \"%s\"},\n"
      " \"result\": %s,\n \"end_to_end\": %s,\n \"detail\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, std::thread::hardware_concurrency(), CpuModel().c_str(),
      GRAPHSCAPE_BENCH_BUILD_TYPE, GRAPHSCAPE_BENCH_COMPILER, Streams(),
      args.commit.c_str(), result.c_str(),
      MetricsJson(report.end_to_end).c_str(),
      MetricsJson(report.detail).c_str());
  return std::fclose(out) == 0;
}

int Main(int argc, char** argv) {
  FixAllocatorThresholds();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: graphscape_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace FILE] [--json FILE] "
                 "[--work-dir DIR] [--commit SHA]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced = !args.trace_path.empty();
  const std::string work_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid());

  std::printf("# machine nproc=%u cpu=\"%s\" build=%s compiler=\"%s\" "
              "lanes=1 streams=%u commit=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              GRAPHSCAPE_BENCH_BUILD_TYPE, GRAPHSCAPE_BENCH_COMPILER,
              Streams(), args.commit.c_str());
  StatusOr<Report> ran =
      workload->run(args.seed, args.seconds, traced, work_dir);
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  if (!ran.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 ran.status().ToString().c_str());
    return 1;
  }
  const Report& report = ran.value();
  PrintMetricLines(args.workload, report.end_to_end);
  PrintMetricLines(args.workload, report.detail);
  PrintMetricLines(args.workload, report.per_layer);
  if (traced && !trace::WriteChromeTrace(trace::Events(), args.workload,
                                         args.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    return 1;
  }
  const bool correct = report.set_up_ok && report.failed == 0;
  const std::string result = StrPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(traced ? report.per_layer : report.end_to_end).c_str());
  if (!args.json_path.empty() && !WriteJson(args, result, report)) {
    std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace graphscape

int main(int argc, char** argv) { return graphscape::bench::Main(argc, argv); }
