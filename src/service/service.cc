// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "service/service.h"

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "scalar/correlation.h"
#include "scalar/tree_queries.h"
#include "terrain/guarded_render.h"
#include "terrain/render.h"

namespace graphscape {
namespace service {
namespace {

// CORRELATION's top-peak Jaccard compares the top 10 peaks: the
// paper-table convention (REPRODUCTION.md), enough peaks to cover the
// dominant structures, few enough to stay local.
constexpr uint32_t kCorrelationPeaks = 10;

// TILE width/height above this are INVALID_ARGUMENT outright.
constexpr uint32_t kMaxTileDim = 2048;

void Bump(std::atomic<uint64_t>* counter) {
  counter->fetch_add(1, std::memory_order_relaxed);
}

uint64_t Read(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

// Frames a freshly built OK payload.
StatusOr<std::shared_ptr<const std::string>> OkFrame(
    const StatusOr<std::string>& payload) {
  if (!payload.ok()) return payload.status();
  return std::make_shared<const std::string>(
      EncodeResponseFrame(kWireOk, payload.value()));
}

// Shared by PEAKS and TOPPEAKS: "peaks <count>" then one
// "<super_node> <member_count> <max_scalar>" row per peak, %.17g so the
// summit values round-trip exactly (docs/SERVICE.md §Payloads).
std::string FormatPeaks(const std::vector<Peak>& peaks) {
  std::string out =
      StrPrintf("peaks %u", static_cast<unsigned>(peaks.size()));
  for (const Peak& peak : peaks) {
    out += StrPrintf("\n%u %u %.17g", peak.super_node, peak.member_count,
                     peak.max_scalar);
  }
  out += '\n';
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<QueryService>> QueryService::Open(
    const std::string& cache_root, const Options& options) {
  StatusOr<ArtifactCache> cache = ArtifactCache::Open(cache_root);
  if (!cache.ok()) return cache.status();
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(cache).value(), options));
}

std::shared_ptr<const std::string> QueryService::Respond(
    const std::string& line) {
  Bump(&counters_.requests);
  StatusOr<Request> parsed = ParseRequestLine(line);
  StatusOr<Frame> frame =
      parsed.ok() ? Dispatch(parsed.value()) : parsed.status();
  if (frame.ok()) {
    Bump(&counters_.ok);
    return std::move(frame).value();
  }
  Bump(&counters_.errors);
  return std::make_shared<const std::string>(
      EncodeErrorFrame(frame.status()));
}

StatusOr<QueryService::Frame> QueryService::Dispatch(const Request& request) {
  switch (request.verb) {
    case Verb::kTree:
      return HandleTree(request);
    case Verb::kPeaks:
      return OkFrame(HandlePeaks(request));
    case Verb::kTopPeaks:
      return OkFrame(HandleTopPeaks(request));
    case Verb::kMembers:
      return OkFrame(HandleMembers(request));
    case Verb::kCorrelation:
      return OkFrame(HandleCorrelation(request));
    case Verb::kTile:
      return HandleTile(request);
    case Verb::kStats:
      return OkFrame(HandleStats());
  }
  return Status::InvalidArgument("unreachable: unknown verb after parse");
}

StatusOr<std::shared_ptr<const QueryService::LoadedArtifact>>
QueryService::GetArtifact(const std::string& dataset,
                          const std::string& field) {
  std::lock_guard<std::mutex> lock(load_mu_);
  const std::string canonical = dataset + "/" + field;
  auto it = loaded_.find(canonical);
  if (it != loaded_.end()) return it->second;

  StatusOr<TreeArtifact> got = cache_.Get(ArtifactKey{dataset, field});
  if (!got.ok()) return got.status();
  auto loaded = std::make_shared<LoadedArtifact>();
  loaded->artifact = std::move(got).value();
  StatusOr<std::string> bytes = SerializeTreeArtifact(loaded->artifact);
  if (!bytes.ok()) return bytes.status();
  loaded->tree_frame = std::make_shared<const std::string>(
      EncodeResponseFrame(kWireOk, bytes.value()));
  // Prime the lazy member index while we hold load_mu_: its first build
  // is not thread-safe, and after this the artifact is immutable and
  // safe to share across every worker thread (scalar/super_tree.h).
  loaded->artifact.tree.MemberIndex();
  loaded->ranks = AverageRanks(loaded->artifact.field_values);
  loaded->top_peak_members =
      TopPeakMembers(loaded->artifact.tree, kCorrelationPeaks);

  loaded_[canonical] = loaded;
  Bump(&counters_.artifacts_loaded);
  return std::shared_ptr<const LoadedArtifact>(loaded);
}

StatusOr<QueryService::Frame> QueryService::HandleTree(
    const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  return loaded.value()->tree_frame;
}

StatusOr<std::string> QueryService::HandlePeaks(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  return FormatPeaks(
      PeaksAtLevel(loaded.value()->artifact.tree, request.level));
}

StatusOr<std::string> QueryService::HandleTopPeaks(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  return FormatPeaks(TopPeaks(loaded.value()->artifact.tree, request.k));
}

StatusOr<std::string> QueryService::HandleMembers(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  const SuperTree& tree = loaded.value()->artifact.tree;
  if (request.node >= tree.NumNodes()) {
    return Status::InvalidArgument(
        StrPrintf("MEMBERS node %u out of range: tree has %u super nodes",
                  request.node, tree.NumNodes()));
  }
  const MemberRange members = tree.Members(request.node);
  std::string out = StrPrintf("members %u", members.size());
  for (uint32_t element : members) out += StrPrintf("\n%u", element);
  out += '\n';
  return out;
}

StatusOr<std::string> QueryService::HandleCorrelation(
    const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> a =
      GetArtifact(request.dataset, request.field);
  if (!a.ok()) return a.status();
  StatusOr<std::shared_ptr<const LoadedArtifact>> b =
      GetArtifact(request.dataset, request.field_b);
  if (!b.ok()) return b.status();
  const LoadedArtifact& la = *a.value();
  const LoadedArtifact& lb = *b.value();
  const TreeArtifact& fa = la.artifact;
  const TreeArtifact& fb = lb.artifact;
  if (fa.field_values.size() != fb.field_values.size()) {
    return Status::InvalidArgument(StrPrintf(
        "CORRELATION fields span different element spaces (%u vs %u "
        "elements; a vertex field cannot be compared to an edge field)",
        static_cast<unsigned>(fa.field_values.size()),
        static_cast<unsigned>(fb.field_values.size())));
  }
  // Artifacts stored without field values pass the check above, so the
  // trees' element spaces are compared too (TopPeakJaccard's rule).
  if (fa.tree.NumElements() != fb.tree.NumElements()) {
    return Status::InvalidArgument(StrPrintf(
        "CORRELATION trees contract different element spaces (%u vs %u "
        "elements)",
        fa.tree.NumElements(), fb.tree.NumElements()));
  }
  // The library's SpearmanCorrelation and TopPeakJaccard, over the ranks
  // and member lists built at load.
  return StrPrintf(
      "pearson %.17g\nspearman %.17g\ntop_peak_jaccard10 %.17g\n",
      PearsonCorrelation(fa.field_values, fb.field_values),
      PearsonCorrelation(la.ranks, lb.ranks),
      SortedJaccard(la.top_peak_members, lb.top_peak_members));
}

StatusOr<QueryService::Frame> QueryService::HandleTile(
    const Request& request) {
  if (request.width == 0 || request.height == 0 ||
      request.width > kMaxTileDim || request.height > kMaxTileDim) {
    return Status::InvalidArgument(
        StrPrintf("TILE dimensions %ux%u outside 1..%u", request.width,
                  request.height, kMaxTileDim));
  }
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();

  TileKey key;
  key.dataset = request.dataset;
  key.field = request.field;
  key.azimuth_deg = request.azimuth_deg;
  key.elevation_deg = request.elevation_deg;
  key.width = request.width;
  key.height = request.height;
  const std::string canonical = key.Canonical();
  if (Frame hit = tiles_.Get(canonical)) return hit;

  // The render seam: arming service/render=always turns every cold tile
  // into a clean UNAVAILABLE frame — the CI service-smoke job proves
  // clients see a structured error, not a hung or torn connection.
  if (failpoint::Fire("service/render")) {
    return failpoint::InjectedFault("service/render");
  }

  ResourceBudget budget(options_.request_budget_bytes,
                        options_.request_deadline_seconds);
  GuardedRenderOptions render_options;
  render_options.raster_width = request.width;
  render_options.raster_height = request.height;
  render_options.image_width = request.width;
  render_options.image_height = request.height;
  render_options.camera.azimuth_deg = request.azimuth_deg;
  render_options.camera.elevation_deg = request.elevation_deg;
  StatusOr<GuardedRenderResult> rendered = RenderTreeTerrainGuarded(
      loaded.value()->artifact.tree, &budget, render_options);
  if (!rendered.ok()) return rendered.status();

  const Frame frame = std::make_shared<const std::string>(
      EncodeResponseFrame(kWireOk, EncodePpm(rendered.value().image)));
  Bump(&counters_.tiles_rendered);
  tiles_.Put(canonical, frame);
  return frame;
}

StatusOr<std::string> QueryService::HandleStats() {
  const ServiceStats snapshot = stats();
  const TileCacheStats tile = tiles_.stats();
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    keys = cache_.Keys();
  }
  std::string out = StrPrintf(
      "version %u\n"
      "requests %llu\n"
      "ok %llu\n"
      "errors %llu\n"
      "artifacts_loaded %llu\n"
      "tiles_rendered %llu\n"
      "tile_hits %llu\n"
      "tile_misses %llu\n"
      "tile_evictions %llu\n"
      "tile_bytes %llu\n"
      "tile_count %llu\n",
      kWireVersion, static_cast<unsigned long long>(snapshot.requests),
      static_cast<unsigned long long>(snapshot.ok),
      static_cast<unsigned long long>(snapshot.errors),
      static_cast<unsigned long long>(snapshot.artifacts_loaded),
      static_cast<unsigned long long>(snapshot.tiles_rendered),
      static_cast<unsigned long long>(tile.hits),
      static_cast<unsigned long long>(tile.misses),
      static_cast<unsigned long long>(tile.evictions),
      static_cast<unsigned long long>(tile.current_bytes),
      static_cast<unsigned long long>(tile.current_tiles));
  // One "key dataset/field" line per cache entry — the load generator
  // discovers the corpus from exactly these lines.
  for (const std::string& key : keys) out += "key " + key + "\n";
  return out;
}

ServiceStats QueryService::stats() const {
  ServiceStats snapshot;
  snapshot.requests = Read(counters_.requests);
  snapshot.ok = Read(counters_.ok);
  snapshot.errors = Read(counters_.errors);
  snapshot.artifacts_loaded = Read(counters_.artifacts_loaded);
  snapshot.tiles_rendered = Read(counters_.tiles_rendered);
  return snapshot;
}

}  // namespace service
}  // namespace graphscape
