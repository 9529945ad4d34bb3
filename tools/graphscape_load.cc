// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// graphscape_load: closed-loop load generator for graphscape_serve.
//
//   graphscape_load --port=N [--host=H] [--clients=N] [--requests=N]
//                   [--seed=N] [--zipf=F] [--classes=LIST]
//
// Each of --clients worker threads opens one connection and issues
// --requests requests back-to-back (closed loop: the next request waits
// for the previous response). Dataset popularity is zipf(--zipf) over
// the corpus discovered from the daemon's own STATS verb — no side
// channel; whatever the cache serves is what gets load. --classes picks
// the query mix from {tree,peaks,toppeaks,members,correlation,tile,
// stats}, comma-separated; default is all seven.
//
// Readout (machine-greppable, one "name value" per line — the CI
// service-smoke job asserts on these):
//
//   requests / ok / server_errors / wire_errors counters,
//   qps, p50_ms, p99_ms.
//
// Error taxonomy matches service/client.h: server_errors are structured
// non-OK frames (expected under fault injection — the daemon answered
// correctly with an error); wire_errors are transport/framing failures
// (NEVER expected; the exit code is 0 iff wire_errors == 0, which is
// the property CI gates on with and without failpoints armed).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "service/client.h"
#include "service/wire.h"

namespace {

using graphscape::Rng;
using graphscape::Status;
using graphscape::StatusOr;
using graphscape::StrPrintf;
using graphscape::WallTimer;
namespace service = graphscape::service;

struct CorpusEntry {
  std::string dataset;
  std::vector<std::string> fields;
};

struct ClientTotals {
  uint64_t ok = 0;
  uint64_t server_errors = 0;
  uint64_t wire_errors = 0;
  std::vector<double> latencies_ms;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port=N [--host=H] [--clients=N] [--requests=N]\n"
      "          [--seed=N] [--zipf=F] [--classes=tree,peaks,toppeaks,"
      "members,correlation,tile,stats]\n",
      argv0);
  return 2;
}

// "STATS" -> corpus: every "key dataset/field" line becomes one field
// of one dataset (docs/SERVICE.md pins the payload shape).
StatusOr<std::vector<CorpusEntry>> DiscoverCorpus(const std::string& host,
                                                  uint16_t port) {
  service::BlockingClient client;
  Status status = client.Connect(host, port);
  if (!status.ok()) return status;
  StatusOr<service::ResponseFrame> reply = client.Roundtrip("STATS");
  if (!reply.ok()) return reply.status();
  if (reply.value().wire_code != service::kWireOk) {
    return Status::Unavailable(
        StrPrintf("STATS answered wire code %u", reply.value().wire_code));
  }
  std::map<std::string, std::vector<std::string>> by_dataset;
  const std::string& payload = reply.value().payload;
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t end = payload.find('\n', pos);
    if (end == std::string::npos) end = payload.size();
    const std::string line = payload.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("key ", 0) != 0) continue;
    const std::string canonical = line.substr(4);
    const size_t slash = canonical.find('/');
    if (slash == std::string::npos) continue;
    by_dataset[canonical.substr(0, slash)].push_back(
        canonical.substr(slash + 1));
  }
  std::vector<CorpusEntry> corpus;
  corpus.reserve(by_dataset.size());
  for (auto& entry : by_dataset) {
    corpus.push_back(CorpusEntry{entry.first, std::move(entry.second)});
  }
  return corpus;
}

// Zipf CDF over corpus ranks: weight of rank r is 1/(r+1)^s. The corpus
// is sorted by dataset name, so rank — hence popularity — is stable
// across runs; determinism is the point of the seeded generator.
std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& value : cdf) value /= total;
  return cdf;
}

size_t SampleCdf(const std::vector<double>& cdf, double u) {
  return static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

std::string MakeRequestLine(const std::string& klass,
                            const CorpusEntry& entry, Rng* rng) {
  const auto random_field = [&]() -> const std::string& {
    return entry.fields[rng->UniformInt(
        static_cast<uint32_t>(entry.fields.size()))];
  };
  service::Request request;  // an unknown class stays STATS
  request.dataset = entry.dataset;
  request.field = random_field();
  if (klass == "tree") {
    request.verb = service::Verb::kTree;
  } else if (klass == "peaks") {
    // Field ranges vary per dataset; any level is a legal query (an
    // empty superlevel set is a valid answer), so sample broadly.
    request.verb = service::Verb::kPeaks;
    request.level = rng->UniformDouble() * 8.0;
  } else if (klass == "toppeaks") {
    request.verb = service::Verb::kTopPeaks;
    request.k = 1 + rng->UniformInt(16);
  } else if (klass == "members") {
    // Node 0 exists in every non-empty tree (contraction mints roots
    // first), so the query is always valid without knowing the size.
    request.verb = service::Verb::kMembers;
    request.node = 0;
  } else if (klass == "correlation") {
    request.verb = service::Verb::kCorrelation;
    request.field_b = random_field();
  } else if (klass == "tile") {
    // A few camera presets, not a continuum: repeats are what give the
    // tile LRU its hits (watch tile_hits climb via STATS).
    static const double kAzimuths[] = {225.0, 45.0, 135.0, 315.0};
    request.verb = service::Verb::kTile;
    request.azimuth_deg = kAzimuths[rng->UniformInt(4)];
    request.elevation_deg = 42.0;
    request.width = 128;
    request.height = 96;
  }
  return service::FormatRequestLine(request);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 0;
  long clients = 4;
  long requests = 100;
  unsigned long long seed = 1;
  double zipf = 1.1;
  std::string classes_flag =
      "tree,peaks,toppeaks,members,correlation,tile,stats";

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--host", &value)) {
      host = value;
    } else if (ParseFlag(argv[i], "--port", &value)) {
      port = std::strtol(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--clients", &value)) {
      clients = std::strtol(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--requests", &value)) {
      requests = std::strtol(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--zipf", &value)) {
      zipf = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--classes", &value)) {
      classes_flag = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (port <= 0 || port > 65535 || clients <= 0 || requests <= 0) {
    return Usage(argv[0]);
  }

  std::vector<std::string> classes;
  size_t pos = 0;
  while (pos <= classes_flag.size()) {
    size_t comma = classes_flag.find(',', pos);
    if (comma == std::string::npos) comma = classes_flag.size();
    const std::string klass = classes_flag.substr(pos, comma - pos);
    if (!klass.empty()) classes.push_back(klass);
    pos = comma + 1;
  }
  if (classes.empty()) return Usage(argv[0]);

  StatusOr<std::vector<CorpusEntry>> corpus =
      DiscoverCorpus(host, static_cast<uint16_t>(port));
  if (!corpus.ok()) {
    std::fprintf(stderr, "graphscape_load: STATS discovery failed: %s\n",
                 corpus.status().message().c_str());
    return 1;
  }
  if (corpus.value().empty()) {
    std::fprintf(stderr,
                 "graphscape_load: the daemon serves an empty cache\n");
    return 1;
  }
  const std::vector<CorpusEntry>& entries = corpus.value();
  const std::vector<double> cdf = ZipfCdf(entries.size(), zipf);

  std::printf("graphscape_load: %ld clients x %ld requests -> %s:%ld "
              "(%u datasets, zipf %.2f)\n",
              clients, requests, host.c_str(), port,
              static_cast<unsigned>(entries.size()), zipf);

  std::vector<ClientTotals> totals(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  WallTimer wall;
  for (long c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTotals& mine = totals[static_cast<size_t>(c)];
      Rng rng(seed + static_cast<uint64_t>(c) * 0x9e3779b97f4a7c15ull);
      service::BlockingClient client;
      for (long r = 0; r < requests; ++r) {
        if (!client.connected()) {
          if (!client.Connect(host, static_cast<uint16_t>(port)).ok()) {
            ++mine.wire_errors;
            continue;
          }
        }
        const CorpusEntry& entry =
            entries[SampleCdf(cdf, rng.UniformDouble())];
        const std::string& klass =
            classes[rng.UniformInt(static_cast<uint32_t>(classes.size()))];
        const std::string line = MakeRequestLine(klass, entry, &rng);
        WallTimer latency;
        StatusOr<service::ResponseFrame> reply = client.Roundtrip(line);
        if (!reply.ok()) {
          // Transport poisoned: count, drop the connection, reconnect
          // on the next iteration (service/client.h taxonomy).
          ++mine.wire_errors;
          client.Close();
          continue;
        }
        mine.latencies_ms.push_back(latency.Seconds() * 1e3);
        if (reply.value().wire_code == service::kWireOk) {
          ++mine.ok;
        } else {
          ++mine.server_errors;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = wall.Seconds();

  uint64_t ok = 0, server_errors = 0, wire_errors = 0;
  std::vector<double> latencies;
  for (const ClientTotals& t : totals) {
    ok += t.ok;
    server_errors += t.server_errors;
    wire_errors += t.wire_errors;
    latencies.insert(latencies.end(), t.latencies_ms.begin(),
                     t.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };
  const uint64_t answered = ok + server_errors;

  std::printf("requests %llu\n",
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(clients) *
                  static_cast<uint64_t>(requests)));
  std::printf("ok %llu\n", static_cast<unsigned long long>(ok));
  std::printf("server_errors %llu\n",
              static_cast<unsigned long long>(server_errors));
  std::printf("wire_errors %llu\n",
              static_cast<unsigned long long>(wire_errors));
  std::printf("qps %.1f\n",
              elapsed > 0.0 ? static_cast<double>(answered) / elapsed : 0.0);
  std::printf("p50_ms %.3f\n", percentile(0.50));
  std::printf("p99_ms %.3f\n", percentile(0.99));
  return wire_errors == 0 ? 0 : 1;
}
