// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// QueryService + ServiceServer, both layers:
//
//   * Respond and HandleLine directly (no sockets) — every verb's payload
//     against the library call it wraps, with TREE byte-compared against
//     SerializeTreeArtifact and CORRELATION against the library's three
//     correlations, the full error taxonomy, the shared (uncopied) TREE
//     and warm TILE frames, and eight threads against a single-threaded
//     reference.
//   * The loopback integration — a real daemon on an ephemeral port,
//     real BlockingClients, concurrent traffic, oversized-line hangup,
//     and both service/* failpoint seams observed from the client side.

#include "service/service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/artifact_cache.h"
#include "scalar/correlation.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_io.h"
#include "scalar/tree_queries.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"

namespace graphscape {
namespace service {
namespace {

// Fresh, empty cache root per test (clears leftovers from a previous
// run of the same test) — the artifact_cache_test idiom.
std::string FreshRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/gs_service_" + name;
  for (const char* sub : {"/entries", "/quarantine", ""}) {
    const std::string dir = root + sub;
    const StatusOr<std::vector<std::string>> names = ListDir(dir);
    if (!names.ok()) continue;
    for (const std::string& file : names.value()) {
      (void)RemoveFile(dir + "/" + file);
    }
    ::rmdir(dir.c_str());
  }
  return root;
}

// One dataset ("ba-test") with KC, DEG and TIES fields over the same
// element space, so CORRELATION has legal pairs. TIES has four distinct
// values, one of them zero stored as both -0.0 and +0.0: the tie runs
// the average ranks and the peak plateaus must agree on.
TreeArtifact BuildArtifact(const Graph& g, const VertexScalarField& field) {
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildVertexScalarTree(g, field));
  artifact.field_name = field.Name();
  artifact.field_values = field.Values();
  return artifact;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = FreshRoot(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    Rng rng(7);
    const Graph g = BarabasiAlbert(150, 3, &rng);
    std::vector<uint32_t> degrees(g.NumVertices());
    for (uint32_t v = 0; v < g.NumVertices(); ++v) degrees[v] = g.Degree(v);
    kc_ = BuildArtifact(g, VertexScalarField::FromCounts("KC", CoreNumbers(g)));
    deg_ = BuildArtifact(g, VertexScalarField::FromCounts("DEG", degrees));
    std::vector<double> ties(g.NumVertices());
    for (uint32_t v = 0; v < g.NumVertices(); ++v) {
      const uint32_t bucket = degrees[v] % 4;
      ties[v] = bucket != 0 ? static_cast<double>(bucket)
                            : (v % 2 == 0 ? 0.0 : -0.0);
    }
    ties_ = BuildArtifact(g, VertexScalarField("TIES", std::move(ties)));

    StatusOr<ArtifactCache> cache = ArtifactCache::Open(root_);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    ASSERT_TRUE(cache.value().Put(ArtifactKey{"ba-test", "KC"}, kc_).ok());
    ASSERT_TRUE(cache.value().Put(ArtifactKey{"ba-test", "DEG"}, deg_).ok());
    ASSERT_TRUE(
        cache.value().Put(ArtifactKey{"ba-test", "TIES"}, ties_).ok());

    StatusOr<std::unique_ptr<QueryService>> opened = QueryService::Open(root_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    service_ = std::move(opened).value();
  }

  // HandleLine always returns a complete frame; decode or die.
  ResponseFrame Answer(const std::string& line) {
    StatusOr<ResponseFrame> frame =
        DecodeResponseFrame(service_->HandleLine(line));
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? std::move(frame).value() : ResponseFrame{};
  }

  std::string root_;
  TreeArtifact kc_;
  TreeArtifact deg_;
  TreeArtifact ties_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(ServiceTest, TreeIsByteIdenticalToSerializeTreeArtifact) {
  const ResponseFrame frame = Answer("TREE ba-test KC");
  ASSERT_EQ(frame.wire_code, kWireOk);
  StatusOr<std::string> expected = SerializeTreeArtifact(kc_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(frame.payload, expected.value());
  // And the payload must round-trip back through the artifact parser.
  EXPECT_TRUE(DeserializeTreeArtifact(frame.payload).ok());
}

TEST_F(ServiceTest, PeaksMatchesPeaksAtLevel) {
  const double level = 2.5;
  const ResponseFrame frame = Answer("PEAKS ba-test KC 2.5");
  ASSERT_EQ(frame.wire_code, kWireOk);
  const std::vector<Peak> peaks = PeaksAtLevel(kc_.tree, level);
  std::string expected = StrPrintf("peaks %u",
                                   static_cast<unsigned>(peaks.size()));
  for (const Peak& peak : peaks) {
    expected += StrPrintf("\n%u %u %.17g", peak.super_node,
                          peak.member_count, peak.max_scalar);
  }
  expected += '\n';
  EXPECT_EQ(frame.payload, expected);
}

TEST_F(ServiceTest, TopPeaksMatchesTopPeaks) {
  const ResponseFrame frame = Answer("TOPPEAKS ba-test KC 5");
  ASSERT_EQ(frame.wire_code, kWireOk);
  const std::vector<Peak> peaks = TopPeaks(kc_.tree, 5);
  EXPECT_NE(frame.payload.find(StrPrintf(
                "peaks %u", static_cast<unsigned>(peaks.size()))),
            std::string::npos);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NE(frame.payload.find(StrPrintf("%u %u", peaks[0].super_node,
                                         peaks[0].member_count)),
            std::string::npos);
}

TEST_F(ServiceTest, MembersMatchesTreeMembers) {
  const ResponseFrame frame = Answer("MEMBERS ba-test KC 0");
  ASSERT_EQ(frame.wire_code, kWireOk);
  const MemberRange members = kc_.tree.Members(0);
  std::string expected = StrPrintf("members %u", members.size());
  for (uint32_t element : members) expected += StrPrintf("\n%u", element);
  expected += '\n';
  EXPECT_EQ(frame.payload, expected);
}

TEST_F(ServiceTest, MembersOutOfRangeIsInvalidArgument) {
  const std::string line =
      StrPrintf("MEMBERS ba-test KC %u", kc_.tree.NumNodes());
  const ResponseFrame frame = Answer(line);
  EXPECT_EQ(frame.wire_code, kWireInvalidArgument);
  EXPECT_NE(frame.payload.find("out of range"), std::string::npos);
}

TEST_F(ServiceTest, CorrelationOfAFieldWithItselfIsOne) {
  // DEG, not KC: BA(n, m) graphs are one solid m-core, so the KC field
  // is constant and its self-correlation is the degenerate 0, not 1.
  const ResponseFrame frame = Answer("CORRELATION ba-test DEG DEG");
  ASSERT_EQ(frame.wire_code, kWireOk);
  EXPECT_NE(frame.payload.find("pearson 1\n"), std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("spearman 1\n"), std::string::npos);
  EXPECT_NE(frame.payload.find("top_peak_jaccard10 1\n"), std::string::npos);
}

TEST_F(ServiceTest, CorrelationAcrossFieldsProducesAllThreeRows) {
  const ResponseFrame frame = Answer("CORRELATION ba-test KC DEG");
  ASSERT_EQ(frame.wire_code, kWireOk);
  for (const char* row : {"pearson ", "spearman ", "top_peak_jaccard10 "}) {
    EXPECT_NE(frame.payload.find(row), std::string::npos) << row;
  }
}

// The ranks and peak members CORRELATION reads are built at load; the
// payload must still be byte-equal to the library computing all three
// correlations from scratch, on every ordered field pair.
TEST_F(ServiceTest, CorrelationPayloadEqualsTheLibraryOnEveryPair) {
  const std::vector<std::pair<std::string, const TreeArtifact*>> fields = {
      {"KC", &kc_}, {"DEG", &deg_}, {"TIES", &ties_}};
  for (const auto& [name_a, a] : fields) {
    for (const auto& [name_b, b] : fields) {
      const ResponseFrame frame =
          Answer("CORRELATION ba-test " + name_a + " " + name_b);
      ASSERT_EQ(frame.wire_code, kWireOk) << frame.payload;
      EXPECT_EQ(
          frame.payload,
          StrPrintf(
              "pearson %.17g\nspearman %.17g\ntop_peak_jaccard10 %.17g\n",
              PearsonCorrelation(a->field_values, b->field_values),
              SpearmanCorrelation(a->field_values, b->field_values),
              TopPeakJaccard(a->tree, b->tree, 10)))
          << name_a << " vs " << name_b;
    }
  }
}

// Artifacts may be stored without field values. Two such artifacts over
// element spaces of different sizes must be refused, not compared.
TEST_F(ServiceTest, CorrelationRefusesFieldlessTreesOfDifferentSpaces) {
  Rng rng(3);
  const Graph small = BarabasiAlbert(40, 2, &rng);
  const Graph big = BarabasiAlbert(60, 2, &rng);
  TreeArtifact a = BuildArtifact(
      small, VertexScalarField::FromCounts("A", CoreNumbers(small)));
  TreeArtifact b =
      BuildArtifact(big, VertexScalarField::FromCounts("B", CoreNumbers(big)));
  a.field_values.clear();
  b.field_values.clear();
  StatusOr<ArtifactCache> cache = ArtifactCache::Open(root_);
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(cache.value().Put(ArtifactKey{"mixed", "A"}, a).ok());
  ASSERT_TRUE(cache.value().Put(ArtifactKey{"mixed", "B"}, b).ok());
  StatusOr<std::unique_ptr<QueryService>> reopened = QueryService::Open(root_);
  ASSERT_TRUE(reopened.ok());
  service_ = std::move(reopened).value();

  const ResponseFrame frame = Answer("CORRELATION mixed A B");
  EXPECT_EQ(frame.wire_code, kWireInvalidArgument);
  EXPECT_NE(frame.payload.find("different element spaces"),
            std::string::npos)
      << frame.payload;
}

TEST_F(ServiceTest, TreeFrameIsTheEncodedSerializedArtifact) {
  const std::vector<std::pair<std::string, const TreeArtifact*>> fields = {
      {"KC", &kc_}, {"TIES", &ties_}};
  for (const auto& [name, artifact] : fields) {
    StatusOr<std::string> serialized = SerializeTreeArtifact(*artifact);
    ASSERT_TRUE(serialized.ok());
    EXPECT_EQ(*service_->Respond("TREE ba-test " + name),
              EncodeResponseFrame(kWireOk, serialized.value()))
        << name;
  }
}

// TREE and warm TILE replies are resident frames: repeated requests hand
// out the same buffer rather than a copy of it.
TEST_F(ServiceTest, TreeAndWarmTileRepliesShareOneBuffer) {
  const std::shared_ptr<const std::string> tree =
      service_->Respond("TREE ba-test KC");
  EXPECT_EQ(service_->Respond("TREE ba-test KC").get(), tree.get());

  const std::string tile = "TILE ba-test DEG 225 42 96 64";
  const std::shared_ptr<const std::string> cold = service_->Respond(tile);
  const std::shared_ptr<const std::string> warm = service_->Respond(tile);
  EXPECT_EQ(*warm, *cold);
  EXPECT_EQ(service_->Respond(tile).get(), warm.get());
  EXPECT_EQ(service_->stats().tiles_rendered, 1u);
  // The LRU's ledger counts whole frames: payload plus framing.
  StatusOr<ResponseFrame> decoded = DecodeResponseFrame(*warm);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(service_->tile_stats().current_bytes,
            decoded.value().payload.size() + kResponseOverheadBytes);
}

// Eight threads on one service, over a mixed stream where every tile
// starts cold: every reply decodes and equals what a second service,
// driven from one thread, answers to the same line.
TEST_F(ServiceTest, ConcurrentRespondMatchesASingleThreadedReference) {
  const std::vector<std::string> lines = {
      "TREE ba-test KC",
      "TREE ba-test TIES",
      "CORRELATION ba-test KC DEG",
      "CORRELATION ba-test DEG TIES",
      "TILE ba-test KC 0 30 64 48",
      "TILE ba-test KC 90 30 64 48",
      "TILE ba-test TIES 180 30 64 48",
      "TILE ba-test DEG 270 30 64 48",
      "STATS",
  };
  StatusOr<std::unique_ptr<QueryService>> reference_service =
      QueryService::Open(root_);
  ASSERT_TRUE(reference_service.ok());
  std::vector<std::string> reference;
  for (const std::string& line : lines) {
    reference.push_back(reference_service.value()->HandleLine(line));
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 45;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const size_t pick = (t * 5 + i) % lines.size();
        const std::shared_ptr<const std::string> reply =
            service_->Respond(lines[pick]);
        StatusOr<ResponseFrame> frame = DecodeResponseFrame(*reply);
        if (!frame.ok() || frame.value().wire_code != kWireOk) {
          ++failures;
        } else if (lines[pick] == "STATS") {
          // Counters move under concurrent traffic; the layout may not.
          if (frame.value().payload.rfind("version ", 0) != 0) ++failures;
        } else if (*reply != reference[pick]) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.requests, uint64_t{kThreads} * kRequestsPerThread);
  EXPECT_EQ(stats.ok, stats.requests);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.artifacts_loaded, 3u);  // KC, DEG, TIES, once each
  EXPECT_GE(stats.tiles_rendered, 4u);
}

TEST_F(ServiceTest, MissingArtifactIsNotFound) {
  EXPECT_EQ(Answer("TREE nope KC").wire_code, kWireNotFound);
  EXPECT_EQ(Answer("PEAKS ba-test KT 1").wire_code, kWireNotFound);
}

TEST_F(ServiceTest, MalformedLineIsInvalidArgumentFrame) {
  EXPECT_EQ(Answer("FROB ba-test KC").wire_code, kWireInvalidArgument);
  EXPECT_EQ(Answer("TREE ba-test").wire_code, kWireInvalidArgument);
  EXPECT_EQ(Answer("PEAKS ba-test KC nan").wire_code, kWireInvalidArgument);
}

TEST_F(ServiceTest, TileRendersPpmAndSecondRequestHitsTheLru) {
  const ResponseFrame first = Answer("TILE ba-test KC 225 42 128 96");
  ASSERT_EQ(first.wire_code, kWireOk) << first.payload;
  EXPECT_EQ(first.payload.rfind("P6\n128 96\n255\n", 0), 0u);
  EXPECT_EQ(first.payload.size(),
            std::string("P6\n128 96\n255\n").size() + 3u * 128u * 96u);
  EXPECT_EQ(service_->stats().tiles_rendered, 1u);

  const ResponseFrame second = Answer("TILE ba-test KC 225 42 128 96");
  ASSERT_EQ(second.wire_code, kWireOk);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_EQ(service_->stats().tiles_rendered, 1u);  // served from the LRU
  EXPECT_GE(service_->tile_stats().hits, 1u);

  // A different camera is a different tile.
  const ResponseFrame third = Answer("TILE ba-test KC 45 42 128 96");
  ASSERT_EQ(third.wire_code, kWireOk);
  EXPECT_EQ(service_->stats().tiles_rendered, 2u);
}

TEST_F(ServiceTest, TileDimensionLimitsAreInvalidArgument) {
  EXPECT_EQ(Answer("TILE ba-test KC 225 42 0 96").wire_code,
            kWireInvalidArgument);
  EXPECT_EQ(Answer("TILE ba-test KC 225 42 128 99999").wire_code,
            kWireInvalidArgument);
}

TEST_F(ServiceTest, RenderFailpointSurfacesAsUnavailable) {
  failpoint::ScopedFailpoint armed("service/render", failpoint::Spec::Always());
  const ResponseFrame frame = Answer("TILE ba-test KC 135 42 128 96");
  EXPECT_EQ(frame.wire_code, kWireUnavailable);
  EXPECT_EQ(service_->stats().tiles_rendered, 0u);
}

TEST_F(ServiceTest, StatsReportsCountersAndCorpusKeys) {
  (void)Answer("TREE ba-test KC");
  (void)Answer("TREE nope KC");
  const ResponseFrame frame = Answer("STATS");
  ASSERT_EQ(frame.wire_code, kWireOk);
  EXPECT_NE(frame.payload.find("requests 3"), std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("errors 1"), std::string::npos);
  EXPECT_NE(frame.payload.find("artifacts_loaded 1"), std::string::npos);
  // The corpus-discovery lines the load generator depends on.
  EXPECT_NE(frame.payload.find("key ba-test/KC"), std::string::npos);
  EXPECT_NE(frame.payload.find("key ba-test/DEG"), std::string::npos);
}

// ------------------------------------------------- loopback transport --

class ServiceLoopbackTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    ServiceServer::Options options;
    options.port = 0;  // ephemeral
    options.num_threads = 4;
    server_ = std::make_unique<ServiceServer>(service_.get(), options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceLoopbackTest, TreeOverTheSocketIsByteIdentical) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> frame = client.Roundtrip("TREE ba-test KC");
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().wire_code, kWireOk);
  StatusOr<std::string> expected = SerializeTreeArtifact(kc_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(frame.value().payload, expected.value());
}

TEST_F(ServiceLoopbackTest, OneConnectionServesManySequentialRequests) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const char* line : {"STATS", "PEAKS ba-test KC 1.5",
                           "TOPPEAKS ba-test DEG 3", "MEMBERS ba-test KC 0",
                           "CORRELATION ba-test KC DEG"}) {
    StatusOr<ResponseFrame> frame = client.Roundtrip(line);
    ASSERT_TRUE(frame.ok()) << line << ": " << frame.status().ToString();
    EXPECT_EQ(frame.value().wire_code, kWireOk) << line;
  }
}

TEST_F(ServiceLoopbackTest, ServerErrorsDoNotPoisonTheConnection) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> bad = client.Roundtrip("TREE nope KC");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().wire_code, kWireNotFound);
  // The very same connection keeps working afterwards.
  StatusOr<ResponseFrame> good = client.Roundtrip("STATS");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().wire_code, kWireOk);
}

TEST_F(ServiceLoopbackTest, OversizedLineGetsOneErrorFrameThenHangup) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> frame =
      client.Roundtrip(std::string(kMaxRequestLine + 10, 'x'));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().wire_code, kWireInvalidArgument);
  // The oversized line cannot be resynchronized, so the server hung up.
  StatusOr<ResponseFrame> after = client.Roundtrip("STATS");
  EXPECT_FALSE(after.ok());
}

TEST_F(ServiceLoopbackTest, AcceptFailpointAnswersUnavailableAndCloses) {
  failpoint::ScopedFailpoint armed("service/accept", failpoint::Spec::Always());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> frame = client.Roundtrip("STATS");
  // The server wrote one UNAVAILABLE frame at accept time and closed;
  // depending on timing the client sees that frame or the hangup.
  if (frame.ok()) {
    EXPECT_EQ(frame.value().wire_code, kWireUnavailable);
  }
  EXPECT_GE(armed.fire_count(), 1u);
}

TEST_F(ServiceLoopbackTest, ConcurrentClientsAllGetConsistentAnswers) {
  StatusOr<std::string> expected_bytes = SerializeTreeArtifact(kc_);
  ASSERT_TRUE(expected_bytes.ok());
  const std::string& expected = expected_bytes.value();

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 25; ++i) {
        const int pick = (t + i) % 3;
        const std::string line = pick == 0   ? "TREE ba-test KC"
                                 : pick == 1 ? "PEAKS ba-test DEG 2"
                                             : "TILE ba-test KC 225 42 96 64";
        StatusOr<ResponseFrame> frame = client.Roundtrip(line);
        if (!frame.ok() || frame.value().wire_code != kWireOk) {
          ++failures;
          continue;
        }
        if (pick == 0 && frame.value().payload != expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.requests, 6u * 25u);
  EXPECT_EQ(stats.errors, 0u);
  // All 150 requests touched one artifact pair loaded exactly once each.
  EXPECT_LE(stats.artifacts_loaded, 2u);
}

using ServiceServerTest = ServiceTest;

TEST_F(ServiceServerTest, WorkerCountIsClampedToMaxThreads) {
  // One past the ceiling: the pool must stop at kMaxThreads, the same cap
  // every other thread count in the library is clamped to.
  ServiceServer::Options options;
  options.port = 0;
  options.num_threads = kMaxThreads + 1;
  ServiceServer server(service_.get(), options);
  const Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(server.num_threads(), kMaxThreads);
  server.Stop();
}

}  // namespace
}  // namespace service
}  // namespace graphscape
