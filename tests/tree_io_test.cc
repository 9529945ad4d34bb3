// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Tree artifact serialization: save -> load -> save must be
// byte-identical for vertex and edge trees (the CI cross-compiler
// contract), loaded trees must answer queries like the originals, and
// every corruption mode — bad magic, foreign version, truncation, bit
// flips, structurally invalid trees — must be rejected with
// InvalidArgument, never accepted.

#include "scalar/tree_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

TreeArtifact VertexArtifact(uint64_t seed) {
  Rng rng(seed);
  CollaborationOptions options;
  options.num_vertices = 200;
  options.num_planted_cores = 1;
  options.planted_core_size = 8;
  const Graph g = CollaborationNetwork(options, &rng);
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildVertexScalarTree(g, kc));
  artifact.field_name = kc.Name();
  artifact.field_values = kc.Values();
  return artifact;
}

TreeArtifact EdgeArtifact(uint64_t seed) {
  Rng rng(seed);
  const Graph g = BarabasiAlbert(150, 3, &rng);
  const EdgeScalarField kt =
      EdgeScalarField::FromCounts("KT", TrussNumbers(g));
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildEdgeScalarTree(g, kt));
  artifact.field_name = kt.Name();
  artifact.field_values = kt.Values();
  return artifact;
}

void ExpectTreesEqual(const SuperTree& a, const SuperTree& b) {
  EXPECT_EQ(a.NodeValues(), b.NodeValues());
  EXPECT_EQ(a.NodeParents(), b.NodeParents());
  EXPECT_EQ(a.MemberCounts(), b.MemberCounts());
  EXPECT_EQ(a.ElementNodes(), b.ElementNodes());
  EXPECT_EQ(a.NumRoots(), b.NumRoots());
}

std::string MustSerialize(const TreeArtifact& artifact) {
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

void ExpectRoundtripByteEqual(const TreeArtifact& artifact) {
  const std::string bytes = MustSerialize(artifact);
  const auto loaded = DeserializeTreeArtifact(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MustSerialize(loaded.value()), bytes);
  ExpectTreesEqual(loaded.value().tree, artifact.tree);
  EXPECT_EQ(loaded.value().field_name, artifact.field_name);
  EXPECT_EQ(loaded.value().field_values, artifact.field_values);
}

TEST(TreeIoTest, VertexTreeRoundtripIsByteIdentical) {
  ExpectRoundtripByteEqual(VertexArtifact(3));
}

TEST(TreeIoTest, EdgeTreeRoundtripIsByteIdentical) {
  ExpectRoundtripByteEqual(EdgeArtifact(5));
}

// Pins the bytes of `cache_fsck tree-write`'s artifacts across commits:
// the K-Core vertex tree and the K-Truss edge tree of the GrQc and
// WikiVote stand-ins. Both fields are integer counts, so no libm call
// can move these digests; a change that does is a change to Algorithm
// 1, 2 or 3's output and must say so.
TEST(TreeIoTest, ArtifactDigestsArePinned) {
  struct Pin {
    DatasetId id;
    uint64_t kc_digest;
    uint64_t kt_digest;
  };
  const Pin pins[] = {
      {DatasetId::kGrQc, 0x64454ecf1dcc6d4aull, 0x20a9d4795d6a33bfull},
      {DatasetId::kWikiVote, 0xeb93680913ef655bull, 0xcb3ce3d89a1c2492ull},
  };
  for (const Pin& pin : pins) {
    const Dataset ds = MakeDataset(pin.id);
    SCOPED_TRACE(ds.spec.name);
    const VertexScalarField kc =
        VertexScalarField::FromCounts("KC", CoreNumbers(ds.graph));
    TreeArtifact vertex;
    vertex.tree = SuperTree(BuildVertexScalarTree(ds.graph, kc));
    vertex.field_name = kc.Name();
    vertex.field_values = kc.Values();
    EXPECT_EQ(Fnv1aChecksum(MustSerialize(vertex)), pin.kc_digest);

    const EdgeScalarField kt =
        EdgeScalarField::FromCounts("KT", TrussNumbers(ds.graph));
    TreeArtifact edge;
    edge.tree = SuperTree(BuildEdgeScalarTree(ds.graph, kt));
    edge.field_name = kt.Name();
    edge.field_values = kt.Values();
    EXPECT_EQ(Fnv1aChecksum(MustSerialize(edge)), pin.kt_digest);
  }
}

TEST(TreeIoTest, FieldSectionIsOptional) {
  TreeArtifact artifact = VertexArtifact(7);
  artifact.field_name.clear();
  artifact.field_values.clear();
  ExpectRoundtripByteEqual(artifact);
}

TEST(TreeIoTest, SerializeRejectsWrongLengthField) {
  // The write side enforces the one-value-per-element contract the read
  // side validates; a short field must come back as a structured Status
  // (never an exception, never a checksummed corrupt artifact).
  TreeArtifact artifact = VertexArtifact(7);
  artifact.field_values.resize(artifact.field_values.size() / 2);
  const StatusOr<std::string> result = SerializeTreeArtifact(artifact);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeIoTest, LoadedTreeAnswersQueriesLikeTheOriginal) {
  const TreeArtifact artifact = VertexArtifact(9);
  const auto loaded = DeserializeTreeArtifact(MustSerialize(artifact));
  ASSERT_TRUE(loaded.ok());
  const SuperTree& original = artifact.tree;
  const SuperTree& copy = loaded.value().tree;
  const double top = *std::max_element(original.NodeValues().begin(),
                                       original.NodeValues().end());
  EXPECT_EQ(CountComponentsAtLevel(copy, top),
            CountComponentsAtLevel(original, top));
  const auto original_peaks = PeaksAtLevel(original, top);
  const auto copy_peaks = PeaksAtLevel(copy, top);
  ASSERT_EQ(copy_peaks.size(), original_peaks.size());
  for (size_t i = 0; i < copy_peaks.size(); ++i) {
    EXPECT_EQ(copy_peaks[i].super_node, original_peaks[i].super_node);
    EXPECT_EQ(copy_peaks[i].member_count, original_peaks[i].member_count);
  }
}

TEST(TreeIoTest, SaveAndLoadRoundtripThroughAFile) {
  const TreeArtifact artifact = EdgeArtifact(11);
  const std::string path =
      ::testing::TempDir() + "/graphscape_tree_io_test.gsta";
  ASSERT_TRUE(SaveTreeArtifact(artifact, path).ok());
  const auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  const auto loaded = DeserializeTreeArtifact(bytes.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
  std::remove(path.c_str());
}

TEST(TreeIoTest, LoadDistinguishesNotFoundFromCorruption) {
  const std::string missing =
      ::testing::TempDir() + "/graphscape_no_such_artifact.gsta";
  const auto not_found = ReadFileBytes(missing);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  // A stored-then-flipped byte is data loss, not an argument error: the
  // caller's recovery is rebuild, not retry.
  const TreeArtifact artifact = VertexArtifact(13);
  std::string bytes = MustSerialize(artifact);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  const auto corrupt = DeserializeTreeArtifact(bytes);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
}

TEST(TreeIoTest, RejectsBadMagicAndForeignVersion) {
  const std::string bytes = MustSerialize(VertexArtifact(3));
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeTreeArtifact(bad_magic).ok());

  std::string future = bytes;
  future[4] = static_cast<char>(kTreeIoVersion + 1);
  EXPECT_FALSE(DeserializeTreeArtifact(future).ok());

  EXPECT_FALSE(DeserializeTreeArtifact("").ok());
  EXPECT_FALSE(DeserializeTreeArtifact("GST").ok());
}

TEST(TreeIoTest, RejectsTruncationAndBitFlips) {
  const std::string bytes = MustSerialize(VertexArtifact(3));
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() / 2, size_t{16}}) {
    EXPECT_FALSE(DeserializeTreeArtifact(bytes.substr(0, keep)).ok())
        << "kept " << keep;
  }
  // A flipped bit anywhere in the payload must trip the checksum (or an
  // earlier structural check) — sample a few offsets across sections.
  for (const size_t offset :
       {size_t{20}, bytes.size() / 3, bytes.size() / 2,
        bytes.size() - 9}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    EXPECT_FALSE(DeserializeTreeArtifact(corrupt).ok())
        << "offset " << offset;
  }
}

TEST(TreeIoTest, RejectsStructurallyInvalidTrees) {
  // A well-formed file (magic, sizes, checksum all fine) whose tree
  // breaks a contraction invariant must still be refused.
  const auto reject = [](SuperTree tree) {
    TreeArtifact artifact;
    artifact.tree = std::move(tree);
    const auto result =
        DeserializeTreeArtifact(MustSerialize(artifact));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  };
  // Parent value not strictly below the child's (orientation violation).
  reject(SuperTree({2.0, 2.0}, {kInvalidSuperNode, 0u}, {1, 1}, {0, 1}, 1));
  // Parent id after the child's (ordering violation -> cycles possible).
  reject(SuperTree({2.0, 1.0}, {1u, kInvalidSuperNode}, {1, 1}, {0, 1}, 1));
  // Member counts that do not partition the elements.
  reject(SuperTree({2.0, 1.0}, {kInvalidSuperNode, 0u}, {2, 1}, {0, 1}, 1));
  // node_of disagreeing with member_counts.
  reject(SuperTree({2.0, 1.0}, {kInvalidSuperNode, 0u}, {1, 1}, {0, 0}, 1));
  // Wrong root count.
  reject(SuperTree({2.0, 1.0}, {kInvalidSuperNode, 0u}, {1, 1}, {0, 1}, 2));
}

}  // namespace
}  // namespace graphscape
