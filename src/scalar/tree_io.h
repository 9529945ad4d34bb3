// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Versioned, deterministic binary (de)serialization of super trees and
// their fields — the artifact format CI and the figure pipeline exchange
// (a built tree is the expensive part; terrains and queries re-derive
// from it). Design constraints, in order:
//
//  * Deterministic: the same SuperTree serializes to the same bytes on
//    every platform and compiler — fixed little-endian encoding, no
//    padding, doubles as IEEE-754 bit patterns. CI pins this by
//    serializing on gcc and re-serializing on clang, byte-identical.
//  * Self-validating: deserialization trusts nothing. Magic + version
//    up front, an FNV-1a checksum at the end, and every structural
//    invariant of the contraction (parents precede children, values
//    strictly decrease toward the root, member counts partition the
//    elements, node_of agrees with member_counts) is checked before a
//    SuperTree is constructed — a corrupt or adversarial file yields
//    InvalidArgument, never a broken tree.
//  * Versioned: kTreeIoVersion bumps on any layout change; old readers
//    reject newer files instead of misreading them.
//
// Layout (version 1), all integers little-endian:
//   "GSTA" | u32 version | u32 num_nodes | u32 num_elements |
//   u32 num_roots | u8 has_field | u32 name_len | name bytes |
//   f64 node_values[num_nodes] | u32 node_parents[num_nodes] |
//   u32 member_counts[num_nodes] | u32 node_of[num_elements] |
//   f64 field_values[num_elements if has_field] | u64 fnv1a(payload)

#ifndef GRAPHSCAPE_SCALAR_TREE_IO_H_
#define GRAPHSCAPE_SCALAR_TREE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "scalar/super_tree.h"

namespace graphscape {

inline constexpr uint32_t kTreeIoVersion = 1;

/// A super tree plus (optionally) the element field it was built from —
/// vertex values for vertex trees, edge values for edge trees.
/// field_values is either empty or exactly NumElements() long.
struct TreeArtifact {
  SuperTree tree;
  std::string field_name;
  std::vector<double> field_values;
};

/// The artifact as bytes (layout above). Deterministic: equal artifacts
/// produce equal strings everywhere. A non-empty field of the wrong
/// length is InvalidArgument in every build type — never an exception,
/// and never a checksummed-but-corrupt artifact.
StatusOr<std::string> SerializeTreeArtifact(const TreeArtifact& artifact);

/// Parses and fully validates. Hostile bytes always come back as a
/// structured Status, never an exception or a broken tree:
/// InvalidArgument on bad magic, newer version, truncation, or any
/// violated tree invariant; DataLoss when the layout parses but the
/// checksum disagrees (bytes were stored and came back wrong — the
/// cache's quarantine-and-rebuild trigger).
StatusOr<TreeArtifact> DeserializeTreeArtifact(const std::string& bytes);

/// Serialize to a file, crash-safe: bytes go through common/fs.h's
/// WriteFileBytesAtomic (temp + fsync + rename + dir fsync), so `path` is
/// only ever absent, the old version, or the complete new version. File
/// errors keep the fs layer's codes: Unavailable for transient I/O (the
/// retryable class). The read half is ReadFileBytes (common/fs.h,
/// re-exported via the include above; NotFound for a missing file) plus
/// DeserializeTreeArtifact — what `cache_fsck tree-verify` and the
/// artifact cache do.
Status SaveTreeArtifact(const TreeArtifact& artifact,
                        const std::string& path);

/// FNV-1a over `bytes` — the same hash the artifact trailer embeds,
/// exposed so the artifact cache's manifest rows and the recovery tests
/// checksum entry files identically.
uint64_t Fnv1aChecksum(const std::string& bytes);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_TREE_IO_H_
