// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/tree_io.h"

#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace graphscape {
namespace {

constexpr char kMagic[4] = {'G', 'S', 'T', 'A'};

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void AppendF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 doubles expected");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Bounds-checked little-endian reader over the serialized bytes.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : data_(bytes) {}

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(data_[pos_++]))
            << shift;
    }
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      *v |= static_cast<uint64_t>(
                static_cast<unsigned char>(data_[pos_++]))
            << shift;
    }
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }

  bool ReadBytes(char* out, size_t count) {
    if (pos_ + count > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, count);
    pos_ += count;
    return true;
  }

  size_t Position() const { return pos_; }
  size_t Remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<std::string> SerializeTreeArtifact(const TreeArtifact& artifact) {
  const SuperTree& tree = artifact.tree;
  const uint32_t n = tree.NumNodes();
  const uint32_t m = tree.NumElements();
  const bool has_field = !artifact.field_values.empty();
  // The write side holds the same contract the read side validates:
  // a field is either absent or exactly one value per element. Checked
  // in every build type — serializing past the vector would emit a
  // corrupt-but-checksummed artifact.
  if (has_field && artifact.field_values.size() != m) {
    return Status::InvalidArgument(StrPrintf(
        "tree_io: field has %zu values for %u elements",
        artifact.field_values.size(), m));
  }

  std::string out;
  out.reserve(32 + artifact.field_name.size() + 16ull * n + 4ull * m +
              (has_field ? 8ull * m : 0));
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kTreeIoVersion);
  AppendU32(&out, n);
  AppendU32(&out, m);
  AppendU32(&out, tree.NumRoots());
  out.push_back(has_field ? 1 : 0);
  AppendU32(&out, static_cast<uint32_t>(artifact.field_name.size()));
  out.append(artifact.field_name);
  for (uint32_t node = 0; node < n; ++node)
    AppendF64(&out, tree.NodeValues()[node]);
  for (uint32_t node = 0; node < n; ++node)
    AppendU32(&out, tree.NodeParents()[node]);
  for (uint32_t node = 0; node < n; ++node)
    AppendU32(&out, tree.MemberCounts()[node]);
  for (uint32_t e = 0; e < m; ++e) AppendU32(&out, tree.ElementNodes()[e]);
  if (has_field) {
    for (uint32_t e = 0; e < m; ++e)
      AppendF64(&out, artifact.field_values[e]);
  }
  AppendU64(&out, Fnv1a(out.data(), out.size()));
  return out;
}

StatusOr<TreeArtifact> DeserializeTreeArtifact(const std::string& bytes) {
  Reader reader(bytes);
  char magic[4];
  if (!reader.ReadBytes(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("tree_io: bad magic");
  }
  uint32_t version, n, m, num_roots;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&n) ||
      !reader.ReadU32(&m) || !reader.ReadU32(&num_roots)) {
    return Status::InvalidArgument("tree_io: truncated header");
  }
  if (version != kTreeIoVersion) {
    return Status::InvalidArgument(
        StrPrintf("tree_io: version %u, this reader understands %u",
                  version, kTreeIoVersion));
  }
  char has_field_byte;
  uint32_t name_len;
  if (!reader.ReadBytes(&has_field_byte, 1) || !reader.ReadU32(&name_len)) {
    return Status::InvalidArgument("tree_io: truncated header");
  }
  if (has_field_byte != 0 && has_field_byte != 1) {
    return Status::InvalidArgument("tree_io: bad field flag");
  }
  const bool has_field = has_field_byte == 1;

  // Check the advertised sizes against the actual byte count BEFORE any
  // allocation, so a hostile header can't request gigabytes.
  const uint64_t expected =
      static_cast<uint64_t>(name_len) + 16ull * n + 4ull * m +
      (has_field ? 8ull * m : 0) + 8 /* checksum */;
  if (reader.Remaining() != expected) {
    return Status::InvalidArgument(
        StrPrintf("tree_io: payload is %llu bytes, header promises %llu",
                  static_cast<unsigned long long>(reader.Remaining()),
                  static_cast<unsigned long long>(expected)));
  }

  TreeArtifact artifact;
  artifact.field_name.resize(name_len);
  if (name_len > 0 && !reader.ReadBytes(&artifact.field_name[0], name_len)) {
    return Status::InvalidArgument("tree_io: truncated name");
  }

  std::vector<double> node_values(n);
  std::vector<uint32_t> node_parents(n), member_counts(n), node_of(m);
  for (uint32_t i = 0; i < n; ++i) {
    if (!reader.ReadF64(&node_values[i])) {
      return Status::InvalidArgument("tree_io: truncated node values");
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (!reader.ReadU32(&node_parents[i])) {
      return Status::InvalidArgument("tree_io: truncated parents");
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (!reader.ReadU32(&member_counts[i])) {
      return Status::InvalidArgument("tree_io: truncated member counts");
    }
  }
  for (uint32_t i = 0; i < m; ++i) {
    if (!reader.ReadU32(&node_of[i])) {
      return Status::InvalidArgument("tree_io: truncated element nodes");
    }
  }
  if (has_field) {
    artifact.field_values.resize(m);
    for (uint32_t i = 0; i < m; ++i) {
      if (!reader.ReadF64(&artifact.field_values[i])) {
        return Status::InvalidArgument("tree_io: truncated field values");
      }
    }
  }
  const uint64_t actual_checksum =
      Fnv1a(bytes.data(), reader.Position());
  uint64_t stored_checksum;
  if (!reader.ReadU64(&stored_checksum)) {
    return Status::InvalidArgument("tree_io: truncated checksum");
  }
  if (stored_checksum != actual_checksum) {
    // The layout was intact but the payload bytes are not the ones that
    // were checksummed: stored data came back wrong.
    return Status::DataLoss("tree_io: checksum mismatch");
  }

  // Structural validation: everything SuperTree's from-parts constructor
  // assumes (and TreeMemberIndex relies on).
  uint32_t roots_seen = 0;
  uint64_t members_total = 0;
  for (uint32_t node = 0; node < n; ++node) {
    if (!std::isfinite(node_values[node])) {
      return Status::InvalidArgument("tree_io: non-finite node value");
    }
    if (member_counts[node] == 0) {
      return Status::InvalidArgument("tree_io: empty super node");
    }
    members_total += member_counts[node];
    const uint32_t p = node_parents[node];
    if (p == kInvalidSuperNode) {
      ++roots_seen;
      continue;
    }
    if (p >= node) {
      return Status::InvalidArgument(
          "tree_io: parent does not precede child");
    }
    if (!(node_values[p] < node_values[node])) {
      return Status::InvalidArgument(
          "tree_io: parent value not below child value");
    }
  }
  if (roots_seen != num_roots) {
    return Status::InvalidArgument("tree_io: root count mismatch");
  }
  if (members_total != m) {
    return Status::InvalidArgument(
        "tree_io: member counts do not partition the elements");
  }
  std::vector<uint32_t> seen(n, 0);
  for (uint32_t e = 0; e < m; ++e) {
    if (node_of[e] >= n) {
      return Status::InvalidArgument("tree_io: element node out of range");
    }
    ++seen[node_of[e]];
  }
  for (uint32_t node = 0; node < n; ++node) {
    if (seen[node] != member_counts[node]) {
      return Status::InvalidArgument(
          "tree_io: node_of disagrees with member counts");
    }
  }

  artifact.tree =
      SuperTree(std::move(node_values), std::move(node_parents),
                std::move(member_counts), std::move(node_of), num_roots);
  return artifact;
}

Status SaveTreeArtifact(const TreeArtifact& artifact,
                        const std::string& path) {
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  if (!bytes.ok()) return bytes.status();
  return WriteFileBytesAtomic(path, bytes.value());
}

uint64_t Fnv1aChecksum(const std::string& bytes) {
  return Fnv1a(bytes.data(), bytes.size());
}

}  // namespace graphscape
