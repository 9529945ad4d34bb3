// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Algorithm 2 (paper §II-D): the super tree.
//
// Contracts every maximal same-value connected subtree of the scalar tree
// into one super node, so a field with few distinct levels (K-Core, K-Truss,
// integer attributes) collapses from n nodes to one node per level-set
// component. Because ScalarTree::SweepOrder() lists parents after children,
// the contraction is a single linear pass over nodes in reverse sweep
// order: a node either joins its parent's super node (equal value) or
// opens a new one whose parent is its parent's super node.
//
// Orientation (shared with the scalar tree, see scalar/tree_core.h):
// values strictly DECREASE toward the root — leaves are the field's peaks
// (superlevel-set components born at local maxima), each input-tree root
// becomes a super root at its component's minimum level.
//
// The input may be a vertex tree (Algorithm 1) or an edge tree
// (Algorithm 3, scalar/edge_scalar_tree.h) — contraction only reads
// parent links, values, and the sweep order; the actual pass lives in
// scalar/tree_core.h and is shared by both paths.
//
// Member iteration (Members / SubtreeMembers) is served by a CSR member
// index + Euler-tour subtree ranges (scalar/tree_queries.h) built lazily
// on first query and cached; copies of a SuperTree share the cached
// index. Building is O(elements), after which both queries are O(1) plus
// the members visited. The lazy build is NOT thread-safe; share a
// SuperTree across threads only after priming the cache via
// MemberIndex().

#ifndef GRAPHSCAPE_SCALAR_SUPER_TREE_H_
#define GRAPHSCAPE_SCALAR_SUPER_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "scalar/scalar_tree.h"

namespace graphscape {

inline constexpr uint32_t kInvalidSuperNode = 0xffffffffu;

class TreeMemberIndex;

/// Contiguous view of element ids (graph vertices for vertex trees, edge
/// ids for edge trees) owned by the member index.
struct MemberRange {
  const uint32_t* first;
  const uint32_t* last;
  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
  uint32_t size() const { return static_cast<uint32_t>(last - first); }
  uint32_t operator[](uint32_t i) const { return first[i]; }
};

class SuperTree {
 public:
  SuperTree() = default;
  explicit SuperTree(const ScalarTree& tree);

  /// Adopts pre-contracted arrays — the deserialization path
  /// (scalar/tree_io.h), which validates every invariant before calling
  /// this. Invariants assumed, not checked: Parent(node) < node,
  /// Value(Parent(node)) < Value(node), member_counts partition node_of,
  /// num_roots == #invalid parents.
  SuperTree(std::vector<double> node_values,
            std::vector<uint32_t> node_parents,
            std::vector<uint32_t> member_counts, std::vector<uint32_t> node_of,
            uint32_t num_roots)
      : node_values_(std::move(node_values)),
        node_parents_(std::move(node_parents)),
        member_counts_(std::move(member_counts)),
        node_of_(std::move(node_of)),
        num_roots_(num_roots) {}

  uint32_t NumNodes() const {
    return static_cast<uint32_t>(node_values_.size());
  }

  /// Number of field elements the tree was contracted from (graph
  /// vertices for vertex trees, edges for edge trees).
  uint32_t NumElements() const {
    return static_cast<uint32_t>(node_of_.size());
  }

  /// kInvalidSuperNode for roots. Parent's value is strictly less, and
  /// parent ids are strictly smaller (contraction mints roots first).
  uint32_t Parent(uint32_t node) const { return node_parents_[node]; }

  /// The shared scalar value of every element contracted into `node`.
  double Value(uint32_t node) const { return node_values_[node]; }

  /// How many elements were contracted into `node`.
  uint32_t MemberCount(uint32_t node) const { return member_counts_[node]; }

  /// Subtree mass: elements in `node` and every descendant — the area
  /// weight the terrain layout allocates land by. O(1) via the cached
  /// member index (first call pays the lazy O(n) build).
  uint32_t SubtreeMemberCount(uint32_t node) const;

  /// The summit value over `node`'s subtree (cached member index).
  double SubtreeMaxValue(uint32_t node) const;

  /// Super node containing element v.
  uint32_t NodeOf(VertexId v) const { return node_of_[v]; }

  /// One root per root of the input tree: connected components for
  /// vertex trees, edge-bearing components for edge trees.
  uint32_t NumRoots() const { return num_roots_; }

  /// The elements contracted into `node`, ascending. O(1) + output after
  /// the first query on this tree (lazy index build, O(elements)).
  MemberRange Members(uint32_t node) const;

  /// The elements of `node` and every descendant — i.e. the full
  /// superlevel-set component that peaks inside `node`'s subtree. O(1) +
  /// output after the first query (Euler-tour contiguity).
  MemberRange SubtreeMembers(uint32_t node) const;

  /// The query index itself (subtree sizes, summit values); built on
  /// first use and shared by copies of this tree.
  const TreeMemberIndex& MemberIndex() const;

  /// Flat arrays, for serialization (scalar/tree_io.h).
  const std::vector<double>& NodeValues() const { return node_values_; }
  const std::vector<uint32_t>& NodeParents() const { return node_parents_; }
  const std::vector<uint32_t>& MemberCounts() const { return member_counts_; }
  const std::vector<uint32_t>& ElementNodes() const { return node_of_; }

 private:
  std::vector<double> node_values_;
  std::vector<uint32_t> node_parents_;
  std::vector<uint32_t> member_counts_;
  std::vector<uint32_t> node_of_;  // element -> super node
  uint32_t num_roots_ = 0;
  // Lazily built query index (scalar/tree_queries.h); shared_ptr so
  // copies reuse one build. Mutable: priming the cache is logically
  // const.
  mutable std::shared_ptr<const TreeMemberIndex> member_index_;
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_SUPER_TREE_H_
