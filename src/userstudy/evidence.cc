// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "userstudy/evidence.h"

#include <algorithm>
#include <cmath>

#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Edge-soup clutter of a node-link drawing, saturating at 1.5.
double EdgeLoad(const Graph& g) {
  return std::min(1.5, static_cast<double>(g.NumEdges()) / 20000.0);
}

/// Task 2 reads connectivity (is the rival core disconnected from the
/// winner?) — 2D layouts do not encode it, so tracing edges halves what
/// the artifact gives away. Terrain evidence never goes through this:
/// disconnection is explicit there (separate peaks).
double SecondCorePenalty(StudyTask task, double strength) {
  return task == StudyTask::kSecondDensestCore ? 0.5 * strength : strength;
}

/// Mean pairwise distance over up to `cap` of the given vertices,
/// deterministically strided — the spatial spread measure for OpenOrd.
double MeanPairwiseDistance(const Positions& positions,
                            const std::vector<VertexId>& vertices,
                            uint32_t cap) {
  if (vertices.size() < 2) return 0.0;
  const uint32_t stride =
      std::max<uint32_t>(1, static_cast<uint32_t>(vertices.size()) / cap);
  double total = 0.0;
  uint64_t pairs = 0;
  for (size_t i = 0; i < vertices.size(); i += stride) {
    for (size_t j = i + stride; j < vertices.size(); j += stride) {
      const Point2& a = positions[vertices[i]];
      const Point2& b = positions[vertices[j]];
      total += std::hypot(a.x - b.x, a.y - b.y);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

}  // namespace

TaskEvidence TerrainCoreEvidence(const Graph& g, const SuperTree& tree,
                                 StudyTask task) {
  (void)g;
  TaskEvidence evidence;
  evidence.task = task;
  // The densest core is the highest peak and disconnection is separate
  // peaks — both explicit, so a careful participant always answers.
  evidence.answer_strength = 1.0;
  double level = 0.0;
  for (uint32_t node = 0; node < tree.NumNodes(); ++node)
    level = std::max(level, tree.Value(node));
  const size_t rival_peaks = PeaksAtLevel(tree, level).size();
  evidence.distractors = task == StudyTask::kSecondDensestCore
                             ? static_cast<double>(rival_peaks)
                             : static_cast<double>(rival_peaks) - 1.0;
  evidence.visual_load =
      std::min(1.0, static_cast<double>(tree.NumNodes()) / 5000.0);
  return evidence;
}

TaskEvidence LanetViCoreEvidence(const Graph& g,
                                 const LanetViLayoutResult& layout,
                                 StudyTask task) {
  TaskEvidence evidence;
  evidence.task = task;
  // Crowding of the innermost shell: non-members rendered inside the
  // densest core's own radius band occlude the answer.
  const uint32_t n = g.NumVertices();
  double member_radius = 0.0;
  uint32_t members = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (layout.core_of[v] != layout.max_core) continue;
    member_radius += std::hypot(layout.positions[v].x - 0.5,
                                layout.positions[v].y - 0.5);
    ++members;
  }
  member_radius = members > 0 ? member_radius / members : 0.0;
  uint32_t intruders = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (layout.core_of[v] == layout.max_core) continue;
    if (std::hypot(layout.positions[v].x - 0.5,
                   layout.positions[v].y - 0.5) < member_radius + 0.05)
      ++intruders;
  }
  const double crowding =
      static_cast<double>(intruders) / std::max(1u, members);
  evidence.answer_strength = SecondCorePenalty(
      task, Clamp(1.0 / (1.0 + 0.5 * crowding), 0.05, 1.0));
  evidence.distractors = layout.max_core / 4.0;  // shells to scan outward
  evidence.visual_load = EdgeLoad(g);
  return evidence;
}

TaskEvidence OpenOrdCoreEvidence(const Graph& g, const Positions& positions,
                                 const std::vector<uint32_t>& cores,
                                 StudyTask task) {
  TaskEvidence evidence;
  evidence.task = task;
  // Coreness is not encoded; the participant hunts for the tightest
  // clump. Strength falls as the densest core's spatial spread
  // approaches the whole drawing's spread.
  const uint32_t n = g.NumVertices();
  const uint32_t max_core = *std::max_element(cores.begin(), cores.end());
  std::vector<VertexId> core_vertices, all_vertices(n);
  for (VertexId v = 0; v < n; ++v) {
    all_vertices[v] = v;
    if (cores[v] == max_core) core_vertices.push_back(v);
  }
  const double overall = MeanPairwiseDistance(positions, all_vertices, 128);
  const double core_spread =
      MeanPairwiseDistance(positions, core_vertices, 128);
  const double smear = overall > 0.0 ? core_spread / overall : 1.0;
  evidence.answer_strength =
      SecondCorePenalty(task, Clamp(1.0 - 0.8 * smear, 0.05, 0.95));
  evidence.distractors = std::min(6.0, std::sqrt(static_cast<double>(n)) / 8.0);
  evidence.visual_load = EdgeLoad(g);
  return evidence;
}

TaskEvidence TerrainCorrelationEvidence(double gci) {
  TaskEvidence evidence;
  evidence.task = StudyTask::kCorrelationEstimate;
  // Height-vs-color agreement is one gestalt read; the stronger the
  // correlation, the easier the call.
  evidence.answer_strength = Clamp(0.55 + 0.45 * std::fabs(gci), 0.0, 1.0);
  evidence.distractors = 1.0;
  evidence.visual_load = 0.4;
  return evidence;
}

TaskEvidence OpenOrdCorrelationEvidence(double gci,
                                        const Positions& positions) {
  TaskEvidence evidence;
  evidence.task = StudyTask::kCorrelationEstimate;
  // The same correlation must be assembled from scattered node colors.
  evidence.answer_strength = Clamp(0.25 + 0.35 * std::fabs(gci), 0.0, 0.9);
  evidence.distractors = 3.0;
  evidence.visual_load =
      std::min(1.5, static_cast<double>(positions.size()) / 4000.0) + 0.3;
  return evidence;
}

void EvidenceTable::Add(const std::string& row, const TaskOutcome& outcome) {
  if (std::find(rows_.begin(), rows_.end(), row) == rows_.end())
    rows_.push_back(row);
  for (Entry& entry : entries_) {
    if (entry.row == row && entry.outcome.tool == outcome.tool) {
      entry.outcome = outcome;
      return;
    }
  }
  entries_.push_back(Entry{row, outcome});
}

const TaskOutcome* EvidenceTable::Cell(const std::string& row,
                                       StudyTool tool) const {
  for (const Entry& entry : entries_)
    if (entry.row == row && entry.outcome.tool == tool)
      return &entry.outcome;
  return nullptr;
}

bool EvidenceTable::Dominates(StudyTool tool) const {
  for (const std::string& row : rows_) {
    const TaskOutcome* mine = Cell(row, tool);
    if (mine == nullptr) continue;
    for (const Entry& entry : entries_) {
      if (entry.row != row || entry.outcome.tool == tool) continue;
      if (entry.outcome.accuracy > mine->accuracy ||
          entry.outcome.mean_seconds < mine->mean_seconds)
        return false;
    }
  }
  return true;
}

}  // namespace graphscape
