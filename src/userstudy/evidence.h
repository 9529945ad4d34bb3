// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Evidence extraction for the simulated user study (paper §IV): each
// function MEASURES, from the actual artifact a participant would look
// at, how well that artifact answers one study task — the answer's
// explicitness (answer_strength), the competing elements (distractors),
// and the clutter (visual_load). The response model itself lives in
// userstudy/simulated_user.h; nothing here draws random numbers.
//
// The measurements follow each tool's encoding:
//
//  * Terrain: the densest core IS the highest peak — the answer is
//    explicit, so strength is 1; distractors are the other peaks at the
//    answer's level, load grows with the number of super nodes.
//
//  * LaNet-vi: coreness is radial, so the densest core is findable but
//    occlusion degrades it — strength falls with the crowding of the
//    innermost shell (non-members sitting inside the members' radius).
//    Connectivity is not encoded at all, so Task 2 halves strength.
//
//  * OpenOrd: coreness is not encoded; the participant infers density
//    from spatial clumping — strength falls as the densest core smears
//    across the layout (its spread relative to the whole drawing).
//
// EvidenceTable accumulates simulated outcomes into the Tables IV-VI
// grid (dataset row x tool column) and answers the dominance questions
// the paper's tables make visually.

#ifndef GRAPHSCAPE_USERSTUDY_EVIDENCE_H_
#define GRAPHSCAPE_USERSTUDY_EVIDENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "layout/lanetvi_layout.h"
#include "layout/positions.h"
#include "scalar/super_tree.h"
#include "userstudy/simulated_user.h"

namespace graphscape {

/// Terrain over the K-Core field. `task` must be a core task.
TaskEvidence TerrainCoreEvidence(const Graph& g, const SuperTree& tree,
                                 StudyTask task);

/// LaNet-vi radial core layout.
TaskEvidence LanetViCoreEvidence(const Graph& g,
                                 const LanetViLayoutResult& layout,
                                 StudyTask task);

/// OpenOrd force layout; `cores` = CoreNumbers(g) (the ground truth the
/// participant is asked about, used only to locate the densest core in
/// the drawing).
TaskEvidence OpenOrdCoreEvidence(const Graph& g, const Positions& positions,
                                 const std::vector<uint32_t>& cores,
                                 StudyTask task);

/// Task 3 on a terrain: height/color correlation is directly visible;
/// strength grows with |gci| (a strong correlation is easy to call).
TaskEvidence TerrainCorrelationEvidence(double gci);

/// Task 3 on an OpenOrd drawing: correlation must be inferred from node
/// colors scattered in space — weaker strength, load from the drawing
/// size.
TaskEvidence OpenOrdCorrelationEvidence(double gci,
                                        const Positions& positions);

/// The Tables IV-VI accumulator: one row per dataset, one cell per
/// (row, tool). Insertion order of rows is preserved; re-adding a
/// (row, tool) pair overwrites the cell.
class EvidenceTable {
 public:
  void Add(const std::string& row, const TaskOutcome& outcome);

  /// The cell for (row, tool), or nullptr when absent.
  const TaskOutcome* Cell(const std::string& row, StudyTool tool) const;

  /// Row names in first-insertion order.
  const std::vector<std::string>& Rows() const { return rows_; }

  /// True when `tool` is weakly best on BOTH metrics (accuracy >=, time
  /// <=) against every other tool in every row where both have cells.
  /// Vacuously true for an empty table.
  bool Dominates(StudyTool tool) const;

 private:
  struct Entry {
    std::string row;
    TaskOutcome outcome;
  };
  std::vector<std::string> rows_;
  std::vector<Entry> entries_;
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_USERSTUDY_EVIDENCE_H_
