// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Coverage for the simulated user study: the response model's exact
// determinism and monotonicity guarantees (common random numbers make
// "easier evidence never scores lower" hold exactly, not just in
// expectation), a hand-replicated aggregation cross-check against the
// Rng draws, the evidence extractors' direction (crowding and smear
// degrade 2D tools, terrain stays explicit), and the Tables IV-VI
// accumulator.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "userstudy/evidence.h"
#include "userstudy/simulated_user.h"

namespace graphscape {
namespace {

TaskEvidence Evidence(double strength, double distractors = 1.0,
                      double load = 0.5,
                      StudyTask task = StudyTask::kDensestCore) {
  TaskEvidence evidence;
  evidence.task = task;
  evidence.answer_strength = strength;
  evidence.distractors = distractors;
  evidence.visual_load = load;
  return evidence;
}

TEST(SimulateTaskTest, DeterministicAndRecordsProvenance) {
  const TaskEvidence evidence =
      Evidence(0.7, 2.0, 0.8, StudyTask::kSecondDensestCore);
  const TaskOutcome a = SimulateTask(StudyTool::kLaNetVi, evidence);
  const TaskOutcome b = SimulateTask(StudyTool::kLaNetVi, evidence);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.mean_seconds, b.mean_seconds);
  EXPECT_EQ(a.tool, StudyTool::kLaNetVi);
  EXPECT_EQ(a.task, StudyTask::kSecondDensestCore);
  EXPECT_EQ(a.num_participants, 20u);
}

TEST(SimulateTaskTest, StrengthExtremesAreExact) {
  EXPECT_DOUBLE_EQ(SimulateTask(StudyTool::kTerrain, Evidence(1.0)).accuracy,
                   1.0);
  EXPECT_DOUBLE_EQ(SimulateTask(StudyTool::kTerrain, Evidence(0.0)).accuracy,
                   0.0);
}

TEST(SimulateTaskTest, AccuracyExactlyMonotoneInStrength) {
  // Common random numbers: the SAME participants face every strength, so
  // the correct set can only grow — accuracy is monotone pointwise.
  double previous = -1.0;
  for (double strength = 0.0; strength <= 1.0; strength += 0.05) {
    const double accuracy =
        SimulateTask(StudyTool::kOpenOrd, Evidence(strength)).accuracy;
    EXPECT_GE(accuracy, previous) << "strength " << strength;
    previous = accuracy;
  }
}

TEST(SimulateTaskTest, TimeMonotoneInLoadDistractorsAndWeakness) {
  const double base =
      SimulateTask(StudyTool::kTerrain, Evidence(0.8, 1.0, 0.5)).mean_seconds;
  EXPECT_GT(SimulateTask(StudyTool::kTerrain, Evidence(0.8, 3.0, 0.5))
                .mean_seconds,
            base);
  EXPECT_GT(SimulateTask(StudyTool::kTerrain, Evidence(0.8, 1.0, 1.2))
                .mean_seconds,
            base);
  // Weaker evidence adds hesitation.
  EXPECT_GT(SimulateTask(StudyTool::kTerrain, Evidence(0.3, 1.0, 0.5))
                .mean_seconds,
            base);
}

TEST(SimulateTaskTest, HandComputedAggregationCrossCheck) {
  // Replicate the model by hand for 3 participants: draws come in
  // (care, speed) pairs from Rng(seed).
  SimulatedUserOptions options;
  options.num_participants = 3;
  options.seed = 99;
  const TaskEvidence evidence = Evidence(0.6, 2.0, 1.0);
  Rng rng(99);
  const double task_seconds =
      (options.base_seconds + options.seconds_per_distractor * 2.0 +
       options.seconds_per_load * 1.0) *
      (1.0 + options.hesitation_factor * (1.0 - 0.6));
  uint32_t correct = 0;
  double total = 0.0;
  for (uint32_t p = 0; p < 3; ++p) {
    const double care = rng.UniformDouble();
    const double speed = rng.UniformDouble();
    if (care < 0.6) ++correct;
    total += task_seconds * (0.8 + 0.4 * speed);
  }
  const TaskOutcome outcome =
      SimulateTask(StudyTool::kOpenOrd, evidence, options);
  EXPECT_DOUBLE_EQ(outcome.accuracy, correct / 3.0);
  EXPECT_DOUBLE_EQ(outcome.mean_seconds, total / 3.0);
}

TEST(SimulateTaskTest, ZeroParticipantsIsWellDefined) {
  SimulatedUserOptions options;
  options.num_participants = 0;
  const TaskOutcome outcome =
      SimulateTask(StudyTool::kTerrain, Evidence(1.0), options);
  EXPECT_EQ(outcome.num_participants, 0u);
  EXPECT_DOUBLE_EQ(outcome.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(outcome.mean_seconds, 0.0);
}

TEST(VocabularyTest, TaskAndToolNames) {
  EXPECT_STREQ(TaskName(StudyTask::kDensestCore), "densest-core");
  EXPECT_STREQ(TaskName(StudyTask::kCorrelationEstimate),
               "correlation-estimate");
  EXPECT_STREQ(ToolName(StudyTool::kTerrain), "terrain");
  EXPECT_STREQ(ToolName(StudyTool::kLaNetVi), "lanet-vi");
}

// --------------------------------------------------------------- evidence --

TEST(TerrainEvidenceTest, CoreTasksAreExplicit) {
  // Two planted peaks: values 3-3-3 and 2-2, joined through a valley.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);  // valley vertex 3
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  const Graph g = builder.Build();
  const VertexScalarField field("f", {3.0, 3.0, 3.0, 1.0, 2.0, 2.0});
  const SuperTree tree(BuildVertexScalarTree(g, field));

  const TaskEvidence task1 =
      TerrainCoreEvidence(g, tree, StudyTask::kDensestCore);
  EXPECT_DOUBLE_EQ(task1.answer_strength, 1.0);
  EXPECT_EQ(task1.task, StudyTask::kDensestCore);
  // One peak at the top level: no rivals for task 1.
  EXPECT_DOUBLE_EQ(task1.distractors, 0.0);

  const TaskEvidence task2 =
      TerrainCoreEvidence(g, tree, StudyTask::kSecondDensestCore);
  EXPECT_DOUBLE_EQ(task2.answer_strength, 1.0) << "terrain stays explicit";
  EXPECT_GT(task2.distractors, task1.distractors);
}

LanetViLayoutResult SyntheticShells(uint32_t n, uint32_t core_members,
                                    double intruder_radius) {
  // `core_members` vertices at radius 0.1, the rest at intruder_radius.
  LanetViLayoutResult layout;
  layout.max_core = 5;
  layout.core_of.assign(n, 1);
  layout.positions.assign(n, Point2{0.5, 0.5});
  for (uint32_t v = 0; v < n; ++v) {
    const bool member = v < core_members;
    if (member) layout.core_of[v] = 5;
    const double radius = member ? 0.1 : intruder_radius;
    const double angle = 2.0 * 3.14159265358979 * v / n;
    layout.positions[v] =
        Point2{0.5 + radius * std::cos(angle), 0.5 + radius * std::sin(angle)};
  }
  return layout;
}

TEST(LanetViEvidenceTest, CrowdingDegradesStrength) {
  GraphBuilder builder(40);
  for (uint32_t v = 1; v < 40; ++v) builder.AddEdge(0, v);
  const Graph g = builder.Build();
  // Clean: non-members far outside the members' radius. Crowded: they
  // sit right on top of the core.
  const TaskEvidence clean = LanetViCoreEvidence(
      g, SyntheticShells(40, 10, 0.45), StudyTask::kDensestCore);
  const TaskEvidence crowded = LanetViCoreEvidence(
      g, SyntheticShells(40, 10, 0.1), StudyTask::kDensestCore);
  EXPECT_DOUBLE_EQ(clean.answer_strength, 1.0);
  EXPECT_LT(crowded.answer_strength, clean.answer_strength);
  // Task 2 (connectivity) halves whatever the artifact offers.
  const TaskEvidence task2 = LanetViCoreEvidence(
      g, SyntheticShells(40, 10, 0.45), StudyTask::kSecondDensestCore);
  EXPECT_DOUBLE_EQ(task2.answer_strength, 0.5 * clean.answer_strength);
}

TEST(OpenOrdEvidenceTest, SpatialSmearDegradesStrength) {
  const uint32_t n = 30;
  GraphBuilder builder(n);
  for (uint32_t v = 1; v < n; ++v) builder.AddEdge(0, v);
  const Graph g = builder.Build();
  std::vector<uint32_t> cores(n, 1);
  for (uint32_t v = 0; v < 10; ++v) cores[v] = 4;

  Positions compact(n), smeared(n);
  Rng rng(5);
  for (uint32_t v = 0; v < n; ++v) {
    const Point2 anywhere{rng.UniformDouble(), rng.UniformDouble()};
    smeared[v] = anywhere;
    // Compact: the densest core collapses to one corner cluster.
    compact[v] = cores[v] == 4
                     ? Point2{0.05 + 0.02 * rng.UniformDouble(),
                              0.05 + 0.02 * rng.UniformDouble()}
                     : anywhere;
  }
  const TaskEvidence easy =
      OpenOrdCoreEvidence(g, compact, cores, StudyTask::kDensestCore);
  const TaskEvidence hard =
      OpenOrdCoreEvidence(g, smeared, cores, StudyTask::kDensestCore);
  EXPECT_GT(easy.answer_strength, hard.answer_strength);
  const TaskEvidence task2 =
      OpenOrdCoreEvidence(g, compact, cores, StudyTask::kSecondDensestCore);
  EXPECT_DOUBLE_EQ(task2.answer_strength, 0.5 * easy.answer_strength);
}

TEST(CorrelationEvidenceTest, StrengthGrowsWithGciAndFavorsTerrain) {
  const Positions positions(500);
  double previous_terrain = -1.0, previous_openord = -1.0;
  for (const double gci : {0.0, 0.3, 0.6, 0.9}) {
    const TaskEvidence terrain = TerrainCorrelationEvidence(gci);
    const TaskEvidence openord = OpenOrdCorrelationEvidence(gci, positions);
    EXPECT_EQ(terrain.task, StudyTask::kCorrelationEstimate);
    EXPECT_GE(terrain.answer_strength, previous_terrain);
    EXPECT_GE(openord.answer_strength, previous_openord);
    EXPECT_GT(terrain.answer_strength, openord.answer_strength) << gci;
    previous_terrain = terrain.answer_strength;
    previous_openord = openord.answer_strength;
  }
  // Sign does not matter: anti-correlation reads just as easily.
  EXPECT_DOUBLE_EQ(TerrainCorrelationEvidence(-0.8).answer_strength,
                   TerrainCorrelationEvidence(0.8).answer_strength);
}

// ----------------------------------------------------------- EvidenceTable --

TaskOutcome Outcome(StudyTool tool, double accuracy, double seconds) {
  TaskOutcome outcome;
  outcome.tool = tool;
  outcome.accuracy = accuracy;
  outcome.mean_seconds = seconds;
  outcome.num_participants = 20;
  return outcome;
}

TEST(EvidenceTableTest, CellsRowsAndOverwrite) {
  EvidenceTable table;
  EXPECT_TRUE(table.Rows().empty());
  table.Add("GrQc", Outcome(StudyTool::kTerrain, 1.0, 10.0));
  table.Add("GrQc", Outcome(StudyTool::kOpenOrd, 0.6, 25.0));
  table.Add("PPI", Outcome(StudyTool::kTerrain, 1.0, 12.0));
  ASSERT_EQ(table.Rows().size(), 2u);
  EXPECT_EQ(table.Rows()[0], "GrQc");
  ASSERT_NE(table.Cell("GrQc", StudyTool::kOpenOrd), nullptr);
  EXPECT_DOUBLE_EQ(table.Cell("GrQc", StudyTool::kOpenOrd)->accuracy, 0.6);
  EXPECT_EQ(table.Cell("GrQc", StudyTool::kLaNetVi), nullptr);
  EXPECT_EQ(table.Cell("DBLP", StudyTool::kTerrain), nullptr);
  table.Add("GrQc", Outcome(StudyTool::kOpenOrd, 0.7, 20.0));
  EXPECT_DOUBLE_EQ(table.Cell("GrQc", StudyTool::kOpenOrd)->accuracy, 0.7);
  EXPECT_EQ(table.Rows().size(), 2u) << "overwrite must not duplicate rows";
}

TEST(EvidenceTableTest, DominanceRequiresBothMetricsInEveryRow) {
  EvidenceTable table;
  EXPECT_TRUE(table.Dominates(StudyTool::kTerrain)) << "vacuous";
  table.Add("GrQc", Outcome(StudyTool::kTerrain, 1.0, 10.0));
  table.Add("GrQc", Outcome(StudyTool::kOpenOrd, 0.8, 20.0));
  table.Add("PPI", Outcome(StudyTool::kTerrain, 1.0, 12.0));
  table.Add("PPI", Outcome(StudyTool::kLaNetVi, 1.0, 12.0));  // exact tie
  EXPECT_TRUE(table.Dominates(StudyTool::kTerrain)) << "weak dominance";
  EXPECT_FALSE(table.Dominates(StudyTool::kOpenOrd));
  // A single faster rival anywhere breaks dominance.
  table.Add("DBLP", Outcome(StudyTool::kTerrain, 1.0, 15.0));
  table.Add("DBLP", Outcome(StudyTool::kOpenOrd, 0.5, 14.0));
  EXPECT_FALSE(table.Dominates(StudyTool::kTerrain));
}

}  // namespace
}  // namespace graphscape
