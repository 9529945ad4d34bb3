// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "userstudy/simulated_user.h"

#include "common/rng.h"

namespace graphscape {

const char* TaskName(StudyTask task) {
  switch (task) {
    case StudyTask::kDensestCore:
      return "densest-core";
    case StudyTask::kSecondDensestCore:
      return "second-densest-core";
    case StudyTask::kCorrelationEstimate:
      return "correlation-estimate";
  }
  return "densest-core";
}

const char* ToolName(StudyTool tool) {
  switch (tool) {
    case StudyTool::kTerrain:
      return "terrain";
    case StudyTool::kLaNetVi:
      return "lanet-vi";
    case StudyTool::kOpenOrd:
      return "openord";
  }
  return "terrain";
}

TaskOutcome SimulateTask(StudyTool tool, const TaskEvidence& evidence,
                         const SimulatedUserOptions& options) {
  TaskOutcome outcome;
  outcome.tool = tool;
  outcome.task = evidence.task;
  outcome.num_participants = options.num_participants;
  if (options.num_participants == 0) return outcome;

  // One (care, speed) draw per participant, identical for every tool and
  // evidence — the common-random-numbers pairing documented above.
  Rng rng(options.seed);
  const double task_seconds =
      (options.base_seconds +
       options.seconds_per_distractor * evidence.distractors +
       options.seconds_per_load * evidence.visual_load) *
      (1.0 + options.hesitation_factor * (1.0 - evidence.answer_strength));
  uint32_t correct = 0;
  double total_seconds = 0.0;
  for (uint32_t p = 0; p < options.num_participants; ++p) {
    const double care = rng.UniformDouble();   // in [0, 1)
    const double speed = rng.UniformDouble();  // in [0, 1)
    if (care < evidence.answer_strength) ++correct;
    total_seconds += task_seconds * (0.8 + 0.4 * speed);
  }
  outcome.accuracy =
      static_cast<double>(correct) / options.num_participants;
  outcome.mean_seconds = total_seconds / options.num_participants;
  return outcome;
}

}  // namespace graphscape
