// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Simulated participants for the paper's §IV user study (DESIGN.md
// substitution 4): Tables IV-VI compare terrain, LaNet-vi and OpenOrd on
// three tasks, and since we cannot rerun the human study, a seeded
// response model stands in. The split of responsibilities:
//
//  * userstudy/evidence.h MEASURES a TaskEvidence from the actual
//    rendered artifact — how unambiguous the correct answer is in that
//    picture, how many competing elements distract, how cluttered it is.
//
//  * SimulateTask below turns evidence into accuracy/time via common
//    random numbers: participant p's care quantile u_p comes from
//    Rng(options.seed) and depends ONLY on (p, seed) — never on the tool
//    or evidence — so comparisons across tools are paired, and easier
//    evidence can never score a lower accuracy (the monotonicity the
//    user-study tests pin exactly, not just in expectation).
//
// A participant answers correctly iff u_p < answer_strength (strict, and
// UniformDouble() < 1, so strength 1 means accuracy exactly 1.0 and
// strength 0 exactly 0.0). Time scales with clutter, distractors, and
// hesitation on weak evidence.

#ifndef GRAPHSCAPE_USERSTUDY_SIMULATED_USER_H_
#define GRAPHSCAPE_USERSTUDY_SIMULATED_USER_H_

#include <cstdint>

namespace graphscape {

enum class StudyTask : uint8_t {
  kDensestCore = 0,        ///< Task 1: identify the densest K-Core
  kSecondDensestCore = 1,  ///< Task 2: densest core disconnected from it
  kCorrelationEstimate = 2 ///< Task 3: estimate measure correlation
};

enum class StudyTool : uint8_t {
  kTerrain = 0,
  kLaNetVi = 1,
  kOpenOrd = 2
};

const char* TaskName(StudyTask task);
const char* ToolName(StudyTool tool);

/// What one artifact offers a participant for one task — measured by
/// userstudy/evidence.h, never guessed.
struct TaskEvidence {
  StudyTask task = StudyTask::kDensestCore;
  /// [0, 1]: the fraction of careful participants who read the correct
  /// answer off this artifact (1 = the answer is explicit in the
  /// encoding, 0 = unrecoverable).
  double answer_strength = 1.0;
  /// Competing visual elements a participant must rule out (extra
  /// peaks, sibling shells, rival clusters). >= 0.
  double distractors = 0.0;
  /// Overall clutter, roughly [0, 1.5] (edge soup, occlusion). >= 0.
  double visual_load = 0.0;
};

struct SimulatedUserOptions {
  uint32_t num_participants = 20;
  /// Seeds the participant pool. The same seed yields the same
  /// participants for every tool — the paired-comparison design.
  uint64_t seed = 456;
  double base_seconds = 8.0;
  double seconds_per_distractor = 3.0;
  double seconds_per_load = 14.0;
  /// Weak evidence adds hesitation: time scales by
  /// 1 + hesitation_factor * (1 - answer_strength).
  double hesitation_factor = 0.6;
};

struct TaskOutcome {
  StudyTool tool = StudyTool::kTerrain;
  StudyTask task = StudyTask::kDensestCore;
  double accuracy = 0.0;      ///< fraction of correct participants
  double mean_seconds = 0.0;  ///< mean completion time
  uint32_t num_participants = 0;
};

/// Deterministic in (tool, evidence, options). Accuracy is monotone
/// nondecreasing in evidence.answer_strength at fixed options (exactly,
/// by common random numbers); mean_seconds is monotone nondecreasing in
/// distractors and visual_load and nonincreasing in answer_strength.
TaskOutcome SimulateTask(StudyTool tool, const TaskEvidence& evidence,
                         const SimulatedUserOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_USERSTUDY_SIMULATED_USER_H_
