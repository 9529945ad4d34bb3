// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Table II: terrain visualization time cost. For each dataset × scalar
// (KC(v), KT(e)) reports:
//   Nt — super tree size after Algorithm 2,
//   tc — tree construction time (Algorithm 1 or 3, + Algorithm 2),
//   te — the naive dual-graph edge-tree baseline (edge scalars only;
//        attempted through the guarded builder, so hub-heavy rows print
//        "guard" instead of burning hours),
//   tv — terrain generation time; printed as "-" until ROADMAP item 14
//        times it (super tree + layout + raster + render).
// Shape to hold: tc seconds-scale even on the largest graphs; te >> tc and
// exploding with hub degrees (the paper's 16334 s Wikipedia cell).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"

namespace {

using namespace graphscape;

// Line-graph cap for the per-row naive attempts: large enough that the
// small collaboration sets run it, small enough that hub-heavy rows are
// refused instantly (the guard checks Σ deg² before building anything).
constexpr uint64_t kRowNaiveCap = 1ull << 24;

// The graph's degree-order view and edge-endpoint arrays are built once
// per graph on first use (graph/graph.h); building them before the
// timers keeps tc to the field and the trees. The naive te still builds
// its line graph's view inside its timer, as part of that baseline.
void BuildGraphViews(const Graph& g) {
  g.ByDegree();
  g.EdgeSources();
}

void RunVertexRow(const Dataset& ds) {
  BuildGraphViews(ds.graph);
  WallTimer timer;
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(ds.graph));
  const ScalarTree tree = BuildVertexScalarTree(ds.graph, kc);
  const SuperTree super(tree);
  const double tc = timer.Seconds();
  std::printf("%-11s %-6s %9u %9.4f %9s %9s\n", ds.spec.name, "KC(v)",
              super.NumNodes(), tc, "-", "-");
}

void RunEdgeRow(const Dataset& ds) {
  BuildGraphViews(ds.graph);
  WallTimer timer;
  const EdgeScalarField kt =
      EdgeScalarField::FromCounts("KT", TrussNumbers(ds.graph));
  const double t_field = timer.Seconds();

  timer.Restart();
  const ScalarTree tree = BuildEdgeScalarTree(ds.graph, kt);
  const SuperTree super(tree);
  const double tc = timer.Seconds();

  timer.Restart();
  const auto naive = BuildEdgeScalarTreeNaive(ds.graph, kt, kRowNaiveCap);
  std::string te;
  if (naive.ok()) {
    const SuperTree naive_super(naive.value());
    te = StrPrintf("%.4f", timer.Seconds());
  } else {
    te = "guard";  // line graph would blow past the size cap
  }
  std::printf("%-11s %-6s %9u %9.4f %9s %9s   (KT field: %.2fs)\n",
              ds.spec.name, "KT(e)", super.NumNodes(), tc, te.c_str(), "-",
              t_field);
}

}  // namespace

int main() {
  using namespace graphscape;
  bench::Banner("Table II — terrain visualization time cost (sec)",
                "paper Table II (Nt, tc, te per dataset x scalar; tv "
                "pending, ROADMAP item 14)");
  std::printf("%-11s %-6s %9s %9s %9s %9s\n", "Dataset", "Scalar", "Nt", "tc",
              "te", "tv");

  for (const DatasetId id : AllDatasetIds()) {
    DatasetOptions options;
    if (bench::FullScale()) options.scale_divisor = 1;
    const Dataset ds = MakeDataset(id, options);
    RunVertexRow(ds);
    RunEdgeRow(ds);
  }

  // The te-vs-tc gap at matched scale: the paper's headline is the naive
  // method being orders slower (>300x on Wikipedia). Demonstrate the gap on
  // a scaled copy where the naive method still terminates.
  std::printf("\nnaive-vs-optimized gap on scaled Wikipedia analogue:\n");
  DatasetOptions scaled;
  scaled.scale_divisor = 256;
  const Dataset wiki = MakeDataset(DatasetId::kWikipedia, scaled);
  const EdgeScalarField kt =
      EdgeScalarField::FromCounts("KT", TrussNumbers(wiki.graph));
  WallTimer timer;
  const SuperTree opt(BuildEdgeScalarTree(wiki.graph, kt));
  const double tc = timer.Seconds();
  timer.Restart();
  const auto naive = BuildEdgeScalarTreeNaive(wiki.graph, kt, 1ull << 33);
  const double te = timer.Seconds();
  if (naive.ok()) {
    std::printf("  |V|=%u |E|=%llu: tc=%.4fs te=%.4fs -> naive is %.0fx "
                "slower\n",
                wiki.graph.NumVertices(),
                static_cast<unsigned long long>(wiki.graph.NumEdges()), tc,
                te, te / std::max(1e-9, tc));
  } else {
    std::printf("  naive guarded out: %s\n",
                naive.status().ToString().c_str());
  }
  return 0;
}
