// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Enforces the arena discipline of Algorithms 1/2/3: the number of heap
// allocations per build is a small constant (the up-front flat arrays),
// independent of graph size — i.e., the sweep loops themselves never
// allocate. A per-node or per-edge allocation would make the count scale
// with n and fail these bounds immediately. Both the vertex sweep and
// the edge sweep run under the same counting-operator-new harness. The
// graph's degree-order view and edge-endpoint arrays are built once per
// graph on first use, not per call, so each count starts after
// BuildGraphViews; GraphViewsBuildOncePerGraph checks that they are.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "community/bigclam.h"
#include "gen/generators.h"
#include "graph/intersect.h"
#include "layout/spring_layout.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "metrics/triangles.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_core.h"
#include "scalar/tree_queries.h"
#include "terrain/guarded_render.h"
#include "terrain/render.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// libstdc++'s std::get_temporary_buffer (stable_sort) allocates through
// the nothrow variant; override it too so every new/delete pair stays on
// malloc/free (ASan flags a mixed pair as alloc-dealloc-mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace graphscape {
namespace {

void BuildGraphViews(const Graph& g) {
  g.ByDegree();
  g.EdgeSources();
}

template <typename Fn>
uint64_t AllocationsDuring(const Fn& fn) {
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

uint64_t AllocationsDuringBuild(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = field_rng.UniformDouble();
  const VertexScalarField field("f", values);
  BuildGraphViews(g);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  const SuperTree super(tree);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(super.NumNodes(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, BuildAllocationCountIsConstantInGraphSize) {
  const uint64_t small = AllocationsDuringBuild(1 << 8);
  const uint64_t large = AllocationsDuringBuild(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the sweep loop";
  // Algorithm 1's order, four union-find/arena arrays and swept bitmap +
  // the sort's key and ping-pong arrays + the field copy + Algorithm 2's
  // five; leave headroom for minor standard-library noise
  // but stay well below anything per-node.
  EXPECT_LE(large, 24u);
}

uint64_t AllocationsDuringSort(const std::vector<double>& values) {
  std::vector<uint32_t> order;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  tree_core::SortSweepOrder(values, &order);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(order.size(), values.size());
  return after - before;
}

TEST(AllocationDisciplineTest, SortAllocationCountIsIndependentOfPassCount) {
  // Integers below 97 need 2 radix passes, distinct doubles need 6; the
  // digit histogram is allocated once, never per pass.
  constexpr uint32_t kCount = 1 << 14;
  Rng rng(7);
  std::vector<double> integers(kCount), distinct(kCount);
  for (double& v : integers) v = static_cast<double>(rng.UniformInt(97));
  for (double& v : distinct) v = rng.UniformDouble();
  EXPECT_EQ(AllocationsDuringSort(integers), AllocationsDuringSort(distinct));
}

uint64_t AllocationsDuringEdgeBuild(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(static_cast<size_t>(g.NumEdges()));
  for (auto& v : values) v = field_rng.UniformDouble();
  const EdgeScalarField field("f", values);
  BuildGraphViews(g);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  const SuperTree super(tree);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(super.NumNodes(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, EdgeBuildAllocationCountIsConstantInGraphSize) {
  const uint64_t small = AllocationsDuringEdgeBuild(1 << 8);
  const uint64_t large = AllocationsDuringEdgeBuild(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the edge sweep loop";
  // Algorithm 3's sort (order, key array, ping-pong buffer) and four
  // sweep arrays + the field copy + Algorithm 2's five; same headroom
  // rule as the vertex bound.
  EXPECT_LE(large, 28u);
}

uint64_t AllocationsDuringIndexBuild(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values)
    v = static_cast<double>(field_rng.UniformInt(32));
  const VertexScalarField field("f", values);
  const SuperTree super(BuildVertexScalarTree(g, field));

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const TreeMemberIndex index(super);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(index.SubtreeMemberCount(0), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, MemberIndexBuildAllocatesConstantArrays) {
  // The query index is the same flat-array discipline: a fixed set of
  // pre-sized vectors (children CSR, Euler positions, member CSR, the
  // reserved DFS stack) — nothing per node or per member.
  const uint64_t small = AllocationsDuringIndexBuild(1 << 8);
  const uint64_t large = AllocationsDuringIndexBuild(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with tree size - something allocates "
         "inside the index build loops";
  EXPECT_LE(large, 16u);
}

TEST(AllocationDisciplineTest, IntersectKernelsNeverAllocate) {
  // The intersection layer (graph/intersect.h) is allocation-free by
  // contract: zero heap allocations across intersect::Count, merging and
  // galloping.
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  uint64_t sink = 0;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (VertexId u = 0; u < 64; ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); v += 13) {
      const Graph::NeighborRange ru = g.Neighbors(u);
      const Graph::NeighborRange rv = g.Neighbors(v);
      sink += intersect::Count(ru.begin(), ru.size(), rv.begin(), rv.size());
    }
  }
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after)
      << "something allocated inside the intersection hot path";
  EXPECT_GT(sink, 0u);
}

uint64_t AllocationsDuringTriangleCount(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const uint64_t total = CountTriangles(g);
  const std::vector<uint32_t> per_vertex = VertexTriangleCounts(g);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(total, 0u);
  EXPECT_EQ(per_vertex.size(), g.NumVertices());
  return after - before;
}

TEST(AllocationDisciplineTest, TriangleCountAllocationsConstantInGraphSize) {
  // CountTriangles/VertexTriangleCounts allocate a fixed set of arrays
  // up front (each slot's direction byte, the forward adjacency's
  // offsets + targets, the marks, and VertexTriangleCounts' counts) and
  // nothing per vertex or per pivot inside the sweep.
  const uint64_t small = AllocationsDuringTriangleCount(1 << 8);
  const uint64_t large = AllocationsDuringTriangleCount(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the triangle sweep";
  EXPECT_LE(large, 12u);
}

uint64_t AllocationsDuringTrussNumbers(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  BuildGraphViews(g);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const std::vector<uint32_t> truss = TrussNumbers(g);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(truss.size(), g.NumEdges());
  return after - before;
}

TEST(AllocationDisciplineTest, TrussNumbersAllocationsConstantInGraphSize) {
  // TrussNumbers allocates a fixed set of arrays up front (the EdgeIndex
  // slot ids and its fill cursor, freed once the {neighbour, edge} runs
  // are built from them; the runs; the support pass's marks; support,
  // which becomes the output; the peel's run ends and marks, and
  // PeelByLevel's live list and frontier) and nothing per edge or per
  // triangle: the peel compacts the runs in place.
  const uint64_t small = AllocationsDuringTrussNumbers(1 << 8);
  const uint64_t large = AllocationsDuringTrussNumbers(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the support count or the peel";
  EXPECT_LE(large, 12u);
}

uint64_t AllocationsDuringNucleus34(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  BuildGraphViews(g);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const NucleusDecomposition d = Nucleus34(g);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(d.triangles.size(), 0u);
  EXPECT_EQ(d.nucleus_numbers.size(), d.triangles.size());
  return after - before;
}

TEST(AllocationDisciplineTest, NucleusAllocationsConstantInGraphSize) {
  // Nucleus34 sizes its edge runs from K-Truss support before it fills
  // anything, so it allocates a fixed set of exact-sized arrays (the
  // EdgeIndex slot ids and its fill cursor, freed once the vertices'
  // {neighbour, edge} runs are built; those runs; the marks, which the
  // support count, the triangle listing and the peel share; K-Truss
  // support, which becomes the edge runs' starts; the edge runs' ends;
  // the runs; the triangles; their edges; 4-clique support, which
  // becomes the output; and PeelByLevel's live list and frontier) and
  // nothing per triangle or per 4-clique: the peel compacts the runs in
  // place.
  const uint64_t small = AllocationsDuringNucleus34(1 << 8);
  const uint64_t large = AllocationsDuringNucleus34(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the triangle enumeration, the support count or the peel";
  EXPECT_LE(large, 12u);
}

uint64_t AllocationsDuringCoreNumbers(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  BuildGraphViews(g);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const std::vector<uint32_t> core = CoreNumbers(g);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(core.size(), g.NumVertices());
  return after - before;
}

TEST(AllocationDisciplineTest, CoreNumbersAllocationsConstantInGraphSize) {
  // CoreNumbers allocates four arrays (the degrees at view positions,
  // which become the core numbers there; the peel's live list and
  // frontier; and the output in vertex ids, filled from the first after
  // the peel has freed the other two, so at most three are live at once)
  // and nothing per level, vertex or demotion.
  const uint64_t small = AllocationsDuringCoreNumbers(1 << 8);
  const uint64_t large = AllocationsDuringCoreNumbers(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the peel";
  EXPECT_LE(large, 4u);
}

TEST(AllocationDisciplineTest, GraphViewsBuildOncePerGraph) {
  // The degree-order view and the edge-endpoint arrays are per graph: the
  // first use builds them, a later call on the graph or on a copy of it
  // allocates none of their arrays.
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  const Graph copy = g;
  const uint64_t first_core = AllocationsDuring([&g] { CoreNumbers(g); });
  const uint64_t second_core = AllocationsDuring([&g] { CoreNumbers(g); });
  EXPECT_GT(first_core, second_core);
  EXPECT_EQ(second_core, AllocationsDuringCoreNumbers(1 << 10));
  EXPECT_EQ(AllocationsDuring([&g] { g.ByDegree(); }), 0u);
  EXPECT_EQ(AllocationsDuring([&copy] { copy.ByDegree(); }), 0u);
  EXPECT_EQ(&copy.ByDegree(), &g.ByDegree());

  EXPECT_GT(AllocationsDuring([&copy] { copy.EdgeTargets(); }), 0u);
  const uint64_t edges_again = AllocationsDuring([&g] {
    g.EdgeSources();
    g.EdgeTargets();
    g.EdgeEndpoints(0);
  });
  EXPECT_EQ(edges_again, 0u);
  EXPECT_EQ(&copy.EdgeSources(), &g.EdgeSources());
}

uint64_t AllocationsDuringSpringRefine(uint32_t iterations) {
  Rng rng(21);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  Positions pos(g.NumVertices());
  Rng scatter(3);
  for (auto& p : pos) {
    p.x = scatter.UniformDouble();
    p.y = scatter.UniformDouble();
  }
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  SpringLayoutOptions options;
  options.iterations = iterations;
  RefineSpringLayout(g, options, &pos);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(pos.size(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, SpringIterationLoopDoesNotAllocate) {
  // The grid-binned force loop reuses one set of pre-sized buffers:
  // more iterations must not mean more allocations.
  const uint64_t few = AllocationsDuringSpringRefine(4);
  const uint64_t many = AllocationsDuringSpringRefine(32);
  EXPECT_EQ(few, many)
      << "allocation count scales with iterations - something allocates "
         "inside the spring iteration loop";
  EXPECT_LE(many, 12u);
}

uint64_t AllocationsDuringBigClamFit(uint32_t iterations) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  BigClamOptions options;
  options.num_communities = 4;
  options.iterations = iterations;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const BigClamAffiliations fit = BigClamFit(g, options);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(fit.num_vertices, 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, BigClamIterationLoopDoesNotAllocate) {
  // The projected-gradient loop ping-pongs between two pre-sized factor
  // matrices; the BFS seeding scratch is allocated once up front. More
  // iterations must not mean more allocations.
  const uint64_t few = AllocationsDuringBigClamFit(2);
  const uint64_t many = AllocationsDuringBigClamFit(80);
  EXPECT_EQ(few, many)
      << "allocation count scales with iterations - something allocates "
         "inside the BigCLAM gradient loop";
  EXPECT_LE(many, 24u);
}

uint64_t AllocationsDuringRasterize(uint32_t resolution) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = static_cast<double>(field_rng.UniformInt(16));
  const SuperTree super(
      BuildVertexScalarTree(g, VertexScalarField("f", values)));
  const TerrainLayout layout = BuildTerrainLayout(super);
  RasterOptions options;
  options.width = options.height = resolution;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const HeightField field = RasterizeTerrain(layout, options);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(field.height_at.size(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, RasterPaintLoopAllocatesOnlyOutputArrays) {
  // The painter's loop writes row spans into the two up-front output
  // arrays; neither resolution nor node count adds allocations.
  const uint64_t small = AllocationsDuringRasterize(64);
  const uint64_t large = AllocationsDuringRasterize(512);
  EXPECT_EQ(small, large)
      << "allocation count scales with resolution - something allocates "
         "inside the raster paint loop";
  EXPECT_LE(large, 4u);
}

uint64_t AllocationsDuringRender(uint32_t resolution, uint32_t image_width,
                                 uint32_t image_height) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = static_cast<double>(field_rng.UniformInt(16));
  const SuperTree super(
      BuildVertexScalarTree(g, VertexScalarField("f", values)));
  RasterOptions options;
  options.width = options.height = resolution;
  const HeightField field =
      RasterizeTerrain(BuildTerrainLayout(super), options);
  const std::vector<Rgb> colors = HeightColors(super);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Image image =
      RenderOblique(field, colors, Camera{}, image_width, image_height);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(image.pixels.size(),
            static_cast<size_t>(image_width) * image_height);
  return after - before;
}

TEST(AllocationDisciplineTest, RenderAllocatesOnlyUpFrontArrays) {
  // RenderOblique allocates the image, the per-axis rotation tables, the
  // depth buckets and order, the written mask and the per-column covered
  // runs up front; neither raster nor image size adds allocations.
  const uint64_t small = AllocationsDuringRender(64, 160, 120);
  const uint64_t large = AllocationsDuringRender(512, 960, 720);
  EXPECT_EQ(small, large)
      << "allocation count scales with resolution - something allocates "
         "inside the render walk";
  EXPECT_LE(large, 8u);
}

TEST(AllocationDisciplineTest, RenderBudgetCoversRasterAndRenderBytes) {
  // A guarded render rung charges TerrainRenderWorkingBytes before it
  // rasterizes and renders; the charge must cover every byte those two
  // steps allocate, or the budget admits rungs that do not fit.
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  const SuperTree super(BuildVertexScalarTree(
      g, VertexScalarField::FromCounts("KC", CoreNumbers(g))));
  const TerrainLayout layout = BuildTerrainLayout(super);
  const std::vector<Rgb> colors = HeightColors(super);
  for (const uint32_t resolution : {64u, 512u}) {
    RasterOptions options;
    options.width = options.height = resolution;
    const uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    const HeightField field = RasterizeTerrain(layout, options);
    const Image image = RenderOblique(field, colors, Camera{}, 960, 720);
    const uint64_t after = g_alloc_bytes.load(std::memory_order_relaxed);
    const uint64_t charged = TerrainRenderWorkingBytes(
        super.NumNodes(), resolution, resolution, 960, 720);
    EXPECT_LE(after - before, charged) << "raster " << resolution;
  }
}

}  // namespace
}  // namespace graphscape
