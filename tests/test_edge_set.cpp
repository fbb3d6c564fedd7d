// Unit and property tests for the edge-set grid (paper §3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "gen/rmat.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"

namespace cgraph {
namespace {

std::vector<Edge> grid_edges() {
  return {{0, 1}, {0, 5}, {1, 2}, {2, 7}, {3, 0}};
}

TEST(EdgeSetGrid, PreservesAllEdges) {
  const auto edges = grid_edges();
  const auto grid = EdgeSetGrid::build({0, 4}, 8, edges);
  EXPECT_EQ(grid.num_edges(), edges.size());

  std::multiset<std::pair<VertexId, VertexId>> expected, got;
  for (const Edge& e : edges) expected.insert({e.src, e.dst});
  for (VertexId s = 0; s < 4; ++s) {
    grid.for_each_neighbor(s, [&](VertexId t) { got.insert({s, t}); });
  }
  EXPECT_EQ(expected, got);
}

TEST(EdgeSetGrid, RowRangesPartitionSourceRange) {
  const auto edges = grid_edges();
  const auto grid = EdgeSetGrid::build({0, 4}, 8, edges);
  ASSERT_GE(grid.num_rows(), 1u);
  EXPECT_EQ(grid.row_range(0).begin, 0u);
  EXPECT_EQ(grid.row_range(grid.num_rows() - 1).end, 4u);
  for (std::size_t r = 0; r + 1 < grid.num_rows(); ++r) {
    EXPECT_EQ(grid.row_range(r).end, grid.row_range(r + 1).begin);
  }
}

TEST(EdgeSetGrid, BlocksRespectDstRanges) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 4;
  const EdgeList el = generate_rmat(params);
  const VertexId n = VertexId{1} << params.scale;

  EdgeSetOptions opts;
  opts.target_bytes = 4096;  // force many blocks
  opts.consolidate = false;
  const auto grid = EdgeSetGrid::build({0, n}, n, el.edges(), opts);
  EXPECT_GT(grid.num_sets(), 4u);
  for (const EdgeSet& es : grid.sets()) {
    for (VertexId s = es.src_range().begin; s < es.src_range().end; ++s) {
      for (VertexId t : es.neighbors(s)) {
        EXPECT_TRUE(es.dst_range().contains(t));
      }
    }
  }
}

TEST(EdgeSetGrid, ConsolidationMergesTinyBlocks) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 2;  // sparse -> many tiny blocks
  const EdgeList el = generate_rmat(params);
  const VertexId n = VertexId{1} << params.scale;

  EdgeSetOptions plain;
  plain.target_bytes = 2048;
  plain.consolidate = false;
  EdgeSetOptions merged = plain;
  merged.consolidate = true;
  merged.min_edges_per_set = 128;

  const auto g1 = EdgeSetGrid::build({0, n}, n, el.edges(), plain);
  const auto g2 = EdgeSetGrid::build({0, n}, n, el.edges(), merged);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_LT(g2.num_sets(), g1.num_sets());
  // Consolidation must not lower the smallest block below... it must raise
  // the average block population.
  EXPECT_GT(g2.stats().avg_edges_per_set, g1.stats().avg_edges_per_set);
}

TEST(EdgeSetGrid, ConsolidationPreservesEdgeMultiset) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 3;
  const EdgeList el = generate_rmat(params);
  const VertexId n = VertexId{1} << params.scale;

  EdgeSetOptions merged;
  merged.target_bytes = 2048;
  merged.min_edges_per_set = 256;
  const auto grid = EdgeSetGrid::build({0, n}, n, el.edges(), merged);

  std::map<std::pair<VertexId, VertexId>, int> expected, got;
  for (const Edge& e : el) ++expected[{e.src, e.dst}];
  for (VertexId s = 0; s < n; ++s) {
    grid.for_each_neighbor(s, [&](VertexId t) { ++got[{s, t}]; });
  }
  EXPECT_EQ(expected, got);
}

TEST(EdgeSetGrid, NeighborsSortedWithinBlock) {
  const auto edges = grid_edges();
  const auto grid = EdgeSetGrid::build({0, 4}, 8, edges);
  for (const EdgeSet& es : grid.sets()) {
    for (VertexId s = es.src_range().begin; s < es.src_range().end; ++s) {
      const auto nbrs = es.neighbors(s);
      EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    }
  }
}

TEST(EdgeSetGrid, EmptySourceRange) {
  const auto grid = EdgeSetGrid::build({5, 5}, 8, {});
  EXPECT_EQ(grid.num_edges(), 0u);
  EXPECT_EQ(grid.num_sets(), 0u);
}

TEST(EdgeSetGrid, RowOfFindsCorrectRow) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 6;
  const EdgeList el = generate_rmat(params);
  const VertexId n = VertexId{1} << params.scale;
  EdgeSetOptions opts;
  opts.target_bytes = 4096;
  const auto grid = EdgeSetGrid::build({0, n}, n, el.edges(), opts);
  for (VertexId v = 0; v < n; v += 37) {
    const std::size_t r = grid.row_of(v);
    EXPECT_TRUE(grid.row_range(r).contains(v));
  }
}

TEST(EdgeSetGridDeathTest, SourceOutsideRangeAborts) {
  std::vector<Edge> edges{{9, 1}};
  EXPECT_DEATH(EdgeSetGrid::build({0, 4}, 10, edges),
               "edge source outside");
}

}  // namespace
}  // namespace cgraph
