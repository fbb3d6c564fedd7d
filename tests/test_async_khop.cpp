// Tests for the asynchronous k-hop engine: exact agreement with the BSP
// engines (including the depth-relaxation corner cases), termination, and
// its barrier-free execution profile.
#include <gtest/gtest.h>

#include <tuple>

#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "query/async_khop.hpp"
#include "query/bfs.hpp"
#include "query/msbfs.hpp"

namespace cgraph {
namespace {

Graph make_graph(unsigned scale, double ef, std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = ef;
  p.seed = seed;
  return Graph::build(generate_rmat(p), VertexId{1} << scale);
}

class AsyncSweep
    : public ::testing::TestWithParam<std::tuple<PartitionId, Depth>> {};

TEST_P(AsyncSweep, MatchesSerialReference) {
  const auto [machines, k] = GetParam();
  const Graph g = make_graph(9, 5, 73);
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 10; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 71) % g.num_vertices()),
                       k});
  }
  const auto r = run_async_khop(cluster, shards, part, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.visited[i],
              khop_reach_count(g, queries[i].source, queries[i].k))
        << "machines=" << machines << " k=" << int(k) << " query=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncSweep,
    ::testing::Combine(::testing::Values<PartitionId>(1, 2, 3, 6),
                       ::testing::Values<Depth>(1, 3, 5)));

TEST(AsyncKhop, DepthRelaxationCornerCase) {
  // Diamond with a long and a short path to vertex 3:
  //   0 -> 1 -> 2 -> 3 -> 4   and   0 -> 3
  // With k = 2: 3 is reachable at depth 1 (short path), and 4 at depth 2
  // via 3. An engine that visits 3 first through the long path (depth 3)
  // and never re-expands would miss 4.
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  el.add(3, 4);
  el.add(0, 3);
  const Graph g = Graph::build(std::move(el), 5);
  const auto part = RangePartition::balanced_by_vertices(5, 2);
  const auto shards = build_shards(g, part);
  Cluster cluster(2);
  const KHopQuery q{0, 0, 2};
  const auto r = run_async_khop(cluster, shards, part, std::span(&q, 1));
  EXPECT_EQ(r.visited[0], khop_reach_count(g, 0, 2));  // {1, 3, 2, 4} = 4
}

TEST(AsyncKhop, AgreesWithStagedEngine) {
  const Graph g = make_graph(9, 7, 79);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 16; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 131) % g.num_vertices()),
                       static_cast<Depth>(1 + i % 5)});
  }
  const auto async_r = run_async_khop(cluster, shards, part, queries);
  const auto staged_r = run_distributed_msbfs(cluster, shards, part, queries);
  EXPECT_EQ(async_r.visited, staged_r.visited);
}

TEST(AsyncKhop, FullBfsReachability) {
  const Graph g = make_graph(8, 8, 83);
  const auto part = RangePartition::balanced_by_edges(g, 2);
  const auto shards = build_shards(g, part);
  Cluster cluster(2);
  const KHopQuery q{0, 5, kUnvisitedDepth};
  const auto r = run_async_khop(cluster, shards, part, std::span(&q, 1));
  const auto depth = bfs_levels(g, 5);
  std::uint64_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != 5 && depth[v] != kUnvisitedDepth) ++expected;
  }
  EXPECT_EQ(r.visited[0], expected);
}

TEST(AsyncKhop, TerminatesOnIsolatedSources) {
  EdgeList el;
  el.add(0, 1);
  const Graph g = Graph::build(std::move(el), 8);  // 2..7 isolated
  const auto part = RangePartition::balanced_by_vertices(8, 4);
  const auto shards = build_shards(g, part);
  Cluster cluster(4);
  std::vector<KHopQuery> queries{{0, 7, 3}, {1, 6, 3}};
  const auto r = run_async_khop(cluster, shards, part, queries);
  EXPECT_EQ(r.visited[0], 0u);
  EXPECT_EQ(r.visited[1], 0u);
}

TEST(AsyncKhop, LevelsReflectMaxDepthReached) {
  EdgeList el;
  for (VertexId v = 0; v + 1 < 6; ++v) el.add(v, v + 1);
  const Graph g = Graph::build(std::move(el), 6);
  const auto part = RangePartition::balanced_by_vertices(6, 2);
  const auto shards = build_shards(g, part);
  Cluster cluster(2);
  const KHopQuery q{0, 0, 4};
  const auto r = run_async_khop(cluster, shards, part, std::span(&q, 1));
  EXPECT_EQ(r.visited[0], 4u);
  EXPECT_EQ(r.levels[0], 4u);
}

}  // namespace
}  // namespace cgraph
