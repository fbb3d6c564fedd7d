// Correctness tests for the queue-based distributed k-hop engine (paper
// Listing 2) and its equivalence with the bit-parallel engine.
#include <gtest/gtest.h>

#include <tuple>

#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "query/bfs.hpp"
#include "query/distributed_khop.hpp"
#include "query/msbfs.hpp"

namespace cgraph {
namespace {

Graph make_test_graph(unsigned scale, double edge_factor,
                      std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return Graph::build(generate_rmat(p), VertexId{1} << scale);
}

class KhopSweep
    : public ::testing::TestWithParam<std::tuple<PartitionId, Depth>> {};

TEST_P(KhopSweep, MatchesSerialReference) {
  const auto [machines, k] = GetParam();
  const Graph g = make_test_graph(9, 5, 41);
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 12; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 53) % g.num_vertices()),
                       k});
  }
  const MsBfsBatchResult r =
      run_distributed_khop(cluster, shards, part, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.visited[i],
              khop_reach_count(g, queries[i].source, queries[i].k))
        << "machines=" << machines << " k=" << int(k) << " query=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KhopSweep,
    ::testing::Combine(::testing::Values<PartitionId>(1, 2, 4, 7),
                       ::testing::Values<Depth>(1, 3, 5)));

TEST(KhopVsMsBfs, IdenticalResults) {
  const Graph g = make_test_graph(9, 7, 43);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 24; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 101) % g.num_vertices()),
                       static_cast<Depth>(1 + i % 4)});
  }
  const auto queue_r = run_distributed_khop(cluster, shards, part, queries);
  const auto bits_r = run_distributed_msbfs(cluster, shards, part, queries);
  EXPECT_EQ(queue_r.visited, bits_r.visited);
  EXPECT_EQ(queue_r.levels, bits_r.levels);
}

TEST(KhopVsMsBfs, BitParallelScansFewerEdges) {
  // The paper's reason for §3.5: without bit-ops the engine re-scans
  // shared subgraphs once per query.
  const Graph g = make_test_graph(10, 10, 47);
  const auto part = RangePartition::balanced_by_edges(g, 2);
  const auto shards = build_shards(g, part);
  Cluster cluster(2);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 64; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 13) % g.num_vertices()),
                       3});
  }
  const auto queue_r = run_distributed_khop(cluster, shards, part, queries);
  const auto bits_r = run_distributed_msbfs(cluster, shards, part, queries);
  EXPECT_LT(bits_r.edges_scanned, queue_r.edges_scanned / 4);
}

TEST(Khop, DepthsZeroToFourMatchReference) {
  // Paper Listing 2 at every depth from 0 (source only) to 4 must agree
  // with the serial reference.
  const Graph g = make_test_graph(9, 6, 53);
  const auto part = RangePartition::balanced_by_edges(g, 4);
  const auto shards = build_shards(g, part);
  Cluster cluster(4);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 10; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 61) % g.num_vertices()),
                       static_cast<Depth>(i % 5)});
  }
  const auto r = run_distributed_khop(cluster, shards, part, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.visited[i],
              khop_reach_count(g, queries[i].source, queries[i].k))
        << "query " << i;
  }
}

TEST(Khop, IsolatedSourceFinishesImmediately) {
  EdgeList el;
  el.add(0, 1);
  const Graph g = Graph::build(std::move(el), 4);  // 2, 3 isolated
  const auto part = RangePartition::balanced_by_vertices(4, 2);
  const auto shards = build_shards(g, part);
  Cluster cluster(2);
  const KHopQuery q{0, 3, 3};
  const auto r = run_distributed_khop(cluster, shards, part,
                                      std::span(&q, 1));
  EXPECT_EQ(r.visited[0], 0u);
  EXPECT_EQ(r.levels[0], 1u);
}

TEST(Khop, CrossPartitionChain) {
  // A chain spanning every partition: forces one remote hop per level.
  EdgeList el;
  for (VertexId v = 0; v + 1 < 9; ++v) el.add(v, v + 1);
  const Graph g = Graph::build(std::move(el), 9);
  const auto part = RangePartition::balanced_by_vertices(9, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);
  const KHopQuery q{0, 0, 8};
  const auto r = run_distributed_khop(cluster, shards, part,
                                      std::span(&q, 1));
  EXPECT_EQ(r.visited[0], 8u);
  EXPECT_EQ(r.levels[0], 8u);
}

}  // namespace
}  // namespace cgraph
