// Tests for path recording: parent-tree validity, shortest-hop property,
// reconstruction, and the result-footprint accounting behind Fig. 12.
#include <gtest/gtest.h>

#include <unordered_set>

#include "gen/rmat.hpp"
#include "graph/mutation.hpp"
#include "graph/shard.hpp"
#include "query/bfs.hpp"
#include "query/distributed_khop.hpp"
#include "query/msbfs.hpp"
#include "query/paths.hpp"

namespace cgraph {
namespace {

struct Deployment {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;
  Cluster cluster;
  Deployment(Graph g, PartitionId machines)
      : graph(std::move(g)),
        partition(RangePartition::balanced_by_edges(graph, machines)),
        shards(build_shards(graph, partition)),
        cluster(machines) {}
};

Graph rmat(unsigned scale, double ef, std::uint64_t seed) {
  return Graph::build(generate_rmat({.scale = scale, .edge_factor = ef,
                                     .seed = seed}),
                      VertexId{1} << scale);
}

TEST(Paths, VisitedCountsMatchPlainEngine) {
  Deployment d(rmat(9, 6, 17), 3);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 12; ++i) {
    queries.push_back({i, static_cast<VertexId>(i * 29), 3});
  }
  const auto r =
      run_distributed_khop_paths(d.cluster, d.shards, d.partition, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.base.visited[i],
              khop_reach_count(d.graph, queries[i].source, queries[i].k));
    // One parent entry per visited vertex.
    EXPECT_EQ(r.parents[i].size(), r.base.visited[i]);
  }
}

TEST(Paths, ParentsAreRealEdges) {
  Deployment d(rmat(8, 5, 19), 2);
  const KHopQuery q{0, 1, 3};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  for (const auto& [v, p] : r.parents[0]) {
    EXPECT_TRUE(d.graph.out_csr().has_edge(p, v))
        << "claimed parent edge " << p << "->" << v << " does not exist";
  }
}

TEST(Paths, EveryVisitedVertexHasExactlyOneParent) {
  Deployment d(rmat(8, 6, 23), 3);
  const KHopQuery q{0, 0, 4};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  std::unordered_set<VertexId> seen;
  for (const auto& [v, p] : r.parents[0]) {
    EXPECT_TRUE(seen.insert(v).second) << "vertex " << v << " has 2 parents";
    EXPECT_NE(v, q.source);
  }
}

TEST(Paths, ReconstructedPathsAreShortest) {
  Deployment d(rmat(8, 5, 29), 2);
  const KHopQuery q{0, 2, 4};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  const auto depth = bfs_levels(d.graph, q.source, q.k);
  int checked = 0;
  for (const auto& [v, p] : r.parents[0]) {
    const auto path = reconstruct_path(r.parents[0], q.source, v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), q.source);
    EXPECT_EQ(path.back(), v);
    // BFS parent trees give minimum-hop paths.
    EXPECT_EQ(path.size() - 1, depth[v]) << "vertex " << v;
    // Every hop must be a real edge.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(d.graph.out_csr().has_edge(path[i], path[i + 1]));
    }
    if (++checked >= 50) break;  // bounded verification
  }
  EXPECT_GT(checked, 0);
}

TEST(Paths, UnreachableTargetGivesEmptyPath) {
  EdgeList el;
  el.add(0, 1);
  Deployment d(Graph::build(std::move(el), 4), 2);
  const KHopQuery q{0, 0, 3};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  EXPECT_TRUE(reconstruct_path(r.parents[0], 0, 3).empty());
  EXPECT_EQ(reconstruct_path(r.parents[0], 0, 0),
            (std::vector<VertexId>{0}));
}

TEST(Paths, ResultBytesGrowLinearlyWithQueryCount) {
  // The Fig. 12 memory statement: retained found-path bytes scale with the
  // number of queries.
  Deployment d(rmat(9, 8, 31), 2);
  auto run_with = [&](std::size_t count) {
    std::vector<KHopQuery> queries;
    for (QueryId i = 0; i < count; ++i) {
      queries.push_back(
          {i, static_cast<VertexId>((i * 7) % d.graph.num_vertices()), 3});
    }
    return run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                      queries)
        .result_bytes();
  };
  const std::size_t b8 = run_with(8);
  const std::size_t b32 = run_with(32);
  EXPECT_GT(b32, b8 * 2);
}

TEST(Paths, CrossPartitionParentRecorded) {
  // Chain across partitions: parents must be recorded by the *owner* of
  // the discovered vertex even when the parent is remote.
  EdgeList el;
  for (VertexId v = 0; v + 1 < 6; ++v) el.add(v, v + 1);
  Deployment d(Graph::build(std::move(el), 6), 3);
  const KHopQuery q{0, 0, 5};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  const auto path = reconstruct_path(r.parents[0], 0, 5);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(Paths, SeesStreamedMutations) {
  // Uncompacted delta events are part of the snapshot every engine reads:
  // an inserted 2->5 extends the chain, a deleted base 1->2 cuts it.
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  Deployment d(Graph::build(std::move(el), 6), 2);
  const KHopQuery q{0, 0, 5};
  const MutationOp insert{MutationKind::kInsertEdge, 2, 5};
  apply_mutations(std::span(d.shards), std::span(&insert, 1), /*epoch=*/1);

  auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                      std::span(&q, 1));
  EXPECT_EQ(r.base.visited[0], 3u);
  EXPECT_EQ(r.base.visited,
            run_distributed_msbfs(d.cluster, d.shards, d.partition,
                                  std::span(&q, 1))
                .visited);
  EXPECT_EQ(r.base.visited,
            run_distributed_khop(d.cluster, d.shards, d.partition,
                                 std::span(&q, 1))
                .visited);
  EXPECT_EQ(reconstruct_path(r.parents[0], 0, 5),
            (std::vector<VertexId>{0, 1, 2, 5}));

  const MutationOp erase{MutationKind::kDeleteEdge, 1, 2};
  apply_mutations(std::span(d.shards), std::span(&erase, 1), /*epoch=*/2);
  r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                 std::span(&q, 1));
  EXPECT_EQ(r.base.visited[0], 1u);
  EXPECT_TRUE(reconstruct_path(r.parents[0], 0, 2).empty());
  EXPECT_TRUE(reconstruct_path(r.parents[0], 0, 5).empty());
}

}  // namespace
}  // namespace cgraph
