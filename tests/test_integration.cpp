// End-to-end integration tests: the full pipeline (generate/load ->
// partition -> shard -> concurrent queries + iterative compute) exercised
// through the public umbrella header, the way examples and downstream
// users consume the library.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cgraph/cgraph.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

TEST(Integration, TextFileToConcurrentQueries) {
  // Write a small SNAP-style edge list, load it (re-indexing sparse raw
  // ids), shard it, query it, and verify against the serial reference.
  const auto path =
      std::filesystem::temp_directory_path() / "cg_integration.txt";
  {
    std::ofstream out(path);
    out << "# tiny web graph\n";
    Xoshiro256 rng(12);
    for (int i = 0; i < 4000; ++i) {
      // Sparse raw ids (multiples of 10) exercise re-indexing.
      out << rng.next_bounded(500) * 10 << ' ' << rng.next_bounded(500) * 10
          << '\n';
    }
  }
  const LoadResult loaded = load_edge_list_text(path.string());
  std::filesystem::remove(path);
  ASSERT_GT(loaded.num_vertices, 0u);
  const Graph g = Graph::build(EdgeList(loaded.edges.edges()),
                               loaded.num_vertices);

  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);
  const auto queries = make_random_queries(g, 40, 3, 21);
  const auto run = run_concurrent_queries(cluster, shards, part, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].visited,
              khop_reach_count(g, queries[i].source, queries[i].k));
  }
}

TEST(Integration, AllEnginesAgreeOnOneWorkload) {
  // The same batch through every traversal engine the library ships.
  RmatParams p;
  p.scale = 9;
  p.edge_factor = 6;
  p.seed = 91;
  const Graph g = Graph::build(generate_rmat(p), VertexId{1} << p.scale);
  const auto part = RangePartition::balanced_by_edges(g, 4);
  const auto shards = build_shards(g, part);
  Cluster cluster(4);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 20; ++i) {
    queries.push_back({i, static_cast<VertexId>((i * 37) % g.num_vertices()),
                       static_cast<Depth>(1 + i % 4)});
  }

  const auto bits = run_distributed_msbfs(cluster, shards, part, queries);
  const auto queue = run_distributed_khop(cluster, shards, part, queries);
  const auto async = run_async_khop(cluster, shards, part, queries);
  const auto single = msbfs_batch(g, queries);

  EXPECT_EQ(bits.visited, queue.visited);
  EXPECT_EQ(bits.visited, async.visited);
  EXPECT_EQ(bits.visited, single.visited);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(bits.visited[i],
              khop_reach_count(g, queries[i].source, queries[i].k));
  }
}

TEST(Integration, QueriesAndPageRankShareOneDeployment) {
  // One sharded deployment must serve both workload classes back-to-back
  // (the paper's mixed traversal + iterative use case).
  const Graph g = make_dataset("OR-100M", /*scale_shift=*/5);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);

  const auto queries = make_random_queries(g, 30, 3, 77);
  const auto qrun = run_concurrent_queries(cluster, shards, part, queries);
  EXPECT_EQ(qrun.queries.size(), 30u);

  const GasResult pr = run_pagerank(cluster, shards, part, 5);
  const auto ref = pagerank_serial(g, 5);
  for (VertexId v = 0; v < g.num_vertices(); v += 97) {
    EXPECT_NEAR(pr.values[v], ref[v], 1e-9);
  }

  // And again queries after PageRank: engine state must not leak.
  const auto qrun2 = run_concurrent_queries(cluster, shards, part, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(qrun.queries[i].visited, qrun2.queries[i].visited);
  }
}

TEST(Integration, DeterministicAcrossRuns) {
  const Graph g = make_dataset("FR-1B", /*scale_shift=*/6,
                               /*build_in_edges=*/false);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  ShardOptions sopt;
  sopt.build_in_edges = false;
  const auto shards = build_shards(g, part, sopt);
  Cluster cluster(3);
  const auto queries = make_random_queries(g, 25, 3, 3);
  const auto a = run_concurrent_queries(cluster, shards, part, queries);
  const auto b = run_concurrent_queries(cluster, shards, part, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].visited, b.queries[i].visited);
    EXPECT_EQ(a.queries[i].levels, b.queries[i].levels);
  }
  EXPECT_EQ(a.total_edges_scanned, b.total_edges_scanned);
}

}  // namespace
}  // namespace cgraph
