// Tests for the algorithm library: hop- and budget-constrained
// reachability, the distributed engine validated against the serial
// reference across machine counts and graph shapes.
#include <gtest/gtest.h>

#include <limits>

#include "algo/constrained_reach.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "query/bfs.hpp"

namespace cgraph {
namespace {

Graph weighted_rmat(unsigned scale, double ef, std::uint64_t seed) {
  EdgeList el = generate_rmat({.scale = scale, .edge_factor = ef,
                               .seed = seed});
  assign_random_weights(el, 0.5f, 4.0f, seed + 1);
  GraphBuildOptions opts;
  opts.with_weights = true;
  return Graph::build(std::move(el), VertexId{1} << scale, opts);
}

// ---------------- Constrained reachability ----------------

TEST(ConstrainedReach, HandChecked) {
  // 0 -1-> 1 -1-> 2 -1-> 3, plus expensive shortcut 0 -9-> 2.
  EdgeList el;
  el.add(0, 1, 1.0f);
  el.add(1, 2, 1.0f);
  el.add(2, 3, 1.0f);
  el.add(0, 2, 9.0f);
  GraphBuildOptions opts;
  opts.with_weights = true;
  const Graph g = Graph::build(std::move(el), 4, opts);

  // 2 hops, budget 10: 1 (1.0), 2 (2.0 via 1), and 3 (10.0 through the
  // expensive shortcut 0->2->3) are all admitted.
  const auto r = constrained_reach(g, 0, 2, 10.0);
  EXPECT_EQ(r.admitted, 3u);
  EXPECT_EQ(r.hop_reachable, 3u);
  EXPECT_DOUBLE_EQ(r.distance[2], 2.0);  // cheap 2-hop beats 9.0 shortcut
  EXPECT_DOUBLE_EQ(r.distance[3], 10.0);

  // 2 hops, budget 1.5: only vertex 1 fits the budget.
  const auto tight = constrained_reach(g, 0, 2, 1.5);
  EXPECT_EQ(tight.admitted, 1u);
  EXPECT_EQ(tight.hop_reachable, 3u);  // hop metric ignores the budget

  // 1 hop, budget 10: vertex 1 (1.0) and vertex 2 via the 9.0 shortcut;
  // the cheap 2-hop route to 2 exceeds the hop bound.
  const auto onehop = constrained_reach(g, 0, 1, 10.0);
  EXPECT_EQ(onehop.admitted, 2u);
  EXPECT_DOUBLE_EQ(onehop.distance[2], 9.0);

  // Hop-bound integrity: a 3-edge path must NOT be credited at 2 hops
  // even when in-round cascading could sneak it through.
  const auto nohop3 = constrained_reach(g, 0, 2, 3.5);
  // Within budget 3.5: 1 (1.0), 2 (2.0); 3's only 2-hop path costs 10.
  EXPECT_EQ(nohop3.admitted, 2u);
}

TEST(ConstrainedReach, BudgetInfinityMatchesHopReach) {
  const Graph g = weighted_rmat(9, 5, 77);
  const auto r = constrained_reach(g, 1, 3, 1e18);
  EXPECT_EQ(r.admitted, r.hop_reachable);
}

class ConstrainedSweep : public ::testing::TestWithParam<PartitionId> {};

TEST_P(ConstrainedSweep, DistributedMatchesSerial) {
  const Graph g = weighted_rmat(9, 6, 79);
  const auto part = RangePartition::balanced_by_edges(g, GetParam());
  const auto shards = build_shards(g, part);
  Cluster cluster(GetParam());
  for (const double budget : {2.0, 6.0, 20.0}) {
    const auto serial = constrained_reach(g, 4, 4, budget);
    const auto dist = run_constrained_reach(cluster, shards, part, 4, 4,
                                            budget);
    EXPECT_EQ(dist.admitted, serial.admitted) << "budget " << budget;
    EXPECT_EQ(dist.hop_reachable, serial.hop_reachable);
    for (VertexId v = 0; v < g.num_vertices(); v += 17) {
      if (serial.distance[v] != std::numeric_limits<double>::infinity()) {
        EXPECT_NEAR(dist.distance[v], serial.distance[v], 1e-9)
            << "vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, ConstrainedSweep,
                         ::testing::Values(1, 2, 3, 5));

TEST(ConstrainedReach, UnweightedGraphCountsHops) {
  RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  p.seed = 81;
  const Graph g = Graph::build(generate_rmat(p), VertexId{1} << p.scale);
  // Budget k with unit weights == plain k-hop reachability.
  const auto r = constrained_reach(g, 0, 3, 3.0);
  EXPECT_EQ(r.admitted, khop_reach_count(g, 0, 3));
}

}  // namespace
}  // namespace cgraph
