// Unit tests for the Graph container (multi-modal CSR + CSC).
#include <gtest/gtest.h>

#include "graph/degree_stats.hpp"
#include "graph/graph.hpp"

namespace cgraph {
namespace {

EdgeList chain(VertexId n) {
  EdgeList el;
  for (VertexId v = 0; v + 1 < n; ++v) el.add(v, v + 1);
  return el;
}

TEST(Graph, BuildInfersVertexCount) {
  const Graph g = Graph::build(chain(5));
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(Graph, OutAndInNeighbors) {
  const Graph g = Graph::build(chain(4));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.in_degree(3), 1u);
  ASSERT_EQ(g.in_neighbors(2).size(), 1u);
  EXPECT_EQ(g.in_neighbors(2)[0], 1u);
}

TEST(Graph, SelfLoopsRemovedByDefault) {
  EdgeList el;
  el.add(0, 0);
  el.add(0, 1);
  const Graph g = Graph::build(std::move(el));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, SelfLoopsKeptWhenDisabled) {
  EdgeList el;
  el.add(0, 0);
  el.add(0, 1);
  GraphBuildOptions opts;
  opts.remove_self_loops = false;
  const Graph g = Graph::build(std::move(el), opts);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, SymmetrizeDoublesEdges) {
  GraphBuildOptions opts;
  opts.symmetrize = true;
  const Graph g = Graph::build(chain(3), opts);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(1), 2u);  // edges to 0 and 2
}

TEST(Graph, DuplicateEdgesCollapse) {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 1);
  el.add(0, 1);
  const Graph g = Graph::build(std::move(el));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, NoInEdgesWhenDisabled) {
  GraphBuildOptions opts;
  opts.build_in_edges = false;
  const Graph g = Graph::build(chain(3), opts);
  EXPECT_FALSE(g.has_in_edges());
}

TEST(Graph, ExplicitVertexCountAllowsIsolated) {
  const Graph g = Graph::build(chain(3), /*num_vertices=*/10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.out_degree(9), 0u);
}

TEST(Graph, AverageDegree) {
  const Graph g = Graph::build(chain(5));
  EXPECT_DOUBLE_EQ(g.average_degree(), 4.0 / 5.0);
}

TEST(DegreeStats, HandChecked) {
  // Degrees: 0 -> 3 edges, 1 -> 1 edge, 2 and 3 -> 0.
  EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  el.add(0, 3);
  el.add(1, 2);
  const Graph g = Graph::build(std::move(el), 4);
  const DegreeStats s = compute_degree_stats(g.out_csr());
  EXPECT_EQ(s.max, 3u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_EQ(s.zero_degree_vertices, 2u);
  // log2 bins: degree 1 -> bin 0; degree 3 -> bin 1.
  ASSERT_EQ(s.log2_histogram.size(), 2u);
  EXPECT_EQ(s.log2_histogram[0], 1u);
  EXPECT_EQ(s.log2_histogram[1], 1u);
  const std::string text = degree_stats_to_string(s);
  EXPECT_NE(text.find("max 3"), std::string::npos);
}

TEST(DegreeStats, EmptyGraphSafe) {
  const Csr empty;
  const DegreeStats s = compute_degree_stats(empty);
  EXPECT_EQ(s.max, 0u);
  EXPECT_TRUE(s.log2_histogram.empty());
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = Graph::build(chain(3));
  const std::string s = g.summary();
  EXPECT_NE(s.find("V=3"), std::string::npos);
  EXPECT_NE(s.find("E=2"), std::string::npos);
}

}  // namespace
}  // namespace cgraph
