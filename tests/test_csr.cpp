// Unit tests for CSR/CSC construction and lookup.
#include <gtest/gtest.h>

#include "graph/csr.hpp"

namespace cgraph {
namespace {

std::vector<Edge> diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  return {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
}

TEST(Csr, BasicDegreesAndNeighbors) {
  const auto edges = diamond();
  const Csr csr = Csr::from_edges(4, edges);
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(3), 0u);
  const auto n0 = csr.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, ReversedBuildsCsc) {
  const auto edges = diamond();
  const Csr csc = Csr::from_edges_reversed(4, edges);
  EXPECT_EQ(csc.degree(3), 2u);  // in-degree of 3
  EXPECT_EQ(csc.degree(0), 0u);
  const auto p3 = csc.neighbors(3);
  ASSERT_EQ(p3.size(), 2u);
  EXPECT_EQ(p3[0], 1u);
  EXPECT_EQ(p3[1], 2u);
}

TEST(Csr, HasEdgeBisection) {
  const Csr csr = Csr::from_edges(4, diamond());
  EXPECT_TRUE(csr.has_edge(0, 1));
  EXPECT_TRUE(csr.has_edge(2, 3));
  EXPECT_FALSE(csr.has_edge(1, 0));
  EXPECT_FALSE(csr.has_edge(3, 0));
}

TEST(Csr, EmptyGraph) {
  const Csr csr = Csr::from_edges(0, {});
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(Csr, IsolatedVerticesHaveZeroDegree) {
  std::vector<Edge> edges{{2, 5}};
  const Csr csr = Csr::from_edges(8, edges);
  for (VertexId v : {0u, 1u, 3u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(csr.degree(v), 0u) << "vertex " << v;
  }
  EXPECT_EQ(csr.degree(2), 1u);
}

TEST(Csr, MemoryBytesIsPlausible) {
  const Csr csr = Csr::from_edges(4, diamond());
  EXPECT_GE(csr.memory_bytes(),
            4 * sizeof(VertexId) + 5 * sizeof(EdgeIndex));
}

TEST(Csr, RectangularAdjacency) {
  // 2 rows, targets up to 99: the shard CSC shape.
  std::vector<Edge> edges{{0, 90}, {1, 5}, {0, 7}};
  const Csr csr = Csr::from_edges_rect(2, 100, edges);
  EXPECT_EQ(csr.num_vertices(), 2u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.neighbors(0)[0], 7u);
  EXPECT_EQ(csr.neighbors(0)[1], 90u);
  EXPECT_EQ(csr.neighbors(1)[0], 5u);
}

TEST(CsrDeathTest, RectRejectsColumnOverflow) {
  std::vector<Edge> edges{{0, 100}};
  EXPECT_DEATH(Csr::from_edges_rect(2, 100, edges), "out of vertex range");
}

TEST(CsrDeathTest, OutOfRangeEndpointAborts) {
  std::vector<Edge> edges{{0, 9}};
  EXPECT_DEATH(Csr::from_edges(4, edges), "out of vertex range");
}

}  // namespace
}  // namespace cgraph
