// Unit tests for the EdgeList ingestion container.
#include <gtest/gtest.h>

#include <vector>

#include "graph/edge_list.hpp"

namespace cgraph {
namespace {

TEST(EdgeList, AddAndSize) {
  EdgeList el;
  EXPECT_TRUE(el.empty());
  el.add(0, 1);
  el.add(1, 2);
  EXPECT_EQ(el.size(), 2u);
  EXPECT_EQ(el[1], (Edge{1, 2}));
}

TEST(EdgeList, MaxVertexPlusOne) {
  EdgeList el;
  EXPECT_EQ(el.max_vertex_plus_one(), 0u);
  el.add(3, 7);
  el.add(9, 1);
  EXPECT_EQ(el.max_vertex_plus_one(), 10u);
}

TEST(EdgeList, SortAndDedupDropsDuplicatePairs) {
  EdgeList el;
  el.add(1, 2);
  el.add(0, 3);
  el.add(1, 2);  // duplicate (src,dst)
  el.add(0, 1);
  el.add(1, 0);
  el.sort_and_dedup();
  const std::vector<Edge> want{{0, 1}, {0, 3}, {1, 0}, {1, 2}};
  EXPECT_EQ(el.edges(), want);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList el;
  el.add(1, 1);
  el.add(1, 2);
  el.add(3, 3);
  el.remove_self_loops();
  ASSERT_EQ(el.size(), 1u);
  EXPECT_EQ(el[0].dst, 2u);
}

TEST(EdgeList, AddReverseEdgesSkipsSelfLoops) {
  EdgeList el;
  el.add(0, 1);
  el.add(2, 2);
  el.add_reverse_edges();
  // 2 originals + 1 reverse (self-loop not duplicated)
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el[2].src, 1u);
  EXPECT_EQ(el[2].dst, 0u);
}

TEST(EdgeList, SortDedupIdempotent) {
  EdgeList el;
  for (int i = 0; i < 10; ++i) el.add(5 - i % 3, i % 4);
  el.sort_and_dedup();
  const std::size_t n = el.size();
  el.sort_and_dedup();
  EXPECT_EQ(el.size(), n);
}

}  // namespace
}  // namespace cgraph
