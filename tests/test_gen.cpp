// Unit and property tests for the graph generators and dataset registry.
#include <gtest/gtest.h>

#include "gen/datasets.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"

namespace cgraph {
namespace {

TEST(Rmat, ProducesRequestedEdgeCount) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const EdgeList el = generate_rmat(p);
  EXPECT_EQ(el.size(), (std::size_t{1} << p.scale) * 8);
}

TEST(Rmat, VerticesWithinRange) {
  RmatParams p;
  p.scale = 9;
  const EdgeList el = generate_rmat(p);
  const VertexId n = VertexId{1} << p.scale;
  for (const Edge& e : el) {
    EXPECT_LT(e.src, n);
    EXPECT_LT(e.dst, n);
  }
}

TEST(Rmat, DeterministicPerSeed) {
  RmatParams p;
  p.scale = 8;
  p.seed = 77;
  const EdgeList a = generate_rmat(p);
  const EdgeList b = generate_rmat(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
  }
}

TEST(Rmat, DifferentSeedsDiffer) {
  RmatParams p;
  p.scale = 8;
  p.seed = 1;
  const EdgeList a = generate_rmat(p);
  p.seed = 2;
  const EdgeList b = generate_rmat(p);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].src == b[i].src && a[i].dst == b[i].dst) ++same;
  }
  EXPECT_LT(same, a.size() / 10);
}

TEST(Rmat, SkewedDegreeDistribution) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  const Graph g = Graph::build(generate_rmat(p), VertexId{1} << p.scale);
  // R-MAT with (0.57,0.19,0.19,0.05) must produce a heavy tail: the top
  // vertex's degree far exceeds the average.
  EdgeIndex max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * g.average_degree());
}

TEST(Rmat, PermutationKeepsEdgeCount) {
  RmatParams p;
  p.scale = 8;
  p.permute_ids = false;
  const EdgeList a = generate_rmat(p);
  p.permute_ids = true;
  const EdgeList b = generate_rmat(p);
  EXPECT_EQ(a.size(), b.size());
}

TEST(Uniform, EdgeCountAndRange) {
  const EdgeList el = generate_uniform(100, 500, 3);
  EXPECT_EQ(el.size(), 500u);
  for (const Edge& e : el) {
    EXPECT_LT(e.src, 100u);
    EXPECT_LT(e.dst, 100u);
  }
}

TEST(WattsStrogatz, RingDegreeWithoutRewiring) {
  // beta = 0: pure ring lattice, every vertex has exactly k out-edges
  // after symmetrization (k/2 clockwise + k/2 counter-clockwise).
  const EdgeList el = generate_watts_strogatz(50, 4, 0.0, 1);
  Graph g = Graph::build(EdgeList(el.edges()), 50);
  for (VertexId v = 0; v < 50; ++v) {
    EXPECT_EQ(g.out_degree(v), 4u) << "vertex " << v;
  }
}

TEST(WattsStrogatz, RewiringPreservesEdgeCount) {
  const EdgeList a = generate_watts_strogatz(100, 6, 0.0, 1);
  const EdgeList b = generate_watts_strogatz(100, 6, 0.5, 1);
  EXPECT_EQ(a.size(), b.size());
}

TEST(WattsStrogatz, NoSelfLoops) {
  const EdgeList el = generate_watts_strogatz(64, 4, 0.8, 5);
  for (const Edge& e : el) EXPECT_NE(e.src, e.dst);
}

TEST(Datasets, Table1RegistryComplete) {
  const auto& specs = table1_datasets();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "OR-100M");
  EXPECT_EQ(specs[1].name, "FR-1B");
  EXPECT_EQ(specs[2].name, "FRS-72B");
  EXPECT_EQ(specs[3].name, "FRS-100B");
  // Paper Table 1 exact counts preserved as metadata.
  EXPECT_EQ(specs[0].paper_edges, 117185083ULL);
  EXPECT_EQ(specs[3].paper_vertices, 984125490ULL);
}

TEST(Datasets, SpecLookup) {
  EXPECT_EQ(dataset_spec("FR-1B").paper_edges, 1806067135ULL);
}

TEST(DatasetsDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(dataset_spec("NOPE"), "unknown dataset");
}

TEST(Datasets, ScaledAnalogueRespectsShift) {
  const Graph small = make_dataset("OR-100M", /*scale_shift=*/6);
  const auto& spec = dataset_spec("OR-100M");
  EXPECT_EQ(small.num_vertices(), VertexId{1} << (spec.scale - 6));
  EXPECT_GT(small.num_edges(), 0u);
}

TEST(Datasets, SizesOrderedLikeThePaper) {
  // The scaled analogues preserve Table 1's size ordering.
  const Graph o = make_dataset("OR-100M", 4, /*build_in_edges=*/false);
  const Graph f = make_dataset("FR-1B", 4, /*build_in_edges=*/false);
  const Graph s = make_dataset("FRS-100B", 4, /*build_in_edges=*/false);
  EXPECT_LT(o.num_edges(), f.num_edges());
  EXPECT_LT(f.num_edges(), s.num_edges());
}

}  // namespace
}  // namespace cgraph
