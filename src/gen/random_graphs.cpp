#include "gen/random_graphs.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cgraph {

EdgeList generate_uniform(VertexId n, EdgeIndex m, std::uint64_t seed) {
  CGRAPH_CHECK(n > 0);
  Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(m);
  for (EdgeIndex i = 0; i < m; ++i) {
    const auto s = static_cast<VertexId>(rng.next_bounded(n));
    const auto t = static_cast<VertexId>(rng.next_bounded(n));
    edges.add(s, t);
  }
  return edges;
}

EdgeList generate_watts_strogatz(VertexId n, unsigned k, double beta,
                                 std::uint64_t seed) {
  CGRAPH_CHECK(n > 2);
  CGRAPH_CHECK_MSG(k % 2 == 0 && k > 0, "k must be positive and even");
  CGRAPH_CHECK(beta >= 0.0 && beta <= 1.0);
  Xoshiro256 rng(seed);

  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * k);
  // Ring lattice: connect each vertex to its k/2 clockwise neighbors, then
  // rewire the far endpoint with probability beta.
  for (VertexId v = 0; v < n; ++v) {
    for (unsigned j = 1; j <= k / 2; ++j) {
      VertexId t = static_cast<VertexId>((v + j) % n);
      if (rng.next_double() < beta) {
        // Rewire to a uniform non-self target.
        do {
          t = static_cast<VertexId>(rng.next_bounded(n));
        } while (t == v);
      }
      edges.add(v, t);
      edges.add(t, v);
    }
  }
  return edges;
}

}  // namespace cgraph
