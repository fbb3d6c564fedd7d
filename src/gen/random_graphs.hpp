// Classical random graph models used in tests and the hop-plot experiment.
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace cgraph {

/// G(n, m): exactly m directed edges drawn uniformly (with replacement,
/// duplicates later removed by the builder).
EdgeList generate_uniform(VertexId n, EdgeIndex m, std::uint64_t seed = 1);

/// Watts–Strogatz small-world graph: ring of n vertices, each connected to
/// k nearest neighbors (k even), each edge rewired with probability beta.
/// Produces the short-path-length profile behind the paper's Fig. 1 hop
/// plot. Output is a directed edge list containing both directions.
EdgeList generate_watts_strogatz(VertexId n, unsigned k, double beta,
                                 std::uint64_t seed = 1);

}  // namespace cgraph
