// Open-loop arrival processes for the online query service.
//
// The closed world (run_concurrent_queries) assumes every query is present
// at t=0; a serving system sees queries *arrive*. These generators
// stamp the usual random k-hop workload with simulated arrival times:
// Poisson (exponential inter-arrival gaps at a configured rate, the
// standard open-loop load model) or an explicit timestamp trace. Both are
// seeded and fully deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "query/query.hpp"

namespace cgraph {

struct PoissonArrivalParams {
  /// Mean arrival rate in queries per simulated second.
  double rate_qps = 100.0;
  std::size_t count = 100;
  Depth k = 3;
  std::uint64_t seed = 1;
  /// Sources are drawn uniformly from vertices with out-degree >= this
  /// (mirrors make_random_queries).
  EdgeIndex min_degree = 1;
  /// Offset added to every arrival (first arrival lands one gap later).
  double start_sim_seconds = 0;
  /// Fraction of arrivals issued as point reachability queries (a target
  /// vertex drawn uniformly, hop bound point_k) instead of k-hop
  /// aggregates — the workload the index tier (src/index/) fast-paths.
  double point_fraction = 0;
  /// Hop bound stamped on point queries. Defaults to unbounded so the
  /// index's positive verdicts apply (DESIGN.md §13 contract).
  Depth point_k = kUnvisitedDepth;
};

/// Poisson arrival stream: `count` k-hop queries whose inter-arrival gaps
/// are i.i.d. Exponential(rate_qps). Query ids are submission indices.
std::vector<TimedQuery> make_poisson_arrivals(const Graph& graph,
                                              const PoissonArrivalParams& p);

/// Trace-driven arrivals: one randomly rooted k-hop query per timestamp in
/// `arrival_seconds` (must be nondecreasing — replay of a recorded trace).
std::vector<TimedQuery> make_trace_arrivals(
    const Graph& graph, std::span<const double> arrival_seconds, Depth k,
    std::uint64_t seed = 1, EdgeIndex min_degree = 1);

}  // namespace cgraph
