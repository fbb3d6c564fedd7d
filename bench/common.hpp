// Shared fixtures for the figure-reproduction harnesses.
//
// Every harness accepts:
//   --scale-shift N   shrink the Table-1 analogue graphs by 2^N (default
//                     per harness, chosen so it finishes in seconds)
//   --queries N, --machines N   where meaningful
// Each main reads every flag through one Flags reader before it builds a
// graph: an unknown flag, a value that is not a number or one out of range
// exits 2 with one stderr line (flag_error).
//
// Results are printed as the same rows/series the paper plots; simulated
// cluster time is labeled "sim". EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>

#include "cgraph/cgraph.hpp"

namespace cgraph::bench {

struct ShardedGraph {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;
};

inline ShardedGraph make_sharded(Graph graph, PartitionId machines,
                                 bool build_in_edges = true) {
  ShardedGraph sg{std::move(graph), {}, {}};
  sg.partition = RangePartition::balanced_by_edges(sg.graph, machines);
  ShardOptions opts;
  opts.build_in_edges = build_in_edges;
  sg.shards = build_shards(sg.graph, sg.partition, opts);
  return sg;
}

inline ShardedGraph make_dataset_sharded(const std::string& name,
                                         int scale_shift,
                                         PartitionId machines,
                                         bool build_in_edges = true) {
  return make_sharded(make_dataset(name, scale_shift, build_in_edges),
                      machines, build_in_edges);
}

/// The cluster cost model used by every figure harness (documented in
/// DESIGN.md §2): 2.6 GHz Xeon-class compute, 10 GbE-class fabric.
inline CostModel paper_cost_model() { return CostModel{}; }

/// The one way a harness main reports a bad flag: `<harness>: <reason>` on
/// one stderr line, exit status 2.
inline int flag_error(const char* argv0, const FlagError& e) {
  const std::string prog = argv0 != nullptr ? argv0 : "harness";
  std::fprintf(stderr, "%s: %s\n",
               prog.substr(prog.find_last_of('/') + 1).c_str(), e.what());
  return 2;
}

/// --scale-shift, bounded so every Table-1 analogue keeps scale >= 4.
inline int read_scale_shift(Flags& f, int def) {
  unsigned smallest = ~0u;
  for (const DatasetSpec& s : table1_datasets()) {
    smallest = std::min(smallest, s.scale);
  }
  return static_cast<int>(
      f.num("scale-shift", def, 0, static_cast<std::int64_t>(smallest) - 4));
}

inline PartitionId read_machines(Flags& f, int def) {
  return static_cast<PartitionId>(f.num("machines", def, 1, 4096));
}

inline std::size_t read_queries(Flags& f, int def) {
  return static_cast<std::size_t>(
      f.num("queries", def, 1, std::int64_t{1} << 20));
}

inline void print_header(const char* figure, const std::string& detail) {
  std::printf("\n################################################------\n");
  std::printf("# %s\n# %s\n", figure, detail.c_str());
  std::printf("################################################------\n");
}

/// At-exit metrics sink: when $CGRAPH_METRICS is set, every harness dumps
/// the global registry on normal exit with no per-harness code. (The global
/// registry is intentionally leaked, so this static's destructor running
/// late is safe.)
struct MetricsAtExit {
  ~MetricsAtExit() { obs::maybe_write_metrics_env(); }
};
inline MetricsAtExit metrics_at_exit{};

}  // namespace cgraph::bench
