// Shared fixtures for the figure-reproduction harnesses.
//
// Every harness accepts:
//   --scale-shift N   shrink the Table-1 analogue graphs by 2^N (default
//                     per harness, chosen so it finishes in seconds)
//   --queries N, --machines N   where meaningful
// and rejects any flag it does not read (see require_known_flags).
//
// Results are printed as the same rows/series the paper plots; simulated
// cluster time is labeled "sim". EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

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

/// Exit 2 with one stderr line, before any work, when the command line
/// holds a flag not in `known` (the flags this harness reads) or a stray
/// positional argument. Without this a misspelled flag is silently ignored
/// and the whole figure runs with defaults.
inline void require_known_flags(const Options& opts,
                                std::initializer_list<std::string_view> known) {
  const std::string& prog = opts.program();
  const std::string name = prog.substr(prog.find_last_of('/') + 1);
  for (const std::string& key : opts.keys()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", name.c_str(),
                   key.c_str());
      std::exit(2);
    }
  }
  if (!opts.positional().empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", name.c_str(),
                 opts.positional().front().c_str());
    std::exit(2);
  }
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
