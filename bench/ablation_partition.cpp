// Ablation: range-based partitioning (paper §3.1) — edge-balanced ranges
// (the paper's choice) vs naive vertex-balanced ranges, across machine
// counts: workload balance, boundary-vertex counts, and the resulting
// query + PageRank simulated times.
//
// The paper's §3.1 argument: a lightweight range partition balanced by
// edge count gets workload balance nearly for free, avoiding heavyweight
// partitioners and re-partitioning costs.
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const std::size_t num_queries = read_queries(f, 64);
  f.done();

  print_header("Ablation: edge-balanced vs vertex-balanced range partition",
               "FR-1B analogue; workload balance and end-to-end effect");

  // Generate WITHOUT label shuffling: raw Kronecker ids are degree-
  // correlated (low ids are hubs), the realistic ingestion order the
  // paper's re-indexing + edge balancing is designed for. (With shuffled
  // labels any contiguous split is accidentally balanced.)
  RmatParams params;
  params.scale = static_cast<unsigned>(17 - shift);
  params.edge_factor = 27.5;
  params.seed = 202;
  params.permute_ids = false;
  const Graph graph = Graph::build(generate_rmat(params),
                                   VertexId{1} << params.scale);
  std::printf("graph: %s (degree-correlated ids)\n",
              graph.summary().c_str());
  const auto queries =
      make_random_queries(graph, num_queries, 3, /*seed=*/1515);

  AsciiTable table({"machines", "strategy", "edge balance", "boundary V",
                    "khop sim (ms)", "pagerank sim (ms)"});
  for (const PartitionId machines : {3u, 6u, 9u}) {
    for (const bool by_edges : {true, false}) {
      const RangePartition part =
          by_edges
              ? RangePartition::balanced_by_edges(graph, machines)
              : RangePartition::balanced_by_vertices(graph.num_vertices(),
                                                     machines);
      const auto shards = build_shards(graph, part);
      std::uint64_t boundary = 0;
      for (const auto& s : shards) boundary += s.boundary_out().size();

      Cluster cluster(machines, paper_cost_model());
      const auto qrun = run_distributed_msbfs(cluster, shards, part,
                                              queries);
      const GasResult pr = run_pagerank(cluster, shards, part, 5);

      table.add_row({AsciiTable::fmt_int(machines),
                     by_edges ? "by-edges (paper)" : "by-vertices",
                     AsciiTable::fmt(part.edge_balance(graph), 3),
                     AsciiTable::humanize(boundary),
                     AsciiTable::fmt(qrun.sim_seconds * 1e3, 3),
                     AsciiTable::fmt(pr.stats.sim_seconds * 1e3, 3)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("expected shape: skewed degrees make vertex-balanced ranges "
              "lopsided (edge balance >> 1), and the straggler machine "
              "stretches every superstep; the paper's edge-balanced split "
              "stays near 1.0 at no extra cost.\n");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
