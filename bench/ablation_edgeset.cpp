// Ablation: edge-set granularity and consolidation (paper §3.2).
//
// Sweeps the per-block byte target and the consolidation switch, reporting
// block-population statistics and the wall time of a 64-query bit-parallel
// batch over each layout — the design choice DESIGN.md §5.1 calls out.
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const PartitionId machines = read_machines(f, 4);
  const std::size_t num_queries = read_queries(f, 64);
  const auto repeats = static_cast<std::size_t>(f.num("repeats", 3, 1, 1000));
  f.done();

  print_header("Ablation: edge-set granularity & consolidation",
               "64-query 3-hop batch wall time per layout");

  // A sparse graph (low average degree) produces the tiny blocks that
  // consolidation exists for; FR-1B-like density hides the effect.
  RmatParams params;
  params.scale = static_cast<unsigned>(17 - shift);
  params.edge_factor = 4;
  params.seed = 555;
  const Graph graph = Graph::build(generate_rmat(params),
                                   VertexId{1} << params.scale,
                                   {.build_in_edges = false});
  std::printf("graph: %s, %u machines\n", graph.summary().c_str(), machines);
  const auto partition = RangePartition::balanced_by_edges(graph, machines);
  const auto queries =
      make_random_queries(graph, num_queries, 3, /*seed=*/1111);

  AsciiTable table({"target KiB", "consolidate", "edge-sets",
                    "avg edges/set", "min edges/set", "batch wall (ms)"});

  for (const std::size_t target_kib : {16u, 64u, 256u, 1024u}) {
    for (const bool consolidate : {false, true}) {
      ShardOptions sopt;
      sopt.build_in_edges = false;
      sopt.edge_set.target_bytes = target_kib * 1024;
      sopt.edge_set.consolidate = consolidate;
      sopt.edge_set.min_edges_per_set = 2048;
      const auto shards = build_shards(graph, partition, sopt);

      EdgeSetGrid::Stats agg{};
      agg.min_set_edges = ~EdgeIndex{0};
      for (const auto& shard : shards) {
        const auto s = shard.out_sets().stats();
        agg.sets += s.sets;
        agg.edges += s.edges;
        agg.min_set_edges = std::min(agg.min_set_edges, s.min_set_edges);
      }

      Cluster cluster(machines, paper_cost_model());
      double best_ms = 1e18;
      for (std::size_t r = 0; r < repeats; ++r) {
        const auto br =
            run_distributed_msbfs(cluster, shards, partition, queries);
        best_ms = std::min(best_ms, br.wall_seconds * 1e3);
      }

      table.add_row(
          {AsciiTable::fmt_int(static_cast<long long>(target_kib)),
           consolidate ? "yes" : "no",
           AsciiTable::fmt_int(static_cast<long long>(agg.sets)),
           AsciiTable::fmt(static_cast<double>(agg.edges) /
                               static_cast<double>(std::max<std::size_t>(
                                   agg.sets, 1)),
                           1),
           AsciiTable::fmt_int(static_cast<long long>(agg.min_set_edges)),
           AsciiTable::fmt(best_ms, 2)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("expected shape: consolidation removes tiny blocks (min "
              "edges/set rises) without losing edges; moderate targets "
              "beat both extremes.\n");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
