// Ablation: bit-parallel frontier (§3.5) vs per-query task queues
// (Listing 2) across query counts — edges scanned, wall time, sim time,
// and traversal-state memory. The design choice DESIGN.md §5.2 calls out.
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const PartitionId machines = read_machines(f, 3);
  f.done();

  print_header("Ablation: bit operations vs task queues",
               "3-hop batches on the FR-1B analogue, " +
                   std::to_string(machines) + " machines");

  ShardedGraph sg = make_dataset_sharded("FR-1B", shift, machines,
                                         /*build_in_edges=*/false);
  std::printf("graph: %s\n", sg.graph.summary().c_str());
  Cluster cluster(machines, paper_cost_model());

  AsciiTable table({"queries", "engine", "edges scanned", "wall (ms)",
                    "sim (ms)", "state bytes"});
  for (const std::size_t count : {8u, 32u, 64u, 128u, 256u}) {
    const auto queries =
        make_random_queries(sg.graph, count, 3, /*seed=*/1212);
    for (const bool bits : {true, false}) {
      SchedulerOptions sopt;
      sopt.use_bit_parallel = bits;
      sopt.batch_width = 64;
      const auto run = run_concurrent_queries(cluster, sg.shards,
                                              sg.partition, queries, sopt);
      table.add_row({AsciiTable::fmt_int(static_cast<long long>(count)),
                     bits ? "bit-parallel" : "task-queues",
                     AsciiTable::humanize(run.total_edges_scanned),
                     AsciiTable::fmt(run.total_wall_seconds * 1e3, 2),
                     AsciiTable::fmt(run.total_sim_seconds * 1e3, 2),
                     AsciiTable::humanize(run.peak_memory_bytes)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("expected shape: task-queue work grows linearly with query "
              "count; bit-parallel work grows sublinearly because shared "
              "subgraphs are scanned once per 64-query batch.\n");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
