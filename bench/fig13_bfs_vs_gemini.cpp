// Figure 13: concurrent full BFS queries vs GeminiLike on the FR-1B
// analogue, 3 machines — total execution time at 1 / 64 / 128 / 256
// concurrent BFS queries, with C-Graph's bit operations enabled (the
// paper enables them here to stay within memory).
//
// Paper claims: Gemini's total time is linear in query count (serialized);
// C-Graph starts at the same single-BFS time (~0.5 s) but grows
// sublinearly, winning ~1.7x at 64/128 and ~2.4x at 256.
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const PartitionId machines = read_machines(f, 3);
  f.done();

  print_header("Figure 13: concurrent full-BFS queries vs GeminiLike "
               "(FR-1B graph, 3 machines)",
               "total execution time (sim seconds); bit operations ON");

  ShardedGraph sg = make_dataset_sharded("FR-1B", shift, machines,
                                         /*build_in_edges=*/false);
  std::printf("graph: %s\n", sg.graph.summary().c_str());
  Cluster cluster(machines, paper_cost_model());

  GeminiLikeOptions gopt;
  gopt.machines = machines;
  gopt.cost_model = paper_cost_model();
  GeminiLikeEngine gemini(sg.graph, gopt);

  AsciiTable table({"concurrent BFS", "GeminiLike total (s)",
                    "C-Graph total (s)", "speedup"});
  double speedup_at_256 = 0;
  for (std::size_t count : {1u, 64u, 128u, 256u}) {
    const auto queries = make_random_queries(sg.graph, count,
                                             /*k=*/kUnvisitedDepth,
                                             /*seed=*/1010);
    // GeminiLike: serialized execution, total = last response.
    const auto gem = gemini.run_serialized(queries);
    const double gem_total = gem.back().sim_seconds;

    // C-Graph: bit-parallel batches through the scheduler.
    SchedulerOptions sopt;
    sopt.batch_width = 64;  // cache-line batch, bit ops enabled
    const auto run = run_concurrent_queries(cluster, sg.shards,
                                            sg.partition, queries, sopt);
    const double cg_total = run.total_sim_seconds;

    const double speedup = gem_total / cg_total;
    if (count == 256) speedup_at_256 = speedup;
    table.add_row({AsciiTable::fmt_int(static_cast<long long>(count)),
                   AsciiTable::fmt(gem_total, 4),
                   AsciiTable::fmt(cg_total, 4),
                   AsciiTable::fmt(speedup, 2) + "x"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("paper shape: Gemini linear in query count; C-Graph "
              "sublinear, ~1.7x at 64/128 and ~2.4x at 256 "
              "(measured at 256: %.1fx)\n", speedup_at_256);
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
