// Figure 10: multi-machine scalability of PageRank (10 iterations) on
// OR-100M, FR-1B and FRS-72B analogues, 1..9 machines, normalized to the
// single-machine time of each graph.
//
// Paper claims: FR-1B speedups 1.8x / 2.4x / 2.9x at 3 / 6 / 9 machines;
// the smallest graph (OR-100M) stops scaling beyond ~6 machines because
// communication dominates; the largest graph (FRS-72B) scales best
// (4.5x at 9).
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const auto iters =
      static_cast<std::uint64_t>(f.num("iterations", 10, 1, 10000));
  f.done();

  print_header("Figure 10: PageRank multi-machine scalability",
               std::to_string(iters) +
                   " iterations, sim time normalized to 1 machine");

  const PartitionId machine_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  AsciiTable table({"machines", "OR-100M", "FR-1B", "FRS-72B"});

  std::vector<std::vector<double>> norm(3);
  std::size_t col = 0;
  for (const char* name : {"OR-100M", "FR-1B", "FRS-72B"}) {
    const Graph graph = make_dataset(name, shift);
    std::printf("%-8s %s\n", name, graph.summary().c_str());
    double base = 0;
    for (PartitionId m : machine_counts) {
      const auto partition = RangePartition::balanced_by_edges(graph, m);
      const auto shards = build_shards(graph, partition);
      Cluster cluster(m, paper_cost_model());
      const GasResult r = run_pagerank(cluster, shards, partition, iters);
      if (m == 1) base = r.stats.sim_seconds;
      norm[col].push_back(r.stats.sim_seconds / base);
    }
    ++col;
  }

  for (std::size_t i = 0; i < std::size(machine_counts); ++i) {
    table.add_row({AsciiTable::fmt_int(machine_counts[i]),
                   AsciiTable::fmt(norm[0][i], 3),
                   AsciiTable::fmt(norm[1][i], 3),
                   AsciiTable::fmt(norm[2][i], 3)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  auto speedup_at = [&](std::size_t graph_idx, std::size_t machine_idx) {
    return 1.0 / norm[graph_idx][machine_idx];
  };
  std::printf("FR-1B speedups: %.1fx @3, %.1fx @6, %.1fx @9 "
              "(paper: 1.8x / 2.4x / 2.9x)\n",
              speedup_at(1, 2), speedup_at(1, 5), speedup_at(1, 8));
  std::printf("FRS-72B speedup @9: %.1fx (paper: 4.5x)\n", speedup_at(2, 8));
  std::printf("OR-100M speedup @6: %.1fx vs @9: %.1fx "
              "(paper: scaling stalls beyond 6 machines)\n",
              speedup_at(0, 5), speedup_at(0, 8));
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
