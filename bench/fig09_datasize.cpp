// Figure 9: data-size scalability — response times for 100 concurrent
// 3-hop queries on OR-100M, FR-1B and FRS-100B analogues with 9 machines,
// sorted ascending per graph.
//
// Paper claims: ~85% of queries within 0.4 s (FR-1B) / 0.6 s (FRS-100B);
// upper bounds 1.2 s and 1.6 s — i.e. the response-time *bound grows
// mildly* (not proportionally) with a 100x edge-count increase, and
// depends on root degree (38 / 27 / 108 average).
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const std::size_t num_queries = read_queries(f, 100);
  const PartitionId machines = read_machines(f, 9);
  f.done();

  print_header("Figure 9: data-size scalability",
               std::to_string(num_queries) + " concurrent 3-hop queries, " +
                   std::to_string(machines) + " machines, sim seconds");

  std::vector<ResponseTimeSeries> series;
  for (const char* name : {"OR-100M", "FR-1B", "FRS-100B"}) {
    ShardedGraph sg = make_dataset_sharded(name, shift, machines,
                                           /*build_in_edges=*/false);
    std::printf("%-9s %s\n", name, sg.graph.summary().c_str());
    Cluster cluster(machines, paper_cost_model());
    const auto queries =
        make_random_queries(sg.graph, num_queries, 3, /*seed=*/707);
    const auto run = run_concurrent_queries(cluster, sg.shards,
                                            sg.partition, queries);
    ResponseTimeSeries s(name);
    for (const auto& q : run.queries) s.add(q.sim_seconds);
    series.push_back(std::move(s));
    Reporter::maybe_write_csv(series.back(), "fig09");
  }

  Reporter rep("per-query response, sorted ascending (sim seconds)");
  rep.print_sorted_series(series,
                          std::max<std::size_t>(1, num_queries / 10));
  for (const auto& s : series) {
    rep.note(s.label() + ": 85th percentile " +
             AsciiTable::fmt(s.percentile(85), 4) + "s, upper bound " +
             AsciiTable::fmt(s.max(), 4) +
             "s (paper shape: bound grows mildly with 100x data)");
  }
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
