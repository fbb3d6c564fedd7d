// Figure 8: response-time distribution (boxplots) of concurrent 3-hop
// queries.
//   (a) vs TitanLike, OR graph, single machine (paper: Titan mean 8.6 s
//       with a >100 s tail; C-Graph mean 0.25 s).
//   (b) vs GeminiLike, FR graph, three machines (paper: Gemini mean 4.25 s
//       because serialized queries stack; C-Graph mean ~0.3 s).
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 3);
  const std::size_t num_queries = read_queries(f, 100);
  const double read_latency_us = f.real("titan-read-us", 10.0, 0, 1e6);
  f.done();

  // ---------------- (a) OR graph, single machine, vs TitanLike ----------
  print_header("Figure 8a: response distribution vs TitanLike "
               "(OR graph, 1 machine)",
               std::to_string(num_queries) + " concurrent 3-hop queries");
  {
    ShardedGraph sg = make_dataset_sharded("OR-100M", shift, 1,
                                           /*build_in_edges=*/false);
    std::printf("graph: %s\n", sg.graph.summary().c_str());
    const auto queries =
        make_random_queries(sg.graph, num_queries, 3, /*seed=*/505);

    Cluster cluster(1, paper_cost_model());
    const auto cg_run = run_concurrent_queries(cluster, sg.shards,
                                               sg.partition, queries);
    ResponseTimeSeries cg("C-Graph");
    for (const auto& q : cg_run.queries) cg.add(q.wall_seconds);

    TitanLikeOptions topt;
    topt.storage.read_latency_us = read_latency_us;
    topt.storage.write_latency_us = 0;
    TitanLikeDb titan(topt);
    titan.load(sg.graph);
    ResponseTimeSeries ti("TitanLike");
    for (const auto& r : titan.run_concurrent(queries)) {
      ti.add(r.wall_seconds);
    }

    Reporter rep("boxplot, wall seconds");
    rep.print_boxplots({cg, ti});
    rep.note("paper: Titan mean 8.6 s (10% of queries > 50 s); "
             "C-Graph mean 0.25 s");
  }

  // ---------------- (b) FR graph, 3 machines, vs GeminiLike -------------
  print_header("Figure 8b: response distribution vs GeminiLike "
               "(FR graph, 3 machines)",
               std::to_string(num_queries) +
                   " concurrent 3-hop queries, serialized on Gemini");
  {
    ShardedGraph sg = make_dataset_sharded("FR-1B", shift, 3,
                                           /*build_in_edges=*/false);
    std::printf("graph: %s\n", sg.graph.summary().c_str());
    const auto queries =
        make_random_queries(sg.graph, num_queries, 3, /*seed=*/606);

    Cluster cluster(3, paper_cost_model());
    const auto cg_run = run_concurrent_queries(cluster, sg.shards,
                                               sg.partition, queries);
    ResponseTimeSeries cg("C-Graph");
    for (const auto& q : cg_run.queries) cg.add(q.sim_seconds);

    GeminiLikeOptions gopt;
    gopt.machines = 3;
    gopt.cost_model = paper_cost_model();
    GeminiLikeEngine gemini(sg.graph, gopt);
    ResponseTimeSeries ge("GeminiLike");
    for (const auto& r : gemini.run_serialized(queries)) {
      ge.add(r.sim_seconds);
    }

    Reporter rep("boxplot, simulated cluster seconds");
    rep.print_boxplots({cg, ge});
    rep.note("single-query GeminiLike is fast (paper: tens of ms) but "
             "responses stack; C-Graph shares the traversal across the "
             "batch.");
    rep.note("paper: Gemini mean 4.25 s vs C-Graph 0.3 s (~14x); ratio "
             "here: " +
             AsciiTable::fmt(ge.mean() / cg.mean(), 1) + "x");
  }
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
