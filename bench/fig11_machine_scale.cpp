// Figure 11: multi-machine scalability for 100 concurrent 3-hop queries
// on the FR-1B analogue — response-time histogram for 1 / 3 / 6 / 9
// machines.
//
// Paper claims: most queries complete quickly at every machine count (80%
// within 0.2 s, 90% within 1 s); adding machines does not change the
// number of visited vertices but increases boundary vertices, so the
// benefit of more compute is partly offset by synchronization — the
// histograms stay similar rather than improving linearly.
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const std::size_t num_queries = read_queries(f, 100);
  f.done();

  print_header("Figure 11: machine-count scalability (FR-1B graph)",
               std::to_string(num_queries) +
                   " concurrent 3-hop queries; histogram per machine count");

  const Graph graph = make_dataset("FR-1B", shift, /*build_in_edges=*/false);
  std::printf("graph: %s\n", graph.summary().c_str());
  const auto queries =
      make_random_queries(graph, num_queries, 3, /*seed=*/808);

  std::vector<ResponseTimeSeries> series;
  double max_seen = 0;
  for (PartitionId machines : {1u, 3u, 6u, 9u}) {
    const auto partition = RangePartition::balanced_by_edges(graph, machines);
    ShardOptions sopt;
    sopt.build_in_edges = false;
    const auto shards = build_shards(graph, partition, sopt);
    Cluster cluster(machines, paper_cost_model());
    const auto run =
        run_concurrent_queries(cluster, shards, partition, queries);

    ResponseTimeSeries s(std::to_string(machines) + "-machines");
    std::uint64_t boundary = 0;
    for (const auto& shard : shards) boundary += shard.boundary_out().size();
    for (const auto& q : run.queries) s.add(q.sim_seconds);
    max_seen = std::max(max_seen, s.max());
    std::printf("  %u machines: total boundary vertices %llu, mean %.4fs\n",
                machines, static_cast<unsigned long long>(boundary),
                s.mean());
    series.push_back(std::move(s));
    Reporter::maybe_write_csv(series.back(), "fig11");
  }

  Reporter rep("response-time histograms (sim seconds)");
  // Bin width scales with the observed range, mirroring the paper's 0.2 s
  // bins at its (much larger) absolute scale.
  rep.print_histograms(series, max_seen / 10.0, max_seen);
  for (const auto& s : series) {
    rep.note(s.label() + ": 80% within " + AsciiTable::fmt(s.percentile(80), 4) +
             "s, 90% within " + AsciiTable::fmt(s.percentile(90), 4) + "s");
  }
  rep.note("paper shape: distributions stay tight across machine counts; "
           "boundary-vertex growth offsets added compute.");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
