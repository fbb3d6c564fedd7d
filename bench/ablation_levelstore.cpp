// Ablation: dynamic per-level value allocation (paper §3.3 / DESIGN.md
// §5.5) — "Instead of saving a value per vertex, we only store vertex
// values for those in the previous and current levels."
//
// Per-query vertex values in k-hop are the visit level or parent id
// (paper §4.1), i.e. one VertexId-sized value. A dense scheme pins one
// value per vertex per query for the whole run; the LevelValueStore pins
// (vertex, value) pairs for the previous+current levels only. The saving
// depends on how local the traversal is relative to the graph — swept
// over k below.
#include "bench/common.hpp"
#include "query/frontier.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const std::size_t count = read_queries(f, 64);
  f.done();

  print_header("Ablation: level-pair value store vs dense per-vertex values",
               std::to_string(count) +
                   " concurrent queries on the FRS-100B analogue");

  const Graph graph =
      make_dataset("FRS-100B", shift, /*build_in_edges=*/false);
  std::printf("graph: %s\n", graph.summary().c_str());

  // Dense: one VertexId value per vertex per query, pinned for the run.
  const std::size_t dense_bytes =
      count * static_cast<std::size_t>(graph.num_vertices()) *
      sizeof(VertexId);

  AsciiTable table({"k", "avg reach", "reach frac", "dense bytes",
                    "level-store peak", "saving"});
  for (const Depth k : {Depth{1}, Depth{2}, Depth{3}, Depth{4}}) {
    const auto queries = make_random_queries(graph, count, k, /*seed=*/1414);

    std::size_t level_store_peak = 0;
    std::uint64_t total_reach = 0;
    for (const KHopQuery& q : queries) {
      // Frontier widths from the reference traversal; they are what the
      // store holds regardless of engine.
      const auto depth = bfs_levels(graph, q.source, q.k);
      std::vector<std::size_t> width(static_cast<std::size_t>(k) + 1, 0);
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        if (depth[v] != kUnvisitedDepth) {
          ++width[depth[v]];
          if (v != q.source) ++total_reach;
        }
      }
      LevelValueStore<VertexId> store;
      std::size_t peak = 0;
      for (std::size_t level = 0; level < width.size(); ++level) {
        for (std::size_t i = 0; i < width[level]; ++i) {
          store.record(static_cast<VertexId>(i), 0);
        }
        peak = std::max(peak, store.memory_bytes());
        store.advance_level();
      }
      level_store_peak += peak;
    }

    const double avg_reach =
        static_cast<double>(total_reach) / static_cast<double>(count);
    table.add_row(
        {AsciiTable::fmt_int(k),
         AsciiTable::humanize(static_cast<unsigned long long>(avg_reach)),
         AsciiTable::fmt(avg_reach / graph.num_vertices(), 4),
         AsciiTable::humanize(dense_bytes),
         AsciiTable::humanize(level_store_peak),
         AsciiTable::fmt(static_cast<double>(dense_bytes) /
                             static_cast<double>(std::max<std::size_t>(
                                 level_store_peak, 1)),
                         1) +
             "x"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("expected shape: large savings while traversals stay local "
              "(small k or huge graphs — the paper's regime); the benefit "
              "shrinks as a query floods the whole graph.\n");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
