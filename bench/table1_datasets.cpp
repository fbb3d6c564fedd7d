// Table 1: Datasets Description — the paper's four graphs and the scaled
// analogues this reproduction generates for them (same edge/vertex ratio,
// documented scale factor).
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  f.done();

  print_header("Table 1: Datasets Description",
               "paper graphs vs generated analogues (scale-shift " +
                   std::to_string(shift) + ")");

  AsciiTable table({"Dataset", "Paper V", "Paper E", "Analogue V",
                    "Analogue E", "avg deg (paper)", "avg deg (ours)"});
  for (const DatasetSpec& spec : table1_datasets()) {
    const Graph g = make_dataset(spec, shift, /*build_in_edges=*/false);
    const double paper_deg = static_cast<double>(spec.paper_edges) /
                             static_cast<double>(spec.paper_vertices);
    table.add_row({spec.name, AsciiTable::humanize(spec.paper_vertices),
                   AsciiTable::humanize(spec.paper_edges),
                   AsciiTable::humanize(g.num_vertices()),
                   AsciiTable::humanize(g.num_edges()),
                   AsciiTable::fmt(paper_deg, 1),
                   AsciiTable::fmt(g.average_degree(), 1)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("note: FRS-72B/FRS-100B edge factors are capped at 64/36 for "
              "host memory; Table 1 V/E metadata is preserved exactly.\n");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
