// Figure 1: the hop plot — cumulative distribution of pairwise distances,
// with diameter δ and effective diameters δ0.5 / δ0.9.
//
// The paper shows Slashdot Zoo (δ = 12, δ0.5 = 3.51, δ0.9 = 4.71). We
// compute the same metrics on (a) a Watts-Strogatz small-world graph and
// (b) the OR-100M analogue, demonstrating the six-degrees property that
// motivates k-hop queries.
#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

namespace {

void report(const char* name, const Graph& g, std::uint32_t samples) {
  const HopPlot plot = compute_hop_plot(g, samples, /*seed=*/2026);
  std::printf("\n%s  (%s, %u BFS samples)\n", name, g.summary().c_str(),
              samples);
  std::printf("  diameter (sampled)          delta    = %u\n",
              unsigned{plot.diameter});
  std::printf("  50%%-eff. diameter           delta0.5 = %.2f\n",
              plot.effective_diameter_50);
  std::printf("  90%%-eff. diameter           delta0.9 = %.2f\n",
              plot.effective_diameter_90);
  std::printf("  distance  cumulative%%\n");
  for (std::size_t d = 0; d < plot.cumulative.size(); ++d) {
    std::printf("  %8zu  %6.1f%%\n", d, plot.cumulative[d] * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const auto samples = static_cast<std::uint32_t>(f.num("samples", 24, 1, 4096));
  const int shift = read_scale_shift(f, 3);
  f.done();

  print_header("Figure 1: hop plot (cumulative path-length distribution)",
               "paper reference: Slashdot Zoo, delta=12, delta0.5=3.51, "
               "delta0.9=4.71");

  // (a) Small-world graph in the spirit of Slashdot Zoo.
  const EdgeList ws = generate_watts_strogatz(60000, 12, 0.05, 17);
  const Graph small_world = Graph::build(EdgeList(ws.edges()), 60000,
                                         {.build_in_edges = false});
  report("small-world (Watts-Strogatz n=60000 k=12 beta=0.05)", small_world,
         samples);

  // (b) The social-network analogue used across the evaluation.
  const Graph orkut = make_dataset("OR-100M", shift,
                                   /*build_in_edges=*/false);
  report("OR-100M analogue (R-MAT)", orkut, samples);

  std::printf("\nshape check: most pairs within <=5 hops (six degrees of "
              "separation), motivating small-k reachability queries.\n");
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
