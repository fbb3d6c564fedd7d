// cgraph_bench: one run of one workload of the wall-clock suite.
//
//   cgraph_bench --workload W --seed S --seconds T --out FILE
//                [--trace-out FILE.json] [--smoke] [--corrupt] [--setup-only]
//
// Runs the repeated set-up, a warm-up block, measured blocks until they add
// up to T seconds of wall, the output checks and (with --trace-out, which
// also traces every second block) the per-layer epilogue, then writes the
// run as one JSON object to FILE. run.py drives it, one process per run.
// Exit status: 0 when every check passed, 1 when a check failed or the run
// threw, 2 on bad usage.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "util/options.hpp"
#include "workloads.hpp"

using namespace cgraph;
using namespace cgraph::suite;

namespace {

struct WorkloadEntry {
  const char* name;
  void (*run)(Run&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"khop_serve", run_khop_serve},
    {"engine_deep", run_engine_deep},
    {"khop_writes", run_khop_writes},
    {"mixed_replicated", run_mixed_replicated},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "cgraph_bench: %s\nusage: cgraph_bench --workload "
               "{khop_serve|engine_deep|khop_writes|mixed_replicated} "
               "--seed S --seconds T --out FILE [--trace-out FILE] "
               "[--smoke] [--corrupt] [--setup-only]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  RunConfig cfg;
  cfg.workload = opts.get("workload");
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  cfg.seconds = opts.get_double("seconds", 0);
  cfg.smoke = opts.has("smoke");
  cfg.corrupt = opts.has("corrupt");
  cfg.setup_only = opts.has("setup-only");
  const std::string out_path = opts.get("out");
  const std::string trace_path = opts.get("trace-out");
  cfg.traced = !trace_path.empty();

  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (cfg.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return usage("unknown or missing --workload");
  if (out_path.empty()) return usage("missing --out");
  if (!(cfg.seconds > 0)) return usage("missing or non-positive --seconds");

  SpanRecorder spans(cfg.traced);
  RunResult result;
  result.workload = cfg.workload;
  result.seed = cfg.seed;
  result.traced = cfg.traced;
  std::unique_ptr<obs::EventTracer> tracer;
  if (cfg.traced) {
    obs::EventTracer::Options topt;
    topt.ring_capacity = std::size_t{1} << 20;
    tracer = std::make_unique<obs::EventTracer>(topt);
  }
  Run run{cfg, spans, result, tracer.get()};
  try {
    entry->run(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgraph_bench: %s failed: %s\n", entry->name,
                 e.what());
    return 1;
  }
  zero_missing_layers(result);

  std::unique_ptr<TraceAnalysis> analysis;
  if (cfg.traced) {
    analysis = std::make_unique<TraceAnalysis>(
        analyze_trace(spans, tracer.get(), trace_path));
    result.layer["obs.span_coverage"] = analysis->coverage;
  }
  if (!write_run_json(result, analysis.get(), out_path)) {
    std::fprintf(stderr, "cgraph_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "cgraph_bench: %s: check failed: %s\n", entry->name,
                 p.c_str());
  }
  return result.problems.empty() ? 0 : 1;
}
