// Figure 12: query-count scalability on the FRS-100B analogue with 9
// machines — response-time histograms for 20 / 50 / 100 / 350 concurrent
// 3-hop queries.
//
// Paper claims: up to 100 queries, 80% finish within 0.6 s and 90% within
// 1 s; at 350 queries performance degrades (40% within 1 s, 60% within
// 2 s, tail to 4-7 s) because the memory footprint grows linearly with
// query count ("every query returns with found paths"). The degradation
// is reproduced through the scheduler's memory-pressure model with a
// budget calibrated to the 100-query footprint.
//
// --open-loop replays the experiment as a served workload (DESIGN.md §10):
// Poisson arrivals at a sweep of offered rates through run_query_service,
// reporting p50/p95/p99 end-to-end latency plus shed/expired counts —
// the query-count knee shows up as a latency knee versus arrival rate.
// Tunables: --queries N, --rates a,b,c (qps), --queue-cap N,
// --deadline S, --linger S.
#include <cstdlib>
#include <limits>
#include <memory>

#include "bench/common.hpp"

using namespace cgraph;
using namespace cgraph::bench;

namespace {

/// The open-loop sweep's flags, read with the rest before any graph build.
struct OpenLoopConfig {
  std::size_t queries = 350;
  std::vector<double> rates = {100, 200, 400, 800, 1600};
  std::size_t queue_cap = 1024;
  double deadline = 0.0;
  double linger = 0.010;
};

/// Parse a comma-separated list of positive rates ("200,400,800").
std::vector<double> parse_rates(const std::string& csv) {
  std::vector<double> rates;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(pos, comma - pos);
    char* end = nullptr;
    const double rate = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size() ||
        !(rate > 0 && rate < 1e9)) {
      throw FlagError("bad --rates entry '" + item +
                      "' (want positive qps, comma-separated)");
    }
    rates.push_back(rate);
    pos = comma + 1;
  }
  return rates;
}

int run_open_loop(const OpenLoopConfig& cfg, const ShardedGraph& sg,
                  Cluster& cluster, std::uint64_t budget) {
  std::printf("\nopen loop: %zu Poisson arrivals per rate, "
              "queue-cap %zu, deadline %.3fs, linger %.3fs\n",
              cfg.queries, cfg.queue_cap, cfg.deadline, cfg.linger);
  std::printf("  %10s %8s %8s %9s %9s %9s %9s\n", "rate(qps)", "shed",
              "expired", "p50(s)", "p95(s)", "p99(s)", "batches");
  for (const double rate : cfg.rates) {
    PoissonArrivalParams ap;
    ap.rate_qps = rate;
    ap.count = cfg.queries;
    ap.k = 3;
    ap.seed = 909;
    const auto arrivals = make_poisson_arrivals(sg.graph, ap);

    ServiceOptions service;
    service.scheduler.memory_budget_bytes = budget;
    service.queue_cap = cfg.queue_cap;
    service.deadline_seconds = cfg.deadline;
    service.linger_seconds = cfg.linger;
    const auto run = run_query_service(cluster, sg.shards, sg.partition,
                                       arrivals, service);
    std::printf("  %10.0f %8llu %8llu %9.4f %9.4f %9.4f %9llu\n", rate,
                static_cast<unsigned long long>(run.stats.shed),
                static_cast<unsigned long long>(run.stats.expired),
                run.response_percentile(50), run.response_percentile(95),
                run.response_percentile(99),
                static_cast<unsigned long long>(run.stats.batches));
  }
  std::printf("  (end-to-end = queue wait + batch execution, sim seconds; "
              "higher rates deepen the queue)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const int shift = read_scale_shift(f, 2);
  const PartitionId machines = read_machines(f, 9);
  const std::string trace_out = f.str("trace-out");
  const bool open_loop = f.has("open-loop");
  OpenLoopConfig open_cfg;
  open_cfg.queries = read_queries(f, 350);
  if (f.has("rates")) open_cfg.rates = parse_rates(f.str("rates"));
  open_cfg.queue_cap =
      static_cast<std::size_t>(f.num("queue-cap", 1024, 0, Flags::kMax));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  open_cfg.deadline = f.real("deadline", 0.0, 0.0, kInf);
  open_cfg.linger = f.real("linger", 0.010, 0.0, kInf);
  f.done();

  // --trace-out PATH: record the whole bench run and export a Chrome
  // trace (or JSONL for .jsonl paths) when main returns.
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::EventTracer::Scope> trace_scope;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::EventTracer>();
    trace_scope = std::make_unique<obs::EventTracer::Scope>(*tracer);
  }
  auto finish_trace = [&](int rc) {
    if (tracer != nullptr) {
      trace_scope.reset();
      obs::write_trace_file(*tracer, trace_out);
    }
    return rc;
  };

  print_header("Figure 12: query-count scalability (FRS-100B graph)",
               "20/50/100/350 concurrent 3-hop queries, " +
                   std::to_string(machines) + " machines");

  ShardedGraph sg = make_dataset_sharded("FRS-100B", shift, machines,
                                         /*build_in_edges=*/false);
  std::printf("graph: %s\n", sg.graph.summary().c_str());
  Cluster cluster(machines, paper_cost_model());

  // Calibrate the memory budget to ~1.5x the 100-query footprint so the
  // 350-query run overshoots (paper: "slowdown ... mainly caused by
  // resource limits, especially ... memory footprint").
  std::uint64_t budget = 0;
  {
    const auto probe =
        make_random_queries(sg.graph, 100, 3, /*seed=*/909);
    const auto run = run_concurrent_queries(cluster, sg.shards,
                                            sg.partition, probe);
    budget = static_cast<std::uint64_t>(
        static_cast<double>(run.peak_memory_bytes) * 1.5);
    std::printf("memory budget: %s (1.5x the 100-query footprint)\n",
                AsciiTable::humanize(budget).c_str());
  }

  if (open_loop) {
    return finish_trace(run_open_loop(open_cfg, sg, cluster, budget));
  }

  std::vector<ResponseTimeSeries> series;
  double max_seen = 0;
  for (std::size_t count : {20u, 50u, 100u, 350u}) {
    const auto queries =
        make_random_queries(sg.graph, count, 3, /*seed=*/909);
    SchedulerOptions sopt;
    sopt.memory_budget_bytes = budget;
    const auto run = run_concurrent_queries(cluster, sg.shards,
                                            sg.partition, queries, sopt);
    ResponseTimeSeries s(std::to_string(count) + "-queries");
    for (const auto& q : run.queries) s.add(q.sim_seconds);
    max_seen = std::max(max_seen, s.max());
    std::printf("  %3zu queries: peak memory %s, mean %.4fs, max %.4fs\n",
                count, AsciiTable::humanize(run.peak_memory_bytes).c_str(),
                s.mean(), s.max());
    series.push_back(std::move(s));
    Reporter::maybe_write_csv(series.back(), "fig12");
  }

  Reporter rep("response-time histograms (sim seconds)");
  rep.print_histograms(series, max_seen / 10.0, max_seen);
  for (const auto& s : series) {
    rep.note(s.label() + ": 80% within " +
             AsciiTable::fmt(s.percentile(80), 4) + "s, max " +
             AsciiTable::fmt(s.max(), 4) + "s");
  }
  rep.note("paper shape: flat through 100 queries, memory-driven "
           "degradation with a long tail at 350.");

  // --- Intra-machine thread scaling: the same 100-query wave with each
  // simulated machine's per-level scans run on 1/2/4 compute threads.
  // Results are bit-exact across the sweep (asserted); wall-clock should
  // drop roughly linearly until cores run out. On a multi-core host expect
  // >=2x at 4 threads for scan-dominated levels.
  std::printf("\nthread scaling (100 queries, wall seconds, host cores=%zu):"
              "\n",
              resolve_compute_threads(0));
  {
    const auto queries = make_random_queries(sg.graph, 100, 3, /*seed=*/909);
    std::vector<std::uint64_t> baseline;
    double base_wall = 0;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SchedulerOptions sopt;
      sopt.threads = threads;
      const auto run = run_concurrent_queries(cluster, sg.shards,
                                              sg.partition, queries, sopt);
      std::vector<std::uint64_t> counts;
      counts.reserve(run.queries.size());
      for (const auto& q : run.queries) counts.push_back(q.visited);
      if (threads == 1) {
        baseline = counts;
        base_wall = run.total_wall_seconds;
      } else {
        CGRAPH_CHECK_MSG(counts == baseline,
                         "threaded run diverged from serial results");
      }
      std::printf("  threads=%zu: %.4fs wall  (speedup %.2fx)\n", threads,
                  run.total_wall_seconds,
                  base_wall / std::max(run.total_wall_seconds, 1e-12));
    }
  }
  return finish_trace(0);
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
