// Committed perf baseline: the benchmark run the repo gates on.
//
// Emits two JSON artifacts into --out-dir (default "."), both validated
// against bench/bench_schema.json by ci/validate_bench.py:
//
//   BENCH_fig12.json          - the Figure-12 experiment as a served
//       workload: an open-loop Poisson sweep (arrival rate x {1,4}
//       intra-machine compute threads) plus a small micro set. Every
//       recorded metric lives in the *simulated* clock domain, so the file
//       is bit-reproducible on any host; ci/bench_smoke.sh re-runs the
//       same config and diffs against the committed copy with a 20% drift
//       gate (in practice the diff is exactly zero). Each row also records
//       thread_invariant: the 1-thread and 4-thread runs must agree on
//       every sim-domain number (DESIGN.md "Threading model").
//   BENCH_trace_overhead.json - wall-clock cost of the event-tracing
//       subsystem, measured with three interleaved arms per repetition:
//       A = tracer disabled, B = tracer disabled again (the noise floor),
//       C = tracer enabled. Arms are compared on their per-arm minimum
//       over the repetitions. disabled_overhead_pct is the A-vs-B spread —
//       two runs of the *identical* off path — which bounds what the
//       always-compiled-in `if (tracing_enabled())` branches can cost:
//       the claim "tracing off is free" holds when that spread stays
//       within the 2% gate. enabled_overhead_pct is C vs A. The tracer
//       must never perturb the simulation itself; the runner aborts if
//       total_sim_seconds differs across any arm.
//
// Flags:
//   --out-dir PATH   where to write the BENCH_*.json files (default ".")
//   --quick          fewer rates and repetitions (local iteration)
//   --smoke          tiny graph + minimal sweep — the `bench`-labeled
//                    ctest entry, fast enough for the sanitizer suites
//   --scale-shift/--machines/--queries/--reps override the mode defaults.
//   --dense-machines/--dense-alpha/--dense-beta tweak the dense-frontier
//                    direction arm (locality / switch-threshold sweeps);
//                    --dense-levels dumps its per-level direction choices.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/rng.hpp"

using namespace cgraph;
using namespace cgraph::bench;

namespace {

struct BaselineConfig {
  const char* mode = "full";
  int scale_shift = 4;
  PartitionId machines = 4;
  std::size_t queries = 200;      // arrivals per swept rate
  std::vector<double> rates = {100, 200, 400, 800, 1600};
  std::size_t queue_cap = 64;
  double deadline_seconds = 0.05;
  double linger_seconds = 0.010;
  Depth k = 3;
  std::uint64_t seed = 909;
  std::size_t overhead_queries = 100;  // closed-loop workload per arm
  std::size_t reps = 9;
};

BaselineConfig resolve_config(Flags& f) {
  BaselineConfig cfg;
  if (f.has("quick")) {
    cfg.mode = "quick";
    cfg.rates = {200, 800};
    cfg.reps = 5;
  }
  if (f.has("smoke")) {
    cfg.mode = "smoke";
    cfg.scale_shift = 7;
    cfg.machines = 3;
    cfg.queries = 60;
    cfg.rates = {400};
    cfg.overhead_queries = 40;
    cfg.reps = 3;
  }
  cfg.scale_shift = read_scale_shift(f, cfg.scale_shift);
  cfg.machines = read_machines(f, static_cast<int>(cfg.machines));
  cfg.queries = read_queries(f, static_cast<int>(cfg.queries));
  cfg.reps = static_cast<std::size_t>(
      f.num("reps", static_cast<std::int64_t>(cfg.reps), 1, 1000));
  return cfg;
}

struct SweepRow {
  double rate_qps = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double makespan_sim = 0;
  bool thread_invariant = true;
};

struct MicroRow {
  std::string name;
  double sim_seconds = 0;
  std::uint64_t edges_scanned = 0;
};

/// Steady-state vs under-replica-kill latency (DESIGN.md §14). Both arms
/// run the same arrival stream through a 2-replica router; the kill arm
/// halts the replica that owns the first batch mid-execution, so every
/// recorded percentile includes the failover + checkpoint-adoption cost.
struct FailoverArm {
  double rate_qps = 0;
  std::size_t replicas = 2;
  std::size_t kill_replica = 0;
  std::uint64_t kill_superstep = 0;
  SweepRow steady;
  SweepRow under_kill;
  std::uint64_t failovers = 0;
};

bool rows_equal(const SweepRow& a, const SweepRow& b) {
  return a.shed == b.shed && a.expired == b.expired &&
         a.completed == b.completed && a.batches == b.batches &&
         a.p50 == b.p50 && a.p95 == b.p95 && a.p99 == b.p99 &&
         a.makespan_sim == b.makespan_sim;
}

/// One open-loop service run; every returned field is sim-domain.
SweepRow run_rate(const BaselineConfig& cfg, const ShardedGraph& sg,
                  Cluster& cluster, std::uint64_t budget, double rate,
                  std::size_t threads) {
  PoissonArrivalParams ap;
  ap.rate_qps = rate;
  ap.count = cfg.queries;
  ap.k = cfg.k;
  ap.seed = cfg.seed;
  const auto arrivals = make_poisson_arrivals(sg.graph, ap);

  ServiceOptions service;
  service.scheduler.memory_budget_bytes = budget;
  service.scheduler.threads = threads;
  service.queue_cap = cfg.queue_cap;
  service.deadline_seconds = cfg.deadline_seconds;
  service.linger_seconds = cfg.linger_seconds;
  const auto run = run_query_service(cluster, sg.shards, sg.partition,
                                     arrivals, service);

  SweepRow row;
  row.rate_qps = rate;
  row.shed = run.stats.shed;
  row.expired = run.stats.expired;
  row.completed = run.stats.completed;
  row.batches = run.stats.batches;
  row.p50 = run.response_percentile(50);
  row.p95 = run.response_percentile(95);
  row.p99 = run.response_percentile(99);
  row.makespan_sim = run.makespan_sim_seconds;
  return row;
}

/// One open-loop run against a fresh 2-replica set. The arm isolates
/// failover latency from admission effects: unbounded queue, no deadline,
/// so every query completes on some replica and the percentile delta is
/// purely the replica-loss recovery cost. When `kill` is set the replica
/// that batch 0 routes to is halted at `kill_superstep` (guaranteeing the
/// death lands mid-batch on the hot path).
SweepRow run_failover_rate(const BaselineConfig& cfg, const ShardedGraph& sg,
                           std::uint64_t budget, double rate, bool kill,
                           std::uint64_t kill_superstep,
                           std::size_t* kill_replica,
                           std::uint64_t* failovers) {
  PoissonArrivalParams ap;
  ap.rate_qps = rate;
  ap.count = cfg.queries;
  ap.k = cfg.k;
  ap.seed = cfg.seed;
  const auto arrivals = make_poisson_arrivals(sg.graph, ap);

  std::vector<std::unique_ptr<Cluster>> storage;
  std::vector<Cluster*> replicas;
  for (std::size_t r = 0; r < 2; ++r) {
    storage.push_back(
        std::make_unique<Cluster>(cfg.machines, paper_cost_model()));
    storage.back()->set_recovery(RecoveryOptions{});
    replicas.push_back(storage.back().get());
  }

  ServiceOptions service;
  service.scheduler.memory_budget_bytes = budget;
  service.queue_cap = 0;
  service.deadline_seconds = 0;
  service.linger_seconds = cfg.linger_seconds;
  ReplicaRouterOptions ro;
  ro.route_seed = cfg.seed;
  ReplicaRouter router(replicas, sg.shards, sg.partition, service.scheduler,
                       ro);
  service.router = &router;

  if (kill) {
    const std::size_t victim =
        router.route_batch(0, arrivals.front().query.source);
    HaltSpec halt;
    halt.at_superstep = kill_superstep;
    replicas[victim]->arm_halt(halt);
    if (kill_replica != nullptr) *kill_replica = victim;
  }

  const auto run = run_query_service(*replicas[0], sg.shards, sg.partition,
                                     arrivals, service);
  CGRAPH_CHECK_MSG(run.stats.identities_hold(),
                   "failover arm broke the service counter identities");
  CGRAPH_CHECK_MSG(run.stats.completed == arrivals.size(),
                   "failover arm lost admitted queries");
  if (kill) {
    CGRAPH_CHECK_MSG(run.stats.failovers >= 1,
                     "failover arm's replica kill never fired");
  }
  if (failovers != nullptr) *failovers = run.stats.failovers;

  SweepRow row;
  row.rate_qps = rate;
  row.shed = run.stats.shed;
  row.expired = run.stats.expired;
  row.completed = run.stats.completed;
  row.batches = run.stats.batches;
  row.p50 = run.response_percentile(50);
  row.p95 = run.response_percentile(95);
  row.p99 = run.response_percentile(99);
  row.makespan_sim = run.makespan_sim_seconds;
  return row;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double minimum(const std::vector<double>& xs) {
  return xs.empty() ? 0 : *std::min_element(xs.begin(), xs.end());
}

void json_doubles(std::FILE* f, const char* key, double v,
                  const char* suffix) {
  std::fprintf(f, "\"%s\": %.17g%s", key, v, suffix);
}

void json_failover_row(std::FILE* f, const char* key, const SweepRow& r,
                       const char* suffix) {
  std::fprintf(f, "    \"%s\": {\"completed\": %llu, \"batches\": %llu, ",
               key, static_cast<unsigned long long>(r.completed),
               static_cast<unsigned long long>(r.batches));
  json_doubles(f, "p50_sim_seconds", r.p50, ", ");
  json_doubles(f, "p95_sim_seconds", r.p95, ", ");
  json_doubles(f, "p99_sim_seconds", r.p99, ", ");
  json_doubles(f, "makespan_sim_seconds", r.makespan_sim, "");
  std::fprintf(f, "}%s\n", suffix);
}

bool write_fig12_json(const std::string& path, const BaselineConfig& cfg,
                      std::uint64_t budget, const std::vector<SweepRow>& rows,
                      const FailoverArm& failover,
                      const std::vector<MicroRow>& micro) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"fig12_open_loop\",\n");
  std::fprintf(f, "  \"generated_by\": \"bench/baseline_runner\",\n");
  std::fprintf(f, "  \"clock_domain\": \"simulated\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", cfg.mode);
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"dataset\": \"FRS-100B\",\n");
  std::fprintf(f, "    \"scale_shift\": %d,\n", cfg.scale_shift);
  std::fprintf(f, "    \"machines\": %u,\n", cfg.machines);
  std::fprintf(f, "    \"queries\": %zu,\n", cfg.queries);
  std::fprintf(f, "    \"k\": %u,\n", static_cast<unsigned>(cfg.k));
  std::fprintf(f, "    \"seed\": %llu,\n",
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "    \"queue_cap\": %zu,\n", cfg.queue_cap);
  std::fprintf(f, "    ");
  json_doubles(f, "deadline_seconds", cfg.deadline_seconds, ",\n");
  std::fprintf(f, "    ");
  json_doubles(f, "linger_seconds", cfg.linger_seconds, ",\n");
  std::fprintf(f, "    \"memory_budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(budget));
  std::fprintf(f, "    \"threads_swept\": [1, 4]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f, "    {");
    json_doubles(f, "rate_qps", r.rate_qps, ", ");
    std::fprintf(f, "\"shed\": %llu, \"expired\": %llu, "
                 "\"completed\": %llu, \"batches\": %llu, ",
                 static_cast<unsigned long long>(r.shed),
                 static_cast<unsigned long long>(r.expired),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.batches));
    json_doubles(f, "p50_sim_seconds", r.p50, ", ");
    json_doubles(f, "p95_sim_seconds", r.p95, ", ");
    json_doubles(f, "p99_sim_seconds", r.p99, ", ");
    json_doubles(f, "makespan_sim_seconds", r.makespan_sim, ", ");
    std::fprintf(f, "\"thread_invariant\": %s}%s\n",
                 r.thread_invariant ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"failover\": {\n");
  std::fprintf(f, "    ");
  json_doubles(f, "rate_qps", failover.rate_qps, ",\n");
  std::fprintf(f, "    \"replicas\": %zu,\n", failover.replicas);
  std::fprintf(f, "    \"kill_replica\": %zu,\n", failover.kill_replica);
  std::fprintf(f, "    \"kill_superstep\": %llu,\n",
               static_cast<unsigned long long>(failover.kill_superstep));
  std::fprintf(f, "    \"failovers\": %llu,\n",
               static_cast<unsigned long long>(failover.failovers));
  json_failover_row(f, "steady", failover.steady, ",");
  json_failover_row(f, "under_kill", failover.under_kill, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micro.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", ", micro[i].name.c_str());
    json_doubles(f, "sim_seconds", micro[i].sim_seconds, ", ");
    std::fprintf(f, "\"edges_scanned\": %llu}%s\n",
                 static_cast<unsigned long long>(micro[i].edges_scanned),
                 i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

struct ArmStats {
  double min_a = 0, min_b = 0, min_c = 0;
  double med_a = 0, med_b = 0, med_c = 0;
};

bool write_overhead_json(const std::string& path, const BaselineConfig& cfg,
                         const ArmStats& arms, double total_sim,
                         std::uint64_t events_recorded) {
  // Overhead is compared on per-arm *minima*: the minimum over interleaved
  // repetitions is the standard noise-floor estimator (scheduler and cache
  // interference only ever add time). Medians are recorded alongside for
  // context but not gated on.
  const double disabled_pct =
      arms.min_a > 0 ? std::abs(arms.min_b - arms.min_a) / arms.min_a * 100.0
                     : 0.0;
  const double enabled_pct =
      arms.min_a > 0 ? (arms.min_c - arms.min_a) / arms.min_a * 100.0 : 0.0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"trace_overhead\",\n");
  std::fprintf(f, "  \"generated_by\": \"bench/baseline_runner\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", cfg.mode);
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"dataset\": \"FRS-100B\",\n");
  std::fprintf(f, "    \"scale_shift\": %d,\n", cfg.scale_shift);
  std::fprintf(f, "    \"machines\": %u,\n", cfg.machines);
  std::fprintf(f, "    \"queries\": %zu,\n", cfg.overhead_queries);
  std::fprintf(f, "    \"k\": %u,\n", static_cast<unsigned>(cfg.k));
  std::fprintf(f, "    \"reps\": %zu\n", cfg.reps);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"wall_seconds\": {\n");
  std::fprintf(f, "    ");
  json_doubles(f, "disabled_min", arms.min_a, ",\n");
  std::fprintf(f, "    ");
  json_doubles(f, "disabled_rerun_min", arms.min_b, ",\n");
  std::fprintf(f, "    ");
  json_doubles(f, "enabled_min", arms.min_c, ",\n");
  std::fprintf(f, "    ");
  json_doubles(f, "disabled_median", arms.med_a, ",\n");
  std::fprintf(f, "    ");
  json_doubles(f, "disabled_rerun_median", arms.med_b, ",\n");
  std::fprintf(f, "    ");
  json_doubles(f, "enabled_median", arms.med_c, "\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  ");
  json_doubles(f, "disabled_overhead_pct", disabled_pct, ",\n");
  std::fprintf(f, "  ");
  json_doubles(f, "enabled_overhead_pct", enabled_pct, ",\n");
  std::fprintf(f, "  \"sim_identical_across_arms\": true,\n");
  std::fprintf(f, "  ");
  json_doubles(f, "total_sim_seconds", total_sim, ",\n");
  std::fprintf(f, "  \"events_recorded_enabled\": %llu\n",
               static_cast<unsigned long long>(events_recorded));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("trace overhead (min over reps): off %.4fs / off-rerun %.4fs "
              "/ on %.4fs (disabled spread %.2f%%, enabled %+.2f%%)\n",
              arms.min_a, arms.min_b, arms.min_c, disabled_pct, enabled_pct);
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts(argc, argv);
  Flags f(opts);
  const BaselineConfig cfg = resolve_config(f);
  const std::string out_dir = f.str("out-dir", ".");
  const auto dense_machines =
      static_cast<PartitionId>(f.num("dense-machines", 1, 1, 4096));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DirectionOptions dense_direction;
  dense_direction.alpha = f.real("dense-alpha", dense_direction.alpha, 0,
                                 kInf, /*positive=*/true);
  dense_direction.beta = f.real("dense-beta", dense_direction.beta, 0, kInf,
                                /*positive=*/true);
  const bool dense_levels = f.has("dense-levels");
  f.done();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  print_header("Committed perf baseline (BENCH_fig12 + BENCH_trace_overhead)",
               std::string("mode=") + cfg.mode + ", " +
                   std::to_string(cfg.machines) + " machines");

  ShardedGraph sg = make_dataset_sharded("FRS-100B", cfg.scale_shift,
                                         cfg.machines,
                                         /*build_in_edges=*/false);
  std::printf("graph: %s\n", sg.graph.summary().c_str());
  Cluster cluster(cfg.machines, paper_cost_model());

  // Same calibration as fig12_querycount: budget = 1.5x the 100-query
  // closed-loop footprint, so high rates run into the memory model.
  const auto probe =
      make_random_queries(sg.graph, cfg.overhead_queries, cfg.k, cfg.seed);
  std::uint64_t budget = 0;
  double probe_sim = 0;
  std::uint64_t probe_edges = 0;
  {
    const auto run =
        run_concurrent_queries(cluster, sg.shards, sg.partition, probe);
    budget = static_cast<std::uint64_t>(
        static_cast<double>(run.peak_memory_bytes) * 1.5);
    probe_sim = run.total_sim_seconds;
    probe_edges = run.total_edges_scanned;
  }

  // --- Open-loop sweep: every rate at 1 and 4 compute threads. The two
  // runs must agree on every sim-domain number; the committed row keeps
  // the verdict so a future divergence fails schema validation loudly.
  std::printf("\nopen loop sweep: %zu arrivals/rate, threads {1,4}\n",
              cfg.queries);
  std::printf("  %10s %6s %8s %9s %9s %9s %8s %7s\n", "rate(qps)", "shed",
              "expired", "p50(s)", "p95(s)", "p99(s)", "batches", "thr-ok");
  std::vector<SweepRow> rows;
  bool all_invariant = true;
  for (const double rate : cfg.rates) {
    SweepRow serial = run_rate(cfg, sg, cluster, budget, rate, 1);
    const SweepRow threaded = run_rate(cfg, sg, cluster, budget, rate, 4);
    serial.thread_invariant = rows_equal(serial, threaded);
    all_invariant = all_invariant && serial.thread_invariant;
    std::printf("  %10.0f %6llu %8llu %9.4f %9.4f %9.4f %8llu %7s\n", rate,
                static_cast<unsigned long long>(serial.shed),
                static_cast<unsigned long long>(serial.expired), serial.p50,
                serial.p95, serial.p99,
                static_cast<unsigned long long>(serial.batches),
                serial.thread_invariant ? "yes" : "NO");
    rows.push_back(serial);
  }
  CGRAPH_CHECK_MSG(all_invariant,
                   "sim results diverged between 1 and 4 compute threads");

  // --- Micro set: single-number probes that bracket the engines.
  // Both run on the simulated cluster — the single-machine msbfs_batch
  // equates sim with wall and would not be host-reproducible.
  std::vector<MicroRow> micro;
  {
    const std::size_t width = std::min<std::size_t>(64, probe.size());
    SchedulerOptions one_batch;
    one_batch.batch_width = width;
    const auto r = run_concurrent_queries(
        cluster, sg.shards, sg.partition,
        std::span(probe.data(), width), one_batch);
    micro.push_back({"distributed_msbfs_single_batch", r.total_sim_seconds,
                     r.total_edges_scanned});
  }
  micro.push_back({"closed_loop_concurrent", probe_sim, probe_edges});

  // --- Dense-frontier direction arm. The main sweep's shards are built
  // without in-edges, so the hybrid policy degrades to push there; this
  // arm rebuilds the same dataset with the CSC mirror and runs one
  // saturating 64-wide deep batch under forced push and under the default
  // hybrid policy (DESIGN.md §12). Both numbers are sim-domain, and
  // ci/validate_bench.py gates the committed pair: hybrid must never be
  // more than 5% slower than push. edges_scanned is expected to differ —
  // pull levels charge parents examined, not frontier out-edges.
  //
  // The arm runs on a single-machine cluster by default: cross-partition
  // edges must be pushed in every mode (the wire format is
  // direction-agnostic), so partition locality caps the multi-machine win
  // at the intra-partition edge fraction and the measurement would mostly
  // reflect the partitioner. --dense-machines/--dense-alpha/--dense-beta/
  // --dense-levels expose the locality and threshold sweeps recorded in
  // EXPERIMENTS.md.
  {
    const ShardedGraph dense = make_dataset_sharded(
        "FRS-100B", cfg.scale_shift, dense_machines,
        /*build_in_edges=*/true);
    Cluster dense_cluster(dense_machines, paper_cost_model());
    const Depth dense_k = 6;  // deep enough that mid-levels saturate
    // Hot-spot batch: 64 queries over 8 hot roots (the concurrent-query
    // sharing case the paper optimizes for). Correlated rows agree on
    // their wanted bits, which is where the pull kernel's early exit
    // pays off.
    const auto hot =
        make_random_queries(dense.graph, 8, dense_k, cfg.seed + 1);
    std::vector<KHopQuery> dense_queries;
    for (QueryId i = 0; i < 64; ++i) {
      dense_queries.push_back({i, hot[i % hot.size()].source, dense_k});
    }
    const auto run_mode = [&](TraversalDirection mode) {
      SchedulerOptions one_batch;
      one_batch.batch_width = dense_queries.size();
      one_batch.direction = dense_direction;
      one_batch.direction.mode = mode;
      return run_concurrent_queries(dense_cluster, dense.shards,
                                    dense.partition, dense_queries,
                                    one_batch);
    };
    const auto push = run_mode(TraversalDirection::kPush);
    const auto hybrid = run_mode(TraversalDirection::kHybrid);
    if (dense_levels) {
      const auto dump = [](const char* tag, const ConcurrentRunResult& r) {
        for (const auto& b : r.telemetry.batches) {
          for (const auto& lv : b.levels) {
            std::printf("  %s L%u frontier=%llu edges=%llu scout=%llu "
                        "push=%u pull=%u\n",
                        tag, lv.level,
                        static_cast<unsigned long long>(lv.frontier_vertices),
                        static_cast<unsigned long long>(lv.edges_scanned),
                        static_cast<unsigned long long>(lv.scout_edges),
                        lv.push_machines, lv.pull_machines);
          }
        }
      };
      dump("push", push);
      dump("hyb ", hybrid);
    }
    for (std::size_t i = 0; i < push.queries.size(); ++i) {
      CGRAPH_CHECK_MSG(push.queries[i].visited == hybrid.queries[i].visited,
                       "hybrid direction changed a query answer");
    }
    micro.push_back({"dense_frontier_push", push.total_sim_seconds,
                     push.total_edges_scanned});
    micro.push_back({"dense_frontier_hybrid", hybrid.total_sim_seconds,
                     hybrid.total_edges_scanned});
    std::printf("\ndense frontier (k=%u, width %zu): push %.4fs sim / "
                "hybrid %.4fs sim (%+.1f%%)\n",
                static_cast<unsigned>(dense_k), dense_queries.size(),
                push.total_sim_seconds, hybrid.total_sim_seconds,
                (hybrid.total_sim_seconds / push.total_sim_seconds - 1.0) *
                    100.0);
  }

  // --- Index arm (DESIGN.md §13): the same point reachability question
  // answered twice — once by a reachability-index probe (index_hit: the
  // modeled O(labels + gate words) cost of one conclusive probe) and once
  // by the distributed MS-BFS engine (index_traversal). Both numbers are
  // sim-domain, and ci/validate_bench.py gates the committed pair:
  // index_hit must cost at most 5% of index_traversal (>= 20x speedup).
  // The pair is found by scanning seeded random (s, t) pairs for one the
  // index answers conclusively, then differentially checked against the
  // traversal's visited plane.
  {
    const ReachIndex index = ReachIndex::build(sg.graph, {});
    Xoshiro256 pair_rng(cfg.seed + 2);
    VertexId ps = 0, pt = 0;
    IndexVerdict verdict = IndexVerdict::kUnknown;
    for (int attempt = 0;
         attempt < 4096 && verdict == IndexVerdict::kUnknown; ++attempt) {
      ps = static_cast<VertexId>(pair_rng.next_bounded(
          sg.graph.num_vertices()));
      pt = static_cast<VertexId>(pair_rng.next_bounded(
          sg.graph.num_vertices()));
      if (ps == pt) continue;  // zero-hop answers would flatter the index
      verdict = index.query(ps, pt);
    }
    CGRAPH_CHECK_MSG(verdict != IndexVerdict::kUnknown,
                     "no conclusively index-answerable pair in 4096 draws");
    const KHopQuery point{0, ps, kUnvisitedDepth, pt};
    QueryBitRows visited_plane;
    const auto trav = run_distributed_msbfs(cluster, sg.shards, sg.partition,
                                            std::span(&point, 1), {},
                                            &visited_plane);
    const bool reached = visited_plane.test(pt, 0);
    CGRAPH_CHECK_MSG(reached == (verdict == IndexVerdict::kReachable),
                     "index verdict disagrees with the traversal engine");
    micro.push_back({"index_hit", index.probe_sim_seconds(), 0});
    micro.push_back({"index_traversal", trav.sim_seconds,
                     trav.edges_scanned});
    std::printf("\nindex arm: %u -> %u is %s; probe %.3g s sim vs "
                "traversal %.3g s sim (%.0fx)\n",
                ps, pt, to_string(verdict), index.probe_sim_seconds(),
                trav.sim_seconds,
                trav.sim_seconds / index.probe_sim_seconds());
  }

  // --- Mutation arm (DESIGN.md §15): the same seeded 64-wide k-hop batch
  // answered on a frozen graph (mutation_frozen: the trace folded into the
  // tiled CSR by compaction) and on shards still carrying the identical
  // trace as uncompacted per-partition delta events (mutation_stream: the
  // merged base+delta scan every hot loop runs while writers stream).
  // Both arms replay the same seeded trace over the same partition, the
  // runner aborts unless the two visited planes are bit-identical, and
  // ci/validate_bench.py gates the committed pair: the delta overlay may
  // cost at most 50% more sim time than the compacted equivalent.
  // edges_scanned differs legitimately — tombstoned base edges are still
  // examined (then skipped) by the streaming scan.
  {
    MutationTraceOptions topt;
    topt.seed = cfg.seed + 3;
    topt.num_epochs = 3;
    topt.ops_per_epoch = std::max<std::size_t>(
        32, static_cast<std::size_t>(sg.graph.num_edges()) / 64);
    topt.delete_fraction = 0.25;
    const MutationTrace trace = generate_mutation_trace(sg.graph, topt);

    ShardedGraph stream = make_dataset_sharded(
        "FRS-100B", cfg.scale_shift, cfg.machines, /*build_in_edges=*/false);
    ShardedGraph frozen = make_dataset_sharded(
        "FRS-100B", cfg.scale_shift, cfg.machines, /*build_in_edges=*/false);
    for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
      apply_trace_epoch(std::span(stream.shards), trace, e);
      apply_trace_epoch(std::span(frozen.shards), trace, e);
    }
    for (auto& shard : frozen.shards) shard.compact();

    Cluster mut_cluster(cfg.machines, paper_cost_model());
    const std::size_t width = std::min<std::size_t>(64, probe.size());
    SchedulerOptions one_batch;
    one_batch.batch_width = width;
    const auto frozen_run = run_concurrent_queries(
        mut_cluster, frozen.shards, frozen.partition,
        std::span(probe.data(), width), one_batch);
    const auto stream_run = run_concurrent_queries(
        mut_cluster, stream.shards, stream.partition,
        std::span(probe.data(), width), one_batch);
    for (std::size_t i = 0; i < frozen_run.queries.size(); ++i) {
      CGRAPH_CHECK_MSG(
          frozen_run.queries[i].visited == stream_run.queries[i].visited,
          "delta overlay changed a query answer vs the compacted graph");
    }
    micro.push_back({"mutation_frozen", frozen_run.total_sim_seconds,
                     frozen_run.total_edges_scanned});
    micro.push_back({"mutation_stream", stream_run.total_sim_seconds,
                     stream_run.total_edges_scanned});
    std::printf("\nmutation arm (%zu ops over %zu epochs, width %zu): "
                "frozen %.4fs sim / stream %.4fs sim (%+.1f%%)\n",
                trace.num_ops(), trace.epochs.size(), width,
                frozen_run.total_sim_seconds, stream_run.total_sim_seconds,
                (stream_run.total_sim_seconds /
                     frozen_run.total_sim_seconds - 1.0) * 100.0);
  }

  // --- Failover arm (DESIGN.md §14): the same open-loop stream served by
  // a 2-replica router, steady vs with the first batch's replica killed
  // mid-execution. Both runs are sim-domain and seeded, so the pair is
  // bit-reproducible; ci/validate_bench.py gates under_kill p99 at <= 3x
  // steady p99 — the "replica loss degrades latency, never correctness"
  // claim (run_failover_rate CHECKs that every query still completes).
  FailoverArm failover;
  failover.rate_qps = cfg.rates[cfg.rates.size() / 2];
  failover.kill_superstep = 2;
  failover.steady = run_failover_rate(cfg, sg, budget, failover.rate_qps,
                                      /*kill=*/false, failover.kill_superstep,
                                      nullptr, nullptr);
  failover.under_kill = run_failover_rate(
      cfg, sg, budget, failover.rate_qps, /*kill=*/true,
      failover.kill_superstep, &failover.kill_replica, &failover.failovers);
  std::printf("\nfailover arm (rate %.0f qps, kill replica %zu @ superstep "
              "%llu): steady p99 %.4fs sim / under-kill p99 %.4fs sim "
              "(%.2fx), %llu failover(s)\n",
              failover.rate_qps, failover.kill_replica,
              static_cast<unsigned long long>(failover.kill_superstep),
              failover.steady.p99, failover.under_kill.p99,
              failover.steady.p99 > 0
                  ? failover.under_kill.p99 / failover.steady.p99
                  : 0.0,
              static_cast<unsigned long long>(failover.failovers));

  // --- Trace overhead: interleaved A (off), B (off again), C (on) so
  // host drift hits every arm equally within a repetition.
  std::printf("\ntrace overhead: %zu reps x 3 arms, %zu queries each\n",
              cfg.reps, cfg.overhead_queries);
  std::vector<double> wall_a, wall_b, wall_c;
  std::vector<double> sims;
  std::uint64_t events_recorded = 0;
  for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
    for (int arm = 0; arm < 3; ++arm) {
      std::unique_ptr<obs::EventTracer> tracer;
      std::unique_ptr<obs::EventTracer::Scope> scope;
      if (arm == 2) {
        obs::EventTracer::Options topt;
        topt.ring_capacity = std::size_t{1} << 18;
        tracer = std::make_unique<obs::EventTracer>(topt);
        scope = std::make_unique<obs::EventTracer::Scope>(*tracer);
      }
      WallTimer wall;
      const auto run =
          run_concurrent_queries(cluster, sg.shards, sg.partition, probe);
      const double elapsed = wall.seconds();
      scope.reset();
      if (arm == 0) wall_a.push_back(elapsed);
      if (arm == 1) wall_b.push_back(elapsed);
      if (arm == 2) {
        wall_c.push_back(elapsed);
        events_recorded = tracer->recorded();
      }
      sims.push_back(run.total_sim_seconds);
    }
  }
  for (const double s : sims) {
    CGRAPH_CHECK_MSG(s == sims.front(),
                     "tracer arm perturbed the simulated clock");
  }

  const std::string fig12_path = out_dir + "/BENCH_fig12.json";
  const std::string overhead_path = out_dir + "/BENCH_trace_overhead.json";
  if (!write_fig12_json(fig12_path, cfg, budget, rows, failover, micro)) {
    std::fprintf(stderr, "cannot write %s\n", fig12_path.c_str());
    return 1;
  }
  ArmStats arms;
  arms.min_a = minimum(wall_a);
  arms.min_b = minimum(wall_b);
  arms.min_c = minimum(wall_c);
  arms.med_a = median(wall_a);
  arms.med_b = median(wall_b);
  arms.med_c = median(wall_c);
  if (!write_overhead_json(overhead_path, cfg, arms, sims.front(),
                           events_recorded)) {
    std::fprintf(stderr, "cannot write %s\n", overhead_path.c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", fig12_path.c_str(), overhead_path.c_str());
  return 0;
} catch (const FlagError& e) {
  return flag_error(argv[0], e);
}
