// Acceptance suite for the online query service (DESIGN.md §10): open-loop
// arrivals x {clean, chaos, crash} x thread counts, asserting
//   * the admitted set is answered bit-exactly vs a replay of each batch
//     through the engine (same admitted batch => same visited/levels),
//   * the closed world (run_concurrent_queries) is the service on a t=0
//     stream: same answers, sim times and batch traces,
//   * the counter identities submitted = admitted + shed and
//     admitted = completed + expired hold in every configuration,
//   * pipelined and serial execution produce identical outcomes,
// plus targeted tests for backpressure shedding, deadline expiry, the two
// batch-sealing triggers (width / max-linger), determinism, and the
// cgraph_service_* metrics surface.
#include <gtest/gtest.h>

#include <memory>

#include "cgraph/cgraph.hpp"
#include "net/fault.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

/// Graph + partition shared by every cluster in a test (clusters are
/// per-run so fault plans and thread settings never leak between runs).
struct World {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;

  explicit World(PartitionId machines, unsigned scale = 7,
                 std::uint64_t seed = 91)
      : graph([&] {
          RmatParams p;
          p.scale = scale;
          p.edge_factor = 6;
          p.seed = seed;
          return Graph::build(generate_rmat(p), VertexId{1} << scale);
        }()),
        partition(RangePartition::balanced_by_edges(graph, machines)),
        shards(build_shards(graph, partition)) {}
};

/// Light probabilistic fault mix (same shape as the chaos suite).
FaultPlan make_chaos_plan(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultPlan plan(seed);
  LinkFaultSpec mix;
  mix.drop = 0.05 + 0.10 * rng.next_double();
  mix.duplicate = 0.08 * rng.next_double();
  mix.reorder = 0.08 * rng.next_double();
  plan.set_default_link(mix);
  return plan;
}

/// Bit-exactness vs the engine: every executed batch, replayed in
/// execution order through run_distributed_msbfs on a fresh fault-free
/// cluster, must report the same visited/levels the service recorded.
void expect_batches_match_replay(const World& w, PartitionId machines,
                                 std::span<const TimedQuery> arrivals,
                                 const ServiceRunResult& run) {
  for (const ServiceBatchRecord& batch : run.batches) {
    if (batch.executed.empty()) continue;
    std::vector<KHopQuery> replay;
    replay.reserve(batch.executed.size());
    for (QueryId id : batch.executed) {
      replay.push_back(arrivals[id].query);
    }
    Cluster fresh(machines);
    const MsBfsBatchResult ref =
        run_distributed_msbfs(fresh, w.shards, w.partition, replay);
    for (std::size_t i = 0; i < replay.size(); ++i) {
      const ServiceQueryRecord& rec = run.queries[replay[i].id];
      EXPECT_EQ(rec.outcome, ServiceOutcome::kCompleted);
      EXPECT_EQ(rec.visited, ref.visited[i])
          << "batch " << batch.index << " query " << replay[i].id;
      EXPECT_EQ(rec.levels, ref.levels[i])
          << "batch " << batch.index << " query " << replay[i].id;
    }
  }
}

// The acceptance sweep: Poisson arrivals x {clean, chaos, crash} x {1, 4}
// compute threads. Every configuration must answer every admitted query
// exactly (vs the serial reference AND an engine replay per batch)
// and keep the counter identities.
TEST(Service, AcceptanceSweepCleanChaosCrash) {
  const PartitionId machines = 3;
  World w(machines, /*scale=*/7);
  PoissonArrivalParams ap;
  ap.rate_qps = 2000;
  ap.count = 60;
  ap.k = 3;
  ap.seed = 5;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  enum class Mode { kClean, kChaos, kCrash };
  for (const Mode mode : {Mode::kClean, Mode::kChaos, Mode::kCrash}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      Cluster cluster(machines);
      if (mode == Mode::kChaos) {
        cluster.fabric().install_fault_plan(
            std::make_shared<FaultPlan>(make_chaos_plan(17)));
      } else if (mode == Mode::kCrash) {
        FaultPlan plan(23);
        plan.add_crash(1, 4);
        cluster.fabric().install_fault_plan(
            std::make_shared<FaultPlan>(std::move(plan)));
        cluster.set_recovery(RecoveryOptions{});
      }

      obs::MetricsRegistry registry;
      ServiceOptions opts;
      opts.scheduler.batch_width = 16;
      opts.scheduler.threads = threads;
      opts.scheduler.metrics = &registry;
      opts.queue_cap = 0;       // nothing shed: the whole stream executes
      opts.linger_seconds = 5e-4;
      const auto run = run_query_service(cluster, w.shards, w.partition,
                                         arrivals, opts);

      EXPECT_TRUE(run.stats.identities_hold());
      EXPECT_EQ(run.stats.submitted, arrivals.size());
      EXPECT_EQ(run.stats.shed, 0u);
      EXPECT_EQ(run.stats.expired, 0u);
      EXPECT_EQ(run.stats.completed, arrivals.size());
      // Without a router there are no replicas to fail over between.
      EXPECT_EQ(run.stats.failovers, 0u);
      EXPECT_EQ(run.stats.failover_shed, 0u);
      EXPECT_GT(run.stats.batches, 1u);

      for (const TimedQuery& tq : arrivals) {
        const ServiceQueryRecord& rec = run.queries[tq.query.id];
        EXPECT_EQ(rec.outcome, ServiceOutcome::kCompleted);
        EXPECT_EQ(rec.visited,
                  khop_reach_count(w.graph, tq.query.source, tq.query.k))
            << "query " << tq.query.id;
        EXPECT_GE(rec.queue_wait_sim_seconds, 0.0);
        EXPECT_GE(rec.response_sim_seconds, rec.execute_sim_seconds);
      }
      expect_batches_match_replay(w, machines, arrivals, run);
    }
  }
}

// Pipelined (admission overlapped with execution on a worker thread) and
// serial execution must produce byte-identical outcomes: every decision is
// a pure function of arrival times and simulated makespans.
TEST(Service, PipelinedMatchesSerial) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/7, /*seed=*/101);
  PoissonArrivalParams ap;
  ap.rate_qps = 5000;
  ap.count = 48;
  ap.seed = 9;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  ServiceRunResult runs[2];
  for (const bool pipelined : {true, false}) {
    Cluster cluster(machines);
    obs::MetricsRegistry registry;
    ServiceOptions opts;
    opts.scheduler.batch_width = 8;
    opts.scheduler.threads = 2;
    opts.scheduler.metrics = &registry;
    opts.queue_cap = 12;
    opts.deadline_seconds = 0.05;
    opts.linger_seconds = 2e-4;
    opts.pipeline = pipelined;
    runs[pipelined ? 0 : 1] = run_query_service(cluster, w.shards,
                                                w.partition, arrivals, opts);
  }
  const ServiceRunResult& a = runs[0];
  const ServiceRunResult& b = runs[1];
  EXPECT_TRUE(a.stats.identities_hold());
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.stats.expired, b.stats.expired);
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.peak_queue_depth, b.stats.peak_queue_depth);
  EXPECT_EQ(a.makespan_sim_seconds, b.makespan_sim_seconds);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].outcome, b.queries[i].outcome) << "query " << i;
    EXPECT_EQ(a.queries[i].batch_index, b.queries[i].batch_index);
    EXPECT_EQ(a.queries[i].queue_wait_sim_seconds,
              b.queries[i].queue_wait_sim_seconds);
    EXPECT_EQ(a.queries[i].response_sim_seconds,
              b.queries[i].response_sim_seconds);
    EXPECT_EQ(a.queries[i].visited, b.queries[i].visited);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].executed, b.batches[i].executed) << "batch " << i;
    EXPECT_EQ(a.batches[i].start_sim_seconds, b.batches[i].start_sim_seconds);
  }
}

TEST(Service, RepeatRunsAreDeterministic) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/6);
  PoissonArrivalParams ap;
  ap.rate_qps = 3000;
  ap.count = 30;
  ap.seed = 77;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  ServiceRunResult runs[2];
  for (int r = 0; r < 2; ++r) {
    Cluster cluster(machines);
    ServiceOptions opts;
    obs::MetricsRegistry registry;
    opts.scheduler.metrics = &registry;
    opts.scheduler.batch_width = 8;
    opts.queue_cap = 10;
    opts.deadline_seconds = 0.02;
    runs[r] = run_query_service(cluster, w.shards, w.partition, arrivals,
                                opts);
  }
  ASSERT_EQ(runs[0].queries.size(), runs[1].queries.size());
  for (std::size_t i = 0; i < runs[0].queries.size(); ++i) {
    EXPECT_EQ(runs[0].queries[i].outcome, runs[1].queries[i].outcome);
    EXPECT_EQ(runs[0].queries[i].response_sim_seconds,
              runs[1].queries[i].response_sim_seconds);
  }
  EXPECT_EQ(runs[0].stats.shed, runs[1].stats.shed);
  EXPECT_EQ(runs[0].makespan_sim_seconds, runs[1].makespan_sim_seconds);
}

// A burst far above the queue bound must shed the overflow at admission —
// and still keep the identities and answer everything it admitted.
TEST(Service, BoundedQueueShedsBurst) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/7);
  const std::vector<double> stamps(20, 0.0);  // everything arrives at once
  const auto arrivals = make_trace_arrivals(w.graph, stamps, /*k=*/3, 3);

  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 4;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 6;
  opts.linger_seconds = 1.0;  // width is the only live seal trigger
  const auto run = run_query_service(cluster, w.shards, w.partition,
                                     arrivals, opts);

  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.submitted, 20u);
  EXPECT_GT(run.stats.shed, 0u);
  EXPECT_GT(run.stats.completed, 0u);
  EXPECT_EQ(run.stats.expired, 0u);  // no deadline configured
  EXPECT_LE(run.stats.peak_queue_depth, opts.queue_cap);
  for (const ServiceQueryRecord& rec : run.queries) {
    if (rec.outcome == ServiceOutcome::kShed) {
      EXPECT_EQ(rec.batch_index, ServiceQueryRecord::kNoBatch);
    } else {
      EXPECT_EQ(rec.visited,
                khop_reach_count(w.graph, arrivals[rec.id].query.source,
                                 arrivals[rec.id].query.k));
    }
  }
  expect_batches_match_replay(w, machines, arrivals, run);
}

// The queue-depth gauges track the admission loop live: high_water must
// equal the run's peak_queue_depth stat after a burst, and the current
// depth can never have exceeded it (or the cap).
TEST(Service, QueueDepthGaugesTrackBurst) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/7);
  const std::vector<double> stamps(20, 0.0);  // burst: all arrive at once
  const auto arrivals = make_trace_arrivals(w.graph, stamps, /*k=*/3, 3);

  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 4;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 6;
  opts.linger_seconds = 1.0;
  const auto run = run_query_service(cluster, w.shards, w.partition,
                                     arrivals, opts);

  const double high_water =
      registry
          .gauge("cgraph_service_queue_depth", "", {{"stat", "high_water"}})
          .value();
  const double current =
      registry
          .gauge("cgraph_service_queue_depth", "", {{"stat", "current"}})
          .value();
  EXPECT_GT(run.stats.peak_queue_depth, 0u);
  EXPECT_DOUBLE_EQ(high_water,
                   static_cast<double>(run.stats.peak_queue_depth));
  EXPECT_LE(current, high_water);
  EXPECT_LE(high_water, static_cast<double>(opts.queue_cap));
  // Both series appear in the exposition output.
  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("cgraph_service_queue_depth{stat=\"current\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("cgraph_service_queue_depth{stat=\"high_water\"}"),
            std::string::npos);
}

// Deadline expiry: with a near-zero deadline and single-query batches,
// only the batch that starts immediately completes; everything queued
// behind it has already missed its deadline when it reaches the head of
// the line and is dropped without burning cluster time.
TEST(Service, DeadlineExpiresQueuedQueries) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/6);
  const std::vector<double> stamps(6, 0.0);
  const auto arrivals = make_trace_arrivals(w.graph, stamps, /*k=*/2, 7);

  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 1;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 0;
  opts.deadline_seconds = 1e-12;
  const auto run = run_query_service(cluster, w.shards, w.partition,
                                     arrivals, opts);

  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.completed, 1u);
  EXPECT_EQ(run.stats.expired, 5u);
  EXPECT_EQ(run.queries[0].outcome, ServiceOutcome::kCompleted);
  for (std::size_t i = 1; i < run.queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].outcome, ServiceOutcome::kExpired);
    EXPECT_GT(run.queries[i].queue_wait_sim_seconds, opts.deadline_seconds);
  }
  // Expired members stay recorded on their batch.
  std::size_t expired_on_batches = 0;
  for (const ServiceBatchRecord& b : run.batches) {
    expired_on_batches += b.expired;
  }
  EXPECT_EQ(expired_on_batches, 5u);
}

// Max-linger sealing: arrivals inside one linger window batch together; a
// later arrival seals the window at exactly oldest + linger.
TEST(Service, LingerSealsPartialBatches) {
  const PartitionId machines = 1;
  World w(machines, /*scale=*/6);
  const std::vector<double> stamps = {0.0, 0.001, 0.002, 0.05};
  const auto arrivals = make_trace_arrivals(w.graph, stamps, /*k=*/2, 11);

  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 64;
  opts.scheduler.metrics = &registry;
  opts.linger_seconds = 0.01;
  const auto run = run_query_service(cluster, w.shards, w.partition,
                                     arrivals, opts);

  ASSERT_EQ(run.batches.size(), 2u);
  EXPECT_EQ(run.batches[0].admitted, 3u);
  EXPECT_DOUBLE_EQ(run.batches[0].seal_sim_seconds, 0.01);
  EXPECT_EQ(run.batches[1].admitted, 1u);
  EXPECT_DOUBLE_EQ(run.batches[1].seal_sim_seconds, 0.06);
  EXPECT_EQ(run.stats.completed, 4u);
}

// Width sealing: a full window seals immediately regardless of linger.
// Zero linger seals at the oldest arrival once every arrival stamped at or
// before it is admitted: simultaneous arrivals share one batch, distinct
// stamps get one batch each.
TEST(Service, WidthAndZeroLingerSealing) {
  const PartitionId machines = 1;
  World w(machines, /*scale=*/6);
  const std::vector<double> stamps(6, 0.0);
  const auto arrivals = make_trace_arrivals(w.graph, stamps, /*k=*/2, 13);

  {
    Cluster cluster(machines);
    obs::MetricsRegistry registry;
    ServiceOptions opts;
    opts.scheduler.batch_width = 2;
    opts.scheduler.metrics = &registry;
    opts.linger_seconds = 10.0;
    const auto run = run_query_service(cluster, w.shards, w.partition,
                                       arrivals, opts);
    ASSERT_EQ(run.batches.size(), 3u);
    for (const ServiceBatchRecord& b : run.batches) {
      EXPECT_EQ(b.admitted, 2u);
      EXPECT_DOUBLE_EQ(b.seal_sim_seconds, 0.0);
    }
  }
  {
    Cluster cluster(machines);
    obs::MetricsRegistry registry;
    ServiceOptions opts;
    opts.scheduler.batch_width = 64;
    opts.scheduler.metrics = &registry;
    opts.linger_seconds = 0;
    const auto run = run_query_service(cluster, w.shards, w.partition,
                                       arrivals, opts);
    ASSERT_EQ(run.batches.size(), 1u);
    EXPECT_EQ(run.batches[0].admitted, 6u);
    EXPECT_EQ(run.batches[0].seal_sim_seconds, 0.0);
  }
  {
    const std::vector<double> distinct = {0.0, 0.001, 0.002, 0.003};
    const auto spread = make_trace_arrivals(w.graph, distinct, /*k=*/2, 13);
    Cluster cluster(machines);
    obs::MetricsRegistry registry;
    ServiceOptions opts;
    opts.scheduler.batch_width = 64;
    opts.scheduler.metrics = &registry;
    opts.linger_seconds = 0;
    const auto run = run_query_service(cluster, w.shards, w.partition,
                                       spread, opts);
    ASSERT_EQ(run.batches.size(), distinct.size());
    for (std::size_t b = 0; b < distinct.size(); ++b) {
      EXPECT_EQ(run.batches[b].admitted, 1u);
      EXPECT_EQ(run.batches[b].seal_sim_seconds, distinct[b]);
    }
  }
}

// A negative linger has no seal time; like a zero batch_width it is a
// precondition failure, not a per-arrival special case.
TEST(ServiceDeathTest, NegativeLingerAborts) {
  const PartitionId machines = 1;
  World w(machines, /*scale=*/5);
  const std::vector<double> stamps(2, 0.0);
  const auto arrivals = make_trace_arrivals(w.graph, stamps, /*k=*/2, 13);
  ServiceOptions opts;
  opts.linger_seconds = -1e-3;
  EXPECT_DEATH(
      {
        Cluster cluster(machines);
        obs::MetricsRegistry registry;
        opts.scheduler.metrics = &registry;
        (void)run_query_service(cluster, w.shards, w.partition, arrivals,
                                opts);
      },
      "linger_seconds must be >= 0");
}

// The closed world is the service on a t=0 stream with zero linger, no
// queue bound and no deadline: for both policies and both engines, and a
// query count that is not a multiple of the width, run_concurrent_queries
// gives the same per-query answers and sim times as run_query_service on
// that stream, and the same batch traces.
TEST(Service, ClosedWorldEqualsServiceOnZeroStream) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/7, /*seed=*/57);
  const auto queries = make_random_queries(w.graph, 37, 3, 41);
  const auto degree_of = [&](VertexId v) { return w.graph.out_degree(v); };

  for (const bool sorted : {false, true}) {
    for (const bool bit_parallel : {true, false}) {
      SCOPED_TRACE(std::string(sorted ? "degree-sorted" : "fifo") +
                   (bit_parallel ? " bit-parallel" : " queue"));
      obs::MetricsRegistry registry;
      SchedulerOptions sched;
      sched.batch_width = 8;
      sched.use_bit_parallel = bit_parallel;
      sched.metrics = &registry;
      if (sorted) {
        sched.policy = BatchPolicy::kDegreeSorted;
        sched.degree_of = degree_of;
      }
      Cluster closed_cluster(machines);
      const auto closed = run_concurrent_queries(
          closed_cluster, w.shards, w.partition, queries, sched);

      // The t=0 stream in the order the closed world cuts its batches.
      std::vector<std::size_t> order(queries.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      if (sorted) {
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return degree_of(queries[a].source) >
                                  degree_of(queries[b].source);
                         });
      }
      std::vector<TimedQuery> stream;
      for (std::size_t i : order) stream.push_back({queries[i], 0.0});
      ServiceOptions opts;
      opts.scheduler = sched;
      opts.queue_cap = 0;
      opts.linger_seconds = 0;
      Cluster served_cluster(machines);
      const auto served = run_query_service(served_cluster, w.shards,
                                            w.partition, stream, opts);

      ASSERT_EQ(closed.batches, 5u);
      ASSERT_EQ(served.stats.batches, closed.batches);
      EXPECT_EQ(served.stats.completed, queries.size());
      for (std::size_t slot = 0; slot < stream.size(); ++slot) {
        const ServiceQueryRecord& rec = served.queries[slot];
        const QueryResult& qr = closed.queries[order[slot]];
        EXPECT_EQ(qr.id, rec.id) << "slot " << slot;
        EXPECT_EQ(qr.visited, rec.visited) << "slot " << slot;
        EXPECT_EQ(qr.levels, rec.levels) << "slot " << slot;
        EXPECT_EQ(qr.sim_seconds, rec.response_sim_seconds) << "slot " << slot;
      }
      EXPECT_EQ(closed.total_sim_seconds, served.makespan_sim_seconds);
      ASSERT_EQ(closed.telemetry.batches.size(),
                served.telemetry.batches.size());
      for (std::size_t b = 0; b < closed.telemetry.batches.size(); ++b) {
        const obs::BatchTrace& c = closed.telemetry.batches[b];
        const obs::BatchTrace& s = served.telemetry.batches[b];
        EXPECT_EQ(c.wait_sim_seconds, s.wait_sim_seconds) << "batch " << b;
        EXPECT_EQ(c.execute_sim_seconds, s.execute_sim_seconds)
            << "batch " << b;
        EXPECT_EQ(c.policy, s.policy) << "batch " << b;
      }
      EXPECT_EQ(closed.telemetry.effective_policy,
                sorted ? "degree-sorted" : "fifo");
    }
  }
}

// Degree-sorted batching inside the service window: answers stay exact,
// the effective policy is reported, and the batch replay still matches the
// engine.
TEST(Service, DegreeSortedWindowMatchesReplay) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/7, /*seed=*/131);
  PoissonArrivalParams ap;
  ap.rate_qps = 4000;
  ap.count = 40;
  ap.seed = 21;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 8;
  opts.scheduler.policy = BatchPolicy::kDegreeSorted;
  opts.scheduler.degree_of = [&](VertexId v) {
    return w.graph.out_degree(v);
  };
  opts.scheduler.metrics = &registry;
  const auto run = run_query_service(cluster, w.shards, w.partition,
                                     arrivals, opts);

  EXPECT_EQ(run.telemetry.effective_policy, "degree-sorted");
  EXPECT_TRUE(run.stats.identities_hold());
  for (const TimedQuery& tq : arrivals) {
    EXPECT_EQ(run.queries[tq.query.id].visited,
              khop_reach_count(w.graph, tq.query.source, tq.query.k));
  }
  // Executed order within each batch is sorted by descending degree
  // (stable on ties).
  for (const ServiceBatchRecord& b : run.batches) {
    for (std::size_t i = 1; i < b.executed.size(); ++i) {
      EXPECT_GE(
          w.graph.out_degree(arrivals[b.executed[i - 1]].query.source),
          w.graph.out_degree(arrivals[b.executed[i]].query.source));
    }
  }
  expect_batches_match_replay(w, machines, arrivals, run);
}

TEST(Service, EmptyArrivalStream) {
  const PartitionId machines = 1;
  World w(machines, /*scale=*/5);
  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.metrics = &registry;
  const auto run = run_query_service(cluster, w.shards, w.partition, {},
                                     opts);
  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.submitted, 0u);
  EXPECT_EQ(run.batches.size(), 0u);
  EXPECT_EQ(run.makespan_sim_seconds, 0.0);
  EXPECT_EQ(run.response_percentile(50), 0.0);
}

// The cgraph_service_* metrics surface: counters mirror the stats struct,
// the latency histograms count completed/admitted queries, and the
// exposition endpoint carries the series.
TEST(Service, MetricsPublishedAndConsistent) {
  const PartitionId machines = 2;
  World w(machines, /*scale=*/6);
  PoissonArrivalParams ap;
  ap.rate_qps = 1000;
  ap.count = 24;
  ap.seed = 3;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  Cluster cluster(machines);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 8;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 5;
  opts.deadline_seconds = 0.01;
  const auto run = run_query_service(cluster, w.shards, w.partition,
                                     arrivals, opts);

  const ServiceStats& s = run.stats;
  EXPECT_TRUE(s.identities_hold());
  EXPECT_EQ(registry.counter("cgraph_service_submitted_total").value(),
            static_cast<double>(s.submitted));
  EXPECT_EQ(registry.counter("cgraph_service_admitted_total").value(),
            static_cast<double>(s.admitted));
  EXPECT_EQ(registry.counter("cgraph_service_shed_total").value(),
            static_cast<double>(s.shed));
  EXPECT_EQ(registry.counter("cgraph_service_expired_total").value(),
            static_cast<double>(s.expired));
  EXPECT_EQ(registry.counter("cgraph_service_completed_total").value(),
            static_cast<double>(s.completed));
  EXPECT_EQ(registry.histogram("cgraph_service_response_seconds").count(),
            s.completed);
  EXPECT_EQ(registry.histogram("cgraph_service_queue_wait_seconds").count(),
            s.admitted);
  EXPECT_EQ(registry.histogram("cgraph_service_execute_seconds").count(),
            s.completed);

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("cgraph_service_submitted_total"), std::string::npos);
  EXPECT_NE(prom.find("cgraph_service_response_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("cgraph_service_peak_queue_depth"), std::string::npos);

  if (s.completed > 0) {
    const double p50 = run.response_percentile(50);
    const double p95 = run.response_percentile(95);
    const double p99 = run.response_percentile(99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    double max_response = 0;
    for (const ServiceQueryRecord& r : run.queries) {
      if (r.outcome == ServiceOutcome::kCompleted) {
        max_response = std::max(max_response, r.response_sim_seconds);
      }
    }
    EXPECT_DOUBLE_EQ(run.response_percentile(100), max_response);
  }
}

}  // namespace
}  // namespace cgraph
