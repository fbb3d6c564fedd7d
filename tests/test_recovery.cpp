// Crash-stop recovery suite: a FaultPlan kills simulated machines at
// scheduled supersteps (staged engines) or poll ticks (the async engine),
// the Cluster rolls every machine back to the latest checkpoint, and the
// replayed run must still agree bit-exactly with the fault-free serial
// reference — at 1 and N compute threads, with and without the chaos
// suite's probabilistic link faults layered on top. Each crashing run also
// checks the recovery invariants: crashes > 0 implies supersteps were
// replayed, checkpoints were taken, and the fabric's delivery-outcome
// counters still reconcile (replayed traffic is real traffic).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cgraph/cgraph.hpp"
#include "net/fault.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

/// The chaos suite's seeded probabilistic link-fault mix (combined ~35%,
/// well inside the retry budgets), layered under the crash schedule for the
/// "crashes AND link faults" variants.
void add_link_mix(FaultPlan& plan, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  LinkFaultSpec mix;
  mix.drop = 0.05 + 0.15 * rng.next_double();
  mix.duplicate = 0.10 * rng.next_double();
  mix.reorder = 0.10 * rng.next_double();
  mix.delay = 0.05 * rng.next_double();
  mix.delay_polls = 1 + static_cast<std::uint32_t>(rng.next_bounded(3));
  plan.set_default_link(mix);
}

/// Delivery outcomes are counted at deposit time, so the identity holds
/// even though a restore purges in-flight mailboxes mid-run.
void expect_counters_reconcile(const Fabric& fabric, PartitionId machines) {
  std::uint64_t attempts = 0, delivered = 0, dropped = 0, duplicated = 0;
  for (PartitionId i = 0; i < machines; ++i) {
    const TrafficCounters& t = fabric.sent_counters(i);
    attempts += t.attempts();
    delivered += t.delivered_packets.load(std::memory_order_relaxed);
    dropped += t.dropped_packets.load(std::memory_order_relaxed);
    duplicated += t.duplicated_packets.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(delivered, attempts - dropped + duplicated);
}

/// Recovery invariants every crashing run must satisfy. (checkpoints_taken
/// can legitimately be 0: a run short enough to finish in one engine loop
/// iteration only ever offers the skipped progress-0 checkpoint and
/// recovers from the baseline snapshot instead.)
void expect_recovery_invariants(const Cluster& cluster) {
  const RecoveryStats& rs = cluster.recovery_stats();
  if (rs.crashes > 0) {
    EXPECT_GT(rs.supersteps_replayed, 0u)
        << "a crash must force a replay, not a silent continue";
  }
}

/// Shared per-seed fixture: a random graph, partitioning, query wave, and
/// the fault-free serial expectations (same distributions as test_chaos,
/// sized down because every superstep gets its own crashing run).
struct TestBed {
  Graph g;
  PartitionId machines;
  RangePartition part;
  std::vector<SubgraphShard> shards;
  std::vector<KHopQuery> queries;
  std::vector<std::uint64_t> expected;
};

TestBed make_bed(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const VertexId n = 16 + static_cast<VertexId>(rng.next_bounded(80));
  const EdgeIndex m = 1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 4);
  Graph g = Graph::build(generate_uniform(n, m, rng.next()));
  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(3));
  auto part = RangePartition::balanced_by_edges(g, machines);
  auto shards = build_shards(g, part);
  std::vector<KHopQuery> queries;
  const std::size_t q_count = 1 + rng.next_bounded(4);
  for (QueryId i = 0; i < q_count; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())),
         static_cast<Depth>(1 + rng.next_bounded(3))});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }
  return TestBed{std::move(g), machines,           std::move(part),
                 std::move(shards), std::move(queries), std::move(expected)};
}

/// Build a cluster with recovery enabled and a crash of `victim` scheduled
/// at superstep (or tick) `at`, optionally with the link-fault mix.
std::unique_ptr<Cluster> make_crashing_cluster(const TestBed& bed,
                                               std::uint64_t seed,
                                               bool link_faults,
                                               std::size_t threads,
                                               PartitionId victim,
                                               std::uint64_t at) {
  auto cluster = std::make_unique<Cluster>(bed.machines);
  cluster->set_compute_threads(threads);
  FaultPlan plan(seed);
  if (link_faults) add_link_mix(plan, seed);
  plan.add_crash(victim, at);
  cluster->fabric().install_fault_plan(
      std::make_shared<FaultPlan>(std::move(plan)));
  cluster->set_recovery(RecoveryOptions{});
  return cluster;
}

/// Kill a machine at every superstep 1..steps of a staged run; the checker
/// runs the engine and asserts its results against the fault-free
/// reference.
void staged_crash_sweep(const TestBed& bed, std::uint64_t steps,
                        std::uint64_t seed, bool link_faults,
                        std::size_t threads,
                        const std::function<void(Cluster&)>& run_and_check,
                        const char* engine) {
  for (std::uint64_t s = 1; s <= steps; ++s) {
    const auto victim = static_cast<PartitionId>((s + seed) % bed.machines);
    SCOPED_TRACE(std::string(engine) + " crash " + std::to_string(victim) +
                 "@" + std::to_string(s) + " threads=" +
                 std::to_string(threads) +
                 (link_faults ? " +link-faults" : ""));
    auto cluster =
        make_crashing_cluster(bed, seed, link_faults, threads, victim, s);
    run_and_check(*cluster);
    const RecoveryStats& rs = cluster->recovery_stats();
    EXPECT_EQ(rs.crashes, 1u) << "scheduled crash must fire exactly once";
    expect_recovery_invariants(*cluster);
    expect_counters_reconcile(cluster->fabric(), bed.machines);
  }
}

class RecoverySweep : public ::testing::TestWithParam<std::uint64_t> {};

// Every staged engine (MS-BFS, queue-based sync k-hop, path recording)
// killed at each superstep of the run, at 1 and 4 compute threads, clean
// links and chaos links. A crash-free probe run measures the superstep
// count and pins the deterministic-replay claim: the crashing run's
// simulated makespan must equal the fault-free one exactly (the replay
// re-executes the identical schedule).
TEST_P(RecoverySweep, StagedEnginesExactAfterCrashAtEverySuperstep) {
  const std::uint64_t seed = GetParam();
  const TestBed bed = make_bed(seed);

  struct StagedEngine {
    const char* name;
    std::function<std::vector<std::uint64_t>(Cluster&)> run;
  };
  const std::vector<StagedEngine> engines = {
      {"msbfs",
       [&](Cluster& c) {
         return run_distributed_msbfs(c, bed.shards, bed.part, bed.queries)
             .visited;
       }},
      {"sync-khop",
       [&](Cluster& c) {
         return run_distributed_khop(c, bed.shards, bed.part, bed.queries)
             .visited;
       }},
      {"paths",
       [&](Cluster& c) {
         return run_distributed_khop_paths(c, bed.shards, bed.part,
                                           bed.queries)
             .base.visited;
       }},
  };

  for (const auto& engine : engines) {
    // Fault-free probe: superstep count for the crash schedule, reference
    // makespan for the determinism assertion. Link faults and threading
    // change neither (retries are absorbed inside the barrier window).
    Cluster probe(bed.machines);
    probe.set_compute_threads(1);
    ASSERT_EQ(engine.run(probe), bed.expected) << engine.name << " probe";
    const auto steps =
        static_cast<std::uint64_t>(probe.telemetry().supersteps.size());
    const double fault_free_sim = probe.sim_seconds();
    ASSERT_GT(steps, 0u);

    for (const bool link_faults : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        staged_crash_sweep(
            bed, steps, seed, link_faults, threads,
            [&](Cluster& c) {
              EXPECT_EQ(engine.run(c), bed.expected) << engine.name;
              if (!link_faults && threads == 1) {
                // Deterministic recovery: rollback + replay lands on the
                // identical simulated timeline, not merely the same answer.
                EXPECT_DOUBLE_EQ(c.sim_seconds(), fault_free_sim);
              }
            },
            engine.name);
      }
    }
  }
}

// Level telemetry survives crash replay: the restore hook clears every
// per-level counter from the restored level on, so each replayed level is
// counted exactly once. Every LevelTrace field that is a deterministic
// function of the traversal (barrier waits and pool timings are not)
// must equal the crash-free run's, for both staged engines.
TEST_P(RecoverySweep, LevelTelemetryExactAfterCrashAtEverySuperstep) {
  const std::uint64_t seed = GetParam();
  const TestBed bed = make_bed(seed);
  const DirectionOptions hybrid{TraversalDirection::kHybrid};

  struct Engine {
    const char* name;
    std::function<MsBfsBatchResult(Cluster&)> run;
  };
  const std::vector<Engine> engines = {
      {"msbfs",
       [&](Cluster& c) {
         return run_distributed_msbfs(c, bed.shards, bed.part, bed.queries,
                                      hybrid);
       }},
      {"sync-khop",
       [&](Cluster& c) {
         return run_distributed_khop(c, bed.shards, bed.part, bed.queries);
       }},
  };

  for (const auto& engine : engines) {
    Cluster probe(bed.machines);
    const MsBfsBatchResult want = engine.run(probe);
    const auto steps =
        static_cast<std::uint64_t>(probe.telemetry().supersteps.size());
    for (std::uint64_t s = 1; s <= steps; ++s) {
      const auto victim = static_cast<PartitionId>((s + seed) % bed.machines);
      SCOPED_TRACE(std::string(engine.name) + " crash " +
                   std::to_string(victim) + "@" + std::to_string(s));
      auto cluster = make_crashing_cluster(bed, seed, /*link_faults=*/false,
                                           /*threads=*/1, victim, s);
      const MsBfsBatchResult got = engine.run(*cluster);
      EXPECT_EQ(cluster->recovery_stats().crashes, 1u);
      EXPECT_EQ(got.visited, want.visited);
      EXPECT_EQ(got.levels, want.levels);
      EXPECT_EQ(got.total_levels, want.total_levels);
      EXPECT_EQ(got.edges_scanned, want.edges_scanned);
      ASSERT_EQ(got.level_trace.size(), want.level_trace.size());
      for (std::size_t l = 0; l < want.level_trace.size(); ++l) {
        const obs::LevelTrace& g = got.level_trace[l];
        const obs::LevelTrace& w = want.level_trace[l];
        SCOPED_TRACE("level " + std::to_string(l));
        EXPECT_EQ(g.frontier_vertices, w.frontier_vertices);
        EXPECT_EQ(g.edges_scanned, w.edges_scanned);
        EXPECT_EQ(g.bit_ops, w.bit_ops);
        EXPECT_EQ(g.push_machines, w.push_machines);
        EXPECT_EQ(g.pull_machines, w.pull_machines);
        EXPECT_EQ(g.scout_edges, w.scout_edges);
      }
    }
  }
}

// The async engine has no barriers; crashes fire at poll ticks and
// recovery is monotone re-relaxation instead of replay. Kill each machine
// at early ticks (every machine provably reaches tick 1; later ticks fire
// on all but degenerate schedules) and require the exact fixpoint.
TEST_P(RecoverySweep, AsyncEngineExactAfterTickCrashes) {
  const std::uint64_t seed = GetParam();
  const TestBed bed = make_bed(seed);

  for (const bool link_faults : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      bool any_crash = false;
      for (std::uint64_t tick = 1; tick <= 3; ++tick) {
        const auto victim =
            static_cast<PartitionId>((tick + seed) % bed.machines);
        SCOPED_TRACE("async crash " + std::to_string(victim) + "@tick" +
                     std::to_string(tick) + " threads=" +
                     std::to_string(threads) +
                     (link_faults ? " +link-faults" : ""));
        auto cluster = make_crashing_cluster(bed, seed, link_faults, threads,
                                             victim, tick);
        const auto r =
            run_async_khop(*cluster, bed.shards, bed.part, bed.queries);
        EXPECT_EQ(r.visited, bed.expected);
        const RecoveryStats& rs = cluster->recovery_stats();
        any_crash |= rs.crashes > 0;
        if (tick == 1) {
          EXPECT_EQ(rs.crashes, 1u)
              << "every machine executes at least one poll iteration";
        }
        expect_recovery_invariants(*cluster);
        expect_counters_reconcile(cluster->fabric(), bed.machines);
      }
      EXPECT_TRUE(any_crash);
    }
  }
}

// GAS PageRank killed at each superstep: gathered/scattered rank mass must
// survive rollback without double counting — values match the serial
// reference to 1e-9 (the fault-free fuzz tolerance).
TEST_P(RecoverySweep, PageRankExactAfterCrashAtEverySuperstep) {
  const std::uint64_t seed = GetParam();
  const TestBed bed = make_bed(seed);
  constexpr std::size_t kIters = 4;
  const auto serial = pagerank_serial(bed.g, kIters);

  Cluster probe(bed.machines);
  probe.set_compute_threads(1);
  (void)run_pagerank(probe, bed.shards, bed.part, kIters);
  const auto steps =
      static_cast<std::uint64_t>(probe.telemetry().supersteps.size());
  ASSERT_GT(steps, 0u);

  for (const bool link_faults : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      staged_crash_sweep(
          bed, steps, seed, link_faults, threads,
          [&](Cluster& c) {
            const GasResult dist =
                run_pagerank(c, bed.shards, bed.part, kIters);
            for (VertexId v = 0; v < bed.g.num_vertices(); ++v) {
              ASSERT_NEAR(dist.values[v], serial[v], 1e-9) << "vertex " << v;
            }
          },
          "pagerank");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// Probabilistic crash schedule (the --crash-prob path): per-(machine,
// superstep) seeded coin flips across a whole concurrent-query run. The
// scheduler must re-execute only batches a crash touched, and every query
// answer stays exact.
TEST(Recovery, ProbabilisticCrashesAcrossScheduledBatches) {
  Xoshiro256 rng(71);
  const Graph g = Graph::build(generate_uniform(180, 900, rng.next()));
  const PartitionId machines = 3;
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  const auto queries = make_random_queries(g, 48, /*k=*/3, /*seed=*/5);
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  Cluster cluster(machines);
  FaultPlan plan(71);
  plan.set_crash_probability(0.08);
  cluster.fabric().install_fault_plan(
      std::make_shared<FaultPlan>(std::move(plan)));
  cluster.set_recovery(RecoveryOptions{});

  SchedulerOptions opts;
  opts.batch_width = 16;  // 3 batches; a crash should not touch all of them
  const auto run = run_concurrent_queries(cluster, shards, part, queries, opts);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].visited, expected[i]) << "query " << i;
  }

  const RecoveryStats& rs = cluster.recovery_stats();
  ASSERT_GT(rs.crashes, 0u) << "seed chosen so the coin flips do crash";
  EXPECT_GT(rs.supersteps_replayed, 0u);
  EXPECT_GT(rs.queries_reexecuted, 0u);
  EXPECT_LE(rs.queries_reexecuted, queries.size())
      << "failover re-executes touched batches, not the whole run";
  EXPECT_EQ(rs.queries_reexecuted % opts.batch_width, 0u)
      << "the failover unit is the batch";
}

// Checkpoint interval sweep: sparser checkpoints mean fewer saves and more
// replayed supersteps, never a different answer.
TEST(Recovery, CheckpointIntervalTradesReplayForSaves) {
  const TestBed bed = make_bed(99);
  std::uint64_t prev_checkpoints = ~std::uint64_t{0};
  std::uint64_t prev_replayed = 0;
  for (const std::uint64_t interval : {std::uint64_t{1}, std::uint64_t{2},
                                       std::uint64_t{4}}) {
    Cluster cluster(bed.machines);
    FaultPlan plan(99);
    plan.add_crash(1, 5);
    cluster.fabric().install_fault_plan(
        std::make_shared<FaultPlan>(std::move(plan)));
    RecoveryOptions ro;
    ro.checkpoint_interval = interval;
    cluster.set_recovery(ro);
    EXPECT_EQ(
        run_distributed_msbfs(cluster, bed.shards, bed.part, bed.queries)
            .visited,
        bed.expected)
        << "interval=" << interval;
    const RecoveryStats& rs = cluster.recovery_stats();
    EXPECT_EQ(rs.crashes, 1u);
    EXPECT_LE(rs.checkpoints_taken, prev_checkpoints)
        << "longer interval cannot checkpoint more often";
    EXPECT_GE(rs.supersteps_replayed, prev_replayed)
        << "longer interval cannot replay less";
    prev_checkpoints = rs.checkpoints_taken;
    prev_replayed = rs.supersteps_replayed;
  }
}

// The on-disk mirror (--checkpoint-dir): every machine's blob is written
// in the CGCKPT01 format and read_file round-trips the in-memory record.
TEST(Recovery, DiskCheckpointMirrorRoundTrips) {
  const TestBed bed = make_bed(7);
  const std::string dir = ::testing::TempDir() + "cgraph_ckpt_test";

  Cluster cluster(bed.machines);
  FaultPlan plan(7);
  plan.add_crash(0, 3);
  cluster.fabric().install_fault_plan(
      std::make_shared<FaultPlan>(std::move(plan)));
  RecoveryOptions ro;
  ro.checkpoint_dir = dir;
  cluster.set_recovery(ro);
  EXPECT_EQ(run_distributed_msbfs(cluster, bed.shards, bed.part, bed.queries)
                .visited,
            bed.expected);
  EXPECT_EQ(cluster.recovery_stats().crashes, 1u);

  for (PartitionId m = 0; m < bed.machines; ++m) {
    const auto mem = cluster.checkpoint_store().machine(m);
    ASSERT_TRUE(mem.has_value()) << "machine " << m;
    const auto disk = CheckpointStore::read_file(
        dir + "/machine_" + std::to_string(m) + ".ckpt");
    ASSERT_TRUE(disk.has_value()) << "machine " << m;
    EXPECT_EQ(disk->step, mem->step);
    EXPECT_EQ(disk->tick, mem->tick);
    EXPECT_DOUBLE_EQ(disk->clock_ns, mem->clock_ns);
    EXPECT_EQ(disk->state, mem->state);
  }
  EXPECT_FALSE(CheckpointStore::read_file(dir + "/missing.ckpt").has_value());
}

// Recovery counters flow through the PR 1 metrics surface as
// cgraph_recovery_* with crash evidence visible.
TEST(Recovery, CountersPublishedAsMetrics) {
  const TestBed bed = make_bed(13);
  Cluster cluster(bed.machines);
  FaultPlan plan(13);
  plan.add_crash(1, 2);
  cluster.fabric().install_fault_plan(
      std::make_shared<FaultPlan>(std::move(plan)));
  cluster.set_recovery(RecoveryOptions{});
  EXPECT_EQ(run_distributed_msbfs(cluster, bed.shards, bed.part, bed.queries)
                .visited,
            bed.expected);

  obs::MetricsRegistry registry;
  cluster.publish_metrics(registry);
  EXPECT_GT(registry.counter("cgraph_recovery_crashes_total", "").value(), 0);
  EXPECT_GT(
      registry.counter("cgraph_recovery_supersteps_replayed_total", "")
          .value(),
      0);
  EXPECT_GT(
      registry.counter("cgraph_recovery_checkpoints_total", "").value(), 0);
  EXPECT_GT(
      registry.counter("cgraph_recovery_checkpoint_bytes_total", "").value(),
      0);
}

// A crash scheduled past the run's last superstep never fires: the run
// completes crash-free and the stats say so (consume-at-most-once
// semantics; nothing dangles into the next run on the same cluster).
TEST(Recovery, CrashBeyondRunLengthIsHarmless) {
  const TestBed bed = make_bed(21);
  Cluster cluster(bed.machines);
  FaultPlan plan(21);
  plan.add_crash(0, 100000);
  cluster.fabric().install_fault_plan(
      std::make_shared<FaultPlan>(std::move(plan)));
  cluster.set_recovery(RecoveryOptions{});
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(
        run_distributed_msbfs(cluster, bed.shards, bed.part, bed.queries)
            .visited,
        bed.expected);
  }
  const RecoveryStats& rs = cluster.recovery_stats();
  EXPECT_EQ(rs.crashes, 0u);
  EXPECT_EQ(rs.supersteps_replayed, 0u);
  EXPECT_GT(rs.checkpoints_taken, 0u) << "checkpointing still runs";
}

}  // namespace
}  // namespace cgraph
