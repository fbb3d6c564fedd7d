// Differential tests for intra-machine parallelism: every engine must
// produce bit-identical results for any compute-thread count (see
// DESIGN.md "Threading model" — all cross-thread writes are bitwise ORs
// or single-owner slots, and float folds keep their serial order), with
// and without an active fault plan, and the scheduler's threads option
// must surface pool activity in the run telemetry.
#include <gtest/gtest.h>

#include <memory>

#include "cgraph/cgraph.hpp"
#include "net/fault.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

Graph make_graph(std::uint64_t seed, VertexId n = 400, EdgeIndex m = 2400) {
  return Graph::build(generate_uniform(n, m, seed));
}

std::vector<KHopQuery> make_queries(const Graph& g, std::size_t count,
                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < count; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())),
         static_cast<Depth>(1 + rng.next_bounded(5))});
  }
  return queries;
}

TEST(ParallelMsBfsBatch, BitExactAcrossThreadCounts) {
  const Graph g = make_graph(11);
  const auto queries = make_queries(g, 70, 12);
  const auto serial = msbfs_batch(g, queries, /*threads=*/1);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto parallel = msbfs_batch(g, queries, threads);
    EXPECT_EQ(parallel.visited, serial.visited) << threads << " threads";
    EXPECT_EQ(parallel.levels, serial.levels) << threads << " threads";
    EXPECT_EQ(parallel.total_levels, serial.total_levels);
    EXPECT_EQ(parallel.edges_scanned, serial.edges_scanned);
  }
}

TEST(ParallelMsBfsBatch, ReportsPoolTasksInLevelTrace) {
  const Graph g = make_graph(13);
  const auto queries = make_queries(g, 40, 14);
  const auto r = msbfs_batch(g, queries, /*threads=*/4);
  ASSERT_FALSE(r.level_trace.empty());
  for (const auto& lt : r.level_trace) {
    // Scan phase + commit phase, each at least one chunk.
    EXPECT_GE(lt.parallel_tasks, 2u);
    EXPECT_GE(lt.steal_wait_seconds, 0.0);
  }
}

// Serial machines OR discoveries with plain stores, pooled ones with
// relaxed atomics. Both writer modes must give the same planes and put the
// same staged packets and bytes on the wire. Hybrid on CSC shards adds the
// pull levels, whose boundary edges still push through both modes.
TEST(ParallelDistributedMsBfs, BitExactAcrossThreadCounts) {
  const Graph g = make_graph(21);
  const PartitionId machines = 3;
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);  // with in-edges (CSC)
  const auto queries = make_queries(g, 30, 22);

  struct Run {
    MsBfsBatchResult result;
    QueryBitRows visited;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> staged;
  };
  for (const TraversalDirection mode :
       {TraversalDirection::kPush, TraversalDirection::kHybrid}) {
    SCOPED_TRACE(to_string(mode));
    DirectionOptions direction;
    direction.mode = mode;
    auto run = [&](std::size_t threads) {
      Cluster cluster(machines);
      cluster.set_compute_threads(threads);
      Run r;
      r.result = run_distributed_msbfs(cluster, shards, part, queries,
                                       direction, &r.visited);
      for (PartitionId id = 0; id < machines; ++id) {
        const TrafficCounters& c = cluster.fabric().sent_counters(id);
        r.staged.emplace_back(c.staged_packets.load(),
                              c.staged_bytes.load());
      }
      return r;
    };
    const Run serial = run(1);
    const Run parallel = run(4);

    EXPECT_EQ(parallel.result.visited, serial.result.visited);
    EXPECT_EQ(parallel.result.levels, serial.result.levels);
    EXPECT_EQ(parallel.result.total_levels, serial.result.total_levels);
    EXPECT_EQ(parallel.result.edges_scanned, serial.result.edges_scanned);
    ASSERT_EQ(parallel.visited.rows(), serial.visited.rows());
    for (std::size_t v = 0; v < serial.visited.rows(); ++v) {
      for (std::size_t w = 0; w < serial.visited.words_per_row(); ++w) {
        ASSERT_EQ(parallel.visited.row(v)[w], serial.visited.row(v)[w])
            << "row " << v << " word " << w;
      }
    }
    EXPECT_EQ(parallel.staged, serial.staged);
    std::uint64_t packets = 0;
    for (const auto& [p, bytes] : serial.staged) packets += p;
    EXPECT_GT(packets, 0u);

    const auto& ptrace = parallel.result.level_trace;
    const auto& strace = serial.result.level_trace;
    ASSERT_FALSE(ptrace.empty());
    ASSERT_EQ(ptrace.size(), strace.size());
    std::uint32_t pull_levels = 0;
    for (std::size_t l = 0; l < ptrace.size(); ++l) {
      EXPECT_EQ(ptrace[l].frontier_vertices, strace[l].frontier_vertices);
      EXPECT_EQ(ptrace[l].edges_scanned, strace[l].edges_scanned);
      EXPECT_EQ(ptrace[l].pull_machines, strace[l].pull_machines);
      pull_levels += strace[l].pull_machines;
      // Threaded levels record at least as many pool chunks as serial
      // ones (serial = exactly one chunk per phase per machine).
      EXPECT_GE(ptrace[l].parallel_tasks, strace[l].parallel_tasks);
      EXPECT_GT(ptrace[l].parallel_tasks, 0u);
    }
    if (mode == TraversalDirection::kHybrid) {
      EXPECT_GT(pull_levels, 0u);
    }
  }
}

TEST(ParallelDistributedKhop, BitExactAcrossThreadCounts) {
  const Graph g = make_graph(31);
  const auto part = RangePartition::balanced_by_edges(g, 4);
  const auto shards = build_shards(g, part);
  const auto queries = make_queries(g, 25, 32);

  Cluster cluster(4);
  cluster.set_compute_threads(1);
  const auto serial = run_distributed_khop(cluster, shards, part, queries);

  cluster.set_compute_threads(4);
  const auto parallel = run_distributed_khop(cluster, shards, part, queries);

  EXPECT_EQ(parallel.visited, serial.visited);
  EXPECT_EQ(parallel.levels, serial.levels);
  EXPECT_EQ(parallel.total_levels, serial.total_levels);
  EXPECT_EQ(parallel.edges_scanned, serial.edges_scanned);
}

TEST(ParallelPageRank, ValuesBitIdenticalAcrossThreadCounts) {
  const Graph g = make_graph(41);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);

  Cluster cluster(3);
  cluster.set_compute_threads(1);
  const auto serial = run_pagerank(cluster, shards, part, 15);
  EXPECT_GT(serial.stats.parallel_tasks, 0u);

  cluster.set_compute_threads(4);
  const auto parallel = run_pagerank(cluster, shards, part, 15);

  // Each vertex's gather fold runs wholly on one thread in edge order, so
  // agreement is bitwise, far tighter than the 1e-9 contract.
  ASSERT_EQ(parallel.values.size(), serial.values.size());
  for (std::size_t v = 0; v < serial.values.size(); ++v) {
    EXPECT_EQ(parallel.values[v], serial.values[v]) << "vertex " << v;
    EXPECT_NEAR(parallel.values[v], serial.values[v], 1e-9);
  }
  EXPECT_GE(parallel.stats.parallel_tasks, serial.stats.parallel_tasks);
}

// Same probabilistic fault mix as the chaos suite: reliability protocols
// and intra-machine parallelism must compose without changing answers.
TEST(ParallelUnderFaults, EnginesMatchSerialReference) {
  const std::uint64_t seed = 7;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultPlan plan_proto(seed);
  LinkFaultSpec mix;
  mix.drop = 0.05 + 0.15 * rng.next_double();
  mix.duplicate = 0.10 * rng.next_double();
  mix.reorder = 0.10 * rng.next_double();
  mix.delay = 0.05 * rng.next_double();
  mix.delay_polls = 1 + static_cast<std::uint32_t>(rng.next_bounded(3));
  plan_proto.set_default_link(mix);
  const auto plan = std::make_shared<FaultPlan>(plan_proto);

  const Graph g = make_graph(51, 220, 1100);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  const auto queries = make_queries(g, 12, 52);
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  Cluster cluster(3);
  cluster.set_compute_threads(4);
  cluster.fabric().install_fault_plan(plan);
  SCOPED_TRACE(plan->describe());

  const auto bits = run_distributed_msbfs(cluster, shards, part, queries);
  EXPECT_EQ(bits.visited, expected) << "threaded msbfs under faults";

  const auto queue = run_distributed_khop(cluster, shards, part, queries);
  EXPECT_EQ(queue.visited, expected) << "threaded sync khop under faults";

  EXPECT_EQ(cluster.fabric().total_delivery_failed(), 0u);
}

TEST(ParallelScheduler, ThreadsOptionDrivesPoolsAndTelemetry) {
  const Graph g = make_graph(61);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  const auto queries = make_queries(g, 40, 62);

  Cluster cluster(3);
  obs::MetricsRegistry registry;

  SchedulerOptions serial_opts;
  serial_opts.threads = 1;
  serial_opts.metrics = &registry;
  const auto serial =
      run_concurrent_queries(cluster, shards, part, queries, serial_opts);
  EXPECT_EQ(cluster.compute_threads(), 1u);

  SchedulerOptions par_opts;
  par_opts.threads = 4;
  par_opts.metrics = &registry;
  const auto parallel =
      run_concurrent_queries(cluster, shards, part, queries, par_opts);
  EXPECT_EQ(cluster.compute_threads(), 4u);

  ASSERT_EQ(parallel.queries.size(), serial.queries.size());
  for (std::size_t i = 0; i < serial.queries.size(); ++i) {
    EXPECT_EQ(parallel.queries[i].visited, serial.queries[i].visited);
  }

  // The run telemetry carries per-level pool counters into the registry
  // (cgraph_superstep_parallel_tasks_total).
  std::uint64_t tasks = 0;
  for (const auto& bt : parallel.telemetry.batches) {
    for (const auto& lt : bt.levels) tasks += lt.parallel_tasks;
  }
  EXPECT_GT(tasks, 0u);
  const std::string page = registry.to_prometheus();
  EXPECT_NE(page.find("cgraph_superstep_parallel_tasks_total"),
            std::string::npos);
  EXPECT_NE(page.find("cgraph_superstep_steal_wait_seconds_total"),
            std::string::npos);
}

}  // namespace
}  // namespace cgraph
