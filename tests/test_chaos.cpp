// Chaos suite: every traversal engine is run on a fabric with an installed
// FaultPlan (seeded probabilistic drop/duplicate/reorder/delay, plus
// deterministic triggers) and must still agree bit-exactly with the
// fault-free serial reference — the reliability protocols (staged
// bounded-retry, async seq/ack/retry + receiver dedup) make the faults
// invisible to results. Each test prints the plan's describe() line so a
// failing run can be reproduced from the log alone; determinism of the
// fault sequence itself is asserted by the replay tests at the bottom.
#include <gtest/gtest.h>

#include <memory>

#include "cgraph/cgraph.hpp"
#include "net/fault.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

/// Seeded probabilistic fault mix. The per-action rates are drawn from the
/// seed and deliberately kept at a combined ~35% so staged retries succeed
/// well inside the attempt budget (failure would need 24 consecutive
/// drops: p^24 <= 1e-12).
FaultPlan make_plan(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultPlan plan(seed);
  LinkFaultSpec mix;
  mix.drop = 0.05 + 0.15 * rng.next_double();
  mix.duplicate = 0.10 * rng.next_double();
  mix.reorder = 0.10 * rng.next_double();
  mix.delay = 0.05 * rng.next_double();
  mix.delay_polls = 1 + static_cast<std::uint32_t>(rng.next_bounded(3));
  plan.set_default_link(mix);
  return plan;
}

/// Sum the per-attempt delivery outcome counters over all machines and
/// check the reconciliation identities the telemetry layer relies on.
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

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

// All four staged and async engines (MS-BFS, sync k-hop, async k-hop, the
// path-recording k-hop) under one seeded fault plan, against the
// fault-free serial reference.
TEST_P(ChaosSweep, EnginesMatchReferenceUnderFaults) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  const VertexId n = 24 + static_cast<VertexId>(rng.next_bounded(260));
  const EdgeIndex m = 1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 5);
  const Graph g = Graph::build(generate_uniform(n, m, rng.next()));
  ASSERT_GT(g.num_vertices(), 0u);

  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(4));
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  const auto plan = std::make_shared<FaultPlan>(make_plan(seed));
  SCOPED_TRACE(plan->describe());
  cluster.fabric().install_fault_plan(plan);

  std::vector<KHopQuery> queries;
  const std::size_t q_count = 1 + rng.next_bounded(10);
  for (QueryId i = 0; i < q_count; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())),
         static_cast<Depth>(1 + rng.next_bounded(6))});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  const auto bits = run_distributed_msbfs(cluster, shards, part, queries);
  EXPECT_EQ(bits.visited, expected) << "msbfs under faults";

  const auto queue = run_distributed_khop(cluster, shards, part, queries);
  EXPECT_EQ(queue.visited, expected) << "sync khop under faults";

  const auto async = run_async_khop(cluster, shards, part, queries);
  EXPECT_EQ(async.visited, expected) << "async khop under faults";

  const auto paths =
      run_distributed_khop_paths(cluster, shards, part, queries);
  EXPECT_EQ(paths.base.visited, expected) << "paths khop under faults";

  EXPECT_EQ(cluster.fabric().total_delivery_failed(), 0u)
      << "probabilistic mixes must stay inside the retry budget";
  expect_counters_reconcile(cluster.fabric(), machines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

class PageRankChaos : public ::testing::TestWithParam<std::uint64_t> {};

// BSP PageRank (GAS engine) under faults: scatter packets are dropped,
// duplicated, and reordered, yet every iteration's exchange must complete
// losslessly. Tolerance matches the fault-free fuzz suite (float summation
// order is nondeterministic even on a clean fabric).
TEST_P(PageRankChaos, MatchesSerialUnderFaults) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 7919);
  const VertexId n = 32 + static_cast<VertexId>(rng.next_bounded(220));
  const EdgeIndex m = 1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 4);
  const Graph g = Graph::build(generate_uniform(n, m, rng.next()));
  ASSERT_GT(g.num_vertices(), 0u);
  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(4));
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);

  Cluster cluster(machines);
  const auto plan = std::make_shared<FaultPlan>(make_plan(seed));
  SCOPED_TRACE(plan->describe());
  cluster.fabric().install_fault_plan(plan);

  const GasResult dist = run_pagerank(cluster, shards, part, 6);
  const auto serial = pagerank_serial(g, 6);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NEAR(dist.values[v], serial[v], 1e-9) << "vertex " << v;
  }
  EXPECT_EQ(cluster.fabric().total_delivery_failed(), 0u);
  expect_counters_reconcile(cluster.fabric(), machines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRankChaos,
                         ::testing::Range<std::uint64_t>(1, 9));

// A duplicate-heavy plan must leave results untouched and show up in the
// receiver-side suppression counters — proof the dedup filters (not luck)
// carry the exactly-once guarantee.
TEST(Chaos, DuplicateStormIsSuppressed) {
  Xoshiro256 rng(404);
  const Graph g = Graph::build(generate_uniform(160, 800, rng.next()));
  const PartitionId machines = 4;
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  auto plan = std::make_shared<FaultPlan>(404);
  LinkFaultSpec mix;
  mix.duplicate = 0.5;
  plan->set_default_link(mix);
  SCOPED_TRACE(plan->describe());
  cluster.fabric().install_fault_plan(plan);

  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 6; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())), 4});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  EXPECT_EQ(run_distributed_khop(cluster, shards, part, queries).visited,
            expected);
  EXPECT_EQ(run_async_khop(cluster, shards, part, queries).visited,
            expected);

  std::uint64_t duplicated = 0;
  std::uint64_t suppressed = 0;
  for (PartitionId i = 0; i < machines; ++i) {
    const TrafficCounters& t = cluster.fabric().sent_counters(i);
    duplicated += t.duplicated_packets.load(std::memory_order_relaxed);
    suppressed += t.dedup_suppressed_packets.load(std::memory_order_relaxed);
  }
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(suppressed, 0u);
}

// Delay-only plan: async packets sit in the receiver's limbo queue for a
// few polls; termination detection must wait them out, not quiesce early.
TEST(Chaos, DelayedAsyncDeliveryStaysExact) {
  Xoshiro256 rng(77);
  const Graph g = Graph::build(generate_uniform(200, 1000, rng.next()));
  const PartitionId machines = 3;
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  auto plan = std::make_shared<FaultPlan>(77);
  LinkFaultSpec mix;
  mix.delay = 0.4;
  mix.delay_polls = 3;
  plan->set_default_link(mix);
  SCOPED_TRACE(plan->describe());
  cluster.fabric().install_fault_plan(plan);

  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 5; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())), 5});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }
  EXPECT_EQ(run_async_khop(cluster, shards, part, queries).visited,
            expected);

  std::uint64_t delayed = 0;
  for (PartitionId i = 0; i < machines; ++i) {
    delayed += cluster.fabric().sent_counters(i).delayed_packets.load(
        std::memory_order_relaxed);
  }
  EXPECT_GT(delayed, 0u);
}

// Deterministic trigger: "drop the 3rd packet machine 0 sends to machine
// 1". The staged retry loop recovers (attempt 3 redelivers), the counters
// record exactly one drop + one retry, and the fault log pins the event to
// per-link attempt index 2.
TEST(Chaos, TriggerDropsExactlyTheNthAttempt) {
  Fabric fabric(2);
  auto plan = std::make_shared<FaultPlan>(1);
  plan->add_trigger({0, 1, 2, FaultAction::kDrop});
  fabric.install_fault_plan(plan);

  for (int p = 0; p < 5; ++p) {
    PacketWriter w;
    w.write_span(std::span<const int>(&p, 1));
    EXPECT_TRUE(fabric.send_superstep(0, 1, 7, w.take(), 0));
  }
  const auto delivered = fabric.mailbox(1).drain_superstep(0);
  ASSERT_EQ(delivered.size(), 5u);
  // Sequence numbers survive the retransmission: still 0..4 in order.
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].seq, i);
  }

  const TrafficCounters& t = fabric.sent_counters(0);
  EXPECT_EQ(t.dropped_packets.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(t.retried_packets.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(t.delivered_packets.load(std::memory_order_relaxed), 5u);

  const auto log = fabric.fault_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE((log[0] == FaultEvent{0, 1, 2, FaultAction::kDrop}));
}

/// Push a fixed packet script through `fabric` and return the fault log.
std::vector<FaultEvent> run_script(Fabric& fabric) {
  fabric.reset_delivery_state();
  fabric.reset_counters();
  for (int round = 0; round < 6; ++round) {
    for (PartitionId from = 0; from < fabric.num_machines(); ++from) {
      for (PartitionId to = 0; to < fabric.num_machines(); ++to) {
        if (from == to) continue;
        PacketWriter w;
        w.write_span(std::span<const int>(&round, 1));
        if (round % 2 == 0) {
          fabric.send_superstep(from, to, 1, w.take(), round);
        } else {
          fabric.send_now(from, to, 2, w.take());
        }
      }
    }
    for (PartitionId id = 0; id < fabric.num_machines(); ++id) {
      fabric.mailbox(id).drain_now();
      fabric.mailbox(id).drain_superstep(round);
    }
  }
  return fabric.fault_log();
}

// Replay determinism: the same packet script through the same plan — on
// the same fabric after a delivery-state reset, and on a brand-new fabric
// — produces the identical packet-level fault sequence. This is what makes
// a printed seed a full repro of a chaos run.
TEST(Chaos, FaultSequenceReplaysIdentically) {
  auto plan = std::make_shared<FaultPlan>(20260805);
  LinkFaultSpec mix;
  mix.drop = 0.2;
  mix.duplicate = 0.1;
  mix.reorder = 0.1;
  mix.delay = 0.05;
  plan->set_default_link(mix);

  Fabric a(4);
  a.install_fault_plan(plan);
  const auto log1 = run_script(a);
  const auto log2 = run_script(a);  // same fabric, state reset
  Fabric b(4);
  b.install_fault_plan(plan);
  const auto log3 = run_script(b);  // fresh fabric, same plan

  ASSERT_FALSE(log1.empty()) << plan->describe();
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(log1, log3);

  // A different seed must disagree (sanity that the log isn't vacuous).
  auto other = std::make_shared<FaultPlan>(1);
  other->set_default_link(mix);
  Fabric c(4);
  c.install_fault_plan(other);
  EXPECT_NE(log1, run_script(c));
}

// Graceful degradation: a link that drops everything ("dead link") must
// not wedge the async engine's termination barrier. The sender exhausts
// its bounded retry budget, surfaces delivery_failed, releases the
// termination credits, and the run completes with possibly-partial
// results.
TEST(Chaos, DeadAsyncLinkDegradesInsteadOfWedging) {
  Xoshiro256 rng(9);
  const Graph g = Graph::build(generate_uniform(120, 700, rng.next()));
  const PartitionId machines = 2;
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  auto plan = std::make_shared<FaultPlan>(9);
  LinkFaultSpec dead;
  dead.drop = 1.0;
  plan->set_link(0, 1, dead);  // data 0->1 never arrives; acks 1->0 do
  SCOPED_TRACE(plan->describe());
  cluster.fabric().install_fault_plan(plan);

  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 4; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())), 6});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  // Completion (not wall-clock) is the assertion: the run terminates.
  const auto r = run_async_khop(cluster, shards, part, queries);
  ASSERT_EQ(r.visited.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_LE(r.visited[i], expected[i]) << "query " << i;
  }
  EXPECT_GT(cluster.fabric().total_delivery_failed(), 0u)
      << "the dead link must surface as delivery_failed, not hang";
}

// Regression: the reliable-async protocol state (pending retransmissions,
// surfaced failures, dedup windows) is owned by the Cluster and persists
// across runs; a run on a degraded fabric used to leave stale entries that
// poisoned the NEXT run on the same cluster (retransmits under the new
// run's sequence numbering, failure reports releasing the new run's
// termination credits). After the dead-link run, a clean run on the same
// cluster must be exact and report zero failures.
TEST(Chaos, AsyncProtocolStateResetsBetweenRuns) {
  Xoshiro256 rng(9);
  const Graph g = Graph::build(generate_uniform(120, 700, rng.next()));
  const PartitionId machines = 2;
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  auto plan = std::make_shared<FaultPlan>(9);
  LinkFaultSpec dead;
  dead.drop = 1.0;
  plan->set_link(0, 1, dead);
  cluster.fabric().install_fault_plan(plan);

  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 4; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())), 6});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  // Degraded run: completes with partial results and leftover protocol
  // state (unacked pending sends, undrained failure reports).
  (void)run_async_khop(cluster, shards, part, queries);
  EXPECT_GT(cluster.fabric().total_delivery_failed(), 0u);

  // Same cluster, healed fabric: the new run must start from a clean
  // protocol slate and produce the exact reference answers.
  cluster.fabric().install_fault_plan(nullptr);
  const auto healed = run_async_khop(cluster, shards, part, queries);
  EXPECT_EQ(healed.visited, expected);
  EXPECT_EQ(cluster.fabric().total_delivery_failed(), 0u)
      << "stale failures from the degraded run must not leak into this one";
}

// Same dead link under the staged protocol: send_superstep burns its
// bounded attempts, reports failure to the caller, and the BSP barrier
// still lifts.
TEST(Chaos, DeadStagedLinkSurfacesDeliveryFailed) {
  Fabric fabric(2);
  auto plan = std::make_shared<FaultPlan>(3);
  LinkFaultSpec dead;
  dead.drop = 1.0;
  plan->set_link(0, 1, dead);
  fabric.install_fault_plan(plan);

  PacketWriter w;
  const int v = 42;
  w.write_span(std::span<const int>(&v, 1));
  EXPECT_FALSE(fabric.send_superstep(0, 1, 7, w.take(), 0));
  EXPECT_TRUE(fabric.mailbox(1).drain_superstep(0).empty());

  const TrafficCounters& t = fabric.sent_counters(0);
  EXPECT_EQ(t.delivery_failed_packets.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(t.dropped_packets.load(std::memory_order_relaxed),
            Fabric::kMaxStagedAttempts);
  EXPECT_EQ(t.retried_packets.load(std::memory_order_relaxed),
            Fabric::kMaxStagedAttempts - 1);
}

// DedupFilter unit coverage: exactly-once per (sender, seq), tolerant of
// out-of-order arrival, with an advancing watermark.
TEST(Chaos, DedupFilterAcceptsExactlyOnce) {
  DedupFilter f;
  EXPECT_TRUE(f.accept(0, 0));
  EXPECT_FALSE(f.accept(0, 0));
  EXPECT_TRUE(f.accept(0, 2));  // gap: held in the pending window
  EXPECT_TRUE(f.accept(0, 1));  // fills the gap, watermark jumps to 2
  EXPECT_FALSE(f.accept(0, 1));
  EXPECT_FALSE(f.accept(0, 2));
  EXPECT_TRUE(f.accept(1, 0));  // independent per-sender windows
  EXPECT_TRUE(f.accept(0, 3));
  EXPECT_FALSE(f.accept(0, 3));
}

}  // namespace
}  // namespace cgraph
