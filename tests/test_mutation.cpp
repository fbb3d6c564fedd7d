// Differential suite for streaming mutations with snapshot-isolated
// queries (DESIGN.md §15). The core invariant: a distributed run over
// shards carrying uncompacted delta events at snapshot epoch E must be
// bit-identical to the same run over a frozen graph built by serially
// applying the first E trace batches — for every seed, insert/delete mix,
// thread count, fault plan, and crash schedule. Planes are compared (via
// the engines' visited_out), not just visited counts, so a vertex gained
// in one view and lost in another cannot cancel and hide a divergence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/gas.hpp"
#include "engine/pagerank.hpp"
#include "gen/mutation_trace.hpp"
#include "gen/random_graphs.hpp"
#include "graph/delta.hpp"
#include "graph/shard.hpp"
#include "index/reach_index.hpp"
#include "net/fault.hpp"
#include "query/bfs.hpp"
#include "query/distributed_khop.hpp"
#include "query/msbfs.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

std::vector<KHopQuery> make_queries(const Graph& g, std::size_t count) {
  std::vector<KHopQuery> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    qs.push_back({static_cast<QueryId>(i),
                  static_cast<VertexId>((i * 37 + 5) % g.num_vertices()),
                  static_cast<Depth>(i % 6)});
  }
  return qs;
}

/// Serial ground truth: BFS levels on the frozen graph at the snapshot.
QueryBitRows reference_plane(const Graph& g,
                             std::span<const KHopQuery> queries) {
  QueryBitRows plane(g.num_vertices(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto depths = bfs_levels(g, queries[q].source, queries[q].k);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (depths[v] != kUnvisitedDepth) plane.set(v, q);
    }
  }
  return plane;
}

void expect_planes_equal(const QueryBitRows& got, const QueryBitRows& want,
                         const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.words_per_row(), want.words_per_row()) << what;
  for (std::size_t v = 0; v < got.rows(); ++v) {
    const Word* a = got.row(v);
    const Word* b = want.row(v);
    for (std::size_t w = 0; w < got.words_per_row(); ++w) {
      ASSERT_EQ(a[w], b[w]) << what << ": plane mismatch at row " << v
                            << " word " << w;
    }
  }
}

struct Bed {
  Graph g;
  PartitionId machines;
  RangePartition part;
  std::vector<SubgraphShard> shards;
};

Bed make_bed(VertexId n, EdgeIndex m, std::uint64_t seed,
             PartitionId machines) {
  Bed bed;
  bed.g = Graph::build(generate_uniform(n, m, seed));
  bed.machines = machines;
  bed.part = RangePartition::balanced_by_edges(bed.g, machines);
  bed.shards = build_shards(bed.g, bed.part);
  return bed;
}

/// Frozen view at `upto` epochs: the serial reference applied to the base
/// edge list, rebuilt at the base vertex count (mutations never add
/// vertices).
Graph frozen_at(const Bed& bed, const MutationTrace& trace,
                std::size_t upto) {
  return Graph::build(apply_mutation_trace(bed.g, trace, upto),
                      bed.g.num_vertices());
}

MutationTrace make_trace(const Bed& bed, std::uint64_t seed,
                         double delete_fraction) {
  MutationTraceOptions topt;
  topt.seed = seed;
  topt.num_epochs = 3;
  topt.ops_per_epoch = 24;
  topt.delete_fraction = delete_fraction;
  return generate_mutation_trace(bed.g, topt);
}

void apply_whole_trace(Bed& bed, const MutationTrace& trace) {
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    apply_trace_epoch(std::span(bed.shards), trace, e);
  }
}

/// Same probabilistic link-fault mix as the chaos suite.
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

const double kDeleteMixes[] = {0.0, 0.35};  // insert-only, insert+delete

// ---------------------------------------------------------------------------
// DeltaEdgeSet unit semantics: last-event-<=-E-wins visibility.

TEST(DeltaEdgeSet, InsertVisibleOnlyFromItsEpoch) {
  DeltaEdgeSet d;
  d.reset({10, 20});
  d.add_event(12, 77, /*epoch=*/2, /*insert=*/true, /*in_base=*/false);
  std::vector<VertexId> at1, at2;
  d.for_each_extra(12, 1, [&](VertexId t) { at1.push_back(t); });
  d.for_each_extra(12, 2, [&](VertexId t) { at2.push_back(t); });
  EXPECT_TRUE(at1.empty());
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_EQ(at2[0], 77u);
  EXPECT_FALSE(d.has_deletes(12));
  EXPECT_FALSE(d.edge_deleted(12, 77, 2));
}

TEST(DeltaEdgeSet, TombstoneThenReinsertOfBaseEdge) {
  DeltaEdgeSet d;
  d.reset({0, 8});
  d.add_event(3, 5, /*epoch=*/1, /*insert=*/false, /*in_base=*/true);
  d.add_event(3, 5, /*epoch=*/3, /*insert=*/true, /*in_base=*/true);
  EXPECT_TRUE(d.has_deletes(3));
  EXPECT_FALSE(d.edge_deleted(3, 5, 0));  // before the delete: base wins
  EXPECT_TRUE(d.edge_deleted(3, 5, 1));
  EXPECT_TRUE(d.edge_deleted(3, 5, 2));
  EXPECT_FALSE(d.edge_deleted(3, 5, 3));  // reinserted
  // in_base events must never surface as extras (base + extras stays
  // duplicate-free).
  std::vector<VertexId> extras;
  d.for_each_extra(3, 3, [&](VertexId t) { extras.push_back(t); });
  EXPECT_TRUE(extras.empty());
}

TEST(DeltaEdgeSet, NonBaseInsertThenDeleteDisappears) {
  DeltaEdgeSet d;
  d.reset({0, 4});
  d.add_event(1, 9, /*epoch=*/1, /*insert=*/true, /*in_base=*/false);
  d.add_event(1, 9, /*epoch=*/2, /*insert=*/false, /*in_base=*/false);
  EXPECT_EQ(d.extras_sorted(1, 1), std::vector<VertexId>{9});
  EXPECT_TRUE(d.extras_sorted(1, 2).empty());
}

TEST(DeltaEdgeSet, ExtrasSortedIsSortedUnique) {
  DeltaEdgeSet d;
  d.reset({0, 2});
  d.add_event(0, 7, 1, true, false);
  d.add_event(0, 3, 1, true, false);
  d.add_event(0, 5, 2, true, false);
  const std::vector<VertexId> want{3, 5, 7};
  EXPECT_EQ(d.extras_sorted(0, 2), want);
}

TEST(DeltaEdgeSet, FingerprintTracksVisibleContent) {
  DeltaEdgeSet a, b;
  a.reset({0, 4});
  b.reset({0, 4});
  a.add_event(1, 2, 1, true, false);
  b.add_event(1, 2, 1, true, false);
  EXPECT_EQ(a.fingerprint(1), b.fingerprint(1));
  b.add_event(1, 3, 2, true, false);
  EXPECT_EQ(a.fingerprint(1), b.fingerprint(1))
      << "a later epoch's event must not change an earlier snapshot's hash";
  EXPECT_NE(a.fingerprint(2), b.fingerprint(2));
}

// ---------------------------------------------------------------------------
// Shard-level merged scans and compaction.

TEST(ShardMutation, MergedScanMatchesFrozenRebuildPerVertex) {
  Bed bed = make_bed(120, 700, 5, 3);
  const MutationTrace trace = make_trace(bed, 17, 0.35);
  apply_whole_trace(bed, trace);
  for (std::size_t upto = 0; upto <= trace.epochs.size(); ++upto) {
    const Graph frozen = frozen_at(bed, trace, upto);
    for (const SubgraphShard& shard : bed.shards) {
      for (VertexId v = shard.local_range().begin;
           v < shard.local_range().end; ++v) {
        std::vector<VertexId> got;
        shard.for_each_out_neighbor_at(
            v, static_cast<Epoch>(upto),
            [&](VertexId t) { got.push_back(t); });
        const auto want = frozen.out_neighbors(v);
        ASSERT_EQ(got.size(), want.size()) << "v=" << v << " E=" << upto;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "v=" << v << " E=" << upto << " i=" << i
              << " (merged scan must match the rebuilt CSR in order)";
        }
      }
    }
  }
}

TEST(ShardMutation, CompactPreservesViewAndClearsDeltas) {
  Bed bed = make_bed(100, 600, 7, 2);
  const MutationTrace trace = make_trace(bed, 23, 0.35);
  apply_whole_trace(bed, trace);
  const Epoch head = current_epoch(std::span<const SubgraphShard>(
      bed.shards.data(), bed.shards.size()));

  std::vector<std::vector<VertexId>> before(bed.g.num_vertices());
  for (const SubgraphShard& shard : bed.shards) {
    for (VertexId v = shard.local_range().begin;
         v < shard.local_range().end; ++v) {
      shard.for_each_out_neighbor_at(
          v, head, [&](VertexId t) { before[v].push_back(t); });
    }
  }
  for (SubgraphShard& shard : bed.shards) {
    ASSERT_TRUE(shard.has_mutations());
    shard.compact();
    EXPECT_FALSE(shard.has_mutations());
    EXPECT_EQ(shard.epoch(), head) << "compaction must not move the epoch";
  }
  for (const SubgraphShard& shard : bed.shards) {
    for (VertexId v = shard.local_range().begin;
         v < shard.local_range().end; ++v) {
      std::vector<VertexId> after;
      shard.for_each_out_neighbor_at(
          v, head, [&](VertexId t) { after.push_back(t); });
      ASSERT_EQ(after, before[v]) << "v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// The differential sweep: 12 seeds x {insert-only, insert+delete} x
// {clean at every epoch, chaos, crash-at-every-superstep} x {1, 4}
// threads, all bit-exact against the serial reference.

class MutationDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MutationDifferential, CleanRunsExactAtEverySnapshotEpoch) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const auto n = static_cast<VertexId>(90 + rng.next_bounded(120));
  const auto m = static_cast<EdgeIndex>(
      n * 3 + rng.next_bounded(static_cast<std::uint64_t>(n) * 2));
  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(3));
  for (const double delete_fraction : kDeleteMixes) {
    Bed bed = make_bed(n, m, rng.next(), machines);
    const MutationTrace trace = make_trace(bed, seed * 31 + 1,
                                           delete_fraction);
    apply_whole_trace(bed, trace);
    const auto queries = make_queries(bed.g, 32);
    for (std::size_t upto = 0; upto <= trace.epochs.size(); ++upto) {
      const Graph frozen = frozen_at(bed, trace, upto);
      const QueryBitRows want = reference_plane(frozen, queries);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        Cluster cluster(machines);
        cluster.set_compute_threads(threads);
        QueryBitRows got;
        const auto r = run_distributed_msbfs(
            cluster, bed.shards, bed.part, queries, {}, &got,
            static_cast<Epoch>(upto));
        expect_planes_equal(
            got, want,
            "seed=" + std::to_string(seed) + " del=" +
                std::to_string(delete_fraction) + " E=" +
                std::to_string(upto) + " threads=" +
                std::to_string(threads));
        // The task-queue engine reads the same snapshot.
        Cluster kcluster(machines);
        kcluster.set_compute_threads(threads);
        const auto k = run_distributed_khop(kcluster, bed.shards, bed.part,
                                            queries,
                                            static_cast<Epoch>(upto));
        EXPECT_EQ(k.visited, r.visited)
            << "khop vs msbfs at E=" << upto;
      }
    }
  }
}

TEST_P(MutationDifferential, ChaosLinksStayExactAtHeadEpoch) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 977 + 13);
  const auto n = static_cast<VertexId>(80 + rng.next_bounded(100));
  const auto m = static_cast<EdgeIndex>(
      n * 2 + rng.next_bounded(static_cast<std::uint64_t>(n) * 3));
  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(3));
  for (const double delete_fraction : kDeleteMixes) {
    Bed bed = make_bed(n, m, rng.next(), machines);
    const MutationTrace trace = make_trace(bed, seed * 37 + 2,
                                           delete_fraction);
    apply_whole_trace(bed, trace);
    const auto queries = make_queries(bed.g, 32);
    const Graph frozen = frozen_at(bed, trace, trace.epochs.size());
    const QueryBitRows want = reference_plane(frozen, queries);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      Cluster cluster(machines);
      cluster.set_compute_threads(threads);
      FaultPlan plan(seed);
      add_link_mix(plan, seed);
      cluster.fabric().install_fault_plan(
          std::make_shared<FaultPlan>(std::move(plan)));
      QueryBitRows got;
      run_distributed_msbfs(cluster, bed.shards, bed.part, queries, {},
                            &got);
      expect_planes_equal(got, want,
                          "chaos seed=" + std::to_string(seed) + " del=" +
                              std::to_string(delete_fraction) +
                              " threads=" + std::to_string(threads));
    }
  }
}

TEST_P(MutationDifferential, CrashAtEverySuperstepReplaysExactly) {
  const std::uint64_t seed = GetParam();
  const auto machines = static_cast<PartitionId>(2 + seed % 3);
  for (const double delete_fraction : kDeleteMixes) {
    Bed bed = make_bed(110, 650, seed * 101 + 3, machines);
    const MutationTrace trace = make_trace(bed, seed * 41 + 3,
                                           delete_fraction);
    apply_whole_trace(bed, trace);
    const auto queries = make_queries(bed.g, 24);
    const Graph frozen = frozen_at(bed, trace, trace.epochs.size());
    const QueryBitRows want = reference_plane(frozen, queries);

    // Fault-free probe: reference sim time + superstep count. The
    // checkpoint delta tail (epoch + mutation fingerprint) rides in every
    // blob, so each crash replay re-validates the snapshot it resumes.
    Cluster probe(machines);
    QueryBitRows probe_plane;
    const auto clean = run_distributed_msbfs(probe, bed.shards, bed.part,
                                             queries, {}, &probe_plane);
    expect_planes_equal(probe_plane, want, "probe");
    const std::uint64_t steps = probe.telemetry().supersteps.size();
    ASSERT_GT(steps, 0u);

    for (std::uint64_t s = 1; s <= steps; ++s) {
      const auto victim = static_cast<PartitionId>((s + seed) % machines);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("del=" + std::to_string(delete_fraction) + " crash " +
                     std::to_string(victim) + "@" + std::to_string(s) +
                     " threads=" + std::to_string(threads));
        Cluster cluster(machines);
        cluster.set_compute_threads(threads);
        FaultPlan plan(seed);
        plan.add_crash(victim, s);
        cluster.fabric().install_fault_plan(
            std::make_shared<FaultPlan>(std::move(plan)));
        cluster.set_recovery(RecoveryOptions{});
        QueryBitRows got;
        const auto r = run_distributed_msbfs(cluster, bed.shards, bed.part,
                                             queries, {}, &got);
        expect_planes_equal(got, want, "crashed run");
        EXPECT_EQ(cluster.recovery_stats().crashes, 1u);
        EXPECT_DOUBLE_EQ(r.sim_seconds, clean.sim_seconds)
            << "replay must reproduce the fault-free schedule";
        EXPECT_EQ(r.visited, clean.visited);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Snapshot isolation: a batch pinned to epoch E must not observe ops a
// writer lands after the batch was admitted.

TEST(SnapshotIsolation, PinnedBatchIgnoresLaterEpochs) {
  Bed bed = make_bed(140, 800, 9, 3);
  const MutationTrace trace = make_trace(bed, 29, 0.35);
  const auto queries = make_queries(bed.g, 32);

  apply_trace_epoch(std::span(bed.shards), trace, 0);
  apply_trace_epoch(std::span(bed.shards), trace, 1);
  const Epoch pinned = current_epoch(std::span<const SubgraphShard>(
      bed.shards.data(), bed.shards.size()));
  ASSERT_EQ(pinned, 2u);

  Cluster c1(bed.machines);
  QueryBitRows before;
  run_distributed_msbfs(c1, bed.shards, bed.part, queries, {}, &before,
                        pinned);

  // Writer proceeds: epoch 3's ops land while the "in-flight" snapshot
  // stays pinned at 2.
  apply_trace_epoch(std::span(bed.shards), trace, 2);

  Cluster c2(bed.machines);
  QueryBitRows pinned_after;
  run_distributed_msbfs(c2, bed.shards, bed.part, queries, {},
                        &pinned_after, pinned);
  expect_planes_equal(pinned_after, before,
                      "pinned snapshot changed under a concurrent writer");
  expect_planes_equal(pinned_after,
                      reference_plane(frozen_at(bed, trace, 2), queries),
                      "pinned snapshot vs serial reference");

  // And the head view sees everything.
  Cluster c3(bed.machines);
  QueryBitRows head;
  run_distributed_msbfs(c3, bed.shards, bed.part, queries, {}, &head);
  expect_planes_equal(head,
                      reference_plane(frozen_at(bed, trace, 3), queries),
                      "head snapshot vs serial reference");
}

TEST(SnapshotIsolation, CompactionIsInvisibleToQueries) {
  Bed bed = make_bed(130, 750, 11, 3);
  const MutationTrace trace = make_trace(bed, 43, 0.35);
  apply_whole_trace(bed, trace);
  const auto queries = make_queries(bed.g, 32);

  Cluster c1(bed.machines);
  QueryBitRows streamed;
  const auto r1 = run_distributed_msbfs(c1, bed.shards, bed.part, queries,
                                        {}, &streamed);
  for (SubgraphShard& shard : bed.shards) shard.compact();
  Cluster c2(bed.machines);
  QueryBitRows compacted;
  const auto r2 = run_distributed_msbfs(c2, bed.shards, bed.part, queries,
                                        {}, &compacted);
  expect_planes_equal(compacted, streamed,
                      "compaction changed a query answer");
  EXPECT_EQ(r1.visited, r2.visited);
  EXPECT_EQ(r1.levels, r2.levels);
}

// ---------------------------------------------------------------------------
// GAS on a mutating graph: gather folds the merged parent lists in the
// same globally sorted order a compacted rebuild would produce, and
// scatter divides by the live out-degree — so PageRank values are
// bit-identical across the delta view, the compacted view, and shards
// rebuilt from the serial reference.

TEST(MutationGas, PageRankBitExactAcrossViews) {
  Bed bed = make_bed(150, 900, 13, 3);
  const MutationTrace trace = make_trace(bed, 47, 0.35);
  apply_whole_trace(bed, trace);

  const Graph frozen = frozen_at(bed, trace, trace.epochs.size());
  const auto frozen_shards = build_shards(frozen, bed.part);

  Cluster c1(bed.machines), c2(bed.machines), c3(bed.machines);
  const PageRankProgram pr;
  const GasResult streamed = run_gas(c1, bed.shards, bed.part, pr, 5);
  const GasResult reference =
      run_gas(c2, frozen_shards, bed.part, pr, 5);
  ASSERT_EQ(streamed.values.size(), reference.values.size());
  for (std::size_t v = 0; v < streamed.values.size(); ++v) {
    ASSERT_EQ(streamed.values[v], reference.values[v])
        << "pagerank diverged from the frozen rebuild at vertex " << v;
  }

  for (SubgraphShard& shard : bed.shards) shard.compact();
  const GasResult compacted = run_gas(c3, bed.shards, bed.part, pr, 5);
  for (std::size_t v = 0; v < streamed.values.size(); ++v) {
    ASSERT_EQ(compacted.values[v], streamed.values[v])
        << "compaction changed a pagerank value at vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Index staleness: once the shards' epoch passes the index's build epoch,
// a conclusive verdict would be a lie — every point probe must degrade to
// kUnknown (forcing the traversal fallback) until a rebuild republishes.

TEST(MutationIndex, SupersededEpochIsNeverConclusive) {
  const Graph g = Graph::build(generate_uniform(300, 2000, 51));
  const ReachIndex index = ReachIndex::build(g, {});
  ASSERT_EQ(index.built_epoch(), 0u);

  // Find a conclusively-answered pair while fresh.
  Xoshiro256 rng(7);
  VertexId s = 0, t = 0;
  IndexVerdict fresh = IndexVerdict::kUnknown;
  for (int i = 0; i < 4096 && fresh == IndexVerdict::kUnknown; ++i) {
    s = static_cast<VertexId>(rng.next_bounded(g.num_vertices()));
    t = static_cast<VertexId>(rng.next_bounded(g.num_vertices()));
    if (s == t) continue;
    fresh = index.query(s, t);
  }
  ASSERT_NE(fresh, IndexVerdict::kUnknown);
  EXPECT_FALSE(index.stale());

  // The service's admission handshake observes a newer shard epoch.
  index.observe_epoch(1);
  EXPECT_TRUE(index.stale());
  EXPECT_EQ(index.query(s, t), IndexVerdict::kUnknown)
      << "a superseded index must never answer conclusively";
  // Identity probes stay structural truths: s reaches s at any epoch.
  EXPECT_EQ(index.query(s, s), IndexVerdict::kReachable);
  EXPECT_EQ(index.query(s, s, 0), IndexVerdict::kReachable);

  // A rebuild republishing at the observed epoch restores service.
  ReachIndex rebuilt = ReachIndex::build(g, {});
  rebuilt.set_built_epoch(1);
  EXPECT_FALSE(rebuilt.stale());
  EXPECT_EQ(rebuilt.query(s, t), fresh);
}

}  // namespace
}  // namespace cgraph
