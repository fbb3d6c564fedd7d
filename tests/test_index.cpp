// Differential suite for the reachability index tier (DESIGN.md §13).
//
// The index is a three-verdict oracle: kUnreachable must never contradict
// an actual path, kReachable must never invent one, and kUnknown defers
// to the MS-BFS engines. Soundness is checked the only way that matters —
// against serial BFS ground truth over randomized DAGs and cyclic graphs,
// across label counts, index modes, hop bounds, and seeds — and then
// end-to-end through the query service under clean, chaos, and crash
// conditions (the index is immutable read-only state, so recovery replay
// must leave its fingerprint bit-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gen/arrivals.hpp"
#include "gen/random_graphs.hpp"
#include "graph/shard.hpp"
#include "index/reach_index.hpp"
#include "net/fault.hpp"
#include "obs/event_tracer.hpp"
#include "query/bfs.hpp"
#include "query/service.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

/// Random graph; `dag` orients every edge low -> high, which guarantees
/// acyclicity (every vertex is its own SCC).
Graph make_graph(VertexId n, EdgeIndex m, std::uint64_t seed, bool dag) {
  EdgeList edges = generate_uniform(n, m, seed);
  if (dag) {
    for (Edge& e : edges.edges()) {
      if (e.src > e.dst) std::swap(e.src, e.dst);
    }
    edges.remove_self_loops();
    edges.sort_and_dedup();
  }
  return Graph::build(std::move(edges), n);
}

/// Serial ground truth: every vertex within k hops of `source`.
std::vector<char> reach_set(const Graph& g, VertexId source, Depth k) {
  const auto depth = bfs_levels(g, source, k);
  std::vector<char> reached(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    reached[v] = depth[v] != kUnvisitedDepth ? 1 : 0;
  }
  return reached;
}

// ---------------------------------------------------------------------------
// Construction units: SCC condensation and hand-checkable verdicts.

TEST(IndexScc, CycleCollapsesAndOrderIsReverseTopological) {
  // 0 -> 1 -> 2 -> 0 is one SCC; 2 -> 3 -> 4 hangs off it.
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 0);
  e.add(2, 3);
  e.add(3, 4);
  const Graph g = Graph::build(std::move(e), 5);
  const SccCondensation scc = condense(g);

  EXPECT_EQ(scc.num_components, 3u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_EQ(scc.component_size[scc.component[0]], 3u);
  // Reverse topological ids: every DAG edge goes to a smaller id, so a
  // successor's component id is strictly below its predecessor's.
  EXPECT_LT(scc.component[3], scc.component[0]);
  EXPECT_LT(scc.component[4], scc.component[3]);
  EXPECT_EQ(scc.num_dag_edges(), 2u);
  for (VertexId c = 0; c < scc.num_components; ++c) {
    for (const VertexId d : scc.dag_out(c)) EXPECT_LT(d, c);
  }
}

TEST(IndexUnit, ChainVerdictsPerMode) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 3);
  const Graph g = Graph::build(std::move(e), 4);

  IndexOptions io;
  io.num_gates = 8;  // enough gates to cover every component

  io.mode = IndexMode::kFull;
  const ReachIndex full = ReachIndex::build(g, io);
  EXPECT_EQ(full.query(0, 3), IndexVerdict::kReachable);
  EXPECT_EQ(full.query(3, 0), IndexVerdict::kUnreachable);
  // 0 reaches 3 globally, so no negative proof exists; a positive one
  // would need a path-length bound the gates don't carry -> unknown.
  EXPECT_EQ(full.query(0, 3, /*k=*/2), IndexVerdict::kUnknown);
  // ... but a global negative holds for every bound.
  EXPECT_EQ(full.query(3, 0, /*k=*/2), IndexVerdict::kUnreachable);
  // Zero-hop self-reachability holds for every k.
  EXPECT_EQ(full.query(2, 2, /*k=*/0), IndexVerdict::kReachable);

  io.mode = IndexMode::kGrail;
  const ReachIndex grail = ReachIndex::build(g, io);
  EXPECT_EQ(grail.query(0, 3), IndexVerdict::kUnknown);  // no positive side
  EXPECT_EQ(grail.query(3, 0), IndexVerdict::kUnreachable);

  io.mode = IndexMode::kGates;
  const ReachIndex gates = ReachIndex::build(g, io);
  EXPECT_EQ(gates.query(0, 3), IndexVerdict::kReachable);
  // The reverse-topological order filter rides along in every mode.
  EXPECT_EQ(gates.query(3, 0), IndexVerdict::kUnreachable);

  io.mode = IndexMode::kOff;
  const ReachIndex off = ReachIndex::build(g, io);
  EXPECT_EQ(off.query(0, 3), IndexVerdict::kUnknown);
  EXPECT_EQ(off.query(3, 0), IndexVerdict::kUnknown);
  EXPECT_EQ(ReachIndex().query(0, 3), IndexVerdict::kUnknown);
}

// Regression: s == t is a structural truth (every vertex reaches itself
// in zero hops), so a *point* probe must answer kReachable up front — for
// any k >= 0, in every mode including kOff, on a default-constructed
// index, and on a stale one.
TEST(IndexUnit, SelfReachableUpFrontInEveryMode) {
  EdgeList e;
  e.add(0, 1);
  const Graph g = Graph::build(std::move(e), 3);

  for (const IndexMode mode : {IndexMode::kOff, IndexMode::kGrail,
                               IndexMode::kGates, IndexMode::kFull}) {
    IndexOptions io;
    io.mode = mode;
    const ReachIndex index = ReachIndex::build(g, io);
    for (const Depth k : {Depth{0}, Depth{1}, kUnvisitedDepth}) {
      EXPECT_EQ(index.query(2, 2, k), IndexVerdict::kReachable)
          << "mode=" << to_string(mode) << " k=" << unsigned{k}
          << " (isolated vertex: no labels/gates needed)";
    }
  }
  // Default-constructed (never built) index: identity still holds.
  EXPECT_EQ(ReachIndex().query(1, 1), IndexVerdict::kReachable);
  EXPECT_EQ(ReachIndex().query(1, 1, 0), IndexVerdict::kReachable);
  // A stale index (superseded build epoch) must shed every conclusive
  // verdict except the identity, which no mutation can falsify.
  const ReachIndex stale = ReachIndex::build(g, {});
  stale.observe_epoch(7);
  ASSERT_TRUE(stale.stale());
  EXPECT_EQ(stale.query(0, 1), IndexVerdict::kUnknown);
  EXPECT_EQ(stale.query(1, 1, 0), IndexVerdict::kReachable);
}

TEST(IndexUnit, SameSccReachableOnlyUnbounded) {
  EdgeList e;
  e.add(0, 1);
  e.add(1, 2);
  e.add(2, 3);
  e.add(3, 0);
  const Graph g = Graph::build(std::move(e), 4);
  const ReachIndex index = ReachIndex::build(g);
  EXPECT_EQ(index.query(0, 2), IndexVerdict::kReachable);
  // Same SCC but the cycle distance may exceed a finite bound: unknown.
  EXPECT_EQ(index.query(0, 2, /*k=*/1), IndexVerdict::kUnknown);
  EXPECT_EQ(index.query(0, 0, /*k=*/1), IndexVerdict::kReachable);
}

TEST(IndexUnit, ModeParseRoundTrip) {
  for (const IndexMode mode : {IndexMode::kOff, IndexMode::kGrail,
                               IndexMode::kGates, IndexMode::kFull}) {
    const auto parsed = parse_index_mode(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_index_mode("fancy").has_value());
  EXPECT_FALSE(parse_index_mode("").has_value());
}

// ---------------------------------------------------------------------------
// The core differential sweep: verdicts vs serial BFS ground truth over
// random DAGs and cyclic graphs x 12 seeds x label counts {1, 2, 5} x
// modes x {bounded, unbounded} hop bounds.

TEST(IndexDifferential, VerdictsSoundOnRandomGraphs) {
  const IndexMode kModes[] = {IndexMode::kGrail, IndexMode::kGates,
                              IndexMode::kFull};
  std::uint64_t conclusive = 0;
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool dag : {true, false}) {
      const Graph g = make_graph(400, 1600, seed, dag);
      for (const std::uint32_t labels : {1u, 2u, 5u}) {
        for (const IndexMode mode : kModes) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " dag=" + std::to_string(dag) +
                       " labels=" + std::to_string(labels) + " mode=" +
                       to_string(mode));
          IndexOptions io;
          io.mode = mode;
          io.num_labels = labels;
          io.seed = seed * 77 + labels;
          const ReachIndex index = ReachIndex::build(g, io);
          Xoshiro256 rng(seed * 1315423911ULL + labels);
          for (int si = 0; si < 4; ++si) {
            const auto s = static_cast<VertexId>(
                rng.next_bounded(g.num_vertices()));
            for (const Depth k : {Depth{3}, kUnvisitedDepth}) {
              const auto truth = reach_set(g, s, k);
              for (VertexId t = 0; t < g.num_vertices(); t += 7) {
                const IndexVerdict verdict = index.query(s, t, k);
                if (verdict == IndexVerdict::kReachable) {
                  ++conclusive, ++positive;
                  EXPECT_TRUE(truth[t])
                      << "false REACHABLE " << s << " -> " << t << " k="
                      << unsigned{k};
                } else if (verdict == IndexVerdict::kUnreachable) {
                  ++conclusive, ++negative;
                  EXPECT_FALSE(truth[t])
                      << "false UNREACHABLE " << s << " -> " << t << " k="
                      << unsigned{k};
                }
              }
            }
          }
        }
      }
    }
  }
  // The sweep must not be vacuous: both verdict kinds have to fire.
  EXPECT_GT(positive, 0u);
  EXPECT_GT(negative, 0u);
  EXPECT_GT(conclusive, 1000u);
}

TEST(IndexDifferential, BoundedQueriesNeverGetPositiveVerdicts) {
  const Graph g = make_graph(500, 2500, 3, /*dag=*/false);
  const ReachIndex index = ReachIndex::build(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 17) {
    for (VertexId t = 0; t < g.num_vertices(); t += 13) {
      if (s == t) continue;
      EXPECT_NE(index.query(s, t, /*k=*/5), IndexVerdict::kReachable)
          << s << " -> " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: the seed is the only randomness source, so rebuilds are
// bit-identical (fingerprint-equal) and seeds shuffle the labels.

TEST(IndexDeterminism, FingerprintPinsRebuilds) {
  const Graph g = make_graph(600, 3000, 9, /*dag=*/false);
  IndexOptions io;
  io.seed = 1234;
  const ReachIndex a = ReachIndex::build(g, io);
  const ReachIndex b = ReachIndex::build(g, io);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_GT(a.memory_bytes(), 0u);
  EXPECT_GT(a.stats().build_sim_seconds, 0.0);

  io.seed = 4321;
  const ReachIndex c = ReachIndex::build(g, io);
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  io.seed = 1234;
  io.mode = IndexMode::kGrail;
  const ReachIndex d = ReachIndex::build(g, io);
  EXPECT_NE(a.fingerprint(), d.fingerprint());
}

TEST(IndexDeterminism, ProbeCostIsDeterministicAndTiny) {
  const Graph g = make_graph(600, 3000, 9, /*dag=*/false);
  const ReachIndex index = ReachIndex::build(g);
  EXPECT_GT(index.probe_sim_seconds(), 0.0);
  EXPECT_LT(index.probe_sim_seconds(), 1e-6);
  EXPECT_EQ(index.probe_sim_seconds(), index.probe_sim_seconds());
}

// ---------------------------------------------------------------------------
// Service integration: point queries through the admission bypass lane,
// differentially verified against serial BFS under clean, chaos, and
// crash conditions. The index is read-only state: its fingerprint must be
// bit-identical before and after every run, crash-recovery replay
// included.

TEST(IndexService, PointAnswersExactUnderCleanChaosCrash) {
  const PartitionId machines = 3;
  const Graph g = make_graph(700, 4200, 31, /*dag=*/false);
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  const ReachIndex index = ReachIndex::build(g);
  const std::uint64_t fingerprint_before = index.fingerprint();

  PoissonArrivalParams ap;
  ap.rate_qps = 2000;
  ap.count = 80;
  ap.k = 3;
  ap.seed = 5;
  ap.point_fraction = 0.5;  // point_k stays unbounded (the default)
  const auto arrivals = make_poisson_arrivals(g, ap);
  std::size_t point_count = 0;
  for (const TimedQuery& tq : arrivals) {
    if (tq.query.is_point()) ++point_count;
  }
  ASSERT_GT(point_count, 10u);
  ASSERT_LT(point_count, arrivals.size());

  enum class Mode { kClean, kChaos, kCrash };
  for (const Mode mode : {Mode::kClean, Mode::kChaos, Mode::kCrash}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      Cluster cluster(machines);
      if (mode == Mode::kChaos) {
        Xoshiro256 rng(17 * 0x9e3779b97f4a7c15ULL + 1);
        FaultPlan plan(17);
        LinkFaultSpec mix;
        mix.drop = 0.05 + 0.10 * rng.next_double();
        mix.duplicate = 0.08 * rng.next_double();
        mix.reorder = 0.08 * rng.next_double();
        plan.set_default_link(mix);
        cluster.fabric().install_fault_plan(
            std::make_shared<FaultPlan>(std::move(plan)));
      } else if (mode == Mode::kCrash) {
        FaultPlan plan(23);
        plan.add_crash(1, 3);
        cluster.fabric().install_fault_plan(
            std::make_shared<FaultPlan>(std::move(plan)));
        cluster.set_recovery(RecoveryOptions{});
      }

      obs::MetricsRegistry registry;
      ServiceOptions opts;
      opts.scheduler.batch_width = 16;
      opts.scheduler.threads = threads;
      opts.scheduler.metrics = &registry;
      opts.queue_cap = 0;  // nothing shed: the whole stream is answered
      opts.linger_seconds = 5e-4;
      opts.index = &index;
      const auto run =
          run_query_service(cluster, shards, part, arrivals, opts);

      EXPECT_TRUE(run.stats.identities_hold());
      EXPECT_EQ(run.stats.submitted, arrivals.size());
      EXPECT_EQ(run.stats.shed, 0u);
      EXPECT_EQ(run.stats.expired, 0u);
      // Every point query was probed: conclusive probes bypassed the
      // queue, inconclusive ones fell back to a traversal slot.
      EXPECT_EQ(run.stats.index_answered + run.stats.index_misses,
                point_count);
      EXPECT_EQ(run.stats.index_misses, run.stats.index_fallbacks);
      EXPECT_EQ(run.stats.completed + run.stats.index_answered,
                arrivals.size());

      std::uint64_t answered_seen = 0;
      for (const ServiceQueryRecord& rec : run.queries) {
        const KHopQuery& q = arrivals[rec.id].query;
        if (!q.is_point()) {
          EXPECT_EQ(rec.outcome, ServiceOutcome::kCompleted);
          EXPECT_EQ(rec.index_verdict, IndexVerdict::kUnknown);
          continue;
        }
        // Ground truth for the point answer (point_k is unbounded).
        const auto truth = reach_set(g, q.source, q.k);
        ASSERT_NE(rec.reachable, -1) << "unresolved point query " << rec.id;
        EXPECT_EQ(rec.reachable == 1, truth[q.target] != 0)
            << "query " << rec.id << ": " << q.source << " -> " << q.target;
        if (rec.outcome == ServiceOutcome::kIndexAnswered) {
          ++answered_seen;
          EXPECT_NE(rec.index_verdict, IndexVerdict::kUnknown);
          EXPECT_EQ(rec.batch_index, ServiceQueryRecord::kNoBatch);
          EXPECT_EQ(rec.execute_sim_seconds, index.probe_sim_seconds());
        } else {
          EXPECT_EQ(rec.outcome, ServiceOutcome::kCompleted);
          EXPECT_EQ(rec.index_verdict, IndexVerdict::kUnknown);
        }
      }
      EXPECT_EQ(answered_seen, run.stats.index_answered);
      // Read-only state: untouched by the run, crash replay included.
      EXPECT_EQ(index.fingerprint(), fingerprint_before);
    }
  }
}

TEST(IndexService, ProbesAreTracedAndMetricsPublished) {
  const PartitionId machines = 2;
  const Graph g = make_graph(300, 1500, 41, /*dag=*/false);
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  const ReachIndex index = ReachIndex::build(g);

  PoissonArrivalParams ap;
  ap.rate_qps = 1000;
  ap.count = 30;
  ap.k = 2;
  ap.seed = 7;
  ap.point_fraction = 1.0;  // all point queries
  const auto arrivals = make_poisson_arrivals(g, ap);

  Cluster cluster(machines);
  obs::EventTracer tracer;
  obs::MetricsRegistry registry;
  ServiceRunResult run;
  {
    obs::EventTracer::Scope scope(tracer);
    ServiceOptions opts;
    opts.scheduler.metrics = &registry;
    opts.queue_cap = 0;
    opts.index = &index;
    run = run_query_service(cluster, shards, part, arrivals, opts);
  }
  EXPECT_TRUE(run.stats.identities_hold());

  std::uint64_t probe_events = 0;
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.phase != obs::TraceEventPhase::kIndexProbe) continue;
    ++probe_events;
    EXPECT_EQ(ev.machine, obs::TraceEvent::kAdmissionTrack);
    EXPECT_GE(ev.a, 0.0);
    EXPECT_LE(ev.a, 2.0);
    EXPECT_EQ(ev.b, index.probe_sim_seconds());
  }
  EXPECT_EQ(probe_events, arrivals.size());

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("cgraph_index_hit_total"), std::string::npos);
  EXPECT_NE(prom.find("cgraph_index_miss_total"), std::string::npos);
  EXPECT_NE(prom.find("cgraph_index_fallback_total"), std::string::npos);
  EXPECT_NE(prom.find("cgraph_index_build_seconds"), std::string::npos);
  EXPECT_NE(prom.find("cgraph_index_memory_bytes"), std::string::npos);
}

}  // namespace
}  // namespace cgraph
