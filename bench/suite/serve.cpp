// Serving workloads: open-loop Poisson arrivals through run_query_service.
//
//   khop_serve        one Cluster, kThreads machines x 1 thread, shards
//                     without CSC, k=3 aggregates, no index, no recovery.
//   mixed_replicated  a ReplicaRouter over 2 replicas of kThreads machines
//                     with recovery (checkpoint_interval 2) and a kFull
//                     ReachIndex; half the arrivals are unbounded point
//                     queries. The replica batch 0 routes to halts at
//                     superstep 3 (between cuts), so every block absorbs
//                     exactly one failover with cut adoption and then runs
//                     degraded.
//
// A block is one run_query_service call over fresh arrivals on fresh
// clusters, so the failover and everything after it are inside the timed
// wall of every block.
//
// The service decides admission, sealing and queueing in simulated time
// (DESIGN.md §10), so queue wait exists only in sim time. The only
// host-side latency a query has is the wall time of the batch that
// answered it (answers are released when the batch commits); that is the
// latency sample these workloads record.
#include <algorithm>
#include <memory>
#include <unordered_map>

#include "workloads.hpp"

namespace cgraph::suite {

namespace {

struct ServeShape {
  int scale_shift = 2;
  bool in_edges = false;
  std::size_t arrivals = 1000;  // per block, about 1.6 s on a 4-vCPU VM
  double point_fraction = 0;
  bool replicated = false;
};

ServeShape khop_serve_shape(const RunConfig& cfg) {
  ServeShape s;
  if (cfg.smoke) {
    s.scale_shift = 9;
    s.arrivals = 400;
  }
  return s;
}

ServeShape mixed_shape(const RunConfig& cfg) {
  ServeShape s;
  s.scale_shift = cfg.smoke ? 9 : 4;
  s.in_edges = true;
  s.arrivals = cfg.smoke ? 400 : 2000;  // about 0.7 s per block
  s.point_fraction = 0.5;
  s.replicated = true;
  return s;
}

/// Failover cost read from the tracer: wall from the first engine span of
/// the failed-over batch to the end of its (survivor) execution, within
/// the window of the service call that ran it.
double failover_batch_wall_s(const obs::EventTracer& tracer,
                             std::uint64_t w0, std::uint64_t w1,
                             std::int64_t batch) {
  std::uint64_t first = ~std::uint64_t{0};
  std::uint64_t last = 0;
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.batch != batch || ev.wall_ns < w0 || ev.wall_ns > w1) continue;
    if (ev.machine >= 0 && ev.kind == obs::TraceEventKind::kSpan) {
      first = std::min(first, ev.wall_ns - std::min(ev.wall_dur_ns, ev.wall_ns));
    }
    if (ev.phase == obs::TraceEventPhase::kBatchExecute) {
      last = std::max(last, ev.wall_ns);
    }
  }
  return last > first ? seconds_between(first, last) : 0.0;
}

/// A failed-over batch seen in a traced block, for the failover metric.
struct FailoverWindow {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int64_t batch = 0;
};

void run_serving(Run& r, const ServeShape& shape) {
  RunResult& out = r.out;
  Sharded sg;
  ReachIndex index;
  if (!timed_setup(r, [&] {
        sg = make_sharded(r, shape.scale_shift, shape.in_edges);
        if (!shape.replicated) return;
        const std::uint64_t t0 = now_ns();
        Span s(r.spans, "index.build");
        index = ReachIndex::build(sg.graph, {});
        s.end();
        out.layer["index.build_s"] = seconds_between(t0, now_ns());
      })) {
    return;
  }
  const auto machines = static_cast<PartitionId>(kThreads);

  obs::MetricsRegistry registry;
  ServiceOptions so;
  so.scheduler.threads = 1;
  so.scheduler.metrics = &registry;
  so.queue_cap = 64;
  so.deadline_seconds = 0.050;
  so.linger_seconds = 0.010;
  RecoveryOptions recovery;
  recovery.checkpoint_interval = 2;
  const auto make_cluster = [&] {
    auto c = std::make_unique<Cluster>(machines);
    c->set_compute_threads(1);
    if (shape.replicated) c->set_recovery(recovery);
    return c;
  };

  ExecStats exec;
  double exec_wall = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t failovers = 0;
  std::size_t peak_queue = 0;
  double ckpt_count = 0;
  double ckpt_bytes = 0;
  double ckpt_s = 0;
  std::vector<double> sim_latency;
  std::vector<FailoverWindow> failover_windows;
  std::vector<TimedQuery> checked_arrivals;
  ServiceRunResult checked;

  measure(r, [&](const BlockInfo& blk) {
    PoissonArrivalParams ap;
    ap.rate_qps = 3200;
    ap.count = shape.arrivals;
    ap.k = 3;
    ap.seed = derive_seed(r.cfg.seed, Stream::kQueries, blk.index);
    ap.point_fraction = shape.point_fraction;
    std::vector<TimedQuery> arrivals = make_poisson_arrivals(sg.graph, ap);

    std::vector<std::unique_ptr<Cluster>> clusters;
    std::vector<Cluster*> replicas;
    for (std::size_t i = 0; i < (shape.replicated ? 2 : 1); ++i) {
      clusters.push_back(make_cluster());
      replicas.push_back(clusters.back().get());
    }
    ServiceOptions opts = so;
    std::unique_ptr<ReplicaRouter> router;
    if (shape.replicated) {
      ReplicaRouterOptions ro;
      ro.route_seed = derive_seed(r.cfg.seed, Stream::kRoute, blk.index);
      router = std::make_unique<ReplicaRouter>(replicas, sg.shards,
                                               sg.partition, so.scheduler, ro);
      opts.router = router.get();
      opts.index = &index;
      // Batch 0 opens with the first arrival the index cannot answer; halt
      // the replica it routes to mid-batch, between checkpoint cuts.
      VertexId root = arrivals.front().query.source;
      for (const TimedQuery& tq : arrivals) {
        const KHopQuery& q = tq.query;
        if (!q.is_point() || index.query(q.source, q.target, q.k) ==
                                 IndexVerdict::kUnknown) {
          root = q.source;
          break;
        }
      }
      HaltSpec halt;
      halt.at_superstep = 3;
      replicas[router->route_batch(0, root)]->arm_halt(halt);
    }

    const std::uint64_t t0 = now_ns();
    ServiceRunResult run;
    {
      Span unit(r.spans, "bench.unit", static_cast<std::int64_t>(blk.index));
      Span call(r.spans, "service.run", static_cast<std::int64_t>(blk.index));
      run = run_query_service(*replicas.front(), sg.shards, sg.partition,
                              arrivals, opts);
    }
    const std::uint64_t t1 = now_ns();
    BlockOutcome o;
    o.wall_s = seconds_between(t0, t1);
    if (blk.warmup) return o;

    const ServiceStats& st = run.stats;
    if (!st.identities_hold()) out.problem("service counter identities broken");
    if (shape.replicated && st.failovers != 1) {
      out.problem("expected exactly one failover per block, saw " +
                  std::to_string(st.failovers));
    }
    out.attempted += st.submitted;
    out.failed += st.shed + st.expired;
    o.answered = st.completed + st.index_answered;
    shed += st.shed;
    expired += st.expired;
    failovers += st.failovers;
    peak_queue = std::max<std::size_t>(peak_queue, st.peak_queue_depth);

    std::unordered_map<std::size_t, double> batch_wall;
    for (const obs::BatchTrace& bt : run.telemetry.batches) {
      exec.add(bt);
      exec_wall += bt.execute_wall_seconds;
      batch_wall[bt.index] = bt.execute_wall_seconds;
    }
    for (const ServiceQueryRecord& q : run.queries) {
      if (q.outcome == ServiceOutcome::kCompleted) {
        o.latency_s.push_back(batch_wall[q.batch_index]);
      }
      // Modeled latency is exact run to run; one block's worth is enough.
      if (blk.index == 1 && (q.outcome == ServiceOutcome::kCompleted ||
                             q.outcome == ServiceOutcome::kIndexAnswered)) {
        sim_latency.push_back(q.response_sim_seconds);
      }
    }
    for (const Cluster* c : replicas) {
      ckpt_count += static_cast<double>(c->recovery_stats().checkpoints_taken);
      ckpt_bytes += static_cast<double>(c->recovery_stats().checkpoint_bytes);
      ckpt_s += c->recovery_stats().checkpoint_seconds;
    }
    if (blk.traced) {
      for (const ServiceBatchRecord& b : run.batches) {
        if (b.failovers > 0) {
          failover_windows.push_back(
              {t0, t1, static_cast<std::int64_t>(b.index)});
        }
      }
    }
    if (blk.index == 1) {
      checked = std::move(run);
      checked_arrivals = std::move(arrivals);
    }
    return o;
  });

  // ---- output checks on the first measured block (outside the timed
  // phase) ----
  bool corrupt = r.cfg.corrupt;
  if (!shape.replicated) {
    // 64 completed aggregate answers spread over the block vs the serial
    // k-hop reference on the global graph.
    std::vector<std::size_t> done;
    for (std::size_t i = 0; i < checked.queries.size(); ++i) {
      if (checked.queries[i].outcome == ServiceOutcome::kCompleted) {
        done.push_back(i);
      }
    }
    const std::size_t step = std::max<std::size_t>(1, done.size() / 64);
    for (std::size_t j = 0; j < done.size() && j / step < 64; j += step) {
      const KHopQuery& q = checked_arrivals[done[j]].query;
      std::uint64_t want = khop_reach_count(sg.graph, q.source, q.k);
      if (corrupt) {
        ++want;
        corrupt = false;
      }
      out.compare(checked.queries[done[j]].visited == want,
                  "khop answer for query " + std::to_string(q.id));
    }
  } else {
    // 64 point verdicts, index-answered and traversal fallbacks alike,
    // vs full BFS from the source.
    std::vector<std::size_t> by_index;
    std::vector<std::size_t> by_fallback;
    for (std::size_t i = 0; i < checked.queries.size(); ++i) {
      const ServiceQueryRecord& q = checked.queries[i];
      if (q.reachable < 0) continue;
      (q.outcome == ServiceOutcome::kIndexAnswered ? by_index : by_fallback)
          .push_back(i);
    }
    std::vector<std::size_t> picks;
    for (std::size_t j = 0; picks.size() < 64 &&
                            (j < by_index.size() || j < by_fallback.size());
         ++j) {
      if (j < by_index.size()) picks.push_back(by_index[j]);
      if (j < by_fallback.size() && picks.size() < 64) {
        picks.push_back(by_fallback[j]);
      }
    }
    for (const std::size_t i : picks) {
      const KHopQuery& q = checked_arrivals[i].query;
      bool want = bfs_levels(sg.graph, q.source)[q.target] != kUnvisitedDepth;
      if (corrupt) {
        want = !want;
        corrupt = false;
      }
      out.compare((checked.queries[i].reachable == 1) == want,
                  "point verdict for query " + std::to_string(q.id));
    }
  }
  if (out.compared < 64) {
    out.problem("only " + std::to_string(out.compared) +
                " answers were checked (want >= 64)");
  }

  // ---- per-layer metrics (counts are per block) ----
  const auto blocks = static_cast<double>(out.blocks.size());
  exec.publish(out, out.measured_s);
  publish_sim(out, std::move(sim_latency));
  out.layer["service.overhead_frac"] = 1.0 - exec_wall / out.measured_s;
  out.layer["service.shed"] = static_cast<double>(shed);
  out.layer["service.expired"] = static_cast<double>(expired);
  out.layer["service.peak_queue"] = static_cast<double>(peak_queue);
  out.layer["router.failovers"] = static_cast<double>(failovers) / blocks;
  if (shape.replicated) {
    out.layer["ckpt.count"] = ckpt_count / blocks;
    out.layer["ckpt.bytes"] = ckpt_bytes / blocks;
    out.layer["ckpt.write_frac"] = ckpt_s / (kThreads * out.measured_s);
  }

  if (r.tracer != nullptr) {
    if (!failover_windows.empty()) {
      std::vector<double> ratios;
      const double median_batch = percentile(exec.batch_wall_s, 50);
      for (const FailoverWindow& w : failover_windows) {
        ratios.push_back(
            failover_batch_wall_s(*r.tracer, w.t0, w.t1, w.batch) /
            median_batch);
      }
      out.layer["router.failover_batch_ratio"] = percentile(ratios, 50);
    }
    const std::unique_ptr<Cluster> cluster = make_cluster();
    BatchExecutor ex(*cluster, sg.shards, sg.partition, so.scheduler);
    measure_min_batch(r, sg.graph, [&](std::span<const KHopQuery> b) {
      return ex.execute(b).result;
    });
    std::vector<std::pair<VertexId, VertexId>> pairs;
    if (shape.replicated) {
      for (const TimedQuery& tq : checked_arrivals) {
        if (tq.query.is_point()) {
          pairs.emplace_back(tq.query.source, tq.query.target);
        }
      }
    } else {
      pairs = random_pairs(r, sg.graph, 4096);
    }
    measure_index(r, sg.graph, shape.replicated ? &index : nullptr,
                  std::move(pairs));
  }
  publish_e2e(out);
}

}  // namespace

void run_khop_serve(Run& r) { run_serving(r, khop_serve_shape(r.cfg)); }

void run_mixed_replicated(Run& r) { run_serving(r, mixed_shape(r.cfg)); }

}  // namespace cgraph::suite
