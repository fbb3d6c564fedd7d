// khop_writes: k-hop reads beside a stream of edge mutations.
//
// kThreads machines x 1 thread over FRS-100B at scale_shift 4 with CSC. A
// block is one compaction cycle: 16 epochs, each applying ~E/1024 trace ops
// (25% deletes) with apply_trace_epoch and then running 4
// BatchExecutor::execute calls of 64 uniform k=3 queries at kEpochHead; the
// 16th epoch compacts every shard inside the timed wall. Every block starts
// from the frozen shards and replays the same trace, so each block does the
// same writes and the run's memory does not depend on how many blocks ran.
// Merged base+delta scans, apply cost and compaction stalls only run here,
// so a change that trades read speed for write or compaction cost (or the
// reverse) shows in this workload's qps and p50_ms (and in the per-layer
// p99_ms, where the compaction stalls land).
#include "workloads.hpp"

namespace cgraph::suite {

namespace {

constexpr std::size_t kCycle = 16;  // epochs per compaction = per block
constexpr std::size_t kBatchesPerEpoch = 4;
constexpr std::size_t kWidth = 64;

}  // namespace

void run_khop_writes(Run& r) {
  RunResult& out = r.out;
  Sharded sg;
  if (!timed_setup(r, [&] {
        sg = make_sharded(r, r.cfg.smoke ? 9 : 4, /*in_edges=*/true);
      })) {
    return;
  }
  const std::vector<SubgraphShard> frozen = sg.shards;

  // Input generation, outside both set-up and the timed phase.
  MutationTraceOptions topt;
  topt.seed = derive_seed(r.cfg.seed, Stream::kTrace);
  topt.num_epochs = kCycle;
  topt.ops_per_epoch = std::max<std::size_t>(
      32, static_cast<std::size_t>(sg.graph.num_edges() / 1024));
  topt.delete_fraction = 0.25;
  MutationTrace trace;
  {
    Span s(r.spans, "gen.trace");
    trace = generate_mutation_trace(sg.graph, topt);
  }

  // Fixed probe batch, answered after each block's compaction (outside the
  // timed wall) and compared after the measured phase with the serial
  // reference on a Graph rebuilt from the whole trace.
  const std::vector<KHopQuery> probe = make_random_queries(
      sg.graph, kWidth, 3, derive_seed(r.cfg.seed, Stream::kCheck));
  std::vector<std::vector<std::uint64_t>> probed;

  obs::MetricsRegistry registry;
  SchedulerOptions so;
  so.threads = 1;
  so.metrics = &registry;

  ExecStats exec;
  std::vector<double> sim_latency;
  double apply_s = 0;
  double compact_s = 0;
  std::uint64_t write_ops = 0;
  double delta_events = 0;
  double delta_bytes = 0;
  std::uint64_t epochs_measured = 0;
  std::uint64_t frontier_bytes = 0;

  measure(r, [&](const BlockInfo& blk) {
    sg.shards = frozen;
    Cluster cluster(static_cast<PartitionId>(kThreads));
    BatchExecutor ex(cluster, sg.shards, sg.partition, so);
    const std::span<SubgraphShard> shards(sg.shards);
    BlockOutcome o;
    for (std::size_t e = 0; e < kCycle; ++e) {
      const std::uint64_t unit_id = blk.index * kCycle + e;
      std::vector<std::vector<KHopQuery>> batches;
      for (std::size_t j = 0; j < kBatchesPerEpoch; ++j) {
        batches.push_back(make_random_queries(
            sg.graph, kWidth, 3,
            derive_seed(r.cfg.seed, Stream::kQueries,
                        unit_id * kBatchesPerEpoch + j)));
      }
      const bool compact = e + 1 == kCycle;

      const std::uint64_t t0 = now_ns();
      std::uint64_t t_applied = 0;
      std::uint64_t t_compacted = 0;
      std::vector<BatchExecutor::Outcome> results;
      std::vector<double> waited;
      {
        Span unit(r.spans, "bench.unit", static_cast<std::int64_t>(unit_id));
        {
          Span s(r.spans, "graph.apply", static_cast<std::int64_t>(unit_id));
          apply_trace_epoch(shards, trace, e);
        }
        t_applied = now_ns();
        if (compact) {
          Span s(r.spans, "graph.compact", static_cast<std::int64_t>(unit_id));
          for (SubgraphShard& shard : sg.shards) shard.compact();
        }
        t_compacted = now_ns();
        // Closed loop: the first batch was due when the epoch began, so the
        // writes and any compaction count against its queries; each later
        // batch is due when the previous call returned.
        std::uint64_t due = t0;
        for (std::size_t j = 0; j < batches.size(); ++j) {
          const std::uint64_t b0 = now_ns();
          {
            Span s(r.spans, "exec.batch",
                   static_cast<std::int64_t>(unit_id * kBatchesPerEpoch + j));
            results.push_back(ex.execute(batches[j]));
          }
          waited.push_back(seconds_between(due, b0));
          due = now_ns();
        }
      }
      o.wall_s += seconds_between(t0, now_ns());
      if (blk.warmup) continue;
      for (std::size_t j = 0; j < results.size(); ++j) {
        const MsBfsBatchResult& res = results[j].result;
        for (std::size_t i = 0; i < batches[j].size(); ++i) {
          o.latency_s.push_back(waited[j] + res.completion_wall_seconds[i]);
        }
        // Modeled latency is exact run to run; one block's worth is enough.
        if (blk.index == 1) {
          sim_latency.insert(sim_latency.end(),
                             res.completion_sim_seconds.begin(),
                             res.completion_sim_seconds.end());
        }
        exec.add(results[j].trace);
        frontier_bytes = std::max(frontier_bytes, res.frontier_bytes);
      }
      o.answered += kBatchesPerEpoch * kWidth;
      apply_s += seconds_between(t0, t_applied);
      compact_s += seconds_between(t_applied, t_compacted);
      write_ops += trace.epochs[e].size();
      out.attempted += trace.epochs[e].size() + kBatchesPerEpoch * kWidth;
      // Deltas only change in apply/compact, so the state now is what all
      // of this epoch's batches read.
      for (const SubgraphShard& shard : sg.shards) {
        delta_events += static_cast<double>(shard.delta_out().num_events() +
                                            shard.delta_in().num_events());
        delta_bytes += static_cast<double>(shard.delta_out().memory_bytes() +
                                           shard.delta_in().memory_bytes());
      }
      ++epochs_measured;
    }
    if (!blk.warmup) {
      Span s(r.spans, "check.probe", static_cast<std::int64_t>(blk.index));
      probed.push_back(ex.execute(probe).result.visited);
    }
    return o;
  });

  bool corrupt = r.cfg.corrupt;
  const Graph ref = Graph::build(apply_mutation_trace(sg.graph, trace, kCycle),
                                 sg.graph.num_vertices());
  std::vector<std::uint64_t> want(probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    want[i] = khop_reach_count(ref, probe[i].source, probe[i].k);
  }
  for (std::size_t b = 0; b < probed.size(); ++b) {
    for (std::size_t i = 0; i < probe.size(); ++i) {
      out.compare(probed[b][i] == want[i] + (corrupt ? 1 : 0),
                  "probe " + std::to_string(i) + " after block " +
                      std::to_string(b + 1));
      corrupt = false;
    }
  }

  const auto epochs = static_cast<double>(epochs_measured);
  exec.publish(out, out.measured_s);
  publish_sim(out, std::move(sim_latency));
  out.layer["msbfs.frontier_bytes"] = static_cast<double>(frontier_bytes);
  out.layer["graph.apply_ops_per_s"] = static_cast<double>(write_ops) / apply_s;
  out.layer["graph.apply_frac"] = apply_s / out.measured_s;
  out.layer["graph.compact_frac"] = compact_s / out.measured_s;
  out.layer["graph.delta_events"] = delta_events / epochs;
  out.layer["graph.delta_bytes"] = delta_bytes / epochs;
  if (r.tracer != nullptr) {
    Cluster cluster(static_cast<PartitionId>(kThreads));
    BatchExecutor ex(cluster, sg.shards, sg.partition, so);
    measure_min_batch(r, sg.graph, [&](std::span<const KHopQuery> b) {
      return ex.execute(b).result;
    });
    measure_index(r, ref, nullptr, random_pairs(r, ref, 4096));
  }
  publish_e2e(out);
}

}  // namespace cgraph::suite
