// engine_deep: the single-machine bit-parallel kernel in a closed loop.
//
// msbfs_batch with kThreads compute threads and the default hybrid
// direction over FRS-100B at scale_shift 5 with CSC (the graph and its bit
// planes are cache-resident), 64-wide batches of uniform-root queries with
// unbounded depth. No admission, network or deltas: deep levels switch to
// pull and unbounded queries overlap heavily, so this is where a change to
// the kernel itself (or to its level-plane handling) shows up alone.
#include "workloads.hpp"

namespace cgraph::suite {

void run_engine_deep(Run& r) {
  RunResult& out = r.out;
  constexpr std::size_t kWidth = 64;
  // A block is about 0.6 s on a 4-vCPU x86-64 VM.
  const std::uint64_t batches_per_block = r.cfg.smoke ? 4 : 200;

  Graph graph;
  if (!timed_setup(r, [&] {
        graph = make_graph(r, r.cfg.smoke ? 9 : 5, /*in_edges=*/true);
      })) {
    return;
  }

  ExecStats exec;
  std::vector<double> sim_latency;
  std::vector<KHopQuery> first_batch;
  MsBfsBatchResult first;
  std::uint64_t frontier_bytes = 0;

  measure(r, [&](const BlockInfo& blk) {
    BlockOutcome o;
    for (std::uint64_t i = 0; i < batches_per_block; ++i) {
      const std::uint64_t b = blk.index * batches_per_block + i;
      const std::vector<KHopQuery> batch =
          make_random_queries(graph, kWidth, kUnvisitedDepth,
                              derive_seed(r.cfg.seed, Stream::kQueries, b));
      const std::uint64_t t0 = now_ns();
      MsBfsBatchResult res;
      {
        Span unit(r.spans, "bench.unit", static_cast<std::int64_t>(b));
        Span call(r.spans, "msbfs.batch", static_cast<std::int64_t>(b));
        res = msbfs_batch(graph, batch, kThreads);
      }
      o.wall_s += seconds_between(t0, now_ns());
      if (blk.warmup) continue;
      o.answered += batch.size();
      // Closed loop: the batch was due when the previous call returned,
      // which is when this call started.
      o.latency_s.insert(o.latency_s.end(),
                         res.completion_wall_seconds.begin(),
                         res.completion_wall_seconds.end());
      // Modeled latency is exact run to run: one block's worth is enough,
      // and keeping more would tie memory to how many blocks ran.
      if (blk.index == 1) {
        sim_latency.insert(sim_latency.end(),
                           res.completion_sim_seconds.begin(),
                           res.completion_sim_seconds.end());
      }
      out.attempted += batch.size();
      exec.add(trace_of(res, batch.size()));
      frontier_bytes = std::max(frontier_bytes, res.frontier_bytes);
      if (first_batch.empty()) {
        first_batch = batch;
        first = std::move(res);
      }
    }
    return o;
  });

  // Output check: every answer of the first measured batch vs the serial
  // reference BFS.
  bool corrupt = r.cfg.corrupt;
  for (std::size_t i = 0; i < first_batch.size(); ++i) {
    std::uint64_t want =
        khop_reach_count(graph, first_batch[i].source, first_batch[i].k);
    if (corrupt) {
      ++want;
      corrupt = false;
    }
    out.compare(first.visited[i] == want,
                "unbounded answer for query " + std::to_string(i));
  }

  exec.publish(out, out.measured_s);
  publish_sim(out, std::move(sim_latency));
  out.layer["msbfs.frontier_bytes"] = static_cast<double>(frontier_bytes);
  if (r.tracer != nullptr) {
    measure_min_batch(r, graph, [&](std::span<const KHopQuery> b) {
      return msbfs_batch(graph, b, kThreads);
    });
    measure_index(r, graph, nullptr, random_pairs(r, graph, 4096));
  }
  publish_e2e(out);
}

}  // namespace cgraph::suite
