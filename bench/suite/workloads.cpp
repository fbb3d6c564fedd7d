#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <optional>

namespace cgraph::suite {

namespace {

/// Every per-layer metric name a run reports. Workloads without the
/// layer report 0 (see zero_missing_layers); run.py checks this list
/// against BENCHMARK.json.
const char* const kLayerMetrics[] = {
    "p99_ms",
    "gen.rmat_s",
    "graph.build_s",
    "graph.bytes",
    "graph.apply_ops_per_s",
    "graph.apply_frac",
    "graph.compact_frac",
    "graph.delta_events",
    "graph.delta_bytes",
    "index.build_s",
    "index.bytes",
    "index.probe_ns",
    "index.hit_frac",
    "service.overhead_frac",
    "service.shed",
    "service.expired",
    "service.peak_queue",
    "exec.batches",
    "exec.mean_width",
    "exec.batch_wall_p50_ms",
    "exec.batch_wall_p99_ms",
    "exec.min_batch_ms",
    "exec.busy_frac",
    "msbfs.edges_per_query",
    "msbfs.wall_ns_per_edge",
    "msbfs.levels_mean",
    "msbfs.pull_level_frac",
    "msbfs.steal_wait_frac",
    "msbfs.frontier_bytes",
    "net.supersteps_per_batch",
    "net.packets_per_batch",
    "net.staged_bytes_per_batch",
    "net.barrier_wait_frac",
    "net.straggler_ratio",
    "ckpt.count",
    "ckpt.bytes",
    "ckpt.write_frac",
    "router.failovers",
    "router.failover_batch_ratio",
    "sim.p50_ms",
    "sim.p99_ms",
    "calib.edge_wall_over_model",
    "calib.batch_wall_over_sim",
    "calib.probe_wall_over_model",
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, Stream stream,
                          std::uint64_t index) {
  // SplitMix64 finalizer over (seed, stream, index).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(stream) * 0xd1b54a32d192ed03ULL +
                    index * 0x8cb92ba72f3d8dd7ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Graph make_graph(Run& r, int scale_shift, bool in_edges) {
  const DatasetSpec& spec = dataset_spec("FRS-100B");
  RmatParams p;
  p.scale = spec.scale - static_cast<unsigned>(scale_shift);
  p.edge_factor = spec.edge_factor;
  p.seed = spec.seed;

  const std::uint64_t t0 = now_ns();
  EdgeList edges;
  {
    Span s(r.spans, "gen.rmat");
    edges = generate_rmat(p);
  }
  const std::uint64_t t1 = now_ns();
  Graph graph;
  {
    Span s(r.spans, "graph.build");
    Graph::BuildOptions opts;
    opts.build_in_edges = in_edges;
    graph = Graph::build(std::move(edges), VertexId{1} << p.scale, opts);
  }
  const std::uint64_t t2 = now_ns();
  r.out.layer["gen.rmat_s"] = seconds_between(t0, t1);
  r.out.layer["graph.build_s"] = seconds_between(t1, t2);
  r.out.layer["graph.bytes"] = static_cast<double>(graph.memory_bytes());
  return graph;
}

Sharded make_sharded(Run& r, int scale_shift, bool in_edges) {
  Sharded sg{make_graph(r, scale_shift, in_edges), {}, {}};
  const std::uint64_t t0 = now_ns();
  {
    Span s(r.spans, "graph.shard");
    sg.partition = RangePartition::balanced_by_edges(
        sg.graph, static_cast<PartitionId>(kThreads));
    ShardOptions opts;
    opts.build_in_edges = in_edges;
    sg.shards = build_shards(sg.graph, sg.partition, opts);
  }
  r.out.layer["graph.build_s"] += seconds_between(t0, now_ns());
  double bytes = 0;
  for (const SubgraphShard& shard : sg.shards) {
    bytes += static_cast<double>(shard.memory_bytes());
  }
  r.out.layer["graph.bytes"] = bytes;
  return sg;
}

void ExecStats::add(const obs::BatchTrace& bt) {
  batch_wall_s.push_back(bt.execute_wall_seconds);
  ++batches;
  queries += bt.width;
  edges += bt.edges_scanned();
  engine_wall_s += bt.execute_wall_seconds;
  engine_sim_s += bt.execute_sim_seconds;
  for (const obs::LevelTrace& lt : bt.levels) {
    ++levels;
    const double parts = lt.push_machines + lt.pull_machines;
    pull_share_sum += ratio(lt.pull_machines, parts);
    steal_wait_s += lt.steal_wait_seconds;
  }
  machines = bt.machines.size();
  for (const obs::MachineTrace& mt : bt.machines) {
    packets += mt.staged_packets + mt.async_packets;
    staged_bytes += mt.staged_bytes;
    barrier_wait_wall_s += mt.barrier_wait_wall_seconds;
  }
  if (!bt.machines.empty()) supersteps += bt.machines.front().supersteps;
  straggler_sum += bt.straggler_ratio;
}

void ExecStats::publish(RunResult& out, double measured_s) const {
  const auto n = static_cast<double>(batches);
  const double per_machine = static_cast<double>(std::max<std::uint64_t>(
      machines, 1));
  auto& l = out.layer;
  l["exec.batches"] = n;
  l["exec.mean_width"] = ratio(static_cast<double>(queries), n);
  l["exec.batch_wall_p50_ms"] = percentile(batch_wall_s, 50) * 1e3;
  l["exec.batch_wall_p99_ms"] = percentile(batch_wall_s, 99) * 1e3;
  l["exec.busy_frac"] = ratio(engine_wall_s, measured_s);
  l["msbfs.edges_per_query"] =
      ratio(static_cast<double>(edges), static_cast<double>(queries));
  l["msbfs.wall_ns_per_edge"] =
      ratio(engine_wall_s * 1e9, static_cast<double>(edges));
  l["msbfs.levels_mean"] = ratio(static_cast<double>(levels), n);
  l["msbfs.pull_level_frac"] =
      ratio(pull_share_sum, static_cast<double>(levels));
  l["msbfs.steal_wait_frac"] =
      ratio(steal_wait_s, engine_wall_s * per_machine);
  l["net.supersteps_per_batch"] = ratio(static_cast<double>(supersteps), n);
  l["net.packets_per_batch"] = ratio(static_cast<double>(packets), n);
  l["net.staged_bytes_per_batch"] =
      ratio(static_cast<double>(staged_bytes), n);
  l["net.barrier_wait_frac"] =
      machines > 0 ? ratio(barrier_wait_wall_s, engine_wall_s * per_machine)
                   : 0.0;
  l["net.straggler_ratio"] = machines > 0 ? ratio(straggler_sum, n) : 0.0;
  l["calib.edge_wall_over_model"] =
      ratio(l["msbfs.wall_ns_per_edge"], CostModel{}.ns_per_edge);
  l["calib.batch_wall_over_sim"] = ratio(engine_wall_s, engine_sim_s);
}

obs::BatchTrace trace_of(const MsBfsBatchResult& res, std::size_t width) {
  obs::BatchTrace bt;
  bt.width = width;
  bt.execute_wall_seconds = res.wall_seconds;
  bt.execute_sim_seconds = res.sim_seconds;
  bt.levels = res.level_trace;
  return bt;
}

void measure(Run& r,
             const std::function<BlockOutcome(const BlockInfo&)>& block) {
  r.spans.set_enabled(false);
  block(BlockInfo{0, true, false});
  for (std::size_t b = 1;
       r.out.blocks.size() < kMinBlocks || r.out.measured_s < r.cfg.seconds;
       ++b) {
    const BlockInfo info{b, false, r.cfg.traced && b % 2 == 0};
    std::optional<obs::EventTracer::Scope> scope;
    if (info.traced) {
      r.spans.set_enabled(true);
      scope.emplace(*r.tracer);
    }
    const BlockOutcome o = block(info);
    scope.reset();
    r.spans.set_enabled(false);
    r.out.blocks.push_back({info.traced, o.wall_s, o.answered,
                            percentile(o.latency_s, 50),
                            percentile(o.latency_s, 99)});
    r.out.measured_s += o.wall_s;
  }
  r.out.e2e["peak_rss_mb"] = peak_rss_mib();
  r.spans.set_enabled(r.cfg.traced);
}

void publish_e2e(RunResult& out) {
  std::vector<double> qps[2];  // [traced]
  std::vector<double> p50;
  std::vector<double> p99;
  for (const BlockResult& b : out.blocks) {
    qps[b.traced ? 1 : 0].push_back(
        ratio(static_cast<double>(b.answered), b.wall_s));
    if (b.traced) continue;
    p50.push_back(b.p50_s);
    p99.push_back(b.p99_s);
  }
  const double untraced_qps = percentile(qps[0], 50);
  out.e2e["qps"] = untraced_qps;
  out.e2e["p50_ms"] = percentile(p50, 50) * 1e3;
  out.e2e["setup_s"] = out.setup_s;
  out.layer["p99_ms"] = percentile(p99, 50) * 1e3;
  if (!qps[1].empty()) {
    out.layer["obs.trace_overhead_pct"] =
        (untraced_qps - percentile(qps[1], 50)) / untraced_qps * 100;
  }
}

void publish_sim(RunResult& out, std::vector<double> sim_latency_s) {
  out.layer["sim.p50_ms"] = percentile(sim_latency_s, 50) * 1e3;
  out.layer["sim.p99_ms"] = percentile(sim_latency_s, 99) * 1e3;
}

std::vector<std::pair<VertexId, VertexId>> random_pairs(Run& r,
                                                        const Graph& graph,
                                                        std::size_t count) {
  Xoshiro256 rng(derive_seed(r.cfg.seed, Stream::kIndexPairs));
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto s = static_cast<VertexId>(rng.next_bounded(graph.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_bounded(graph.num_vertices()));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

void measure_index(Run& r, const Graph& graph, const ReachIndex* built,
                   std::vector<std::pair<VertexId, VertexId>> pairs) {
  ReachIndex local;
  const ReachIndex* index = built;
  if (index == nullptr) {
    const std::uint64_t t0 = now_ns();
    {
      Span s(r.spans, "index.build");
      local = ReachIndex::build(graph, {});
    }
    r.out.layer["index.build_s"] = seconds_between(t0, now_ns());
    index = &local;
  }
  const std::size_t calls = r.cfg.smoke ? 100000 : 1000000;
  std::uint64_t conclusive = 0;
  const std::uint64_t t0 = now_ns();
  {
    Span s(r.spans, "index.probe");
    std::size_t j = 0;
    for (std::size_t i = 0; i < calls; ++i) {
      const auto& [src, dst] = pairs[j];
      conclusive += index->query(src, dst) != IndexVerdict::kUnknown ? 1 : 0;
      if (++j == pairs.size()) j = 0;
    }
  }
  const double probe_ns =
      static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
  r.out.layer["index.bytes"] = static_cast<double>(index->memory_bytes());
  r.out.layer["index.probe_ns"] = probe_ns;
  r.out.layer["index.hit_frac"] =
      static_cast<double>(conclusive) / static_cast<double>(calls);
  r.out.layer["calib.probe_wall_over_model"] =
      ratio(probe_ns, index->probe_sim_seconds() * 1e9);
}

void measure_min_batch(
    Run& r, const Graph& graph,
    const std::function<MsBfsBatchResult(std::span<const KHopQuery>)>& run) {
  if (!r.out.layer.contains("msbfs.frontier_bytes")) {
    const auto wide = make_random_queries(
        graph, 64, 3, derive_seed(r.cfg.seed, Stream::kCheck, 1));
    r.out.layer["msbfs.frontier_bytes"] =
        static_cast<double>(run(wide).frontier_bytes);
  }
  const auto roots = make_random_queries(
      graph, 200, 1, derive_seed(r.cfg.seed, Stream::kCheck, 2));
  std::vector<double> walls;
  walls.reserve(roots.size());
  for (const KHopQuery& q : roots) {
    const std::uint64_t t0 = now_ns();
    {
      Span s(r.spans, "exec.min_batch", static_cast<std::int64_t>(q.id));
      run(std::span(&q, 1));
    }
    walls.push_back(seconds_between(t0, now_ns()));
  }
  r.out.layer["exec.min_batch_ms"] = percentile(walls, 50) * 1e3;
}

void zero_missing_layers(RunResult& out) {
  for (const char* name : kLayerMetrics) out.layer.try_emplace(name, 0.0);
}

}  // namespace cgraph::suite
