// cgraph_tool — command-line front end for the library, the kind of
// utility an operator would use around the query service.
//
//   cgraph_tool gen      --out g.bin [--model rmat|uniform|ws] [--scale 16]
//                        [--edge-factor 16] [--seed 1] [--n ...] [--m ...]
//                        [--k-ring 8] [--beta 0.1] [--weights]
//   cgraph_tool convert  --in edges.txt --out g.bin      (text -> binary)
//   cgraph_tool stats    --in g.bin [--machines 4] [--hop-samples 8]
//   cgraph_tool query    --in g.bin --source 0 [--k 3] [--machines 4]
//                        [--paths] [--target 42] [--threads N]
//                        [--direction push|pull|hybrid] [--alpha A] [--beta B]
//                        [--index off|grail|gates|full] [--labels L]
//                        [--gates G] [--index-seed S]
//   cgraph_tool batch    --in g.bin [--queries 100] [--k 3] [--seed 1]
//                        [--machines 4] [--threads N]
//                        [--direction push|pull|hybrid] [--alpha A] [--beta B]
//   cgraph_tool serve    --in g.bin [--arrival-rate 500] [--queries 1000]
//                        [--seed 42] [--k 3] [--machines 4] [--threads N]
//                        [--batch-width 64] [--queue-cap 1024]
//                        [--deadline 0] [--linger 0.01] [--point-fraction 0]
//                        [--replicas N] [--replica-kill r@s] [--route-seed S]
//                        [the direction and index flags of query]
//   cgraph_tool pagerank --in g.bin [--iterations 10] [--machines 4]
//                        [--threads N]
//
// Every flag is parsed and range-checked before the command does any work.
// A flag the command does not take, a value that is not one number, or a
// value the library would refuse exits 2 with one line naming the flag.
//
// --threads N sets the intra-machine compute threads for traversal and
// GAS phases (0 = one per hardware core, 1 = serial; results are
// bit-exact either way). Without the flag, $CGRAPH_THREADS applies, and
// with neither, each simulated machine computes serially.
//
// Any command also takes --metrics-out PATH: after the command runs, the
// process-global metrics registry (query spans, superstep counters, fabric
// traffic) is written there — Prometheus text format, or JSON when PATH
// ends in .json. Without the flag, $CGRAPH_METRICS names the same sink.
//
// Any command also takes --trace-out PATH: the run is recorded by the
// event tracer and exported afterwards — Chrome trace_event JSON
// (Perfetto-loadable), or JSONL when PATH ends in .jsonl. Queries that
// were shed, expired, or re-executed after a crash additionally get
// flight-recorder dumps in PATH.flight/.
//
// Crash-fault flags (query/batch/serve/pagerank): --crash m@s[,m@s...]
// kills machine m at superstep s; --crash-prob P crashes each machine with
// probability P per superstep (seeded by --fault-seed, default 1). Either
// flag enables superstep checkpointing + deterministic recovery;
// --checkpoint-interval N and --checkpoint-dir PATH tune where and how
// often checkpoints land. A recovery summary is printed after the run.
//
// Direction flags (query/batch/serve, DESIGN.md §12): --direction forces
// the bit-parallel engine top-down (push), bottom-up (pull), or leaves the
// per-level per-partition heuristic on (hybrid, the default); --alpha and
// --beta tune the push->pull / pull->push thresholds. Every mode answers
// bit-identically.
//
// Index flags (query/serve, DESIGN.md §13): --index builds the
// reachability index tier (GRAIL interval labels and/or backbone gates).
// `query` probes it first for a point query (--source + --target, no
// --paths); `serve` installs it as the admission bypass lane. A conclusive
// verdict skips the traversal entirely; kUnknown falls back to the MS-BFS
// engine and the answer is resolved from its visited plane. --labels,
// --gates, and --index-seed tune construction.
//
// serve (DESIGN.md §10) feeds Poisson arrivals through the bounded
// admission queue (overflow is shed, queries past --deadline expire;
// batches seal at --batch-width queries or after --linger seconds) and
// prints p50/p95/p99 latency against the paper's response-time thresholds.
// --point-fraction F issues that fraction as unbounded point queries
// (source -> random target), the workload the index answers at admission.
//
// Replication flags (serve, DESIGN.md §14): --replicas N runs N replica
// clusters behind a health-checked router, and --replica-kill r@s
// fail-stops replica r at superstep s (comma lists allowed; one replica
// must survive) to exercise cross-replica failover. Answers stay
// bit-exact; a replication summary is printed. On a degraded-mode
// shutdown (any replica dead) the tool flushes metrics even without
// --metrics-out (cgraph_tool_degraded.prom) and, with --trace-out, a
// service-level flight record of the failover events.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cgraph/cgraph.hpp"

using namespace cgraph;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cgraph_tool "
               "<gen|convert|stats|query|batch|serve|pagerank> [options]\n"
               "(see header comment of examples/cgraph_tool.cpp for the "
               "full option list)\n");
  return 2;
}

/// A flag the operator got wrong: main() prints it on one line, exits 2.
/// Options::get_int/get_double throw the same base type for non-numbers.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int64_t kMaxQueries = std::int64_t{1} << 20;

/// One command's flags. Every read marks the flag as one the command
/// takes and range-checks its value; done() then rejects any flag nobody
/// read, so a typo fails before the command loads or runs anything.
class Flags {
 public:
  explicit Flags(const Options& opts) : opts_(opts) {}

  bool has(const std::string& name) {
    known_.insert(name);
    return opts_.has(name);
  }

  std::string str(const std::string& name, const std::string& def = "") {
    known_.insert(name);
    return opts_.get(name, def);
  }

  std::string required(const std::string& name) {
    std::string value = str(name);
    if (value.empty()) throw FlagError("missing --" + name);
    return value;
  }

  std::int64_t num(const std::string& name, std::int64_t def,
                   std::int64_t lo = kInt64Min, std::int64_t hi = kInt64Max) {
    known_.insert(name);
    const std::int64_t v = opts_.get_int(name, def);
    if (v < lo || v > hi) {
      throw FlagError("--" + name + " " + std::to_string(v) +
                      " is out of range [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
    }
    return v;
  }

  /// A double in [lo, hi], or in (0, hi] when `positive`.
  double real(const std::string& name, double def, double lo, double hi,
              bool positive = false) {
    known_.insert(name);
    const double v = opts_.get_double(name, def);
    if (!(v >= lo && v <= hi) || (positive && v <= 0)) {
      char msg[160];
      std::snprintf(msg, sizeof(msg), "--%s %g is out of range %s%g, %g]",
                    name.c_str(), v, positive ? "(" : "[", lo, hi);
      throw FlagError(msg);
    }
    return v;
  }

  void done() const {
    for (const std::string& key : opts_.keys()) {
      if (known_.count(key) == 0) throw FlagError("unknown flag --" + key);
    }
    if (!opts_.positional().empty()) {
      throw FlagError("unexpected argument '" + opts_.positional()[0] + "'");
    }
  }

 private:
  const Options& opts_;
  std::set<std::string> known_;
};

using AtList = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Parse an `a@b[,a@b...]` list (--crash machine@superstep,
/// --replica-kill replica@superstep); every `a` must be below `limit`.
AtList parse_at_list(const std::string& flag, const std::string& text,
                     const char* what, std::uint64_t limit) {
  if (text.empty()) return {};
  const auto number = [](std::string_view s, std::uint64_t& v) {
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    return !s.empty() && ec == std::errc() && end == s.data() + s.size();
  };
  AtList out;
  for (std::size_t pos = 0; pos <= text.size();) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string_view spec(text.data() + pos, comma - pos);
    const std::size_t at = spec.find('@');
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    if (at == std::string_view::npos || !number(spec.substr(0, at), a) ||
        !number(spec.substr(at + 1), b) || a >= limit) {
      throw FlagError("bad --" + flag + " spec '" + std::string(spec) +
                      "' (want " + what + "@superstep, " + what + " < " +
                      std::to_string(limit) + ")");
    }
    out.emplace_back(a, b);
    pos = comma + 1;
  }
  return out;
}

PartitionId read_machines(Flags& f) {
  return static_cast<PartitionId>(f.num("machines", 4, 1, 4096));
}

/// Hop bound; 255 (kUnvisitedDepth) means unbounded.
Depth read_k(Flags& f) {
  return static_cast<Depth>(f.num("k", 3, 0, kUnvisitedDepth));
}

std::size_t read_queries(Flags& f, std::int64_t def) {
  return static_cast<std::size_t>(f.num("queries", def, 1, kMaxQueries));
}

std::uint64_t read_seed(Flags& f, std::int64_t def) {
  return static_cast<std::uint64_t>(f.num("seed", def));
}

DirectionOptions read_direction(Flags& f) {
  DirectionOptions dir;
  const std::string mode = f.str("direction");
  if (!mode.empty() && !parse_direction(mode, &dir.mode)) {
    throw FlagError("bad --direction '" + mode + "' (want push|pull|hybrid)");
  }
  dir.alpha = f.real("alpha", dir.alpha, 0, kInf, /*positive=*/true);
  dir.beta = f.real("beta", dir.beta, 0, kInf, /*positive=*/true);
  return dir;
}

/// --index and its tuning flags; nullopt when the index is off.
std::optional<IndexOptions> read_index(Flags& f) {
  IndexOptions io;
  io.num_labels = static_cast<std::uint32_t>(
      f.num("labels", io.num_labels, 0, 64));
  io.num_gates =
      static_cast<std::uint32_t>(f.num("gates", io.num_gates, 0, 4096));
  io.seed = static_cast<std::uint64_t>(
      f.num("index-seed", static_cast<std::int64_t>(io.seed)));
  const std::string mode = f.str("index");
  if (mode.empty()) return std::nullopt;
  const auto parsed = parse_index_mode(mode);
  if (!parsed.has_value()) {
    throw FlagError("bad --index '" + mode + "' (want off|grail|gates|full)");
  }
  io.mode = *parsed;
  if (io.mode == IndexMode::kOff) return std::nullopt;
  return io;
}

/// Fault seed of the run, for the flight recorder's replay record.
std::uint64_t g_fault_seed = 1;

/// Set when a replicated run shut down with at least one replica dead;
/// main() then flushes metrics + a service-level flight record.
bool g_degraded_shutdown = false;

/// Everything needed to build the clusters a command runs on: machines,
/// compute threads, the crash/checkpoint flags and, for serve, the
/// replica set.
struct ClusterFlags {
  PartitionId machines = 4;
  std::optional<std::size_t> threads;
  bool recovery = false;  // some crash/checkpoint flag was given
  AtList crashes;
  double crash_prob = 0;
  RecoveryOptions checkpoints;
  std::size_t replicas = 1;
  AtList kills;
  std::uint64_t route_seed = 1;
};

ClusterFlags read_cluster(Flags& f, bool replication) {
  ClusterFlags c;
  c.machines = read_machines(f);
  if (f.has("threads")) {
    c.threads = static_cast<std::size_t>(f.num("threads", 1, 0, 1024));
  }
  const std::string crash = f.str("crash");
  c.crashes = parse_at_list("crash", crash, "machine", c.machines);
  c.crash_prob = f.real("crash-prob", 0.0, 0.0, 1.0);
  g_fault_seed = static_cast<std::uint64_t>(f.num("fault-seed", 1));
  c.checkpoints.checkpoint_interval = static_cast<std::uint64_t>(
      f.num("checkpoint-interval", 1, 1, kInt64Max));
  c.checkpoints.checkpoint_dir = f.str("checkpoint-dir");
  c.recovery = !crash.empty() || c.crash_prob > 0.0 ||
               f.has("checkpoint-dir") || f.has("checkpoint-interval");
  if (!replication) return c;

  c.replicas = static_cast<std::size_t>(f.num("replicas", 1, 1, 16));
  const std::string kill = f.str("replica-kill");
  c.kills = parse_at_list("replica-kill", kill, "replica", c.replicas);
  std::set<std::uint64_t> dead;
  for (const auto& [r, s] : c.kills) dead.insert(r);
  if (dead.size() == c.replicas) {
    throw FlagError("--replica-kill '" + kill + "' kills all " +
                    std::to_string(c.replicas) + " replicas; one must survive");
  }
  c.route_seed = static_cast<std::uint64_t>(f.num("route-seed", 1));
  return c;
}

/// One cluster per replica. Each gets the compute threads, its own
/// deterministic fault schedule (fault seed + replica id) and checkpoint
/// subdirectory, and any armed halt. Replicated runs always checkpoint so
/// a survivor can adopt a dead replica's cut.
std::vector<std::unique_ptr<Cluster>> build_clusters(const ClusterFlags& c) {
  const bool replicated = c.replicas > 1;
  std::vector<std::unique_ptr<Cluster>> clusters;
  for (std::size_t r = 0; r < c.replicas; ++r) {
    auto cluster = std::make_unique<Cluster>(c.machines);
    if (c.threads.has_value()) cluster->set_compute_threads(*c.threads);
    if (c.recovery || replicated) {
      FaultPlan plan(g_fault_seed + r);
      if (c.crash_prob > 0.0) plan.set_crash_probability(c.crash_prob);
      for (const auto& [m, s] : c.crashes) plan.add_crash(m, s);
      cluster->fabric().install_fault_plan(
          std::make_shared<FaultPlan>(std::move(plan)));
      RecoveryOptions ro = c.checkpoints;
      if (!ro.checkpoint_dir.empty() && replicated) {
        ro.checkpoint_dir += "/replica" + std::to_string(r);
      }
      cluster->set_recovery(ro);
    }
    clusters.push_back(std::move(cluster));
  }
  for (const auto& [r, s] : c.kills) clusters[r]->arm_halt(HaltSpec{s});
  return clusters;
}

Graph load_graph(const std::string& path) {
  const LoadResult r =
      path.size() > 4 && path.substr(path.size() - 4) == ".bin"
          ? load_edge_list_binary(path)
          : load_edge_list_text(path);
  return Graph::build(EdgeList(r.edges.edges()), r.num_vertices);
}

void print_recovery_report(const Cluster& cluster) {
  if (!cluster.recovery_enabled()) return;
  const RecoveryStats& rs = cluster.recovery_stats();
  std::printf(
      "recovery: crashes=%llu supersteps_replayed=%llu "
      "checkpoints=%llu (%s, %.4fs save / %.4fs restore) "
      "queries_reexecuted=%llu\n",
      static_cast<unsigned long long>(rs.crashes),
      static_cast<unsigned long long>(rs.supersteps_replayed),
      static_cast<unsigned long long>(rs.checkpoints_taken),
      AsciiTable::humanize(rs.checkpoint_bytes).c_str(),
      rs.checkpoint_seconds, rs.restore_seconds,
      static_cast<unsigned long long>(rs.queries_reexecuted));
}

int cmd_gen(Flags& f) {
  const std::string out = f.required("out");
  const std::string model = f.str("model", "rmat");
  const std::uint64_t seed = read_seed(f, 1);
  RmatParams p;
  p.scale = static_cast<unsigned>(f.num("scale", 16, 1, 31));
  p.edge_factor = f.real("edge-factor", 16.0, 0, 4096, /*positive=*/true);
  p.seed = seed;
  auto n = static_cast<VertexId>(
      f.num("n", 65536, 1, std::numeric_limits<VertexId>::max()));
  const auto m = static_cast<EdgeIndex>(
      f.num("m", 1048576, 0, std::int64_t{1} << 32));
  const auto k_ring = static_cast<unsigned>(f.num("k-ring", 8, 2, 1024));
  const double beta = f.real("beta", 0.1, 0.0, 1.0);
  const bool weights = f.has("weights");
  if (model != "rmat" && model != "uniform" && model != "ws") {
    throw FlagError("bad --model '" + model + "' (want rmat|uniform|ws)");
  }
  if (model == "ws" && (n < 3 || k_ring % 2 != 0)) {
    throw FlagError("--model ws needs --n >= 3 and an even --k-ring");
  }
  f.done();

  EdgeList edges;
  if (model == "rmat") {
    edges = generate_rmat(p);
    n = VertexId{1} << p.scale;
  } else if (model == "uniform") {
    edges = generate_uniform(n, m, seed);
  } else {
    edges = generate_watts_strogatz(n, k_ring, beta, seed);
  }
  if (weights) assign_random_weights(edges, 0.5f, 5.0f, seed + 1);
  save_edge_list_binary(out, edges, n);
  std::printf("wrote %s: %llu vertices, %zu edges (%s)\n", out.c_str(),
              static_cast<unsigned long long>(n), edges.size(),
              model.c_str());
  return 0;
}

int cmd_convert(Flags& f) {
  const std::string in = f.required("in");
  const std::string out = f.required("out");
  f.done();
  const LoadResult r = load_edge_list_text(in);
  save_edge_list_binary(out, r.edges, r.num_vertices);
  std::printf("converted %s -> %s: %u vertices, %zu edges "
              "(%zu raw ids re-indexed)\n",
              in.c_str(), out.c_str(), r.num_vertices, r.edges.size(),
              r.id_map.size());
  return 0;
}

int cmd_stats(Flags& f) {
  const std::string in = f.required("in");
  const PartitionId machines = read_machines(f);
  const auto samples =
      static_cast<std::uint32_t>(f.num("hop-samples", 0, 0, 1 << 20));
  f.done();

  const Graph g = load_graph(in);
  std::printf("%s\n", g.summary().c_str());
  const auto part = RangePartition::balanced_by_edges(g, machines);
  std::printf("partition balance over %u machines: %.3f (max/mean edges)\n",
              machines, part.edge_balance(g));
  const auto shards = build_shards(g, part);
  for (const auto& shard : shards) {
    const auto s = shard.out_sets().stats();
    std::printf("  shard %u: V=[%u,%u) E=%llu edge-sets=%zu "
                "boundary=%zu mem=%s\n",
                shard.id(), shard.local_range().begin,
                shard.local_range().end,
                static_cast<unsigned long long>(s.edges), s.sets,
                shard.boundary_out().size(),
                AsciiTable::humanize(shard.memory_bytes()).c_str());
  }

  std::printf("out-%s", degree_stats_to_string(
                            compute_degree_stats(g.out_csr())).c_str());
  if (samples > 0) {
    const HopPlot plot = compute_hop_plot(g, samples);
    std::printf("hop plot (%u samples): delta=%u delta0.5=%.2f "
                "delta0.9=%.2f\n",
                samples, unsigned{plot.diameter},
                plot.effective_diameter_50, plot.effective_diameter_90);
  }
  return 0;
}

int cmd_query(Flags& f) {
  const std::string in = f.required("in");
  const ClusterFlags cf = read_cluster(f, /*replication=*/false);
  constexpr std::int64_t kMaxVertex = std::numeric_limits<VertexId>::max();
  const auto source = static_cast<VertexId>(f.num("source", 0, 0, kMaxVertex));
  const Depth k = read_k(f);
  const DirectionOptions dir = read_direction(f);
  const std::optional<IndexOptions> index_opts = read_index(f);
  const bool have_target = f.has("target");
  const auto target = static_cast<VertexId>(f.num("target", 0, 0, kMaxVertex));
  const bool paths = f.has("paths");
  f.done();

  const Graph g = load_graph(in);
  if (source >= g.num_vertices()) {
    std::fprintf(stderr, "source %u out of range (V=%u)\n", source,
                 g.num_vertices());
    return 1;
  }
  if (have_target && target >= g.num_vertices()) {
    std::fprintf(stderr, "target %u out of range (V=%u)\n", target,
                 g.num_vertices());
    return 1;
  }
  const auto part = RangePartition::balanced_by_edges(g, cf.machines);
  const auto shards = build_shards(g, part);
  const auto clusters = build_clusters(cf);
  Cluster& cluster = *clusters[0];
  const KHopQuery q{0, source, k};

  // Point query through the index tier (DESIGN.md §13): probe first, and
  // only fall back to the traversal when the verdict is unknown.
  if (index_opts.has_value() && have_target && !paths) {
    const ReachIndex index = ReachIndex::build(g, *index_opts);
    publish_index_metrics(obs::MetricsRegistry::global(), index);
    const IndexBuildStats& bs = index.stats();
    std::printf("index (%s): %u components (largest %u), %llu DAG edges, "
                "%u labels + %u gates, %s, built in %.4fs sim\n",
                to_string(index.mode()), bs.num_components,
                bs.largest_component,
                static_cast<unsigned long long>(bs.dag_edges), bs.num_labels,
                bs.num_gates,
                AsciiTable::humanize(index.memory_bytes()).c_str(),
                bs.build_sim_seconds);
    const IndexVerdict verdict = index.query(source, target, k);
    std::printf("index probe %u -> %u (k=%u): %s (%.2e s sim)\n", source,
                target, unsigned{k}, to_string(verdict),
                index.probe_sim_seconds());
    if (verdict != IndexVerdict::kUnknown) {
      std::printf("target %u is %sreachable from %u%s — answered by the "
                  "index, no traversal\n",
                  target, verdict == IndexVerdict::kReachable ? "" : "NOT ",
                  source,
                  k == kUnvisitedDepth ? "" : " within the hop bound");
      return 0;
    }
    std::printf("index inconclusive; falling back to MS-BFS\n");
  }

  if (paths) {
    const auto r = run_distributed_khop_paths(cluster, shards, part,
                                              std::span(&q, 1));
    std::printf("%u-hop from %u: %llu vertices reached in %.4f s sim "
                "(%s of path data)\n",
                unsigned{k}, source,
                static_cast<unsigned long long>(r.base.visited[0]),
                r.base.sim_seconds,
                AsciiTable::humanize(r.result_bytes()).c_str());
    if (have_target) {
      const auto path = reconstruct_path(r.parents[0], source, target);
      if (path.empty()) {
        std::printf("target %u not reachable within %u hops\n", target,
                    unsigned{k});
      } else {
        std::printf("path:");
        for (VertexId v : path) std::printf(" %u", v);
        std::printf("  (%zu hops)\n", path.size() - 1);
      }
    }
  } else {
    QueryBitRows visited_plane;
    const auto r = run_distributed_msbfs(cluster, shards, part,
                                         std::span(&q, 1), dir,
                                         have_target ? &visited_plane
                                                     : nullptr);
    std::printf("%u-hop from %u: %llu vertices reached, %u levels, "
                "%.4f s sim / %.4f s wall\n",
                unsigned{k}, source,
                static_cast<unsigned long long>(r.visited[0]),
                unsigned{r.levels[0]}, r.sim_seconds, r.wall_seconds);
    if (have_target) {
      const bool reached =
          source == target || visited_plane.test(target, 0);
      std::printf("target %u is %sreachable from %u within %u hops "
                  "(traversal)\n",
                  target, reached ? "" : "NOT ", source, unsigned{k});
    }
  }
  print_recovery_report(cluster);
  // Single-query commands bypass the scheduler, so surface the cluster's
  // own superstep/fabric counters for --metrics-out.
  cluster.publish_metrics(obs::MetricsRegistry::global());
  return 0;
}

int cmd_batch(Flags& f) {
  const std::string in = f.required("in");
  const ClusterFlags cf = read_cluster(f, /*replication=*/false);
  const std::size_t count = read_queries(f, 100);
  const Depth k = read_k(f);
  const std::uint64_t seed = read_seed(f, 1);
  SchedulerOptions sched;
  sched.direction = read_direction(f);
  f.done();

  const Graph g = load_graph(in);
  const auto part = RangePartition::balanced_by_edges(g, cf.machines);
  const auto shards = build_shards(g, part);
  const auto queries = make_random_queries(g, count, k, seed);
  const auto clusters = build_clusters(cf);
  Cluster& cluster = *clusters[0];
  const auto run =
      run_concurrent_queries(cluster, shards, part, queries, sched);

  ResponseTimeSeries times("batch");
  for (const auto& qr : run.queries) times.add(qr.sim_seconds);
  std::printf("%zu concurrent %u-hop queries on %u machines: "
              "mean %.4fs p50 %.4fs p90 %.4fs max %.4fs "
              "(%zu batches, %s peak memory)\n",
              count, unsigned{k}, cf.machines, times.mean(),
              times.percentile(50), times.percentile(90), times.max(),
              run.batches,
              AsciiTable::humanize(run.peak_memory_bytes).c_str());
  print_recovery_report(cluster);
  // The scheduler publishes superstep/fabric counters itself, but the
  // recovery counters live on the cluster.
  cluster.publish_metrics(obs::MetricsRegistry::global());
  return 0;
}

const char* experience_bucket(double seconds) {
  if (seconds <= 0.2) return "instantaneous";
  if (seconds <= 2.0) return "interacting";
  if (seconds <= 10.0) return "focused";
  return "productivity lost";
}

int cmd_serve(Flags& f) {
  const std::string in = f.required("in");
  const ClusterFlags cf = read_cluster(f, /*replication=*/true);
  PoissonArrivalParams ap;
  ap.rate_qps = f.real("arrival-rate", 500.0, 0, kInf, /*positive=*/true);
  ap.count = read_queries(f, 1000);
  ap.k = read_k(f);
  ap.seed = read_seed(f, 42);
  ap.point_fraction = f.real("point-fraction", 0.0, 0.0, 1.0);
  ServiceOptions service;
  service.scheduler.batch_width = static_cast<std::size_t>(
      f.num("batch-width", 64, 1, QueryBitRows::kMaxBatchWords * kWordBits));
  service.queue_cap =
      static_cast<std::size_t>(f.num("queue-cap", 1024, 0, kMaxQueries));
  service.deadline_seconds = f.real("deadline", 0.0, 0.0, kInf);
  service.linger_seconds = f.real("linger", 0.010, 0.0, kInf);
  service.scheduler.direction = read_direction(f);
  const std::optional<IndexOptions> index_opts = read_index(f);
  f.done();

  const Graph g = load_graph(in);
  const auto part = RangePartition::balanced_by_edges(g, cf.machines);
  const auto shards = build_shards(g, part);
  const auto arrivals = make_poisson_arrivals(g, ap);
  // The index is the service's admission bypass lane; it must outlive
  // the run.
  ReachIndex index;
  if (index_opts.has_value()) {
    index = ReachIndex::build(g, *index_opts);
    service.index = &index;
  }
  const auto clusters = build_clusters(cf);
  std::vector<Cluster*> replicas;
  for (const auto& c : clusters) replicas.push_back(c.get());

  std::unique_ptr<ReplicaRouter> router;
  if (replicas.size() > 1) {
    ReplicaRouterOptions ro;
    ro.route_seed = cf.route_seed;
    router = std::make_unique<ReplicaRouter>(replicas, shards, part,
                                             service.scheduler, ro);
    service.router = router.get();
    std::printf("replication: %zu replicas, route seed %llu, heartbeat "
                "miss threshold %u\n",
                router->num_replicas(),
                static_cast<unsigned long long>(ro.route_seed),
                router->options().heartbeat_miss_threshold);
  }
  if (service.index != nullptr) {
    const IndexBuildStats& bs = index.stats();
    std::printf("index (%s): %u components, %u labels + %u gates, %s, "
                "built in %.4fs sim; %.0f%% of arrivals are point queries\n",
                to_string(index.mode()), bs.num_components, bs.num_labels,
                bs.num_gates,
                AsciiTable::humanize(index.memory_bytes()).c_str(),
                bs.build_sim_seconds, ap.point_fraction * 100.0);
  }
  std::printf("open loop: %zu arrivals at %.1f qps (k=%u), "
              "queue-cap %zu, deadline %.3fs, linger %.3fs, width %zu\n",
              arrivals.size(), ap.rate_qps, unsigned{ap.k},
              service.queue_cap, service.deadline_seconds,
              service.linger_seconds, service.scheduler.batch_width);

  const auto run =
      run_query_service(*replicas[0], shards, part, arrivals, service);

  const ServiceStats& s = run.stats;
  std::printf("\nsubmitted %llu = admitted %llu + shed %llu + "
              "index-answered %llu; admitted = completed %llu + "
              "expired %llu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.index_answered),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.expired));
  if (service.index != nullptr) {
    std::printf("index: answered %llu, misses %llu, fallbacks %llu "
                "(probe %.2e s sim each)\n",
                static_cast<unsigned long long>(s.index_answered),
                static_cast<unsigned long long>(s.index_misses),
                static_cast<unsigned long long>(s.index_fallbacks),
                index.probe_sim_seconds());
  }
  std::printf("%llu batches, peak queue depth %zu, makespan %.4fs, "
              "peak memory %.1f MiB\n",
              static_cast<unsigned long long>(s.batches),
              s.peak_queue_depth, run.makespan_sim_seconds,
              static_cast<double>(run.peak_memory_bytes) / (1024.0 * 1024.0));
  if (s.completed + s.index_answered > 0) {
    const double p99 = run.response_percentile(99);
    std::printf("end-to-end latency: p50 %.4fs  p95 %.4fs  p99 %.4fs "
                "-> %s\n",
                run.response_percentile(50), run.response_percentile(95),
                p99, experience_bucket(p99));
  }

  if (router != nullptr) {
    g_degraded_shutdown = router->degraded();
    std::printf("replication: %zu/%zu replicas healthy, %llu failovers, "
                "%llu failover-shed%s\n",
                router->healthy_count(), router->num_replicas(),
                static_cast<unsigned long long>(router->failovers()),
                static_cast<unsigned long long>(s.failover_shed),
                g_degraded_shutdown ? " -> degraded-mode shutdown" : "");
    const auto rstats = router->stats();
    for (std::size_t r = 0; r < rstats.size(); ++r) {
      std::printf("  replica %zu: %s, %llu batches, %llu point queries, "
                  "%llu heartbeat misses\n",
                  r, to_string(rstats[r].health),
                  static_cast<unsigned long long>(rstats[r].batches_executed),
                  static_cast<unsigned long long>(
                      rstats[r].point_queries_routed),
                  static_cast<unsigned long long>(
                      rstats[r].heartbeat_misses_total));
    }
  }
  for (const Cluster* c : replicas) print_recovery_report(*c);
  return 0;
}

int cmd_pagerank(Flags& f) {
  const std::string in = f.required("in");
  const ClusterFlags cf = read_cluster(f, /*replication=*/false);
  const auto iters =
      static_cast<std::uint64_t>(f.num("iterations", 10, 0, 1 << 20));
  f.done();

  const Graph g = load_graph(in);
  const auto part = RangePartition::balanced_by_edges(g, cf.machines);
  const auto shards = build_shards(g, part);
  const auto clusters = build_clusters(cf);
  Cluster& cluster = *clusters[0];
  const GasResult r = run_pagerank(cluster, shards, part, iters);

  // Top 5 vertices by rank.
  std::vector<VertexId> order(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::partial_sort(order.begin(),
                    order.begin() + std::min<std::size_t>(5, order.size()),
                    order.end(), [&](VertexId a, VertexId b) {
                      return r.values[a] > r.values[b];
                    });
  std::printf("pagerank: %llu iterations in %.4f s sim (%.4f s wall), "
              "%s traffic\n",
              static_cast<unsigned long long>(iters), r.stats.sim_seconds,
              r.stats.wall_seconds,
              AsciiTable::humanize(r.stats.bytes).c_str());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
    std::printf("  #%zu vertex %u rank %.3f\n", i + 1, order[i],
                r.values[order[i]]);
  }
  print_recovery_report(cluster);
  cluster.publish_metrics(obs::MetricsRegistry::global());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  int (*run)(Flags&) = nullptr;
  if (cmd == "gen") run = cmd_gen;
  else if (cmd == "convert") run = cmd_convert;
  else if (cmd == "stats") run = cmd_stats;
  else if (cmd == "query") run = cmd_query;
  else if (cmd == "batch") run = cmd_batch;
  else if (cmd == "serve") run = cmd_serve;
  else if (cmd == "pagerank") run = cmd_pagerank;
  else return usage();

  const Options opts(argc - 1, argv + 1);
  Flags flags(opts);
  const std::string trace_out = flags.str("trace-out");
  const std::string metrics_out = flags.str("metrics-out");

  // --trace-out PATH: record the whole command under an event tracer and
  // export it afterwards (.jsonl => JSONL, else Chrome trace JSON).
  // Anomalous queries additionally get flight dumps in PATH.flight/.
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::EventTracer::Scope> trace_scope;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::EventTracer>();
    trace_scope = std::make_unique<obs::EventTracer::Scope>(*tracer);
  }

  int rc = 2;
  // Bad flags exit 2. Loader/ingestion errors (malformed edge lists,
  // truncated files, out-of-range ids) surface as exceptions; fail with a
  // message instead of crashing.
  try {
    rc = run(flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cgraph_tool %s: %s\n", cmd.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgraph_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }

  if (tracer != nullptr) {
    trace_scope.reset();  // stop recording before exporting
    if (!obs::write_trace_file(*tracer, trace_out)) rc = rc == 0 ? 1 : rc;
    obs::FlightRecorderOptions fr_opts;
    fr_opts.fault_seed = g_fault_seed;
    fr_opts.config = "cgraph_tool " + cmd;
    obs::FlightRecorder recorder(fr_opts);
    recorder.ingest(*tracer);
    if (g_degraded_shutdown) {
      // Degraded-mode shutdown: per-query dumps only fire for queries
      // that individually tripped, so flush the replica-phase events as a
      // service-level record too — the failover post-mortem.
      using Phase = obs::TraceEventPhase;
      std::vector<obs::TraceEvent> replica_events;
      for (const obs::TraceEvent& ev : tracer->snapshot()) {
        if (ev.phase == Phase::kReplicaRoute ||
            ev.phase == Phase::kHeartbeatMiss ||
            ev.phase == Phase::kReplicaFailover ||
            ev.phase == Phase::kQueryFailedOver) {
          replica_events.push_back(ev);
        }
      }
      recorder.add_service_record("degraded", std::move(replica_events));
    }
    if (!recorder.anomalies().empty()) {
      const std::size_t dumps = recorder.write_dumps(trace_out + ".flight");
      std::printf("flight recorder: %zu anomalies, %zu dumps in %s.flight/\n",
                  recorder.anomalies().size(), dumps, trace_out.c_str());
    }
  }

  // Degraded-mode shutdown always flushes metrics: the replica health
  // gauges and failover counters are the post-mortem.
  const std::string metrics_path =
      metrics_out.empty() && g_degraded_shutdown ? "cgraph_tool_degraded.prom"
                                                 : metrics_out;
  if (!metrics_path.empty()) {
    if (!obs::write_metrics_file(metrics_path)) rc = rc == 0 ? 1 : rc;
  } else {
    obs::maybe_write_metrics_env();
  }
  return rc;
}
