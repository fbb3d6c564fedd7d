// The four workloads of the wall-clock suite and the helpers they share.
// A run of one workload is one process:
//   1. set-up (run.py also starts --setup-only processes, so that setup_s
//      is a median of cold set-ups that leave peak RSS alone);
//   2. one untimed warm-up block;
//   3. the measured phase: blocks of a fixed amount of work, repeated until
//      their summed wall reaches --seconds (at least kMinBlocks);
//   4. the output checks, outside every timed interval;
//   5. in a traced run, a per-layer epilogue.
// The end-to-end metrics are medians over the blocks, so a host stall that
// is short next to the run moves one block rather than the result.
// README.md gives the reason for each workload and its block size.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cgraph/cgraph.hpp"
#include "recorder.hpp"

namespace cgraph::suite {

constexpr std::size_t kMinBlocks = 3;
/// Busy threads at any time: 2 simulated machines x 1 compute thread, or
/// 1 machine x 2 compute threads. On a 4-vCPU host this leaves room for
/// the OS and the driver, so a stall of one vCPU does not hold up every
/// barrier of the run.
constexpr std::size_t kThreads = 2;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall time the measured blocks add up to before the phase ends.
  double seconds = 0;
  /// Tiny sizes for the smoke run; same checks and metric names.
  bool smoke = false;
  /// Perturb one reference answer so the checks must fail (proves they
  /// can).
  bool corrupt = false;
  bool traced = false;
  /// Stop after set-up: the process only contributes a setup_s sample.
  bool setup_only = false;
};

/// Everything a workload needs: its config, the span log, its result, and
/// (traced run only) the library tracer to install in traced blocks.
struct Run {
  const RunConfig& cfg;
  SpanRecorder& spans;
  RunResult& out;
  obs::EventTracer* tracer = nullptr;
};

void run_khop_serve(Run& r);
void run_mixed_replicated(Run& r);
void run_engine_deep(Run& r);
void run_khop_writes(Run& r);

// ---- shared helpers ----

/// Build the workload's inputs with `make`, timed as setup_s. Returns
/// false when the run is --setup-only and the workload should stop here.
template <typename Fn>
[[nodiscard]] bool timed_setup(Run& r, Fn&& make) {
  const std::uint64_t t0 = now_ns();
  {
    Span s(r.spans, "bench.setup");
    make();
  }
  r.out.setup_s = seconds_between(t0, now_ns());
  return !r.cfg.setup_only;
}

struct BlockInfo {
  std::size_t index = 0;  // 0 is the warm-up block
  bool warmup = false;    // untimed, and left out of every metric
  bool traced = false;
};

/// What one block measured: `answered` queries in `wall_s` seconds of timed
/// wall, and their per-query wall latency samples.
struct BlockOutcome {
  std::uint64_t answered = 0;
  double wall_s = 0;
  std::vector<double> latency_s;
};

/// The measured phase: the warm-up block, then blocks until they have
/// measured cfg.seconds of wall. In a traced run every second block is
/// traced (spans on, library tracer installed) and the others are not, so
/// obs.trace_overhead_pct compares blocks that ran on the same host state.
/// Ends by taking peak_rss_mb, so the memory the output checks allocate
/// afterwards is not charged to the workload.
void measure(Run& r, const std::function<BlockOutcome(const BlockInfo&)>& block);

/// Independent deterministic streams derived from the --seed argument.
enum class Stream : std::uint64_t {
  kQueries = 1,
  kTrace = 2,
  kCheck = 3,
  kRoute = 4,
  kIndexPairs = 5,
};
std::uint64_t derive_seed(std::uint64_t seed, Stream stream,
                          std::uint64_t index = 0);

/// The FRS-100B R-MAT analogue at spec.scale - scale_shift, from the
/// dataset registry's own seed: the graph is the fixed dataset, and the
/// run seed draws the traffic on it (queries, arrivals, mutation trace).
/// Records gen.rmat_s and graph.build_s.
Graph make_graph(Run& r, int scale_shift, bool in_edges);

struct Sharded {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;
};

/// make_graph plus an edge-balanced partition over kThreads machines and
/// its shards (their build time is added to graph.build_s; graph.bytes is
/// the shard bytes).
Sharded make_sharded(Run& r, int scale_shift, bool in_edges);

/// Per-batch engine numbers gathered from the public result structs.
struct ExecStats {
  std::vector<double> batch_wall_s;
  std::uint64_t batches = 0;
  std::uint64_t queries = 0;
  std::uint64_t edges = 0;
  double engine_wall_s = 0;
  double engine_sim_s = 0;
  std::uint64_t levels = 0;
  double pull_share_sum = 0;  // per level: pulling partitions / partitions
  double steal_wait_s = 0;
  std::uint64_t machines = 0;  // machines per batch (0 = single machine)
  std::uint64_t supersteps = 0;
  std::uint64_t packets = 0;
  std::uint64_t staged_bytes = 0;
  double barrier_wait_wall_s = 0;
  double straggler_sum = 0;

  void add(const obs::BatchTrace& bt);
  /// Write the exec./msbfs./net. per-layer metrics and the calibration
  /// report. `measured_s` is the run's timed wall.
  void publish(RunResult& out, double measured_s) const;
};

/// BatchTrace view of a single-machine msbfs_batch result.
obs::BatchTrace trace_of(const MsBfsBatchResult& res, std::size_t width);

/// End-to-end metrics every workload reports, as medians over the untraced
/// blocks: qps (answered / block wall) and p50_ms, plus setup_s. The
/// blocks' median p99 is the per-layer p99_ms, and a traced run
/// adds obs.trace_overhead_pct. peak_rss_mb comes from measure().
void publish_e2e(RunResult& out);

/// Modeled (sim-domain) latency percentiles sim.p50_ms / sim.p99_ms.
void publish_sim(RunResult& out, std::vector<double> sim_latency_s);

/// Traced-run index layer: build (unless given), then 1M probes replayed
/// over `pairs`. Records index.build_s (when it builds), index.bytes,
/// index.probe_ns, index.hit_frac and the probe calibration ratio.
void measure_index(Run& r, const Graph& graph, const ReachIndex* built,
                   std::vector<std::pair<VertexId, VertexId>> pairs);

/// Uniform random (s, t) point pairs for the index epilogue.
std::vector<std::pair<VertexId, VertexId>> random_pairs(Run& r,
                                                        const Graph& graph,
                                                        std::size_t count);

/// Traced-run scheduler probe: 200 one-query k=1 batches timed from
/// outside, recorded as exec.min_batch_ms (median call wall). A workload
/// that did not record msbfs.frontier_bytes in its measured phase gets it
/// from one extra 64-wide k=3 batch.
void measure_min_batch(
    Run& r, const Graph& graph,
    const std::function<MsBfsBatchResult(std::span<const KHopQuery>)>& run);

/// Per-layer metrics the workload has no layer for still get a value, so
/// every workload reports the same names (0 = layer not exercised).
void zero_missing_layers(RunResult& out);

}  // namespace cgraph::suite
