// Trace spans and structured run telemetry for the query path.
//
// Engines record what actually happened (per-level frontier sizes, edges,
// bitmap word ops) into LevelTrace rows; the service wraps them with
// queue-wait / execute timings per batch and per query and publishes the
// whole RunTelemetry into a MetricsRegistry — the per-superstep cost
// breakdown GPOP/iPregel use to attribute wins, available for every
// run_query_service() call and so every run_concurrent_queries() call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace cgraph::obs {

/// RAII wall-clock span. On finish (or destruction) the duration lands in
/// the `cgraph_span_seconds{span="<name>"}` histogram of the registry, so
/// any scope becomes a scrape-able latency series.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name,
                     MetricsRegistry* registry = &MetricsRegistry::global())
      : name_(std::move(name)), registry_(registry) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  /// Moves transfer ownership of the recording: the moved-from span is
  /// left finished, so factory helpers can return spans by value without
  /// double-recording.
  TraceSpan(TraceSpan&& other) noexcept
      : name_(std::move(other.name_)),
        registry_(other.registry_),
        timer_(other.timer_),
        finished_(other.finished_) {
    other.finished_ = true;
  }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      finish();  // close our own span before adopting the other
      name_ = std::move(other.name_);
      registry_ = other.registry_;
      timer_ = other.timer_;
      finished_ = other.finished_;
      other.finished_ = true;
    }
    return *this;
  }
  ~TraceSpan() { finish(); }

  /// Elapsed seconds so far (the span keeps running).
  [[nodiscard]] double seconds() const { return timer_.seconds(); }

  /// Record the span now; later finish()/destruction is a no-op.
  void finish();

 private:
  std::string name_;
  MetricsRegistry* registry_;
  WallTimer timer_;
  bool finished_ = false;
};

/// One traversal level (= one frontier expansion, two BSP supersteps in
/// the distributed engines) of one batch.
struct LevelTrace {
  std::uint32_t level = 0;
  /// Frontier entries expanded entering this level: vertices with any
  /// frontier bit (bit-parallel engine) or queued tasks (queue engine).
  std::uint64_t frontier_vertices = 0;
  std::uint64_t edges_scanned = 0;
  /// 64-bit bitmap words processed (frontier scans + discover updates).
  std::uint64_t bit_ops = 0;
  /// Sum over machines of simulated idle time at this level's barriers.
  double barrier_wait_sim_seconds = 0;
  /// Intra-machine pool chunks executed for this level (scan + commit
  /// phases, summed over machines). One task per phase per machine means
  /// the level ran serially.
  std::uint64_t parallel_tasks = 0;
  /// Host seconds machine threads spent blocked waiting for their pool
  /// workers to drain this level's chunks (join-side steal wait).
  double steal_wait_seconds = 0;
  /// Direction-optimizing traversal (DESIGN.md §12): how many partitions
  /// expanded this level top-down (push) vs bottom-up (pull). The hybrid
  /// heuristic decides per level per partition, so both can be non-zero
  /// for one level. The single-machine engine reports one "machine".
  std::uint32_t push_machines = 0;
  std::uint32_t pull_machines = 0;
  /// Scout count entering this level (summed over machines): out-edges of
  /// rows with any frontier bit — the heuristic's push-cost estimate.
  std::uint64_t scout_edges = 0;
};

/// Per-machine counters for one batch, snapshotted from the cluster and
/// fabric after the batch ran.
struct MachineTrace {
  std::uint32_t machine = 0;
  std::uint64_t supersteps = 0;
  double barrier_wait_sim_seconds = 0;
  double barrier_wait_wall_seconds = 0;
  std::uint64_t staged_packets = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t async_packets = 0;
  std::uint64_t async_bytes = 0;
  // Per-attempt delivery outcomes (non-zero under a FaultPlan). These obey
  //   delivered == staged + async + ack + retried - dropped + duplicated
  // exactly, which test_obs.cpp asserts through the exposition endpoint.
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t duplicated_packets = 0;
  std::uint64_t retried_packets = 0;
  std::uint64_t ack_packets = 0;
  std::uint64_t delivery_failed_packets = 0;
  std::uint64_t dedup_suppressed_packets = 0;
};

/// One bit-parallel (or queue-mode) batch of the concurrent scheduler.
struct BatchTrace {
  std::size_t index = 0;
  std::size_t width = 0;  // queries in the batch
  /// Simulated queue time before this batch started executing.
  double wait_sim_seconds = 0;
  /// Simulated batch makespan (after any memory-pressure slowdown).
  double execute_sim_seconds = 0;
  double execute_wall_seconds = 0;
  /// Mean over supersteps of (max machine step time / mean step time);
  /// 1.0 = perfectly balanced, higher = stragglers.
  double straggler_ratio = 0;
  /// Batching policy that actually ran ("fifo" / "degree-sorted") — the
  /// effective policy after option validation, not the requested one.
  std::string policy;
  std::vector<LevelTrace> levels;
  std::vector<MachineTrace> machines;

  [[nodiscard]] std::uint64_t edges_scanned() const;
  [[nodiscard]] std::uint64_t bit_ops() const;
};

/// One query's view of the run: which batch it rode in, how long it
/// queued, and how long its batch took to answer it.
struct QueryTrace {
  QueryId id = 0;
  std::size_t batch_index = 0;
  Depth levels = 0;
  std::uint64_t visited = 0;
  double wait_sim_seconds = 0;     // queue wait before its batch started
  double execute_sim_seconds = 0;  // batch start -> this query complete
};

/// Everything observable about one run_query_service() or
/// run_concurrent_queries() call.
struct RunTelemetry {
  std::vector<BatchTrace> batches;
  std::vector<QueryTrace> queries;
  /// Effective batching policy for the run (kDegreeSorted silently ran as
  /// FIFO before this was recorded — see effective_batch_policy()).
  std::string effective_policy;

  /// Sum of per-level edge counts across every batch; reconciles with
  /// ConcurrentRunResult::total_edges_scanned.
  [[nodiscard]] std::uint64_t total_edges_scanned() const;

  /// Push counters/histograms for this run into `registry`:
  ///   cgraph_queries_total, cgraph_query_batches_total,
  ///   cgraph_query_edges_scanned_total, cgraph_query_bit_ops_total,
  ///   cgraph_query_response_seconds / _wait_seconds (histograms),
  ///   cgraph_batch_execute_sim_seconds (histogram),
  ///   cgraph_superstep_*_total{level=...} per traversal level,
  ///   cgraph_machine_*_total{machine=...} and cgraph_fabric_*_total
  ///   per machine, cgraph_straggler_ratio (gauge).
  void publish(MetricsRegistry& registry) const;

  /// Human-readable per-level summary for logs / debugging.
  [[nodiscard]] std::string summary() const;
};

}  // namespace cgraph::obs
