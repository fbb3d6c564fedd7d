// Online admission front end and the one batch former of the
// concurrent-query engine (paper §3.3).
//
// run_query_service serves an open-loop arrival stream (gen/arrivals.hpp)
// the way a production front end would:
//
//   * bounded admission queue with backpressure — when the queries waiting
//     to start execution reach queue_cap, new arrivals are shed;
//   * deadline-based load shedding — an admitted query whose deadline has
//     already passed when its batch reaches the head of the line is
//     dropped (expired) instead of burning cluster time;
//   * adaptive MS-BFS batch formation — a batch seals when batch_width
//     admitted queries are pending, or at oldest arrival + linger_seconds
//     once every arrival stamped at or before that time is admitted;
//     FIFO or degree-sorted within the admitted window;
//   * pipelined execution — batches execute on a worker thread through the
//     shared BatchExecutor core while admission keeps consuming arrivals.
//
// The closed world (run_concurrent_queries: every query present at t=0,
// batches back-to-back) is this function on a t=0 stream with zero linger,
// no queue bound and no deadline, so simultaneous arrivals share batches
// up to batch_width and there is one batch former (DESIGN.md §10).
//
// Determinism: every admission / shedding / sealing decision is a pure
// function of the arrival timestamps and the (deterministic) simulated
// batch makespans, never of host wall-clock or thread interleaving, so a
// pipelined run and a single-threaded run produce identical outcomes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/reach_index.hpp"
#include "query/scheduler.hpp"

namespace cgraph {

class ReplicaRouter;

/// Why a submitted query left the service.
enum class ServiceOutcome : std::uint8_t {
  /// Rejected at admission: the bounded queue was full.
  kShed,
  /// Admitted, but its deadline passed before its batch started executing.
  kExpired,
  /// Executed and answered.
  kCompleted,
  /// Point query answered conclusively by the reachability index at
  /// admission — bypassed the queue, consumed no batch slot (DESIGN.md
  /// §13).
  kIndexAnswered,
};

[[nodiscard]] const char* to_string(ServiceOutcome outcome);

struct ServiceOptions {
  /// Batch width, policy, engine, memory model, threads, metrics registry.
  SchedulerOptions scheduler;
  /// Bound on queries admitted but not yet executing (the pending window
  /// plus sealed-but-unstarted batches). 0 = unbounded, nothing is shed.
  std::size_t queue_cap = 1024;
  /// Deadline from arrival to execution start; an admitted query whose
  /// wait exceeds this when its batch starts is dropped as expired.
  /// 0 disables expiry.
  double deadline_seconds = 0;
  /// Max linger (>= 0): a partial batch seals at its oldest arrival plus
  /// this, after admitting every arrival stamped at or before that time.
  /// 0 batches simultaneous arrivals together and distinct stamps apart.
  double linger_seconds = 0.010;
  /// Overlap admission with execution on a worker thread (the production
  /// shape and the TSAN target); false runs both phases on the caller
  /// thread — results are identical either way.
  bool pipeline = true;
  /// Reachability index consulted for point queries (target set) before
  /// admission. Conclusive probes are answered in place (kIndexAnswered);
  /// inconclusive ones fall back to the traversal path, and their answer
  /// is resolved from the batch's visited plane (bit-parallel engine
  /// only). nullptr disables the fast path entirely.
  const ReachIndex* index = nullptr;
  /// Replicated serving (DESIGN.md §14): when set, batches are routed
  /// through the router's replicas instead of the single `cluster`
  /// argument, and a replica death mid-batch fails the admitted batch over
  /// to a survivor (adopting the dead replica's last complete checkpoint
  /// cut when the batch membership is unchanged). nullptr = single-cluster
  /// service, exactly the pre-replication behavior.
  ReplicaRouter* router = nullptr;
  /// Per-query failover budget: re-dispatches to another replica allowed
  /// per admitted query before it is counted shed. 0 = one less than the
  /// router's replica count (every query may survive any single loss).
  std::uint32_t failover_budget = 0;
};

struct ServiceQueryRecord {
  static constexpr std::size_t kNoBatch = ~std::size_t{0};
  QueryId id = 0;
  ServiceOutcome outcome = ServiceOutcome::kShed;
  std::size_t batch_index = kNoBatch;  // kNoBatch for shed queries
  double arrival_sim_seconds = 0;
  /// Arrival -> batch execution start (admitted queries; for expired ones
  /// this is the wait at which the deadline verdict was passed).
  double queue_wait_sim_seconds = 0;
  /// Batch start -> this query answered (completed only).
  double execute_sim_seconds = 0;
  /// End-to-end: arrival -> answered (completed only).
  double response_sim_seconds = 0;
  /// Measured host wall, batch start -> this query answered (completed
  /// only). Never stretched by the modeled memory slowdown.
  double execute_wall_seconds = 0;
  std::uint64_t visited = 0;
  Depth levels = 0;
  /// Point-query bookkeeping (kInvalidVertex target = aggregate query).
  VertexId target = kInvalidVertex;
  /// Verdict of the admission-time index probe (kUnknown when no index
  /// was configured, the query was not a point query, or the probe was
  /// inconclusive and the query fell back to traversal).
  IndexVerdict index_verdict = IndexVerdict::kUnknown;
  /// Resolved point answer: 1 reachable, 0 unreachable, -1 unresolved
  /// (aggregate query, or a fallback under the non-bit-parallel engine,
  /// which has no visited plane to read the target bit from).
  std::int8_t reachable = -1;
  /// Times this query was re-dispatched to another replica after a replica
  /// death. A query dropped at failover time (deadline passed or budget
  /// exhausted) ends kShed with batch_index set — distinguishing a
  /// failover shed from an admission shed (batch_index == kNoBatch).
  std::uint32_t failover_attempts = 0;
};

struct ServiceBatchRecord {
  std::size_t index = 0;
  double seal_sim_seconds = 0;   // when the batch stopped admitting
  double start_sim_seconds = 0;  // sealed AND the server became free
  double makespan_sim_seconds = 0;
  std::size_t admitted = 0;  // queries sealed into the batch
  std::size_t expired = 0;   // dropped at start for missed deadlines
  /// Ids actually executed, in execution (policy) order — the admitted
  /// set the bit-exactness guarantee speaks about.
  std::vector<QueryId> executed;
  /// Replica that completed the batch (kNoReplica when the service runs
  /// without a router, or every member was dropped before execution).
  static constexpr std::size_t kNoReplica = ~std::size_t{0};
  std::size_t replica = kNoReplica;
  /// Replica deaths absorbed while this batch was in flight.
  std::size_t failovers = 0;
  /// Members dropped at failover time (deadline/budget), counted shed.
  std::size_t failover_shed = 0;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  /// Point queries answered by the index bypass lane (cgraph_index_hit).
  std::uint64_t index_answered = 0;
  /// Point queries whose index probe was inconclusive (cgraph_index_miss);
  /// they proceeded into normal admission.
  std::uint64_t index_misses = 0;
  /// Point queries resolved by the traversal engine after an inconclusive
  /// probe (cgraph_index_fallback) — a subset of `completed`.
  std::uint64_t index_fallbacks = 0;
  std::uint64_t batches = 0;
  std::size_t peak_queue_depth = 0;
  /// Replica deaths absorbed mid-batch (cgraph_replica_failover_total).
  std::uint64_t failovers = 0;
  /// Queries dropped at failover re-dispatch because their deadline had
  /// passed or their failover budget was exhausted. A subset of `shed`:
  /// a deadline-expired query is never re-executed on another replica.
  std::uint64_t failover_shed = 0;

  /// The counter identities the service must keep:
  ///   submitted = admitted + shed + index_answered;
  ///   admitted  = completed + expired;
  ///   failover_shed <= shed.
  [[nodiscard]] bool identities_hold() const {
    return submitted == admitted + shed + index_answered &&
           admitted == completed + expired && failover_shed <= shed;
  }
};

struct ServiceRunResult {
  std::vector<ServiceQueryRecord> queries;  // submission order
  std::vector<ServiceBatchRecord> batches;
  ServiceStats stats;
  /// Last batch finish (or last arrival when nothing executed).
  double makespan_sim_seconds = 0;
  std::uint64_t peak_memory_bytes = 0;
  /// Structured trace of the executed batches and their queries; already
  /// published into the configured metrics registry along with the
  /// cgraph_service_* series.
  obs::RunTelemetry telemetry;

  /// Exact end-to-end latency percentile over answered queries (completed
  /// + index-answered), p in (0, 100] (the
  /// cgraph_service_response_seconds histogram is the scrape-able
  /// approximation). 0 when nothing was answered.
  [[nodiscard]] double response_percentile(double p) const;
};

/// Serve an open-loop arrival stream (nondecreasing timestamps) against
/// the sharded graph. Crash/fault behavior follows whatever FaultPlan /
/// RecoveryOptions the cluster carries — answers stay exact (PR 4).
ServiceRunResult run_query_service(Cluster& cluster,
                                   const std::vector<SubgraphShard>& shards,
                                   const RangePartition& partition,
                                   std::span<const TimedQuery> arrivals,
                                   const ServiceOptions& opts = {});

}  // namespace cgraph
