// Reachability index tier: three-verdict point-query oracle in front of
// the MS-BFS traversal engines (DESIGN.md §13, ROADMAP item 2).
//
// A point query asks "does source reach target (within k hops)?". The
// index answers from precomputed read-only state in O(labels + gate
// words) — no traversal, no batch slot:
//
//   kUnreachable  — GRAIL interval labels (or the reverse-topological
//                   component order) prove NO path exists at all; sound
//                   for every hop bound k, since globally unreachable
//                   implies unreachable within k hops.
//   kReachable    — the gate closure exhibits a witness path s →* g →* t,
//                   or s and t share an SCC, or s == t. Witness paths
//                   carry no length bound, so (except for s == t) this
//                   verdict is only issued for unbounded queries
//                   (k == kUnvisitedDepth); bounded queries stay unknown.
//   kUnknown      — neither side concluded; the caller falls back to the
//                   traversal engine.
//
// The index never changes an answer — it only short-circuits queries whose
// answer is provable — and it is immutable after build, so crash-recovery
// replay composes with it unchanged. All randomness (GRAIL label shuffles)
// flows from IndexOptions::seed; fingerprint() pins byte-identical state
// across rebuilds, machines, thread counts, and crash replays.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "graph/graph.hpp"
#include "graph/mutation.hpp"
#include "index/backbone.hpp"
#include "index/grail.hpp"
#include "index/scc.hpp"
#include "obs/metrics.hpp"

namespace cgraph {

/// Which index structures to build/consult (--index=off|grail|gates|full).
enum class IndexMode : std::uint8_t {
  kOff,    // no index; every point query falls back to traversal
  kGrail,  // negative filter only (interval labels + topological order)
  kGates,  // positive oracle only (gate closure + SCC membership)
  kFull,   // both
};

[[nodiscard]] const char* to_string(IndexMode mode);
[[nodiscard]] std::optional<IndexMode> parse_index_mode(std::string_view s);

/// Three-verdict answer of an index probe (see the contract above).
enum class IndexVerdict : std::uint8_t {
  kReachable,
  kUnreachable,
  kUnknown,
};

[[nodiscard]] const char* to_string(IndexVerdict verdict);

struct IndexOptions {
  IndexMode mode = IndexMode::kFull;
  /// GRAIL label sets (kGrail/kFull). More labels cut false "maybe"s.
  std::uint32_t num_labels = 2;
  /// Backbone gates (kGates/kFull). More gates widen positive coverage.
  std::uint32_t num_gates = 16;
  /// Seed for the randomized label shuffles; the sole source of index
  /// randomness (determinism argument in DESIGN.md §13).
  std::uint64_t seed = 42;
};

struct IndexBuildStats {
  VertexId num_components = 0;
  VertexId largest_component = 0;
  std::uint64_t dag_edges = 0;
  std::uint32_t num_labels = 0;
  std::uint32_t num_gates = 0;
  std::uint64_t label_bytes = 0;
  std::uint64_t gate_bytes = 0;
  /// Modeled offline construction cost under the cluster CostModel (the
  /// number reported as cgraph_index_build_seconds).
  double build_sim_seconds = 0;
};

class ReachIndex {
 public:
  /// Default-constructed index is mode kOff: every probe returns kUnknown.
  ReachIndex() = default;

  static ReachIndex build(const Graph& graph, const IndexOptions& opts = {});

  /// Probe the index for "does s reach t within k hops?". Never traverses.
  [[nodiscard]] IndexVerdict query(VertexId s, VertexId t,
                                   Depth k = kUnvisitedDepth) const;

  /// Deterministic simulated cost of one probe (component lookups +
  /// per-label interval compares + one gate-word AND sweep under the
  /// default CostModel) — what the service charges an index-answered
  /// query instead of a traversal makespan.
  [[nodiscard]] double probe_sim_seconds() const;

  /// Content hash over every index array. Equal inputs (graph, options)
  /// produce equal fingerprints on any machine/thread count/replay; the
  /// recovery suite asserts this across crash-replayed runs.
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] IndexMode mode() const { return opts_.mode; }
  [[nodiscard]] const IndexOptions& options() const { return opts_; }
  [[nodiscard]] const IndexBuildStats& stats() const { return stats_; }
  [[nodiscard]] const SccCondensation& scc() const { return scc_; }
  [[nodiscard]] const GrailLabels& labels() const { return labels_; }
  [[nodiscard]] const GateIndex& gates() const { return gates_; }

  [[nodiscard]] std::size_t memory_bytes() const {
    return scc_.memory_bytes() + labels_.memory_bytes() +
           gates_.memory_bytes();
  }

  // ---- epoch invalidation (DESIGN.md §15) ----
  //
  // The index is built against one snapshot epoch. Once the graph moves
  // past it (observe_epoch reports a newer epoch), every conclusive
  // verdict except the epoch-invariant s == t flips to kUnknown — the
  // service's traversal fallback then answers against live shards — until
  // an offline rebuild publishes a fresh index via set_built_epoch.

  /// Snapshot epoch the labels/gates were computed against.
  [[nodiscard]] Epoch built_epoch() const { return built_epoch_; }

  /// Stamp the snapshot epoch of the current structures (after build or
  /// an offline rebuild). Also raises the observed epoch to match.
  void set_built_epoch(Epoch epoch) {
    built_epoch_ = epoch;
    observe_epoch(epoch);
  }

  /// Tell the index the graph reached `epoch` (monotonic max; callable
  /// from any thread — probes read it with relaxed atomics).
  void observe_epoch(Epoch epoch) const {
    Epoch cur = observed_epoch_->load(std::memory_order_relaxed);
    while (epoch > cur &&
           !observed_epoch_->compare_exchange_weak(
               cur, epoch, std::memory_order_relaxed)) {
    }
  }

  /// True when the observed graph epoch superseded the built snapshot.
  [[nodiscard]] bool stale() const {
    return observed_epoch_->load(std::memory_order_relaxed) > built_epoch_;
  }

 private:
  IndexOptions opts_{.mode = IndexMode::kOff};
  SccCondensation scc_;
  GrailLabels labels_;
  GateIndex gates_;
  IndexBuildStats stats_;
  Epoch built_epoch_ = 0;
  // Shared (not per-copy): supersession is a fact about the graph, and
  // keeping it behind a pointer preserves the index's value semantics.
  std::shared_ptr<std::atomic<Epoch>> observed_epoch_ =
      std::make_shared<std::atomic<Epoch>>(0);
};

/// Publish the index's build-side series (cgraph_index_build_seconds,
/// cgraph_index_memory_bytes) into `registry`. The probe-side counters
/// (cgraph_index_{hit,miss,fallback}_total) are owned by the service
/// front end that issues the probes.
void publish_index_metrics(obs::MetricsRegistry& registry,
                           const ReachIndex& index);

}  // namespace cgraph
