// One level-synchronous skeleton for the staged BSP traversal engines
// (paper §3.5, Fig. 6). run_distributed_msbfs, run_distributed_khop and
// run_distributed_khop_paths advance one level per loop iteration through
// the same phases, driven by LevelRun::run:
//
//   seed/restore  fresh frontier, or the machine state of the latest cut
//   scan          expand the local frontier, stage remote discoveries
//   exchange      ship them; barrier
//   commit        apply received packets exactly once, fold the level in,
//                 publish per-query occupancy of the next frontier
//   close         barrier; every machine takes the same completion
//                 decisions from the published occupancy planes
//
// An engine supplies a machine type (derived from LevelMachine) with its
// packet tag kTag and its phases: seed(), transfer(ar), scan(), send(),
// apply(packet), commit(), finish() and hops(q); the two queue engines
// share these through QueueMachine. Everything else lives here, once: the
// level cap, the per-level counters and their crash-replay reset, the
// run-start cluster resets, the completion decision, the scan and commit
// trace spans, the checkpoint header/tail, and the final LevelTrace
// assembly (two supersteps per level).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "net/serialize.hpp"
#include "obs/event_tracer.hpp"
#include "query/msbfs.hpp"
#include "query/query.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/timer.hpp"

namespace cgraph {

/// Depth is uint8_t, so no traversal can exceed 255 levels; +1 slack.
inline constexpr std::size_t kMaxLevels = 256;

/// One bit per batch slot: per-level query masks (expand, occupancy).
using WordRow = std::array<Word, QueryBitRows::kMaxBatchWords>;

/// One level's telemetry, summed over machines. Pool join waits are kept
/// as integer nanoseconds so machines can add without atomic<double> RMW.
struct LevelCounters {
  std::atomic<std::uint64_t> frontier{0};
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> bit_ops{0};
  std::atomic<std::uint64_t> parallel_tasks{0};
  std::atomic<std::uint64_t> steal_wait_ns{0};
  std::atomic<std::uint64_t> push_machines{0};
  std::atomic<std::uint64_t> pull_machines{0};
  std::atomic<std::uint64_t> scout_edges{0};

  void add_pool(std::initializer_list<ParallelForStats> phases) {
    double wait = 0;
    for (const ParallelForStats& s : phases) {
      parallel_tasks += s.tasks;
      wait += s.join_wait_seconds;
    }
    steal_wait_ns += static_cast<std::uint64_t>(wait * 1e9);
  }

  void clear() {
    for (auto* c : {&frontier, &edges, &bit_ops, &parallel_tasks,
                    &steal_wait_ns, &push_machines, &pull_machines,
                    &scout_edges}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

/// Totals a machine's scan phase reports for its trace span.
struct ScanTotals {
  std::uint64_t edges = 0;     // charged as compute
  std::uint64_t frontier = 0;  // frontier rows (or tasks) expanded
};

/// Checkpoint archives. A machine names each field of its state once, in
/// transfer(ar); the same code writes the blob (CheckpointOut) and
/// restores it (CheckpointIn), so the two directions cannot drift apart.
struct CheckpointOut {
  PacketWriter& w;
  template <typename T>
  void operator()(const T& v) { w.write<T>(v); }
  void depth(Depth d) { w.write<std::uint32_t>(d); }
  template <typename T>
  void vec(const std::vector<T>& v) { w.write_span<T>(v); }
  void bits(const Bitmap& b) {
    w.write_span<Word>({b.data(), b.size_words()});
  }
  template <typename T>
  void state(const T& s) { s.serialize(w); }
};

struct CheckpointIn {
  PacketReader& r;
  template <typename T>
  void operator()(T& v) { v = r.read<T>(); }
  void depth(Depth& d) { d = static_cast<Depth>(r.read<std::uint32_t>()); }
  template <typename T>
  void vec(std::vector<T>& v) { v = r.read_vector<T>(); }
  void bits(Bitmap& b) {
    const auto words = r.read_vector<Word>();
    CGRAPH_CHECK(words.size() == b.size_words());
    std::copy(words.begin(), words.end(), b.data());
  }
  template <typename T>
  void state(T& s) { s.deserialize(r); }
};

/// The part of a machine's state every staged engine shares — and the
/// header of its checkpoint.
struct LevelMachine {
  explicit LevelMachine(std::size_t num_queries) : done(num_queries, 0) {}

  Depth level = 0;  // the level being expanded (resume point on restore)
  std::uint64_t done_count = 0;
  std::vector<std::uint8_t> done;  // per query: completion decided
  std::uint64_t edges = 0;         // edges this machine scanned
  /// Exchanged packets apply exactly once: duplicates a fault plan
  /// injects are dropped by (sender, seq), so the dedup-suppression
  /// counters reconcile.
  DedupFilter dedup;
};

/// The cross-machine state of one staged run: per-level occupancy planes
/// and counters, per-query visited totals, and the result being built.
class LevelRun {
 public:
  /// Validates the batch, sizes `result`, pins the snapshot and clears the
  /// cluster's per-run state. kEpochHead pins the shards' epoch at entry,
  /// so writers appending events for later epochs never change what this
  /// batch sees (snapshot isolation, DESIGN.md §15).
  LevelRun(Cluster& c, const std::vector<SubgraphShard>& s, std::size_t q,
           Epoch snapshot_epoch, MsBfsBatchResult& r)
      : cluster(c),
        shards(s),
        num_queries(q),
        words(words_for_bits(q)),
        epoch(snapshot_epoch == kEpochHead
                  ? current_epoch(std::span<const SubgraphShard>(s))
                  : snapshot_epoch),
        result(r),
        visited(q),
        nonempty_(kMaxLevels * words),
        counters_(kMaxLevels) {
    CGRAPH_CHECK(num_queries > 0);
    CGRAPH_CHECK_MSG(words <= QueryBitRows::kMaxBatchWords,
                     "batch exceeds bit-parallel capacity");
    CGRAPH_CHECK(shards.size() == cluster.num_machines());
    result.visited.assign(num_queries, 0);
    result.levels.assign(num_queries, 0);
    result.completion_wall_seconds.assign(num_queries, 0.0);
    result.completion_sim_seconds.assign(num_queries, 0.0);
    cluster.reset_clocks();
    cluster.reset_telemetry();
    cluster.fabric().reset_counters();
    cluster.fabric().reset_delivery_state();
    cluster.reset_protocol_state();
    wall_.reset();
  }

  Cluster& cluster;
  const std::vector<SubgraphShard>& shards;
  const std::size_t num_queries;
  const std::size_t words;
  const Epoch epoch;
  MsBfsBatchResult& result;
  /// Per query: visited vertices summed over machines, seeds included.
  std::vector<std::atomic<std::uint64_t>> visited;
  /// Per-batch traversal state bytes summed over machines.
  std::atomic<std::uint64_t> state_bytes{0};

  [[nodiscard]] LevelCounters& at(Depth level) { return counters_[level]; }

  /// Run every machine through the level loop; `make_machine(mc)` builds
  /// one machine's engine state (afresh on every crash re-entry).
  template <typename MakeMachine>
  void run(MakeMachine&& make_machine) {
    RunHooks hooks;
    // Crash recovery: after a rollback to checkpointed level L, clear
    // every shared accumulator the replayed levels re-contribute to, so
    // replayed work is counted exactly once and the recovered run's
    // results and telemetry stay bit-exact.
    hooks.on_restore = [this] {
      reset_from(static_cast<std::size_t>(
          cluster.checkpoint_store().latest_common_step() / 2));
    };
    cluster.run([&](MachineContext& mc) {
      auto m = make_machine(mc);
      const SubgraphShard& shard = shards[mc.id()];
      if (auto ckpt = mc.restore_checkpoint()) {
        // Re-entering after a crash: the link/clock state was already
        // rolled back by the cluster, so resuming at the cut's level
        // replays bit-exact.
        PacketReader pr(*ckpt);
        CheckpointIn ar{pr};
        transfer(ar, shard, m);
      } else {
        m.seed();
      }
      for (; m.done_count < num_queries; ++m.level) {
        // Top of level = the consistent cut: staged mailboxes are empty
        // and the engine's next-level state was just cleared.
        mc.maybe_checkpoint([&](PacketWriter& pw) {
          CheckpointOut ar{pw};
          transfer(ar, shard, m);
        });
        const bool tracing = obs::tracing_enabled();
        double sim_t0 = tracing ? mc.clock().seconds() : 0.0;
        WallTimer phase_wall;
        const ScanTotals scanned = m.scan();
        m.edges += scanned.edges;
        at(m.level).edges += scanned.edges;
        mc.charge_compute(scanned.edges, /*vertices=*/0);
        if (tracing) {
          // Sim duration is exactly this level's charged compute time.
          trace_span(mc, obs::TraceEventPhase::kSuperstepScan, m.level,
                     sim_t0, phase_wall, static_cast<double>(scanned.edges),
                     static_cast<double>(scanned.frontier));
        }
        m.send();
        mc.barrier();  // ---- exchange ----

        sim_t0 = tracing ? mc.clock().seconds() : 0.0;
        phase_wall.reset();
        std::uint64_t staged_envelopes = 0;
        for (Envelope& env : mc.recv_staged()) {
          ++staged_envelopes;
          CGRAPH_CHECK(env.tag == m.kTag);
          if (!m.dedup.accept(env.from, env.seq)) {
            mc.cluster().fabric().record_dedup_suppressed(mc.id());
            continue;
          }
          PacketReader pr(env.payload);
          m.apply(pr);
        }
        const WordRow nonempty = m.commit();
        for (std::size_t w = 0; w < words; ++w) {
          if (nonempty[w] != 0) {
            nonempty_[m.level * words + w].fetch_or(
                nonempty[w], std::memory_order_acq_rel);
          }
        }
        if (tracing) {
          // No sim cost is charged here, so the sim duration is usually 0
          // — the wall duration carries the host-side cost.
          trace_span(mc, obs::TraceEventPhase::kSuperstepCommit, m.level,
                     sim_t0, phase_wall,
                     static_cast<double>(staged_envelopes), 0.0);
        }
        mc.barrier();  // ---- level close: occupancy globally visible ----
        close_level(mc, m);
      }
      m.finish();
      edges_ += m.edges;
    }, hooks);
  }

  /// Final totals: visited counts net of each query's `seeds(q)` distinct
  /// sources, and one LevelTrace per level. Each level closed with two
  /// barriers (exchange + level close), so its barrier wait is the sum of
  /// the matching pair of superstep telemetry records.
  template <typename Seeds>
  void finish(Seeds&& seeds) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      const std::uint64_t v = visited[q];
      result.visited[q] = v - std::min<std::uint64_t>(v, seeds(q));
    }
    result.wall_seconds = wall_.seconds();
    result.sim_seconds = cluster.sim_seconds();
    result.edges_scanned = edges_;
    result.frontier_bytes = state_bytes;
    const auto& steps = cluster.telemetry().supersteps;
    result.level_trace.reserve(result.total_levels);
    for (std::size_t l = 0; l < result.total_levels; ++l) {
      const LevelCounters& c = counters_[l];
      obs::LevelTrace lt;
      lt.level = static_cast<std::uint32_t>(l);
      lt.frontier_vertices = c.frontier;
      lt.edges_scanned = c.edges;
      lt.bit_ops = c.bit_ops;
      lt.parallel_tasks = c.parallel_tasks;
      lt.steal_wait_seconds = static_cast<double>(c.steal_wait_ns) * 1e-9;
      lt.push_machines = static_cast<std::uint32_t>(c.push_machines);
      lt.pull_machines = static_cast<std::uint32_t>(c.pull_machines);
      lt.scout_edges = c.scout_edges;
      for (std::size_t s = 2 * l; s < 2 * l + 2 && s < steps.size(); ++s) {
        lt.barrier_wait_sim_seconds += steps[s].barrier_wait_sim_seconds;
      }
      result.level_trace.push_back(lt);
    }
  }

 private:
  void reset_from(std::size_t level) {
    for (std::size_t i = level * words; i < nonempty_.size(); ++i) {
      nonempty_[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t l = level; l < kMaxLevels; ++l) counters_[l].clear();
    for (auto& v : visited) v.store(0, std::memory_order_relaxed);
    edges_.store(0, std::memory_order_relaxed);
    state_bytes.store(0, std::memory_order_relaxed);
  }

  /// The whole checkpoint blob: shared header, the engine's own state,
  /// then the delta tail pinning the snapshot the blob was cut against. A
  /// rollback on this cluster (or a surviving replica adopting the cut)
  /// must replay against byte-identical mutation state, or the replayed
  /// scans would diverge from the pre-crash ones.
  template <typename Ar, typename Machine>
  void transfer(Ar& ar, const SubgraphShard& shard, Machine& m) {
    ar.depth(m.level);
    ar(m.done_count);
    for (std::uint8_t& d : m.done) ar(d);
    ar(m.edges);
    ar.state(m.dedup);
    m.transfer(ar);
    const std::uint64_t fingerprint = shard.mutation_fingerprint(epoch);
    std::array<std::uint64_t, 2> tail{epoch, fingerprint};
    ar(tail);
    CGRAPH_CHECK_MSG(tail[0] == epoch && tail[1] == fingerprint,
                     "checkpoint delta tail mismatch: a restored run "
                     "must see the snapshot the blob was cut against");
  }

  /// Globally consistent completion decisions for the closing level:
  /// a query is done once its next frontier is empty on every machine or
  /// its hop bound is reached. Machine 0 records the per-query metadata.
  template <typename Machine>
  void close_level(MachineContext& mc, Machine& m) {
    const auto next = static_cast<Depth>(m.level + 1);
    for (std::size_t q = 0; q < num_queries; ++q) {
      if (m.done[q] != 0) continue;
      const Word plane = nonempty_[m.level * words + q / kWordBits].load(
          std::memory_order_acquire);
      if (((plane >> (q % kWordBits)) & 1u) == 0 || next >= m.hops(q)) {
        m.done[q] = 1;
        ++m.done_count;
        if (mc.id() == 0) {
          result.levels[q] = next;
          result.completion_wall_seconds[q] = wall_.seconds();
          result.completion_sim_seconds[q] = mc.clock().seconds();
        }
      }
    }
    if (mc.id() == 0) result.total_levels = next;
    CGRAPH_CHECK_MSG(static_cast<std::size_t>(m.level) + 1 < kMaxLevels,
                     "traversal exceeded level cap");
  }

  static void trace_span(MachineContext& mc, obs::TraceEventPhase phase,
                         Depth level, double sim_t0, const WallTimer& wall,
                         double a, double b) {
    obs::trace({.phase = phase,
                .kind = obs::TraceEventKind::kSpan,
                .machine = static_cast<std::int32_t>(mc.id()),
                .level = static_cast<std::int32_t>(level),
                .sim_seconds = sim_t0,
                .sim_dur_seconds = mc.clock().seconds() - sim_t0,
                .wall_dur_ns = static_cast<std::uint64_t>(wall.nanos()),
                .a = a,
                .b = b});
  }

  /// Shared reduction planes, one row per level so no reset/race dance is
  /// needed: machines OR their local next-frontier masks for level L into
  /// row L before the level's closing barrier, everyone reads after.
  std::vector<std::atomic<Word>> nonempty_;
  std::vector<LevelCounters> counters_;
  std::atomic<std::uint64_t> edges_{0};
  WallTimer wall_;
};

/// Machine state of the queue engines (paper Listing 2): per query, a
/// visited bitmap over the local range and the current and next level's
/// queued vertices (global ids), expanded by one shared scatter. The
/// engine (CRTP `Engine`) owns the wire record `Task` — {target, query,
/// depth, ...}, built by Engine::make_task(target, parent, query, depth) —
/// and Engine::record(task), called once per vertex a task newly visits.
template <typename Engine, typename Task>
struct QueueMachine : LevelMachine {
  QueueMachine(LevelRun& r, MachineContext& c, std::span<const KHopQuery> b,
               const RangePartition& p)
      : LevelMachine(b.size()),
        run(r),
        mc(c),
        batch(b),
        partition(p),
        visited(b.size()),
        frontier(b.size()),
        next(b.size()),
        outbox(b.size() * M) {
    for (Bitmap& bits : visited) bits.resize(range.size());
    run.state_bytes +=
        b.size() * words_for_bits(range.size()) * sizeof(Word);
  }

  LevelRun& run;
  MachineContext& mc;
  std::span<const KHopQuery> batch;
  const RangePartition& partition;
  const SubgraphShard& shard = run.shards[mc.id()];
  const VertexRange range = shard.local_range();
  const std::size_t M = mc.num_machines();
  std::vector<Bitmap> visited;
  std::vector<std::vector<VertexId>> frontier;
  std::vector<std::vector<VertexId>> next;
  // Outgoing remote tasks, bucketed per (query, owner machine) so pool
  // threads never share a bucket; merged per owner in query order.
  std::vector<std::vector<Task>> outbox;
  std::vector<Task> merged;

  [[nodiscard]] Depth hops(std::size_t q) const { return batch[q].k; }

  void seed() {
    for (std::size_t q = 0; q < batch.size(); ++q) {
      if (range.contains(batch[q].source)) {
        visited[q].set(batch[q].source - range.begin);
        frontier[q].push_back(batch[q].source);
      }
    }
  }

  template <typename Ar>
  void transfer(Ar& ar) {
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ar.bits(visited[q]);
      ar.vec(frontier[q]);
    }
  }

  /// Expand every active query's local frontier (Listing 2 body). Pool
  /// threads claim ranges of queries: all of query q's state (visited[q],
  /// next[q], its outbox row) is touched by exactly one thread, and send()
  /// assembles packets in query order, so queue contents and wire bytes
  /// are identical to the serial scatter for any thread count.
  /// Frontier = queued tasks; bit_ops = visited test-and-set operations.
  ScanTotals scan() {
    std::atomic<std::uint64_t> edges_acc{0};
    std::atomic<std::uint64_t> tasks_acc{0};
    std::atomic<std::uint64_t> tnset_acc{0};
    const ParallelForStats stats = parallel_ranges(
        mc.pool(), batch.size(), [&](std::size_t qb, std::size_t qe) {
          std::uint64_t chunk_edges = 0;
          std::uint64_t chunk_tasks = 0;
          std::uint64_t chunk_tnset = 0;
          for (std::size_t q = qb; q < qe; ++q) {
            if (batch[q].k <= level) continue;  // s.hops == k: stop
            chunk_tasks += frontier[q].size();
            for (VertexId s : frontier[q]) {
              // Merged view: tiled base edges minus tombstones plus delta
              // inserts at the pinned epoch.
              shard.for_each_out_neighbor_at(s, run.epoch, [&](VertexId t) {
                ++chunk_edges;
                const Task task = Engine::make_task(
                    t, s, static_cast<QueryId>(q),
                    static_cast<Depth>(level + 1));
                if (range.contains(t)) {
                  ++chunk_tnset;
                  visit(task);  // Q.push(t)
                } else {
                  // sendTo(t, t.hops): dedup at the receiver's visited set.
                  outbox[q * M + partition.owner(t)].push_back(task);
                }
              });
            }
          }
          edges_acc += chunk_edges;
          tasks_acc += chunk_tasks;
          tnset_acc += chunk_tnset;
        });
    LevelCounters& counters = run.at(level);
    counters.frontier += tasks_acc;
    counters.bit_ops += tnset_acc;
    counters.add_pool({stats});
    return {edges_acc, tasks_acc};
  }

  void send() {
    for (PartitionId to = 0; to < M; ++to) {
      merged.clear();
      for (std::size_t q = 0; q < batch.size(); ++q) {
        std::vector<Task>& bucket = outbox[q * M + to];
        merged.insert(merged.end(), bucket.begin(), bucket.end());
        bucket.clear();
      }
      if (merged.empty()) continue;
      PacketWriter pw;
      pw.write_span(std::span<const Task>(merged));
      mc.send(to, Engine::kTag, pw.take());
    }
  }

  void apply(PacketReader& pr) {
    const auto tasks = pr.read_vector<Task>();
    for (const Task& task : tasks) {
      CGRAPH_DCHECK(range.contains(task.target));
      visit(task);
    }
    run.at(level).bit_ops += tasks.size();
  }

  /// Close the level: per-query occupancy of the next queues, which
  /// become the frontier (Q.pop of the drained level).
  WordRow commit() {
    WordRow nonempty{};
    for (std::size_t q = 0; q < batch.size(); ++q) {
      if (!next[q].empty()) {
        nonempty[q / kWordBits] |= Word{1} << (q % kWordBits);
      }
      frontier[q].swap(next[q]);
      next[q].clear();
    }
    return nonempty;
  }

  void finish() {
    for (std::size_t q = 0; q < batch.size(); ++q) {
      run.visited[q] += visited[q].count();
    }
  }

 private:
  /// Q.push(target) unless the task's query already visited it.
  void visit(const Task& task) {
    if (visited[task.query].atomic_test_and_set(task.target - range.begin)) {
      next[task.query].push_back(task.target);
      static_cast<Engine*>(this)->record(task);
    }
  }
};

}  // namespace cgraph
