#include "query/msbfs.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>

#include "net/serialize.hpp"
#include "obs/event_tracer.hpp"
#include "query/frontier.hpp"
#include "query/level_state.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kRemoteDiscoverTag = 0x52444953;  // 'RDIS'

// Sparse top-down scans iterate the active-row queue instead of testing
// every row once the queue is this many times smaller than the vertex
// count. Purely a work-saving choice: queue and full scans expand the
// same rows, so every downstream bit and counter is identical.
constexpr std::uint64_t kSparseQueueFactor = 8;

/// Internal batch form shared by the single- and multi-source overloads:
/// per query, a hop bound and a list of distinct seed vertices.
struct SeededBatch {
  std::vector<Depth> ks;
  std::vector<std::vector<VertexId>> seeds;

  [[nodiscard]] std::size_t size() const { return ks.size(); }
};

template <typename Query>
SeededBatch to_seeded(std::span<const Query> batch) {
  SeededBatch sb;
  sb.ks.reserve(batch.size());
  sb.seeds.reserve(batch.size());
  for (const Query& q : batch) {
    sb.ks.push_back(q.k);
    if constexpr (std::is_same_v<Query, KHopQuery>) {
      sb.seeds.push_back({q.source});
    } else {
      CGRAPH_CHECK_MSG(!q.sources.empty(),
                       "multi-source query needs at least one source");
      std::vector<VertexId> seeds = q.sources;
      std::sort(seeds.begin(), seeds.end());
      seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
      sb.seeds.push_back(std::move(seeds));
    }
  }
  return sb;
}

/// Per-level expansion mask: bit q set iff query q still has hops left
/// when expanding the frontier at `level` (discovering level+1).
WordRow expand_mask_for_level(std::span<const Depth> ks, Depth level) {
  WordRow mask{};
  for (std::size_t q = 0; q < ks.size(); ++q) {
    if (ks[q] > level) {
      mask[q / kWordBits] |= Word{1} << (q % kWordBits);
    }
  }
  return mask;
}

bool row_masked_any(const Word* row, const WordRow& mask, std::size_t words,
                    WordRow& out) {
  Word any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    out[w] = row[w] & mask[w];
    any |= out[w];
  }
  return any != 0;
}

/// The per-level direction decision (DESIGN.md §12). Every input is a
/// deterministic function of the frontier planes and static degrees — the
/// previous level's commit-pass occupancy, the partition's edge/vertex
/// totals, and the previous decision (Beamer's hysteresis) — so the choice
/// is identical for every thread count and replays bit-exact from a
/// restored checkpoint.
TraversalDirection decide_direction(const DirectionOptions& opts,
                                    bool can_pull, bool was_pulling,
                                    const FrontierOccupancy& occ,
                                    std::uint64_t total_edges,
                                    std::uint64_t nrows) {
  if (opts.mode == TraversalDirection::kPush) return TraversalDirection::kPush;
  if (opts.mode == TraversalDirection::kPull) return TraversalDirection::kPull;
  if (!can_pull) return TraversalDirection::kPush;
  if (!was_pulling) {
    // Push -> pull when the frontier's out-edges pass total/alpha: the
    // top-down scan is about to touch a large fraction of the graph, and
    // most of those checks will land on already-visited rows.
    const double scout_limit =
        static_cast<double>(total_edges) / std::max(opts.alpha, 1e-9);
    return static_cast<double>(occ.scout_edges) > scout_limit
               ? TraversalDirection::kPull
               : TraversalDirection::kPush;
  }
  // Pull -> push when the frontier thins out again (the tail of the
  // traversal): bottom-up would keep scanning every unvisited row for
  // parents that are no longer there.
  const double rows_limit =
      static_cast<double>(nrows) / std::max(opts.beta, 1e-9);
  return static_cast<double>(occ.active_rows) < rows_limit
             ? TraversalDirection::kPush
             : TraversalDirection::kPull;
}

/// One level's commit pass: the per-query occupancy of the next frontier,
/// its density/scout inputs, and the pool statistics.
struct LevelCommit {
  WordRow nonempty{};
  FrontierOccupancy occ;
  ParallelForStats stats;
};

/// Commit a level over every row of `bf` (visited |= next, once), carry
/// the next level's occupancy and direction inputs out of the same pass,
/// and advance. When `queue` is non-null it is rebuilt with the new
/// frontier's active rows in ascending order.
LevelCommit commit_level(ThreadPool* pool, BatchFrontier& bf,
                         std::span<const EdgeIndex> degrees,
                         std::vector<VertexId>* queue) {
  LevelCommit c;
  std::vector<std::pair<std::size_t, std::vector<VertexId>>> active_chunks;
  std::mutex mu;
  c.stats = parallel_ranges(
      pool, bf.num_vertices(), [&](std::size_t vb, std::size_t ve) {
        WordRow chunk_nonempty{};
        std::vector<VertexId> chunk_active;
        const FrontierOccupancy chunk_occ =
            bf.commit_rows(vb, ve, chunk_nonempty.data(), degrees,
                           queue != nullptr ? &chunk_active : nullptr);
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t w = 0; w < bf.words_per_row(); ++w) {
          c.nonempty[w] |= chunk_nonempty[w];
        }
        c.occ += chunk_occ;
        if (queue != nullptr) {
          active_chunks.emplace_back(vb, std::move(chunk_active));
        }
      });
  if (queue != nullptr) {
    // Chunks are contiguous ranges, so sorting by range start restores the
    // global ascending order regardless of which thread finished first.
    std::sort(active_chunks.begin(), active_chunks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    queue->clear();
    for (auto& chunk : active_chunks) {
      queue->insert(queue->end(), chunk.second.begin(), chunk.second.end());
    }
  }
  bf.advance(c.nonempty.data());  // O(words): reuse the commit-phase mask
  return c;
}

/// Per-query visited bits over the rows of `bf` (seeds included);
/// `merge(counts)` receives each chunk's totals, possibly concurrently.
template <typename Merge>
void count_visited(ThreadPool* pool, const BatchFrontier& bf,
                   Merge&& merge) {
  parallel_ranges(pool, bf.num_vertices(), [&](std::size_t vb,
                                               std::size_t ve) {
    std::vector<std::uint64_t> counts(bf.num_queries(), 0);
    for (std::size_t v = vb; v < ve; ++v) {
      const Word* row = bf.visited().row(v);
      for (std::size_t w = 0; w < bf.words_per_row(); ++w) {
        for_each_set_bit(row[w], w * kWordBits,
                         [&](std::size_t q) { ++counts[q]; });
      }
    }
    merge(counts);
  });
}

MsBfsBatchResult msbfs_batch_core(const Graph& graph,
                                  const SeededBatch& batch,
                                  std::size_t threads,
                                  const DirectionOptions& direction,
                                  QueryBitRows* visited_out) {
  const std::size_t Q = batch.size();
  CGRAPH_CHECK(Q > 0);
  CGRAPH_CHECK_MSG(Q <= QueryBitRows::kMaxBatchWords * kWordBits,
                   "batch exceeds bit-parallel capacity");
  const VertexId n = graph.num_vertices();

  const bool can_pull = graph.has_in_edges();
  CGRAPH_CHECK_MSG(
      direction.mode != TraversalDirection::kPull || can_pull,
      "forced pull requires a graph built with in-edges (CSC)");

  const std::size_t nthreads = resolve_compute_threads(threads);
  std::unique_ptr<ThreadPool> owned_pool;
  if (nthreads > 1) owned_pool = std::make_unique<ThreadPool>(nthreads - 1);
  ThreadPool* pool = owned_pool.get();
  const bool shared = pool != nullptr;  // several scan writers: atomic ORs

  MsBfsBatchResult result;
  result.visited.assign(Q, 0);
  result.levels.assign(Q, 0);
  result.completion_wall_seconds.assign(Q, 0.0);
  result.completion_sim_seconds.assign(Q, 0.0);

  BatchFrontier bf(n, Q);
  const std::size_t W = bf.words_per_row();
  result.frontier_bytes = bf.memory_bytes();

  for (std::size_t q = 0; q < Q; ++q) {
    for (VertexId source : batch.seeds[q]) {
      CGRAPH_CHECK(source < n);
      bf.seed(source, q);
    }
  }

  // Scout-count inputs: per-row out-degrees (static) and the seeded
  // frontier's occupancy; from level 1 on the occupancy is carried out of
  // the commit pass for free.
  std::vector<EdgeIndex> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = graph.out_degree(v);
  const std::uint64_t total_edges = graph.num_edges();
  FrontierOccupancy occ = bf.frontier_occupancy(degrees);

  // Active-row queue for sparse top-down levels: seeded by the
  // bitmap->queue conversion, then maintained by the commit pass.
  std::vector<VertexId> queue;
  bf.frontier_to_queue(queue);

  std::vector<bool> done(Q, false);
  std::size_t done_count = 0;
  bool pulling = false;
  WallTimer wall;

  for (Depth level = 0; done_count < Q; ++level) {
    const WordRow expand = expand_mask_for_level(batch.ks, level);

    const TraversalDirection used = decide_direction(
        direction, can_pull, pulling, occ, total_edges, n);
    pulling = used == TraversalDirection::kPull;

    obs::LevelTrace lt;
    lt.level = level;
    lt.scout_edges = occ.scout_edges;
    lt.push_machines = pulling ? 0 : 1;
    lt.pull_machines = pulling ? 1 : 0;

    std::atomic<std::uint64_t> frontier_acc{0};
    std::atomic<std::uint64_t> edges_acc{0};
    ParallelForStats scan_stats;
    if (!pulling) {
      // Top-down scan: threads claim disjoint vertex ranges of the
      // frontier; fresh discoveries land in the next plane by OR (relaxed
      // atomic when pooled, plain when serial) while the visited plane
      // stays frozen (committed once below), so any thread interleaving
      // produces exactly the serial scan's bits. A sparse frontier
      // iterates the active-row queue instead of testing all n rows —
      // same rows expand either way.
      auto scan_rows = [&](std::size_t count, auto row_of) {
        return parallel_ranges(
            pool, count, [&](std::size_t ib, std::size_t ie) {
              WordRow masked;
              std::uint64_t chunk_frontier = 0;
              std::uint64_t chunk_edges = 0;
              for (std::size_t i = ib; i < ie; ++i) {
                const VertexId v = row_of(i);
                if (!row_masked_any(bf.frontier().row(v), expand, W, masked)) {
                  continue;
                }
                ++chunk_frontier;
                const auto nbrs = graph.out_neighbors(v);
                for (VertexId t : nbrs) {
                  bf.discover_next(t, masked.data(), shared);
                }
                chunk_edges += nbrs.size();
              }
              frontier_acc.fetch_add(chunk_frontier,
                                     std::memory_order_relaxed);
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
            });
      };
      const bool sparse =
          queue.size() * kSparseQueueFactor < static_cast<std::size_t>(n);
      scan_stats = sparse ? scan_rows(queue.size(),
                                      [&](std::size_t i) { return queue[i]; })
                          : scan_rows(n, [](std::size_t i) {
                              return static_cast<VertexId>(i);
                            });
    } else {
      // Bottom-up scan: threads claim disjoint ranges of *rows to fill*;
      // each unvisited row ANDs its parents' frontier words into its own
      // next row (one word-AND per 64 queries), stopping as soon as every
      // wanted bit found a parent. Each row has exactly one writer, so no
      // atomics are needed; the frontier occupancy count rides along for
      // telemetry parity with the push path.
      scan_stats = parallel_ranges(
          pool, n, [&](std::size_t vb, std::size_t ve) {
            WordRow masked;
            std::uint64_t chunk_frontier = 0;
            std::uint64_t chunk_examined = 0;
            for (std::size_t v = vb; v < ve; ++v) {
              if (row_masked_any(bf.frontier().row(v), expand, W, masked)) {
                ++chunk_frontier;
              }
              chunk_examined += bf.pull_row(
                  v, expand.data(),
                  graph.in_neighbors(static_cast<VertexId>(v)), 0, n);
            }
            frontier_acc.fetch_add(chunk_frontier,
                                   std::memory_order_relaxed);
            edges_acc.fetch_add(chunk_examined, std::memory_order_relaxed);
          });
    }

    const LevelCommit committed = commit_level(pool, bf, degrees, &queue);
    occ = committed.occ;

    lt.frontier_vertices = frontier_acc.load(std::memory_order_relaxed);
    const std::uint64_t discovers =
        edges_acc.load(std::memory_order_relaxed);
    lt.edges_scanned = discovers;
    result.edges_scanned += discovers;

    // Bitmap words touched. Push: frontier scan + occupancy scan of every
    // row, plus the three word-ops per discovered neighbor row (Fig. 6
    // update). Pull: frontier/want scans of every row plus two word-ops
    // (AND + OR) per parent row examined, plus the commit scan.
    lt.bit_ops = pulling
                     ? 3 * static_cast<std::uint64_t>(n) * W +
                           discovers * 2 * W
                     : 2 * static_cast<std::uint64_t>(n) * W +
                           discovers * 3 * W;
    lt.parallel_tasks = scan_stats.tasks + committed.stats.tasks;
    lt.steal_wait_seconds = scan_stats.join_wait_seconds +
                            committed.stats.join_wait_seconds;
    result.level_trace.push_back(lt);

    result.total_levels = static_cast<Depth>(level + 1);

    for (std::size_t q = 0; q < Q; ++q) {
      if (done[q]) continue;
      const bool empty_next =
          ((committed.nonempty[q / kWordBits] >> (q % kWordBits)) & 1u) ==
          0;
      const bool k_exhausted =
          static_cast<Depth>(level + 1) >= batch.ks[q];
      if (empty_next || k_exhausted) {
        done[q] = true;
        ++done_count;
        result.levels[q] = static_cast<Depth>(level + 1);
        result.completion_wall_seconds[q] = wall.seconds();
      }
    }
    CGRAPH_CHECK_MSG(static_cast<std::size_t>(level) + 1 < kMaxLevels,
                     "traversal exceeded level cap");
  }

  // Visited counts per query (the seeds themselves excluded).
  std::mutex visited_mu;
  count_visited(pool, bf, [&](const std::vector<std::uint64_t>& counts) {
    std::lock_guard<std::mutex> lock(visited_mu);
    for (std::size_t q = 0; q < Q; ++q) result.visited[q] += counts[q];
  });
  for (std::size_t q = 0; q < Q; ++q) {
    result.visited[q] -= std::min<std::uint64_t>(result.visited[q],
                                                 batch.seeds[q].size());
  }
  if (visited_out != nullptr) *visited_out = bf.visited();

  result.wall_seconds = wall.seconds();
  result.sim_seconds = result.wall_seconds;  // no cluster: wall == sim
  result.completion_sim_seconds = result.completion_wall_seconds;
  return result;
}

/// One machine of run_distributed_msbfs, driven through the phases of
/// LevelRun::run: its partition's frontier planes, the direction
/// hysteresis, and the dense remote accumulator.
struct MsbfsMachine : LevelMachine {
  static constexpr std::uint32_t kTag = kRemoteDiscoverTag;

  MsbfsMachine(LevelRun& r, MachineContext& c, const SeededBatch& b,
               const RangePartition& p, const DirectionOptions& d,
               QueryBitRows* out)
      : LevelMachine(b.size()),
        run(r),
        mc(c),
        batch(b),
        partition(p),
        direction(d),
        visited_out(out) {
    for (EdgeIndex deg : degrees) total_out_edges += deg;
    run.state_bytes += bf.memory_bytes();
  }

  LevelRun& run;
  MachineContext& mc;
  const SeededBatch& batch;
  const RangePartition& partition;
  const DirectionOptions& direction;
  QueryBitRows* visited_out;
  const SubgraphShard& shard = run.shards[mc.id()];
  const VertexRange range = shard.local_range();
  const VertexId nlocal = range.size();
  const std::size_t W = run.words;
  // Intra-machine compute pool (nullptr = serial), sized by
  // Cluster::set_compute_threads / $CGRAPH_THREADS.
  ThreadPool* pool = mc.pool();
  // Direction heuristic inputs for this partition: static out-degrees
  // (scout counts) and the partition's own edge total — the decision is
  // per level per partition.
  const std::span<const EdgeIndex> degrees{shard.out_degrees()};
  std::uint64_t total_out_edges = 0;
  // Delta edge-sets overlay the tiled base structures (DESIGN.md §15).
  // Without uncompacted events every delta gate below is a dead branch
  // and the scan is byte-for-byte the frozen path.
  const bool mutating = shard.has_mutations();
  BatchFrontier bf{nlocal, batch.size()};
  bool pulling = false;
  // Occupancy entering the level. Recomputed from the frontier plane on
  // the first (or restored) level, which reproduces the commit-carried
  // values exactly, so direction decisions replay bit-exact.
  std::optional<FrontierOccupancy> occ;
  // Remote accumulator: dense bit rows over the whole global space, so
  // per-destination rows are OR-combined before they hit the wire (bounded
  // by boundary vertices, not edges), plus a bitmap of the rows touched
  // this level that send() walks in ascending order. A machine without a
  // pool is the only writer of its scan and ORs with plain stores; pool
  // threads OR with relaxed atomics.
  const bool shared = pool != nullptr;
  std::vector<Word> remote_acc = std::vector<Word>(
      static_cast<std::size_t>(shard.num_global_vertices()) * W, 0);
  Bitmap touched_bm{shard.num_global_vertices()};

  [[nodiscard]] Depth hops(std::size_t q) const { return batch.ks[q]; }

  void seed() {
    for (std::size_t q = 0; q < batch.size(); ++q) {
      for (VertexId source : batch.seeds[q]) {
        CGRAPH_CHECK(source < shard.num_global_vertices());
        if (range.contains(source)) bf.seed(source - range.begin, q);
      }
    }
  }

  /// At the top-of-level cut the next plane is empty, so the frontier and
  /// visited planes plus the direction hysteresis are the whole state.
  template <typename Ar>
  void transfer(Ar& ar) {
    ar.state(bf);
    ar(pulling);
    if (mc.id() == 0) {
      // Machine 0 owns the per-query completion metadata. A restore on
      // this cluster keeps `result` alive by reference, but a surviving
      // replica adopting this cut starts with zeroed result arrays, so
      // pre-cut completions must travel inside the blob.
      MsBfsBatchResult& result = run.result;
      ar.depth(result.total_levels);
      for (std::size_t q = 0; q < batch.size(); ++q) {
        ar.depth(result.levels[q]);
        ar(result.completion_wall_seconds[q]);
        ar(result.completion_sim_seconds[q]);
      }
    }
  }

  ScanTotals scan() {
    if (!occ) occ = bf.frontier_occupancy(degrees);
    const WordRow expand = expand_mask_for_level(batch.ks, level);
    pulling = decide_direction(direction, shard.has_in_edges(), pulling,
                               *occ, total_out_edges, nlocal) ==
              TraversalDirection::kPull;
    LevelCounters& counters = run.at(level);
    ++(pulling ? counters.pull_machines : counters.push_machines);
    counters.scout_edges += occ->scout_edges;
    if (obs::tracing_enabled()) {
      obs::trace({.phase = obs::TraceEventPhase::kDirectionChoice,
                  .kind = obs::TraceEventKind::kInstant,
                  .machine = static_cast<std::int32_t>(mc.id()),
                  .level = static_cast<std::int32_t>(level),
                  .sim_seconds = mc.clock().seconds(),
                  .a = pulling ? 1.0 : 0.0,
                  .b = static_cast<double>(occ->scout_edges)});
    }

    // --- Telemetry: local frontier occupancy entering this level.
    std::atomic<std::uint64_t> frontier{0};
    const ParallelForStats occ_stats = parallel_ranges(
        pool, nlocal, [&](std::size_t vb, std::size_t ve) {
          WordRow masked;
          std::uint64_t chunk_frontier = 0;
          for (std::size_t v = vb; v < ve; ++v) {
            if (row_masked_any(bf.frontier().row(v), expand, W, masked)) {
              ++chunk_frontier;
            }
          }
          frontier += chunk_frontier;
        });

    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> rows{0};
    ParallelForStats pull_stats;
    const std::uint64_t examined =
        pulling ? scan_in_edges(expand, pull_stats) : 0;
    const ParallelForStats scan_stats =
        scan_out_sets(expand, /*skip_local=*/pulling, pushed, rows);
    pushed += scan_delta_extras(expand);

    const std::uint64_t level_edges = pushed + examined;
    // Bitmap words touched this level. Push: occupancy pre-scan + per-row
    // frontier masks + three word-ops per discovered neighbor row, plus
    // the occupancy publish scan. Pull: the same pre/publish scans, the
    // per-row want computation, two word-ops per parent examined, and the
    // boundary rows' masks + remote ORs.
    counters.bit_ops +=
        pulling ? (static_cast<std::uint64_t>(nlocal) * 3 + rows +
                   examined * 2 + pushed * 3) *
                      W
                : (static_cast<std::uint64_t>(nlocal) * 2 + rows +
                   level_edges * 3) *
                      W;
    counters.frontier += frontier;
    counters.add_pool({occ_stats, scan_stats, pull_stats});
    return {level_edges, frontier};
  }

  /// Top-down scan of the local out-edge tiles. Pool threads claim ranges
  /// of flat block indices (each block is an LLC-sized EdgeSet tile, the
  /// natural unit of intra-machine work); every edge goes through
  /// discover(), with visited frozen. With `skip_local` (pull mode, whose
  /// bottom-up pass already covered local targets) only boundary edges
  /// push, so the shipped packets — and every fault-plan decision, barrier
  /// count and checkpoint cut downstream — are byte-identical to push
  /// mode; blocks whose destinations are all local are skipped, the
  /// pull-side saving.
  ParallelForStats scan_out_sets(const WordRow& expand, bool skip_local,
                                 std::atomic<std::uint64_t>& pushed,
                                 std::atomic<std::uint64_t>& rows) {
    const EdgeSetGrid& grid = shard.out_sets();
    const DeltaEdgeSet& dout = shard.delta_out();
    return parallel_ranges(
        pool, grid.num_sets(), [&](std::size_t bb, std::size_t be) {
          WordRow masked;
          std::uint64_t chunk_edges = 0;
          std::uint64_t chunk_rows = 0;
          for (std::size_t b = bb; b < be; ++b) {
            const EdgeSet& es = grid.set_at(b);
            if (skip_local && es.dst_range().begin >= range.begin &&
                es.dst_range().end <= range.end) {
              continue;
            }
            const VertexRange rr = grid.row_range(grid.row_of_set(b));
            for (VertexId v = rr.begin; v < rr.end; ++v) {
              const Word* row = bf.frontier().row(v - range.begin);
              ++chunk_rows;
              if (!row_masked_any(row, expand, W, masked)) continue;
              const auto nbrs = es.neighbors(v);
              chunk_edges += nbrs.size();
              const bool vdel = mutating && dout.has_deletes(v);
              for (VertexId t : nbrs) {
                if (vdel && dout.edge_deleted(v, t, run.epoch)) continue;
                discover(t, masked, skip_local);
              }
            }
          }
          pushed += chunk_edges;
          rows += chunk_rows;
        });
  }

  /// Bottom-up local scan over the partition's CSC: each thread owns a
  /// disjoint range of unvisited rows and ANDs local parents' frontier
  /// words into them (plain writes — one writer per row). Parents outside
  /// the local range are skipped; their contributions arrive through the
  /// boundary push, exactly as in push mode. Returns parents examined.
  std::uint64_t scan_in_edges(const WordRow& expand,
                              ParallelForStats& stats) {
    const DeltaEdgeSet& din = shard.delta_in();
    std::atomic<std::uint64_t> examined{0};
    stats = parallel_ranges(
        pool, nlocal, [&](std::size_t vb, std::size_t ve) {
          std::uint64_t chunk_examined = 0;
          std::vector<VertexId> merged;
          for (std::size_t v = vb; v < ve; ++v) {
            const VertexId vg = range.begin + static_cast<VertexId>(v);
            if (mutating && din.has_events(vg)) {
              // Rows with in-side delta events pull from a merged parent
              // list — base parents minus tombstones plus inserted
              // parents, in the same globally sorted order a compacted
              // rebuild would produce — so the examined count (and every
              // downstream bit) matches the frozen equivalent exactly.
              merged.clear();
              shard.for_each_in_parent_at(
                  vg, run.epoch, [&](VertexId p) { merged.push_back(p); });
              chunk_examined += bf.pull_row(
                  v, expand.data(),
                  std::span<const VertexId>(merged.data(), merged.size()),
                  range.begin, range.end);
            } else {
              chunk_examined +=
                  bf.pull_row(v, expand.data(), shard.in_csr().neighbors(v),
                              range.begin, range.end);
            }
          }
          examined += chunk_examined;
        });
    return examined;
  }

  /// Delta extras: edges inserted after ingestion live in the
  /// per-partition event sets, not the tiled base structures; they take
  /// the identical local / remote discovery paths (OR-discovery is
  /// idempotent and commutative, and the remote accumulator is indexed by
  /// global id, so a brand-new boundary destination needs no boundary-list
  /// changes). The pass is serial — per-vertex event lists are tiny —
  /// which also pins a deterministic extras count across thread counts.
  /// In pull mode local extras were already covered by the merged-parent
  /// pull rows, so only boundary targets push. Returns the extra edges.
  std::uint64_t scan_delta_extras(const WordRow& expand) {
    const DeltaEdgeSet& dout = shard.delta_out();
    if (!mutating || dout.empty()) return 0;
    WordRow masked;
    std::uint64_t extra_edges = 0;
    for (VertexId v = range.begin; v < range.end; ++v) {
      if (!dout.has_events(v)) continue;
      const Word* row = bf.frontier().row(v - range.begin);
      if (!row_masked_any(row, expand, W, masked)) continue;
      dout.for_each_extra(v, run.epoch, [&](VertexId t) {
        if (discover(t, masked, pulling)) ++extra_edges;
      });
    }
    return extra_edges;
  }

  /// Route the discovery bits `masked` for target t. A local target ORs
  /// them into the next plane (skipped, returning false, when
  /// `skip_local`); a remote one ORs them into its accumulator row and
  /// marks t in the touched bitmap.
  bool discover(VertexId t, const WordRow& masked, bool skip_local) {
    if (range.contains(t)) {
      if (!skip_local) {
        bf.discover_next(t - range.begin, masked.data(), shared);
      }
      return !skip_local;
    }
    Word* acc = remote_acc.data() + static_cast<std::size_t>(t) * W;
    for (std::size_t w = 0; w < W; ++w) or_word(&acc[w], masked[w], shared);
    if (shared) {
      touched_bm.atomic_test_and_set(t);
    } else {
      touched_bm.set(t);
    }
    return true;
  }

  /// Ship the combined remote discoveries grouped by owner, as (vertex,
  /// bit-row) records in ascending vertex order: the touched bitmap is
  /// walked word by word over each remote owner's range (ranges ascend
  /// with owner id), clearing each shipped row and bit on the way.
  void send() {
    const std::size_t record_bytes = sizeof(VertexId) + W * sizeof(Word);
    for (PartitionId owner = 0; owner < partition.num_partitions(); ++owner) {
      if (owner == mc.id()) continue;
      const VertexRange orange = partition.range(owner);
      const std::size_t count =
          touched_bm.count_range(orange.begin, orange.end);
      if (count == 0) continue;
      PacketWriter pw;
      pw.reserve(sizeof(std::uint64_t) + count * record_bytes);
      pw.write<std::uint64_t>(count);
      touched_bm.drain_range(orange.begin, orange.end, [&](std::size_t t) {
        Word* acc = remote_acc.data() + t * W;
        pw.write<VertexId>(static_cast<VertexId>(t));
        for (std::size_t w = 0; w < W; ++w) pw.write<Word>(acc[w]);
        std::fill_n(acc, W, Word{0});
      });
      mc.send(owner, kTag, pw.take());
    }
  }

  /// Runs on the machine thread after the scan's pool has joined, so the
  /// received rows always OR with plain stores.
  void apply(PacketReader& pr) {
    WordRow bits;
    const auto count = pr.read<std::uint64_t>();
    for (std::uint64_t j = 0; j < count; ++j) {
      const auto t = pr.read<VertexId>();
      CGRAPH_DCHECK(range.contains(t));
      for (std::size_t w = 0; w < W; ++w) bits[w] = pr.read<Word>();
      bf.discover_next(t - range.begin, bits.data(), /*shared=*/false);
    }
  }

  WordRow commit() {
    const LevelCommit committed = commit_level(pool, bf, degrees, nullptr);
    occ = committed.occ;
    run.at(level).add_pool({committed.stats});
    return committed.nonempty;
  }

  void finish() {
    count_visited(pool, bf, [&](const std::vector<std::uint64_t>& counts) {
      for (std::size_t q = 0; q < counts.size(); ++q) {
        if (counts[q] != 0) run.visited[q] += counts[q];
      }
    });
    if (visited_out != nullptr) {
      // Machines own disjoint global row ranges, so the plane assembles
      // without synchronization; a crashed machine only reaches this
      // point on its final (successful) attempt.
      for (std::size_t v = 0; v < static_cast<std::size_t>(nlocal); ++v) {
        std::copy_n(bf.visited().row(v), W,
                    visited_out->row(range.begin + v));
      }
    }
  }
};

MsBfsBatchResult run_distributed_msbfs_core(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, const SeededBatch& batch,
    const DirectionOptions& direction, QueryBitRows* visited_out,
    Epoch snapshot_epoch) {
  MsBfsBatchResult result;
  LevelRun run(cluster, shards, batch.size(), snapshot_epoch, result);
  if (direction.mode == TraversalDirection::kPull) {
    for (const SubgraphShard& shard : shards) {
      CGRAPH_CHECK_MSG(shard.has_in_edges(),
                       "forced pull requires shards built with in-edges "
                       "(ShardOptions::build_in_edges)");
    }
  }
  if (visited_out != nullptr) {
    *visited_out = QueryBitRows(shards[0].num_global_vertices(), batch.size());
  }
  run.run([&](MachineContext& mc) {
    return MsbfsMachine(run, mc, batch, partition, direction, visited_out);
  });
  run.finish([&](std::size_t q) { return batch.seeds[q].size(); });
  return result;
}

}  // namespace

MsBfsBatchResult msbfs_batch(const Graph& graph,
                             std::span<const KHopQuery> batch,
                             std::size_t threads,
                             const DirectionOptions& direction,
                             QueryBitRows* visited_out) {
  return msbfs_batch_core(graph, to_seeded(batch), threads, direction,
                          visited_out);
}

MsBfsBatchResult msbfs_batch(const Graph& graph,
                             std::span<const MultiKHopQuery> batch,
                             std::size_t threads,
                             const DirectionOptions& direction,
                             QueryBitRows* visited_out) {
  return msbfs_batch_core(graph, to_seeded(batch), threads, direction,
                          visited_out);
}

MsBfsBatchResult run_distributed_msbfs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch,
    const DirectionOptions& direction, QueryBitRows* visited_out,
    Epoch snapshot_epoch) {
  return run_distributed_msbfs_core(cluster, shards, partition,
                                    to_seeded(batch), direction,
                                    visited_out, snapshot_epoch);
}

MsBfsBatchResult run_distributed_msbfs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const MultiKHopQuery> batch,
    const DirectionOptions& direction, QueryBitRows* visited_out,
    Epoch snapshot_epoch) {
  return run_distributed_msbfs_core(cluster, shards, partition,
                                    to_seeded(batch), direction,
                                    visited_out, snapshot_epoch);
}

}  // namespace cgraph
