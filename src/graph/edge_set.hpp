// Edge-set based graph representation (paper §3.2).
//
// A partition's out-edges are tiled into a blocked adjacency matrix: rows
// are contiguous ranges of *local source* vertices, columns are contiguous
// ranges of *global destination* vertices. Each non-empty block is an
// EdgeSet — a mini-CSR whose working set (vertex values + edges) is sized
// to fit the last-level cache. Traversing out-edges scans a row of blocks
// left-to-right, so destination writes land in one column stripe at a time.
//
// Real graphs are sparse, so many blocks are tiny; adjacent small blocks
// are *consolidated* (merged) horizontally along a row — and, because the
// in-edge grid is built over reversed edges, the same mechanism provides
// the paper's vertical consolidation for parent gathering.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "graph/edge.hpp"
#include "graph/types.hpp"
#include "util/assert.hpp"

namespace cgraph {

/// One block of the blocked adjacency matrix: edges whose source lies in
/// `src_range` and destination in `dst_range`, stored as CSR over the local
/// row offset (src - src_range.begin).
class EdgeSet {
 public:
  EdgeSet() = default;

  [[nodiscard]] const VertexRange& src_range() const { return src_range_; }
  [[nodiscard]] const VertexRange& dst_range() const { return dst_range_; }
  [[nodiscard]] EdgeIndex num_edges() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// Out-neighbors (global destination ids) of global source vertex s.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId s) const {
    CGRAPH_DCHECK(src_range_.contains(s));
    const VertexId r = s - src_range_.begin;
    return {dsts_.data() + offsets_[r],
            static_cast<std::size_t>(offsets_[r + 1] - offsets_[r])};
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(EdgeIndex) +
           dsts_.size() * sizeof(VertexId);
  }

 private:
  friend class EdgeSetGrid;
  VertexRange src_range_;
  VertexRange dst_range_;
  std::vector<EdgeIndex> offsets_;  // size src_range.size()+1
  std::vector<VertexId> dsts_;      // global destination ids
};

/// The full tiled representation of one partition's out- (or reversed
/// in-) edges, organized row-major for left-to-right scans.
struct EdgeSetOptions {
  /// Per-block working set target; blocks are sized so vertex values plus
  /// edge targets stay within this many bytes (the paper sizes to LLC).
  std::size_t target_bytes = 2u << 20;
  /// Blocks with fewer edges than this are merged into their horizontal
  /// neighbor during consolidation.
  EdgeIndex min_edges_per_set = 256;
  bool consolidate = true;
};

class EdgeSetGrid {
 public:
  using Options = EdgeSetOptions;

  EdgeSetGrid() = default;

  /// Build from edges with sources inside `src_range` and destinations in
  /// the global space [0, num_global_vertices). `edges` need not be sorted.
  static EdgeSetGrid build(VertexRange src_range,
                           VertexId num_global_vertices,
                           std::span<const Edge> edges,
                           const Options& opts = {});

  [[nodiscard]] const VertexRange& src_range() const { return src_range_; }
  [[nodiscard]] std::size_t num_rows() const {
    return row_begin_.empty() ? 0 : row_begin_.size() - 1;
  }
  [[nodiscard]] std::size_t num_sets() const { return sets_.size(); }
  [[nodiscard]] EdgeIndex num_edges() const { return num_edges_; }

  /// Row r's source vertex range (all its blocks share it).
  [[nodiscard]] const VertexRange& row_range(std::size_t r) const {
    CGRAPH_DCHECK(r < row_ranges_.size());
    return row_ranges_[r];
  }

  /// Blocks of row r, ordered by ascending destination range.
  [[nodiscard]] std::span<const EdgeSet> row_sets(std::size_t r) const {
    CGRAPH_DCHECK(r + 1 < row_begin_.size());
    return {sets_.data() + row_begin_[r], row_begin_[r + 1] - row_begin_[r]};
  }

  [[nodiscard]] const std::vector<EdgeSet>& sets() const { return sets_; }

  /// Flat-index block access for parallel range scans: blocks are numbered
  /// row-major in [0, num_sets()), so a parallel_for over flat indices
  /// partitions the whole grid into cache-sized units of work.
  [[nodiscard]] const EdgeSet& set_at(std::size_t i) const {
    CGRAPH_DCHECK(i < sets_.size());
    return sets_[i];
  }

  /// Row index of flat block i (gives the block's source vertex range via
  /// row_range()). O(log rows).
  [[nodiscard]] std::size_t row_of_set(std::size_t i) const;

  /// Row index containing global source vertex s.
  [[nodiscard]] std::size_t row_of(VertexId s) const;

  /// Scan all out-neighbors of global source s (may span several blocks in
  /// one row). fn(dst).
  template <typename Fn>
  void for_each_neighbor(VertexId s, Fn&& fn) const {
    const std::size_t r = row_of(s);
    for (const EdgeSet& es : row_sets(r)) {
      for (VertexId t : es.neighbors(s)) fn(t);
    }
  }

  [[nodiscard]] std::size_t memory_bytes() const;

  struct Stats {
    std::size_t sets = 0;
    std::size_t rows = 0;
    EdgeIndex edges = 0;
    double avg_edges_per_set = 0;
    EdgeIndex min_set_edges = 0;
    EdgeIndex max_set_edges = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  VertexRange src_range_;
  EdgeIndex num_edges_ = 0;
  std::vector<EdgeSet> sets_;            // row-major
  std::vector<std::size_t> row_begin_;   // size rows+1, index into sets_
  std::vector<VertexRange> row_ranges_;  // size rows
};

}  // namespace cgraph
