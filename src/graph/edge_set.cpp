#include "graph/edge_set.hpp"

#include <algorithm>

namespace cgraph {
namespace {

// Estimated bytes a block's working set occupies per edge (target id) and
// per source vertex (offset + value).
constexpr std::size_t kBytesPerEdge = sizeof(VertexId);
constexpr std::size_t kBytesPerVertex = sizeof(EdgeIndex) + sizeof(float);

// Split [range) into chunks whose accumulated degree keeps the estimated
// working set under `target_bytes` (paper: "divide the vertices ... by
// evenly distributing the degrees").
std::vector<VertexRange> split_by_degree(VertexRange range,
                                         std::span<const EdgeIndex> degrees,
                                         std::size_t target_bytes) {
  std::vector<VertexRange> out;
  VertexId begin = range.begin;
  std::size_t acc_bytes = 0;
  for (VertexId v = range.begin; v < range.end; ++v) {
    const std::size_t vertex_bytes =
        kBytesPerVertex +
        static_cast<std::size_t>(degrees[v - range.begin]) * kBytesPerEdge;
    if (acc_bytes > 0 && acc_bytes + vertex_bytes > target_bytes) {
      out.push_back({begin, v});
      begin = v;
      acc_bytes = 0;
    }
    acc_bytes += vertex_bytes;
  }
  if (begin < range.end || out.empty()) out.push_back({begin, range.end});
  return out;
}

}  // namespace

EdgeSetGrid EdgeSetGrid::build(VertexRange src_range,
                               VertexId num_global_vertices,
                               std::span<const Edge> edges,
                               const Options& opts) {
  EdgeSetGrid grid;
  grid.src_range_ = src_range;
  grid.num_edges_ = edges.size();

  // --- Pass 1: local source degrees, then derive the row ranges. ---
  std::vector<EdgeIndex> local_deg(src_range.size(), 0);
  for (const Edge& e : edges) {
    CGRAPH_CHECK_MSG(src_range.contains(e.src),
                     "edge source outside grid source range");
    CGRAPH_CHECK_MSG(e.dst < num_global_vertices,
                     "edge destination outside global range");
    ++local_deg[e.src - src_range.begin];
  }
  grid.row_ranges_ = split_by_degree(src_range, local_deg, opts.target_bytes);

  // Destination stripes: uniform division of the global space into roughly
  // sqrt(#rows-worth) stripes sized against the same byte target. A stripe
  // bounds the span of destination writes while scanning one block.
  const std::size_t want_stripes = std::max<std::size_t>(
      1, (static_cast<std::size_t>(num_global_vertices) * kBytesPerVertex +
          opts.target_bytes - 1) /
             opts.target_bytes);
  const VertexId stripe_width = static_cast<VertexId>(std::max<std::size_t>(
      1, (num_global_vertices + want_stripes - 1) / want_stripes));
  const std::size_t num_stripes =
      (static_cast<std::size_t>(num_global_vertices) + stripe_width - 1) /
      std::max<VertexId>(stripe_width, 1);

  auto stripe_of = [&](VertexId dst) -> std::size_t {
    return dst / stripe_width;
  };
  auto row_of_src = [&](VertexId src) -> std::size_t {
    auto it = std::upper_bound(
        grid.row_ranges_.begin(), grid.row_ranges_.end(), src,
        [](VertexId x, const VertexRange& r) { return x < r.begin; });
    return static_cast<std::size_t>(it - grid.row_ranges_.begin() - 1);
  };

  // --- Pass 2: bucket edges into (row, stripe) cells. ---
  const std::size_t nrows = grid.row_ranges_.size();
  std::vector<std::vector<Edge>> cells(nrows * std::max<std::size_t>(
                                                   num_stripes, 1));
  for (const Edge& e : edges) {
    const std::size_t r = row_of_src(e.src);
    const std::size_t c = stripe_of(e.dst);
    cells[r * num_stripes + c].push_back(e);
  }

  // --- Pass 3: per row, consolidate small adjacent cells, emit EdgeSets.---
  grid.row_begin_.assign(nrows + 1, 0);
  for (std::size_t r = 0; r < nrows; ++r) {
    grid.row_begin_[r] = grid.sets_.size();
    const VertexRange row_range = grid.row_ranges_[r];

    std::size_t c = 0;
    while (c < num_stripes) {
      // Gather a run of stripes: at least one, extended while consolidation
      // is on and the accumulated block stays tiny.
      std::size_t run_end = c + 1;
      EdgeIndex run_edges = cells[r * num_stripes + c].size();
      if (opts.consolidate) {
        while (run_end < num_stripes &&
               run_edges < opts.min_edges_per_set) {
          run_edges += cells[r * num_stripes + run_end].size();
          ++run_end;
        }
      }
      if (run_edges == 0) {  // skip fully empty cell runs
        c = run_end;
        continue;
      }

      EdgeSet es;
      es.src_range_ = row_range;
      es.dst_range_ = {
          static_cast<VertexId>(c * stripe_width),
          static_cast<VertexId>(std::min<std::size_t>(
              run_end * stripe_width, num_global_vertices))};
      es.offsets_.assign(row_range.size() + 1, 0);

      // Counting-sort the run's edges into the block CSR.
      for (std::size_t cc = c; cc < run_end; ++cc) {
        for (const Edge& e : cells[r * num_stripes + cc]) {
          ++es.offsets_[e.src - row_range.begin + 1];
        }
      }
      for (std::size_t v = 0; v < row_range.size(); ++v)
        es.offsets_[v + 1] += es.offsets_[v];
      es.dsts_.resize(run_edges);
      std::vector<EdgeIndex> cursor(es.offsets_.begin(),
                                    es.offsets_.end() - 1);
      for (std::size_t cc = c; cc < run_end; ++cc) {
        for (const Edge& e : cells[r * num_stripes + cc]) {
          const EdgeIndex pos = cursor[e.src - row_range.begin]++;
          es.dsts_[pos] = e.dst;
        }
      }
      // Sort each source's slice by destination for deterministic scans.
      for (std::size_t v = 0; v < row_range.size(); ++v) {
        const auto b = static_cast<std::ptrdiff_t>(es.offsets_[v]);
        const auto e2 = static_cast<std::ptrdiff_t>(es.offsets_[v + 1]);
        std::sort(es.dsts_.begin() + b, es.dsts_.begin() + e2);
      }
      grid.sets_.push_back(std::move(es));
      c = run_end;
    }
  }
  grid.row_begin_[nrows] = grid.sets_.size();
  return grid;
}

std::size_t EdgeSetGrid::row_of_set(std::size_t i) const {
  CGRAPH_DCHECK(i < sets_.size());
  auto it = std::upper_bound(row_begin_.begin(), row_begin_.end(), i);
  return static_cast<std::size_t>(it - row_begin_.begin() - 1);
}

std::size_t EdgeSetGrid::row_of(VertexId s) const {
  CGRAPH_DCHECK(src_range_.contains(s));
  auto it = std::upper_bound(
      row_ranges_.begin(), row_ranges_.end(), s,
      [](VertexId x, const VertexRange& r) { return x < r.begin; });
  return static_cast<std::size_t>(it - row_ranges_.begin() - 1);
}

std::size_t EdgeSetGrid::memory_bytes() const {
  std::size_t total = sets_.capacity() * sizeof(EdgeSet);
  for (const EdgeSet& es : sets_) total += es.memory_bytes();
  return total;
}

EdgeSetGrid::Stats EdgeSetGrid::stats() const {
  Stats s;
  s.sets = sets_.size();
  s.rows = num_rows();
  s.edges = num_edges_;
  if (!sets_.empty()) {
    s.min_set_edges = sets_.front().num_edges();
    for (const EdgeSet& es : sets_) {
      s.min_set_edges = std::min(s.min_set_edges, es.num_edges());
      s.max_set_edges = std::max(s.max_set_edges, es.num_edges());
    }
    s.avg_edges_per_set =
        static_cast<double>(num_edges_) / static_cast<double>(sets_.size());
  }
  return s;
}

}  // namespace cgraph
