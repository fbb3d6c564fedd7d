// Compressed sparse row adjacency. The same structure serves as CSC by
// building it over reversed edges (paper §3.2 stores out-edges in CSR and
// in-edges in CSC).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/edge.hpp"
#include "graph/types.hpp"
#include "util/assert.hpp"

namespace cgraph {

class Csr {
 public:
  Csr() = default;

  /// Build from edges over the id space [0, num_vertices).
  static Csr from_edges(VertexId num_vertices, std::span<const Edge> edges);

  /// Build from edges with src/dst swapped (a CSC of the input).
  static Csr from_edges_reversed(VertexId num_vertices,
                                 std::span<const Edge> edges);

  /// Rectangular adjacency: rows in [0, num_rows), targets in
  /// [0, num_cols). Used for shard-local CSCs whose rows are local vertex
  /// indices but whose targets are global parent ids.
  static Csr from_edges_rect(VertexId num_rows, VertexId num_cols,
                             std::span<const Edge> edges);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeIndex num_edges() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  [[nodiscard]] EdgeIndex degree(VertexId v) const {
    CGRAPH_DCHECK(v < num_vertices());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Adjacent vertex ids of v, sorted ascending.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    CGRAPH_DCHECK(v < num_vertices());
    return {targets_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True if edge (v, t) exists; binary search over the sorted adjacency.
  [[nodiscard]] bool has_edge(VertexId v, VertexId t) const;

  [[nodiscard]] const std::vector<EdgeIndex>& offsets() const {
    return offsets_;
  }
  [[nodiscard]] const std::vector<VertexId>& targets() const {
    return targets_;
  }

  /// Approximate resident bytes, for the memory-footprint experiments.
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(EdgeIndex) +
           targets_.size() * sizeof(VertexId);
  }

 private:
  static Csr build(VertexId num_rows, VertexId num_cols,
                   std::span<const Edge> edges, bool reversed);

  std::vector<EdgeIndex> offsets_;  // size V+1
  std::vector<VertexId> targets_;   // size E, sorted within each row
};

}  // namespace cgraph
