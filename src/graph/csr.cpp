#include "graph/csr.hpp"

#include <algorithm>

namespace cgraph {

// Counting-sort construction: one pass to count degrees, one to place.
// O(V + E), no comparison sort of the full edge array required.
Csr Csr::build(VertexId num_rows, VertexId num_cols,
               std::span<const Edge> edges, bool reversed) {
  struct Access {
    bool rev;
    VertexId src(const Edge& e) const { return rev ? e.dst : e.src; }
    VertexId dst(const Edge& e) const { return rev ? e.src : e.dst; }
  } ax{reversed};

  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(num_rows) + 1, 0);
  for (const Edge& e : edges) {
    CGRAPH_CHECK_MSG(ax.src(e) < num_rows && ax.dst(e) < num_cols,
                     "edge endpoint out of vertex range");
    ++offsets[ax.src(e) + 1];
  }
  for (std::size_t v = 0; v < num_rows; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId> targets(edges.size());

  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    const EdgeIndex pos = cursor[ax.src(e)]++;
    targets[pos] = ax.dst(e);
  }

  // Sort each row so neighbors() is ordered and has_edge() can bisect.
  for (VertexId v = 0; v < num_rows; ++v) {
    const auto b = static_cast<std::ptrdiff_t>(offsets[v]);
    const auto e = static_cast<std::ptrdiff_t>(offsets[v + 1]);
    std::sort(targets.begin() + b, targets.begin() + e);
  }

  Csr csr;
  csr.offsets_ = std::move(offsets);
  csr.targets_ = std::move(targets);
  return csr;
}

Csr Csr::from_edges(VertexId num_vertices, std::span<const Edge> edges) {
  return build(num_vertices, num_vertices, edges, /*reversed=*/false);
}

Csr Csr::from_edges_reversed(VertexId num_vertices,
                             std::span<const Edge> edges) {
  return build(num_vertices, num_vertices, edges, /*reversed=*/true);
}

Csr Csr::from_edges_rect(VertexId num_rows, VertexId num_cols,
                         std::span<const Edge> edges) {
  return build(num_rows, num_cols, edges, /*reversed=*/false);
}

bool Csr::has_edge(VertexId v, VertexId t) const {
  const auto nbrs = neighbors(v);
  return std::binary_search(nbrs.begin(), nbrs.end(), t);
}

}  // namespace cgraph
