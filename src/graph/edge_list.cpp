#include "graph/edge_list.hpp"

#include <algorithm>

namespace cgraph {

VertexId EdgeList::max_vertex_plus_one() const {
  VertexId m = 0;
  for (const Edge& e : edges_) {
    m = std::max({m, static_cast<VertexId>(e.src + 1),
                  static_cast<VertexId>(e.dst + 1)});
  }
  return m;
}

void EdgeList::sort_and_dedup() {
  std::sort(edges_.begin(), edges_.end(), EdgeLess{});
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

void EdgeList::remove_self_loops() {
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [](const Edge& e) { return e.src == e.dst; }),
               edges_.end());
}

void EdgeList::add_reverse_edges() {
  const std::size_t n = edges_.size();
  edges_.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const Edge& e = edges_[i];
    if (e.src != e.dst) edges_.push_back({e.dst, e.src});
  }
}

}  // namespace cgraph
