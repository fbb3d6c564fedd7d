// Mutable edge-list container: the ingestion format every generator and
// loader produces, and the input to GraphBuilder.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/edge.hpp"
#include "graph/types.hpp"

namespace cgraph {

class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(std::vector<Edge> edges) : edges_(std::move(edges)) {}

  void reserve(std::size_t n) { edges_.reserve(n); }
  void add(VertexId src, VertexId dst) { edges_.push_back({src, dst}); }
  void add(const Edge& e) { edges_.push_back(e); }

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }

  [[nodiscard]] const Edge& operator[](std::size_t i) const {
    return edges_[i];
  }
  Edge& operator[](std::size_t i) { return edges_[i]; }

  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& edges() { return edges_; }

  [[nodiscard]] auto begin() const { return edges_.begin(); }
  [[nodiscard]] auto end() const { return edges_.end(); }

  /// Largest vertex id referenced plus one (0 for an empty list).
  [[nodiscard]] VertexId max_vertex_plus_one() const;

  /// Sort by (src, dst) and drop duplicate (src, dst) pairs.
  void sort_and_dedup();

  /// Remove self-loop edges (src == dst).
  void remove_self_loops();

  /// Append the reverse of every edge, making the graph symmetric.
  /// Call sort_and_dedup() afterwards to drop duplicates.
  void add_reverse_edges();

 private:
  std::vector<Edge> edges_;
};

}  // namespace cgraph
