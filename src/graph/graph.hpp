// Immutable in-memory graph: multi-modal representation holding out-edges
// in CSR and in-edges in CSC (paper §3.2), plus degree arrays.
//
// A Graph is the global, un-partitioned view. Distributed execution slices
// it into SubgraphShard objects (see graph/shard.hpp).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace cgraph {

struct GraphBuildOptions {
  bool build_in_edges = true;    // also build the CSC (needed by GAS apps)
  bool symmetrize = false;       // treat input as undirected
  bool remove_self_loops = true;
};

class Graph {
 public:
  Graph() = default;

  using BuildOptions = GraphBuildOptions;

  /// Build from an edge list. The list is consumed (sorted/deduped inside).
  static Graph build(EdgeList edges, const BuildOptions& opts = {});
  static Graph build(EdgeList edges, VertexId num_vertices,
                     const BuildOptions& opts = {});

  [[nodiscard]] VertexId num_vertices() const { return num_vertices_; }
  [[nodiscard]] EdgeIndex num_edges() const { return out_.num_edges(); }
  [[nodiscard]] bool has_in_edges() const { return in_.num_vertices() > 0; }

  [[nodiscard]] const Csr& out_csr() const { return out_; }
  [[nodiscard]] const Csr& in_csr() const { return in_; }

  [[nodiscard]] std::span<const VertexId> out_neighbors(VertexId v) const {
    return out_.neighbors(v);
  }
  [[nodiscard]] std::span<const VertexId> in_neighbors(VertexId v) const {
    return in_.neighbors(v);
  }
  [[nodiscard]] EdgeIndex out_degree(VertexId v) const {
    return out_.degree(v);
  }
  [[nodiscard]] EdgeIndex in_degree(VertexId v) const { return in_.degree(v); }

  /// Mean out-degree across all vertices.
  [[nodiscard]] double average_degree() const {
    return num_vertices_ == 0 ? 0.0
                              : static_cast<double>(num_edges()) /
                                    static_cast<double>(num_vertices_);
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return out_.memory_bytes() + in_.memory_bytes();
  }

  /// Human-readable one-line summary ("V=3.07M E=117.19M avg_deg=38.1").
  [[nodiscard]] std::string summary() const;

 private:
  VertexId num_vertices_ = 0;
  Csr out_;
  Csr in_;
};

}  // namespace cgraph
