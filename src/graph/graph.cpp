#include "graph/graph.hpp"

#include <cstdio>

#include "util/table.hpp"

namespace cgraph {

Graph Graph::build(EdgeList edges, const BuildOptions& opts) {
  const VertexId n = edges.max_vertex_plus_one();
  return build(std::move(edges), n, opts);
}

Graph Graph::build(EdgeList edges, VertexId num_vertices,
                   const BuildOptions& opts) {
  if (opts.remove_self_loops) edges.remove_self_loops();
  if (opts.symmetrize) edges.add_reverse_edges();
  edges.sort_and_dedup();

  Graph g;
  g.num_vertices_ = num_vertices;
  g.out_ = Csr::from_edges(num_vertices, edges.edges());
  if (opts.build_in_edges) {
    g.in_ = Csr::from_edges_reversed(num_vertices, edges.edges());
  }
  return g;
}

std::string Graph::summary() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "V=%s E=%s avg_deg=%.1f",
                AsciiTable::humanize(num_vertices_).c_str(),
                AsciiTable::humanize(num_edges()).c_str(), average_degree());
  return buf;
}

}  // namespace cgraph
