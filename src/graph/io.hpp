// Graph ingestion and persistence.
//
// Text format: one edge per line, "src dst", '#' comments allowed (SNAP
// edge-list compatible; columns after "src dst", such as a weight, are
// ignored). Binary format: the magic "CGRAPH02", u64 vertex count, u64
// edge count, then a packed array of 8-byte (src, dst) Edge records — the
// fast path for benchmark re-runs. Files with the older "CGRAPH01" magic
// (12-byte weighted records) are rejected.
//
// Loading re-indexes vertex ids densely in order of first appearance
// (paper §3.1: "vertex ID ... is re-indexed during graph ingestion").
#pragma once

#include <string>
#include <unordered_map>

#include "graph/edge_list.hpp"

namespace cgraph {

struct LoadResult {
  EdgeList edges;
  VertexId num_vertices = 0;
  /// original id -> dense id mapping produced by re-indexing (empty when
  /// reindex was disabled).
  std::unordered_map<std::uint64_t, VertexId> id_map;
};

/// Parse a text edge list. Throws std::runtime_error on unreadable input.
LoadResult load_edge_list_text(const std::string& path, bool reindex = true);

/// Parse edges from an in-memory string (testing convenience).
LoadResult parse_edge_list(const std::string& text, bool reindex = true);

/// Save as SNAP-style text ("src dst" lines).
void save_edge_list_text(const std::string& path, const EdgeList& edges);

/// Save/load the compact binary format. Binary files round-trip exactly.
void save_edge_list_binary(const std::string& path, const EdgeList& edges,
                           VertexId num_vertices);
LoadResult load_edge_list_binary(const std::string& path);

}  // namespace cgraph
