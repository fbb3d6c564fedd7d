// Path recording for k-hop queries.
//
// The paper notes "every query returns with found paths, the memory usage
// increases linearly with the query count" (§4.2, Fig. 12). This module
// provides the found-path side of that statement: a traversal variant that
// records, per query, the BFS parent of every visited vertex, and a
// reconstruction helper that walks a parent map back to the source.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "query/msbfs.hpp"
#include "query/query.hpp"

namespace cgraph {

/// (vertex, parent) discovery records for one query; the source has no
/// entry. Parents form a BFS tree, so the path they induce is a shortest
/// (minimum-hop) path.
using ParentList = std::vector<std::pair<VertexId, VertexId>>;

struct KhopPathsResult {
  MsBfsBatchResult base;
  /// Per query (batch order): the discovery parent of every visited
  /// vertex. Total size across queries is the paper's linearly-growing
  /// result footprint.
  std::vector<ParentList> parents;

  [[nodiscard]] std::size_t result_bytes() const {
    std::size_t bytes = 0;
    for (const ParentList& p : parents) {
      bytes += p.size() * sizeof(ParentList::value_type);
    }
    return bytes;
  }
};

/// Queue-based distributed k-hop that also records parents. Reads the
/// shards' snapshot at entry (base edges plus uncompacted delta events),
/// as run_distributed_khop does with its default kEpochHead.
KhopPathsResult run_distributed_khop_paths(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch);

/// Reconstruct the hop path source -> ... -> target from a parent list.
/// Returns an empty vector if target was not reached.
std::vector<VertexId> reconstruct_path(const ParentList& parents,
                                       VertexId source, VertexId target);

}  // namespace cgraph
