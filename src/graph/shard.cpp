#include "graph/shard.hpp"

#include <algorithm>

namespace cgraph {

SubgraphShard SubgraphShard::build(const Graph& graph,
                                   const RangePartition& partition,
                                   PartitionId pid, const Options& opts) {
  SubgraphShard shard;
  shard.id_ = pid;
  shard.local_range_ = partition.range(pid);
  shard.num_global_vertices_ = graph.num_vertices();
  shard.edge_set_opts_ = opts.edge_set;
  shard.built_in_edges_ = opts.build_in_edges && graph.has_in_edges();
  shard.built_in_sets_ = shard.built_in_edges_ && opts.build_in_edge_sets;
  const VertexRange range = shard.local_range_;
  shard.delta_out_.reset(range);
  shard.delta_in_.reset(range);

  // Collect out-edges of local vertices from the global CSR.
  std::vector<Edge> out_edges;
  EdgeIndex count = 0;
  for (VertexId v = range.begin; v < range.end; ++v)
    count += graph.out_degree(v);
  out_edges.reserve(count);
  shard.out_degree_.resize(range.size());
  for (VertexId v = range.begin; v < range.end; ++v) {
    const auto nbrs = graph.out_neighbors(v);
    shard.out_degree_[v - range.begin] = nbrs.size();
    for (VertexId t : nbrs) out_edges.push_back({v, t});
  }

  shard.out_sets_ = EdgeSetGrid::build(range, graph.num_vertices(),
                                       out_edges, opts.edge_set);

  // Boundary vertices: remote destinations, deduped.
  std::vector<VertexId> boundary;
  for (const Edge& e : out_edges) {
    if (!range.contains(e.dst)) boundary.push_back(e.dst);
  }
  std::sort(boundary.begin(), boundary.end());
  boundary.erase(std::unique(boundary.begin(), boundary.end()),
                 boundary.end());
  shard.boundary_out_ = std::move(boundary);

  // In-edges (CSC) for local vertices: row = local index, targets = global
  // parent ids. Built by re-mapping destination into local index space.
  if (opts.build_in_edges && graph.has_in_edges()) {
    std::vector<Edge> in_edges;
    EdgeIndex in_count = 0;
    for (VertexId v = range.begin; v < range.end; ++v)
      in_count += graph.in_degree(v);
    in_edges.reserve(in_count);
    for (VertexId v = range.begin; v < range.end; ++v) {
      for (VertexId p : graph.in_neighbors(v)) {
        // src = local index of v, dst = global parent id.
        in_edges.push_back({v - range.begin, p});
      }
    }
    shard.in_csr_ = Csr::from_edges_rect(range.size(), graph.num_vertices(),
                                         in_edges);

    if (opts.build_in_edge_sets) {
      // Grid rows use global local-vertex ids (like out_sets_), so remap
      // the CSC rows back to global ids and build over (local, parent).
      std::vector<Edge> in_global;
      in_global.reserve(in_edges.size());
      for (const Edge& e : in_edges) {
        in_global.push_back({e.src + range.begin, e.dst});
      }
      shard.in_sets_ = EdgeSetGrid::build(range, graph.num_vertices(),
                                          in_global, opts.edge_set);
    }
  }
  return shard;
}

std::size_t SubgraphShard::memory_bytes() const {
  return out_sets_.memory_bytes() + in_csr_.memory_bytes() +
         in_sets_.memory_bytes() +
         boundary_out_.size() * sizeof(VertexId) +
         out_degree_.size() * sizeof(EdgeIndex) +
         delta_out_.memory_bytes() + delta_in_.memory_bytes();
}

void SubgraphShard::apply_mutation(const MutationOp& op, Epoch epoch) {
  CGRAPH_CHECK_MSG(epoch >= epoch_, "mutation epochs must be nondecreasing");
  CGRAPH_CHECK(op.src < num_global_vertices_ && op.dst < num_global_vertices_);
  epoch_ = epoch;
  const bool insert = op.kind == MutationKind::kInsertEdge;
  if (local_range_.contains(op.src)) {
    bool in_base = false;
    if (out_sets_.num_rows() > 0)
      for (const EdgeSet& es : out_sets_.row_sets(out_sets_.row_of(op.src))) {
      const auto nbrs = es.neighbors(op.src);
      if (std::binary_search(nbrs.begin(), nbrs.end(), op.dst)) {
        in_base = true;
        break;
      }
    }
    delta_out_.add_event(op.src, op.dst, epoch, insert, in_base);
  }
  if (local_range_.contains(op.dst) && built_in_edges_) {
    const auto parents = in_csr_.neighbors(local_index(op.dst));
    const bool in_base =
        std::binary_search(parents.begin(), parents.end(), op.src);
    delta_in_.add_event(op.dst, op.src, epoch, insert, in_base);
  }
}

void SubgraphShard::advance_epoch(Epoch epoch) {
  CGRAPH_CHECK_MSG(epoch >= epoch_, "mutation epochs must be nondecreasing");
  epoch_ = epoch;
}

void SubgraphShard::compact() {
  if (!has_mutations()) return;
  const VertexRange range = local_range_;

  // Rebuild the out side: base edges minus tombstones, plus delta extras.
  std::vector<Edge> out_edges;
  out_edges.reserve(static_cast<std::size_t>(out_sets_.num_edges()) +
                    delta_out_.num_events());
  std::vector<EdgeIndex> degrees(range.size(), 0);
  for (VertexId v = range.begin; v < range.end; ++v) {
    const std::size_t before = out_edges.size();
    const bool deletes = delta_out_.has_deletes(v);
    out_sets_.for_each_neighbor(v, [&](VertexId t) {
      if (deletes && delta_out_.edge_deleted(v, t, epoch_)) return;
      out_edges.push_back({v, t});
    });
    delta_out_.for_each_extra(
        v, epoch_, [&](VertexId t) { out_edges.push_back({v, t}); });
    degrees[v - range.begin] =
        static_cast<EdgeIndex>(out_edges.size() - before);
  }
  out_sets_ = EdgeSetGrid::build(range, num_global_vertices_, out_edges,
                                 edge_set_opts_);
  out_degree_ = std::move(degrees);

  std::vector<VertexId> boundary;
  for (const Edge& e : out_edges) {
    if (!range.contains(e.dst)) boundary.push_back(e.dst);
  }
  std::sort(boundary.begin(), boundary.end());
  boundary.erase(std::unique(boundary.begin(), boundary.end()),
                 boundary.end());
  boundary_out_ = std::move(boundary);

  // Rebuild the in side the same way from the CSC rows + in-deltas.
  if (built_in_edges_) {
    std::vector<Edge> in_edges;
    for (VertexId v = range.begin; v < range.end; ++v) {
      for_each_in_parent_at(v, epoch_, [&](VertexId p) {
        in_edges.push_back({v - range.begin, p});
      });
    }
    in_csr_ = Csr::from_edges_rect(range.size(), num_global_vertices_,
                                   in_edges);
    if (built_in_sets_) {
      std::vector<Edge> in_global;
      in_global.reserve(in_edges.size());
      for (const Edge& e : in_edges) {
        in_global.push_back({e.src + range.begin, e.dst});
      }
      in_sets_ = EdgeSetGrid::build(range, num_global_vertices_, in_global,
                                    edge_set_opts_);
    }
  }

  delta_out_.clear();
  delta_in_.clear();
}

std::uint64_t SubgraphShard::mutation_fingerprint(Epoch at) const {
  // Mirrors the SplitMix64 combine used by the delta/index fingerprints.
  std::uint64_t h = 0x5bd1e9955bd1e995ULL ^ (at * 0x9e3779b97f4a7c15ULL);
  h ^= delta_out_.fingerprint(at) * 0xff51afd7ed558ccdULL;
  h ^= delta_in_.fingerprint(at) * 0xc4ceb9fe1a85ec53ULL;
  h ^= static_cast<std::uint64_t>(id_) + (h << 7);
  return h;
}

void apply_mutations(std::span<SubgraphShard> shards,
                     std::span<const MutationOp> ops, Epoch epoch) {
  for (SubgraphShard& shard : shards) {
    for (const MutationOp& op : ops) {
      if (shard.local_range().contains(op.src) ||
          shard.local_range().contains(op.dst)) {
        shard.apply_mutation(op, epoch);
      }
    }
    shard.advance_epoch(epoch);
  }
}

Epoch current_epoch(std::span<const SubgraphShard> shards) {
  Epoch e = 0;
  for (const SubgraphShard& shard : shards) e = std::max(e, shard.epoch());
  return e;
}

std::uint64_t mutation_fingerprint(std::span<const SubgraphShard> shards,
                                   Epoch at) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const SubgraphShard& shard : shards) {
    const std::uint64_t f = shard.mutation_fingerprint(at);
    h = (h ^ f) * 0x100000001b3ULL + at;
  }
  return h;
}

std::vector<SubgraphShard> build_shards(const Graph& graph,
                                        const RangePartition& partition,
                                        const SubgraphShard::Options& opts) {
  std::vector<SubgraphShard> shards;
  shards.reserve(partition.num_partitions());
  for (PartitionId p = 0; p < partition.num_partitions(); ++p) {
    shards.push_back(SubgraphShard::build(graph, partition, p, opts));
  }
  return shards;
}

}  // namespace cgraph
