#include "query/paths.hpp"

#include <algorithm>
#include <mutex>

#include "query/level_state.hpp"
#include "util/assert.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kVisitTag = 0x50564954;  // 'PVIT'

/// VisitTask extended with the discovering parent.
struct ParentTask {
  VertexId target;
  VertexId parent;
  QueryId query;
  Depth depth;
};

/// One (vertex, parent) discovery, in checkpointable form.
struct Discovery {
  VertexId vertex;
  VertexId parent;
};

/// One machine of run_distributed_khop_paths: the shared queue engine over
/// ParentTask records, keeping the parent of every vertex this machine
/// discovered (its owner — so the per-machine lists are disjoint).
struct PathsMachine : QueueMachine<PathsMachine, ParentTask> {
  static constexpr std::uint32_t kTag = kVisitTag;

  PathsMachine(LevelRun& r, MachineContext& c, std::span<const KHopQuery> b,
               const RangePartition& p, KhopPathsResult& out,
               std::mutex& out_mu)
      : QueueMachine(r, c, b, p),
        paths(out),
        paths_mu(out_mu),
        parents(b.size()) {}

  KhopPathsResult& paths;
  std::mutex& paths_mu;
  std::vector<std::vector<Discovery>> parents;

  static ParentTask make_task(VertexId target, VertexId parent,
                              QueryId query, Depth depth) {
    return {target, parent, query, depth};
  }
  void record(const ParentTask& task) {
    parents[task.query].push_back({task.target, task.parent});
  }

  template <typename Ar>
  void transfer(Ar& ar) {
    QueueMachine::transfer(ar);
    for (auto& list : parents) ar.vec(list);
  }

  void finish() {
    QueueMachine::finish();
    std::lock_guard<std::mutex> lock(paths_mu);
    for (std::size_t q = 0; q < parents.size(); ++q) {
      for (const Discovery& d : parents[q]) {
        paths.parents[q].emplace_back(d.vertex, d.parent);
      }
    }
  }
};

}  // namespace

KhopPathsResult run_distributed_khop_paths(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch) {
  KhopPathsResult result;
  result.parents.resize(batch.size());
  std::mutex parents_mu;
  LevelRun run(cluster, shards, batch.size(), kEpochHead, result.base);
  run.run([&](MachineContext& mc) {
    return PathsMachine(run, mc, batch, partition, result, parents_mu);
  });
  run.finish([](std::size_t) { return 1; });
  return result;
}

std::vector<VertexId> reconstruct_path(const ParentList& parents,
                                       VertexId source, VertexId target) {
  if (source == target) return {source};
  std::unordered_map<VertexId, VertexId> parent_of;
  parent_of.reserve(parents.size());
  for (const auto& [v, p] : parents) parent_of.emplace(v, p);

  std::vector<VertexId> path{target};
  VertexId cur = target;
  while (cur != source) {
    const auto it = parent_of.find(cur);
    if (it == parent_of.end()) return {};  // unreachable
    cur = it->second;
    path.push_back(cur);
    CGRAPH_CHECK_MSG(path.size() <= parents.size() + 2,
                     "cycle in parent list");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cgraph
