#include "query/distributed_khop.hpp"

#include "query/level_state.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kVisitTag = 0x56495354;  // 'VIST'

/// Wire record: "visit vertex `target` for query `query` at depth `depth`"
/// — the sendTo(t, t.hops) of paper Listing 2.
struct VisitTask {
  VertexId target;
  QueryId query;
  Depth depth;
};

/// One machine of run_distributed_khop: the shared queue engine over
/// VisitTask records.
struct KhopMachine : QueueMachine<KhopMachine, VisitTask> {
  static constexpr std::uint32_t kTag = kVisitTag;
  using QueueMachine::QueueMachine;

  static VisitTask make_task(VertexId target, VertexId /*parent*/,
                             QueryId query, Depth depth) {
    return {target, query, depth};
  }
  void record(const VisitTask& /*task*/) {}
};

}  // namespace

MsBfsBatchResult run_distributed_khop(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch,
    Epoch snapshot_epoch) {
  MsBfsBatchResult result;
  LevelRun run(cluster, shards, batch.size(), snapshot_epoch, result);
  run.run([&](MachineContext& mc) {
    return KhopMachine(run, mc, batch, partition);
  });
  run.finish([](std::size_t) { return 1; });
  return result;
}

}  // namespace cgraph
