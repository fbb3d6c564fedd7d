// C-Graph public umbrella header.
//
// Typical usage (see examples/quickstart.cpp):
//
//   Graph g = Graph::build(std::move(edges));
//   auto part = RangePartition::balanced_by_edges(g, 4);
//   auto shards = build_shards(g, part);
//   Cluster cluster(4);
//   auto queries = make_random_queries(g, 100, /*k=*/3);
//   auto run = run_concurrent_queries(cluster, shards, part, queries);
#pragma once

#include "baseline/geminilike.hpp"
#include "baseline/kvstore.hpp"
#include "baseline/titanlike.hpp"
#include "engine/gas.hpp"
#include "engine/pagerank.hpp"
#include "gen/arrivals.hpp"
#include "gen/datasets.hpp"
#include "gen/mutation_trace.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "graph/degree_stats.hpp"
#include "graph/delta.hpp"
#include "graph/edge_list.hpp"
#include "graph/edge_set.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/mutation.hpp"
#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "graph/types.hpp"
#include "index/backbone.hpp"
#include "index/grail.hpp"
#include "index/reach_index.hpp"
#include "index/scc.hpp"
#include "metrics/reporter.hpp"
#include "metrics/response.hpp"
#include "net/cluster.hpp"
#include "net/cost_model.hpp"
#include "net/fabric.hpp"
#include "net/serialize.hpp"
#include "obs/event_tracer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "query/async_khop.hpp"
#include "query/bfs.hpp"
#include "query/distributed_khop.hpp"
#include "query/frontier.hpp"
#include "query/msbfs.hpp"
#include "query/paths.hpp"
#include "query/query.hpp"
#include "query/replica_router.hpp"
#include "query/scheduler.hpp"
#include "query/service.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
