// Tests for the event-tracing subsystem (DESIGN.md §11): ring-buffer
// drop-oldest semantics, batch-context re-basing, exporter determinism
// across compute-thread counts, Chrome track naming, and the flight
// recorder's anomaly dumps.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "gen/arrivals.hpp"
#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "net/fault.hpp"
#include "obs/event_tracer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "query/scheduler.hpp"
#include "query/service.hpp"

namespace cgraph {
namespace {

obs::TraceEvent instant_at(double sim, std::int64_t query = -1) {
  obs::TraceEvent ev;
  ev.phase = obs::TraceEventPhase::kQueryComplete;
  ev.kind = obs::TraceEventKind::kInstant;
  ev.machine = obs::TraceEvent::kExecutorTrack;
  ev.query = query;
  ev.sim_seconds = sim;
  return ev;
}

TEST(EventTracer, DisabledByDefault) {
  EXPECT_EQ(obs::EventTracer::current(), nullptr);
  EXPECT_FALSE(obs::tracing_enabled());
  obs::trace(instant_at(1.0));  // must be a no-op, not a crash
}

TEST(EventTracer, ScopeInstallsAndRestores) {
  obs::EventTracer outer;
  {
    obs::EventTracer::Scope outer_scope(outer);
    EXPECT_EQ(obs::EventTracer::current(), &outer);
    obs::EventTracer inner;
    {
      obs::EventTracer::Scope inner_scope(inner);
      EXPECT_EQ(obs::EventTracer::current(), &inner);
    }
    EXPECT_EQ(obs::EventTracer::current(), &outer);
  }
  EXPECT_EQ(obs::EventTracer::current(), nullptr);
}

TEST(EventTracer, RingDropsOldestWhenFull) {
  obs::EventTracer::Options opts;
  opts.ring_capacity = 8;
  obs::EventTracer tracer(opts);
  obs::EventTracer::Scope scope(tracer);
  for (int i = 0; i < 20; ++i) {
    obs::trace(instant_at(static_cast<double>(i)));
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Drop-oldest: the retained window is the 8 most recent events.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].sim_seconds, static_cast<double>(12 + i));
  }
}

TEST(EventTracer, PerThreadRingsMergeInContentOrder) {
  obs::EventTracer tracer;
  obs::EventTracer::Scope scope(tracer);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::trace(instant_at(t + i * 0.001, /*query=*/t));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.recorded(), kThreads * std::uint64_t{kPerThread});
  EXPECT_EQ(tracer.dropped(), 0u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), kThreads * std::size_t{kPerThread});
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].sim_seconds, events[i].sim_seconds);
  }
}

TEST(EventTracer, BatchContextRebasesMachineEventsOnly) {
  obs::EventTracer tracer;
  obs::EventTracer::Scope scope(tracer);
  tracer.set_batch_context(/*batch=*/7, /*sim_offset_seconds=*/10.0);

  obs::TraceEvent engine_ev;
  engine_ev.phase = obs::TraceEventPhase::kSuperstepScan;
  engine_ev.kind = obs::TraceEventKind::kSpan;
  engine_ev.machine = 2;
  engine_ev.sim_seconds = 1.5;
  obs::trace(engine_ev);

  obs::TraceEvent service_ev = instant_at(1.5, /*query=*/3);
  obs::trace(service_ev);  // machine < 0: already on the absolute axis

  tracer.clear_batch_context();
  obs::TraceEvent after_ev;
  after_ev.phase = obs::TraceEventPhase::kSuperstepScan;
  after_ev.machine = 2;
  after_ev.sim_seconds = 1.5;
  obs::trace(after_ev);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Content order: the two un-shifted events at 1.5s first.
  EXPECT_DOUBLE_EQ(events[0].sim_seconds, 1.5);
  EXPECT_DOUBLE_EQ(events[1].sim_seconds, 1.5);
  EXPECT_DOUBLE_EQ(events[2].sim_seconds, 11.5);
  EXPECT_EQ(events[2].batch, 7);
  EXPECT_EQ(events[2].machine, 2);
  for (const auto& ev : events) {
    if (ev.machine < 0) {
      EXPECT_EQ(ev.batch, -1);
    }
  }
}

// Satellite: TraceSpan moves transfer ownership of the recording and
// finish() is idempotent — no double-counted spans from factory helpers.
TEST(TraceSpan, MoveTransfersRecordingAndFinishIsIdempotent) {
  obs::MetricsRegistry reg;
  {
    obs::TraceSpan a("moved_span", &reg);
    obs::TraceSpan b(std::move(a));  // a must not record on destruction
    b.finish();
    b.finish();  // idempotent: second finish is a no-op
  }
  EXPECT_EQ(reg.histogram("cgraph_span_seconds", "",
                          {{"span", "moved_span"}})
                .count(),
            1u);

  {
    obs::TraceSpan c("assigned_from", &reg);
    obs::TraceSpan d("assigned_to", &reg);
    d = std::move(c);  // closes d's own span, then adopts c's
  }
  EXPECT_EQ(reg.histogram("cgraph_span_seconds", "",
                          {{"span", "assigned_to"}})
                .count(),
            1u);
  EXPECT_EQ(reg.histogram("cgraph_span_seconds", "",
                          {{"span", "assigned_from"}})
                .count(),
            1u);
}

TEST(TraceExport, ChromeTraceNamesEveryTrack) {
  obs::EventTracer tracer;
  obs::EventTracer::Scope scope(tracer);
  obs::TraceEvent admission = instant_at(0.5);
  admission.machine = obs::TraceEvent::kAdmissionTrack;
  admission.phase = obs::TraceEventPhase::kQueryShed;
  obs::trace(admission);
  obs::trace(instant_at(1.0, /*query=*/1));  // executor track
  obs::TraceEvent scan;
  scan.phase = obs::TraceEventPhase::kSuperstepScan;
  scan.kind = obs::TraceEventKind::kSpan;
  scan.machine = 3;
  scan.level = 2;
  scan.sim_seconds = 0.25;
  scan.sim_dur_seconds = 0.125;
  obs::trace(scan);

  const std::string json = obs::to_chrome_trace_json(tracer.snapshot());
  EXPECT_NE(json.find("\"service admission\""), std::string::npos);
  EXPECT_NE(json.find("\"service executor\""), std::string::npos);
  EXPECT_NE(json.find("\"machine 3\""), std::string::npos);
  EXPECT_NE(json.find("\"superstep_scan\""), std::string::npos);
  EXPECT_NE(json.find("\"query_shed\""), std::string::npos);
  // Spans are complete ("X") events with microsecond timestamps.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceExport, JsonlHasHeaderAndOneObjectPerLine) {
  obs::EventTracer tracer;
  obs::EventTracer::Scope scope(tracer);
  obs::trace(instant_at(1.0, /*query=*/1));
  obs::trace(instant_at(2.0, /*query=*/2));
  obs::TraceExportOptions opts;
  opts.recorded = tracer.recorded();
  opts.dropped = tracer.dropped();
  const std::string jsonl = obs::to_jsonl(tracer.snapshot(), opts);
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_NE(jsonl.find("\"recorded\":2"), std::string::npos);
}

/// Serve a fixed open-loop workload under a tracer with a given
/// compute-thread count; returns the deterministic (wall-free) export.
std::string traced_service_export(std::size_t threads) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.seed = 5;
  Graph g = Graph::build(generate_rmat(params), VertexId{1} << 9);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);
  cluster.set_compute_threads(threads);

  PoissonArrivalParams ap;
  ap.rate_qps = 800;
  ap.count = 60;
  ap.k = 2;
  ap.seed = 11;
  const auto arrivals = make_poisson_arrivals(g, ap);
  ServiceOptions service;
  service.scheduler.batch_width = 16;
  service.queue_cap = 24;
  service.deadline_seconds = 0.05;
  obs::MetricsRegistry reg;
  service.scheduler.metrics = &reg;

  obs::EventTracer tracer;
  obs::EventTracer::Scope scope(tracer);
  run_query_service(cluster, shards, part, arrivals, service);

  obs::TraceExportOptions opts;
  opts.include_wall = false;  // sim-only content => thread-count invariant
  return obs::to_chrome_trace_json(tracer.snapshot(), opts);
}

TEST(TraceExport, SimContentIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = traced_service_export(1);
  const std::string threaded = traced_service_export(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // The run actually produced engine + service events.
  EXPECT_NE(serial.find("superstep_scan"), std::string::npos);
  EXPECT_NE(serial.find("batch_execute"), std::string::npos);
}

TEST(FlightRecorder, DumpsShedExpiredAndReexecutedQueries) {
  obs::EventTracer tracer;
  obs::EventTracer::Scope scope(tracer);

  // Query 1: sealed into batch 0, completed normally.
  obs::TraceEvent seal;
  seal.phase = obs::TraceEventPhase::kBatchSeal;
  seal.machine = obs::TraceEvent::kAdmissionTrack;
  seal.batch = 0;
  seal.sim_seconds = 0.1;
  obs::trace(seal);
  obs::TraceEvent q1 = instant_at(0.5, /*query=*/1);
  q1.batch = 0;
  obs::trace(q1);
  // Batch 0 did engine work the anomaly dumps must carry.
  obs::TraceEvent scan;
  scan.phase = obs::TraceEventPhase::kSuperstepScan;
  scan.kind = obs::TraceEventKind::kSpan;
  scan.machine = 0;
  scan.level = 0;
  scan.batch = 0;
  scan.sim_seconds = 0.2;
  obs::trace(scan);

  // Query 2: shed at admission. Query 3: expired in batch 0.
  obs::TraceEvent shed;
  shed.phase = obs::TraceEventPhase::kQueryShed;
  shed.machine = obs::TraceEvent::kAdmissionTrack;
  shed.query = 2;
  shed.sim_seconds = 0.3;
  obs::trace(shed);
  obs::TraceEvent expired;
  expired.phase = obs::TraceEventPhase::kQueryExpired;
  expired.machine = obs::TraceEvent::kExecutorTrack;
  expired.query = 3;
  expired.batch = 0;
  expired.sim_seconds = 0.4;
  obs::trace(expired);
  // Query 4: re-executed after a crash.
  obs::TraceEvent reexec;
  reexec.phase = obs::TraceEventPhase::kQueryReexecuted;
  reexec.machine = obs::TraceEvent::kExecutorTrack;
  reexec.query = 4;
  reexec.batch = 0;
  reexec.sim_seconds = 0.45;
  obs::trace(reexec);

  obs::FlightRecorderOptions opts;
  opts.fault_seed = 42;
  opts.config = "unit test \"quoted\"";
  obs::FlightRecorder recorder(opts);
  recorder.ingest(tracer);

  ASSERT_EQ(recorder.anomalies().size(), 3u);
  EXPECT_FALSE(recorder.recent().empty());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "cgraph_flight_test")
          .string();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(recorder.write_dumps(dir), 3u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/flight_q2_shed.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/flight_q3_expired.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/flight_q4_reexecuted.json"));

  std::ifstream in(dir + "/flight_q3_expired.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  EXPECT_NE(dump.find("\"fault_seed\":42"), std::string::npos);
  // The expired query's dump carries its batch's engine events too.
  EXPECT_NE(dump.find("superstep_scan"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, ChaosServiceRunDumpsEveryAnomaly) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.seed = 3;
  Graph g = Graph::build(generate_rmat(params), VertexId{1} << 9);
  const auto part = RangePartition::balanced_by_edges(g, 3);
  const auto shards = build_shards(g, part);
  Cluster cluster(3);
  auto plan = std::make_shared<FaultPlan>(/*seed=*/21);
  plan->set_crash_probability(0.05);
  cluster.fabric().install_fault_plan(plan);
  cluster.set_recovery(RecoveryOptions{});

  PoissonArrivalParams ap;
  ap.rate_qps = 3000;
  ap.count = 120;
  ap.k = 2;
  ap.seed = 13;
  const auto arrivals = make_poisson_arrivals(g, ap);
  ServiceOptions service;
  service.scheduler.batch_width = 16;
  service.queue_cap = 10;  // force sheds
  service.deadline_seconds = 0.002;  // force expiries
  obs::MetricsRegistry reg;
  service.scheduler.metrics = &reg;

  obs::EventTracer tracer;
  ServiceRunResult run;
  {
    obs::EventTracer::Scope scope(tracer);
    run = run_query_service(cluster, shards, part, arrivals, service);
  }

  obs::FlightRecorderOptions fr_opts;
  fr_opts.fault_seed = 21;
  fr_opts.max_dumps = 4096;
  obs::FlightRecorder recorder(fr_opts);
  recorder.ingest(tracer);

  std::size_t anomalous_queries = 0;
  for (const auto& r : run.queries) {
    if (r.outcome != ServiceOutcome::kCompleted) ++anomalous_queries;
  }
  ASSERT_GT(anomalous_queries, 0u) << "chaos config produced no anomalies";
  // Every shed/expired query has a flight record (re-executions add more).
  EXPECT_GE(recorder.anomalies().size(), anomalous_queries);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "cgraph_flight_chaos")
          .string();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(recorder.write_dumps(dir), recorder.anomalies().size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cgraph
