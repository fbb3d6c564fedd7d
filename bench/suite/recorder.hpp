// Bench-side instrumentation for the wall-clock suite: spans around the
// public calls the runner makes, the per-run result record, and the
// traced-run analysis (layer self times, span coverage, Chrome trace).
//
// Spans are recorded only in a traced run and only from the runner's
// own thread: each one brackets a call into a library layer, so the layer
// self times come from outside the program. In-engine phases come from the
// library's existing obs::EventTracer, whose wall stamps use the same
// steady clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/event_tracer.hpp"

namespace cgraph::suite {

/// Host steady clock in nanoseconds (the clock obs::EventTracer stamps).
std::uint64_t now_ns();

inline double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct SpanRecord {
  std::string name;  // "<layer>.<call>", e.g. "exec.batch"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 = root
  std::int64_t id = -1;      // batch, epoch or query id the span serves
};

/// In-memory span log for the runner thread. Disabled recorders make
/// begin()/end() no-ops, so untraced blocks pay one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Toggle recording between spans (never while one is open).
  void set_enabled(bool on) { enabled_ = on; }
  std::int64_t begin(const char* name, std::int64_t id = -1);
  void end(std::int64_t handle);
  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> records_;
  std::vector<std::int64_t> open_;
};

/// RAII span: opened at construction, closed at end() or destruction.
class Span {
 public:
  Span(SpanRecorder& rec, const char* name, std::int64_t id = -1)
      : rec_(rec), handle_(rec.begin(name, id)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }
  void end() {
    if (handle_ >= 0) rec_.end(handle_);
    handle_ = -1;
  }

 private:
  SpanRecorder& rec_;
  std::int64_t handle_;
};

/// One timed block of the measured phase: a fixed amount of work.
struct BlockResult {
  bool traced = false;
  double wall_s = 0;
  std::uint64_t answered = 0;
  double p50_s = 0;  // of the block's per-query latency samples
  double p99_s = 0;
};

/// Everything one workload process measured.
struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  double setup_s = 0;
  std::vector<BlockResult> blocks;
  double measured_s = 0;  // summed wall of every block
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // shed + expired + wrong answers
  std::uint64_t compared = 0;     // answers checked against a reference
  std::uint64_t mismatches = 0;   // of those, wrong
  std::vector<std::string> problems;  // failed checks, human readable
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  void problem(std::string what) { problems.push_back(std::move(what)); }
  /// Record one reference comparison; a mismatch is also a failed op.
  void compare(bool ok, const std::string& what);
};

/// Per span-name aggregate over a traced run.
struct LayerTime {
  std::uint64_t count = 0;
  double total_ms = 0;  // summed span durations
  double self_ms = 0;   // durations minus the part children cover
};

/// Traced-run analysis: merges bench spans with the tracer's wall-domain
/// engine spans (scan/commit/barrier/checkpoint/batch), assigns each
/// engine span to the innermost interval containing it, and computes self
/// times. `coverage` is the share of the timed units' wall covered by the
/// layer calls inside them (traced blocks only, since only they record
/// spans). Writes a Chrome trace when `path` is set.
struct TraceAnalysis {
  std::map<std::string, LayerTime> by_name;
  double coverage = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t dropped_events = 0;
};

TraceAnalysis analyze_trace(const SpanRecorder& spans,
                            const obs::EventTracer* tracer,
                            const std::string& chrome_path);

/// Serialize a run (one JSON object) to `path`; false on I/O failure.
bool write_run_json(const RunResult& r, const TraceAnalysis* trace,
                      const std::string& path);

/// Process peak resident set in MiB (VmHWM from /proc/self/status).
double peak_rss_mib();

}  // namespace cgraph::suite
