#include "recorder.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <utility>

namespace cgraph::suite {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int64_t SpanRecorder::begin(const char* name, std::int64_t id) {
  if (!enabled_) return -1;
  SpanRecord r;
  r.name = name;
  r.start_ns = now_ns();
  r.parent = open_.empty() ? -1 : open_.back();
  r.id = id;
  records_.push_back(std::move(r));
  const auto handle = static_cast<std::int64_t>(records_.size() - 1);
  open_.push_back(handle);
  return handle;
}

void SpanRecorder::end(std::int64_t handle) {
  // Spans are RAII-scoped on one thread, so they close in stack order.
  records_[static_cast<std::size_t>(handle)].end_ns = now_ns();
  open_.pop_back();
}

void RunResult::compare(bool ok, const std::string& what) {
  ++compared;
  if (ok) return;
  ++mismatches;
  ++failed;
  problem(what);
}

namespace {

struct Interval {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int64_t parent = -1;  // index into the merged interval list
  std::int64_t id = -1;
  int track = 0;  // Chrome tid: 1 bench, 2 service executor, 10+m machine
  [[nodiscard]] std::uint64_t mid() const { return start + (end - start) / 2; }
  [[nodiscard]] bool contains(std::uint64_t t) const {
    return start <= t && t <= end;
  }
};

const char* engine_span_name(const obs::TraceEvent& ev) {
  switch (ev.phase) {
    case obs::TraceEventPhase::kSuperstepScan:
      return "msbfs.scan";
    case obs::TraceEventPhase::kSuperstepCommit:
      return "msbfs.commit";
    case obs::TraceEventPhase::kBarrier:
      return "net.barrier";
    case obs::TraceEventPhase::kCheckpoint:
      return "ckpt.write";
    case obs::TraceEventPhase::kBatchExecute:
      return "service.batch";
    default:
      return nullptr;
  }
}

/// Innermost bench span containing t, given bench spans in start order
/// (they nest, so the answer is an ancestor of the last span started at
/// or before t).
std::int64_t innermost_bench(const std::vector<Interval>& iv,
                             std::size_t num_bench, std::uint64_t t) {
  const auto first = iv.begin();
  const auto last = iv.begin() + static_cast<std::ptrdiff_t>(num_bench);
  auto it = std::upper_bound(first, last, t, [](std::uint64_t x,
                                                const Interval& s) {
    return x < s.start;
  });
  if (it == first) return -1;
  auto k = static_cast<std::int64_t>(std::distance(first, it) - 1);
  while (k >= 0 && !iv[static_cast<std::size_t>(k)].contains(t)) {
    k = iv[static_cast<std::size_t>(k)].parent;
  }
  return k;
}

/// Length of the union of [a, b) pieces, each clipped to [lo, hi).
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> p,
                      std::uint64_t lo, std::uint64_t hi) {
  for (auto& [a, b] : p) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(p.begin(), p.end());
  std::uint64_t total = 0;
  std::uint64_t cur_a = 0;
  std::uint64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : p) {
    if (a >= b) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_map(std::string& out, const std::map<std::string, double>& m) {
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, k);
    out.push_back(':');
    append_number(out, v);
  }
  out.push_back('}');
}

bool write_chrome_trace(const std::vector<Interval>& iv,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Interval& s : iv) t0 = std::min(t0, s.start);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"bench runner\"}},\n"
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
               "\"args\":{\"name\":\"service executor\"}}");
  for (const Interval& s : iv) {
    std::string line = ",\n{\"ph\":\"X\",\"pid\":1,\"name\":";
    append_json_string(line, s.name);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld}}",
                  s.track, static_cast<double>(s.start - t0) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    line += buf;
    std::fputs(line.c_str(), f);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

TraceAnalysis analyze_trace(const SpanRecorder& spans,
                            const obs::EventTracer* tracer,
                            const std::string& chrome_path) {
  TraceAnalysis out;
  // Bench spans first, in start order (records_ is already start-ordered
  // because the runner thread opens them sequentially).
  std::vector<Interval> iv;
  for (const SpanRecord& r : spans.records()) {
    iv.push_back({r.name, r.start_ns, std::max(r.end_ns, r.start_ns),
                  r.parent, r.id, 1});
  }
  const std::size_t num_bench = iv.size();

  if (tracer != nullptr) {
    out.dropped_events = tracer->dropped();
    std::vector<Interval> batches;
    std::vector<Interval> machine;
    for (const obs::TraceEvent& ev : tracer->snapshot()) {
      const char* name = engine_span_name(ev);
      if (name == nullptr || ev.wall_dur_ns == 0 ||
          ev.wall_dur_ns > ev.wall_ns) {
        continue;
      }
      // Engine spans are recorded at their end: wall_ns is the end stamp.
      Interval s{name, ev.wall_ns - ev.wall_dur_ns, ev.wall_ns, -1, ev.batch,
                 ev.machine >= 0 ? 10 + ev.machine : 2};
      (ev.machine >= 0 ? machine : batches).push_back(std::move(s));
    }
    out.engine_events = batches.size() + machine.size();
    std::sort(batches.begin(), batches.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    // Service batch spans hang off the bench span around run_query_service;
    // machine spans hang off the batch whose interval holds their midpoint
    // (the batch span is stamped after the executor's bookkeeping, so strict
    // containment would orphan the first scan), else off a bench span.
    const std::size_t batch_base = iv.size();
    for (Interval& b : batches) {
      b.parent = innermost_bench(iv, num_bench, b.mid());
      iv.push_back(b);
    }
    for (Interval& m : machine) {
      const std::uint64_t t = m.mid();
      auto it = std::upper_bound(
          batches.begin(), batches.end(), t,
          [](std::uint64_t x, const Interval& s) { return x < s.start; });
      if (it != batches.begin() && std::prev(it)->contains(t)) {
        m.parent = static_cast<std::int64_t>(
            batch_base + static_cast<std::size_t>(
                             std::distance(batches.begin(), it) - 1));
      } else {
        m.parent = innermost_bench(iv, num_bench, t);
      }
      iv.push_back(m);
    }
  }

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      iv.size());
  for (const Interval& s : iv) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::uint64_t unit_ns = 0;
  std::uint64_t unit_covered_ns = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const Interval& s = iv[i];
    const std::uint64_t dur = s.end - s.start;
    const std::uint64_t cov = covered(kids[i], s.start, s.end);
    LayerTime& lt = out.by_name[s.name];
    ++lt.count;
    lt.total_ms += static_cast<double>(dur) * 1e-6;
    lt.self_ms += static_cast<double>(dur - cov) * 1e-6;
    if (s.name == "bench.unit") {
      unit_ns += dur;
      unit_covered_ns += cov;
    }
  }
  out.coverage = unit_ns > 0 ? static_cast<double>(unit_covered_ns) /
                                   static_cast<double>(unit_ns)
                             : 0.0;
  if (!chrome_path.empty() && !write_chrome_trace(iv, chrome_path)) {
    std::fprintf(stderr, "cgraph_bench: cannot write %s\n",
                 chrome_path.c_str());
  }
  return out;
}

bool write_run_json(const RunResult& r, const TraceAnalysis* trace,
                      const std::string& path) {
  std::string s = "{\"workload\":";
  append_json_string(s, r.workload);
  s += ",\"seed\":" + std::to_string(r.seed);
  s += std::string(",\"traced\":") + (r.traced ? "true" : "false");
  s += ",\"setup_s\":";
  append_number(s, r.setup_s);
  s += ",\"blocks\":[";
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    const BlockResult& b = r.blocks[i];
    if (i > 0) s.push_back(',');
    s += std::string("{\"traced\":") + (b.traced ? "true" : "false");
    s += ",\"wall_s\":";
    append_number(s, b.wall_s);
    s += ",\"answered\":" + std::to_string(b.answered);
    s += ",\"p50_s\":";
    append_number(s, b.p50_s);
    s += ",\"p99_s\":";
    append_number(s, b.p99_s);
    s.push_back('}');
  }
  s += "]";
  s += ",\"measured_s\":";
  append_number(s, r.measured_s);
  s += ",\"attempted\":" + std::to_string(r.attempted);
  s += ",\"failed\":" + std::to_string(r.failed);
  s += ",\"compared\":" + std::to_string(r.compared);
  s += ",\"mismatches\":" + std::to_string(r.mismatches);
  s += ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i > 0) s.push_back(',');
    append_json_string(s, r.problems[i]);
  }
  s += "],\"e2e\":";
  append_map(s, r.e2e);
  s += ",\"layer\":";
  append_map(s, r.layer);
  if (trace != nullptr) {
    s += ",\"trace\":{\"coverage\":";
    append_number(s, trace->coverage);
    s += ",\"engine_events\":" + std::to_string(trace->engine_events);
    s += ",\"dropped_events\":" + std::to_string(trace->dropped_events);
    s += ",\"spans\":{";
    bool first = true;
    for (const auto& [name, lt] : trace->by_name) {
      if (!first) s.push_back(',');
      first = false;
      append_json_string(s, name);
      s += ":{\"count\":" + std::to_string(lt.count) + ",\"total_ms\":";
      append_number(s, lt.total_ms);
      s += ",\"self_ms\":";
      append_number(s, lt.self_ms);
      s.push_back('}');
    }
    s += "}}";
  }
  s += "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs(s.c_str(), f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double peak_rss_mib() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss also keeps
  // the high-water mark of the image exec replaced, which is the forked
  // launcher's RSS when that is larger than this process's own.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace cgraph::suite
