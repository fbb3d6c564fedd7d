#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace cgraph::obs {
namespace {

/// Shortest round-trippable rendering for metric values ("15" not
/// "15.000000"; "0.4" not "4.0e-01") so exposition output stays readable
/// and golden-testable.
std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Renders {k="v",...}; `extra` appends one pre-rendered pair (le=...).
std::string label_block(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k + "=\"" + escape_label_value(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out.push_back(',');
    out += extra;
  }
  out.push_back('}');
  return out;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    // Appended piecewise: GCC 12 at -O3 raises a false -Wrestrict on the
    // chained operator+ temporaries.
    out.push_back('"');
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

}  // namespace

LogHistogram::LogHistogram(HistogramSpec spec)
    : counts_(spec.nbins + 1) {
  CGRAPH_CHECK(spec.lo > 0 && spec.growth > 1 && spec.nbins > 0);
  uppers_.reserve(spec.nbins);
  double bound = spec.lo;
  for (std::size_t i = 0; i < spec.nbins; ++i) {
    uppers_.push_back(bound);
    bound *= spec.growth;
  }
}

void LogHistogram::observe(double x) {
  // Log-spaced bounds make this loop short (≤ nbins); observes happen per
  // query / per superstep, not per edge, so linear scan beats a log() call.
  std::size_t bin = uppers_.size();  // +Inf
  for (std::size_t i = 0; i < uppers_.size(); ++i) {
    if (x <= uppers_[i]) {
      bin = i;
      break;
    }
  }
  counts_[bin].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
}

double LogHistogram::percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  CGRAPH_CHECK(p > 0.0 && p <= 100.0);
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t prev = cum;
    const std::uint64_t here = bucket_count(i);
    cum += here;
    if (static_cast<double>(cum) < rank) continue;
    if (i >= uppers_.size()) return uppers_.back();  // +Inf bucket
    const double lower = i == 0 ? 0.0 : uppers_[i - 1];
    if (here == 0) return lower;
    const double frac =
        (rank - static_cast<double>(prev)) / static_cast<double>(here);
    return lower + (uppers_[i] - lower) * frac;
  }
  return uppers_.back();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

MetricsRegistry::Child& MetricsRegistry::child(const std::string& name,
                                               const std::string& help,
                                               MetricType type,
                                               const Labels& labels,
                                               const HistogramSpec& spec) {
  const Labels key = sorted_labels(labels);
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.help = help;
    fam.type = type;
  } else {
    CGRAPH_CHECK_MSG(fam.type == type,
                     "metric family re-registered with a different type");
  }
  for (const auto& c : fam.children) {
    if (c->labels == key) return *c;
  }
  auto c = std::make_unique<Child>();
  c->labels = key;
  switch (type) {
    case MetricType::kCounter: c->counter = std::make_unique<Counter>(); break;
    case MetricType::kGauge: c->gauge = std::make_unique<Gauge>(); break;
    case MetricType::kHistogram:
      c->histogram = std::make_unique<LogHistogram>(spec);
      break;
  }
  fam.children.push_back(std::move(c));
  return *fam.children.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  return *child(name, help, MetricType::kCounter, labels, {}).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help, const Labels& labels) {
  return *child(name, help, MetricType::kGauge, labels, {}).gauge;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name,
                                         const std::string& help,
                                         const Labels& labels,
                                         HistogramSpec spec) {
  return *child(name, help, MetricType::kHistogram, labels, spec).histogram;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) {
      out += "# HELP " + name + " " + fam.help + "\n";
    }
    out += "# TYPE " + name + " " + type_name(fam.type) + "\n";
    for (const auto& cp : fam.children) {
      const Child& c = *cp;
      switch (fam.type) {
        case MetricType::kCounter:
          out += name + label_block(c.labels) + " " +
                 format_value(c.counter->value()) + "\n";
          break;
        case MetricType::kGauge:
          out += name + label_block(c.labels) + " " +
                 format_value(c.gauge->value()) + "\n";
          break;
        case MetricType::kHistogram: {
          const LogHistogram& h = *c.histogram;
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < h.nbins(); ++i) {
            cum += h.bucket_count(i);
            out += name + "_bucket" +
                   label_block(c.labels, "le=\"" + format_value(h.upper(i)) +
                                             "\"") +
                   " " + std::to_string(cum) + "\n";
          }
          // +Inf and _count derive from the same bucket pass rather than
          // h.count(): a concurrent observe() between the reads would
          // otherwise yield a non-monotonic bucket series.
          cum += h.bucket_count(h.nbins());
          out += name + "_bucket" + label_block(c.labels, "le=\"+Inf\"") +
                 " " + std::to_string(cum) + "\n";
          out += name + "_sum" + label_block(c.labels) + " " +
                 format_value(h.sum()) + "\n";
          out += name + "_count" + label_block(c.labels) + " " +
                 std::to_string(cum) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"metrics\":[";
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) out.push_back(',');
    first_fam = false;
    out += "{\"name\":\"" + json_escape(name) + "\",\"type\":\"" +
           type_name(fam.type) + "\",\"help\":\"" + json_escape(fam.help) +
           "\",\"series\":[";
    bool first_child = true;
    for (const auto& cp : fam.children) {
      const Child& c = *cp;
      if (!first_child) out.push_back(',');
      first_child = false;
      out += "{\"labels\":" + json_labels(c.labels);
      switch (fam.type) {
        case MetricType::kCounter:
          out += ",\"value\":" + format_value(c.counter->value());
          break;
        case MetricType::kGauge:
          out += ",\"value\":" + format_value(c.gauge->value());
          break;
        case MetricType::kHistogram: {
          const LogHistogram& h = *c.histogram;
          out += ",\"buckets\":[";
          for (std::size_t i = 0; i <= h.nbins(); ++i) {
            if (i > 0) out.push_back(',');
            const std::string le =
                i < h.nbins() ? format_value(h.upper(i)) : "\"+Inf\"";
            out += "[" + le + "," + std::to_string(h.bucket_count(i)) + "]";
          }
          out += "],\"sum\":" + format_value(h.sum()) +
                 ",\"count\":" + std::to_string(h.count());
          break;
        }
      }
      out.push_back('}');
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  families_.clear();
}

}  // namespace cgraph::obs
