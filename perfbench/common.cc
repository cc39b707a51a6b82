#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"
#include "regex/dfa_matcher.h"
#include "regex/simd_scan.h"

namespace perfbench {

const char* ClockName(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host";
    case Clock::kVirtual: return "virtual";
    case Clock::kNone: return "none";
  }
  return "none";
}

void Report::EndToEnd(std::string name, double value, std::string unit,
                      Clock clock) {
  end_to_end_.push_back({std::move(name), value, std::move(unit), clock});
}

void Report::Layer(std::string name, double value, std::string unit,
                   Clock clock) {
  layers_.push_back({std::move(name), value, std::move(unit), clock});
}

void Report::Extra(std::string name, double value, std::string unit,
                   Clock clock) {
  extra_.push_back({std::move(name), value, std::move(unit), clock});
}

void Report::Provenance(std::string key, std::string value) {
  provenance_.emplace_back(std::move(key), std::move(value));
}

namespace {

void WriteMetrics(doppio::obs::JsonWriter* json,
                  const std::vector<Report::Metric>& metrics,
                  bool with_clock) {
  json->BeginObject();
  for (const Report::Metric& m : metrics) {
    json->Key(m.name).BeginObject();
    json->Key("value").Double(m.value);
    json->Field("unit", m.unit);
    if (with_clock) json->Field("clock", ClockName(m.clock));
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace

std::string Report::ResultLine(bool traced) const {
  doppio::obs::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(divergences_ == 0);
  json.Field("attempted", attempted_);
  json.Field("failed", failed_);
  json.Key("metrics");
  WriteMetrics(&json, traced ? layers_ : end_to_end_, /*with_clock=*/false);
  json.EndObject();
  return json.Take();
}

std::string Report::DetailJson(const RunConfig& config) const {
  doppio::obs::JsonWriter json;
  json.BeginObject();
  json.Field("workload", config.workload);
  json.Key("seed").UInt(config.seed);
  json.Field("seconds", config.seconds);
  json.Key("traced").Bool(config.trace);
  json.Field("commit", config.commit);
  json.Field("source_digest", config.source_digest);
  json.Key("provenance").BeginObject();
  for (const auto& [key, value] : provenance_) json.Field(key, value);
  json.EndObject();
  json.Field("attempted", attempted_);
  json.Field("failed", failed_);
  json.Field("divergences", divergences_);
  json.Field("error_rate",
             attempted_ > 0 ? static_cast<double>(failed_) /
                                  static_cast<double>(attempted_)
                            : 0.0);
  json.Key("end_to_end");
  WriteMetrics(&json, end_to_end_, /*with_clock=*/true);
  json.Key("per_layer");
  WriteMetrics(&json, layers_, /*with_clock=*/true);
  json.Key("extra");
  WriteMetrics(&json, extra_, /*with_clock=*/true);
  if (!spans_json_.empty()) {
    json.Key("spans");
    // Spans are already serialized JSON; splice them in verbatim.
    std::string out = json.Take();
    out += spans_json_;
    out += "}";
    return out;
  }
  json.EndObject();
  return json.Take();
}

int SpanLog::Begin(std::string_view name, int parent, int64_t query,
                   bool on_path) {
  Span span;
  span.name = std::string(name);
  span.parent = parent;
  span.query = query;
  span.on_path = on_path;
  span.start = NowSeconds();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int span) {
  spans_[static_cast<size_t>(span)].end = NowSeconds();
}

double SpanLog::Seconds(int span) const {
  const Span& s = spans_[static_cast<size_t>(span)];
  return s.end - s.start;
}

double SpanLog::SelfSeconds(int span) const {
  double self = Seconds(span);
  // Children always come after their parent in the log.
  for (size_t i = static_cast<size_t>(span) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == span && spans_[i].on_path) {
      self -= Seconds(static_cast<int>(i));
    }
  }
  return self;
}

std::string SpanLog::ToJson() const {
  doppio::obs::JsonWriter json;
  json.BeginArray();
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.BeginObject();
    json.Field("id", static_cast<int64_t>(i));
    json.Field("name", s.name);
    json.Field("query", s.query);
    json.Field("parent", static_cast<int64_t>(s.parent));
    json.Key("on_path").Bool(s.on_path);
    json.Field("start_us", (s.start - origin) * 1e6);
    json.Field("end_us", (s.end - origin) * 1e6);
    json.Field("self_us", SelfSeconds(static_cast<int>(i)) * 1e6);
    json.EndObject();
  }
  json.EndArray();
  return json.Take();
}

void KernelCounts::Add(const doppio::QueryStats& stats) {
  if (stats.pu_kernel == "literal") ++literal;
  if (stats.pu_kernel == "lazy-dfa") ++lazy_dfa;
  if (stats.pu_kernel == "nfa-loop") ++nfa_loop;
}

void KernelCounts::ReportTo(Report* report) const {
  report->Layer("hw.kernel.literal", static_cast<double>(literal), "count",
                Clock::kNone);
  report->Layer("hw.kernel.lazy-dfa", static_cast<double>(lazy_dfa), "count",
                Clock::kNone);
  report->Layer("hw.kernel.nfa-loop", static_cast<double>(nfa_loop), "count",
                Clock::kNone);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int64_t CounterValue(std::string_view name) {
  return doppio::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

int64_t GaugeValue(std::string_view name) {
  return doppio::obs::MetricsRegistry::Global().GetGauge(name)->Value();
}

void AddMachineProvenance(Report* report) {
  report->Provenance("compiler", PERFBENCH_COMPILER);
  report->Provenance("build_type", PERFBENCH_BUILD_TYPE);
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  report->Provenance("cpu_model", cpu);
  report->Provenance("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
  report->Provenance(
      "simd_level",
      doppio::simd::SimdLevelName(doppio::simd::DetectedSimdLevel()));
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  report->Provenance("llc_bytes", std::to_string(llc > 0 ? llc : 0));
}

std::vector<uint8_t> OracleMatches(const std::vector<std::string>& rows,
                                   std::string_view pattern) {
  auto matcher = doppio::DfaMatcher::Compile(pattern);
  if (!matcher.ok()) {
    Die("oracle cannot compile '" + std::string(pattern) +
        "': " + matcher.status().ToString());
  }
  std::vector<uint8_t> match(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    match[i] = (*matcher)->Find(rows[i]).matched ? 1 : 0;
  }
  return match;
}

std::vector<uint8_t> OracleContains(const std::vector<std::string>& rows,
                                    std::string_view literal) {
  std::vector<uint8_t> match(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    match[i] = rows[i].find(literal) != std::string::npos ? 1 : 0;
  }
  return match;
}

std::vector<std::string> ColumnStrings(const doppio::Bat& column) {
  std::vector<std::string> rows;
  rows.reserve(static_cast<size_t>(column.count()));
  for (int64_t i = 0; i < column.count(); ++i) {
    rows.emplace_back(column.GetString(i));
  }
  return rows;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace perfbench
