// Shared pieces of the repository benchmark: run configuration, the
// metric report every workload fills, the in-memory span log of the
// traced run, sample statistics and the row-for-row oracle.
//
// Every number the benchmark reports carries a clock: `host` is wall-clock
// time (or a rate derived from it) measured on the machine running the
// benchmark; `virtual` is device time modelled by the simulator. Counts
// and ratios carry no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "db/engine_stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the detailed JSON report (provenance, every number with its
  /// clock, spans of a traced run) is written; empty = not written.
  std::string report_path;
  /// Commit and source digest of the checkout, passed in by run.py.
  std::string commit;
  std::string source_digest;
};

enum class Clock { kHost, kVirtual, kNone };

const char* ClockName(Clock clock);

/// Monotonic wall-clock seconds since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one run reports. The end-to-end and per-layer sections are
/// the metrics BENCHMARK.json declares; `extra` holds supporting numbers
/// (base counts, per-leg breakdowns) that go only to the detailed report.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    Clock clock = Clock::kNone;
  };

  void EndToEnd(std::string name, double value, std::string unit,
                Clock clock);
  void Layer(std::string name, double value, std::string unit, Clock clock);
  void Extra(std::string name, double value, std::string unit, Clock clock);
  /// Provenance entries: free-form key/value strings (thread counts,
  /// input sizes, machine, build).
  void Provenance(std::string key, std::string value);

  /// Records one attempted operation. It failed when the call returned an
  /// error (Overloaded included) or its result differs from the oracle;
  /// the latter is also a divergence.
  void CountOperation(bool call_ok, bool matches_oracle = true) {
    ++attempted_;
    if (!call_ok || !matches_oracle) ++failed_;
    if (call_ok && !matches_oracle) ++divergences_;
  }
  void SetSpansJson(std::string json) { spans_json_ = std::move(json); }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t divergences() const { return divergences_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"},
  /// metrics = end-to-end (untraced) or per-layer (traced).
  std::string ResultLine(bool traced) const;
  /// The detailed report: provenance plus every number with its clock.
  std::string DetailJson(const RunConfig& config) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<Metric> extra_;
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::string spans_json_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t divergences_ = 0;
};

/// Spans of the traced run, kept in memory and written out at the end.
/// A span is one timed call the benchmark makes into a layer's public
/// function. The traced run replays the calls a query makes one after the
/// other, so a child span is a separate call made right after its parent;
/// its duration is charged against the parent's as if nested, and a
/// span's self time is its duration minus its on-path children's.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  /// Starts a span now and returns its index. `on_path` = false marks a
  /// side measurement (for example the host backend over the same input)
  /// that is not part of the query's own work and is left out of self
  /// time and reconciliation.
  int Begin(std::string_view name, int parent, int64_t query,
            bool on_path = true);
  void End(int span);

  double Seconds(int span) const;
  double SelfSeconds(int span) const;
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = kNoParent;
    int64_t query = 0;
    bool on_path = true;
  };
  std::vector<Span> spans_;
};

/// Device calls per compiled PU kernel (QueryStats::pu_kernel).
struct KernelCounts {
  int64_t literal = 0;
  int64_t lazy_dfa = 0;
  int64_t nfa_loop = 0;

  void Add(const doppio::QueryStats& stats);
  /// Adds hw.kernel.{literal,lazy-dfa,nfa-loop}.
  void ReportTo(Report* report) const;
};

/// Sample statistics over latencies (linear interpolation between closest
/// ranks; an empty sample gives 0).
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// Current value of a counter or gauge in obs::MetricsRegistry::Global().
int64_t CounterValue(std::string_view name);
int64_t GaugeValue(std::string_view name);

/// Fills machine and build provenance (compiler, CPU model, nproc, SIMD
/// level, last-level cache size).
void AddMachineProvenance(Report* report);

/// Row-for-row reference: match[i] = 1 when `pattern` matches row i,
/// computed with the lazy-DFA matcher, independent of every execution
/// route under test.
std::vector<uint8_t> OracleMatches(const std::vector<std::string>& rows,
                                   std::string_view pattern);
/// Same for a pattern that is plain literal text: a substring search.
std::vector<uint8_t> OracleContains(const std::vector<std::string>& rows,
                                    std::string_view literal);

/// Rows of a string column as owned strings.
std::vector<std::string> ColumnStrings(const doppio::Bat& column);

/// Aborts the run with a message on stderr (exit code 2, no result line).
[[noreturn]] void Die(const std::string& message);

/// Thread counts every workload sets explicitly. One client thread and one
/// HAL functional-pass thread: the simulator's pass is the bulk of every
/// query, and on a shared 4-core host a single-threaded pass varies ~5 %
/// run to run where a 3-thread pass varied ~30 % under neighbour load.
inline constexpr int kClientThreads = 1;
inline constexpr int kFunctionalThreads = 1;

/// Set-ups per run; setup_s is their median. Set-up is short and faults in
/// fresh memory, so on a shared host a single set-up varies by ~30 %.
inline constexpr int kSetupRepeats = 5;

/// Workload entry points (one file each).
void RunTenantMix(const RunConfig& config, Report* report);
void RunIngestScan(const RunConfig& config, Report* report);

}  // namespace perfbench
