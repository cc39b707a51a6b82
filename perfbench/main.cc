// Entry point of the repository benchmark. Usually started through run.py,
// which builds it and checks its output against BENCHMARK.json:
//
//   perfbench --workload tenant_mix|ingest_scan --seed N
//             --seconds S --trace 0|1 [--report FILE] [--commit C]
//             [--source-digest D]
//
// Prints the result object {"correct", "attempted", "failed", "metrics"}
// as its only line of standard output and writes the detailed report to
// --report. Exit code 0 when every operation succeeded and agreed with the
// oracle, 1 otherwise (after the result line), 2 on a usage or set-up
// error (no result line).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.h"

namespace {

using perfbench::Die;
using perfbench::RunConfig;

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--report") {
      config.report_path = value;
    } else if (arg == "--commit") {
      config.commit = value;
    } else if (arg == "--source-digest") {
      config.source_digest = value;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (!(config.seconds > 0)) Die("--seconds must be positive");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  perfbench::Report report;
  perfbench::AddMachineProvenance(&report);
  report.Provenance("seed", std::to_string(config.seed));

  if (config.workload == "tenant_mix") {
    perfbench::RunTenantMix(config, &report);
  } else if (config.workload == "ingest_scan") {
    perfbench::RunIngestScan(config, &report);
  } else {
    Die("unknown workload " + config.workload);
  }

  const std::string detail = report.DetailJson(config);
  if (!config.report_path.empty()) {
    std::ofstream out(config.report_path);
    out << detail << "\n";
    if (!out) Die("cannot write " + config.report_path);
  }
  if (report.divergences() > 0) {
    std::fprintf(stderr, "perfbench: %lld results differ from the oracle\n",
                 static_cast<long long>(report.divergences()));
  }
  std::printf("%s\n", report.ResultLine(config.trace).c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
