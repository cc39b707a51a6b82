// Ablations over the design choices DESIGN.md calls out:
//  (1) arbiter batch size (paper §4.2.2 picks 16: "small enough to ensure
//      good throughput without increasing memory access latency too much");
//  (2) String Reader in-flight window (the latency-hiding capability that
//      sets single-engine effective bandwidth);
//  (3) PUs per engine (paper §5.1/§7.9: fewer PUs starve the reader,
//      more PUs starve on input).
#include "bench_util.h"

#include "hw/fpga_device.h"

using namespace doppio;
using namespace doppio::bench;

namespace {

struct RunResult {
  double queries_per_sec;
  double bandwidth_gbps;
};

RunResult RunClosedLoop(const DeviceConfig& device, const Bat& strings,
                        int clients, int per_client) {
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  if (!config.ok()) std::exit(1);
  Bat scratch(ValueType::kInt16);
  if (!scratch.AppendZeros(strings.count()).ok()) std::exit(1);
  int64_t completed = 0;
  std::function<void(int)> submit = [&](int remaining) {
    if (remaining == 0) return;
    JobParams params;
    params.offsets = strings.tail_data();
    params.heap = strings.heap()->data();
    params.result = scratch.mutable_tail_data();
    params.count = strings.count();
    params.heap_bytes = strings.heap()->size_bytes();
    params.program = config->program;
    params.timing_only = true;
    auto job = fpga.Submit(std::move(params), [&, remaining] {
      ++completed;
      submit(remaining - 1);
    });
    if (!job.ok()) std::exit(1);
  };
  for (int c = 0; c < clients; ++c) submit(per_client);
  SimTime end = fpga.RunToIdle();
  RunResult out;
  out.queries_per_sec =
      static_cast<double>(completed) / SecondsFromPicos(end);
  out.bandwidth_gbps = fpga.qpi().AchievedBytesPerSec(end) / 1e9;
  return out;
}

}  // namespace

int main() {
  const int64_t rows = ScaledRows(1'000'000);
  PrintHeader("Ablations: arbiter batch, reader window, PUs per engine",
              "design points the paper fixes at 16 lines / double "
              "buffering / 16 PUs");

  AddressDataOptions data;
  data.num_records = rows;
  auto table = GenerateAddressTable(data, "addr");
  if (!table.ok()) return 1;
  const Bat* strings = (*table)->GetColumn("address_string");
  std::printf("records: %lld (Q1, 10 closed-loop clients)\n",
              static_cast<long long>(rows));

  std::printf("\n(1) arbiter batch size, 4 engines\n");
  std::printf("%12s %14s %18s\n", "batch", "q/s", "bandwidth [GB/s]");
  for (int batch : {1, 4, 16, 64, 256}) {
    DeviceConfig device;
    device.arbiter_batch_lines = batch;
    RunResult r = RunClosedLoop(device, *strings, 10, 3);
    std::printf("%12d %14.1f %18.2f\n", batch, r.queries_per_sec,
                r.bandwidth_gbps);
  }

  std::printf("\n(2) per-engine in-flight window, 1 engine\n");
  std::printf("%12s %14s %18s\n", "lines", "q/s", "bandwidth [GB/s]");
  for (int window : {8, 16, 32, 64, 128, 256}) {
    DeviceConfig device;
    device.num_engines = 1;
    device.per_engine_window_lines = window;
    RunResult r = RunClosedLoop(device, *strings, 4, 3);
    std::printf("%12d %14.1f %18.2f\n", window, r.queries_per_sec,
                r.bandwidth_gbps);
  }

  std::printf("\n(3) PUs per engine, 4 engines (engine capacity = PUs x "
              "400 MB/s)\n");
  std::printf("%12s %14s %18s %14s\n", "PUs", "q/s", "bandwidth [GB/s]",
              "bottleneck");
  for (int pus : {2, 4, 8, 16, 32}) {
    DeviceConfig device;
    device.pus_per_engine = pus;
    RunResult r = RunClosedLoop(device, *strings, 10, 3);
    // With all four engines streaming, each one gets a quarter of the QPI
    // peak; fewer PUs than that share means the engine itself is the
    // bottleneck.
    const double qpi_share =
        device.qpi_peak_bytes_per_sec / device.num_engines;
    const char* bottleneck = device.EngineBytesPerSec() < qpi_share
                                 ? "PUs (starved)"
                                 : "QPI/window";
    std::printf("%12d %14.1f %18.2f %14s\n", pus, r.queries_per_sec,
                r.bandwidth_gbps, bottleneck);
  }

  std::printf(
      "\nshape check: (1) batch size has little effect until it is so\n"
      "large that fairness suffers; (2) bandwidth rises with the window\n"
      "until the QPI cap; (3) below 16 PUs the engine rate, not the QPI,\n"
      "limits throughput — the paper's provisioning argument.\n");
  return 0;
}
