// Figure 8: aggregated throughput (queries/s) of Q1 over 2.5M tuples with
// 10 closed-loop clients, as the number of Regex Engines grows 1..4, plus
// the engines' nominal capacity line.
//
// Paper: 30.7 q/s with one engine (~4.7 GB/s useful, 5.89 GB/s raw read
// bandwidth), 34.4 q/s with two (QPI saturated at ~6.5 GB/s), flat after.
#include "bench_util.h"

#include "db/hudf.h"
#include "hw/device_pool.h"
#include "hw/fpga_device.h"
#include "hw/perf_model.h"

using namespace doppio;
using namespace doppio::bench;

int main() {
  const int64_t rows = ScaledRows(2'500'000);
  const int kClients = 10;
  const int kQueriesPerClient = 4;

  PrintHeader("Figure 8: throughput vs number of Regex Engines",
              "30.7 -> 34.4 q/s, then flat (QPI-bound); capacity grows "
              "linearly at 6.4 GB/s per engine");

  // One shared data set (arena checks disabled: the device is driven
  // directly, without a HAL, in this experiment).
  AddressDataOptions data;
  data.num_records = rows;
  auto table = GenerateAddressTable(data, "addr");
  if (!table.ok()) return 1;
  const Bat* strings = (*table)->GetColumn("address_string");
  const int64_t heap_bytes = strings->heap()->size_bytes();

  std::printf("records: %lld, heap: %.1f MB, clients: %d\n\n",
              static_cast<long long>(rows), heap_bytes / 1e6, kClients);
  std::printf("%8s %18s %18s %22s\n", "engines", "measured [q/s]",
              "capacity [q/s]", "read bandwidth [GB/s]");

  for (int engines = 1; engines <= 4; ++engines) {
    DeviceConfig device;
    device.num_engines = engines;
    FpgaDevice fpga(device);
    auto config = CompileRegexConfig(QueryPattern(EvalQuery::kQ1), device);
    if (!config.ok()) return 1;

    // Closed-loop clients in virtual time: each client resubmits its next
    // query the moment the previous one finishes. timing_only jobs never
    // write results, so one scratch result BAT serves them all.
    Bat scratch(ValueType::kInt16);
    if (!scratch.AppendZeros(strings->count()).ok()) return 1;
    int64_t completed = 0;
    std::function<void(int, int)> submit = [&](int client, int remaining) {
      if (remaining == 0) return;
      JobParams params;
      params.offsets = strings->tail_data();
      params.heap = strings->heap()->data();
      params.result = scratch.mutable_tail_data();
      params.count = strings->count();
      params.heap_bytes = heap_bytes;
      params.program = config->program;
      params.timing_only = true;  // throughput experiment
      auto job = fpga.Submit(std::move(params), [&, client, remaining] {
        ++completed;
        submit(client, remaining - 1);
      });
      if (!job.ok()) std::exit(1);
    };
    for (int c = 0; c < kClients; ++c) submit(c, kQueriesPerClient);
    SimTime end = fpga.RunToIdle();

    double seconds = SecondsFromPicos(end);
    double qps = static_cast<double>(completed) / seconds;
    double bandwidth = fpga.qpi().AchievedBytesPerSec(end) / 1e9;
    double capacity_qps = SaturatedQueriesPerSec(
        device, rows, heap_bytes, engines, /*ideal=*/true);
    std::printf("%8d %18.1f %18.1f %22.2f\n", engines, qps, capacity_qps,
                bandwidth);
  }
  std::printf(
      "\nshape check: measured throughput rises slightly from one to two\n"
      "engines (latency hiding) and is flat beyond; capacity (dashed line\n"
      "in the paper) keeps growing linearly.\n");

  // ---- Device-pool scaling (beyond the paper; ROADMAP scale item) ----
  // Where a single device is QPI-bound after two engines, every extra
  // pool member brings its own link: the pooled executor shards each
  // query's slices across the members, so aggregated throughput keeps
  // growing. Virtual-time only — deterministic across runs.
  PrintHeader("Device-pool scaling: aggregated throughput, 1..4 devices",
              "beyond the paper: one QPI link per pool member, pooled "
              "sharded submission (docs/DEVICE_POOL.md)");
  const int kWaves = 3;
  const int kQueriesPerWave = 8;
  std::printf("%8s %18s %18s %10s\n", "devices", "measured [q/s]",
              "virtual time [s]", "speedup");

  obs::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "device_scaling");
  json.Field("query", "Q1");
  json.Field("rows", rows);
  json.Field("waves", static_cast<int64_t>(kWaves));
  json.Field("queries_per_wave", static_cast<int64_t>(kQueriesPerWave));
  json.Key("sweep").BeginArray();

  double base_qps = 0;
  bool monotone = true;
  double prev_qps = 0;
  for (int d = 1; d <= 4; ++d) {
    Hal::Options hal_options;
    hal_options.shared_memory_bytes = int64_t{4} << 30;
    hal_options.functional_threads = 1;
    hal_options.num_devices = d;
    Hal hal(hal_options);
    // The pool validates job params against its arena: regenerate the
    // (seeded, deterministic) data set in this HAL's shared region.
    auto pool_table = GenerateAddressTable(data, "addr", hal.bat_allocator());
    if (!pool_table.ok()) return 1;
    const Bat* pool_strings = (*pool_table)->GetColumn("address_string");
    auto pool_config = hal.CompileConfig(QueryPattern(EvalQuery::kQ1));
    if (!pool_config.ok()) return 1;

    int64_t completed = 0;
    for (int wave = 0; wave < kWaves; ++wave) {
      std::vector<FpgaBatchQuery> queries(kQueriesPerWave);
      std::vector<FpgaBatchQuery*> pointers;
      pointers.reserve(queries.size());
      for (FpgaBatchQuery& q : queries) {
        q.input = pool_strings;
        q.config = &*pool_config;
        q.span_name = "fig8_device_sweep";
        q.timing_only = true;  // throughput experiment
        pointers.push_back(&q);
      }
      if (!RegexpFpgaBatch(&hal, pointers).ok()) return 1;
      completed += kQueriesPerWave;
    }
    const double seconds = SecondsFromPicos(hal.pool()->MaxNow());
    const double qps = obs::SafeRate(static_cast<double>(completed), seconds);
    if (d == 1) base_qps = qps;
    if (d > 1 && qps <= prev_qps) monotone = false;
    prev_qps = qps;
    std::printf("%8d %18.1f %18.4f %9.2fx\n", d, qps, seconds,
                base_qps > 0 ? qps / base_qps : 0.0);
    json.BeginObject();
    json.Field("devices", static_cast<int64_t>(d));
    json.Field("qps", qps);
    json.Field("virtual_seconds", seconds);
    json.Field("speedup", base_qps > 0 ? qps / base_qps : 0.0);
    json.EndObject();
  }
  json.EndArray();
  json.Field("monotone", monotone ? "true" : "false");
  json.EndObject();
  std::printf(
      "\nshape check: pooled throughput grows monotonically 1 -> 4 devices\n"
      "(near-linear: each member streams over its own QPI link).\n");

  const std::string text = json.Take();
  if (!obs::CheckJsonSyntax(text).ok()) {
    std::fprintf(stderr, "BENCH_devices.json syntax error\n");
    return 1;
  }
  const char* env_path = std::getenv("DOPPIO_BENCH_JSON");
  const char* path = env_path != nullptr ? env_path : "BENCH_devices.json";
  MustWriteFile(path, text + "\n");
  std::fprintf(stderr, "device scaling written to %s\n", path);
  return monotone ? 0 : 1;
}
