// Interactive SQL shell over the HUDF-enabled column store.
//
//   ./examples/doppio_shell [num_records]
//
// Tables preloaded: address_table (generated), customer/orders (TPC-H
// SF 0.01). Try:
//   SELECT count(*) FROM address_table WHERE address_string LIKE '%Strasse%';
//   SELECT count(*) FROM address_table WHERE REGEXP_FPGA('[0-9]+(USD|EUR|GBP)', address_string) <> 0;
//   SELECT count(*) FROM address_table WHERE REGEXP_AUTO('(Strasse|Str\.).*(8[0-9]{4})', address_string) <> 0;
//   .stats             toggle per-query phase breakdown
//   .tables            list tables
//   .explain <regex>   cost-model predictions for each strategy
//   EXPLAIN <select>;  logical plan (join keys, predicate routing)
//   .quit
#include <cstdio>
#include <iostream>
#include <string>

#include "db/column_store.h"
#include "db/cost_model.h"
#include "hal/hal.h"
#include "sql/executor.h"
#include "workload/address_generator.h"
#include "workload/tpch_generator.h"

using namespace doppio;

int main(int argc, char** argv) {
  int64_t num_records = argc > 1 ? std::atoll(argv[1]) : 100'000;

  Hal::Options hal_options;
  hal_options.shared_memory_bytes = int64_t{1} << 30;
  Hal hal(hal_options);
  ColumnStoreEngine::Options options;
  options.num_threads = 10;
  options.sequential_pipe = true;
  options.hal = &hal;
  ColumnStoreEngine engine(options);

  std::printf("loading address_table (%lld rows)...\n",
              static_cast<long long>(num_records));
  AddressDataOptions data;
  data.num_records = num_records;
  auto address =
      GenerateAddressTable(data, "address_table", engine.allocator());
  if (!address.ok() ||
      !engine.catalog()->AddTable(std::move(*address)).ok()) {
    return 1;
  }
  TpchOptions tpch;
  tpch.scale_factor = 0.01;
  auto customer = GenerateCustomerTable(tpch, engine.allocator());
  auto orders = GenerateOrdersTable(tpch, engine.allocator());
  if (!customer.ok() || !orders.ok() ||
      !engine.catalog()->AddTable(std::move(*customer)).ok() ||
      !engine.catalog()->AddTable(std::move(*orders)).ok()) {
    return 1;
  }
  if (!engine.BuildContainsIndex("address_table", "address_string").ok()) {
    return 1;
  }

  std::printf("device: %s | tables: address_table, customer, orders\n",
              hal.device_config().ToString().c_str());
  std::printf("operators: LIKE, ILIKE, REGEXP_LIKE, REGEXP_FPGA, "
              "REGEXP_HYBRID, REGEXP_AUTO, CONTAINS\n");

  bool show_stats = true;
  std::string line;
  std::string statement;
  std::printf("doppio> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == ".quit" || line == ".exit" || line == "\\q") break;
    if (line == ".stats") {
      show_stats = !show_stats;
      std::printf("stats %s\ndoppio> ", show_stats ? "on" : "off");
      std::fflush(stdout);
      continue;
    }
    if (line.rfind(".explain ", 0) == 0) {
      std::string pattern = line.substr(9);
      Table* t = engine.catalog()->GetTable("address_table");
      const Bat* col = t->GetColumn("address_string");
      TableStats stats;
      stats.rows = col->count();
      stats.heap_bytes = col->heap()->size_bytes();
      const OperatorCostModel& model = engine.cost_model();
      std::printf("predictions over address_table (%lld rows):\n",
                  static_cast<long long>(stats.rows));
      std::printf("  regexp_like (scalar): %8.3f ms\n",
                  model.PredictRegexpLike(stats) * 1e3);
      std::printf("  like fast path:       %8.3f ms (if substring-able)\n",
                  model.PredictLike(stats) * 1e3);
      auto config = CompileRegexConfig(pattern, hal.device_config());
      if (config.ok()) {
        std::printf("  regexp_fpga:          %8.3f ms\n",
                    model.PredictFpga(*config, stats) * 1e3);
      } else {
        std::printf("  regexp_fpga:          n/a (%s)\n",
                    config.status().message().c_str());
        auto hybrid = model.PredictHybrid(pattern, stats);
        if (hybrid.ok()) {
          std::printf("  hybrid:               %8.3f ms\n", *hybrid * 1e3);
        }
      }
      StringFilterSpec spec;
      spec.op = StringFilterSpec::Op::kAuto;
      spec.pattern = pattern;
      auto choice = model.Choose(spec, stats, true);
      std::printf("  => chosen: %s (%.3f ms)\n", choice.reason.c_str(),
                  choice.predicted_seconds * 1e3);
      std::printf("doppio> ");
      std::fflush(stdout);
      continue;
    }
    if (line == ".tables") {
      for (const auto& name : engine.catalog()->TableNames()) {
        Table* t = engine.catalog()->GetTable(name);
        std::printf("  %-16s %lld rows\n", name.c_str(),
                    static_cast<long long>(t->num_rows()));
      }
      std::printf("doppio> ");
      std::fflush(stdout);
      continue;
    }
    statement += line;
    if (statement.find(';') == std::string::npos && !statement.empty()) {
      statement += " ";
      std::printf("   ...> ");
      std::fflush(stdout);
      continue;
    }
    if (!statement.empty() &&
        (statement.rfind("explain ", 0) == 0 ||
         statement.rfind("EXPLAIN ", 0) == 0)) {
      auto plan = sql::ExplainQuery(&engine, statement.substr(8));
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      } else {
        std::printf("%s", plan->c_str());
      }
      statement.clear();
      std::printf("doppio> ");
      std::fflush(stdout);
      continue;
    }
    if (!statement.empty()) {
      auto outcome = sql::ExecuteQuery(&engine, statement);
      if (!outcome.ok()) {
        std::printf("error: %s\n", outcome.status().ToString().c_str());
      } else {
        std::printf("%s", outcome->result.ToString(25).c_str());
        if (show_stats) {
          std::printf("-- %s\n", outcome->stats.ToString().c_str());
        }
      }
      statement.clear();
    }
    std::printf("doppio> ");
    std::fflush(stdout);
  }
  return 0;
}
