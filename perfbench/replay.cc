#include "replay.h"

#include "db/hudf.h"
#include "db/hybrid_executor.h"
#include "hw/config_compiler.h"
#include "hw/pu_kernel.h"
#include "sql/parser.h"

namespace perfbench {

using namespace doppio;

bool MatchesOracle(const Bat& result, const uint8_t* expected) {
  for (int64_t i = 0; i < result.count(); ++i) {
    if ((result.GetInt16(i) != 0) != (expected[i] != 0)) return false;
  }
  return true;
}

void ReplayEngineQuery(ColumnStoreEngine* engine, const Bat& column,
                       const ReplayQuery& q, sched::ResultCache* cache,
                       int64_t query_id, SpanLog* spans, ReplaySamples* s,
                       Report* report) {
  Hal* hal = engine->hal();
  const DeviceConfig& device = hal->device_config();
  auto cold = [&] {
    if (cache != nullptr) cache->InvalidateColumn(column.id());
  };
  const int root = spans->Begin("query", SpanLog::kNoParent, query_id);
  auto outcome = sql::ExecuteQuery(engine, q.sql);
  spans->End(root);
  report->CountOperation(outcome.ok(),
                         outcome.ok() && q.check_outcome(*outcome));

  const int parse = spans->Begin("sql.parse", root, query_id);
  auto stmt = sql::ParseSelect(q.sql);
  spans->End(parse);
  report->CountOperation(stmt.ok());

  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kHybrid;
  spec.pattern = q.pattern;
  QueryStats filter_stats;
  cold();
  const int filter = spans->Begin("db.filter", root, query_id);
  auto bits = engine->EvalStringFilter(column, spec, &filter_stats);
  spans->End(filter);
  report->CountOperation(
      bits.ok(),
      bits.ok() && std::equal(bits->begin(), bits->end(), q.expected));

  cold();
  const int hybrid = spans->Begin("hybrid.call", filter, query_id);
  auto result = ExecuteHybrid(hal, column, q.pattern, {}, nullptr, cache);
  spans->End(hybrid);
  report->CountOperation(
      result.ok(), result.ok() && MatchesOracle(*result->result, q.expected));
  // The device side runs the planner's prefix of the pattern.
  auto plan = PlanHybrid(q.pattern, device);
  report->CountOperation(plan.ok() &&
                         plan->strategy == HybridStrategy::kHybrid);
  if (!plan.ok()) return;
  const std::string& device_pattern = plan->fpga_pattern;

  const int config_span = spans->Begin("hw.config_gen", hybrid, query_id);
  auto config = CompileRegexConfig(device_pattern, device);
  spans->End(config_span);
  report->CountOperation(config.ok());
  if (!config.ok()) return;

  // The pre-filter submits one job. Its candidates are a superset of the
  // answer, so only the call's success is checked here.
  const int hudf_span = spans->Begin("hudf.call", hybrid, query_id);
  auto hudf = RegexpFpga(hal, column, *config);
  spans->End(hudf_span);
  report->CountOperation(hudf.ok());
  if (!hudf.ok()) return;

  // The device compiles the program once per job; one compile is timed.
  const int compile_span =
      spans->Begin("hw.program_compile", hudf_span, query_id);
  auto program = CompiledPuProgram::Compile(config->vector, device);
  spans->End(compile_span);
  report->CountOperation(program.ok());

  const int host_span =
      spans->Begin("host.backend", root, query_id, /*on_path=*/false);
  auto host = RegexpHost(device, column, device_pattern);
  spans->End(host_span);
  report->CountOperation(host.ok());

  const QueryStats& hw = hudf->stats;
  const double materialize =
      spans->Seconds(root) - spans->Seconds(parse) - spans->Seconds(filter);
  s->query.push_back(spans->Seconds(root));
  s->parse.push_back(spans->Seconds(parse));
  s->filter.push_back(spans->Seconds(filter));
  s->materialize.push_back(materialize);
  s->config_gen.push_back(spans->Seconds(config_span));
  s->program_compile.push_back(spans->Seconds(compile_span));
  s->hudf.push_back(spans->Seconds(hudf_span));
  s->hal.push_back(hw.hal_seconds);
  s->device.push_back(hw.hw_seconds);
  s->host.push_back(spans->Seconds(host_span));
  s->functional_bytes += static_cast<double>(hw.functional_bytes);
  s->functional_seconds += hw.functional_seconds;
  s->sim_host_seconds += hw.sim_host_seconds;
  s->hudf_total += spans->Seconds(hudf_span);
  s->host_total += spans->Seconds(host_span);
  s->kernels.Add(hw);
  const double post = spans->SelfSeconds(hybrid);
  s->hybrid.push_back(spans->Seconds(hybrid));
  s->postprocess.push_back(post);
  const double stages = spans->Seconds(parse) + spans->Seconds(config_span) +
                        spans->Seconds(hudf_span) + materialize + post;
  s->query_total += spans->Seconds(root);
  s->stage_total += stages;
}

void ReportReplayLayers(const ReplaySamples& s, int64_t jobs_before,
                        int64_t retries_before, Report* report) {
  report->Layer("sql.parse_us", Quantile(s.parse, 0.5) * 1e6, "us",
                Clock::kHost);
  report->Layer("db.materialize_ms", Quantile(s.materialize, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("db.filter_ms", Quantile(s.filter, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("hw.config_gen_us", Quantile(s.config_gen, 0.5) * 1e6, "us",
                Clock::kHost);
  report->Layer("hw.program_compile_us",
                Quantile(s.program_compile, 0.5) * 1e6, "us", Clock::kHost);
  report->Layer("hudf.call_ms", Quantile(s.hudf, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("hudf.calls", static_cast<double>(s.hudf.size()), "count",
                Clock::kNone);
  report->Layer("hw.functional_mbps",
                s.functional_seconds > 0
                    ? s.functional_bytes / 1e6 / s.functional_seconds
                    : 0,
                "MB/s", Clock::kHost);
  report->Layer("hw.sim_host_share",
                s.hudf_total > 0 ? s.sim_host_seconds / s.hudf_total : 0,
                "ratio", Clock::kHost);
  s.kernels.ReportTo(report);
  report->Layer("hw.device_ms", Quantile(s.device, 0.5) * 1e3, "ms",
                Clock::kVirtual);
  report->Layer("hal.ms", Quantile(s.hal, 0.5) * 1e3, "ms", Clock::kHost);
  report->Layer("hal.jobs",
                static_cast<double>(CounterValue("doppio.device.jobs_submitted") -
                                    jobs_before),
                "count", Clock::kNone);
  report->Layer("hal.retries",
                static_cast<double>(CounterValue("doppio.lifecycle.retries") -
                                    retries_before),
                "count", Clock::kNone);
  report->Layer("host.backend_ms", Quantile(s.host, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("hw.sim_over_host",
                s.host_total > 0 ? s.hudf_total / s.host_total : 0, "ratio",
                Clock::kHost);
  report->Layer("hybrid.call_ms", Quantile(s.hybrid, 0.5) * 1e3, "ms",
                Clock::kHost);
  report->Layer("hybrid.postprocess_ms", Quantile(s.postprocess, 0.5) * 1e3,
                "ms", Clock::kHost);
  report->Layer("hybrid.calls", static_cast<double>(s.hybrid.size()), "count",
                Clock::kNone);
}

}  // namespace perfbench
