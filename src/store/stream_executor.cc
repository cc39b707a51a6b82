#include "store/stream_executor.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hw/device_pool.h"
#include "hw/perf_model.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sched/result_cache.h"

namespace doppio {

namespace {

obs::Counter& WindowsStreamedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.windows_streamed",
      "segment windows scanned by the streaming executor");
  return *c;
}

obs::Counter& WindowCacheHitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.window_cache_hits",
      "segment windows served from per-segment cached result blocks");
  return *c;
}

obs::Gauge& OverlapOccupancyGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.store.overlap_occupancy_ppm",
      "last stream's transfer/execute overlap: modeled seconds saved by "
      "double-buffering, in parts-per-million of the serial total");
  return *g;
}

}  // namespace

Result<HudfResult> RegexpFpgaStreamed(Hal* hal, Pager* pager,
                                      const SegmentSnapshot& snapshot,
                                      const RegexConfig& config,
                                      const StreamOptions& options) {
  if (hal == nullptr || pager == nullptr) {
    return Status::InvalidArgument("streamed scan requires a HAL and a pager");
  }
  if (options.result_cache != nullptr && options.fingerprint.empty()) {
    return Status::InvalidArgument(
        "per-segment caching requires a program fingerprint");
  }
  Stopwatch udf_watch;
  obs::Tracer& tracer = obs::Tracer::Global();
  const obs::TraceId trace = tracer.BeginQuery(options.span_name);
  const size_t W = snapshot.segments.size();

  // Pin bookkeeping: a window may be pinned ahead of its turn (prefetch).
  std::vector<PinnedSegment> view(W);
  std::vector<char> pinned(W, 0);
  auto unpin = [&](size_t w) {
    if (pinned[w]) pager->Unpin(snapshot.segments[w].get());
    pinned[w] = 0;
  };
  auto pin = [&](size_t w) -> Status {
    if (pinned[w]) return Status::OK();
    DOPPIO_ASSIGN_OR_RETURN(view[w], pager->Pin(snapshot.segments[w].get()));
    pinned[w] = 1;
    if (view[w].paged_in) {
      tracer.RecordInstant(trace, "page_in", hal->pool()->device(0)->now());
    }
    return Status::OK();
  };
  auto fail = [&](Status st) {
    for (size_t w = 0; w < W; ++w) unpin(w);
    tracer.EndQuery(trace);
    return st;
  };

  HudfResult out;
  out.stats.trace_id = trace;
  out.stats.strategy = "fpga-streamed";
  out.stats.rows_scanned = snapshot.rows;

  // The result BAT must live in the shared arena: every window's jobs
  // write their row range of it directly from the (simulated) device.
  {
    auto result =
        Bat::New(ValueType::kInt16, snapshot.rows, hal->bat_allocator());
    if (!result.ok()) return fail(result.status());
    out.result = std::move(*result);
    Status st = out.result->AppendZeros(snapshot.rows);
    if (!st.ok()) return fail(st);
  }

  // Window starting rows within the stitched result.
  std::vector<int64_t> row_base(W + 1, 0);
  for (size_t w = 0; w < W; ++w) {
    row_base[w + 1] = row_base[w] + snapshot.segments[w]->rows();
  }
  DOPPIO_CHECK(row_base[W] == snapshot.rows);

  // Upfront per-segment cache probe: hit windows are served as block
  // copies and never pinned, so a fully cached repeat scan does zero
  // paging and zero device work.
  std::vector<std::shared_ptr<const sched::CachedResultBlock>> hit(W);
  if (options.result_cache != nullptr) {
    for (size_t w = 0; w < W; ++w) {
      const Segment& seg = *snapshot.segments[w];
      hit[w] = options.result_cache->Get(options.fingerprint, seg.id(),
                                         Segment::kSealedVersion, seg.rows());
      if (hit[w] != nullptr) {
        std::memcpy(out.result->mutable_tail_data() + row_base[w] * 2,
                    hit[w]->values.data(),
                    static_cast<size_t>(seg.rows()) * sizeof(uint16_t));
        out.stats.rows_matched += hit[w]->rows_matched;
        WindowCacheHitsCounter().Add(1);
      }
    }
  }

  // The double-buffer stitch over the scanned windows (cache hits cost
  // nothing). Serial: each window pages in, then executes. Overlapped: one
  // transfer in flight while one window executes — window w's transfer
  // starts once the previous transfer is done AND the previous window has
  // started executing (its buffer is in use but the link is free).
  double serial = 0, done_in = 0, start = 0, overlapped = 0;
  std::vector<ScanRequest> scan(1);
  for (size_t w = 0; w < W; ++w) {
    if (hit[w] != nullptr) continue;
    const Segment& seg = *snapshot.segments[w];
    if (Status st = pin(w); !st.ok()) return fail(st);
    const double t_in =
        view[w].paged_in
            ? TransferSeconds(hal->device_config(), seg.payload_bytes())
            : 0;
    out.stats.page_in_seconds += t_in;

    // Double-buffering: pin the NEXT scanned window before this one
    // executes, so its (modeled) transfer overlaps this window's
    // execution. A budget too tight to hold two windows degrades
    // gracefully to serial page-then-scan; IO/validation problems are
    // real errors.
    if (options.overlap) {
      size_t next = w + 1;
      while (next < W && hit[next] != nullptr) ++next;
      Status st = next < W ? pin(next) : Status::OK();
      if (!st.ok() && st.code() != StatusCode::kResourceExhausted) {
        return fail(st);
      }
    }

    // The window is one scan request of the shared slice executor; its
    // results land in the window's row range of the stitched BAT.
    QueryStats window;
    ScanRequest& req = scan[0];
    req.offsets = view[w].offsets;
    req.heap = view[w].heap;
    req.heap_bytes = view[w].heap_bytes;
    req.rows = seg.rows();
    req.result = out.result->mutable_tail_data() + row_base[w] * 2;
    req.config = &config;
    req.partitions = options.partitions;
    req.trace = trace;
    req.stats = &window;
    if (Status st = ExecuteScans(hal, scan); !st.ok()) return fail(st);
    const double d_exec = window.hw_seconds;
    serial += t_in + d_exec;
    done_in = std::max(start, done_in) + t_in;
    start = std::max(overlapped, done_in);
    overlapped = start + d_exec;
    window.hw_seconds = 0;  // the stitch owns the hardware phase
    out.stats.Accumulate(window);
    out.stats.windows_streamed += 1;
    WindowsStreamedCounter().Add(1);

    // Offer the clean window back to the cache under the segment's stable
    // (id, version=1) identity so a repeat scan skips it entirely. The
    // cache's own completeness guard refuses saturated blocks.
    if (options.result_cache != nullptr && window.fallback_rows == 0) {
      std::vector<uint16_t> values(static_cast<size_t>(seg.rows()));
      std::memcpy(values.data(), req.result,
                  values.size() * sizeof(uint16_t));
      options.result_cache->Put(options.fingerprint, seg.id(),
                                Segment::kSealedVersion, std::move(values),
                                /*degraded=*/false);
    }
    unpin(w);
  }

  out.stats.hw_seconds = options.overlap ? overlapped : serial;
  if (serial > 0) {
    OverlapOccupancyGauge().Set(static_cast<int64_t>(
        (serial - overlapped) / serial * 1e6));
  }

  if (out.stats.fallback_rows > 0) out.stats.strategy += "+sw_fallback";
  out.stats.udf_software_seconds =
      std::max(0.0, udf_watch.ElapsedSeconds() - out.stats.hal_seconds -
                        out.stats.sim_host_seconds);
  tracer.EndQuery(trace);
  return out;
}

}  // namespace doppio
