#include "hal/hal.h"

#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {

namespace {
obs::Counter& SharedAllocsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hal.shared_allocs", "allocations served from the shared slab");
  return *c;
}
obs::Counter& MallocAllocsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.hal.malloc_allocs",
      "small allocations served from host malloc");
  return *c;
}
}  // namespace

HalAllocator::HalAllocator(SlabAllocator* slab, int64_t malloc_threshold)
    : slab_(slab), malloc_threshold_(malloc_threshold) {
  DOPPIO_CHECK(slab != nullptr);
}

Result<void*> HalAllocator::Allocate(int64_t bytes) {
  if (bytes <= 0) return Status::InvalidArgument("bad allocation size");
  if (bytes < malloc_threshold_) {
    void* p = std::malloc(static_cast<size_t>(bytes));
    if (p == nullptr) return Status::OutOfMemory("malloc failed");
    std::lock_guard<std::mutex> lock(mutex_);
    malloced_.insert(p);
    ++malloc_allocs_;
    MallocAllocsCounter().Add();
    return p;
  }
  DOPPIO_ASSIGN_OR_RETURN(void* p, slab_->Allocate(bytes));
  std::lock_guard<std::mutex> lock(mutex_);
  ++shared_allocs_;
  SharedAllocsCounter().Add();
  return p;
}

Status HalAllocator::Free(void* ptr) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = malloced_.find(ptr);
    if (it != malloced_.end()) {
      malloced_.erase(it);
      std::free(ptr);
      return Status::OK();
    }
  }
  return slab_->Free(ptr);
}

Hal::Hal(const Options& options) : options_(options) {
  arena_ = std::make_unique<SharedArena>(options_.shared_memory_bytes);
  slab_ = std::make_unique<SlabAllocator>(arena_.get());
  allocator_ = std::make_unique<HalAllocator>(slab_.get());
  bat_allocator_ =
      std::make_unique<HalAllocator>(slab_.get(), /*malloc_threshold=*/0);
  int threads = options_.functional_threads;
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  thread_pool_ = std::make_unique<ThreadPool>(threads);
  DevicePoolOptions pool_options;
  pool_options.num_devices = options_.num_devices;
  pool_options.device = options_.device;
  pool_options.device_faults = options_.device_faults;
  pool_ = std::make_unique<DevicePool>(pool_options, arena_.get(),
                                       thread_pool_.get());
  // AAL bootstrap, one session per pool member: verify each device's
  // regex AFU and establish its DSM page. Device 0 first, so a pool of
  // one performs exactly the single-device handshake.
  for (int i = 0; i < pool_->size(); ++i) {
    auto session = AalSession::Bootstrap(arena_.get(), pool_->device(i));
    DOPPIO_CHECK(session.ok());
    aal_sessions_.push_back(std::move(*session));
  }
}

Hal::~Hal() = default;

Result<JobParams> Hal::BuildRegexJobParams(const Bat& input, Bat* result,
                                           const RegexConfig& config) const {
  if (input.type() != ValueType::kString) {
    return Status::InvalidArgument("regex job input must be a string BAT");
  }
  if (result == nullptr || result->type() != ValueType::kInt16 ||
      result->count() != input.count()) {
    return Status::InvalidArgument(
        "result BAT must be a short BAT sized to the input");
  }
  JobParams params;
  params.offsets = input.tail_data();
  params.heap = input.heap()->data();
  params.result = result->mutable_tail_data();
  params.count = input.count();
  params.offset_width = static_cast<int32_t>(input.offset_width());
  params.heap_bytes = input.heap()->size_bytes();
  params.program = config.program;
  return params;
}

Result<FpgaJob> Hal::CreateRegexJob(const Bat& input, Bat* result,
                                    const RegexConfig& config) {
  DOPPIO_ASSIGN_OR_RETURN(JobParams params,
                          BuildRegexJobParams(input, result, config));
  FpgaDevice* device = pool_->device(0);
  DOPPIO_ASSIGN_OR_RETURN(JobId id, device->Submit(std::move(params)));
  return FpgaJob(device, id);
}

}  // namespace doppio
