#include "sched/program_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {
namespace sched {

namespace {

obs::Counter& HitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.program_cache.hits",
      "compiled-program cache lookups served from cache");
  return *c;
}

obs::Counter& MissesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.program_cache.misses",
      "compiled-program cache lookups that compiled cold");
  return *c;
}

obs::Counter& EvictionsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.program_cache.evictions",
      "compiled programs evicted by LRU capacity pressure");
  return *c;
}

obs::Counter& AliasSharesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.program_cache.alias_shares",
      "textually distinct patterns aliased onto an existing compiled slot");
  return *c;
}

obs::Counter& ReadoptionsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.program_cache.readoptions",
      "misses re-adopting an evicted-but-still-referenced program instead "
      "of keeping a second live copy");
  return *c;
}

obs::Gauge& SizeGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.sched.program_cache.size",
      "live compiled programs: resident LRU slots plus evicted entries "
      "still referenced by an in-flight wave");
  return *g;
}

obs::Gauge& LiveBytesGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.sched.program_cache.live_bytes",
      "estimated bytes of all live compiled programs (resident + "
      "evicted-but-referenced)");
  return *g;
}

obs::Counter& SetHitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.cache_hits",
      "set-program cache lookups served from cache");
  return *c;
}

obs::Counter& SetMissesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.cache_misses",
      "set-program cache lookups that compiled the union cold");
  return *c;
}

obs::Histogram& SetSizeHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.sched.set_compile.size", obs::DepthBuckets(),
      "distinct member patterns per compiled set program");
  return *h;
}

std::string FingerprintOf(const RegexConfig& config) {
  const std::vector<uint8_t>& bytes = config.vector.bytes();
  return std::string(bytes.begin(), bytes.end());
}

// The compiled kernel structures (DFA cache, NFA tables, literal stage)
// are not byte-introspectable; charge a fixed overhead per entry on top
// of the exact config-vector footprint.
constexpr int64_t kEntryOverheadBytes = 256;

int64_t EntryBytes(const CachedProgram& entry) {
  return static_cast<int64_t>(entry.config.vector.bytes().size()) +
         static_cast<int64_t>(entry.fingerprint.size()) + kEntryOverheadBytes;
}

}  // namespace

int CachedSetProgram::StreamOf(std::string_view fingerprint) const {
  for (size_t i = 0; i < member_fingerprints.size(); ++i) {
    if (member_fingerprints[i] == fingerprint) return static_cast<int>(i);
  }
  return -1;
}

ProgramCache::ProgramCache(const DeviceConfig& device, int capacity)
    : device_(device), capacity_(capacity) {
  DOPPIO_CHECK(capacity_ >= 1);
  // Instantiate the live-accounting gauges so they report 0 (not absent)
  // before the first insert.
  SizeGauge();
  LiveBytesGauge();
}

std::string ProgramCache::MakeKey(std::string_view pattern,
                                  const CompileOptions& options) {
  // '\x1f' (unit separator) cannot appear in a well-formed pattern flagged
  // field, so the key is injective over (pattern, options).
  std::string key(pattern);
  key += '\x1f';
  key += options.case_insensitive ? 'i' : '-';
  key += options.anchor_start ? '^' : '-';
  key += options.anchor_end ? '$' : '-';
  for (const auto& [a, b] : options.collation_equivalents) {
    key += static_cast<char>(a);
    key += static_cast<char>(b);
  }
  return key;
}

Result<std::shared_ptr<const CachedProgram>> ProgramCache::GetOrCompile(
    std::string_view pattern, const CompileOptions& options) {
  std::string key = MakeKey(pattern, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_alias_.find(key);
    if (it != by_alias_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
      ++hits_;
      HitsCounter().Add();
      return it->second->entry;
    }
  }

  // Compile outside the lock: concurrent misses on the same key may race
  // to compile, but programs are immutable and the insert below re-checks,
  // so the worst case is one redundant compilation, never two entries.
  auto entry = std::make_shared<CachedProgram>();
  DOPPIO_ASSIGN_OR_RETURN(entry->config,
                          CompileRegexConfig(pattern, device_, options));
  entry->fingerprint = FingerprintOf(entry->config);

  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  MissesCounter().Add();
  auto it = by_alias_.find(key);
  if (it != by_alias_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->entry;
  }
  // Fingerprint aliasing: a textually new pattern whose compiled program
  // already lives in the cache shares that slot instead of occupying a
  // second one. The redundant compilation is discarded — callers get the
  // original immutable entry, so all aliases execute the same program.
  auto fp = by_fingerprint_.find(entry->fingerprint);
  if (fp != by_fingerprint_.end()) {
    lru_.splice(lru_.begin(), lru_, fp->second);
    fp->second->aliases.push_back(key);
    by_alias_.emplace(std::move(key), fp->second);
    AliasSharesCounter().Add();
    return fp->second->entry;
  }
  // Re-adoption: the fingerprint was evicted but an in-flight wave still
  // holds the program. Re-inserting the original pointer (not the fresh
  // redundant compilation) keeps exactly one live copy — without this, a
  // re-insert while the evicted copy is referenced double-counts the
  // program's memory, and its textual aliases would later re-register as
  // fresh alias_shares against the duplicate slot.
  std::shared_ptr<const CachedProgram> slot_entry;
  for (auto evicted = evicted_live_.begin(); evicted != evicted_live_.end();) {
    if (evicted->first != entry->fingerprint) {
      ++evicted;
      continue;
    }
    slot_entry = evicted->second.lock();
    evicted = evicted_live_.erase(evicted);
    if (slot_entry != nullptr) break;  // released copies fall through
  }
  if (slot_entry != nullptr) {
    ++readoptions_;
    ReadoptionsCounter().Add();
  } else {
    slot_entry = std::shared_ptr<const CachedProgram>(std::move(entry));
  }
  lru_.emplace_front();
  lru_.front().entry = slot_entry;
  lru_.front().aliases.push_back(key);
  by_alias_.emplace(std::move(key), lru_.begin());
  by_fingerprint_.emplace(slot_entry->fingerprint, lru_.begin());
  if (static_cast<int>(lru_.size()) > capacity_) {
    const Node& victim = lru_.back();
    for (const std::string& alias : victim.aliases) by_alias_.erase(alias);
    by_fingerprint_.erase(victim.entry->fingerprint);
    // The victim's program may outlive the slot (a wave holds it): keep a
    // weak ref so live accounting still sees it and a re-insert can
    // re-adopt it.
    evicted_live_.emplace_back(victim.entry->fingerprint, victim.entry);
    lru_.pop_back();
    ++evictions_;
    EvictionsCounter().Add();
  }
  PruneEvictedLocked();
  RefreshGaugesLocked();
  return slot_entry;
}

Result<std::shared_ptr<const CachedSetProgram>> ProgramCache::GetOrCompileSet(
    const std::vector<std::shared_ptr<const CachedProgram>>& members) {
  if (members.empty()) {
    return Status::InvalidArgument("empty pattern set");
  }
  for (const auto& member : members) {
    if (member == nullptr) {
      return Status::InvalidArgument("null pattern-set member");
    }
  }
  // Canonical order: sorted unique fingerprints. Any permutation (or
  // textual aliasing) of the same member set resolves to the same key and
  // the same stream assignment.
  std::vector<std::string> fingerprints;
  fingerprints.reserve(members.size());
  for (const auto& member : members) {
    fingerprints.push_back(member->fingerprint);
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  fingerprints.erase(
      std::unique(fingerprints.begin(), fingerprints.end()),
      fingerprints.end());
  // '\x1e' (record separator) never appears in config-vector bytes at a
  // member boundary ambiguity: the encoding is length-framed, so joined
  // fingerprints are injective over the member multiset.
  std::string key;
  for (const std::string& fingerprint : fingerprints) {
    key += fingerprint;
    key += '\x1e';
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = set_index_.find(key);
    if (it != set_index_.end()) {
      set_lru_.splice(set_lru_.begin(), set_lru_, it->second);
      ++set_hits_;
      SetHitsCounter().Add();
      return it->second->second;
    }
  }

  // Compile the union outside the lock, in canonical member order.
  auto entry = std::make_shared<CachedSetProgram>();
  entry->member_fingerprints = fingerprints;
  std::vector<const TokenNfa*> nfas;
  nfas.reserve(fingerprints.size());
  for (const std::string& fingerprint : fingerprints) {
    const CachedProgram* found = nullptr;
    for (const auto& member : members) {
      if (member->fingerprint == fingerprint) {
        found = member.get();
        break;
      }
    }
    nfas.push_back(&found->config.nfa);
  }
  DOPPIO_ASSIGN_OR_RETURN(entry->config,
                          CompileRegexSetConfig(nfas, device_));

  std::lock_guard<std::mutex> lock(mutex_);
  ++set_misses_;
  SetMissesCounter().Add();
  SetSizeHistogram().Observe(static_cast<double>(fingerprints.size()));
  auto it = set_index_.find(key);
  if (it != set_index_.end()) {
    set_lru_.splice(set_lru_.begin(), set_lru_, it->second);
    return it->second->second;
  }
  set_lru_.emplace_front(std::move(key), std::move(entry));
  set_index_.emplace(set_lru_.front().first, set_lru_.begin());
  if (static_cast<int>(set_lru_.size()) > capacity_) {
    set_index_.erase(set_lru_.back().first);
    set_lru_.pop_back();
  }
  return set_lru_.front().second;
}

int64_t ProgramCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t ProgramCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

int64_t ProgramCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

int64_t ProgramCache::set_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return set_hits_;
}

int64_t ProgramCache::set_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return set_misses_;
}

int ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(lru_.size());
}

int ProgramCache::set_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(set_lru_.size());
}

int ProgramCache::live_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int live = static_cast<int>(lru_.size());
  for (const auto& [fingerprint, weak] : evicted_live_) {
    if (!weak.expired()) ++live;
  }
  return live;
}

int64_t ProgramCache::live_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return LiveBytesLocked();
}

int64_t ProgramCache::readoptions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return readoptions_;
}

void ProgramCache::PruneEvictedLocked() {
  for (auto it = evicted_live_.begin(); it != evicted_live_.end();) {
    it = it->second.expired() ? evicted_live_.erase(it) : std::next(it);
  }
}

int64_t ProgramCache::LiveBytesLocked() const {
  int64_t bytes = 0;
  for (const Node& node : lru_) bytes += EntryBytes(*node.entry);
  for (const auto& [fingerprint, weak] : evicted_live_) {
    if (std::shared_ptr<const CachedProgram> live = weak.lock()) {
      bytes += EntryBytes(*live);
    }
  }
  return bytes;
}

void ProgramCache::RefreshGaugesLocked() {
  int64_t live = static_cast<int64_t>(lru_.size());
  for (const auto& [fingerprint, weak] : evicted_live_) {
    if (!weak.expired()) ++live;
  }
  SizeGauge().Set(live);
  LiveBytesGauge().Set(LiveBytesLocked());
}

std::vector<std::string> ProgramCache::KeysMruFirst() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Node& node : lru_) keys.push_back(node.aliases.front());
  return keys;
}

}  // namespace sched
}  // namespace doppio
