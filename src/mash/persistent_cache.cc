#include "mash/persistent_cache.h"

#include <algorithm>
#include <cstring>

#include "env/env.h"
#include "trace/span.h"
#include "util/clock.h"
#include "util/event_listener.h"
#include "util/metrics.h"
#include "util/perf_context.h"

namespace rocksmash {

namespace {

// The sketch is sized as if the budget held blocks of this size (the
// default table block size), but never for fewer than kMinSketchBlocks.
constexpr uint64_t kNominalBlockBytes = 4 * 1024;
constexpr uint64_t kMinSketchBlocks = 1024;
// Counters per row per budgeted block, and lookups per budgeted block
// between halvings (TinyLFU's sample size).
constexpr uint64_t kCountersPerBlock = 4;
constexpr uint64_t kLookupsPerBlockPerAging = 10;
constexpr uint64_t kMaxCount = 15;
constexpr uint64_t kHalveMask = 0x7777777777777777ull;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t BlockHash(uint64_t sst, uint64_t offset) {
  return Mix64(sst * 0x9e3779b97f4a7c15ull + Mix64(offset));
}

}  // namespace

PersistentCache::FrequencySketch::FrequencySketch(uint64_t capacity_bytes) {
  const uint64_t blocks =
      std::max(capacity_bytes / kNominalBlockBytes, kMinSketchBlocks);
  uint64_t width = 16;
  while (width < blocks * kCountersPerBlock) width <<= 1;
  mask_ = width - 1;
  period_ = blocks * kLookupsPerBlockPerAging;
  table_.assign(kRows * width / 16, 0);
}

uint64_t PersistentCache::FrequencySketch::Slot(uint64_t hash,
                                                int row) const {
  // Double hashing: row i probes lo + i * hi.
  const uint64_t hi = (hash >> 32) | 1;
  return static_cast<uint64_t>(row) * (mask_ + 1) +
         ((hash + static_cast<uint64_t>(row) * hi) & mask_);
}

void PersistentCache::FrequencySketch::Increment(uint64_t sst,
                                                 uint64_t offset) {
  const uint64_t hash = BlockHash(sst, offset);
  for (int row = 0; row < kRows; row++) {
    const uint64_t slot = Slot(hash, row);
    const int shift = static_cast<int>(slot & 15) * 4;
    uint64_t& word = table_[slot >> 4];
    if (((word >> shift) & kMaxCount) < kMaxCount) word += uint64_t{1} << shift;
  }
  if (++lookups_ >= period_) Age();
}

uint32_t PersistentCache::FrequencySketch::Estimate(uint64_t sst,
                                                    uint64_t offset) const {
  const uint64_t hash = BlockHash(sst, offset);
  uint64_t count = kMaxCount;
  for (int row = 0; row < kRows; row++) {
    const uint64_t slot = Slot(hash, row);
    count = std::min(count, (table_[slot >> 4] >> ((slot & 15) * 4)) &
                                kMaxCount);
  }
  return static_cast<uint32_t>(count);
}

void PersistentCache::FrequencySketch::Age() {
  for (uint64_t& word : table_) word = (word >> 1) & kHalveMask;
  lookups_ = 0;
}

struct PersistentCache::ExtentWriter {
  std::unique_ptr<WritableFile> file;
  uint64_t pos = 0;
};

PersistentCache::PersistentCache(const PersistentCacheOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      meta_(env_, options.dir + "/meta"),
      sketch_(options.capacity_bytes) {
  // why unchecked: an unusable cache dir turns every admit into a miss;
  // the first admit write reports the real error via its own status.
  env_->CreateDirRecursively(options_.dir).PermitUncheckedError();
  env_->CreateDirRecursively(options_.dir + "/data").PermitUncheckedError();
  // The data-region index is in-memory; stale extent/log files from a prior
  // incarnation are unreachable, so clear them (the metadata region, which
  // is self-describing on disk, is preserved and warm).
  std::vector<std::string> children;
  if (env_->GetChildren(options_.dir + "/data", &children).ok()) {
    for (const auto& child : children) {
      // why unchecked: best-effort purge of unreachable files from a prior
      // incarnation; leftovers waste disk but are never read.
      env_->RemoveFile(options_.dir + "/data/" + child).PermitUncheckedError();
    }
  }
}

PersistentCache::~PersistentCache() = default;

std::string PersistentCache::ExtentPath(uint64_t sst,
                                        uint64_t generation) const {
  return options_.dir + "/data/extent-" + std::to_string(sst) + "-" +
         std::to_string(generation) + ".cache";
}

std::string PersistentCache::LogPath(uint32_t id) const {
  return options_.dir + "/data/log-" + std::to_string(id) + ".cache";
}

bool PersistentCache::ReadAt(const std::string& path, uint64_t pos,
                             uint32_t len, std::string* out) {
  std::unique_ptr<RandomAccessFile> file;
  if (!env_->NewRandomAccessFile(path, &file).ok()) return false;
  out->resize(len);
  Slice result;
  if (!file->Read(pos, len, &result, out->data()).ok()) return false;
  if (result.size() != len) return false;
  if (result.data() != out->data()) {
    memmove(out->data(), result.data(), len);
  }
  return true;
}

bool PersistentCache::GetBlock(uint64_t sst, uint64_t offset,
                               std::string* out) {
  BlockLoc loc;
  std::string path;
  {
    MutexLock l(&mu_);
    sketch_.Increment(sst, offset);
    auto it = ssts_.find(sst);
    if (it == ssts_.end()) {
      stats_.misses++;
      RecordTick(options_.statistics, PERSISTENT_CACHE_MISS);
      PerfCount(&PerfContext::persistent_cache_miss_count);
      return false;
    }
    auto bit = it->second.blocks.find(offset);
    if (bit == it->second.blocks.end()) {
      stats_.misses++;
      RecordTick(options_.statistics, PERSISTENT_CACHE_MISS);
      PerfCount(&PerfContext::persistent_cache_miss_count);
      return false;
    }
    loc = bit->second;
    // Refresh LRU (block-granular).
    lru_.splice(lru_.end(), lru_, bit->second.lru_pos);
    path = options_.layout == CacheLayout::kCompactionAware
               ? ExtentPath(sst, it->second.generation)
               : LogPath(loc.file_id);
  }
  if (!ReadAt(path, loc.pos, loc.len, out)) {
    RecordTick(options_.statistics, PERSISTENT_CACHE_MISS);
    PerfCount(&PerfContext::persistent_cache_miss_count);
    MutexLock l(&mu_);
    stats_.misses++;
    return false;
  }
  RecordTick(options_.statistics, PERSISTENT_CACHE_HIT);
  PerfCount(&PerfContext::persistent_cache_hit_count);
  MutexLock l(&mu_);
  stats_.hits++;
  return true;
}

bool PersistentCache::HasBlock(uint64_t sst, uint64_t offset) {
  MutexLock l(&mu_);
  auto it = ssts_.find(sst);
  return it != ssts_.end() && it->second.blocks.count(offset) > 0;
}

uint64_t PersistentCache::CachedRunStart(uint64_t sst, uint64_t end) {
  MutexLock l(&mu_);
  auto sit = ssts_.find(sst);
  if (sit == ssts_.end()) return end;
  const std::map<uint64_t, BlockLoc>& blocks = sit->second.blocks;
  uint64_t start = end;
  for (auto it = blocks.lower_bound(end); it != blocks.begin();) {
    --it;
    if (it->first + it->second.len < start) break;  // a gap before `start`
    start = it->first;
  }
  return start;
}

void PersistentCache::PutBlock(uint64_t sst, uint64_t offset,
                               const Slice& raw) {
  if (raw.size() > options_.capacity_bytes) return;
  trace::SpanTimer admit_span(trace::kSpanPcacheAdmit);
  admit_span.set_bytes(raw.size());
  admit_span.set_detail(sst);
  const uint64_t evicted_delta = PutBlockImpl(sst, offset, raw);
  // Listener fan-out happens with mu_ released: one aggregate notification
  // per Put whose eviction pass reclaimed bytes.
  if (evicted_delta > 0) {
    RecordTick(options_.statistics, PERSISTENT_CACHE_EVICTED_BYTES,
               evicted_delta);
    if (trace::SpanHub::Instance()->armed()) {
      // Eviction happens inside the admit above; record it as a point event
      // at the admission's end with the reclaimed byte count.
      trace::EmitSpan(trace::kSpanPcacheEvict,
                      SystemClock::Default()->NowMicros(), 0, evicted_delta,
                      sst);
    }
    if (!options_.listeners.empty()) {
      CacheEvictionInfo info;
      info.evicted_bytes = evicted_delta;
      for (EventListener* listener : options_.listeners) {
        listener->OnCacheEviction(info);
      }
    }
  }
}

uint64_t PersistentCache::PutBlockImpl(uint64_t sst, uint64_t offset,
                                       const Slice& raw) {
  MutexLock l(&mu_);
  const uint64_t evicted_before = stats_.evicted_bytes;

  auto sit = ssts_.find(sst);
  if (sit != ssts_.end() && sit->second.blocks.count(offset) > 0) {
    return 0;  // Already cached.
  }
  if (!ShouldAdmitLocked(sst, offset, raw.size())) {
    stats_.admit_rejected++;
    RecordTick(options_.statistics, PERSISTENT_CACHE_ADMIT_REJECTED);
    return 0;
  }
  SstEntry& entry = sit != ssts_.end() ? sit->second : ssts_[sst];

  BlockLoc loc;
  loc.len = static_cast<uint32_t>(raw.size());

  if (options_.layout == CacheLayout::kCompactionAware) {
    auto& writer = extents_[sst];
    if (writer == nullptr) {
      writer = std::make_unique<ExtentWriter>();
      entry.generation = next_extent_gen_++;
      if (!env_->NewWritableFile(ExtentPath(sst, entry.generation),
                                 &writer->file)
               .ok()) {
        extents_.erase(sst);
        return 0;
      }
    }
    loc.file_id = 0;
    loc.pos = writer->pos;
    if (!writer->file->Append(raw).ok() || !writer->file->Flush().ok()) {
      return 0;
    }
    writer->pos += raw.size();
    entry.extent_bytes += raw.size();
    stats_.disk_bytes += raw.size();
  } else {
    // Global log layout.
    if (active_log_file_ == nullptr ||
        active_log_file_->pos >= options_.log_file_bytes) {
      active_log_ = next_log_id_++;
      active_log_file_ = std::make_unique<ExtentWriter>();
      if (!env_->NewWritableFile(LogPath(active_log_), &active_log_file_->file)
               .ok()) {
        active_log_file_.reset();
        return 0;
      }
      logs_.push_back(LogFile{active_log_, 0, 0});
    }
    loc.file_id = active_log_;
    loc.pos = active_log_file_->pos;
    if (!active_log_file_->file->Append(raw).ok() ||
        !active_log_file_->file->Flush().ok()) {
      return 0;
    }
    active_log_file_->pos += raw.size();
    for (auto& lf : logs_) {
      if (lf.id == active_log_) {
        lf.written += raw.size();
        lf.live += raw.size();
        break;
      }
    }
    stats_.disk_bytes += raw.size();
  }

  loc.lru_pos = lru_.insert(lru_.end(), {sst, offset});
  entry.blocks[offset] = loc;
  entry.live_bytes += raw.size();
  stats_.data_bytes += raw.size();
  stats_.admissions++;
  RecordTick(options_.statistics, PERSISTENT_CACHE_ADMIT);

  EvictIfNeededLocked();
  if (options_.layout == CacheLayout::kCompactionAware) {
    EnforceDiskBoundLocked();
  } else {
    MaybeGarbageCollectLocked();
  }
  return stats_.evicted_bytes - evicted_before;
}

void PersistentCache::MarkDeadInLogLocked(const BlockLoc& loc) {
  for (auto& lf : logs_) {
    if (lf.id == loc.file_id) {
      lf.live -= loc.len;
      break;
    }
  }
}

bool PersistentCache::ShouldAdmitLocked(uint64_t sst, uint64_t offset,
                                        uint64_t len) const {
  if (stats_.data_bytes + len <= options_.capacity_bytes || lru_.empty()) {
    return true;
  }
  // Strictly greater: on a tie the resident stays, so blocks of equal
  // popularity do not churn each other through the budget.
  const auto& [victim_sst, victim_offset] = lru_.front();
  return sketch_.Estimate(sst, offset) >
         sketch_.Estimate(victim_sst, victim_offset);
}

void PersistentCache::EvictIfNeededLocked() {
  // Block-granular LRU. Evicted bytes become dead space: reclaimed by
  // compaction-driven invalidation (kCompactionAware) or log GC
  // (kGlobalLog).
  while (stats_.data_bytes > options_.capacity_bytes && !lru_.empty()) {
    auto [sst, offset] = lru_.front();
    auto it = ssts_.find(sst);
    if (it == ssts_.end()) {
      lru_.pop_front();
      continue;
    }
    auto bit = it->second.blocks.find(offset);
    if (bit == it->second.blocks.end()) {
      lru_.pop_front();
      continue;
    }
    const BlockLoc loc = bit->second;
    stats_.data_bytes -= loc.len;
    stats_.evicted_bytes += loc.len;
    it->second.live_bytes -= loc.len;
    if (options_.layout == CacheLayout::kGlobalLog) {
      MarkDeadInLogLocked(loc);
    }
    it->second.blocks.erase(bit);
    lru_.pop_front();

    if (it->second.blocks.empty()) {
      // No live blocks: the extent (if any) is pure garbage; drop it now.
      if (options_.layout == CacheLayout::kCompactionAware) {
        DropExtentLocked(sst, &it->second);
      }
      ssts_.erase(it);
    }
  }
}

void PersistentCache::DropExtentLocked(uint64_t sst, SstEntry* entry) {
  stats_.disk_bytes -= entry->extent_bytes;
  entry->extent_bytes = 0;
  extents_.erase(sst);
  // why unchecked: the extent is unindexed from this point; a leaked file
  // is purged by the next startup scan.
  env_->RemoveFile(ExtentPath(sst, entry->generation)).PermitUncheckedError();
}

void PersistentCache::EnforceDiskBoundLocked() {
  // Dead bytes in extents normally vanish when compaction deletes the SST.
  // If the disk footprint nevertheless exceeds the overcommit bound, drop
  // whole extents (their live blocks become misses). This must
  // run even when only ONE SST is cached: a single hot SST cycling
  // admit/evict appends dead bytes to its extent without bound otherwise.
  const uint64_t bound = options_.capacity_bytes * 2;
  while (stats_.disk_bytes > bound) {
    // The victim is the extent with the lowest live share: dropping it frees
    // the most dead bytes per live (possibly hot) byte lost.
    auto victim = ssts_.end();
    for (auto it = ssts_.begin(); it != ssts_.end(); ++it) {
      const SstEntry& e = it->second;
      if (e.extent_bytes == 0) continue;
      if (victim == ssts_.end() ||
          static_cast<double>(e.live_bytes) * victim->second.extent_bytes <
              static_cast<double>(victim->second.live_bytes) *
                  e.extent_bytes) {
        victim = it;
      }
    }
    if (victim == ssts_.end()) break;
    const uint64_t victim_sst = victim->first;
    // Unlink the victim's blocks from the LRU and accounting.
    uint64_t live_dropped = 0;
    for (auto& [off, loc] : victim->second.blocks) {
      (void)off;
      lru_.erase(loc.lru_pos);
      stats_.data_bytes -= loc.len;
      stats_.evicted_bytes += loc.len;
      live_dropped += loc.len;
    }
    RecordTick(options_.statistics, PERSISTENT_CACHE_FORCED_DROP_BYTES,
               live_dropped);
    DropExtentLocked(victim_sst, &victim->second);
    ssts_.erase(victim);
  }
}

void PersistentCache::MaybeGarbageCollectLocked() {
  const uint64_t gc_start = SystemClock::Default()->NowMicros();
  // Rewrite any sealed log whose live fraction dropped below the threshold.
  for (size_t i = 0; i < logs_.size();) {
    LogFile lf = logs_[i];
    const bool sealed = lf.id != active_log_;
    if (!sealed || lf.written == 0 ||
        static_cast<double>(lf.live) / static_cast<double>(lf.written) >=
            options_.gc_live_fraction) {
      ++i;
      continue;
    }

    // Copy live blocks of this log into the active log.
    stats_.gc_runs++;
    RecordTick(options_.statistics, PERSISTENT_CACHE_GC_RUNS);
    const std::string old_path = LogPath(lf.id);
    for (auto& [sst, entry] : ssts_) {
      (void)sst;
      for (auto& [off, loc] : entry.blocks) {
        (void)off;
        if (loc.file_id != lf.id) continue;
        std::string data;
        if (!ReadAt(old_path, loc.pos, loc.len, &data)) continue;

        // Append to active log (rotating if full).
        if (active_log_file_ == nullptr ||
            active_log_file_->pos >= options_.log_file_bytes) {
          active_log_ = next_log_id_++;
          active_log_file_ = std::make_unique<ExtentWriter>();
          if (!env_->NewWritableFile(LogPath(active_log_),
                                     &active_log_file_->file)
                   .ok()) {
            active_log_file_.reset();
            continue;
          }
          logs_.push_back(LogFile{active_log_, 0, 0});
        }
        uint64_t new_pos = active_log_file_->pos;
        if (!active_log_file_->file->Append(data).ok() ||
            !active_log_file_->file->Flush().ok()) {
          continue;
        }
        active_log_file_->pos += data.size();
        for (auto& alf : logs_) {
          if (alf.id == active_log_) {
            alf.written += data.size();
            alf.live += data.size();
            break;
          }
        }
        loc.file_id = active_log_;
        loc.pos = new_pos;
        stats_.gc_bytes_rewritten += data.size();
        RecordTick(options_.statistics, PERSISTENT_CACHE_GC_BYTES_REWRITTEN,
                   data.size());
        stats_.disk_bytes += data.size();
      }
    }

    // Drop the old log file.
    stats_.disk_bytes -= lf.written;
    // why unchecked: live blocks were rewritten above; the stale log is
    // unindexed and purged by the next startup scan if the unlink fails.
    env_->RemoveFile(old_path).PermitUncheckedError();
    for (size_t j = 0; j < logs_.size(); j++) {
      if (logs_[j].id == lf.id) {
        logs_.erase(logs_.begin() + static_cast<long>(j));
        break;
      }
    }
    i = 0;  // Restart: the vector changed.
  }
  stats_.gc_micros += SystemClock::Default()->NowMicros() - gc_start;
}

void PersistentCache::Invalidate(uint64_t sst) {
  const uint64_t start = SystemClock::Default()->NowMicros();
  meta_.Invalidate(sst);
  MutexLock l(&mu_);
  auto it = ssts_.find(sst);
  if (it != ssts_.end()) {
    for (auto& [off, loc] : it->second.blocks) {
      (void)off;
      lru_.erase(loc.lru_pos);
      stats_.data_bytes -= loc.len;
      if (options_.layout == CacheLayout::kGlobalLog) {
        MarkDeadInLogLocked(loc);
      }
    }
    if (options_.layout == CacheLayout::kCompactionAware) {
      // Compaction-aware reclamation: one file delete frees the extent —
      // live and dead bytes alike — with no data movement.
      DropExtentLocked(sst, &it->second);
    } else {
      MaybeGarbageCollectLocked();
    }
    ssts_.erase(it);
  }
  stats_.invalidations++;
  RecordTick(options_.statistics, PERSISTENT_CACHE_INVALIDATIONS);
  stats_.invalidation_micros += SystemClock::Default()->NowMicros() - start;
}

PersistentCacheStats PersistentCache::GetStats() const {
  MutexLock l(&mu_);
  PersistentCacheStats s = stats_;
  s.metadata = meta_.GetStats();
  return s;
}

}  // namespace rocksmash
