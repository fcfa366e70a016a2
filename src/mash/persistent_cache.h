// PersistentCache: RocksMash's LSM-aware SSD cache for cloud-resident data
// blocks, plus the packed metadata region (MetadataStore).
//
// Admission comes first. Every data-block lookup, hit or miss, bumps a
// fixed-size frequency sketch (TinyLFU: a count-min sketch of 4-bit
// counters, all halved after every 10 lookups per budgeted block so old
// popularity fades). While the budget has room every fetched block is admitted. Once
// admitting a block would force an eviction, it gets in only if it has been
// looked up strictly more often than the LRU victim; otherwise it is not
// written at all (pcache.admit.rejected). A stream of one-touch blocks
// therefore cannot flush the hot set, and refused blocks leave no dead bytes.
//
// Eviction is then block-granular LRU in both layouts (hot blocks are
// spread across every SST under zipfian traffic, so whole-SST eviction would
// thrash); the layouts differ in how *invalidation* reclaims space:
//
//  * kCompactionAware (RocksMash): each cloud SST gets its own extent file.
//    Blocks of one SST are stored contiguously in arrival order. Evicted
//    blocks merely leave dead bytes in the extent; when compaction
//    obsoletes the SST, the whole extent is dropped with one file delete —
//    compaction itself is the garbage collector, so no log cleaning ever
//    runs. If invalidation lags far behind eviction and the disk footprint
//    passes 2x the budget, whole extents are force-dropped, lowest live
//    share first: each drop frees the most dead bytes per live byte lost.
//
//  * kGlobalLog (baseline layout): all blocks append to shared log files.
//    Both eviction and invalidation only mark bytes dead; dead bytes are
//    reclaimed by rewriting log files once their live fraction drops below
//    a threshold (classic log cleaning). Same admission and hit behaviour,
//    but reclamation consumes read+write bandwidth and invalidation is
//    O(blocks) — the costs RocksMash's layout removes.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mash/metadata_store.h"
#include "util/mutexlock.h"
#include "util/slice.h"
#include "util/status.h"

namespace rocksmash {

class Env;
class Statistics;
class EventListener;

enum class CacheLayout {
  kCompactionAware,
  kGlobalLog,
};

struct PersistentCacheOptions {
  std::string dir;
  Env* env = nullptr;
  // Total budget for cached *data* blocks (the metadata region is accounted
  // separately and never evicted in favour of data).
  uint64_t capacity_bytes = 64ull * 1024 * 1024;
  CacheLayout layout = CacheLayout::kCompactionAware;
  // kGlobalLog: rewrite a log file when live bytes fall below this fraction.
  double gc_live_fraction = 0.5;
  // kGlobalLog: size of one shared log file.
  uint64_t log_file_bytes = 8ull * 1024 * 1024;

  // Unified tickers (pcache.hit/miss/admit/...). Not owned; nullptr
  // disables. Usually the same object as DBOptions::statistics.
  Statistics* statistics = nullptr;

  // OnCacheEviction callbacks, fired with mu_ released after a PutBlock
  // whose eviction pass reclaimed bytes. Not owned; must outlive the cache.
  std::vector<EventListener*> listeners;
};

struct PersistentCacheStats {
  uint64_t data_bytes = 0;      // Live cached data bytes
  uint64_t disk_bytes = 0;      // Bytes occupied on disk (>= data for log)
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t admissions = 0;
  uint64_t admit_rejected = 0;  // Refused by the frequency gate
  uint64_t evicted_bytes = 0;
  uint64_t invalidations = 0;   // SSTs invalidated
  uint64_t invalidation_micros = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_bytes_rewritten = 0;
  uint64_t gc_micros = 0;
  MetadataStoreStats metadata;
};

class PersistentCache {
 public:
  explicit PersistentCache(const PersistentCacheOptions& options);
  ~PersistentCache();

  PersistentCache(const PersistentCache&) = delete;
  PersistentCache& operator=(const PersistentCache&) = delete;

  // ---- Metadata region ----
  Status AdmitMetadata(uint64_t sst, uint64_t metadata_offset,
                       uint64_t file_size, const Slice& tail) {
    return meta_.Admit(sst, metadata_offset, file_size, tail);
  }
  bool ReadMetadata(uint64_t sst, uint64_t offset, size_t n,
                    std::string* out) {
    return meta_.Read(sst, offset, n, out);
  }
  bool GetMetadataInfo(uint64_t sst, uint64_t* metadata_offset,
                       uint64_t* file_size) {
    return meta_.GetInfo(sst, metadata_offset, file_size);
  }

  // ---- Data region ----
  // Lookup raw block bytes (block + trailer as read from the file) cached
  // for (sst, offset). True on hit.
  bool GetBlock(uint64_t sst, uint64_t offset, std::string* out);

  // Index-only presence probe: true if (sst, offset) is cached, without
  // reading bytes, refreshing the LRU, or ticking hit/miss stats. Used by
  // the scan readahead path to avoid re-fetching locally cached ranges.
  bool HasBlock(uint64_t sst, uint64_t offset);

  // Index-only: where the run of back-to-back cached blocks that reaches
  // byte `end` - 1 starts, or `end` when the block holding that byte is not
  // cached. Lets a cloud readahead window leave out a cached run at its end.
  uint64_t CachedRunStart(uint64_t sst, uint64_t end);

  // Insert after a cloud fetch. Admitted while the budget has room, else
  // only if the block was looked up more often than the LRU victim (see the
  // header comment). May trigger eviction (and GC in kGlobalLog); fires
  // OnCacheEviction listeners (outside mu_) when bytes were reclaimed.
  void PutBlock(uint64_t sst, uint64_t offset, const Slice& raw);

  // The SST was deleted by compaction: drop metadata slab + all data blocks.
  void Invalidate(uint64_t sst);

  PersistentCacheStats GetStats() const;

 private:
  // Count-min sketch of block lookups keyed by (sst, offset): 4 rows of 4-bit
  // counters, 16 to a word. Sized from the cache budget at construction and
  // never grown; every counter is halved once the lookups since the last
  // halving reach a fixed multiple of the budget's block count, so the
  // estimate tracks recent popularity. Not thread-safe.
  class FrequencySketch {
   public:
    explicit FrequencySketch(uint64_t capacity_bytes);

    // Counts one lookup of the block.
    void Increment(uint64_t sst, uint64_t offset);
    // Recent lookups of the block (each halving halves the older ones),
    // capped at 15. Hash collisions can only raise it.
    uint32_t Estimate(uint64_t sst, uint64_t offset) const;

   private:
    static constexpr int kRows = 4;

    // Counter index of the block in `row`.
    uint64_t Slot(uint64_t hash, int row) const;
    void Age();

    std::vector<uint64_t> table_;  // kRows rows of (mask_ + 1) counters
    uint64_t mask_;
    uint64_t period_;  // Lookups between halvings
    uint64_t lookups_ = 0;
  };

  using LruList = std::list<std::pair<uint64_t, uint64_t>>;  // (sst, offset)

  struct BlockLoc {
    uint32_t file_id;  // Log file id (kGlobalLog); unused for extents
    uint64_t pos;
    uint32_t len;
    LruList::iterator lru_pos;
  };

  struct SstEntry {
    std::map<uint64_t, BlockLoc> blocks;  // block offset -> location
    uint64_t live_bytes = 0;
    uint64_t extent_bytes = 0;  // Bytes ever appended to the extent file
    // Extent-file generation. Readers drop the mutex during file I/O, so a
    // dropped + re-admitted SST must get a *new* extent path: a stale
    // (pos, len) against a recreated file would return the wrong bytes.
    // Unlinked files keep serving in-flight reads via the old inode.
    uint64_t generation = 0;
  };

  struct LogFile {
    uint32_t id;
    uint64_t written = 0;
    uint64_t live = 0;
  };

  std::string ExtentPath(uint64_t sst, uint64_t generation) const;
  std::string LogPath(uint32_t id) const;

  // PutBlock body; returns evicted bytes so the caller can notify listeners
  // after releasing mu_.
  uint64_t PutBlockImpl(uint64_t sst, uint64_t offset, const Slice& raw);

  // The frequency gate: true if a `len`-byte block fits the budget, or was
  // looked up strictly more often than the LRU victim it would displace.
  bool ShouldAdmitLocked(uint64_t sst, uint64_t offset, uint64_t len) const
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  // Block-granular LRU eviction (both layouts).
  void EvictIfNeededLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);
  // kCompactionAware: if dead bytes pile up past the overcommit bound
  // before compaction invalidates their extents, drop whole extents, lowest
  // live share first.
  void EnforceDiskBoundLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);
  void DropExtentLocked(uint64_t sst, SstEntry* entry)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  // kGlobalLog: classic log cleaning.
  void MaybeGarbageCollectLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);

  bool ReadAt(const std::string& path, uint64_t pos, uint32_t len,
              std::string* out);
  void MarkDeadInLogLocked(const BlockLoc& loc)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);

  PersistentCacheOptions options_;
  Env* env_;
  MetadataStore meta_;

  // Lock order: before MetadataStore::mu_ (GetStats nests it); after
  // TieredTableStorage::mu_ when invalidation is driven by Remove.
  mutable Mutex mu_;
  std::unordered_map<uint64_t, SstEntry> ssts_ GUARDED_BY(mu_);
  LruList lru_ GUARDED_BY(mu_);  // Front = coldest block
  FrequencySketch sketch_ GUARDED_BY(mu_);
  uint64_t next_extent_gen_ GUARDED_BY(mu_) = 0;

  // kCompactionAware: open extent writers + append positions (handles stay
  // open so appends accumulate; reads go through separate handles after a
  // Flush).
  struct ExtentWriter;
  std::unordered_map<uint64_t, std::unique_ptr<ExtentWriter>> extents_
      GUARDED_BY(mu_);

  // kGlobalLog state.
  std::vector<LogFile> logs_ GUARDED_BY(mu_);
  std::unique_ptr<ExtentWriter> active_log_file_ GUARDED_BY(mu_);
  uint32_t active_log_ GUARDED_BY(mu_) = 0;
  uint32_t next_log_id_ GUARDED_BY(mu_) = 0;

  PersistentCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace rocksmash
