// Unified statistics for the tiered LSM: enumerated monotonic tickers plus
// lock-striped latency histograms, collected behind one thread-safe
// Statistics object that can be shared by every layer (engine, tiered
// storage, persistent cache, WAL, benches).
//
// Cost model: a ticker bump is one relaxed atomic add; a histogram record is
// one striped mutex acquire (stripes are picked by thread, so concurrent
// recorders rarely contend). Every helper is null-safe: with
// Options::statistics unset the hot path does no atomic work and takes no
// clock readings at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/histogram.h"
#include "util/mutexlock.h"

namespace rocksmash {

// Monotonic event counters. Names (TickerName) use dotted lowercase, e.g.
// "block.cache.hit"; the exported forms are "rocksmash.<name>" (properties)
// and "rocksmash_<name_with_underscores>" (Prometheus).
enum Tickers : uint32_t {
  // RAM block cache (all tiers).
  BLOCK_CACHE_HIT = 0,
  BLOCK_CACHE_MISS,
  BLOOM_FILTER_USEFUL,

  // Engine read/write path.
  MEMTABLE_HIT,
  NUM_KEYS_READ,
  NUM_KEYS_WRITTEN,
  WAL_WRITES,
  WAL_BYTES,
  WAL_SYNCS,
  // Group WAL syncs started while another group's sync was in flight.
  WAL_SYNC_OVERLAPPED,

  // Block reads attributed to the tier that served them (tiered storage).
  LOCAL_BLOCK_READS,
  CLOUD_BLOCK_READS,

  // LSM-aware persistent cache (data region).
  PERSISTENT_CACHE_HIT,
  PERSISTENT_CACHE_MISS,
  // The data-block lookups of point reads (Get/MultiGet) alone, without
  // those of scans and compaction inputs: the user read path's hit ratio.
  PERSISTENT_CACHE_POINT_HIT,
  PERSISTENT_CACHE_POINT_MISS,
  PERSISTENT_CACHE_ADMIT,
  // A fetched block the frequency gate kept out: admitting it would have
  // evicted an LRU victim looked up at least as often.
  PERSISTENT_CACHE_ADMIT_REJECTED,
  PERSISTENT_CACHE_EVICTED_BYTES,
  // Live bytes of whole extents dropped to keep the disk footprint within
  // its bound (part of PERSISTENT_CACHE_EVICTED_BYTES, chosen by the
  // extent's live share rather than block heat).
  PERSISTENT_CACHE_FORCED_DROP_BYTES,
  PERSISTENT_CACHE_INVALIDATIONS,
  PERSISTENT_CACHE_GC_RUNS,
  PERSISTENT_CACHE_GC_BYTES_REWRITTEN,
  // Packed metadata region.
  PERSISTENT_CACHE_METADATA_HIT,
  PERSISTENT_CACHE_METADATA_MISS,

  // Cloud object operations issued by the tiered storage.
  CLOUD_GET_COUNT,
  CLOUD_GET_BYTES,
  CLOUD_PUT_COUNT,
  CLOUD_PUT_BYTES,
  CLOUD_READAHEAD_HIT,

  // Upload pipeline.
  CLOUD_UPLOADS_COMPLETED,
  CLOUD_UPLOAD_RETRIES,
  CLOUD_UPLOADS_PARKED,
  CLOUD_UPLOADS_CANCELLED,
  CLOUD_DOWNLOADS,
  // Best-effort cloud object deletes (orphan/demote cleanup) that failed
  // and left the object behind; nonzero values mean the bucket is accruing
  // garbage that costs storage until a future cleanup pass.
  CLOUD_DELETE_FAILED,
  HOT_FILE_PINS,

  // Background lanes.
  FLUSH_COUNT,
  FLUSH_LANE_BYTES_WRITTEN,
  COMPACTION_COUNT,
  COMPACTION_LANE_BYTES_READ,
  COMPACTION_LANE_BYTES_WRITTEN,
  COMPACTION_TRIVIAL_MOVES,

  // Write stalls in MakeRoomForWrite (per cause: episode count + time).
  STALL_L0_SLOWDOWN_COUNT,
  STALL_L0_SLOWDOWN_MICROS,
  STALL_MEMTABLE_WAIT_COUNT,
  STALL_MEMTABLE_WAIT_MICROS,
  STALL_L0_STOP_COUNT,
  STALL_L0_STOP_MICROS,

  // Startup recovery.
  RECOVERY_LOGS_REPLAYED,
  RECOVERY_RECORDS_REPLAYED,
  RECOVERY_BYTES_REPLAYED,
  RECOVERY_MEMTABLES_FLUSHED,

  // Batched reads (DB::MultiGet).
  MULTIGET_BATCHES,
  MULTIGET_KEYS,
  MULTIGET_MEMTABLE_HITS,
  // Duplicate data-block lookups within one batch served by a single fetch.
  MULTIGET_COALESCED_BLOCKS,
  // Cloud GETs issued concurrently (fan-out > 1) by the batched read path.
  MULTIGET_CLOUD_PARALLEL_GETS,

  // Write pipeline (group commit). WRITE_GROUP_SIZE is the cumulative
  // number of writers batched into groups; divided by WRITE_GROUPS it
  // yields the mean group size.
  WRITE_GROUPS,
  WRITE_GROUP_SIZE,
  // Sub-batches applied to the memtable by concurrent group members.
  WRITE_CONCURRENT_APPLIES,

  // Range-scan engine. Tables whose filter excluded a prefix-constrained
  // Seek so no data block was opened.
  SCAN_RUNS_SKIPPED,
  // Streaming readahead: prefetch batches issued / bytes requested / block
  // reads served from a completed or in-flight prefetch segment.
  SCAN_READAHEAD_ISSUED,
  SCAN_READAHEAD_BYTES,
  SCAN_READAHEAD_HITS,

  // Operation tracing (DB::StartTrace) and trace replay.
  TRACE_RECORDS_WRITTEN,
  TRACE_RECORDS_DROPPED,
  REPLAY_OPS_ISSUED,
  // Cumulative micros replay threads lagged behind the recorded timeline
  // (only accrues at recorded/scaled speed, never at max speed).
  REPLAY_BEHIND_US,

  // Key-value separation (BlobOptions::enable). Values split out of the LSM
  // at flush time / kept inline because they were under min_blob_size.
  BLOB_WRITE_SEPARATED,
  BLOB_WRITE_SEPARATED_BYTES,
  BLOB_WRITE_INLINE,
  // Blob records resolved on the read path (bytes are on-disk payload).
  BLOB_READ_COUNT,
  BLOB_READ_BYTES,
  BLOB_FILES_CREATED,
  // Compaction-driven blob GC: live bytes rewritten out of garbage-heavy
  // files, and blob files whose last live record was rewritten or dropped.
  BLOB_GC_REWRITTEN_BYTES,
  BLOB_GC_FILES_OBSOLETED,

  // Sharded DB (ShardedDB router over N engine shards). Multi-shard
  // batches split per shard / shards touched by each routed MultiGet.
  SHARD_WRITE_BATCHES_SPLIT,
  SHARD_MULTIGET_FANOUT,
  // Contended acquisitions of an LRU block-cache stripe mutex (the TryLock
  // fast path failed and the caller had to block). A hot counter here means
  // the stripes are too few for the shard count.
  SHARD_CACHE_STRIPE_CONTENTION,

  TICKER_ENUM_MAX,
};

// Latency/duration histograms (all in microseconds).
enum Histograms : uint32_t {
  GET_LATENCY_US = 0,
  WRITE_LATENCY_US,
  SCAN_SEEK_LATENCY_US,
  WAL_SYNC_LATENCY_US,
  CLOUD_GET_LATENCY_US,
  CLOUD_PUT_LATENCY_US,
  CLOUD_UPLOAD_JOB_LATENCY_US,
  FLUSH_LATENCY_US,
  COMPACTION_LATENCY_US,
  MANIFEST_WRITE_LATENCY_US,
  RECOVERY_REPLAY_LATENCY_US,
  RECOVERY_FLUSH_LATENCY_US,
  MULTIGET_LATENCY_US,  // Whole-batch latency, one sample per MultiGet.
  // Time a writer spent parked in the writer queue before its batch was
  // picked up (for grouped followers this covers the leader working on
  // their behalf). One sample per DB::Write call.
  WRITE_QUEUE_WAIT_US,
  // Duration of each stall episode in MakeRoomForWrite, any cause.
  WRITE_STALL_US,

  HISTOGRAM_ENUM_MAX,
};

// Dotted lowercase name of a ticker/histogram; "unknown" for out-of-range.
const char* TickerName(uint32_t ticker);
const char* HistogramName(uint32_t histogram);

// Thread-safe histogram: N mutex-striped Histograms picked by thread, merged
// into one plain Histogram on read. Writers on different threads rarely share
// a stripe, so concurrent Add() does not serialize behind a single lock.
class HistogramImpl {
 public:
  HistogramImpl() = default;
  HistogramImpl(const HistogramImpl&) = delete;
  HistogramImpl& operator=(const HistogramImpl&) = delete;

  void Add(double value);
  void Clear();

  // Merged copy of all stripes; consistent enough for reporting (stripes are
  // snapshotted one at a time).
  Histogram Snapshot() const;

  uint64_t Count() const;
  double Percentile(double p) const { return Snapshot().Percentile(p); }
  std::string ToString() const { return Snapshot().ToString(); }

 private:
  static constexpr int kStripes = 8;  // Power of two (index masks).
  struct Stripe {
    // Lock order: leaf. Per-stripe histogram lock; recorders hold it only
    // for the Add and never take another lock under it.
    mutable Mutex mu;
    Histogram histogram GUARDED_BY(mu);
  };
  Stripe stripes_[kStripes];
};

// The unified statistics object. Share one instance per DB (or per bench
// process); all methods are thread-safe.
class Statistics {
 public:
  Statistics();
  Statistics(const Statistics&) = delete;
  Statistics& operator=(const Statistics&) = delete;

  void RecordTick(uint32_t ticker, uint64_t count = 1) {
    if (ticker < TICKER_ENUM_MAX) {
      tickers_[ticker].fetch_add(count, std::memory_order_relaxed);
    }
  }
  uint64_t GetTickerCount(uint32_t ticker) const {
    return ticker < TICKER_ENUM_MAX
               ? tickers_[ticker].load(std::memory_order_relaxed)
               : 0;
  }

  void RecordInHistogram(uint32_t histogram, double value) {
    if (histogram < HISTOGRAM_ENUM_MAX) histograms_[histogram].Add(value);
  }
  Histogram GetHistogramSnapshot(uint32_t histogram) const;

  // Zeroes every ticker and histogram (benches reset between phases).
  void Reset();

  // One consistent-enough snapshot of every ticker, keyed by dotted name.
  // The structured accessor behind GetProperty's map overload and the
  // Prometheus dump, so all exports agree on names and values.
  void TickerMap(std::map<std::string, uint64_t>* out) const;

  // Human-readable dump: every ticker (including zeros) plus a percentile
  // line per non-empty histogram.
  std::string ToString() const;

  // Prometheus text exposition format: tickers as counters, histograms as
  // summaries (quantile series + _sum/_count). Metric names are
  // "rocksmash_<ticker_name>" with dots replaced by underscores.
  std::string DumpPrometheus() const;

 private:
  std::atomic<uint64_t> tickers_[TICKER_ENUM_MAX];
  HistogramImpl histograms_[HISTOGRAM_ENUM_MAX];
};

std::shared_ptr<Statistics> CreateDBStatistics();

// Null-safe helpers: the zero-stats configuration compiles down to a branch.
inline void RecordTick(Statistics* statistics, uint32_t ticker,
                       uint64_t count = 1) {
  if (statistics != nullptr) statistics->RecordTick(ticker, count);
}

inline void RecordInHistogram(Statistics* statistics, uint32_t histogram,
                              double value) {
  if (statistics != nullptr) statistics->RecordInHistogram(histogram, value);
}

// RAII timer recording elapsed micros into a histogram at scope exit. With a
// null Statistics it never touches the clock.
class StopWatch {
 public:
  StopWatch(Statistics* statistics, uint32_t histogram);
  ~StopWatch();

  StopWatch(const StopWatch&) = delete;
  StopWatch& operator=(const StopWatch&) = delete;

  // Elapsed micros so far (0 with a null Statistics).
  uint64_t ElapsedMicros() const;

 private:
  Statistics* const statistics_;
  const uint32_t histogram_;
  uint64_t start_micros_ = 0;
};

}  // namespace rocksmash
