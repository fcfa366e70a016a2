// Options controlling the engine. One engine serves RocksMash and all three
// baselines: the difference is which TableStorage / WalManager / caches are
// plugged in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/cache.h"
#include "util/comparator.h"
#include "util/status.h"

namespace rocksmash {

class Env;
class TableStorage;
class WalManager;
class FilterPolicy;
class Logger;
class PrefixExtractor;
class SharedResources;
class Snapshot;
class Statistics;
class EventListener;

// Key-value separation knobs (see DESIGN.md "Value separation"), the
// DBOptions::blob field (SchemeOptions inherits it), checked by
// ValidateBlobOptions at DB::Open.
struct BlobOptions {
  // Master switch: off keeps every value inline in the SSTs.
  bool enable = false;

  // Values of at least this many bytes are written to a blob file at flush
  // time; smaller values stay inline. Must be >= 1.
  size_t min_blob_size = 4 * 1024;

  // Target size of a blob file: the flush/compaction blob writer rolls to a
  // new file once the current one crosses this. Must be > 0.
  uint64_t blob_file_size = 8 * 1024 * 1024;

  // Garbage-ratio threshold for compaction-driven GC: once a blob file's
  // dropped bytes reach this fraction of its payload, compactions that
  // touch its live records rewrite them into a fresh blob file so the old
  // file can be deleted. Must be in [0, 1]; 1 disables GC.
  double blob_gc_age_cutoff = 0.5;

  // Per-record LZ compression of blob records (kept only when it saves
  // >= 12.5%, like table blocks). Readers auto-detect from the record
  // trailer, so toggling is always safe.
  bool blob_compression = true;
};

// The one validation path for BlobOptions. Returns InvalidArgument naming
// the offending field.
Status ValidateBlobOptions(const BlobOptions& blob);

struct DBOptions {
  // Comparator over user keys. Must outlive the DB.
  const Comparator* comparator = BytewiseComparator::Instance();

  // Local environment: WAL, MANIFEST, CURRENT, and table staging always live
  // here (the paper keeps metadata and the WAL on local storage).
  Env* env = nullptr;  // defaults to Env::Default()

  // Where table files live after installation. nullptr: plain local storage
  // in the DB directory. The RocksMash tiered storage and the cloud
  // baselines are provided via this hook. Not owned.
  TableStorage* table_storage = nullptr;

  // Number of eWAL segment files the DB's log is striped over (see
  // lsm/wal.h). Also the number of recovery lanes: each segment replays on
  // its own thread into its own memtable, and each such memtable is flushed
  // on its own thread (both bounded by the host's cores). Values < 1 are
  // treated as 1.
  int wal_segments = 1;

  // Test seam: a WalManager to use instead of the eWAL the DB builds from
  // wal_segments (tests wrap one to control its syncs). Not owned.
  WalManager* wal_manager = nullptr;

  // RAM block cache shared across tables. Not owned; nullptr: 8 MiB default
  // cache owned by the DB.
  Cache* block_cache = nullptr;

  // Process-wide pools this DB draws from (see lsm/shared_resources.h).
  // When set, null block_cache/statistics fall back to the shared ones and
  // background flush/compaction jobs run on the shared lanes instead of
  // DB-owned pools (max_background_flushes/compactions are then ignored).
  // Shared — every shard of a ShardedDB holds the same object.
  std::shared_ptr<SharedResources> shared_resources;

  // Bloom filter bits per key; 0 disables filters.
  int filter_bits_per_key = 10;

  // Prefix extractor over user keys (see util/prefix_extractor.h). When set
  // (and filters are enabled), SST filters additionally store one entry per
  // distinct key prefix, and Seeks with ReadOptions::prefix_same_as_start
  // skip runs whose filter excludes the seek prefix. Not owned; must
  // outlive the DB; nullptr disables prefix filtering.
  const PrefixExtractor* prefix_extractor = nullptr;

  // Memtable size that triggers a flush.
  size_t write_buffer_size = 4 * 1024 * 1024;

  // Target size of level-1+ table files.
  uint64_t max_file_size = 2 * 1024 * 1024;

  // Bytes budget of level 1; level L holds 10^(L-1) times this.
  uint64_t max_bytes_for_level_base = 10 * 1024 * 1024;

  size_t block_size = 4 * 1024;
  int block_restart_interval = 16;

  // Per-block LZ compression of table blocks (kept only when it saves
  // >= 12.5%). Readers auto-detect, so toggling is always safe.
  bool compress_blocks = true;

  // Key-value separation (validated by ValidateBlobOptions at DB::Open).
  BlobOptions blob;

  // Number of open tables kept in the table cache.
  int max_open_files = 1000;

  // Background job lanes. Flushes and compactions run on separate owned
  // thread pools so a memtable flush never queues behind a long compaction
  // (and its cloud uploads): MakeRoomForWrite stalls only on genuine L0
  // backpressure. At most one flush and one compaction job are in flight at
  // a time (the version set serializes manifest commits); extra lane
  // threads absorb scheduling bursts. Values < 1 are sanitized to 1.
  int max_background_flushes = 1;
  int max_background_compactions = 1;

  // Upper bound on the bytes BuildBatchGroup merges into one WAL record
  // (RocksDB's max_write_batch_group_size_bytes). Leaders whose own batch is
  // under 1/8 of this stop at own-size + 1/8 so a small write is not delayed
  // behind a huge group. Smaller caps mean more, smaller groups — more
  // frequent syncs, but also more overlap between one group's WAL stage and
  // the previous group's memtable apply (DESIGN.md "Write pipeline"). Values
  // < 1 are sanitized to the default.
  size_t max_write_group_bytes = 1 << 20;

  bool create_if_missing = true;
  bool error_if_exists = false;

  // Fail Open on a WAL replay error instead of logging and dropping it.
  // Block CRCs are checked on every read regardless.
  bool paranoid_checks = false;

  Logger* info_log = nullptr;

  // Unified tickers + latency histograms (see util/metrics.h). Not owned;
  // nullptr disables all statistics collection (the hot path then does no
  // atomic work). Share one object across DB, tiered storage, and persistent
  // cache for a whole-system view.
  Statistics* statistics = nullptr;

  // Lifecycle callbacks (see util/event_listener.h). Not owned; must outlive
  // the DB. Invoked from background threads with no DB lock held.
  std::vector<EventListener*> listeners;

  // > 0: a background thread logs statistics->ToString() through info_log
  // every this-many seconds. Requires statistics and info_log to be set.
  uint32_t stats_dump_period_sec = 0;
};

struct ReadOptions {
  // Non-null: read as of this snapshot. Null: read the latest state.
  const Snapshot* snapshot = nullptr;

  // Batched reads (DB::MultiGet).
  //
  // Upper bound on concurrent cloud GETs one table may have in flight while
  // a MultiGet fills its coalesced block misses. The bound is per table
  // call, not per batch: Version::MultiGet visits a level's tables one
  // after another, so a batch whose keys fall in N cold tables pays about
  // N serial GET rounds. 1 serializes the GETs within a table; values < 1
  // are treated as 1.
  int max_cloud_fan_out = 8;

  // Range scans (DB::NewIterator).
  //
  // With a DBOptions::prefix_extractor configured, a Seek whose target is
  // in the extractor's domain promises that the scan only consumes keys
  // sharing the target's prefix: the iterator becomes invalid at the first
  // key with a different prefix, and SST runs whose filter excludes the
  // prefix are skipped without being opened (scan.runs.skipped). The
  // resulting scan is forward-only: Prev() after such a Seek invalidates
  // the iterator, because skipped runs prove nothing about keys that sort
  // before the seek target. SeekToFirst/SeekToLast leave prefix mode.
  bool prefix_same_as_start = false;

  // Byte budget for streaming scan readahead: once a table iterator
  // detects sequential block access, upcoming data blocks are prefetched
  // asynchronously (cloud sources coalesce them into range GETs on the
  // shared fetch pool), double-buffered ahead of the cursor with a window
  // that grows on streak and resets on seek, never holding more than this
  // many bytes ahead of the cursor. 0 disables streaming readahead.
  uint64_t scan_readahead_bytes = 1 << 20;
};

struct WriteOptions {
  // fsync the WAL before acking. Matches RocksDB semantics.
  bool sync = false;
};

}  // namespace rocksmash
