// KVStore: the one store and the one open path for the four schemes the
// evaluation compares.
//
//   kLocalOnly     — everything on local storage (performance ceiling,
//                    cost ceiling).
//   kCloudOnly     — every SST in the object store; only the RAM block
//                    cache between reads and the cloud (floor).
//   kCloudSstCache — rocksdb-cloud-style "state of the art": SSTs in the
//                    cloud plus an LRU of *whole SST files* on local disk.
//                    File-granular caching wastes local bytes on cold blocks
//                    of hot files and re-downloads entire files on misses.
//   kRocksMash     — the paper's system: tiered placement + LSM-aware
//                    block-granular persistent cache + packed metadata
//                    region + eWAL.
//
// All four run the same engine and differ only in the TableStorage (and, for
// kRocksMash, the persistent cache and eWAL) OpenKVStore plugs into it, so
// measured differences are policy, not implementation noise.
//
// Quickstart:
//   auto cloud = NewSimObjectStore("/tmp/bucket", SystemClock::Default());
//   SchemeOptions opt;  // kind = kRocksMash
//   opt.local_dir = "/tmp/db";
//   opt.cloud = cloud.get();
//   std::unique_ptr<KVStore> store;
//   Status s = OpenKVStore(opt, &store);
//   s = store->Put(WriteOptions(), "key", "value");
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "lsm/db.h"
#include "lsm/shared_resources.h"
#include "lsm/storage.h"
#include "mash/persistent_cache.h"

namespace rocksmash {

enum class SchemeKind {
  kLocalOnly,
  kCloudOnly,
  kCloudSstCache,
  kRocksMash,
};

const char* SchemeName(SchemeKind kind);

// The options of a store: every engine knob of DBOptions (one field each,
// documented there) plus the scheme and placement policy below. OpenKVStore
// builds table_storage, wal_manager and block_cache itself, so a caller must
// leave those three null. Two engine defaults differ from DBOptions': see
// the constructor.
struct SchemeOptions : DBOptions {
  SchemeOptions() {
    // Fairness of the CloudSstCache baseline: an open reader pins its cached
    // file (open fd) even after the file cache evicts it, so an unbounded
    // table cache would silently grant that scheme unlimited local space.
    max_open_files = 100;
    // eWAL segments per shard for kRocksMash; the baselines always run 1.
    wal_segments = 4;
  }

  SchemeKind kind = SchemeKind::kRocksMash;
  std::string local_dir;
  // Required for all but kLocalOnly; OpenKVStore returns InvalidArgument
  // without it.
  ObjectStore* cloud = nullptr;

  // Local byte budget for the scheme's cache: the persistent cache
  // (kRocksMash) or the whole-file cache (kCloudSstCache).
  uint64_t local_cache_bytes = 64ull * 1024 * 1024;

  // Cloud range-GET readahead window for cloud-resident tables (kRocksMash
  // and kCloudOnly): what a table iterator fetches on a block miss, and the
  // widest run of adjacent misses a MultiGet merges into one GET. Point Gets
  // fetch exactly the block whatever this is.
  uint64_t cloud_readahead_bytes = 256 * 1024;

  // kRocksMash knobs.
  int cloud_level_start = 2;
  CacheLayout cache_layout = CacheLayout::kCompactionAware;
  bool pin_hot_files = false;
  // Async upload pipeline (kRocksMash): cloud-level installs enqueue their
  // PUT on an upload pool and serve reads from the local staging copy until
  // durable (see TieredStorageOptions). Disable for the synchronous-upload
  // ablation baseline.
  bool async_uploads = true;
  int upload_threads = 2;

  // > 1: hash-partition the key space over this many engine shards behind a
  // ShardedDB router, all schemes. Each shard gets its own directory under
  // local_dir (and cloud prefix for cloud-backed schemes); the block cache,
  // statistics, and background lanes come from ONE SharedResources (the
  // caller's shared_resources, else one sized from the knobs here) so the
  // memory and thread budgets do not scale with the shard count. The count
  // persists in a local_dir/SHARDS marker; reopening with a different count
  // fails. See DESIGN.md "Sharding & shared resources".
  int num_shards = 1;

  // Size of the RAM block cache the store builds (shared by every shard).
  size_t block_cache_bytes = 8 * 1024 * 1024;
};

// Counters of the whole-SST-file cache storage (kCloudSstCache).
struct SstFileCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes = 0;
  uint64_t evictions = 0;
};

struct KVStoreStats {
  TableStorageStats storage;  // Summed over the shards
  ObjectStore::OpCounters cloud_ops;
  Cache::Stats block_cache;
  PersistentCacheStats persistent_cache;  // kRocksMash only
  uint64_t file_cache_hits = 0;           // kCloudSstCache only
  uint64_t file_cache_misses = 0;
  uint64_t file_cache_bytes = 0;
  RecoveryStats recovery;

  // The store's footprint on local disk: local-tier tables, persistent-cache
  // extents and metadata slabs, and whole-file cache copies. The local
  // figure to price with CostMeter::MonthlyCost.
  uint64_t LocalBytes() const {
    return storage.local_bytes + persistent_cache.disk_bytes +
           persistent_cache.metadata.bytes + file_cache_bytes;
  }
};

// A store: one engine DB (a ShardedDB router when num_shards > 1) plus the
// scheme's per-shard table storages, eWALs and persistent cache, all owned
// here. The data path — including the batched MultiGet and the unique_ptr
// iterator API — forwards to db(). Built only by OpenKVStore.
class KVStore {
 public:
  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  // The engine underneath the scheme (owned by the store, never null).
  DB* db() const { return db_.get(); }

  const char* Name() const { return SchemeName(options_.kind); }
  KVStoreStats Stats() const;

  // The options this store was opened with (env resolved).
  const SchemeOptions& options() const { return options_; }

  // The Statistics object this store was opened with (nullptr if none).
  Statistics* statistics() const { return options_.statistics; }

  // DB-shaped core, forwarded to db().
  Status Put(const WriteOptions& o, const Slice& key, const Slice& value) {
    return db_->Put(o, key, value);
  }
  Status Delete(const WriteOptions& o, const Slice& key) {
    return db_->Delete(o, key);
  }
  Status Write(const WriteOptions& o, WriteBatch* batch) {
    return db_->Write(o, batch);
  }
  Status Get(const ReadOptions& o, const Slice& key, PinnableSlice* value) {
    return db_->Get(o, key, value);
  }
  Status Get(const ReadOptions& o, const Slice& key, std::string* value) {
    return db_->Get(o, key, value);
  }
  void MultiGet(const ReadOptions& o, const std::vector<Slice>& keys,
                std::vector<PinnableSlice>* values,
                std::vector<Status>* statuses) {
    db_->MultiGet(o, keys, values, statuses);
  }
  void MultiGet(const ReadOptions& o, const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) {
    db_->MultiGet(o, keys, values, statuses);
  }
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& o) {
    return db_->NewIterator(o);
  }
  Status FlushMemTable() { return db_->FlushMemTable(); }
  // Also drains every shard's pending cloud uploads.
  void WaitForCompaction() { db_->WaitForCompaction(); }

  // Operation tracing (see docs/TRACING.md).
  Status StartTrace(const trace::TraceOptions& trace_options,
                    const std::string& trace_file_path) {
    return db_->StartTrace(trace_options, trace_file_path);
  }
  Status EndTrace() { return db_->EndTrace(); }

  // Engine introspection ("rocksmash.stats", "rocksmash.prometheus",
  // "rocksmash.ticker.<name>", ...), string- and map-valued.
  bool GetProperty(const Slice& property, std::string* value) {
    return db_->GetProperty(property, value);
  }
  bool GetProperty(const Slice& property,
                   std::map<std::string, std::string>* value) {
    return db_->GetProperty(property, value);
  }

 private:
  friend Status OpenKVStore(const SchemeOptions& options,
                            std::unique_ptr<KVStore>* store);
  explicit KVStore(const SchemeOptions& options) : options_(options) {}

  SchemeOptions options_;
  // Members are destroyed bottom-up: the engine first (it uses the
  // storages), then the storages, the persistent cache they read through,
  // and last the shared pools everything may schedule on.
  std::shared_ptr<SharedResources> shared_resources_;
  // Owned when the store has no SharedResources; block_cache_ points at
  // the cache the engine uses either way.
  std::unique_ptr<Cache> owned_block_cache_;
  Cache* block_cache_ = nullptr;
  std::unique_ptr<PersistentCache> pcache_;  // kRocksMash only
  // One per shard (a single entry when num_shards == 1).
  std::vector<std::unique_ptr<TableStorage>> storages_;
  // kCloudSstCache: one counter block per shard, so concurrent shards never
  // race on a shared struct; Stats() sums them.
  std::vector<std::shared_ptr<SstFileCacheStats>> file_cache_stats_;
  std::unique_ptr<DB> db_;
};

// Opens (or creates) the store `options` describes: the one open path for
// every scheme and shard count. Cloud-backed schemes without
// options.cloud, and shard counts that contradict the store's SHARDS
// marker, return InvalidArgument.
Status OpenKVStore(const SchemeOptions& options,
                   std::unique_ptr<KVStore>* store);

// Disaster recovery for a single-shard kRocksMash store: flushes, drains
// uploads, then puts CURRENT, its manifest and every local-tier SST under
// `backup_prefix` in the store's bucket (cloud-tier SSTs are already there
// and are shared, not copied). After OK the store is reconstructible from
// the bucket alone.
Status BackupToCloud(KVStore* store,
                     const std::string& backup_prefix = "backup");

// Rebuilds a single-shard kRocksMash store from a BackupToCloud snapshot
// into options.local_dir, which must not hold a store yet, then opens it.
// NotFound when there is no backup under `backup_prefix`.
//
// The snapshot is zero-copy for cloud-tier SSTs: the restored store
// references the same table objects. Run the original OR the restore
// against a bucket, never both — either side's compaction deletes objects
// the other still references.
Status RestoreFromCloud(const SchemeOptions& options,
                        const std::string& backup_prefix,
                        std::unique_ptr<KVStore>* store);

// The rocksdb-cloud-style whole-SST-file cache storage, exposed for direct
// testing.
std::unique_ptr<TableStorage> NewCloudSstCacheStorage(
    Env* env, const std::string& local_dir, ObjectStore* cloud,
    const std::string& cloud_prefix, uint64_t cache_budget_bytes,
    std::shared_ptr<SstFileCacheStats> stats = nullptr);

}  // namespace rocksmash
