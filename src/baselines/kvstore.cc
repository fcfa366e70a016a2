#include "baselines/kvstore.h"

#include <algorithm>
#include <list>
#include <map>
#include <mutex>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/sharded_db.h"
#include "mash/placement.h"

namespace rocksmash {

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kLocalOnly:
      return "LocalOnly";
    case SchemeKind::kCloudOnly:
      return "CloudOnly";
    case SchemeKind::kCloudSstCache:
      return "CloudSstCache";
    case SchemeKind::kRocksMash:
      return "RocksMash";
  }
  return "Unknown";
}

namespace {

// rocksdb-cloud-style storage: every SST uploads to the cloud; reads go
// through an LRU cache of *whole SST files* on local disk.
class CloudSstCacheStorage final : public TableStorage {
 public:
  CloudSstCacheStorage(Env* env, std::string local_dir, ObjectStore* cloud,
                       std::string cloud_prefix, uint64_t budget,
                       std::shared_ptr<SstFileCacheStats> stats)
      : env_(env),
        local_dir_(std::move(local_dir)),
        cloud_(cloud),
        cloud_prefix_(std::move(cloud_prefix)),
        budget_(budget),
        ext_stats_(std::move(stats)) {
    // why unchecked: an unusable dir fails the first staging-file create
    // with a better message; the constructor has no error channel.
    env_->CreateDirRecursively(local_dir_).PermitUncheckedError();
    env_->CreateDirRecursively(CacheDir()).PermitUncheckedError();
    // The file cache starts cold. Copies a previous run left in sstcache/
    // are not indexed: they would count against neither the budget nor
    // LocalBytes(), and one whose table is dropped before its next read
    // would never be deleted. Remove them.
    std::vector<std::string> stale;
    if (env_->GetChildren(CacheDir(), &stale).ok()) {
      for (const std::string& child : stale) {
        uint64_t number;
        FileType type;
        if (ParseFileName(child, &number, &type) &&
            type == FileType::kTableFile) {
          // why unchecked: a copy that survives only wastes disk; it is
          // overwritten if its table is read again.
          env_->RemoveFile(CachePath(number)).PermitUncheckedError();
        }
      }
    }
    // Restart path: every table lives in the bucket, so rediscover them
    // there. The obsolete-file scan finds tables only through ListTables,
    // so a table missing here would never be deleted.
    std::vector<ObjectMeta> objects;
    const std::string list_prefix =
        cloud_prefix_.empty() ? std::string() : cloud_prefix_ + "/";
    if (cloud_->List(list_prefix, &objects).ok()) {
      for (const auto& meta : objects) {
        uint64_t number;
        FileType type;
        const std::string base = meta.key.substr(meta.key.rfind('/') + 1);
        if (ParseFileName(base, &number, &type) &&
            type == FileType::kTableFile &&
            meta.key == CloudTableKey(cloud_prefix_, number)) {
          sizes_[number] = meta.size;
        }
      }
    }
  }

  Status NewStagingFile(uint64_t number,
                        std::unique_ptr<WritableFile>* file) override {
    return env_->NewWritableFile(TableFileName(local_dir_, number), file);
  }

  Status Install(uint64_t number, int /*level*/, uint64_t file_size,
                 uint64_t /*metadata_offset*/) override {
    std::string contents;
    Status s =
        ReadFileToString(env_, TableFileName(local_dir_, number), &contents);
    if (!s.ok()) return s;
    s = cloud_->Put(CloudTableKey(cloud_prefix_, number), contents);
    if (!s.ok()) return s;
    // why unchecked: the upload landed; the staging copy is dead weight
    // and a leaked file only wastes local disk.
    env_->RemoveFile(TableFileName(local_dir_, number)).PermitUncheckedError();

    MutexLock l(&mu_);
    sizes_[number] = file_size;
    stats_.uploads++;
    return Status::OK();
  }

  Status OpenTable(uint64_t number, std::unique_ptr<BlockSource>* source,
                   uint64_t* file_size) override {
    Status s = EnsureCached(number, file_size);
    if (!s.ok()) return s;
    std::unique_ptr<RandomAccessFile> file;
    s = env_->NewRandomAccessFile(CachePath(number), &file);
    if (!s.ok()) return s;
    *source = std::make_unique<OwningSource>(std::move(file));
    return Status::OK();
  }

  Status Remove(uint64_t number) override {
    {
      MutexLock l(&mu_);
      sizes_.erase(number);
      auto it = cached_.find(number);
      if (it != cached_.end()) {
        cache_bytes_ -= it->second;
        cached_.erase(it);
        lru_.remove(number);
        // why unchecked: the cache entry is unindexed; a leaked file only
        // wastes disk until the next restart.
        env_->RemoveFile(CachePath(number)).PermitUncheckedError();
        if (ext_stats_) ext_stats_->bytes = cache_bytes_;
      }
    }
    return cloud_->Delete(CloudTableKey(cloud_prefix_, number));
  }

  bool IsLocal(uint64_t /*number*/) const override { return false; }

  Status ListTables(std::vector<uint64_t>* numbers) override {
    numbers->clear();
    MutexLock l(&mu_);
    for (const auto& [number, size] : sizes_) {
      (void)size;
      numbers->push_back(number);
    }
    return Status::OK();
  }

  TableStorageStats GetStats() const override {
    MutexLock l(&mu_);
    TableStorageStats s = stats_;
    for (const auto& [n, size] : sizes_) {
      (void)n;
      s.cloud_bytes += size;
      s.cloud_files++;
    }
    s.local_bytes = cache_bytes_;
    s.local_files = cached_.size();
    return s;
  }

 private:
  class OwningSource final : public BlockSource {
   public:
    explicit OwningSource(std::unique_ptr<RandomAccessFile> file)
        : file_(std::move(file)), source_(file_.get()) {}
    Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                     BlockContents* result) override {
      return source_.ReadBlock(handle, kind, result);
    }
    Status ReadRaw(uint64_t offset, size_t n, std::string* out) override {
      return source_.ReadRaw(offset, n, out);
    }

   private:
    std::unique_ptr<RandomAccessFile> file_;
    FileBlockSource source_;
  };

  std::string CacheDir() const { return local_dir_ + "/sstcache"; }
  std::string CachePath(uint64_t number) const {
    return TableFileName(CacheDir(), number);
  }

  Status EnsureCached(uint64_t number, uint64_t* file_size) {
    MutexLock l(&mu_);
    auto it = cached_.find(number);
    if (it != cached_.end()) {
      // Hit: refresh LRU.
      lru_.remove(number);
      lru_.push_back(number);
      *file_size = it->second;
      if (ext_stats_) ext_stats_->hits++;
      return Status::OK();
    }
    if (ext_stats_) ext_stats_->misses++;

    // Miss: download the whole file (the file-granularity cost).
    std::string contents;
    Status s = cloud_->Get(CloudTableKey(cloud_prefix_, number), &contents);
    if (!s.ok()) return s;
    stats_.downloads++;
    s = WriteStringToFile(env_, contents, CachePath(number), /*sync=*/false);
    if (!s.ok()) return s;

    cached_[number] = contents.size();
    cache_bytes_ += contents.size();
    lru_.push_back(number);
    *file_size = contents.size();

    while (cache_bytes_ > budget_ && lru_.size() > 1) {
      uint64_t victim = lru_.front();
      lru_.pop_front();
      auto vit = cached_.find(victim);
      if (vit != cached_.end()) {
        cache_bytes_ -= vit->second;
        cached_.erase(vit);
        // why unchecked: eviction is best-effort; see Remove above.
        env_->RemoveFile(CachePath(victim)).PermitUncheckedError();
        if (ext_stats_) ext_stats_->evictions++;
      }
    }
    if (ext_stats_) ext_stats_->bytes = cache_bytes_;
    return Status::OK();
  }

  Env* env_;
  std::string local_dir_;
  ObjectStore* cloud_;
  std::string cloud_prefix_;
  uint64_t budget_;
  std::shared_ptr<SstFileCacheStats> ext_stats_;

  // Lock order: after DBImpl::mutex_, before the object store's and Env's
  // locks. Guards the table and cache maps, and is not a leaf:
  // EnsureCached holds it across the whole-file cloud GET and the local
  // copy's write, which serializes every table open of this store behind
  // a miss.
  mutable Mutex mu_;
  std::map<uint64_t, uint64_t> sizes_
      GUARDED_BY(mu_);  // All live tables (cloud), number->size
  std::map<uint64_t, uint64_t> cached_
      GUARDED_BY(mu_);  // Locally cached, number->size
  std::list<uint64_t> lru_ GUARDED_BY(mu_);  // Front = coldest
  uint64_t cache_bytes_ GUARDED_BY(mu_) = 0;
  TableStorageStats stats_ GUARDED_BY(mu_);
};

}  // namespace

std::unique_ptr<TableStorage> NewCloudSstCacheStorage(
    Env* env, const std::string& local_dir, ObjectStore* cloud,
    const std::string& cloud_prefix, uint64_t cache_budget_bytes,
    std::shared_ptr<SstFileCacheStats> stats) {
  return std::make_unique<CloudSstCacheStorage>(
      env, local_dir, cloud, cloud_prefix, cache_budget_bytes,
      std::move(stats));
}

KVStoreStats KVStore::Stats() const {
  KVStoreStats s;
  for (const auto& storage : storages_) {
    TableStorageStats ss = storage->GetStats();
    s.storage.local_bytes += ss.local_bytes;
    s.storage.cloud_bytes += ss.cloud_bytes;
    s.storage.local_files += ss.local_files;
    s.storage.cloud_files += ss.cloud_files;
    s.storage.uploads += ss.uploads;
    s.storage.downloads += ss.downloads;
    s.storage.pending_uploads += ss.pending_uploads;
  }
  if (options_.cloud != nullptr) {
    s.cloud_ops = options_.cloud->Counters();
  }
  s.block_cache = block_cache_->GetStats();
  if (pcache_ != nullptr) {
    s.persistent_cache = pcache_->GetStats();
  }
  for (const auto& fcs : file_cache_stats_) {
    s.file_cache_hits += fcs->hits;
    s.file_cache_misses += fcs->misses;
    s.file_cache_bytes += fcs->bytes;
  }
  s.recovery = db_->GetRecoveryStats();
  return s;
}

Status OpenKVStore(const SchemeOptions& options,
                   std::unique_ptr<KVStore>* store) {
  store->reset();
  if (options.kind != SchemeKind::kLocalOnly && options.cloud == nullptr) {
    return Status::InvalidArgument(std::string(SchemeName(options.kind)) +
                                   " requires an object store");
  }
  // table_storage and wal_manager are refused by PrepareShards.
  if (options.block_cache != nullptr) {
    return Status::InvalidArgument(
        "OpenKVStore", "block_cache is built from block_cache_bytes");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::unique_ptr<KVStore> kv(new KVStore(options));
  kv->options_.env = env;

  DBOptions base = kv->options_;
  // The baselines log to one WAL file; kRocksMash stripes its eWAL.
  if (options.kind != SchemeKind::kRocksMash) base.wal_segments = 1;

  // Shards get one SharedResources sized from these knobs: one block-cache
  // budget and one cloud pool pair for the whole group.
  SharedResourcesOptions resources;
  resources.block_cache_bytes = options.block_cache_bytes;
  resources.upload_threads = std::max(options.upload_threads, 2);
  const int num_shards = std::max(1, options.num_shards);
  std::vector<ShardedDB::ShardSpec> specs;
  Status s = ShardedDB::PrepareShards(base, options.local_dir, num_shards,
                                      resources, &specs);
  if (!s.ok()) return s;

  std::shared_ptr<SharedResources> shared = specs[0].options.shared_resources;
  kv->shared_resources_ = shared;
  if (shared != nullptr) {
    kv->block_cache_ = shared->block_cache();
  } else {
    kv->owned_block_cache_ = NewLRUCache(options.block_cache_bytes);
    kv->block_cache_ = kv->owned_block_cache_.get();
  }

  if (options.kind == SchemeKind::kRocksMash) {
    // One persistent cache for every shard: shards namespace their file ids
    // into it via TieredStorageOptions::cache_namespace.
    PersistentCacheOptions pc;
    pc.dir = options.local_dir + "/pcache";
    pc.env = env;
    pc.capacity_bytes = options.local_cache_bytes;
    pc.layout = options.cache_layout;
    pc.statistics = options.statistics;
    pc.listeners = options.listeners;
    kv->pcache_ = std::make_unique<PersistentCache>(pc);
    if (shared != nullptr) {
      shared->set_persistent_cache(kv->pcache_.get());
    }
  }

  for (size_t i = 0; i < specs.size(); i++) {
    ShardedDB::ShardSpec& spec = specs[i];
    // Shards allocate file numbers independently, so cloud-backed schemes
    // need per-shard object prefixes to keep the bucket keys disjoint.
    const std::string cloud_prefix =
        specs.size() > 1 ? "tables/shard-" + std::to_string(i) : "tables";

    TieredStorageOptions ts;
    ts.local_dir = spec.path;
    ts.env = env;
    ts.cloud = options.cloud;
    ts.cloud_prefix = cloud_prefix;
    ts.cloud_readahead_bytes = options.cloud_readahead_bytes;
    if (shared != nullptr) {
      ts.upload_pool = shared->upload_pool();
      ts.fetch_pool = shared->cloud_fetch_pool();
    }
    ts.statistics = options.statistics;
    ts.listeners = options.listeners;

    switch (options.kind) {
      case SchemeKind::kLocalOnly:
        kv->storages_.push_back(NewLocalTableStorage(env, spec.path));
        break;
      case SchemeKind::kCloudOnly:
        // Everything in the cloud and no persistent cache.
        ts.cloud_level_start = 0;
        kv->storages_.push_back(std::make_unique<TieredTableStorage>(ts));
        break;
      case SchemeKind::kCloudSstCache: {
        // The whole-file cache budget is a store-wide number, split evenly
        // (floored so tiny configs stay usable).
        kv->file_cache_stats_.push_back(std::make_shared<SstFileCacheStats>());
        const uint64_t budget = std::max<uint64_t>(
            options.local_cache_bytes / specs.size(), 1024 * 1024);
        kv->storages_.push_back(NewCloudSstCacheStorage(
            env, spec.path, options.cloud, cloud_prefix, budget,
            kv->file_cache_stats_.back()));
        break;
      }
      case SchemeKind::kRocksMash:
        ts.cloud_level_start = options.cloud_level_start;
        ts.persistent_cache = kv->pcache_.get();
        ts.cache_namespace = i;
        ts.pin_hot_files = options.pin_hot_files;
        ts.async_uploads = options.async_uploads;
        ts.upload_threads = options.upload_threads;
        kv->storages_.push_back(std::make_unique<TieredTableStorage>(ts));
        break;
    }
    spec.options.table_storage = kv->storages_.back().get();
    spec.options.block_cache = kv->block_cache_;
  }

  s = ShardedDB::Open(specs, &kv->db_);
  if (!s.ok()) return s;
  *store = std::move(kv);
  return Status::OK();
}

Status BackupToCloud(KVStore* store, const std::string& backup_prefix) {
  const SchemeOptions& options = store->options();
  if (options.kind != SchemeKind::kRocksMash) {
    return Status::InvalidArgument("backup requires a RocksMash store");
  }
  if (options.num_shards > 1) {
    return Status::NotSupported("backup of a sharded store");
  }
  // A flush makes the WAL redundant for the snapshot: everything live is in
  // SSTs + MANIFEST afterwards.
  Status s = store->FlushMemTable();
  if (!s.ok()) return s;
  store->WaitForCompaction();

  Env* env = options.env;
  ObjectStore* cloud = options.cloud;

  // Upload CURRENT, the manifest it names, and every local-tier SST. The
  // object set under backup_prefix fully describes the snapshot; cloud-tier
  // SSTs are referenced in place under the normal table prefix.
  std::string current;
  s = ReadFileToString(env, CurrentFileName(options.local_dir), &current);
  if (!s.ok()) return s;
  s = cloud->Put(backup_prefix + "/CURRENT", current);
  if (!s.ok()) return s;

  std::string manifest_name = current.substr(0, current.find('\n'));
  std::string manifest;
  s = ReadFileToString(env, options.local_dir + "/" + manifest_name,
                       &manifest);
  if (!s.ok()) return s;
  s = cloud->Put(backup_prefix + "/" + manifest_name, manifest);
  if (!s.ok()) return s;

  std::vector<std::string> children;
  s = env->GetChildren(options.local_dir, &children);
  if (!s.ok()) return s;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type) ||
        type != FileType::kTableFile) {
      continue;
    }
    std::string contents;
    s = ReadFileToString(env, options.local_dir + "/" + child, &contents);
    if (!s.ok()) return s;
    s = cloud->Put(backup_prefix + "/" + child, contents);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status RestoreFromCloud(const SchemeOptions& options,
                        const std::string& backup_prefix,
                        std::unique_ptr<KVStore>* store) {
  store->reset();
  if (options.kind != SchemeKind::kRocksMash || options.cloud == nullptr) {
    return Status::InvalidArgument(
        "restore requires a RocksMash store with an object store");
  }
  if (options.num_shards > 1) {
    return Status::NotSupported("restore of a sharded store");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  ObjectStore* cloud = options.cloud;

  if (env->FileExists(CurrentFileName(options.local_dir))) {
    return Status::InvalidArgument(options.local_dir,
                                   "already contains a store");
  }
  Status dir_status = env->CreateDirRecursively(options.local_dir);
  if (!dir_status.ok() && !env->FileExists(options.local_dir)) {
    return dir_status;
  }

  // Materialize every backup object into the local directory: CURRENT, the
  // manifest, and the local-tier SSTs. The rest of the tree stays in the
  // bucket and is discovered by the tiered storage on open.
  std::vector<ObjectMeta> objects;
  Status s = cloud->List(backup_prefix + "/", &objects);
  if (!s.ok()) return s;
  if (objects.empty()) {
    return Status::NotFound("no backup under", backup_prefix);
  }
  for (const auto& meta : objects) {
    std::string contents;
    s = cloud->Get(meta.key, &contents);
    if (!s.ok()) return s;
    const std::string base = meta.key.substr(backup_prefix.size() + 1);
    s = WriteStringToFile(env, contents, options.local_dir + "/" + base,
                          /*sync=*/true);
    if (!s.ok()) return s;
  }

  return OpenKVStore(options, store);
}

}  // namespace rocksmash
