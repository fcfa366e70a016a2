// TieredTableStorage: RocksMash's placement policy.
//
//  * Levels < cloud_level_start stay on local storage (small, hot, absorb
//    most reads and all flush/compaction churn).
//  * Levels >= cloud_level_start upload to the object store at install time
//    (asynchronously when async_uploads is on: the file serves reads from
//    its local staging copy until the PUT is durable) and then drop the
//    local copy; their metadata tail is persisted into the local packed
//    metadata region at the same moment (so cloud SSTs never pay a cloud
//    read for index/filter/footer), and their data blocks are cached on
//    local SSD by the LSM-aware persistent cache.
//  * Optional heat-based pinning: a cloud file whose access count crosses
//    `pin_after_accesses` is downloaded and kept local while the pin budget
//    lasts (E11 ablation).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cloud/object_store.h"
#include "lsm/storage.h"
#include "mash/persistent_cache.h"
#include "util/mutexlock.h"

namespace rocksmash {

class Clock;
class Env;
class ThreadPool;
class Statistics;
class EventListener;

struct TieredStorageOptions {
  // Directory for staging + local-tier table files.
  std::string local_dir;
  Env* env = nullptr;  // default Env::Default()

  // Object store for the cloud tier (not owned).
  ObjectStore* cloud = nullptr;
  // Key prefix ("bucket/path") for table objects.
  std::string cloud_prefix = "tables";

  // First level whose files live in the cloud. 0 = everything cloud
  // (the CloudOnly baseline uses this); kNumLevels = everything local.
  int cloud_level_start = 2;

  // Persistent cache for cloud blocks; nullptr disables caching (CloudOnly).
  PersistentCache* persistent_cache = nullptr;

  // Heat pinning.
  bool pin_hot_files = false;
  uint64_t pin_after_accesses = 64;
  uint64_t pin_budget_bytes = 64ull * 1024 * 1024;

  // Cloud read-ahead: a table iterator's data-block miss fetches up to this
  // many bytes in one range GET and serves subsequent blocks from the buffer
  // — scans pay the per-request latency once per readahead window instead
  // of once per block. Also bounds MultiGet miss coalescing. Point lookups
  // (one-key ReadBlocks) fetch exactly the block. 0 disables.
  uint64_t cloud_readahead_bytes = 256 * 1024;

  // Transient cloud failures during uploads/migrations are retried this
  // many times with exponential backoff before surfacing.
  int cloud_retry_attempts = 3;
  uint64_t cloud_retry_backoff_micros = 1000;
  Clock* retry_clock = nullptr;  // default SystemClock

  // Asynchronous upload pipeline: Install/OnLevelChange enqueue the cloud
  // PUT on a small upload pool instead of performing it under mu_. The file
  // enters state kUploading and keeps serving reads from its local staging
  // copy; only when the PUT is durable does it become kCloud and the local
  // copy deletable. Off by default so directly-constructed storages keep the
  // synchronous semantics; OpenKVStore copies SchemeOptions::async_uploads
  // (default on) for kRocksMash.
  bool async_uploads = false;
  int upload_threads = 2;

  // External pools (see lsm/shared_resources.h): when set, upload jobs /
  // cloud fetches run on these process-wide lanes instead of pools this
  // storage constructs, so N shards share one cloud-I/O thread budget. Not
  // owned; must outlive the storage (the destructor drains this storage's
  // in-flight uploads but does not shut the pools down).
  ThreadPool* upload_pool = nullptr;
  ThreadPool* fetch_pool = nullptr;

  // High-bits namespace ORed into every persistent-cache file id (and the
  // packed metadata ids) by this storage. Shards sharing one PersistentCache
  // each get a distinct namespace so their SST numbers — allocated
  // independently per shard — cannot collide in the cache. Must be < 2^16;
  // file numbers must stay below 2^48 (they are sequence-allocated, so this
  // is never a practical limit).
  uint64_t cache_namespace = 0;

  // Unified tickers + histograms (cloud GET/PUT, upload lifecycle, tiered
  // block reads). Not owned; nullptr disables. Usually the same object as
  // DBOptions::statistics.
  Statistics* statistics = nullptr;

  // Upload lifecycle callbacks (OnUploadCompleted/Failed/Parked). Not owned;
  // must outlive the storage. Fired from upload threads with mu_ released.
  std::vector<EventListener*> listeners;
};

class TieredTableStorage final : public TableStorage {
 public:
  explicit TieredTableStorage(const TieredStorageOptions& options);
  ~TieredTableStorage() override;

  Status NewStagingFile(uint64_t number,
                        std::unique_ptr<WritableFile>* file) override;
  Status Install(uint64_t number, int level, uint64_t file_size,
                 uint64_t metadata_offset) override;
  Status OnLevelChange(uint64_t number, int to_level) override;
  Status OpenTable(uint64_t number, std::unique_ptr<BlockSource>* source,
                   uint64_t* file_size) override;
  Status Remove(uint64_t number) override;
  Status ListTables(std::vector<uint64_t>* numbers) override;
  bool IsLocal(uint64_t number) const override;
  TableStorageStats GetStats() const override;

  // Block until every enqueued upload job has finished (uploaded, cancelled,
  // or parked after exhausting its retries), including its listener
  // callbacks (OnUploadCompleted / OnUploadFailed / OnUploadParked).
  void WaitForPendingUploads() override;

  // Heat-tracking shim kept for tests/tools: bumps the file's atomic access
  // counter and (if pinning is on) runs the promotion check under mu_. The
  // read fast path in CloudBlockSource bumps the shared atomic directly and
  // only calls MaybePromote() every pin_after_accesses-th access.
  void RecordAccess(uint64_t number);

  // Opportunistic pin-promotion check, off the read fast path. Takes mu_.
  void MaybePromote(uint64_t number);

  // Bounded fan-out pool shared by every CloudBlockSource this storage
  // opens: batched reads (MultiGet) issue their coalesced cloud misses here
  // concurrently instead of serially. nullptr when there is no cloud tier;
  // callers then fall back to serial fetches.
  ThreadPool* read_fetch_pool() const { return fetch_pool_; }

  // Uploads that needed at least one retry (reliability telemetry).
  uint64_t RetriedUploads() const {
    return retried_uploads_.load(std::memory_order_relaxed);
  }

  // Upload jobs parked after exhausting cloud_retry_attempts. The file keeps
  // serving reads from its durable local copy.
  uint64_t FailedUploads() const {
    return failed_uploads_.load(std::memory_order_relaxed);
  }

 private:
  // kUploading: installed at a cloud level, PUT in flight (or parked after
  // retry exhaustion); reads are served from the local staging copy.
  enum class Tier {
    kLocal,
    kUploading,
    kCloud,
    kPinned /* cloud + pinned local copy */
  };

  struct FileState {
    Tier tier = Tier::kLocal;
    int level = 0;
    uint64_t size = 0;
    uint64_t metadata_offset = 0;
    // Cancellation token for upload jobs: bumped whenever the file's target
    // placement changes, so a job completing with a stale epoch must not
    // publish its result.
    uint64_t upload_epoch = 0;
    // Access counter, shared with open block sources so the read fast path
    // never takes mu_.
    std::shared_ptr<std::atomic<uint64_t>> heat =
        std::make_shared<std::atomic<uint64_t>>(0);
  };

  std::string LocalPath(uint64_t number) const;
  std::string CloudKey(uint64_t number) const;

  // The persistent-cache id for a table: the raw number with this storage's
  // cache_namespace in the high bits (see TieredStorageOptions).
  uint64_t PcId(uint64_t number) const {
    return number | (options_.cache_namespace << 48);
  }

  Status UploadLocked(uint64_t number, FileState* state)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  Status DownloadLocked(uint64_t number, FileState* state)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  void MaybePinLocked(uint64_t number, FileState* state)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);

  // Async pipeline: mark `state` kUploading and hand the PUT to the upload
  // pool. Requires upload_pool_ != nullptr.
  void EnqueueUploadLocked(uint64_t number, FileState* state)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  void UploadJob(uint64_t number, uint64_t epoch);
  void FinishUploadJobLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);

  TieredStorageOptions options_;
  Env* env_;

  // Lock order: before the cloud store's and persistent cache's internal
  // locks (Remove/Install call both while holding it); after DBImpl::mutex_
  // is never held here — storage calls run with the DB lock dropped.
  mutable Mutex mu_;
  std::unordered_map<uint64_t, FileState> files_ GUARDED_BY(mu_);
  uint64_t pinned_bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> retried_uploads_{0};
  std::atomic<uint64_t> failed_uploads_{0};
  TableStorageStats stats_ GUARDED_BY(mu_);

  // Async upload pipeline (null when async_uploads is off or no cloud) and
  // concurrent cloud fetches for batched reads (null when no cloud). The
  // per-batch in-flight fetch bound is ReadOptions::max_cloud_fan_out,
  // enforced by the callers; the pool size only caps whole-process
  // concurrency. Owned by default; when TieredStorageOptions supplies
  // external pools the owned_ slots stay null and the raw pointers alias
  // the shared lanes (the destructor then drains this storage's uploads
  // instead of shutting the pools down).
  std::unique_ptr<ThreadPool> owned_upload_pool_;
  std::unique_ptr<ThreadPool> owned_fetch_pool_;
  ThreadPool* upload_pool_ = nullptr;
  ThreadPool* fetch_pool_ = nullptr;
  std::atomic<bool> stopping_{false};
  CondVar upload_cv_;
  uint64_t inflight_uploads_ GUARDED_BY(mu_) = 0;
};

}  // namespace rocksmash
