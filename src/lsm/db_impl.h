// DBImpl: the engine. Single write-group mutex, decoupled background flush
// and compaction lanes (owned thread pools), pluggable TableStorage +
// WalManager.
//
// Locking: one Mutex (mutex_) guards all mutable DB state; long I/O
// (table builds, MANIFEST writes, obsolete-file deletion) drops it and
// reacquires. Because a flush and a compaction may now commit concurrently,
// MANIFEST writes (which drop mutex_ mid-commit) are serialized through
// LogAndApplyLocked. See DESIGN.md "Concurrency model & lock hierarchy" and
// "Background jobs & upload pipeline".
#pragma once

#include <atomic>
#include <deque>
#include <set>
#include <string>
#include <thread>

#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/memtable.h"
#include "lsm/snapshot.h"
#include "lsm/storage.h"
#include "lsm/version_set.h"
#include "lsm/wal.h"
#include "util/mutexlock.h"

namespace rocksmash {

class BlobFileCache;
class ThreadPool;
struct FlushJobInfo;
struct CompactionJobInfo;

namespace trace {
class Tracer;
}

class DBImpl final : public DB {
 public:
  DBImpl(const DBOptions& options, const std::string& dbname);
  ~DBImpl() override;

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  // Pull in the std::string compatibility overloads next to the PinnableSlice
  // overrides below (which would otherwise hide them on DBImpl-typed calls).
  using DB::Get;
  using DB::MultiGet;
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableSlice* value) override;
  void MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                std::vector<PinnableSlice>* values,
                std::vector<Status>* statuses) override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  bool GetProperty(const Slice& property,
                   std::map<std::string, std::string>* value) override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  Status Close() override;
  Status StartTrace(const trace::TraceOptions& trace_options,
                    const std::string& trace_file_path) override;
  Status EndTrace() override;
  Status FlushMemTable() override;
  void WaitForCompaction() override;
  RecoveryStats GetRecoveryStats() const override { return recovery_stats_; }

  // Compact the in-memory write buffer to disk. Switches to a new log file
  // and memtable if successful.
  void TEST_CompactMemTable();

  // Internal: called by DB::Open with mutex_ held.
  Status Recover(VersionEdit* edit) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

 private:
  friend class DB;
  class BlobFileWriter;
  struct CompactionState;
  struct Writer;
  struct WriteGroup;

  std::unique_ptr<Iterator> NewInternalIterator(
      const ReadOptions&, SequenceNumber* latest_snapshot);

  Status NewDB();

  void MaybeIgnoreError(Status* s) const;

  // Remove any files that are no longer needed. Drops mutex_ around the
  // actual deletes.
  void RemoveObsoleteFiles() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Flush the in-memory write buffer to disk.
  void CompactMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Build an SST from the contents of `iter` at the given level and register
  // it in `edit`. Drops mutex_ around the table build. With
  // BlobOptions::enable, values >= min_blob_size are separated into blob
  // files registered in `edit` too. The new file number is returned in
  // `*pending_number` and the blob file numbers in `*pending_blob_numbers`;
  // all stay in pending_outputs_ and the caller must erase them after
  // committing (or abandoning) `edit`. `flush_info`, if non-null, is filled
  // for OnFlushCompleted listeners.
  Status WriteLevel0Table(Iterator* iter, VersionEdit* edit, Version* base,
                          int* level_used, uint64_t* pending_number,
                          std::vector<uint64_t>* pending_blob_numbers,
                          FlushJobInfo* flush_info)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // *value holds an encoded BlobIndex (Version::Get set is_blob_index):
  // decode it and replace *value with the referenced blob record, fetched
  // through blob_cache_. Must be called WITHOUT mutex_ held.
  Status ResolveBlobValue(const ReadOptions& options, PinnableSlice* value);

  // Mutex-free table build used by parallel recovery: writes memtable
  // contents as table `number` and installs it at level 0. Touches only
  // storage_ and options_, so multiple recovery threads may run it
  // concurrently on distinct memtables/numbers.
  Status BuildRecoveryTable(MemTable* mem, uint64_t number, FileMetaData* meta,
                            uint64_t* metadata_offset);

  // Called by each finishing memtable applier of `group`; merges its status
  // and, when the last applier lands, marks the group applied and publishes.
  void MemTableApplyDone(WriteGroup* group, const Status& s)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Publishes LastSequence for (and completes the writers of) every applied
  // group at the front of applying_groups_, in strict group order — the
  // sequence-visibility invariant of the pipeline.
  void PublishCompletedGroups() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Syncs `group`'s WAL record at `position` with mutex_ released. A failure
  // poisons the DB (bg_error_) and marks the group so that every group
  // published after it fails too.
  Status SyncWal(WriteGroup* group, const WalPosition& position,
                 size_t record_bytes) EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Wakes the appliers of deferred_fanout_ (if any); see the field.
  void FanOutDeferredAppliers() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // `stall_micros`, if non-null, accumulates time spent stalled (L0
  // slowdown/stop, memtable-full, apply-stage drain) so callers can exclude
  // it from the reported write latency.
  Status MakeRoomForWrite(bool force /* force memtable switch */,
                          uint64_t* stall_micros)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  WriteBatch* BuildBatchGroup(Writer** last_writer)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void BackgroundFlushCall();
  void BackgroundCompactionCall();
  // Serialized MANIFEST commit: LogAndApply drops mutex_ around the
  // descriptor write, so concurrent flush/compaction commits must queue.
  Status LogAndApplyLocked(VersionEdit* edit) EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void BackgroundCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void CleanupCompaction(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status DoCompactionWork(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status OpenCompactionOutputFile(CompactionState* compact);
  Status FinishCompactionOutputFile(CompactionState* compact, Iterator* input);
  Status InstallCompactionResults(CompactionState* compact)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Listener fan-out. Callers must NOT hold mutex_ (listeners may block).
  void NotifyFlushCompleted(const FlushJobInfo& info);
  void NotifyCompactionCompleted(const CompactionJobInfo& info);

  // Body of the optional periodic stats-dump thread
  // (Options::stats_dump_period_sec).
  void StatsDumpThread();

  const Comparator* user_comparator() const {
    return internal_comparator_.user_comparator();
  }

  // Constant after construction.
  const InternalKeyComparator internal_comparator_;
  std::unique_ptr<InternalFilterPolicy> internal_filter_policy_;
  const DBOptions options_;
  const std::string dbname_;
  Env* const env_;

  // Owned defaults for pluggable pieces the caller left null.
  std::unique_ptr<TableStorage> owned_storage_;
  std::unique_ptr<WalManager> owned_wal_;  // The eWAL, from wal_segments.
  std::unique_ptr<Cache> owned_block_cache_;
  TableStorage* storage_;
  WalManager* wal_;
  Cache* block_cache_;

  std::unique_ptr<TableCache> table_cache_;
  // Open blob-file readers (point reads + compaction GC). Same sharing and
  // eviction discipline as table_cache_; blob files live in the same
  // TableStorage and file-number space as SSTs.
  std::unique_ptr<BlobFileCache> blob_cache_;

  // State below is protected by mutex_.
  // Lock order: first — the root of the hierarchy. Held while scheduling on
  // the thread pools and while logging; dropped around all table/WAL/cloud
  // I/O, so storage-layer locks are always acquired after (never inside) it.
  Mutex mutex_;
  std::atomic<bool> shutting_down_{false};
  CondVar background_work_finished_signal_;
  // mem_ is deliberately NOT GUARDED_BY(mutex_): the pointer itself only
  // changes under mutex_, but every group member inserts into *mem_
  // concurrently with the mutex released (the skiplist's CAS insert makes
  // that safe), so the analysis cannot model it. A memtable
  // switch waits out in-flight appliers first (MakeRoomForWrite drains
  // applying_groups_). See DESIGN.md.
  MemTable* mem_ = nullptr;
  MemTable* imm_ GUARDED_BY(mutex_) = nullptr;  // Memtable being flushed
  std::atomic<bool> has_imm_{false};
  uint64_t logfile_number_ GUARDED_BY(mutex_) = 0;
  uint32_t seed_ GUARDED_BY(mutex_) = 0;  // For sampling (unused hook)

  // Queue of writers (the WAL stage; front = leader).
  std::deque<Writer*> writers_ GUARDED_BY(mutex_);
  WriteBatch tmp_batch_ GUARDED_BY(mutex_);

  // Groups past their WAL append — syncing after the hand-off, or
  // applying to the memtable — oldest first: LastSequence publication is
  // strictly FIFO over this deque, and MakeRoomForWrite drains it before
  // switching memtables (appliers insert into mem_ without the mutex).
  std::deque<WriteGroup*> applying_groups_ GUARDED_BY(mutex_);
  // A group whose apply-stage start (its parked leader and followers) is
  // deferred to the next WAL leader, just after that leader's append: the
  // appliers' CPU lands inside the next group's device wait instead of
  // racing its WAL stage for the processor. Set only in the critical
  // section of a group's hand-off (never by a group that syncs after it),
  // when a next leader is already queued; consumed by that leader right
  // after its append (or, on its non-WAL paths, before it publishes or
  // waits in MakeRoomForWrite), which guarantees the wakeups happen.
  WriteGroup* deferred_fanout_ GUARDED_BY(mutex_) = nullptr;
  // Groups syncing the WAL after their queue hand-off (a WalManager with
  // ConcurrentSyncs()); a sync started while another is in flight ticks
  // wal.sync.overlapped.
  int wal_syncs_in_flight_ GUARDED_BY(mutex_) = 0;
  // The first failed group WAL sync, recorded when its group is published:
  // every group published after it fails with this status.
  Status wal_sync_error_ GUARDED_BY(mutex_);
  // Sequence allocation cursor: sequences are handed out at WAL-stage time
  // but versions_->LastSequence() only advances at publication.
  uint64_t last_allocated_sequence_ GUARDED_BY(mutex_) = 0;
  // Signaled when the apply stage empties (memtable-switch drain waiters).
  CondVar apply_done_signal_;

  SnapshotList snapshots_ GUARDED_BY(mutex_);

  // Set of table files to protect from deletion because they are part of
  // ongoing compactions.
  std::set<uint64_t> pending_outputs_ GUARDED_BY(mutex_);

  // Background job lanes, one job in flight per lane. A flush runs
  // concurrently with a compaction; MakeRoomForWrite therefore stalls only
  // on genuine L0 backpressure, not on a busy compaction slot. The pools
  // are DB-owned by default; with Options::shared_resources set they are
  // the shared lanes every shard draws from (Close then waits out this
  // DB's in-flight jobs via the bg flags instead of shutting the pool
  // down — same owned/raw pattern as storage_/wal_/block_cache_ above).
  std::unique_ptr<ThreadPool> owned_flush_pool_;
  std::unique_ptr<ThreadPool> owned_compaction_pool_;
  ThreadPool* flush_pool_ = nullptr;
  ThreadPool* compaction_pool_ = nullptr;
  bool bg_flush_scheduled_ GUARDED_BY(mutex_) = false;
  bool bg_compaction_scheduled_ GUARDED_BY(mutex_) = false;
  bool manifest_write_in_progress_ GUARDED_BY(mutex_) = false;

  // Periodic stats-dump thread; sleeps on this condvar (bound to mutex_) so
  // the destructor can wake it promptly via shutting_down_ + notify.
  CondVar stats_dump_cv_;
  std::thread stats_dump_thread_;

  struct ManualCompaction {
    int level;
    bool done;
    const InternalKey* begin;  // nullptr means beginning of key range
    const InternalKey* end;    // nullptr means end of key range
    InternalKey tmp_storage;   // Used to keep track of compaction progress
  };
  ManualCompaction* manual_compaction_ GUARDED_BY(mutex_) = nullptr;

  std::unique_ptr<VersionSet> versions_ GUARDED_BY(mutex_);

  // Have we encountered a background error in paranoid mode?
  Status bg_error_ GUARDED_BY(mutex_);

  // Set by the first Close(); later calls (and the destructor) reuse its
  // outcome instead of re-running shutdown.
  bool closed_ GUARDED_BY(mutex_) = false;
  Status close_status_ GUARDED_BY(mutex_);

  // Operation tracing (DB::StartTrace). tracer_ is the hot-path gate: every
  // instrumented entry point does one relaxed load and skips everything on
  // nullptr. Admin state lives under trace_mu_; retired tracers are kept
  // alive until Close so a stale pointer loaded concurrently with EndTrace
  // (or a live TracingIterator) can never dangle.
  // Lock order: leaf; never acquired with mutex_ held and never held while
  // calling into the engine.
  Mutex trace_mu_;
  std::atomic<trace::Tracer*> tracer_{nullptr};
  std::unique_ptr<trace::Tracer> active_tracer_ GUARDED_BY(trace_mu_);
  std::vector<std::unique_ptr<trace::Tracer>> retired_tracers_
      GUARDED_BY(trace_mu_);

  // Written only by Recover (before any background thread exists), read
  // freely afterwards.
  RecoveryStats recovery_stats_;

  // Per-level compaction stats.
  struct CompactionStats {
    int64_t micros = 0;
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;

    void Add(const CompactionStats& c) {
      micros += c.micros;
      bytes_read += c.bytes_read;
      bytes_written += c.bytes_written;
    }
  };
  CompactionStats stats_[config::kNumLevels] GUARDED_BY(mutex_);
};

}  // namespace rocksmash
