#include "lsm/db_impl.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <vector>

#include "env/env.h"
#include "lsm/blob_file_cache.h"
#include "lsm/filename.h"
#include "lsm/log_writer.h"
#include "lsm/shared_resources.h"
#include "lsm/table_cache.h"
#include "lsm/write_batch.h"
#include "table/blob_file.h"
#include "table/blob_format.h"
#include "table/merger.h"
#include "table/table_builder.h"
#include "trace/tracer.h"
#include "util/clock.h"
#include "util/event_listener.h"
#include "util/logger.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/thread_pool.h"

namespace rocksmash {

// Information kept for every waiting writer. All fields are read and
// written under mutex_ except `batch`, which the writer itself reads with
// the mutex released (WAL append as leader, memtable apply) while the writer
// protocol makes it the exclusive accessor.
struct DBImpl::Writer {
  explicit Writer(Mutex* mu)
      : batch(nullptr), sync(false), done(false), cv(mu) {}

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  // Set (and notified) when the writer should CAS-insert its own sub-batch
  // in its group's apply stage.
  bool parallel_ready = false;
  WriteGroup* group = nullptr;
  CondVar cv;
};

// A write group moving through the write path. Lives on the leader's
// stack: every member (including the leader) returns only after the group
// is published, at which point nobody touches it again. Mutated under
// mutex_ except `status` merges funneled through MemTableApplyDone.
struct DBImpl::WriteGroup {
  std::vector<Writer*> members;  // Queue order; leader first.
  SequenceNumber first_sequence = 0;
  SequenceNumber last_sequence = 0;  // 0: no sequences allocated (barrier).
  Status status;                     // Shared by all members.
  int pending_appliers = 0;          // Memtable appliers still running.
  bool applied = false;  // All inserts done; awaiting FIFO publication.
  bool wal_sync_failed = false;  // Fails every group published after it.
};

// Streams values into a rolling sequence of blob files (flush separation
// and compaction GC rewrites). Callers run with mutex_ released; file-number
// allocation briefly takes the mutex per file and registers the number in
// pending_outputs_. Finished files are installed and added to a VersionEdit
// by the caller; the caller also erases allocated_numbers() from
// pending_outputs_ once the edit committed or failed.
class DBImpl::BlobFileWriter {
 public:
  struct FileResult {
    uint64_t number = 0;
    uint64_t file_size = 0;
    uint64_t footer_offset = 0;
    uint64_t payload_bytes = 0;
    uint64_t record_count = 0;
  };

  explicit BlobFileWriter(DBImpl* db) : db_(db) {}

  // Appends `value` as one blob record, rolling to a new file once the
  // current one reaches BlobOptions::blob_file_size. On OK *index_encoding
  // holds the encoded BlobIndex to store as the SST value.
  Status Add(const Slice& value, std::string* index_encoding) {
    Status s;
    if (builder_ == nullptr) {
      s = OpenFile();
      if (!s.ok()) return s;
    }
    BlobIndex index;
    s = builder_->Add(value, &index);
    if (!s.ok()) return s;
    index_encoding->clear();
    index.EncodeTo(index_encoding);
    if (builder_->FileSize() >= db_->options_.blob.blob_file_size) {
      s = CloseFile();
    }
    return s;
  }

  // Finishes (footer + sync + close) the in-flight file, if any.
  Status Finish() {
    if (builder_ == nullptr) return Status::OK();
    return CloseFile();
  }

  // Drops the in-flight file after an error. Already-finished files stay in
  // results(); if the caller abandons its edit they become unreferenced and
  // RemoveObsoleteFiles reclaims them once their pending numbers are erased.
  void Abandon() {
    if (builder_ == nullptr) return;
    builder_.reset();
    // why unchecked: best-effort cleanup; the caller's error is primary.
    file_->Close().PermitUncheckedError();
    file_.reset();
    db_->storage_->Remove(current_number_).PermitUncheckedError();
  }

  const std::vector<FileResult>& results() const { return results_; }

  // Every file number this writer allocated (including any abandoned file);
  // all were inserted into pending_outputs_.
  const std::vector<uint64_t>& allocated_numbers() const { return allocated_; }

 private:
  Status OpenFile() {
    {
      MutexLock l(&db_->mutex_);
      current_number_ = db_->versions_->NewFileNumber();
      db_->pending_outputs_.insert(current_number_);
    }
    allocated_.push_back(current_number_);
    Status s = db_->storage_->NewStagingFile(current_number_, &file_);
    if (!s.ok()) return s;
    builder_ = std::make_unique<BlobFileBuilder>(
        current_number_, file_.get(),
        db_->options_.blob.blob_compression ? kLzCompression : kNoCompression);
    return Status::OK();
  }

  Status CloseFile() {
    Status s = builder_->Finish();
    if (s.ok()) s = file_->Sync();
    if (s.ok()) s = file_->Close();
    if (s.ok()) {
      FileResult r;
      r.number = current_number_;
      r.file_size = builder_->FileSize();
      r.footer_offset = builder_->FooterOffset();
      r.payload_bytes = builder_->payload_bytes();
      r.record_count = builder_->record_count();
      results_.push_back(r);
      RecordTick(db_->options_.statistics, BLOB_FILES_CREATED);
    } else {
      // why unchecked: best-effort cleanup; the close error `s` is primary.
      db_->storage_->Remove(current_number_).PermitUncheckedError();
    }
    builder_.reset();
    file_.reset();
    return s;
  }

  DBImpl* const db_;
  uint64_t current_number_ = 0;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<BlobFileBuilder> builder_;
  std::vector<FileResult> results_;
  std::vector<uint64_t> allocated_;
};

struct DBImpl::CompactionState {
  // Files produced by compaction.
  struct Output {
    uint64_t number;
    uint64_t file_size;
    uint64_t metadata_offset;
    InternalKey smallest, largest;
  };

  Output* current_output() { return &outputs[outputs.size() - 1]; }

  CompactionState(Compaction* c, DBImpl* db)
      : compaction(c), smallest_snapshot(0), blob_writer(db), total_bytes(0) {}

  Compaction* const compaction;

  // Sequence numbers < smallest_snapshot are not significant since we will
  // never have to service a snapshot below smallest_snapshot.
  SequenceNumber smallest_snapshot;

  std::vector<Output> outputs;

  // State kept for output being generated.
  std::unique_ptr<WritableFile> outfile;
  std::unique_ptr<TableBuilder> builder;

  // Blob GC output lane: live records rewritten out of GC-eligible blob
  // files go through this writer into fresh blob files.
  BlobFileWriter blob_writer;

  // Per-input-blob-file garbage discovered by this compaction — payload
  // bytes and record counts of blob records whose referencing SST entries
  // were dropped or rewritten. Folded into the edit at install time.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> blob_garbage;

  uint64_t total_bytes;
};

static DBOptions SanitizeOptions(const DBOptions& src) {
  DBOptions result = src;
  if (result.env == nullptr) result.env = Env::Default();
  if (result.info_log == nullptr) result.info_log = DefaultLogger();
  // Resolve shared-resource fallbacks first: an explicitly set pointer
  // always wins over the shared one.
  if (result.shared_resources != nullptr) {
    if (result.block_cache == nullptr) {
      result.block_cache = result.shared_resources->block_cache();
    }
    if (result.statistics == nullptr) {
      result.statistics = result.shared_resources->statistics();
    }
  }
  if (result.write_buffer_size < 64 * 1024) {
    result.write_buffer_size = 64 * 1024;
  }
  if (result.max_file_size < 64 * 1024) result.max_file_size = 64 * 1024;
  if (result.block_size < 1024) result.block_size = 1024;
  if (result.max_write_group_bytes < 1) {
    result.max_write_group_bytes = DBOptions().max_write_group_bytes;
  }
  return result;
}

DBImpl::DBImpl(const DBOptions& raw_options, const std::string& dbname)
    : internal_comparator_(raw_options.comparator),
      options_(SanitizeOptions(raw_options)),
      dbname_(dbname),
      env_(options_.env),
      background_work_finished_signal_(&mutex_),
      apply_done_signal_(&mutex_),
      stats_dump_cv_(&mutex_) {
  if (options_.filter_bits_per_key > 0) {
    internal_filter_policy_ = std::make_unique<InternalFilterPolicy>(
        NewBloomFilterPolicy(options_.filter_bits_per_key),
        options_.prefix_extractor);
  }
  // Resolve pluggable pieces, creating owned defaults where needed.
  if (options_.table_storage != nullptr) {
    storage_ = options_.table_storage;
  } else {
    owned_storage_ = NewLocalTableStorage(env_, dbname_);
    storage_ = owned_storage_.get();
  }
  if (options_.wal_manager != nullptr) {
    wal_ = options_.wal_manager;
  } else {
    EWalOptions wal_options;
    wal_options.segments = options_.wal_segments;
    owned_wal_ = NewEWalManager(env_, dbname_, wal_options);
    wal_ = owned_wal_.get();
  }
  if (options_.block_cache != nullptr) {
    block_cache_ = options_.block_cache;
  } else {
    owned_block_cache_ = NewLRUCache(8 * 1024 * 1024);
    block_cache_ = owned_block_cache_.get();
  }

  table_cache_ = std::make_unique<TableCache>(options_, &internal_comparator_,
                                              storage_, block_cache_,
                                              options_.max_open_files);
  // Always present (not gated on options_.blob.enable): a reopened DB may
  // hold blob indexes written under an earlier configuration.
  blob_cache_ = std::make_unique<BlobFileCache>(options_, storage_,
                                                block_cache_,
                                                options_.max_open_files);
  versions_ = std::make_unique<VersionSet>(dbname_, &options_,
                                           table_cache_.get(),
                                           &internal_comparator_);

  // Persistent background lanes (replaces the old per-job detached thread).
  // With shared resources the lanes are process-wide and outlive this DB.
  if (options_.shared_resources != nullptr) {
    flush_pool_ = options_.shared_resources->flush_pool();
    compaction_pool_ = options_.shared_resources->compaction_pool();
  } else {
    owned_flush_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(std::max(1, options_.max_background_flushes)),
        "bg-flush");
    owned_compaction_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(std::max(1, options_.max_background_compactions)),
        "bg-compact");
    flush_pool_ = owned_flush_pool_.get();
    compaction_pool_ = owned_compaction_pool_.get();
  }

  if (options_.stats_dump_period_sec > 0 && options_.statistics != nullptr) {
    stats_dump_thread_ = std::thread([this] { StatsDumpThread(); });
  }
}

DBImpl::~DBImpl() {
  // why unchecked: destructors cannot propagate; Close() is the checked
  // shutdown path and durability-sensitive callers invoke it explicitly.
  Close().PermitUncheckedError();

  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
}

Status DBImpl::Close() {
  // why unchecked: an implicit end-of-trace at shutdown; "no trace active"
  // is the common case and a failed footer write must not block Close.
  EndTrace().PermitUncheckedError();
  // Wait for in-flight background jobs in both lanes to finish.
  {
    MutexLock l(&mutex_);
    if (closed_) return close_status_;
    closed_ = true;
    shutting_down_.store(true, std::memory_order_release);
    stats_dump_cv_.NotifyAll();
    while (bg_flush_scheduled_ || bg_compaction_scheduled_ ||
           manifest_write_in_progress_) {
      background_work_finished_signal_.Wait();
    }
  }
  if (stats_dump_thread_.joinable()) stats_dump_thread_.join();
  // Stop owned lanes. Shutdown drains queued-but-unstarted jobs, which see
  // shutting_down_ and return immediately. Must happen outside mutex_ (the
  // drained jobs acquire it) and before any member teardown. Shared lanes
  // stay up for the other shards: the bg-flag wait above already saw this
  // DB's jobs (in flight or queued) through to completion, so nothing on a
  // shared pool can touch this DB afterwards.
  if (owned_flush_pool_ != nullptr) owned_flush_pool_->Shutdown();
  if (owned_compaction_pool_ != nullptr) owned_compaction_pool_->Shutdown();

  // Make everything the WAL buffered durable before teardown: an error here
  // means acknowledged unsynced writes could vanish on a crash-free
  // shutdown, so it must reach the caller (previously it was dropped).
  Status s = wal_->Sync(WalPosition::End());
  Status close = wal_->CloseLog();
  if (s.ok()) {
    s = std::move(close);
  } else {
    // why unchecked: the sync failure is the primary error to surface.
    close.PermitUncheckedError();
  }

  MutexLock l(&mutex_);
  if (s.ok() && !bg_error_.ok()) s = bg_error_;
  close_status_ = std::move(s);
  return close_status_;
}

Status DBImpl::NewDB() {
  VersionEdit new_db;
  new_db.SetComparatorName(user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(manifest, &file);
  if (!s.ok()) {
    return s;
  }
  {
    log::Writer log(file.get());
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(record);
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
  }
  if (s.ok()) {
    // Make "CURRENT" file that points to the new manifest file.
    s = WriteStringToFile(env_, "MANIFEST-000001\n", CurrentFileName(dbname_),
                          /*sync=*/true);
  } else {
    // why unchecked: best-effort cleanup of the half-written manifest; the
    // creation error `s` is what the caller needs.
    env_->RemoveFile(manifest).PermitUncheckedError();
  }
  return s;
}

void DBImpl::NotifyFlushCompleted(const FlushJobInfo& info) {
  for (EventListener* listener : options_.listeners) {
    listener->OnFlushCompleted(info);
  }
}

void DBImpl::NotifyCompactionCompleted(const CompactionJobInfo& info) {
  for (EventListener* listener : options_.listeners) {
    listener->OnCompactionCompleted(info);
  }
}

void DBImpl::StatsDumpThread() {
  const uint64_t period_micros =
      static_cast<uint64_t>(options_.stats_dump_period_sec) * 1000000;
  mutex_.Lock();
  while (!shutting_down_.load(std::memory_order_acquire)) {
    stats_dump_cv_.WaitFor(period_micros);
    if (shutting_down_.load(std::memory_order_acquire)) break;
    const std::string dump = options_.statistics->ToString();
    mutex_.Unlock();
    RM_LOG_INFO(options_.info_log, "------- DUMPING STATS -------\n%s",
                dump.c_str());
    mutex_.Lock();
  }
  mutex_.Unlock();
}

void DBImpl::MaybeIgnoreError(Status* s) const {
  if (s->ok() || options_.paranoid_checks) {
    // No change needed.
  } else {
    RM_LOG_WARN(options_.info_log, "Ignoring error %s", s->ToString().c_str());
    *s = Status::OK();
  }
}

void DBImpl::RemoveObsoleteFiles() {
  // REQUIRES: mutex_ held.
  if (!bg_error_.ok()) {
    // After a background error, we don't know whether a new version may or
    // may not have been committed, so we cannot safely garbage collect.
    return;
  }

  // Make a set of all of the live files.
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  // why unchecked: a failed directory scan just defers GC to the next round.
  env_->GetChildren(dbname_, &filenames).PermitUncheckedError();
  uint64_t number;
  FileType type;
  std::vector<uint64_t> tables_to_remove;
  std::vector<std::string> files_to_remove;

  // Table files are enumerated through the storage (which sees every tier —
  // a local directory scan would miss cloud-resident tables and leak them
  // forever). Removal through the storage also drops cloud copies and
  // persistent-cache state.
  std::vector<uint64_t> all_tables;
  Status list_status = storage_->ListTables(&all_tables);
  if (!list_status.ok()) {
    // An incomplete listing only hides deletion candidates; skip this GC
    // round and retry after the next flush/compaction.
    RM_LOG_WARN(options_.info_log, "obsolete-file scan skipped: %s",
                list_status.ToString().c_str());
    return;
  }
  for (uint64_t table_number : all_tables) {
    if (live.find(table_number) == live.end()) {
      tables_to_remove.push_back(table_number);
    }
  }
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case FileType::kLogFile:
        case FileType::kEWalFile:
          keep = (number >= versions_->LogNumber());
          break;
        case FileType::kDescriptorFile:
          // Keep my manifest file, and any newer incarnations.
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case FileType::kTableFile:
          // Handled via storage_->ListTables above.
          keep = true;
          break;
        case FileType::kTempFile:
          // Any temp files that are currently being written to must be
          // recorded in pending_outputs_, which is inserted into "live".
          keep = (live.find(number) != live.end());
          break;
        case FileType::kCurrentFile:
        case FileType::kUnknown:
          break;
      }

      if (!keep) {
        if (type == FileType::kTableFile) {
          tables_to_remove.push_back(number);
        } else {
          files_to_remove.push_back(filename);
        }
        RM_LOG_INFO(options_.info_log, "Delete type=%d #%lld",
                    static_cast<int>(type),
                    static_cast<long long>(number));
      }
    }
  }

  // While deleting all files unblock other threads. All files being deleted
  // have unique names and will not be reused by new files.
  mutex_.Unlock();
  for (uint64_t table_number : tables_to_remove) {
    table_cache_->Evict(table_number);
    // Blob files share the table number space and storage; evicting a
    // number from the cache it was never in is a no-op.
    blob_cache_->Evict(table_number);
    Status remove_status = storage_->Remove(table_number);
    // A file that is already gone (recovery replay, dropped local copy of a
    // cloud-tier table) is a successful no-op, not a leak.
    if (!remove_status.ok() && !remove_status.IsNotFound()) {
      // The table stays listed by the storage, so the next GC round retries.
      RM_LOG_WARN(options_.info_log, "obsolete table #%llu not removed: %s",
                  static_cast<unsigned long long>(table_number),
                  remove_status.ToString().c_str());
    }
  }
  for (const std::string& filename : files_to_remove) {
    Status remove_status = env_->RemoveFile(dbname_ + "/" + filename);
    if (!remove_status.ok() && !remove_status.IsNotFound()) {
      RM_LOG_WARN(options_.info_log, "obsolete file %s not removed: %s",
                  filename.c_str(), remove_status.ToString().c_str());
    }
  }
  mutex_.Lock();
}

Status DBImpl::Recover(VersionEdit* edit) {
  // why unchecked: the directory may already exist; a genuinely unusable
  // directory fails the CURRENT/MANIFEST opens right below with a better
  // message.
  env_->CreateDirRecursively(dbname_).PermitUncheckedError();

  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (options_.create_if_missing) {
      Status s = NewDB();
      if (!s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(
          dbname_, "does not exist (create_if_missing is false)");
    }
  } else {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_, "exists (error_if_exists is true)");
    }
  }

  bool save_manifest = false;
  Status s = versions_->Recover(&save_manifest);
  if (!s.ok()) {
    return s;
  }

  // Replay all log files newer than the last flushed log. The WalManager
  // may fan each log's records out across shards; entries are applied with
  // their original sequence numbers so out-of-order application across
  // shards is safe.
  SystemClock* wall = SystemClock::Default();
  const uint64_t recover_start = wall->NowMicros();

  std::vector<uint64_t> logs;
  s = wal_->ListLogs(&logs);
  if (!s.ok()) return s;

  const uint64_t min_log = versions_->LogNumber();
  SequenceNumber max_sequence = 0;

  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> max_seq_atomic{0};

  const int max_shards = std::max(1, wal_->MaxShards());
  recovery_stats_.shards_used = max_shards;

  for (uint64_t log_number : logs) {
    if (log_number < min_log) continue;
    recovery_stats_.logs_replayed++;

    // One private memtable per shard: shard callbacks run concurrently but
    // each shard is single-threaded, so the single-writer skiplist is safe.
    std::vector<MemTable*> shard_mems(max_shards, nullptr);
    std::vector<Status> shard_status(max_shards);

    auto apply = [&](const Slice& record, int shard) -> Status {
      if (record.size() < 12) {
        return Status::Corruption("log record too small");
      }
      if (shard_mems[shard] == nullptr) {
        shard_mems[shard] = new MemTable(internal_comparator_);
        shard_mems[shard]->Ref();
      }
      WriteBatch batch;
      WriteBatchInternal::SetContents(&batch, record);
      Status st = WriteBatchInternal::InsertInto(&batch, shard_mems[shard]);
      if (!st.ok()) return st;
      const SequenceNumber last_seq =
          WriteBatchInternal::Sequence(&batch) +
          WriteBatchInternal::Count(&batch) - 1;
      // Atomic max.
      uint64_t prev = max_seq_atomic.load(std::memory_order_relaxed);
      while (prev < last_seq && !max_seq_atomic.compare_exchange_weak(
                                    prev, last_seq, std::memory_order_relaxed)) {
      }
      records.fetch_add(WriteBatchInternal::Count(&batch),
                        std::memory_order_relaxed);
      bytes.fetch_add(record.size(), std::memory_order_relaxed);
      return Status::OK();
    };

    const uint64_t replay_start = wall->NowMicros();
    WalManager::ReplayTelemetry telemetry;
    s = wal_->Replay(log_number, apply, &telemetry);
    const uint64_t replay_micros = wall->NowMicros() - replay_start;
    recovery_stats_.replay_micros += replay_micros;
    RecordTick(options_.statistics, RECOVERY_LOGS_REPLAYED);
    RecordInHistogram(options_.statistics, RECOVERY_REPLAY_LATENCY_US,
                      static_cast<double>(replay_micros));
    uint64_t slowest_shard = 0;
    for (uint64_t m : telemetry.shard_micros) {
      slowest_shard = std::max(slowest_shard, m);
    }
    recovery_stats_.replay_critical_micros += slowest_shard;
    MaybeIgnoreError(&s);
    if (!s.ok()) {
      for (MemTable* m : shard_mems) {
        if (m != nullptr) m->Unref();
      }
      return s;
    }

    // Convert the recovered shard memtables to L0 tables *in parallel* (one
    // file per shard). The shards hold interleaved sequence ranges, which
    // is safe because the L0 point-lookup path is sequence-aware (it checks
    // every overlapping L0 file and takes the highest-sequence match) and
    // compaction merges by internal-key order.
    {
      const uint64_t flush_start = wall->NowMicros();
      struct Pending {
        MemTable* mem;
        uint64_t number;
        FileMetaData meta;
        uint64_t metadata_offset = 0;
        uint64_t micros = 0;
        Status status;
      };
      std::vector<Pending> pending;
      for (MemTable* m : shard_mems) {
        if (m != nullptr && !m->Empty()) {
          pending.push_back(
              Pending{m, versions_->NewFileNumber(), {}, 0, 0, {}});
        }
      }
      if (!pending.empty()) {
        // One thread per recovered memtable, bounded by hardware
        // concurrency: oversubscription gains nothing and pollutes the
        // critical-path timings.
        const int hw =
            std::max(1u, std::thread::hardware_concurrency());
        const int threads = std::min(static_cast<int>(pending.size()), hw);
        ThreadPool pool(threads, "recovery-flush");
        for (Pending& p : pending) {
          Pending* pp = &p;
          pool.Schedule([this, pp] {
            const uint64_t t0 = SystemClock::Default()->NowMicros();
            pp->status = BuildRecoveryTable(pp->mem, pp->number, &pp->meta,
                                            &pp->metadata_offset);
            pp->micros = SystemClock::Default()->NowMicros() - t0;
          });
        }
        pool.WaitIdle();
      }
      Status fs;
      uint64_t slowest_flush = 0;
      for (Pending& p : pending) {
        slowest_flush = std::max(slowest_flush, p.micros);
        RecordInHistogram(options_.statistics, RECOVERY_FLUSH_LATENCY_US,
                          static_cast<double>(p.micros));
        if (!p.status.ok()) {
          if (fs.ok()) fs = p.status;
          continue;
        }
        recovery_stats_.memtables_flushed++;
        RecordTick(options_.statistics, RECOVERY_MEMTABLES_FLUSHED);
        edit->AddFile(0, p.meta.number, p.meta.file_size, p.meta.smallest,
                      p.meta.largest);
      }
      recovery_stats_.flush_critical_micros += slowest_flush;
      for (MemTable* m : shard_mems) {
        if (m != nullptr) m->Unref();
      }
      recovery_stats_.flush_micros += wall->NowMicros() - flush_start;
      if (!fs.ok()) return fs;
    }
  }

  max_sequence = max_seq_atomic.load();
  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  recovery_stats_.records_replayed = records.load();
  recovery_stats_.bytes_replayed = bytes.load();
  recovery_stats_.wall_micros = wall->NowMicros() - recover_start;
  RecordTick(options_.statistics, RECOVERY_RECORDS_REPLAYED, records.load());
  RecordTick(options_.statistics, RECOVERY_BYTES_REPLAYED, bytes.load());

  // Recovery-phase listeners. Fired with mutex_ held, but DB::Open is
  // single-threaded at this point so no other thread can contend; the no-
  // reentrancy rule for listeners still applies.
  if (!options_.listeners.empty()) {
    RecoveryPhaseInfo replay_info;
    replay_info.phase = "wal-replay";
    replay_info.micros = recovery_stats_.replay_micros;
    replay_info.items = recovery_stats_.records_replayed;
    RecoveryPhaseInfo flush_info;
    flush_info.phase = "memtable-flush";
    flush_info.micros = recovery_stats_.flush_micros;
    flush_info.items = recovery_stats_.memtables_flushed;
    for (EventListener* listener : options_.listeners) {
      listener->OnRecoveryPhase(replay_info);
      listener->OnRecoveryPhase(flush_info);
    }
  }

  (void)save_manifest;
  return Status::OK();
}

Status DBImpl::BuildRecoveryTable(MemTable* mem, uint64_t number,
                                  FileMetaData* meta,
                                  uint64_t* metadata_offset) {
  meta->number = number;
  std::unique_ptr<Iterator> iter(mem->NewIterator());

  std::unique_ptr<WritableFile> file;
  Status s = storage_->NewStagingFile(number, &file);
  if (!s.ok()) return s;

  TableOptions topt;
  topt.comparator = &internal_comparator_;
  topt.filter_policy = internal_filter_policy_.get();
  topt.block_size = options_.block_size;
  topt.block_restart_interval = options_.block_restart_interval;
  topt.compression =
      options_.compress_blocks ? kLzCompression : kNoCompression;

  TableBuilder builder(topt, file.get());
  iter->SeekToFirst();
  if (!iter->Valid()) {
    builder.Abandon();
    // why unchecked: nothing was written; closing/removing the empty
    // staging file is pure cleanup.
    file->Close().PermitUncheckedError();
    storage_->Remove(number).PermitUncheckedError();
    return Status::OK();
  }
  meta->smallest.DecodeFrom(iter->key());
  Slice key;
  for (; iter->Valid(); iter->Next()) {
    key = iter->key();
    builder.Add(key, iter->value());
  }
  meta->largest.DecodeFrom(key);
  s = builder.Finish();
  if (s.ok()) {
    meta->file_size = builder.FileSize();
    *metadata_offset = builder.MetadataOffset();
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (s.ok()) {
    s = storage_->Install(number, /*level=*/0, meta->file_size,
                          *metadata_offset);
  }
  if (!s.ok()) {
    // why unchecked: best-effort cleanup; the build error `s` is primary.
    storage_->Remove(number).PermitUncheckedError();
  }
  return s;
}

Status DBImpl::WriteLevel0Table(Iterator* iter, VersionEdit* edit,
                                Version* base, int* level_used,
                                uint64_t* pending_number,
                                std::vector<uint64_t>* pending_blob_numbers,
                                FlushJobInfo* flush_info) {
  const uint64_t start_micros = SystemClock::Default()->NowMicros();
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);
  *pending_number = meta.number;

  Status s;
  uint64_t metadata_offset = 0;
  BlobFileWriter blob_writer(this);
  {
    mutex_.Unlock();
    // Build the table into local staging.
    std::unique_ptr<WritableFile> file;
    s = storage_->NewStagingFile(meta.number, &file);
    if (s.ok()) {
      TableOptions topt;
      topt.comparator = &internal_comparator_;
      topt.filter_policy = internal_filter_policy_.get();
      topt.block_size = options_.block_size;
      topt.block_restart_interval = options_.block_restart_interval;
      topt.compression =
          options_.compress_blocks ? kLzCompression : kNoCompression;

      TableBuilder builder(topt, file.get());
      const bool separate = options_.blob.enable;
      const size_t min_blob = options_.blob.min_blob_size;
      std::string blob_key, blob_index, last_key;
      iter->SeekToFirst();
      if (iter->Valid()) {
        bool first_entry = true;
        for (; iter->Valid(); iter->Next()) {
          const Slice key = iter->key();
          const Slice value = iter->value();
          Slice written_key = key;
          ParsedInternalKey ikey;
          const bool parsed = ParseInternalKey(key, &ikey);
          if (separate && parsed && ikey.type == kTypeValue &&
              value.size() >= min_blob) {
            // Separate: the value goes to a blob file, the SST entry keeps
            // the same user key + sequence retyped to kTypeBlobIndex and
            // carries the encoded index instead of the value.
            s = blob_writer.Add(value, &blob_index);
            if (!s.ok()) break;
            blob_key.assign(key.data(), key.size());
            // Type byte = low byte of the trailing fixed64 (little-endian).
            blob_key[blob_key.size() - 8] =
                static_cast<char>(kTypeBlobIndex);
            written_key = Slice(blob_key);
            builder.Add(written_key, Slice(blob_index));
            RecordTick(options_.statistics, BLOB_WRITE_SEPARATED);
            RecordTick(options_.statistics, BLOB_WRITE_SEPARATED_BYTES,
                       value.size());
          } else {
            builder.Add(key, value);
            if (separate && parsed && ikey.type == kTypeValue) {
              RecordTick(options_.statistics, BLOB_WRITE_INLINE);
            }
          }
          if (first_entry) {
            meta.smallest.DecodeFrom(written_key);
            first_entry = false;
          }
          last_key.assign(written_key.data(), written_key.size());
        }
        if (!last_key.empty()) {
          meta.largest.DecodeFrom(last_key);
        }
        if (s.ok()) {
          // Blob data becomes durable before the SST referencing it.
          s = blob_writer.Finish();
        }
        if (s.ok()) {
          s = builder.Finish();
        } else {
          builder.Abandon();
          blob_writer.Abandon();
        }
        if (s.ok()) {
          meta.file_size = builder.FileSize();
          metadata_offset = builder.MetadataOffset();
          assert(meta.file_size > 0);
        }
      } else {
        builder.Abandon();
      }
      if (s.ok()) {
        s = file->Sync();
      }
      if (s.ok()) {
        s = file->Close();
      }
    }
    mutex_.Lock();
  }
  *pending_blob_numbers = blob_writer.allocated_numbers();

  RM_LOG_INFO(options_.info_log, "Level-0 table #%llu: %llu bytes %s",
              static_cast<unsigned long long>(meta.number),
              static_cast<unsigned long long>(meta.file_size),
              s.ToString().c_str());
  // meta.number stays in pending_outputs_ until the caller has committed
  // `edit`: the commit drops mutex_, and the other background lane could run
  // RemoveObsoleteFiles in that window and delete the not-yet-live file.

  // Note that if file_size is zero, the file has been deleted and should
  // not be added to the manifest.
  int level = 0;
  if (s.ok() && meta.file_size > 0) {
    const Slice min_user_key = meta.smallest.user_key();
    const Slice max_user_key = meta.largest.user_key();
    if (base != nullptr) {
      level = base->PickLevelForMemTableOutput(min_user_key, max_user_key);
    }
    s = storage_->Install(meta.number, level, meta.file_size, metadata_offset);
    if (s.ok()) {
      edit->AddFile(level, meta.number, meta.file_size, meta.smallest,
                    meta.largest);
    }
    // Blob files carrying the separated values tier like the SST that
    // references them: installed at the flush output level, so fresh (hot)
    // blob data stays local and migrates to the cloud only when GC rewrites
    // it at a cloud-resident compaction level. The footer offset pins the
    // metadata tail locally for cloud placements. Registered in the same
    // edit, so SST references and blob files commit atomically.
    for (const auto& b : blob_writer.results()) {
      if (!s.ok()) break;
      s = storage_->Install(b.number, level, b.file_size, b.footer_offset);
      if (s.ok()) {
        edit->AddBlobFile(b.number, b.payload_bytes, b.record_count);
      }
    }
  } else if (meta.file_size == 0) {
    // why unchecked: the zero-length staging file was never installed;
    // removal is pure cleanup.
    storage_->Remove(meta.number).PermitUncheckedError();
  }
  if (level_used != nullptr) *level_used = level;

  CompactionStats stats;
  stats.micros = SystemClock::Default()->NowMicros() - start_micros;
  stats.bytes_written = meta.file_size;
  stats_[level].Add(stats);

  if (s.ok()) {
    RecordTick(options_.statistics, FLUSH_COUNT);
    RecordTick(options_.statistics, FLUSH_LANE_BYTES_WRITTEN, meta.file_size);
    RecordInHistogram(options_.statistics, FLUSH_LATENCY_US,
                      static_cast<double>(stats.micros));
    trace::EmitSpan(trace::kSpanFlush, start_micros,
                    static_cast<uint64_t>(stats.micros), meta.file_size,
                    meta.number);
  }
  if (flush_info != nullptr) {
    flush_info->file_number = meta.number;
    flush_info->file_size = meta.file_size;
    flush_info->level = level;
    flush_info->micros = static_cast<uint64_t>(stats.micros);
  }
  return s;
}

void DBImpl::CompactMemTable() {
  assert(imm_ != nullptr);

  // Save the contents of the memtable as a new Table.
  VersionEdit edit;
  Version* base = versions_->current();
  base->Ref();
  std::unique_ptr<Iterator> iter(imm_->NewIterator());
  uint64_t pending_number = 0;
  std::vector<uint64_t> pending_blob_numbers;
  FlushJobInfo flush_info;
  Status s = WriteLevel0Table(iter.get(), &edit, base, nullptr,
                              &pending_number, &pending_blob_numbers,
                              &flush_info);
  iter.reset();
  base->Unref();

  if (s.ok() && shutting_down_.load(std::memory_order_acquire)) {
    s = Status::ShutdownInProgress("deleting DB during memtable compaction");
  }

  // Replace immutable memtable with the generated Table.
  if (s.ok()) {
    edit.SetLogNumber(logfile_number_);  // Earlier logs no longer needed
    s = LogAndApplyLocked(&edit);
  }
  // The new table (and any blob files) are now either live in a version or
  // abandoned; in both cases they no longer need pending_outputs_ protection.
  pending_outputs_.erase(pending_number);
  for (uint64_t n : pending_blob_numbers) {
    pending_outputs_.erase(n);
  }

  if (s.ok()) {
    // Commit to the new state.
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    RemoveObsoleteFiles();
    if (!options_.listeners.empty()) {
      mutex_.Unlock();
      NotifyFlushCompleted(flush_info);
      mutex_.Lock();
    }
  } else if (shutting_down_.load(std::memory_order_acquire)) {
    // Teardown raced the flush; the memtable contents remain in the WAL and
    // are recovered on the next open.
  } else {
    bg_error_ = s;
    RM_LOG_ERROR(options_.info_log, "memtable flush error: %s",
                 s.ToString().c_str());
  }
}

Status DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int max_level_with_files = 1;
  {
    MutexLock l(&mutex_);
    Version* base = versions_->current();
    for (int level = 1; level < config::kNumLevels; level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
  }
  // A failed flush means the manual compaction would run over an incomplete
  // view; surface it instead of silently compacting less (previously the
  // status was dropped here).
  Status s = FlushMemTable();
  if (!s.ok()) return s;
  for (int level = 0; level < max_level_with_files; level++) {
    // Manual compaction of [begin, end] at this level.
    InternalKey begin_storage, end_storage;
    ManualCompaction manual;
    manual.level = level;
    manual.done = false;
    if (begin == nullptr) {
      manual.begin = nullptr;
    } else {
      begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
      manual.begin = &begin_storage;
    }
    if (end == nullptr) {
      manual.end = nullptr;
    } else {
      end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
      manual.end = &end_storage;
    }

    MutexLock l(&mutex_);
    while (!manual.done && !shutting_down_.load(std::memory_order_acquire) &&
           bg_error_.ok()) {
      if (manual_compaction_ == nullptr) {  // Idle
        manual_compaction_ = &manual;
        MaybeScheduleCompaction();
      } else {  // Running either my compaction or another compaction.
        background_work_finished_signal_.Wait();
      }
    }
    // Finish current background compaction in the case where `manual`
    // is still being used.
    while (manual_compaction_ == &manual) {
      background_work_finished_signal_.Wait();
    }
    if (!bg_error_.ok()) return bg_error_;
  }
  return Status::OK();
}

Status DBImpl::FlushMemTable() {
  // nullptr batch means just wait for earlier writes to be done.
  Status s = Write(WriteOptions(), nullptr);
  if (s.ok()) {
    // Wait until the compaction completes.
    MutexLock l(&mutex_);
    while (imm_ != nullptr && bg_error_.ok()) {
      background_work_finished_signal_.Wait();
    }
    if (imm_ != nullptr) {
      s = bg_error_;
    }
  }
  return s;
}

void DBImpl::WaitForCompaction() {
  {
    MutexLock l(&mutex_);
    while ((bg_flush_scheduled_ || bg_compaction_scheduled_ ||
            imm_ != nullptr || versions_->NeedsCompaction()) &&
           bg_error_.ok() && !shutting_down_.load(std::memory_order_acquire)) {
      MaybeScheduleCompaction();
      background_work_finished_signal_.Wait();
    }
  }
  // Uploads enqueued by installed flush/compaction outputs are part of
  // "background work done": draining them here makes tier placement and
  // upload counters deterministic for callers (tests, benches, backup).
  storage_->WaitForPendingUploads();
}

void DBImpl::TEST_CompactMemTable() {
  Status s = FlushMemTable();
  (void)s;
}

void DBImpl::MaybeScheduleCompaction() {
  if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
    // DB is being deleted or hit a background error; no more work.
    return;
  }
  // Flush lane: the immutable memtable drains independently of any running
  // compaction, so writers blocked in MakeRoomForWrite wake as soon as the
  // flush (not the whole compaction queue) completes.
  if (imm_ != nullptr && !bg_flush_scheduled_) {
    bg_flush_scheduled_ = true;
    if (!flush_pool_->Schedule([this] { BackgroundFlushCall(); })) {
      bg_flush_scheduled_ = false;  // Pool already shutting down.
    }
  }
  // Compaction lane.
  if (!bg_compaction_scheduled_ &&
      (manual_compaction_ != nullptr || versions_->NeedsCompaction())) {
    bg_compaction_scheduled_ = true;
    if (!compaction_pool_->Schedule([this] { BackgroundCompactionCall(); })) {
      bg_compaction_scheduled_ = false;
    }
  }
}

void DBImpl::BackgroundFlushCall() {
  MutexLock l(&mutex_);
  assert(bg_flush_scheduled_);
  if (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok() &&
      imm_ != nullptr) {
    CompactMemTable();
  }
  bg_flush_scheduled_ = false;
  // The flush may have created L0 pressure; let the compaction lane know.
  MaybeScheduleCompaction();
  background_work_finished_signal_.NotifyAll();
}

void DBImpl::BackgroundCompactionCall() {
  MutexLock l(&mutex_);
  assert(bg_compaction_scheduled_);
  if (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok()) {
    BackgroundCompaction();
  }
  bg_compaction_scheduled_ = false;

  // Previous compaction may have produced too many files in a level, so
  // reschedule another compaction if needed.
  MaybeScheduleCompaction();
  background_work_finished_signal_.NotifyAll();
}

Status DBImpl::LogAndApplyLocked(VersionEdit* edit) {
  // The flush and compaction lanes can reach a commit simultaneously, and
  // VersionSet::LogAndApply drops mutex_ around the MANIFEST write; queue
  // the second committer until the first is fully installed.
  while (manifest_write_in_progress_) {
    background_work_finished_signal_.Wait();
  }
  manifest_write_in_progress_ = true;
  StopWatch sw(options_.statistics, MANIFEST_WRITE_LATENCY_US);
  Status s = versions_->LogAndApply(edit, &mutex_);
  manifest_write_in_progress_ = false;
  background_work_finished_signal_.NotifyAll();
  return s;
}

void DBImpl::BackgroundCompaction() {
  Compaction* c;
  bool is_manual = (manual_compaction_ != nullptr);
  InternalKey manual_end;
  if (is_manual) {
    ManualCompaction* m = manual_compaction_;
    c = versions_->CompactRange(m->level, m->begin, m->end);
    m->done = (c == nullptr);
    if (c != nullptr) {
      manual_end = c->input(0, c->num_input_files(0) - 1)->largest;
    }
  } else {
    c = versions_->PickCompaction();
  }

  Status status;
  if (c == nullptr) {
    // Nothing to do.
  } else if (!is_manual && c->IsTrivialMove()) {
    // Move file to next level.
    assert(c->num_input_files(0) == 1);
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->level() + 1, f->number, f->file_size, f->smallest,
                       f->largest);
    status = storage_->OnLevelChange(f->number, c->level() + 1);
    if (status.ok()) {
      status = LogAndApplyLocked(c->edit());
    }
    if (!status.ok()) {
      bg_error_ = status;
    }
    VersionSet::LevelSummaryStorage tmp;
    RM_LOG_INFO(options_.info_log, "Moved #%lld to level-%d %lld bytes %s: %s",
                static_cast<long long>(f->number), c->level() + 1,
                static_cast<long long>(f->file_size),
                status.ToString().c_str(), versions_->LevelSummary(&tmp));
    if (status.ok()) {
      RecordTick(options_.statistics, COMPACTION_TRIVIAL_MOVES);
      if (!options_.listeners.empty()) {
        CompactionJobInfo info;
        info.level = c->level();
        info.output_level = c->level() + 1;
        info.num_input_files = 1;
        info.num_output_files = 1;
        info.trivial_move = true;
        mutex_.Unlock();
        NotifyCompactionCompleted(info);
        mutex_.Lock();
      }
    }
  } else {
    auto* compact = new CompactionState(c, this);
    status = DoCompactionWork(compact);
    if (!status.ok()) {
      if (shutting_down_.load(std::memory_order_acquire)) {
        // Expected when the DB is torn down mid-compaction; the inputs
        // remain live and the work redoes on the next open.
      } else {
        bg_error_ = status;
        RM_LOG_ERROR(options_.info_log, "Compaction error: %s",
                     status.ToString().c_str());
      }
    }
    CleanupCompaction(compact);
    c->ReleaseInputs();
    RemoveObsoleteFiles();
  }
  delete c;

  if (is_manual) {
    ManualCompaction* m = manual_compaction_;
    if (!status.ok()) {
      m->done = true;
    }
    if (!m->done) {
      // We only compacted part of the requested range. Update *m to the
      // range that is left to be compacted.
      m->tmp_storage = manual_end;
      m->begin = &m->tmp_storage;
    }
    manual_compaction_ = nullptr;
  }
}

void DBImpl::CleanupCompaction(CompactionState* compact) {
  if (compact->builder != nullptr) {
    // May happen if we get a shutdown call in the middle of compaction.
    compact->builder->Abandon();
    compact->builder.reset();
  }
  compact->outfile.reset();
  for (const auto& out : compact->outputs) {
    pending_outputs_.erase(out.number);
  }
  for (uint64_t n : compact->blob_writer.allocated_numbers()) {
    pending_outputs_.erase(n);
  }
  delete compact;
}

Status DBImpl::OpenCompactionOutputFile(CompactionState* compact) {
  assert(compact != nullptr);
  assert(compact->builder == nullptr);
  uint64_t file_number;
  {
    MutexLock l(&mutex_);
    file_number = versions_->NewFileNumber();
    pending_outputs_.insert(file_number);
    CompactionState::Output out;
    out.number = file_number;
    out.file_size = 0;
    out.metadata_offset = 0;
    out.smallest.Clear();
    out.largest.Clear();
    compact->outputs.push_back(out);
  }

  // Make the output file.
  Status s = storage_->NewStagingFile(file_number, &compact->outfile);
  if (s.ok()) {
    TableOptions topt;
    topt.comparator = &internal_comparator_;
    topt.filter_policy = internal_filter_policy_.get();
    topt.block_size = options_.block_size;
    topt.block_restart_interval = options_.block_restart_interval;
    topt.compression =
        options_.compress_blocks ? kLzCompression : kNoCompression;
    compact->builder =
        std::make_unique<TableBuilder>(topt, compact->outfile.get());
  }
  return s;
}

Status DBImpl::FinishCompactionOutputFile(CompactionState* compact,
                                          Iterator* input) {
  assert(compact != nullptr);
  assert(compact->outfile != nullptr);
  assert(compact->builder != nullptr);

  const uint64_t output_number = compact->current_output()->number;
  assert(output_number != 0);

  // Check for iterator errors.
  Status s = input->status();
  const uint64_t current_entries = compact->builder->NumEntries();
  if (s.ok()) {
    s = compact->builder->Finish();
  } else {
    compact->builder->Abandon();
  }
  const uint64_t current_bytes = compact->builder->FileSize();
  compact->current_output()->file_size = current_bytes;
  compact->current_output()->metadata_offset =
      compact->builder->MetadataOffset();
  compact->total_bytes += current_bytes;
  compact->builder.reset();

  // Finish and check for file errors.
  if (s.ok()) {
    s = compact->outfile->Sync();
  }
  if (s.ok()) {
    s = compact->outfile->Close();
  }
  compact->outfile.reset();

  if (s.ok() && current_entries > 0) {
    RM_LOG_INFO(options_.info_log, "Generated table #%llu@%d: %lld keys, %lld bytes",
                static_cast<unsigned long long>(output_number),
                compact->compaction->level(),
                static_cast<long long>(current_entries),
                static_cast<long long>(current_bytes));
  }
  return s;
}

Status DBImpl::InstallCompactionResults(CompactionState* compact) {
  RM_LOG_INFO(options_.info_log, "Compacted %d@%d + %d@%d files => %lld bytes",
              compact->compaction->num_input_files(0),
              compact->compaction->level(),
              compact->compaction->num_input_files(1),
              compact->compaction->level() + 1,
              static_cast<long long>(compact->total_bytes));

  // Add compaction outputs.
  compact->compaction->AddInputDeletions(compact->compaction->edit());
  const int level = compact->compaction->level();
  Status s;
  {
    // Install into tiered storage before publishing in the manifest.
    mutex_.Unlock();
    for (const auto& out : compact->outputs) {
      s = storage_->Install(out.number, level + 1, out.file_size,
                            out.metadata_offset);
      if (!s.ok()) break;
    }
    // GC-rewrite blob outputs tier with the compaction's output level, like
    // the SSTs that reference them: rewrites at cloud-resident levels land
    // in the cloud, shallow rewrites stay local.
    if (s.ok()) {
      for (const auto& b : compact->blob_writer.results()) {
        s = storage_->Install(b.number, level + 1, b.file_size,
                              b.footer_offset);
        if (!s.ok()) break;
      }
    }
    mutex_.Lock();
  }
  if (!s.ok()) return s;

  for (const auto& out : compact->outputs) {
    compact->compaction->edit()->AddFile(level + 1, out.number, out.file_size,
                                         out.smallest, out.largest);
  }
  for (const auto& b : compact->blob_writer.results()) {
    compact->compaction->edit()->AddBlobFile(b.number, b.payload_bytes,
                                             b.record_count);
  }
  // Fold this compaction's per-file garbage into the edit. A file whose
  // cumulative garbage reaches its payload has no live SST reference left
  // (each blob record has exactly one) and is dropped from the version;
  // refcounted older versions keep it readable until they die, after which
  // RemoveObsoleteFiles reclaims the bytes.
  if (!compact->blob_garbage.empty()) {
    const auto& blob_files = versions_->current()->blob_files();
    for (const auto& [number, g] : compact->blob_garbage) {
      compact->compaction->edit()->AddBlobGarbage(number, g.first, g.second);
      auto it = blob_files.find(number);
      if (it != blob_files.end() &&
          it->second->garbage_bytes + g.first >= it->second->payload_bytes) {
        compact->compaction->edit()->RemoveBlobFile(number);
        RecordTick(options_.statistics, BLOB_GC_FILES_OBSOLETED);
      }
    }
  }
  return LogAndApplyLocked(compact->compaction->edit());
}

Status DBImpl::DoCompactionWork(CompactionState* compact) {
  const uint64_t start_micros = SystemClock::Default()->NowMicros();

  RM_LOG_INFO(options_.info_log, "Compacting %d@%d + %d@%d files",
              compact->compaction->num_input_files(0),
              compact->compaction->level(),
              compact->compaction->num_input_files(1),
              compact->compaction->level() + 1);

  assert(versions_->NumLevelFiles(compact->compaction->level()) > 0);
  assert(compact->builder == nullptr);
  assert(compact->outfile == nullptr);
  if (snapshots_.empty()) {
    compact->smallest_snapshot = versions_->LastSequence();
  } else {
    compact->smallest_snapshot = snapshots_.oldest()->sequence_number();
  }

  std::unique_ptr<Iterator> input =
      versions_->MakeInputIterator(compact->compaction);

  // Blob files whose garbage ratio crossed the GC cutoff: live records read
  // from them during this compaction are rewritten into fresh blob files so
  // the old files retire once fully dereferenced. Snapshotted once under
  // mutex_; compactions are the only garbage writers and run serialized, so
  // the ratios cannot regress mid-job.
  std::set<uint64_t> gc_candidates;
  const double gc_cutoff = options_.blob.blob_gc_age_cutoff;
  if (options_.blob.enable && gc_cutoff < 1.0) {
    for (const auto& [number, b] : versions_->current()->blob_files()) {
      if (b->garbage_bytes < b->payload_bytes &&
          b->GarbageRatio() >= gc_cutoff) {
        gc_candidates.insert(number);
      }
    }
  }

  // Release mutex while we're actually doing the compaction work.
  mutex_.Unlock();

  input->SeekToFirst();
  Status status;
  ParsedInternalKey ikey;
  std::string current_user_key;
  std::string gc_index;
  bool has_current_user_key = false;
  bool key_parsed = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  while (input->Valid() && !shutting_down_.load(std::memory_order_acquire)) {
    // Memtable flushes run on their own lane now; the compaction loop no
    // longer pauses to drain imm_ inline.
    Slice key = input->key();
    if (compact->compaction->ShouldStopBefore(key) &&
        compact->builder != nullptr) {
      status = FinishCompactionOutputFile(compact, input.get());
      if (!status.ok()) {
        break;
      }
    }

    // Handle key/value, add to state, etc.
    bool drop = false;
    key_parsed = ParseInternalKey(key, &ikey);
    if (!key_parsed) {
      // Do not hide error keys.
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key ||
          user_comparator()->Compare(ikey.user_key, Slice(current_user_key)) !=
              0) {
        // First occurrence of this user key.
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      if (last_sequence_for_key <= compact->smallest_snapshot) {
        // Hidden by a newer entry for same user key.
        drop = true;  // (A)
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= compact->smallest_snapshot &&
                 compact->compaction->IsBaseLevelForKey(ikey.user_key)) {
        // For this user key:
        // (1) there is no data in higher levels
        // (2) data in lower levels will have larger sequence numbers
        // (3) data in layers that are being compacted here and have smaller
        //     sequence numbers will be dropped in the next few iterations of
        //     this loop (by rule (A) above).
        // Therefore this deletion marker is obsolete and can be dropped.
        drop = true;
      }

      last_sequence_for_key = ikey.sequence;
    }

    if (drop && ikey.type == kTypeBlobIndex) {
      // The dropped entry was the sole live reference to its blob record
      // (flush creates exactly one per record); account it as garbage so
      // the owning file's ratio advances toward retirement.
      BlobIndex bi;
      if (bi.DecodeFrom(input->value()).ok()) {
        auto& g = compact->blob_garbage[bi.file_number];
        g.first += bi.size;
        g.second += 1;
      }
      // An undecodable index on a dropped entry only loses its accounting.
    }

    if (!drop) {
      Slice output_value = input->value();
      if (key_parsed && ikey.type == kTypeBlobIndex) {
        BlobIndex bi;
        status = bi.DecodeFrom(output_value);
        if (!status.ok()) {
          // A corrupt live blob reference must not be copied forward.
          break;
        }
        if (gc_candidates.count(bi.file_number) != 0) {
          // GC rewrite: move the live record into a fresh blob file and
          // point the surviving SST entry at it; the old record becomes
          // garbage, completing the old file's retirement accounting.
          PinnableSlice record;
          status = blob_cache_->Get(ReadOptions(), bi, &record);
          if (status.ok()) {
            status = compact->blob_writer.Add(record, &gc_index);
          }
          if (!status.ok()) {
            break;
          }
          output_value = Slice(gc_index);
          auto& g = compact->blob_garbage[bi.file_number];
          g.first += bi.size;
          g.second += 1;
          RecordTick(options_.statistics, BLOB_GC_REWRITTEN_BYTES, bi.size);
        }
      }

      // Open output file if necessary.
      if (compact->builder == nullptr) {
        status = OpenCompactionOutputFile(compact);
        if (!status.ok()) {
          break;
        }
      }
      if (compact->builder->NumEntries() == 0) {
        compact->current_output()->smallest.DecodeFrom(key);
      }
      compact->current_output()->largest.DecodeFrom(key);
      compact->builder->Add(key, output_value);

      // Close output file if it is big enough.
      if (compact->builder->FileSize() >=
          compact->compaction->MaxOutputFileSize()) {
        status = FinishCompactionOutputFile(compact, input.get());
        if (!status.ok()) {
          break;
        }
      }
    }

    input->Next();
  }

  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::ShutdownInProgress("deleting DB during compaction");
  }
  if (status.ok() && compact->builder != nullptr) {
    status = FinishCompactionOutputFile(compact, input.get());
  }
  if (status.ok()) {
    status = input->status();
  }
  // GC blob data becomes durable before the manifest commit references it.
  if (status.ok()) {
    status = compact->blob_writer.Finish();
  }
  if (!status.ok()) {
    compact->blob_writer.Abandon();
  }
  input.reset();

  CompactionStats stats;
  stats.micros = SystemClock::Default()->NowMicros() - start_micros;
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < compact->compaction->num_input_files(which); i++) {
      stats.bytes_read += compact->compaction->input(which, i)->file_size;
    }
  }
  for (const auto& out : compact->outputs) {
    stats.bytes_written += out.file_size;
  }

  mutex_.Lock();
  stats_[compact->compaction->level() + 1].Add(stats);

  if (status.ok()) {
    status = InstallCompactionResults(compact);
  }
  if (status.ok()) {
    RecordTick(options_.statistics, COMPACTION_COUNT);
    RecordTick(options_.statistics, COMPACTION_LANE_BYTES_READ,
               static_cast<uint64_t>(stats.bytes_read));
    RecordTick(options_.statistics, COMPACTION_LANE_BYTES_WRITTEN,
               static_cast<uint64_t>(stats.bytes_written));
    RecordInHistogram(options_.statistics, COMPACTION_LATENCY_US,
                      static_cast<double>(stats.micros));
    trace::EmitSpan(trace::kSpanCompaction, start_micros,
                    static_cast<uint64_t>(stats.micros),
                    static_cast<uint64_t>(stats.bytes_written),
                    static_cast<uint64_t>(compact->compaction->level()));
    if (!options_.listeners.empty()) {
      CompactionJobInfo info;
      info.level = compact->compaction->level();
      info.output_level = compact->compaction->level() + 1;
      info.num_input_files = compact->compaction->num_input_files(0) +
                             compact->compaction->num_input_files(1);
      info.num_output_files = static_cast<int>(compact->outputs.size());
      info.bytes_read = static_cast<uint64_t>(stats.bytes_read);
      info.bytes_written = static_cast<uint64_t>(stats.bytes_written);
      info.micros = static_cast<uint64_t>(stats.micros);
      mutex_.Unlock();
      NotifyCompactionCompleted(info);
      mutex_.Lock();
    }
  }
  VersionSet::LevelSummaryStorage tmp;
  RM_LOG_INFO(options_.info_log, "compacted to: %s",
              versions_->LevelSummary(&tmp));
  return status;
}

namespace {

struct IterState {
  Mutex* const mu;
  Version* const version;
  MemTable* const mem;
  MemTable* const imm;

  IterState(Mutex* m, MemTable* mem_in, MemTable* imm_in, Version* v)
      : mu(m), version(v), mem(mem_in), imm(imm_in) {}
};

void CleanupIteratorState(IterState* state) {
  state->mu->Lock();
  state->mem->Unref();
  if (state->imm != nullptr) state->imm->Unref();
  state->version->Unref();
  state->mu->Unlock();
  delete state;
}

}  // namespace

std::unique_ptr<Iterator> DBImpl::NewInternalIterator(
    const ReadOptions& options, SequenceNumber* latest_snapshot) {
  mutex_.Lock();
  *latest_snapshot = versions_->LastSequence();

  // Collect together all needed child iterators.
  std::vector<std::unique_ptr<Iterator>> list;
  list.push_back(mem_->NewIterator());
  mem_->Ref();
  if (imm_ != nullptr) {
    list.push_back(imm_->NewIterator());
    imm_->Ref();
  }
  versions_->current()->AddIterators(options, &list);
  std::unique_ptr<Iterator> internal_iter =
      NewMergingIterator(&internal_comparator_, std::move(list));
  versions_->current()->Ref();

  auto* cleanup =
      new IterState(&mutex_, mem_, imm_, versions_->current());
  internal_iter->RegisterCleanup([cleanup] { CleanupIteratorState(cleanup); });

  mutex_.Unlock();
  return internal_iter;
}

Status DBImpl::ResolveBlobValue(const ReadOptions& options,
                                PinnableSlice* value) {
  BlobIndex index;
  Status s = index.DecodeFrom(*value);
  if (!s.ok()) return s;
  // A point read is a batch of one: a cold record costs one exact-size
  // fetch through BlockSource::ReadBlocks, not a scan's readahead window.
  BlobReadRequest req;
  req.index = index;
  req.value = value;
  blob_cache_->MultiGet(options, index.file_number, &req, 1);
  return req.status;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   PinnableSlice* value) {
  Status s;
  {
    // Tracing-off cost on the read hot path: this one relaxed load.
    trace::Tracer* tracer = tracer_.load(std::memory_order_relaxed);
    if (tracer != nullptr) {
      tracer->RecordGet(key, options.snapshot != nullptr);
    }
  }
  // Declared before MutexLock so the latency sample is taken after the lock
  // is released (destructors run in reverse order).
  StopWatch sw(options_.statistics, GET_LATENCY_US);
  PerfCount(&PerfContext::get_count);
  MutexLock l(&mutex_);
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot =
        static_cast<const SnapshotImpl*>(options.snapshot)->sequence_number();
  } else {
    snapshot = versions_->LastSequence();
  }

  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) imm->Ref();
  current->Ref();

  // Unlock while reading from files and memtables.
  {
    mutex_.Unlock();
    // First look in the memtable, then in the immutable memtable (if any).
    LookupKey lkey(key, snapshot);
    bool in_memtable = false;
    {
      PerfScope mem_scope(&PerfContext::get_from_memtable_time);
      in_memtable = mem->Get(lkey, value->GetSelf(), &s) ||
                    (imm != nullptr && imm->Get(lkey, value->GetSelf(), &s));
    }
    if (in_memtable) {
      if (s.ok()) value->PinSelf();
      RecordTick(options_.statistics, MEMTABLE_HIT);
      PerfCount(&PerfContext::get_from_memtable_count);
    } else {
      PerfScope sst_scope(&PerfContext::get_from_sst_time);
      bool is_blob_index = false;
      s = current->Get(options, lkey, value, &is_blob_index);
      if (s.ok() && is_blob_index) {
        // The SST entry was a blob index; fetch the record it points at.
        // Runs here, with mutex_ released, like any other file read.
        s = ResolveBlobValue(options, value);
      }
    }
    RecordTick(options_.statistics, NUM_KEYS_READ);
    mutex_.Lock();
  }

  mem->Unref();
  if (imm != nullptr) imm->Unref();
  current->Unref();
  return s;
}

void DBImpl::MultiGet(const ReadOptions& options,
                      const std::vector<Slice>& keys,
                      std::vector<PinnableSlice>* values,
                      std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->clear();
  values->resize(n);
  statuses->assign(n, Status::OK());
  if (n == 0) return;

  {
    trace::Tracer* tracer = tracer_.load(std::memory_order_relaxed);
    if (tracer != nullptr) tracer->RecordMultiGet(keys);
  }

  // Declared before MutexLock so the latency sample is taken after the lock
  // is released (destructors run in reverse order).
  StopWatch sw(options_.statistics, MULTIGET_LATENCY_US);
  PerfScope batch_scope(&PerfContext::multiget_time);
  PerfCount(&PerfContext::multiget_count);
  PerfCount(&PerfContext::multiget_key_count, n);
  RecordTick(options_.statistics, MULTIGET_BATCHES);
  RecordTick(options_.statistics, MULTIGET_KEYS, n);

  MutexLock l(&mutex_);
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot =
        static_cast<const SnapshotImpl*>(options.snapshot)->sequence_number();
  } else {
    snapshot = versions_->LastSequence();
  }

  // One superversion for the whole batch: every key reads the same state.
  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) imm->Ref();
  current->Ref();

  // Unlock while reading from files and memtables.
  {
    mutex_.Unlock();
    std::vector<std::unique_ptr<LookupKey>> lkeys;
    lkeys.reserve(n);
    std::vector<Version::GetRequest> vreqs(n);
    size_t mem_hits = 0;
    bool need_sst = false;
    {
      PerfScope mem_scope(&PerfContext::get_from_memtable_time);
      for (size_t i = 0; i < n; i++) {
        lkeys.push_back(std::make_unique<LookupKey>(keys[i], snapshot));
        Version::GetRequest* req = &vreqs[i];
        req->key = lkeys.back().get();
        req->value = &(*values)[i];
        Status st;
        if (mem->Get(*lkeys.back(), req->value->GetSelf(), &st) ||
            (imm != nullptr &&
             imm->Get(*lkeys.back(), req->value->GetSelf(), &st))) {
          if (st.ok()) req->value->PinSelf();
          req->status = st;
          req->done = true;
          mem_hits++;
        } else {
          need_sst = true;
        }
      }
    }
    if (mem_hits > 0) {
      RecordTick(options_.statistics, MEMTABLE_HIT, mem_hits);
      RecordTick(options_.statistics, MULTIGET_MEMTABLE_HITS, mem_hits);
      PerfCount(&PerfContext::get_from_memtable_count, mem_hits);
    }
    if (need_sst) {
      PerfScope sst_scope(&PerfContext::get_from_sst_time);
      current->MultiGet(options, vreqs.data(), n);
    }
    // Resolve blob indexes, coalescing per blob file: each file's records
    // ride one batched read, which dedups/coalesces block fetches and fans
    // cloud misses out underneath (same machinery as SST MultiGet).
    struct BlobResolve {
      size_t req_index;
      BlobIndex index;
    };
    std::map<uint64_t, std::vector<BlobResolve>> blob_by_file;
    for (size_t i = 0; i < n; i++) {
      Version::GetRequest* req = &vreqs[i];
      if (!req->is_blob_index || !req->status.ok()) continue;
      BlobIndex bi;
      Status bs = bi.DecodeFrom(*req->value);
      if (!bs.ok()) {
        req->status = std::move(bs);
        continue;
      }
      blob_by_file[bi.file_number].push_back(BlobResolve{i, bi});
    }
    for (auto& [file_number, group] : blob_by_file) {
      std::vector<BlobReadRequest> breqs(group.size());
      for (size_t k = 0; k < group.size(); k++) {
        breqs[k].index = group[k].index;
        breqs[k].value = vreqs[group[k].req_index].value;
      }
      blob_cache_->MultiGet(options, file_number, breqs.data(), breqs.size());
      for (size_t k = 0; k < group.size(); k++) {
        vreqs[group[k].req_index].status = std::move(breqs[k].status);
      }
    }
    for (size_t i = 0; i < n; i++) {
      (*statuses)[i] = vreqs[i].status;
    }
    RecordTick(options_.statistics, NUM_KEYS_READ, n);
    mutex_.Lock();
  }

  mem->Unref();
  if (imm != nullptr) imm->Unref();
  current->Unref();
}

// DBIter: wraps the internal iterator, exposing only the newest visible
// (per-snapshot) user entry for each key and hiding deletions.
namespace {

class DBIter final : public Iterator {
 public:
  DBIter(const Comparator* user_cmp, const PrefixExtractor* prefix_extractor,
         std::unique_ptr<Iterator> iter, SequenceNumber sequence,
         Statistics* statistics, bool prefix_same_as_start,
         BlobFileCache* blob_cache, const ReadOptions& read_options)
      : user_comparator_(user_cmp),
        prefix_extractor_(prefix_extractor),
        prefix_mode_(prefix_same_as_start && prefix_extractor != nullptr),
        iter_(std::move(iter)),
        sequence_(sequence),
        statistics_(statistics),
        blob_cache_(blob_cache),
        read_options_(read_options),
        direction_(kForward),
        valid_(false) {}

  bool Valid() const override { return valid_; }
  Slice key() const override {
    assert(valid_);
    return (direction_ == kForward) ? ExtractUserKey(iter_->key()) : saved_key_;
  }
  Slice value() const override {
    assert(valid_);
    if (direction_ != kForward) return saved_value_;
    // Blob entries were resolved eagerly when the entry was accepted.
    return current_is_blob_ ? Slice(blob_value_) : iter_->value();
  }
  Status status() const override {
    if (status_.ok()) {
      return iter_->status();
    }
    return status_;
  }

  void Next() override {
    assert(valid_);
    PerfCount(&PerfContext::iter_next_count);
    if (direction_ == kReverse) {  // Switch directions?
      direction_ = kForward;
      // iter_ is pointing just before the entries for this->key(), so
      // advance into the range of entries for this->key() and then use the
      // normal skipping code below.
      if (!iter_->Valid()) {
        iter_->SeekToFirst();
      } else {
        iter_->Next();
      }
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        return;
      }
      // saved_key_ already contains the key to skip past.
    } else {
      // Store in saved_key_ the current key so we skip it below.
      SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
      // iter_ is pointing to current key. We can now safely move to the
      // next to avoid checking current key.
      iter_->Next();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        return;
      }
    }

    FindNextUserEntry(true, &saved_key_);
  }

  void Prev() override {
    assert(valid_);
    if (prefix_active_) {
      // A prefix-constrained iterator is forward-only: the Seek may have
      // skipped whole runs whose filters excluded the prefix AT OR AFTER
      // the target, which says nothing about prefix keys before it.
      valid_ = false;
      saved_key_.clear();
      ClearSavedValue();
      return;
    }
    if (direction_ == kForward) {  // Switch directions?
      // iter_ is pointing at the current entry. Scan backwards until the key
      // changes so we can use the normal reverse scanning code.
      assert(iter_->Valid());  // Otherwise valid_ would have been false
      SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
      while (true) {
        iter_->Prev();
        if (!iter_->Valid()) {
          valid_ = false;
          saved_key_.clear();
          ClearSavedValue();
          return;
        }
        if (user_comparator_->Compare(ExtractUserKey(iter_->key()),
                                      saved_key_) < 0) {
          break;
        }
      }
      direction_ = kReverse;
    }

    FindPrevUserEntry();
  }

  void Seek(const Slice& target) override {
    StopWatch sw(statistics_, SCAN_SEEK_LATENCY_US);
    PerfCount(&PerfContext::iter_seek_count);
    direction_ = kForward;
    ClearSavedValue();
    prefix_active_ = false;
    if (prefix_mode_ && prefix_extractor_->InDomain(target)) {
      const Slice p = prefix_extractor_->Transform(target);
      prefix_.assign(p.data(), p.size());
      prefix_active_ = true;
    }
    saved_key_.clear();
    AppendInternalKey(&saved_key_,
                      ParsedInternalKey(target, sequence_, kValueTypeForSeek));
    iter_->Seek(saved_key_);
    if (iter_->Valid()) {
      saved_key_.clear();
      FindNextUserEntry(false, &saved_key_ /* temporary storage */);
    } else {
      valid_ = false;
    }
  }

  void SeekToFirst() override {
    StopWatch sw(statistics_, SCAN_SEEK_LATENCY_US);
    PerfCount(&PerfContext::iter_seek_count);
    direction_ = kForward;
    prefix_active_ = false;
    ClearSavedValue();
    iter_->SeekToFirst();
    if (iter_->Valid()) {
      saved_key_.clear();
      FindNextUserEntry(false, &saved_key_ /* temporary storage */);
    } else {
      valid_ = false;
    }
  }

  void SeekToLast() override {
    StopWatch sw(statistics_, SCAN_SEEK_LATENCY_US);
    PerfCount(&PerfContext::iter_seek_count);
    direction_ = kReverse;
    prefix_active_ = false;
    ClearSavedValue();
    iter_->SeekToLast();
    FindPrevUserEntry();
  }

 private:
  enum Direction { kForward, kReverse };

  void FindNextUserEntry(bool skipping, std::string* skip) {
    // Loop until we hit an acceptable entry to yield.
    assert(iter_->Valid());
    assert(direction_ == kForward);
    do {
      ParsedInternalKey ikey;
      if (ParseKey(&ikey)) {
        if (prefix_active_ && OutOfPrefix(ikey.user_key)) {
          // Past the last key sharing the seek prefix: stop here instead of
          // walking (and faulting in) the rest of the keyspace.
          saved_key_.clear();
          valid_ = false;
          return;
        }
        if (ikey.sequence <= sequence_) {
          switch (ikey.type) {
            case kTypeDeletion:
              // Arrange to skip all upcoming entries for this key since
              // they are hidden by this deletion.
              SaveKey(ikey.user_key, skip);
              skipping = true;
              break;
            case kTypeValue:
            case kTypeBlobIndex:
              if (skipping &&
                  user_comparator_->Compare(ikey.user_key, *skip) <= 0) {
                // Entry hidden.
              } else {
                current_is_blob_ = false;
                if (ikey.type == kTypeBlobIndex &&
                    !ResolveBlobEntry(iter_->value())) {
                  // Resolution error latched into status_; stop the scan.
                  saved_key_.clear();
                  valid_ = false;
                  return;
                }
                valid_ = true;
                saved_key_.clear();
                return;
              }
              break;
          }
        }
      }
      iter_->Next();
    } while (iter_->Valid());
    saved_key_.clear();
    valid_ = false;
  }

  void FindPrevUserEntry() {
    assert(direction_ == kReverse);

    ValueType value_type = kTypeDeletion;
    if (iter_->Valid()) {
      do {
        ParsedInternalKey ikey;
        if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
          if ((value_type != kTypeDeletion) &&
              user_comparator_->Compare(ikey.user_key, saved_key_) < 0) {
            // We encountered a non-deleted value in entries for previous keys.
            break;
          }
          value_type = ikey.type;
          if (value_type == kTypeDeletion) {
            saved_key_.clear();
            ClearSavedValue();
          } else {
            Slice raw_value = iter_->value();
            if (saved_value_.capacity() > raw_value.size() + 1048576) {
              std::string empty;
              std::swap(empty, saved_value_);
            }
            SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
            saved_value_.assign(raw_value.data(), raw_value.size());
            saved_is_blob_ = (value_type == kTypeBlobIndex);
          }
        }
        iter_->Prev();
      } while (iter_->Valid());
    }

    if (value_type == kTypeDeletion) {
      // End.
      valid_ = false;
      saved_key_.clear();
      ClearSavedValue();
      direction_ = kForward;
    } else {
      if (saved_is_blob_) {
        // Resolve once for the winning entry only; the walk above saves raw
        // values speculatively and must not fetch a blob per candidate.
        saved_is_blob_ = false;
        if (!ResolveBlobEntry(Slice(saved_value_))) {
          valid_ = false;
          saved_key_.clear();
          ClearSavedValue();
          direction_ = kForward;
          return;
        }
        saved_value_.assign(blob_value_.data(), blob_value_.size());
        current_is_blob_ = false;
      }
      valid_ = true;
    }
  }

  bool ParseKey(ParsedInternalKey* ikey) {
    if (!ParseInternalKey(iter_->key(), ikey)) {
      status_ = Status::Corruption("corrupted internal key in DBIter");
      return false;
    }
    return true;
  }

  // Fetches the blob record referenced by `encoded_index` into blob_value_
  // and sets current_is_blob_. A failure latches into status_ (value() is
  // const, so resolution must be eager) and returns false.
  bool ResolveBlobEntry(const Slice& encoded_index) {
    if (blob_cache_ == nullptr) {
      status_ = Status::Corruption("blob index met with no blob file cache");
      return false;
    }
    BlobIndex index;
    Status s = index.DecodeFrom(encoded_index);
    if (s.ok()) {
      s = blob_cache_->Get(read_options_, index, &blob_value_);
    }
    if (!s.ok()) {
      status_ = std::move(s);
      return false;
    }
    current_is_blob_ = true;
    return true;
  }

  void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  // True when user_key no longer shares the active seek prefix.
  bool OutOfPrefix(const Slice& user_key) const {
    return !prefix_extractor_->InDomain(user_key) ||
           prefix_extractor_->Transform(user_key) != Slice(prefix_);
  }

  void ClearSavedValue() {
    if (saved_value_.capacity() > 1048576) {
      std::string empty;
      std::swap(empty, saved_value_);
    } else {
      saved_value_.clear();
    }
  }

  const Comparator* const user_comparator_;
  const PrefixExtractor* const prefix_extractor_;  // Over user keys; may be null
  const bool prefix_mode_;  // prefix_same_as_start with an extractor set
  const std::unique_ptr<Iterator> iter_;
  SequenceNumber const sequence_;
  Statistics* const statistics_;
  BlobFileCache* const blob_cache_;  // May be null (no blob support)
  const ReadOptions read_options_;
  Status status_;
  std::string saved_key_;    // == current key when direction_==kReverse
  std::string saved_value_;  // == current value when direction_==kReverse
  std::string prefix_;       // Active seek prefix when prefix_active_
  PinnableSlice blob_value_;  // Resolved record of the current blob entry
  Direction direction_;
  bool valid_;
  bool prefix_active_ = false;  // Set by Seek in prefix mode
  bool current_is_blob_ = false;  // Forward: value() reads blob_value_
  bool saved_is_blob_ = false;    // Reverse: saved_value_ is an index
};

}  // namespace

std::unique_ptr<Iterator> DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber latest_snapshot;
  std::unique_ptr<Iterator> iter =
      NewInternalIterator(options, &latest_snapshot);
  std::unique_ptr<Iterator> db_iter = std::make_unique<DBIter>(
      user_comparator(), options_.prefix_extractor, std::move(iter),
      (options.snapshot != nullptr
           ? static_cast<const SnapshotImpl*>(options.snapshot)
                 ->sequence_number()
           : latest_snapshot),
      options_.statistics,
      options.prefix_same_as_start, blob_cache_.get(), options);
  trace::Tracer* tracer = tracer_.load(std::memory_order_relaxed);
  if (tracer != nullptr) {
    // One sampling decision covers the iterator's whole lifetime: id 0
    // means sampled out, and then its Seek/Next ops go unrecorded too.
    uint64_t iter_id = tracer->RecordNewIterator(options.snapshot != nullptr);
    if (iter_id != 0) {
      return std::make_unique<trace::TracingIterator>(std::move(db_iter),
                                                      tracer, iter_id);
    }
  }
  return db_iter;
}

const Snapshot* DBImpl::GetSnapshot() {
  MutexLock l(&mutex_);
  return snapshots_.New(versions_->LastSequence());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  MutexLock l(&mutex_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

// Convenience methods.
Status DB::Put(const WriteOptions& opt, const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(opt, &batch);
}

Status DB::Delete(const WriteOptions& opt, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(opt, &batch);
}

Status DB::Get(const ReadOptions& options, const Slice& key,
               std::string* value) {
  PinnableSlice pinned;
  Status s = Get(options, key, &pinned);
  if (s.ok()) {
    value->assign(pinned.data(), pinned.size());
  }
  return s;
}

void DB::MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                  std::vector<PinnableSlice>* values,
                  std::vector<Status>* statuses) {
  values->clear();
  values->resize(keys.size());
  statuses->assign(keys.size(), Status::OK());
  for (size_t i = 0; i < keys.size(); i++) {
    (*statuses)[i] = Get(options, keys[i], &(*values)[i]);
  }
}

void DB::MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) {
  std::vector<PinnableSlice> pinned;
  MultiGet(options, keys, &pinned, statuses);
  values->clear();
  values->resize(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    if ((*statuses)[i].ok()) {
      (*values)[i].assign(pinned[i].data(), pinned[i].size());
    }
  }
}

bool DB::GetProperty(const Slice& /*property*/,
                     std::map<std::string, std::string>* /*value*/) {
  return false;
}

Status DB::StartTrace(const trace::TraceOptions& /*trace_options*/,
                      const std::string& /*trace_file_path*/) {
  return Status::NotSupported("tracing not supported by this DB");
}

Status DB::EndTrace() {
  return Status::NotSupported("tracing not supported by this DB");
}

Status DBImpl::StartTrace(const trace::TraceOptions& trace_options,
                          const std::string& trace_file_path) {
  MutexLock l(&trace_mu_);
  if (active_tracer_ != nullptr) {
    return Status::InvalidArgument("trace already active");
  }
  auto tracer = std::make_unique<trace::Tracer>(
      env_, SystemClock::Default(), options_.statistics, trace_options);
  Status s = tracer->Open(trace_file_path);
  if (!s.ok()) return s;
  if (trace_options.trace_spans) {
    // Span capture is process-global; if another DB already owns it this
    // capture proceeds with op records only.
    (void)trace::SpanHub::Instance()->Attach(tracer.get());
  }
  active_tracer_ = std::move(tracer);
  tracer_.store(active_tracer_.get(), std::memory_order_release);
  return Status::OK();
}

Status DBImpl::EndTrace() {
  MutexLock l(&trace_mu_);
  if (active_tracer_ == nullptr) {
    return Status::InvalidArgument("no trace active");
  }
  tracer_.store(nullptr, std::memory_order_release);
  // Finish detaches the tracer from the SpanHub, drains every per-thread
  // buffer, and writes the footer. The object is retired, not freed: an op
  // that loaded the pointer just before the store above (or a live
  // TracingIterator) may still call into it — harmlessly, as no-ops.
  Status s = active_tracer_->Finish();
  retired_tracers_.push_back(std::move(active_tracer_));
  return s;
}

namespace {
// DBImpl::Put/Delete record a dedicated put/delete trace record, then route
// through DB::Put/DB::Delete -> DBImpl::Write, which would also record the
// synthesized one-entry batch. This flag suppresses the inner record.
thread_local bool t_trace_suppressed = false;

struct TraceSuppressScope {
  TraceSuppressScope() { t_trace_suppressed = true; }
  ~TraceSuppressScope() { t_trace_suppressed = false; }
};
}  // namespace

Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  trace::Tracer* tracer = tracer_.load(std::memory_order_relaxed);
  if (tracer == nullptr) return DB::Put(o, key, val);
  tracer->RecordPut(key, val, o.sync);
  TraceSuppressScope suppress;
  return DB::Put(o, key, val);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  trace::Tracer* tracer = tracer_.load(std::memory_order_relaxed);
  if (tracer == nullptr) return DB::Delete(options, key);
  tracer->RecordDelete(key, options.sync);
  TraceSuppressScope suppress;
  return DB::Delete(options, key);
}

// The write path, in two stages. Stage 1 (WAL): the queue-front leader
// makes room, builds the group, allocates its sequence range from
// last_allocated_sequence_, and appends the single merged WAL record while
// still holding queue leadership — so the WalManager keeps seeing one
// appender at a time. It syncs before handing the queue on, unless the
// WalManager's syncs can overlap (a multi-segment eWAL): then the group
// syncs after the hand-off, beside the next groups' appends and syncs.
// Stage 2 (apply): the group moves to applying_groups_, the queue is handed
// to the next leader (whose WAL stage now overlaps with this apply), and
// every member CAS-inserts its own sub-batch into the memtable, concurrently
// with the rest of its group and with other applying groups.
// versions_->LastSequence() advances only in PublishCompletedGroups, in
// group order, once every insert of the group has landed: reads and
// snapshots never observe a partially applied group. A null batch is a
// flush barrier: it always leads a group of its own (see BuildBatchGroup).
Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  if (updates != nullptr) {
    // Tracing-off cost on the write hot path: this one relaxed load.
    trace::Tracer* tracer = tracer_.load(std::memory_order_relaxed);
    if (tracer != nullptr && !t_trace_suppressed) {
      tracer->RecordWriteBatch(WriteBatchInternal::Contents(updates),
                               options.sync);
    }
  }

  Writer w(&mutex_);
  w.batch = updates;
  w.sync = options.sync;
  w.done = false;

  // Flush barriers are not user writes; don't time or count them.
  Statistics* const stats = updates != nullptr ? options_.statistics : nullptr;
  SystemClock* const clock = SystemClock::Default();
  const bool timed =
      updates != nullptr && (options_.statistics != nullptr ||
                             GetPerfLevel() >= PerfLevel::kEnableTime ||
                             trace::SpanHub::Instance()->armed());
  const uint64_t enqueue_micros = timed ? clock->NowMicros() : 0;

  MutexLock l(&mutex_);
  writers_.push_back(&w);
  while (true) {
    if (w.done || w.parallel_ready) break;
    // Popped group members are no longer in writers_, so guard the front
    // check (a follower parks here until its apply stage starts).
    if (!writers_.empty() && &w == writers_.front()) break;
    w.cv.Wait();
  }
  if (timed) {
    const uint64_t waited = clock->NowMicros() - enqueue_micros;
    RecordInHistogram(stats, WRITE_QUEUE_WAIT_US, waited);
    if (GetPerfLevel() >= PerfLevel::kEnableTime) {
      GetPerfContext()->write_queue_wait_time += waited;
    }
    trace::EmitSpan(trace::kSpanQueueWait, enqueue_micros, waited, 0, 0);
  }
  if (w.done) {
    return w.status;
  }

  if (w.parallel_ready) {
    // Follower's apply stage: CAS-insert our own sub-batch concurrently
    // with the rest of the group, then wait for publication.
    WriteGroup* const group = w.group;
    MemTable* const mem = mem_;  // Stable while our group is applying.
    mutex_.Unlock();
    Status apply_status;
    {
      PerfScope mem_scope(&PerfContext::write_memtable_time);
      apply_status =
          WriteBatchInternal::InsertInto(w.batch, mem, /*concurrent=*/true);
    }
    RecordTick(stats, WRITE_CONCURRENT_APPLIES);
    mutex_.Lock();
    MemTableApplyDone(group, apply_status);
    while (!w.done) {
      w.cv.Wait();
    }
    return w.status;
  }

  // WAL-stage leader. write.latency.us measures actual write work from
  // here on: the queue wait above is already recorded separately, and
  // stalls inside MakeRoomForWrite are subtracted at the end.
  const uint64_t work_start_micros = timed ? clock->NowMicros() : 0;
  uint64_t stall_micros = 0;
  Status status = MakeRoomForWrite(updates == nullptr, &stall_micros);

  WriteGroup group;
  group.members.push_back(&w);
  w.group = &group;
  WalPosition position;
  size_t record_bytes = 0;
  // With a WAL whose syncs can overlap, a synced group hands the queue on
  // right after its append and syncs afterwards, so the next groups append
  // and sync during its sync; otherwise the leader syncs before handing on.
  bool sync_after_handoff = false;
  if (status.ok() && updates != nullptr) {
    Writer* last_writer = &w;
    WriteBatch* wal_batch = BuildBatchGroup(&last_writer);
    group.first_sequence = last_allocated_sequence_ + 1;
    WriteBatchInternal::SetSequence(wal_batch, group.first_sequence);
    last_allocated_sequence_ += WriteBatchInternal::Count(wal_batch);
    group.last_sequence = last_allocated_sequence_;

    // Collect the members and stamp each sub-batch's starting sequence: the
    // apply stage inserts the per-writer batches, not the merged WAL record.
    SequenceNumber seq = group.first_sequence;
    for (auto it = writers_.begin();; ++it) {
      Writer* member = *it;
      if (member != &w) {
        group.members.push_back(member);
        member->group = &group;
      }
      WriteBatchInternal::SetSequence(member->batch, seq);
      seq += WriteBatchInternal::Count(member->batch);
      if (member == last_writer) break;
    }
    assert(seq == group.last_sequence + 1);

    // WAL append with the mutex released. We still hold queue leadership,
    // so the WalManager sees a single appender and tmp_batch_ stays ours
    // until the hand-off below.
    mutex_.Unlock();
    const Slice contents = WriteBatchInternal::Contents(wal_batch);
    record_bytes = contents.size();
    {
      PerfScope wal_scope(&PerfContext::wal_write_time);
      status = wal_->AddRecord(contents, &position);
    }
    RecordTick(options_.statistics, WAL_WRITES);
    RecordTick(options_.statistics, WAL_BYTES, contents.size());
    // Wake the previous group's deferred appliers (if any) only now, with
    // our WAL record already built and appended: their CPU burn lands
    // inside our device sync below instead of ahead of our WAL stage.
    mutex_.Lock();
    FanOutDeferredAppliers();
    if (status.ok() && options.sync) {
      sync_after_handoff = wal_->ConcurrentSyncs();
      if (!sync_after_handoff) {
        status = SyncWal(&group, position, record_bytes);
      }
    }
    // Before the hand-off: the next leader builds its group in tmp_batch_.
    if (wal_batch == &tmp_batch_) tmp_batch_.Clear();
  }
  group.status = status;

  // Hand the queue to the next leader: our group enters the apply stage,
  // and the next group's WAL stage proceeds concurrently with it.
  applying_groups_.push_back(&group);
  for (Writer* member : group.members) {
    assert(writers_.front() == member);
    (void)member;
    writers_.pop_front();
  }
  if (!writers_.empty()) {
    writers_.front()->cv.NotifyOne();
  }

  if (sync_after_handoff) {
    // Our sync runs beside those of the groups before and after us. Acks
    // stay a durable prefix: publication is FIFO, and a group published
    // after a failed sync fails too (PublishCompletedGroups). A memtable
    // switch drains applying_groups_ first, so no log is closed under us.
    if (wal_syncs_in_flight_ > 0) {
      RecordTick(options_.statistics, WAL_SYNC_OVERLAPPED);
    }
    wal_syncs_in_flight_++;
    status = SyncWal(&group, position, record_bytes);
    wal_syncs_in_flight_--;
    group.status = status;
  }

  if (status.ok() && updates != nullptr) {
    RecordTick(stats, WRITE_GROUPS);
    RecordTick(stats, WRITE_GROUP_SIZE, group.members.size());
    PerfCount(&PerfContext::write_groups_led);
    PerfCount(&PerfContext::write_group_size, group.members.size());
  }

  if (!status.ok() || updates == nullptr) {
    // Nothing to apply (flush barrier, MakeRoom failure, or WAL failure):
    // the group completes as soon as FIFO order allows. Sequences allocated
    // by a failed WAL write are still published to keep the cursors
    // consistent; after a sync failure bg_error_ already fails every future
    // write, and every group still in flight behind this one fails at its
    // publication. A leader that skipped the WAL stage still owes the
    // previous group its deferred wakeups.
    FanOutDeferredAppliers();
    group.applied = true;
    PublishCompletedGroups();
  } else {
    const size_t batches = group.members.size();
    group.pending_appliers = static_cast<int>(batches);
    if (batches > 1) {
      // Fan out. The next leader (notified above) is racing toward its WAL
      // sync, and CPU-hungry appliers starting now would contend with that
      // WAL stage for the processor — delaying the very device wait the
      // pipeline hides apply work behind. So when a next leader is queued,
      // the whole apply stage — our own sub-batch included — is handed to
      // it (deferred_fanout_; consumed right after its append or on its
      // no-WAL paths) and we park until it signals. A group that synced
      // after the hand-off fans out at once: the queue front may already
      // be past the point where it consumes a deferral.
      if (!writers_.empty() && !sync_after_handoff) {
        assert(deferred_fanout_ == nullptr);
        deferred_fanout_ = &group;
        while (!w.parallel_ready) {
          w.cv.Wait();
        }
      } else {
        // No WAL stage to protect (or none we may wait for): wake the
        // followers right away.
        for (size_t i = 1; i < batches; i++) {
          group.members[i]->parallel_ready = true;
          group.members[i]->cv.NotifyOne();
        }
      }
    }
    // A single-batch group is applied by its leader alone, still with CAS
    // inserts: another group may be applying into mem_ right now.
    MemTable* const mem = mem_;
    mutex_.Unlock();
    Status apply_status;
    {
      PerfScope mem_scope(&PerfContext::write_memtable_time);
      apply_status =
          WriteBatchInternal::InsertInto(w.batch, mem, /*concurrent=*/true);
    }
    if (batches > 1) RecordTick(stats, WRITE_CONCURRENT_APPLIES);
    mutex_.Lock();
    MemTableApplyDone(&group, apply_status);
  }

  while (!w.done) {
    w.cv.Wait();
  }
  if (timed) {
    const uint64_t total = clock->NowMicros() - work_start_micros;
    RecordInHistogram(stats, WRITE_LATENCY_US,
                      total > stall_micros ? total - stall_micros : 0);
  }
  return w.status;
}

Status DBImpl::SyncWal(WriteGroup* group, const WalPosition& position,
                       size_t record_bytes) {
  mutex_.Unlock();
  Status s;
  {
    StopWatch sync_sw(options_.statistics, WAL_SYNC_LATENCY_US);
    trace::SpanTimer sync_span(trace::kSpanWalSync);
    sync_span.set_bytes(record_bytes);
    PerfScope sync_scope(&PerfContext::wal_sync_time);
    s = wal_->Sync(position);
  }
  if (s.ok()) RecordTick(options_.statistics, WAL_SYNCS);
  mutex_.Lock();
  if (!s.ok()) {
    // The state of the log file is indeterminate: the record may or may
    // not survive a reopen, so force all future writes to fail.
    bg_error_ = s;
    group->wal_sync_failed = true;
  }
  return s;
}

void DBImpl::FanOutDeferredAppliers() {
  WriteGroup* group = deferred_fanout_;
  if (group == nullptr) return;
  deferred_fanout_ = nullptr;
  // members[0] is the deferred group's leader, parked like its followers.
  for (Writer* member : group->members) {
    member->parallel_ready = true;
    member->cv.NotifyOne();
  }
}

void DBImpl::MemTableApplyDone(WriteGroup* group, const Status& s) {
  if (group->status.ok() && !s.ok()) {
    group->status = s;
  }
  assert(group->pending_appliers > 0);
  if (--group->pending_appliers == 0) {
    group->applied = true;
    PublishCompletedGroups();
  }
}

void DBImpl::PublishCompletedGroups() {
  while (!applying_groups_.empty() && applying_groups_.front()->applied) {
    WriteGroup* group = applying_groups_.front();
    applying_groups_.pop_front();
    // Fail closed: a group behind a failed WAL sync may have synced its own
    // record, but acking it would ack past a record that may be lost.
    if (group->wal_sync_failed && wal_sync_error_.ok()) {
      wal_sync_error_ = group->status;
      // why unchecked: a copy of the status the group's writers return; the
      // stored one only fails later groups, which return copies of it.
      wal_sync_error_.PermitUncheckedError();
    } else if (group->status.ok() && !wal_sync_error_.ok()) {
      group->status = wal_sync_error_;
    }
    if (group->last_sequence != 0) {
      assert(group->last_sequence > versions_->LastSequence());
      versions_->SetLastSequence(group->last_sequence);
      if (group->status.ok()) {
        RecordTick(options_.statistics, NUM_KEYS_WRITTEN,
                   group->last_sequence - group->first_sequence + 1);
      }
    }
    // Completing a member is the last touch of its Writer (and, for the
    // leader, of the group itself): each wakes, sees done, and returns.
    for (Writer* member : group->members) {
      member->status = group->status;
      member->done = true;
      member->cv.NotifyOne();
    }
  }
  if (applying_groups_.empty()) {
    // Wake memtable-switch drain waiters.
    apply_done_signal_.NotifyAll();
  }
}

// REQUIRES: Writer list must be non-empty.
// REQUIRES: First writer must have a non-null batch.
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the original write
  // is small, limit the growth so we do not slow down the small write too
  // much. A smaller cap also keeps more groups in flight, which is what the
  // WAL/apply pipeline overlaps (see Options::max_write_group_bytes).
  size_t max_size = options_.max_write_group_bytes;
  const size_t small_slack = max_size / 8;
  if (size <= small_slack) {
    max_size = size + small_slack;
  }

  *last_writer = first;
  auto iter = writers_.begin();
  ++iter;  // Advance past "first"
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->batch == nullptr) {
      // A flush barrier wants to be alone: it must lead its own group so
      // that MakeRoomForWrite(force=true) switches the memtable for it.
      break;
    }
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync write.
      break;
    }

    size += WriteBatchInternal::ByteSize(w->batch);
    if (size > max_size) {
      // Do not make batch too big.
      break;
    }

    // Append to *result.
    if (result == first->batch) {
      // Switch to temporary batch instead of disturbing caller's batch.
      result = &tmp_batch_;
      assert(WriteBatchInternal::Count(result) == 0);
      WriteBatchInternal::Append(result, first->batch);
    }
    WriteBatchInternal::Append(result, w->batch);
    *last_writer = w;
  }
  return result;
}

// REQUIRES: this thread is currently at the front of the writer queue.
Status DBImpl::MakeRoomForWrite(bool force, uint64_t* stall_micros) {
  assert(!writers_.empty());
  bool allow_delay = !force;
  Status s;
  // Every stall episode lands in write.stall.us (and the caller's
  // stall_micros so it can be excluded from write.latency.us); the per-cause
  // tickers below attribute the same time to its trigger.
  const auto stall = [&](uint64_t micros) {
    if (stall_micros != nullptr) *stall_micros += micros;
    RecordInHistogram(options_.statistics, WRITE_STALL_US,
                      static_cast<double>(micros));
    if (GetPerfLevel() >= PerfLevel::kEnableTime) {
      GetPerfContext()->write_stall_time += micros;
    }
  };
  SystemClock* const clock = SystemClock::Default();
  while (true) {
    if (!bg_error_.ok()) {
      // Yield previous error.
      s = bg_error_;
      break;
    } else if (allow_delay && versions_->NumLevelFiles(0) >=
                                  config::kL0_SlowdownWritesTrigger) {
      // We are getting close to hitting a hard limit on the number of L0
      // files. Rather than delaying a single write by several seconds when
      // we hit the hard limit, start delaying each individual write by 1ms
      // to reduce latency variance.
      mutex_.Unlock();
      clock->SleepMicros(1000);
      RecordTick(options_.statistics, STALL_L0_SLOWDOWN_COUNT);
      RecordTick(options_.statistics, STALL_L0_SLOWDOWN_MICROS, 1000);
      stall(1000);
      allow_delay = false;  // Do not delay a single write more than once
      mutex_.Lock();
    } else if (!force && (mem_->ApproximateMemoryUsage() <=
                          options_.write_buffer_size)) {
      // There is room in current memtable.
      break;
    } else if (imm_ != nullptr) {
      // We have filled up the current memtable, but the previous one is
      // still being compacted, so we wait.
      RM_LOG_INFO(options_.info_log, "Current memtable full; waiting...");
      RecordTick(options_.statistics, STALL_MEMTABLE_WAIT_COUNT);
      const uint64_t start = clock->NowMicros();
      background_work_finished_signal_.Wait();
      const uint64_t waited = clock->NowMicros() - start;
      RecordTick(options_.statistics, STALL_MEMTABLE_WAIT_MICROS, waited);
      stall(waited);
    } else if (versions_->NumLevelFiles(0) >= config::kL0_StopWritesTrigger) {
      // There are too many level-0 files.
      RM_LOG_INFO(options_.info_log, "Too many L0 files; waiting...");
      RecordTick(options_.statistics, STALL_L0_STOP_COUNT);
      const uint64_t start = clock->NowMicros();
      background_work_finished_signal_.Wait();
      const uint64_t waited = clock->NowMicros() - start;
      RecordTick(options_.statistics, STALL_L0_STOP_MICROS, waited);
      stall(waited);
    } else if (!applying_groups_.empty()) {
      // Apply stage still in flight: appliers insert into mem_
      // without the mutex, so drain them before switching memtables.
      const uint64_t start = clock->NowMicros();
      FanOutDeferredAppliers();  // The drained groups may need their wakeups.
      apply_done_signal_.Wait();
      stall(clock->NowMicros() - start);
    } else {
      // Attempt to switch to a new memtable and trigger flush of old.
      assert(versions_->LogNumber() <= logfile_number_);
      uint64_t new_log_number = versions_->NewFileNumber();
      s = wal_->NewLog(new_log_number);
      if (!s.ok()) {
        // Avoid chewing through file number space in a tight loop.
        versions_->ReuseFileNumber(new_log_number);
        break;
      }
      logfile_number_ = new_log_number;
      imm_ = mem_;
      has_imm_.store(true, std::memory_order_release);
      mem_ = new MemTable(internal_comparator_);
      mem_->Ref();
      force = false;  // Do not force another compaction if have room
      MaybeScheduleCompaction();
    }
  }
  return s;  // mutex_ is still held, as the caller expects.
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();

  MutexLock l(&mutex_);
  Slice in = property;
  Slice prefix("rocksmash.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  if (in.starts_with("num-files-at-level")) {
    in.remove_prefix(strlen("num-files-at-level"));
    uint64_t level = 0;
    for (size_t i = 0; i < in.size(); i++) {
      if (in[i] < '0' || in[i] > '9') return false;
      level = level * 10 + (in[i] - '0');
    }
    if (level >= static_cast<uint64_t>(config::kNumLevels)) return false;
    *value = std::to_string(versions_->NumLevelFiles(static_cast<int>(level)));
    return true;
  } else if (in == Slice("stats") || in == Slice("levelstats")) {
    // "levelstats" is the compaction table alone — no Statistics tail — so
    // a ShardedDB can append one per-shard table each and the shared
    // Statistics once, instead of N copies of the same global tickers.
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "                               Compactions\n"
                  "Level  Files Size(MB) Time(sec) Read(MB) Write(MB)\n"
                  "--------------------------------------------------\n");
    value->append(buf);
    for (int level = 0; level < config::kNumLevels; level++) {
      int files = versions_->NumLevelFiles(level);
      if (stats_[level].micros > 0 || files > 0) {
        std::snprintf(buf, sizeof(buf), "%3d %8d %8.0f %9.0f %8.0f %9.0f\n",
                      level, files,
                      versions_->NumLevelBytes(level) / 1048576.0,
                      stats_[level].micros / 1e6,
                      stats_[level].bytes_read / 1048576.0,
                      stats_[level].bytes_written / 1048576.0);
        value->append(buf);
      }
    }
    if (in == Slice("stats") && options_.statistics != nullptr) {
      value->append("\nStatistics:\n");
      value->append(options_.statistics->ToString());
    }
    return true;
  } else if (in.starts_with("ticker.")) {
    // "rocksmash.ticker.<dotted-name>", e.g. "rocksmash.ticker.cloud.get.count".
    if (options_.statistics == nullptr) return false;
    in.remove_prefix(strlen("ticker."));
    for (uint32_t t = 0; t < TICKER_ENUM_MAX; ++t) {
      if (in == Slice(TickerName(t))) {
        *value = std::to_string(options_.statistics->GetTickerCount(t));
        return true;
      }
    }
    return false;
  } else if (in == Slice("prometheus")) {
    if (options_.statistics == nullptr) return false;
    *value = options_.statistics->DumpPrometheus();
    return true;
  } else if (in == Slice("sstables")) {
    *value = versions_->current()->DebugString();
    return true;
  } else if (in == Slice("bg-jobs")) {
    // "flush=<0|1> compaction=<0|1>": which background lanes have a job in
    // flight right now. Used by tests to observe lane concurrency.
    *value = std::string("flush=") + (bg_flush_scheduled_ ? "1" : "0") +
             " compaction=" + (bg_compaction_scheduled_ ? "1" : "0");
    return true;
  } else if (in == Slice("placement")) {
    // Per-level file counts split by tier: "L<level>: N files (L local, C
    // cloud), B bytes".
    char buf[128];
    Version* v = versions_->current();
    for (int level = 0; level < config::kNumLevels; level++) {
      const auto& files = v->files(level);
      if (files.empty()) continue;
      int local = 0;
      uint64_t bytes = 0;
      for (const FileMetaData* f : files) {
        if (storage_->IsLocal(f->number)) local++;
        bytes += f->file_size;
      }
      std::snprintf(buf, sizeof(buf),
                    "L%d: %zu files (%d local, %zu cloud), %llu bytes\n",
                    level, files.size(), local, files.size() - local,
                    static_cast<unsigned long long>(bytes));
      value->append(buf);
    }
    return true;
  } else if (in == Slice("approximate-memory-usage")) {
    size_t total_usage = block_cache_->TotalCharge();
    if (mem_ != nullptr) {
      total_usage += mem_->ApproximateMemoryUsage();
    }
    if (imm_ != nullptr) {
      total_usage += imm_->ApproximateMemoryUsage();
    }
    *value = std::to_string(total_usage);
    return true;
  } else if (in == Slice("memtable-memory-usage")) {
    // Memtable bytes alone (no block-cache charge): the per-shard
    // component of approximate-memory-usage, summable by a ShardedDB that
    // counts the shared cache once.
    size_t total_usage = 0;
    if (mem_ != nullptr) {
      total_usage += mem_->ApproximateMemoryUsage();
    }
    if (imm_ != nullptr) {
      total_usage += imm_->ApproximateMemoryUsage();
    }
    *value = std::to_string(total_usage);
    return true;
  }

  return false;
}

bool DBImpl::GetProperty(const Slice& property,
                         std::map<std::string, std::string>* value) {
  value->clear();
  Slice in = property;
  Slice prefix("rocksmash.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  if (in == Slice("stats")) {
    // Ticker name -> cumulative count. (Histograms stay in the string form.)
    if (options_.statistics == nullptr) return false;
    std::map<std::string, uint64_t> tickers;
    options_.statistics->TickerMap(&tickers);
    for (const auto& [name, count] : tickers) {
      (*value)[name] = std::to_string(count);
    }
    return true;
  }
  if (in == Slice("placement")) {
    // "L<level>" -> "<files> files, <local> local, <cloud> cloud, <bytes>
    // bytes" for every non-empty level.
    MutexLock l(&mutex_);
    Version* v = versions_->current();
    for (int level = 0; level < config::kNumLevels; level++) {
      const auto& files = v->files(level);
      if (files.empty()) continue;
      int local = 0;
      uint64_t bytes = 0;
      for (const FileMetaData* f : files) {
        if (storage_->IsLocal(f->number)) local++;
        bytes += f->file_size;
      }
      (*value)["L" + std::to_string(level)] =
          std::to_string(files.size()) + " files, " + std::to_string(local) +
          " local, " + std::to_string(files.size() - local) + " cloud, " +
          std::to_string(bytes) + " bytes";
    }
    return true;
  }
  if (in == Slice("blob")) {
    // Blob-file population and GC accounting for the current version.
    uint64_t files = 0, local = 0, payload = 0, garbage = 0, records = 0,
             garbage_records = 0;
    {
      MutexLock l(&mutex_);
      Version* v = versions_->current();
      for (const auto& [number, meta] : v->blob_files()) {
        files++;
        if (storage_->IsLocal(number)) local++;
        payload += meta->payload_bytes;
        garbage += meta->garbage_bytes;
        records += meta->record_count;
        garbage_records += meta->garbage_records;
      }
    }
    (*value)["blob.files"] = std::to_string(files);
    (*value)["blob.files.local"] = std::to_string(local);
    (*value)["blob.files.cloud"] = std::to_string(files - local);
    (*value)["blob.payload.bytes"] = std::to_string(payload);
    (*value)["blob.garbage.bytes"] = std::to_string(garbage);
    (*value)["blob.live.bytes"] = std::to_string(payload - garbage);
    (*value)["blob.records"] = std::to_string(records);
    (*value)["blob.garbage.records"] = std::to_string(garbage_records);
    if (options_.statistics != nullptr) {
      Statistics* stats = options_.statistics;
      (*value)["blob.gc.rewritten.bytes"] =
          std::to_string(stats->GetTickerCount(BLOB_GC_REWRITTEN_BYTES));
      (*value)["blob.gc.files.obsoleted"] =
          std::to_string(stats->GetTickerCount(BLOB_GC_FILES_OBSOLETED));
    }
    return true;
  }
  return false;
}

Status DB::Open(const DBOptions& options, const std::string& dbname,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();

  // The single validation point for BlobOptions (OpenKVStore opens its
  // shards through here too).
  Status blob_valid = ValidateBlobOptions(options.blob);
  if (!blob_valid.ok()) return blob_valid;

  auto impl = std::make_unique<DBImpl>(options, dbname);
  impl->mutex_.Lock();
  VersionEdit edit;
  Status s = impl->Recover(&edit);
  if (s.ok()) {
    // Start a fresh log for the new incarnation.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    s = impl->wal_->NewLog(new_log_number);
    if (s.ok()) {
      impl->logfile_number_ = new_log_number;
      impl->mem_ = new MemTable(impl->internal_comparator_);
      impl->mem_->Ref();
      edit.SetLogNumber(new_log_number);
      s = impl->versions_->LogAndApply(&edit, &impl->mutex_);
    }
  }
  if (s.ok()) {
    // The allocation cursor starts where recovery left the visible sequence.
    impl->last_allocated_sequence_ = impl->versions_->LastSequence();
    impl->RemoveObsoleteFiles();
    impl->MaybeScheduleCompaction();
  }
  impl->mutex_.Unlock();
  if (s.ok()) {
    assert(impl->mem_ != nullptr);
    *dbptr = std::move(impl);
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const DBOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::vector<std::string> filenames;
  Status result = env->GetChildren(dbname, &filenames);
  if (!result.ok()) {
    // Ignore error in case directory does not exist.
    return Status::OK();
  }
  for (const auto& filename : filenames) {
    Status del = env->RemoveFile(dbname + "/" + filename);
    if (result.ok() && !del.ok()) {
      result = del;
    }
  }
  // why unchecked: the directory may legitimately contain foreign files.
  env->RemoveDir(dbname).PermitUncheckedError();
  return result;
}

}  // namespace rocksmash
