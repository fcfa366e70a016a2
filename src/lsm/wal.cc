// eWAL: the engine's write-ahead log (see wal.h).
#include "lsm/wal.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "util/clock.h"
#include "util/mutexlock.h"
#include "util/thread_pool.h"

namespace rocksmash {

namespace {

class EWalManager final : public WalManager {
 public:
  EWalManager(Env* env, std::string dbname, EWalOptions options)
      : env_(env),
        dbname_(std::move(dbname)),
        options_(options),
        segments_(std::max(1, options.segments)) {
    options_.segments = static_cast<int>(segments_.size());
  }

  Status NewLog(uint64_t number) override {
    Status s = CloseLog();
    if (!s.ok()) return s;
    for (int k = 0; k < options_.segments; k++) {
      Segment& seg = segments_[k];
      MutexLock l(&seg.mu);
      s = env_->NewWritableFile(EWalFileName(dbname_, number, k), &seg.file);
      if (!s.ok()) return s;
      seg.writer = std::make_unique<log::Writer>(seg.file.get());
      seg.first_unsynced.store(0, std::memory_order_relaxed);
      seg.sync_error = Status::OK();
    }
    records_ = 0;
    next_segment_ = 0;
    open_ = true;
    return Status::OK();
  }

  Status AddRecord(const Slice& record, WalPosition* position) override {
    if (!open_) return Status::IOError("no open eWAL");
    const int k = PickSegment();
    Segment& seg = segments_[k];
    MutexLock l(&seg.mu);
    Status s = seg.writer->AddRecord(record);
    if (!s.ok()) return s;
    const uint64_t number = ++records_;
    if (seg.first_unsynced.load(std::memory_order_relaxed) == 0) {
      seg.first_unsynced.store(number, std::memory_order_release);
    }
    if (position != nullptr) *position = WalPosition{number, k};
    return s;
  }

  Status Sync(const WalPosition& position) override {
    // The record's own segment first, so that a sync another caller has in
    // flight on an earlier record's segment is waited out while ours runs.
    // WalPosition::End() covers every record: an fsync epoch over all the
    // segments written since their last sync.
    Status s = SyncSegment(&segments_[position.segment], position.record);
    for (int k = 0; k < options_.segments && s.ok(); k++) {
      if (k != position.segment) {
        s = SyncSegment(&segments_[k], position.record);
      }
    }
    return s;
  }

  bool ConcurrentSyncs() const override { return options_.segments > 1; }

  Status CloseLog() override {
    open_ = false;
    Status result;
    for (auto& seg : segments_) {
      MutexLock l(&seg.mu);
      seg.writer.reset();
      if (seg.file != nullptr) {
        Status s = seg.file->Close();
        if (result.ok()) result = s;
        seg.file.reset();
      }
      seg.first_unsynced.store(0, std::memory_order_relaxed);
    }
    return result;
  }

  Status ListLogs(std::vector<uint64_t>* numbers) override {
    // Includes legacy single-file logs, so a store written before the eWAL
    // was the only log replays everything on disk.
    numbers->clear();
    std::vector<std::string> children;
    Status s = env_->GetChildren(dbname_, &children);
    if (!s.ok()) return s;
    std::set<uint64_t> unique;
    for (const auto& child : children) {
      uint64_t number;
      int segment;
      FileType type;
      if (ParseEWalFileName(child, &number, &segment)) {
        unique.insert(number);
      } else if (ParseFileName(child, &number, &type) &&
                 type == FileType::kLogFile) {
        unique.insert(number);
      }
    }
    numbers->assign(unique.begin(), unique.end());
    return Status::OK();
  }

  Status RemoveLog(uint64_t number) override {
    // Remove every segment of this log that exists, plus a legacy
    // single-file log with the same number.
    Status result;
    std::vector<std::string> children;
    Status s = env_->GetChildren(dbname_, &children);
    if (!s.ok()) return s;
    for (const auto& child : children) {
      uint64_t n;
      int segment;
      if (ParseEWalFileName(child, &n, &segment) && n == number) {
        Status rs = env_->RemoveFile(dbname_ + "/" + child);
        if (result.ok()) result = rs;
      }
    }
    const std::string legacy = LogFileName(dbname_, number);
    if (env_->FileExists(legacy)) {
      Status rs = env_->RemoveFile(legacy);
      if (result.ok()) result = rs;
    }
    return result;
  }

  Status Replay(uint64_t number,
                const std::function<Status(const Slice& record, int shard)>&
                    apply,
                ReplayTelemetry* telemetry) override {
    // The files of log `number`, each with the shard it replays on: a
    // legacy single-file log on shard 0, or every segment that exists (a
    // crash may have happened before all K were created, or K may differ
    // from the writer's K).
    std::vector<std::pair<std::string, int>> files;
    const std::string legacy = LogFileName(dbname_, number);
    if (env_->FileExists(legacy)) {
      files.emplace_back(legacy, 0);
    } else {
      std::vector<std::string> children;
      Status s = env_->GetChildren(dbname_, &children);
      if (!s.ok()) return s;
      std::vector<int> present;
      for (const auto& child : children) {
        uint64_t n;
        int segment;
        if (ParseEWalFileName(child, &n, &segment) && n == number) {
          present.push_back(segment);
        }
      }
      std::sort(present.begin(), present.end());
      // Shard index must be < MaxShards(); segment ids satisfy that for
      // logs written with the same K. For logs from a different K, clamp.
      for (int segment : present) {
        files.emplace_back(EWalFileName(dbname_, number, segment),
                           segment % options_.segments);
      }
    }
    if (files.empty()) return Status::OK();

    int threads = options_.replay_threads > 0
                      ? options_.replay_threads
                      : static_cast<int>(files.size());
    threads = std::min<int>(threads, static_cast<int>(files.size()));
    // Never oversubscribe the cores: beyond hardware concurrency, extra
    // threads only timeshare (no wall-clock win) and pollute the per-shard
    // timings that model the parallel critical path.
    const int hw = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(threads, hw);

    // One mutex per shard: if a log written with a different K maps two
    // segments onto one shard, their apply calls serialize instead of racing.
    std::vector<Mutex> shard_mutexes(options_.segments);
    std::vector<Status> statuses(files.size());
    std::vector<uint64_t> micros(files.size(), 0);
    auto replay_file = [&](size_t i) {
      const uint64_t start = SystemClock::Default()->NowMicros();
      statuses[i] = ReplayFile(files[i].first, files[i].second, apply,
                               &shard_mutexes[files[i].second]);
      micros[i] = SystemClock::Default()->NowMicros() - start;
    };
    if (threads == 1) {
      // One lane: replay on the calling thread.
      for (size_t i = 0; i < files.size(); i++) replay_file(i);
    } else {
      ThreadPool pool(threads, "ewal-replay");
      for (size_t i = 0; i < files.size(); i++) {
        pool.Schedule([&replay_file, i] { replay_file(i); });
      }
      pool.WaitIdle();
    }
    if (telemetry != nullptr) {
      telemetry->shard_micros = micros;
    }
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  int MaxShards() const override { return options_.segments; }

 private:
  struct Segment {
    // Lock order: leaf — taken with no other lock held (DBImpl::mutex_ is
    // released around WAL I/O), one segment at a time. Held across the
    // segment's appends and its file sync, so a sync covers every record
    // the segment held when it started.
    Mutex mu;
    std::unique_ptr<WritableFile> file GUARDED_BY(mu);
    std::unique_ptr<log::Writer> writer GUARDED_BY(mu);
    // Number of the oldest record in this segment not yet synced; 0 when
    // the segment is durable. Written under mu; read without it, because
    // records only leave the unsynced set (0) or later ones enter it.
    std::atomic<uint64_t> first_unsynced{0};
    // True while a sync holds mu: AddRecord steers appends elsewhere.
    std::atomic<bool> syncing{false};
    // The first failed sync of this segment's file. Sticky: once an fsync
    // failed, a retry may report OK although the kernel dropped the dirty
    // pages, so every later sync that needs this file fails with it.
    Status sync_error GUARDED_BY(mu);
  };

  // Round-robin over the segments, skipping any with a sync in flight (an
  // append there would wait the sync out). All busy: the next in turn.
  int PickSegment() {
    int k = next_segment_;
    for (int i = 0; i < options_.segments; i++) {
      const int candidate = (next_segment_ + i) % options_.segments;
      if (!segments_[candidate].syncing.load(std::memory_order_relaxed)) {
        k = candidate;
        break;
      }
    }
    next_segment_ = (k + 1) % options_.segments;
    return k;
  }

  // Makes every record of `seg` numbered <= `through` durable. A sync in
  // flight on `seg` is waited out first; it may already have covered them.
  // After a failed sync the segment's unsynced records stay unsynced, and
  // every later call that needs them returns that failure without retrying.
  Status SyncSegment(Segment* seg, uint64_t through) {
    // Checked first without the mutex: a sync of later records may hold it.
    if (!NeedsSync(*seg, through)) return Status::OK();
    MutexLock l(&seg->mu);
    if (seg->file == nullptr || !NeedsSync(*seg, through)) {
      return Status::OK();
    }
    if (!seg->sync_error.ok()) return seg->sync_error;
    seg->syncing.store(true, std::memory_order_relaxed);
    Status s = seg->file->Sync();
    seg->syncing.store(false, std::memory_order_relaxed);
    if (s.ok()) {
      seg->first_unsynced.store(0, std::memory_order_release);
    } else {
      seg->sync_error = s;
      // why unchecked: a copy of the status returned below; the stored one
      // only answers later syncs, which return copies of it.
      seg->sync_error.PermitUncheckedError();
    }
    return s;
  }

  // Whether `seg` holds a record numbered <= `through` that is not synced.
  static bool NeedsSync(const Segment& seg, uint64_t through) {
    const uint64_t first = seg.first_unsynced.load(std::memory_order_acquire);
    return first != 0 && first <= through;
  }

  // Applies every intact record of one log file on `shard`. Corruption
  // truncates this file's replay only (point-in-time semantics per
  // segment): the torn tail is dropped.
  Status ReplayFile(
      const std::string& fname, int shard,
      const std::function<Status(const Slice& record, int shard)>& apply,
      Mutex* shard_mu) {
    std::unique_ptr<SequentialFile> file;
    Status s = env_->NewSequentialFile(fname, &file);
    if (!s.ok()) return s;
    log::Reader reader(file.get(), /*reporter=*/nullptr);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      MutexLock l(shard_mu);
      s = apply(record, shard);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  Env* env_;
  std::string dbname_;
  EWalOptions options_;
  // Sized once at construction; each segment's file is per log.
  std::vector<Segment> segments_;
  // Appender state (one appender at a time; see WalManager).
  bool open_ = false;
  uint64_t records_ = 0;  // Records appended to the current log.
  int next_segment_ = 0;
};

}  // namespace

std::unique_ptr<WalManager> NewEWalManager(Env* env, const std::string& dbname,
                                           EWalOptions options) {
  return std::make_unique<EWalManager>(env, dbname, options);
}

}  // namespace rocksmash
