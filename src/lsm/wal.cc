// Classic single-file WAL.
#include <algorithm>
#include <set>

#include "env/env.h"
#include "lsm/filename.h"
#include "util/clock.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "lsm/wal.h"

namespace rocksmash {

namespace {

class ClassicWalManager final : public WalManager {
 public:
  ClassicWalManager(Env* env, std::string dbname)
      : env_(env), dbname_(std::move(dbname)) {}

  Status NewLog(uint64_t number) override {
    Status s = CloseLog();
    if (!s.ok()) return s;
    s = env_->NewWritableFile(LogFileName(dbname_, number), &file_);
    if (!s.ok()) return s;
    writer_ = std::make_unique<log::Writer>(file_.get());
    return Status::OK();
  }

  // One file: every sync covers every record, so positions are not kept.
  Status AddRecord(const Slice& record, WalPosition* /*position*/) override {
    if (writer_ == nullptr) return Status::IOError("no open WAL");
    return writer_->AddRecord(record);
  }

  Status Sync(const WalPosition& /*position*/) override {
    if (file_ == nullptr) return Status::OK();
    return file_->Sync();
  }

  Status CloseLog() override {
    writer_.reset();
    if (file_ != nullptr) {
      Status s = file_->Close();
      file_.reset();
      return s;
    }
    return Status::OK();
  }

  Status ListLogs(std::vector<uint64_t>* numbers) override {
    // Lists logs of BOTH formats so that switching between the classic WAL
    // and the eWAL across restarts never silently drops a log: whichever
    // manager is configured replays everything on disk.
    numbers->clear();
    std::vector<std::string> children;
    Status s = env_->GetChildren(dbname_, &children);
    if (!s.ok()) return s;
    std::set<uint64_t> unique;
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      int segment;
      if (ParseFileName(child, &number, &type) && type == FileType::kLogFile) {
        unique.insert(number);
      } else if (ParseEWalFileName(child, &number, &segment)) {
        unique.insert(number);
      }
    }
    numbers->assign(unique.begin(), unique.end());
    return Status::OK();
  }

  Status RemoveLog(uint64_t number) override {
    // Remove whichever format(s) exist for this number; a log absent in
    // both formats is a successful no-op. First failure wins.
    Status result = Status::OK();
    if (env_->FileExists(LogFileName(dbname_, number))) {
      result = env_->RemoveFile(LogFileName(dbname_, number));
    }
    std::vector<std::string> children;
    if (env_->GetChildren(dbname_, &children).ok()) {
      for (const auto& child : children) {
        uint64_t n;
        int segment;
        if (ParseEWalFileName(child, &n, &segment) && n == number) {
          Status rs = env_->RemoveFile(dbname_ + "/" + child);
          if (result.ok()) {
            result = std::move(rs);
          } else {
            // why unchecked: an earlier removal already failed and its error
            // is what the caller sees; later segment failures are subsumed.
            rs.PermitUncheckedError();
          }
        }
      }
    }
    return result;
  }

  Status Replay(uint64_t number,
                const std::function<Status(const Slice& record, int shard)>&
                    apply,
                ReplayTelemetry* telemetry) override {
    const uint64_t start = SystemClock::Default()->NowMicros();

    if (!env_->FileExists(LogFileName(dbname_, number))) {
      // The log was written by the eWAL: replay its segments sequentially
      // on shard 0 (record sequence numbers make cross-segment order
      // irrelevant).
      Status s = ReplayEWalSegments(number, apply);
      if (telemetry != nullptr) {
        telemetry->shard_micros.assign(
            1, SystemClock::Default()->NowMicros() - start);
      }
      return s;
    }
    struct LogReporter : public log::Reader::Reporter {
      Status* status;
      void Corruption(size_t /*bytes*/, const Status& s) override {
        if (status->ok()) *status = s;
      }
    };

    std::unique_ptr<SequentialFile> file;
    Status s = env_->NewSequentialFile(LogFileName(dbname_, number), &file);
    if (!s.ok()) return s;

    Status corruption;
    LogReporter reporter;
    reporter.status = &corruption;
    log::Reader reader(file.get(), &reporter);

    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      s = apply(record, 0);
      if (!s.ok()) return s;
    }
    // A corrupt tail truncates recovery at that point (point-in-time
    // semantics): everything before the corruption was applied, the torn
    // tail is dropped.
    if (telemetry != nullptr) {
      telemetry->shard_micros.assign(
          1, SystemClock::Default()->NowMicros() - start);
    }
    return Status::OK();
  }

  int MaxShards() const override { return 1; }

 private:
  Status ReplayEWalSegments(
      uint64_t number,
      const std::function<Status(const Slice& record, int shard)>& apply) {
    std::vector<std::string> children;
    Status s = env_->GetChildren(dbname_, &children);
    if (!s.ok()) return s;
    std::sort(children.begin(), children.end());
    for (const auto& child : children) {
      uint64_t n;
      int segment;
      if (!ParseEWalFileName(child, &n, &segment) || n != number) continue;
      std::unique_ptr<SequentialFile> file;
      s = env_->NewSequentialFile(dbname_ + "/" + child, &file);
      if (!s.ok()) return s;
      log::Reader reader(file.get(), /*reporter=*/nullptr);
      Slice record;
      std::string scratch;
      while (reader.ReadRecord(&record, &scratch)) {
        s = apply(record, 0);
        if (!s.ok()) return s;
      }
    }
    return Status::OK();
  }

  Env* env_;
  std::string dbname_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<log::Writer> writer_;
};

}  // namespace

std::unique_ptr<WalManager> NewClassicWalManager(Env* env,
                                                 const std::string& dbname) {
  return std::make_unique<ClassicWalManager>(env, dbname);
}

}  // namespace rocksmash
