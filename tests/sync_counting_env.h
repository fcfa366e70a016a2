// Test Env wrapper that watches WAL syncs: per file it counts the bytes
// appended and the bytes a completed Sync() made durable, and it records the
// peak number of Sync() calls in flight at once on files whose base name
// starts with a given prefix (e.g. "ewal-"). It can also fail one Sync() of
// a file, the way an fsync reports a lost write-back once.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/env.h"
#include "util/mutexlock.h"

namespace rocksmash {

class SyncCountingEnv final : public Env {
 public:
  struct FileCounts {
    uint64_t appended = 0;  // Bytes appended.
    uint64_t synced = 0;    // Bytes appended before the last completed sync.
    int syncs = 0;          // Completed syncs.
  };

  SyncCountingEnv(Env* base, std::string prefix)
      : base_(base), prefix_(std::move(prefix)) {}

  FileCounts Counts(const std::string& fname) {
    MutexLock l(&mu_);
    auto it = files_.find(fname);
    return it == files_.end() ? FileCounts{} : it->second;
  }

  int PeakConcurrentSyncs() {
    MutexLock l(&mu_);
    return peak_syncs_;
  }

  // The next Sync() of `fname` fails with an IOError; later ones pass
  // through to the wrapped file again.
  void FailNextSync(const std::string& fname) {
    MutexLock l(&mu_);
    fail_next_sync_ = fname;
  }

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(f, &file);
    if (s.ok()) {
      {
        MutexLock l(&mu_);
        files_[f] = FileCounts{};
      }
      const size_t slash = f.rfind('/');
      const bool watched =
          f.compare(slash == std::string::npos ? 0 : slash + 1,
                    prefix_.size(), prefix_) == 0;
      *r = std::make_unique<File>(this, f, watched, std::move(file));
    }
    return s;
  }
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  Status RemoveDir(const std::string& d) override {
    return base_->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    return base_->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class File final : public WritableFile {
   public:
    File(SyncCountingEnv* env, std::string name, bool watched,
         std::unique_ptr<WritableFile> base)
        : env_(env),
          name_(std::move(name)),
          watched_(watched),
          base_(std::move(base)) {}

    Status Append(const Slice& data) override {
      Status s = base_->Append(data);
      if (s.ok()) {
        MutexLock l(&env_->mu_);
        env_->files_[name_].appended += data.size();
      }
      return s;
    }
    Status Close() override { return base_->Close(); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      uint64_t covered;
      {
        MutexLock l(&env_->mu_);
        if (env_->fail_next_sync_ == name_) {
          env_->fail_next_sync_.clear();
          return Status::IOError(name_, "injected sync failure");
        }
        covered = env_->files_[name_].appended;
        if (watched_) {
          env_->syncs_in_flight_++;
          env_->peak_syncs_ =
              std::max(env_->peak_syncs_, env_->syncs_in_flight_);
        }
      }
      Status s = base_->Sync();
      MutexLock l(&env_->mu_);
      if (watched_) env_->syncs_in_flight_--;
      if (s.ok()) {
        FileCounts& counts = env_->files_[name_];
        counts.synced = std::max(counts.synced, covered);
        counts.syncs++;
      }
      return s;
    }

   private:
    SyncCountingEnv* const env_;
    const std::string name_;
    const bool watched_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* const base_;
  const std::string prefix_;
  // Lock order: leaf — held only to update the counters, never across a
  // call into the wrapped Env.
  Mutex mu_;
  std::map<std::string, FileCounts> files_ GUARDED_BY(mu_);
  int syncs_in_flight_ GUARDED_BY(mu_) = 0;
  int peak_syncs_ GUARDED_BY(mu_) = 0;
  std::string fail_next_sync_ GUARDED_BY(mu_);
};

}  // namespace rocksmash
