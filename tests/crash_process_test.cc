// Real crash-safety test: a forked child process writes synced records and
// is SIGKILLed mid-stream; the parent recovers the store and verifies that
// every write the child acknowledged (recorded durably *after* the synced
// Put) survived. Runs against the eWAL at one and at four segments.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "util/clock.h"

namespace rocksmash {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string Value(uint64_t i) {
  return "value-" + std::to_string(i) + std::string(100, 'v');
}

// Atomically publish progress = highest index whose write was acked+synced.
void PublishProgress(const std::string& path, uint64_t progress) {
  const std::string tmp = path + ".tmp";
  // Runs in the to-be-SIGKILLed child: a failed publish would let the
  // parent expect keys the child never durably wrote, so die instead.
  if (!WriteStringToFile(Env::Default(), std::to_string(progress), tmp,
                         /*sync=*/true)
           .ok() ||
      !Env::Default()->RenameFile(tmp, path).ok()) {
    _exit(3);
  }
}

uint64_t ReadProgress(const std::string& path) {
  std::string contents;
  if (!ReadFileToString(Env::Default(), path, &contents).ok() ||
      contents.empty()) {
    return 0;
  }
  return std::strtoull(contents.c_str(), nullptr, 10);
}

class ProcessCrash : public ::testing::TestWithParam<int> {};

TEST_P(ProcessCrash, SigkillLosesNoAckedWrites) {
  const int segments = GetParam();
  const std::string workdir = ::testing::TempDir() + "/rocksmash_sigkill_" +
                              std::to_string(segments);
  std::filesystem::remove_all(workdir);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(workdir).ok());
  const std::string dbname = workdir + "/db";
  const std::string progress_path = workdir + "/progress";
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());

  pid_t child = fork();
  ASSERT_GE(child, 0);

  if (child == 0) {
    // ---- Child: write synced records until killed. ----
    DBOptions options;
    options.wal_segments = segments;
    options.write_buffer_size = 64 << 20;  // Keep everything in the WAL.
    std::unique_ptr<DB> db;
    if (!DB::Open(options, dbname, &db).ok()) {
      _exit(2);
    }
    WriteOptions sync;
    sync.sync = true;
    // Publish progress only AFTER the synced write: everything <= progress
    // is acked-durable by contract.
    for (uint64_t i = 0; i < 200000; i++) {
      if (!db->Put(sync, Key(i), Value(i)).ok()) {
        _exit(3);
      }
      if (i % 16 == 0) {
        PublishProgress(progress_path, i);
      }
    }
    _exit(0);  // Wrote everything before the parent killed us (unlikely).
  }

  // ---- Parent: wait for real progress, then SIGKILL mid-stream. ----
  SystemClock* clock = SystemClock::Default();
  const uint64_t deadline = clock->NowMicros() + 30 * 1000000ull;
  while (ReadProgress(progress_path) < 500 && clock->NowMicros() < deadline) {
    clock->SleepMicros(20000);
  }
  ASSERT_GE(ReadProgress(progress_path), 500u) << "child made no progress";
  // Let it run a little longer so the kill lands mid-write.
  clock->SleepMicros(100000);
  kill(child, SIGKILL);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited on its own";

  const uint64_t acked = ReadProgress(progress_path);
  ASSERT_GE(acked, 500u);

  // ---- Recover and verify: nothing acked may be missing or wrong. ----
  DBOptions options;
  options.wal_segments = segments;
  options.write_buffer_size = 64 << 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  std::string value;
  uint64_t lost = 0;
  for (uint64_t i = 0; i <= acked; i++) {
    Status s = db->Get(ReadOptions(), Key(i), &value);
    if (!s.ok() || value != Value(i)) {
      lost++;
    }
  }
  EXPECT_EQ(0u, lost) << "of " << acked + 1 << " acked writes";

  db.reset();
  std::filesystem::remove_all(workdir);
}

// Same crash contract, but the child runs the write path with four
// concurrent writers: groups form across threads, the WAL record
// is one leader-built blob, and the apply stage runs in parallel. A
// SIGKILL can land between a group's WAL sync and its memtable publish —
// recovery (including the eWAL's parallel replay) must still surface every
// write any thread acked.
TEST_P(ProcessCrash, SigkillWithConcurrentWritersLosesNoAckedWrites) {
  const int segments = GetParam();
  constexpr int kWriters = 4;
  constexpr uint64_t kRange = 1 << 30;  // Per-thread key spaces never meet.
  const std::string workdir = ::testing::TempDir() + "/rocksmash_sigkill_mt_" +
                              std::to_string(segments);
  std::filesystem::remove_all(workdir);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(workdir).ok());
  const std::string dbname = workdir + "/db";
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());
  auto progress_path = [&workdir](int w) {
    return workdir + "/progress." + std::to_string(w);
  };

  pid_t child = fork();
  ASSERT_GE(child, 0);

  if (child == 0) {
    // ---- Child: 4 threads write synced records until killed. ----
    DBOptions options;
    options.wal_segments = segments;
    options.write_buffer_size = 64 << 20;  // Keep everything in the WAL.
    std::unique_ptr<DB> db;
    if (!DB::Open(options, dbname, &db).ok()) {
      _exit(2);
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&db, &progress_path, w] {
        WriteOptions sync;
        sync.sync = true;
        const uint64_t base = static_cast<uint64_t>(w) * kRange;
        // Publish per-thread progress only AFTER the synced write:
        // everything <= progress in this thread's range is acked-durable.
        for (uint64_t i = 0; i < 200000; i++) {
          if (!db->Put(sync, Key(base + i), Value(base + i)).ok()) {
            _exit(3);
          }
          if (i % 16 == 0) {
            PublishProgress(progress_path(w), i);
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    _exit(0);  // Wrote everything before the parent killed us (unlikely).
  }

  // ---- Parent: wait until every thread has progress, then SIGKILL. ----
  SystemClock* clock = SystemClock::Default();
  const uint64_t deadline = clock->NowMicros() + 30 * 1000000ull;
  auto min_progress = [&] {
    uint64_t lo = UINT64_MAX;
    for (int w = 0; w < kWriters; w++) {
      lo = std::min(lo, ReadProgress(progress_path(w)));
    }
    return lo == UINT64_MAX ? 0 : lo;
  };
  while (min_progress() < 200 && clock->NowMicros() < deadline) {
    clock->SleepMicros(20000);
  }
  ASSERT_GE(min_progress(), 200u) << "child made no progress";
  clock->SleepMicros(100000);  // Let the kill land mid-write.
  kill(child, SIGKILL);
  int wstatus = 0;
  waitpid(child, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited on its own";

  // ---- Recover and verify every thread's acked prefix. ----
  DBOptions options;
  options.wal_segments = segments;
  options.write_buffer_size = 64 << 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  std::string value;
  for (int w = 0; w < kWriters; w++) {
    const uint64_t acked = ReadProgress(progress_path(w));
    ASSERT_GE(acked, 200u);
    const uint64_t base = static_cast<uint64_t>(w) * kRange;
    uint64_t lost = 0;
    for (uint64_t i = 0; i <= acked; i++) {
      Status s = db->Get(ReadOptions(), Key(base + i), &value);
      if (!s.ok() || value != Value(base + i)) {
        lost++;
      }
    }
    EXPECT_EQ(0u, lost) << "writer " << w << ": of " << acked + 1
                        << " acked writes";
  }

  db.reset();
  std::filesystem::remove_all(workdir);
}

INSTANTIATE_TEST_SUITE_P(WalKinds, ProcessCrash, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "ewal" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace rocksmash
