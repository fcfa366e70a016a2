// Tests for the eWAL and crash-recovery behaviour (paper claim: fast
// parallel data recovery with no loss of acked writes).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/wal.h"
#include "mash/recovery.h"
#include "sync_counting_env.h"
#include "util/mutexlock.h"

namespace rocksmash {
namespace {

class EWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    EWalOptions options;
    options.segments = 4;
    wal_ = NewEWalManager(env_.get(), "/db", options);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<WalManager> wal_;
};

TEST_F(EWalTest, StripesAcrossSegmentFiles) {
  ASSERT_TRUE(wal_->NewLog(1).ok());
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(wal_->AddRecord("record" + std::to_string(i), nullptr).ok());
  }
  ASSERT_TRUE(wal_->Sync(WalPosition::End()).ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  // All four segment files must exist and be non-trivial.
  for (int k = 0; k < 4; k++) {
    EXPECT_TRUE(env_->FileExists(EWalFileName("/db", 1, k))) << k;
  }
}

TEST_F(EWalTest, ReplayReturnsAllRecordsWithShardIds) {
  ASSERT_TRUE(wal_->NewLog(2).ok());
  std::set<std::string> written;
  for (int i = 0; i < 100; i++) {
    std::string r = "record" + std::to_string(i);
    written.insert(r);
    ASSERT_TRUE(wal_->AddRecord(r, nullptr).ok());
  }
  ASSERT_TRUE(wal_->Sync(WalPosition::End()).ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  rocksmash::Mutex mu;
  std::set<std::string> replayed;
  std::set<int> shards;
  ASSERT_TRUE(wal_
                  ->Replay(2,
                           [&](const Slice& record, int shard) {
                             rocksmash::MutexLock l(&mu);
                             replayed.insert(record.ToString());
                             shards.insert(shard);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(written, replayed);
  EXPECT_EQ(4u, shards.size());  // All shards participated.
}

TEST_F(EWalTest, ListLogsDeduplicatesSegments) {
  ASSERT_TRUE(wal_->NewLog(3).ok());
  ASSERT_TRUE(wal_->AddRecord("a", nullptr).ok());
  ASSERT_TRUE(wal_->NewLog(9).ok());
  ASSERT_TRUE(wal_->AddRecord("b", nullptr).ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  std::vector<uint64_t> logs;
  ASSERT_TRUE(wal_->ListLogs(&logs).ok());
  ASSERT_EQ(2u, logs.size());
  EXPECT_EQ(3u, logs[0]);
  EXPECT_EQ(9u, logs[1]);
}

TEST_F(EWalTest, RemoveLogDeletesAllSegments) {
  ASSERT_TRUE(wal_->NewLog(4).ok());
  ASSERT_TRUE(wal_->AddRecord("x", nullptr).ok());
  ASSERT_TRUE(wal_->CloseLog().ok());
  ASSERT_TRUE(wal_->RemoveLog(4).ok());
  for (int k = 0; k < 4; k++) {
    EXPECT_FALSE(env_->FileExists(EWalFileName("/db", 4, k)));
  }
}

TEST_F(EWalTest, CorruptSegmentTruncatesOnlyThatShard) {
  ASSERT_TRUE(wal_->NewLog(5).ok());
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(wal_->AddRecord("record" + std::to_string(i), nullptr).ok());
  }
  ASSERT_TRUE(wal_->CloseLog().ok());

  // Corrupt segment 0 near its start.
  std::string seg0 = EWalFileName("/db", 5, 0);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), seg0, &contents).ok());
  contents[8] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(env_.get(), contents, seg0).ok());

  rocksmash::Mutex mu;
  int replayed = 0;
  std::set<int> shards;
  ASSERT_TRUE(wal_
                  ->Replay(5,
                           [&](const Slice&, int shard) {
                             rocksmash::MutexLock l(&mu);
                             replayed++;
                             shards.insert(shard);
                             return Status::OK();
                           })
                  .ok());
  // Segments 1-3 fully replayed (30 records); segment 0 truncated at the
  // corruption.
  EXPECT_GE(replayed, 30);
  EXPECT_LT(replayed, 40);
  EXPECT_TRUE(shards.count(1) && shards.count(2) && shards.count(3));
}

// ---------- Sync(position) contract ----------

std::vector<uint64_t> AppendedBytes(SyncCountingEnv* env, uint64_t log,
                                    int segments) {
  std::vector<uint64_t> appended(segments);
  for (int k = 0; k < segments; k++) {
    appended[k] = env->Counts(EWalFileName("/db", log, k)).appended;
  }
  return appended;
}

// Sync(position) makes the record at `position` and every earlier record
// durable. r1 lands in segment 0 and is not synced, r2 in segment 1;
// syncing through r2 must sync both segments. Checked through the Env: each
// segment's synced bytes reach what it held when r2 was appended.
TEST(EWalSyncTest, SyncThroughPositionCoversEarlierSegments) {
  std::unique_ptr<Env> mem = NewMemEnv();
  SyncCountingEnv env(mem.get(), "ewal-");
  EWalOptions options;
  options.segments = 4;
  std::unique_ptr<WalManager> wal = NewEWalManager(&env, "/db", options);
  ASSERT_TRUE(wal->ConcurrentSyncs());
  ASSERT_TRUE(wal->NewLog(1).ok());

  WalPosition r1, r2;
  ASSERT_TRUE(wal->AddRecord("record-1", &r1).ok());
  ASSERT_TRUE(wal->AddRecord("record-2", &r2).ok());
  EXPECT_EQ(0, r1.segment);
  EXPECT_EQ(1, r2.segment);
  EXPECT_LT(r1.record, r2.record);
  const std::vector<uint64_t> appended = AppendedBytes(&env, 1, 4);
  EXPECT_GT(appended[0], 0u);
  EXPECT_GT(appended[1], 0u);

  ASSERT_TRUE(wal->Sync(r2).ok());
  for (int k = 0; k < 4; k++) {
    EXPECT_GE(env.Counts(EWalFileName("/db", 1, k)).synced, appended[k]) << k;
  }
  // Segments that hold no record are left alone, and syncing through r1
  // afterwards finds nothing left to do.
  EXPECT_EQ(0, env.Counts(EWalFileName("/db", 1, 2)).syncs);
  EXPECT_EQ(0, env.Counts(EWalFileName("/db", 1, 3)).syncs);
  ASSERT_TRUE(wal->Sync(r1).ok());
  EXPECT_EQ(1, env.Counts(EWalFileName("/db", 1, 0)).syncs);
  EXPECT_EQ(1, env.Counts(EWalFileName("/db", 1, 1)).syncs);
  ASSERT_TRUE(wal->CloseLog().ok());
}

// One appender against concurrent Sync(position) callers, the shape of the
// write path with overlapped syncs: whenever Sync(position) returns OK,
// every segment is durable at least up to what it held when that record
// was appended.
TEST(EWalSyncTest, ConcurrentSyncsCoverEveryEarlierRecord) {
  std::unique_ptr<Env> mem = NewMemEnv();
  SyncCountingEnv env(mem.get(), "ewal-");
  EWalOptions options;
  options.segments = 4;
  std::unique_ptr<WalManager> wal = NewEWalManager(&env, "/db", options);
  ASSERT_TRUE(wal->NewLog(7).ok());

  struct Token {
    WalPosition position;
    std::vector<uint64_t> appended;
  };
  constexpr int kRecords = 400;
  constexpr int kSyncers = 3;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Token> tokens;
  bool appending = true;
  std::atomic<int> failed_syncs{0};
  std::atomic<int> uncovered{0};

  std::vector<std::thread> syncers;
  for (int t = 0; t < kSyncers; t++) {
    syncers.emplace_back([&] {
      while (true) {
        Token token;
        {
          std::unique_lock<std::mutex> l(mu);
          cv.wait(l, [&] { return !tokens.empty() || !appending; });
          if (tokens.empty()) return;
          token = std::move(tokens.front());
          tokens.pop_front();
        }
        if (!wal->Sync(token.position).ok()) {
          failed_syncs.fetch_add(1);
          continue;
        }
        for (int k = 0; k < options.segments; k++) {
          if (env.Counts(EWalFileName("/db", 7, k)).synced <
              token.appended[k]) {
            uncovered.fetch_add(1);
          }
        }
      }
    });
  }
  for (int i = 0; i < kRecords; i++) {
    Token token;
    ASSERT_TRUE(
        wal->AddRecord("record-" + std::to_string(i), &token.position).ok());
    token.appended = AppendedBytes(&env, 7, options.segments);
    std::lock_guard<std::mutex> l(mu);
    tokens.push_back(std::move(token));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> l(mu);
    appending = false;
    cv.notify_all();
  }
  for (auto& t : syncers) t.join();

  EXPECT_EQ(0, failed_syncs.load());
  EXPECT_EQ(0, uncovered.load());
  ASSERT_TRUE(wal->CloseLog().ok());
}

// A failed segment sync is sticky. Retrying an fsync after a failure may
// report OK although the kernel dropped the dirty pages, so once segment 0's
// sync failed, every later sync that needs segment 0 must fail too — even
// though the Env would now sync it fine. Segments that did not fail keep
// syncing, and a new log starts clean.
TEST(EWalSyncTest, FailedSegmentSyncIsSticky) {
  std::unique_ptr<Env> mem = NewMemEnv();
  SyncCountingEnv env(mem.get(), "ewal-");
  EWalOptions options;
  options.segments = 4;
  std::unique_ptr<WalManager> wal = NewEWalManager(&env, "/db", options);
  ASSERT_TRUE(wal->NewLog(1).ok());

  WalPosition r1, r2;
  ASSERT_TRUE(wal->AddRecord("record-1", &r1).ok());
  ASSERT_TRUE(wal->AddRecord("record-2", &r2).ok());
  ASSERT_EQ(0, r1.segment);
  ASSERT_EQ(1, r2.segment);

  env.FailNextSync(EWalFileName("/db", 1, 0));
  EXPECT_TRUE(wal->Sync(r1).IsIOError());
  // r2's sync covers r1's segment: it must report the failure, not retry.
  EXPECT_TRUE(wal->Sync(r2).IsIOError());
  EXPECT_TRUE(wal->Sync(WalPosition::End()).IsIOError());
  EXPECT_EQ(0, env.Counts(EWalFileName("/db", 1, 0)).syncs);
  // Segment 1 synced on its own (Sync(r2) does its own segment first).
  EXPECT_EQ(1, env.Counts(EWalFileName("/db", 1, 1)).syncs);

  ASSERT_TRUE(wal->NewLog(2).ok());
  WalPosition r3;
  ASSERT_TRUE(wal->AddRecord("record-3", &r3).ok());
  EXPECT_TRUE(wal->Sync(r3).ok());
  ASSERT_TRUE(wal->CloseLog().ok());
}

// ---------- Crash recovery through the engine ----------

class RecoveryParam : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    segments_ = GetParam();
    dbname_ = ::testing::TempDir() + "/rocksmash_recovery_" +
              std::to_string(segments_);
    std::filesystem::remove_all(dbname_);
    ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname_).ok());
    options_.wal_segments = segments_;
    options_.write_buffer_size = 32 * 1024 * 1024;  // Avoid flushes.
  }

  void TearDown() override { std::filesystem::remove_all(dbname_); }

  int segments_ = 1;
  std::string dbname_;
  DBOptions options_;
};

TEST_P(RecoveryParam, CrashLosesNothingAcked) {
  CrashWorkloadOptions crash;
  crash.wal_bytes = 2 * 1024 * 1024;
  uint64_t keys = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    ASSERT_TRUE(FillWalForCrash(db.get(), crash, &keys).ok());
    // "Crash": drop the DB without flushing the memtable.
  }

  RecoveryMeasurement m = MeasureRecovery(options_, dbname_);
  ASSERT_TRUE(m.status.ok());
  EXPECT_GT(m.stats.records_replayed, 0u);
  EXPECT_GT(m.stats.bytes_replayed, 0u);
  EXPECT_EQ(segments_, m.stats.shards_used);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  EXPECT_EQ(0u, VerifyRecoveredKeys(db.get(), crash, keys));
}

TEST_P(RecoveryParam, RepeatedCrashRecoverCycles) {
  CrashWorkloadOptions crash;
  crash.wal_bytes = 256 * 1024;
  uint64_t keys = 0;
  for (int cycle = 0; cycle < 3; cycle++) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    crash.seed = 42;  // Same data each cycle; overwrites are fine.
    ASSERT_TRUE(FillWalForCrash(db.get(), crash, &keys).ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  EXPECT_EQ(0u, VerifyRecoveredKeys(db.get(), crash, keys));
}

INSTANTIATE_TEST_SUITE_P(WalShards, RecoveryParam,
                         ::testing::Values(1, 2, 4, 8));

std::string KeyOf(int i) {
  const std::string n = std::to_string(i);
  return "k" + n;
}
std::string ValueOf(int i) {
  const std::string n = std::to_string(i);
  return "v" + n;
}

// Synced Puts of keys [begin, end) at `segments`, then a "crash": the DB is
// dropped without a flush, so the writes live only in the WAL.
void PutSyncedThenCrash(const std::string& dbname, int segments, int begin,
                        int end) {
  DBOptions options;
  options.wal_segments = segments;
  options.write_buffer_size = 8 << 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  WriteOptions sync;
  sync.sync = true;
  for (int i = begin; i < end; i++) {
    ASSERT_TRUE(db->Put(sync, KeyOf(i), ValueOf(i)).ok());
  }
}

// Opens at `segments` and counts the keys in [0, end) that are missing or
// wrong.
void CountLost(const std::string& dbname, int segments, int end,
               int* lost) {
  DBOptions options;
  options.wal_segments = segments;
  options.write_buffer_size = 8 << 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  *lost = 0;
  for (int i = 0; i < end; i++) {
    if (!db->Get(ReadOptions(), KeyOf(i), &value).ok() ||
        value != ValueOf(i)) {
      (*lost)++;
    }
  }
}

// Changing wal_segments between runs must not lose data: a log is replayed
// with whatever segment count the DB now has. Crash at K1, reopen at K2,
// write more, crash again, reopen at K2: every acked key is present.
class SegmentCountChange
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SegmentCountChange, SegmentCountChangeKeepsAckedWrites) {
  const auto [from, to] = GetParam();
  const std::string dbname = ::testing::TempDir() +
                             "/rocksmash_segment_change_" +
                             std::to_string(from) + "_" + std::to_string(to);
  std::filesystem::remove_all(dbname);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());

  ASSERT_NO_FATAL_FAILURE(PutSyncedThenCrash(dbname, from, 0, 300));
  int lost = -1;
  ASSERT_NO_FATAL_FAILURE(CountLost(dbname, to, 300, &lost));
  EXPECT_EQ(0, lost);
  ASSERT_NO_FATAL_FAILURE(PutSyncedThenCrash(dbname, to, 300, 400));
  ASSERT_NO_FATAL_FAILURE(CountLost(dbname, to, 400, &lost));
  EXPECT_EQ(0, lost);
  std::filesystem::remove_all(dbname);
}

INSTANTIATE_TEST_SUITE_P(
    Directions, SegmentCountChange,
    ::testing::Values(std::make_pair(4, 1), std::make_pair(1, 4)),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& param_info) {
      const std::string from = std::to_string(param_info.param.first);
      const std::string to = std::to_string(param_info.param.second);
      return "K" + from + "ToK" + to;
    });

// A store written when the engine used a single-file log ({number}.log)
// still opens: the eWAL lists and replays that format, and removes it once
// the log is obsolete. The legacy file is made from a one-segment eWAL log,
// which has the same record framing.
TEST(LegacyLogTest, LegacySingleFileLogReplays) {
  const std::string dbname = ::testing::TempDir() + "/rocksmash_legacy_log";
  std::filesystem::remove_all(dbname);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());
  ASSERT_NO_FATAL_FAILURE(PutSyncedThenCrash(dbname, 1, 0, 300));

  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dbname, &children).ok());
  std::vector<uint64_t> legacy;
  for (const std::string& child : children) {
    uint64_t number;
    int segment;
    if (ParseEWalFileName(child, &number, &segment)) {
      ASSERT_EQ(0, segment);
      ASSERT_TRUE(Env::Default()
                      ->RenameFile(dbname + "/" + child,
                                   LogFileName(dbname, number))
                      .ok());
      legacy.push_back(number);
    }
  }
  ASSERT_FALSE(legacy.empty());

  DBOptions options;
  options.write_buffer_size = 8 << 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(i), &value).ok()) << i;
    EXPECT_EQ(ValueOf(i), value);
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  for (uint64_t number : legacy) {
    EXPECT_FALSE(Env::Default()->FileExists(LogFileName(dbname, number)))
        << number;
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

TEST(EWalEngineTest, SequencesConsistentAfterParallelReplay) {
  // Writes interleaved with overwrites: parallel out-of-order replay must
  // still make the *latest* write win for every key.
  std::string dbname = ::testing::TempDir() + "/rocksmash_ewal_seq";
  std::filesystem::remove_all(dbname);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());

  DBOptions options;
  options.wal_segments = 4;
  options.write_buffer_size = 32 * 1024 * 1024;

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    // Each key written 5 times; versions land in different segments.
    for (int version = 0; version < 5; version++) {
      const std::string v = std::to_string(version);
      for (int k = 0; k < 200; k++) {
        const std::string n = std::to_string(k);
        ASSERT_TRUE(db->Put(WriteOptions(), "key" + n, "v" + v).ok());
      }
    }
    WriteOptions sync;
    sync.sync = true;
    ASSERT_TRUE(db->Put(sync, "fence", "done").ok());
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  for (int k = 0; k < 200; k++) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(k), &value).ok());
    EXPECT_EQ("v4", value) << k;
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

}  // namespace
}  // namespace rocksmash
