// End-to-end tests of the LSM engine through the public DB interface.
#include "lsm/db.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "env/env.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "util/random.h"

namespace rocksmash {
namespace {

class DBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "/rocksmash_db_test_" +
              std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dbname_);
    options_.create_if_missing = true;
    options_.write_buffer_size = 256 * 1024;
    options_.block_cache = nullptr;
    ASSERT_TRUE(Open().ok());
  }

  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dbname_);
  }

  Status Open() { return DB::Open(options_, dbname_, &db_); }

  Status Reopen() {
    db_.reset();
    return Open();
  }

  Status Put(const std::string& k, const std::string& v, bool sync = false) {
    WriteOptions wo;
    wo.sync = sync;
    return db_->Put(wo, k, v);
  }

  std::string Get(const std::string& k) {
    std::string value;
    Status s = db_->Get(ReadOptions(), k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return value;
  }

  DBOptions options_;
  std::string dbname_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, Empty) { EXPECT_EQ("NOT_FOUND", Get("foo")); }

TEST_F(DBTest, PutGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("bar", "v2").ok());
  EXPECT_EQ("v2", Get("bar"));
  EXPECT_EQ("v1", Get("foo"));
}

TEST_F(DBTest, Overwrite) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
}

TEST_F(DBTest, DeleteGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "foo").ok());
  EXPECT_EQ("NOT_FOUND", Get("foo"));
}

TEST_F(DBTest, DeleteNonexistent) {
  EXPECT_TRUE(db_->Delete(WriteOptions(), "nothing").ok());
}

TEST_F(DBTest, EmptyValue) {
  ASSERT_TRUE(Put("k", "").ok());
  EXPECT_EQ("", Get("k"));
}

TEST_F(DBTest, EmptyKey) {
  ASSERT_TRUE(Put("", "v").ok());
  EXPECT_EQ("v", Get(""));
}

TEST_F(DBTest, LargeValue) {
  std::string big(1 << 20, 'x');
  ASSERT_TRUE(Put("big", big).ok());
  EXPECT_EQ(big, Get("big"));
}

TEST_F(DBTest, WriteBatchAtomicity) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_EQ("3", Get("c"));
}

TEST_F(DBTest, GetFromImmutableAndSstLayers) {
  // Enough data to force several flushes.
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(
        Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 5000; i += 97) {
    EXPECT_EQ("value" + std::to_string(i), Get("key" + std::to_string(i)));
  }
}

TEST_F(DBTest, FlushThenGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ("v1", Get("foo"));

  // A non-overlapping flush may be placed as deep as kMaxMemCompactLevel,
  // so count files across the shallow levels.
  int total = 0;
  for (int level = 0; level <= config::kMaxMemCompactLevel; level++) {
    std::string num_files;
    ASSERT_TRUE(db_->GetProperty(
        "rocksmash.num-files-at-level" + std::to_string(level), &num_files));
    total += std::stoi(num_files);
  }
  EXPECT_GT(total, 0);
}

TEST_F(DBTest, ReopenPreservesData) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(Put("baz", "v3").ok());  // Left in WAL only
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ("v1", Get("foo"));
  EXPECT_EQ("v2", Get("bar"));
  EXPECT_EQ("v3", Get("baz"));
}

TEST_F(DBTest, RecoveryReplaysWal) {
  for (int i = 0; i < 100; i++) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(Put("k" + n, "v" + n).ok());
  }
  ASSERT_TRUE(Reopen().ok());
  for (int i = 0; i < 100; i++) {
    const std::string n = std::to_string(i);
    EXPECT_EQ("v" + n, Get("k" + n));
  }
  RecoveryStats stats = db_->GetRecoveryStats();
  EXPECT_GE(stats.records_replayed, 100u);
  EXPECT_GE(stats.logs_replayed, 1u);
}

TEST_F(DBTest, RepeatedReopen) {
  for (int round = 0; round < 5; round++) {
    ASSERT_TRUE(Put("round" + std::to_string(round), "x").ok());
    ASSERT_TRUE(Reopen().ok());
  }
  for (int round = 0; round < 5; round++) {
    EXPECT_EQ("x", Get("round" + std::to_string(round)));
  }
}

TEST_F(DBTest, CompactionKeepsData) {
  const int kN = 20000;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(i), std::string(100, 'a' + i % 26))
                    .ok());
  }
  db_->WaitForCompaction();
  for (int i = 0; i < kN; i += 53) {
    EXPECT_EQ(std::string(100, 'a' + i % 26), Get("key" + std::to_string(i)));
  }
}

TEST_F(DBTest, ManualCompactRange) {
  for (int i = 0; i < 3000; i++) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(Put("key" + n, "v" + n).ok());
  }
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  for (int i = 0; i < 3000; i += 37) {
    const std::string n = std::to_string(i);
    EXPECT_EQ("v" + n, Get("key" + n));
  }
  // After a full manual compaction L0 should be empty.
  std::string v;
  ASSERT_TRUE(db_->GetProperty("rocksmash.num-files-at-level0", &v));
  EXPECT_EQ("0", v);
}

TEST_F(DBTest, IteratorForward) {
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", it->key().ToString());
  it->Next();
  EXPECT_EQ("b", it->key().ToString());
  it->Next();
  EXPECT_EQ("c", it->key().ToString());
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, IteratorBackward) {
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("c", it->key().ToString());
  it->Prev();
  EXPECT_EQ("b", it->key().ToString());
  it->Prev();
  EXPECT_EQ("a", it->key().ToString());
  it->Prev();
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, IteratorSeesLatestVersionOnly) {
  ASSERT_TRUE(Put("k", "old").ok());
  ASSERT_TRUE(Put("k", "new").ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("new", it->value().ToString());
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, IteratorHidesDeleted) {
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "a").ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("b", it->key().ToString());
}

TEST_F(DBTest, IteratorSeek) {
  for (int i = 0; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%04d", i);
    ASSERT_TRUE(Put(buf, std::to_string(i)).ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->Seek("k0051");  // Odd: lands on k0052.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0052", it->key().ToString());
}

TEST_F(DBTest, IteratorAcrossFlush) {
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(Put("b", "2").ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
  EXPECT_EQ(2, count);
}

TEST_F(DBTest, SnapshotIsolation) {
  ASSERT_TRUE(Put("k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "v2").ok());

  ReadOptions ro;
  ro.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ro, "k", &value).ok());
  EXPECT_EQ("v1", value);

  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v2", value);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, SnapshotSurvivesFlushAndCompaction) {
  ASSERT_TRUE(Put("k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(Put("fill" + std::to_string(i), std::string(200, 'f')).ok());
  }
  ASSERT_TRUE(Put("k", "v2").ok());
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());

  ReadOptions ro;
  ro.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ro, "k", &value).ok());
  EXPECT_EQ("v1", value);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, SnapshotOfDeletedKey) {
  ASSERT_TRUE(Put("k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());

  ReadOptions ro;
  ro.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ro, "k", &value).ok());
  EXPECT_EQ("v1", value);
  EXPECT_EQ("NOT_FOUND", Get("k"));
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, GetProperty) {
  std::string v;
  EXPECT_TRUE(db_->GetProperty("rocksmash.stats", &v));
  EXPECT_TRUE(db_->GetProperty("rocksmash.sstables", &v));
  EXPECT_TRUE(db_->GetProperty("rocksmash.approximate-memory-usage", &v));
  EXPECT_FALSE(db_->GetProperty("bogus.property", &v));
}

TEST_F(DBTest, SyncWrites) {
  ASSERT_TRUE(Put("durable", "yes", /*sync=*/true).ok());
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ("yes", Get("durable"));
}

TEST_F(DBTest, ConcurrentWriters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t] {
      const std::string thread = std::to_string(t);
      for (int i = 0; i < kPerThread; i++) {
        const std::string n = std::to_string(i);
        std::string key = "t" + thread + "-" + n;
        ASSERT_TRUE(db_->Put(WriteOptions(), key, key + "-value").ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) {
    const std::string thread = std::to_string(t);
    for (int i = 0; i < kPerThread; i += 41) {
      const std::string n = std::to_string(i);
      std::string key = "t" + thread + "-" + n;
      EXPECT_EQ(key + "-value", Get(key));
    }
  }
}

TEST_F(DBTest, ConcurrentReadersWhileWriting) {
  for (int i = 0; i < 1000; i++) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(Put("k" + n, "v" + n).ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([this, &stop] {
    int i = 1000;
    while (!stop.load()) {
      const std::string n = std::to_string(i);
      EXPECT_TRUE(db_->Put(WriteOptions(), "k" + n, "v").ok());
      i++;
    }
  });
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 1000; i += 7) {
      const std::string n = std::to_string(i);
      EXPECT_EQ("v" + n, Get("k" + n));
    }
  }
  stop.store(true);
  writer.join();
}

TEST_F(DBTest, OpenMissingWithoutCreateFails) {
  DBOptions opt;
  opt.create_if_missing = false;
  std::unique_ptr<DB> db;
  Status s = DB::Open(opt, dbname_ + "_nonexistent", &db);
  EXPECT_FALSE(s.ok());
}

TEST_F(DBTest, ErrorIfExists) {
  DBOptions opt = options_;
  opt.error_if_exists = true;
  db_.reset();
  std::unique_ptr<DB> db;
  Status s = DB::Open(opt, dbname_, &db);
  EXPECT_FALSE(s.ok());
}

TEST_F(DBTest, DestroyDBRemovesFiles) {
  ASSERT_TRUE(Put("k", "v").ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(dbname_, options_).ok());
  EXPECT_FALSE(Env::Default()->FileExists(CurrentFileName(dbname_)));
}

TEST_F(DBTest, KeysWithBinaryContent) {
  std::string key("\x00\x01\xff\x7f", 4);
  std::string value("\xde\xad\xbe\xef", 4);
  ASSERT_TRUE(Put(key, value).ok());
  EXPECT_EQ(value, Get(key));
}

TEST_F(DBTest, OrderedIterationMatchesSortedInput) {
  std::set<std::string> keys;
  Random64 rng(7);
  for (int i = 0; i < 500; i++) {
    const std::string n = std::to_string(rng.Uniform(100000));
    std::string key = "k" + n;
    keys.insert(key);
    ASSERT_TRUE(Put(key, "v").ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  auto expect = keys.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, keys.end());
    EXPECT_EQ(*expect, it->key().ToString());
  }
  EXPECT_EQ(expect, keys.end());
}

}  // namespace
}  // namespace rocksmash
