// Coverage for less-traveled paths: custom comparators (including the
// manifest's comparator-mismatch guard), heap-allocated LookupKeys,
// ApproximateOffsetOf, reverse iteration over deletions, and write-batch
// group commit under bursts.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "env/env.h"
#include "util/random.h"

namespace rocksmash {
namespace {

// A comparator that orders by numeric suffix (demonstrates non-bytewise
// user comparators flow end to end).
class NumberComparator final : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    uint64_t na = Parse(a), nb = Parse(b);
    if (na < nb) return -1;
    if (na > nb) return +1;
    return 0;
  }
  const char* Name() const override { return "test.NumberComparator"; }
  void FindShortestSeparator(std::string*, const Slice&) const override {}
  void FindShortSuccessor(std::string*) const override {}

 private:
  static uint64_t Parse(const Slice& s) {
    return std::strtoull(s.ToString().c_str(), nullptr, 10);
  }
};

TEST(CustomComparatorTest, NumericOrderEndToEnd) {
  std::string dbname = ::testing::TempDir() + "/rocksmash_numcmp";
  std::filesystem::remove_all(dbname);
  NumberComparator cmp;
  DBOptions options;
  options.comparator = &cmp;
  options.filter_bits_per_key = 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  // Insert numbers whose BYTEWISE order differs from numeric order.
  for (uint64_t v : {100, 3, 20, 1, 1000, 50}) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), std::to_string(v), "v" + std::to_string(v))
            .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  std::vector<uint64_t> order;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    order.push_back(std::strtoull(it->key().ToString().c_str(), nullptr, 10));
  }
  it.reset();
  EXPECT_EQ((std::vector<uint64_t>{1, 3, 20, 50, 100, 1000}), order);

  // Reopening with a different comparator must be refused (the MANIFEST
  // records the comparator name).
  db.reset();
  DBOptions bytewise;
  Status s = DB::Open(bytewise, dbname, &db);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(std::string::npos, s.ToString().find("comparator"));

  std::filesystem::remove_all(dbname);
}

TEST(LookupKeyTest, LongKeysUseHeapPath) {
  // Keys longer than the 200-byte inline buffer exercise the heap branch.
  std::string long_key(5000, 'k');
  LookupKey lkey(long_key, 7);
  EXPECT_EQ(long_key, lkey.user_key().ToString());
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(lkey.internal_key(), &parsed));
  EXPECT_EQ(7u, parsed.sequence);
}

TEST(LongKeyValueTest, EndToEnd) {
  std::string dbname = ::testing::TempDir() + "/rocksmash_longkv";
  std::filesystem::remove_all(dbname);
  DBOptions options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  std::string big_key(10000, 'K');
  std::string big_value(500000, 'V');
  ASSERT_TRUE(db->Put(WriteOptions(), big_key, big_value).ok());
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), big_key, &value).ok());
  EXPECT_EQ(big_value, value);
  db.reset();
  std::filesystem::remove_all(dbname);
}

TEST(ApproximateOffsetTest, MonotoneOverKeys) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/t", &file).ok());
  TableOptions topt;
  topt.compression = kNoCompression;
  TableBuilder builder(topt, file.get());
  Random64 rng(1);
  for (int i = 0; i < 2000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    std::string value(100, '\0');
    for (char& c : value) c = static_cast<char>(rng.Next());
    builder.Add(key, value);
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("/t", &rfile).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(topt, std::make_unique<FileBlockSource>(rfile.get()),
                          builder.FileSize(), nullptr, 1, &table)
                  .ok());

  uint64_t prev = 0;
  for (int i = 0; i < 2000; i += 200) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    uint64_t offset = table->ApproximateOffsetOf(key);
    EXPECT_GE(offset, prev);
    prev = offset;
  }
  // A key past the end approximates the file size.
  EXPECT_GE(table->ApproximateOffsetOf("zzz"), prev);
}

TEST(ReverseIterationTest, PrevOverDeletionsAndOverwrites) {
  std::string dbname = ::testing::TempDir() + "/rocksmash_reviter";
  std::filesystem::remove_all(dbname);
  DBOptions options;
  options.write_buffer_size = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  for (int i = 0; i < 200; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%04d", i);
    ASSERT_TRUE(db->Put(WriteOptions(), buf, "v1").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  // Delete odd keys, overwrite every 10th.
  for (int i = 1; i < 200; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%04d", i);
    ASSERT_TRUE(db->Delete(WriteOptions(), buf).ok());
  }
  for (int i = 0; i < 200; i += 10) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%04d", i);
    ASSERT_TRUE(db->Put(WriteOptions(), buf, "v2").ok());
  }

  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  int n = 0;
  std::string prev_key = "zzzz";
  for (it->SeekToLast(); it->Valid(); it->Prev()) {
    std::string k = it->key().ToString();
    EXPECT_LT(k, prev_key);
    prev_key = k;
    int num = std::atoi(k.c_str() + 1);
    EXPECT_EQ(0, num % 2) << "odd keys were deleted";
    EXPECT_EQ(num % 10 == 0 ? "v2" : "v1", it->value().ToString());
    n++;
  }
  EXPECT_EQ(100, n);

  // Direction flip mid-stream.
  it->Seek("k0100");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0100", it->key().ToString());
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0098", it->key().ToString());
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k0100", it->key().ToString());

  it.reset();
  db.reset();
  std::filesystem::remove_all(dbname);
}

TEST(PlacementPropertyTest, ReportsPerLevelTierSplit) {
  std::string dbname = ::testing::TempDir() + "/rocksmash_placementprop";
  std::filesystem::remove_all(dbname);
  DBOptions options;
  options.write_buffer_size = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(100, 'p'))
                    .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();

  std::string placement;
  ASSERT_TRUE(db->GetProperty("rocksmash.placement", &placement));
  // Local-only storage: every listed level reports 0 cloud files.
  EXPECT_NE(std::string::npos, placement.find("files"));
  EXPECT_EQ(std::string::npos, placement.find(" 1 cloud"));
  db.reset();
  std::filesystem::remove_all(dbname);
}

TEST(GroupCommitTest, BurstOfWritersAllSucceed) {
  std::string dbname = ::testing::TempDir() + "/rocksmash_groupcommit";
  std::filesystem::remove_all(dbname);
  DBOptions options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&db, t] {
      WriteOptions sync;
      sync.sync = (t % 2 == 0);  // Mix sync and async writers in the queue.
      const std::string thread = std::to_string(t);
      for (int i = 0; i < kPerThread; i++) {
        const std::string n = std::to_string(i);
        WriteBatch batch;
        batch.Put("t" + thread + "-" + n, "v");
        batch.Put("shared-" + n, "t" + thread);
        ASSERT_TRUE(db->Write(sync, &batch).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    const std::string thread = std::to_string(t);
    for (int i = 0; i < kPerThread; i += 29) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(db->Get(ReadOptions(), "t" + thread + "-" + n, &value).ok());
    }
  }
  // Shared keys hold the value of exactly one of the racing writers.
  for (int i = 0; i < kPerThread; i += 37) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "shared-" + std::to_string(i), &value).ok());
    EXPECT_EQ('t', value[0]);
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

}  // namespace
}  // namespace rocksmash
