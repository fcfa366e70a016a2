// Tests for the log format (writer/reader) and the WalManager contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <utility>

#include "env/env.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "lsm/wal.h"

namespace rocksmash {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  void Write(const std::vector<std::string>& records) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/log", &file).ok());
    log::Writer writer(file.get());
    for (const auto& r : records) {
      ASSERT_TRUE(writer.AddRecord(r).ok());
    }
    ASSERT_TRUE(file->Close().ok());
  }

  std::vector<std::string> ReadAll(int* corruption_reports = nullptr) {
    struct CountingReporter : public log::Reader::Reporter {
      int count = 0;
      void Corruption(size_t, const Status&) override { count++; }
    } reporter;

    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile("/log", &file).ok());
    log::Reader reader(file.get(), &reporter);
    std::vector<std::string> result;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      result.push_back(record.ToString());
    }
    if (corruption_reports != nullptr) *corruption_reports = reporter.count;
    return result;
  }

  void CorruptByte(size_t offset, char xor_mask) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
    ASSERT_LT(offset, contents.size());
    contents[offset] ^= xor_mask;
    ASSERT_TRUE(WriteStringToFile(env_.get(), contents, "/log").ok());
  }

  void Truncate(size_t new_size) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
    contents.resize(new_size);
    ASSERT_TRUE(WriteStringToFile(env_.get(), contents, "/log").ok());
  }

  std::unique_ptr<Env> env_;
};

TEST_F(LogTest, EmptyLog) {
  Write({});
  EXPECT_TRUE(ReadAll().empty());
}

TEST_F(LogTest, SmallRecords) {
  Write({"foo", "bar", ""});
  auto records = ReadAll();
  ASSERT_EQ(3u, records.size());
  EXPECT_EQ("foo", records[0]);
  EXPECT_EQ("bar", records[1]);
  EXPECT_EQ("", records[2]);
}

TEST_F(LogTest, RecordSpanningBlocks) {
  // Larger than one 32 KiB block: forces FIRST/MIDDLE/LAST fragmentation.
  std::string big(100000, 'x');
  std::string medium(40000, 'y');
  Write({big, "small", medium});
  auto records = ReadAll();
  ASSERT_EQ(3u, records.size());
  EXPECT_EQ(big, records[0]);
  EXPECT_EQ("small", records[1]);
  EXPECT_EQ(medium, records[2]);
}

TEST_F(LogTest, ManyRecordsAcrossBlocks) {
  std::vector<std::string> records;
  for (int i = 0; i < 5000; i++) {
    records.push_back("record-" + std::to_string(i));
  }
  Write(records);
  auto read = ReadAll();
  ASSERT_EQ(records.size(), read.size());
  EXPECT_EQ(records.front(), read.front());
  EXPECT_EQ(records.back(), read.back());
}

TEST_F(LogTest, ChecksumCorruptionDropsRecord) {
  Write({"aaaa", "bbbb"});
  CorruptByte(log::kHeaderSize + 1, 0x01);  // Payload of first record.
  int reports = 0;
  auto records = ReadAll(&reports);
  EXPECT_GE(reports, 1);
  // The corrupted record is dropped; everything in the same block after a
  // bad crc is also dropped (length may be untrustworthy).
  for (const auto& r : records) {
    EXPECT_NE("aaaa", r);
  }
}

TEST_F(LogTest, TruncatedTailDroppedSilently) {
  Write({"aaaa", "bbbb"});
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/log", &contents).ok());
  Truncate(contents.size() - 2);  // Tear the last record.
  int reports = 0;
  auto records = ReadAll(&reports);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ("aaaa", records[0]);
  EXPECT_EQ(0, reports);  // Torn tail is an expected crash artifact.
}

// ---------- WalManager (the eWAL at one and at four segments) ----------

class WalManagerTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    EWalOptions options;
    options.segments = GetParam();
    wal_ = NewEWalManager(env_.get(), "/db", options);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<WalManager> wal_;
};

TEST_P(WalManagerTest, WriteAndReplay) {
  ASSERT_TRUE(wal_->NewLog(5).ok());
  ASSERT_TRUE(wal_->AddRecord("record1", nullptr).ok());
  ASSERT_TRUE(wal_->AddRecord("record2", nullptr).ok());
  ASSERT_TRUE(wal_->Sync(WalPosition::End()).ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  // Round-robin: record1 in segment 0, record2 in the next one (segment 0
  // again with one segment), each replayed on its segment's shard. A
  // one-segment log replays in write order; shards run concurrently.
  std::mutex mu;
  std::vector<std::pair<std::string, int>> replayed;
  ASSERT_TRUE(wal_
                  ->Replay(5,
                           [&](const Slice& record, int shard) {
                             std::lock_guard<std::mutex> l(mu);
                             replayed.emplace_back(record.ToString(), shard);
                             return Status::OK();
                           })
                  .ok());
  if (GetParam() > 1) std::sort(replayed.begin(), replayed.end());
  const std::vector<std::pair<std::string, int>> expected = {
      {"record1", 0}, {"record2", GetParam() > 1 ? 1 : 0}};
  EXPECT_EQ(expected, replayed);
}

TEST_P(WalManagerTest, ListAndRemove) {
  ASSERT_TRUE(wal_->NewLog(3).ok());
  ASSERT_TRUE(wal_->AddRecord("x", nullptr).ok());
  ASSERT_TRUE(wal_->NewLog(7).ok());
  ASSERT_TRUE(wal_->AddRecord("y", nullptr).ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  std::vector<uint64_t> logs;
  ASSERT_TRUE(wal_->ListLogs(&logs).ok());
  ASSERT_EQ(2u, logs.size());
  EXPECT_EQ(3u, logs[0]);
  EXPECT_EQ(7u, logs[1]);

  ASSERT_TRUE(wal_->RemoveLog(3).ok());
  ASSERT_TRUE(wal_->ListLogs(&logs).ok());
  ASSERT_EQ(1u, logs.size());
  EXPECT_EQ(7u, logs[0]);
}

TEST_P(WalManagerTest, MaxShardsIsSegmentCount) {
  EXPECT_EQ(GetParam(), wal_->MaxShards());
}

TEST_P(WalManagerTest, AddRecordWithoutOpenLogFails) {
  EXPECT_FALSE(wal_->AddRecord("x", nullptr).ok());
}

INSTANTIATE_TEST_SUITE_P(Segments, WalManagerTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace rocksmash
