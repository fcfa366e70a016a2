// Tests for the batched read path: DB::MultiGet must agree with a loop of
// Get under every mix of memtable/local/cloud residency, deletes, snapshots,
// and duplicate keys — while coalescing duplicate blocks and fanning cloud
// misses out in parallel.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/object_store.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/rocksmash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

std::string Value(uint64_t i, int version) {
  std::string v = "value-" + std::to_string(i) + "-v" + std::to_string(version);
  v.resize(64, 'p');
  return v;
}

class MultiGetTest : public ::testing::Test {
 protected:
  void Open(int cloud_level_start, uint64_t readahead_bytes = 16 * 1024) {
    dir_ = TestDir("multiget");
    CloudLatencyModel model;
    model.jitter_micros = 0;
    cloud_ = NewMemObjectStore(&clock_, model);
    stats_ = CreateDBStatistics();
    SchemeOptions o;  // kind = kRocksMash
    o.local_dir = dir_ + "/db";
    o.cloud = cloud_.get();
    o.cloud_level_start = cloud_level_start;
    o.write_buffer_size = 32 << 10;
    o.max_file_size = 32 << 10;
    o.max_bytes_for_level_base = 64 << 10;
    o.block_size = 1024;
    o.block_cache_bytes = 16 << 10;
    o.local_cache_bytes = 16 << 10;
    o.cloud_readahead_bytes = readahead_bytes;
    o.statistics = stats_.get();
    ASSERT_TRUE(OpenKVStore(o, &db_).ok());
  }

  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  // MultiGet over `keys` must byte-for-byte match a loop of Get with the
  // same ReadOptions.
  void CheckAgainstLoop(const ReadOptions& ro,
                        const std::vector<std::string>& key_storage) {
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());
    std::vector<std::string> values;
    std::vector<Status> statuses;
    db_->MultiGet(ro, keys, &values, &statuses);
    ASSERT_EQ(keys.size(), values.size());
    ASSERT_EQ(keys.size(), statuses.size());
    for (size_t i = 0; i < keys.size(); i++) {
      std::string expected;
      Status s = db_->Get(ro, keys[i], &expected);
      EXPECT_EQ(s.ok(), statuses[i].ok()) << key_storage[i];
      EXPECT_EQ(s.IsNotFound(), statuses[i].IsNotFound()) << key_storage[i];
      if (s.ok()) {
        EXPECT_EQ(expected, values[i]) << key_storage[i];
      }
    }
  }

  uint64_t Ticker(uint32_t t) const { return stats_->GetTickerCount(t); }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  std::shared_ptr<Statistics> stats_;
  std::unique_ptr<KVStore> db_;
};

TEST_F(MultiGetTest, EmptyBatch) {
  Open(1);
  std::vector<Slice> keys;
  std::vector<std::string> values = {"stale"};
  std::vector<Status> statuses = {Status::Corruption("stale")};
  // why unchecked: the seeded status is a sentinel that MultiGet must wipe,
  // not an error anyone inspects.
  statuses[0].PermitUncheckedError();
  db_->MultiGet(ReadOptions(), keys, &values, &statuses);
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

// Randomized sweep with keys resident in the memtable, local SSTs, and
// cloud SSTs at once, plus overwrites, deletes, duplicates within a batch,
// and misses.
TEST_F(MultiGetTest, MatchesLoopedGetAcrossTiers) {
  Open(1);
  WriteOptions wo;
  for (uint64_t i = 0; i < 400; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 0)).ok());
  }
  for (uint64_t i = 0; i < 400; i += 5) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 1)).ok());
  }
  for (uint64_t i = 0; i < 400; i += 7) {
    ASSERT_TRUE(db_->Delete(wo, Key(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();
  // Fresh memtable entries on top of the flushed state, including deletes
  // that shadow SST-resident versions.
  for (uint64_t i = 400; i < 500; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 2)).ok());
  }
  for (uint64_t i = 1; i < 400; i += 31) {
    ASSERT_TRUE(db_->Delete(wo, Key(i)).ok());
  }

  Random64 rng(20260807);
  ReadOptions ro;
  for (int round = 0; round < 40; round++) {
    std::vector<std::string> batch;
    for (int j = 0; j < 24; j++) {
      // [0, 600): ~1/6 of draws miss entirely.
      batch.push_back(Key(rng.Uniform(600)));
    }
    // Force duplicates within the batch.
    batch.push_back(batch[0]);
    batch.push_back(batch[7]);
    CheckAgainstLoop(ro, batch);
  }
  EXPECT_GT(Ticker(MULTIGET_BATCHES), 0u);
  EXPECT_GT(Ticker(MULTIGET_KEYS), Ticker(MULTIGET_BATCHES));
}

TEST_F(MultiGetTest, RespectsSnapshot) {
  Open(0);
  WriteOptions wo;
  for (uint64_t i = 0; i < 80; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 0)).ok());
  }
  const Snapshot* snap = db_->db()->GetSnapshot();
  for (uint64_t i = 0; i < 80; i += 2) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 9)).ok());
  }
  for (uint64_t i = 1; i < 80; i += 2) {
    ASSERT_TRUE(db_->Delete(wo, Key(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();

  std::vector<std::string> key_storage;
  for (uint64_t i = 0; i < 80; i++) key_storage.push_back(Key(i));
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;

  // At the snapshot every key exists with its version-0 value, regardless
  // of the overwrites/deletes that landed (and flushed) afterwards.
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  db_->MultiGet(at_snap, keys, &values, &statuses);
  for (uint64_t i = 0; i < 80; i++) {
    ASSERT_TRUE(statuses[i].ok()) << Key(i);
    EXPECT_EQ(Value(i, 0), values[i]);
  }
  CheckAgainstLoop(at_snap, key_storage);

  // Without the snapshot, the current state shows through.
  db_->MultiGet(ReadOptions(), keys, &values, &statuses);
  for (uint64_t i = 0; i < 80; i++) {
    if (i % 2 == 0) {
      ASSERT_TRUE(statuses[i].ok()) << Key(i);
      EXPECT_EQ(Value(i, 9), values[i]);
    } else {
      EXPECT_TRUE(statuses[i].IsNotFound()) << Key(i);
    }
  }
  db_->db()->ReleaseSnapshot(snap);
}

// Duplicate keys (and neighbors in one block) must resolve with a single
// block fetch: the dedup shows up in multiget.coalesced.blocks and every
// duplicate still gets its own correct value.
TEST_F(MultiGetTest, CoalescesDuplicateBlocks) {
  Open(0);
  WriteOptions wo;
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 0)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();  // Also drains the uploads.

  std::vector<std::string> key_storage;
  for (int rep = 0; rep < 8; rep++) key_storage.push_back(Key(100));
  for (uint64_t i = 101; i < 105; i++) key_storage.push_back(Key(i));
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;

  const uint64_t coalesced_before = Ticker(MULTIGET_COALESCED_BLOCKS);
  db_->MultiGet(ReadOptions(), keys, &values, &statuses);
  EXPECT_GT(Ticker(MULTIGET_COALESCED_BLOCKS), coalesced_before);
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
  }
  // All eight duplicates of Key(100) returned the same bytes.
  for (int rep = 1; rep < 8; rep++) EXPECT_EQ(values[0], values[rep]);
  EXPECT_EQ(Value(100, 0), values[0]);
}

// A cold batch against a cloud-resident table with a tiny readahead window
// must fan its block fetches out on the shared pool.
TEST_F(MultiGetTest, ParallelCloudFetches) {
  Open(0, /*readahead_bytes=*/1024);
  WriteOptions wo;
  Random64 rng(7);
  for (uint64_t i = 0; i < 600; i++) {
    std::string value(128, '\0');
    for (char& c : value) c = static_cast<char>('a' + (rng.Next() % 26));
    ASSERT_TRUE(db_->Put(wo, Key(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();  // Also drains the uploads.

  std::vector<std::string> key_storage;
  for (uint64_t i = 0; i < 600; i += 19) key_storage.push_back(Key(i));
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;

  ReadOptions ro;
  ro.max_cloud_fan_out = 8;
  const uint64_t parallel_before = Ticker(MULTIGET_CLOUD_PARALLEL_GETS);
  db_->MultiGet(ro, keys, &values, &statuses);
  EXPECT_GT(Ticker(MULTIGET_CLOUD_PARALLEL_GETS), parallel_before);
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
    EXPECT_EQ(128u, values[i].size());
  }
}

// cloud_readahead_bytes is the coalescing window: with the whole file in
// one window, a spread batch costs a single range GET.
TEST_F(MultiGetTest, ReadaheadWindowCoalescesRangeGets) {
  Open(0, /*readahead_bytes=*/4 << 20);  // Whole file fits one window.
  WriteOptions wo;
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), Value(i, 0)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();  // Also drains the uploads.

  std::vector<std::string> key_storage;
  for (uint64_t i = 0; i < 200; i += 11) key_storage.push_back(Key(i));
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;

  ReadOptions ro;
  const uint64_t gets_before = cloud_->Counters().gets;
  db_->MultiGet(ro, keys, &values, &statuses);
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
  }
  // One data SST, one coalesced range GET for all of its requested blocks.
  EXPECT_LE(cloud_->Counters().gets - gets_before, 2u);
}

// KVStore forwards the batched path unchanged for every scheme (the base
// DB::MultiGet loop covers schemes without a batched engine underneath).
TEST(MultiGetKVStoreTest, ForwardsAcrossSchemes) {
  for (SchemeKind kind : {SchemeKind::kLocalOnly, SchemeKind::kRocksMash}) {
    SimClock clock;
    CloudLatencyModel model;
    model.jitter_micros = 0;
    auto cloud = NewMemObjectStore(&clock, model);
    std::string dir = TestDir(std::string("multiget_kv_") + SchemeName(kind));
    SchemeOptions o;
    o.kind = kind;
    o.local_dir = dir + "/db";
    o.cloud = kind == SchemeKind::kLocalOnly ? nullptr : cloud.get();
    o.cloud_level_start = 0;
    o.write_buffer_size = 32 << 10;
    o.max_file_size = 32 << 10;
    std::unique_ptr<KVStore> store;
    ASSERT_TRUE(OpenKVStore(o, &store).ok());

    WriteOptions wo;
    for (uint64_t i = 0; i < 100; i++) {
      ASSERT_TRUE(store->Put(wo, Key(i), Value(i, 0)).ok());
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
    store->WaitForCompaction();

    std::vector<std::string> key_storage;
    for (uint64_t i = 0; i < 120; i += 3) key_storage.push_back(Key(i));
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());
    std::vector<std::string> values;
    std::vector<Status> statuses;
    store->MultiGet(ReadOptions(), keys, &values, &statuses);
    ASSERT_EQ(keys.size(), statuses.size());
    for (size_t i = 0; i < key_storage.size(); i++) {
      std::string expected;
      Status s = store->Get(ReadOptions(), keys[i], &expected);
      EXPECT_EQ(s.ok(), statuses[i].ok()) << key_storage[i];
      if (s.ok()) {
        EXPECT_EQ(expected, values[i]) << key_storage[i];
      }
    }
    store.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace rocksmash
