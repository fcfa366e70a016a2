// Tests for key-value separation (BlobOptions): flush-time separation of
// large values into blob files, point/batched/iterator reads through blob
// indexes, MANIFEST-backed blob metadata across reopen, compaction-driven
// GC, and the tiered (cloud) blob path with in-flight uploads.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/object_store.h"
#include "env/env.h"
#include "lsm/db.h"
#include "mash/placement.h"
#include "table/format.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

// A value whose content is derived from (key, generation, size) so every
// read is self-validating without consulting the model.
std::string MakeValue(const std::string& key, int generation, size_t size) {
  std::string v = key + "#" + std::to_string(generation) + "#";
  while (v.size() < size) {
    v += static_cast<char>('a' + (v.size() * 131 + generation) % 26);
  }
  v.resize(size);
  return v;
}

class BlobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "/rocksmash_blob_test_" +
              std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dbname_);
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 * 1024;
    options_.blob.enable = true;
    options_.blob.min_blob_size = 128;
    options_.blob.blob_file_size = 32 * 1024;
    options_.blob.blob_gc_age_cutoff = 0.3;
    options_.statistics = &stats_;
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

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }

  std::string Get(const std::string& k) {
    PinnableSlice value;
    Status s = db_->Get(ReadOptions(), k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return std::string(value.data(), value.size());
  }

  uint64_t Ticker(uint32_t t) { return stats_.GetTickerCount(t); }

  DBOptions options_;
  Statistics stats_;
  std::string dbname_;
  std::unique_ptr<DB> db_;
};

TEST_F(BlobTest, SeparationBoundaryAndTickers) {
  ASSERT_TRUE(Open().ok());
  const std::string small = MakeValue("inline", 0, options_.blob.min_blob_size - 1);
  const std::string large = MakeValue("blob", 0, options_.blob.min_blob_size);
  ASSERT_TRUE(Put("inline", small).ok());
  ASSERT_TRUE(Put("blob", large).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());

  EXPECT_EQ(1u, Ticker(BLOB_WRITE_SEPARATED));
  EXPECT_EQ(large.size(), Ticker(BLOB_WRITE_SEPARATED_BYTES));
  EXPECT_EQ(1u, Ticker(BLOB_WRITE_INLINE));
  EXPECT_EQ(1u, Ticker(BLOB_FILES_CREATED));

  // Both sides of the boundary read back identically through every overload.
  EXPECT_EQ(small, Get("inline"));
  EXPECT_EQ(large, Get("blob"));
  std::string copied;
  ASSERT_TRUE(db_->Get(ReadOptions(), "blob", &copied).ok());
  EXPECT_EQ(large, copied);
  EXPECT_GT(Ticker(BLOB_READ_COUNT), 0u);
  EXPECT_GT(Ticker(BLOB_READ_BYTES), 0u);
}

TEST_F(BlobTest, SeparationDisabledKeepsValuesInline) {
  options_.blob.enable = false;
  ASSERT_TRUE(Open().ok());
  const std::string large = MakeValue("k", 0, 4096);
  ASSERT_TRUE(Put("k", large).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(0u, Ticker(BLOB_WRITE_SEPARATED));
  EXPECT_EQ(0u, Ticker(BLOB_FILES_CREATED));
  EXPECT_EQ(large, Get("k"));
}

TEST_F(BlobTest, InvalidBlobOptionsRejectedAtOpen) {
  options_.blob.min_blob_size = 0;
  ASSERT_TRUE(Open().IsInvalidArgument());
  options_.blob.min_blob_size = 128;
  options_.blob.blob_gc_age_cutoff = 1.5;
  ASSERT_TRUE(Open().IsInvalidArgument());
  options_.blob.blob_gc_age_cutoff = 0.5;
  options_.blob.blob_file_size = 0;
  ASSERT_TRUE(Open().IsInvalidArgument());
}

// The randomized model test from the issue: puts/deletes/overwrites with
// value sizes straddling the separation boundary, interleaved with flushes,
// compactions, and reopens; the DB must agree with a std::map at every
// checkpoint, through Get and through forward/backward scans.
TEST_F(BlobTest, RandomizedModelAcrossValueSizes) {
  ASSERT_TRUE(Open().ok());
  Random64 rnd(301);
  std::map<std::string, std::string> model;
  const size_t kSizes[] = {1, 16, 100, 127, 128, 129, 300, 1024, 5000};

  auto check = [&]() {
    // Point lookups, including keys never written.
    for (const auto& [k, v] : model) {
      ASSERT_EQ(v, Get(k)) << "key " << k;
    }
    ASSERT_EQ("NOT_FOUND", Get("zz-never-written"));
    // Forward scan must equal the model exactly.
    auto it = db_->NewIterator(ReadOptions());
    auto mit = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
      ASSERT_NE(mit, model.end());
      ASSERT_EQ(mit->first, it->key().ToString());
      ASSERT_EQ(mit->second, it->value().ToString());
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    ASSERT_EQ(mit, model.end());
    // Backward scan resolves blob values through the save/restore path.
    auto rit = model.rbegin();
    for (it->SeekToLast(); it->Valid(); it->Prev(), ++rit) {
      ASSERT_NE(rit, model.rend());
      ASSERT_EQ(rit->first, it->key().ToString());
      ASSERT_EQ(rit->second, it->value().ToString());
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  };

  for (int step = 0; step < 6; step++) {
    for (int i = 0; i < 300; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%03d",
                    static_cast<int>(rnd.Uniform(400)));
      if (rnd.OneIn(5)) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        model.erase(key);
      } else {
        const size_t size = kSizes[rnd.Uniform(sizeof(kSizes) / sizeof(kSizes[0]))];
        std::string v = MakeValue(key, step, size);
        ASSERT_TRUE(Put(key, v).ok());
        model[key] = std::move(v);
      }
    }
    switch (step % 3) {
      case 0:
        ASSERT_TRUE(db_->FlushMemTable().ok());
        break;
      case 1:
        ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
        break;
      case 2:
        ASSERT_TRUE(Reopen().ok()) << "reopen at step " << step;
        break;
    }
    check();
  }
  EXPECT_GT(Ticker(BLOB_WRITE_SEPARATED), 0u);
  EXPECT_GT(Ticker(BLOB_WRITE_INLINE), 0u);
}

TEST_F(BlobTest, MultiGetResolvesBlobBatches) {
  ASSERT_TRUE(Open().ok());
  const int n = 60;
  std::vector<std::string> expected(n);
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    // Mix separated and inline values in one batch.
    const size_t size = (i % 3 == 0) ? 64 : 2048;
    expected[i] = MakeValue(key, 0, size);
    ASSERT_TRUE(Put(key, expected[i]).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());

  std::vector<std::string> key_storage(n);
  std::vector<Slice> keys;
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    key_storage[i] = key;
    keys.emplace_back(key_storage[i]);
  }
  keys.emplace_back("missing-key");

  std::vector<PinnableSlice> values;
  std::vector<Status> statuses;
  db_->MultiGet(ReadOptions(), keys, &values, &statuses);
  ASSERT_EQ(keys.size(), values.size());
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(expected[i], std::string(values[i].data(), values[i].size()));
  }
  EXPECT_TRUE(statuses[n].IsNotFound());

  // The std::string compatibility overload sees the same results.
  std::vector<std::string> copies;
  std::vector<Status> statuses2;
  db_->MultiGet(ReadOptions(), keys, &copies, &statuses2);
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(statuses2[i].ok());
    EXPECT_EQ(expected[i], copies[i]);
  }
}

TEST_F(BlobTest, ReopenPreservesBlobMetadata) {
  ASSERT_TRUE(Open().ok());
  const int n = 40;
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_TRUE(Put(key, MakeValue(key, 0, 1500)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());

  std::map<std::string, std::string> before;
  ASSERT_TRUE(db_->GetProperty("rocksmash.blob", &before));
  ASSERT_GT(std::stoull(before["blob.files"]), 0u);
  ASSERT_GT(std::stoull(before["blob.payload.bytes"]), 0u);

  ASSERT_TRUE(Reopen().ok());
  std::map<std::string, std::string> after;
  ASSERT_TRUE(db_->GetProperty("rocksmash.blob", &after));
  // The MANIFEST round-trips the full blob accounting.
  EXPECT_EQ(before["blob.files"], after["blob.files"]);
  EXPECT_EQ(before["blob.payload.bytes"], after["blob.payload.bytes"]);
  EXPECT_EQ(before["blob.records"], after["blob.records"]);
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    EXPECT_EQ(MakeValue(key, 0, 1500), Get(key));
  }
}

TEST_F(BlobTest, GcReclaimsGarbageBlobFiles) {
  ASSERT_TRUE(Open().ok());
  const int n = 60;
  auto put_all = [&](int generation, int stride) {
    for (int i = 0; i < n; i += stride) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%03d", i);
      ASSERT_TRUE(Put(key, MakeValue(key, generation, 1200)).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  };

  put_all(0, 1);
  // Overwrite half: the drop of the old versions during compaction marks
  // ~50% of every generation-0 blob file as garbage (>= the 0.3 cutoff).
  put_all(1, 2);
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  std::map<std::string, std::string> props;
  ASSERT_TRUE(db_->GetProperty("rocksmash.blob", &props));
  EXPECT_GT(std::stoull(props["blob.garbage.bytes"]), 0u);

  // The next compaction over the same keys sees the generation-0 files as
  // GC candidates and rewrites their surviving records, obsoleting them.
  put_all(2, 3);
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());

  EXPECT_GT(Ticker(BLOB_GC_REWRITTEN_BYTES), 0u);
  EXPECT_GT(Ticker(BLOB_GC_FILES_OBSOLETED), 0u);

  // Everything still reads correctly after files were rewritten + deleted.
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    const int generation = (i % 3 == 0) ? 2 : (i % 2 == 0) ? 1 : 0;
    ASSERT_EQ(MakeValue(key, generation, 1200), Get(key)) << key;
  }
}

// GC must never yank a blob file out from under a concurrent reader: the
// version holding the old blob index keeps the file live until released.
TEST_F(BlobTest, GcRacesReadsUnderChurn) {
  options_.write_buffer_size = 32 * 1024;
  ASSERT_TRUE(Open().ok());
  const int kKeys = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};

  std::thread reader([&]() {
    Random64 rnd(17);
    while (!stop.load(std::memory_order_relaxed)) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%03d",
                    static_cast<int>(rnd.Uniform(kKeys)));
      PinnableSlice value;
      Status s = db_->Get(ReadOptions(), key, &value);
      if (s.ok()) {
        // Self-validating prefix: "key###" must match.
        if (Slice(value.data(), value.size()).ToString().rfind(key, 0) != 0) {
          read_errors++;
        }
      } else if (!s.IsNotFound()) {
        read_errors++;
      }
    }
  });
  std::thread scanner([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      auto it = db_->NewIterator(ReadOptions());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        if (it->value().ToString().rfind(it->key().ToString(), 0) != 0) {
          read_errors++;
        }
      }
      if (!it->status().ok()) read_errors++;
    }
  });

  Random64 rnd(42);
  for (int round = 0; round < 40; round++) {
    for (int i = 0; i < kKeys; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%03d", i);
      ASSERT_TRUE(Put(key, MakeValue(key, round, 800 + rnd.Uniform(800))).ok());
    }
    if (round % 5 == 4) {
      ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
    }
  }
  db_->WaitForCompaction();
  stop = true;
  reader.join();
  scanner.join();
  EXPECT_EQ(0, read_errors.load());
}

// A user Get of a separated value is a point read: a cold record on a cloud
// blob file costs one GET of exactly the record and its trailer, not the
// storage's readahead window.
TEST_F(BlobTest, ColdCloudBlobGetFetchesExactlyOneRecord) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_blob_point_" +
                          std::to_string(reinterpret_cast<uintptr_t>(this));
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);
  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;  // SSTs and blob files both live in the cloud.
  ASSERT_EQ(256u * 1024, ts.cloud_readahead_bytes);
  auto storage = std::make_unique<TieredTableStorage>(ts);
  options_.table_storage = storage.get();
  options_.blob.blob_compression = false;  // Record size == value size.
  options_.blob.blob_file_size = 1 << 20;   // One blob file.
  ASSERT_TRUE(DB::Open(options_, dir, &db_).ok());
  const size_t kValueSize = 2000;
  for (int i = 0; i < 20; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_TRUE(Put(key, MakeValue(key, 0, kValueSize)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_EQ(1u, Ticker(BLOB_FILES_CREATED));
  ASSERT_EQ(0u, storage->GetStats().local_files);

  // The first Get also reads the SST's data block, which then stays in the
  // block cache; key005's lookup pays for its blob record alone.
  ASSERT_EQ(MakeValue("key000", 0, kValueSize), Get("key000"));
  const ObjectStore::OpCounters before = cloud->Counters();
  ASSERT_EQ(MakeValue("key005", 0, kValueSize), Get("key005"));
  const ObjectStore::OpCounters after = cloud->Counters();
  EXPECT_EQ(1u, after.gets - before.gets);
  EXPECT_EQ(kValueSize + kBlockTrailerSize,
            after.bytes_downloaded - before.bytes_downloaded);

  db_.reset();
  storage.reset();
  options_.table_storage = nullptr;
  std::filesystem::remove_all(dir);
}

// Blob files tier to the cloud like SSTs. Park their uploads with a cloud
// outage, close the DB with the uploads still in flight, and reopen: the
// values must stay readable from the local staging copies, and once the
// cloud heals the blob data survives placement to it.
TEST_F(BlobTest, ReopenWithInFlightBlobUploads) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_blob_cloud_" +
                          std::to_string(reinterpret_cast<uintptr_t>(this));
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);
  auto* faults = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, faults);

  auto make_storage = [&]() {
    TieredStorageOptions ts;
    ts.local_dir = dir;
    ts.cloud = cloud.get();
    ts.cloud_level_start = 0;  // Everything, blobs included, wants the cloud.
    ts.async_uploads = true;
    ts.statistics = &stats_;
    return std::make_unique<TieredTableStorage>(ts);
  };

  // Outage: installs park their uploads and keep serving locally.
  CloudFaultPolicy outage;
  outage.unavailable = true;
  faults->SetFaultPolicy(outage);

  auto storage = make_storage();
  options_.table_storage = storage.get();
  ASSERT_TRUE(DB::Open(options_, dir, &db_).ok());
  const int n = 20;
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_TRUE(Put(key, MakeValue(key, 0, 2000)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_GT(Ticker(BLOB_FILES_CREATED), 0u);

  // Reads work during the outage (served from the staging copies).
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_EQ(MakeValue(key, 0, 2000), Get(key));
  }

  // "Crash": drop the DB and the storage with uploads still parked, then
  // heal the cloud and reopen over the same directory.
  db_.reset();
  storage.reset();
  faults->SetFaultPolicy(CloudFaultPolicy{});

  storage = make_storage();
  options_.table_storage = storage.get();
  ASSERT_TRUE(DB::Open(options_, dir, &db_).ok());
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_EQ(MakeValue(key, 0, 2000), Get(key)) << key;
  }

  db_.reset();
  storage.reset();
  options_.table_storage = nullptr;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
