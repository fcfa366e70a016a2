// Cross-module integration scenarios: tiering under compaction churn, cloud
// fault injection, cache warm restarts, cost accounting sanity, snapshot
// reads over cloud-resident data.
#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/kvstore.h"
#include "cloud/cost_meter.h"
#include "util/clock.h"
#include "util/random.h"

namespace rocksmash {
namespace {

class MashIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rocksmash_integration";
    std::filesystem::remove_all(dir_);
    CloudLatencyModel model;
    model.jitter_micros = 0;
    model.get_first_byte_micros = 20;
    model.put_first_byte_micros = 20;
    cloud_ = NewMemObjectStore(&clock_, model);

    options_.local_dir = dir_;
    options_.cloud = cloud_.get();
    options_.cloud_level_start = 1;
    options_.write_buffer_size = 64 * 1024;
    options_.max_file_size = 64 * 1024;
    options_.local_cache_bytes = 1 << 20;
    ASSERT_TRUE(OpenKVStore(options_, &db_).ok());
  }

  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Load(int n, const std::string& value_prefix = "value") {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i),
                           value_prefix + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    db_->WaitForCompaction();
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  SchemeOptions options_;  // kind = kRocksMash
  std::unique_ptr<KVStore> db_;
};

TEST_F(MashIntegration, CompactionChurnInvalidatesCacheCorrectly) {
  Load(5000, "v1-");
  // Warm the persistent cache.
  std::string value;
  for (int i = 0; i < 5000; i += 7) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
  }
  const auto before = db_->Stats().persistent_cache;

  // Overwrite everything and force a full rewrite: compaction deletes the
  // old cloud SSTs, whose cache extents must be invalidated wholesale.
  Load(5000, "v2-");
  ASSERT_TRUE(db_->db()->CompactRange(nullptr, nullptr).ok());
  const auto after = db_->Stats().persistent_cache;
  EXPECT_GT(after.invalidations, before.invalidations);

  // Reads must see only new values; stale cached blocks must never leak.
  for (int i = 0; i < 5000; i += 11) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok()) << i;
    EXPECT_EQ("v2-" + std::to_string(i), value) << i;
  }
}

TEST_F(MashIntegration, ReadsSurviveTransientCloudFailures) {
  Load(3000);
  auto* injectable = dynamic_cast<FaultInjectable*>(cloud_.get());
  ASSERT_NE(nullptr, injectable);
  CloudFaultPolicy policy;
  policy.fail_every_n = 5;  // 20% of cloud requests fail.
  injectable->SetFaultPolicy(policy);

  // Reads of cloud-resident blocks may fail when the GET fails; the engine
  // surfaces the error rather than corrupting. Cached blocks still serve.
  std::string value;
  int io_errors = 0, ok = 0;
  for (int i = 0; i < 3000; i += 13) {
    Status s = db_->Get(ReadOptions(), Key(i), &value);
    if (s.ok()) {
      EXPECT_EQ("value" + std::to_string(i), value);
      ok++;
    } else {
      EXPECT_TRUE(s.IsIOError() || s.IsUnavailable()) << s.ToString();
      io_errors++;
    }
  }
  EXPECT_GT(ok, 0);

  // After the fault clears, everything reads fine again.
  policy.fail_every_n = 0;
  injectable->SetFaultPolicy(policy);
  for (int i = 0; i < 3000; i += 13) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok()) << i;
  }
}

TEST_F(MashIntegration, MetadataRegionWarmAfterRestart) {
  Load(5000);
  auto stats_before = db_->Stats();
  ASSERT_GT(stats_before.persistent_cache.metadata.slabs, 0u);

  // Restart the whole stack over the same directories/cloud.
  db_.reset();
  ASSERT_TRUE(OpenKVStore(options_, &db_).ok());

  auto stats_after_open = db_->Stats();
  // Slabs were reloaded from disk — warm before any read.
  EXPECT_EQ(stats_before.persistent_cache.metadata.slabs,
            stats_after_open.persistent_cache.metadata.slabs);

  const uint64_t cloud_gets_before = cloud_->Counters().gets;
  std::string value;
  for (int i = 0; i < 5000; i += 501) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
  }
  // Reads needed cloud GETs only for data blocks, not metadata: the number
  // of new GETs is bounded by the number of point reads (one data block
  // each), with no extra index/filter/footer fetches.
  const uint64_t new_gets = cloud_->Counters().gets - cloud_gets_before;
  EXPECT_LE(new_gets, 10u);
}

TEST_F(MashIntegration, SnapshotsOverCloudData) {
  Load(2000, "old-");
  const Snapshot* snap = db_->db()->GetSnapshot();
  Load(2000, "new-");

  ReadOptions ro;
  ro.snapshot = snap;
  std::string value;
  for (int i = 0; i < 2000; i += 173) {
    ASSERT_TRUE(db_->Get(ro, Key(i), &value).ok());
    EXPECT_EQ("old-" + std::to_string(i), value);
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
    EXPECT_EQ("new-" + std::to_string(i), value);
  }
  db_->db()->ReleaseSnapshot(snap);
}

TEST_F(MashIntegration, ScansOverTieredTree) {
  Load(5000);
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  int n = 0;
  std::string prev;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::string k = it->key().ToString();
    EXPECT_LT(prev, k);
    prev = k;
    n++;
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(5000, n);
}

TEST_F(MashIntegration, CostAccountingTracksTiering) {
  Load(10000);
  auto stats = db_->Stats();
  // The deep tree lives in the cloud; shallow levels + metadata local.
  EXPECT_GT(stats.storage.cloud_bytes, stats.storage.local_bytes);
  CostMeter meter;
  const CostBreakdown cost = meter.MonthlyCost(
      cloud_->BytesStored(), stats.LocalBytes(), stats.cloud_ops,
      /*hours_observed=*/1.0);
  EXPECT_GT(cost.cloud_storage_usd, 0.0);
  EXPECT_GT(cost.cloud_requests_usd, 0.0);

  // A LocalOnly store of the same data must cost more in storage $/GB
  // terms: compare per-byte prices through the meter directly.
  ObjectStore::OpCounters no_ops;
  auto all_local = meter.MonthlyCost(0, stats.storage.cloud_bytes +
                                            stats.storage.local_bytes,
                                     no_ops, 1.0);
  EXPECT_GT(all_local.total(),
            cost.cloud_storage_usd + cost.local_storage_usd);
}

TEST_F(MashIntegration, DeleteAcrossTiers) {
  Load(3000);
  for (int i = 0; i < 3000; i += 2) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), Key(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();
  std::string value;
  for (int i = 0; i < 3000; i++) {
    Status s = db_->Get(ReadOptions(), Key(i), &value);
    if (i % 2 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ("value" + std::to_string(i), value);
    }
  }
}

TEST_F(MashIntegration, PersistentCacheBudgetHolds) {
  options_.local_cache_bytes = 128 * 1024;  // Tight budget.
  // A RAM block cache smaller than the data, so a second pass over the
  // keys reaches the persistent cache again.
  options_.block_cache_bytes = 64 * 1024;
  db_.reset();
  std::filesystem::remove_all(dir_);
  ASSERT_TRUE(OpenKVStore(options_, &db_).ok());

  // Incompressible values so block compression cannot shrink the working
  // set under the budget.
  Random64 rng(11);
  for (int i = 0; i < 10000; i++) {
    std::string value(64, '\0');
    for (char& c : value) c = static_cast<char>(rng.Next());
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->WaitForCompaction();

  // A forward pass fills the budget; the frequency gate refuses the rest.
  // A backward pass then reads those refused blocks a second time, and they
  // outrank the LRU victims, read once, that the pass has not reached yet.
  std::string value;
  for (int i = 0; i < 10000; i += 3) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
  }
  for (int i = 9999; i >= 0; i -= 3) {
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
  }
  auto stats = db_->Stats().persistent_cache;
  EXPECT_LE(stats.data_bytes, 128u * 1024u);
  EXPECT_GT(stats.evicted_bytes, 0u);
}

}  // namespace
}  // namespace rocksmash
