// Tests for the simulated object store, cost meter, and CloudEnv adapter.
#include <gtest/gtest.h>

#include <filesystem>

#include "cloud/cloud_env.h"
#include "cloud/cost_meter.h"
#include "cloud/object_store.h"
#include "util/clock.h"

namespace rocksmash {
namespace {

class ObjectStoreKinds : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    model_.jitter_micros = 0;
    if (std::string(GetParam()) == "dir") {
      root_ = ::testing::TempDir() + "/rocksmash_cloud_test";
      std::filesystem::remove_all(root_);
      store_ = NewSimObjectStore(root_, &clock_, model_);
    } else {
      store_ = NewMemObjectStore(&clock_, model_);
    }
  }

  void TearDown() override {
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  SimClock clock_;
  CloudLatencyModel model_;
  std::unique_ptr<ObjectStore> store_;
  std::string root_;
};

TEST_P(ObjectStoreKinds, PutGetRoundTrip) {
  ASSERT_TRUE(store_->Put("key", "value").ok());
  std::string data;
  ASSERT_TRUE(store_->Get("key", &data).ok());
  EXPECT_EQ("value", data);
}

TEST_P(ObjectStoreKinds, GetMissing) {
  std::string data;
  EXPECT_TRUE(store_->Get("missing", &data).IsNotFound());
}

TEST_P(ObjectStoreKinds, Overwrite) {
  ASSERT_TRUE(store_->Put("k", "v1").ok());
  ASSERT_TRUE(store_->Put("k", "v2").ok());
  std::string data;
  ASSERT_TRUE(store_->Get("k", &data).ok());
  EXPECT_EQ("v2", data);
  EXPECT_EQ(2u, store_->BytesStored());
}

TEST_P(ObjectStoreKinds, RangeRead) {
  ASSERT_TRUE(store_->Put("k", "0123456789").ok());
  std::string data;
  ASSERT_TRUE(store_->GetRange("k", 3, 4, &data).ok());
  EXPECT_EQ("3456", data);
  // Past end: short.
  ASSERT_TRUE(store_->GetRange("k", 8, 10, &data).ok());
  EXPECT_EQ("89", data);
  ASSERT_TRUE(store_->GetRange("k", 100, 10, &data).ok());
  EXPECT_TRUE(data.empty());
}

TEST_P(ObjectStoreKinds, HeadAndDelete) {
  ASSERT_TRUE(store_->Put("k", "abc").ok());
  ObjectMeta meta;
  ASSERT_TRUE(store_->Head("k", &meta).ok());
  EXPECT_EQ(3u, meta.size);
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Head("k", &meta).IsNotFound());
  EXPECT_TRUE(store_->Delete("k").IsNotFound());
  EXPECT_EQ(0u, store_->BytesStored());
}

TEST_P(ObjectStoreKinds, ListByPrefix) {
  ASSERT_TRUE(store_->Put("a/1", "x").ok());
  ASSERT_TRUE(store_->Put("a/2", "xy").ok());
  ASSERT_TRUE(store_->Put("b/1", "z").ok());
  std::vector<ObjectMeta> result;
  ASSERT_TRUE(store_->List("a/", &result).ok());
  ASSERT_EQ(2u, result.size());
  EXPECT_EQ("a/1", result[0].key);
  EXPECT_EQ("a/2", result[1].key);
  EXPECT_EQ(2u, result[1].size);
}

TEST_P(ObjectStoreKinds, LatencyModelCharged) {
  model_.jitter_micros = 0;
  const uint64_t t0 = clock_.NowMicros();
  ASSERT_TRUE(store_->Put("k", std::string(1024, 'x')).ok());
  // put_first_byte (2000us default) + transfer time.
  EXPECT_GE(clock_.NowMicros() - t0, 2000u);
}

TEST_P(ObjectStoreKinds, CountersTrackOps) {
  ASSERT_TRUE(store_->Put("k", "0123456789").ok());
  std::string data;
  ASSERT_TRUE(store_->Get("k", &data).ok());
  ASSERT_TRUE(store_->GetRange("k", 0, 4, &data).ok());
  auto counters = store_->Counters();
  EXPECT_EQ(1u, counters.puts);
  EXPECT_EQ(2u, counters.gets);
  EXPECT_EQ(10u, counters.bytes_uploaded);
  EXPECT_EQ(14u, counters.bytes_downloaded);
}

TEST_P(ObjectStoreKinds, FaultInjectionEveryN) {
  auto* injectable = dynamic_cast<FaultInjectable*>(store_.get());
  ASSERT_NE(nullptr, injectable);
  CloudFaultPolicy policy;
  policy.fail_every_n = 2;
  injectable->SetFaultPolicy(policy);
  int failures = 0;
  for (int i = 0; i < 10; i++) {
    const std::string n = std::to_string(i);
    if (!store_->Put("k" + n, "v").ok()) failures++;
  }
  EXPECT_EQ(5, failures);
}

TEST_P(ObjectStoreKinds, Unavailability) {
  auto* injectable = dynamic_cast<FaultInjectable*>(store_.get());
  CloudFaultPolicy policy;
  policy.unavailable = true;
  injectable->SetFaultPolicy(policy);
  EXPECT_TRUE(store_->Put("k", "v").IsUnavailable());
  policy.unavailable = false;
  injectable->SetFaultPolicy(policy);
  EXPECT_TRUE(store_->Put("k", "v").ok());
}

INSTANTIATE_TEST_SUITE_P(AllStores, ObjectStoreKinds,
                         ::testing::Values("dir", "mem"));

TEST(DirObjectStoreTest, SurvivesReopen) {
  std::string root = ::testing::TempDir() + "/rocksmash_cloud_reopen";
  std::filesystem::remove_all(root);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  {
    auto store = NewSimObjectStore(root, &clock, model);
    ASSERT_TRUE(store->Put("dir/key1", "hello").ok());
  }
  {
    auto store = NewSimObjectStore(root, &clock, model);
    std::string data;
    ASSERT_TRUE(store->Get("dir/key1", &data).ok());
    EXPECT_EQ("hello", data);
    EXPECT_EQ(5u, store->BytesStored());
  }
  std::filesystem::remove_all(root);
}

TEST(CostMeterTest, StorageCostScalesWithBytes) {
  CostMeter meter;
  ObjectStore::OpCounters ops;
  auto b1 = meter.MonthlyCost(1ull << 30, 0, ops, 1.0);
  auto b10 = meter.MonthlyCost(10ull << 30, 0, ops, 1.0);
  EXPECT_NEAR(b10.cloud_storage_usd, 10 * b1.cloud_storage_usd, 1e-9);
  EXPECT_GT(b1.cloud_storage_usd, 0);
}

TEST(CostMeterTest, LocalStorageMoreExpensivePerGb) {
  CostMeter meter;
  ObjectStore::OpCounters ops;
  auto cloud = meter.MonthlyCost(1ull << 30, 0, ops, 1.0);
  auto local = meter.MonthlyCost(0, 1ull << 30, ops, 1.0);
  EXPECT_GT(local.local_storage_usd, cloud.cloud_storage_usd);
}

TEST(CostMeterTest, RequestCostScalesToMonth) {
  CostMeter meter;
  ObjectStore::OpCounters ops;
  ops.gets = 1000;
  // 1000 GETs observed in 1 hour -> 730k GETs/month.
  auto b = meter.MonthlyCost(0, 0, ops, 1.0);
  EXPECT_NEAR(b.cloud_requests_usd, 730.0 * meter.card().cloud_get_usd_per_1k,
              1e-9);
}

TEST(CloudEnvTest, FileApiOverObjects) {
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto store = NewMemObjectStore(&clock, model);
  CloudEnv env(store.get());

  // Write through the Env API.
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env.NewWritableFile("dir/file", &wf).ok());
  ASSERT_TRUE(wf->Append("hello ").ok());
  ASSERT_TRUE(wf->Append("cloud").ok());
  ASSERT_TRUE(wf->Close().ok());

  EXPECT_TRUE(env.FileExists("dir/file"));
  uint64_t size;
  ASSERT_TRUE(env.GetFileSize("dir/file", &size).ok());
  EXPECT_EQ(11u, size);

  // Random access maps to range GETs.
  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env.NewRandomAccessFile("dir/file", &rf).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(rf->Read(6, 5, &result, scratch).ok());
  EXPECT_EQ("cloud", result.ToString());

  // Children.
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("dir", &children).ok());
  ASSERT_EQ(1u, children.size());
  EXPECT_EQ("file", children[0]);

  // Rename + remove.
  ASSERT_TRUE(env.RenameFile("dir/file", "dir/file2").ok());
  EXPECT_FALSE(env.FileExists("dir/file"));
  ASSERT_TRUE(env.RemoveFile("dir/file2").ok());
  EXPECT_FALSE(env.FileExists("dir/file2"));
}

}  // namespace
}  // namespace rocksmash
