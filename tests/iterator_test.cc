// Model-checked iterator tests: randomized scans across every scheme and
// tier compared against a std::map reference, snapshot isolation, the
// forward-only prefix contract, filter-based run skipping, streaming cloud
// readahead, scans racing flush/compaction, and mid-scan cloud outages
// surfacing through Iterator::status().
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/object_store.h"
#include "env/env.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/prefix_extractor.h"
#include "util/random.h"

namespace rocksmash {
namespace {

using Model = std::map<std::string, std::string>;

std::string PrefixedKey(uint64_t group, uint64_t n) {
  char buf[32];
  snprintf(buf, sizeof(buf), "p%02d-%08d", static_cast<int>(group),
           static_cast<int>(n));
  return buf;
}

// Walk the live iterator and the model in lockstep from a common start.
void ExpectMatchesModel(Iterator* it, const Model& model,
                        Model::const_iterator pos, size_t max_steps) {
  size_t steps = 0;
  while (steps < max_steps && pos != model.end()) {
    ASSERT_TRUE(it->Valid()) << "iterator ended early at model key "
                             << pos->first << ": " << it->status().ToString();
    EXPECT_EQ(pos->first, it->key().ToString());
    EXPECT_EQ(pos->second, it->value().ToString());
    it->Next();
    ++pos;
    ++steps;
  }
  if (pos == model.end()) {
    EXPECT_FALSE(it->Valid());
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
}

// (scheme, prefix_length, scan_readahead_bytes, compress_blocks)
using IterParam = std::tuple<SchemeKind, size_t, uint64_t, bool>;

class IteratorModelTest : public ::testing::TestWithParam<IterParam> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    dir_ = ::testing::TempDir() + "/rocksmash_iter_" +
           std::string(SchemeName(std::get<0>(p))) + "_" +
           std::to_string(std::get<1>(p)) + "_" +
           std::to_string(std::get<2>(p)) + "_" +
           std::to_string(static_cast<int>(std::get<3>(p)));
    std::filesystem::remove_all(dir_);

    CloudLatencyModel model;
    model.jitter_micros = 0;
    model.get_first_byte_micros = 1;
    model.put_first_byte_micros = 1;
    cloud_ = NewMemObjectStore(&clock_, model);

    options_.kind = std::get<0>(p);
    options_.local_dir = dir_;
    options_.cloud =
        options_.kind == SchemeKind::kLocalOnly ? nullptr : cloud_.get();
    // Small buffers: the workload spans memtable, L0 and deeper levels.
    options_.write_buffer_size = 32 * 1024;
    options_.max_file_size = 32 * 1024;
    options_.max_bytes_for_level_base = 128 * 1024;
    options_.local_cache_bytes = 1 << 20;
    options_.cloud_level_start = 1;
    prefix_length_ = std::get<1>(p);
    if (prefix_length_ > 0) {
      options_.prefix_extractor = NewFixedPrefixExtractor(prefix_length_);
    }
    options_.compress_blocks = std::get<3>(p);
    ASSERT_TRUE(OpenKVStore(options_, &store_).ok());

    read_options_.scan_readahead_bytes = std::get<2>(p);
  }

  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Randomized puts/overwrites/deletes mirrored into the model, with
  // periodic flushes so the data lands in every tier.
  void LoadRandom(Model* model, uint64_t seed, int ops) {
    Random64 rng(seed);
    for (int i = 0; i < ops; i++) {
      const std::string key = PrefixedKey(rng.Uniform(12), rng.Uniform(400));
      if (rng.Uniform(10) == 0) {
        ASSERT_TRUE(store_->Delete(WriteOptions(), key).ok());
        model->erase(key);
      } else {
        const std::string value =
            "v" + std::to_string(rng.Uniform(1u << 30)) + std::string(40, 'x');
        ASSERT_TRUE(store_->Put(WriteOptions(), key, value).ok());
        (*model)[key] = value;
      }
      if (i % 500 == 499) {
        ASSERT_TRUE(store_->FlushMemTable().ok());
      }
    }
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  SchemeOptions options_;
  size_t prefix_length_ = 0;
  std::unique_ptr<KVStore> store_;
  ReadOptions read_options_;
};

TEST_P(IteratorModelTest, RandomizedScansMatchModel) {
  Model model;
  LoadRandom(&model, 7, 2000);

  // Full forward scan.
  {
    std::unique_ptr<Iterator> it = store_->NewIterator(read_options_);
    it->SeekToFirst();
    ExpectMatchesModel(it.get(), model, model.begin(), model.size() + 1);
  }

  // Full backward scan.
  {
    std::unique_ptr<Iterator> it = store_->NewIterator(read_options_);
    auto pos = model.rbegin();
    for (it->SeekToLast(); pos != model.rend(); it->Prev(), ++pos) {
      ASSERT_TRUE(it->Valid()) << it->status().ToString();
      EXPECT_EQ(pos->first, it->key().ToString());
      EXPECT_EQ(pos->second, it->value().ToString());
    }
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  }

  // Random seeks (hits and misses) with short forward walks.
  {
    Random64 rng(99);
    std::unique_ptr<Iterator> it = store_->NewIterator(read_options_);
    for (int i = 0; i < 60; i++) {
      const std::string target =
          PrefixedKey(rng.Uniform(14), rng.Uniform(450));
      it->Seek(target);
      ExpectMatchesModel(it.get(), model, model.lower_bound(target), 25);
    }
  }

  // Snapshot isolation: a snapshot scan sees the frozen model even after
  // further writes, flushes, and compactions.
  {
    const Snapshot* snap = store_->db()->GetSnapshot();
    const Model frozen = model;
    LoadRandom(&model, 13, 600);
    store_->WaitForCompaction();

    ReadOptions snap_ro = read_options_;
    snap_ro.snapshot = snap;
    std::unique_ptr<Iterator> it = store_->NewIterator(snap_ro);
    it->SeekToFirst();
    ExpectMatchesModel(it.get(), model, model.begin(), 0);  // no-op guard
    ExpectMatchesModel(it.get(), frozen, frozen.begin(), frozen.size() + 1);
    store_->db()->ReleaseSnapshot(snap);

    std::unique_ptr<Iterator> live = store_->NewIterator(read_options_);
    live->SeekToFirst();
    ExpectMatchesModel(live.get(), model, model.begin(), model.size() + 1);
  }
}

TEST_P(IteratorModelTest, PrefixScansMatchModelAndAreForwardOnly) {
  if (prefix_length_ == 0) {
    GTEST_SKIP() << "prefix extractor disabled in this config";
  }
  Model model;
  LoadRandom(&model, 21, 1500);

  ReadOptions ro = read_options_;
  ro.prefix_same_as_start = true;
  Random64 rng(5);
  for (int round = 0; round < 12; round++) {
    const uint64_t group = rng.Uniform(12);
    const std::string target = PrefixedKey(group, rng.Uniform(200));
    const std::string prefix = target.substr(0, prefix_length_);

    std::unique_ptr<Iterator> it = store_->NewIterator(ro);
    it->Seek(target);
    auto pos = model.lower_bound(target);
    while (pos != model.end() &&
           Slice(pos->first).starts_with(prefix)) {
      ASSERT_TRUE(it->Valid())
          << "ended early at " << pos->first << ": "
          << it->status().ToString();
      EXPECT_EQ(pos->first, it->key().ToString());
      EXPECT_EQ(pos->second, it->value().ToString());
      it->Next();
      ++pos;
    }
    // Stops exactly at the prefix boundary.
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  }

  // Forward-only contract: Prev() after a prefix Seek invalidates.
  std::unique_ptr<Iterator> it = store_->NewIterator(ro);
  it->Seek(PrefixedKey(3, 50));
  if (it->Valid()) {
    it->Prev();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, IteratorModelTest,
    ::testing::Combine(
        ::testing::Values(SchemeKind::kLocalOnly, SchemeKind::kCloudOnly,
                          SchemeKind::kCloudSstCache, SchemeKind::kRocksMash),
        ::testing::Values(size_t{0}, size_t{3}),   // "p03" group prefix
        ::testing::Values(uint64_t{0}, uint64_t{64 * 1024}),
        ::testing::Values(false, true)));

// ---------- Scans racing flush and compaction ----------

TEST(IteratorRaceTest, ScanStableUnderFlushAndCompactionChurn) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_iter_race";
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kRocksMash;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.cloud_level_start = 1;
  options.prefix_extractor = NewFixedPrefixExtractor(3);
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());

  // Stable range: written once, never touched again.
  Model stable;
  for (int i = 0; i < 400; i++) {
    const std::string key = PrefixedKey(5, static_cast<uint64_t>(i));
    const std::string value = "stable" + std::to_string(i);
    ASSERT_TRUE(store->Put(WriteOptions(), key, value).ok());
    stable[key] = value;
  }
  ASSERT_TRUE(store->FlushMemTable().ok());

  // Churn threads write a disjoint range and hammer flushes so version
  // installs and memtable switches land mid-scan.
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    Random64 rng(3);
    WriteOptions wo;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string key = PrefixedKey(9, rng.Uniform(2000));
      if (!store->Put(wo, key, "churn").ok()) break;
    }
  });
  std::thread flusher([&store, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(store->FlushMemTable().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Scans over the stable range (plain, prefix-mode, and snapshot) must
  // return exactly the stable set while churn runs.
  for (int round = 0; round < 30; round++) {
    ReadOptions ro;
    ro.prefix_same_as_start = (round % 2 == 1);
    const Snapshot* snap = nullptr;
    if (round % 3 == 2) {
      snap = store->db()->GetSnapshot();
      ro.snapshot = snap;
    }
    std::unique_ptr<Iterator> it = store->NewIterator(ro);
    it->Seek(PrefixedKey(5, 0));
    auto pos = stable.begin();
    while (pos != stable.end()) {
      ASSERT_TRUE(it->Valid()) << it->status().ToString();
      ASSERT_EQ(pos->first, it->key().ToString());
      EXPECT_EQ(pos->second, it->value().ToString());
      it->Next();
      ++pos;
    }
    if (ro.prefix_same_as_start) {
      EXPECT_FALSE(it->Valid());  // next key is outside the p05 prefix
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    if (snap != nullptr) store->db()->ReleaseSnapshot(snap);
  }

  stop.store(true, std::memory_order_release);
  writer.join();
  flusher.join();
  store.reset();
  std::filesystem::remove_all(dir);
}

// ---------- Mid-scan cloud outage surfaces via status() ----------

TEST(IteratorFaultTest, CloudOutageMidScanSurfacesError) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_iter_fault";
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kCloudOnly;  // every SST block is a cloud read
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.block_cache_bytes = 4 * 1024;   // no help from the block cache
  options.cloud_readahead_bytes = 0;      // one GET per block
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());

  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(store
                    ->Put(WriteOptions(), PrefixedKey(1, i),
                          "value" + std::to_string(i) + std::string(60, 'y'))
                    .ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();

  ReadOptions ro;
  ro.scan_readahead_bytes = 0;  // no prefetched bytes to coast on
  std::unique_ptr<Iterator> it = store->NewIterator(ro);
  it->SeekToFirst();
  for (int i = 0; i < 10 && it->Valid(); i++) it->Next();
  ASSERT_TRUE(it->Valid()) << it->status().ToString();

  // Cloud goes dark mid-scan: the scan must stop and report the error, not
  // silently skip the unreadable tail.
  auto* faults = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, faults);
  CloudFaultPolicy outage;
  outage.unavailable = true;
  faults->SetFaultPolicy(outage);

  int steps = 0;
  while (it->Valid() && steps++ < 5000) it->Next();
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());

  faults->SetFaultPolicy(CloudFaultPolicy());
  it.reset();
  store.reset();
  std::filesystem::remove_all(dir);
}

// ---------- Scan tickers: run skipping and streaming readahead ----------

TEST(IteratorTickerTest, PrefixSeekSkipsRunsAndTicks) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_iter_skip";
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);
  auto stats = CreateDBStatistics();

  SchemeOptions options;
  options.kind = SchemeKind::kRocksMash;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.prefix_extractor = NewFixedPrefixExtractor(3);
  options.statistics = stats.get();
  options.cloud_level_start = 1;
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());

  // File A: groups 1 and 5 (a seek for group 3 lands inside it). File B:
  // group 3. The filter on file A's landing block excludes prefix "p03",
  // so prefix seeks must skip file A without opening its data blocks.
  Model expected;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Put(WriteOptions(), PrefixedKey(1, i),
                           std::string(100, 'a'))
                    .ok());
    ASSERT_TRUE(store->Put(WriteOptions(), PrefixedKey(5, i),
                           std::string(100, 'c'))
                    .ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  for (int i = 0; i < 200; i++) {
    const std::string key = PrefixedKey(3, i);
    const std::string value = "b" + std::to_string(i);
    ASSERT_TRUE(store->Put(WriteOptions(), key, value).ok());
    expected[key] = value;
  }
  ASSERT_TRUE(store->FlushMemTable().ok());

  ReadOptions ro;
  ro.prefix_same_as_start = true;
  std::unique_ptr<Iterator> it = store->NewIterator(ro);
  it->Seek(PrefixedKey(3, 0));
  auto pos = expected.begin();
  while (pos != expected.end()) {
    ASSERT_TRUE(it->Valid()) << it->status().ToString();
    ASSERT_EQ(pos->first, it->key().ToString());
    EXPECT_EQ(pos->second, it->value().ToString());
    it->Next();
    ++pos;
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_GT(stats->GetTickerCount(SCAN_RUNS_SKIPPED), 0u);

  it.reset();
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(IteratorTickerTest, StreamingReadaheadServesColdCloudScan) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_iter_ra";
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);
  auto stats = CreateDBStatistics();

  SchemeOptions options;
  options.kind = SchemeKind::kRocksMash;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.cloud_level_start = 0;     // everything cloud-resident
  options.cloud_readahead_bytes = 0; // isolate the streaming path
  options.block_cache_bytes = 4 * 1024;
  options.local_cache_bytes = 4 * 1024;  // persistent cache can't absorb it
  options.statistics = stats.get();
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());

  Model expected;
  Random64 rng(11);
  for (int i = 0; i < 3000; i++) {
    const std::string key = PrefixedKey(2, i);
    std::string value(120, '\0');
    for (char& c : value) c = static_cast<char>('a' + rng.Uniform(26));
    ASSERT_TRUE(store->Put(WriteOptions(), key, value).ok());
    expected[key] = value;
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();

  ReadOptions ro;
  ro.scan_readahead_bytes = 256 * 1024;
  std::unique_ptr<Iterator> it = store->NewIterator(ro);
  it->SeekToFirst();
  ExpectMatchesModel(it.get(), expected, expected.begin(),
                     expected.size() + 1);

  EXPECT_GT(stats->GetTickerCount(SCAN_READAHEAD_ISSUED), 0u);
  EXPECT_GT(stats->GetTickerCount(SCAN_READAHEAD_HITS), 0u);
  EXPECT_GT(stats->GetTickerCount(SCAN_READAHEAD_BYTES), 0u);

  it.reset();
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
