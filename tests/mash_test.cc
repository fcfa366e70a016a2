// Tests for the RocksMash core: metadata store, persistent cache (both
// layouts), tiered placement, and the assembled kRocksMash store.
#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/kvstore.h"
#include "cloud/cost_meter.h"
#include "cloud/object_store.h"
#include "env/env.h"
#include "lsm/filename.h"
#include "mash/metadata_store.h"
#include "mash/persistent_cache.h"
#include "mash/placement.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace rocksmash {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/rocksmash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------- MetadataStore ----------

TEST(MetadataStoreTest, AdmitAndRead) {
  std::string dir = TestDir("meta");
  MetadataStore store(Env::Default(), dir);

  const std::string tail = "FILTERINDEXFOOTER";
  ASSERT_TRUE(store.Admit(7, 1000, 1000 + tail.size(), tail).ok());

  std::string out;
  ASSERT_TRUE(store.Read(7, 1000, tail.size(), &out));
  EXPECT_EQ(tail, out);
  ASSERT_TRUE(store.Read(7, 1006, 5, &out));
  EXPECT_EQ("INDEX", out);
  EXPECT_FALSE(store.Read(7, 500, 10, &out));  // Below metadata offset.
  EXPECT_FALSE(store.Read(8, 1000, 4, &out));  // Unknown SST.

  auto stats = store.GetStats();
  EXPECT_EQ(1u, stats.slabs);
  EXPECT_EQ(tail.size(), stats.bytes);
  EXPECT_GE(stats.hits, 2u);
  std::filesystem::remove_all(dir);
}

TEST(MetadataStoreTest, SurvivesRestart) {
  std::string dir = TestDir("meta_restart");
  const std::string tail = "PERSISTME";
  {
    MetadataStore store(Env::Default(), dir);
    ASSERT_TRUE(store.Admit(3, 42, 42 + tail.size(), tail).ok());
  }
  {
    MetadataStore store(Env::Default(), dir);
    std::string out;
    ASSERT_TRUE(store.Read(3, 42, tail.size(), &out));
    EXPECT_EQ(tail, out);
    uint64_t mo, fs;
    ASSERT_TRUE(store.GetInfo(3, &mo, &fs));
    EXPECT_EQ(42u, mo);
  }
  std::filesystem::remove_all(dir);
}

TEST(MetadataStoreTest, InvalidateRemovesSlab) {
  std::string dir = TestDir("meta_inval");
  MetadataStore store(Env::Default(), dir);
  ASSERT_TRUE(store.Admit(9, 0, 4, "tail").ok());
  store.Invalidate(9);
  std::string out;
  EXPECT_FALSE(store.Read(9, 0, 4, &out));
  EXPECT_EQ(0u, store.GetStats().bytes);
  std::filesystem::remove_all(dir);
}

TEST(MetadataStoreTest, CorruptSlabRejectedOnLoad) {
  std::string dir = TestDir("meta_corrupt");
  {
    MetadataStore store(Env::Default(), dir);
    ASSERT_TRUE(store.Admit(5, 0, 8, "metadata").ok());
  }
  std::string path = dir + "/5.meta";
  std::string contents;
  ASSERT_TRUE(ReadFileToString(Env::Default(), path, &contents).ok());
  contents[contents.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(Env::Default(), contents, path).ok());
  {
    MetadataStore store(Env::Default(), dir);
    std::string out;
    EXPECT_FALSE(store.Read(5, 0, 8, &out));
  }
  std::filesystem::remove_all(dir);
}

// ---------- PersistentCache (both layouts) ----------

class PersistentCacheLayouts : public ::testing::TestWithParam<CacheLayout> {
 protected:
  void SetUp() override {
    dir_ = TestDir(GetParam() == CacheLayout::kCompactionAware
                       ? "pcache_extent"
                       : "pcache_log");
    options_.dir = dir_;
    options_.capacity_bytes = 64 * 1024;
    options_.layout = GetParam();
    options_.log_file_bytes = 16 * 1024;
    cache_ = std::make_unique<PersistentCache>(options_);
  }

  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::string scratch_;
  PersistentCacheOptions options_;
  std::unique_ptr<PersistentCache> cache_;
};

TEST_P(PersistentCacheLayouts, PutGetBlock) {
  const std::string block(1000, 'b');
  EXPECT_FALSE(cache_->GetBlock(1, 0, &scratch_));
  cache_->PutBlock(1, 0, block);
  ASSERT_TRUE(cache_->GetBlock(1, 0, &scratch_));
  EXPECT_EQ(block, scratch_);

  auto stats = cache_->GetStats();
  EXPECT_EQ(1u, stats.admissions);
  EXPECT_EQ(1u, stats.hits);
  EXPECT_EQ(1u, stats.misses);
  EXPECT_EQ(1000u, stats.data_bytes);
}

TEST_P(PersistentCacheLayouts, DistinctOffsetsDistinctBlocks) {
  cache_->PutBlock(1, 0, "block-at-0");
  cache_->PutBlock(1, 4096, "block-at-4096");
  cache_->PutBlock(2, 0, "other-sst");
  ASSERT_TRUE(cache_->GetBlock(1, 0, &scratch_));
  EXPECT_EQ("block-at-0", scratch_);
  ASSERT_TRUE(cache_->GetBlock(1, 4096, &scratch_));
  EXPECT_EQ("block-at-4096", scratch_);
  ASSERT_TRUE(cache_->GetBlock(2, 0, &scratch_));
  EXPECT_EQ("other-sst", scratch_);
}

TEST_P(PersistentCacheLayouts, CachedRunStartWalksBackToBackBlocks) {
  cache_->PutBlock(1, 100, std::string(10, 'a'));  // [100, 110)
  cache_->PutBlock(1, 110, std::string(10, 'b'));  // [110, 120)
  cache_->PutBlock(1, 130, std::string(10, 'c'));  // [130, 140)
  EXPECT_EQ(100u, cache_->CachedRunStart(1, 120));
  EXPECT_EQ(100u, cache_->CachedRunStart(1, 115));  // Ends mid-block.
  EXPECT_EQ(130u, cache_->CachedRunStart(1, 140));  // Gap at [120, 130).
  EXPECT_EQ(125u, cache_->CachedRunStart(1, 125));  // Byte 124 not cached.
  EXPECT_EQ(200u, cache_->CachedRunStart(1, 200));
  EXPECT_EQ(50u, cache_->CachedRunStart(2, 50));    // Unknown SST.
}

TEST_P(PersistentCacheLayouts, DuplicatePutIgnored) {
  cache_->PutBlock(1, 0, "first");
  cache_->PutBlock(1, 0, "second");
  ASSERT_TRUE(cache_->GetBlock(1, 0, &scratch_));
  EXPECT_EQ("first", scratch_);
  EXPECT_EQ(1u, cache_->GetStats().admissions);
}

TEST_P(PersistentCacheLayouts, CapacityEnforcedByEviction) {
  // 64 KiB budget; insert 10 SSTs x 16 KiB each. Each block misses once
  // more than the one before it, so every newcomer outranks the LRU victim
  // and the frequency gate lets it displace that block.
  const std::string block(16 * 1024, 'x');
  for (uint64_t sst = 0; sst < 10; sst++) {
    for (uint64_t miss = 0; miss <= sst; miss++) {
      EXPECT_FALSE(cache_->GetBlock(sst, 0, &scratch_));
    }
    cache_->PutBlock(sst, 0, block);
  }
  auto stats = cache_->GetStats();
  EXPECT_LE(stats.data_bytes, options_.capacity_bytes);
  EXPECT_GT(stats.evicted_bytes, 0u);
  // The most recently inserted survives.
  EXPECT_TRUE(cache_->GetBlock(9, 0, &scratch_));
}

TEST_P(PersistentCacheLayouts, InvalidationDropsAllBlocksOfSst) {
  cache_->PutBlock(4, 0, "a");
  cache_->PutBlock(4, 100, "b");
  cache_->PutBlock(5, 0, "keep");
  cache_->Invalidate(4);
  EXPECT_FALSE(cache_->GetBlock(4, 0, &scratch_));
  EXPECT_FALSE(cache_->GetBlock(4, 100, &scratch_));
  EXPECT_TRUE(cache_->GetBlock(5, 0, &scratch_));
  EXPECT_EQ(1u, cache_->GetStats().invalidations);
}

TEST_P(PersistentCacheLayouts, MetadataRegionIntegration) {
  ASSERT_TRUE(cache_->AdmitMetadata(11, 500, 510, "0123456789").ok());
  ASSERT_TRUE(cache_->ReadMetadata(11, 502, 3, &scratch_));
  EXPECT_EQ("234", scratch_);
  uint64_t mo, fs;
  ASSERT_TRUE(cache_->GetMetadataInfo(11, &mo, &fs));
  EXPECT_EQ(500u, mo);
  EXPECT_EQ(510u, fs);
  cache_->Invalidate(11);
  EXPECT_FALSE(cache_->ReadMetadata(11, 502, 3, &scratch_));
}

TEST_P(PersistentCacheLayouts, OneTouchStreamLeavesHotSetHitting) {
  // Each round reads a 4-block hot set, then streams 32 blocks read once:
  // twice the 16-block budget, so plain LRU would flush the hot set every
  // round. The frequency gate refuses the stream once the budget is full.
  auto stats = CreateDBStatistics();
  options_.statistics = stats.get();
  cache_ = std::make_unique<PersistentCache>(options_);
  const std::string block(4 * 1024, 's');
  uint64_t next_cold = 0;
  for (int round = 0; round < 10; round++) {
    for (uint64_t off = 0; off < 4 * block.size(); off += block.size()) {
      if (round == 0) {
        EXPECT_FALSE(cache_->GetBlock(1, off, &scratch_));
        cache_->PutBlock(1, off, block);
      } else {
        EXPECT_TRUE(cache_->GetBlock(1, off, &scratch_))
            << "round " << round << " offset " << off;
      }
    }
    for (int i = 0; i < 32; i++, next_cold += block.size()) {
      EXPECT_FALSE(cache_->GetBlock(2, next_cold, &scratch_));
      cache_->PutBlock(2, next_cold, block);
    }
  }
  const PersistentCacheStats s = cache_->GetStats();
  EXPECT_GT(s.admit_rejected, 0u);
  EXPECT_EQ(s.admit_rejected,
            stats->GetTickerCount(PERSISTENT_CACHE_ADMIT_REJECTED));
  EXPECT_EQ(16u, s.admissions);  // The hot set plus the first 12 cold ones.
  EXPECT_LE(s.data_bytes, options_.capacity_bytes);
}

TEST_P(PersistentCacheLayouts, RoomAdmitsEveryBlock) {
  // Blocks never looked up (estimate 0) still get in while they fit.
  const std::string block(4 * 1024, 'r');
  const uint64_t fit = options_.capacity_bytes / block.size();
  for (uint64_t i = 0; i < fit; i++) {
    cache_->PutBlock(i % 3, i * block.size(), block);
  }
  const PersistentCacheStats s = cache_->GetStats();
  EXPECT_EQ(fit, s.admissions);
  EXPECT_EQ(0u, s.admit_rejected);
  EXPECT_EQ(0u, s.evicted_bytes);
  for (uint64_t i = 0; i < fit; i++) {
    EXPECT_TRUE(cache_->GetBlock(i % 3, i * block.size(), &scratch_)) << i;
  }
}

TEST_P(PersistentCacheLayouts, AgingLetsFormerHotBlockBeDisplaced) {
  // A block read 15 times fills the sketch's counter, then is read no more.
  const std::string block(4 * 1024, 'a');
  EXPECT_FALSE(cache_->GetBlock(1, 0, &scratch_));
  cache_->PutBlock(1, 0, block);
  for (int i = 0; i < 14; i++) ASSERT_TRUE(cache_->GetBlock(1, 0, &scratch_));
  // Fill the rest of the budget with unread blocks; the former hot block is
  // the LRU victim.
  for (uint64_t off = block.size(); off < options_.capacity_bytes;
       off += block.size()) {
    cache_->PutBlock(2, off, block);
  }
  // A newcomer missed twice is refused while the old count stands.
  auto miss_twice_and_put = [&] {
    EXPECT_FALSE(cache_->GetBlock(3, 0, &scratch_));
    EXPECT_FALSE(cache_->GetBlock(3, 0, &scratch_));
    cache_->PutBlock(3, 0, block);
  };
  miss_twice_and_put();
  EXPECT_EQ(1u, cache_->GetStats().admit_rejected);
  // Unrelated lookups age the sketch. The sketch halves every 10 lookups
  // per budgeted block (at least 1024 blocks), so this many lookups halve
  // a saturated counter to zero several times over.
  for (uint64_t i = 0; i < 200 * 1024; i++) {
    cache_->GetBlock(4, i % 64, &scratch_);
  }
  miss_twice_and_put();
  const PersistentCacheStats s = cache_->GetStats();
  EXPECT_EQ(1u, s.admit_rejected);
  EXPECT_GT(s.evicted_bytes, 0u);
  EXPECT_TRUE(cache_->GetBlock(3, 0, &scratch_));
  EXPECT_FALSE(cache_->GetBlock(1, 0, &scratch_));
}

INSTANTIATE_TEST_SUITE_P(Layouts, PersistentCacheLayouts,
                         ::testing::Values(CacheLayout::kCompactionAware,
                                           CacheLayout::kGlobalLog));

TEST(PersistentCacheGcTest, SingleHotSstDiskFootprintBounded) {
  // Regression: a single SST bigger than the budget, cycling admit/evict,
  // must not grow its extent file without bound.
  std::string dir = TestDir("pcache_single_sst");
  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 64 * 1024;
  options.layout = CacheLayout::kCompactionAware;
  PersistentCache cache(options);

  const std::string block(8 * 1024, 'h');
  // 200 distinct blocks of one SST = 1.6 MiB read through a 64 KiB budget,
  // six rounds in alternating directions: each round starts on blocks read
  // once more than the LRU victims the previous round left, so they pass
  // the frequency gate and cycle admit/evict.
  std::string out;
  for (int round = 0; round < 6; round++) {
    for (uint64_t i = 0; i < 200; i++) {
      const uint64_t off = (round % 2 == 0 ? i : 199 - i) * 16384;
      if (!cache.GetBlock(1, off, &out)) {
        cache.PutBlock(1, off, block);
      }
    }
  }
  auto stats = cache.GetStats();
  EXPECT_GT(stats.evicted_bytes, 2 * options.capacity_bytes);
  EXPECT_LE(stats.data_bytes, options.capacity_bytes);
  EXPECT_LE(stats.disk_bytes, 2 * options.capacity_bytes + block.size());
  std::filesystem::remove_all(dir);
}

TEST(PersistentCacheGcTest, ForcedExtentDropsAreCounted) {
  // A read-only loop: each of four SSTs has one hot block, read every
  // pass, and a stream of cold blocks, each read only in its own pass. The
  // stream warms up (pass p reads its cold blocks p times), so each cold
  // block outranks the previous pass's and passes the frequency gate. LRU
  // eviction of the cold blocks leaves dead bytes in the append-only
  // extents while the hot blocks keep every extent alive, so the disk
  // footprint passes 2x the budget and whole extents are dropped — their
  // hot, live blocks included. pcache.forced.drop.bytes counts those live
  // bytes, which are part of pcache.evicted.bytes.
  std::string dir = TestDir("pcache_forced_drop");
  auto stats = CreateDBStatistics();
  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 64 * 1024;
  options.layout = CacheLayout::kCompactionAware;
  options.statistics = stats.get();
  PersistentCache cache(options);

  const std::string block(8 * 1024, 'f');
  std::string out;
  for (uint64_t pass = 1; pass <= 32; pass++) {
    for (uint64_t sst = 1; sst <= 4; sst++) {
      if (!cache.GetBlock(sst, 0, &out)) cache.PutBlock(sst, 0, block);
      const uint64_t cold = pass * 16384;
      for (uint64_t read = 0; read < pass; read++) {
        if (!cache.GetBlock(sst, cold, &out)) cache.PutBlock(sst, cold, block);
      }
    }
  }
  const uint64_t forced =
      stats->GetTickerCount(PERSISTENT_CACHE_FORCED_DROP_BYTES);
  EXPECT_GT(forced, 0u);
  EXPECT_EQ(0u, forced % block.size());  // Whole live blocks only.
  EXPECT_LE(forced, stats->GetTickerCount(PERSISTENT_CACHE_EVICTED_BYTES));
  EXPECT_LE(cache.GetStats().disk_bytes,
            2 * options.capacity_bytes + block.size());
  std::filesystem::remove_all(dir);
}

TEST(PersistentCacheGcTest, ForcedDropTakesLowestLiveShareExtent) {
  // SST 2 holds six hot blocks, all live. SST 1 holds a warming stream
  // (block k is missed k times, so it outranks the LRU victim two blocks
  // back) whose evicted blocks stay in its extent as dead bytes. When the
  // footprint passes 2x the budget, the mostly-dead extent of SST 1 goes,
  // even though SST 1 was used last; SST 2's live extent stays.
  std::string dir = TestDir("pcache_live_share");
  auto stats = CreateDBStatistics();
  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 64 * 1024;
  options.layout = CacheLayout::kCompactionAware;
  options.statistics = stats.get();
  PersistentCache cache(options);

  const std::string block(8 * 1024, 'l');
  std::string out;
  for (uint64_t off = 0; off < 6 * block.size(); off += block.size()) {
    cache.PutBlock(2, off, block);
  }
  for (uint64_t k = 1; k <= 12; k++) {
    const uint64_t off = k * block.size();
    for (uint64_t miss = 0; miss < k; miss++) {
      EXPECT_FALSE(cache.GetBlock(1, off, &out));
    }
    cache.PutBlock(1, off, block);
    for (uint64_t hot = 0; hot < 6 * block.size(); hot += block.size()) {
      EXPECT_TRUE(cache.GetBlock(2, hot, &out)) << "k " << k << " " << hot;
    }
  }
  EXPECT_GT(stats->GetTickerCount(PERSISTENT_CACHE_FORCED_DROP_BYTES), 0u);
  EXPECT_LE(cache.GetStats().disk_bytes, 2 * options.capacity_bytes);
  std::filesystem::remove_all(dir);
}

TEST(PersistentCacheGcTest, GlobalLogGarbageCollects) {
  std::string dir = TestDir("pcache_gc");
  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 1 << 20;
  options.layout = CacheLayout::kGlobalLog;
  options.log_file_bytes = 8 * 1024;
  options.gc_live_fraction = 0.9;
  PersistentCache cache(options);

  // Fill several log files with blocks from two SSTs interleaved.
  const std::string block(1024, 'z');
  for (uint64_t i = 0; i < 32; i++) {
    cache.PutBlock(/*sst=*/i % 2, /*offset=*/i * 2048, block);
  }
  // Invalidate one SST: half of every log's bytes become dead, under the
  // 0.9 live threshold, so sealed logs get rewritten.
  cache.Invalidate(0);
  auto stats = cache.GetStats();
  EXPECT_GT(stats.gc_runs, 0u);
  // Survivor blocks must still be readable after GC moved them.
  std::string out;
  for (uint64_t i = 1; i < 32; i += 2) {
    EXPECT_TRUE(cache.GetBlock(1, i * 2048, &out)) << i;
    EXPECT_EQ(block, out);
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistentCacheGcTest, CompactionAwareInvalidationIsOneFileDelete) {
  std::string dir = TestDir("pcache_o1");
  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 1 << 20;
  options.layout = CacheLayout::kCompactionAware;
  PersistentCache cache(options);

  const std::string block(1024, 'q');
  for (uint64_t off = 0; off < 64 * 1024; off += 2048) {
    cache.PutBlock(7, off, block);
  }
  cache.Invalidate(7);
  auto stats = cache.GetStats();
  EXPECT_EQ(0u, stats.gc_runs);        // Never needs GC.
  EXPECT_EQ(0u, stats.data_bytes);     // Fully reclaimed immediately.
  EXPECT_EQ(0u, stats.disk_bytes);
  std::filesystem::remove_all(dir);
}

// ---------- TieredTableStorage ----------

class PlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("placement");
    ASSERT_TRUE(Env::Default()->CreateDirRecursively(dir_).ok());
    CloudLatencyModel model;
    model.jitter_micros = 0;
    cloud_ = NewMemObjectStore(&clock_, model);

    PersistentCacheOptions pc;
    pc.dir = dir_ + "/pcache";
    pcache_ = std::make_unique<PersistentCache>(pc);

    options_.local_dir = dir_;
    options_.cloud = cloud_.get();
    options_.cloud_level_start = 2;
    options_.persistent_cache = pcache_.get();
    storage_ = std::make_unique<TieredTableStorage>(options_);
  }

  void TearDown() override {
    storage_.reset();
    pcache_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Builds a tiny real SST as table `number` in staging and returns
  // (file_size, metadata_offset).
  std::pair<uint64_t, uint64_t> BuildTable(uint64_t number, int entries) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(storage_->NewStagingFile(number, &file).ok());
    TableOptions topt;
    TableBuilder builder(topt, file.get());
    for (int i = 0; i < entries; i++) {
      char buf[32];
      snprintf(buf, sizeof(buf), "key%06d", i);
      builder.Add(buf, "value" + std::to_string(i));
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE(file->Sync().ok());
    EXPECT_TRUE(file->Close().ok());
    return {builder.FileSize(), builder.MetadataOffset()};
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  std::unique_ptr<PersistentCache> pcache_;
  TieredStorageOptions options_;
  std::unique_ptr<TieredTableStorage> storage_;
};

TEST_F(PlacementTest, ShallowLevelsStayLocal) {
  auto [size, mo] = BuildTable(10, 100);
  ASSERT_TRUE(storage_->Install(10, /*level=*/0, size, mo).ok());
  EXPECT_TRUE(storage_->IsLocal(10));
  EXPECT_TRUE(Env::Default()->FileExists(TableFileName(dir_, 10)));
  EXPECT_EQ(0u, cloud_->Counters().puts);
}

TEST_F(PlacementTest, DeepLevelsUploadAndDropLocal) {
  auto [size, mo] = BuildTable(11, 100);
  ASSERT_TRUE(storage_->Install(11, /*level=*/3, size, mo).ok());
  EXPECT_FALSE(storage_->IsLocal(11));
  EXPECT_FALSE(Env::Default()->FileExists(TableFileName(dir_, 11)));
  EXPECT_EQ(1u, cloud_->Counters().puts);
  // Metadata tail was admitted to the packed metadata region at upload.
  uint64_t got_mo, got_fs;
  ASSERT_TRUE(pcache_->GetMetadataInfo(11, &got_mo, &got_fs));
  EXPECT_EQ(mo, got_mo);
  EXPECT_EQ(size, got_fs);
}

TEST_F(PlacementTest, CloudTableReadableThroughBlockSource) {
  auto [size, mo] = BuildTable(12, 500);
  ASSERT_TRUE(storage_->Install(12, 3, size, mo).ok());

  std::unique_ptr<BlockSource> source;
  uint64_t got_size;
  ASSERT_TRUE(storage_->OpenTable(12, &source, &got_size).ok());
  EXPECT_EQ(size, got_size);

  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Open(TableOptions(), std::move(source), size, nullptr, 1, &table)
          .ok());
  std::unique_ptr<Iterator> it(table->NewIterator());
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(500, n);
  EXPECT_TRUE(it->status().ok());

  // Metadata (footer/index/filter) came from the local region: no cloud
  // read should have been needed for it; data blocks were range GETs.
  auto stats = pcache_->GetStats();
  EXPECT_GT(stats.metadata.hits, 0u);
}

TEST_F(PlacementTest, SecondScanServedFromPersistentCache) {
  auto [size, mo] = BuildTable(13, 500);
  ASSERT_TRUE(storage_->Install(13, 3, size, mo).ok());

  auto scan = [&] {
    std::unique_ptr<BlockSource> source;
    uint64_t got_size;
    ASSERT_TRUE(storage_->OpenTable(13, &source, &got_size).ok());
    std::unique_ptr<Table> table;
    ASSERT_TRUE(Table::Open(TableOptions(), std::move(source), size, nullptr,
                            1, &table)
                    .ok());
    std::unique_ptr<Iterator> it(table->NewIterator());
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_EQ(500, n);
  };

  scan();
  const uint64_t gets_after_first = cloud_->Counters().gets;
  scan();
  const uint64_t gets_after_second = cloud_->Counters().gets;
  // Second scan's data blocks come from the persistent cache.
  EXPECT_EQ(gets_after_first, gets_after_second);
  EXPECT_GT(pcache_->GetStats().hits, 0u);
}

TEST_F(PlacementTest, RemoveDeletesEverywhere) {
  auto [size, mo] = BuildTable(14, 100);
  ASSERT_TRUE(storage_->Install(14, 3, size, mo).ok());
  ASSERT_TRUE(storage_->Remove(14).ok());
  ObjectMeta meta;
  EXPECT_TRUE(cloud_->Head(CloudTableKey("tables", 14), &meta).IsNotFound());
  uint64_t got_mo, got_fs;
  EXPECT_FALSE(pcache_->GetMetadataInfo(14, &got_mo, &got_fs));
}

TEST_F(PlacementTest, TrivialMoveAcrossTierBoundaryMigrates) {
  auto [size, mo] = BuildTable(15, 100);
  ASSERT_TRUE(storage_->Install(15, 1, size, mo).ok());
  EXPECT_TRUE(storage_->IsLocal(15));
  // Compaction trivially moves it to level 2 (cloud territory).
  ASSERT_TRUE(storage_->OnLevelChange(15, 2).ok());
  EXPECT_FALSE(storage_->IsLocal(15));
  EXPECT_EQ(1u, cloud_->Counters().puts);
  // And back down.
  ASSERT_TRUE(storage_->OnLevelChange(15, 1).ok());
  EXPECT_TRUE(storage_->IsLocal(15));
}

TEST_F(PlacementTest, SurvivesRestartDiscovery) {
  auto [size1, mo1] = BuildTable(16, 100);
  ASSERT_TRUE(storage_->Install(16, 0, size1, mo1).ok());
  auto [size2, mo2] = BuildTable(17, 100);
  ASSERT_TRUE(storage_->Install(17, 3, size2, mo2).ok());

  // New incarnation over the same directories.
  storage_ = std::make_unique<TieredTableStorage>(options_);
  EXPECT_TRUE(storage_->IsLocal(16));
  EXPECT_FALSE(storage_->IsLocal(17));

  std::unique_ptr<BlockSource> source;
  uint64_t got;
  EXPECT_TRUE(storage_->OpenTable(16, &source, &got).ok());
  EXPECT_TRUE(storage_->OpenTable(17, &source, &got).ok());
  EXPECT_EQ(size2, got);
}

TEST_F(PlacementTest, HeatPinningDownloadsHotFile) {
  options_.pin_hot_files = true;
  options_.pin_after_accesses = 5;
  options_.pin_budget_bytes = 10ull << 20;
  storage_ = std::make_unique<TieredTableStorage>(options_);

  auto [size, mo] = BuildTable(18, 100);
  ASSERT_TRUE(storage_->Install(18, 3, size, mo).ok());
  EXPECT_FALSE(storage_->IsLocal(18));
  for (int i = 0; i < 10; i++) {
    storage_->RecordAccess(18);
  }
  EXPECT_TRUE(storage_->IsLocal(18));  // Pinned now.
}

// ---------- The kRocksMash store ----------

TEST(RocksMashStoreTest, EndToEnd) {
  std::string dir = TestDir("mashdb");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions opt;
  opt.local_dir = dir;
  opt.cloud = cloud.get();
  opt.cloud_level_start = 1;
  opt.write_buffer_size = 64 * 1024;
  opt.max_file_size = 64 * 1024;
  opt.wal_segments = 4;

  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(opt, &db).ok());

  // Enough data to reach cloud levels.
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();

  std::string value;
  for (int i = 0; i < 5000; i += 113) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("value" + std::to_string(i), value);
  }

  auto stats = db->Stats();
  EXPECT_GT(stats.storage.cloud_files, 0u);     // Data actually tiered.
  EXPECT_GT(stats.persistent_cache.metadata.slabs, 0u);  // Metadata region.
  EXPECT_GT(stats.LocalBytes(), stats.storage.local_bytes);
  const CostBreakdown cost = CostMeter().MonthlyCost(
      cloud->BytesStored(), stats.LocalBytes(), stats.cloud_ops, 1.0);
  EXPECT_GT(cost.total(), 0.0);

  db.reset();
  std::filesystem::remove_all(dir);
}

TEST(RocksMashStoreTest, BackupAndRestoreFromBucketAlone) {
  std::string dir = TestDir("mash_backup");
  std::string restore_dir = TestDir("mash_restore");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  model.list_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions opt;
  opt.local_dir = dir;
  opt.cloud = cloud.get();
  opt.cloud_level_start = 1;
  opt.write_buffer_size = 64 * 1024;
  opt.max_file_size = 64 * 1024;

  {
    std::unique_ptr<KVStore> db;
    ASSERT_TRUE(OpenKVStore(opt, &db).ok());
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          "value" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(BackupToCloud(db.get(), "backup").ok());
    // Simulate total local-media loss: the original store and all its local
    // state vanish; only the bucket remains.
    db.reset();
  }
  std::filesystem::remove_all(dir);

  SchemeOptions ropt = opt;
  ropt.local_dir = restore_dir;
  std::unique_ptr<KVStore> restored;
  ASSERT_TRUE(RestoreFromCloud(ropt, "backup", &restored).ok());
  std::string value;
  for (int i = 0; i < 4000; i += 37) {
    ASSERT_TRUE(
        restored->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("value" + std::to_string(i), value);
  }

  // Restoring into a non-empty directory is refused.
  std::unique_ptr<KVStore> dup;
  Status s = RestoreFromCloud(ropt, "backup", &dup);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  restored.reset();
  std::filesystem::remove_all(restore_dir);
}

TEST(RocksMashStoreTest, RestoreMissingBackupFails) {
  std::string dir = TestDir("mash_norestore");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);
  SchemeOptions opt;
  opt.local_dir = dir;
  opt.cloud = cloud.get();
  std::unique_ptr<KVStore> db;
  Status s = RestoreFromCloud(opt, "nothing-here", &db);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  std::filesystem::remove_all(dir);
}

TEST(RocksMashStoreTest, BackupAndRestoreNeedOneShardRocksMashStore) {
  std::string dir = TestDir("mash_backup_shards");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);
  SchemeOptions opt;
  opt.local_dir = dir;
  opt.cloud = cloud.get();
  opt.num_shards = 2;
  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(opt, &db).ok());
  Status s = BackupToCloud(db.get(), "backup");
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  db.reset();
  std::filesystem::remove_all(dir);
  s = RestoreFromCloud(opt, "backup", &db);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();

  // Only the tiered store knows how to rebuild itself from the bucket.
  opt.num_shards = 1;
  opt.kind = SchemeKind::kCloudOnly;
  ASSERT_TRUE(OpenKVStore(opt, &db).ok());
  s = BackupToCloud(db.get(), "backup");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  db.reset();
  std::filesystem::remove_all(dir);
  s = RestoreFromCloud(opt, "backup", &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  std::filesystem::remove_all(dir);
}

TEST(RocksMashStoreTest, ReopenRecoversFromEWalAndCloud) {
  std::string dir = TestDir("mashdb_reopen");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions opt;
  opt.local_dir = dir;
  opt.cloud = cloud.get();
  opt.cloud_level_start = 1;
  opt.write_buffer_size = 64 * 1024;
  opt.max_file_size = 64 * 1024;
  opt.wal_segments = 4;

  {
    std::unique_ptr<KVStore> db;
    ASSERT_TRUE(OpenKVStore(opt, &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          "value" + std::to_string(i))
                      .ok());
    }
    db->WaitForCompaction();
    // Unflushed tail lives in the eWAL only; make it durable with sync.
    WriteOptions sync_wo;
    sync_wo.sync = true;
    for (int i = 3000; i < 3100; i++) {
      ASSERT_TRUE(db->Put(sync_wo, "key" + std::to_string(i),
                          "value" + std::to_string(i))
                      .ok());
    }
  }

  {
    std::unique_ptr<KVStore> db;
    ASSERT_TRUE(OpenKVStore(opt, &db).ok());
    std::string value;
    for (int i = 0; i < 3100; i += 61) {
      ASSERT_TRUE(
          db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
          << i;
      EXPECT_EQ("value" + std::to_string(i), value);
    }
    auto stats = db->Stats();
    EXPECT_GT(stats.recovery.records_replayed, 0u);
    EXPECT_EQ(4, stats.recovery.shards_used);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
