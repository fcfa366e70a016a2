// Tests for the baseline schemes behind the common KVStore interface.
#include "baselines/kvstore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "env/env.h"
#include "lsm/wal.h"
#include "util/clock.h"

namespace rocksmash {
namespace {

class SchemeTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rocksmash_scheme_" +
           std::string(SchemeName(GetParam()));
    std::filesystem::remove_all(dir_);

    CloudLatencyModel model;
    model.jitter_micros = 0;
    // Keep modeled latencies tiny so tests stay fast but the code path is
    // identical to the benches.
    model.get_first_byte_micros = 10;
    model.put_first_byte_micros = 10;
    cloud_ = NewMemObjectStore(&clock_, model);

    options_.kind = GetParam();
    options_.local_dir = dir_;
    options_.cloud =
        GetParam() == SchemeKind::kLocalOnly ? nullptr : cloud_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.max_file_size = 64 * 1024;
    options_.local_cache_bytes = 1 << 20;
    options_.cloud_level_start = 1;
    ASSERT_TRUE(OpenKVStore(options_, &store_).ok());
  }

  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  SchemeOptions options_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(SchemeTest, PutGetDelete) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  std::string value;
  ASSERT_TRUE(store_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
  ASSERT_TRUE(store_->Delete(WriteOptions(), "k").ok());
  EXPECT_TRUE(store_->Get(ReadOptions(), "k", &value).IsNotFound());
}

TEST_P(SchemeTest, SurvivesFlushAndCompaction) {
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(store_
                    ->Put(WriteOptions(), "key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  store_->WaitForCompaction();
  std::string value;
  for (int i = 0; i < 4000; i += 97) {
    ASSERT_TRUE(
        store_->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("value" + std::to_string(i), value);
  }
}

TEST_P(SchemeTest, IteratorScan) {
  for (int i = 0; i < 1000; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), buf, "v").ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  std::unique_ptr<Iterator> it(store_->NewIterator(ReadOptions()));
  it->Seek("key000500");
  int n = 0;
  while (it->Valid() && n < 100) {
    it->Next();
    n++;
  }
  EXPECT_EQ(100, n);
  EXPECT_TRUE(it->status().ok());
}

TEST_P(SchemeTest, StatsReportStorageTier) {
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(store_
                    ->Put(WriteOptions(), "key" + std::to_string(i),
                          std::string(100, 'v'))
                    .ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  store_->WaitForCompaction();
  auto stats = store_->Stats();
  if (GetParam() == SchemeKind::kLocalOnly) {
    EXPECT_GT(stats.storage.local_files, 0u);
    EXPECT_EQ(0u, stats.storage.cloud_files);
  } else {
    EXPECT_GT(stats.storage.cloud_files, 0u);
    EXPECT_GT(stats.cloud_ops.puts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTest,
    ::testing::Values(SchemeKind::kLocalOnly, SchemeKind::kCloudOnly,
                      SchemeKind::kCloudSstCache, SchemeKind::kRocksMash),
    [](const ::testing::TestParamInfo<SchemeKind>& param_info) {
      return SchemeName(param_info.param);
    });

// Every scheme opened through OpenKVStore, unsharded and over four shards:
// data written past the cloud levels, flushed, compacted and reopened must
// read back exactly, and Stats() must sum the tiers over every shard.
class ShardedSchemeTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, int>> {
 protected:
  SchemeKind kind() const { return std::get<0>(GetParam()); }
  int num_shards() const { return std::get<1>(GetParam()); }
};

TEST_P(ShardedSchemeTest, ModelSurvivesCompactionAndReopen) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_sharded_" +
                          SchemeName(kind()) + "_" +
                          std::to_string(num_shards());
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 10;
  model.put_first_byte_micros = 10;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = kind();
  options.local_dir = dir;
  options.cloud = kind() == SchemeKind::kLocalOnly ? nullptr : cloud.get();
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.local_cache_bytes = 1 << 20;
  options.cloud_level_start = 1;
  options.num_shards = num_shards();

  std::map<std::string, std::string> expected;
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 4000; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d", i);
      if (round == 1 && i % 5 == 0) {
        ASSERT_TRUE(store->Delete(WriteOptions(), key).ok());
        expected.erase(key);
        continue;
      }
      const std::string value =
          "value" + std::to_string(round) + "-" + std::string(100, 'v');
      ASSERT_TRUE(store->Put(WriteOptions(), key, value).ok());
      expected[key] = value;
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
  }
  ASSERT_TRUE(store->db()->CompactRange(nullptr, nullptr).ok());
  store->WaitForCompaction();

  // Every shard holds data, so summed counts reach at least the shard count,
  // both before and after the reopen (tables are rediscovered on open).
  auto check_tiers = [&](const char* when) {
    const KVStoreStats stats = store->Stats();
    const uint64_t shards = static_cast<uint64_t>(num_shards());
    if (kind() == SchemeKind::kLocalOnly) {
      EXPECT_GE(stats.storage.local_files, shards) << when;
      EXPECT_EQ(0u, stats.storage.cloud_files) << when;
    } else {
      EXPECT_GE(stats.storage.cloud_files, shards) << when;
    }
  };
  check_tiers("before reopen");
  if (kind() == SchemeKind::kRocksMash) {
    EXPECT_GT(store->Stats().persistent_cache.metadata.slabs, 0u);
  }
  store.reset();

  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  check_tiers("after reopen");
  std::string value;
  for (int i = 0; i < 4000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    Status s = store->Get(ReadOptions(), key, &value);
    auto it = expected.find(key);
    if (it == expected.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(it->second, value) << key;
    }
  }

  // The persistent cache's metadata region is reloaded warm on reopen.
  if (kind() == SchemeKind::kRocksMash) {
    EXPECT_GT(store->Stats().persistent_cache.metadata.slabs, 0u);
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndShardCounts, ShardedSchemeTest,
    ::testing::Combine(::testing::Values(SchemeKind::kLocalOnly,
                                         SchemeKind::kCloudOnly,
                                         SchemeKind::kCloudSstCache,
                                         SchemeKind::kRocksMash),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<SchemeKind, int>>&
           param_info) {
      return std::string(SchemeName(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "shards";
    });

TEST(OpenKVStoreTest, CloudSchemesRequireObjectStore) {
  for (SchemeKind kind : {SchemeKind::kCloudOnly, SchemeKind::kCloudSstCache,
                          SchemeKind::kRocksMash}) {
    SchemeOptions options;
    options.kind = kind;
    options.local_dir = ::testing::TempDir() + "/rocksmash_nocloud_" +
                        SchemeName(kind);
    std::unique_ptr<KVStore> store;
    Status s = OpenKVStore(options, &store);
    EXPECT_TRUE(s.IsInvalidArgument()) << SchemeName(kind) << ": "
                                       << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find("requires an object store"))
        << s.ToString();
    EXPECT_EQ(nullptr, store);
    std::filesystem::remove_all(options.local_dir);
  }
}

// SchemeOptions is DBOptions plus the scheme fields; these two engine
// defaults are its own.
TEST(OpenKVStoreTest, SchemeDefaultsDifferFromDBOptions) {
  EXPECT_EQ(100, SchemeOptions().max_open_files);
  EXPECT_EQ(4, SchemeOptions().wal_segments);
  EXPECT_EQ(1000, DBOptions().max_open_files);
  EXPECT_EQ(1, DBOptions().wal_segments);
}

// With default options kRocksMash stripes its eWAL over 4 segment files and
// every baseline logs to one.
TEST(OpenKVStoreTest, DefaultWalSegmentsPerScheme) {
  struct Case {
    SchemeKind kind;
    size_t segments;
  };
  for (const Case& c : {Case{SchemeKind::kLocalOnly, 1},
                        Case{SchemeKind::kCloudOnly, 1},
                        Case{SchemeKind::kCloudSstCache, 1},
                        Case{SchemeKind::kRocksMash, 4}}) {
    SCOPED_TRACE(SchemeName(c.kind));
    SimClock clock;
    auto cloud = NewMemObjectStore(&clock, CloudLatencyModel());
    SchemeOptions options;
    options.kind = c.kind;
    options.local_dir = ::testing::TempDir() + "/rocksmash_walsegs_" +
                        SchemeName(c.kind);
    std::filesystem::remove_all(options.local_dir);
    options.cloud = cloud.get();
    std::unique_ptr<KVStore> store;
    ASSERT_TRUE(OpenKVStore(options, &store).ok());
    ASSERT_TRUE(store->Put(WriteOptions(), "k", "v").ok());

    size_t segments = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.local_dir)) {
      if (entry.path().filename().string().starts_with("ewal-")) segments++;
    }
    EXPECT_EQ(c.segments, segments);
    store.reset();
    std::filesystem::remove_all(options.local_dir);
  }
}

// table_storage, wal_manager and block_cache are built per shard by
// OpenKVStore; a caller-set one is refused before anything opens.
TEST(OpenKVStoreTest, CallerSetPerShardPlumbingIsRejected) {
  const std::string dir = ::testing::TempDir() + "/rocksmash_plumbing";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::unique_ptr<TableStorage> storage =
      NewLocalTableStorage(Env::Default(), dir);
  std::unique_ptr<WalManager> wal = NewEWalManager(Env::Default(), dir);
  std::unique_ptr<Cache> cache = NewLRUCache(1 << 20);

  for (int num_shards : {1, 4}) {
    for (int field = 0; field < 3; field++) {
      SCOPED_TRACE("num_shards=" + std::to_string(num_shards) +
                   " field=" + std::to_string(field));
      SchemeOptions options;
      options.kind = SchemeKind::kLocalOnly;
      options.local_dir = dir + "/db";
      options.num_shards = num_shards;
      if (field == 0) options.table_storage = storage.get();
      if (field == 1) options.wal_manager = wal.get();
      if (field == 2) options.block_cache = cache.get();
      std::unique_ptr<KVStore> store;
      Status s = OpenKVStore(options, &store);
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
      EXPECT_EQ(nullptr, store);
    }
  }
  std::filesystem::remove_all(dir);
}

// An inherited engine field SchemeOptions had no copy of reaches every
// shard: error_if_exists refuses to reopen an existing store.
TEST(OpenKVStoreTest, InheritedFieldReachesEveryShard) {
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    SchemeOptions options;
    options.kind = SchemeKind::kLocalOnly;
    options.local_dir = ::testing::TempDir() + "/rocksmash_inherited_" +
                        std::to_string(num_shards);
    std::filesystem::remove_all(options.local_dir);
    options.num_shards = num_shards;
    std::unique_ptr<KVStore> store;
    ASSERT_TRUE(OpenKVStore(options, &store).ok());
    ASSERT_TRUE(store->Put(WriteOptions(), "k", "v").ok());
    store.reset();

    options.error_if_exists = true;
    Status s = OpenKVStore(options, &store);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find("exists")) << s.ToString();
    EXPECT_EQ(nullptr, store);
    std::filesystem::remove_all(options.local_dir);
  }
}

TEST(CloudSstCacheTest, FileCacheHitsOnRepeatedOpen) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_direct";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kCloudSstCache;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.local_cache_bytes = 10 << 20;
  // Tiny table-reader cache effect: read the same keys repeatedly.
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        store->Put(WriteOptions(), "key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();
  std::string value;
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 3000; i += 301) {
      ASSERT_TRUE(
          store->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
    }
  }
  auto stats = store->Stats();
  // Whole files were downloaded at least once; local cache holds bytes.
  EXPECT_GT(stats.storage.downloads, 0u);
  EXPECT_GT(stats.storage.local_bytes, 0u);
  store.reset();
  std::filesystem::remove_all(dir);
}

// Tables written before a reopen are known to the reopened store: once a
// compaction after the reopen drops them from the live version, their
// bucket objects are deleted like any other obsolete table.
TEST(CloudSstCacheTest, ReopenedStoreDeletesObsoleteTables) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_reopen_gc";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  model.delete_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kCloudSstCache;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.local_cache_bytes = 10 << 20;

  auto load = [&](KVStore* store, const std::string& gen) {
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(store->Put(WriteOptions(), "key" + std::to_string(i),
                             gen + std::string(100, 'v'))
                      .ok());
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
    store->WaitForCompaction();
  };

  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  load(store.get(), "gen0");
  const uint64_t tables_before = store->Stats().storage.cloud_files;
  ASSERT_GT(tables_before, 0u);
  store.reset();

  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  EXPECT_EQ(tables_before, store->Stats().storage.cloud_files);
  // Overwrite every key and compact everything: no pre-reopen table stays
  // live.
  load(store.get(), "gen1");
  ASSERT_TRUE(store->db()->CompactRange(nullptr, nullptr).ok());
  store->WaitForCompaction();

  std::string sstables;
  ASSERT_TRUE(store->db()->GetProperty("rocksmash.sstables", &sstables));
  std::set<uint64_t> live;
  std::istringstream lines(sstables);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 1 && line[0] == ' ') {
      live.insert(std::stoull(line.substr(1, line.find(':') - 1)));
    }
  }
  ASSERT_FALSE(live.empty());

  std::vector<ObjectMeta> objects;
  ASSERT_TRUE(cloud->List("tables/", &objects).ok());
  for (const ObjectMeta& meta : objects) {
    const uint64_t number =
        std::stoull(meta.key.substr(meta.key.rfind('/') + 1));
    EXPECT_EQ(1u, live.count(number)) << meta.key << " is not live";
  }
  EXPECT_EQ(live.size(), objects.size());
  EXPECT_EQ(live.size(), store->Stats().storage.cloud_files);

  std::string value;
  for (int i = 0; i < 2000; i += 97) {
    ASSERT_TRUE(
        store->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
    EXPECT_EQ("gen1" + std::string(100, 'v'), value);
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

// The whole-file cache starts cold on reopen: copies the previous run
// left in sstcache/ are removed, so the directory always holds exactly the
// bytes the store reports, and never a copy of a table compaction dropped.
TEST(CloudSstCacheTest, ReopenStartsWithAColdFileCache) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_reopen_cold";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  model.delete_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kCloudSstCache;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.local_cache_bytes = 10 << 20;

  auto load_and_read = [&](KVStore* store, const std::string& gen) {
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(store->Put(WriteOptions(), "key" + std::to_string(i),
                             gen + std::string(100, 'v'))
                      .ok());
    }
    ASSERT_TRUE(store->FlushMemTable().ok());
    store->WaitForCompaction();
    std::string value;
    for (int i = 0; i < 2000; i += 97) {
      ASSERT_TRUE(
          store->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
      EXPECT_EQ(gen + std::string(100, 'v'), value);
    }
  };
  // Bytes and table numbers of the copies on disk.
  auto cached_copies = [&](std::set<uint64_t>* numbers) {
    uint64_t bytes = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir + "/sstcache")) {
      bytes += entry.file_size();
      numbers->insert(std::stoull(entry.path().stem().string()));
    }
    return bytes;
  };

  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  load_and_read(store.get(), "gen0");
  std::set<uint64_t> copies;
  ASSERT_GT(cached_copies(&copies), 0u);
  store.reset();

  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  copies.clear();
  EXPECT_EQ(store->Stats().file_cache_bytes, cached_copies(&copies));
  EXPECT_TRUE(copies.empty());

  // Overwrite every key and compact everything: no pre-reopen table stays
  // live, then read the new tables into the cache.
  load_and_read(store.get(), "gen1");
  ASSERT_TRUE(store->db()->CompactRange(nullptr, nullptr).ok());
  store->WaitForCompaction();
  std::string value;
  for (int i = 0; i < 2000; i += 97) {
    ASSERT_TRUE(
        store->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
  }

  std::string sstables;
  ASSERT_TRUE(store->db()->GetProperty("rocksmash.sstables", &sstables));
  std::set<uint64_t> live;
  std::istringstream lines(sstables);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 1 && line[0] == ' ') {
      live.insert(std::stoull(line.substr(1, line.find(':') - 1)));
    }
  }
  copies.clear();
  const uint64_t copy_bytes = cached_copies(&copies);
  EXPECT_GT(copy_bytes, 0u);
  EXPECT_EQ(store->Stats().file_cache_bytes, copy_bytes);
  EXPECT_EQ(store->Stats().storage.local_bytes, copy_bytes);
  for (uint64_t number : copies) {
    EXPECT_EQ(1u, live.count(number)) << "cached copy of dropped table "
                                      << number;
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(CloudSstCacheTest, EvictionBoundsCacheBytes) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_evict";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  auto stats = std::make_shared<SstFileCacheStats>();
  auto storage = NewCloudSstCacheStorage(Env::Default(), dir, cloud.get(),
                                         "tables", /*budget=*/4096, stats);

  // Create three small "tables" via staging + install, then open them all.
  for (uint64_t n = 1; n <= 3; n++) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(storage->NewStagingFile(n, &f).ok());
    ASSERT_TRUE(f->Append(std::string(3000, 'a' + n)).ok());
    ASSERT_TRUE(f->Close().ok());
    ASSERT_TRUE(storage->Install(n, 1, 3000, 0).ok());
  }
  std::unique_ptr<BlockSource> source;
  uint64_t size;
  for (uint64_t n = 1; n <= 3; n++) {
    ASSERT_TRUE(storage->OpenTable(n, &source, &size).ok());
    EXPECT_EQ(3000u, size);
  }
  // Budget 4096 holds at most one 3000-byte file plus the newest.
  EXPECT_GT(stats->evictions, 0u);
  EXPECT_LE(storage->GetStats().local_bytes, 2u * 3000u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
