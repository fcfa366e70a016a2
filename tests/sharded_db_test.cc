// ShardedDB: routing, the randomized model test across shard counts, batch
// splitting, cross-shard iteration, composite snapshots, property
// aggregation, and the SHARDS marker. See DESIGN.md "Sharding & shared
// resources" for the semantics under test.
#include "lsm/sharded_db.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/kvstore.h"
#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/shared_resources.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

std::string TestDir(const char* suffix) {
  return ::testing::TempDir() + "/rocksmash_sharded_" + suffix;
}

std::string KeyOf(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%08llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string ValueOf(uint64_t i, uint64_t version) {
  return "value-" + std::to_string(i) + "-v" + std::to_string(version);
}

DBOptions SmallOptions() {
  DBOptions o;
  o.create_if_missing = true;
  o.write_buffer_size = 64 * 1024;
  o.max_file_size = 64 * 1024;
  o.max_bytes_for_level_base = 256 * 1024;
  return o;
}

// ---------- Routing ----------

TEST(ShardedDBTest, ShardOfKeyIsStableAndCoversAllShards) {
  // Pure function of (key bytes, N): same inputs, same shard.
  for (uint32_t n : {1u, 2u, 5u, 8u}) {
    for (uint64_t i = 0; i < 64; i++) {
      const std::string key = KeyOf(i * 977);
      const uint32_t shard = ShardedDB::ShardOfKey(key, n);
      ASSERT_LT(shard, n);
      ASSERT_EQ(shard, ShardedDB::ShardOfKey(key, n));
    }
  }
  // With enough keys every shard receives traffic (no dead route).
  std::set<uint32_t> seen;
  for (uint64_t i = 0; i < 2000; i++) {
    seen.insert(ShardedDB::ShardOfKey(KeyOf(i), 8));
  }
  EXPECT_EQ(8u, seen.size());
}

// ---------- Randomized model test across shard counts ----------

// The store must behave exactly like a std::map under a randomized mix of
// puts, deletes, and multi-key batches, with flush/compaction churn and a
// mid-stream reopen, at every shard count (4 is the acceptance
// configuration). One seed per count so failures reproduce.
TEST(ShardedDBTest, RandomizedModelAcrossShardCounts) {
  for (int num_shards : {1, 2, 4, 8}) {
    const std::string name =
        TestDir(("model_" + std::to_string(num_shards)).c_str());
    std::filesystem::remove_all(name);

    DBOptions base = SmallOptions();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(ShardedDB::Open(base, name, num_shards, &db).ok());

    std::map<std::string, std::string> model;
    Random64 rng(0xdecaf000 + static_cast<uint64_t>(num_shards));
    constexpr uint64_t kKeySpace = 400;
    constexpr int kOps = 3000;
    WriteOptions wo;

    for (int op = 0; op < kOps; op++) {
      const uint64_t roll = rng.Uniform(10);
      if (roll < 6) {
        const uint64_t k = rng.Uniform(kKeySpace);
        const std::string key = KeyOf(k);
        const std::string value = ValueOf(k, static_cast<uint64_t>(op));
        ASSERT_TRUE(db->Put(wo, key, value).ok());
        model[key] = value;
      } else if (roll < 8) {
        const std::string key = KeyOf(rng.Uniform(kKeySpace));
        ASSERT_TRUE(db->Delete(wo, key).ok());
        model.erase(key);
      } else {
        // A batch whose keys scatter over every shard: must land whole.
        WriteBatch batch;
        for (int b = 0; b < 8; b++) {
          const uint64_t k = rng.Uniform(kKeySpace);
          const std::string key = KeyOf(k);
          if (b % 4 == 3) {
            batch.Delete(key);
            model.erase(key);
          } else {
            const std::string value = ValueOf(k, static_cast<uint64_t>(op));
            batch.Put(key, value);
            model[key] = value;
          }
        }
        ASSERT_TRUE(db->Write(wo, &batch).ok());
      }

      if (op % 500 == 499) {
        ASSERT_TRUE(db->FlushMemTable().ok());
      }
      if (op % 1100 == 1099) {
        ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
      }
      if (op == kOps / 2) {
        // Mid-stream reopen: every shard recovers its own WAL + manifest.
        db.reset();
        ASSERT_TRUE(ShardedDB::Open(base, name, num_shards, &db).ok());
      }
    }
    db->WaitForCompaction();

    // Point reads: exactly the model, present and absent.
    for (uint64_t k = 0; k < kKeySpace; k++) {
      const std::string key = KeyOf(k);
      std::string value;
      Status s = db->Get(ReadOptions(), key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        EXPECT_EQ(it->second, value) << key;
      }
    }

    // Full scan: globally sorted and exactly the model's contents.
    std::unique_ptr<Iterator> iter = db->NewIterator(ReadOptions());
    iter->SeekToFirst();
    auto mit = model.begin();
    while (iter->Valid() && mit != model.end()) {
      EXPECT_EQ(mit->first, iter->key().ToString());
      EXPECT_EQ(mit->second, iter->value().ToString());
      iter->Next();
      ++mit;
    }
    EXPECT_TRUE(iter->status().ok());
    EXPECT_FALSE(iter->Valid()) << "scan produced extra keys";
    EXPECT_TRUE(mit == model.end()) << "scan missed " << mit->first;
    iter.reset();

    db.reset();
    ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
    EXPECT_FALSE(std::filesystem::exists(name + "/SHARDS"));
  }
}

// ---------- Batch splitting ----------

TEST(ShardedDBTest, BatchSplitTickerAndSingleShardPassthrough) {
  const std::string name = TestDir("batch_split");
  std::filesystem::remove_all(name);

  auto stats = CreateDBStatistics();
  DBOptions base = SmallOptions();
  base.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());

  // Collect keys per shard so we can build single- and multi-shard batches
  // deterministically.
  std::vector<std::vector<std::string>> keys_by_shard(4);
  for (uint64_t i = 0; keys_by_shard[0].size() < 4 ||
                       keys_by_shard[1].size() < 4 ||
                       keys_by_shard[2].size() < 4 ||
                       keys_by_shard[3].size() < 4;
       i++) {
    const std::string key = KeyOf(i);
    keys_by_shard[ShardedDB::ShardOfKey(key, 4)].push_back(key);
  }

  // A batch confined to one shard forwards whole: no split recorded.
  {
    WriteBatch batch;
    for (const std::string& k : keys_by_shard[2]) batch.Put(k, "one-shard");
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    EXPECT_EQ(0u, stats->GetTickerCount(SHARD_WRITE_BATCHES_SPLIT));
  }

  // A batch spanning all four shards splits once and lands whole.
  {
    WriteBatch batch;
    for (const auto& shard_keys : keys_by_shard) {
      for (const std::string& k : shard_keys) batch.Put(k, "all-shards");
    }
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    EXPECT_EQ(1u, stats->GetTickerCount(SHARD_WRITE_BATCHES_SPLIT));
    for (const auto& shard_keys : keys_by_shard) {
      for (const std::string& k : shard_keys) {
        std::string value;
        ASSERT_TRUE(db->Get(ReadOptions(), k, &value).ok()) << k;
        EXPECT_EQ("all-shards", value);
      }
    }
  }

  // Deletes in a split batch land on their shards too.
  {
    WriteBatch batch;
    batch.Delete(keys_by_shard[0][0]);
    batch.Delete(keys_by_shard[3][0]);
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    std::string value;
    EXPECT_TRUE(
        db->Get(ReadOptions(), keys_by_shard[0][0], &value).IsNotFound());
    EXPECT_TRUE(
        db->Get(ReadOptions(), keys_by_shard[3][0], &value).IsNotFound());
  }

  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

// ---------- MultiGet ----------

TEST(ShardedDBTest, MultiGetGroupsPerShardAndPreservesOrder) {
  const std::string name = TestDir("multiget");
  std::filesystem::remove_all(name);

  auto stats = CreateDBStatistics();
  DBOptions base = SmallOptions();
  base.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());

  constexpr uint64_t kKeys = 200;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i, 0)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  // Mixed batch: present keys interleaved with misses; results must come
  // back in request order despite the per-shard regrouping.
  std::vector<std::string> key_storage;
  for (uint64_t i = 0; i < 64; i++) {
    key_storage.push_back(i % 3 == 2 ? "absent-" + std::to_string(i)
                                     : KeyOf(i * 3 % kKeys));
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db->MultiGet(ReadOptions(), keys, &values, &statuses);
  ASSERT_EQ(keys.size(), values.size());
  ASSERT_EQ(keys.size(), statuses.size());
  for (size_t i = 0; i < keys.size(); i++) {
    if (i % 3 == 2) {
      EXPECT_TRUE(statuses[i].IsNotFound()) << key_storage[i];
    } else {
      ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
      EXPECT_EQ(ValueOf(i * 3 % kKeys, 0), values[i]);
    }
  }
  // The batch fanned out to more than one shard.
  EXPECT_GE(stats->GetTickerCount(SHARD_MULTIGET_FANOUT), 2u);

  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

// ---------- Iterators and snapshots ----------

TEST(ShardedDBTest, CrossShardIteratorIsGloballySorted) {
  const std::string name = TestDir("iter");
  std::filesystem::remove_all(name);

  DBOptions base = SmallOptions();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 8, &db).ok());

  std::map<std::string, std::string> model;
  Random64 rng(42);
  for (int i = 0; i < 800; i++) {
    const uint64_t k = rng.Uniform(100000);
    const std::string key = KeyOf(k);
    const std::string value = ValueOf(k, 0);
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    model[key] = value;
    if (i % 200 == 199) {
      ASSERT_TRUE(db->FlushMemTable().ok());
    }
  }

  // Seek into the middle: the merged view starts at the right key and stays
  // strictly increasing across shard boundaries.
  const std::string target = KeyOf(50000);
  std::unique_ptr<Iterator> it = db->NewIterator(ReadOptions());
  it->Seek(target);
  auto mit = model.lower_bound(target);
  while (mit != model.end()) {
    ASSERT_TRUE(it->Valid()) << "iterator ended before " << mit->first;
    EXPECT_EQ(mit->first, it->key().ToString());
    EXPECT_EQ(mit->second, it->value().ToString());
    it->Next();
    ++mit;
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());

  // SeekToLast lands on the global maximum.
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(model.rbegin()->first, it->key().ToString());
  it.reset();

  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

TEST(ShardedDBTest, CompositeSnapshotPinsEveryShard) {
  const std::string name = TestDir("snapshot");
  std::filesystem::remove_all(name);

  DBOptions base = SmallOptions();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());

  for (uint64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i, 1)).ok());
  }
  const Snapshot* snap = db->GetSnapshot();
  // Overwrite and delete after the snapshot, touching every shard.
  for (uint64_t i = 0; i < 100; i++) {
    if (i % 2 == 0) {
      ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i, 2)).ok());
    } else {
      ASSERT_TRUE(db->Delete(WriteOptions(), KeyOf(i)).ok());
    }
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  ReadOptions ro;
  ro.snapshot = snap;
  for (uint64_t i = 0; i < 100; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ro, KeyOf(i), &value).ok()) << KeyOf(i);
    EXPECT_EQ(ValueOf(i, 1), value);
  }
  // Snapshot scans see the pinned view too.
  std::unique_ptr<Iterator> it = db->NewIterator(ro);
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(100u, n);
  it.reset();
  db->ReleaseSnapshot(snap);

  // Without the snapshot, the post-snapshot state is visible.
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), KeyOf(1), &value).IsNotFound());
  ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(0), &value).ok());
  EXPECT_EQ(ValueOf(0, 2), value);

  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

// ---------- Property aggregation ----------

TEST(ShardedDBTest, PropertyAggregationAndShardPassthrough) {
  const std::string name = TestDir("props");
  std::filesystem::remove_all(name);

  auto stats = CreateDBStatistics();
  DBOptions base = SmallOptions();
  base.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());

  for (uint64_t i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i, 0)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();

  // Aggregate num-files-at-level<L> equals the sum of the shard
  // passthrough values over every level with files.
  uint64_t files_direct = 0;
  uint64_t files_via_shards = 0;
  for (int level = 0; level < 7; level++) {
    std::string v;
    ASSERT_TRUE(db->GetProperty(
        "rocksmash.num-files-at-level" + std::to_string(level), &v));
    files_direct += std::stoull(v);
    for (int i = 0; i < 4; i++) {
      ASSERT_TRUE(
          db->GetProperty("rocksmash.shard." + std::to_string(i) +
                              ".num-files-at-level" + std::to_string(level),
                          &v));
      files_via_shards += std::stoull(v);
    }
  }
  EXPECT_GT(files_direct, 0u);
  EXPECT_EQ(files_direct, files_via_shards);

  // Memtable usage sums the same way.
  std::string v;
  ASSERT_TRUE(db->GetProperty("rocksmash.memtable-memory-usage", &v));
  uint64_t direct = std::stoull(v);
  uint64_t via_shards = 0;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(db->GetProperty("rocksmash.shard." + std::to_string(i) +
                                    ".memtable-memory-usage",
                                &v));
    via_shards += std::stoull(v);
  }
  EXPECT_EQ(direct, via_shards);

  // One Statistics serves the whole group: the map-valued stats property
  // carries each ticker exactly once, not once per shard.
  std::map<std::string, std::string> ticker_map;
  ASSERT_TRUE(db->GetProperty("rocksmash.stats", &ticker_map));
  ASSERT_EQ(1u, ticker_map.count("flush.lane.bytes.written"));
  EXPECT_GT(std::stoull(ticker_map["flush.lane.bytes.written"]), 0u);

  // The string form concatenates per-shard sections.
  std::string stats_str;
  ASSERT_TRUE(db->GetProperty("rocksmash.stats", &stats_str));
  EXPECT_NE(std::string::npos, stats_str.find("--- shard 0 ---"));
  EXPECT_NE(std::string::npos, stats_str.find("--- shard 3 ---"));

  // bg-jobs reports one line per shard.
  std::string jobs;
  ASSERT_TRUE(db->GetProperty("rocksmash.bg-jobs", &jobs));
  EXPECT_NE(std::string::npos, jobs.find("shard0:"));
  EXPECT_NE(std::string::npos, jobs.find("shard3:"));

  // Unknown properties and out-of-range shard indices fail cleanly.
  EXPECT_FALSE(db->GetProperty("rocksmash.shard.9.stats", &v));
  EXPECT_FALSE(db->GetProperty("rocksmash.no-such-property", &v));

  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

// ---------- Shared resources ----------

TEST(ShardedDBTest, ShardsDrawFromOneSharedResources) {
  const std::string name = TestDir("shared");
  std::filesystem::remove_all(name);

  auto stats = CreateDBStatistics();
  SharedResourcesOptions sro;
  sro.block_cache_bytes = 4 * 1024 * 1024;
  sro.flush_threads = 2;
  sro.compaction_threads = 2;
  sro.statistics = stats.get();
  std::shared_ptr<SharedResources> shared;
  ASSERT_TRUE(SharedResources::Create(sro, &shared).ok());

  DBOptions base = SmallOptions();
  base.shared_resources = shared;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());
  EXPECT_EQ(4u, sharded->num_shards());

  for (uint64_t i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), ValueOf(i, 0)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();

  // Every shard's traffic lands in the one shared Statistics.
  EXPECT_GT(stats->GetTickerCount(FLUSH_LANE_BYTES_WRITTEN), 0u);

  // The shared cache served reads for keys on every shard.
  for (uint64_t i = 0; i < 1000; i += 7) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(i), &value).ok());
  }
  Cache::Stats cache_stats = shared->block_cache()->GetStats();
  EXPECT_GT(cache_stats.hits + cache_stats.misses, 0u);

  db.reset();
  // The SharedResources outlives the DB: pools are still usable (a second
  // open against the same handle works).
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(3), &value).ok());
  EXPECT_EQ(ValueOf(3, 0), value);
  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

// ---------- Per-shard eWAL ----------

// Each shard's engine builds its own eWAL from base.wal_segments: four
// segment files of one log in every shard directory, and synced writes
// survive a crash (no flush, no clean close of the memtables).
TEST(ShardedDBTest, EachShardOwnsAnEWalOfWalSegments) {
  const std::string name = TestDir("ewal");
  std::filesystem::remove_all(name);
  constexpr int kShards = 2;
  constexpr uint64_t kKeys = 400;

  DBOptions base = SmallOptions();
  base.write_buffer_size = 8 << 20;  // Keep every write in the WAL.
  base.wal_segments = 4;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(ShardedDB::Open(base, name, kShards, &db).ok());
    WriteOptions sync;
    sync.sync = true;
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put(sync, KeyOf(i), ValueOf(i, 0)).ok());
    }
    for (int shard = 0; shard < kShards; shard++) {
      std::vector<std::string> children;
      ASSERT_TRUE(Env::Default()
                      ->GetChildren(name + "/shard-" + std::to_string(shard),
                                    &children)
                      .ok());
      std::set<int> segments;
      for (const std::string& child : children) {
        uint64_t number;
        int segment;
        if (ParseEWalFileName(child, &number, &segment)) {
          segments.insert(segment);
        }
      }
      EXPECT_EQ((std::set<int>{0, 1, 2, 3}), segments) << "shard " << shard;
    }
    // "Crash": drop the DB without flushing its memtables.
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, kShards, &db).ok());
  std::string value;
  uint64_t lost = 0;
  for (uint64_t i = 0; i < kKeys; i++) {
    if (!db->Get(ReadOptions(), KeyOf(i), &value).ok() ||
        value != ValueOf(i, 0)) {
      lost++;
    }
  }
  EXPECT_EQ(0u, lost);
  db.reset();
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

// ---------- SHARDS marker ----------

TEST(ShardedDBTest, ShardMarkerRejectsMismatchedReopen) {
  const std::string name = TestDir("marker");
  std::filesystem::remove_all(name);

  DBOptions base = SmallOptions();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  db.reset();

  int persisted = 0;
  ASSERT_TRUE(
      ShardedDB::ReadShardMarker(Env::Default(), name, &persisted).ok());
  EXPECT_EQ(4, persisted);

  // A different count would strand keys in unreachable directories.
  Status s = ShardedDB::Open(base, name, 2, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(nullptr, db.get());

  // The original count still opens and finds the data.
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
  db.reset();

  // An unsharded store has no marker; sharding it would hide its data in
  // empty shard directories, so it is refused and the data still opens
  // unsharded afterwards. Both open paths share the check.
  const std::string plain = TestDir("marker_plain");
  std::filesystem::remove_all(plain);
  ASSERT_TRUE(DB::Open(base, plain, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  db.reset();
  s = ShardedDB::Open(base, plain, 4, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(nullptr, db.get());
  ASSERT_TRUE(ShardedDB::Open(base, plain, 1, &db).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
  db.reset();
  std::filesystem::remove_all(plain);

  SchemeOptions so;
  so.kind = SchemeKind::kLocalOnly;
  so.local_dir = plain;
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(so, &store).ok());
  ASSERT_TRUE(store->Put(WriteOptions(), "k", "v").ok());
  store.reset();
  so.num_shards = 4;
  s = OpenKVStore(so, &store);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(nullptr, store);
  so.num_shards = 1;
  ASSERT_TRUE(OpenKVStore(so, &store).ok());
  ASSERT_TRUE(store->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
  store.reset();
  std::filesystem::remove_all(plain);

  // A fresh directory has no marker.
  const std::string fresh = TestDir("marker_fresh");
  std::filesystem::remove_all(fresh);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(fresh).ok());
  EXPECT_TRUE(
      ShardedDB::ReadShardMarker(Env::Default(), fresh, &persisted)
          .IsNotFound());

  std::filesystem::remove_all(fresh);
  ASSERT_TRUE(ShardedDB::Destroy(DBOptions(), name).ok());
}

TEST(ShardedDBTest, OpenValidatesArguments) {
  std::unique_ptr<DB> db;
  EXPECT_TRUE(
      ShardedDB::Open(DBOptions(), TestDir("bad"), 0, &db).IsInvalidArgument());
  EXPECT_TRUE(ShardedDB::Open(std::vector<ShardedDB::ShardSpec>(), &db)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace rocksmash
