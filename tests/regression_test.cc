// Regression tests for behaviours found and fixed during the reproduction:
//   - L0 point lookups must be sequence-aware (recovery writes one L0 file
//     per WAL shard, so file numbers do not order freshness),
//   - obsolete cloud-resident tables must be garbage-collected (GC used to
//     scan only the local directory),
//   - RAM block cache must survive table-reader eviction + reopen,
//   - upload failures during install must surface, not corrupt,
//   - YCSB A/E/F end-to-end.
#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/kvstore.h"
#include "env/env.h"
#include "lsm/db_impl.h"
#include "mash/placement.h"
#include "util/clock.h"
#include "workload/ycsb.h"

namespace rocksmash {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/rocksmash_reg_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// The L0 freshness regression: recover from an eWAL where the same key was
// overwritten many times, so its versions land in different shards and thus
// different L0 files with interleaved sequence ranges. Every read must
// return the newest version — through Get, iterators, and after further
// flushes.
TEST(L0SequenceAwareness, OverwritesAcrossShardsReadNewest) {
  std::string dbname = TestDir("l0seq");
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());
  DBOptions options;
  options.wal_segments = 8;
  options.write_buffer_size = 64 << 20;

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    for (int version = 0; version < 16; version++) {
      const std::string v = std::to_string(version);
      for (int k = 0; k < 64; k++) {
        const std::string n = std::to_string(k);
        ASSERT_TRUE(db->Put(WriteOptions(), "key" + n, "v" + v).ok());
      }
    }
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  // Recovery produced multiple overlapping L0 files.
  ASSERT_GT(db->GetRecoveryStats().memtables_flushed, 1u);

  std::string value;
  for (int k = 0; k < 64; k++) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(k), &value).ok());
    EXPECT_EQ("v15", value) << k;
  }

  // Iterators must agree. (Scoped: iterators must not outlive the DB.)
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), n++) {
      EXPECT_EQ("v15", it->value().ToString());
    }
    EXPECT_EQ(64, n);
  }

  // And the state must stay correct after compaction merges the files.
  ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
  for (int k = 0; k < 64; k++) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(k), &value).ok());
    EXPECT_EQ("v15", value) << k;
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

// Deletions must also win by sequence across interleaved L0 files.
TEST(L0SequenceAwareness, DeletesAcrossShards) {
  std::string dbname = TestDir("l0del");
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());
  DBOptions options;
  options.wal_segments = 4;
  options.write_buffer_size = 64 << 20;

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    for (int k = 0; k < 32; k++) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), "key" + std::to_string(k), "live").ok());
    }
    for (int k = 0; k < 32; k += 2) {
      ASSERT_TRUE(db->Delete(WriteOptions(), "key" + std::to_string(k)).ok());
    }
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  for (int k = 0; k < 32; k++) {
    Status s = db->Get(ReadOptions(), "key" + std::to_string(k), &value);
    if (k % 2 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << k;
    } else {
      EXPECT_TRUE(s.ok()) << k;
    }
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

// Cloud GC regression: after heavy overwrites + full compaction, the bucket
// must not hold obsolete table objects (bytes stored ~ live tree size).
TEST(CloudGc, ObsoleteCloudTablesAreDeleted) {
  std::string dir = TestDir("cloudgc");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  model.delete_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions opt;  // kind = kRocksMash
  opt.local_dir = dir;
  opt.cloud = cloud.get();
  opt.cloud_level_start = 1;
  opt.write_buffer_size = 64 * 1024;
  opt.max_file_size = 64 * 1024;

  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(opt, &db).ok());

  // Three generations of full overwrites.
  for (int gen = 0; gen < 3; gen++) {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          "gen" + std::to_string(gen) + "-" +
                              std::string(100, 'x'))
                      .ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
    db->WaitForCompaction();
  }
  ASSERT_TRUE(db->db()->CompactRange(nullptr, nullptr).ok());

  auto stats = db->Stats();
  const uint64_t live = stats.storage.cloud_bytes;
  const uint64_t stored = cloud->BytesStored();
  // The bucket holds the live tree, not three generations of it.
  EXPECT_LE(stored, live + (64 << 10));
  EXPECT_GT(cloud->Counters().deletes, 0u);
  db.reset();
  std::filesystem::remove_all(dir);
}

// Block-cache persistence across table-reader eviction: with a 1-entry
// table cache, alternating reads between two SSTs forces constant reopen;
// the RAM block cache must still serve repeated blocks.
TEST(BlockCachePersistence, SurvivesTableReaderEviction) {
  std::string dir = TestDir("bcpersist");
  SchemeOptions options;
  options.kind = SchemeKind::kLocalOnly;
  options.local_dir = dir;
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.max_open_files = 1;
  options.block_cache_bytes = 4 << 20;

  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  for (int i = 0; i < 2000; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    ASSERT_TRUE(store->Put(WriteOptions(), buf, std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();

  // Alternate between far-apart keys (different SSTs) repeatedly.
  std::string value;
  for (int round = 0; round < 50; round++) {
    ASSERT_TRUE(store->Get(ReadOptions(), "key000010", &value).ok());
    ASSERT_TRUE(store->Get(ReadOptions(), "key001990", &value).ok());
  }
  auto stats = store->Stats();
  // Without number-keyed cache ids every reopen would miss; with them the
  // steady state is nearly all hits.
  EXPECT_GT(stats.block_cache.hits, 80u);
  store.reset();
  std::filesystem::remove_all(dir);
}

// Transient upload failures are absorbed by the retry loop: with every
// second request failing, installs still succeed (each Put is retried up
// to cloud_retry_attempts times).
TEST(UploadFaults, TransientFailuresRetried) {
  std::string dir = TestDir("uploadretry");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.cloud_retry_attempts = 3;
  ts.retry_clock = &clock;  // Virtual backoff: the test doesn't sleep.
  TieredTableStorage storage(ts);

  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  CloudFaultPolicy policy;
  policy.fail_every_n = 2;  // Every other request fails.
  injectable->SetFaultPolicy(policy);

  for (uint64_t n = 1; n <= 8; n++) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(storage.NewStagingFile(n, &f).ok());
    ASSERT_TRUE(f->Append(std::string(500, 'u')).ok());
    ASSERT_TRUE(f->Close().ok());
    EXPECT_TRUE(storage.Install(n, 0, 500, 400).ok()) << n;
  }
  EXPECT_GT(storage.RetriedUploads(), 0u);
  std::filesystem::remove_all(dir);
}

// Upload failure during install must surface as an error (and not publish
// the file), leaving the store consistent for retries.
TEST(UploadFaults, InstallFailureSurfaces) {
  std::string dir = TestDir("uploadfault");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  TieredTableStorage storage(ts);

  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(storage.NewStagingFile(1, &f).ok());
  ASSERT_TRUE(f->Append(std::string(1000, 'x')).ok());
  ASSERT_TRUE(f->Close().ok());

  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  CloudFaultPolicy policy;
  policy.unavailable = true;
  injectable->SetFaultPolicy(policy);

  Status s = storage.Install(1, 0, 1000, 900);
  EXPECT_FALSE(s.ok());

  // Clear the outage and retry: the staging file is still there.
  policy.unavailable = false;
  injectable->SetFaultPolicy(policy);
  EXPECT_TRUE(storage.Install(1, 0, 1000, 900).ok());
  std::unique_ptr<BlockSource> source;
  uint64_t size;
  EXPECT_TRUE(storage.OpenTable(1, &source, &size).ok());
  EXPECT_EQ(1000u, size);
  std::filesystem::remove_all(dir);
}

// YCSB A, E (scans), F (read-modify-write) end-to-end on RocksMash.
TEST(YcsbOnMash, WorkloadsAEF) {
  std::string dir = TestDir("ycsb_aef");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 2;
  model.put_first_byte_micros = 2;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kRocksMash;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.cloud_level_start = 1;

  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());

  YcsbSpec base;
  base.record_count = 2000;
  base.operation_count = 1500;
  base.value_size = 64;
  ASSERT_TRUE(YcsbLoad(store.get(), base).ok());
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();

  for (char w : {'A', 'E', 'F'}) {
    YcsbSpec spec = YcsbWorkload(w, base);
    YcsbResult r = YcsbRun(store.get(), spec);
    EXPECT_EQ(0u, r.errors) << w;
    EXPECT_GT(r.throughput_ops_sec, 0) << w;
    if (w == 'E') {
      EXPECT_GT(r.scan_latency_us.Count(), 0u);
    }
    if (w == 'F') {
      EXPECT_GT(r.rmw_latency_us.Count(), 0u);
    }
  }
  store.reset();
  std::filesystem::remove_all(dir);
}

// eWAL durability: after Sync() returns, a "crash" (no clean close) must
// preserve every synced record even though segments are striped.
TEST(EWalDurability, SyncedWritesSurviveAcrossSegments) {
  std::string dbname = TestDir("ewal_sync");
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());
  DBOptions options;
  options.wal_segments = 4;
  options.write_buffer_size = 8 << 20;

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    WriteOptions sync;
    sync.sync = true;
    for (int i = 0; i < 200; i++) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(db->Put(sync, "k" + n, "v" + n).ok());
    }
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(db->Get(ReadOptions(), "k" + n, &value).ok()) << i;
    EXPECT_EQ("v" + n, value);
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

}  // namespace
}  // namespace rocksmash
