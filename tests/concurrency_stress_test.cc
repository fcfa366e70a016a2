// Concurrency stress suite. Designed to run under ThreadSanitizer (the tsan
// CMake preset): every test drives genuinely concurrent traffic through a
// shared component so TSan can observe the full locking surface. The tests
// also assert functional invariants, so they are meaningful (if weaker)
// without a sanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/object_store.h"
#include "env/env.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "mash/metadata_store.h"
#include "mash/persistent_cache.h"
#include "trace/trace_tools.h"
#include "util/clock.h"
#include "util/prefix_extractor.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rocksmash {
namespace {

std::string TestDir(const char* suffix) {
  return ::testing::TempDir() + "/rocksmash_stress_" + suffix;
}

std::string KeyOf(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string ValueOf(uint64_t i, size_t len = 128) {
  std::string v = "value-" + std::to_string(i) + "-";
  while (v.size() < len) {
    v += static_cast<char>('a' + (i + v.size()) % 26);
  }
  return v;
}

// ---------- DB: writers + background compaction + readers ----------

TEST(ConcurrencyStressTest, WritersReadersAndCompaction) {
  const std::string dbname = TestDir("db");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;
  // Small buffers so the workload drives real flushes and compactions.
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.max_bytes_for_level_base = 256 * 1024;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr uint64_t kKeysPerWriter = 800;

  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders + 1);
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &write_errors, w] {
      WriteOptions wo;
      for (uint64_t i = 0; i < kKeysPerWriter; i++) {
        const uint64_t k = static_cast<uint64_t>(w) * kKeysPerWriter + i;
        if (!db->Put(wo, KeyOf(k), ValueOf(k)).ok()) {
          write_errors.fetch_add(1);
        }
        if (i % 97 == 0) {
          // Deletes exercise the tombstone path under compaction.
          if (!db->Delete(wo, KeyOf(k)).ok()) {
            write_errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&db, &stop_readers, &read_errors, r] {
      Random64 rng(1000 + static_cast<uint64_t>(r));
      while (!stop_readers.load(std::memory_order_acquire)) {
        const uint64_t k = rng.Uniform(kWriters * kKeysPerWriter);
        std::string value;
        Status s = db->Get(ReadOptions(), KeyOf(k), &value);
        if (!s.ok() && !s.IsNotFound()) {
          read_errors.fetch_add(1);
        }
        if (k % 11 == 0) {
          // Iterators pin memtables and versions concurrently with flushes.
          std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
          it->Seek(KeyOf(k));
          int steps = 0;
          while (it->Valid() && steps++ < 20) {
            it->Next();
          }
        }
      }
    });
  }
  // One thread hammers flush + compaction-wait while traffic is live.
  threads.emplace_back([&db, &stop_readers] {
    while (!stop_readers.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db->FlushMemTable().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (int w = 0; w < kWriters; w++) {
    threads[static_cast<size_t>(w)].join();
  }
  stop_readers.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); t++) {
    threads[t].join();
  }

  EXPECT_EQ(0u, write_errors.load());
  EXPECT_EQ(0u, read_errors.load());

  db->WaitForCompaction();

  // Survivors must read back exactly; deleted keys must stay deleted.
  for (uint64_t w = 0; w < kWriters; w++) {
    for (uint64_t i = 1; i < kKeysPerWriter; i += 137) {
      const uint64_t k = w * kKeysPerWriter + i;
      std::string value;
      Status s = db->Get(ReadOptions(), KeyOf(k), &value);
      if (i % 97 == 0) continue;  // May or may not have been deleted.
      ASSERT_TRUE(s.ok()) << KeyOf(k) << ": " << s.ToString();
      EXPECT_EQ(ValueOf(k), value);
    }
  }

  db.reset();
  std::filesystem::remove_all(dbname);
}

// ---------- DB: write groups racing flush + compaction ----------

// The parallel memtable-apply stage inserts into mem_ with the DB mutex
// released; memtable switches (flush) and version installs (compaction)
// must wait for in-flight appliers, never rip the memtable out from under
// them. Small buffers force switches to land mid-stream while N batched
// writers keep the pipeline full, and dedicated threads hammer
// FlushMemTable/CompactRange on top of the organic background work.
TEST(ConcurrencyStressTest, GroupCommitWritersVersusFlushAndCompaction) {
  const std::string dbname = TestDir("pipelined_writers");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;
  // Small enough that every writer sees several memtable switches.
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 64 * 1024;
  options.max_bytes_for_level_base = 256 * 1024;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 6;
  constexpr uint64_t kKeysPerWriter = 1200;
  constexpr int kBatchKeys = 8;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_errors{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &write_errors, w] {
      WriteOptions wo;
      uint64_t i = 0;
      while (i < kKeysPerWriter) {
        WriteBatch batch;
        for (int b = 0; b < kBatchKeys && i < kKeysPerWriter; b++, i++) {
          const uint64_t k = static_cast<uint64_t>(w) * kKeysPerWriter + i;
          batch.Put(KeyOf(k), ValueOf(k));
        }
        if (!db->Write(wo, &batch).ok()) {
          write_errors.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&db, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db->FlushMemTable().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  threads.emplace_back([&db, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db->CompactRange(nullptr, nullptr).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (int w = 0; w < kWriters; w++) {
    threads[static_cast<size_t>(w)].join();
  }
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); t++) {
    threads[t].join();
  }

  EXPECT_EQ(0u, write_errors.load());
  db->WaitForCompaction();

  // Every batch landed atomically despite the memtable churn.
  for (uint64_t w = 0; w < kWriters; w++) {
    for (uint64_t i = 0; i < kKeysPerWriter; i += 61) {
      const uint64_t k = w * kKeysPerWriter + i;
      std::string value;
      Status s = db->Get(ReadOptions(), KeyOf(k), &value);
      ASSERT_TRUE(s.ok()) << KeyOf(k) << ": " << s.ToString();
      EXPECT_EQ(ValueOf(k), value);
    }
  }

  db.reset();
  std::filesystem::remove_all(dbname);
}

// ---------- DB: flush lane racing the compaction lane ----------

// The two background lanes run concurrently: a memtable flush must be able
// to land while a compaction is mid-flight. The test drives enough traffic
// that both lanes are busy, polls the bg-jobs property to watch them, and
// asserts that WaitForCompaction() and the destructor drain both lanes.
TEST(ConcurrencyStressTest, FlushWhileCompactingDrainsBothLanes) {
  const std::string dbname = TestDir("two_lanes");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;
  // Tiny buffers: every few hundred writes flushes, and L0 fills fast
  // enough that compactions overlap the flushes.
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.max_bytes_for_level_base = 64 * 1024;
  options.max_background_flushes = 1;
  options.max_background_compactions = 1;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr uint64_t kKeys = 4000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> both_lanes_seen{0};
  std::atomic<uint64_t> any_lane_seen{0};

  // Observer: samples which lanes have a job in flight.
  std::thread observer([&db, &done, &both_lanes_seen, &any_lane_seen] {
    while (!done.load(std::memory_order_acquire)) {
      std::string jobs;
      if (db->GetProperty("rocksmash.bg-jobs", &jobs)) {
        const bool flush = jobs.find("flush=1") != std::string::npos;
        const bool compact = jobs.find("compaction=1") != std::string::npos;
        if (flush || compact) any_lane_seen.fetch_add(1);
        if (flush && compact) both_lanes_seen.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  WriteOptions wo;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(wo, KeyOf(i), ValueOf(i, 256)).ok());
  }
  done.store(true, std::memory_order_release);
  observer.join();

  // The workload kept the background lanes busy.
  EXPECT_GT(any_lane_seen.load(), 0u);

  // WaitForCompaction drains both lanes: no flush or compaction job left,
  // and nothing pending that would re-schedule one.
  db->WaitForCompaction();
  std::string jobs;
  ASSERT_TRUE(db->GetProperty("rocksmash.bg-jobs", &jobs));
  EXPECT_EQ("flush=0 compaction=0", jobs);

  // Every key survived the flush/compaction races.
  for (uint64_t i = 0; i < kKeys; i += 97) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(i), &value).ok()) << KeyOf(i);
    EXPECT_EQ(ValueOf(i, 256), value);
  }

  // Destructor drain: leave fresh work in both lanes (a non-empty memtable
  // and, likely, a compaction-worthy L0), then tear down. The destructor
  // must shut both pools down cleanly with jobs possibly mid-flight.
  for (uint64_t i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(wo, KeyOf(kKeys + i), ValueOf(kKeys + i, 256)).ok());
  }
  EXPECT_TRUE(db->FlushMemTable().ok());
  db.reset();

  // Reopen proves the teardown left a consistent store behind.
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(options, dbname, &reopened).ok());
  for (uint64_t i = 0; i < kKeys + 500; i += 113) {
    std::string value;
    ASSERT_TRUE(reopened->Get(ReadOptions(), KeyOf(i), &value).ok())
        << KeyOf(i);
    EXPECT_EQ(ValueOf(i, 256), value);
  }
  reopened.reset();
  std::filesystem::remove_all(dbname);
}

// ---------- DB: MultiGet batches racing flush/compaction/uploads ----------

// Batched readers hammer the parallel cloud-fetch path (superversion
// snapshot, per-file block grouping, shared fetch pool) while a writer keeps
// flushes, compactions, and async uploads churning underneath them. The
// writer always rewrites identical bytes, so every batched read must find
// every key with exactly its canonical value at any interleaving.
TEST(ConcurrencyStressTest, MultiGetRacesFlushAndCompaction) {
  const std::string dir = TestDir("multiget");
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;  // kind = kRocksMash
  options.local_dir = dir + "/db";
  options.cloud = cloud.get();
  options.cloud_level_start = 0;  // Every SST uploads: batches constantly
                                  // exercise the parallel fetch fan-out.
  options.cloud_readahead_bytes = 1024;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.max_bytes_for_level_base = 64 * 1024;
  options.block_size = 1024;
  options.local_cache_bytes = 32 * 1024;

  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(options, &db).ok());

  constexpr uint64_t kKeys = 1500;
  WriteOptions wo;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(wo, KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> value_mismatches{0};

  constexpr int kBatchReaders = 3;
  std::vector<std::thread> threads;
  threads.reserve(kBatchReaders + 1);
  for (int r = 0; r < kBatchReaders; r++) {
    threads.emplace_back([&db, &stop, &read_errors, &value_mismatches, r] {
      Random64 rng(500 + static_cast<uint64_t>(r));
      ReadOptions ro;
      std::vector<std::string> key_storage;
      std::vector<Slice> keys;
      std::vector<std::string> values;
      std::vector<Status> statuses;
      while (!stop.load(std::memory_order_acquire)) {
        key_storage.clear();
        keys.clear();
        for (int j = 0; j < 16; j++) {
          key_storage.push_back(KeyOf(rng.Uniform(kKeys)));
        }
        for (const std::string& k : key_storage) keys.emplace_back(k);
        db->MultiGet(ro, keys, &values, &statuses);
        for (size_t i = 0; i < keys.size(); i++) {
          if (!statuses[i].ok()) {
            read_errors.fetch_add(1);
          } else if (values[i] != ValueOf(std::stoull(
                         key_storage[i].substr(4)))) {
            value_mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Writer: identical-byte rewrites plus periodic flushes keep both
  // background lanes and the upload pipeline busy.
  threads.emplace_back([&db, &wo] {
    Random64 rng(31337);
    for (int i = 0; i < 3000; i++) {
      const uint64_t k = rng.Uniform(kKeys);
      EXPECT_TRUE(db->Put(wo, KeyOf(k), ValueOf(k)).ok());
      if (i % 400 == 399) {
        EXPECT_TRUE(db->FlushMemTable().ok());
      }
    }
  });

  threads.back().join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kBatchReaders; r++) {
    threads[static_cast<size_t>(r)].join();
  }

  EXPECT_EQ(0u, read_errors.load());
  EXPECT_EQ(0u, value_mismatches.load());

  db->WaitForCompaction();
  db.reset();
  std::filesystem::remove_all(dir);
}

// ---------- DB: scans racing flush, compaction, and cloud prefetch ----------

// Range scans (plain, prefix-mode, and streaming-readahead) run against a
// cloud-resident tree while a writer churns keys and forces flushes. The
// scans must always observe a sorted, consistent view: identical-byte
// rewrites mean any scanned value must equal the canonical one, keys must
// be strictly increasing, and errors must never appear. Under TSan this
// also races the async prefetch segments against iterator teardown.
TEST(ConcurrencyStressTest, ScansRaceFlushCompactionAndPrefetch) {
  const std::string dir = TestDir("scan");
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;  // kind = kRocksMash
  options.local_dir = dir + "/db";
  options.cloud = cloud.get();
  options.cloud_level_start = 0;  // Scans stream from cloud-resident SSTs.
  options.cloud_readahead_bytes = 0;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.max_bytes_for_level_base = 64 * 1024;
  options.block_size = 1024;
  options.local_cache_bytes = 16 * 1024;
  // "key-00".."key-99" buckets of KeyOf().
  options.prefix_extractor = NewFixedPrefixExtractor(6);

  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(options, &db).ok());

  constexpr uint64_t kKeys = 1500;
  WriteOptions wo;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(wo, KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scan_errors{0};
  std::atomic<uint64_t> order_violations{0};
  std::atomic<uint64_t> value_mismatches{0};

  constexpr int kScanners = 3;
  std::vector<std::thread> threads;
  threads.reserve(kScanners + 1);
  for (int r = 0; r < kScanners; r++) {
    threads.emplace_back([&db, &stop, &scan_errors, &order_violations,
                          &value_mismatches, r] {
      Random64 rng(900 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        ReadOptions ro;
        const int mode = static_cast<int>(rng.Uniform(3));
        ro.scan_readahead_bytes = (mode == 0) ? 0 : 64 * 1024;
        ro.prefix_same_as_start = (mode == 2);
        const uint64_t start = rng.Uniform(kKeys);
        std::unique_ptr<Iterator> it = db->NewIterator(ro);
        it->Seek(KeyOf(start));
        std::string prev;
        int steps = 0;
        while (it->Valid() && steps++ < 200) {
          const std::string key = it->key().ToString();
          if (!prev.empty() && key <= prev) order_violations.fetch_add(1);
          // Identical-byte rewrites: every value equals the canonical one.
          if (it->value().ToString() != ValueOf(std::stoull(key.substr(4)))) {
            value_mismatches.fetch_add(1);
          }
          if (ro.prefix_same_as_start &&
              key.substr(0, 6) != KeyOf(start).substr(0, 6)) {
            order_violations.fetch_add(1);
          }
          prev = key;
          it->Next();
        }
        if (!it->status().ok()) scan_errors.fetch_add(1);
      }
    });
  }
  // Writer: identical-byte rewrites plus periodic flushes keep flushes,
  // compactions, and the upload pipeline landing mid-scan.
  threads.emplace_back([&db, &wo] {
    Random64 rng(424242);
    for (int i = 0; i < 3000; i++) {
      const uint64_t k = rng.Uniform(kKeys);
      EXPECT_TRUE(db->Put(wo, KeyOf(k), ValueOf(k)).ok());
      if (i % 400 == 399) {
        EXPECT_TRUE(db->FlushMemTable().ok());
      }
    }
  });

  threads.back().join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kScanners; r++) {
    threads[static_cast<size_t>(r)].join();
  }

  EXPECT_EQ(0u, scan_errors.load());
  EXPECT_EQ(0u, order_violations.load());
  EXPECT_EQ(0u, value_mismatches.load());

  db->WaitForCompaction();
  db.reset();
  std::filesystem::remove_all(dir);
}

// ---------- DB: point Gets racing scans on shared cold cloud tables ----------

// Point Gets (one-key batches through CloudBlockSource::ReadBlocks), MultiGet
// batches and streaming forward scans (ReadBlock's readahead window plus
// async Prefetch segments) share one CloudBlockSource per table, with a RAM
// block cache and persistent cache small enough that every path keeps
// reaching the cloud and the source's one segment list, which all three
// fill. The tree is fixed, so
// the model is exact: every loaded key reads back its canonical value, keys
// past the loaded range are NotFound, and a scan from key i visits i, i+1,
// ... with no gap.
TEST(ConcurrencyStressTest, PointGetsRaceScansOnColdCloudTables) {
  const std::string dir = TestDir("getscan");
  std::filesystem::remove_all(dir);

  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;  // kind = kRocksMash
  options.local_dir = dir + "/db";
  options.cloud = cloud.get();
  options.cloud_level_start = 0;
  options.cloud_readahead_bytes = 16 * 1024;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.block_size = 1024;
  options.block_cache_bytes = 16 * 1024;
  options.local_cache_bytes = 16 * 1024;

  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(options, &db).ok());
  constexpr uint64_t kKeys = 1500;
  WriteOptions wo;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(wo, KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->db()->CompactRange(nullptr, nullptr).ok());
  db->WaitForCompaction();
  const uint64_t gets_before = cloud->Counters().gets;

  constexpr int kGetters = 2;
  constexpr int kScanners = 2;
  // Scanners run until the Get threads and the MultiGet thread finish.
  std::atomic<int> getters_running{kGetters + 1};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kGetters + kScanners + 1);
  for (int g = 0; g < kGetters; g++) {
    threads.emplace_back([&, g] {
      Random64 rng(700 + static_cast<uint64_t>(g));
      std::string value;
      for (int i = 0; i < 3000; i++) {
        // One in eight probes a key past the loaded range.
        const uint64_t k = rng.Uniform(kKeys + kKeys / 7);
        Status s = db->Get(ReadOptions(), KeyOf(k), &value);
        if (k >= kKeys) {
          if (!s.IsNotFound()) mismatches.fetch_add(1);
        } else if (!s.ok()) {
          errors.fetch_add(1);
        } else if (value != ValueOf(k)) {
          mismatches.fetch_add(1);
        }
      }
      getters_running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    Random64 rng(777);
    std::vector<std::string> key_storage;
    std::vector<Slice> keys;
    std::vector<std::string> values;
    std::vector<Status> statuses;
    for (int b = 0; b < 300; b++) {
      key_storage.clear();
      keys.clear();
      for (int j = 0; j < 8; j++) {
        key_storage.push_back(KeyOf(rng.Uniform(kKeys)));
      }
      for (const std::string& k : key_storage) keys.emplace_back(k);
      db->MultiGet(ReadOptions(), keys, &values, &statuses);
      for (size_t i = 0; i < keys.size(); i++) {
        if (!statuses[i].ok()) {
          errors.fetch_add(1);
        } else if (values[i] !=
                   ValueOf(std::stoull(key_storage[i].substr(4)))) {
          mismatches.fetch_add(1);
        }
      }
    }
    getters_running.fetch_sub(1);
  });
  for (int r = 0; r < kScanners; r++) {
    threads.emplace_back([&, r] {
      Random64 rng(800 + static_cast<uint64_t>(r));
      ReadOptions ro;
      ro.scan_readahead_bytes = 64 * 1024;
      while (getters_running.load() > 0) {
        const uint64_t start = rng.Uniform(kKeys);
        std::unique_ptr<Iterator> it = db->NewIterator(ro);
        uint64_t expect = start;
        for (it->Seek(KeyOf(start)); it->Valid() && expect < start + 300;
             it->Next(), expect++) {
          if (it->key().ToString() != KeyOf(expect) ||
              it->value().ToString() != ValueOf(expect)) {
            mismatches.fetch_add(1);
            break;
          }
        }
        if (!it->status().ok()) errors.fetch_add(1);
        if (!it->Valid() && it->status().ok() && expect != kKeys) {
          mismatches.fetch_add(1);  // ended early: a gap in the scan
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(0u, errors.load());
  EXPECT_EQ(0u, mismatches.load());
  // The reads were cold: they reached the cloud during the race.
  EXPECT_GT(cloud->Counters().gets, gets_before);
  db.reset();
  std::filesystem::remove_all(dir);
}

// ---------- ShardedDB: writers + scans + MultiGet racing shard flushes ----------

// Batched writers, merged cross-shard scans, and per-shard-grouped MultiGet
// batches all race a thread that hammers FlushMemTable (which broadcasts to
// every shard) and CompactRange on a 4-shard router whose shards share one
// block cache, one Statistics, and one flush/compaction lane pair. The
// writers always rewrite identical bytes, so any read — point, batched, or
// merged scan — must see exactly the canonical value at any interleaving,
// and merged scans must stay globally sorted while shard flushes land
// underneath the per-shard child iterators.
TEST(ConcurrencyStressTest, ShardedWritersScansMultiGetRaceShardFlushes) {
  const std::string name = TestDir("sharded");
  std::filesystem::remove_all(name);

  DBOptions base;
  base.create_if_missing = true;
  // Small enough that the flush broadcast always finds a non-trivial
  // memtable on some shard.
  base.write_buffer_size = 64 * 1024;
  base.max_file_size = 32 * 1024;
  base.max_bytes_for_level_base = 128 * 1024;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &db).ok());

  constexpr uint64_t kKeys = 1200;
  WriteOptions wo;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(wo, KeyOf(i), ValueOf(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> value_mismatches{0};
  std::atomic<uint64_t> order_violations{0};

  std::vector<std::thread> threads;
  threads.reserve(2 + 2 + 2 + 1);
  // Writers: multi-shard batches of identical-byte rewrites, so the router
  // splits nearly every batch while readers race the sub-batch commits.
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&db, &errors, &wo, w] {
      Random64 rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < 1500; i++) {
        WriteBatch batch;
        for (int b = 0; b < 8; b++) {
          const uint64_t k = rng.Uniform(kKeys);
          batch.Put(KeyOf(k), ValueOf(k));
        }
        if (!db->Write(wo, &batch).ok()) errors.fetch_add(1);
      }
    });
  }
  // Merged cross-shard scans.
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&db, &stop, &errors, &order_violations,
                          &value_mismatches, r] {
      Random64 rng(300 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        std::unique_ptr<Iterator> it = db->NewIterator(ReadOptions());
        it->Seek(KeyOf(rng.Uniform(kKeys)));
        std::string prev;
        int steps = 0;
        while (it->Valid() && steps++ < 100) {
          const std::string key = it->key().ToString();
          if (!prev.empty() && key <= prev) order_violations.fetch_add(1);
          if (it->value().ToString() !=
              ValueOf(std::stoull(key.substr(4)))) {
            value_mismatches.fetch_add(1);
          }
          prev = key;
          it->Next();
        }
        if (!it->status().ok()) errors.fetch_add(1);
      }
    });
  }
  // MultiGet batches that fan out over every shard.
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&db, &stop, &errors, &value_mismatches, r] {
      Random64 rng(500 + static_cast<uint64_t>(r));
      std::vector<std::string> key_storage;
      std::vector<Slice> keys;
      std::vector<std::string> values;
      std::vector<Status> statuses;
      while (!stop.load(std::memory_order_acquire)) {
        key_storage.clear();
        keys.clear();
        for (int j = 0; j < 16; j++) {
          key_storage.push_back(KeyOf(rng.Uniform(kKeys)));
        }
        for (const std::string& k : key_storage) keys.emplace_back(k);
        db->MultiGet(ReadOptions(), keys, &values, &statuses);
        for (size_t i = 0; i < keys.size(); i++) {
          if (!statuses[i].ok()) {
            errors.fetch_add(1);
          } else if (values[i] !=
                     ValueOf(std::stoull(key_storage[i].substr(4)))) {
            value_mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Flush broadcasts + full-range compactions race everything above.
  threads.emplace_back([&db, &stop] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(db->FlushMemTable().ok());
      if (++round % 5 == 0) {
        EXPECT_TRUE(db->CompactRange(nullptr, nullptr).ok());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int w = 0; w < 2; w++) {
    threads[static_cast<size_t>(w)].join();
  }
  stop.store(true, std::memory_order_release);
  for (size_t t = 2; t < threads.size(); t++) {
    threads[t].join();
  }

  EXPECT_EQ(0u, errors.load());
  EXPECT_EQ(0u, value_mismatches.load());
  EXPECT_EQ(0u, order_violations.load());

  db->WaitForCompaction();
  // Teardown races nothing: the shared lanes drain before the shards die.
  db.reset();

  // Reopen proves every shard's WAL + manifest survived the churn.
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(ShardedDB::Open(base, name, 4, &reopened).ok());
  for (uint64_t i = 0; i < kKeys; i += 53) {
    std::string value;
    ASSERT_TRUE(reopened->Get(ReadOptions(), KeyOf(i), &value).ok())
        << KeyOf(i);
    EXPECT_EQ(ValueOf(i), value);
  }
  reopened.reset();
  std::filesystem::remove_all(name);
}

// ---------- PersistentCache: insert / lookup / evict / invalidate ----------

TEST(ConcurrencyStressTest, PersistentCacheInsertLookupEvict) {
  const std::string dir = TestDir("pcache");
  std::filesystem::remove_all(dir);

  PersistentCacheOptions options;
  options.dir = dir;
  // Tiny budget so concurrent Puts constantly evict.
  options.capacity_bytes = 64 * 1024;

  PersistentCache cache(options);

  constexpr int kThreads = 6;
  constexpr uint64_t kSsts = 8;
  constexpr uint64_t kBlocksPerSst = 32;
  constexpr size_t kBlockSize = 1024;

  std::atomic<uint64_t> bad_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, &bad_hits, t] {
      Random64 rng(77 + static_cast<uint64_t>(t));
      for (int op = 0; op < 2000; op++) {
        const uint64_t sst = rng.Uniform(kSsts);
        const uint64_t offset = rng.Uniform(kBlocksPerSst) * kBlockSize;
        const std::string expect =
            ValueOf(sst * 1000 + offset, kBlockSize);
        std::string got;
        if (cache.GetBlock(sst, offset, &got)) {
          // A hit must return exactly the bytes some thread inserted.
          if (got != expect) {
            bad_hits.fetch_add(1);
          }
        } else {
          cache.PutBlock(sst, offset, expect);
        }
      }
    });
  }
  // Concurrent compaction-driven invalidation of whole SSTs.
  threads.emplace_back([&cache] {
    Random64 rng(991);
    for (int i = 0; i < 100; i++) {
      cache.Invalidate(rng.Uniform(kSsts));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(0u, bad_hits.load());
  PersistentCacheStats stats = cache.GetStats();
  // The frequency gate both admitted and refused blocks while Invalidate
  // raced it.
  EXPECT_GT(stats.admissions, 0u);
  EXPECT_GT(stats.admit_rejected, 0u);
  EXPECT_LE(stats.data_bytes, options.capacity_bytes);
  std::filesystem::remove_all(dir);
}

// Same traffic against the global-log layout: eviction + log GC under
// concurrency.
TEST(ConcurrencyStressTest, PersistentCacheGlobalLogLayout) {
  const std::string dir = TestDir("pcache_log");
  std::filesystem::remove_all(dir);

  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 64 * 1024;
  options.layout = CacheLayout::kGlobalLog;
  options.log_file_bytes = 16 * 1024;

  PersistentCache cache(options);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, t] {
      Random64 rng(13 + static_cast<uint64_t>(t));
      for (int op = 0; op < 1000; op++) {
        const uint64_t sst = rng.Uniform(4);
        const uint64_t offset = rng.Uniform(64) * 512;
        std::string got;
        if (!cache.GetBlock(sst, offset, &got)) {
          cache.PutBlock(sst, offset, ValueOf(sst + offset, 512));
        }
        if (op % 251 == 0) {
          cache.Invalidate(sst);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  PersistentCacheStats stats = cache.GetStats();
  EXPECT_LE(stats.data_bytes, options.capacity_bytes);
  std::filesystem::remove_all(dir);
}

// ---------- MetadataStore: mutation during parallel recovery ----------

TEST(ConcurrencyStressTest, MetadataStoreConcurrentAdmitReadInvalidate) {
  const std::string dir = TestDir("meta");
  std::filesystem::remove_all(dir);
  Env* env = Env::Default();

  MetadataStore store(env, dir);

  // Parallel recovery replays segments through a pool while the foreground
  // keeps admitting and invalidating slabs — the exact overlap the store
  // sees when a flush races the recovery fan-out.
  constexpr uint64_t kSsts = 64;
  ThreadPool pool(4, "meta-recovery");
  std::atomic<uint64_t> mismatches{0};

  for (uint64_t sst = 0; sst < kSsts; sst++) {
    pool.Schedule([&store, &mismatches, sst] {
      const std::string tail = ValueOf(sst, 512);
      EXPECT_TRUE(store.Admit(sst, 4096, 4096 + tail.size(), tail).ok());
      std::string got;
      if (store.Read(sst, 4096, tail.size(), &got) && got != tail) {
        mismatches.fetch_add(1);
      }
    });
  }
  // Foreground mutation racing the recovery fan-out.
  std::thread mutator([&store, &mismatches] {
    Random64 rng(5);
    for (int i = 0; i < 500; i++) {
      const uint64_t sst = rng.Uniform(kSsts);
      switch (rng.Uniform(3)) {
        case 0:
          store.Invalidate(sst);
          break;
        case 1: {
          const std::string tail = ValueOf(sst, 512);
          // why unchecked: re-admission racing Invalidate may be rejected;
          // that churn is the point of the stress, not a failure.
          store.Admit(sst, 4096, 4096 + tail.size(), tail)
              .PermitUncheckedError();
          break;
        }
        default: {
          std::string got;
          if (store.Read(sst, 4096, 512, &got) &&
              got != ValueOf(sst, 512)) {
            mismatches.fetch_add(1);
          }
          break;
        }
      }
    }
  });

  pool.WaitIdle();
  mutator.join();
  pool.Shutdown();

  EXPECT_EQ(0u, mismatches.load());

  // Whatever survived the races must be re-indexed intact after "restart".
  MetadataStoreStats before = store.GetStats();
  MetadataStore reopened(env, dir);
  MetadataStoreStats after = reopened.GetStats();
  EXPECT_EQ(before.slabs, after.slabs);
  for (uint64_t sst = 0; sst < kSsts; sst++) {
    std::string got;
    if (reopened.Read(sst, 4096, 512, &got)) {
      EXPECT_EQ(ValueOf(sst, 512), got) << "sst " << sst;
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------- ThreadPool: submit during shutdown ----------

TEST(ConcurrencyStressTest, ThreadPoolSubmitDuringShutdown) {
  for (int round = 0; round < 20; round++) {
    ThreadPool pool(3);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> stop{false};

    std::vector<std::thread> producers;
    producers.reserve(3);
    for (int p = 0; p < 3; p++) {
      producers.emplace_back([&pool, &executed, &accepted, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
          if (pool.Schedule([&executed] { executed.fetch_add(1); })) {
            accepted.fetch_add(1);
          } else {
            break;  // Pool is shutting down; no further submissions land.
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.Shutdown();  // Races the producers on purpose.
    stop.store(true, std::memory_order_release);
    for (auto& t : producers) {
      t.join();
    }
    // Shutdown drains the queue: every accepted task ran, none was lost.
    EXPECT_EQ(accepted.load(), executed.load()) << "round " << round;
  }
}

// ---------- Tracing: capture under churn, EndTrace racing traffic ----------

// 8 op threads (4 writers, 4 readers, some with iterators) run against
// flush + compaction churn while a trace captures everything; EndTrace is
// called from the main thread while the op threads are still issuing, so the
// per-thread buffers, the tracer's active flag, and the span hub all race
// real traffic. The resulting file must still parse cleanly end to end.
TEST(ConcurrencyStressTest, TraceCaptureUnderChurn) {
  const std::string dbname = TestDir("trace_churn");
  std::filesystem::remove_all(dbname);
  const std::string trace_path = dbname + "/churn.trace";

  DBOptions options;
  options.create_if_missing = true;
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.max_bytes_for_level_base = 256 * 1024;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  trace::TraceOptions topts;
  topts.trace_spans = true;
  ASSERT_TRUE(db->StartTrace(topts, trace_path).ok());

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr uint64_t kKeysPerWriter = 600;
  std::atomic<bool> stop_readers{false};
  std::atomic<uint64_t> errors{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &errors, w] {
      WriteOptions wo;
      for (uint64_t i = 0; i < kKeysPerWriter; i++) {
        const uint64_t k = static_cast<uint64_t>(w) * kKeysPerWriter + i;
        if (!db->Put(wo, KeyOf(k), ValueOf(k)).ok()) errors.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&db, &stop_readers, &errors, r] {
      ReadOptions ro;
      uint64_t i = 0;
      while (!stop_readers.load(std::memory_order_acquire)) {
        if (r % 2 == 0) {
          std::string value;
          Status s =
              db->Get(ro, KeyOf(i++ % (kWriters * kKeysPerWriter)), &value);
          if (!s.ok() && !s.IsNotFound()) errors.fetch_add(1);
        } else {
          auto it = db->NewIterator(ro);
          it->Seek(KeyOf(i++ % (kWriters * kKeysPerWriter)));
          for (int j = 0; j < 8 && it->Valid(); j++) it->Next();
          if (!it->status().ok()) errors.fetch_add(1);
        }
      }
    });
  }

  // End the capture while every op thread is still running: records issued
  // after the active flag drops are silently not recorded, never torn.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(db->EndTrace().ok());

  for (int w = 0; w < kWriters; w++) threads[w].join();
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();
  stop_readers.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); t++) threads[t].join();
  EXPECT_EQ(errors.load(), 0u);

  // The racily-ended capture is a complete, parseable trace.
  trace::TraceStats stats;
  ASSERT_TRUE(
      trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  EXPECT_GT(stats.total_records, 0u);

  // A second capture on the same DB sees the post-churn traffic.
  ASSERT_TRUE(db->StartTrace(topts, dbname + "/second.trace").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "after-churn", "v").ok());
  ASSERT_TRUE(db->EndTrace().ok());
  ASSERT_TRUE(trace::TraceFileStats(Env::Default(), dbname + "/second.trace",
                                    &stats)
                  .ok());
  EXPECT_EQ(stats.op_counts[trace::kTracePut], 1u);
}

}  // namespace
}  // namespace rocksmash
