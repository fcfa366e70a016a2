// Tests for the unified observability layer (ISSUE 3):
//   - Statistics tickers: naming, counting, monotonicity, reset;
//   - HistogramImpl: correctness under concurrent writers (tsan target);
//   - PerfContext: thread-local isolation and level gating;
//   - EventListener: flush/compaction/recovery (engine), upload
//     completed/failed/parked (tiered storage), cache eviction (pcache);
//   - Prometheus text exposition format validity;
//   - full-stack acceptance: a mixed workload on a RocksMash rig produces
//     non-zero persistent-cache hits, cloud GETs, and per-lane compaction
//     bytes (the ISSUE acceptance criteria).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/object_store.h"
#include "env/env.h"
#include "mash/persistent_cache.h"
#include "mash/placement.h"
#include "util/clock.h"
#include "util/event_listener.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/random.h"

namespace rocksmash {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/rocksmash_metrics_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Counts every callback; thread-safe per the EventListener contract.
class CountingListener : public EventListener {
 public:
  void OnFlushCompleted(const FlushJobInfo& info) override {
    flushes++;
    if (info.file_size > 0) nonempty_flushes++;
  }
  void OnCompactionCompleted(const CompactionJobInfo& info) override {
    compactions++;
    compaction_bytes_written += info.bytes_written;
    if (info.trivial_move) trivial_moves++;
  }
  void OnUploadCompleted(const UploadJobInfo& info) override {
    uploads_completed++;
    std::lock_guard<std::mutex> l(mu);
    last_completed = info;
  }
  void OnUploadFailed(const UploadJobInfo& info) override {
    uploads_failed++;
    std::lock_guard<std::mutex> l(mu);
    last_failed = info;
  }
  void OnUploadParked(const UploadJobInfo& /*info*/) override {
    uploads_parked++;
  }
  void OnCacheEviction(const CacheEvictionInfo& info) override {
    evictions++;
    evicted_bytes += info.evicted_bytes;
  }
  void OnRecoveryPhase(const RecoveryPhaseInfo& info) override {
    std::lock_guard<std::mutex> l(mu);
    recovery_phases.push_back(info.phase);
    recovery_items += info.items;
  }

  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> nonempty_flushes{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_bytes_written{0};
  std::atomic<uint64_t> trivial_moves{0};
  std::atomic<uint64_t> uploads_completed{0};
  std::atomic<uint64_t> uploads_failed{0};
  std::atomic<uint64_t> uploads_parked{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> evicted_bytes{0};

  std::mutex mu;
  UploadJobInfo last_completed;
  UploadJobInfo last_failed;
  std::vector<std::string> recovery_phases;
  uint64_t recovery_items = 0;
};

TEST(Statistics, TickerAndHistogramNamesAreUniqueAndDotted) {
  std::vector<std::string> seen;
  for (uint32_t t = 0; t < TICKER_ENUM_MAX; t++) {
    std::string name = TickerName(t);
    EXPECT_NE("unknown", name) << "ticker " << t;
    for (char c : name) {
      EXPECT_TRUE((std::islower(static_cast<unsigned char>(c)) != 0) ||
                  c == '.' || std::isdigit(static_cast<unsigned char>(c)))
          << "ticker name '" << name << "' has char '" << c << "'";
    }
    for (const std::string& prev : seen) EXPECT_NE(prev, name);
    seen.push_back(name);
  }
  seen.clear();
  for (uint32_t h = 0; h < HISTOGRAM_ENUM_MAX; h++) {
    std::string name = HistogramName(h);
    EXPECT_NE("unknown", name) << "histogram " << h;
    for (const std::string& prev : seen) EXPECT_NE(prev, name);
    seen.push_back(name);
  }
  EXPECT_STREQ("unknown", TickerName(TICKER_ENUM_MAX));
  EXPECT_STREQ("unknown", HistogramName(HISTOGRAM_ENUM_MAX));
}

TEST(Statistics, RecordTickCountsAndResets) {
  auto stats = CreateDBStatistics();
  EXPECT_EQ(0u, stats->GetTickerCount(CLOUD_GET_COUNT));
  stats->RecordTick(CLOUD_GET_COUNT);
  stats->RecordTick(CLOUD_GET_COUNT, 41);
  EXPECT_EQ(42u, stats->GetTickerCount(CLOUD_GET_COUNT));
  stats->RecordInHistogram(GET_LATENCY_US, 7.0);
  EXPECT_EQ(1u, stats->GetHistogramSnapshot(GET_LATENCY_US).Count());

  // Out-of-range indices are ignored, not UB.
  stats->RecordTick(TICKER_ENUM_MAX + 5);
  EXPECT_EQ(0u, stats->GetTickerCount(TICKER_ENUM_MAX + 5));
  stats->RecordInHistogram(HISTOGRAM_ENUM_MAX + 5, 1.0);

  stats->Reset();
  EXPECT_EQ(0u, stats->GetTickerCount(CLOUD_GET_COUNT));
  EXPECT_EQ(0u, stats->GetHistogramSnapshot(GET_LATENCY_US).Count());
}

TEST(Statistics, NullSafeHelpersNoOp) {
  RecordTick(nullptr, NUM_KEYS_READ);
  RecordInHistogram(nullptr, GET_LATENCY_US, 1.0);
  StopWatch sw(nullptr, GET_LATENCY_US);
  EXPECT_EQ(0u, sw.ElapsedMicros());
}

// 8 writer threads hammer one Statistics object: ticker totals and histogram
// counts must be exact, and percentiles must be inside the recorded value
// range. Runs under the tsan preset as the concurrency proof.
TEST(Statistics, ConcurrentWritersAreExact) {
  auto stats = CreateDBStatistics();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPerThread; i++) {
        stats->RecordTick(NUM_KEYS_WRITTEN);
        stats->RecordTick(WAL_BYTES, 10);
        // Values span [1, 1000] across threads.
        stats->RecordInHistogram(WRITE_LATENCY_US,
                                 1.0 + ((t * kPerThread + i) % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(uint64_t{kThreads} * kPerThread,
            stats->GetTickerCount(NUM_KEYS_WRITTEN));
  EXPECT_EQ(uint64_t{kThreads} * kPerThread * 10,
            stats->GetTickerCount(WAL_BYTES));

  Histogram snap = stats->GetHistogramSnapshot(WRITE_LATENCY_US);
  EXPECT_EQ(uint64_t{kThreads} * kPerThread, snap.Count());
  EXPECT_GE(snap.Percentile(50), 1.0);
  EXPECT_LE(snap.Percentile(50), 1000.0);
  EXPECT_GE(snap.Percentile(99), snap.Percentile(50));
  EXPECT_LE(snap.Percentile(99), 1000.0);
}

TEST(HistogramImplTest, SnapshotMergesStripes) {
  HistogramImpl hist;
  for (int i = 1; i <= 100; i++) hist.Add(static_cast<double>(i));
  EXPECT_EQ(100u, hist.Count());
  Histogram snap = hist.Snapshot();
  EXPECT_EQ(100u, snap.Count());
  EXPECT_NEAR(50.5, snap.Average(), 1.0);
  hist.Clear();
  EXPECT_EQ(0u, hist.Count());
}

// Two threads with different PerfLevels: counters land only on the thread
// that enabled them, and never leak across threads.
TEST(PerfContextTest, ThreadIsolationAndLevelGating) {
  // This thread: disabled — nothing is recorded.
  SetPerfLevel(PerfLevel::kDisable);
  GetPerfContext()->Reset();
  PerfCount(&PerfContext::get_count);
  EXPECT_EQ(0u, GetPerfContext()->get_count);

  uint64_t other_count = 0;
  std::thread other([&other_count] {
    SetPerfLevel(PerfLevel::kEnableCount);
    GetPerfContext()->Reset();
    PerfCount(&PerfContext::get_count);
    PerfCount(&PerfContext::cloud_read_bytes, 4096);
    other_count = GetPerfContext()->get_count;
    EXPECT_EQ(4096u, GetPerfContext()->cloud_read_bytes);
    EXPECT_NE(std::string::npos,
              GetPerfContext()->ToString().find("get_count = 1"));
  });
  other.join();

  EXPECT_EQ(1u, other_count);
  // The other thread's activity did not touch this thread's context.
  EXPECT_EQ(0u, GetPerfContext()->get_count);
  EXPECT_EQ(0u, GetPerfContext()->cloud_read_bytes);

  // ToString of an all-zero context is empty.
  GetPerfContext()->Reset();
  EXPECT_TRUE(GetPerfContext()->ToString().empty());
}

// Validates Prometheus text exposition format: every line is a "# HELP",
// "# TYPE", or a sample "<name>[{labels}] <value>" with a legal metric name
// and a parseable number; every declared counter for a non-zero ticker shows
// up with the right value.
TEST(Statistics, PrometheusDumpIsValidTextFormat) {
  auto stats = CreateDBStatistics();
  stats->RecordTick(CLOUD_GET_COUNT, 3);
  stats->RecordTick(PERSISTENT_CACHE_HIT, 17);
  for (int i = 1; i <= 10; i++) {
    stats->RecordInHistogram(GET_LATENCY_US, static_cast<double>(i));
  }

  const std::string dump = stats->DumpPrometheus();
  ASSERT_FALSE(dump.empty());
  ASSERT_EQ('\n', dump.back()) << "exposition must end with a newline";

  auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    for (char c : name) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')) {
        return false;
      }
    }
    return !std::isdigit(static_cast<unsigned char>(name[0]));
  };

  std::istringstream in(dump);
  std::string line;
  int samples = 0, type_lines = 0;
  bool saw_cloud_get = false, saw_pcache_hit = false, saw_get_latency = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      // "# TYPE <name> <counter|summary|gauge|...>".
      std::istringstream ts(line.substr(7));
      std::string name, kind;
      ASSERT_TRUE(static_cast<bool>(ts >> name >> kind)) << line;
      EXPECT_TRUE(valid_name(name)) << line;
      type_lines++;
      continue;
    }
    ASSERT_NE('#', line[0]) << "unknown comment form: " << line;
    // Sample line: name, optional {labels}, space, float value.
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(std::string::npos, name_end) << line;
    EXPECT_TRUE(valid_name(line.substr(0, name_end))) << line;
    size_t value_pos;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      ASSERT_NE(std::string::npos, close) << line;
      ASSERT_EQ(' ', line[close + 1]) << line;
      value_pos = close + 2;
    } else {
      value_pos = name_end + 1;
    }
    char* end = nullptr;
    const std::string value_str = line.substr(value_pos);
    std::strtod(value_str.c_str(), &end);
    EXPECT_EQ(value_str.c_str() + value_str.size(), end)
        << "unparseable value in: " << line;
    samples++;

    if (line == "rocksmash_cloud_get_count 3") saw_cloud_get = true;
    if (line == "rocksmash_pcache_hit 17") saw_pcache_hit = true;
    if (line.rfind("rocksmash_get_latency_us", 0) == 0) {
      saw_get_latency = true;
    }
  }
  EXPECT_GT(samples, 0);
  EXPECT_GT(type_lines, 0);
  EXPECT_TRUE(saw_cloud_get) << dump;
  EXPECT_TRUE(saw_pcache_hit) << dump;
  EXPECT_TRUE(saw_get_latency) << dump;
}

// Flush, compaction, and recovery listeners fire from the engine with
// plausible payloads, on any scheme (kLocalOnly keeps the cloud out of it).
TEST(EventListeners, FlushCompactionAndRecoveryFire) {
  std::string dir = TestDir("listener_engine");
  CountingListener listener;

  SchemeOptions options;
  options.kind = SchemeKind::kLocalOnly;
  options.local_dir = dir;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.max_bytes_for_level_base = 64 * 1024;
  options.listeners.push_back(&listener);

  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());

  Random64 rng(11);
  const std::string value(512, 'v');
  for (int i = 0; i < 800; i++) {
    std::string key = "key" + std::to_string(rng.Uniform(400));
    ASSERT_TRUE(store->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();

  EXPECT_GT(listener.flushes.load(), 0u);
  EXPECT_GT(listener.nonempty_flushes.load(), 0u);
  EXPECT_GT(listener.compactions.load(), 0u);
  // Trivial moves report zero bytes written; real compactions report > 0.
  if (listener.compactions.load() > listener.trivial_moves.load()) {
    EXPECT_GT(listener.compaction_bytes_written.load(), 0u);
  }
  // Recovery phases fire on every open (a fresh one replays zero records).
  size_t phases_after_fresh_open;
  {
    std::lock_guard<std::mutex> l(listener.mu);
    phases_after_fresh_open = listener.recovery_phases.size();
    EXPECT_GT(phases_after_fresh_open, 0u);
  }

  // Reopen: recovery phases fire again, replaying the unflushed tail.
  const std::string tail_key = "tail";
  ASSERT_TRUE(store->Put(WriteOptions(), tail_key, value).ok());
  store.reset();
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  {
    std::lock_guard<std::mutex> l(listener.mu);
    ASSERT_EQ(phases_after_fresh_open + 2, listener.recovery_phases.size());
    EXPECT_EQ("wal-replay",
              listener.recovery_phases[phases_after_fresh_open]);
    EXPECT_EQ("memtable-flush",
              listener.recovery_phases[phases_after_fresh_open + 1]);
    EXPECT_GT(listener.recovery_items, 0u);
  }
  std::string got;
  EXPECT_TRUE(store->Get(ReadOptions(), tail_key, &got).ok());
  store.reset();
  std::filesystem::remove_all(dir);
}

// Upload listeners: a healthy upload fires exactly OnUploadCompleted; an
// outage fires OnUploadFailed + OnUploadParked after exhausting retries.
// Ticker counts move in lockstep with the callbacks.
TEST(EventListeners, UploadCompletedAndParkedFire) {
  std::string dir = TestDir("listener_upload");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);
  auto stats = CreateDBStatistics();
  CountingListener listener;

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.async_uploads = true;
  ts.cloud_retry_attempts = 2;
  ts.retry_clock = &clock;
  ts.statistics = stats.get();
  ts.listeners.push_back(&listener);
  TieredTableStorage storage(ts);

  // Healthy upload.
  std::string payload(1000, 'u');
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(storage.NewStagingFile(1, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(storage.Install(1, 0, payload.size(), payload.size() - 100).ok());
  storage.WaitForPendingUploads();

  EXPECT_EQ(1u, listener.uploads_completed.load());
  EXPECT_EQ(0u, listener.uploads_failed.load());
  EXPECT_EQ(0u, listener.uploads_parked.load());
  {
    std::lock_guard<std::mutex> l(listener.mu);
    EXPECT_EQ(1u, listener.last_completed.file_number);
    EXPECT_EQ(payload.size(), listener.last_completed.bytes);
    EXPECT_EQ(0u, listener.last_completed.retries);
  }
  EXPECT_EQ(1u, stats->GetTickerCount(CLOUD_UPLOADS_COMPLETED));
  EXPECT_EQ(0u, stats->GetTickerCount(CLOUD_UPLOADS_PARKED));

  // Outage: the next upload parks after its retries are exhausted.
  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, injectable);
  CloudFaultPolicy policy;
  policy.unavailable = true;
  injectable->SetFaultPolicy(policy);

  ASSERT_TRUE(storage.NewStagingFile(2, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(storage.Install(2, 0, payload.size(), payload.size() - 100).ok());
  storage.WaitForPendingUploads();

  EXPECT_EQ(1u, listener.uploads_completed.load());
  EXPECT_EQ(1u, listener.uploads_failed.load());
  EXPECT_EQ(1u, listener.uploads_parked.load());
  {
    std::lock_guard<std::mutex> l(listener.mu);
    EXPECT_EQ(2u, listener.last_failed.file_number);
    // cloud_retry_attempts = 2 -> two failed attempts before parking.
    EXPECT_EQ(2u, listener.last_failed.retries);
  }
  EXPECT_EQ(1u, stats->GetTickerCount(CLOUD_UPLOADS_PARKED));
  EXPECT_GT(stats->GetTickerCount(CLOUD_UPLOAD_RETRIES), 0u);

  injectable->SetFaultPolicy(CloudFaultPolicy{});
  std::filesystem::remove_all(dir);
}

// Cache eviction listener: pushing more blocks than the budget holds fires
// OnCacheEviction with the aggregate reclaimed bytes, matching the ticker.
// The first budget's worth arrives unread (as prefetched blocks do); each
// later block misses once first, so it outranks them at the frequency gate.
TEST(EventListeners, CacheEvictionFires) {
  std::string dir = TestDir("listener_evict");
  auto stats = CreateDBStatistics();
  CountingListener listener;

  PersistentCacheOptions options;
  options.dir = dir;
  options.capacity_bytes = 32 * 1024;
  options.statistics = stats.get();
  options.listeners.push_back(&listener);
  PersistentCache cache(options);

  const std::string block(4 * 1024, 'e');
  std::string out;
  for (uint64_t i = 0; i < 32; i++) {
    const uint64_t offset = i * block.size();
    if (offset >= options.capacity_bytes) {
      EXPECT_FALSE(cache.GetBlock(/*sst=*/1, offset, &out));
    }
    cache.PutBlock(/*sst=*/1, offset, block);
  }

  EXPECT_GT(listener.evictions.load(), 0u);
  EXPECT_GT(listener.evicted_bytes.load(), 0u);
  EXPECT_EQ(listener.evicted_bytes.load(),
            stats->GetTickerCount(PERSISTENT_CACHE_EVICTED_BYTES));
  EXPECT_EQ(cache.GetStats().evicted_bytes, listener.evicted_bytes.load());
  std::filesystem::remove_all(dir);
}

// Acceptance criterion from the issue: a mixed workload on a small RocksMash
// rig with statistics enabled shows non-zero persistent-cache hits, cloud
// GET count, and per-lane compaction bytes.
TEST(MetricsFullStack, MixedWorkloadPopulatesTieredTickers) {
  std::string dir = TestDir("fullstack");
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  model.head_micros = 1;
  model.list_micros = 1;
  model.delete_micros = 1;
  SimClock cloud_clock;
  auto cloud = NewMemObjectStore(&cloud_clock, model);
  auto stats = CreateDBStatistics();
  CountingListener listener;

  SchemeOptions options;  // kind = kRocksMash
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.cloud_level_start = 1;  // Everything below L0 is cloud-resident.
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 32 * 1024;
  options.max_bytes_for_level_base = 64 * 1024;
  // RAM block cache too small to retain data blocks, so repeat reads must
  // come from the persistent cache or the cloud.
  options.block_cache_bytes = 1024;
  options.local_cache_bytes = 1 << 20;
  options.statistics = stats.get();
  options.listeners.push_back(&listener);

  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(options, &db).ok());

  Random64 rng(7);
  const size_t value_size = 400;
  for (int i = 0; i < 1000; i++) {
    std::string key = "key" + std::to_string(rng.Uniform(500));
    std::string value(value_size, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();  // Also drains the uploads.

  // Two read passes over the whole keyspace: the first faults cloud blocks
  // into the persistent cache, the second hits them there.
  std::string value;
  for (int pass = 0; pass < 2; pass++) {
    for (int i = 0; i < 500; i++) {
      std::string key = "key" + std::to_string(i);
      Status s = db->Get(ReadOptions(), key, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  }

  // The issue's acceptance tickers.
  EXPECT_GT(stats->GetTickerCount(PERSISTENT_CACHE_HIT), 0u);
  EXPECT_GT(stats->GetTickerCount(CLOUD_GET_COUNT), 0u);
  EXPECT_GT(stats->GetTickerCount(COMPACTION_LANE_BYTES_READ), 0u);
  EXPECT_GT(stats->GetTickerCount(COMPACTION_LANE_BYTES_WRITTEN), 0u);

  // Supporting signals along the same paths.
  EXPECT_GT(stats->GetTickerCount(NUM_KEYS_WRITTEN), 0u);
  EXPECT_GT(stats->GetTickerCount(NUM_KEYS_READ), 0u);
  EXPECT_GT(stats->GetTickerCount(WAL_WRITES), 0u);
  EXPECT_GT(stats->GetTickerCount(FLUSH_LANE_BYTES_WRITTEN), 0u);
  EXPECT_GT(stats->GetTickerCount(CLOUD_UPLOADS_COMPLETED), 0u);
  EXPECT_GT(stats->GetTickerCount(CLOUD_GET_BYTES),
            stats->GetTickerCount(CLOUD_GET_COUNT));
  EXPECT_GT(stats->GetHistogramSnapshot(GET_LATENCY_US).Count(), 0u);
  EXPECT_GT(stats->GetHistogramSnapshot(CLOUD_GET_LATENCY_US).Count(), 0u);

  // Listener view agrees with the ticker view.
  EXPECT_GT(listener.flushes.load(), 0u);
  EXPECT_EQ(listener.uploads_completed.load(),
            stats->GetTickerCount(CLOUD_UPLOADS_COMPLETED));

  // The full dump renders and mentions a known ticker.
  std::string text;
  ASSERT_TRUE(db->GetProperty("rocksmash.stats", &text));
  EXPECT_NE(std::string::npos, text.find("cloud.get.count"));

  db.reset();
  std::filesystem::remove_all(dir);
}

// pcache.point.{hit,miss} count the data-block lookups of point reads only:
// a cold Get misses, the same Get again hits the persistent cache, and a
// full scan of the same table (whose lookups pcache.hit/miss do count)
// moves neither.
TEST(MetricsFullStack, PointPcacheTickersCountOnlyPointReads) {
  std::string dir = TestDir("pcache_point");
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.get_first_byte_micros = 1;
  model.put_first_byte_micros = 1;
  SimClock cloud_clock;
  auto cloud = NewMemObjectStore(&cloud_clock, model);
  auto stats = CreateDBStatistics();

  SchemeOptions options;  // kind = kRocksMash
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.cloud_level_start = 0;  // The flushed table is cloud-resident.
  // No RAM block cache (capacity 0 turns it off), so a repeat read must
  // come from the persistent cache.
  options.block_cache_bytes = 0;
  options.local_cache_bytes = 1 << 20;
  options.statistics = stats.get();
  std::unique_ptr<KVStore> db;
  ASSERT_TRUE(OpenKVStore(options, &db).ok());

  for (int i = 0; i < 400; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    ASSERT_TRUE(db->Put(WriteOptions(), key, std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();  // Also drains the upload.

  auto point_hits = [&] {
    return stats->GetTickerCount(PERSISTENT_CACHE_POINT_HIT);
  };
  auto point_misses = [&] {
    return stats->GetTickerCount(PERSISTENT_CACHE_POINT_MISS);
  };
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key0200", &value).ok());
  EXPECT_EQ(0u, point_hits());
  EXPECT_EQ(1u, point_misses());
  ASSERT_TRUE(db->Get(ReadOptions(), "key0200", &value).ok());
  EXPECT_EQ(1u, point_hits());
  EXPECT_EQ(1u, point_misses());

  const uint64_t lookups_before = stats->GetTickerCount(PERSISTENT_CACHE_HIT) +
                                  stats->GetTickerCount(PERSISTENT_CACHE_MISS);
  std::unique_ptr<Iterator> it = db->NewIterator(ReadOptions());
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(400, n);
  it.reset();
  EXPECT_GT(stats->GetTickerCount(PERSISTENT_CACHE_HIT) +
                stats->GetTickerCount(PERSISTENT_CACHE_MISS),
            lookups_before);
  EXPECT_EQ(1u, point_hits());
  EXPECT_EQ(1u, point_misses());

  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
