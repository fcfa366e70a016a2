// Unit tests for the util substrate: coding, crc32c, hash, cache, arena,
// histogram, thread pool, slice, status.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/cache.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rocksmash {
namespace {

// ---------- Slice ----------

TEST(SliceTest, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, empty.size());

  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_EQ("hello", s.ToString());

  s.remove_prefix(2);
  EXPECT_EQ("llo", s.ToString());
  s.remove_suffix(1);
  EXPECT_EQ("ll", s.ToString());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("a").compare(Slice("a")), 0);
  EXPECT_LT(Slice("a").compare(Slice("aa")), 0);
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("b")));
}

// ---------- Status ----------

TEST(StatusTest, Codes) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ("OK", Status::OK().ToString());
  EXPECT_EQ("NotFound: msg: detail",
            Status::NotFound("msg", "detail").ToString());
}

// ---------- Coding ----------

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  for (uint32_t v : {0u, 1u, 255u, 256u, 0xffffffffu, 0x12345678u}) {
    s.clear();
    PutFixed32(&s, v);
    EXPECT_EQ(4u, s.size());
    EXPECT_EQ(v, DecodeFixed32(s.data()));
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, ~uint64_t{0},
                     uint64_t{0x123456789abcdef0}}) {
    s.clear();
    PutFixed64(&s, v);
    EXPECT_EQ(8u, s.size());
    EXPECT_EQ(v, DecodeFixed64(s.data()));
  }
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  for (uint32_t i = 0; i < 32; i++) {
    for (uint32_t delta : {0u, 1u}) {
      uint32_t v = (1u << i) - delta;
      s.clear();
      PutVarint32(&s, v);
      Slice input(s);
      uint32_t decoded;
      ASSERT_TRUE(GetVarint32(&input, &decoded));
      EXPECT_EQ(v, decoded);
      EXPECT_TRUE(input.empty());
    }
  }
}

TEST(CodingTest, Varint64RoundTrip) {
  std::string s;
  for (uint32_t i = 0; i < 64; i++) {
    uint64_t v = (uint64_t{1} << i) - 1;
    s.clear();
    PutVarint64(&s, v);
    Slice input(s);
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&input, &decoded));
    EXPECT_EQ(v, decoded);
  }
}

TEST(CodingTest, VarintLengths) {
  EXPECT_EQ(1, VarintLength(0));
  EXPECT_EQ(1, VarintLength(127));
  EXPECT_EQ(2, VarintLength(128));
  EXPECT_EQ(5, VarintLength(0xffffffffu));
  EXPECT_EQ(10, VarintLength(~uint64_t{0}));
}

TEST(CodingTest, Varint32Truncation) {
  std::string s;
  PutVarint32(&s, 1u << 30);
  for (size_t len = 0; len < s.size(); len++) {
    Slice input(s.data(), len);
    uint32_t v;
    EXPECT_FALSE(GetVarint32(&input, &v));
  }
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, "foo");
  PutLengthPrefixedSlice(&s, "");
  PutLengthPrefixedSlice(&s, std::string(300, 'x'));
  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(300, 'x'), v.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&input, &v));
}

// ---------- CRC32C ----------

TEST(Crc32cTest, StandardVectors) {
  // From the CRC32C specification (RFC 3720 appendix).
  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aaU, crc32c::Value(buf, sizeof(buf)));
  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43U, crc32c::Value(buf, sizeof(buf)));
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(0x46dd794eU, crc32c::Value(buf, sizeof(buf)));
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello crc32c world, this is a longer buffer";
  for (size_t split = 0; split <= data.size(); split++) {
    uint32_t partial = crc32c::Value(data.data(), split);
    uint32_t extended =
        crc32c::Extend(partial, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c::Value(data.data(), data.size()), extended);
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

// ---------- Hash ----------

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash32("abc", 3, 1), Hash32("abc", 3, 1));
  EXPECT_NE(Hash32("abc", 3, 1), Hash32("abc", 3, 2));
  EXPECT_EQ(Hash64("abc", 3, 1), Hash64("abc", 3, 1));
  EXPECT_NE(Hash64("abc", 3, 1), Hash64("abd", 3, 1));
}

TEST(HashTest, SpreadsBits) {
  std::set<uint64_t> values;
  for (uint64_t i = 0; i < 1000; i++) {
    values.insert(FnvHash64(i));
  }
  EXPECT_EQ(1000u, values.size());
}

// ---------- Random ----------

TEST(RandomTest, UniformInRange) {
  Random64 rng(1);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Uniform(10), 10u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, SameSeedSameSequence) {
  Random64 a(42), b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// ---------- Arena ----------

TEST(ArenaTest, ManyAllocations) {
  Arena arena;
  std::vector<std::pair<char*, size_t>> allocated;
  Random64 rng(3);
  size_t total = 0;
  for (int i = 0; i < 2000; i++) {
    size_t size = 1 + rng.Skewed(12);
    char* p = arena.Allocate(size);
    memset(p, i % 256, size);
    allocated.emplace_back(p, size);
    total += size;
    EXPECT_GE(arena.MemoryUsage(), total);
  }
  // Verify no allocation was clobbered.
  for (size_t i = 0; i < allocated.size(); i++) {
    auto [p, size] = allocated[i];
    for (size_t b = 0; b < size; b++) {
      EXPECT_EQ(static_cast<char>(i % 256), p[b]);
    }
  }
}

TEST(ArenaTest, AlignedAllocations) {
  Arena arena;
  for (int i = 0; i < 100; i++) {
    char* p = arena.AllocateAligned(3);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) %
                      alignof(std::max_align_t));
  }
}

// ---------- LRU cache ----------

void NoopDeleter(const Slice&, void*) {}

TEST(CacheTest, HitAndMiss) {
  auto cache = NewLRUCache(1024, 0);
  EXPECT_EQ(nullptr, cache->Lookup("k"));
  auto* h =
      cache->Insert("k", reinterpret_cast<void*>(1), 1, &NoopDeleter);
  cache->Release(h);
  auto* h2 = cache->Lookup("k");
  ASSERT_NE(nullptr, h2);
  EXPECT_EQ(reinterpret_cast<void*>(1), cache->Value(h2));
  cache->Release(h2);
}

TEST(CacheTest, Erase) {
  auto cache = NewLRUCache(1024, 0);
  cache->Release(
      cache->Insert("k", reinterpret_cast<void*>(1), 1, &NoopDeleter));
  cache->Erase("k");
  EXPECT_EQ(nullptr, cache->Lookup("k"));
}

TEST(CacheTest, EvictsLRU) {
  auto cache = NewLRUCache(10, 0);
  for (int i = 0; i < 20; i++) {
    const std::string n = std::to_string(i);
    std::string key = "k" + n;
    cache->Release(
        cache->Insert(key, reinterpret_cast<void*>(1), 1, &NoopDeleter));
  }
  // Early keys must have been evicted; recent ones retained.
  EXPECT_EQ(nullptr, cache->Lookup("k0"));
  auto* h = cache->Lookup("k19");
  ASSERT_NE(nullptr, h);
  cache->Release(h);
  EXPECT_LE(cache->TotalCharge(), 10u);
}

TEST(CacheTest, PinnedEntriesSurviveEviction) {
  auto cache = NewLRUCache(2, 0);
  auto* pinned =
      cache->Insert("pin", reinterpret_cast<void*>(7), 1, &NoopDeleter);
  for (int i = 0; i < 10; i++) {
    const std::string n = std::to_string(i);
    cache->Release(cache->Insert("k" + n,
                                 reinterpret_cast<void*>(1), 1, &NoopDeleter));
  }
  EXPECT_EQ(reinterpret_cast<void*>(7), cache->Value(pinned));
  cache->Release(pinned);
}

TEST(CacheTest, DeleterRunsOnEviction) {
  auto cache = NewLRUCache(1, 0);
  static int deleted;
  deleted = 0;
  auto deleter = [](const Slice&, void*) { deleted++; };
  cache->Release(cache->Insert("a", nullptr, 1, deleter));
  cache->Release(cache->Insert("b", nullptr, 1, deleter));  // Evicts "a"
  EXPECT_EQ(1, deleted);
}

TEST(CacheTest, StatsCount) {
  auto cache = NewLRUCache(1024, 0);
  cache->Release(cache->Insert("k", nullptr, 1, &NoopDeleter));
  auto* h = cache->Lookup("k");
  cache->Release(h);
  cache->Lookup("missing");
  auto stats = cache->GetStats();
  EXPECT_EQ(1u, stats.hits);
  EXPECT_EQ(1u, stats.misses);
  EXPECT_EQ(1u, stats.inserts);
}

TEST(CacheTest, NewIdsAreUnique) {
  auto cache = NewLRUCache(1024);
  EXPECT_NE(cache->NewId(), cache->NewId());
}

// ---------- Histogram ----------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) {
    h.Add(i);
  }
  EXPECT_EQ(100u, h.Count());
  EXPECT_DOUBLE_EQ(50.5, h.Average());
  EXPECT_EQ(1.0, h.Min());
  EXPECT_EQ(100.0, h.Max());
  EXPECT_NEAR(50, h.Median(), 5);
  EXPECT_NEAR(99, h.Percentile(99), 5);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  a.Add(1);
  b.Add(100);
  a.Merge(b);
  EXPECT_EQ(2u, a.Count());
  EXPECT_EQ(1.0, a.Min());
  EXPECT_EQ(100.0, a.Max());
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    pool.Schedule([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(100, count.load());
}

TEST(ThreadPoolTest, ZeroThreadsRunsCallerInline) {
  ThreadPool pool(0);
  EXPECT_EQ(0u, pool.NumThreads());
  std::thread::id ran_on;
  EXPECT_TRUE(pool.Schedule([&ran_on] { ran_on = std::this_thread::get_id(); }));
  // Caller-runs: the task executed inline before Schedule returned.
  EXPECT_EQ(std::this_thread::get_id(), ran_on);
  pool.WaitIdle();  // Must not hang with no workers.
  EXPECT_EQ(0u, pool.PendingTasks());
}

TEST(ThreadPoolTest, DoubleShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; i++) {
    pool.Schedule([&count] { count.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(8, count.load());  // Shutdown drains queued work first.
  pool.Shutdown();             // Second call must be a no-op, not a crash.
  pool.Shutdown();
}

TEST(ThreadPoolTest, ConcurrentShutdownCallsAllReturn) {
  ThreadPool pool(2);
  for (int i = 0; i < 4; i++) {
    pool.Schedule([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  }
  std::vector<std::thread> closers;
  closers.reserve(4);
  for (int i = 0; i < 4; i++) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (auto& t : closers) {
    t.join();  // Every caller must see the barrier complete.
  }
}

TEST(ThreadPoolTest, ScheduleDuringShutdownIsDropped) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  pool.Schedule([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ran.fetch_add(1);
  });
  std::thread closer([&pool] { pool.Shutdown(); });
  // Give Shutdown a moment to flip shutting_down_, then try to enqueue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const bool accepted = pool.Schedule([&ran] { ran.fetch_add(1); });
  release.store(true);
  closer.join();
  if (accepted) {
    EXPECT_EQ(2, ran.load());  // Raced ahead of Shutdown: it must have run.
  } else {
    EXPECT_EQ(1, ran.load());  // Dropped: it must never run.
  }
  // After shutdown completes, Schedule always refuses.
  EXPECT_FALSE(pool.Schedule([&ran] { ran.fetch_add(1); }));
}

TEST(ThreadPoolTest, ZeroThreadPoolRefusesAfterShutdown) {
  ThreadPool pool(0);
  pool.Shutdown();
  std::atomic<int> ran{0};
  EXPECT_FALSE(pool.Schedule([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(0, ran.load());
}

TEST(ThreadPoolTest, ParallelExecution) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  for (int i = 0; i < 16; i++) {
    pool.Schedule([&] {
      int c = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < c && !max_concurrent.compare_exchange_weak(prev, c)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      concurrent.fetch_sub(1);
    });
  }
  pool.WaitIdle();
  EXPECT_GT(max_concurrent.load(), 1);
}

// ---------- Clock ----------

TEST(ClockTest, SimClockAdvancesOnSleep) {
  SimClock clock(100);
  EXPECT_EQ(100u, clock.NowMicros());
  clock.SleepMicros(50);
  EXPECT_EQ(150u, clock.NowMicros());
}

TEST(ClockTest, SystemClockMonotonic) {
  SystemClock* clock = SystemClock::Default();
  uint64_t a = clock->NowMicros();
  uint64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
}

// ---------- Comparator ----------

TEST(ComparatorTest, ShortestSeparator) {
  const Comparator* cmp = BytewiseComparator::Instance();
  std::string start = "abcdefghij";
  cmp->FindShortestSeparator(&start, "abzzzzzzzz");
  EXPECT_EQ("abd", start);  // 'c'+1 < 'z'
  EXPECT_LT(Slice("abcdefghij").compare(Slice(start)), 0);
  EXPECT_LT(Slice(start).compare(Slice("abzzzzzzzz")), 0);

  // Prefix case: must not shorten.
  start = "ab";
  cmp->FindShortestSeparator(&start, "abc");
  EXPECT_EQ("ab", start);
}

TEST(ComparatorTest, ShortSuccessor) {
  const Comparator* cmp = BytewiseComparator::Instance();
  std::string key = "abc";
  cmp->FindShortSuccessor(&key);
  EXPECT_EQ("b", key);

  key = std::string(3, '\xff');
  cmp->FindShortSuccessor(&key);
  EXPECT_EQ(std::string(3, '\xff'), key);
}

}  // namespace
}  // namespace rocksmash
