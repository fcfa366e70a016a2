// Tests for the tracing subsystem (capture -> parse -> replay):
//   - StartTrace/EndTrace lifecycle and error cases;
//   - round-trip fidelity: a randomized mixed workload captured at
//     sampling=1 replays into a fresh DB with identical final state and
//     identical per-type op counts (the ISSUE acceptance criterion);
//   - recorded thread structure preserved across replay;
//   - sampling ratios honored;
//   - corruption discipline: truncated (including mid-record) and bit-
//     flipped traces parse to Status::Corruption and replay issues nothing;
//   - max_trace_file_size cap counts drops instead of growing the file;
//   - implicit EndTrace at Close;
//   - backend spans exported as well-formed Chrome trace-event JSON.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/write_batch.h"
#include "trace/replayer.h"
#include "trace/trace_reader.h"
#include "trace/trace_tools.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

std::string TestDir(const char* suffix) {
  std::string dir = ::testing::TempDir() + "/rocksmash_trace_" + suffix;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string KeyOf(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%08llu", (unsigned long long)i);
  return buf;
}

std::unique_ptr<DB> OpenSmallDB(const std::string& dbname,
                                Statistics* stats = nullptr) {
  DBOptions options;
  options.create_if_missing = true;
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.max_bytes_for_level_base = 256 * 1024;
  options.statistics = stats;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dbname, &db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

// Full user-visible contents of the DB, for final-state equivalence.
std::map<std::string, std::string> DumpAll(DB* db) {
  std::map<std::string, std::string> out;
  auto it = db->NewIterator(ReadOptions());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out[it->key().ToString()] = it->value().ToString();
  }
  EXPECT_TRUE(it->status().ok());
  return out;
}

// Randomized mixed workload covering every traced op type. Deterministic in
// `seed`, so capture-side expectations are reproducible.
void RunMixedWorkload(DB* db, uint32_t seed, int ops) {
  Random64 rnd(seed);
  WriteOptions wo;
  ReadOptions ro;
  for (int i = 0; i < ops; i++) {
    const uint64_t k = rnd.Uniform(500);
    switch (rnd.Uniform(7)) {
      case 0:
      case 1:
        ASSERT_TRUE(db->Put(wo, KeyOf(k), "v" + std::to_string(i)).ok());
        break;
      case 2:
        ASSERT_TRUE(db->Delete(wo, KeyOf(k)).ok());
        break;
      case 3: {
        WriteBatch batch;
        batch.Put(KeyOf(k), "b" + std::to_string(i));
        batch.Put(KeyOf(k + 500), "b2");
        batch.Delete(KeyOf(k + 1000));
        ASSERT_TRUE(db->Write(wo, &batch).ok());
        break;
      }
      case 4: {
        std::string value;
        Status s = db->Get(ro, KeyOf(k), &value);
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
        break;
      }
      case 5: {
        std::vector<Slice> keys;
        std::vector<std::string> key_storage;
        key_storage.reserve(3);
        for (int j = 0; j < 3; j++) {
          key_storage.push_back(KeyOf(rnd.Uniform(1500)));
        }
        for (const auto& key : key_storage) keys.emplace_back(key);
        std::vector<std::string> values;
        std::vector<Status> statuses;
        db->MultiGet(ro, keys, &values, &statuses);
        for (Status& s : statuses) {
          ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
        }
        break;
      }
      default: {
        auto it = db->NewIterator(ro);
        it->Seek(KeyOf(k));
        for (int j = 0; j < 4 && it->Valid(); j++) it->Next();
        it->SeekToFirst();
        ASSERT_TRUE(it->status().ok());
        break;
      }
    }
  }
}

uint64_t ReadWholeFile(const std::string& path, std::string* out) {
  Status s = ReadFileToString(Env::Default(), path, out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out->size();
}

TEST(TraceTest, StartEndLifecycleAndErrors) {
  const std::string dbname = TestDir("lifecycle");
  auto db = OpenSmallDB(dbname);

  // No trace active yet.
  EXPECT_TRUE(db->EndTrace().IsInvalidArgument());

  trace::TraceOptions topts;
  ASSERT_TRUE(db->StartTrace(topts, dbname + "/t1.trace").ok());
  // Double start is rejected; the original capture stays live.
  EXPECT_TRUE(db->StartTrace(topts, dbname + "/t2.trace").IsInvalidArgument());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db->EndTrace().ok());
  EXPECT_TRUE(db->EndTrace().IsInvalidArgument());

  // A fresh capture on the same DB works after the first ended.
  ASSERT_TRUE(db->StartTrace(topts, dbname + "/t2.trace").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "b", "2").ok());
  ASSERT_TRUE(db->EndTrace().ok());

  trace::TraceStats stats;
  ASSERT_TRUE(
      trace::TraceFileStats(Env::Default(), dbname + "/t1.trace", &stats)
          .ok());
  EXPECT_EQ(stats.op_counts[trace::kTracePut], 1u);
  ASSERT_TRUE(
      trace::TraceFileStats(Env::Default(), dbname + "/t2.trace", &stats)
          .ok());
  EXPECT_EQ(stats.op_counts[trace::kTracePut], 1u);
}

TEST(TraceTest, RoundTripFidelity) {
  const std::string capture_dir = TestDir("fidelity_capture");
  const std::string replay_dir = TestDir("fidelity_replay");
  const std::string trace_path = capture_dir + "/run.trace";

  auto capture_db = OpenSmallDB(capture_dir);
  trace::TraceOptions topts;
  topts.sampling_frequency = 1;
  ASSERT_TRUE(capture_db->StartTrace(topts, trace_path).ok());
  RunMixedWorkload(capture_db.get(), /*seed=*/301, /*ops=*/1500);
  ASSERT_TRUE(capture_db->EndTrace().ok());

  trace::TraceStats stats;
  ASSERT_TRUE(
      trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_GT(stats.op_counts[trace::kTracePut], 0u);
  EXPECT_GT(stats.op_counts[trace::kTraceWriteBatch], 0u);
  EXPECT_GT(stats.op_counts[trace::kTraceMultiGet], 0u);
  EXPECT_GT(stats.op_counts[trace::kTraceIterSeek], 0u);

  auto replay_db = OpenSmallDB(replay_dir);
  trace::ReplayOptions ropts;
  ropts.fast_forward = 0;
  trace::Replayer replayer(replay_db.get(), ropts);
  trace::ReplayResult rr;
  ASSERT_TRUE(replayer.Replay(Env::Default(), trace_path, &rr).ok());
  EXPECT_EQ(rr.errors, 0u);

  // Per-type op counts match the capture exactly (sampling=1).
  for (uint32_t t = trace::kTracePut; t <= trace::kTraceIterNext; t++) {
    EXPECT_EQ(rr.op_counts[t], stats.op_counts[t])
        << trace::TraceRecordTypeName(static_cast<uint8_t>(t));
  }

  // Final user-visible state converges.
  EXPECT_EQ(DumpAll(capture_db.get()), DumpAll(replay_db.get()));
}

TEST(TraceTest, MultiThreadedCaptureKeepsThreadStructure) {
  const std::string capture_dir = TestDir("threads_capture");
  const std::string replay_dir = TestDir("threads_replay");
  const std::string trace_path = capture_dir + "/run.trace";
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 300;

  auto capture_db = OpenSmallDB(capture_dir);
  ASSERT_TRUE(capture_db->StartTrace(trace::TraceOptions(), trace_path).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&capture_db, t] {
      WriteOptions wo;
      const std::string thread = std::to_string(t);
      for (uint64_t i = 0; i < kOpsPerThread; i++) {
        const uint64_t k = static_cast<uint64_t>(t) * kOpsPerThread + i;
        ASSERT_TRUE(capture_db->Put(wo, KeyOf(k), "t" + thread).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(capture_db->EndTrace().ok());

  trace::TraceStats stats;
  ASSERT_TRUE(trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  EXPECT_EQ(stats.op_counts[trace::kTracePut], kThreads * kOpsPerThread);
  EXPECT_GE(stats.threads, static_cast<uint64_t>(kThreads));

  auto replay_db = OpenSmallDB(replay_dir);
  trace::Replayer replayer(replay_db.get(), trace::ReplayOptions());
  trace::ReplayResult rr;
  ASSERT_TRUE(replayer.Replay(Env::Default(), trace_path, &rr).ok());
  EXPECT_EQ(rr.op_counts[trace::kTracePut], kThreads * kOpsPerThread);
  // One replay thread per recorded op-issuing thread.
  EXPECT_GE(rr.threads, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(DumpAll(capture_db.get()), DumpAll(replay_db.get()));
}

TEST(TraceTest, SamplingFrequencyHonored) {
  const std::string dbname = TestDir("sampling");
  const std::string trace_path = dbname + "/run.trace";
  auto db = OpenSmallDB(dbname);

  trace::TraceOptions topts;
  topts.sampling_frequency = 4;
  ASSERT_TRUE(db->StartTrace(topts, trace_path).ok());
  constexpr uint64_t kPuts = 1000;
  for (uint64_t i = 0; i < kPuts; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), "v").ok());
  }
  ASSERT_TRUE(db->EndTrace().ok());

  trace::TraceStats stats;
  ASSERT_TRUE(trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  // Single-threaded: the per-thread counter records exactly 1 of every 4.
  EXPECT_EQ(stats.op_counts[trace::kTracePut], kPuts / 4);
  EXPECT_EQ(stats.sampling_frequency, 4u);
}

TEST(TraceTest, TruncatedAndCorruptTracesAreCorruption) {
  const std::string dbname = TestDir("corrupt");
  const std::string trace_path = dbname + "/run.trace";
  auto db = OpenSmallDB(dbname);
  ASSERT_TRUE(db->StartTrace(trace::TraceOptions(), trace_path).ok());
  for (uint64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), "value-" + KeyOf(i)).ok());
  }
  ASSERT_TRUE(db->EndTrace().ok());

  std::string whole;
  const uint64_t size = ReadWholeFile(trace_path, &whole);
  ASSERT_GT(size, 64u);

  // Any truncation point must fail parsing: mid-payload, mid-framing, and
  // exactly at a record boundary (missing footer).
  for (const size_t cut : {size - 1, size / 2, size / 3, (size_t)17}) {
    std::unique_ptr<trace::TraceReader> reader;
    Status open = trace::TraceReader::FromBuffer(whole.substr(0, cut), &reader);
    if (open.ok()) {
      trace::TraceRecord rec;
      bool eof = false;
      Status st;
      while ((st = reader->Next(&rec, &eof)).ok() && !eof) {
      }
      EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut << " " << st.ToString();
    } else {
      EXPECT_TRUE(open.IsCorruption()) << "cut=" << cut;
    }
  }

  // A flipped payload byte breaks the record CRC.
  std::string flipped = whole;
  flipped[flipped.size() / 2] ^= 0x20;
  {
    std::unique_ptr<trace::TraceReader> reader;
    Status open = trace::TraceReader::FromBuffer(flipped, &reader);
    if (open.ok()) {
      trace::TraceRecord rec;
      bool eof = false;
      Status st;
      while ((st = reader->Next(&rec, &eof)).ok() && !eof) {
      }
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    } else {
      EXPECT_TRUE(open.IsCorruption());
    }
  }

  // Replaying a mid-record-truncated trace is Corruption and issues nothing:
  // the whole trace must parse before the first op goes to the DB.
  const std::string replay_dir = TestDir("corrupt_replay");
  auto replay_db = OpenSmallDB(replay_dir);
  trace::Replayer replayer(replay_db.get(), trace::ReplayOptions());
  trace::ReplayResult rr;
  Status rs = replayer.ReplayFromBuffer(whole.substr(0, size / 2), &rr);
  EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
  EXPECT_EQ(rr.ops_issued, 0u);
  EXPECT_TRUE(DumpAll(replay_db.get()).empty());
}

TEST(TraceTest, MaxFileSizeCapCountsDrops) {
  const std::string dbname = TestDir("cap");
  const std::string trace_path = dbname + "/run.trace";
  auto db = OpenSmallDB(dbname);

  trace::TraceOptions topts;
  topts.max_trace_file_size = 8 * 1024;
  topts.trace_spans = false;
  ASSERT_TRUE(db->StartTrace(topts, trace_path).ok());
  for (uint64_t i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), std::string(64, 'x')).ok());
  }
  ASSERT_TRUE(db->EndTrace().ok());

  // The capped file still parses cleanly (header + footer intact) and the
  // footer owns up to the drops.
  trace::TraceStats stats;
  ASSERT_TRUE(trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  EXPECT_GT(stats.records_dropped, 0u);
  EXPECT_LT(stats.records_written, 2000u);
}

TEST(TraceTest, ImplicitEndTraceAtClose) {
  const std::string dbname = TestDir("implicit_end");
  const std::string trace_path = dbname + "/run.trace";
  {
    auto db = OpenSmallDB(dbname);
    ASSERT_TRUE(db->StartTrace(trace::TraceOptions(), trace_path).ok());
    for (uint64_t i = 0; i < 20; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), "v").ok());
    }
    ASSERT_TRUE(db->Close().ok());
  }
  // Close finalized the capture: the file has its footer and parses whole.
  trace::TraceStats stats;
  ASSERT_TRUE(trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  EXPECT_EQ(stats.op_counts[trace::kTracePut], 20u);
}

TEST(TraceTest, SpansCapturedAndChromeExportWellFormed) {
  const std::string dbname = TestDir("spans");
  const std::string trace_path = dbname + "/run.trace";
  auto db = OpenSmallDB(dbname);

  trace::TraceOptions topts;
  topts.trace_spans = true;
  ASSERT_TRUE(db->StartTrace(topts, trace_path).ok());
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (uint64_t i = 0; i < 300; i++) {
    ASSERT_TRUE(
        db->Put(i % 50 == 0 ? sync_wo : WriteOptions(), KeyOf(i),
                std::string(256, 'v'))
            .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->WaitForCompaction();
  ASSERT_TRUE(db->EndTrace().ok());

  trace::TraceStats stats;
  ASSERT_TRUE(trace::TraceFileStats(Env::Default(), trace_path, &stats).ok());
  EXPECT_GT(stats.span_counts[trace::kSpanWalSync], 0u);
  EXPECT_GT(stats.span_counts[trace::kSpanFlush], 0u);

  std::string chrome;
  ASSERT_TRUE(
      trace::TraceFileToChrome(Env::Default(), trace_path, &chrome).ok());
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(chrome.substr(chrome.size() - 3), "]}\n");
  EXPECT_NE(chrome.find("\"wal_sync\""), std::string::npos);
  EXPECT_NE(chrome.find("\"flush\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);

  // Balanced braces/brackets outside strings — cheap structural JSON check.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < chrome.size(); i++) {
    const char c = chrome[i];
    if (in_string) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') depth++;
    if (c == '}' || c == ']') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceTest, TracingIteratorForwardsResults) {
  const std::string dbname = TestDir("iter_forward");
  auto db = OpenSmallDB(dbname);
  for (uint64_t i = 0; i < 100; i++) {
    const std::string key = KeyOf(i);
    ASSERT_TRUE(db->Put(WriteOptions(), key, "v" + key).ok());
  }

  // Contents read through a traced iterator equal the untraced view.
  const std::map<std::string, std::string> before = DumpAll(db.get());
  ASSERT_TRUE(
      db->StartTrace(trace::TraceOptions(), dbname + "/run.trace").ok());
  EXPECT_EQ(DumpAll(db.get()), before);
  auto it = db->NewIterator(ReadOptions());
  it->Seek(KeyOf(50));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), KeyOf(50));
  it->Prev();  // Untraced but must still work through the wrapper.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), KeyOf(49));
  it.reset();
  ASSERT_TRUE(db->EndTrace().ok());

  trace::TraceStats stats;
  ASSERT_TRUE(
      trace::TraceFileStats(Env::Default(), dbname + "/run.trace", &stats)
          .ok());
  EXPECT_GT(stats.op_counts[trace::kTraceNewIterator], 0u);
  EXPECT_GT(stats.op_counts[trace::kTraceIterNext], 0u);
}

TEST(TraceTest, PacedReplayCompletes) {
  const std::string capture_dir = TestDir("paced_capture");
  const std::string replay_dir = TestDir("paced_replay");
  const std::string trace_path = capture_dir + "/run.trace";

  auto capture_db = OpenSmallDB(capture_dir);
  ASSERT_TRUE(capture_db->StartTrace(trace::TraceOptions(), trace_path).ok());
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(capture_db->Put(WriteOptions(), KeyOf(i), "v").ok());
  }
  ASSERT_TRUE(capture_db->EndTrace().ok());

  auto replay_db = OpenSmallDB(replay_dir);
  trace::ReplayOptions ropts;
  ropts.fast_forward = 100.0;  // Scaled pacing, but quick in CI.
  trace::Replayer replayer(replay_db.get(), ropts);
  trace::ReplayResult rr;
  ASSERT_TRUE(replayer.Replay(Env::Default(), trace_path, &rr).ok());
  EXPECT_EQ(rr.op_counts[trace::kTracePut], 200u);
  EXPECT_EQ(DumpAll(capture_db.get()), DumpAll(replay_db.get()));
}

TEST(TraceTest, TracingOffPathUnaffected) {
  const std::string dbname = TestDir("off_path");
  auto db = OpenSmallDB(dbname);
  // No trace ever started: the full op surface works through the same
  // entry points that carry the tracer check (one relaxed load each).
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), KeyOf(i), "v").ok());
  }
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(7), &value).ok());
  EXPECT_EQ(value, "v");
  auto it = db->NewIterator(ReadOptions());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  it.reset();

  // Statistics stay silent: no trace tickers tick while tracing is off.
  auto stats_db_dir = TestDir("off_path_stats");
  auto statistics = CreateDBStatistics();
  auto stats_db = OpenSmallDB(stats_db_dir, statistics.get());
  ASSERT_TRUE(stats_db->Put(WriteOptions(), "k", "v").ok());
  EXPECT_EQ(statistics->GetTickerCount(TRACE_RECORDS_WRITTEN), 0u);
  EXPECT_EQ(statistics->GetTickerCount(TRACE_RECORDS_DROPPED), 0u);
}

}  // namespace
}  // namespace rocksmash
