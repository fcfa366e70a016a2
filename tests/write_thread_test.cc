// Tests for the two-stage write path (leader-elected WAL stage + parallel
// memtable apply, src/lsm/db_impl.cc). The cases here pin the
// protocol-level guarantees: group formation under concurrent writers,
// every write landing under mixed sync/non-sync writers and flush
// barriers, a flush barrier always leading its own group, error
// propagation from a failed WAL sync (also when a later group's sync
// overlapped it), syncs of consecutive groups overlapping on the eWAL's
// segments, and all-or-nothing batch visibility through snapshots while the
// parallel apply stage is racing.
//
// Like concurrency_stress_test.cc, this suite is designed to run under
// both ThreadSanitizer and AddressSanitizer (CI runs it under each); the
// functional assertions keep it meaningful without a sanitizer too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/wal.h"
#include "sync_counting_env.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

std::string TestDir(const char* suffix) {
  return ::testing::TempDir() + "/rocksmash_write_thread_" + suffix;
}

std::string KeyOf(int writer, uint64_t i) {
  char buf[40];
  snprintf(buf, sizeof(buf), "w%02d-key-%08llu", writer,
           static_cast<unsigned long long>(i));
  return buf;
}

// Deterministic value per key so the final state is independent of the
// order in which concurrent writers were sequenced.
std::string ValueOf(int writer, uint64_t i) {
  return "v-" + std::to_string(writer) + "-" + std::to_string(i * 2654435761u);
}

// ---------- Group formation ----------

// Every Write() call joins exactly one group: the cumulative group-size
// ticker must equal the number of Write() calls, and with many concurrent
// sync writers at least some groups must contain more than one writer.
TEST(WriteThreadTest, GroupFormationAccounting) {
  const std::string dbname = TestDir("groups");
  std::filesystem::remove_all(dbname);

  auto stats = CreateDBStatistics();
  DBOptions options;
  options.create_if_missing = true;
  options.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 8;
  constexpr uint64_t kWritesPerThread = 200;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &errors, w] {
      // Sync writes force every group through the WAL sync stage, which is
      // where followers pile up behind the leader.
      WriteOptions wo;
      wo.sync = true;
      for (uint64_t i = 0; i < kWritesPerThread; i++) {
        if (!db->Put(wo, KeyOf(w, i), ValueOf(w, i)).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(0u, errors.load());

  const uint64_t total_writes = kWriters * kWritesPerThread;
  const uint64_t groups = stats->GetTickerCount(WRITE_GROUPS);
  const uint64_t group_size = stats->GetTickerCount(WRITE_GROUP_SIZE);
  EXPECT_EQ(total_writes, group_size);
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, total_writes);
  // With 8 writers issuing sync writes concurrently, serializing every
  // write into its own group would mean grouping never happened at all.
  EXPECT_LT(groups, total_writes);

  // Everything is readable afterwards.
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(w, 0), &value).ok());
    EXPECT_EQ(ValueOf(w, 0), value);
  }
}

// ---------- Every write lands ----------

// Multi-writer batched workloads land every key whatever groups the queue
// forms. Values are a function of the key alone, so the check is
// order-independent. The second input mixes sync and non-sync writers (a
// sync write never joins a non-sync leader's group) and races a thread
// looping FlushMemTable(), whose barriers must each lead a group of their
// own: the group-size ticker counts exactly the Write() calls.
TEST(WriteThreadTest, ConcurrentApplyLandsEveryWrite) {
  constexpr int kWriters = 6;
  constexpr uint64_t kKeysPerWriter = 400;
  constexpr int kBatchKeys = 16;

  auto run_workload = [&](const std::string& dbname, bool mixed) {
    std::filesystem::remove_all(dbname);
    auto stats = CreateDBStatistics();
    DBOptions options;
    options.create_if_missing = true;
    options.statistics = stats.get();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

    std::vector<std::thread> threads;
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<bool> stop{false};
    for (int w = 0; w < kWriters; w++) {
      threads.emplace_back([&db, &errors, &writes, mixed, w] {
        WriteOptions wo;
        wo.sync = mixed && w % 2 == 0;
        uint64_t i = 0;
        while (i < kKeysPerWriter) {
          WriteBatch batch;
          for (int b = 0; b < kBatchKeys && i < kKeysPerWriter; b++, i++) {
            batch.Put(KeyOf(w, i), ValueOf(w, i));
          }
          if (!db->Write(wo, &batch).ok()) errors.fetch_add(1);
          writes.fetch_add(1);
        }
      });
    }
    std::thread flusher;
    if (mixed) {
      flusher = std::thread([&db, &errors, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
          if (!db->FlushMemTable().ok()) errors.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_release);
    if (flusher.joinable()) flusher.join();
    ASSERT_EQ(0u, errors.load());
    EXPECT_EQ(writes.load(), stats->GetTickerCount(WRITE_GROUP_SIZE));

    // Read back every key and count the total via a full scan.
    std::string value;
    for (int w = 0; w < kWriters; w++) {
      for (uint64_t i = 0; i < kKeysPerWriter; i++) {
        ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(w, i), &value).ok());
        EXPECT_EQ(ValueOf(w, i), value);
      }
    }
    uint64_t scanned = 0;
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) scanned++;
    EXPECT_EQ(kWriters * kKeysPerWriter, scanned);
  };

  run_workload(TestDir("apply_batched"), /*mixed=*/false);
  run_workload(TestDir("apply_mixed_flushes"), /*mixed=*/true);
}

// ---------- WAL sync failure ----------

// Delegating WAL whose syncs fail or block on command.
class ControlledSyncWal : public WalManager {
 public:
  explicit ControlledSyncWal(std::unique_ptr<WalManager> base)
      : base_(std::move(base)) {}

  Status NewLog(uint64_t number) override { return base_->NewLog(number); }
  Status AddRecord(const Slice& record, WalPosition* position) override {
    return base_->AddRecord(record, position);
  }
  Status Sync(const WalPosition& position) override {
    Status s = Gate(position.record);
    if (s.ok()) s = base_->Sync(position);
    CountSuccess(s);
    return s;
  }
  bool ConcurrentSyncs() const override { return base_->ConcurrentSyncs(); }
  Status CloseLog() override { return base_->CloseLog(); }
  Status ListLogs(std::vector<uint64_t>* numbers) override {
    return base_->ListLogs(numbers);
  }
  Status RemoveLog(uint64_t number) override {
    return base_->RemoveLog(number);
  }
  Status Replay(
      uint64_t number,
      const std::function<Status(const Slice& record, int shard)>& apply,
      ReplayTelemetry* telemetry) override {
    return base_->Replay(number, apply, telemetry);
  }
  int MaxShards() const override { return base_->MaxShards(); }

  void SetFailSyncs(bool fail) {
    fail_syncs_.store(fail, std::memory_order_release);
  }
  // Fail the sync of the record whose sync reached the gate first while
  // syncs were held.
  void FailFirstHeldSync() {
    std::lock_guard<std::mutex> l(gate_mu_);
    fail_record_ = held_records_.at(0);
  }

  // Park every sync until ReleaseSyncs().
  void HoldSyncs() {
    std::lock_guard<std::mutex> l(gate_mu_);
    hold_syncs_ = true;
  }
  void ReleaseSyncs() {
    std::lock_guard<std::mutex> l(gate_mu_);
    hold_syncs_ = false;
    gate_cv_.notify_all();
  }
  // Returns true once `count` syncs in all have been parked at the gate,
  // false if that does not happen within 10 s. A caller that goes on after
  // false would test without its premise, so the result must be checked.
  [[nodiscard]] bool WaitForHeldSync(int count = 1) {
    std::unique_lock<std::mutex> l(gate_mu_);
    return gate_cv_.wait_for(l, std::chrono::seconds(10), [this, count] {
      return static_cast<int>(held_records_.size()) >= count;
    });
  }
  int succeeded_syncs() const {
    return succeeded_syncs_.load(std::memory_order_acquire);
  }

 private:
  Status Gate(uint64_t record) {
    std::unique_lock<std::mutex> l(gate_mu_);
    if (hold_syncs_) {
      held_records_.push_back(record);
      gate_cv_.notify_all();
      gate_cv_.wait(l, [this] { return !hold_syncs_; });
    }
    if (fail_syncs_.load(std::memory_order_acquire) ||
        (record != 0 && record == fail_record_)) {
      return Status::IOError("injected sync failure");
    }
    return Status::OK();
  }
  void CountSuccess(const Status& s) {
    if (s.ok()) succeeded_syncs_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::unique_ptr<WalManager> base_;
  std::atomic<bool> fail_syncs_{false};
  std::atomic<int> succeeded_syncs_{0};
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool hold_syncs_ = false;
  std::vector<uint64_t> held_records_;  // Records parked so far, in order.
  uint64_t fail_record_ = 0;            // 0: none.
};

// ---------- Flush barriers ----------

// FlushMemTable() queues a null-batch writer (a flush barrier) that must
// lead a group of its own, so its MakeRoomForWrite forces the memtable
// switch. Here leader A is parked in its WAL sync while B (a synced Put)
// and then C (FlushMemTable) queue behind it; when A's sync is released, B
// leads the next group and must stop at C. Were C absorbed into B's group,
// B would make room without a switch and C would return OK with nothing
// flushed.
TEST(WriteThreadTest, FlushBarrierLeadsItsOwnGroup) {
  const std::string dbname = TestDir("flush_barrier");
  std::filesystem::remove_all(dbname);

  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirRecursively(dbname).ok());
  auto wal = std::make_unique<ControlledSyncWal>(
      NewEWalManager(env, dbname, EWalOptions{/*segments=*/1}));
  ControlledSyncWal* wal_ptr = wal.get();

  auto stats = CreateDBStatistics();
  DBOptions options;
  options.create_if_missing = true;
  options.wal_manager = wal_ptr;
  options.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  // A flushed memtable may be placed below level 0, so count every level.
  auto table_files = [&db] {
    int total = 0;
    std::string files;
    for (int level = 0;
         db->GetProperty("rocksmash.num-files-at-level" + std::to_string(level),
                         &files);
         level++) {
      total += std::stoi(files);
    }
    return total;
  };
  const int files_before = table_files();

  WriteOptions sync_wo;
  sync_wo.sync = true;
  wal_ptr->HoldSyncs();
  std::thread a([&] { EXPECT_TRUE(db->Put(sync_wo, "key-a", "va").ok()); });
  // A leads and is parked in its WAL sync.
  const bool a_parked = wal_ptr->WaitForHeldSync();
  if (!a_parked) {
    wal_ptr->ReleaseSyncs();
    a.join();
  }
  ASSERT_TRUE(a_parked) << "A never reached its WAL sync";
  std::thread b([&] { EXPECT_TRUE(db->Put(sync_wo, "key-b", "vb").ok()); });
  // Let B queue behind A before C queues behind B. Should the scheduler
  // ever run C first, C leads alone and the case degrades to a plain flush
  // check; it cannot fail spuriously.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status flush_status;
  std::thread c([&] { flush_status = db->FlushMemTable(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  wal_ptr->ReleaseSyncs();
  a.join();
  b.join();
  c.join();

  ASSERT_TRUE(flush_status.ok()) << flush_status.ToString();
  // C returned only after the memtable holding A and B was flushed.
  EXPECT_EQ(files_before + 1, table_files());
  // The barrier is not a user write: two writes, two one-writer groups.
  EXPECT_EQ(2u, stats->GetTickerCount(WRITE_GROUP_SIZE));
  EXPECT_EQ(2u, stats->GetTickerCount(WRITE_GROUPS));
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key-a", &value).ok());
  EXPECT_EQ("va", value);
  ASSERT_TRUE(db->Get(ReadOptions(), "key-b", &value).ok());
  EXPECT_EQ("vb", value);
}

// A failed group sync must poison the DB (bg_error_): the failing write
// reports the error and every later write is refused rather than risking
// a WAL/memtable divergence.
TEST(WriteThreadTest, SyncFailurePoisonsWrites) {
  const std::string dbname = TestDir("sync_fail");
  std::filesystem::remove_all(dbname);

  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirRecursively(dbname).ok());
  auto wal = std::make_unique<ControlledSyncWal>(
      NewEWalManager(env, dbname, EWalOptions{/*segments=*/1}));
  ControlledSyncWal* wal_ptr = wal.get();

  DBOptions options;
  options.create_if_missing = true;
  options.wal_manager = wal_ptr;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "healthy", "before").ok());

  wal_ptr->SetFailSyncs(true);
  Status s = db->Put(sync_wo, "doomed", "value");
  ASSERT_FALSE(s.ok());

  // The failure is sticky: even non-sync writes are refused afterwards.
  wal_ptr->SetFailSyncs(false);
  EXPECT_FALSE(db->Put(WriteOptions(), "after", "value").ok());
  EXPECT_FALSE(db->Put(sync_wo, "after-sync", "value").ok());

  // Reads of pre-failure state still work.
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "healthy", &value).ok());
  EXPECT_EQ("before", value);

  // The sticky error also surfaces through maintenance entry points that
  // used to swallow it: manual compaction reports instead of no-opping.
  EXPECT_FALSE(db->CompactRange(nullptr, nullptr).ok());

  db.reset();
}

// With a multi-segment eWAL the write path hands the queue on after the
// append, so an earlier group may still be syncing while a later one has
// already synced its own record. Group N's sync fails here while group
// N+1's succeeds: acking N+1 would ack past a record that may be lost, so
// both writes fail, later writes are refused, and pre-failure reads work.
TEST(WriteThreadTest, LaterGroupFailsWhenEarlierSyncFails) {
  const std::string dbname = TestDir("sync_fail_overlapped");
  std::filesystem::remove_all(dbname);

  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirRecursively(dbname).ok());
  EWalOptions ew;
  ew.segments = 4;
  auto wal = std::make_unique<ControlledSyncWal>(
      NewEWalManager(env, dbname, ew));
  ControlledSyncWal* wal_ptr = wal.get();

  DBOptions options;
  options.create_if_missing = true;
  options.wal_manager = wal_ptr;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "healthy", "before").ok());

  wal_ptr->HoldSyncs();
  Status a_status, b_status;
  std::thread a([&] { a_status = db->Put(sync_wo, "key-a", "va"); });
  // A appended and is syncing.
  const bool a_parked = wal_ptr->WaitForHeldSync(1);
  if (!a_parked) {
    wal_ptr->ReleaseSyncs();
    a.join();
  }
  ASSERT_TRUE(a_parked) << "A never reached its WAL sync";
  std::thread b([&] { b_status = db->Put(sync_wo, "key-b", "vb"); });
  // B can reach its sync only if A handed the queue on before syncing.
  const bool overlapped = wal_ptr->WaitForHeldSync(2);
  if (overlapped) wal_ptr->FailFirstHeldSync();
  const int succeeded_before = wal_ptr->succeeded_syncs();
  wal_ptr->ReleaseSyncs();
  a.join();
  b.join();
  ASSERT_TRUE(overlapped) << "B's sync never started while A's was held";

  EXPECT_FALSE(a_status.ok());
  EXPECT_FALSE(b_status.ok()) << "acked past a failed sync";
  // B's own sync did succeed: its failure is inherited from A.
  EXPECT_EQ(succeeded_before + 1, wal_ptr->succeeded_syncs());

  // The failure is sticky.
  EXPECT_FALSE(db->Put(sync_wo, "after-sync", "value").ok());
  EXPECT_FALSE(db->Put(WriteOptions(), "after", "value").ok());

  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "healthy", &value).ok());
  EXPECT_EQ("before", value);
  db.reset();
}

// ---------- Overlapped WAL syncs ----------

// Two synced writers over a 4-segment eWAL with a 20 ms modeled sync. A
// group hands the write queue on after its append, so the next group
// appends to another segment and syncs it while the first sync is still
// running: the peak number of segment-file syncs in flight reaches 2. A
// write path that held the queue through the sync keeps it at 1.
TEST(WriteThreadTest, SyncsOverlapAcrossEWalSegments) {
  std::unique_ptr<Env> mem = NewMemEnv();
  DeviceLatencyModel device;
  device.sync_micros = 20000;
  std::unique_ptr<Env> timed =
      NewTimedEnv(mem.get(), SystemClock::Default(), device);
  SyncCountingEnv env(timed.get(), "ewal-");
  const std::string dbname = "/overlapped_syncs";

  auto stats = CreateDBStatistics();
  DBOptions options;
  options.create_if_missing = true;
  options.env = &env;
  options.wal_segments = 4;
  options.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 2;
  constexpr uint64_t kPutsPerWriter = 20;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &errors, w] {
      WriteOptions wo;
      wo.sync = true;
      for (uint64_t i = 0; i < kPutsPerWriter; i++) {
        if (!db->Put(wo, KeyOf(w, i), ValueOf(w, i)).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(0u, errors.load());

  EXPECT_GE(env.PeakConcurrentSyncs(), 2);
  EXPECT_GT(stats->GetTickerCount(WAL_SYNC_OVERLAPPED), 0u);
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (uint64_t i = 0; i < kPutsPerWriter; i++) {
      ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(w, i), &value).ok());
      EXPECT_EQ(ValueOf(w, i), value);
    }
  }
  EXPECT_TRUE(db->Close().ok());
}

// DB::Close must surface a WAL sync failure. Before Close existed the final
// sync ran in the destructor and its status was dropped, so acknowledged
// (unsynced) writes could vanish on a crash-free shutdown with no caller
// ever hearing about it.
TEST(WriteThreadTest, CloseSurfacesWalSyncFailure) {
  const std::string dbname = TestDir("close_sync_fail");
  std::filesystem::remove_all(dbname);

  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirRecursively(dbname).ok());
  auto wal = std::make_unique<ControlledSyncWal>(
      NewEWalManager(env, dbname, EWalOptions{/*segments=*/1}));
  ControlledSyncWal* wal_ptr = wal.get();

  DBOptions options;
  options.create_if_missing = true;
  options.wal_manager = wal_ptr;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  // Unsynced WAL data that the closing sync must make durable.
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());

  wal_ptr->SetFailSyncs(true);
  Status close_status = db->Close();
  EXPECT_TRUE(close_status.IsIOError()) << close_status.ToString();

  // Idempotent: a repeat call reports the recorded outcome without
  // re-running teardown, and the destructor tolerates a closed DB.
  EXPECT_TRUE(db->Close().IsIOError());
  db.reset();
}

TEST(WriteThreadTest, CloseIsCleanAndIdempotentOnSuccess) {
  const std::string dbname = TestDir("close_clean");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  EXPECT_TRUE(db->Close().ok());
  EXPECT_TRUE(db->Close().ok());
  db.reset();

  // The closed store reopens with the synced write intact.
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
}

// ---------- Sequence visibility under concurrent snapshots ----------

// Each writer overwrites its own K-key batch with a per-round value while
// readers take snapshots and read all K keys through them. LastSequence is
// published only after a group's every sub-batch has applied, so a
// snapshot must always see a batch entirely at one round — never a mix.
TEST(WriteThreadTest, SnapshotsNeverSeePartialBatches) {
  const std::string dbname = TestDir("snapshots");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 4;
  constexpr int kBatchKeys = 8;
  constexpr int kRounds = 300;

  auto batch_key = [](int writer, int k) {
    char buf[32];
    snprintf(buf, sizeof(buf), "batch%02d.key%02d", writer, k);
    return std::string(buf);
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_batches{0};
  std::atomic<uint64_t> write_errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      WriteOptions wo;
      for (int r = 1; r <= kRounds; r++) {
        WriteBatch batch;
        const std::string value = "round-" + std::to_string(r);
        for (int k = 0; k < kBatchKeys; k++) {
          batch.Put(batch_key(w, k), value);
        }
        if (!db->Write(wo, &batch).ok()) write_errors.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r] {
      Random64 rng(7331 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(rng.Uniform(kWriters));
        const Snapshot* snap = db->GetSnapshot();
        ReadOptions ro;
        ro.snapshot = snap;
        std::string first, value;
        bool mixed = false;
        int found = 0, absent = 0;
        for (int k = 0; k < kBatchKeys; k++) {
          Status s = db->Get(ro, batch_key(w, k), &value);
          if (s.IsNotFound()) {
            absent++;
            continue;
          }
          ASSERT_TRUE(s.ok());
          if (found == 0) {
            first = value;
          } else if (value != first) {
            mixed = true;
          }
          found++;
        }
        // Consistent views: all keys absent (before the first round) or all
        // present at a single round's value.
        if (mixed || (found > 0 && absent > 0)) torn_batches.fetch_add(1);
        db->ReleaseSnapshot(snap);
      }
    });
  }

  for (int w = 0; w < kWriters; w++) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); t++) threads[t].join();

  EXPECT_EQ(0u, write_errors.load());
  EXPECT_EQ(0u, torn_batches.load());

  // Final state: every batch fully at the last round.
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int k = 0; k < kBatchKeys; k++) {
      ASSERT_TRUE(db->Get(ReadOptions(), batch_key(w, k), &value).ok());
      EXPECT_EQ("round-" + std::to_string(kRounds), value);
    }
  }
}

}  // namespace
}  // namespace rocksmash
