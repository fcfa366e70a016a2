// E5 — Recovery: time to recover from a crash with N MiB of unflushed WAL,
// eWAL at 1/2/4/8/16 segments, plus a WAL-size sweep. Reports
// wall-clock (bounded by this host's core count) and the measured parallel
// critical path (per-shard replay + per-table flush maxima) — the time on a
// host with >= segment cores. Zero-loss is verified every run.
//
//   ./bench_recovery [--small|--large]
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common.h"
#include "env/env.h"
#include "lsm/db.h"
#include "mash/recovery.h"

using namespace rocksmash;

namespace {

struct Row {
  double wall_ms;
  double parallel_ms;
  uint64_t records;
  uint64_t lost;
};

Row RunOne(const std::string& workdir, int segments, uint64_t wal_bytes,
           Env* env) {
  const std::string dbname =
      workdir + "/db_s" + std::to_string(segments) + "_b" +
      std::to_string(wal_bytes);
  bench::CheckOk(env->CreateDirRecursively(dbname), "create bench db dir");

  DBOptions options;
  options.env = env;
  options.wal_segments = segments;
  options.write_buffer_size = 2 * wal_bytes;
  // Feed the shared ticker snapshot in BENCH_recovery.json (wal.*,
  // recovery.* tickers from the fill and the measured reopen).
  options.statistics = bench::BenchStatistics().get();

  CrashWorkloadOptions crash;
  crash.wal_bytes = wal_bytes;
  crash.value_size = 512;

  uint64_t keys = 0;
  {
    std::unique_ptr<DB> db;
    if (!DB::Open(options, dbname, &db).ok() ||
        !FillWalForCrash(db.get(), crash, &keys).ok()) {
      std::abort();
    }
  }

  RecoveryMeasurement m = MeasureRecovery(options, dbname);
  Row row{};
  row.wall_ms = m.stats.wall_micros / 1000.0;
  row.parallel_ms =
      (m.stats.replay_critical_micros + m.stats.flush_critical_micros) /
      1000.0;
  row.records = m.stats.records_replayed;

  std::unique_ptr<DB> db;
  if (DB::Open(options, dbname, &db).ok()) {
    row.lost = VerifyRecoveredKeys(db.get(), crash, keys);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // In-memory env: replay is CPU-bound (fast-NVMe regime); see DESIGN.md on
  // the 1-core host limitation.
  auto env = NewMemEnv();
  const std::string workdir = "/bench_recovery";
  bench::JsonReport report("recovery");

  const int wal_mib = smoke ? 2 : (small ? 16 : 64);
  std::printf("E5a — recovery time vs eWAL striping (%d MiB unflushed WAL)\n\n",
              wal_mib);
  std::printf("%-10s %12s %14s %12s %10s %8s\n", "WAL", "wall(ms)",
              "parallel(ms)", "speedup", "records", "lost");
  const uint64_t wal_bytes = static_cast<uint64_t>(wal_mib) << 20;
  double base_parallel = 0;
  for (int segments : {1, 2, 4, 8, 16}) {
    Row r = RunOne(workdir, segments, wal_bytes, env.get());
    if (segments == 1) base_parallel = r.parallel_ms;
    char name[24];
    std::snprintf(name, sizeof(name), "eWAL-%d", segments);
    std::printf("%-10s %12.1f %14.1f %11.2fx %10llu %8llu\n", name, r.wall_ms,
                r.parallel_ms,
                r.parallel_ms > 0 ? base_parallel / r.parallel_ms : 0.0,
                (unsigned long long)r.records, (unsigned long long)r.lost);
    std::fflush(stdout);
    report.Row(name);
    report.Metric("records", static_cast<double>(r.records));
    report.Metric("wall_ms", r.wall_ms);
    report.Metric("parallel_ms", r.parallel_ms);
    report.Metric("lost", static_cast<double>(r.lost));
  }

  std::printf("\nE5b — recovery time vs WAL size (eWAL-4 vs eWAL-1)\n\n");
  std::printf("%-10s %14s %14s %14s %14s\n", "WAL MiB", "eWAL-1 wall",
              "eWAL-1 par.", "eWAL-4 wall", "eWAL-4 par.");
  for (uint64_t mib : {4ull, 8ull, 16ull, small ? 24ull : 32ull}) {
    Row one = RunOne(workdir, 1, mib << 20, env.get());
    Row four = RunOne(workdir, 4, mib << 20, env.get());
    std::printf("%-10llu %14.1f %14.1f %14.1f %14.1f\n",
                (unsigned long long)mib, one.wall_ms, one.parallel_ms,
                four.wall_ms, four.parallel_ms);
    std::fflush(stdout);
  }

  std::printf("\nShape check: parallel recovery time scales near-linearly "
              "with segments until\nthe flush stage dominates; recovery time "
              "grows linearly with WAL volume.\n");
  return 0;
}
