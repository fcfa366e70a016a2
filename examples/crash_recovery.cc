// Crash-recovery demo: fill the WAL with unflushed writes, "crash", and
// time recovery with the eWAL at several striping factors — the paper's
// "fast parallel data recovery" claim, live.
//
//   ./example_crash_recovery [workdir] [wal_mib] [disk|mem]
//
// The last argument picks the storage medium: "mem" (default) uses an
// in-memory filesystem so replay is CPU-bound — the regime of a fast NVMe
// device, where parallel replay pays off; "disk" uses the host filesystem,
// where a bandwidth-bound medium caps the speedup.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "env/env.h"
#include "lsm/db.h"
#include "mash/recovery.h"

using namespace rocksmash;

int main(int argc, char** argv) {
  const std::string workdir =
      argc > 1 ? argv[1] : "/tmp/rocksmash_crash_demo";
  const uint64_t wal_mib = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
  const bool use_mem = argc > 3 ? std::strcmp(argv[3], "disk") != 0 : true;

  std::unique_ptr<Env> mem_env;
  if (use_mem) mem_env = NewMemEnv();
  Env* env = use_mem ? mem_env.get() : Env::Default();

  CrashWorkloadOptions crash;
  crash.wal_bytes = wal_mib << 20;
  crash.value_size = 512;

  std::printf("Crash-recovery demo: %llu MiB of unflushed WAL, value=512B\n\n",
              (unsigned long long)wal_mib);
  std::printf("%-12s %14s %12s %12s %14s %14s %10s\n", "WAL", "recovery(ms)",
              "replay(ms)", "flush(ms)", "parallel(ms)", "records", "lost");

  for (int segments : {1, 2, 4, 8}) {
    const std::string dbname =
        workdir + "/db_seg" + std::to_string(segments);
    if (!use_mem) std::filesystem::remove_all(dbname);
    Status dir_status = env->CreateDirRecursively(dbname);
    if (!dir_status.ok()) {
      std::fprintf(stderr, "create %s failed: %s\n", dbname.c_str(),
                   dir_status.ToString().c_str());
      return 1;
    }

    DBOptions options;
    options.env = env;
    options.wal_segments = segments;
    options.write_buffer_size = 2 * crash.wal_bytes;  // No flush: WAL holds all.

    uint64_t keys = 0;
    {
      std::unique_ptr<DB> db;
      Status s = DB::Open(options, dbname, &db);
      if (!s.ok() || !FillWalForCrash(db.get(), crash, &keys).ok()) {
        std::fprintf(stderr, "setup failed\n");
        return 1;
      }
      // Scope exit without flushing == crash.
    }

    RecoveryMeasurement m = MeasureRecovery(options, dbname);
    if (!m.status.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   m.status.ToString().c_str());
      return 1;
    }

    uint64_t lost = 0;
    {
      std::unique_ptr<DB> db;
      if (DB::Open(options, dbname, &db).ok()) {
        lost = VerifyRecoveredKeys(db.get(), crash, keys);
      }
    }

    const double ms = m.stats.wall_micros / 1000.0;
    // Critical-path time: what recovery costs with >= `segments` cores.
    const double parallel_ms = (m.stats.replay_critical_micros +
                                m.stats.flush_critical_micros) /
                               1000.0;
    char name[32];
    std::snprintf(name, sizeof(name), "eWAL-%d", segments);
    std::printf("%-12s %14.1f %12.1f %12.1f %14.1f %14llu %10llu\n", name, ms,
                m.stats.replay_micros / 1000.0, m.stats.flush_micros / 1000.0,
                parallel_ms,
                (unsigned long long)m.stats.records_replayed,
                (unsigned long long)lost);
    if (!use_mem) std::filesystem::remove_all(dbname);
  }

  std::printf("\nExpected shape: the parallel(ms) column — the critical path "
              "with one core per\nsegment — drops near-linearly with eWAL "
              "striping; wall-clock recovery(ms) shows\nthe same drop when "
              "the host has >= segment cores. Zero acked writes lost in\n"
              "every configuration.\n");
  return 0;
}
