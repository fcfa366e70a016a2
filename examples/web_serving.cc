// Web-serving scenario: the workload the paper's introduction motivates — a
// web-scale application whose working set is far smaller than its total
// dataset. A zipfian read-mostly mix (YCSB-B) runs against all four schemes
// and prints a side-by-side comparison: throughput, tail latency, where the
// bytes live, and the monthly bill.
//
//   ./example_web_serving [workdir]
#include <cstdio>
#include <filesystem>

#include "baselines/kvstore.h"
#include "cloud/cost_meter.h"
#include "util/clock.h"
#include "workload/ycsb.h"

using namespace rocksmash;

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : "/tmp/rocksmash_web";
  std::filesystem::remove_all(workdir);

  YcsbSpec base;
  base.record_count = 100000;
  base.operation_count = 20000;
  base.value_size = 400;
  YcsbSpec spec = YcsbWorkload('B', base);  // 95% read, zipfian.

  std::printf("Web-serving workload: YCSB-B, %llu records x %zu B values, "
              "%llu ops, zipfian(0.99)\n\n",
              (unsigned long long)spec.record_count, spec.value_size,
              (unsigned long long)spec.operation_count);
  std::printf("%-14s %12s %10s %10s %12s %12s %14s\n", "scheme", "ops/sec",
              "p50(us)", "p99(us)", "local(MiB)", "cloud(MiB)", "$/month");

  for (SchemeKind kind :
       {SchemeKind::kLocalOnly, SchemeKind::kCloudOnly,
        SchemeKind::kCloudSstCache, SchemeKind::kRocksMash}) {
    const std::string dir =
        workdir + "/" + SchemeName(kind);
    auto cloud = NewSimObjectStore(workdir + "/bucket_" + SchemeName(kind),
                                   SystemClock::Default());

    // Regime of the paper's motivation: dataset (~45 MiB) well beyond the
    // RAM block cache (2 MiB); the local byte budget (8 MiB, ~18%) is what
    // each cloud-backed scheme gets to spend on locality.
    SchemeOptions options;
    options.kind = kind;
    options.local_dir = dir;
    options.cloud = kind == SchemeKind::kLocalOnly ? nullptr : cloud.get();
    options.write_buffer_size = 1 << 20;
    options.max_file_size = 1 << 20;
    options.block_cache_bytes = 2 << 20;
    options.local_cache_bytes = 8 << 20;
    options.max_bytes_for_level_base = 4 << 20;
    options.cloud_level_start = 2;  // RocksMash: L0+L1 local, rest cloud.
    // Fairness: an open table reader pins its file-cache entry (open fd),
    // so bound pinned bytes to the local budget: 8 x 1 MiB files = 8 MiB.
    options.max_open_files = 8;

    std::unique_ptr<KVStore> store;
    Status s = OpenKVStore(options, &store);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s failed: %s\n", SchemeName(kind),
                   s.ToString().c_str());
      return 1;
    }

    if (!YcsbLoad(store.get(), spec).ok()) return 1;
    if (!store->FlushMemTable().ok()) return 1;
    store->WaitForCompaction();
    // Warm-up pass so every scheme starts with steady-state caches.
    YcsbSpec warm = spec;
    warm.operation_count = spec.operation_count / 4;
    YcsbRun(store.get(), warm);

    YcsbResult result = YcsbRun(store.get(), spec);
    auto stats = store->Stats();

    CostMeter meter;
    auto cost = meter.MonthlyCost(
        stats.storage.cloud_bytes,
        stats.LocalBytes(),
        stats.cloud_ops, /*hours_observed=*/1.0);

    std::printf("%-14s %12.0f %10.0f %10.0f %12.1f %12.1f %14.4f\n",
                store->Name(), result.throughput_ops_sec,
                result.read_latency_us.Percentile(50),
                result.read_latency_us.Percentile(99),
                stats.storage.local_bytes / 1048576.0,
                stats.storage.cloud_bytes / 1048576.0, cost.total());
    if (kind == SchemeKind::kRocksMash) {
      std::printf("  [rocksmash pcache: %llu hits / %llu misses, "
                  "meta %llu hits / %llu misses, %0.1f MiB data]\n",
                  (unsigned long long)stats.persistent_cache.hits,
                  (unsigned long long)stats.persistent_cache.misses,
                  (unsigned long long)stats.persistent_cache.metadata.hits,
                  (unsigned long long)stats.persistent_cache.metadata.misses,
                  stats.persistent_cache.data_bytes / 1048576.0);
    }
  }

  std::printf("\nExpected shape: LocalOnly fastest & most expensive; "
              "CloudOnly cheapest & slowest;\nRocksMash approaches LocalOnly "
              "performance at near-CloudOnly cost.\n");
  return 0;
}
