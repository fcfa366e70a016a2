// E10 — Ablation: compaction-aware cache layout (per-SST extents, dropped
// wholesale on invalidation) vs a global log layout (log cleaning reclaims
// dead bytes). Workload: readwhilewriting, so compaction continuously
// obsoletes SSTs and invalidation cost matters.
//
//   ./bench_ablation_layout [--small|--large]
#include <cstdio>

#include "common.h"

using namespace rocksmash;
using namespace rocksmash::bench;

int main(int argc, char** argv) {
  const std::string workdir = "/tmp/rocksmash_bench_layout";
  Scale scale = ParseScale(argc, argv);
  JsonReport report("ablation_layout");

  DriverSpec spec;
  spec.num_keys = scale.num_keys;
  spec.num_ops = scale.num_ops;
  spec.value_size = scale.value_size;

  std::printf("E10 — cache layout ablation under compaction churn "
              "(readwhilewriting, %llu keys)\n\n",
              (unsigned long long)spec.num_keys);
  std::printf("%-18s %12s %10s %14s %12s %14s %12s\n", "layout", "ops/sec",
              "hit%", "reclaim(ms)", "GC(ms)", "GC rewritten", "disk MiB");

  for (CacheLayout layout :
       {CacheLayout::kCompactionAware, CacheLayout::kGlobalLog}) {
    SchemeOptions base = DefaultSchemeOptions();
    base.kind = SchemeKind::kRocksMash;
    base.cache_layout = layout;
    Rig rig = OpenRig(workdir, SchemeKind::kRocksMash, base);
    LoadAndSettle(rig, spec);
    Warm(rig, spec, spec.num_ops / 4);

    DriverResult r = ReadWhileWriting(rig.store.get(), spec);
    rig.store->WaitForCompaction();
    auto stats = rig.store->Stats().persistent_cache;
    const uint64_t lookups = stats.hits + stats.misses;
    // Total space-reclamation cost: invalidation work plus (global-log
    // only) the log-cleaning rewrites it defers the work to.
    const double reclaim_ms =
        (stats.invalidation_micros + stats.gc_micros) / 1000.0;
    std::printf("%-18s %12.0f %9.1f%% %14.2f %12.2f %11.1fMiB %12.1f\n",
                layout == CacheLayout::kCompactionAware ? "compaction-aware"
                                                        : "global-log",
                r.throughput_ops_sec,
                lookups > 0 ? 100.0 * stats.hits / lookups : 0, reclaim_ms,
                stats.gc_micros / 1000.0,
                stats.gc_bytes_rewritten / 1048576.0,
                stats.disk_bytes / 1048576.0);
    std::fflush(stdout);
    report.AddResult(layout == CacheLayout::kCompactionAware
                         ? "compaction-aware"
                         : "global-log",
                     r);
    report.Metric("reclaim_ms", reclaim_ms);
  }

  std::printf("\nShape check: hit ratios match (same admission/eviction); "
              "the compaction-aware\nlayout invalidates in O(1) with zero GC "
              "traffic, while the global log pays\nlog-cleaning rewrites for "
              "the same churn.\n");
  return 0;
}
