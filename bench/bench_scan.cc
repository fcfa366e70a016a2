// E9 — Scan throughput per scheme at several scan lengths (the range-query
// figure), plus two scan-engine phases: cold cloud-heavy long-range scans
// with streaming readahead off vs on (one GET per block vs the async
// prefetch pipeline) and with the default ReadBlock window in front of the
// pipeline, and prefix-mode scans over overlapping runs showing
// filter-based run skipping.
//
//   ./bench_scan [--small|--large|--smoke]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "util/prefix_extractor.h"

using namespace rocksmash;
using namespace rocksmash::bench;

namespace {

// Cold cloud-heavy rig: every SST cloud-resident, a ReadBlock readahead
// window of `readahead_bytes`, and a local cache too small to absorb the
// dataset — each scan pays real range GETs.
Rig OpenColdCloudRig(const std::string& workdir, uint64_t readahead_bytes) {
  SchemeOptions o = DefaultSchemeOptions();
  o.cloud_level_start = 0;
  o.cloud_readahead_bytes = readahead_bytes;
  o.block_cache_bytes = 256 * 1024;
  o.local_cache_bytes = 256 * 1024;
  return OpenRig(workdir, SchemeKind::kRocksMash, o);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = "/tmp/rocksmash_bench_scan";
  Scale scale = ParseScale(argc, argv);
  JsonReport report("scan");

  // Each cell times `passes` passes (fresh scan start keys each) and prints
  // their median with the min-max spread: one pass per cell cannot tell a
  // change from host noise.
  const int passes = scale.smoke ? 3 : 5;
  std::printf("E9 — scans/sec by scan length (%llu keys x %zu B), median "
              "[min-max] of %d passes\n\n",
              (unsigned long long)scale.num_keys, scale.value_size, passes);
  std::printf("%-14s", "scheme");
  const int lengths[] = {10, 100, 1000};
  for (int len : lengths) std::printf(" %22d", len);
  std::printf("\n");

  for (SchemeKind kind : kAllSchemes) {
    Rig rig = OpenRig(workdir, kind);
    DriverSpec spec;
    spec.num_keys = scale.num_keys;
    spec.value_size = scale.value_size;
    LoadAndSettle(rig, spec);

    std::printf("%-14s", rig.store->Name());
    for (int len : lengths) {
      DriverSpec scan_spec = spec;
      scan_spec.scan_length = len;
      scan_spec.num_ops = std::max<uint64_t>(20, scale.num_ops / (4 * len));
      std::vector<DriverResult> runs;
      for (int pass = 0; pass < passes; pass++) {
        scan_spec.seed = spec.seed + static_cast<uint64_t>(pass);
        runs.push_back(ScanRandom(rig.store.get(), scan_spec));
      }
      std::sort(runs.begin(), runs.end(),
                [](const DriverResult& a, const DriverResult& b) {
                  return a.throughput_ops_sec < b.throughput_ops_sec;
                });
      const DriverResult& median = runs[runs.size() / 2];
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.0f [%.0f-%.0f]",
                    median.throughput_ops_sec, runs.front().throughput_ops_sec,
                    runs.back().throughput_ops_sec);
      std::printf(" %22s", cell);
      std::fflush(stdout);
      report.AddResult(std::string(rig.store->Name()) + "/len" +
                           std::to_string(len),
                       median);
      report.Metric("passes", passes);
      report.Metric("min_ops_per_sec", runs.front().throughput_ops_sec);
      report.Metric("max_ops_per_sec", runs.back().throughput_ops_sec);
    }
    std::printf("\n");
  }

  std::printf("\nShape check: scans amortize per-request cloud latency over "
              "more rows, so the\ncloud schemes close part of the gap as "
              "length grows; LocalOnly stays the ceiling.\n");

  // ---- Phase 2: cold cloud-heavy long-range scans. "readahead_off" is
  // one GET per block (no window, no streaming); "readahead_on" isolates the
  // async prefetch pipeline (coalesced range GETs overlapped with the
  // scan); "default_window" puts the default 256 KiB ReadBlock window in
  // front of the pipeline, the configuration every compaction input and
  // default scan runs. Separate rigs keep every variant cold.
  std::printf("\nE9b — cold cloud-heavy long-range scans (%llu-row scans)\n",
              (unsigned long long)scale.num_keys);
  const uint64_t long_scans = scale.smoke ? 6 : 20;
  struct Variant {
    const char* name;
    uint64_t cloud_readahead_bytes;
    uint64_t scan_readahead_bytes;
  };
  const Variant variants[] = {
      {"readahead_off", 0, 0},
      {"readahead_on", 0, 1 << 20},
      {"default_window", SchemeOptions().cloud_readahead_bytes, 1 << 20},
  };
  double ops[3] = {0, 0, 0};
  for (size_t i = 0; i < 3; i++) {
    const Variant& v = variants[i];
    Rig rig = OpenColdCloudRig(workdir + "/cold_" + v.name,
                               v.cloud_readahead_bytes);
    DriverSpec spec;
    spec.num_keys = scale.num_keys;
    spec.value_size = scale.value_size;
    LoadAndSettle(rig, spec);

    DriverSpec scan_spec = spec;
    scan_spec.scan_length = static_cast<int>(scale.num_keys);
    scan_spec.num_ops = long_scans;
    scan_spec.scan_readahead_bytes = v.scan_readahead_bytes;
    const ObjectStore::OpCounters before = rig.cloud->Counters();
    DriverResult r = ScanRandom(rig.store.get(), scan_spec);
    const ObjectStore::OpCounters after = rig.cloud->Counters();
    const double gets_per_scan =
        static_cast<double>(after.gets - before.gets) / long_scans;
    const double bytes_per_scan =
        static_cast<double>(after.bytes_downloaded - before.bytes_downloaded) /
        long_scans;
    ops[i] = r.throughput_ops_sec;
    std::printf("  %-15s %10.1f scans/sec  (p99 %.0f us)  %8.1f GETs  "
                "%10.0f B per scan\n",
                v.name, r.throughput_ops_sec, r.latency_us.Percentile(99),
                gets_per_scan, bytes_per_scan);
    report.AddResult(std::string("cold_cloud/") + v.name, r);
    report.Metric("cloud_gets_per_scan", gets_per_scan);
    report.Metric("cloud_get_bytes_per_scan", bytes_per_scan);
  }
  if (ops[0] > 0) {
    std::printf("  speedup (on vs off): %.2fx\n", ops[1] / ops[0]);
    report.Row("cold_cloud/summary");
    report.Metric("readahead_speedup", ops[1] / ops[0]);
  }

  // ---- Phase 3: prefix scans over overlapping runs. Two interleaved
  // loads with a flush in between leave every prefix group present in only
  // one of two overlapping runs, so half of all prefix seeks can skip a
  // run via its filter (scan.runs.skipped).
  std::printf("\nE9c — prefix scans with filter-based run skipping\n");
  {
    SchemeOptions o = DefaultSchemeOptions();
    o.cloud_level_start = 0;
    o.cloud_readahead_bytes = 0;
    // 16-digit DriverKey: a 15-byte prefix buckets keys into groups of 10.
    o.prefix_extractor = NewFixedPrefixExtractor(15);
    Rig rig = OpenRig(workdir + "/prefix", SchemeKind::kRocksMash, o);

    DriverSpec spec;
    spec.num_keys = scale.num_keys;
    spec.value_size = scale.value_size;
    WriteOptions wo;
    for (int pass = 0; pass < 2; pass++) {
      for (uint64_t i = 0; i < spec.num_keys; i++) {
        // Interleave groups of 10: even groups in run 0, odd in run 1.
        if (((i / 10) % 2) != static_cast<uint64_t>(pass)) continue;
        CheckOk(rig.store->Put(wo, DriverKey(spec, i), DriverValue(spec, i)),
                "prefix load");
      }
      CheckOk(rig.store->FlushMemTable(), "prefix flush");
    }

    DriverSpec scan_spec = spec;
    scan_spec.scan_length = 10;
    scan_spec.num_ops = std::max<uint64_t>(50, scale.num_ops / 10);
    scan_spec.prefix_scan = true;
    DriverResult r = ScanRandom(rig.store.get(), scan_spec);
    std::printf("  prefix scans  %10.0f scans/sec  runs skipped so far: "
                "%llu\n",
                r.throughput_ops_sec,
                (unsigned long long)BenchStatistics()->GetTickerCount(
                    SCAN_RUNS_SKIPPED));
    report.AddResult("prefix/len10", r);
  }
  return 0;
}
