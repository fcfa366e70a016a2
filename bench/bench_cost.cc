// E8 — Cost-effectiveness: steady-state YCSB-B per scheme; reports $/month
// (storage + requests) and $ per million operations of delivered
// throughput — the cost-performance table.
//
//   ./bench_cost [--small|--large]
#include <cstdio>

#include "common.h"

using namespace rocksmash;
using namespace rocksmash::bench;

int main(int argc, char** argv) {
  const std::string workdir = "/tmp/rocksmash_bench_cost";
  Scale scale = ParseScale(argc, argv);
  JsonReport report("cost");

  YcsbSpec base;
  base.record_count = scale.num_keys;
  base.operation_count = scale.num_ops;
  base.value_size = scale.value_size;
  YcsbSpec spec = YcsbWorkload('B', base);

  std::printf("E8 — cost-effectiveness, YCSB-B steady state "
              "(%llu records x %zu B)\n\n",
              (unsigned long long)spec.record_count, spec.value_size);
  std::printf("%-14s %12s %12s %12s %12s %14s\n", "scheme", "ops/sec",
              "storage$", "requests$", "total$/mo", "$ per Mops");

  CostMeter meter;
  for (SchemeKind kind : kAllSchemes) {
    Rig rig = OpenRig(workdir, kind);
    if (!YcsbLoad(rig.store.get(), spec).ok()) return 1;
    bench::CheckOk(rig.store->FlushMemTable(), "load flush");
    rig.store->WaitForCompaction();
    YcsbSpec warm = spec;
    warm.operation_count = spec.operation_count / 4;
    YcsbRun(rig.store.get(), warm);

    // Snapshot counters across the measured run only.
    auto before = rig.options.cloud != nullptr
                      ? rig.options.cloud->Counters()
                      : ObjectStore::OpCounters{};
    YcsbResult result = YcsbRun(rig.store.get(), spec);
    auto after = rig.options.cloud != nullptr
                     ? rig.options.cloud->Counters()
                     : ObjectStore::OpCounters{};
    ObjectStore::OpCounters delta;
    delta.gets = after.gets - before.gets;
    delta.puts = after.puts - before.puts;
    delta.heads = after.heads - before.heads;
    delta.lists = after.lists - before.lists;
    delta.bytes_downloaded = after.bytes_downloaded - before.bytes_downloaded;

    auto stats = rig.store->Stats();
    const double hours = result.wall_micros / 3.6e9;
    auto cost = meter.MonthlyCost(
        stats.storage.cloud_bytes,
        stats.LocalBytes(),
        delta, hours);

    // $ per million ops at the measured throughput, if sustained for the
    // month that the $ figure covers.
    const double mops_per_month =
        result.throughput_ops_sec * 3600.0 * 730.0 / 1e6;
    const double usd_per_mops =
        mops_per_month > 0 ? cost.total() / mops_per_month : 0;

    std::printf("%-14s %12.0f %12.4f %12.4f %12.4f %14.6f\n",
                rig.store->Name(), result.throughput_ops_sec,
                cost.cloud_storage_usd + cost.local_storage_usd,
                cost.cloud_requests_usd, cost.total(), usd_per_mops);
    std::fflush(stdout);
    report.Row(rig.store->Name());
    report.Metric("ops", static_cast<double>(spec.operation_count));
    report.Metric("ops_per_sec", result.throughput_ops_sec);
    report.Metric("read_p99_us", result.read_latency_us.Percentile(99));
    report.Metric("total_usd_month", cost.total());
    report.Metric("usd_per_mops", usd_per_mops);
  }

  std::printf("\nShape check: RocksMash's storage bill tracks CloudOnly "
              "(bulk bytes in the cloud)\nwhile its request bill collapses "
              "(reads served locally), so $/Mops lands near\nLocalOnly at a "
              "fraction of its capacity cost.\n");
  return 0;
}
