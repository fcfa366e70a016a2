// rocksmash_dbbench: flag-driven benchmark driver in the style of RocksDB's
// db_bench, over any of the four schemes.
//
//   rocksmash_dbbench --scheme=rocksmash --benchmarks=fillrandom,readrandom
//                     --num=100000 --reads=20000 --value_size=400
//                     --db=/tmp/dbbench --cloud_dir=/tmp/dbbench_bucket
//
// Benchmarks: fillseq fillrandom readrandom readseq(scan) readwhilewriting
//             ycsbA..ycsbF replay stats
//
// Tracing: --trace_file=PATH captures every op of the run (see
// docs/TRACING.md); --benchmarks=replay --replay_file=PATH streams a
// captured trace back through the store at --fast_forward speed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/cost_meter.h"
#include "env/env.h"
#include "trace/replayer.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "workload/driver.h"
#include "workload/ycsb.h"

using namespace rocksmash;

namespace {

struct Flags {
  std::string scheme = "rocksmash";
  std::string benchmarks = "fillrandom,readrandom";
  std::string db = "/tmp/rocksmash_dbbench";
  std::string cloud_dir = "/tmp/rocksmash_dbbench_bucket";
  uint64_t num = 100000;
  uint64_t reads = 0;  // 0: = num
  uint64_t value_size = 400;
  uint64_t write_buffer_size = 1 << 20;
  uint64_t max_file_size = 1 << 20;
  uint64_t cache_size = 8 << 20;       // Local persistent/file cache
  uint64_t block_cache_size = 2 << 20; // RAM
  int cloud_level_start = 2;
  int wal_segments = 4;
  int max_open_files = 100;
  bool sync = false;
  bool fresh_db = true;
  double zipf_theta = 0.99;
  std::string distribution = "zipfian";
  uint64_t cloud_latency_us = 1000;
  uint64_t seed = 42;
  // Unified ticker/histogram collection; dumps after every phase.
  bool statistics = false;
  // 0 = off, 1 = counters, 2 = counters + timers (thread-local PerfContext,
  // summarized after every phase).
  int perf_level = 0;
  // Non-empty: capture every op of the run into this trace file
  // (StartTrace before the first benchmark, EndTrace after the last).
  std::string trace_file;
  uint64_t trace_sampling = 1;  // Record 1 in N ops (per thread).
  // The `replay` benchmark streams this captured trace through the store.
  std::string replay_file;
  double fast_forward = 0;  // 0 = max speed, 1 = recorded, N = N× faster.
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

bool ParseFlag(const char* arg, const char* name, uint64_t* out) {
  std::string s;
  if (ParseFlag(arg, name, &s)) {
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
  }
  return false;
}

bool ParseFlag(const char* arg, const char* name, int* out) {
  std::string s;
  if (ParseFlag(arg, name, &s)) {
    *out = std::atoi(s.c_str());
    return true;
  }
  return false;
}

bool ParseFlag(const char* arg, const char* name, double* out) {
  std::string s;
  if (ParseFlag(arg, name, &s)) {
    *out = std::atof(s.c_str());
    return true;
  }
  return false;
}

bool ParseFlag(const char* arg, const char* name, bool* out) {
  std::string s;
  if (ParseFlag(arg, name, &s)) {
    *out = (s == "1" || s == "true" || s == "yes");
    return true;
  }
  return false;
}

void Usage() {
  std::fprintf(
      stderr,
      "rocksmash_dbbench flags:\n"
      "  --scheme=local|cloud|sstcache|rocksmash\n"
      "  --benchmarks=LIST      comma-separated: fillseq fillrandom\n"
      "                         readrandom readseq readwhilewriting\n"
      "                         ycsbA..ycsbF replay stats\n"
      "  --num=N --reads=N --value_size=N --sync=0|1 --fresh_db=0|1\n"
      "  --db=PATH --cloud_dir=PATH --cloud_latency_us=N\n"
      "  --write_buffer_size=N --max_file_size=N --cache_size=N\n"
      "  --block_cache_size=N --cloud_level_start=N --wal_segments=N\n"
      "  --max_open_files=N --distribution=zipfian|uniform|latest\n"
      "  --zipf_theta=F --seed=N\n"
      "  --statistics=0|1       collect + dump tickers/histograms per phase\n"
      "  --perf_level=0|1|2     per-op PerfContext (1 counts, 2 +timers)\n"
      "  --trace_file=PATH      capture the whole run as an op trace\n"
      "  --trace_sampling=N     record 1 in N ops (default 1 = all)\n"
      "  --replay_file=PATH     trace for the `replay` benchmark\n"
      "  --fast_forward=F       replay pacing: 0 max speed, 1 recorded,\n"
      "                         N = N x faster than recorded\n");
}

SchemeKind ParseScheme(const std::string& s) {
  if (s == "local") return SchemeKind::kLocalOnly;
  if (s == "cloud") return SchemeKind::kCloudOnly;
  if (s == "sstcache") return SchemeKind::kCloudSstCache;
  return SchemeKind::kRocksMash;
}

void Report(const char* name, const DriverResult& r) {
  std::printf("%-18s : %10.0f ops/sec; %8llu ops; "
              "lat us p50 %.0f p99 %.0f max %.0f; nf %llu err %llu\n",
              name, r.throughput_ops_sec,
              (unsigned long long)r.operations, r.latency_us.Percentile(50),
              r.latency_us.Percentile(99), r.latency_us.Max(),
              (unsigned long long)r.not_found, (unsigned long long)r.errors);
  std::fflush(stdout);
}

void PrintStats(KVStore* store, ObjectStore* cloud) {
  auto s = store->Stats();
  std::printf("---- stats (%s) ----\n", store->Name());
  std::printf("storage: local %llu files / %.1f MiB; cloud %llu files / "
              "%.1f MiB; up %llu down %llu\n",
              (unsigned long long)s.storage.local_files,
              s.storage.local_bytes / 1048576.0,
              (unsigned long long)s.storage.cloud_files,
              s.storage.cloud_bytes / 1048576.0,
              (unsigned long long)s.storage.uploads,
              (unsigned long long)s.storage.downloads);
  if (cloud != nullptr) {
    auto c = cloud->Counters();
    std::printf("cloud ops: %llu PUT, %llu GET, %.1f MiB down, %.1f MiB up\n",
                (unsigned long long)c.puts, (unsigned long long)c.gets,
                c.bytes_downloaded / 1048576.0, c.bytes_uploaded / 1048576.0);
    CostMeter meter;
    auto cost = meter.MonthlyCost(
        s.storage.cloud_bytes,
        s.LocalBytes(),
        c, 1.0);
    std::printf("monthly cost: %s\n", CostMeter::Format(cost).c_str());
  }
  const uint64_t pl = s.persistent_cache.hits + s.persistent_cache.misses;
  if (pl > 0) {
    std::printf("persistent cache: %.1f%% hit (%llu/%llu); meta %llu slabs "
                "%.1f KiB\n",
                100.0 * s.persistent_cache.hits / pl,
                (unsigned long long)s.persistent_cache.hits,
                (unsigned long long)pl,
                (unsigned long long)s.persistent_cache.metadata.slabs,
                s.persistent_cache.metadata.bytes / 1024.0);
  }
  const uint64_t bl = s.block_cache.hits + s.block_cache.misses;
  if (bl > 0) {
    std::printf("block cache: %.1f%% hit (%llu/%llu)\n",
                100.0 * s.block_cache.hits / bl,
                (unsigned long long)s.block_cache.hits,
                (unsigned long long)bl);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    if (ParseFlag(a, "scheme", &flags.scheme) ||
        ParseFlag(a, "benchmarks", &flags.benchmarks) ||
        ParseFlag(a, "db", &flags.db) ||
        ParseFlag(a, "cloud_dir", &flags.cloud_dir) ||
        ParseFlag(a, "num", &flags.num) ||
        ParseFlag(a, "reads", &flags.reads) ||
        ParseFlag(a, "value_size", &flags.value_size) ||
        ParseFlag(a, "write_buffer_size", &flags.write_buffer_size) ||
        ParseFlag(a, "max_file_size", &flags.max_file_size) ||
        ParseFlag(a, "cache_size", &flags.cache_size) ||
        ParseFlag(a, "block_cache_size", &flags.block_cache_size) ||
        ParseFlag(a, "cloud_level_start", &flags.cloud_level_start) ||
        ParseFlag(a, "wal_segments", &flags.wal_segments) ||
        ParseFlag(a, "max_open_files", &flags.max_open_files) ||
        ParseFlag(a, "sync", &flags.sync) ||
        ParseFlag(a, "fresh_db", &flags.fresh_db) ||
        ParseFlag(a, "zipf_theta", &flags.zipf_theta) ||
        ParseFlag(a, "distribution", &flags.distribution) ||
        ParseFlag(a, "cloud_latency_us", &flags.cloud_latency_us) ||
        ParseFlag(a, "seed", &flags.seed) ||
        ParseFlag(a, "statistics", &flags.statistics) ||
        ParseFlag(a, "perf_level", &flags.perf_level) ||
        ParseFlag(a, "trace_file", &flags.trace_file) ||
        ParseFlag(a, "trace_sampling", &flags.trace_sampling) ||
        ParseFlag(a, "replay_file", &flags.replay_file) ||
        ParseFlag(a, "fast_forward", &flags.fast_forward)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", a);
    Usage();
    return 1;
  }
  if (flags.reads == 0) flags.reads = flags.num;

  if (flags.fresh_db) {
    std::filesystem::remove_all(flags.db);
    std::filesystem::remove_all(flags.cloud_dir);
  }

  CloudLatencyModel model;
  model.get_first_byte_micros = flags.cloud_latency_us;
  model.put_first_byte_micros = flags.cloud_latency_us * 2;
  model.head_micros = flags.cloud_latency_us;
  model.jitter_micros = flags.cloud_latency_us / 5;
  auto cloud =
      NewSimObjectStore(flags.cloud_dir, SystemClock::Default(), model);

  SchemeOptions options;
  options.kind = ParseScheme(flags.scheme);
  options.local_dir = flags.db;
  options.cloud =
      options.kind == SchemeKind::kLocalOnly ? nullptr : cloud.get();
  options.write_buffer_size = flags.write_buffer_size;
  options.max_file_size = flags.max_file_size;
  options.local_cache_bytes = flags.cache_size;
  options.block_cache_bytes = flags.block_cache_size;
  options.cloud_level_start = flags.cloud_level_start;
  options.wal_segments = flags.wal_segments;
  options.max_open_files = flags.max_open_files;

  std::shared_ptr<Statistics> statistics;
  if (flags.statistics) {
    statistics = CreateDBStatistics();
    options.statistics = statistics.get();
  }
  if (flags.perf_level > 0) {
    SetPerfLevel(flags.perf_level >= 2 ? PerfLevel::kEnableTime
                                       : PerfLevel::kEnableCount);
  }

  std::unique_ptr<KVStore> store;
  Status s = OpenKVStore(options, &store);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  DriverSpec spec;
  spec.num_keys = flags.num;
  spec.num_ops = flags.reads;
  spec.value_size = flags.value_size;
  spec.sync_writes = flags.sync;
  spec.zipf_theta = flags.zipf_theta;
  spec.seed = flags.seed;
  spec.distribution = flags.distribution == "uniform"
                          ? Distribution::kUniform
                          : flags.distribution == "latest"
                                ? Distribution::kLatest
                                : Distribution::kZipfian;

  std::printf("scheme: %s; keys %llu x %llu B; %s\n", store->Name(),
              (unsigned long long)flags.num,
              (unsigned long long)flags.value_size,
              flags.benchmarks.c_str());

  if (!flags.trace_file.empty()) {
    trace::TraceOptions topts;
    topts.sampling_frequency = flags.trace_sampling;
    Status ts = store->StartTrace(topts, flags.trace_file);
    if (!ts.ok()) {
      std::fprintf(stderr, "StartTrace failed: %s\n", ts.ToString().c_str());
      return 1;
    }
    std::printf("tracing to %s (sampling 1/%llu)\n", flags.trace_file.c_str(),
                (unsigned long long)(flags.trace_sampling == 0
                                         ? 1
                                         : flags.trace_sampling));
  }

  std::string benchmarks = flags.benchmarks;
  size_t pos = 0;
  while (pos != std::string::npos) {
    size_t comma = benchmarks.find(',', pos);
    std::string name = benchmarks.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? std::string::npos : comma + 1;
    if (name.empty()) continue;

    if (name == "fillseq") {
      Report(name.c_str(), FillSeq(store.get(), spec));
    } else if (name == "fillrandom") {
      Report(name.c_str(), FillRandom(store.get(), spec));
      Status flush_status = store->FlushMemTable();
      if (!flush_status.ok()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     flush_status.ToString().c_str());
        return 1;
      }
      store->WaitForCompaction();
    } else if (name == "readrandom") {
      Report(name.c_str(), ReadRandom(store.get(), spec));
    } else if (name == "readseq") {
      Report(name.c_str(), ScanRandom(store.get(), spec));
    } else if (name == "readwhilewriting") {
      Report(name.c_str(), ReadWhileWriting(store.get(), spec));
    } else if (name.size() == 5 && name.rfind("ycsb", 0) == 0) {
      YcsbSpec base;
      base.record_count = flags.num;
      base.operation_count = flags.reads;
      base.value_size = flags.value_size;
      base.zipf_theta = flags.zipf_theta;
      base.sync_writes = flags.sync;
      base.seed = flags.seed;
      YcsbSpec yspec = YcsbWorkload(name[4], base);
      YcsbResult r = YcsbRun(store.get(), yspec);
      std::printf("%-18s : %10.0f ops/sec; read p99 %.0f us; err %llu\n",
                  name.c_str(), r.throughput_ops_sec,
                  r.read_latency_us.Percentile(99),
                  (unsigned long long)r.errors);
    } else if (name == "replay") {
      if (flags.replay_file.empty()) {
        std::fprintf(stderr, "replay requires --replay_file=PATH\n");
        return 1;
      }
      trace::ReplayOptions ropts;
      ropts.fast_forward = flags.fast_forward;
      ropts.statistics = statistics.get();
      trace::Replayer replayer(store->db(), ropts);
      trace::ReplayResult rr;
      Status rs = replayer.Replay(Env::Default(), flags.replay_file, &rr);
      if (!rs.ok()) {
        std::fprintf(stderr, "replay failed: %s\n", rs.ToString().c_str());
        return 1;
      }
      std::printf("%-18s : %10.0f ops/sec; %8llu ops; %llu threads; "
                  "nf %llu err %llu; behind %.1f ms (max %.1f ms)\n",
                  name.c_str(),
                  rr.wall_micros > 0
                      ? 1e6 * (double)rr.ops_issued / (double)rr.wall_micros
                      : 0.0,
                  (unsigned long long)rr.ops_issued,
                  (unsigned long long)rr.threads,
                  (unsigned long long)rr.not_found,
                  (unsigned long long)rr.errors, rr.behind_total_us / 1000.0,
                  rr.behind_max_us / 1000.0);
      std::fflush(stdout);
    } else if (name == "stats") {
      PrintStats(store.get(), options.cloud);
    } else {
      std::fprintf(stderr, "unknown benchmark: %s\n", name.c_str());
      continue;
    }

    // Per-phase observability dumps (cumulative tickers, per-phase perf
    // context — the context is reset so each phase reports only itself).
    if (flags.perf_level > 0) {
      std::printf("perf context (%s): %s\n", name.c_str(),
                  GetPerfContext()->ToString().c_str());
      GetPerfContext()->Reset();
    }
    if (flags.statistics && name != "stats") {
      std::printf("---- statistics after %s ----\n%s", name.c_str(),
                  statistics->ToString().c_str());
    }
  }

  if (!flags.trace_file.empty()) {
    Status ts = store->EndTrace();
    if (!ts.ok()) {
      std::fprintf(stderr, "EndTrace failed: %s\n", ts.ToString().c_str());
      return 1;
    }
    std::printf("trace written: %s\n", flags.trace_file.c_str());
  }
  return 0;
}
