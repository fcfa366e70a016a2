// rmbench: the RocksMash end-to-end benchmark program.
//
//   rmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-dir <dir>]
//
// Opens the RocksMash scheme over the simulated object store, builds it
// kSetupRounds times (open, load, settle; the last store is kept) and warms
// it up, runs the workload's closed-loop clients for --seconds, then closes
// and reopens the store kReopens times after a fixed unflushed write-back
// and finally reads the whole store back. Every answer is checked against
// the model. Prints each metric by name with its unit, then one JSON line
// with the metrics of the run kind: end-to-end ones untraced, per-layer ones
// traced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cost_meter.h"
#include "probes.h"
#include "workloads.h"

namespace rmbench {
namespace {

using rocksmash::ObjectStore;
using rocksmash::Status;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetupRounds = 3;
constexpr int kReopens = 9;
constexpr uint64_t kRecoveryRecords = 1500;  // ~0.6 MiB, under the memtable.
constexpr uint64_t kSampleNs = 250ull * 1000 * 1000;
constexpr int kSamplesPerSlice = 2;  // Traced runs flip tracing every 0.5 s.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "rmbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

ObjectStore::OpCounters Minus(const ObjectStore::OpCounters& a,
                              const ObjectStore::OpCounters& b) {
  ObjectStore::OpCounters d;
  d.puts = a.puts - b.puts;
  d.gets = a.gets - b.gets;
  d.heads = a.heads - b.heads;
  d.deletes = a.deletes - b.deletes;
  d.lists = a.lists - b.lists;
  d.bytes_uploaded = a.bytes_uploaded - b.bytes_uploaded;
  d.bytes_downloaded = a.bytes_downloaded - b.bytes_downloaded;
  return d;
}

void Add(const ObjectStore::OpCounters& a, ObjectStore::OpCounters* to) {
  to->puts += a.puts;
  to->gets += a.gets;
  to->heads += a.heads;
  to->deletes += a.deletes;
  to->lists += a.lists;
  to->bytes_uploaded += a.bytes_uploaded;
  to->bytes_downloaded += a.bytes_downloaded;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
  std::printf("metric %-40s %16.6f %-8s%s\n", name.c_str(), value,
              unit.c_str(), note.c_str());
}

class Report {
 public:
  void Add(std::vector<Metric>* to, const std::string& name, double value,
           const std::string& unit, const std::string& note = "") {
    if (!std::isfinite(value)) value = 0;
    to->push_back({name, value, unit});
    Print(name, value, unit, note);
  }
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

// Prints where the store's data sits: files per level and tier, and the
// local files' bytes by kind.
void PrintLayout(const char* when, Rig* rig) {
  std::string placement;
  if (rig->store->GetProperty("rocksmash.placement", &placement)) {
    std::printf("layout at %s:\n%s", when, placement.c_str());
  }
  std::map<std::string, uint64_t> by_kind;
  LocalBytes(rig, &by_kind);
  std::printf("local bytes at %s:", when);
  for (const auto& [kind, bytes] : by_kind) {
    std::printf(" %s=%.2fMiB", kind.c_str(), bytes / kMiB);
  }
  std::printf("\n");
}

// Runs the timed phase. A sampler thread records the store's footprint
// every kSampleNs; in traced runs it also alternates untraced and traced
// slices, so the trace overhead is measured on the same store and moment.
struct Phase {
  ClientStats clients;
  uint64_t start_ns = 0;
  uint64_t deadline_ns = 0;
  double seconds = 0;
  double traced_seconds = 0;
  std::vector<double> local_bytes;   // Samples of the local files' size.
  std::vector<double> stored_bytes;  // Samples of local + cloud bytes.
};

Phase RunPhase(Rig* rig, Model* model, const WorkloadSpec& spec,
               const Args& args) {
  Phase phase;
  const uint64_t start = NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(args.seconds * 1e9);
  phase.start_ns = start;
  phase.deadline_ns = deadline;
  std::thread sampler([&] {
    bool traced = false;
    uint64_t flipped = start;
    int ticks = 0;
    for (uint64_t tick = start + kSampleNs; tick < deadline;
         tick += kSampleNs) {
      const uint64_t now = NowNanos();
      if (tick > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(tick - now));
      }
      const double local = static_cast<double>(LocalBytes(rig));
      phase.local_bytes.push_back(local);
      phase.stored_bytes.push_back(local + rig->sim->BytesStored());
      if (args.trace && ++ticks % kSamplesPerSlice == 0) {
        const uint64_t at = NowNanos();
        if (traced) phase.traced_seconds += (at - flipped) / 1e9;
        traced = !traced;
        flipped = at;
        SetTracing(traced);
        SetOpTracing(traced);
      }
    }
    if (traced) {
      phase.traced_seconds += (NowNanos() - flipped) / 1e9;
      SetTracing(false);
      SetOpTracing(false);
    }
  });
  phase.clients = RunClients(rig, model, spec, args.seed, deadline);
  phase.seconds = (NowNanos() - start) / 1e9;
  sampler.join();
  return phase;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// The phase's latency and throughput figures are taken per window and the
// median over the windows is reported: a few seconds of host slowness
// (shared CPUs and disk) then move one window, not the run's figure.
constexpr int kWindows = 4;

int WindowOf(const Phase& phase, uint64_t start_ns) {
  const uint64_t span = phase.deadline_ns - phase.start_ns;
  const uint64_t at = start_ns - phase.start_ns;
  return static_cast<int>(std::min<uint64_t>(at * kWindows / span,
                                             kWindows - 1));
}

// Median over the phase's windows of stat(latencies started in the window).
template <typename Stat>
double Windowed(const Latencies& lat, const Phase& phase, Stat&& stat) {
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < lat.size(); i++) {
    windows[WindowOf(phase, lat.start_ns[i])].push_back(lat.us[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(stat(w));
  }
  return Median(per_window);
}

double WindowedThroughput(const ClientStats& cs, const Phase& phase) {
  std::vector<double> calls(kWindows, 0);
  for (const Latencies* lat : {&cs.get, &cs.put, &cs.multiget}) {
    for (uint64_t t : lat->start_ns) calls[WindowOf(phase, t)]++;
  }
  const double window_s =
      (phase.deadline_ns - phase.start_ns) / 1e9 / kWindows;
  return Median(calls) / window_s;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  // Local files live in the in-memory file system under this path.
  const std::string root = std::string("/rmbench/") + spec->name;
  std::printf("workload %s seed %llu seconds %.1f trace %d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Model model(spec->records);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  auto account = [&](const ClientStats& cs) {
    attempted += cs.ops;
    failed += cs.failed;
    if (first_failure.empty()) first_failure = cs.first_failure;
  };

  // Set-up: open, load and settle are repeated on fresh stores (the last
  // one is kept) and their median taken; the kept store is then warmed up.
  ObjectStore::OpCounters retired_sim;  // Counters of torn-down sim stores.
  std::vector<double> build_s;
  Rig rig;
  for (int round = 0; round < kSetupRounds; round++) {
    Rig r;
    const uint64_t t0 = NowNanos();
    Check(OpenRig(root + "/setup" + std::to_string(round), args.seed,
                  args.trace, &r),
          "open");
    const uint64_t t_open = NowNanos();
    Check(Load(&r, &model), "load");
    const uint64_t t_load = NowNanos();
    Check(Settle(&r), "settle");
    const uint64_t t_settle = NowNanos();
    build_s.push_back((t_settle - t0) / 1e9);
    std::printf("setup %d: open %.3f s, load %.3f s, settle %.3f s\n", round,
                (t_open - t0) / 1e9, (t_load - t_open) / 1e9,
                (t_settle - t_load) / 1e9);
    if (round + 1 == kSetupRounds) {
      rig = std::move(r);
    } else {
      Check(CloseStore(&r), "close");
      Add(r.sim->Counters(), &retired_sim);
    }
  }
  const uint64_t warm0 = NowNanos();
  account(Warmup(&rig, &model, *spec, args.seed + 101));
  const double warmup_s = (NowNanos() - warm0) / 1e9;
  std::printf("warm-up %.3f s\n", warmup_s);

  // Timed phase.
  PrintLayout("start", &rig);
  if (rig.stats) rig.stats->Reset();
  const ProbeTotals probes0 = SnapshotProbes();
  const ObjectStore::OpCounters cloud0 = rig.sim->Counters();
  const Phase phase = RunPhase(&rig, &model, *spec, args);
  const ObjectStore::OpCounters cloud_phase =
      Minus(rig.sim->Counters(), cloud0);
  const ProbeTotals probes = SnapshotProbes().Minus(probes0);
  account(phase.clients);
  const ClientStats& cs = phase.clients;

  std::vector<double> tickers;
  std::vector<rocksmash::Histogram> hist;
  if (rig.stats) {
    for (uint32_t t = 0; t < rocksmash::TICKER_ENUM_MAX; t++) {
      tickers.push_back(static_cast<double>(rig.stats->GetTickerCount(t)));
    }
    for (uint32_t h = 0; h < rocksmash::HISTOGRAM_ENUM_MAX; h++) {
      hist.push_back(rig.stats->GetHistogramSnapshot(h));
    }
  }
  PrintLayout("end", &rig);
  const double logical_bytes =
      static_cast<double>(model.records()) *
      static_cast<double>(MakeKey(0).size() + kValueSize);

  // Recovery: a fixed unflushed write-back, close, timed reopen.
  std::vector<double> recovery_s;
  uint64_t records_replayed = 0;
  for (int i = 0; i < kReopens; i++) {
    Check(rig.store->FlushMemTable(), "pre-close flush");
    account(WriteUpdates(&rig, &model, kRecoveryRecords,
                         args.seed * 31 + static_cast<uint64_t>(i)));
    Check(CloseStore(&rig), "close");
    const uint64_t t0 = NowNanos();
    Check(ReopenStore(&rig), "reopen");
    recovery_s.push_back((NowNanos() - t0) / 1e9);
    const rocksmash::RecoveryStats rs = rig.store->db()->GetRecoveryStats();
    records_replayed = rs.records_replayed;
    std::printf("reopen %d: %.3f ms (engine: replay %.3f ms, flush %.3f ms, "
                "%llu records)\n",
                i, recovery_s.back() * 1e3, rs.replay_micros / 1e3,
                rs.flush_micros / 1e3,
                static_cast<unsigned long long>(rs.records_replayed));
  }
  account(VerifyAll(&rig, &model));
  Check(CloseStore(&rig), "final close");

  Report report;
  auto e2e = [&](const std::string& n, double v, const std::string& u,
                 const std::string& note = "") {
    report.Add(&report.end_to_end, n, v, u, note);
  };
  auto layer = [&](const std::string& n, double v, const std::string& u) {
    report.Add(&report.per_layer, n, v, u);
  };

  // ---- End-to-end ----
  const Latencies* reads = &cs.get;
  if (spec->mix == Mix::kRwMixed) reads = &cs.multiget;
  auto samples = [](const Latencies& v) {
    return " (n=" + std::to_string(v.size()) + ")";
  };
  auto windowed = [&](const Latencies& v, double p) {
    return Windowed(v, phase, [p](const std::vector<double>& w) {
      return Percentile(w, p);
    });
  };
  rocksmash::CostMeter meter;
  const rocksmash::CostBreakdown cost =
      meter.MonthlyCost(0, 0, cloud_phase, /*hours_observed=*/730.0);
  const double request_usd = cost.cloud_requests_usd + cost.cloud_egress_usd;

  e2e("throughput_ops_s", WindowedThroughput(cs, phase), "ops/s",
      " (whole phase " + std::to_string(cs.ops / phase.seconds) + ")");
  // The read mean, not the median: on ycsb-b-cold the median falls in the
  // persistent-cache-hit mode, a few tens of microseconds of CPU work that
  // moved by up to 28% with the shared host's speed between runs.
  e2e("read_mean_us", Windowed(*reads, phase, Mean), "us", samples(*reads));
  Print("read_p50_us", windowed(*reads, 50), "us", samples(*reads));
  e2e("read_p99_us", windowed(*reads, 99), "us", samples(*reads));
  e2e("write_p50_us", windowed(cs.put, 50), "us", samples(cs.put));
  // Synced Puts wait on a modeled 100 us sync; their tail is the host's
  // wake-up latency after that sleep, which moved the p90 by a fifth
  // between sets of runs, so only the median is an end-to-end figure.
  Print("write_p90_us", windowed(cs.put, 90), "us", samples(cs.put));
  Print("write_p99_us", windowed(cs.put, 99), "us", samples(cs.put));
  // Whole-phase distributions, for reading along with the windowed figures.
  for (const auto& [label, v] :
       {std::pair<const char*, const Latencies*>{"get", &cs.get},
        {"put", &cs.put},
        {"multiget", &cs.multiget}}) {
    if (v->size() == 0) continue;
    std::printf("latency %-8s n=%zu", label, v->size());
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
      std::printf(" p%g=%.1f", p, Percentile(v->us, p));
    }
    std::printf(" us\n");
  }
  e2e("cost_usd_per_mop", Ratio(request_usd, cs.ops / 1e6), "USD");
  e2e("local_mib", Mean(phase.local_bytes) / kMiB, "MiB");
  e2e("space_amp", Ratio(Mean(phase.stored_bytes), logical_bytes), "ratio");
  // Reopens take ~10 ms, mostly fixed open work and fsyncs; their median
  // still moved by up to a third between runs, so it is a per-layer figure.
  Print("recovery_s", Median(recovery_s), "s");
  e2e("setup_s", Median(build_s) + warmup_s, "s");
  e2e("peak_rss_mib", PeakRssMiB(), "MiB");

  bool correct = failed == 0;

  if (args.trace) {
    auto tick = [&](uint32_t t) { return tickers[t]; };
    using namespace rocksmash;
    const double ops = static_cast<double>(cs.ops);
    const double traced_ops = static_cast<double>(cs.traced_ops);
    const double user_mib = cs.user_bytes_written / kMiB;
    const LayerTotals get = probes.Sum(kCloudGet);
    const LayerTotals put = probes.Sum(kCloudPut);
    const double get_mib = get.bytes / kMiB;

    // Decorator counts against the sim store's own, over the whole process.
    ObjectStore::OpCounters sim_total = retired_sim;
    Add(rig.sim->Counters(), &sim_total);
    const ProbeTotals all = SnapshotProbes();
    const LayerTotals all_get = all.Sum(kCloudGet);
    const LayerTotals all_put = all.Sum(kCloudPut);
    const bool counts_match = all_get.count == sim_total.gets &&
                              all_get.bytes == sim_total.bytes_downloaded &&
                              all_put.count == sim_total.puts &&
                              all_put.bytes == sim_total.bytes_uploaded;
    std::printf(
        "crosscheck process: decorator gets %llu / %llu B, puts %llu / %llu "
        "B; sim store gets %llu / %llu B, puts %llu / %llu B: %s\n",
        (unsigned long long)all_get.count, (unsigned long long)all_get.bytes,
        (unsigned long long)all_put.count, (unsigned long long)all_put.bytes,
        (unsigned long long)sim_total.gets,
        (unsigned long long)sim_total.bytes_downloaded,
        (unsigned long long)sim_total.puts,
        (unsigned long long)sim_total.bytes_uploaded,
        counts_match ? "equal" : "MISMATCH");
    if (!counts_match) {
      correct = false;
      if (first_failure.empty()) first_failure = "decorator counts differ";
    }
    std::printf(
        "crosscheck phase: cloud.get.count decorator %llu ticker %.0f, "
        "cloud.get.bytes decorator %llu ticker %.0f, cloud.put.count "
        "decorator %llu ticker %.0f, cloud.put.bytes decorator %llu ticker "
        "%.0f\n",
        (unsigned long long)get.count, tick(CLOUD_GET_COUNT),
        (unsigned long long)get.bytes, tick(CLOUD_GET_BYTES),
        (unsigned long long)put.count, tick(CLOUD_PUT_COUNT),
        (unsigned long long)put.bytes, tick(CLOUD_PUT_BYTES));

    // Spans: trace invariants, self times, Chrome trace file.
    const std::vector<Span> spans = CollectSpans();
    const SelfTimes self = AnalyzeSpans(spans);
    std::printf("trace: %zu spans, %llu background, %llu violations %s\n",
                spans.size(), (unsigned long long)self.background_spans,
                (unsigned long long)self.violations,
                self.first_violation.c_str());
    if (self.violations != 0) {
      correct = false;
      if (first_failure.empty()) first_failure = self.first_violation;
    }
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string trace_path =
        args.trace_dir + "/" + spec->name + ".trace.json";
    if (!WriteChromeTrace(spans, trace_path)) Die("cannot write " + trace_path);
    std::printf("trace written to %s\n", trace_path.c_str());
    const SelfTimes::PerOp* read_op = nullptr;
    const SelfTimes::PerOp* put_op = nullptr;
    for (const auto& [name, agg] : self.by_op) {
      if (name == "put") {
        put_op = &agg;
      } else {
        read_op = &agg;  // Each workload has one read kind.
      }
    }
    const SelfTimes::PerOp none;
    if (read_op == nullptr) read_op = &none;
    if (put_op == nullptr) put_op = &none;
    // Times that some workload never spends (stalls, compaction, uploads,
    // the Get path on a MultiGet workload) are reported as shares of the
    // traced op time or of the phase, so no time reads 0 on every run.
    const double op_us = cs.traced_ns / 1e3;
    const double phase_us = phase.seconds * 1e6;

    // cloud
    layer("cloud.get.count_per_op", Ratio(get.count, ops), "count");
    layer("cloud.get.kib_per_get", Ratio(get.bytes / 1024.0, get.count),
          "KiB");
    layer("cloud.get.wait_share",
          Ratio(probes.layer[kCloudGet][kClient].nanos / 1e3, op_us),
          "ratio");
    layer("cloud.get.busy_us_per_op", Ratio(get.nanos / 1e3, traced_ops),
          "us");
    layer("cloud.put.count", put.count, "count");
    layer("cloud.put.mib_per_user_mib", Ratio(put.bytes / kMiB, user_mib),
          "ratio");
    layer("cloud.failed_ops", probes.cloud_failed, "count");
    // env
    const LayerTotals& env_read = probes.layer[kEnvRead][kClient];
    layer("env.read.count_per_op", Ratio(env_read.count, ops), "count");
    layer("env.read.us_per_op", Ratio(env_read.nanos / 1e3, traced_ops), "us");
    layer("env.write.mib_per_user_mib",
          Ratio(probes.Sum(kEnvWrite).bytes / kMiB, user_mib), "ratio");
    layer("env.sync.count_per_write",
          Ratio(probes.Sum(kEnvSync).count, cs.put.size()), "count");
    layer("env.sync.write_share",
          Ratio(probes.layer[kEnvSync][kClient].nanos, put_op->span_ns),
          "ratio");
    // mash
    layer("pcache.hit_ratio",
          Ratio(tick(PERSISTENT_CACHE_HIT),
                tick(PERSISTENT_CACHE_HIT) + tick(PERSISTENT_CACHE_MISS)),
          "ratio");
    layer("pcache.admit_mib", probes.pcache_bytes_written / kMiB, "MiB");
    layer("pcache.evicted_mib", tick(PERSISTENT_CACHE_EVICTED_BYTES) / kMiB,
          "MiB");
    layer("pcache.invalidations", tick(PERSISTENT_CACHE_INVALIDATIONS),
          "count");
    layer("readahead.hit_ratio",
          Ratio(tick(CLOUD_READAHEAD_HIT), tick(CLOUD_BLOCK_READS)), "ratio");
    layer("cloud.fetch.blocks_per_mib",
          Ratio(tick(CLOUD_BLOCK_READS), get_mib), "count/MiB");
    layer("upload.busy_share",
          Ratio(hist[CLOUD_UPLOAD_JOB_LATENCY_US].Sum(), phase_us), "ratio");
    layer("recovery.records_replayed", records_replayed, "count");
    layer("recovery.reopen_s", Median(recovery_s), "s");
    // lsm / table
    layer("block_cache.hit_ratio",
          Ratio(tick(BLOCK_CACHE_HIT),
                tick(BLOCK_CACHE_HIT) + tick(BLOCK_CACHE_MISS)),
          "ratio");
    layer("bloom.useful_per_read",
          Ratio(tick(BLOOM_FILTER_USEFUL), tick(NUM_KEYS_READ)), "ratio");
    layer("memtable.hit_ratio", Ratio(tick(MEMTABLE_HIT), tick(NUM_KEYS_READ)),
          "ratio");
    layer("write.group.size_avg",
          Ratio(tick(WRITE_GROUP_SIZE), tick(WRITE_GROUPS)), "count");
    layer("write.stall_share",
          Ratio(tick(STALL_L0_SLOWDOWN_MICROS) +
                    tick(STALL_MEMTABLE_WAIT_MICROS) +
                    tick(STALL_L0_STOP_MICROS),
                phase_us),
          "ratio");
    layer("compaction.mib_written_per_user_mib",
          Ratio(tick(COMPACTION_LANE_BYTES_WRITTEN) / kMiB, user_mib),
          "ratio");
    layer("compaction.busy_share",
          Ratio(hist[COMPACTION_LATENCY_US].Sum(), phase_us), "ratio");
    layer("flush.count", tick(FLUSH_COUNT), "count");
    layer("multiget.coalesced_blocks_per_batch",
          Ratio(tick(MULTIGET_COALESCED_BLOCKS), tick(MULTIGET_BATCHES)),
          "count");
    layer("multiget.cloud_gets_per_batch",
          Ratio(get.count, tick(MULTIGET_BATCHES)), "count");
    // workload
    layer("op.self_us.read", Ratio(read_op->self_ns / 1e3, read_op->ops),
          "us");
    layer("op.self_us.put", Ratio(put_op->self_ns / 1e3, put_op->ops), "us");
    const rocksmash::PerfContext& perf = cs.perf;
    layer("perf.get_from_memtable_share",
          Ratio(perf.get_from_memtable_time, op_us), "ratio");
    layer("perf.get_from_sst_share", Ratio(perf.get_from_sst_time, op_us),
          "ratio");
    layer("perf.cloud_read_share", Ratio(perf.cloud_read_time, op_us),
          "ratio");
    layer("perf.wal_sync_share", Ratio(perf.wal_sync_time, op_us), "ratio");
    layer("perf.write_queue_wait_share",
          Ratio(perf.write_queue_wait_time, op_us), "ratio");
    layer("perf.write_stall_share", Ratio(perf.write_stall_time, op_us),
          "ratio");
    const double untraced_s = phase.seconds - phase.traced_seconds;
    layer("trace.overhead_ratio",
          Ratio(Ratio(traced_ops, phase.traced_seconds),
                Ratio(ops - traced_ops, untraced_s)),
          "ratio");
  }

  Print("error_ratio", Ratio(failed, attempted), "ratio");
  if (!first_failure.empty()) {
    std::printf("first failure: %s\n", first_failure.c_str());
  }
  const std::vector<Metric>& out =
      args.trace ? report.per_layer : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < out.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace rmbench

int main(int argc, char** argv) { return rmbench::Main(argc, argv); }
