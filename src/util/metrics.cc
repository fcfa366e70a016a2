#include "util/metrics.h"

#include <cstdio>
#include <functional>
#include <thread>

#include "util/clock.h"

namespace rocksmash {

namespace {

const char* const kTickerNames[TICKER_ENUM_MAX] = {
    "block.cache.hit",
    "block.cache.miss",
    "bloom.filter.useful",
    "memtable.hit",
    "keys.read",
    "keys.written",
    "wal.writes",
    "wal.bytes",
    "wal.syncs",
    "wal.sync.overlapped",
    "block.reads.local",
    "block.reads.cloud",
    "pcache.hit",
    "pcache.miss",
    "pcache.point.hit",
    "pcache.point.miss",
    "pcache.admit",
    "pcache.admit.rejected",
    "pcache.evicted.bytes",
    "pcache.forced.drop.bytes",
    "pcache.invalidations",
    "pcache.gc.runs",
    "pcache.gc.bytes.rewritten",
    "pcache.metadata.hit",
    "pcache.metadata.miss",
    "cloud.get.count",
    "cloud.get.bytes",
    "cloud.put.count",
    "cloud.put.bytes",
    "cloud.readahead.hit",
    "cloud.uploads.completed",
    "cloud.upload.retries",
    "cloud.uploads.parked",
    "cloud.uploads.cancelled",
    "cloud.downloads",
    "cloud.delete.failed",
    "hot.file.pins",
    "flush.count",
    "flush.lane.bytes.written",
    "compaction.count",
    "compaction.lane.bytes.read",
    "compaction.lane.bytes.written",
    "compaction.trivial.moves",
    "stall.l0.slowdown.count",
    "stall.l0.slowdown.micros",
    "stall.memtable.wait.count",
    "stall.memtable.wait.micros",
    "stall.l0.stop.count",
    "stall.l0.stop.micros",
    "recovery.logs.replayed",
    "recovery.records.replayed",
    "recovery.bytes.replayed",
    "recovery.memtables.flushed",
    "multiget.batches",
    "multiget.keys",
    "multiget.memtable.hits",
    "multiget.coalesced.blocks",
    "multiget.cloud.parallel.gets",
    "write.groups",
    "write.group.size",
    "write.concurrent.applies",
    "scan.runs.skipped",
    "scan.readahead.issued",
    "scan.readahead.bytes",
    "scan.readahead.hits",
    "trace.records.written",
    "trace.records.dropped",
    "replay.ops.issued",
    "replay.behind.us",
    "blob.write.separated",
    "blob.write.separated.bytes",
    "blob.write.inline",
    "blob.read.count",
    "blob.read.bytes",
    "blob.files.created",
    "blob.gc.rewritten.bytes",
    "blob.gc.files.obsoleted",
    "shard.write.batches.split",
    "shard.multiget.fanout",
    "shard.cache.stripe.contention",
};

const char* const kHistogramNames[HISTOGRAM_ENUM_MAX] = {
    "get.latency.us",
    "write.latency.us",
    "scan.seek.latency.us",
    "wal.sync.latency.us",
    "cloud.get.latency.us",
    "cloud.put.latency.us",
    "cloud.upload.job.latency.us",
    "flush.latency.us",
    "compaction.latency.us",
    "manifest.write.latency.us",
    "recovery.replay.latency.us",
    "recovery.flush.latency.us",
    "multiget.latency.us",
    "write.queue.wait.us",
    "write.stall.us",
};

// "pcache.gc.runs" -> "rocksmash_pcache_gc_runs".
std::string PrometheusName(const char* dotted) {
  std::string out = "rocksmash_";
  for (const char* p = dotted; *p != '\0'; ++p) {
    out.push_back(*p == '.' ? '_' : *p);
  }
  return out;
}

int StripeForThisThread() {
  static thread_local const int stripe = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 7u);
  return stripe;
}

}  // namespace

const char* TickerName(uint32_t ticker) {
  return ticker < TICKER_ENUM_MAX ? kTickerNames[ticker] : "unknown";
}

const char* HistogramName(uint32_t histogram) {
  return histogram < HISTOGRAM_ENUM_MAX ? kHistogramNames[histogram]
                                        : "unknown";
}

void HistogramImpl::Add(double value) {
  Stripe& s = stripes_[StripeForThisThread()];
  MutexLock l(&s.mu);
  s.histogram.Add(value);
}

void HistogramImpl::Clear() {
  for (Stripe& s : stripes_) {
    MutexLock l(&s.mu);
    s.histogram.Clear();
  }
}

Histogram HistogramImpl::Snapshot() const {
  Histogram merged;
  merged.Clear();
  for (const Stripe& s : stripes_) {
    MutexLock l(&s.mu);
    merged.Merge(s.histogram);
  }
  return merged;
}

uint64_t HistogramImpl::Count() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    MutexLock l(&s.mu);
    total += static_cast<uint64_t>(s.histogram.Count());
  }
  return total;
}

Statistics::Statistics() {
  for (auto& t : tickers_) t.store(0, std::memory_order_relaxed);
}

Histogram Statistics::GetHistogramSnapshot(uint32_t histogram) const {
  if (histogram >= HISTOGRAM_ENUM_MAX) {
    Histogram empty;
    empty.Clear();
    return empty;
  }
  return histograms_[histogram].Snapshot();
}

void Statistics::Reset() {
  for (auto& t : tickers_) t.store(0, std::memory_order_relaxed);
  for (auto& h : histograms_) h.Clear();
}

void Statistics::TickerMap(std::map<std::string, uint64_t>* out) const {
  out->clear();
  for (uint32_t t = 0; t < TICKER_ENUM_MAX; ++t) {
    (*out)[kTickerNames[t]] = GetTickerCount(t);
  }
}

std::string Statistics::ToString() const {
  std::string out;
  char buf[256];
  for (uint32_t t = 0; t < TICKER_ENUM_MAX; ++t) {
    std::snprintf(buf, sizeof(buf), "%-34s COUNT : %llu\n", kTickerNames[t],
                  static_cast<unsigned long long>(GetTickerCount(t)));
    out.append(buf);
  }
  for (uint32_t h = 0; h < HISTOGRAM_ENUM_MAX; ++h) {
    Histogram snap = histograms_[h].Snapshot();
    if (snap.Count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-34s P50 : %.1f P95 : %.1f P99 : %.1f COUNT : %llu "
                  "SUM : %.0f\n",
                  kHistogramNames[h], snap.Percentile(50), snap.Percentile(95),
                  snap.Percentile(99),
                  static_cast<unsigned long long>(snap.Count()), snap.Sum());
    out.append(buf);
  }
  return out;
}

std::string Statistics::DumpPrometheus() const {
  std::string out;
  char buf[256];
  // Counters come from the same TickerMap snapshot the map-valued
  // GetProperty serves, so the two exports can never disagree on a value.
  std::map<std::string, uint64_t> tickers;
  TickerMap(&tickers);
  for (const auto& [dotted, count] : tickers) {
    const std::string name = PrometheusName(dotted.c_str());
    out.append("# HELP ").append(name).append(" rocksmash ticker\n");
    out.append("# TYPE ").append(name).append(" counter\n");
    std::snprintf(buf, sizeof(buf), "%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(count));
    out.append(buf);
  }
  for (uint32_t h = 0; h < HISTOGRAM_ENUM_MAX; ++h) {
    Histogram snap = histograms_[h].Snapshot();
    const std::string name = PrometheusName(kHistogramNames[h]);
    out.append("# HELP ").append(name).append(" rocksmash histogram\n");
    out.append("# TYPE ").append(name).append(" summary\n");
    static const double kQuantiles[] = {0.5, 0.95, 0.99};
    for (double q : kQuantiles) {
      const double v = snap.Count() == 0 ? 0.0 : snap.Percentile(q * 100.0);
      std::snprintf(buf, sizeof(buf), "%s{quantile=\"%g\"} %g\n", name.c_str(),
                    q, v);
      out.append(buf);
    }
    std::snprintf(buf, sizeof(buf), "%s_sum %g\n", name.c_str(), snap.Sum());
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "%s_count %llu\n", name.c_str(),
                  static_cast<unsigned long long>(snap.Count()));
    out.append(buf);
  }
  return out;
}

std::shared_ptr<Statistics> CreateDBStatistics() {
  return std::make_shared<Statistics>();
}

StopWatch::StopWatch(Statistics* statistics, uint32_t histogram)
    : statistics_(statistics), histogram_(histogram) {
  if (statistics_ != nullptr) {
    start_micros_ = SystemClock::Default()->NowMicros();
  }
}

StopWatch::~StopWatch() {
  if (statistics_ != nullptr) {
    statistics_->RecordInHistogram(
        histogram_, static_cast<double>(SystemClock::Default()->NowMicros() -
                                        start_micros_));
  }
}

uint64_t StopWatch::ElapsedMicros() const {
  if (statistics_ == nullptr) return 0;
  return SystemClock::Default()->NowMicros() - start_micros_;
}

}  // namespace rocksmash
