// Measurement probes of the benchmark, all outside the store:
//   - TracedObjectStore and TracedEnv decorate the cloud and local-file
//     layers handed to the store through SchemeOptions, counting every call
//     and, while tracing is on, timing it and recording a span;
//   - the span recorder keeps spans in per-thread memory, and writes them as
//     Chrome trace-event JSON when the run ends.
//
// A span on a client thread belongs to the op that thread is running (its
// parent); spans on the store's own threads (flush, compaction, upload and
// fetch pools) carry no parent and are reported as background.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "env/env.h"

namespace rmbench {

// Monotonic nanoseconds since the first call.
uint64_t NowNanos();

enum Layer : int {
  kCloudGet = 0,
  kCloudPut,
  kCloudOther,  // HEAD, LIST, DELETE
  kEnvRead,
  kEnvWrite,
  kEnvSync,
  kLayerCount,
};
const char* LayerName(int layer);

// Who issued a layer call: a client thread (inside or between its ops) or
// one of the store's background threads.
enum Origin : int { kClient = 0, kBackground = 1, kOriginCount = 2 };

struct LayerTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
  uint64_t nanos = 0;  // Only accrues while tracing is on.
};

// Process-wide probe state.
struct ProbeTotals {
  LayerTotals layer[kLayerCount][kOriginCount];
  uint64_t cloud_failed = 0;  // Cloud calls that returned an error.
  uint64_t pcache_bytes_written = 0;

  LayerTotals Sum(int l) const;
  ProbeTotals Minus(const ProbeTotals& base) const;
};
ProbeTotals SnapshotProbes();

// Background-thread spans and timing are recorded only while this is on;
// the client threads decide per op (BeginOp).
void SetTracing(bool on);

// Marks the calling thread as a benchmark client.
void MarkClientThread();

// Starts a traced op on the calling client thread; layer calls until EndOp
// become its children. Returns the op id.
uint64_t BeginOp();
// Records the op span [start_ns, end_ns] and leaves the op.
void EndOp(const char* name, uint64_t start_ns, uint64_t end_ns);

struct Span {
  const char* name = nullptr;  // Static string.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      // Op id for op spans, 0 for layer spans.
  uint64_t parent = 0;  // Enclosing op of a layer span; 0 = background.
  uint32_t tid = 0;
};

// Every span recorded so far. Call only once recording threads are quiet.
std::vector<Span> CollectSpans();

// Self time of the op spans, by op name, with the invariants of the trace
// checked: each child lies inside its parent, a parent's children do not
// overlap, and self time plus child time equals the op span.
struct SelfTimes {
  struct PerOp {
    uint64_t ops = 0;
    uint64_t span_ns = 0;
    uint64_t self_ns = 0;
    uint64_t child_ns = 0;
  };
  std::vector<std::pair<std::string, PerOp>> by_op;
  uint64_t background_spans = 0;
  uint64_t violations = 0;
  std::string first_violation;
};
SelfTimes AnalyzeSpans(const std::vector<Span>& spans);

// Writes the spans as Chrome trace-event JSON ("X" complete events).
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// Cloud decorator: forwards to `base` (not owned).
std::unique_ptr<rocksmash::ObjectStore> NewTracedObjectStore(
    rocksmash::ObjectStore* base);

// Local-file decorator: forwards to `base` (not owned). Bytes appended to
// files under `pcache_dir` are also counted as persistent-cache admissions.
std::unique_ptr<rocksmash::Env> NewTracedEnv(rocksmash::Env* base,
                                             std::string pcache_dir);

}  // namespace rmbench
