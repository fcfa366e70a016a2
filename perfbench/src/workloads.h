// Workloads of the benchmark: the store configuration, the datasets, the
// answer model every reply is checked against, and the closed-loop clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/object_store.h"
#include "env/env.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "workload/ycsb.h"

namespace rmbench {

enum class Mix {
  kYcsbB,    // 95% Get / 5% update, zipfian, one client.
  kRwMixed,  // Synced uniform Puts beside zipfian 16-key MultiGets.
};

struct WorkloadSpec {
  const char* name;
  Mix mix;
  uint64_t records;
  int writer_threads;  // kRwMixed only; the other mixes run one client.
  int reader_threads;
  uint64_t warmup_ops;  // Read ops, spread over kWarmupThreads threads.
};

// The workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

constexpr size_t kValueSize = 400;
constexpr int kMultiGetKeys = 16;
constexpr int kWarmupThreads = 4;

// Values encode their key index and version ahead of an incompressible body
// derived from both, so every answer can be checked against the key asked.
std::string MakeKey(uint64_t index);
std::string MakeValue(uint64_t index, uint32_t version);
// True if `value` is the value of `index`; its version goes to *version.
bool DecodeValue(const rocksmash::Slice& value, uint64_t index,
                 uint32_t* version);

// What the store must hold. For each key index: the newest version a client
// has issued and the newest one the store acknowledged. Each key has at most
// one writer, so acked <= stored version <= issued at any moment.
class Model {
 public:
  explicit Model(uint64_t records);

  uint64_t records() const { return records_; }
  std::atomic<uint32_t>& issued(uint64_t i) { return issued_[i]; }
  std::atomic<uint32_t>& acked(uint64_t i) { return acked_[i]; }

  // Key -> index in key order: the load order and the read-back check.
  const std::map<std::string, uint64_t>& sorted() const { return sorted_; }

 private:
  const uint64_t records_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  std::map<std::string, uint64_t> sorted_;
};

// One store under test with the layers the benchmark hands it. Both tiers
// are modeled: the cloud by the simulated object store, the local device by
// an in-memory file system with a fixed sync latency.
struct Rig {
  std::unique_ptr<rocksmash::ObjectStore> sim;    // The sim object store.
  std::unique_ptr<rocksmash::ObjectStore> cloud;  // Decorator (traced).
  std::unique_ptr<rocksmash::Env> files;          // In-memory local files.
  std::unique_ptr<rocksmash::Env> device;         // Sync latency on files.
  std::unique_ptr<rocksmash::Env> env;            // Decorator (traced).
  std::shared_ptr<rocksmash::Statistics> stats;   // This store's (traced).
  rocksmash::SchemeOptions options;
  std::unique_ptr<rocksmash::KVStore> store;
};

// Sync latency of the modeled local device, about an NVMe flush.
constexpr uint64_t kSyncMicros = 100;

rocksmash::Status OpenRig(const std::string& local_dir, uint64_t seed,
                          bool traced, Rig* rig);
rocksmash::Status CloseStore(Rig* rig);
rocksmash::Status ReopenStore(Rig* rig);
// Flush, wait for compactions and for every cloud upload to land.
rocksmash::Status Settle(Rig* rig);
// Bytes of the store's local files; by_kind (optional) splits them by
// subdirectory, or by extension for top-level files.
uint64_t LocalBytes(Rig* rig,
                    std::map<std::string, uint64_t>* by_kind = nullptr);
rocksmash::Status Load(Rig* rig, Model* model);

// Latencies of one kind of client call, with each call's start time.
struct Latencies {
  std::vector<double> us;
  std::vector<uint64_t> start_ns;  // NowNanos clock.

  size_t size() const { return us.size(); }
  void Add(uint64_t start, uint64_t end);
  void Append(const Latencies& other);
};

// Closed-loop run results, one client thread's share merged.
struct ClientStats {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t traced_ops = 0;
  uint64_t traced_ns = 0;  // Wall time of traced ops, summed.
  Latencies get, put, multiget;
  uint64_t user_bytes_written = 0;
  std::string first_failure;
  rocksmash::PerfContext perf;  // Summed over traced ops.

  void Merge(const ClientStats& other);
  void Fail(const std::string& what);
};

// Tracing of ops, toggled by the run's coordinator in traced runs.
void SetOpTracing(bool on);

// Runs the workload's clients until `deadline_ns` (NowNanos clock).
ClientStats RunClients(Rig* rig, Model* model, const WorkloadSpec& spec,
                       uint64_t seed, uint64_t deadline_ns);

// Fills the caches: spec.warmup_ops reads of the workload's read kind (Get
// or MultiGet) over its key distribution, on kWarmupThreads threads.
ClientStats Warmup(Rig* rig, Model* model, const WorkloadSpec& spec,
                   uint64_t seed);

// Writes `n` synced-by-close updates with fresh versions (uniform keys).
ClientStats WriteUpdates(Rig* rig, Model* model, uint64_t n, uint64_t seed);

// Reads the whole store back in order and checks it equals the model at its
// acknowledged versions: no key missing, extra, out of order or stale.
ClientStats VerifyAll(Rig* rig, Model* model);

}  // namespace rmbench
