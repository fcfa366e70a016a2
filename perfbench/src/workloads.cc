#include "workloads.h"

#include <cstdio>
#include <thread>

#include "probes.h"
#include "util/clock.h"
#include "util/random.h"
#include "workload/zipf.h"

namespace rmbench {

using rocksmash::KVStore;
using rocksmash::PerfContext;
using rocksmash::PerfLevel;
using rocksmash::ReadOptions;
using rocksmash::Slice;
using rocksmash::Status;
using rocksmash::WriteOptions;

namespace {

// Both datasets are ~5x the 8 MiB local budget, so most reads leave the
// RAM cache.
const WorkloadSpec kWorkloads[] = {
    {"ycsb-b-cold", Mix::kYcsbB, 100000, 0, 1, 8000},
    {"rw-mixed", Mix::kRwMixed, 100000, 2, 2, 400},
};

constexpr double kZipfTheta = 0.99;
constexpr double kReadShare = 0.95;

constexpr size_t kHeaderSize = 26;  // "%016llx:%08x:"

rocksmash::YcsbSpec DataSpec() {
  rocksmash::YcsbSpec spec;
  spec.key_size = 24;
  spec.value_size = kValueSize;
  return spec;
}

// The repo's standard experiment scale: a 1 MiB memtable and SSTs, a 2 MiB
// RAM block cache and an 8 MiB local (persistent-cache) budget, with levels
// >= 2 in the cloud.
rocksmash::SchemeOptions StoreOptions() {
  rocksmash::SchemeOptions o;
  o.kind = rocksmash::SchemeKind::kRocksMash;
  o.write_buffer_size = 1 << 20;
  o.max_file_size = 1 << 20;
  o.block_cache_bytes = 2 << 20;
  o.local_cache_bytes = 8 << 20;
  o.max_bytes_for_level_base = 4 << 20;
  o.cloud_level_start = 2;
  o.max_open_files = 8;
  return o;
}

std::atomic<bool> g_op_tracing{false};

// Adds the timers the benchmark reports from one PerfContext to another.
void AddPerf(const PerfContext& from, PerfContext* to) {
  to->get_from_memtable_time += from.get_from_memtable_time;
  to->get_from_sst_time += from.get_from_sst_time;
  to->cloud_read_time += from.cloud_read_time;
  to->wal_sync_time += from.wal_sync_time;
  to->write_queue_wait_time += from.write_queue_wait_time;
  to->write_stall_time += from.write_stall_time;
}

// Times one client call; when op tracing is on it also becomes a traced op
// (span + PerfContext timers). The answer is checked by the caller after
// this returns, outside the timed interval.
template <typename F>
void TimedOp(ClientStats* cs, const char* name, Latencies* lat, F&& call) {
  const bool traced = g_op_tracing.load(std::memory_order_relaxed);
  if (traced) {
    rocksmash::SetPerfLevel(PerfLevel::kEnableTime);
    BeginOp();
  }
  const uint64_t start = NowNanos();
  call();
  const uint64_t end = NowNanos();
  if (traced) {
    EndOp(name, start, end);
    rocksmash::SetPerfLevel(PerfLevel::kDisable);
    cs->traced_ops++;
    cs->traced_ns += end - start;
  }
  cs->ops++;
  lat->Add(start, end);
}

struct Loop {
  uint64_t deadline_ns;
  uint64_t budget;
  uint64_t done = 0;
  bool More() {
    if (deadline_ns != 0) return NowNanos() < deadline_ns;
    return done++ < budget;
  }
};

// Checks a point read of loaded key `index` against the versions the model
// allows, [lo, hi].
void CheckRead(ClientStats* cs, uint64_t index, const Status& s,
               const Slice& value, uint32_t lo, uint32_t hi) {
  if (!s.ok()) {
    cs->Fail("read of loaded key " + std::to_string(index) + ": " +
             s.ToString());
    return;
  }
  uint32_t version = 0;
  if (!DecodeValue(value, index, &version)) {
    cs->Fail("value of key " + std::to_string(index) + " is not its own");
  } else if (version < lo || version > hi) {
    cs->Fail("key " + std::to_string(index) + " has version " +
             std::to_string(version) + ", want " + std::to_string(lo) + ".." +
             std::to_string(hi));
  }
}

// One versioned Put of key `index`; this thread must be its only writer.
void Update(KVStore* store, Model* model, ClientStats* cs, uint64_t index,
            bool sync) {
  const uint32_t version = model->issued(index).load() + 1;
  model->issued(index).store(version);
  const std::string key = MakeKey(index);
  const std::string value = MakeValue(index, version);
  WriteOptions wo;
  wo.sync = sync;
  Status s;
  TimedOp(cs, "put", &cs->put, [&] { s = store->Put(wo, key, value); });
  if (s.ok()) {
    model->acked(index).store(version);
    cs->user_bytes_written += key.size() + value.size();
  } else {
    cs->Fail("put of key " + std::to_string(index) + ": " + s.ToString());
  }
}

void RunYcsbB(KVStore* store, Model* model, uint64_t seed, Loop loop,
              double read_share, ClientStats* cs) {
  rocksmash::Random64 rng(seed);
  auto chooser = rocksmash::NewKeyChooser(rocksmash::Distribution::kZipfian,
                                          model->records(), kZipfTheta,
                                          seed + 1);
  ReadOptions ro;
  std::string value;
  while (loop.More()) {
    const uint64_t index = chooser->Next();
    if (rng.NextDouble() < read_share) {
      const std::string key = MakeKey(index);
      Status s;
      TimedOp(cs, "get", &cs->get, [&] { s = store->Get(ro, key, &value); });
      const uint32_t v = model->acked(index).load();
      CheckRead(cs, index, s, value, v, v);
    } else {
      Update(store, model, cs, index, /*sync=*/true);
    }
  }
}

void RunWriter(KVStore* store, Model* model, uint64_t seed, int writer,
               int writers, Loop loop, ClientStats* cs) {
  rocksmash::Random64 rng(seed);
  const uint64_t per_writer = model->records() / writers;
  while (loop.More()) {
    const uint64_t index = rng.Uniform(per_writer) * writers + writer;
    Update(store, model, cs, index, /*sync=*/true);
  }
}

void RunMultiGetReader(KVStore* store, Model* model, uint64_t seed, Loop loop,
                       ClientStats* cs) {
  auto chooser = rocksmash::NewKeyChooser(rocksmash::Distribution::kZipfian,
                                          model->records(), kZipfTheta, seed);
  ReadOptions ro;
  std::vector<uint64_t> index(kMultiGetKeys);
  std::vector<std::string> keys(kMultiGetKeys);
  std::vector<uint32_t> lo(kMultiGetKeys);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  while (loop.More()) {
    for (int i = 0; i < kMultiGetKeys; i++) {
      index[i] = chooser->Next();
      keys[i] = MakeKey(index[i]);
      lo[i] = model->acked(index[i]).load();
    }
    std::vector<Slice> slices(keys.begin(), keys.end());
    TimedOp(cs, "multiget", &cs->multiget,
            [&] { store->MultiGet(ro, slices, &values, &statuses); });
    if (values.size() != keys.size() || statuses.size() != keys.size()) {
      cs->Fail("multiget returned a short batch");
      continue;
    }
    for (int i = 0; i < kMultiGetKeys; i++) {
      CheckRead(cs, index[i], statuses[i], values[i], lo[i],
                model->issued(index[i]).load());
    }
  }
}

// Runs body(thread, thread_seed, stats) on n client threads and merges
// their stats.
template <typename Body>
ClientStats RunThreads(int n, uint64_t seed, Body body) {
  std::vector<ClientStats> per(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int t = 0; t < n; t++) {
    threads.emplace_back([&, t] {
      MarkClientThread();
      rocksmash::GetPerfContext()->Reset();
      body(t, seed * 1000003 + static_cast<uint64_t>(t) * 7919, &per[t]);
      per[t].perf = *rocksmash::GetPerfContext();
    });
  }
  for (std::thread& th : threads) th.join();
  ClientStats all;
  for (const ClientStats& cs : per) all.Merge(cs);
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string MakeKey(uint64_t index) {
  return rocksmash::YcsbKey(DataSpec(), index);
}

std::string MakeValue(uint64_t index, uint32_t version) {
  char header[kHeaderSize + 1];
  std::snprintf(header, sizeof(header), "%016llx:%08x:",
                static_cast<unsigned long long>(index), version);
  std::string value(header, kHeaderSize);
  value += rocksmash::YcsbValue(DataSpec(), index, version)
               .substr(0, kValueSize - kHeaderSize);
  return value;
}

bool DecodeValue(const Slice& value, uint64_t index, uint32_t* version) {
  if (value.size() != kValueSize) return false;
  unsigned long long got_index = 0;
  unsigned got_version = 0;
  char tail = 0;
  const std::string header(value.data(), kHeaderSize);
  if (std::sscanf(header.c_str(), "%16llx:%8x%c", &got_index, &got_version,
                  &tail) != 3 ||
      tail != ':' || got_index != index) {
    return false;
  }
  *version = got_version;
  return value == Slice(MakeValue(index, got_version));
}

Model::Model(uint64_t records)
    : records_(records),
      issued_(new std::atomic<uint32_t>[records]),
      acked_(new std::atomic<uint32_t>[records]) {
  for (uint64_t i = 0; i < records_; i++) {
    issued_[i].store(0);
    acked_[i].store(0);
    sorted_.emplace(MakeKey(i), i);
  }
}

void Latencies::Add(uint64_t start, uint64_t end) {
  us.push_back(static_cast<double>(end - start) / 1e3);
  start_ns.push_back(start);
}

void Latencies::Append(const Latencies& o) {
  us.insert(us.end(), o.us.begin(), o.us.end());
  start_ns.insert(start_ns.end(), o.start_ns.begin(), o.start_ns.end());
}

void ClientStats::Merge(const ClientStats& o) {
  ops += o.ops;
  failed += o.failed;
  traced_ops += o.traced_ops;
  traced_ns += o.traced_ns;
  get.Append(o.get);
  put.Append(o.put);
  multiget.Append(o.multiget);
  user_bytes_written += o.user_bytes_written;
  if (first_failure.empty()) first_failure = o.first_failure;
  AddPerf(o.perf, &perf);
}

void ClientStats::Fail(const std::string& what) {
  if (failed++ == 0) first_failure = what;
}

void SetOpTracing(bool on) {
  g_op_tracing.store(on, std::memory_order_relaxed);
}

Status OpenRig(const std::string& local_dir, uint64_t seed, bool traced,
               Rig* rig) {
  // Modeled tiers: the shared host disk moved fsync-bound figures by a
  // fifth from run to run, and the directory-backed object store's own
  // file writes and fsyncs competed with the store's.
  rocksmash::SystemClock* clock = rocksmash::SystemClock::Default();
  rig->sim = rocksmash::NewMemObjectStore(clock, rocksmash::CloudLatencyModel{},
                                          seed);
  rig->files = rocksmash::NewMemEnv();
  rocksmash::DeviceLatencyModel device;
  device.sync_micros = kSyncMicros;
  rig->device = rocksmash::NewTimedEnv(rig->files.get(), clock, device);
  rig->options = StoreOptions();
  rig->options.local_dir = local_dir;
  rig->options.cloud = rig->sim.get();
  rig->options.env = rig->device.get();
  if (traced) {
    rig->cloud = NewTracedObjectStore(rig->sim.get());
    rig->env = NewTracedEnv(rig->device.get(), local_dir + "/pcache/");
    rig->stats = rocksmash::CreateDBStatistics();
    rig->options.cloud = rig->cloud.get();
    rig->options.env = rig->env.get();
    rig->options.statistics = rig->stats.get();
  }
  return rocksmash::OpenKVStore(rig->options, &rig->store);
}

Status CloseStore(Rig* rig) {
  Status s = rig->store->db()->Close();
  rig->store.reset();
  return s;
}

Status ReopenStore(Rig* rig) {
  return rocksmash::OpenKVStore(rig->options, &rig->store);
}

uint64_t LocalBytes(Rig* rig, std::map<std::string, uint64_t>* by_kind) {
  const std::string& root = rig->options.local_dir;
  uint64_t total = 0;
  // Directories are implicit in the in-memory file system: a child without
  // a size is a directory. kind is the top-level entry a file sits under.
  auto walk = [&](auto&& self, const std::string& dir,
                  const std::string& kind) -> void {
    std::vector<std::string> children;
    if (!rig->files->GetChildren(dir, &children).ok()) return;
    for (const std::string& child : children) {
      const std::string path = dir + "/" + child;
      uint64_t size = 0;
      if (rig->files->GetFileSize(path, &size).ok()) {
        total += size;
        if (by_kind != nullptr) {
          const size_t dot = child.rfind('.');
          (*by_kind)[!kind.empty() ? kind
                     : dot == std::string::npos ? child
                                                : child.substr(dot)] += size;
        }
      } else {
        self(self, path, kind.empty() ? child : kind);
      }
    }
  };
  walk(walk, root, "");
  return total;
}

Status Settle(Rig* rig) {
  Status s = rig->store->FlushMemTable();
  if (s.ok()) rig->store->WaitForCompaction();
  return s;
}

Status Load(Rig* rig, Model* model) {
  // A bulk load in key order: flushed tables do not overlap, so compactions
  // are moves and every run starts from the same LSM shape. A load in
  // hashed order leaves a timing-dependent split between the local and the
  // cloud levels, which moved throughput by ~10% from run to run.
  WriteOptions wo;
  for (const auto& [key, index] : model->sorted()) {
    Status s = rig->store->Put(wo, key, MakeValue(index, 0));
    if (!s.ok()) return s;
  }
  return Status::OK();
}

ClientStats RunClients(Rig* rig, Model* model, const WorkloadSpec& spec,
                       uint64_t seed, uint64_t deadline_ns) {
  KVStore* store = rig->store.get();
  const Loop loop{deadline_ns, 0};
  const int writers = spec.writer_threads;
  return RunThreads(writers + spec.reader_threads, seed,
                    [&](int t, uint64_t thread_seed, ClientStats* cs) {
    if (spec.mix == Mix::kYcsbB) {
      RunYcsbB(store, model, thread_seed, loop, kReadShare, cs);
    } else if (t < writers) {
      RunWriter(store, model, thread_seed, t, writers, loop, cs);
    } else {
      RunMultiGetReader(store, model, thread_seed, loop, cs);
    }
  });
}

ClientStats Warmup(Rig* rig, Model* model, const WorkloadSpec& spec,
                   uint64_t seed) {
  KVStore* store = rig->store.get();
  const Loop loop{0, spec.warmup_ops / kWarmupThreads};
  return RunThreads(kWarmupThreads, seed,
                    [&](int, uint64_t thread_seed, ClientStats* cs) {
    if (spec.mix == Mix::kYcsbB) {
      RunYcsbB(store, model, thread_seed, loop, 1.0, cs);
    } else {
      RunMultiGetReader(store, model, thread_seed, loop, cs);
    }
  });
}

ClientStats WriteUpdates(Rig* rig, Model* model, uint64_t n, uint64_t seed) {
  ClientStats cs;
  rocksmash::Random64 rng(seed);
  for (uint64_t i = 0; i < n; i++) {
    Update(rig->store.get(), model, &cs, rng.Uniform(model->records()),
           /*sync=*/false);
  }
  return cs;
}

ClientStats VerifyAll(Rig* rig, Model* model) {
  ClientStats cs;
  ReadOptions ro;
  std::unique_ptr<rocksmash::Iterator> it = rig->store->NewIterator(ro);
  it->SeekToFirst();
  for (const auto& [key, index] : model->sorted()) {
    cs.ops++;
    if (!it->Valid()) {
      cs.Fail("after reopen, key " + key + " is missing: " +
              it->status().ToString());
      return cs;
    }
    if (it->key() != Slice(key)) {
      cs.Fail("after reopen, found " + it->key().ToString() + " where " +
              key + " belongs");
      return cs;
    }
    uint32_t version = 0;
    const uint32_t want = model->acked(index).load();
    if (!DecodeValue(it->value(), index, &version) || version != want) {
      cs.Fail("after reopen, key " + key + " lost acknowledged version " +
              std::to_string(want));
    }
    it->Next();
  }
  cs.ops++;
  if (it->Valid()) {
    cs.Fail("after reopen, unexpected extra key " + it->key().ToString());
  } else if (!it->status().ok()) {
    cs.Fail("after reopen, scan failed: " + it->status().ToString());
  }
  return cs;
}

}  // namespace rmbench
