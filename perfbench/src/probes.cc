#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <unordered_map>

namespace rmbench {

using rocksmash::Env;
using rocksmash::ObjectMeta;
using rocksmash::ObjectStore;
using rocksmash::RandomAccessFile;
using rocksmash::SequentialFile;
using rocksmash::Slice;
using rocksmash::Status;
using rocksmash::WritableFile;

uint64_t NowNanos() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

const char* LayerName(int layer) {
  static const char* const kNames[kLayerCount] = {
      "cloud.get", "cloud.put", "cloud.other",
      "env.read",  "env.write", "env.sync"};
  return layer >= 0 && layer < kLayerCount ? kNames[layer] : "unknown";
}

namespace {

struct AtomicTotals {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> nanos{0};
};
AtomicTotals g_layer[kLayerCount][kOriginCount];
std::atomic<uint64_t> g_cloud_failed{0};
std::atomic<uint64_t> g_pcache_bytes{0};
std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_op{1};
std::atomic<uint32_t> g_next_tid{1};

struct SpanBuffer {
  std::mutex mu;
  std::vector<Span> spans;
};
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<SpanBuffer>> g_buffers;

struct ThreadState {
  bool client = false;
  uint32_t tid = 0;
  uint64_t cur_op = 0;
  std::shared_ptr<SpanBuffer> buffer;
};

ThreadState& Self() {
  thread_local ThreadState state;
  if (state.tid == 0) {
    state.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    state.buffer = std::make_shared<SpanBuffer>();
    std::lock_guard<std::mutex> l(g_buffers_mu);
    g_buffers.push_back(state.buffer);
  }
  return state;
}

void Record(ThreadState& t, const Span& span) {
  std::lock_guard<std::mutex> l(t.buffer->mu);
  t.buffer->spans.push_back(span);
}

// One call into a decorated layer: counted always, timed and recorded as a
// span only while tracing (a client thread inside a traced op, or any other
// thread while SetTracing(true)).
class LayerCall {
 public:
  explicit LayerCall(Layer layer) : layer_(layer), t_(Self()) {
    timed_ = t_.client ? t_.cur_op != 0
                       : g_tracing.load(std::memory_order_relaxed);
    if (timed_) start_ = NowNanos();
  }

  // counted: whether the call is one the backend itself counts (for the
  // cloud, successful calls only).
  void Finish(bool counted, uint64_t bytes) {
    AtomicTotals& tot = g_layer[layer_][t_.client ? kClient : kBackground];
    if (counted) {
      tot.count.fetch_add(1, std::memory_order_relaxed);
      tot.bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    if (!timed_) return;
    const uint64_t end = NowNanos();
    tot.nanos.fetch_add(end - start_, std::memory_order_relaxed);
    Span span;
    span.name = LayerName(layer_);
    span.start_ns = start_;
    span.end_ns = end;
    span.parent = t_.client ? t_.cur_op : 0;
    span.tid = t_.tid;
    Record(t_, span);
  }

 private:
  const Layer layer_;
  ThreadState& t_;
  bool timed_ = false;
  uint64_t start_ = 0;
};

void FinishCloud(LayerCall* call, const Status& s, uint64_t bytes) {
  if (!s.ok() && !s.IsNotFound()) {
    g_cloud_failed.fetch_add(1, std::memory_order_relaxed);
  }
  call->Finish(s.ok(), bytes);
}

class TracedObjectStore final : public ObjectStore {
 public:
  explicit TracedObjectStore(ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    LayerCall call(kCloudPut);
    Status s = base_->Put(key, data);
    FinishCloud(&call, s, data.size());
    return s;
  }
  Status Get(const std::string& key, std::string* data) override {
    LayerCall call(kCloudGet);
    Status s = base_->Get(key, data);
    FinishCloud(&call, s, s.ok() ? data->size() : 0);
    return s;
  }
  Status GetRange(const std::string& key, uint64_t offset, size_t n,
                  std::string* data) override {
    LayerCall call(kCloudGet);
    Status s = base_->GetRange(key, offset, n, data);
    FinishCloud(&call, s, s.ok() ? data->size() : 0);
    return s;
  }
  Status Head(const std::string& key, ObjectMeta* meta) override {
    LayerCall call(kCloudOther);
    Status s = base_->Head(key, meta);
    FinishCloud(&call, s, 0);
    return s;
  }
  Status Delete(const std::string& key) override {
    LayerCall call(kCloudOther);
    Status s = base_->Delete(key);
    FinishCloud(&call, s, 0);
    return s;
  }
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* result) override {
    LayerCall call(kCloudOther);
    Status s = base_->List(prefix, result);
    FinishCloud(&call, s, 0);
    return s;
  }
  OpCounters Counters() const override { return base_->Counters(); }
  uint64_t BytesStored() const override { return base_->BytesStored(); }

 private:
  ObjectStore* const base_;
};

class TracedSequentialFile final : public SequentialFile {
 public:
  explicit TracedSequentialFile(std::unique_ptr<SequentialFile> base)
      : base_(std::move(base)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    LayerCall call(kEnvRead);
    Status s = base_->Read(n, result, scratch);
    call.Finish(true, s.ok() ? result->size() : 0);
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
};

class TracedRandomAccessFile final : public RandomAccessFile {
 public:
  explicit TracedRandomAccessFile(std::unique_ptr<RandomAccessFile> base)
      : base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    LayerCall call(kEnvRead);
    Status s = base_->Read(offset, n, result, scratch);
    call.Finish(true, s.ok() ? result->size() : 0);
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
};

class TracedWritableFile final : public WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<WritableFile> base, bool pcache)
      : base_(std::move(base)), pcache_(pcache) {}
  Status Append(const Slice& data) override {
    LayerCall call(kEnvWrite);
    Status s = base_->Append(data);
    call.Finish(true, data.size());
    if (pcache_ && s.ok()) {
      g_pcache_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return s;
  }
  Status Flush() override {
    LayerCall call(kEnvWrite);
    Status s = base_->Flush();
    call.Finish(false, 0);
    return s;
  }
  Status Sync() override {
    LayerCall call(kEnvSync);
    Status s = base_->Sync();
    call.Finish(true, 0);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  const bool pcache_;
};

class TracedEnv final : public Env {
 public:
  TracedEnv(Env* base, std::string pcache_dir)
      : base_(base), pcache_dir_(std::move(pcache_dir)) {}

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    std::unique_ptr<SequentialFile> file;
    Status s = base_->NewSequentialFile(f, &file);
    if (s.ok()) *r = std::make_unique<TracedSequentialFile>(std::move(file));
    return s;
  }
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(f, &file);
    if (s.ok()) *r = std::make_unique<TracedRandomAccessFile>(std::move(file));
    return s;
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(f, &file);
    if (s.ok()) {
      const bool pcache = f.compare(0, pcache_dir_.size(), pcache_dir_) == 0;
      *r = std::make_unique<TracedWritableFile>(std::move(file), pcache);
    }
    return s;
  }
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  Status RemoveDir(const std::string& d) override {
    return base_->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    return base_->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  Env* const base_;
  const std::string pcache_dir_;
};

}  // namespace

LayerTotals ProbeTotals::Sum(int l) const {
  LayerTotals t;
  for (int o = 0; o < kOriginCount; o++) {
    t.count += layer[l][o].count;
    t.bytes += layer[l][o].bytes;
    t.nanos += layer[l][o].nanos;
  }
  return t;
}

ProbeTotals ProbeTotals::Minus(const ProbeTotals& base) const {
  ProbeTotals d;
  for (int l = 0; l < kLayerCount; l++) {
    for (int o = 0; o < kOriginCount; o++) {
      d.layer[l][o].count = layer[l][o].count - base.layer[l][o].count;
      d.layer[l][o].bytes = layer[l][o].bytes - base.layer[l][o].bytes;
      d.layer[l][o].nanos = layer[l][o].nanos - base.layer[l][o].nanos;
    }
  }
  d.cloud_failed = cloud_failed - base.cloud_failed;
  d.pcache_bytes_written = pcache_bytes_written - base.pcache_bytes_written;
  return d;
}

ProbeTotals SnapshotProbes() {
  ProbeTotals t;
  for (int l = 0; l < kLayerCount; l++) {
    for (int o = 0; o < kOriginCount; o++) {
      t.layer[l][o].count = g_layer[l][o].count.load();
      t.layer[l][o].bytes = g_layer[l][o].bytes.load();
      t.layer[l][o].nanos = g_layer[l][o].nanos.load();
    }
  }
  t.cloud_failed = g_cloud_failed.load();
  t.pcache_bytes_written = g_pcache_bytes.load();
  return t;
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

void MarkClientThread() { Self().client = true; }

uint64_t BeginOp() {
  ThreadState& t = Self();
  t.cur_op = g_next_op.fetch_add(1, std::memory_order_relaxed);
  return t.cur_op;
}

void EndOp(const char* name, uint64_t start_ns, uint64_t end_ns) {
  ThreadState& t = Self();
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = t.cur_op;
  span.tid = t.tid;
  t.cur_op = 0;
  Record(t, span);
}

std::vector<Span> CollectSpans() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> l(g_buffers_mu);
  for (const auto& b : g_buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

SelfTimes AnalyzeSpans(const std::vector<Span>& spans) {
  SelfTimes out;
  std::unordered_map<uint64_t, const Span*> ops;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.id != 0) {
      ops[s.id] = &s;
    } else if (s.parent == 0) {
      out.background_spans++;
    } else {
      children[s.parent].push_back(&s);
    }
  }
  auto violation = [&out](const std::string& what) {
    if (out.violations++ == 0) out.first_violation = what;
  };
  std::map<std::string, SelfTimes::PerOp> by_op;
  for (auto& [id, op] : ops) {
    SelfTimes::PerOp& agg = by_op[op->name];
    const uint64_t span_ns = op->end_ns - op->start_ns;
    uint64_t child_ns = 0;
    auto it = children.find(id);
    if (it != children.end()) {
      std::vector<const Span*>& kids = it->second;
      std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      uint64_t prev_end = op->start_ns;
      for (const Span* k : kids) {
        if (k->tid != op->tid || k->start_ns < prev_end ||
            k->end_ns > op->end_ns || k->end_ns < k->start_ns) {
          violation(std::string(k->name) + " outside or overlapping in op " +
                    op->name + " #" + std::to_string(id));
        }
        prev_end = std::max(prev_end, k->end_ns);
        child_ns += k->end_ns - k->start_ns;
      }
      children.erase(it);
    }
    const uint64_t self_ns = span_ns >= child_ns ? span_ns - child_ns : 0;
    if (self_ns + child_ns != span_ns) {
      violation(std::string("children exceed op ") + op->name);
    }
    agg.ops++;
    agg.span_ns += span_ns;
    agg.self_ns += self_ns;
    agg.child_ns += child_ns;
  }
  for (const auto& [parent, kids] : children) {
    violation("span " + std::string(kids.front()->name) +
              " names missing op #" + std::to_string(parent));
  }
  for (auto& [name, agg] : by_op) out.by_op.emplace_back(name, agg);
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans) {
    const char* cat =
        s.id != 0 ? "op" : (s.parent != 0 ? "layer" : "background");
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                 first ? "" : ",\n", s.name, cat, s.tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id != 0 ? s.id : s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::unique_ptr<ObjectStore> NewTracedObjectStore(ObjectStore* base) {
  return std::make_unique<TracedObjectStore>(base);
}

std::unique_ptr<Env> NewTracedEnv(Env* base, std::string pcache_dir) {
  return std::make_unique<TracedEnv>(base, std::move(pcache_dir));
}

}  // namespace rmbench
