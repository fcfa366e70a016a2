#include "lsm/sharded_db.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/shared_resources.h"
#include "table/merger.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace rocksmash {

namespace {

// Seed for the routing hash, distinct from the memtable/filter/cache seeds
// so shard choice stays independent of every other hash-based placement.
constexpr uint64_t kShardSeed = 0x5ca1ab1e0ddba11ull;

constexpr char kShardMarkerFile[] = "SHARDS";
constexpr char kShardDirPrefix[] = "shard-";

std::string ShardPath(const std::string& name, int i) {
  return name + "/" + kShardDirPrefix + std::to_string(i);
}

// Composite snapshot: one member snapshot per shard, taken in shard order.
// Each shard's view is internally consistent; the composite is NOT a single
// global instant (shards have independent sequence domains).
class ShardedSnapshot : public Snapshot {
 public:
  ~ShardedSnapshot() override = default;
  std::vector<const Snapshot*> members;
};

// First pass over a batch: which shards does it touch? Cheap (no copies) so
// the common single-shard batch can be forwarded whole.
class ShardProbe : public WriteBatch::Handler {
 public:
  explicit ShardProbe(uint32_t num_shards) : num_shards_(num_shards) {}
  void Put(const Slice& key, const Slice& /*value*/) override { Mark(key); }
  void Delete(const Slice& key) override { Mark(key); }

  bool multi() const { return multi_; }
  bool empty() const { return !any_; }
  uint32_t first_shard() const { return first_; }

 private:
  void Mark(const Slice& key) {
    const uint32_t s = ShardedDB::ShardOfKey(key, num_shards_);
    if (!any_) {
      any_ = true;
      first_ = s;
    } else if (s != first_) {
      multi_ = true;
    }
  }

  const uint32_t num_shards_;
  bool any_ = false;
  bool multi_ = false;
  uint32_t first_ = 0;
};

// Second pass: copy each entry into its shard's sub-batch.
class ShardSplitter : public WriteBatch::Handler {
 public:
  explicit ShardSplitter(uint32_t num_shards)
      : num_shards_(num_shards), batches_(num_shards) {}
  void Put(const Slice& key, const Slice& value) override {
    batches_[ShardedDB::ShardOfKey(key, num_shards_)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    batches_[ShardedDB::ShardOfKey(key, num_shards_)].Delete(key);
  }
  WriteBatch* batch(size_t i) { return &batches_[i]; }

 private:
  const uint32_t num_shards_;
  std::vector<WriteBatch> batches_;
};

}  // namespace

uint32_t ShardedDB::ShardOfKey(const Slice& key, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  // fastrange over the upper 32 hash bits: an unbiased [0, num_shards)
  // mapping that leaves the low bits for the other hash consumers.
  const uint64_t upper = Hash64(key.data(), key.size(), kShardSeed) >> 32;
  return static_cast<uint32_t>((upper * num_shards) >> 32);
}

Status ShardedDB::ReadShardMarker(Env* env, const std::string& name,
                                  int* num_shards) {
  *num_shards = 0;
  const std::string marker = name + "/" + kShardMarkerFile;
  if (!env->FileExists(marker)) {
    return Status::NotFound("no shard marker", marker);
  }
  std::string data;
  Status s = ReadFileToString(env, marker, &data);
  if (!s.ok()) return s;
  int n = 0;
  size_t i = 0;
  for (; i < data.size() && data[i] >= '0' && data[i] <= '9'; i++) {
    n = n * 10 + (data[i] - '0');
    if (n > 1 << 20) break;  // absurd; fall through to the corruption check
  }
  if (i == 0 || n < 1 || n > 4096 ||
      (i < data.size() && data[i] != '\n')) {
    return Status::Corruption("bad shard marker", marker);
  }
  *num_shards = n;
  return Status::OK();
}

Status ShardedDB::Open(const std::vector<ShardSpec>& specs,
                       std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  if (specs.empty()) {
    return Status::InvalidArgument("ShardedDB::Open", "no shard specs");
  }
  if (specs.size() == 1) {
    return DB::Open(specs[0].options, specs[0].path, dbptr);
  }
  if (specs.size() > 4096) {
    return Status::InvalidArgument("ShardedDB::Open", "too many shards");
  }
  for (size_t i = 1; i < specs.size(); i++) {
    if (specs[i].options.comparator != specs[0].options.comparator) {
      return Status::InvalidArgument(
          "ShardedDB::Open", "all shards must share one comparator");
    }
  }
  std::vector<std::unique_ptr<DB>> shards;
  shards.reserve(specs.size());
  for (const ShardSpec& spec : specs) {
    std::unique_ptr<DB> db;
    Status s = DB::Open(spec.options, spec.path, &db);
    if (!s.ok()) {
      for (auto& opened : shards) {
        // why unchecked: unwinding a failed multi-shard open; the original
        // open error is the one reported.
        opened->Close().PermitUncheckedError();
      }
      return s;
    }
    shards.push_back(std::move(db));
  }
  dbptr->reset(new ShardedDB(specs, std::move(shards)));
  return Status::OK();
}

Status ShardedDB::PrepareShards(const DBOptions& base, const std::string& name,
                                int num_shards,
                                SharedResourcesOptions resources,
                                std::vector<ShardSpec>* specs) {
  specs->clear();
  if (num_shards < 1) {
    return Status::InvalidArgument("ShardedDB::PrepareShards",
                                   "num_shards must be >= 1");
  }
  if (base.table_storage != nullptr || base.wal_manager != nullptr) {
    return Status::InvalidArgument(
        "ShardedDB::PrepareShards",
        "table_storage/wal_manager are per-shard; set them on the specs");
  }
  Env* env = base.env != nullptr ? base.env : Env::Default();
  Status s = env->CreateDirRecursively(name);
  if (!s.ok() && !env->FileExists(name)) return s;

  // The routing hash is a function of num_shards, so the count is part of
  // the on-disk layout: a store reopened with another count would strand
  // keys in directories no route reaches.
  int existing = 0;
  s = ReadShardMarker(env, name, &existing);
  // A marker means shard directories, even for one shard.
  const bool sharded = s.ok() || num_shards > 1;
  if (s.ok()) {
    if (existing != num_shards) {
      return Status::InvalidArgument(
          name, "shard count mismatch: marker has " +
                    std::to_string(existing) + ", requested " +
                    std::to_string(num_shards));
    }
  } else if (!s.IsNotFound()) {
    return s;
  } else if (num_shards > 1) {
    // No marker: a CURRENT file means the directory holds an unsharded
    // store, whose data the shard directories would hide.
    if (env->FileExists(CurrentFileName(name))) {
      return Status::InvalidArgument(
          name, "holds an unsharded store; cannot open it with " +
                    std::to_string(num_shards) + " shards");
    }
    if (!base.create_if_missing) {
      return Status::InvalidArgument(name, "does not exist (sharded)");
    }
    s = WriteStringToFile(env, std::to_string(num_shards) + "\n",
                          name + "/" + kShardMarkerFile, /*sync=*/true);
    if (!s.ok()) return s;
  }

  if (!sharded) {
    specs->push_back(ShardSpec{base, name});
    return Status::OK();
  }

  // One SharedResources for the group: a single cache/statistics budget and
  // one flush/compaction lane pair regardless of N.
  std::shared_ptr<SharedResources> shared = base.shared_resources;
  if (shared == nullptr) {
    resources.statistics = base.statistics;
    resources.flush_threads =
        std::max(base.max_background_flushes, std::min(num_shards, 4));
    resources.compaction_threads =
        std::max(base.max_background_compactions, std::min(num_shards, 4));
    s = SharedResources::Create(resources, &shared);
    if (!s.ok()) return s;
  }

  for (int i = 0; i < num_shards; i++) {
    ShardSpec spec{base, ShardPath(name, i)};
    spec.options.shared_resources = shared;
    // Keep the group's total memtable budget at the unsharded value: each
    // shard flushes at 1/N (floored so tiny configs stay usable).
    spec.options.write_buffer_size = std::max<size_t>(
        base.write_buffer_size / static_cast<size_t>(num_shards), 256 * 1024);
    // One stats-dump thread for the group is plenty.
    if (i > 0) spec.options.stats_dump_period_sec = 0;
    s = env->CreateDirRecursively(spec.path);
    if (!s.ok()) return s;
    specs->push_back(std::move(spec));
  }
  return Status::OK();
}

Status ShardedDB::Open(const DBOptions& base, const std::string& name,
                       int num_shards, std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  std::vector<ShardSpec> specs;
  Status s = PrepareShards(base, name, num_shards, SharedResourcesOptions(),
                           &specs);
  if (!s.ok()) return s;
  return Open(specs, dbptr);
}

Status ShardedDB::Destroy(const DBOptions& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  int num_shards = 0;
  Status s = ReadShardMarker(env, name, &num_shards);
  if (s.IsNotFound()) {
    // Never opened sharded: fall through to the plain destroy.
    return DestroyDB(name, options);
  }
  if (!s.ok()) return s;
  Status first;
  for (int i = 0; i < num_shards; i++) {
    Status ds = DestroyDB(ShardPath(name, i), options);
    if (!ds.ok() && first.ok()) first = ds;
  }
  Status rs = env->RemoveFile(name + "/" + kShardMarkerFile);
  if (!rs.ok() && first.ok()) first = rs;
  // why unchecked: best-effort removal of the (possibly non-empty) root.
  env->RemoveDir(name).PermitUncheckedError();
  return first;
}

ShardedDB::ShardedDB(std::vector<ShardSpec> specs,
                     std::vector<std::unique_ptr<DB>> shards)
    : specs_(std::move(specs)), shards_(std::move(shards)) {
  shard_statistics_.reserve(shards_.size());
  shard_caches_.reserve(shards_.size());
  for (const ShardSpec& spec : specs_) {
    const DBOptions& o = spec.options;
    Statistics* stats = o.statistics;
    Cache* cache = o.block_cache;
    if (o.shared_resources != nullptr) {
      if (stats == nullptr) stats = o.shared_resources->statistics();
      if (cache == nullptr) cache = o.shared_resources->block_cache();
    }
    shard_statistics_.push_back(stats);
    shard_caches_.push_back(cache);
    if (statistics_ == nullptr) statistics_ = stats;
  }
}

ShardedDB::~ShardedDB() {
  // why unchecked: destructors cannot report; Close() is the reporting path
  // for durability-sensitive callers.
  Close().PermitUncheckedError();
}

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[ShardOf(key)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[ShardOf(key)]->Delete(options, key);
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  if (shards_.size() == 1 || updates == nullptr) {
    return shards_[0]->Write(options, updates);
  }
  ShardProbe probe(static_cast<uint32_t>(shards_.size()));
  Status s = updates->Iterate(&probe);
  if (!s.ok()) return s;
  if (!probe.multi()) {
    // Empty batches go to shard 0 (a WAL sync point there is as good as
    // anywhere); single-shard batches keep full atomicity + group commit.
    return shards_[probe.empty() ? 0 : probe.first_shard()]->Write(options,
                                                                   updates);
  }

  // Multi-shard batch: split into per-shard sub-batches, each atomic and
  // durable within its shard's own WAL + sequence domain. No cross-shard
  // atomicity — a crash between sub-batch commits persists a prefix of the
  // shards, never a partial sub-batch. First error wins; later shards are
  // still attempted so one sick shard doesn't wedge the others' data.
  RecordTick(statistics_, SHARD_WRITE_BATCHES_SPLIT);
  ShardSplitter splitter(static_cast<uint32_t>(shards_.size()));
  s = updates->Iterate(&splitter);
  if (!s.ok()) return s;
  Status first;
  for (size_t i = 0; i < shards_.size(); i++) {
    if (splitter.batch(i)->Count() == 0) continue;
    Status ws = shards_[i]->Write(options, splitter.batch(i));
    if (!ws.ok() && first.ok()) first = ws;
  }
  return first;
}

ReadOptions ShardedDB::OptionsForShard(const ReadOptions& options,
                                       size_t i) const {
  if (options.snapshot == nullptr) return options;
  ReadOptions ro = options;
  ro.snapshot =
      static_cast<const ShardedSnapshot*>(options.snapshot)->members[i];
  return ro;
}

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      PinnableSlice* value) {
  const uint32_t shard = ShardOf(key);
  return shards_[shard]->Get(OptionsForShard(options, shard), key, value);
}

void ShardedDB::MultiGet(const ReadOptions& options,
                         const std::vector<Slice>& keys,
                         std::vector<PinnableSlice>* values,
                         std::vector<Status>* statuses) {
  values->clear();
  statuses->clear();
  values->resize(keys.size());
  statuses->resize(keys.size());
  if (keys.empty()) return;
  if (shards_.size() == 1) {
    shards_[0]->MultiGet(options, keys, values, statuses);
    return;
  }

  // Group the batch per shard so each shard's batched read path (memtable
  // probed once, blocks deduped, cloud misses coalesced) sees its whole
  // sub-batch, then scatter the results back to the caller's order.
  std::vector<std::vector<size_t>> indices(shards_.size());
  for (size_t i = 0; i < keys.size(); i++) {
    indices[ShardOf(keys[i])].push_back(i);
  }
  uint64_t fanout = 0;
  for (size_t shard = 0; shard < shards_.size(); shard++) {
    if (indices[shard].empty()) continue;
    fanout++;
    std::vector<Slice> sub_keys;
    sub_keys.reserve(indices[shard].size());
    for (size_t idx : indices[shard]) sub_keys.push_back(keys[idx]);
    std::vector<PinnableSlice> sub_values;
    std::vector<Status> sub_statuses;
    shards_[shard]->MultiGet(OptionsForShard(options, shard), sub_keys,
                             &sub_values, &sub_statuses);
    for (size_t j = 0; j < indices[shard].size(); j++) {
      (*values)[indices[shard][j]] = std::move(sub_values[j]);
      (*statuses)[indices[shard][j]] = std::move(sub_statuses[j]);
    }
  }
  RecordTick(statistics_, SHARD_MULTIGET_FANOUT, fanout);
}

std::unique_ptr<Iterator> ShardedDB::NewIterator(const ReadOptions& options) {
  if (shards_.size() == 1) {
    return shards_[0]->NewIterator(OptionsForShard(options, 0));
  }
  // Shards partition the key space, so the children yield disjoint key sets
  // and the winner-tree merge produces globally sorted output. Each child
  // pins its shard's state; the merged iterator must die before the DB.
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); i++) {
    children.push_back(shards_[i]->NewIterator(OptionsForShard(options, i)));
  }
  return NewMergingIterator(specs_[0].options.comparator, std::move(children));
}

const Snapshot* ShardedDB::GetSnapshot() {
  auto* snap = new ShardedSnapshot();
  snap->members.reserve(shards_.size());
  for (auto& shard : shards_) {
    snap->members.push_back(shard->GetSnapshot());
  }
  return snap;
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  const auto* snap = static_cast<const ShardedSnapshot*>(snapshot);
  for (size_t i = 0; i < shards_.size(); i++) {
    shards_[i]->ReleaseSnapshot(snap->members[i]);
  }
  delete snap;
}

namespace {

// Parses the shard index out of "shard.<i>.<rest>" (already stripped of
// "rocksmash."); returns false unless <i> is all digits and <rest> is
// non-empty.
bool ParseShardProperty(Slice rest, size_t num_shards, size_t* shard,
                        std::string* forwarded) {
  rest.remove_prefix(strlen("shard."));
  size_t p = 0;
  size_t idx = 0;
  while (p < rest.size() && rest[p] >= '0' && rest[p] <= '9') {
    idx = idx * 10 + static_cast<size_t>(rest[p] - '0');
    if (idx > num_shards) return false;
    p++;
  }
  if (p == 0 || p + 1 >= rest.size() || rest[p] != '.' || idx >= num_shards) {
    return false;
  }
  *shard = idx;
  *forwarded =
      "rocksmash." + std::string(rest.data() + p + 1, rest.size() - p - 1);
  return true;
}

struct LevelPlacement {
  uint64_t files = 0;
  uint64_t local = 0;
  uint64_t cloud = 0;
  uint64_t bytes = 0;
};

// Sums each shard's map-form placement rows ("<files> files, <local> local,
// <cloud> cloud, <bytes> bytes" keyed by "L<level>") into one per-level map.
bool AggregatePlacement(const std::vector<std::unique_ptr<DB>>& shards,
                        std::map<std::string, LevelPlacement>* out) {
  for (auto& shard : shards) {
    std::map<std::string, std::string> one;
    if (!shard->GetProperty("rocksmash.placement", &one)) return false;
    for (const auto& [level, row] : one) {
      unsigned long long files = 0, local = 0, cloud = 0, bytes = 0;
      if (std::sscanf(row.c_str(), "%llu files, %llu local, %llu cloud, %llu bytes",
                      &files, &local, &cloud, &bytes) != 4) {
        return false;
      }
      LevelPlacement& agg = (*out)[level];
      agg.files += files;
      agg.local += local;
      agg.cloud += cloud;
      agg.bytes += bytes;
    }
  }
  return true;
}

}  // namespace

bool ShardedDB::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  Slice in = property;
  Slice prefix("rocksmash.");
  if (!in.starts_with(prefix)) return false;
  Slice rest = in;
  rest.remove_prefix(prefix.size());

  if (rest.starts_with("shard.")) {
    size_t shard = 0;
    std::string forwarded;
    if (!ParseShardProperty(rest, shards_.size(), &shard, &forwarded)) {
      return false;
    }
    return shards_[shard]->GetProperty(forwarded, value);
  }

  if (rest.starts_with("num-files-at-level") ||
      rest == Slice("memtable-memory-usage")) {
    // Numeric per-shard values: sum.
    uint64_t total = 0;
    for (auto& shard : shards_) {
      std::string one;
      if (!shard->GetProperty(property, &one)) return false;
      total += std::strtoull(one.c_str(), nullptr, 10);
    }
    *value = std::to_string(total);
    return true;
  }

  if (rest == Slice("stats") || rest == Slice("levelstats") ||
      rest == Slice("sstables")) {
    // Per-shard sections; for "stats" each distinct Statistics object is
    // appended once at the end (shards normally share one, so its tickers
    // would otherwise repeat N times).
    for (size_t i = 0; i < shards_.size(); i++) {
      value->append("--- shard " + std::to_string(i) + " ---\n");
      std::string one;
      const char* forwarded =
          rest == Slice("sstables") ? "rocksmash.sstables"
                                    : "rocksmash.levelstats";
      if (!shards_[i]->GetProperty(forwarded, &one)) return false;
      value->append(one);
    }
    if (rest == Slice("stats")) {
      std::set<Statistics*> seen;
      for (Statistics* stats : shard_statistics_) {
        if (stats == nullptr || !seen.insert(stats).second) continue;
        value->append("\nStatistics:\n");
        value->append(stats->ToString());
      }
    }
    return true;
  }

  if (rest.starts_with("ticker.") || rest == Slice("prometheus")) {
    // Statistics-backed: the object is (normally) shared, so the first
    // shard that has one answers for the group.
    for (size_t i = 0; i < shards_.size(); i++) {
      if (shard_statistics_[i] != nullptr) {
        return shards_[i]->GetProperty(property, value);
      }
    }
    return shards_[0]->GetProperty(property, value);
  }

  if (rest == Slice("bg-jobs")) {
    for (size_t i = 0; i < shards_.size(); i++) {
      std::string one;
      if (!shards_[i]->GetProperty(property, &one)) return false;
      value->append("shard" + std::to_string(i) + ": " + one + "\n");
    }
    return true;
  }

  if (rest == Slice("placement")) {
    std::map<std::string, LevelPlacement> agg;
    if (!AggregatePlacement(shards_, &agg)) return false;
    char buf[128];
    for (const auto& [level, p] : agg) {
      std::snprintf(buf, sizeof(buf),
                    "%s: %llu files (%llu local, %llu cloud), %llu bytes\n",
                    level.c_str(), static_cast<unsigned long long>(p.files),
                    static_cast<unsigned long long>(p.local),
                    static_cast<unsigned long long>(p.cloud),
                    static_cast<unsigned long long>(p.bytes));
      value->append(buf);
    }
    return true;
  }

  if (rest == Slice("approximate-memory-usage")) {
    // Count each distinct block cache once (the shared cache is one
    // process-wide budget) plus every shard's memtables. A null resolved
    // cache means the shard owns a private default cache, so its full
    // per-shard figure is used.
    std::set<Cache*> seen;
    uint64_t total = 0;
    for (size_t i = 0; i < shards_.size(); i++) {
      Cache* cache = shard_caches_[i];
      const bool cache_counted =
          cache != nullptr && !seen.insert(cache).second;
      std::string one;
      const char* forwarded = cache_counted
                                  ? "rocksmash.memtable-memory-usage"
                                  : "rocksmash.approximate-memory-usage";
      if (!shards_[i]->GetProperty(forwarded, &one)) return false;
      total += std::strtoull(one.c_str(), nullptr, 10);
    }
    *value = std::to_string(total);
    return true;
  }

  return false;
}

bool ShardedDB::GetProperty(const Slice& property,
                            std::map<std::string, std::string>* value) {
  value->clear();
  Slice in = property;
  Slice prefix("rocksmash.");
  if (!in.starts_with(prefix)) return false;
  Slice rest = in;
  rest.remove_prefix(prefix.size());

  if (rest.starts_with("shard.")) {
    size_t shard = 0;
    std::string forwarded;
    if (!ParseShardProperty(rest, shards_.size(), &shard, &forwarded)) {
      return false;
    }
    return shards_[shard]->GetProperty(forwarded, value);
  }

  if (rest == Slice("stats")) {
    // Ticker name -> count summed over each DISTINCT Statistics object:
    // shards sharing one object contribute it once, private objects sum.
    std::set<Statistics*> seen;
    std::map<std::string, uint64_t> totals;
    bool any = false;
    for (size_t i = 0; i < shards_.size(); i++) {
      Statistics* stats = shard_statistics_[i];
      if (stats != nullptr && !seen.insert(stats).second) continue;
      std::map<std::string, std::string> one;
      if (!shards_[i]->GetProperty(property, &one)) continue;
      any = true;
      for (const auto& [name, count] : one) {
        totals[name] += std::strtoull(count.c_str(), nullptr, 10);
      }
    }
    if (!any) return false;
    for (const auto& [name, count] : totals) {
      (*value)[name] = std::to_string(count);
    }
    return true;
  }

  if (rest == Slice("placement")) {
    std::map<std::string, LevelPlacement> agg;
    if (!AggregatePlacement(shards_, &agg)) return false;
    for (const auto& [level, p] : agg) {
      (*value)[level] = std::to_string(p.files) + " files, " +
                        std::to_string(p.local) + " local, " +
                        std::to_string(p.cloud) + " cloud, " +
                        std::to_string(p.bytes) + " bytes";
    }
    return true;
  }

  if (rest == Slice("blob")) {
    // Numeric rows sum across shards, except the blob.gc.* tickers which
    // come from the (normally shared) Statistics object — those are taken
    // once per distinct object, like the "stats" aggregation.
    std::set<Statistics*> seen;
    std::map<std::string, uint64_t> totals;
    for (size_t i = 0; i < shards_.size(); i++) {
      std::map<std::string, std::string> one;
      if (!shards_[i]->GetProperty(property, &one)) return false;
      Statistics* stats = shard_statistics_[i];
      const bool count_gc = stats == nullptr || seen.insert(stats).second;
      for (const auto& [name, count] : one) {
        if (!count_gc && name.rfind("blob.gc.", 0) == 0) continue;
        totals[name] += std::strtoull(count.c_str(), nullptr, 10);
      }
    }
    for (const auto& [name, count] : totals) {
      (*value)[name] = std::to_string(count);
    }
    return true;
  }

  return false;
}

Status ShardedDB::CompactRange(const Slice* begin, const Slice* end) {
  // Every shard holds a hash partition of the range, so the compaction
  // broadcast applies the same bounds everywhere.
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->CompactRange(begin, end);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status ShardedDB::Close() {
  MutexLock l(&mu_);
  if (closed_) return close_status_;
  closed_ = true;
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->Close();
    if (!s.ok() && first.ok()) first = s;
  }
  close_status_ = first;
  return close_status_;
}

Status ShardedDB::StartTrace(const trace::TraceOptions& trace_options,
                             const std::string& trace_file_path) {
  // Shard 0 records to the given path; shard i to "<path>.shard<i>". Span
  // tracing is process-global (one capture per process), so only shard 0
  // keeps trace_spans; the others record user ops only.
  Status first;
  for (size_t i = 0; i < shards_.size(); i++) {
    trace::TraceOptions opts = trace_options;
    std::string path = trace_file_path;
    if (i > 0) {
      opts.trace_spans = false;
      path += ".shard" + std::to_string(i);
    }
    Status s = shards_[i]->StartTrace(opts, path);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status ShardedDB::EndTrace() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->EndTrace();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status ShardedDB::FlushMemTable() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->FlushMemTable();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

void ShardedDB::WaitForCompaction() {
  for (auto& shard : shards_) {
    shard->WaitForCompaction();
  }
}

RecoveryStats ShardedDB::GetRecoveryStats() const {
  // Work counters sum; the critical-path times take the max across shards
  // (the parallel-recovery model: shards could replay concurrently).
  RecoveryStats total;
  for (auto& shard : shards_) {
    RecoveryStats one = shard->GetRecoveryStats();
    total.wall_micros += one.wall_micros;
    total.replay_micros += one.replay_micros;
    total.flush_micros += one.flush_micros;
    total.replay_critical_micros =
        std::max(total.replay_critical_micros, one.replay_critical_micros);
    total.flush_critical_micros =
        std::max(total.flush_critical_micros, one.flush_critical_micros);
    total.logs_replayed += one.logs_replayed;
    total.records_replayed += one.records_replayed;
    total.bytes_replayed += one.bytes_replayed;
    total.shards_used += one.shards_used;
    total.memtables_flushed += one.memtables_flushed;
  }
  return total;
}

}  // namespace rocksmash
