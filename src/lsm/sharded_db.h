// ShardedDB: a DB-implementing router that hash-partitions the user key
// space over N independent engine shards (each a full DBImpl with its own
// directory, WAL, memtables, version set, and blob files), while the
// expensive process-wide resources — RAM block cache, persistent cache,
// cloud fetch/upload pools, flush/compaction lanes, Statistics — come from
// one SharedResources object every shard holds (see lsm/shared_resources.h
// and DESIGN.md "Sharding & shared resources").
//
// Semantics:
//   - Routing: shard = fastrange(upper 32 bits of Hash64(key, seed), N).
//     The mapping is a pure function of the key bytes and N, so reopening
//     with the same N finds every key; reopening with a different N is
//     rejected via the SHARDS marker file.
//   - Sequence domains are PER SHARD: each shard runs its own WAL and
//     sequence counter. A multi-shard WriteBatch is split into per-shard
//     sub-batches, each atomic and durable within its shard, but there is
//     no cross-shard atomicity: a crash can persist the sub-batch on shard
//     A and not on shard B. Single-shard batches (including every Put and
//     Delete) keep full atomicity.
//   - Snapshots are composites of per-shard snapshots taken in shard order;
//     each shard's view is consistent, but the views are not taken at one
//     global instant (there is no global sequence to agree on).
//   - Iterators merge the per-shard iterators through the winner-tree
//     merging iterator; shards partition the key space, so the merge sees
//     disjoint key sets and yields globally sorted output.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/shared_resources.h"
#include "util/mutexlock.h"

namespace rocksmash {

class Cache;
class Statistics;

class ShardedDB : public DB {
 public:
  // One entry per shard for the general open path: callers that need
  // per-shard plumbing (tiered storage, eWAL, cloud prefixes) build each
  // shard's DBOptions themselves. Every spec should carry the same
  // shared_resources handle, or the shards multiply the process's cache
  // and thread footprint by N.
  struct ShardSpec {
    DBOptions options;
    std::string path;
  };

  // Opens one engine shard per spec (in order; spec i is shard i). A single
  // spec opens as the plain engine DB, with no router in front. On any
  // shard failing to open, already-opened shards are closed and *dbptr
  // stays null. Spec paths/directories are the caller's responsibility.
  static Status Open(const std::vector<ShardSpec>& specs,
                     std::unique_ptr<DB>* dbptr);

  // Lays out a group of `num_shards` shards at `name` and returns one spec
  // per shard: the one place the SHARDS marker is checked and a group's
  // SharedResources is created. One shard is the plain DB directory `name`
  // with `base` unchanged and no marker (unless a marker already names one
  // shard). Otherwise shards live in `name/shard-<i>`, and each spec is
  // `base` with one SharedResources for the group (base's own, else a new
  // one built from `resources` with lanes for up to four shards), 1/N of
  // the memtable budget, and the group's only stats-dump thread on shard 0.
  // The marker persists N: reopening with another count, or sharding a
  // store that already holds unsharded data, returns InvalidArgument.
  // base.table_storage and base.wal_manager must be null (InvalidArgument
  // otherwise): callers add per-shard table storage to the specs before
  // opening them, and each shard's engine builds its own eWAL from
  // base.wal_segments.
  static Status PrepareShards(const DBOptions& base, const std::string& name,
                              int num_shards,
                              SharedResourcesOptions resources,
                              std::vector<ShardSpec>* specs);

  // Convenience open for plain local shards: PrepareShards with default
  // SharedResourcesOptions, then Open. To supply per-shard table storage,
  // use PrepareShards and the ShardSpec overload.
  static Status Open(const DBOptions& base, const std::string& name,
                     int num_shards, std::unique_ptr<DB>* dbptr);

  // Removes a store laid out by PrepareShards: every shard directory listed
  // by the SHARDS marker, the marker, and `name` itself (a plain DestroyDB
  // when there is no marker).
  static Status Destroy(const DBOptions& options, const std::string& name);

  // The routing function: fastrange over the upper 32 hash bits, so the
  // low bits stay independent for memtable/filter/cache hashing.
  static uint32_t ShardOfKey(const Slice& key, uint32_t num_shards);

  // Reads the `name/SHARDS` marker written by PrepareShards. NotFound when
  // the DB was never opened sharded.
  static Status ReadShardMarker(Env* env, const std::string& name,
                                int* num_shards);

  ~ShardedDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableSlice* value) override;
  void MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                std::vector<PinnableSlice>* values,
                std::vector<Status>* statuses) override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  bool GetProperty(const Slice& property,
                   std::map<std::string, std::string>* value) override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  Status Close() override;
  Status StartTrace(const trace::TraceOptions& trace_options,
                    const std::string& trace_file_path) override;
  Status EndTrace() override;
  Status FlushMemTable() override;
  void WaitForCompaction() override;
  RecoveryStats GetRecoveryStats() const override;

  size_t num_shards() const { return shards_.size(); }
  DB* shard(size_t i) const { return shards_[i].get(); }

 private:
  explicit ShardedDB(std::vector<ShardSpec> specs,
                     std::vector<std::unique_ptr<DB>> shards);

  uint32_t ShardOf(const Slice& key) const {
    return ShardOfKey(key, static_cast<uint32_t>(shards_.size()));
  }
  // Rewrites options.snapshot (a composite handed out by GetSnapshot) to
  // shard i's member snapshot; passes everything else through.
  ReadOptions OptionsForShard(const ReadOptions& options, size_t i) const;

  // Immutable after construction (no lock needed): the shards, the spec
  // options they were opened with, and identity vectors used to dedupe
  // shared objects during property aggregation.
  std::vector<ShardSpec> specs_;
  std::vector<std::unique_ptr<DB>> shards_;
  // Per shard: the Statistics / Cache the shard actually uses (explicit
  // pointer, else the shared one, else null meaning a DB-owned private
  // object). Aggregation counts each distinct non-null object once.
  std::vector<Statistics*> shard_statistics_;
  std::vector<Cache*> shard_caches_;
  // First non-null entry of shard_statistics_: where the router's own
  // tickers (shard.write.batches.split, shard.multiget.fanout) land.
  Statistics* statistics_ = nullptr;

  // Lock order: before every shard's DBImpl::mutex_. Guards only the
  // idempotent-close state below; Close() holds it across the shard
  // broadcast so concurrent closers observe the final status. No shard
  // code ever calls back into ShardedDB, so the reverse order cannot occur.
  Mutex mu_;
  bool closed_ GUARDED_BY(mu_) = false;
  Status close_status_ GUARDED_BY(mu_);
};

}  // namespace rocksmash
