// SharedResources: the process-wide pools a set of DB shards draws from.
//
// Before sharding, every DBImpl owned its background lanes and (optionally)
// its block cache, and every TieredTableStorage owned its upload and
// cloud-fetch pools — one DB per process made "owned" and "shared" the same
// thing. ShardedDB breaks that assumption: N shards must share one RAM
// block cache (one memory budget), one persistent-cache handle, one cloud
// fetch pool, and one flush/compaction lane pair, or the process multiplies
// its memory and thread footprint by N. SharedResources owns those
// singletons explicitly; DBOptions (and so SchemeOptions, which derives
// from it) carries a handle, and every layer that used to construct its own resource takes it as a
// dependency instead. See DESIGN.md "Sharding & shared resources".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/cache.h"
#include "util/status.h"

namespace rocksmash {

class PersistentCache;
class Statistics;
class ThreadPool;

// Knobs for the shared pools. Kept in sync with
// ValidateSharedResourcesOptions (shared_resources.cc) and the resource
// table in DESIGN.md "Sharding & shared resources" by tools/lint.py.
struct SharedResourcesOptions {
  // RAM block cache shared by every shard. The capacity is a whole-process
  // budget: shards draw from one cache, they do not each get this much.
  size_t block_cache_bytes = 8 * 1024 * 1024;

  // log2 of the block-cache stripe count. 4 (16 stripes) keeps N shards
  // from serializing on one cache mutex; contended acquisitions are counted
  // in shard.cache.stripe.contention. Must be in [0, 8].
  int block_cache_shard_bits = 4;

  // Shared background lanes: flushes and compactions from every shard queue
  // on these pools (FIFO per lane; see DESIGN.md for the fairness
  // discussion). Values < 1 are invalid.
  int flush_threads = 1;
  int compaction_threads = 1;

  // Cloud I/O pools shared by every shard's tiered storage. upload_threads
  // drains the async-upload pipeline; cloud_fetch_threads serves batched
  // reads and scan readahead. Values < 1 are invalid.
  int upload_threads = 2;
  int cloud_fetch_threads = 8;

  // One Statistics object for the whole shard group (tickers/histograms
  // from every shard accumulate here). Not owned; may be null.
  Statistics* statistics = nullptr;
};

// The one validation path for SharedResourcesOptions. Returns
// InvalidArgument naming the offending field.
Status ValidateSharedResourcesOptions(const SharedResourcesOptions& opts);

class SharedResources {
 public:
  // Validates `opts` and builds the pools. On error *out stays null.
  static Status Create(const SharedResourcesOptions& opts,
                       std::shared_ptr<SharedResources>* out);

  ~SharedResources();

  SharedResources(const SharedResources&) = delete;
  SharedResources& operator=(const SharedResources&) = delete;

  Cache* block_cache() const { return block_cache_.get(); }
  ThreadPool* flush_pool() const { return flush_pool_.get(); }
  ThreadPool* compaction_pool() const { return compaction_pool_.get(); }
  ThreadPool* upload_pool() const { return upload_pool_.get(); }
  ThreadPool* cloud_fetch_pool() const { return fetch_pool_.get(); }
  Statistics* statistics() const { return options_.statistics; }

  // Persistent-cache handle shared by every shard's tiered storage (the
  // opener that builds the cache registers it here). Not owned; may be
  // null when there is no cloud tier.
  PersistentCache* persistent_cache() const { return persistent_cache_; }
  void set_persistent_cache(PersistentCache* cache) {
    persistent_cache_ = cache;
  }

  const SharedResourcesOptions& options() const { return options_; }

 private:
  explicit SharedResources(const SharedResourcesOptions& opts);

  SharedResourcesOptions options_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<ThreadPool> flush_pool_;
  std::unique_ptr<ThreadPool> compaction_pool_;
  std::unique_ptr<ThreadPool> upload_pool_;
  std::unique_ptr<ThreadPool> fetch_pool_;
  PersistentCache* persistent_cache_ = nullptr;
};

}  // namespace rocksmash
