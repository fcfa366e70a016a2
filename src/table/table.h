// Table: SSTable reader. Reads blocks through a pluggable BlockSource (plain
// file, or RocksMash's persistent-cache-backed cloud source) and caches
// uncompressed data blocks in an optional shared RAM block cache.
#pragma once

#include <cstdint>
#include <memory>

#include "table/format.h"
#include "table/iterator.h"
#include "table/table_builder.h"  // TableOptions
#include "util/cache.h"

namespace rocksmash {

// One key of a Table::MultiGet batch. `status` is the per-key outcome; the
// callback fires (with the entry at or after `key`) exactly as it would for
// InternalGet.
struct TableGetRequest {
  Slice key;
  void* arg = nullptr;
  void (*handle_result)(void* arg, const Slice& k, const Slice& v) = nullptr;
  Status status;
};

// Per-iterator knobs, derived from the engine's ReadOptions by the caller.
struct TableIterOptions {
  // When true, Seek targets share a prefix with every key the caller will
  // visit, so the iterator may consult the filter block and refuse to open
  // a table whose filter excludes the prefix (the iterator comes back
  // invalid with an OK status). Requires TableOptions::prefix_extractor.
  bool prefix_same_as_start = false;
  // Streaming-readahead budget: on a detected sequential block-access
  // streak, up to this many bytes of upcoming data blocks are handed to
  // BlockSource::Prefetch. 0 disables readahead.
  uint64_t scan_readahead_bytes = 0;
};

class Table {
 public:
  // Opens a table of `file_size` bytes read through `source` (ownership
  // taken). `block_cache` may be nullptr. `cache_id` must be unique per
  // table file when a cache is shared (use Cache::NewId()).
  static Status Open(const TableOptions& options,
                     std::unique_ptr<BlockSource> source, uint64_t file_size,
                     Cache* block_cache, uint64_t cache_id,
                     std::unique_ptr<Table>* table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // Iterator over the table contents (keys are whatever encoding the writer
  // used; the engine uses internal keys).
  std::unique_ptr<Iterator> NewIterator(
      const TableIterOptions& iopts = {}) const;

  // Calls handle_result(arg, key, value) for the entry at or after `key`, if
  // the filter does not rule the key out. Used for point lookups; it is a
  // one-key MultiGet, so a block miss reads exactly that block.
  Status InternalGet(const Slice& key, void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v));

  // Batched point lookup: the whole batch shares one pass over the index and
  // filter, keys landing in the same data block share one block read (the
  // duplicates are counted as MULTIGET_COALESCED_BLOCKS), and the remaining
  // block misses go to the BlockSource in one ReadBlocks call, which a cloud
  // source coalesces and fans out within opts.max_parallel.
  void MultiGet(TableGetRequest* reqs, size_t n, const BlockBatchOptions& opts);

  // Approximate file offset where `key` would live (for ApproximateSizes).
  uint64_t ApproximateOffsetOf(const Slice& key) const;

  // Iterator over one data block (used by the two-level iterator).
  std::unique_ptr<Iterator> NewIteratorForHandle(
      const BlockHandle& handle) const {
    return NewBlockIterator(handle);
  }

  // Iterator over the resident index block (entries: separator key ->
  // encoded BlockHandle). Used by the two-level iterator for its readahead
  // lookahead cursor.
  std::unique_ptr<Iterator> NewIndexIterator() const;

  // Filter-based run skipping: with `index_iter` positioned by
  // Seek(target), returns true iff the filter proves no key sharing
  // target's prefix exists at or after target in this table. Sound only for
  // comparators under which equal-prefix keys are contiguous (bytewise).
  // Checks the landed block's filter window AND the next block's window:
  // when the target falls in the separator gap after a block's last key,
  // the first prefix match would be the next block's smallest key. Restores
  // index_iter's position; ticks SCAN_RUNS_SKIPPED when returning true.
  bool PrefixRuledOut(Iterator* index_iter, const Slice& target) const;

  // Forwards a streaming-scan hint to the BlockSource (see
  // BlockSource::Prefetch).
  void PrefetchBlocks(const BlockHandle* handles, size_t n) const;

 private:
  struct Rep;

  explicit Table(std::unique_ptr<Rep> rep);

  std::unique_ptr<Iterator> NewBlockIterator(const BlockHandle& handle) const;

  std::unique_ptr<Rep> rep_;
};

}  // namespace rocksmash
