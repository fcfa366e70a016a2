#include "table/table.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "table/block.h"
#include "table/filter_block.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/prefix_extractor.h"

namespace rocksmash {

struct Table::Rep {
  TableOptions options;
  std::unique_ptr<BlockSource> source;
  uint64_t file_size = 0;
  Cache* block_cache = nullptr;
  uint64_t cache_id = 0;

  Status status;
  std::unique_ptr<Block> index_block;
  std::unique_ptr<FilterBlockReader> filter;
  std::string filter_data;
};

Table::Table(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
Table::~Table() = default;

Status Table::Open(const TableOptions& options,
                   std::unique_ptr<BlockSource> source, uint64_t file_size,
                   Cache* block_cache, uint64_t cache_id,
                   std::unique_ptr<Table>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  std::string footer_bytes;
  Status s = source->ReadRaw(file_size - Footer::kEncodedLength,
                             Footer::kEncodedLength, &footer_bytes);
  if (!s.ok()) return s;
  if (footer_bytes.size() != Footer::kEncodedLength) {
    return Status::Corruption("truncated footer read");
  }

  Footer footer;
  Slice footer_input(footer_bytes);
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  // Index block is held resident for the table's lifetime.
  BlockContents index_contents;
  s = source->ReadBlock(footer.index_handle(), BlockKind::kIndex,
                        &index_contents);
  if (!s.ok()) return s;

  auto rep = std::make_unique<Rep>();
  rep->options = options;
  rep->source = std::move(source);
  rep->file_size = file_size;
  rep->block_cache = block_cache;
  rep->cache_id = cache_id;
  rep->index_block = std::make_unique<Block>(std::move(index_contents));

  // Filter block, if present and a policy is configured.
  if (options.filter_policy != nullptr && footer.filter_handle().IsSet() &&
      footer.filter_handle().size() > 0) {
    BlockContents filter_contents;
    Status fs = rep->source->ReadBlock(footer.filter_handle(),
                                       BlockKind::kFilter, &filter_contents);
    if (fs.ok()) {
      rep->filter_data = std::move(filter_contents.data);
      rep->filter = std::make_unique<FilterBlockReader>(
          options.filter_policy, Slice(rep->filter_data));
    }
    // A failed filter read degrades to "no filter": correct, just slower.
  }

  *table = std::unique_ptr<Table>(new Table(std::move(rep)));
  return Status::OK();
}

namespace {
void DeleteCachedBlock(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<Block*>(value);
}

void ReleaseBlockCacheHandle(Cache* cache, Cache::Handle* handle) {
  cache->Release(handle);
}
}  // namespace

std::unique_ptr<Iterator> Table::NewBlockIterator(
    const BlockHandle& handle) const {
  Rep* r = rep_.get();
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;

  if (r->block_cache != nullptr) {
    char cache_key_buffer[16];
    EncodeFixed64(cache_key_buffer, r->cache_id);
    EncodeFixed64(cache_key_buffer + 8, handle.offset());
    Slice key(cache_key_buffer, sizeof(cache_key_buffer));
    cache_handle = r->block_cache->Lookup(key);
    if (cache_handle != nullptr) {
      block = reinterpret_cast<Block*>(r->block_cache->Value(cache_handle));
      RecordTick(r->options.statistics, BLOCK_CACHE_HIT);
      PerfCount(&PerfContext::block_cache_hit_count);
    } else {
      RecordTick(r->options.statistics, BLOCK_CACHE_MISS);
      PerfCount(&PerfContext::block_read_count);
      BlockContents contents;
      Status s = r->source->ReadBlock(handle, BlockKind::kData, &contents);
      if (!s.ok()) return NewErrorIterator(s);
      block = new Block(std::move(contents));
      cache_handle = r->block_cache->Insert(key, block, block->size(),
                                            &DeleteCachedBlock);
    }
  } else {
    PerfCount(&PerfContext::block_read_count);
    BlockContents contents;
    Status s = r->source->ReadBlock(handle, BlockKind::kData, &contents);
    if (!s.ok()) return NewErrorIterator(s);
    block = new Block(std::move(contents));
  }

  std::unique_ptr<Iterator> iter = block->NewIterator(r->options.comparator);
  if (cache_handle != nullptr) {
    Cache* cache = r->block_cache;
    iter->RegisterCleanup(
        [cache, cache_handle] { ReleaseBlockCacheHandle(cache, cache_handle); });
  } else {
    iter->RegisterCleanup([block] { delete block; });
  }
  return iter;
}

// Two-level iterator: walks the index block; for each index entry, opens the
// pointed-to data block and iterates it. Adds two scan-path optimizations:
//
//  * Filter-based run skipping: a prefix-constrained Seek (see
//    TableIterOptions::prefix_same_as_start) consults the filter block and
//    refuses to open any data block when the filter excludes the prefix.
//
//  * Streaming readahead: sequential forward block access is detected via an
//    offset streak; once established, upcoming data-block handles are handed
//    to BlockSource::Prefetch so a cloud source can fetch them
//    asynchronously while the current block is consumed. The window starts
//    small and doubles up to TableIterOptions::scan_readahead_bytes; any
//    Seek resets it.
namespace {

constexpr uint64_t kInitialReadaheadWindow = 16 * 1024;

class TwoLevelIterator final : public Iterator {
 public:
  TwoLevelIterator(std::unique_ptr<Iterator> index_iter, const Table* table,
                   const TableIterOptions& iopts)
      : index_iter_(std::move(index_iter)), table_(table), iopts_(iopts) {}

  void Seek(const Slice& target) override {
    ResetReadahead();
    forward_ = true;
    index_iter_->Seek(target);
    if (iopts_.prefix_same_as_start && index_iter_->Valid() &&
        table_->PrefixRuledOut(index_iter_.get(), target)) {
      // No key with the seek prefix exists at or after target: leave the
      // iterator invalid without opening a single data block.
      SetDataIterator(nullptr);
      return;
    }
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void SeekToFirst() override {
    ResetReadahead();
    forward_ = true;
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void SeekToLast() override {
    ResetReadahead();
    forward_ = false;
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }

  void Next() override {
    forward_ = true;
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  void Prev() override {
    forward_ = false;
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (data_iter_ != nullptr && !data_iter_->status().ok()) {
        // The data block failed to load (e.g. a cloud outage mid-scan):
        // stop here and surface the error instead of silently skipping the
        // block's keys.
        SetDataIterator(nullptr);
        return;
      }
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (data_iter_ != nullptr && !data_iter_->status().ok()) {
        SetDataIterator(nullptr);
        return;
      }
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void SetDataIterator(std::unique_ptr<Iterator> data_iter) {
    if (data_iter_ != nullptr && status_.ok()) {
      // Latch the first child error so it survives the block switch.
      status_ = data_iter_->status();
    }
    data_iter_ = std::move(data_iter);
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SetDataIterator(nullptr);
      return;
    }
    Slice handle_value = index_iter_->value();
    if (data_iter_ != nullptr && handle_value == current_handle_) {
      // Same block: keep the iterator.
      return;
    }
    BlockHandle handle;
    Slice input = handle_value;
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      if (status_.ok()) status_ = s;
      SetDataIterator(nullptr);
      return;
    }
    current_handle_ = handle_value.ToString();
    MaybeReadahead(handle);
    SetDataIterator(table_->NewIteratorForHandle(handle));
  }

  // -- Streaming readahead ---------------------------------------------

  void ResetReadahead() {
    streak_ = 0;
    window_ = 0;
    last_block_end_ = 0;
    prefetch_horizon_ = 0;
  }

  // Called for every newly opened data block. Tracks whether block opens
  // are sequential; once two consecutive blocks have been opened in order,
  // asks the BlockSource to prefetch the next window of blocks, doubling
  // the window while the streak holds.
  void MaybeReadahead(const BlockHandle& handle) {
    if (iopts_.scan_readahead_bytes == 0) return;
    if (!forward_) {
      ResetReadahead();
      return;
    }
    const uint64_t block_end =
        handle.offset() + handle.size() + kBlockTrailerSize;
    if (last_block_end_ != 0 && handle.offset() == last_block_end_) {
      streak_++;
    } else {
      streak_ = 0;
      window_ = 0;
      prefetch_horizon_ = 0;
    }
    last_block_end_ = block_end;
    // Three sequential opens before the first fetch: short scans (a few
    // blocks) never trigger, so point-ish workloads don't pay for bytes
    // they won't consume.
    if (streak_ < 2) return;
    if (window_ == 0) {
      window_ = std::min<uint64_t>(kInitialReadaheadWindow,
                                   iopts_.scan_readahead_bytes);
    }
    // Refill when less than half a window of prefetched bytes remains
    // ahead of the scan position (double-buffering: the second half is
    // in flight while the first is consumed). The window doubles per
    // refill, not per block open, so it only ramps toward the full
    // budget while the scan is actually consuming prefetched bytes.
    const uint64_t ahead =
        prefetch_horizon_ > block_end ? prefetch_horizon_ - block_end : 0;
    if (ahead >= window_ / 2) return;
    IssuePrefetch(std::max(prefetch_horizon_, block_end), block_end + window_);
    if (window_ < iopts_.scan_readahead_bytes) {
      window_ = std::min<uint64_t>(window_ * 2, iopts_.scan_readahead_bytes);
    }
  }

  // Collects the handles of data blocks in [start, target_end) from a
  // lookahead cursor over the index and hands them to the source.
  void IssuePrefetch(uint64_t start, uint64_t target_end) {
    if (lookahead_iter_ == nullptr) {
      lookahead_iter_ = table_->NewIndexIterator();
    }
    lookahead_iter_->Seek(index_iter_->key());
    std::vector<BlockHandle> handles;
    uint64_t horizon = target_end;
    for (lookahead_iter_->Next(); lookahead_iter_->Valid();
         lookahead_iter_->Next()) {
      BlockHandle h;
      Slice input = lookahead_iter_->value();
      if (!h.DecodeFrom(&input).ok()) break;
      if (h.offset() < start) continue;
      if (h.offset() >= target_end) break;
      handles.push_back(h);
      horizon = h.offset() + h.size() + kBlockTrailerSize;
    }
    prefetch_horizon_ = std::max(prefetch_horizon_, horizon);
    if (handles.empty()) return;
    table_->PrefetchBlocks(handles.data(), handles.size());
  }

  std::unique_ptr<Iterator> index_iter_;
  const Table* table_;
  const TableIterOptions iopts_;
  std::unique_ptr<Iterator> data_iter_;
  std::string current_handle_;
  Status status_;

  bool forward_ = true;
  int streak_ = 0;                // consecutive sequential block opens
  uint64_t window_ = 0;           // current adaptive readahead window
  uint64_t last_block_end_ = 0;   // file offset just past the last block
  uint64_t prefetch_horizon_ = 0; // prefetch issued up to this offset
  std::unique_ptr<Iterator> lookahead_iter_;  // lazily created index cursor
};

}  // namespace

std::unique_ptr<Iterator> Table::NewIterator(
    const TableIterOptions& iopts) const {
  return std::make_unique<TwoLevelIterator>(
      rep_->index_block->NewIterator(rep_->options.comparator), this, iopts);
}

std::unique_ptr<Iterator> Table::NewIndexIterator() const {
  return rep_->index_block->NewIterator(rep_->options.comparator);
}

bool Table::PrefixRuledOut(Iterator* index_iter, const Slice& target) const {
  Rep* r = rep_.get();
  if (r->filter == nullptr || r->options.prefix_extractor == nullptr) {
    return false;
  }
  if (!r->options.prefix_extractor->InDomain(target)) return false;
  const Slice prefix = r->options.prefix_extractor->Transform(target);

  // Window of the block the index seek landed on.
  BlockHandle handle;
  Slice input = index_iter->value();
  if (!handle.DecodeFrom(&input).ok()) return false;
  if (r->filter->PrefixMayMatch(handle.offset(), prefix)) return false;

  // The target may fall in the separator gap after the landed block's last
  // key; the first prefix match would then be the NEXT block's smallest
  // key, which lives in a (possibly) different filter window. Only when
  // both windows exclude the prefix is the run provably free of it.
  index_iter->Next();
  bool ruled_out = true;
  if (index_iter->Valid()) {
    BlockHandle next_handle;
    Slice next_input = index_iter->value();
    if (!next_handle.DecodeFrom(&next_input).ok() ||
        r->filter->PrefixMayMatch(next_handle.offset(), prefix)) {
      ruled_out = false;
    }
    index_iter->Prev();
  } else {
    index_iter->Seek(target);  // restore position at the landed block
  }
  if (ruled_out) {
    RecordTick(r->options.statistics, SCAN_RUNS_SKIPPED);
    PerfCount(&PerfContext::scan_runs_skipped_count);
  }
  return ruled_out;
}

void Table::PrefetchBlocks(const BlockHandle* handles, size_t n) const {
  Rep* r = rep_.get();
  // Trim handles already resident in the RAM block cache from both ends of
  // the batch, keeping the remainder contiguous so the source can still
  // coalesce it into one range fetch. A re-scan of a fully warm range
  // issues nothing.
  if (r->block_cache != nullptr) {
    char cache_key_buffer[16];
    EncodeFixed64(cache_key_buffer, r->cache_id);
    auto in_block_cache = [&](const BlockHandle& h) {
      EncodeFixed64(cache_key_buffer + 8, h.offset());
      Slice key(cache_key_buffer, sizeof(cache_key_buffer));
      Cache::Handle* ch = r->block_cache->Lookup(key);
      if (ch == nullptr) return false;
      r->block_cache->Release(ch);
      return true;
    };
    while (n > 0 && in_block_cache(handles[0])) {
      handles++;
      n--;
    }
    while (n > 0 && in_block_cache(handles[n - 1])) {
      n--;
    }
  }
  if (n == 0) return;
  r->source->Prefetch(handles, n);
}

Status Table::InternalGet(const Slice& key, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) {
  // A point lookup is a batch of one: a cold block costs one exact-size
  // fetch through BlockSource::ReadBlocks, not a scan's readahead window.
  TableGetRequest req;
  req.key = key;
  req.arg = arg;
  req.handle_result = handle_result;
  MultiGet(&req, 1, BlockBatchOptions{});
  return req.status;
}

void Table::MultiGet(TableGetRequest* reqs, size_t n,
                     const BlockBatchOptions& opts) {
  Rep* r = rep_.get();

  // Pass 1: index + filter for every key, grouping survivors by data block.
  // `groups` preserves first-touch order; keys hitting an already-seen block
  // ride along on that block's single read.
  struct BlockGroup {
    BlockHandle handle;
    std::vector<size_t> members;
    Block* block = nullptr;               // resolved in pass 2
    Cache::Handle* cache_handle = nullptr;
    size_t fetch_index = SIZE_MAX;        // into `fetches` when a miss
    Status status;
  };
  std::vector<BlockGroup> groups;
  std::unordered_map<uint64_t, size_t> group_of_offset;

  std::unique_ptr<Iterator> index_iter(
      r->index_block->NewIterator(r->options.comparator));
  for (size_t i = 0; i < n; i++) {
    TableGetRequest* req = &reqs[i];
    index_iter->Seek(req->key);
    if (!index_iter->Valid()) {
      req->status = index_iter->status();  // past the last key (or index error)
      continue;
    }
    BlockHandle handle;
    Slice input = index_iter->value();
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      req->status = s;
      continue;
    }
    if (r->filter != nullptr &&
        !r->filter->KeyMayMatch(handle.offset(), req->key)) {
      RecordTick(r->options.statistics, BLOOM_FILTER_USEFUL);
      PerfCount(&PerfContext::bloom_useful_count);
      req->status = Status::OK();  // definitively absent from this table
      continue;
    }
    // A one-key batch (a point Get) has nothing to coalesce, so it skips
    // the offset map and its allocations.
    size_t gi = groups.size();
    if (n > 1) {
      auto [it, inserted] = group_of_offset.try_emplace(handle.offset(), gi);
      if (!inserted) {
        // A second key wants the same data block: one fetch serves both.
        RecordTick(r->options.statistics, MULTIGET_COALESCED_BLOCKS);
      }
      gi = it->second;
    }
    if (gi == groups.size()) {
      BlockGroup g;
      g.handle = handle;
      groups.push_back(std::move(g));
    }
    groups[gi].members.push_back(i);
  }

  // Pass 2: resolve every group against the RAM block cache; collect misses
  // into one batched BlockSource read.
  std::vector<BlockFetchRequest> fetches;
  char cache_key_buffer[16];
  EncodeFixed64(cache_key_buffer, r->cache_id);
  for (BlockGroup& g : groups) {
    if (r->block_cache != nullptr) {
      EncodeFixed64(cache_key_buffer + 8, g.handle.offset());
      Slice key(cache_key_buffer, sizeof(cache_key_buffer));
      g.cache_handle = r->block_cache->Lookup(key);
      if (g.cache_handle != nullptr) {
        g.block =
            reinterpret_cast<Block*>(r->block_cache->Value(g.cache_handle));
        RecordTick(r->options.statistics, BLOCK_CACHE_HIT);
        PerfCount(&PerfContext::block_cache_hit_count);
        continue;
      }
      RecordTick(r->options.statistics, BLOCK_CACHE_MISS);
    }
    PerfCount(&PerfContext::block_read_count);
    g.fetch_index = fetches.size();
    BlockFetchRequest fr;
    fr.handle = g.handle;
    fr.kind = BlockKind::kData;
    fetches.push_back(std::move(fr));
  }
  if (!fetches.empty()) {
    r->source->ReadBlocks(fetches.data(), fetches.size(), opts);
  }

  // Pass 3: materialize fetched blocks (admitting them to the cache) and run
  // each key's in-block seek + callback.
  for (BlockGroup& g : groups) {
    if (g.fetch_index != SIZE_MAX) {
      BlockFetchRequest& fr = fetches[g.fetch_index];
      if (!fr.status.ok()) {
        g.status = fr.status;
      } else {
        g.block = new Block(std::move(fr.contents));
        if (r->block_cache != nullptr) {
          EncodeFixed64(cache_key_buffer + 8, g.handle.offset());
          Slice key(cache_key_buffer, sizeof(cache_key_buffer));
          g.cache_handle = r->block_cache->Insert(
              key, g.block, g.block->size(), &DeleteCachedBlock);
        }
      }
    }
    for (size_t i : g.members) {
      TableGetRequest* req = &reqs[i];
      if (!g.status.ok()) {
        req->status = g.status;
        continue;
      }
      std::unique_ptr<Iterator> block_iter(
          g.block->NewIterator(r->options.comparator));
      block_iter->Seek(req->key);
      if (block_iter->Valid()) {
        (*req->handle_result)(req->arg, block_iter->key(), block_iter->value());
      }
      req->status = block_iter->status();
    }
    if (g.cache_handle != nullptr) {
      r->block_cache->Release(g.cache_handle);
    } else if (g.block != nullptr) {
      delete g.block;
    }
  }
}

uint64_t Table::ApproximateOffsetOf(const Slice& key) const {
  std::unique_ptr<Iterator> index_iter(
      rep_->index_block->NewIterator(rep_->options.comparator));
  index_iter->Seek(key);
  if (index_iter->Valid()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    if (handle.DecodeFrom(&input).ok()) {
      return handle.offset();
    }
  }
  // Past the last key: approximate with the metadata start.
  return rep_->file_size;
}

}  // namespace rocksmash
