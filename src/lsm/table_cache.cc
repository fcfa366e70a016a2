#include "lsm/table_cache.h"

#include <algorithm>

#include "util/coding.h"

namespace rocksmash {

namespace {

struct TableAndOwnership {
  std::unique_ptr<Table> table;
};

void DeleteEntry(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<TableAndOwnership*>(value);
}

void UnrefEntry(void* arg1, void* arg2) {
  auto* cache = reinterpret_cast<Cache*>(arg1);
  auto* h = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(h);
}

}  // namespace

TableCache::TableCache(const DBOptions& options,
                       const InternalKeyComparator* icmp,
                       TableStorage* storage, Cache* block_cache, int entries)
    : options_(options),
      icmp_(icmp),
      storage_(storage),
      block_cache_(block_cache),
      block_cache_namespace_(
          block_cache != nullptr ? block_cache->NewId() << 48 : 0),
      internal_filter_policy_(nullptr),
      cache_(NewLRUCache(entries, /*shard_bits=*/2, options.statistics)) {
  if (options_.prefix_extractor != nullptr) {
    internal_prefix_extractor_ =
        std::make_unique<InternalPrefixExtractor>(options_.prefix_extractor);
  }
  if (options_.filter_bits_per_key > 0) {
    static_filter_ = std::make_unique<InternalFilterPolicy>(
        NewBloomFilterPolicy(options_.filter_bits_per_key),
        options_.prefix_extractor);
    internal_filter_policy_ = static_filter_.get();
  }
}

TableCache::~TableCache() = default;

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle != nullptr) {
    return Status::OK();
  }

  std::unique_ptr<BlockSource> source;
  uint64_t actual_size = file_size;
  Status s = storage_->OpenTable(file_number, &source, &actual_size);
  if (!s.ok()) return s;

  TableOptions topt;
  topt.comparator = icmp_;
  topt.filter_policy = internal_filter_policy_;
  topt.prefix_extractor = internal_prefix_extractor_.get();
  topt.block_size = options_.block_size;
  topt.block_restart_interval = options_.block_restart_interval;
  topt.compression =
      options_.compress_blocks ? kLzCompression : kNoCompression;
  topt.statistics = options_.statistics;

  // Cache-id: (per-TableCache namespace | file number). File numbers are
  // never reused within a DB, so RAM-cached blocks survive table-reader
  // eviction + reopen; the namespace keeps shards that share one cache from
  // aliasing each other's independently-numbered files.
  std::unique_ptr<Table> table;
  s = Table::Open(topt, std::move(source), actual_size, block_cache_,
                  block_cache_namespace_ | file_number, &table);
  if (!s.ok()) return s;

  auto* entry = new TableAndOwnership{std::move(table)};
  *handle = cache_->Insert(key, entry, 1, &DeleteEntry);
  return Status::OK();
}

std::unique_ptr<Iterator> TableCache::NewIterator(const ReadOptions& options,
                                                  uint64_t file_number,
                                                  uint64_t file_size,
                                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table =
      reinterpret_cast<TableAndOwnership*>(cache_->Value(handle))->table.get();
  TableIterOptions iopts;
  iopts.prefix_same_as_start = options.prefix_same_as_start;
  iopts.scan_readahead_bytes = options.scan_readahead_bytes;
  std::unique_ptr<Iterator> result = table->NewIterator(iopts);
  Cache* cache = cache_.get();
  result->RegisterCleanup([cache, handle] { UnrefEntry(cache, handle); });
  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return result;
}

Status TableCache::Get(const ReadOptions& /*options*/, uint64_t file_number,
                       uint64_t file_size, const Slice& internal_key,
                       void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&)) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (s.ok()) {
    Table* t = reinterpret_cast<TableAndOwnership*>(cache_->Value(handle))
                   ->table.get();
    s = t->InternalGet(internal_key, arg, handle_result);
    cache_->Release(handle);
  }
  return s;
}

void TableCache::MultiGet(const ReadOptions& options, uint64_t file_number,
                          uint64_t file_size, TableGetRequest* reqs,
                          size_t n) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    // The open failure lands in every per-request status; those copies
    // carry the check obligation to the caller.
    for (size_t i = 0; i < n; i++) reqs[i].status = s;
    return;
  }
  Table* t =
      reinterpret_cast<TableAndOwnership*>(cache_->Value(handle))->table.get();
  BlockBatchOptions batch;
  batch.max_parallel = std::max(1, options.max_cloud_fan_out);
  t->MultiGet(reqs, n, batch);
  cache_->Release(handle);
}

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

}  // namespace rocksmash
