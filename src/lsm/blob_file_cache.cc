#include "lsm/blob_file_cache.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/coding.h"

namespace rocksmash {

namespace {

struct ReaderAndOwnership {
  std::unique_ptr<BlobFileReader> reader;
};

void DeleteEntry(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<ReaderAndOwnership*>(value);
}

void DeleteRecord(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<std::string*>(value);
}

// Record-cache key: (cache instance id, file number, offset) — stable
// across reader reopens, so entries survive the reader LRU cycling. Within
// one DB file numbers are never reused, so a stale entry for an obsoleted
// file can only age out, never alias; ACROSS DBs (ShardedDB shards on one
// shared cache) file numbers are allocated independently, which is what the
// per-instance cache id disambiguates. The 25-byte length (vs 16 for SST
// block keys) keeps the namespaces disjoint.
constexpr size_t kRecordKeyLen = 25;

void EncodeRecordKey(uint64_t cache_id, uint64_t file_number, uint64_t offset,
                     char buf[kRecordKeyLen]) {
  buf[0] = 'b';
  EncodeFixed64(buf + 1, cache_id);
  EncodeFixed64(buf + 9, file_number);
  EncodeFixed64(buf + 17, offset);
}

}  // namespace

BlobFileCache::BlobFileCache(const DBOptions& options, TableStorage* storage,
                             Cache* record_cache, int entries)
    : options_(options),
      storage_(storage),
      record_cache_(record_cache),
      record_cache_id_(record_cache != nullptr ? record_cache->NewId() : 0),
      cache_(NewLRUCache(entries, /*shard_bits=*/2, options.statistics)) {}

BlobFileCache::~BlobFileCache() = default;

Status BlobFileCache::FindReader(uint64_t file_number,
                                 Cache::Handle** handle) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle != nullptr) {
    return Status::OK();
  }

  std::unique_ptr<BlockSource> source;
  uint64_t file_size = 0;
  Status s = storage_->OpenTable(file_number, &source, &file_size);
  if (!s.ok()) return s;

  std::unique_ptr<BlobFileReader> reader;
  s = BlobFileReader::Open(std::move(source), file_size, options_.statistics,
                           &reader);
  if (!s.ok()) return s;

  auto* entry = new ReaderAndOwnership{std::move(reader)};
  *handle = cache_->Insert(key, entry, 1, &DeleteEntry);
  return Status::OK();
}

Status BlobFileCache::Get(const ReadOptions& /*options*/,
                          const BlobIndex& index, PinnableSlice* value) {
  char key_buf[kRecordKeyLen];
  if (record_cache_ != nullptr) {
    // Record-cache hit needs no open reader at all.
    EncodeRecordKey(record_cache_id_, index.file_number, index.offset,
                    key_buf);
    Cache::Handle* rec = record_cache_->Lookup(Slice(key_buf, kRecordKeyLen));
    if (rec != nullptr) {
      value->PinSelf(
          Slice(*reinterpret_cast<std::string*>(record_cache_->Value(rec))));
      record_cache_->Release(rec);
      return Status::OK();
    }
  }

  Cache::Handle* handle = nullptr;
  Status s = FindReader(index.file_number, &handle);
  if (!s.ok()) return s;
  auto* entry = reinterpret_cast<ReaderAndOwnership*>(cache_->Value(handle));
  s = entry->reader->Get(index, value);
  if (s.ok() && record_cache_ != nullptr) {
    auto* copy = new std::string(value->data(), value->size());
    record_cache_->Release(
        record_cache_->Insert(Slice(key_buf, kRecordKeyLen), copy,
                              copy->size(), &DeleteRecord));
  }
  cache_->Release(handle);
  return s;
}

void BlobFileCache::MultiGet(const ReadOptions& options, uint64_t file_number,
                             BlobReadRequest* reqs, size_t n) {
  // Satisfy what the record cache already holds; only the misses go to the
  // reader (which coalesces adjacent records and fans out cloud reads).
  std::vector<size_t> miss_idx;
  miss_idx.reserve(n);
  if (record_cache_ != nullptr) {
    for (size_t i = 0; i < n; i++) {
      char key_buf[kRecordKeyLen];
      EncodeRecordKey(record_cache_id_, file_number, reqs[i].index.offset,
                      key_buf);
      Cache::Handle* rec =
          record_cache_->Lookup(Slice(key_buf, kRecordKeyLen));
      if (rec != nullptr) {
        reqs[i].value->PinSelf(Slice(
            *reinterpret_cast<std::string*>(record_cache_->Value(rec))));
        record_cache_->Release(rec);
        reqs[i].status = Status::OK();
      } else {
        miss_idx.push_back(i);
      }
    }
  } else {
    for (size_t i = 0; i < n; i++) miss_idx.push_back(i);
  }
  if (miss_idx.empty()) return;

  Cache::Handle* handle = nullptr;
  Status s = FindReader(file_number, &handle);
  if (!s.ok()) {
    // The open failure lands in every outstanding per-request status; those
    // copies carry the check obligation to the caller.
    for (size_t i : miss_idx) reqs[i].status = s;
    return;
  }
  auto* entry = reinterpret_cast<ReaderAndOwnership*>(cache_->Value(handle));

  std::vector<BlobReadRequest> misses;
  misses.reserve(miss_idx.size());
  for (size_t i : miss_idx) misses.push_back(reqs[i]);
  BlockBatchOptions batch;
  batch.max_parallel = std::max(1, options.max_cloud_fan_out);
  entry->reader->MultiGet(misses.data(), misses.size(), batch);
  for (size_t j = 0; j < miss_idx.size(); j++) {
    BlobReadRequest& req = reqs[miss_idx[j]];
    req.status = misses[j].status;
    if (req.status.ok() && record_cache_ != nullptr) {
      char key_buf[kRecordKeyLen];
      EncodeRecordKey(record_cache_id_, file_number, req.index.offset,
                      key_buf);
      auto* copy = new std::string(req.value->data(), req.value->size());
      record_cache_->Release(
          record_cache_->Insert(Slice(key_buf, kRecordKeyLen), copy,
                                copy->size(), &DeleteRecord));
    }
  }
  cache_->Release(handle);
}

void BlobFileCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

}  // namespace rocksmash
