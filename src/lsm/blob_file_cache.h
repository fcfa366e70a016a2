// BlobFileCache: LRU of open BlobFileReaders keyed by file number, opened
// through the same TableStorage as SSTs (blob files share the file-number
// space and the tiered placement, so a cloud-resident blob file's footer is
// served from the locally pinned metadata tail).
//
// Thread-safety: all methods may be called concurrently; synchronization is
// delegated to the sharded LRU Cache and to the open readers, which are
// immutable once constructed.
#pragma once

#include <cstdint>
#include <memory>

#include "lsm/options.h"
#include "lsm/storage.h"
#include "table/blob_file.h"
#include "util/cache.h"

namespace rocksmash {

class BlobFileCache {
 public:
  // `record_cache` (the DB's shared block cache; may be nullptr) holds
  // decompressed blob records keyed by (reader cache id, offset), so repeat
  // point reads of a hot value cost one cache lookup + memcpy instead of a
  // file read — the same deal SST data blocks get.
  BlobFileCache(const DBOptions& options, TableStorage* storage,
                Cache* record_cache, int entries);
  ~BlobFileCache();

  BlobFileCache(const BlobFileCache&) = delete;
  BlobFileCache& operator=(const BlobFileCache&) = delete;

  // Resolves one blob index: reads the record it points at into *value
  // (zero-copy: the fetched buffer is moved in). A read in file order (the
  // GC rewrite loop, the DB iterator): a cloud miss fetches a readahead
  // window. Point reads use a one-record MultiGet instead.
  Status Get(const ReadOptions& options, const BlobIndex& index,
             PinnableSlice* value);

  // Batched resolution of records in ONE blob file (all reqs[i].index must
  // carry the same file number). Pins the reader once and forwards to
  // BlobFileReader::MultiGet, which coalesces adjacent records and fans
  // cloud misses out within ReadOptions::max_cloud_fan_out.
  void MultiGet(const ReadOptions& options, uint64_t file_number,
                BlobReadRequest* reqs, size_t n);

  // Drop any cached reader for the file.
  void Evict(uint64_t file_number);

 private:
  Status FindReader(uint64_t file_number, Cache::Handle** handle);

  const DBOptions& options_;
  TableStorage* storage_;
  Cache* record_cache_;  // Not owned; may be nullptr.
  // Per-instance prefix for record keys, from record_cache_->NewId():
  // shards of a ShardedDB share one record cache but allocate blob file
  // numbers independently, so raw (file, offset) keys would alias.
  const uint64_t record_cache_id_;
  std::unique_ptr<Cache> cache_;
};

}  // namespace rocksmash
