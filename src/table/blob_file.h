// BlobFileBuilder / BlobFileReader: writer and reader for the blob file
// format in table/blob_format.h. The builder streams records into a staging
// WritableFile; the reader serves records through a BlockSource, so blob
// files read through exactly the same stack as SST blocks (persistent cache,
// cloud range-GET coalescing, crc verification, decompression).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "table/blob_format.h"
#include "table/format.h"
#include "util/status.h"

namespace rocksmash {

class WritableFile;
class Statistics;

class BlobFileBuilder {
 public:
  // Does not take ownership of `file`; the caller syncs and closes it after
  // Finish(). `compression` applies per record when it saves >= 12.5%
  // (readers auto-detect from the trailer type byte).
  BlobFileBuilder(uint64_t file_number, WritableFile* file,
                  CompressionType compression);

  BlobFileBuilder(const BlobFileBuilder&) = delete;
  BlobFileBuilder& operator=(const BlobFileBuilder&) = delete;

  // Appends one value record and fills *index with its location. The header
  // is written lazily before the first record.
  Status Add(const Slice& value, BlobIndex* index);

  // Writes the footer. No records may be added afterwards.
  Status Finish();

  uint64_t file_number() const { return file_number_; }
  // Bytes written so far; after Finish(), the final file size.
  uint64_t FileSize() const { return offset_; }
  // Offset of the footer (valid after Finish); the blob file's metadata
  // region for TableStorage::Install, so tiered storages pin the footer
  // locally for cloud-resident blob files.
  uint64_t FooterOffset() const { return footer_offset_; }
  uint64_t record_count() const { return footer_.record_count; }
  // Sum of on-disk record payload sizes — the live-bytes accounting basis.
  uint64_t payload_bytes() const { return footer_.payload_bytes; }

 private:
  const uint64_t file_number_;
  WritableFile* const file_;
  const CompressionType compression_;
  uint64_t offset_ = 0;
  uint64_t footer_offset_ = 0;
  bool finished_ = false;
  BlobFileFooter footer_;
  std::string compressed_scratch_;
};

// One record of a batched blob read. `value` receives the record bytes
// without a copy (the fetched buffer is moved in).
struct BlobReadRequest {
  BlobIndex index;
  PinnableSlice* value = nullptr;
  Status status;
};

class BlobFileReader {
 public:
  // Opens a blob file of `file_size` bytes read through `source` (ownership
  // taken): reads and verifies the footer, which tiered storages serve from
  // the locally pinned metadata tail for cloud files.
  static Status Open(std::unique_ptr<BlockSource> source, uint64_t file_size,
                     Statistics* statistics,
                     std::unique_ptr<BlobFileReader>* reader);

  BlobFileReader(const BlobFileReader&) = delete;
  BlobFileReader& operator=(const BlobFileReader&) = delete;

  // Reads the record at `index`, verifies its crc, decompresses if needed,
  // and moves the bytes into *value. Goes through BlockSource::ReadBlock,
  // the scan-intent path: a cloud miss fetches a readahead window.
  Status Get(const BlobIndex& index, PinnableSlice* value);

  // Batched read: all records go to BlockSource::ReadBlocks in one call, so
  // a cloud-backed source coalesces adjacent records and fans the misses
  // out within opts.max_parallel. Per-record outcomes land in reqs[i].status.
  void MultiGet(BlobReadRequest* reqs, size_t n,
                const BlockBatchOptions& opts);

  const BlobFileFooter& footer() const { return footer_; }
  uint64_t file_size() const { return file_size_; }

 private:
  BlobFileReader(std::unique_ptr<BlockSource> source, uint64_t file_size,
                 Statistics* statistics)
      : source_(std::move(source)),
        file_size_(file_size),
        statistics_(statistics) {}

  // Records must lie between the header and the footer.
  Status CheckBounds(const BlobIndex& index) const;

  std::unique_ptr<BlockSource> source_;
  const uint64_t file_size_;
  Statistics* const statistics_;
  BlobFileFooter footer_;
};

}  // namespace rocksmash
