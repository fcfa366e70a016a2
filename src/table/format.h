// On-disk SSTable format shared by the builder and reader:
//
//   [data block 0] [data block 1] ... [filter block] [index block] [footer]
//
// Each block is followed by a 5-byte trailer: 1 byte compression type +
// 4 bytes masked crc32c of (block, type). The footer is fixed-size and holds
// the filter- and index-block handles plus a magic number.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace rocksmash {

class RandomAccessFile;

class BlockHandle {
 public:
  // Maximum encoded length: two varint64s.
  static constexpr size_t kMaxEncodedLength = 10 + 10;

  BlockHandle() : offset_(~uint64_t{0}), size_(~uint64_t{0}) {}
  BlockHandle(uint64_t offset, uint64_t size) : offset_(offset), size_(size) {}

  uint64_t offset() const { return offset_; }
  uint64_t size() const { return size_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

  bool IsSet() const { return offset_ != ~uint64_t{0}; }

 private:
  uint64_t offset_;
  uint64_t size_;
};

class Footer {
 public:
  static constexpr size_t kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8;

  const BlockHandle& filter_handle() const { return filter_handle_; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_filter_handle(const BlockHandle& h) { filter_handle_ = h; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle filter_handle_;
  BlockHandle index_handle_;
};

// "rocksmash" pounded into 8 bytes.
static constexpr uint64_t kTableMagicNumber = 0x726f636b6d617368ull;

enum CompressionType : unsigned char {
  kNoCompression = 0x0,
  kLzCompression = 0x1,  // util/compression.h (snappy wire format)
};

// 1-byte type + 32-bit crc.
static constexpr size_t kBlockTrailerSize = 5;

struct BlockContents {
  std::string data;
};

// The role of a block within a table. The LSM-aware persistent cache treats
// kIndex/kFilter (metadata) differently from kData.
enum class BlockKind : unsigned char { kData = 0, kIndex = 1, kFilter = 2 };

// One block wanted by a batched read. `contents`/`status` are outputs of
// BlockSource::ReadBlocks; callers must treat `contents` as valid only when
// `status` is OK.
struct BlockFetchRequest {
  BlockHandle handle;
  BlockKind kind = BlockKind::kData;
  BlockContents contents;
  Status status;
};

// Knobs for one batched read, derived from ReadOptions by the caller.
struct BlockBatchOptions {
  // Upper bound on fetches a source may have in flight for this batch
  // (values < 1 mean 1, i.e. serial).
  int max_parallel = 8;
};

// BlockSource: where the reader obtains raw block bytes. The plain
// implementation reads from a RandomAccessFile; RocksMash plugs in a source
// that consults the persistent cache and falls back to cloud range-GETs.
class BlockSource {
 public:
  virtual ~BlockSource() = default;
  // Reads block + trailer at `handle`, verifies the crc, strips the trailer.
  virtual Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                           BlockContents* result) = 0;
  // Batched variant used by MultiGet: fills every request's contents and
  // status. The requests are already deduplicated by the caller. The default
  // reads them serially; sources backed by a high-latency store override it
  // to serve cache hits inline, coalesce adjacent misses, and issue the
  // remaining fetches concurrently within opts.max_parallel.
  virtual void ReadBlocks(BlockFetchRequest* requests, size_t n,
                          const BlockBatchOptions& opts);
  // Raw byte range read (footer, metadata-region prefetch). No crc.
  virtual Status ReadRaw(uint64_t offset, size_t n, std::string* out) = 0;
  // Streaming-scan hint: the caller expects to ReadBlock the given handles
  // soon, in order. Sources may start fetching them asynchronously so later
  // ReadBlock calls are served from buffered bytes. The default is a no-op
  // (local files are already fast); the cloud source overrides it to issue
  // coalesced range-GETs on its background pool. Must not block on the
  // fetched data.
  virtual void Prefetch(const BlockHandle* handles, size_t n);
};

// Reads blocks from a RandomAccessFile (local file or CloudEnv file).
class FileBlockSource final : public BlockSource {
 public:
  // Does not take ownership of file.
  explicit FileBlockSource(const RandomAccessFile* file) : file_(file) {}
  Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                   BlockContents* result) override;
  Status ReadRaw(uint64_t offset, size_t n, std::string* out) override;

 private:
  const RandomAccessFile* file_;
};

// Shared trailer verification used by every BlockSource implementation:
// takes raw bytes of length handle.size() + kBlockTrailerSize.
Status VerifyAndStripTrailer(const Slice& raw, const BlockHandle& handle,
                             BlockContents* result);

}  // namespace rocksmash
