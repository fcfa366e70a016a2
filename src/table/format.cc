#include "table/format.h"

#include <vector>

#include "env/env.h"
#include "util/coding.h"
#include "util/compression.h"
#include "util/crc32c.h"

namespace rocksmash {

void BlockHandle::EncodeTo(std::string* dst) const {
  // Sanity check that all fields have been set.
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  filter_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // Padding
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic =
      (static_cast<uint64_t>(magic_hi) << 32) | magic_lo;
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }
  Status result = filter_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  return result;
}

Status VerifyAndStripTrailer(const Slice& raw, const BlockHandle& handle,
                             BlockContents* result) {
  const size_t n = static_cast<size_t>(handle.size());
  if (raw.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }
  const char* data = raw.data();
  const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
  const uint32_t actual = crc32c::Value(data, n + 1);
  if (actual != crc) {
    return Status::Corruption("block checksum mismatch");
  }
  switch (data[n]) {
    case kNoCompression:
      result->data.assign(data, n);
      return Status::OK();
    case kLzCompression:
      if (!lz::Uncompress(Slice(data, n), &result->data)) {
        return Status::Corruption("corrupted compressed block");
      }
      return Status::OK();
    default:
      return Status::Corruption("unknown block compression type");
  }
}

Status FileBlockSource::ReadRaw(uint64_t offset, size_t n, std::string* out) {
  out->resize(n);
  Slice contents;
  Status s = file_->Read(offset, n, &contents, out->data());
  if (!s.ok()) return s;
  if (contents.data() != out->data() && !contents.empty()) {
    memmove(out->data(), contents.data(), contents.size());
  }
  out->resize(contents.size());
  return Status::OK();
}

Status FileBlockSource::ReadBlock(const BlockHandle& handle, BlockKind,
                                  BlockContents* result) {
  const size_t n = static_cast<size_t>(handle.size());
  std::vector<char> buf(n + kBlockTrailerSize);
  Slice contents;
  Status s =
      file_->Read(handle.offset(), n + kBlockTrailerSize, &contents, buf.data());
  if (!s.ok()) return s;
  return VerifyAndStripTrailer(contents, handle, result);
}

void BlockSource::ReadBlocks(BlockFetchRequest* requests, size_t n,
                             const BlockBatchOptions& /*opts*/) {
  // Local sources pay no per-request latency worth hiding; serial is fine.
  for (size_t i = 0; i < n; i++) {
    requests[i].status =
        ReadBlock(requests[i].handle, requests[i].kind, &requests[i].contents);
  }
}

void BlockSource::Prefetch(const BlockHandle* /*handles*/, size_t /*n*/) {
  // Local sources pay no per-block latency worth hiding.
}

}  // namespace rocksmash
