#include "lsm/memtable.h"

#include <cstring>

#include "util/coding.h"

namespace rocksmash {

namespace {
// Entries are length-prefixed; this decodes the prefixed slice at `data`.
Slice GetLengthPrefixedSliceAt(const char* data) {
  uint32_t len;
  const char* p = data;
  p = GetVarint32Ptr(p, p + 5, &len);
  return Slice(p, len);
}
}  // namespace

MemTable::MemTable(const InternalKeyComparator& comparator)
    : comparator_(comparator), refs_(0), table_(comparator_, &arena_) {}

MemTable::~MemTable() { assert(refs_.load(std::memory_order_relaxed) == 0); }

int MemTable::KeyComparator::operator()(const char* aptr,
                                        const char* bptr) const {
  // Internal keys are encoded as length-prefixed strings.
  Slice a = GetLengthPrefixedSliceAt(aptr);
  Slice b = GetLengthPrefixedSliceAt(bptr);
  return comparator.Compare(a, b);
}

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override {
    tmp_.clear();
    PutLengthPrefixedSlice(&tmp_, k);
    iter_.Seek(tmp_.data());
  }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override { return GetLengthPrefixedSliceAt(iter_.key()); }
  Slice value() const override {
    Slice key_slice = GetLengthPrefixedSliceAt(iter_.key());
    return GetLengthPrefixedSliceAt(key_slice.data() + key_slice.size());
  }
  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
  std::string tmp_;  // For passing to Seek
};

std::unique_ptr<Iterator> MemTable::NewIterator() {
  return std::make_unique<MemTableIterator>(&table_);
}

bool MemTable::Empty() const {
  Table::Iterator iter(&table_);
  iter.SeekToFirst();
  return !iter.Valid();
}

char* MemTable::EncodeEntry(SequenceNumber s, ValueType type, const Slice& key,
                            const Slice& value, bool concurrent) {
  // Format of an entry is concatenation of:
  //  key_size     : varint32 of internal_key.size()
  //  key bytes    : char[internal_key.size()]
  //  value_size   : varint32 of value.size()
  //  value bytes  : char[value.size()]
  size_t key_size = key.size();
  size_t val_size = value.size();
  size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = concurrent ? arena_.AllocateConcurrently(encoded_len)
                         : arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  std::memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64(p, PackSequenceAndType(s, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  std::memcpy(p, value.data(), val_size);
  assert(p + val_size == buf + encoded_len);
  return buf;
}

void MemTable::Add(SequenceNumber s, ValueType type, const Slice& key,
                   const Slice& value) {
  table_.Insert(EncodeEntry(s, type, key, value, /*concurrent=*/false));
}

void MemTable::AddConcurrently(SequenceNumber s, ValueType type,
                               const Slice& key, const Slice& value) {
  table_.InsertConcurrently(EncodeEntry(s, type, key, value,
                                        /*concurrent=*/true));
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s) {
  Slice memkey = key.memtable_key();
  Table::Iterator iter(&table_);
  iter.Seek(memkey.data());
  if (iter.Valid()) {
    // Entry format is:
    //    klength  varint32
    //    userkey  char[klength-8]
    //    tag      uint64
    //    vlength  varint32
    //    value    char[vlength]
    // Check that it belongs to same user key.
    const char* entry = iter.key();
    uint32_t key_length;
    const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
    if (comparator_.comparator.user_comparator()->Compare(
            Slice(key_ptr, key_length - 8), key.user_key()) == 0) {
      // Correct user key.
      const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
      switch (static_cast<ValueType>(tag & 0xff)) {
        case kTypeValue: {
          Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
          value->assign(v.data(), v.size());
          return true;
        }
        case kTypeDeletion:
          *s = Status::NotFound(Slice());
          return true;
        case kTypeBlobIndex:
          // Values are separated at flush, so a memtable never holds a blob
          // index. Fail closed: falling through would let an older SST
          // value answer for this key.
          *s = Status::Corruption("blob index in memtable");
          return true;
      }
    }
  }
  return false;
}

}  // namespace rocksmash
