// MemTable: skiplist of encoded entries. Entry format (all in one arena
// allocation):
//   klength varint32 | internal key bytes | vlength varint32 | value bytes
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "lsm/dbformat.h"
#include "lsm/skiplist.h"
#include "table/iterator.h"
#include "util/arena.h"

namespace rocksmash {

class MemTable {
 public:
  // MemTables are reference counted: callers Ref() on acquisition and
  // Unref() when done (the final Unref deletes). The count is atomic so
  // iterator cleanup and background flush may drop references without
  // agreeing on a single guarding mutex.
  explicit MemTable(const InternalKeyComparator& comparator);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() {
    const int prev = refs_.fetch_sub(1, std::memory_order_acq_rel);
    assert(prev >= 1);
    if (prev == 1) {
      delete this;
    }
  }

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  // Iterator yielding internal keys in sorted order.
  std::unique_ptr<Iterator> NewIterator();

  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  // Thread-safe Add for the parallel memtable-apply stage: arena allocation
  // goes through a spinlock and the skiplist link is CAS-based, so any
  // number of writer threads may call this concurrently (with each other
  // and with readers). Must not be interleaved with plain Add on the same
  // memtable: the write path always uses this one, plain Add only fills
  // the private memtables of WAL recovery.
  void AddConcurrently(SequenceNumber seq, ValueType type, const Slice& key,
                       const Slice& value);

  // If a value for key (at or before the lookup sequence) exists, sets
  // *value and returns true. If the latest entry is a deletion, sets
  // *s = NotFound and returns true; if it is a blob index (never written to
  // a memtable), sets *s = Corruption and returns true. Else returns false.
  bool Get(const LookupKey& key, std::string* value, Status* s);

  bool Empty() const;

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    const InternalKeyComparator comparator;
    explicit KeyComparator(const InternalKeyComparator& c) : comparator(c) {}
    int operator()(const char* a, const char* b) const;
  };

  using Table = SkipList<const char*, KeyComparator>;

  ~MemTable();  // Private: use Unref().

  // Encodes an entry into a fresh arena allocation and returns it.
  char* EncodeEntry(SequenceNumber seq, ValueType type, const Slice& key,
                    const Slice& value, bool concurrent);

  KeyComparator comparator_;
  std::atomic<int> refs_;
  Arena arena_;
  Table table_;
};

}  // namespace rocksmash
