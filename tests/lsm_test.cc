// Tests for LSM internals: internal key format, skiplist, memtable,
// write batch, version edit encoding.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "lsm/dbformat.h"
#include "lsm/memtable.h"
#include "lsm/skiplist.h"
#include "lsm/version_edit.h"
#include "lsm/version_set.h"
#include "lsm/write_batch.h"
#include "util/arena.h"
#include "util/random.h"

namespace rocksmash {
namespace {

// ---------- dbformat ----------

TEST(DbFormatTest, InternalKeyRoundTrip) {
  ParsedInternalKey parsed("user_key", 42, kTypeValue);
  std::string encoded;
  AppendInternalKey(&encoded, parsed);

  ParsedInternalKey decoded;
  ASSERT_TRUE(ParseInternalKey(encoded, &decoded));
  EXPECT_EQ("user_key", decoded.user_key.ToString());
  EXPECT_EQ(42u, decoded.sequence);
  EXPECT_EQ(kTypeValue, decoded.type);
}

TEST(DbFormatTest, ParseRejectsMalformed) {
  ParsedInternalKey decoded;
  EXPECT_FALSE(ParseInternalKey("short", &decoded));
}

TEST(DbFormatTest, InternalKeyOrdering) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  // Same user key: higher sequence sorts first.
  InternalKey new_key("k", 10, kTypeValue);
  InternalKey old_key("k", 5, kTypeValue);
  EXPECT_LT(icmp.Compare(new_key.Encode(), old_key.Encode()), 0);

  // Different user keys dominate.
  InternalKey a("a", 1, kTypeValue);
  InternalKey b("b", 100, kTypeValue);
  EXPECT_LT(icmp.Compare(a.Encode(), b.Encode()), 0);

  // Deletion sorts after value at same (key, seq): type descending.
  InternalKey val("k", 7, kTypeValue);
  InternalKey del("k", 7, kTypeDeletion);
  EXPECT_LT(icmp.Compare(val.Encode(), del.Encode()), 0);
}

TEST(DbFormatTest, LookupKeyViews) {
  LookupKey lkey("mykey", 99);
  EXPECT_EQ("mykey", lkey.user_key().ToString());
  Slice ikey = lkey.internal_key();
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(ikey, &parsed));
  EXPECT_EQ(99u, parsed.sequence);
  EXPECT_EQ("mykey", parsed.user_key.ToString());
}

TEST(DbFormatTest, InternalComparatorSeparators) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  InternalKey a("abcdef", 50, kTypeValue);
  InternalKey z("abzzzz", 10, kTypeValue);
  std::string sep = a.Encode().ToString();
  icmp.FindShortestSeparator(&sep, z.Encode());
  EXPECT_LT(icmp.Compare(a.Encode(), sep), 0);
  EXPECT_LT(icmp.Compare(sep, z.Encode()), 0);
  EXPECT_LE(sep.size(), a.Encode().size());
}

// ---------- SkipList ----------

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::set<uint64_t> model;
  Random64 rng(5);
  for (int i = 0; i < 2000; i++) {
    uint64_t v = rng.Uniform(10000);
    if (model.insert(v).second) {
      list.Insert(v);
    }
  }
  for (uint64_t v = 0; v < 10000; v++) {
    EXPECT_EQ(model.count(v) > 0, list.Contains(v));
  }
}

TEST(SkipListTest, IterationOrder) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::set<uint64_t> model;
  Random64 rng(6);
  for (int i = 0; i < 500; i++) {
    uint64_t v = rng.Uniform(100000);
    if (model.insert(v).second) {
      list.Insert(v);
    }
  }
  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  auto expect = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++expect) {
    ASSERT_NE(expect, model.end());
    EXPECT_EQ(*expect, it.key());
  }
  EXPECT_EQ(expect, model.end());

  // Seek.
  it.Seek(*model.begin());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*model.begin(), it.key());

  // SeekToLast + Prev.
  it.SeekToLast();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*model.rbegin(), it.key());
}

TEST(SkipListTest, ConcurrentReadersDuringInsert) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::atomic<uint64_t> inserted{0};
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t upper = inserted.load(std::memory_order_acquire);
      // Everything published as inserted must be visible.
      for (uint64_t v = 0; v < upper; v += 17) {
        EXPECT_TRUE(list.Contains(v));
      }
    }
  });

  for (uint64_t v = 0; v < 20000; v++) {
    list.Insert(v);
    inserted.store(v + 1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

// ---------- MemTable ----------

TEST(MemTableTest, AddAndGet) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  mem->Add(1, kTypeValue, "k", "v1");
  mem->Add(2, kTypeValue, "k", "v2");

  std::string value;
  Status s;
  // Lookup at seq 2 sees latest.
  EXPECT_TRUE(mem->Get(LookupKey("k", 2), &value, &s));
  EXPECT_EQ("v2", value);
  // Lookup at seq 1 sees old version.
  EXPECT_TRUE(mem->Get(LookupKey("k", 1), &value, &s));
  EXPECT_EQ("v1", value);
  // Absent key.
  EXPECT_FALSE(mem->Get(LookupKey("other", 2), &value, &s));
  mem->Unref();
}

TEST(MemTableTest, DeletionVisible) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  mem->Add(1, kTypeValue, "k", "v");
  mem->Add(2, kTypeDeletion, "k", "");
  std::string value;
  Status s;
  EXPECT_TRUE(mem->Get(LookupKey("k", 5), &value, &s));
  EXPECT_TRUE(s.IsNotFound());
  mem->Unref();
}

// A blob index in a memtable fails closed: the lookup stops with Corruption
// instead of falling through to an older (SST) version of the key.
TEST(MemTableTest, BlobIndexFailsClosed) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  mem->Add(1, kTypeValue, "k", "v");
  mem->Add(2, kTypeBlobIndex, "k", "not-a-value");
  std::string value;
  Status s;
  EXPECT_TRUE(mem->Get(LookupKey("k", 5), &value, &s));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(value.empty());
  mem->Unref();
}

TEST(MemTableTest, IteratorYieldsInternalOrder) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  mem->Add(3, kTypeValue, "b", "b3");
  mem->Add(1, kTypeValue, "a", "a1");
  mem->Add(2, kTypeValue, "a", "a2");

  std::unique_ptr<Iterator> it(mem->NewIterator());
  std::vector<std::pair<std::string, uint64_t>> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(it->key(), &parsed));
    seen.emplace_back(parsed.user_key.ToString(), parsed.sequence);
  }
  // a@2 (newest first), a@1, b@3.
  ASSERT_EQ(3u, seen.size());
  EXPECT_EQ(std::make_pair(std::string("a"), uint64_t{2}), seen[0]);
  EXPECT_EQ(std::make_pair(std::string("a"), uint64_t{1}), seen[1]);
  EXPECT_EQ(std::make_pair(std::string("b"), uint64_t{3}), seen[2]);
  mem->Unref();
}

TEST(MemTableTest, MemoryUsageGrows) {
  InternalKeyComparator icmp(BytewiseComparator::Instance());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  size_t before = mem->ApproximateMemoryUsage();
  for (int i = 0; i < 100; i++) {
    mem->Add(i + 1, kTypeValue, "key" + std::to_string(i),
             std::string(100, 'v'));
  }
  EXPECT_GT(mem->ApproximateMemoryUsage(), before + 100 * 100);
  mem->Unref();
}

// ---------- WriteBatch ----------

TEST(WriteBatchTest, CountAndIterate) {
  WriteBatch batch;
  EXPECT_EQ(0, batch.Count());
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  EXPECT_EQ(3, batch.Count());

  struct Collector : public WriteBatch::Handler {
    std::string log;
    void Put(const Slice& key, const Slice& value) override {
      log += "Put(" + key.ToString() + "," + value.ToString() + ")";
    }
    void Delete(const Slice& key) override {
      log += "Delete(" + key.ToString() + ")";
    }
  } collector;
  ASSERT_TRUE(batch.Iterate(&collector).ok());
  EXPECT_EQ("Put(a,1)Delete(b)Put(c,3)", collector.log);
}

TEST(WriteBatchTest, Append) {
  WriteBatch a, b;
  a.Put("x", "1");
  b.Put("y", "2");
  b.Delete("z");
  a.Append(b);
  EXPECT_EQ(3, a.Count());
}

TEST(WriteBatchTest, SequenceRoundTrip) {
  WriteBatch batch;
  WriteBatchInternal::SetSequence(&batch, 12345);
  EXPECT_EQ(12345u, WriteBatchInternal::Sequence(&batch));
}

TEST(WriteBatchTest, InsertIntoMemTable) {
  WriteBatch batch;
  batch.Put("k1", "v1");
  batch.Put("k2", "v2");
  batch.Delete("k1");
  WriteBatchInternal::SetSequence(&batch, 100);

  InternalKeyComparator icmp(BytewiseComparator::Instance());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  ASSERT_TRUE(WriteBatchInternal::InsertInto(&batch, mem).ok());

  std::string value;
  Status s;
  EXPECT_TRUE(mem->Get(LookupKey("k1", 200), &value, &s));
  EXPECT_TRUE(s.IsNotFound());  // Deleted at seq 102.
  s = Status::OK();
  EXPECT_TRUE(mem->Get(LookupKey("k2", 200), &value, &s));
  EXPECT_EQ("v2", value);
  mem->Unref();
}

TEST(WriteBatchTest, CorruptContentsDetected) {
  WriteBatch batch;
  batch.Put("k", "v");
  std::string contents = WriteBatchInternal::Contents(&batch).ToString();
  contents[13] = static_cast<char>(0x7f);  // Bogus tag.
  WriteBatch corrupt;
  WriteBatchInternal::SetContents(&corrupt, contents);
  struct Nop : public WriteBatch::Handler {
    void Put(const Slice&, const Slice&) override {}
    void Delete(const Slice&) override {}
  } nop;
  EXPECT_FALSE(corrupt.Iterate(&nop).ok());
}

// ---------- FindFile / overlap checks (version_set helpers) ----------

class FindFileTest : public ::testing::Test {
 protected:
  ~FindFileTest() override {
    for (FileMetaData* f : files_) delete f;
  }

  void Add(const char* smallest, const char* largest,
           SequenceNumber smallest_seq = 100,
           SequenceNumber largest_seq = 100) {
    auto* f = new FileMetaData;
    f->number = files_.size() + 1;
    f->smallest = InternalKey(smallest, smallest_seq, kTypeValue);
    f->largest = InternalKey(largest, largest_seq, kTypeValue);
    files_.push_back(f);
  }

  int Find(const char* key) {
    InternalKey target(key, 100, kTypeValue);
    return FindFile(icmp_, files_, target.Encode());
  }

  bool Overlaps(const char* smallest, const char* largest) {
    Slice s(smallest != nullptr ? smallest : "");
    Slice l(largest != nullptr ? largest : "");
    return SomeFileOverlapsRange(icmp_, disjoint_, files_,
                                 (smallest != nullptr ? &s : nullptr),
                                 (largest != nullptr ? &l : nullptr));
  }

  InternalKeyComparator icmp_{BytewiseComparator::Instance()};
  bool disjoint_ = true;
  std::vector<FileMetaData*> files_;
};

TEST_F(FindFileTest, Empty) {
  EXPECT_EQ(0, Find("foo"));
  EXPECT_FALSE(Overlaps("a", "z"));
  EXPECT_FALSE(Overlaps(nullptr, nullptr));
}

TEST_F(FindFileTest, Single) {
  Add("p", "q");
  EXPECT_EQ(0, Find("a"));
  EXPECT_EQ(0, Find("p"));
  EXPECT_EQ(0, Find("q"));
  EXPECT_EQ(1, Find("r"));

  EXPECT_FALSE(Overlaps("a", "b"));
  EXPECT_FALSE(Overlaps("z1", "z2"));
  EXPECT_TRUE(Overlaps("a", "p"));
  EXPECT_TRUE(Overlaps("q", "z"));
  EXPECT_TRUE(Overlaps("p1", "p2"));
  EXPECT_TRUE(Overlaps(nullptr, "p"));
  EXPECT_TRUE(Overlaps("q", nullptr));
  EXPECT_TRUE(Overlaps(nullptr, nullptr));
  EXPECT_FALSE(Overlaps(nullptr, "a"));
  EXPECT_FALSE(Overlaps("z", nullptr));
}

TEST_F(FindFileTest, Multiple) {
  Add("150", "200");
  Add("200", "250");
  Add("300", "350");
  Add("400", "450");
  EXPECT_EQ(0, Find("100"));
  EXPECT_EQ(0, Find("200"));
  EXPECT_EQ(1, Find("201"));
  EXPECT_EQ(2, Find("251"));
  EXPECT_EQ(2, Find("350"));
  EXPECT_EQ(3, Find("351"));
  EXPECT_EQ(4, Find("451"));

  EXPECT_FALSE(Overlaps("251", "299"));
  EXPECT_TRUE(Overlaps("251", "300"));
  EXPECT_TRUE(Overlaps("100", "150"));
  EXPECT_TRUE(Overlaps("100", "500"));
}

TEST_F(FindFileTest, OverlappingL0Fallback) {
  // disjoint = false (level 0): linear scan semantics.
  disjoint_ = false;
  Add("150", "600");
  Add("400", "500");
  EXPECT_TRUE(Overlaps("100", "150"));
  EXPECT_TRUE(Overlaps("450", "700"));
  EXPECT_FALSE(Overlaps("601", "700"));
}

// ---------- VersionEdit ----------

TEST(VersionEditTest, EncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.SetComparatorName("rocksmash.BytewiseComparator");
  edit.SetLogNumber(9);
  edit.SetNextFile(100);
  edit.SetLastSequence(987654);
  edit.AddFile(2, 55, 12345, InternalKey("aaa", 1, kTypeValue),
               InternalKey("zzz", 2, kTypeValue));
  edit.RemoveFile(3, 27);
  edit.SetCompactPointer(1, InternalKey("mmm", 3, kTypeValue));

  std::string encoded;
  edit.EncodeTo(&encoded);

  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  std::string encoded2;
  decoded.EncodeTo(&encoded2);
  EXPECT_EQ(encoded, encoded2);
}

TEST(VersionEditTest, DecodeRejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\x7f\x01garbage")).ok());
}

}  // namespace
}  // namespace rocksmash
