// Tests for cloud read sizing: sequential block reads of a cloud SST (scans)
// must cost one range GET per window, not one per block, while a point
// lookup fetches exactly the block it needs.
#include <gtest/gtest.h>

#include <filesystem>

#include "cloud/object_store.h"
#include "env/env.h"
#include "mash/persistent_cache.h"
#include "mash/placement.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

class ReadaheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rocksmash_readahead";
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(Env::Default()->CreateDirRecursively(dir_).ok());
    CloudLatencyModel model;
    model.jitter_micros = 0;
    model.get_first_byte_micros = 1;
    model.put_first_byte_micros = 1;
    cloud_ = NewMemObjectStore(&clock_, model);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Builds a ~500 KiB SST of incompressible-ish data at cloud level.
  void BuildCloudTable(TieredTableStorage* storage, uint64_t number) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(storage->NewStagingFile(number, &file).ok());
    TableOptions topt;
    TableBuilder builder(topt, file.get());
    Random64 rng(4);
    for (int i = 0; i < 3000; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key%08d", i);
      std::string value(128, '\0');
      for (char& c : value) c = static_cast<char>(rng.Next());
      builder.Add(key, value);
    }
    ASSERT_TRUE(builder.Finish().ok());
    size_ = builder.FileSize();
    metadata_offset_ = builder.MetadataOffset();
    ASSERT_TRUE(file->Close().ok());
    ASSERT_TRUE(storage->Install(number, 3, size_, metadata_offset_).ok());
  }

  std::unique_ptr<Table> OpenCloudTable(TieredTableStorage* storage,
                                        uint64_t number) {
    std::unique_ptr<BlockSource> source;
    uint64_t got_size;
    EXPECT_TRUE(storage->OpenTable(number, &source, &got_size).ok());
    std::unique_ptr<Table> table;
    EXPECT_TRUE(Table::Open(TableOptions(), std::move(source), size_, nullptr,
                            1, &table)
                    .ok());
    return table;
  }

  uint64_t ScanAndCountGets(TieredTableStorage* storage, uint64_t number) {
    std::unique_ptr<Table> table = OpenCloudTable(storage, number);
    const uint64_t gets_before = cloud_->Counters().gets;
    std::unique_ptr<Iterator> it(table->NewIterator());
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_EQ(3000, n);
    EXPECT_TRUE(it->status().ok());
    return cloud_->Counters().gets - gets_before;
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  uint64_t size_ = 0;
  uint64_t metadata_offset_ = 0;
};

TEST_F(ReadaheadTest, ScanCostsOneGetPerWindow) {
  TieredStorageOptions with;
  with.local_dir = dir_ + "/with";
  with.cloud = cloud_.get();
  with.cloud_level_start = 0;
  with.cloud_prefix = "with";
  with.cloud_readahead_bytes = 128 * 1024;
  TieredTableStorage storage_with(with);
  BuildCloudTable(&storage_with, 1);
  const uint64_t gets_with = ScanAndCountGets(&storage_with, 1);

  TieredStorageOptions without = with;
  without.local_dir = dir_ + "/without";
  without.cloud_prefix = "without";
  without.cloud_readahead_bytes = 0;
  TieredTableStorage storage_without(without);
  BuildCloudTable(&storage_without, 2);
  const uint64_t gets_without = ScanAndCountGets(&storage_without, 2);

  // ~500 KiB of data blocks: with 128 KiB windows a handful of GETs; one
  // per 4 KiB block without.
  EXPECT_LT(gets_with * 10, gets_without);
  EXPECT_LE(gets_with, 8u);
  EXPECT_GT(gets_without, 80u);
}

// A point lookup is scan-blind: its miss must not pay for a readahead
// window. One cold Get fetches exactly block + trailer; the repeat is served
// by the persistent cache; a scan of the same table still gets its windows.
TEST_F(ReadaheadTest, PointGetFetchesExactlyOneBlock) {
  PersistentCacheOptions pc;
  pc.dir = dir_ + "/pcache";
  pc.capacity_bytes = 4 << 20;
  PersistentCache pcache(pc);
  TieredStorageOptions opts;
  opts.local_dir = dir_ + "/point";
  opts.cloud = cloud_.get();
  opts.cloud_level_start = 0;
  opts.cloud_prefix = "point";
  opts.cloud_readahead_bytes = 128 * 1024;
  opts.persistent_cache = &pcache;
  TieredTableStorage storage(opts);
  BuildCloudTable(&storage, 4);

  std::unique_ptr<BlockSource> source;
  uint64_t got_size;
  ASSERT_TRUE(storage.OpenTable(4, &source, &got_size).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(TableOptions(), std::move(source), size_, nullptr,
                          1, &table)
                  .ok());

  const std::string key = "key00001500";
  std::unique_ptr<Iterator> index(table->NewIndexIterator());
  index->Seek(key);
  ASSERT_TRUE(index->Valid());
  BlockHandle handle;
  Slice handle_input = index->value();
  ASSERT_TRUE(handle.DecodeFrom(&handle_input).ok());

  auto get = [&](std::string* found) {
    const ObjectStore::OpCounters before = cloud_->Counters();
    Status s = table->InternalGet(
        key, found, [](void* arg, const Slice& k, const Slice& /*v*/) {
          *static_cast<std::string*>(arg) = k.ToString();
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    const ObjectStore::OpCounters after = cloud_->Counters();
    return std::make_pair(after.gets - before.gets,
                          after.bytes_downloaded - before.bytes_downloaded);
  };

  std::string found;
  const auto cold = get(&found);
  EXPECT_EQ(key, found);
  EXPECT_EQ(1u, cold.first);
  EXPECT_EQ(handle.size() + kBlockTrailerSize, cold.second);

  found.clear();
  const auto warm = get(&found);
  EXPECT_EQ(key, found);
  EXPECT_EQ(0u, warm.first);
  EXPECT_EQ(0u, warm.second);

  EXPECT_LE(ScanAndCountGets(&storage, 4), 8u);
}

// The pipeline every compaction input and default scan runs: the 256 KiB
// ReadBlock window, then streaming prefetch with a 1 MiB budget, with a
// persistent cache attached. The prefetch must not re-download bytes the
// window already brought back, so the scan fetches each data byte about
// once (the window's last block, cut by the window end, is fetched again
// by the next segment).
TEST_F(ReadaheadTest, WindowAndStreamingPrefetchFetchEachByteOnce) {
  PersistentCacheOptions pc;
  pc.dir = dir_ + "/pcache";
  pc.capacity_bytes = 4 << 20;
  PersistentCache pcache(pc);
  TieredStorageOptions opts;
  opts.local_dir = dir_ + "/stream";
  opts.cloud = cloud_.get();
  opts.cloud_level_start = 0;
  opts.cloud_prefix = "stream";
  opts.persistent_cache = &pcache;
  ASSERT_EQ(256u * 1024, opts.cloud_readahead_bytes);
  TieredTableStorage storage(opts);
  BuildCloudTable(&storage, 5);
  ASSERT_GT(metadata_offset_, opts.cloud_readahead_bytes);
  std::unique_ptr<Table> table = OpenCloudTable(&storage, 5);

  TableIterOptions iopts;
  iopts.scan_readahead_bytes = 1 << 20;
  const ObjectStore::OpCounters before = cloud_->Counters();
  std::unique_ptr<Iterator> it(table->NewIterator(iopts));
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(3000, n);
  const ObjectStore::OpCounters after = cloud_->Counters();
  const uint64_t gets = after.gets - before.gets;
  const uint64_t bytes = after.bytes_downloaded - before.bytes_downloaded;
  EXPECT_LT(gets, 7u);
  EXPECT_LT(bytes * 100, metadata_offset_ * 105)
      << bytes << " B downloaded for " << metadata_offset_
      << " B of data blocks";
}

// A scan that starts before an earlier one must not download the earlier
// scan's blocks again: its window stops where the persistent cache's run
// of those blocks begins.
TEST_F(ReadaheadTest, WindowLeavesOutCachedTail) {
  PersistentCacheOptions pc;
  pc.dir = dir_ + "/pcache";
  pc.capacity_bytes = 4 << 20;
  PersistentCache pcache(pc);
  TieredStorageOptions opts;
  opts.local_dir = dir_ + "/tail";
  opts.cloud = cloud_.get();
  opts.cloud_level_start = 0;
  opts.cloud_prefix = "tail";
  opts.persistent_cache = &pcache;
  TieredTableStorage storage(opts);
  BuildCloudTable(&storage, 7);
  std::unique_ptr<Table> table = OpenCloudTable(&storage, 7);

  std::unique_ptr<Iterator> index(table->NewIndexIterator());
  index->Seek("key00001500");
  ASSERT_TRUE(index->Valid());
  BlockHandle later_start;
  Slice input = index->value();
  ASSERT_TRUE(later_start.DecodeFrom(&input).ok());
  ASSERT_LT(later_start.offset(), opts.cloud_readahead_bytes);

  auto scan_from = [&](const char* start) {
    std::unique_ptr<Iterator> it(table->NewIterator());
    int n = 0;
    for (it->Seek(start); it->Valid(); it->Next()) n++;
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return n;
  };
  EXPECT_EQ(1500, scan_from("key00001500"));
  const ObjectStore::OpCounters before = cloud_->Counters();
  EXPECT_EQ(3000, scan_from("key00000000"));
  const ObjectStore::OpCounters after = cloud_->Counters();
  // One window, ending where the first scan's cached blocks begin.
  EXPECT_EQ(1u, after.gets - before.gets);
  EXPECT_EQ(later_start.offset(),
            after.bytes_downloaded - before.bytes_downloaded);
}

// A multi-block MultiGet fetch group stays buffered on the source, so an
// iterator that later walks the blocks between the batch's keys is served
// from that buffer without a cloud GET.
TEST_F(ReadaheadTest, MultiGetGroupServesLaterIterator) {
  std::shared_ptr<Statistics> stats = CreateDBStatistics();
  TieredStorageOptions opts;
  opts.local_dir = dir_ + "/group";
  opts.cloud = cloud_.get();
  opts.cloud_level_start = 0;
  opts.cloud_prefix = "group";
  opts.cloud_readahead_bytes = 128 * 1024;
  opts.statistics = stats.get();
  TieredTableStorage storage(opts);
  BuildCloudTable(&storage, 6);
  std::unique_ptr<Table> table = OpenCloudTable(&storage, 6);

  // Two keys five data blocks apart: one coalesced range GET.
  std::unique_ptr<Iterator> index(table->NewIndexIterator());
  index->Seek("key00001000");
  for (int i = 0; i < 5 && index->Valid(); i++) index->Next();
  ASSERT_TRUE(index->Valid());
  const std::string last_key = index->key().ToString();

  int found = 0;
  auto count = [](void* arg, const Slice&, const Slice&) {
    ++*static_cast<int*>(arg);
  };
  TableGetRequest reqs[2];
  reqs[0].key = "key00001000";
  reqs[1].key = last_key;
  for (TableGetRequest& r : reqs) {
    r.arg = &found;
    r.handle_result = count;
  }
  uint64_t gets_before = cloud_->Counters().gets;
  table->MultiGet(reqs, 2, BlockBatchOptions{});
  ASSERT_TRUE(reqs[0].status.ok());
  ASSERT_TRUE(reqs[1].status.ok());
  EXPECT_EQ(2, found);
  EXPECT_EQ(1u, cloud_->Counters().gets - gets_before);

  // Walking from the first key into the last block: every block, the ones
  // no key of the batch asked for included, comes from the group's buffer.
  const uint64_t hits_before = stats->GetTickerCount(CLOUD_READAHEAD_HIT);
  gets_before = cloud_->Counters().gets;
  std::unique_ptr<Iterator> it(table->NewIterator());
  int n = 0;
  for (it->Seek("key00001000"); it->Valid() && it->key().compare(last_key) < 0;
       it->Next()) {
    n++;
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_GT(n, 0);
  EXPECT_EQ(0u, cloud_->Counters().gets - gets_before);
  EXPECT_GE(stats->GetTickerCount(CLOUD_READAHEAD_HIT) - hits_before, 4u);
}

TEST_F(ReadaheadTest, ReadaheadDataIsCorrect) {
  TieredStorageOptions opts;
  opts.local_dir = dir_ + "/verify";
  opts.cloud = cloud_.get();
  opts.cloud_level_start = 0;
  opts.cloud_readahead_bytes = 64 * 1024;
  TieredTableStorage storage(opts);
  BuildCloudTable(&storage, 3);

  std::unique_ptr<BlockSource> source;
  uint64_t got_size;
  ASSERT_TRUE(storage.OpenTable(3, &source, &got_size).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(TableOptions(), std::move(source), size_, nullptr,
                          1, &table)
                  .ok());

  // Values are deterministic from the same RNG sequence the builder used;
  // block checksums verify every byte served from the readahead buffer, so
  // a full clean scan plus spot point-gets suffices.
  std::unique_ptr<Iterator> it(table->NewIterator());
  std::string prev;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::string k = it->key().ToString();
    ASSERT_LT(prev, k);
    ASSERT_EQ(128u, it->value().size());
    prev = k;
  }
  ASSERT_TRUE(it->status().ok());

  for (int i = 0; i < 3000; i += 307) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    it->Seek(key);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(key, it->key().ToString());
  }
}

}  // namespace
}  // namespace rocksmash
