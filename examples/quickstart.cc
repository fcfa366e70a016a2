// Quickstart: open a RocksMash store backed by a simulated S3 bucket, write
// some data, read it back, and print where everything ended up.
//
//   ./example_quickstart [workdir]
#include <cstdio>
#include <filesystem>
#include <memory>

#include "baselines/kvstore.h"
#include "cloud/cost_meter.h"
#include "cloud/object_store.h"
#include "util/clock.h"

using namespace rocksmash;

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : "/tmp/rocksmash_quickstart";
  std::filesystem::remove_all(workdir);

  // 1. A cloud bucket. In production this would be S3/MinIO; here it is the
  //    simulated object store: durable contents in a directory, S3-like
  //    latency and request accounting.
  auto cloud = NewSimObjectStore(workdir + "/bucket", SystemClock::Default());

  // 2. Open the store: local shallow levels + WAL under local_dir, deep
  //    levels in the bucket, hot blocks + metadata cached on "local SSD".
  SchemeOptions options;  // kind = kRocksMash: the paper's system.
  options.local_dir = workdir + "/db";
  options.cloud = cloud.get();
  options.cloud_level_start = 1;        // L0 local; L1+ in the bucket.
  options.write_buffer_size = 256 * 1024;
  options.max_file_size = 256 * 1024;
  options.wal_segments = 4;             // eWAL striping for fast recovery.

  std::unique_ptr<KVStore> db;
  Status s = OpenKVStore(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 3. Write.
  for (int i = 0; i < 20000; i++) {
    char key[32], value[64];
    std::snprintf(key, sizeof(key), "user%08d", i);
    std::snprintf(value, sizeof(value), "profile-data-for-user-%d", i);
    s = db->Put(WriteOptions(), key, value);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  s = db->FlushMemTable();
  if (!s.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
    return 1;
  }
  db->WaitForCompaction();

  // 4. Read (point lookups + a short scan).
  std::string value;
  s = db->Get(ReadOptions(), "user00012345", &value);
  std::printf("Get(user00012345) -> %s\n",
              s.ok() ? value.c_str() : s.ToString().c_str());

  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  std::printf("First 3 keys by scan:\n");
  int n = 0;
  for (it->SeekToFirst(); it->Valid() && n < 3; it->Next(), n++) {
    std::printf("  %s -> %s\n", it->key().ToString().c_str(),
                it->value().ToString().c_str());
  }

  // 5. Where did the data go, and what does it cost?
  const KVStoreStats stats = db->Stats();
  std::printf("\nPlacement:\n");
  std::printf("  local : %llu files, %.1f KiB\n",
              (unsigned long long)stats.storage.local_files,
              stats.storage.local_bytes / 1024.0);
  std::printf("  cloud : %llu files, %.1f KiB\n",
              (unsigned long long)stats.storage.cloud_files,
              stats.storage.cloud_bytes / 1024.0);
  std::printf("Persistent cache: %llu metadata slabs (%.1f KiB), "
              "%.1f KiB data blocks, %llu hits / %llu misses\n",
              (unsigned long long)stats.persistent_cache.metadata.slabs,
              stats.persistent_cache.metadata.bytes / 1024.0,
              stats.persistent_cache.data_bytes / 1024.0,
              (unsigned long long)stats.persistent_cache.hits,
              (unsigned long long)stats.persistent_cache.misses);
  std::printf("Cloud requests: %llu PUTs, %llu GETs\n",
              (unsigned long long)stats.cloud_ops.puts,
              (unsigned long long)stats.cloud_ops.gets);
  const CostBreakdown cost =
      CostMeter().MonthlyCost(cloud->BytesStored(), stats.LocalBytes(),
                              stats.cloud_ops, /*hours_observed=*/1.0);
  std::printf("Local footprint: %.1f KiB\n", stats.LocalBytes() / 1024.0);
  std::printf("Estimated monthly cost: %s\n",
              CostMeter::Format(cost).c_str());
  return 0;
}
