#include "mash/placement.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "env/env.h"
#include "lsm/filename.h"
#include "table/format.h"
#include "trace/span.h"
#include "util/clock.h"
#include "util/event_listener.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/thread_pool.h"

namespace rocksmash {

namespace {

// BlockSource for a cloud-resident SST: metadata reads are served from the
// packed local metadata region; data reads consult the persistent cache and
// the source's segment list, then fall back to cloud range GETs (admitting
// the fetched block). Every byte a GET brings back beyond the block asked
// for (a ReadBlock window, a multi-block ReadBlocks group, a Prefetch range)
// lands in that one list.
class CloudBlockSource final : public BlockSource {
 public:
  CloudBlockSource(TieredTableStorage* storage, ObjectStore* store,
                   std::string key, uint64_t number, uint64_t pcache_number,
                   PersistentCache* pcache, uint64_t metadata_offset,
                   uint64_t readahead_bytes,
                   std::shared_ptr<std::atomic<uint64_t>> heat,
                   uint64_t pin_check_every, Statistics* statistics)
      : storage_(storage),
        store_(store),
        key_(std::move(key)),
        number_(number),
        pcache_number_(pcache_number),
        pcache_(pcache),
        metadata_offset_(metadata_offset),
        readahead_bytes_(readahead_bytes),
        heat_(std::move(heat)),
        pin_check_every_(pin_check_every),
        statistics_(statistics),
        segments_cv_(&segments_mu_) {}

  ~CloudBlockSource() override {
    // Drain in-flight prefetch jobs: they capture `this` for CloudGet and
    // the stats sink, so the source must outlive them. Segments in flight
    // are never evicted, so the list still holds every one of them.
    MutexLock l(&segments_mu_);
    while (std::any_of(segments_.begin(), segments_.end(),
                       [](const auto& seg) { return !seg->done; })) {
      segments_cv_.Wait();
    }
  }

  Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                   BlockContents* result) override {
    NoteAccesses(1);
    Status s;
    if (ServeLocal(handle, kind, /*scan=*/true, result, &s)) return s;
    const size_t n = static_cast<size_t>(handle.size()) + kBlockTrailerSize;
    uint64_t want = n;
    if (kind == BlockKind::kData && readahead_bytes_ > n) {
      // Iterator (scan-intent) miss: table iterators and compaction inputs
      // read blocks in order, so fetch one window and keep it as a segment
      // that serves the following blocks, paying the per-request latency
      // once per window. Table point lookups never come here: they go
      // through ReadBlocks and fetch exactly the block. Do not read past
      // the data region.
      want = readahead_bytes_;
      if (handle.offset() < metadata_offset_ &&
          handle.offset() + want > metadata_offset_) {
        want = std::max<uint64_t>(n, metadata_offset_ - handle.offset());
      }
      // Nor download again a run of blocks the persistent cache holds at
      // the window's end (a scan that starts before an earlier one).
      if (pcache_ != nullptr) {
        const uint64_t cached = pcache_->CachedRunStart(
            pcache_number_, handle.offset() + want);
        want = std::max<uint64_t>(
            n, cached > handle.offset() ? cached - handle.offset() : 0);
      }
    }
    std::string buf;
    s = CloudGet(handle.offset(), want, &buf);
    if (!s.ok()) return s;
    if (buf.size() < n) {
      return Status::Corruption("short cloud read", key_);
    }
    s = AdmitFetched(handle, kind, Slice(buf.data(), n), result);
    if (buf.size() > n) InsertDone(handle.offset(), std::move(buf));
    return s;
  }

  // Batched entry point (MultiGet, and point Gets as one-key batches): serve
  // local hits inline, then coalesce the remaining misses into range GETs
  // (adjacent blocks within one readahead window share a request) issued
  // concurrently on the storage's shared fetch pool, at most `max_parallel`
  // in flight.
  void ReadBlocks(BlockFetchRequest* requests, size_t n,
                  const BlockBatchOptions& opts) override {
    NoteAccesses(n);
    std::vector<size_t> misses;
    for (size_t i = 0; i < n; i++) {
      BlockFetchRequest* r = &requests[i];
      if (!ServeLocal(r->handle, r->kind, /*scan=*/false, &r->contents,
                      &r->status)) {
        misses.push_back(i);
      }
    }
    if (misses.empty()) return;

    // Coalesce adjacent misses: one range GET per run of blocks that fits a
    // readahead window, so nearby keys in a batch pay the per-request cloud
    // latency once. A lone miss, or window 0 (readahead disabled), fetches
    // exactly its block.
    std::sort(misses.begin(), misses.end(), [&](size_t a, size_t b) {
      return requests[a].handle.offset() < requests[b].handle.offset();
    });
    struct FetchGroup {
      uint64_t offset = 0;
      uint64_t length = 0;
      std::vector<size_t> members;
    };
    std::vector<FetchGroup> groups;
    for (size_t idx : misses) {
      const BlockHandle& h = requests[idx].handle;
      const uint64_t end = h.offset() + h.size() + kBlockTrailerSize;
      if (!groups.empty() && end - groups.back().offset <= readahead_bytes_) {
        FetchGroup& g = groups.back();
        g.length = end - g.offset;
        g.members.push_back(idx);
      } else {
        FetchGroup g;
        g.offset = h.offset();
        g.length = end - h.offset();
        g.members.push_back(idx);
        groups.push_back(std::move(g));
      }
    }

    ThreadPool* pool = storage_->read_fetch_pool();
    int max_parallel = std::max(1, opts.max_parallel);

    auto fetch_group = [this, requests](const FetchGroup& g) {
      std::string buf;
      Status s = CloudGet(g.offset, g.length, &buf);
      if (s.ok() && buf.size() < g.length) {
        s = Status::Corruption("short cloud read", key_);
      }
      for (size_t idx : g.members) {
        BlockFetchRequest* r = &requests[idx];
        if (!s.ok()) {
          r->status = s;
          continue;
        }
        const size_t want =
            static_cast<size_t>(r->handle.size()) + kBlockTrailerSize;
        Slice raw(buf.data() + (r->handle.offset() - g.offset), want);
        r->status = AdmitFetched(r->handle, r->kind, raw, &r->contents);
      }
      // A multi-block group is a readahead window in all but name: keep it,
      // so later batches and iterators hit it instead of re-fetching the
      // blocks between the requested ones.
      if (s.ok() && g.members.size() > 1) InsertDone(g.offset, std::move(buf));
    };

    if (pool == nullptr || max_parallel == 1 || groups.size() == 1) {
      for (const FetchGroup& g : groups) fetch_group(g);
      return;
    }

    // Waves of at most max_parallel concurrent GETs; a local latch makes
    // each wave wait only for its own tasks on the shared pool.
    for (size_t start = 0; start < groups.size();
         start += static_cast<size_t>(max_parallel)) {
      const size_t end = std::min(groups.size(),
                                  start + static_cast<size_t>(max_parallel));
      // Lock order: leaf. Local join latch for one replay wave; worker
      // threads signal completion under it and take nothing else.
      Mutex wave_mu;
      CondVar wave_cv(&wave_mu);
      size_t pending = end - start;
      for (size_t gi = start; gi < end; gi++) {
        const FetchGroup* g = &groups[gi];
        const bool scheduled =
            pool->Schedule([&fetch_group, g, &wave_mu, &wave_cv, &pending,
                            this] {
              fetch_group(*g);
              RecordTick(statistics_, MULTIGET_CLOUD_PARALLEL_GETS);
              MutexLock l(&wave_mu);
              if (--pending == 0) wave_cv.NotifyAll();
            });
        if (!scheduled) {
          // Pool shutting down: degrade to inline.
          fetch_group(*g);
          MutexLock l(&wave_mu);
          if (--pending == 0) wave_cv.NotifyAll();
        }
      }
      MutexLock l(&wave_mu);
      while (pending > 0) wave_cv.Wait();
    }
  }

  Status ReadRaw(uint64_t offset, size_t n, std::string* out) override {
    if (pcache_ != nullptr && offset >= metadata_offset_ &&
        pcache_->ReadMetadata(pcache_number_, offset, n, out)) {
      RecordTick(statistics_, PERSISTENT_CACHE_METADATA_HIT);
      return Status::OK();
    }
    return CloudGet(offset, n, out);
  }

  // Scan readahead: fetch [first handle, last handle] as one async range GET
  // on the shared fetch pool. Must not block on the network — the point is
  // that the GET overlaps with the scan consuming the previous blocks.
  void Prefetch(const BlockHandle* handles, size_t n) override {
    // Trim handles already in the persistent cache (cheap index probes),
    // then handles wholly inside a segment, from both ends: a warm re-scan
    // issues nothing, a partially warm window fetches only the cold
    // contiguous span, and a window that ends mid-block overlaps the new
    // segment by that one block.
    size_t first = 0;
    size_t last = n;
    if (pcache_ != nullptr) {
      while (first < last &&
             pcache_->HasBlock(pcache_number_, handles[first].offset())) {
        first++;
      }
      while (first < last &&
             pcache_->HasBlock(pcache_number_, handles[last - 1].offset())) {
        last--;
      }
    }
    std::shared_ptr<Segment> seg;
    {
      MutexLock l(&segments_mu_);
      while (first < last && FindCoverLocked(handles[first]) != nullptr) {
        first++;
      }
      while (first < last && FindCoverLocked(handles[last - 1]) != nullptr) {
        last--;
      }
      if (first == last) return;
      const uint64_t begin = handles[first].offset();
      // Never prefetch into the metadata region (it is local anyway).
      const uint64_t end =
          std::min(handles[last - 1].offset() + handles[last - 1].size() +
                       kBlockTrailerSize,
                   metadata_offset_);
      if (begin >= end || !MakeRoomLocked()) return;
      seg = std::make_shared<Segment>();
      seg->offset = begin;
      seg->length = end - begin;
      seg->prefetched = true;
      segments_.push_back(seg);
    }
    // (offset, raw length incl. trailer) of each block in the segment, so
    // the fetch job can admit them to the persistent cache individually.
    std::vector<std::pair<uint64_t, size_t>> blocks;
    for (size_t i = first; i < last; i++) {
      const uint64_t off = handles[i].offset();
      const size_t len = handles[i].size() + kBlockTrailerSize;
      if (off + len <= seg->offset + seg->length) blocks.emplace_back(off, len);
    }
    RecordTick(statistics_, SCAN_READAHEAD_ISSUED);
    RecordTick(statistics_, SCAN_READAHEAD_BYTES, seg->length);
    ThreadPool* pool = storage_->read_fetch_pool();
    const bool scheduled =
        pool != nullptr && pool->Schedule([this, seg, blocks] {
          std::string buf;
          Status s = CloudGet(seg->offset, seg->length, &buf);
          if (!s.ok() || buf.size() < seg->length) {
            // A failed segment covers nothing: its readers fetch the block
            // themselves, which surfaces any real error.
            buf.clear();
          } else if (pcache_ != nullptr) {
            // Admit every prefetched block to the persistent cache now, not
            // just the ones the scan consumes: bytes fetched past the point
            // where a scan stops become local, so a later scan of the same
            // range trims them instead of re-fetching from the cloud.
            for (const auto& b : blocks) {
              pcache_->PutBlock(pcache_number_, b.first,
                                Slice(buf.data() + (b.first - seg->offset),
                                      b.second));
            }
          }
          MutexLock l(&segments_mu_);
          seg->buffer = std::move(buf);
          seg->done = true;
          segments_cv_.NotifyAll();
        });
    if (!scheduled) {
      // No pool (local-only config) or pool shutting down: resolve the
      // segment as failed so no reader blocks on it forever.
      MutexLock l(&segments_mu_);
      seg->done = true;
      segments_cv_.NotifyAll();
    }
  }

 private:
  // One buffered byte range of the file. Shared so a reader can wait on it
  // after the lock is dropped and after other threads may have erased it
  // from the list. Once `done`, a segment never changes, so its buffer may
  // be read without the lock.
  struct Segment {
    uint64_t offset = 0;
    uint64_t length = 0;
    // Filled by Prefetch (the scan pipeline), else by a ReadBlock window or
    // a ReadBlocks group; picks the hit ticker.
    bool prefetched = false;
    bool done = false;
    // Empty once done iff the fetch failed.
    std::string buffer;
  };

  // Heat tracking without the storage mutex: bump the shared counter and
  // run the (locking) promotion check once per pin_check_every_ accesses.
  void NoteAccesses(uint64_t n) {
    const uint64_t accesses =
        heat_->fetch_add(n, std::memory_order_relaxed) + n;
    if (pin_check_every_ != 0 && accesses / pin_check_every_ !=
                                     (accesses - n) / pin_check_every_) {
      storage_->MaybePromote(number_);
    }
  }

  // Serves one block without a cloud GET: metadata from the packed local
  // region; data from the persistent cache or a segment (waiting for the
  // in-flight GET that covers it, which overlaps with the scan consuming
  // earlier blocks). A scan-intent read (`scan`) also drops the done
  // segments wholly behind it: a forward scan consumed them, or they belong
  // to a position it abandoned. Returns false, leaving *s alone, when the
  // block needs a cloud fetch.
  bool ServeLocal(const BlockHandle& handle, BlockKind kind, bool scan,
                  BlockContents* result, Status* s) {
    const size_t n = static_cast<size_t>(handle.size()) + kBlockTrailerSize;
    std::string raw;
    if (kind != BlockKind::kData) {
      if (pcache_ == nullptr) return false;
      if (!pcache_->ReadMetadata(pcache_number_, handle.offset(), n, &raw) ||
          raw.size() != n) {
        RecordTick(statistics_, PERSISTENT_CACHE_METADATA_MISS);
        return false;
      }
      RecordTick(statistics_, PERSISTENT_CACHE_METADATA_HIT);
      *s = VerifyAndStripTrailer(Slice(raw), handle, result);
      return true;
    }
    if (pcache_ != nullptr) {
      const bool hit =
          pcache_->GetBlock(pcache_number_, handle.offset(), &raw) &&
          raw.size() == n;
      if (!scan) {
        RecordTick(statistics_, hit ? PERSISTENT_CACHE_POINT_HIT
                                    : PERSISTENT_CACHE_POINT_MISS);
      }
      if (hit) {
        *s = VerifyAndStripTrailer(Slice(raw), handle, result);
        return true;
      }
    }
    std::shared_ptr<Segment> cover;
    {
      MutexLock l(&segments_mu_);
      if (scan) {
        const uint64_t offset = handle.offset();
        auto behind = [offset](const std::shared_ptr<Segment>& seg) {
          return seg->done && seg->offset + seg->length <= offset;
        };
        segments_.erase(
            std::remove_if(segments_.begin(), segments_.end(), behind),
            segments_.end());
      }
      cover = FindCoverLocked(handle);
      if (cover == nullptr) return false;
      // Wait on the copied shared_ptr: other threads may mutate the list
      // while the lock is released inside Wait().
      while (!cover->done) segments_cv_.Wait();
    }
    if (cover->buffer.empty()) return false;
    if (cover->prefetched) {
      RecordTick(statistics_, SCAN_READAHEAD_HITS);
      PerfCount(&PerfContext::scan_prefetch_hit_count);
    } else {
      RecordTick(statistics_, CLOUD_READAHEAD_HIT);
      PerfCount(&PerfContext::readahead_hit_count);
    }
    *s = AdmitFetched(
        handle, kind,
        Slice(cover->buffer.data() + (handle.offset() - cover->offset), n),
        result);
    return true;
  }

  // A block whose bytes came from the cloud (by a GET just now, or through
  // a segment): data blocks are counted and admitted to the persistent
  // cache; every block is verified.
  Status AdmitFetched(const BlockHandle& handle, BlockKind kind,
                      const Slice& raw, BlockContents* result) {
    if (kind == BlockKind::kData) {
      RecordTick(statistics_, CLOUD_BLOCK_READS);
      if (pcache_ != nullptr) {
        pcache_->PutBlock(pcache_number_, handle.offset(), raw);
      }
    }
    return VerifyAndStripTrailer(raw, handle, result);
  }

  // All cloud range reads funnel through here for uniform accounting.
  Status CloudGet(uint64_t offset, uint64_t n, std::string* out) {
    StopWatch sw(statistics_, CLOUD_GET_LATENCY_US);
    trace::SpanTimer get_span(trace::kSpanCloudGet);
    get_span.set_detail(number_);
    PerfScope time_scope(&PerfContext::cloud_read_time);
    Status s = store_->GetRange(key_, offset, n, out);
    if (s.ok()) {
      get_span.set_bytes(out->size());
      RecordTick(statistics_, CLOUD_GET_COUNT);
      RecordTick(statistics_, CLOUD_GET_BYTES, out->size());
      PerfCount(&PerfContext::cloud_read_count);
      PerfCount(&PerfContext::cloud_read_bytes, out->size());
    }
    return s;
  }

  // The segment holding the block and its trailer, done or in flight; a
  // failed segment holds nothing.
  std::shared_ptr<Segment> FindCoverLocked(const BlockHandle& handle)
      EXCLUSIVE_LOCKS_REQUIRED(segments_mu_) {
    const uint64_t offset = handle.offset();
    const uint64_t n = handle.size() + kBlockTrailerSize;
    for (const auto& seg : segments_) {
      if (seg->offset <= offset && offset + n <= seg->offset + seg->length &&
          !(seg->done && seg->buffer.empty())) {
        return seg;
      }
    }
    return nullptr;
  }

  // At the cap, the oldest done segment goes; a segment in flight is never
  // evicted. False when every slot is in flight.
  bool MakeRoomLocked() EXCLUSIVE_LOCKS_REQUIRED(segments_mu_) {
    if (segments_.size() < kMaxSegments) return true;
    auto oldest_done = std::find_if(segments_.begin(), segments_.end(),
                                    [](const auto& seg) { return seg->done; });
    if (oldest_done == segments_.end()) return false;
    segments_.erase(oldest_done);
    return true;
  }

  // Keeps the bytes a GET just brought back as a done segment, unless every
  // slot holds a segment in flight.
  void InsertDone(uint64_t offset, std::string buffer) {
    auto seg = std::make_shared<Segment>();
    seg->offset = offset;
    seg->length = buffer.size();
    seg->done = true;
    seg->buffer = std::move(buffer);
    MutexLock l(&segments_mu_);
    if (MakeRoomLocked()) segments_.push_back(std::move(seg));
  }

  TieredTableStorage* storage_;
  ObjectStore* store_;
  std::string key_;
  uint64_t number_;
  // The namespaced persistent-cache id (TieredTableStorage::PcId): distinct
  // from number_ when shards share one cache.
  uint64_t pcache_number_;
  PersistentCache* pcache_;
  uint64_t metadata_offset_;
  uint64_t readahead_bytes_;
  std::shared_ptr<std::atomic<uint64_t>> heat_;
  uint64_t pin_check_every_;
  Statistics* statistics_;

  // Each segment holds at most max(readahead_bytes_, the scan's prefetch
  // budget), so this caps the bytes a source buffers.
  static constexpr size_t kMaxSegments = 4;
  // Lock order: leaf. Guards the segment list, oldest first; held only to
  // look up, insert or evict segments, never across a cloud GET, and
  // Schedule() is always called outside it.
  Mutex segments_mu_;
  CondVar segments_cv_;
  std::vector<std::shared_ptr<Segment>> segments_ GUARDED_BY(segments_mu_);
};

// Local file source that also feeds the heat tracker (pinned files count as
// cloud heat so pins refresh).
class LocalBlockSource final : public BlockSource {
 public:
  LocalBlockSource(std::unique_ptr<RandomAccessFile> file,
                   Statistics* statistics)
      : file_(std::move(file)), source_(file_.get()), statistics_(statistics) {}

  Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                   BlockContents* result) override {
    if (kind == BlockKind::kData) {
      RecordTick(statistics_, LOCAL_BLOCK_READS);
    }
    return source_.ReadBlock(handle, kind, result);
  }
  Status ReadRaw(uint64_t offset, size_t n, std::string* out) override {
    return source_.ReadRaw(offset, n, out);
  }

 private:
  std::unique_ptr<RandomAccessFile> file_;
  FileBlockSource source_;
  Statistics* statistics_;
};

}  // namespace

TieredTableStorage::TieredTableStorage(const TieredStorageOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      upload_cv_(&mu_) {
  if (options_.async_uploads && options_.cloud != nullptr) {
    if (options_.upload_pool != nullptr) {
      upload_pool_ = options_.upload_pool;
    } else {
      owned_upload_pool_ = std::make_unique<ThreadPool>(
          static_cast<size_t>(std::max(1, options_.upload_threads)), "upload");
      upload_pool_ = owned_upload_pool_.get();
    }
  }
  if (options_.cloud != nullptr) {
    if (options_.fetch_pool != nullptr) {
      fetch_pool_ = options_.fetch_pool;
    } else {
      owned_fetch_pool_ = std::make_unique<ThreadPool>(8, "cloud-fetch");
      fetch_pool_ = owned_fetch_pool_.get();
    }
  }
  // why unchecked: an unusable local dir fails the first staging-file
  // create with a better message; the constructor has no error channel.
  env_->CreateDirRecursively(options_.local_dir).PermitUncheckedError();
  // Rediscover local table files (restart path). Cloud files are
  // rediscovered lazily through OpenTable (a Head probe) or eagerly here.
  std::vector<std::string> children;
  if (env_->GetChildren(options_.local_dir, &children).ok()) {
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile) {
        uint64_t size = 0;
        if (env_->GetFileSize(LocalPath(number), &size).ok()) {
          FileState st;
          st.tier = Tier::kLocal;
          st.size = size;
          files_[number] = st;
        }
      }
    }
  }
  if (options_.cloud != nullptr) {
    std::vector<ObjectMeta> objects;
    if (options_.cloud->List(options_.cloud_prefix, &objects).ok()) {
      for (const auto& meta : objects) {
        // Key basename is "{number}.sst".
        size_t slash = meta.key.rfind('/');
        std::string base =
            slash == std::string::npos ? meta.key : meta.key.substr(slash + 1);
        uint64_t number;
        FileType type;
        if (ParseFileName(base, &number, &type) &&
            type == FileType::kTableFile && files_.count(number) == 0) {
          FileState st;
          st.tier = Tier::kCloud;
          st.size = meta.size;
          if (options_.persistent_cache != nullptr) {
            uint64_t mo, fs;
            if (options_.persistent_cache->GetMetadataInfo(PcId(number), &mo,
                                                           &fs)) {
              st.metadata_offset = mo;
            }
          }
          files_[number] = st;
        }
      }
    }
  }
}

TieredTableStorage::~TieredTableStorage() {
  // In-flight upload jobs observe stopping_ between retry attempts and park
  // quickly, leaving their file kUploading on its durable local staging copy
  // (re-uploaded after restart via the usual level-change path). Shutdown
  // also drains queued-but-unstarted jobs.
  stopping_.store(true, std::memory_order_release);
  if (owned_fetch_pool_ != nullptr) {
    owned_fetch_pool_->Shutdown();
  }
  if (owned_upload_pool_ != nullptr) {
    owned_upload_pool_->Shutdown();
  } else if (upload_pool_ != nullptr) {
    // External (shared) pool: it stays up for the other shards, so drain
    // this storage's jobs instead — they capture `this` and must not
    // outlive it. stopping_ makes any retry loop park promptly.
    WaitForPendingUploads();
  }
}

std::string TieredTableStorage::LocalPath(uint64_t number) const {
  return TableFileName(options_.local_dir, number);
}

std::string TieredTableStorage::CloudKey(uint64_t number) const {
  return CloudTableKey(options_.cloud_prefix, number);
}

Status TieredTableStorage::NewStagingFile(uint64_t number,
                                          std::unique_ptr<WritableFile>* file) {
  return env_->NewWritableFile(LocalPath(number), file);
}

Status TieredTableStorage::Install(uint64_t number, int level,
                                   uint64_t file_size,
                                   uint64_t metadata_offset) {
  MutexLock l(&mu_);
  FileState st;
  st.level = level;
  st.size = file_size;
  st.metadata_offset = metadata_offset;

  if (options_.cloud == nullptr || level < options_.cloud_level_start) {
    st.tier = Tier::kLocal;
    files_[number] = st;
    return Status::OK();
  }

  if (upload_pool_ != nullptr) {
    // Async pipeline: the staging copy keeps serving reads while the PUT
    // runs on the upload pool; compaction/flush never wait on the cloud.
    auto it = files_.insert_or_assign(number, st).first;
    EnqueueUploadLocked(number, &it->second);
    return Status::OK();
  }

  Status s = UploadLocked(number, &st);
  if (!s.ok()) return s;
  files_[number] = st;
  return Status::OK();
}

void TieredTableStorage::EnqueueUploadLocked(uint64_t number,
                                             FileState* state) {
  state->tier = Tier::kUploading;
  const uint64_t epoch = ++state->upload_epoch;
  inflight_uploads_++;
  if (!upload_pool_->Schedule(
          [this, number, epoch] { UploadJob(number, epoch); })) {
    // Pool is already shutting down: park on the durable local copy.
    inflight_uploads_--;
    RecordTick(options_.statistics, CLOUD_UPLOADS_PARKED);
    upload_cv_.NotifyAll();
  }
}

void TieredTableStorage::FinishUploadJobLocked() {
  assert(inflight_uploads_ > 0);
  inflight_uploads_--;
  upload_cv_.NotifyAll();
}

void TieredTableStorage::UploadJob(uint64_t number, uint64_t epoch) {
  StopWatch job_sw(options_.statistics, CLOUD_UPLOAD_JOB_LATENCY_US);
  trace::SpanTimer job_span(trace::kSpanUploadJob);
  job_span.set_detail(number);
  uint32_t attempt_failures = 0;
  uint64_t metadata_offset = 0;
  {
    MutexLock l(&mu_);
    auto it = files_.find(number);
    if (it == files_.end() || it->second.upload_epoch != epoch ||
        it->second.tier != Tier::kUploading) {
      // Cancelled before any cloud write happened; nothing to clean up.
      RecordTick(options_.statistics, CLOUD_UPLOADS_CANCELLED);
      FinishUploadJobLocked();
      return;
    }
    metadata_offset = it->second.metadata_offset;
  }

  // The staging file was synced and closed before Install, and kUploading
  // files are never rewritten, so it is safe to read without mu_.
  std::string contents;
  Status s = ReadFileToString(env_, LocalPath(number), &contents);
  if (s.ok()) {
    Clock* clock = options_.retry_clock != nullptr ? options_.retry_clock
                                                   : SystemClock::Default();
    uint64_t backoff = options_.cloud_retry_backoff_micros;
    const int attempts = std::max(1, options_.cloud_retry_attempts);
    for (int attempt = 0;; attempt++) {
      if (stopping_.load(std::memory_order_acquire)) {
        s = Status::ShutdownInProgress("upload abandoned at shutdown");
        break;
      }
      {
        StopWatch put_sw(options_.statistics, CLOUD_PUT_LATENCY_US);
        trace::SpanTimer put_span(trace::kSpanCloudPut);
        put_span.set_bytes(contents.size());
        put_span.set_detail(number);
        RecordTick(options_.statistics, CLOUD_PUT_COUNT);
        s = options_.cloud->Put(CloudKey(number), contents);
      }
      if (s.ok()) {
        RecordTick(options_.statistics, CLOUD_PUT_BYTES, contents.size());
        break;
      }
      attempt_failures++;
      if (attempt + 1 >= attempts) break;
      retried_uploads_.fetch_add(1, std::memory_order_relaxed);
      RecordTick(options_.statistics, CLOUD_UPLOAD_RETRIES);
      clock->SleepMicros(backoff);
      backoff *= 2;
    }
  }

  if (!s.ok()) {
    // Park: the file stays kUploading and keeps serving reads from its
    // durable local copy, so nothing is lost. (After a restart it is
    // rediscovered as a local file and re-uploaded on a later level change.)
    failed_uploads_.fetch_add(1, std::memory_order_relaxed);
    RecordTick(options_.statistics, CLOUD_UPLOADS_PARKED);
    if (!options_.listeners.empty()) {
      UploadJobInfo info;
      info.file_number = number;
      info.bytes = contents.size();
      info.micros = job_sw.ElapsedMicros();
      info.retries = attempt_failures;
      for (EventListener* listener : options_.listeners) {
        listener->OnUploadFailed(info);
        listener->OnUploadParked(info);
      }
    }
    // Finish only after the callbacks ran: WaitForPendingUploads returning
    // guarantees every listener for a terminal upload has been invoked.
    MutexLock l(&mu_);
    FinishUploadJobLocked();
    return;
  }

  if (options_.persistent_cache != nullptr &&
      metadata_offset < contents.size()) {
    Slice tail(contents.data() + metadata_offset,
               contents.size() - metadata_offset);
    // Failure here only costs future cloud metadata reads.
    options_.persistent_cache
        ->AdmitMetadata(PcId(number), metadata_offset, contents.size(), tail)
        .ok();
  }

  bool remove_local = false;
  bool orphaned = false;
  bool completed = false;
  {
    MutexLock l(&mu_);
    auto it = files_.find(number);
    if (it == files_.end() ||
        (it->second.upload_epoch != epoch &&
         it->second.tier == Tier::kLocal)) {
      // The table was removed (or migrated back to a local level) while the
      // PUT was in flight: the object just written is an orphan.
      orphaned = true;
    } else if (it->second.upload_epoch == epoch &&
               it->second.tier == Tier::kUploading) {
      it->second.tier = Tier::kCloud;
      stats_.uploads++;
      remove_local = true;
      completed = true;
    }
    // Any other combination belongs to a newer upload job for the same
    // number; leave the object for that job to resolve.
  }
  RecordTick(options_.statistics,
             completed ? CLOUD_UPLOADS_COMPLETED : CLOUD_UPLOADS_CANCELLED);
  if (orphaned) {
    if (!options_.cloud->Delete(CloudKey(number)).ok()) {
      // The orphaned object stays in the bucket, silently costing storage;
      // make that observable instead of invisible.
      RecordTick(options_.statistics, CLOUD_DELETE_FAILED);
    }
    if (options_.persistent_cache != nullptr) {
      options_.persistent_cache->Invalidate(PcId(number));
    }
  }
  if (remove_local) {
    // New readers already see kCloud; readers that saw kUploading opened
    // their file handle under mu_ in OpenTable, so the unlink is safe.
    // why unchecked: the local copy is already superseded by the cloud
    // object; a leaked local file is reclaimed by the next restart scan.
    env_->RemoveFile(LocalPath(number)).PermitUncheckedError();
  }
  if (completed && !options_.listeners.empty()) {
    UploadJobInfo info;
    info.file_number = number;
    info.bytes = contents.size();
    info.micros = job_sw.ElapsedMicros();
    info.retries = attempt_failures;
    for (EventListener* listener : options_.listeners) {
      listener->OnUploadCompleted(info);
    }
  }
  // Finish only after cleanup and callbacks: WaitForPendingUploads returning
  // guarantees every listener for a terminal upload has been invoked.
  MutexLock l(&mu_);
  FinishUploadJobLocked();
}

void TieredTableStorage::WaitForPendingUploads() {
  MutexLock l(&mu_);
  while (inflight_uploads_ > 0) {
    upload_cv_.Wait();
  }
}

Status TieredTableStorage::UploadLocked(uint64_t number, FileState* state) {
  // Read the staged file, upload it, persist the metadata tail into the
  // packed metadata region, and drop the local copy.
  std::string contents;
  Status s = ReadFileToString(env_, LocalPath(number), &contents);
  if (!s.ok()) return s;

  // Transient cloud failures are retried with exponential backoff; the
  // staging file stays put, so even a surfaced failure is retryable.
  Clock* clock = options_.retry_clock != nullptr ? options_.retry_clock
                                                 : SystemClock::Default();
  uint64_t backoff = options_.cloud_retry_backoff_micros;
  for (int attempt = 0;; attempt++) {
    {
      StopWatch put_sw(options_.statistics, CLOUD_PUT_LATENCY_US);
      trace::SpanTimer put_span(trace::kSpanCloudPut);
      put_span.set_bytes(contents.size());
      put_span.set_detail(number);
      RecordTick(options_.statistics, CLOUD_PUT_COUNT);
      s = options_.cloud->Put(CloudKey(number), contents);
    }
    if (s.ok()) {
      RecordTick(options_.statistics, CLOUD_PUT_BYTES, contents.size());
      break;
    }
    if (attempt + 1 >= std::max(1, options_.cloud_retry_attempts)) {
      return s;
    }
    retried_uploads_.fetch_add(1, std::memory_order_relaxed);
    RecordTick(options_.statistics, CLOUD_UPLOAD_RETRIES);
    clock->SleepMicros(backoff);
    backoff *= 2;
  }
  stats_.uploads++;
  RecordTick(options_.statistics, CLOUD_UPLOADS_COMPLETED);

  if (options_.persistent_cache != nullptr &&
      state->metadata_offset < contents.size()) {
    Slice tail(contents.data() + state->metadata_offset,
               contents.size() - state->metadata_offset);
    // why unchecked: failure here only costs future cloud metadata reads.
    options_.persistent_cache
        ->AdmitMetadata(PcId(number), state->metadata_offset, contents.size(), tail)
        .PermitUncheckedError();
  }

  // why unchecked: the upload already landed; a leaked local file is
  // reclaimed by the next restart scan.
  env_->RemoveFile(LocalPath(number)).PermitUncheckedError();
  state->tier = Tier::kCloud;
  return Status::OK();
}

Status TieredTableStorage::DownloadLocked(uint64_t number, FileState* state) {
  std::string contents;
  Status s;
  {
    StopWatch sw(options_.statistics, CLOUD_GET_LATENCY_US);
    trace::SpanTimer get_span(trace::kSpanCloudGet);
    get_span.set_detail(number);
    s = options_.cloud->Get(CloudKey(number), &contents);
    if (s.ok()) get_span.set_bytes(contents.size());
  }
  if (!s.ok()) return s;
  stats_.downloads++;
  RecordTick(options_.statistics, CLOUD_DOWNLOADS);
  RecordTick(options_.statistics, CLOUD_GET_COUNT);
  RecordTick(options_.statistics, CLOUD_GET_BYTES, contents.size());
  s = WriteStringToFile(env_, contents, LocalPath(number), /*sync=*/true);
  if (!s.ok()) return s;
  state->size = contents.size();
  return Status::OK();
}

Status TieredTableStorage::OnLevelChange(uint64_t number, int to_level) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) {
    return Status::OK();  // Unknown (e.g., pre-restart file); leave as-is.
  }
  FileState& st = it->second;
  st.level = to_level;
  if (options_.cloud == nullptr) return Status::OK();

  const bool should_be_cloud = to_level >= options_.cloud_level_start;
  if (should_be_cloud) {
    if (st.tier == Tier::kLocal) {
      if (upload_pool_ != nullptr) {
        EnqueueUploadLocked(number, &st);
        return Status::OK();
      }
      return UploadLocked(number, &st);
    }
    return Status::OK();  // kUploading/kCloud/kPinned already satisfy it.
  }
  if (st.tier == Tier::kUploading) {
    // Cancel the in-flight upload: bump the epoch so its completion is
    // discarded (and the object deleted if the PUT already landed). The
    // local staging copy is still in place.
    st.upload_epoch++;
    st.tier = Tier::kLocal;
    return Status::OK();
  }
  if (st.tier == Tier::kCloud) {
    Status s = DownloadLocked(number, &st);
    if (!s.ok()) return s;
    st.tier = Tier::kLocal;
    if (!options_.cloud->Delete(CloudKey(number)).ok()) {
      // Demotion already succeeded locally; the stale object only costs
      // bucket storage until a future cleanup. Count it.
      RecordTick(options_.statistics, CLOUD_DELETE_FAILED);
    }
    if (options_.persistent_cache != nullptr) {
      options_.persistent_cache->Invalidate(PcId(number));
    }
  }
  return Status::OK();
}

Status TieredTableStorage::OpenTable(uint64_t number,
                                     std::unique_ptr<BlockSource>* source,
                                     uint64_t* file_size) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) {
    // Unknown file: probe local then cloud (restart path).
    FileState st;
    uint64_t size = 0;
    if (env_->GetFileSize(LocalPath(number), &size).ok()) {
      st.tier = Tier::kLocal;
      st.size = size;
    } else if (options_.cloud != nullptr) {
      ObjectMeta meta;
      Status s = options_.cloud->Head(CloudKey(number), &meta);
      if (!s.ok()) return s;
      st.tier = Tier::kCloud;
      st.size = meta.size;
    } else {
      return Status::NotFound("table file", std::to_string(number));
    }
    it = files_.emplace(number, st).first;
  }

  FileState& st = it->second;
  *file_size = st.size;

  if (st.tier != Tier::kCloud) {
    // kLocal, kPinned, and kUploading all serve from the local copy; a file
    // whose upload is in flight never blocks (or redirects) a reader.
    const std::string path = LocalPath(number);
    std::unique_ptr<RandomAccessFile> file;
    Status s = env_->NewRandomAccessFile(path, &file);
    if (!s.ok()) return s;
    *source =
        std::make_unique<LocalBlockSource>(std::move(file), options_.statistics);
    return Status::OK();
  }

  const uint64_t pin_check_every =
      options_.pin_hot_files && options_.pin_after_accesses > 0
          ? options_.pin_after_accesses
          : 0;
  *source = std::make_unique<CloudBlockSource>(
      this, options_.cloud, CloudKey(number), number, PcId(number),
      options_.persistent_cache, st.metadata_offset,
      options_.cloud_readahead_bytes, st.heat, pin_check_every,
      options_.statistics);
  return Status::OK();
}

Status TieredTableStorage::Remove(uint64_t number) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  Tier tier = Tier::kLocal;
  if (it != files_.end()) {
    tier = it->second.tier;
    if (tier == Tier::kPinned) {
      pinned_bytes_ -= it->second.size;
    }
    files_.erase(it);
  }

  // Remove every copy; tolerate absence (idempotent). A kUploading file's
  // in-flight job finds its map entry gone and deletes any object its PUT
  // produced after this point.
  Status local = env_->RemoveFile(LocalPath(number));
  Status cloud;
  if (options_.cloud != nullptr && tier != Tier::kLocal) {
    cloud = options_.cloud->Delete(CloudKey(number));
  }
  if (options_.persistent_cache != nullptr) {
    // Compaction-aware invalidation: the whole extent + slab, O(1).
    options_.persistent_cache->Invalidate(PcId(number));
  }
  if (tier == Tier::kLocal || tier == Tier::kUploading) {
    // why unchecked: the authoritative copy is local; the cloud delete is a
    // best-effort cleanup of an object the (possibly parked) upload may never
    // have created, so NotFound here is the norm.
    cloud.PermitUncheckedError();
    return local;
  }
  // why unchecked: a cloud-tier table usually has no local copy left, so the
  // staging-file removal is best-effort and NotFound here is the norm.
  local.PermitUncheckedError();
  return cloud;
}

Status TieredTableStorage::ListTables(std::vector<uint64_t>* numbers) {
  numbers->clear();
  MutexLock l(&mu_);
  for (const auto& [number, st] : files_) {
    (void)st;
    numbers->push_back(number);
  }
  return Status::OK();
}

bool TieredTableStorage::IsLocal(uint64_t number) const {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  return it == files_.end() || it->second.tier != Tier::kCloud;
}

void TieredTableStorage::RecordAccess(uint64_t number) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) return;
  it->second.heat->fetch_add(1, std::memory_order_relaxed);
  if (options_.pin_hot_files) {
    MaybePinLocked(number, &it->second);
  }
}

void TieredTableStorage::MaybePromote(uint64_t number) {
  if (!options_.pin_hot_files) return;
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) return;
  MaybePinLocked(number, &it->second);
}

void TieredTableStorage::MaybePinLocked(uint64_t number, FileState* st) {
  if (st->tier != Tier::kCloud) return;
  if (st->heat->load(std::memory_order_relaxed) < options_.pin_after_accesses)
    return;
  if (pinned_bytes_ + st->size > options_.pin_budget_bytes) return;
  if (DownloadLocked(number, st).ok()) {
    st->tier = Tier::kPinned;
    pinned_bytes_ += st->size;
    RecordTick(options_.statistics, HOT_FILE_PINS);
    // Note: already-open readers keep using the cloud source until the
    // table cache recycles them; new opens go local.
  }
}

TableStorageStats TieredTableStorage::GetStats() const {
  MutexLock l(&mu_);
  TableStorageStats s = stats_;
  for (const auto& [number, st] : files_) {
    (void)number;
    switch (st.tier) {
      case Tier::kLocal:
        s.local_bytes += st.size;
        s.local_files++;
        break;
      case Tier::kUploading:
        s.local_bytes += st.size;
        s.local_files++;
        s.pending_uploads++;
        break;
      case Tier::kCloud:
        s.cloud_bytes += st.size;
        s.cloud_files++;
        break;
      case Tier::kPinned:
        s.local_bytes += st.size;
        s.cloud_bytes += st.size;
        s.local_files++;
        s.cloud_files++;
        break;
    }
  }
  return s;
}

}  // namespace rocksmash
