#include "lsm/version_set.h"

#include <algorithm>
#include <cstdio>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "table/merger.h"
#include "util/coding.h"
#include "util/logger.h"

namespace rocksmash {

static size_t TargetFileSize(const DBOptions* options) {
  return options->max_file_size;
}

// Maximum bytes of overlaps in grandparent (i.e., level+2) before we stop
// building a single output file in a level->level+1 compaction.
static int64_t MaxGrandParentOverlapBytesFor(const DBOptions* options) {
  return 10 * static_cast<int64_t>(TargetFileSize(options));
}

// Maximum number of bytes in all compacted files for one compaction's level
// inputs (avoids too-large compactions).
static int64_t ExpandedCompactionByteSizeLimit(const DBOptions* options) {
  return 25 * static_cast<int64_t>(TargetFileSize(options));
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  // Result for both level-0 and level-1 (L0 is special-cased by file count).
  double result = static_cast<double>(options_->max_bytes_for_level_base);
  while (level > 1) {
    result *= 10;
    level--;
  }
  return static_cast<uint64_t>(result);
}

static uint64_t MaxFileSizeForLevel(const DBOptions* options, int /*level*/) {
  return TargetFileSize(options);
}

static int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (auto* file : files) {
    sum += file->file_size;
  }
  return sum;
}

Version::~Version() {
  assert(refs_ == 0);

  // Remove from linked list.
  prev_->next_ = next_;
  next_->prev_ = prev_;

  // Drop references to files.
  for (auto& level_files : files_) {
    for (FileMetaData* f : level_files) {
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        delete f;
      }
    }
  }
}

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target". Therefore all files at or
      // before "mid" are uninteresting.
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  return static_cast<int>(right);
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  // nullptr user_key occurs before all keys and is therefore never after *f.
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files.
    for (const FileMetaData* f : files) {
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap.
      } else {
        return true;
      }
    }
    return false;
  }

  // Binary search over file list.
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    // Find the earliest possible internal key for smallest_user_key.
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    // Beyond the end of all files.
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

// An internal iterator. For a given version/level pair, yields information
// about the files in the level. Keys are the largest key in each file;
// values are 16-byte (number, size) records.
class Version::LevelFileNumIterator final : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist)
      : icmp_(icmp), flist_(flist), index_(flist->size()) {}  // Invalid

  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = FindFile(icmp_, *flist_, target);
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : static_cast<uint32_t>(flist_->size()) - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = static_cast<uint32_t>(flist_->size());  // Marks as invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    EncodeFixed64(value_buf_, (*flist_)[index_]->number);
    EncodeFixed64(value_buf_ + 8, (*flist_)[index_]->file_size);
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  const InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  uint32_t index_;

  // Backing store for value(). Holds the file number and size.
  mutable char value_buf_[16];
};

// Two-level iterator glue: for each file named by the level iterator, open
// it via the table cache.
namespace {
class LevelTableIterator final : public Iterator {
 public:
  LevelTableIterator(TableCache* cache, const ReadOptions& options,
                     std::unique_ptr<Iterator> index_iter)
      : cache_(cache), options_(options), index_iter_(std::move(index_iter)) {}

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataIterator();
    if (data_iter_ != nullptr) {
      data_iter_->Seek(target);
      if (options_.prefix_same_as_start && !data_iter_->Valid() &&
          data_iter_->status().ok()) {
        // The file covering target has no key with the seek prefix (its
        // filter ruled the prefix out). Files later in a sorted level hold
        // only larger keys, so by prefix contiguity none of them can hold
        // the prefix either: end the level without opening them.
        SetDataIterator(nullptr);
        return;
      }
    }
    SkipEmptyForward();
  }
  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataIterator();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyForward();
  }
  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataIterator();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyBackward();
  }
  void Next() override {
    data_iter_->Next();
    SkipEmptyForward();
  }
  void Prev() override {
    data_iter_->Prev();
    SkipEmptyBackward();
  }
  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }
  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }
  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  void SkipEmptyForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (data_iter_ != nullptr && !data_iter_->status().ok()) {
        // The table failed mid-scan (e.g. cloud outage): stop and surface
        // the error instead of silently skipping the rest of the file.
        SetDataIterator(nullptr);
        return;
      }
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataIterator();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (data_iter_ != nullptr && !data_iter_->status().ok()) {
        SetDataIterator(nullptr);
        return;
      }
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataIterator();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void SetDataIterator(std::unique_ptr<Iterator> it) {
    if (data_iter_ != nullptr && status_.ok()) {
      // Latch the first child error so it survives the file switch.
      status_ = data_iter_->status();
    }
    data_iter_ = std::move(it);
  }

  void InitDataIterator() {
    if (!index_iter_->Valid()) {
      SetDataIterator(nullptr);
      return;
    }
    Slice file_value = index_iter_->value();
    if (data_iter_ != nullptr && file_value == current_file_value_) {
      return;
    }
    assert(file_value.size() == 16);
    current_file_value_ = file_value.ToString();
    uint64_t number = DecodeFixed64(file_value.data());
    uint64_t size = DecodeFixed64(file_value.data() + 8);
    SetDataIterator(cache_->NewIterator(options_, number, size));
  }

  TableCache* cache_;
  ReadOptions options_;
  std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Iterator> data_iter_;
  std::string current_file_value_;
  Status status_;
};
}  // namespace

std::unique_ptr<Iterator> Version::NewConcatenatingIterator(
    const ReadOptions& options, int level) const {
  return std::make_unique<LevelTableIterator>(
      vset_->table_cache_, options,
      std::make_unique<LevelFileNumIterator>(vset_->icmp_, &files_[level]));
}

void Version::AddIterators(const ReadOptions& options,
                           std::vector<std::unique_ptr<Iterator>>* iters) {
  // Merge all level zero files together since they may overlap.
  for (FileMetaData* f : files_[0]) {
    iters->push_back(
        vset_->table_cache_->NewIterator(options, f->number, f->file_size));
  }

  // For levels > 0, use a concatenating iterator that sequentially walks
  // through the non-overlapping files in the level, opening them lazily.
  for (int level = 1; level < config::kNumLevels; level++) {
    if (!files_[level].empty()) {
      iters->push_back(NewConcatenatingIterator(options, level));
    }
  }
}

namespace {

enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};
struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  PinnableSlice* value;
  SequenceNumber seq = 0;  // Sequence of the matched entry
  // The matched entry was kTypeBlobIndex: *value holds the encoded
  // BlobIndex, not the user value.
  bool is_blob_index = false;
};

void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  auto* s = reinterpret_cast<Saver*>(arg);
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
  } else {
    if (s->ucmp->Compare(parsed_key.user_key, s->user_key) == 0) {
      s->state = (parsed_key.type == kTypeDeletion) ? kDeleted : kFound;
      s->seq = parsed_key.sequence;
      if (s->state == kFound) {
        s->is_blob_index = (parsed_key.type == kTypeBlobIndex);
        // The callback's `v` only lives for this call: copy. Inline values
        // were copied here before separation existed; blob indexes are a
        // few bytes.
        s->value->PinSelf(v);
      }
    }
  }
}

bool NewestFirst(FileMetaData* a, FileMetaData* b) {
  return a->number > b->number;
}

}  // namespace

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    PinnableSlice* value, bool* is_blob_index) {
  *is_blob_index = false;
  const Slice ikey = k.internal_key();
  const Slice user_key = k.user_key();
  const Comparator* ucmp = vset_->icmp_.user_comparator();

  std::vector<FileMetaData*> tmp;
  tmp.reserve(8);

  for (int level = 0; level < config::kNumLevels; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) continue;

    // Get the list of files to search in this level.
    FileMetaData* const* candidates = nullptr;
    size_t num_candidates = 0;

    if (level == 0) {
      // Level-0 files may overlap each other. Find all files that overlap
      // user_key and process them in order from newest to oldest.
      tmp.clear();
      for (FileMetaData* f : files) {
        if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
            ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
          tmp.push_back(f);
        }
      }
      if (tmp.empty()) continue;
      std::sort(tmp.begin(), tmp.end(), NewestFirst);
      candidates = tmp.data();
      num_candidates = tmp.size();
    } else {
      // Binary search to find earliest index whose largest key >= ikey.
      uint32_t index = FindFile(vset_->icmp_, files, ikey);
      if (index >= files.size()) continue;
      FileMetaData* f = files[index];
      if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) {
        // All of "f" is past any data for user_key.
        continue;
      }
      candidates = &files[index];
      num_candidates = 1;
    }

    if (level == 0 && num_candidates > 1) {
      // Level-0 files may hold interleaved sequence ranges (recovery writes
      // one file per WAL shard), so file numbering does not imply
      // freshness. Check every overlapping file and keep the match with the
      // highest sequence.
      SaverState best_state = kNotFound;
      SequenceNumber best_seq = 0;
      bool best_is_blob = false;
      PinnableSlice best_value;
      PinnableSlice scratch;
      for (size_t i = 0; i < num_candidates; i++) {
        FileMetaData* f = candidates[i];
        Saver saver;
        saver.state = kNotFound;
        saver.ucmp = ucmp;
        saver.user_key = user_key;
        saver.value = &scratch;
        Status s = vset_->table_cache_->Get(options, f->number, f->file_size,
                                            ikey, &saver, SaveValue);
        if (!s.ok()) {
          return s;
        }
        if (saver.state == kCorrupt) {
          return Status::Corruption("corrupted key for ", user_key);
        }
        if ((saver.state == kFound || saver.state == kDeleted) &&
            (best_state == kNotFound || saver.seq > best_seq)) {
          best_state = saver.state;
          best_seq = saver.seq;
          best_is_blob = saver.is_blob_index;
          if (saver.state == kFound) {
            best_value = std::move(scratch);
          }
        }
      }
      if (best_state == kFound) {
        *value = std::move(best_value);
        *is_blob_index = best_is_blob;
        return Status::OK();
      }
      if (best_state == kDeleted) {
        return Status::NotFound(Slice());
      }
      continue;  // Not in level 0; fall through to deeper levels.
    }

    for (size_t i = 0; i < num_candidates; i++) {
      FileMetaData* f = candidates[i];
      Saver saver;
      saver.state = kNotFound;
      saver.ucmp = ucmp;
      saver.user_key = user_key;
      saver.value = value;
      Status s = vset_->table_cache_->Get(options, f->number, f->file_size,
                                          ikey, &saver, SaveValue);
      if (!s.ok()) {
        return s;
      }
      switch (saver.state) {
        case kNotFound:
          break;  // Keep searching in other files
        case kFound:
          *is_blob_index = saver.is_blob_index;
          return Status::OK();
        case kDeleted:
          return Status::NotFound(Slice());
        case kCorrupt:
          return Status::Corruption("corrupted key for ", user_key);
      }
    }
  }

  return Status::NotFound(Slice());
}

void Version::MultiGet(const ReadOptions& options, GetRequest* reqs,
                       size_t n) {
  const Comparator* ucmp = vset_->icmp_.user_comparator();

  size_t remaining = 0;
  for (size_t i = 0; i < n; i++) {
    if (!reqs[i].done) remaining++;
  }

  for (int level = 0; level < config::kNumLevels && remaining > 0; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) continue;

    if (level == 0) {
      // Level-0 files overlap; a key must consult every overlapping file and
      // keep the match with the highest sequence (see Get). Group the
      // (key, file) probes by file so each table is visited once, then
      // aggregate per key.
      struct L0Agg {
        SaverState state = kNotFound;
        SequenceNumber seq = 0;
        PinnableSlice value;
        bool is_blob_index = false;
        Status error;
        bool probed = false;
      };
      std::vector<L0Agg> agg(n);
      for (FileMetaData* f : files) {
        std::vector<size_t> members;
        for (size_t i = 0; i < n; i++) {
          if (reqs[i].done) continue;
          const Slice user_key = reqs[i].key->user_key();
          if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
              ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
            members.push_back(i);
          }
        }
        if (members.empty()) continue;
        std::vector<Saver> savers(members.size());
        std::vector<PinnableSlice> scratch(members.size());
        std::vector<TableGetRequest> treqs(members.size());
        for (size_t j = 0; j < members.size(); j++) {
          const GetRequest& req = reqs[members[j]];
          savers[j].state = kNotFound;
          savers[j].ucmp = ucmp;
          savers[j].user_key = req.key->user_key();
          savers[j].value = &scratch[j];
          treqs[j].key = req.key->internal_key();
          treqs[j].arg = &savers[j];
          treqs[j].handle_result = SaveValue;
        }
        vset_->table_cache_->MultiGet(options, f->number, f->file_size,
                                      treqs.data(), treqs.size());
        for (size_t j = 0; j < members.size(); j++) {
          L0Agg& a = agg[members[j]];
          a.probed = true;
          if (!treqs[j].status.ok()) {
            a.error = treqs[j].status;
            continue;
          }
          if (savers[j].state == kCorrupt) {
            a.error = Status::Corruption("corrupted key for ",
                                         reqs[members[j]].key->user_key());
            continue;
          }
          if ((savers[j].state == kFound || savers[j].state == kDeleted) &&
              (a.state == kNotFound || savers[j].seq > a.seq)) {
            a.state = savers[j].state;
            a.seq = savers[j].seq;
            a.is_blob_index = savers[j].is_blob_index;
            if (a.state == kFound) a.value = std::move(scratch[j]);
          }
        }
      }
      for (size_t i = 0; i < n; i++) {
        if (reqs[i].done || !agg[i].probed) continue;
        L0Agg& a = agg[i];
        if (!a.error.ok()) {
          reqs[i].status = a.error;
        } else if (a.state == kFound) {
          *reqs[i].value = std::move(a.value);
          reqs[i].is_blob_index = a.is_blob_index;
          reqs[i].status = Status::OK();
        } else if (a.state == kDeleted) {
          reqs[i].status = Status::NotFound(Slice());
        } else {
          continue;  // Not in level 0: fall through to deeper levels.
        }
        reqs[i].done = true;
        remaining--;
      }
      continue;
    }

    // Levels >= 1 are sorted and non-overlapping: at most one candidate file
    // per key. Group pending keys by that file.
    std::map<uint32_t, std::vector<size_t>> by_file;
    for (size_t i = 0; i < n; i++) {
      if (reqs[i].done) continue;
      const uint32_t index =
          FindFile(vset_->icmp_, files, reqs[i].key->internal_key());
      if (index >= files.size()) continue;
      FileMetaData* f = files[index];
      if (ucmp->Compare(reqs[i].key->user_key(), f->smallest.user_key()) < 0) {
        continue;  // All of "f" is past any data for this key.
      }
      by_file[index].push_back(i);
    }
    for (const auto& [index, members] : by_file) {
      FileMetaData* f = files[index];
      std::vector<Saver> savers(members.size());
      std::vector<TableGetRequest> treqs(members.size());
      for (size_t j = 0; j < members.size(); j++) {
        const GetRequest& req = reqs[members[j]];
        savers[j].state = kNotFound;
        savers[j].ucmp = ucmp;
        savers[j].user_key = req.key->user_key();
        savers[j].value = req.value;
        treqs[j].key = req.key->internal_key();
        treqs[j].arg = &savers[j];
        treqs[j].handle_result = SaveValue;
      }
      vset_->table_cache_->MultiGet(options, f->number, f->file_size,
                                    treqs.data(), treqs.size());
      for (size_t j = 0; j < members.size(); j++) {
        GetRequest* req = &reqs[members[j]];
        if (!treqs[j].status.ok()) {
          req->status = treqs[j].status;
        } else {
          switch (savers[j].state) {
            case kNotFound:
              continue;  // Keep searching deeper levels.
            case kFound:
              req->is_blob_index = savers[j].is_blob_index;
              req->status = Status::OK();
              break;
            case kDeleted:
              req->status = Status::NotFound(Slice());
              break;
            case kCorrupt:
              req->status =
                  Status::Corruption("corrupted key for ", req->key->user_key());
              break;
          }
        }
        req->done = true;
        remaining--;
      }
    }
  }

  for (size_t i = 0; i < n; i++) {
    if (!reqs[i].done) {
      reqs[i].status = Status::NotFound(Slice());
      reqs[i].done = true;
    }
  }
}

void Version::Ref() { ++refs_; }

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  return SomeFileOverlapsRange(vset_->icmp_, (level > 0), files_[level],
                               smallest_user_key, largest_user_key);
}

int Version::PickLevelForMemTableOutput(const Slice& smallest_user_key,
                                        const Slice& largest_user_key) {
  int level = 0;
  if (!OverlapInLevel(0, &smallest_user_key, &largest_user_key)) {
    // Push to next level if there is no overlap in next level and the #bytes
    // overlapping in the level after that are limited.
    InternalKey start(smallest_user_key, kMaxSequenceNumber, kValueTypeForSeek);
    InternalKey limit(largest_user_key, 0, static_cast<ValueType>(0));
    std::vector<FileMetaData*> overlaps;
    while (level < config::kMaxMemCompactLevel) {
      if (OverlapInLevel(level + 1, &smallest_user_key, &largest_user_key)) {
        break;
      }
      if (level + 2 < config::kNumLevels) {
        // Check that file does not overlap too many grandparent bytes.
        GetOverlappingInputs(level + 2, &start, &limit, &overlaps);
        const int64_t sum = TotalFileSize(overlaps);
        if (sum > MaxGrandParentOverlapBytesFor(vset_->options_)) {
          break;
        }
      }
      level++;
    }
  }
  return level;
}

void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < config::kNumLevels);
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_.user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it.
    } else if (end != nullptr &&
               user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it.
    } else {
      inputs->push_back(f);
      if (level == 0) {
        // Level-0 files may overlap each other. So check if the newly added
        // file has expanded the range. If so, restart search.
        if (begin != nullptr &&
            user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < config::kNumLevels; level++) {
    r.append("--- level ");
    r += std::to_string(level);
    r.append(" ---\n");
    for (const FileMetaData* f : files_[level]) {
      r.push_back(' ');
      r += std::to_string(f->number);
      r.push_back(':');
      r += std::to_string(f->file_size);
      r.append("[");
      r.append(f->smallest.user_key().ToString());
      r.append(" .. ");
      r.append(f->largest.user_key().ToString());
      r.append("]\n");
    }
  }
  return r;
}

// A helper class so we can efficiently apply a whole sequence of edits to a
// particular state without creating intermediate Versions that contain full
// copies of the intermediate state.
class VersionSet::Builder {
 private:
  // Helper to sort by v->files_[file_number].smallest.
  struct BySmallestKey {
    const InternalKeyComparator* internal_comparator;

    bool operator()(FileMetaData* f1, FileMetaData* f2) const {
      int r = internal_comparator->Compare(f1->smallest.Encode(),
                                           f2->smallest.Encode());
      if (r != 0) {
        return (r < 0);
      }
      // Break ties by file number.
      return (f1->number < f2->number);
    }
  };

  using FileSet = std::set<FileMetaData*, BySmallestKey>;
  struct LevelState {
    std::set<uint64_t> deleted_files;
    FileSet* added_files;
  };

  VersionSet* vset_;
  Version* base_;
  LevelState levels_[config::kNumLevels];
  // Working blob-file map, seeded from the base version. Garbage updates
  // clone the shared metadata (copy-on-write) so older versions keep their
  // own accounting snapshot.
  std::map<uint64_t, std::shared_ptr<const BlobFileMetaData>> blob_files_;

 public:
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    blob_files_ = base_->blob_files_;
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (auto& level : levels_) {
      level.added_files = new FileSet(cmp);
    }
  }

  ~Builder() {
    for (auto& level : levels_) {
      const FileSet* added = level.added_files;
      std::vector<FileMetaData*> to_unref(added->begin(), added->end());
      delete added;
      for (FileMetaData* f : to_unref) {
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  // Apply all of the edits in *edit to the current state.
  void Apply(const VersionEdit* edit) {
    // Update compaction pointers.
    for (const auto& [level, key] : edit->compact_pointers_) {
      vset_->compact_pointer_[level] = key.Encode().ToString();
    }

    // Remove deleted files.
    for (const auto& [level, number] : edit->deleted_files_) {
      levels_[level].deleted_files.insert(number);
    }

    // Add new files.
    for (const auto& [level, meta] : edit->new_files_) {
      auto* f = new FileMetaData(meta);
      f->refs = 1;
      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files->insert(f);
    }

    // Blob files: adds, garbage deltas (copy-on-write), removals.
    for (const BlobFileMetaData& b : edit->new_blob_files_) {
      blob_files_[b.number] = std::make_shared<const BlobFileMetaData>(b);
    }
    for (const VersionEdit::BlobGarbage& g : edit->blob_garbage_) {
      auto it = blob_files_.find(g.number);
      if (it == blob_files_.end()) continue;  // Tolerated (re-applied edits)
      auto updated = std::make_shared<BlobFileMetaData>(*it->second);
      updated->garbage_bytes =
          std::min(updated->garbage_bytes + g.bytes, updated->payload_bytes);
      updated->garbage_records =
          std::min(updated->garbage_records + g.records,
                   updated->record_count);
      it->second = std::move(updated);
    }
    for (uint64_t number : edit->deleted_blob_files_) {
      blob_files_.erase(number);
    }
  }

  // Save the current state in *v.
  void SaveTo(Version* v) {
    v->blob_files_ = blob_files_;
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < config::kNumLevels; level++) {
      // Merge the set of added files with the set of pre-existing files,
      // dropping deleted files. Store the result in *v.
      const std::vector<FileMetaData*>& base_files = base_->files_[level];
      auto base_iter = base_files.begin();
      auto base_end = base_files.end();
      const FileSet* added_files = levels_[level].added_files;
      v->files_[level].reserve(base_files.size() + added_files->size());
      for (FileMetaData* added_file : *added_files) {
        // Add all smaller files listed in base_.
        for (auto bpos = std::upper_bound(base_iter, base_end, added_file, cmp);
             base_iter != bpos; ++base_iter) {
          MaybeAddFile(v, level, *base_iter);
        }
        MaybeAddFile(v, level, added_file);
      }

      // Add remaining base files.
      for (; base_iter != base_end; ++base_iter) {
        MaybeAddFile(v, level, *base_iter);
      }

#ifndef NDEBUG
      // Make sure there is no overlap in levels > 0.
      if (level > 0) {
        for (size_t i = 1; i < v->files_[level].size(); i++) {
          const InternalKey& prev_end = v->files_[level][i - 1]->largest;
          const InternalKey& this_begin = v->files_[level][i]->smallest;
          if (vset_->icmp_.Compare(prev_end.Encode(), this_begin.Encode()) >=
              0) {
            std::fprintf(stderr, "overlapping ranges in same level %s vs. %s\n",
                         prev_end.user_key().ToString().c_str(),
                         this_begin.user_key().ToString().c_str());
            std::abort();
          }
        }
      }
#endif
    }
  }

  void MaybeAddFile(Version* v, int level, FileMetaData* f) {
    if (levels_[level].deleted_files.count(f->number) > 0) {
      // File is deleted: do nothing.
    } else {
      std::vector<FileMetaData*>* files = &v->files_[level];
      if (level > 0 && !files->empty()) {
        // Must not overlap.
        assert(vset_->icmp_.Compare((*files)[files->size() - 1]->largest.Encode(),
                                    f->smallest.Encode()) < 0);
      }
      f->refs++;
      files->push_back(f);
    }
  }
};

VersionSet::VersionSet(const std::string& dbname, const DBOptions* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* cmp)
    : env_(options->env),
      dbname_(dbname),
      options_(options),
      table_cache_(table_cache),
      icmp_(*cmp),
      next_file_number_(2),
      manifest_file_number_(0),  // Filled by Recover()
      last_sequence_(0),
      log_number_(0),
      descriptor_file_(nullptr),
      descriptor_log_(nullptr),
      dummy_versions_(this),
      current_(nullptr) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // All versions gone
}

void VersionSet::AppendVersion(Version* v) {
  // Make "v" current.
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list.
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit, Mutex* mu) {
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }

  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(last_sequence_);

  auto* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    builder.SaveTo(v);
  }
  Finalize(v);

  // Initialize new descriptor log file if necessary by creating a temporary
  // file that contains a snapshot of the current version.
  std::string new_manifest_file;
  Status s;
  if (descriptor_log_ == nullptr) {
    // No reason to unlock *mu here since we only hit this path in the first
    // call to LogAndApply (when opening the database).
    assert(descriptor_file_ == nullptr);
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = env_->NewWritableFile(new_manifest_file, &descriptor_file_);
    if (s.ok()) {
      descriptor_log_ = std::make_unique<log::Writer>(descriptor_file_.get());
      s = WriteSnapshot(descriptor_log_.get());
    }
  }

  // Unlock during expensive MANIFEST log write.
  {
    mu->Unlock();

    // Write new record to MANIFEST log.
    if (s.ok()) {
      std::string record;
      edit->EncodeTo(&record);
      s = descriptor_log_->AddRecord(record);
      if (s.ok()) {
        s = descriptor_file_->Sync();
      }
    }

    // If we just created a new descriptor file, install it by writing a new
    // CURRENT file that points to it.
    if (s.ok() && !new_manifest_file.empty()) {
      std::string manifest_name =
          new_manifest_file.substr(new_manifest_file.rfind('/') + 1);
      s = WriteStringToFile(env_, manifest_name + "\n",
                            CurrentFileName(dbname_), /*sync=*/true);
    }

    mu->Lock();
  }

  // Install the new version.
  if (s.ok()) {
    AppendVersion(v);
    log_number_ = edit->log_number_;
  } else {
    delete v;
    if (!new_manifest_file.empty()) {
      descriptor_log_.reset();
      descriptor_file_.reset();
      // why unchecked: best-effort cleanup of the half-written manifest;
      // the commit error `s` is what the caller needs.
      env_->RemoveFile(new_manifest_file).PermitUncheckedError();
    }
  }

  return s;
}

Status VersionSet::Recover(bool* save_manifest) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t /*bytes*/, const Status& s) override {
      if (this->status->ok()) *this->status = s;
    }
  };

  *save_manifest = false;

  // Read "CURRENT" file, which contains a pointer to the current manifest.
  std::string current;
  Status s = ReadFileToString(env_, CurrentFileName(dbname_), &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current[current.size() - 1] != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);

  std::string dscname = dbname_ + "/" + current;
  std::unique_ptr<SequentialFile> file;
  s = env_->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent file",
                                s.ToString());
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t last_sequence = 0;
  uint64_t log_number = 0;
  Builder builder(this, current_);
  int read_records = 0;

  {
    LogReporter reporter;
    reporter.status = &s;
    log::Reader reader(file.get(), &reporter);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      ++read_records;
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok()) {
        if (edit.has_comparator_ &&
            edit.comparator_ != icmp_.user_comparator()->Name()) {
          s = Status::InvalidArgument(
              edit.comparator_ + " does not match existing comparator ",
              icmp_.user_comparator()->Name());
        }
      }

      if (s.ok()) {
        builder.Apply(&edit);
      }

      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }

      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }

      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
  }
  file.reset();

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }
  }

  if (s.ok()) {
    auto* v = new Version(this);
    builder.SaveTo(v);
    Finalize(v);
    AppendVersion(v);
    manifest_file_number_ = next_file;
    next_file_number_ = next_file + 1;
    last_sequence_ = last_sequence;
    log_number_ = log_number;
    // Always write a fresh MANIFEST on recovery (simple and safe).
    *save_manifest = true;
  }

  return s;
}

void VersionSet::Finalize(Version* v) {
  // Precomputed best level for next compaction.
  int best_level = -1;
  double best_score = -1;

  for (int level = 0; level < config::kNumLevels - 1; level++) {
    double score;
    if (level == 0) {
      // Treat level-0 specially by bounding the number of files instead of
      // the number of bytes: with larger write buffers, too many
      // bytes-triggered L0 compactions hurt; and L0 files are hot anyway.
      score = v->files_[level].size() /
              static_cast<double>(config::kL0_CompactionTrigger);
    } else {
      // Compute the ratio of current size to size limit.
      const uint64_t level_bytes = TotalFileSize(v->files_[level]);
      score =
          static_cast<double>(level_bytes) / MaxBytesForLevel(level);
    }

    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }

  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  // Save metadata.
  VersionEdit edit;
  edit.SetComparatorName(icmp_.user_comparator()->Name());

  // Save compaction pointers.
  for (int level = 0; level < config::kNumLevels; level++) {
    if (!compact_pointer_[level].empty()) {
      InternalKey key;
      key.DecodeFrom(compact_pointer_[level]);
      edit.SetCompactPointer(level, key);
    }
  }

  // Save files.
  for (int level = 0; level < config::kNumLevels; level++) {
    for (const FileMetaData* f : current_->files_[level]) {
      edit.AddFile(level, f->number, f->file_size, f->smallest, f->largest);
    }
  }

  // Save blob files with their accumulated garbage.
  for (const auto& [number, b] : current_->blob_files_) {
    edit.AddBlobFile(number, b->payload_bytes, b->record_count);
    if (b->garbage_bytes > 0 || b->garbage_records > 0) {
      edit.AddBlobGarbage(number, b->garbage_bytes, b->garbage_records);
    }
  }

  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(record);
}

int VersionSet::NumLevelFiles(int level) const {
  assert(level >= 0);
  assert(level < config::kNumLevels);
  return static_cast<int>(current_->files_[level].size());
}

int64_t VersionSet::NumLevelBytes(int level) const {
  assert(level >= 0);
  assert(level < config::kNumLevels);
  return TotalFileSize(current_->files_[level]);
}

const char* VersionSet::LevelSummary(LevelSummaryStorage* scratch) const {
  std::snprintf(scratch->buffer, sizeof(scratch->buffer),
                "files[ %d %d %d %d %d %d %d ]",
                NumLevelFiles(0), NumLevelFiles(1), NumLevelFiles(2),
                NumLevelFiles(3), NumLevelFiles(4), NumLevelFiles(5),
                NumLevelFiles(6));
  return scratch->buffer;
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (const auto& level_files : v->files_) {
      for (const FileMetaData* f : level_files) {
        live->insert(f->number);
      }
    }
    // Blob files share the table-file number space and storage, so listing
    // them here is all RemoveObsoleteFiles needs to keep them safe.
    for (const auto& [number, b] : v->blob_files_) {
      (void)b;
      live->insert(number);
    }
  }
}

int64_t VersionSet::MaxGrandParentOverlapBytes() const {
  return MaxGrandParentOverlapBytesFor(options_);
}

void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest.Encode(), smallest->Encode()) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest.Encode(), largest->Encode()) > 0) {
        *largest = f->largest;
      }
    }
  }
}

void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

std::unique_ptr<Iterator> VersionSet::MakeInputIterator(Compaction* c) {
  ReadOptions options;

  // Level-0 files have to be merged together. For other levels, we will
  // make a concatenating iterator per level.
  std::vector<std::unique_ptr<Iterator>> list;
  list.reserve(c->level() == 0 ? c->num_input_files(0) + 1 : 2);
  for (int which = 0; which < 2; which++) {
    if (!c->inputs_[which].empty()) {
      if (c->level() + which == 0) {
        for (FileMetaData* f : c->inputs_[which]) {
          list.push_back(
              table_cache_->NewIterator(options, f->number, f->file_size));
        }
      } else {
        // Create concatenating iterator for the files from this level.
        list.push_back(std::make_unique<LevelTableIterator>(
            table_cache_, options,
            std::make_unique<Version::LevelFileNumIterator>(
                icmp_, &c->inputs_[which])));
      }
    }
  }
  return NewMergingIterator(&icmp_, std::move(list));
}

Compaction* VersionSet::PickCompaction() {
  Compaction* c;
  int level;

  // Size compaction only (no seek compaction in this engine).
  const bool size_compaction = (current_->compaction_score_ >= 1);
  if (size_compaction) {
    level = current_->compaction_level_;
    assert(level >= 0);
    assert(level + 1 < config::kNumLevels);
    c = new Compaction(options_, level);

    // Pick the first file that comes after compact_pointer_[level].
    for (FileMetaData* f : current_->files_[level]) {
      if (compact_pointer_[level].empty() ||
          icmp_.Compare(f->largest.Encode(), compact_pointer_[level]) > 0) {
        c->inputs_[0].push_back(f);
        break;
      }
    }
    if (c->inputs_[0].empty()) {
      // Wrap-around to the beginning of the key space.
      c->inputs_[0].push_back(current_->files_[level][0]);
    }
  } else {
    return nullptr;
  }

  c->input_version_ = current_;
  c->input_version_->Ref();

  // Files in level 0 may overlap each other, so pick up all overlapping ones.
  if (level == 0) {
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    // Note that the next call will discard the file we placed in c->inputs_[0]
    // earlier and replace it with an overlapping set which will include the
    // picked file.
    current_->GetOverlappingInputs(0, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);

  return c;
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  InternalKey smallest, largest;

  GetRange(c->inputs_[0], &smallest, &largest);

  current_->GetOverlappingInputs(level + 1, &smallest, &largest,
                                 &c->inputs_[1]);

  // Get entire range covered by compaction.
  InternalKey all_start, all_limit;
  GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);

  // See if we can grow the number of inputs in "level" without changing the
  // number of "level+1" files we pick up.
  if (!c->inputs_[1].empty()) {
    std::vector<FileMetaData*> expanded0;
    current_->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    const int64_t inputs1_size = TotalFileSize(c->inputs_[1]);
    const int64_t expanded0_size = TotalFileSize(expanded0);
    if (expanded0.size() > c->inputs_[0].size() &&
        inputs1_size + expanded0_size <
            ExpandedCompactionByteSizeLimit(options_)) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current_->GetOverlappingInputs(level + 1, &new_start, &new_limit,
                                     &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        smallest = new_start;
        largest = new_limit;
        c->inputs_[0] = expanded0;
        c->inputs_[1] = expanded1;
        GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
      }
    }
  }

  // Compute the set of grandparent files that overlap this compaction.
  if (level + 2 < config::kNumLevels) {
    current_->GetOverlappingInputs(level + 2, &all_start, &all_limit,
                                   &c->grandparents_);
  }

  // Update the place where we will do the next compaction for this level.
  // We update this immediately instead of waiting for the VersionEdit to be
  // applied so that if the compaction fails, we will try a different key
  // range next time.
  compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(level, largest);
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  // Avoid compacting too much in one shot in case the range is large.
  // But we cannot do this for level-0 since level-0 files can overlap and
  // we must not pick one file and drop another older file if the two files
  // overlap.
  if (level > 0) {
    const uint64_t limit = MaxFileSizeForLevel(options_, level);
    uint64_t total = 0;
    for (size_t i = 0; i < inputs.size(); i++) {
      total += inputs[i]->file_size;
      if (total >= limit) {
        inputs.resize(i + 1);
        break;
      }
    }
  }

  auto* c = new Compaction(options_, level);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

Compaction::Compaction(const DBOptions* options, int level)
    : level_(level),
      max_output_file_size_(MaxFileSizeForLevel(options, level)),
      input_version_(nullptr),
      grandparent_index_(0),
      seen_key_(false),
      overlapped_bytes_(0) {
  for (size_t& ptr : level_ptrs_) {
    ptr = 0;
  }
}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

bool Compaction::IsTrivialMove() const {
  const VersionSet* vset = input_version_->vset_;
  // Avoid a move if there is lots of overlapping grandparent data.
  // Otherwise, the move could create a parent file that will require a very
  // expensive merge later on.
  return (num_input_files(0) == 1 && num_input_files(1) == 0 &&
          TotalFileSize(grandparents_) <= vset->MaxGrandParentOverlapBytes());
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : inputs_[which]) {
      edit->RemoveFile(level_ + which, f->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  // Maybe use binary search to find right entry instead of linear search?
  const Comparator* user_cmp =
      input_version_->vset_->icmp_.user_comparator();
  for (int lvl = level_ + 2; lvl < config::kNumLevels; lvl++) {
    const std::vector<FileMetaData*>& files = input_version_->files_[lvl];
    while (level_ptrs_[lvl] < files.size()) {
      FileMetaData* f = files[level_ptrs_[lvl]];
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        // We've advanced far enough.
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          // Key falls in this file's range, so it is not base level.
          return false;
        }
        break;
      }
      level_ptrs_[lvl]++;
    }
  }
  return true;
}

bool Compaction::ShouldStopBefore(const Slice& internal_key) {
  const VersionSet* vset = input_version_->vset_;
  const InternalKeyComparator* icmp = &vset->icmp_;
  // Scan to find the earliest grandparent file that contains key.
  while (grandparent_index_ < grandparents_.size() &&
         icmp->Compare(internal_key,
                       grandparents_[grandparent_index_]->largest.Encode()) >
             0) {
    if (seen_key_) {
      overlapped_bytes_ += grandparents_[grandparent_index_]->file_size;
    }
    grandparent_index_++;
  }
  seen_key_ = true;

  if (overlapped_bytes_ > vset->MaxGrandParentOverlapBytes()) {
    // Too much overlap for current output; start new output.
    overlapped_bytes_ = 0;
    return true;
  }
  return false;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace rocksmash
