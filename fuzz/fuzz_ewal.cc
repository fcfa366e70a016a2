// Fuzz eWAL recovery: the input is split across two segment files of one
// logical log and replayed through the WalManager::Replay pipeline (per-
// segment log::Reader framing + WriteBatch decode), exactly as crash
// recovery would consume a torn multi-segment log.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "util/slice.h"
#include "util/status.h"

namespace {

constexpr size_t kMaxInput = 1 << 16;

class NullHandler : public rocksmash::WriteBatch::Handler {
 public:
  void Put(const rocksmash::Slice& key, const rocksmash::Slice& value) override {
    bytes_ += key.size() + value.size();
  }
  void Delete(const rocksmash::Slice& key) override { bytes_ += key.size(); }

 private:
  size_t bytes_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  using namespace rocksmash;

  std::unique_ptr<Env> env = NewMemEnv();
  const std::string dbname = "/fuzz-ewal";
  if (!env->CreateDir(dbname).ok()) return 0;

  // Stripe the input over two segments the way the writer round-robins
  // records: first half to segment 0, second half to segment 1.
  constexpr uint64_t kLogNumber = 7;
  const size_t half = size / 2;
  const Slice seg0(reinterpret_cast<const char*>(data), half);
  const Slice seg1(reinterpret_cast<const char*>(data) + half, size - half);
  if (!WriteStringToFile(env.get(), seg0, EWalFileName(dbname, kLogNumber, 0))
           .ok() ||
      !WriteStringToFile(env.get(), seg1, EWalFileName(dbname, kLogNumber, 1))
           .ok()) {
    return 0;
  }

  EWalOptions opts;
  opts.segments = 2;
  opts.replay_threads = 1;  // deterministic coverage
  std::unique_ptr<WalManager> wal = NewEWalManager(env.get(), dbname, opts);

  Status s = wal->Replay(
      kLogNumber,
      [](const Slice& record, int /*shard*/) {
        if (record.size() < 12) {
          return Status::Corruption("ewal record too small");
        }
        WriteBatch batch;
        WriteBatchInternal::SetContents(&batch, record);
        NullHandler handler;
        return batch.Iterate(&handler);
      },
      nullptr);
  // why unchecked: Corruption from a torn segment is an expected outcome;
  // the harness only guards against crashes and hangs.
  s.PermitUncheckedError();
  return 0;
}
