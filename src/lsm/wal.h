// WalManager: the write-ahead-log strategy. The classic implementation is a
// single log file per memtable epoch with sequential replay. RocksMash's
// eWAL (mash/ewal.h) stripes records over K segment files and replays them
// in parallel.
//
// Durability semantics: after Sync(position) returns OK, the record at
// `position` and every record added before it are durable; a sync already
// in flight that covers one of them is waited for, not repeated.
// Sync(WalPosition::End()) makes every record added so far durable. For the
// eWAL, records the writer never synced may be recovered out of commit
// order across segments; this is safe because every record carries its own
// sequence numbers and recovery applies them with those original
// sequences (RocksDB kPointInTimeRecovery-like semantics per segment).
//
// Thread-safety: one appender at a time. The DB's writer protocol
// guarantees that a single thread calls NewLog/AddRecord/CloseLog at a time
// (the front writer of the write queue, with the DB mutex released), and
// NewLog/CloseLog never run while a Sync is in flight. When
// ConcurrentSyncs() is true, Sync(position) may additionally run on any
// number of threads, concurrently with each other and with AddRecord; the
// implementation synchronizes that itself. Otherwise Sync is externally
// synchronized like the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace rocksmash {

class Env;

// Where AddRecord put a record: the token Sync(position) makes durable.
// `record` counts the records of the current log from 1; `segment` is the
// file that holds it. A single-file log, whose every sync covers the whole
// file, leaves the position at its default.
struct WalPosition {
  uint64_t record = 0;
  int segment = 0;

  // A position past every record: syncing through it syncs the whole log.
  static WalPosition End() { return WalPosition{~uint64_t{0}, 0}; }
};

class WalManager {
 public:
  virtual ~WalManager() = default;

  // Start writing log `number` (closes any previous log).
  virtual Status NewLog(uint64_t number) = 0;

  // Append one record (a serialized WriteBatch) to the current log. On OK
  // *position (when non-null) says where it went.
  virtual Status AddRecord(const Slice& record, WalPosition* position) = 0;

  // Make the record at `position` and every earlier record durable;
  // WalPosition::End() covers every record added so far.
  virtual Status Sync(const WalPosition& position) = 0;

  // True when syncs of different records can proceed at the same time
  // (the records sit in different files). The write path then hands the
  // write queue on after a group's append instead of after its sync, so
  // consecutive groups' syncs overlap.
  virtual bool ConcurrentSyncs() const { return false; }

  virtual Status CloseLog() = 0;

  // Log numbers present on disk, ascending.
  virtual Status ListLogs(std::vector<uint64_t>* numbers) = 0;

  virtual Status RemoveLog(uint64_t number) = 0;

  // Per-shard replay telemetry. On a machine with fewer cores than shards,
  // wall-clock replay cannot show the parallel speedup; the critical path
  // max(shard_micros) models the time with >= MaxShards() cores.
  struct ReplayTelemetry {
    std::vector<uint64_t> shard_micros;
  };

  // Replay log `number`: apply(record, shard) for every intact record.
  // `shard` identifies the replay lane in [0, MaxShards()); the classic WAL
  // always uses shard 0 on the calling thread. The eWAL invokes apply
  // concurrently from up to MaxShards() threads, one shard per thread, so
  // apply must be safe for *distinct* shards in parallel.
  virtual Status Replay(
      uint64_t number,
      const std::function<Status(const Slice& record, int shard)>& apply,
      ReplayTelemetry* telemetry = nullptr) = 0;

  virtual int MaxShards() const = 0;
};

// Classic single-file WAL in the DB directory.
std::unique_ptr<WalManager> NewClassicWalManager(Env* env,
                                                 const std::string& dbname);

}  // namespace rocksmash
