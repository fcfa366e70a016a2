// WalManager: the write-ahead-log interface, and the eWAL, RocksMash's
// extended write-ahead log and the engine's only log.
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
// file that holds it.
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
  // `shard` identifies the replay lane in [0, MaxShards()). apply may be
  // invoked concurrently from up to MaxShards() threads, one shard per
  // thread, so it must be safe for *distinct* shards in parallel.
  virtual Status Replay(
      uint64_t number,
      const std::function<Status(const Slice& record, int shard)>& apply,
      ReplayTelemetry* telemetry = nullptr) = 0;

  virtual int MaxShards() const = 0;
};

// eWAL: a logical log `number` is striped over K segment files
// (ewal-{number}-{k}.log). Each AddRecord goes entirely to one segment, so
// a record is never split across segments: round-robin over records,
// skipping a segment whose sync is in flight. Sync(position) makes the
// record at `position` and every earlier record durable, syncing only the
// segments that hold such a record not yet synced, and waiting out a sync
// already in flight on a segment rather than repeating it;
// Sync(WalPosition::End()) syncs every dirty segment (fsync epoch, used at
// close). A failed segment sync is sticky: the file's unsynced records stay
// unsynced, and every later sync that needs them fails with the first error
// instead of retrying an fsync that could report OK for lost pages. Either
// way "acked writes are durable" holds.
//
// Concurrency: each segment has its own mutex, held across that segment's
// appends and its sync. Syncs of different segments therefore run at the
// same time, and an append to a segment that is not syncing never waits
// for one that is — which is what lets the write path overlap the syncs of
// consecutive write groups (ConcurrentSyncs() is true for K > 1). With
// K = 1 every sync covers the whole log, and the write path syncs before it
// hands the write queue on.
//
// Recovery replays the K segments with one thread per segment. Records are
// applied out of global order across segments — safe, because every record
// (a serialized WriteBatch) carries its own sequence numbers and the LSM
// applies entries with their original sequences; the merged result is
// identical to sequential replay. Unsynced tail records may survive in one
// segment but not another; this yields RocksDB-kPointInTime-like semantics
// per segment and is the documented eWAL trade-off for near-linear recovery
// speedup. A log may be replayed with a K other than the one it was written
// with. A legacy single-file log ({number}.log, same record framing) is
// listed, replayed on shard 0 and removed like a log of one segment;
// nothing writes that format any more.
struct EWalOptions {
  int segments = 4;
  // Threads used for replay; 0 = one per segment.
  int replay_threads = 0;
};

std::unique_ptr<WalManager> NewEWalManager(Env* env, const std::string& dbname,
                                           EWalOptions options = {});

}  // namespace rocksmash
