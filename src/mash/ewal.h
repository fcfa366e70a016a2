// eWAL: RocksMash's extended write-ahead log.
//
// A logical log `number` is striped over K segment files
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
// K = 1 the eWAL behaves like the classic single-file log.
//
// Recovery replays the K segments with one thread per segment. Records are
// applied out of global order across segments — safe, because every record
// (a serialized WriteBatch) carries its own sequence numbers and the LSM
// applies entries with their original sequences; the merged result is
// identical to sequential replay. Unsynced tail records may survive in one
// segment but not another; this yields RocksDB-kPointInTime-like semantics
// per segment and is the documented eWAL trade-off for near-linear recovery
// speedup.
#pragma once

#include <memory>

#include "lsm/wal.h"

namespace rocksmash {

class Env;

struct EWalOptions {
  int segments = 4;
  // Threads used for replay; 0 = one per segment.
  int replay_threads = 0;
};

std::unique_ptr<WalManager> NewEWalManager(Env* env, const std::string& dbname,
                                           EWalOptions options = {});

}  // namespace rocksmash
