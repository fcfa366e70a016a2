#!/usr/bin/env bash
# Bench bitrot check: run every experiment bench at --smoke scale (tiny
# data, seconds of runtime) and verify each one exits cleanly and writes its
# BENCH_<name>.json report. Micro benches are link/registration-checked via
# --benchmark_list_tests. Not a performance gate — numbers at this scale are
# meaningless; this only keeps the benches building and running.
#
#   tools/run_bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found (build first: cmake --build $BUILD_DIR)" >&2
  exit 1
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

# bench_motivation takes no scale flag (fixed, already tiny).
EXP_BENCHES_NOFLAG=(bench_motivation)
EXP_BENCHES=(
  bench_ycsb
  bench_readrandom
  bench_write
  bench_recovery
  bench_cache_size
  bench_metadata
  bench_cost
  bench_scan
  bench_ablation_layout
  bench_ablation_pinning
  bench_sensitivity
  bench_upload_pipeline
  bench_multiget
  bench_replay
  bench_blob
  bench_shard
)
MICRO_BENCHES(){ ls "$OLDPWD/$BENCH_DIR" | grep '^bench_micro_' || true; }

fail=0
run_one() {
  local name="$1"; shift
  local bin="$OLDPWD/$BENCH_DIR/$name"
  if [ ! -x "$bin" ]; then
    echo "SKIP  $name (not built)"
    return
  fi
  echo "== $name $*"
  if ! "$bin" "$@"; then
    echo "FAIL  $name exited non-zero" >&2
    fail=1
    return
  fi
  local json="BENCH_${name#bench_}.json"
  if [ ! -s "$json" ]; then
    echo "FAIL  $name did not write $json" >&2
    fail=1
    return
  fi
  # Every report must embed a non-empty ticker snapshot: a bench that ran
  # without recording a single ticker means the statistics plumbing broke.
  if ! grep -A1 '"tickers": {' "$json" | tail -n1 | grep -q '":'; then
    echo "FAIL  $name wrote $json with an empty/missing ticker snapshot" >&2
    fail=1
  fi
}

for b in "${EXP_BENCHES_NOFLAG[@]}"; do run_one "$b"; done
for b in "${EXP_BENCHES[@]}"; do run_one "$b" --smoke; done

for b in $(MICRO_BENCHES); do
  echo "== $b --benchmark_list_tests"
  if ! "$OLDPWD/$BENCH_DIR/$b" --benchmark_list_tests >/dev/null; then
    echo "FAIL  $b" >&2
    fail=1
  fi
done

# Concurrent-writer mode (overwrites BENCH_write.json with the
# thread-scaling rows; the single-thread sweep above already passed).
run_one bench_write --smoke --threads=4

# Group commit and the parallel apply stage must actually engage under
# concurrent writers: groups formed and sub-batches applied concurrently.
if [ -s BENCH_write.json ]; then
  for ticker in write.groups write.group.size write.concurrent.applies; do
    if ! grep -q "\"$ticker\": [1-9]" BENCH_write.json; then
      echo "FAIL  bench_write: ticker $ticker is zero or missing" >&2
      fail=1
    fi
  done
fi

# Overlapped WAL syncs must engage on a multi-segment eWAL: a synced group
# hands the write queue on before its sync, so consecutive groups' syncs
# run side by side. (Overwrites BENCH_write.json again; removed first so a
# stale report cannot pass the check.)
rm -f BENCH_write.json
run_one bench_write --smoke --threads=4 --wal_segments=4
if [ -s BENCH_write.json ]; then
  if ! grep -q '"wal.sync.overlapped": [1-9]' BENCH_write.json; then
    echo "FAIL  bench_write --wal_segments=4: ticker wal.sync.overlapped is zero or missing" >&2
    fail=1
  fi
fi

# The scan engine must actually engage on the cloud-heavy config even at
# smoke scale: streaming readahead served blocks and prefix seeks skipped
# filtered-out runs. And the default ReadBlock window in front of the
# streaming pipeline must not make it re-download what the window already
# fetched: default_window's GET bytes per scan stay within 1.05x of
# readahead_on's (the pipeline alone).
if [ -s BENCH_scan.json ]; then
  for ticker in scan.readahead.hits scan.runs.skipped; do
    if ! grep -q "\"$ticker\": [1-9]" BENCH_scan.json; then
      echo "FAIL  bench_scan: ticker $ticker is zero or missing" >&2
      fail=1
    fi
  done
  scan_get_bytes() {
    grep "\"label\": \"cold_cloud/$1\"" BENCH_scan.json |
      sed -E 's/.*"cloud_get_bytes_per_scan": ([0-9.eE+-]+).*/\1/' || true
  }
  on_bytes="$(scan_get_bytes readahead_on)"
  window_bytes="$(scan_get_bytes default_window)"
  if [ -z "$on_bytes" ] || [ -z "$window_bytes" ] ||
     ! awk -v w="$window_bytes" -v o="$on_bytes" 'BEGIN { exit !(w <= 1.05 * o) }'; then
    echo "FAIL  bench_scan: default_window GET bytes/scan (${window_bytes:-missing}) exceed 1.05x readahead_on (${on_bytes:-missing})" >&2
    fail=1
  fi
fi

# Trace replay fidelity gate: bench_replay captures a sampling=1 trace
# during its smoke workload and replays it; the replayed per-type op counts
# must match the capture exactly, and the Chrome export must be well-formed
# (the bench itself exits non-zero otherwise — this re-asserts on the
# report so a silent report-format regression also fails).
if [ -s BENCH_replay.json ]; then
  if ! grep -q '"replay_counts_match": 1' BENCH_replay.json; then
    echo "FAIL  bench_replay: replayed op counts do not match capture" >&2
    fail=1
  fi
  if ! grep -q '"trace.records.written": [1-9]' BENCH_replay.json; then
    echo "FAIL  bench_replay: ticker trace.records.written is zero or missing" >&2
    fail=1
  fi
fi

# The MultiGet bench must demonstrate real batching even at smoke scale:
# duplicate-block coalescing and parallel cloud fetches both ticked.
if [ -s BENCH_multiget.json ]; then
  for ticker in multiget.coalesced.blocks multiget.cloud.parallel.gets; do
    if ! grep -q "\"$ticker\": [1-9]" BENCH_multiget.json; then
      echo "FAIL  bench_multiget: ticker $ticker is zero or missing" >&2
      fail=1
    fi
  done
fi

# Key-value separation must actually engage even at smoke scale: values
# were separated at flush, GC rewrote live records out of garbage-heavy
# blob files, and the separation-on variant moved fewer compaction and
# upload bytes than inline values.
if [ -s BENCH_blob.json ]; then
  for ticker in blob.write.separated blob.gc.rewritten.bytes; do
    if ! grep -q "\"$ticker\": [1-9]" BENCH_blob.json; then
      echo "FAIL  bench_blob: ticker $ticker is zero or missing" >&2
      fail=1
    fi
  done
  for flag in separation_compaction_win separation_upload_win; do
    if ! grep -q "\"$flag\": 1" BENCH_blob.json; then
      echo "FAIL  bench_blob: $flag is not 1" >&2
      fail=1
    fi
  done
fi

# Sharding must actually engage even at smoke scale: the router split at
# least one cross-shard batch, MultiGet fanned out per shard, and the
# 4-shard aggregate fill beat 1-shard at the same thread count with the
# block cache and background lanes shared (the >=2x acceptance figure is
# asserted at standard scale in EXPERIMENTS.md E16, not here).
if [ -s BENCH_shard.json ]; then
  for ticker in shard.write.batches.split shard.multiget.fanout; do
    if ! grep -q "\"$ticker\": [1-9]" BENCH_shard.json; then
      echo "FAIL  bench_shard: ticker $ticker is zero or missing" >&2
      fail=1
    fi
  done
  if ! grep -q '"shard4_fill_beats_shard1": 1' BENCH_shard.json; then
    echo "FAIL  bench_shard: 4-shard fill did not beat 1-shard" >&2
    fail=1
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "bench smoke: FAILURES" >&2
  exit 1
fi
echo "bench smoke: all benches ran and wrote JSON reports"
