#!/usr/bin/env bash
# Multi-core honesty wrapper for the absorb-latency baseline.
#
# Pins the bench to an explicit core set with taskset (when available)
# so the JSON's "cores" field records the cores the run *actually* had
# — Rust's available_parallelism respects the affinity mask — instead
# of whatever the host happens to advertise. Regenerates the
# persistent-store baseline, including the rebuild-vs-delta absorb rows.
#
# Usage: scripts/bench_multicore.sh [CORES] [OUT.json]
#   CORES  cores to pin to, 0-based from core 0 (default: all available)
#   OUT    output JSON path (default: BENCH_PR10.json)
set -euo pipefail

cd "$(dirname "$0")/.."
avail=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
cores="${1:-$avail}"
out="${2:-BENCH_PR10.json}"
if [ "$cores" -lt 1 ]; then cores=1; fi
if [ "$cores" -gt "$avail" ]; then
  echo "requested $cores cores, machine has $avail; clamping" >&2
  cores="$avail"
fi

store=$(mktemp -d)
trap 'rm -rf "$store"' EXIT

cmd=(cargo run --release -p lowutil-bench --bin table1 --
     --size default --store "$store" --jobs "$cores" --json "$out")
if command -v taskset >/dev/null 2>&1; then
  taskset -c "0-$((cores - 1))" "${cmd[@]}"
else
  # Best effort: no taskset (non-Linux or minimal container). The run
  # is unpinned, but "cores" still records detected parallelism.
  echo "taskset unavailable; running unpinned on $avail core(s)" >&2
  "${cmd[@]}"
fi
echo "wrote $out (cores=$cores)"
