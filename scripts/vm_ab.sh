#!/usr/bin/env bash
# A/B timing of the interpreter: HEAD against another commit.
#
# Archives HEAD and <sha> with `git archive` into a work directory, drops
# the same small timing bin into both trees' lowutil-bench crate, builds
# each in release mode and runs interleaved rounds (the order alternates
# per round, pinned to one core with taskset when available). A round
# times the single-threaded suite programs at `small`, plain
# (`run_plain`) and profiled (`run_profiled`), each the minimum of three
# runs, and prints the two sums. The bin uses only APIs that exist in
# both trees, so any commit since the suite reached 18 programs works.
#
# Usage: scripts/vm_ab.sh <sha> [rounds]
#   sha     the commit to compare HEAD against
#   rounds  interleaved rounds (default 15)
# Set VM_AB_DIR to keep the archived trees and their builds between runs
# (default: a fresh temporary directory, removed on exit).
#
# Prints, per side, the min and median of the plain and profiled sums,
# then the median over rounds of HEAD's time divided by <sha>'s.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <sha> [rounds]" >&2
  exit 2
fi
base="$1"
rounds="${2:-15}"
cd "$(dirname "$0")/.."

if [ -n "${VM_AB_DIR:-}" ]; then
  work="$VM_AB_DIR"
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi

pin=()
if command -v taskset >/dev/null 2>&1; then
  pin=(taskset -c 0)
else
  echo "taskset unavailable; running unpinned" >&2
fi

build() { # <rev> <dir>
  local sha
  sha=$(git rev-parse --verify "$1^{commit}")
  if [ "$(cat "$2/.vm_ab_rev" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$2"
    mkdir -p "$2"
    git archive "$sha" | tar -x -C "$2"
    echo "$sha" > "$2/.vm_ab_rev"
  fi
  cat > "$2/crates/bench/src/bin/vm_ab.rs" <<'EOF'
//! One vm_ab round: the single-threaded suite programs at `small`, each
//! the minimum of three runs. Prints "<plain ms> <profiled ms>".
use lowutil_bench::{run_plain, run_profiled};
use lowutil_workloads::{workload, WorkloadSize, NAMES};
use std::time::Duration;

const MULTITHREADED: [&str; 3] = ["pcqueue", "mtserver", "forkjoin"];
const REPS: usize = 3;

fn main() {
    let (mut plain, mut profiled) = (Duration::ZERO, Duration::ZERO);
    for name in NAMES.iter().filter(|n| !MULTITHREADED.contains(n)) {
        let w = workload(name, WorkloadSize::Small);
        plain += (0..REPS).map(|_| run_plain(&w.program).1).min().unwrap();
        profiled += (0..REPS)
            .map(|_| run_profiled(&w.program, Default::default()).2)
            .min()
            .unwrap();
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("{:.3} {:.3}", ms(plain), ms(profiled));
}
EOF
  echo "building $1 in $2" >&2
  (cd "$2" && cargo build --release --offline --quiet -p lowutil-bench --bin vm_ab)
}

build "$base" "$work/base"
build HEAD "$work/head"

results="$work/rounds.txt"
: > "$results"
for r in $(seq "$rounds"); do
  if [ $((r % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    read -r plain profiled < <("${pin[@]}" "$work/$side/target/release/vm_ab")
    echo "$r $side $plain $profiled" >> "$results"
  done
done

summary() { # the min and median of the numbers on stdin, one a line
  sort -g | awk '{ v[NR] = $1 } END {
    m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
    printf "%.3f %.3f\n", v[1], m }'
}
column() { # <side> <column>
  awk -v s="$1" -v c="$2" '$2 == s { print $c }' "$results"
}
ratios() { # <column>: head/base, one a round
  awk -v c="$1" -v n="$rounds" '{ t[$1, $2] = $c }
    END { for (r = 1; r <= n; r++) print t[r, "head"] / t[r, "base"] }' "$results"
}

echo "$rounds interleaved rounds; sums over the single-threaded suite at small (ms)"
printf '%-10s %10s %10s %10s %10s\n' side plain_min plain_med prof_min prof_med
for side in base head; do
  if [ "$side" = base ]; then label="$base"; else label=HEAD; fi
  read -r pmin pmed < <(column "$side" 3 | summary)
  read -r qmin qmed < <(column "$side" 4 | summary)
  printf '%-10s %10s %10s %10s %10s\n' "${label:0:10}" "$pmin" "$pmed" "$qmin" "$qmed"
done
read -r _ plain < <(ratios 3 | summary)
read -r _ profiled < <(ratios 4 | summary)
echo "median per-round ratio HEAD/$base: plain $plain  profiled $profiled"
