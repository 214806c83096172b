//! The no-panic corruption harness: arbitrary damage to a recorded
//! trace must never panic, abort, or trigger an absurd allocation —
//! the reader either parses, returns a `TraceError`, or (via salvage)
//! recovers a prefix that is provably the original's.
//!
//! All randomness is seeded from loop indices (`lowutil_testkit::mutate`
//! has no wall-clock anywhere), so any CI failure names a `(workload,
//! seed)` pair that replays bit-for-bit locally. The sweep width is
//! `LOWUTIL_FUZZ_SEEDS` per workload trace (default 24; CI runs 300,
//! which crosses the 5k-mutation acceptance bar across the suite).

use lowutil::core::CostGraphConfig;
use lowutil::vm::TraceReader;
use lowutil::workloads::{suite, WorkloadSize};
use lowutil_testkit::alloc_guard::{self, GuardedAlloc};
use lowutil_testkit::diff::{assert_salvage_matches_prefix, record_with_live_graph};
use lowutil_testkit::gen::{build, op_strategy};
use lowutil_testkit::mutate::mutate;
use proptest::prelude::*;

// Count every allocation in the test binary so a corrupt length field
// that slips past validation shows up as a peak explosion, not an OOM
// kill with no culprit.
#[global_allocator]
static ALLOC: GuardedAlloc = GuardedAlloc;

/// No mutated trace parse may allocate more than this beyond the live
/// heap at sweep start. The clean suite traces are a few hundred KiB;
/// half a GiB of headroom means only a runaway `with_capacity` from a
/// corrupt varint can trip it.
const ALLOC_CAP_BYTES: usize = 512 << 20;

fn fuzz_seeds() -> u64 {
    std::env::var("LOWUTIL_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Exercises one clean trace against `seeds` seeded mutations. Every
/// mutation goes through both the strict parse (must not panic) and the
/// salvage path with full prefix-identity checking.
fn sweep(program: &lowutil::ir::Program, bytes: &[u8], seeds: u64, name: &str) {
    let config = CostGraphConfig::default();
    let baseline = alloc_guard::reset_peak();
    for seed in 0..seeds {
        let (mutated, desc) = mutate(bytes, seed);
        // Strict parse: Ok or Err, never a panic. A mutation can be a
        // self-splice no-op, so Ok(clean) is legal.
        let _ = TraceReader::new(&mutated);
        // Salvage: whatever survives must be the original's prefix and
        // rebuild the prefix-restricted graph, canonically.
        let _ = assert_salvage_matches_prefix(program, config, bytes, &mutated, &desc);
        let peak = alloc_guard::peak_bytes();
        assert!(
            peak.saturating_sub(baseline) < ALLOC_CAP_BYTES,
            "{name}: {desc}: allocation peak {peak} blew past the sanity cap"
        );
    }
}

/// Every workload in the suite, `LOWUTIL_FUZZ_SEEDS` mutations each.
#[test]
fn suite_traces_survive_seeded_mutations() {
    let seeds = fuzz_seeds();
    for w in suite(WorkloadSize::Small) {
        let (bytes, stats, _) = record_with_live_graph(&w.program, CostGraphConfig::default(), 256);
        assert!(stats.segments >= 1, "{}: empty recording", w.name);
        sweep(&w.program, &bytes, seeds, w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs too: tiny segment limits give mutation-dense
    /// framing (many records per byte), covering header/index/checksum
    /// boundaries the big suite traces hit rarely.
    #[test]
    fn random_program_traces_survive_seeded_mutations(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let p = build(&ops);
        let (bytes, _, _) = record_with_live_graph(&p, CostGraphConfig::default(), 4);
        sweep(&p, &bytes, 8, "random-program");
    }
}
