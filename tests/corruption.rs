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

use lowutil::core::{replay_cost_graph, CostGraphConfig};
use lowutil::vm::trace::TRACE_MAGIC;
use lowutil::vm::{crc32, TraceReader, TRACE_VERSION};
use lowutil::workloads::{suite, workload, WorkloadSize};
use lowutil_testkit::alloc_guard::{self, GuardedAlloc};
use lowutil_testkit::diff::{assert_salvage_matches_prefix, record_with_live_graph};
use lowutil_testkit::gen::{build, op_strategy};
use lowutil_testkit::mutate::mutate;
use proptest::prelude::*;
use std::sync::{RwLock, RwLockReadGuard};

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

/// The hostile-id traces may allocate no more than this while they fail
/// offline replay. Unchecked, the builder sized a table by the id and
/// peaked at 143 MB and 346 MB; failing at the id check costs about
/// 28 KiB.
const HOSTILE_ID_CAP_BYTES: usize = 4 << 20;

/// The allocation counters are process-wide, so the tight hostile-id cap
/// is only meaningful while nothing else allocates: the sweeps share
/// this lock and the hostile-id test holds it alone.
static PEAK_WINDOW: RwLock<()> = RwLock::new(());

fn shared_window() -> RwLockReadGuard<'static, ()> {
    PEAK_WINDOW.read().unwrap_or_else(|e| e.into_inner())
}

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
    let _window = shared_window();
    let seeds = fuzz_seeds();
    for w in suite(WorkloadSize::Small) {
        let (bytes, stats, _) = record_with_live_graph(&w.program, CostGraphConfig::default(), 256);
        assert!(stats.segments >= 1, "{}: empty recording", w.name);
        sweep(&w.program, &bytes, seeds, w.name);
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A checksum-valid v3 trace: one segment on `thread` (no frames, not
/// in a phase) carrying `payload`, then a trailer.
fn framed_on(thread: u64, payload: &[u8]) -> Vec<u8> {
    let mut prologue = Vec::new();
    put_varint(&mut prologue, thread);
    prologue.extend_from_slice(&[0, 0, 0]);
    let mut body = vec![0, prologue.len() as u8];
    body.extend_from_slice(&prologue);
    put_varint(&mut body, payload.len() as u64);
    body.extend_from_slice(payload);
    let mut t = TRACE_MAGIC.to_vec();
    put_varint(&mut t, TRACE_VERSION);
    for (tag, body) in [(1, body), (2, vec![0, 0, 0, 0, 1])] {
        t.push(tag);
        put_varint(&mut t, body.len() as u64);
        t.extend_from_slice(&body);
        t.extend_from_slice(&crc32(&body).to_le_bytes());
    }
    t
}

/// The two tiny traces whose ids break the VM's dense numbering (a
/// segment on thread 4,000,000; an `Alloc` of object 4,000,000) parse,
/// then fail offline replay into a real program's graph builder at the
/// offsets `pins.rs` pins, without the builder sizing a table by the id.
#[test]
fn hostile_ids_fail_offline_replay_in_a_few_mib() {
    let w = workload("antlr", WorkloadSize::Small);
    // A frame push into method 0 with one local, then an `Alloc` at its
    // first instruction naming object 4,000,000.
    let alloc = [
        16, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0x80, 0x92, 0xf4, 0x01, 0, 0,
    ];
    let cases = [
        (
            framed_on(4_000_000, &[]),
            32,
            "17: segment runs on thread 4000000 but only 0 threads were spawned",
        ),
        (
            framed_on(0, &alloc),
            46,
            "21: alloc record names object 4000000 but is allocation 0",
        ),
    ];
    let _window = PEAK_WINDOW.write().unwrap_or_else(|e| e.into_inner());
    for (bytes, len, want) in cases {
        assert_eq!(bytes.len(), len, "{want}");
        let baseline = alloc_guard::reset_peak();
        let reader = TraceReader::new(&bytes).expect("checksum-valid trace parses");
        let e = replay_cost_graph(&w.program, CostGraphConfig::default(), &reader).expect_err(want);
        assert_eq!(format!("{}: {}", e.offset, e.message), want);
        let grown = alloc_guard::peak_bytes().saturating_sub(baseline);
        assert!(
            grown < HOSTILE_ID_CAP_BYTES,
            "{want}: allocation peak grew {grown} bytes"
        );
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
        let _window = shared_window();
        let p = build(&ops);
        let (bytes, _, _) = record_with_live_graph(&p, CostGraphConfig::default(), 4);
        sweep(&p, &bytes, 8, "random-program");
    }
}
