//! Round-trip identity for the persistent CSR store: for every workload
//! in the suite, `build → save → load` must reproduce the graph exactly
//! — same canonical export bytes, same content hash, same report text —
//! and the snapshot written from a replay at any `jobs` value must be
//! byte-identical to the one written from the live profile.

use lowutil::analyses::dead::dead_value_metrics;
use lowutil::analyses::report::low_utility_report_batch;
use lowutil::analyses::CostBenefitConfig;
use lowutil::core::{
    content_hash, read_snapshot, write_cost_graph, write_snapshot, AlignedBuf, CostGraph,
    CostGraphConfig, CostProfiler,
};
use lowutil::ir::Program;
use lowutil::vm::{TraceReader, Vm};
use lowutil::workloads::{suite, WorkloadSize};
use lowutil_testkit::diff::record_with_live_graph;
use lowutil_testkit::gen::{build, op_strategy};
use proptest::prelude::*;

fn export_bytes(g: &CostGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_cost_graph(g, &mut buf).expect("in-memory export succeeds");
    buf
}

fn snapshot_bytes(g: &CostGraph, instructions: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(g, instructions, &mut buf).expect("in-memory snapshot succeeds");
    buf
}

/// Profiles `program` live and checks every identity the store promises.
fn assert_round_trip(program: &Program, name: &str) {
    let mut prof = CostProfiler::new(program, CostGraphConfig::default());
    let out = Vm::new(program).run(&mut prof).expect("program runs");
    let live = prof.finish();
    let bytes = snapshot_bytes(&live, out.instructions_executed);

    let buf = AlignedBuf::from_bytes(&bytes);
    let snap =
        read_snapshot(&buf).unwrap_or_else(|e| panic!("{name}: clean snapshot rejected: {e}"));
    assert_eq!(
        snap.content_hash(),
        content_hash(&live),
        "{name}: stored hash diverged from live graph's"
    );
    assert_eq!(
        snap.total_instructions(),
        out.instructions_executed,
        "{name}"
    );

    // The loaded graph is the live graph, byte for byte in canonical form.
    let loaded = snap.to_cost_graph();
    assert_eq!(
        export_bytes(&live),
        export_bytes(&loaded),
        "{name}: loaded canonical export diverged"
    );

    // And the report a user sees from the loaded graph is identical too.
    let cfg = CostBenefitConfig::default();
    let dead_live = dead_value_metrics(&live, out.instructions_executed);
    let dead_loaded = dead_value_metrics(&loaded, snap.total_instructions());
    let report_live = low_utility_report_batch(program, &live, &cfg, 10, Some(&dead_live), 1);
    let report_loaded = low_utility_report_batch(program, &loaded, &cfg, 10, Some(&dead_loaded), 1);
    assert_eq!(report_live, report_loaded, "{name}: report diverged");

    // Saving twice is deterministic, and re-saving the loaded graph
    // reproduces the original file exactly.
    assert_eq!(
        bytes,
        snapshot_bytes(&live, out.instructions_executed),
        "{name}: save is not deterministic"
    );
    assert_eq!(
        bytes,
        snapshot_bytes(&loaded, snap.total_instructions()),
        "{name}: save(load(save)) diverged"
    );
}

/// A snapshot saved from a replay must equal the live one at every
/// `jobs` value. Replay is one sequential pass at any `jobs` (a segment
/// fan-out did about twice the work and never beat one thread), so the
/// sweep pins that `jobs` stays invisible in the snapshot bytes.
fn assert_replayed_snapshots_agree(program: &Program, name: &str) {
    let config = CostGraphConfig::default();
    let (trace, _, live) = record_with_live_graph(program, config, 256);
    let reader = TraceReader::new(&trace).expect("recorded trace parses");
    let instructions = reader.trailer().instructions;
    let reference = snapshot_bytes(&live, instructions);
    for jobs in [1, 2, 7] {
        let replayed =
            lowutil::par::replay_gcost(program, config, &reader, jobs).expect("trace replays");
        assert_eq!(
            reference,
            snapshot_bytes(&replayed, instructions),
            "{name}: snapshot from jobs={jobs} replay diverged"
        );
    }
}

#[test]
fn suite_snapshots_round_trip() {
    for w in suite(WorkloadSize::Small) {
        assert_round_trip(&w.program, w.name);
    }
}

#[test]
fn suite_snapshots_identical_across_shard_counts() {
    for w in suite(WorkloadSize::Small) {
        assert_replayed_snapshots_agree(&w.program, w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs round-trip too: generator coverage reaches graph
    /// shapes (empty heaps, no consumers, single nodes) the curated
    /// suite never produces.
    #[test]
    fn random_program_snapshots_round_trip(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let p = build(&ops);
        assert_round_trip(&p, "random-program");
    }
}
