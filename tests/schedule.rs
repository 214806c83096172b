//! Schedule independence: the scheduler seed picks the guest-thread
//! interleaving, and for race-free programs — every built-in workload,
//! and every generated program (workers are pure and join-synchronized)
//! — the interleaving must be invisible in the results. The canonical
//! export is byte-identical across seeds and across a record→replay
//! round trip; program output is identical too.

use lowutil::core::{
    replay_cost_graph, write_cost_graph, CostGraph, CostGraphConfig, CostProfiler,
};
use lowutil::ir::Program;
use lowutil::vm::{RunConfig, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize, CONCURRENT_NAMES};
use lowutil_testkit::gen::{build, op_strategy};
use proptest::prelude::*;

fn export(g: &CostGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_cost_graph(g, &mut buf).expect("in-memory export succeeds");
    buf
}

fn vm_with_seed(p: &Program, sched_seed: u64) -> Vm<'_> {
    Vm::with_config(
        p,
        RunConfig {
            sched_seed,
            ..RunConfig::default()
        },
    )
}

/// Live sequential profile under one scheduler seed.
fn live(p: &Program, config: CostGraphConfig, seed: u64) -> (Vec<u8>, Vec<lowutil::ir::Value>) {
    let mut prof = CostProfiler::new(p, config);
    let out = vm_with_seed(p, seed).run(&mut prof).expect("program runs");
    (export(&prof.finish()), out.output)
}

/// Records a trace under one scheduler seed.
fn record(p: &Program, seed: u64, segment_limit: usize) -> Vec<u8> {
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), segment_limit);
    vm_with_seed(p, seed)
        .run(&mut writer)
        .expect("program runs");
    let (bytes, _) = writer.finish().expect("in-memory write cannot fail");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every concurrent workload: an arbitrary scheduler seed produces
    /// the same canonical export and output as seed 0.
    #[test]
    fn concurrent_workloads_are_seed_independent(seed in any::<u64>()) {
        let config = CostGraphConfig::default();
        for name in CONCURRENT_NAMES {
            let w = workload(name, WorkloadSize::Small);
            let (reference, out_ref) = live(&w.program, config, 0);
            let (seeded, out_seeded) = live(&w.program, config, seed);
            prop_assert_eq!(&out_ref, &out_seeded);
            prop_assert!(reference == seeded, "{}: export diverged at seed {}", name, seed);
        }
    }

    /// A trace recorded under an arbitrary seed replays to the same
    /// canonical export the live run built, which itself equals the
    /// seed-0 export.
    #[test]
    fn record_replay_round_trips_under_any_seed(seed in any::<u64>()) {
        let config = CostGraphConfig::default();
        for name in CONCURRENT_NAMES {
            let w = workload(name, WorkloadSize::Small);
            let (reference, _) = live(&w.program, config, 0);
            let bytes = record(&w.program, seed, 8);
            let reader = TraceReader::new(&bytes)
                .unwrap_or_else(|e| panic!("{name}: fresh recording failed to parse: {e}"));
            let g = replay_cost_graph(&w.program, config, &reader)
                .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
            prop_assert!(
                export(&g) == reference,
                "{}: replayed export diverged at seed {}",
                name, seed
            );
        }
    }

    /// Generated programs spawn pure, immediately-joined workers, so
    /// they are race-free by construction: their exports must also be
    /// seed-independent.
    #[test]
    fn generated_thread_programs_are_seed_independent(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        let p = build(&ops);
        let config = CostGraphConfig::default();
        let (reference, out_ref) = live(&p, config, 0);
        let (seeded, out_seeded) = live(&p, config, seed);
        prop_assert_eq!(out_ref, out_seeded);
        prop_assert!(seeded == reference, "export diverged at seed {}", seed);
    }
}

/// A pinned, deterministic spot check (no proptest shrinkage noise):
/// named seeds × segment limits on every concurrent
/// workload, each live run and each record→replay held to the seed-0
/// live export.
#[test]
fn concurrent_workload_matrix_is_byte_identical() {
    let config = CostGraphConfig::default();
    for name in CONCURRENT_NAMES {
        let w = workload(name, WorkloadSize::Small);
        let (reference, _) = live(&w.program, config, 0);
        for seed in [1u64, 42, 0xFEED_FACE] {
            let (seeded, _) = live(&w.program, config, seed);
            assert_eq!(seeded, reference, "{name}: live diverged at seed={seed}");
            for limit in [1usize, 64, 4096] {
                let bytes = record(&w.program, seed, limit);
                let reader = TraceReader::new(&bytes).expect("fresh recording parses");
                let g = replay_cost_graph(&w.program, config, &reader).expect("trace replays");
                assert_eq!(
                    export(&g),
                    reference,
                    "{name}: diverged at seed={seed} limit={limit}"
                );
            }
        }
    }
}
