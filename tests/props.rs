//! Property-based tests over randomly generated programs: the whole
//! pipeline (VM → profilers → analyses) must satisfy its invariants on
//! arbitrary data flow — including interprocedural calls and forward
//! branches — not just on the hand-written workloads.
//!
//! The program grammar, builder, and differential oracle live in
//! `lowutil-testkit` (`gen::op_strategy` is defined exactly once in the
//! workspace); this file only states pipeline properties.

use lowutil::core::{ConcreteProfiler, CostGraphConfig, CostProfiler, SlicingMode};
use lowutil::vm::{NullTracer, Vm};
use lowutil_testkit::diff::assert_live_replay_identical;
use lowutil_testkit::gen::{build, op_strategy, oracle, Op};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vm_matches_a_direct_semantic_model(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let p = build(&ops);
        let run = Vm::new(&p).run(&mut NullTracer).unwrap();
        let got: Vec<i64> = run
            .output
            .iter()
            .map(|v| v.as_int().expect("generated programs print ints"))
            .collect();
        prop_assert_eq!(got, oracle(&ops).output);
    }

    #[test]
    fn vm_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let p = build(&ops);
        let a = Vm::new(&p).run(&mut NullTracer).unwrap();
        let b = Vm::new(&p).run(&mut NullTracer).unwrap();
        prop_assert_eq!(a.output.len(), b.output.len());
        prop_assert_eq!(a.instructions_executed, b.instructions_executed);
        for (x, y) in a.output.iter().zip(b.output.iter()) {
            prop_assert_eq!(x.as_int(), y.as_int());
        }
    }

    #[test]
    fn profiling_is_transparent(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let p = build(&ops);
        let plain = Vm::new(&p).run(&mut NullTracer).unwrap();
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let tracked = Vm::new(&p).run(&mut prof).unwrap();
        prop_assert_eq!(plain.instructions_executed, tracked.instructions_executed);
        prop_assert_eq!(plain.output, tracked.output);
    }

    #[test]
    fn abstract_graph_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let p = build(&ops);
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let out = Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        // Frequencies sum to profiled instances.
        let freq: u64 = g.graph().iter().map(|(_, n)| n.freq).sum();
        prop_assert!(freq <= g.instr_instances());
        // Forward-only branches: main's nodes fire at most once; the
        // shared `double` callee runs once per *executed* Call op under
        // the same (empty) context, so its nodes accumulate exactly that
        // frequency. (Skipped calls must not count — the oracle reports
        // how many actually ran.) The spawned `worker` callee runs under
        // per-thread salted contexts: usually one node per thread, but
        // salts may collide in the slotted encoding, so a worker node's
        // frequency is only bounded by the spawn count.
        let run = oracle(&ops);
        let calls = run.executed_calls;
        let workers = run.spawned_workers;
        for (_, n) in g.graph().iter() {
            prop_assert!(
                n.freq == 1 || n.freq == calls || n.freq <= workers,
                "unexpected node frequency {} with {} executed calls, {} workers",
                n.freq,
                calls,
                workers
            );
        }
        // Node count bounded by static instructions times live contexts:
        // main + Call frames share the empty context, and each spawned
        // worker adds at most one thread-salted context.
        prop_assert!(g.graph().num_nodes() <= p.num_instrs() * (1 + workers as usize));
        prop_assert!(g.instr_instances() <= out.instructions_executed);
    }

    #[test]
    fn thin_slices_never_exceed_traditional(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let p = build(&ops);
        let mut thin = ConcreteProfiler::new(SlicingMode::Thin);
        Vm::new(&p).run(&mut thin).unwrap();
        let thin = thin.finish();
        let mut trad = ConcreteProfiler::new(SlicingMode::Traditional);
        Vm::new(&p).run(&mut trad).unwrap();
        let trad = trad.finish();
        prop_assert_eq!(thin.num_instances(), trad.num_instances());
        // Same seed instance in both graphs (identical traces): the thin
        // backward slice is a subset of the traditional one.
        let n = thin.num_instances() as u32;
        for i in (0..n).step_by(7) {
            let seed = lowutil::core::InstanceId(i);
            let ts = thin.backward_slice(seed);
            let rs = trad.backward_slice(seed);
            prop_assert!(ts.len() <= rs.len());
            prop_assert!(ts.iter().all(|x| rs.contains(x)));
        }
    }

    #[test]
    fn export_round_trips_on_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let p = build(&ops);
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let mut buf = Vec::new();
        lowutil::core::write_cost_graph(&g, &mut buf).unwrap();
        let g2 = lowutil::core::read_cost_graph(buf.as_slice()).unwrap();
        prop_assert_eq!(g.graph().num_nodes(), g2.graph().num_nodes());
        prop_assert_eq!(g.graph().num_edges(), g2.graph().num_edges());
        prop_assert_eq!(g.objects(), g2.objects());
        for (_, n) in g.graph().iter() {
            let id2 = g2.graph().find(n.instr, &n.elem).expect("node survives");
            prop_assert_eq!(g2.graph().node(id2).freq, n.freq);
        }
    }

    #[test]
    fn auto_elimination_is_safe_on_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let p = build(&ops);
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let before = Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let (opt, _) = lowutil::analyses::eliminate_dead_instructions(&p, &g)
            .expect("rewrite validates");
        let after = Vm::new(&opt).run(&mut NullTracer).expect("optimized runs");
        prop_assert_eq!(before.output, after.output);
        prop_assert!(after.instructions_executed <= before.instructions_executed);
    }

    #[test]
    fn replay_matches_live(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let p = build(&ops);
        // A tiny segment limit so any generated call splits the trace;
        // the helper asserts live == replay, canonically.
        assert_live_replay_identical(
            &p,
            CostGraphConfig::default(),
            8,
            "props::replay_matches_live",
        );
    }

    #[test]
    fn branches_actually_branch(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        // The grammar's Skip ops must be live: when a program contains
        // one, the VM may execute fewer instructions than a skip-free
        // rewrite of the same list. This guards the generator itself —
        // if Skip silently became a no-op, interprocedural coverage
        // claims would rot.
        let p = build(&ops);
        let run = Vm::new(&p).run(&mut NullTracer).unwrap();
        let straight: Vec<Op> = ops
            .iter()
            .filter(|o| !matches!(o, Op::Skip(..)))
            .cloned()
            .collect();
        let ps = build(&straight);
        let runs = Vm::new(&ps).run(&mut NullTracer).unwrap();
        // Skips only remove work, never add it: the branching program
        // executes at most the straight-line instruction count plus one
        // branch instruction per Skip op.
        let skips = (ops.len() - straight.len()) as u64;
        prop_assert!(run.instructions_executed <= runs.instructions_executed + skips);
    }

    #[test]
    fn dead_metrics_are_fractions(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let p = build(&ops);
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let out = Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let m = lowutil::analyses::dead::dead_value_metrics(&g, out.instructions_executed);
        prop_assert!((0.0..=1.0).contains(&m.ipd));
        prop_assert!((0.0..=1.0).contains(&m.ipp));
        prop_assert!((0.0..=1.0).contains(&m.nld));
    }
}
