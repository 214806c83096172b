//! The batch cost-benefit engine must be indistinguishable from the
//! per-seed reference: identical per-node HRAC/HRAB and consumer flags,
//! identical per-location RAC/RAB, and byte-identical reports — on
//! random programs and on the whole workload suite.

use lowutil::analyses::batch::{BatchAnalyzer, CostEngine, ReferenceEngine};
use lowutil::analyses::cost::{rab_with, rac_with, CostBenefitConfig};
use lowutil::analyses::dead::{dead_value_metrics, dead_value_metrics_csr};
use lowutil::analyses::report::{
    low_utility_report, low_utility_report_batch, low_utility_report_with,
};
use lowutil::core::{CostGraph, CostGraphConfig, CostProfiler};
use lowutil::ir::Program;
use lowutil::vm::Vm;
// The shared generator from `lowutil-testkit` — the same grammar as
// `tests/props.rs` (heap traffic, consumers, interprocedural `Call`s,
// and forward branches), so the engines' boundary cases get exercised
// on non-straight-line flow too.
use lowutil_testkit::gen::{build, op_strategy};
use proptest::prelude::*;

fn profile(p: &Program) -> CostGraph {
    let mut prof = CostProfiler::new(p, CostGraphConfig::default());
    Vm::new(p).run(&mut prof).expect("generated program runs");
    prof.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_engine_matches_reference_per_node(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let p = build(&ops);
        let g = profile(&p);
        let reference = ReferenceEngine::new(&g);
        let batch = BatchAnalyzer::new(&g);
        for (id, _) in g.graph().iter() {
            prop_assert_eq!(batch.hrac(id), reference.hrac(id));
            prop_assert_eq!(batch.hrab(id), reference.hrab(id));
            prop_assert_eq!(batch.reaches_consumer(id), reference.reaches_consumer(id));
        }
    }

    #[test]
    fn batch_engine_matches_reference_per_location(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let p = build(&ops);
        let g = profile(&p);
        let cfg = CostBenefitConfig::default();
        let reference = ReferenceEngine::new(&g);
        let batch = BatchAnalyzer::new(&g);
        for obj in g.objects() {
            for field in g.fields_of(obj) {
                // Bit-identical f64s: both engines feed the same exact
                // u64 sums through the same aggregation.
                prop_assert_eq!(
                    rac_with(&g, obj, field, &batch),
                    rac_with(&g, obj, field, &reference)
                );
                prop_assert_eq!(
                    rab_with(&g, obj, field, &cfg, &batch).to_bits(),
                    rab_with(&g, obj, field, &cfg, &reference).to_bits()
                );
            }
        }
    }

    #[test]
    fn batch_report_is_byte_identical_on_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let p = build(&ops);
        let g = profile(&p);
        let cfg = CostBenefitConfig::default();
        let reference = low_utility_report(&p, &g, &cfg, 10, None);
        let batch = low_utility_report_batch(&p, &g, &cfg, 10, None, 1);
        prop_assert_eq!(&reference, &batch);
    }
}

/// The whole workload suite: the canonical report export (ranking plus
/// dead-value metrics) must be byte-identical across engines, and the
/// dead-value metrics read off the batch engine's snapshot (as `lowutil`
/// does) must equal those of a fresh one.
#[test]
fn batch_report_matches_reference_on_the_suite() {
    for w in lowutil::workloads::suite(lowutil::workloads::WorkloadSize::Small) {
        let mut prof = CostProfiler::new(&w.program, CostGraphConfig::default());
        let out = Vm::new(&w.program).run(&mut prof).expect("workload runs");
        let g = prof.finish();
        let n = out.instructions_executed;
        let dead = dead_value_metrics(&g, n);
        let engine = BatchAnalyzer::new(&g);
        let shared = dead_value_metrics_csr(engine.csr(), n);
        assert_eq!(shared, dead, "{}: dead-value metrics diverged", w.name);
        let cfg = CostBenefitConfig::default();
        let reference = low_utility_report(&w.program, &g, &cfg, 10, Some(&dead));
        let batch = low_utility_report_with(&w.program, &g, &cfg, 10, Some(&shared), &engine);
        assert_eq!(reference, batch, "{}: report diverged", w.name);
    }
}
