//! Incremental absorb identity: maintaining an [`IncrementalCsr`]
//! across absorbs must be indistinguishable — in export bytes, snapshot
//! bytes, content hash, and ranked reports — from rebuilding the
//! canonical view from scratch after every absorb, on every workload,
//! under every absorb order.

use lowutil::analyses::dead::{dead_value_metrics, dead_value_metrics_csr};
use lowutil::analyses::{
    low_utility_report_batch, low_utility_report_with, CostBenefitConfig, IncrementalAnalyzer,
};
use lowutil::core::{
    content_hash, replay_cost_graph, write_cost_graph, write_snapshot, Aggregate, CostGraph,
    CostGraphConfig, IncrementalCsr,
};
use lowutil::ir::Program;
use lowutil::vm::{RunConfig, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize, NAMES};

fn record(program: &Program, sched_seed: u64) -> Vec<u8> {
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), 4096);
    Vm::with_config(
        program,
        RunConfig {
            sched_seed,
            ..RunConfig::default()
        },
    )
    .run(&mut writer)
    .expect("workload runs");
    writer.finish().expect("trace finishes").0
}

/// One session: the replayed cost graph plus its instruction count.
fn sessions(name: &str) -> (Program, Vec<(CostGraph, u64)>) {
    let w = workload(name, WorkloadSize::Small);
    let graphs = [0u64, 1]
        .iter()
        .map(|&seed| {
            let bytes = record(&w.program, seed);
            let reader = TraceReader::new(&bytes).expect("clean trace");
            let g = replay_cost_graph(&w.program, CostGraphConfig::default(), &reader)
                .expect("replay succeeds");
            (g, reader.trailer().instructions)
        })
        .collect();
    (w.program, graphs)
}

/// The from-scratch reference for an aggregate state: export bytes,
/// snapshot bytes, content hash.
fn reference(agg: &Aggregate) -> (Vec<u8>, Vec<u8>, u64) {
    let g = agg.to_cost_graph();
    let mut export = Vec::new();
    write_cost_graph(&g, &mut export).unwrap();
    let mut snap = Vec::new();
    write_snapshot(&g, agg.total_instructions(), &mut snap).unwrap();
    (export, snap, content_hash(&g))
}

/// Absorb the same suite of sessions in a given order twice — once
/// rebuilding from scratch after every absorb, once maintaining the
/// incremental view — and demand bit-identity at every step. The
/// trailing repeat of the first session exercises the frequency-only
/// fast path (all structure already present, only weights move).
fn check_order(program: &Program, program_sessions: &[(CostGraph, u64)], order: &[usize]) {
    let mut agg = Aggregate::new();
    let mut inc: Option<IncrementalCsr> = None;
    let mut rank: Option<IncrementalAnalyzer> = None;

    let steps: Vec<usize> = order.iter().chain([order[0]].iter()).copied().collect();
    for (step, &i) in steps.iter().enumerate() {
        let (g, instructions) = &program_sessions[i];
        let delta = agg.absorb(g, *instructions);
        if step >= order.len() {
            assert!(
                delta.is_freq_only(),
                "re-absorbing a seen session must be frequency-only"
            );
        }
        match inc.as_mut() {
            None => {
                let built = IncrementalCsr::new(&agg);
                rank = Some(IncrementalAnalyzer::new(&built, 1));
                inc = Some(built);
            }
            Some(view) => {
                let dirty = view.apply(&agg, &delta);
                rank.as_mut().unwrap().refresh(view, &dirty, 1);
            }
        }
        let view = inc.as_ref().unwrap();
        let analyzer = rank.as_ref().unwrap();

        let (export, snap, hash) = reference(&agg);
        assert!(
            view.export_bytes() == export,
            "step {step}: incremental export differs from rebuild"
        );
        let mut inc_snap = Vec::new();
        view.write_snapshot(agg.total_instructions(), &mut inc_snap)
            .unwrap();
        assert!(
            inc_snap == snap,
            "step {step}: incremental snapshot differs from rebuild"
        );
        assert_eq!(view.content_hash(), hash, "step {step}: content hash");

        // Ranked report: incremental rank maintenance must answer
        // exactly like a cold batch analysis of the rebuilt graph.
        let merged = agg.to_cost_graph();
        let cfg = CostBenefitConfig::default();
        let cold = low_utility_report_batch(program, &merged, &cfg, 10, None, 1);
        let warm =
            low_utility_report_with(program, &merged, &cfg, 10, None, &analyzer.engine(view));
        assert_eq!(cold, warm, "step {step}: ranked report differs");
        // `serve`'s report measures dead values over the live CSR.
        assert_eq!(
            dead_value_metrics_csr(view.csr(), agg.total_instructions()),
            dead_value_metrics(&merged, agg.total_instructions()),
            "step {step}: dead-value metrics differ"
        );
    }
}

#[test]
fn incremental_absorb_is_bit_identical_across_the_suite() {
    for name in NAMES {
        let (program, graphs) = sessions(name);
        for order in [&[0usize, 1][..], &[1, 0][..]] {
            check_order(&program, &graphs, order);
        }
    }
}

/// Seeds whose bounded region does not intersect the dirty set must be
/// answered from cache, and the refreshed state must agree slot for
/// slot with a full recompute.
#[test]
fn unchanged_regions_reuse_cached_ranks() {
    let (_program, graphs) = sessions("antlr");
    let mut agg = Aggregate::new();
    let (g0, n0) = &graphs[0];
    agg.absorb(g0, *n0);
    let mut inc = IncrementalCsr::new(&agg);
    let mut rank = IncrementalAnalyzer::new(&inc, 1);

    // Absorb the second session incrementally.
    let (g1, n1) = &graphs[1];
    let delta = agg.absorb(g1, *n1);
    let dirty = inc.apply(&agg, &delta);
    let reused = rank.refresh(&inc, &dirty, 1);

    // A full recompute of the refreshed state must agree everywhere.
    let cold = IncrementalAnalyzer::new(&inc, 1);
    assert_eq!(rank.hrac_slots(), cold.hrac_slots(), "hrac after refresh");
    assert_eq!(rank.hrab_slots(), cold.hrab_slots(), "hrab after refresh");

    // And the refresh must actually have reused something: a one-session
    // delta on a two-session aggregate cannot dirty every seed.
    assert!(
        reused.recomputed <= reused.total,
        "recomputed {} of {} seeds",
        reused.recomputed,
        reused.total
    );
}
