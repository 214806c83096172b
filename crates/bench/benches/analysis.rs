//! Client-analysis benches: per-seed reference ranking vs the batch
//! engine, the one-pass consumer marking vs the per-read forward slices
//! it replaces, and the dead-value metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lowutil_analyses::batch::BatchAnalyzer;
use lowutil_analyses::cost::CostBenefitConfig;
use lowutil_analyses::dead::dead_value_metrics;
use lowutil_analyses::structure::{rank_structures, rank_structures_batch};
use lowutil_core::{CostGraph, CostGraphConfig, CostProfiler, CsrGraph};
use lowutil_vm::Vm;
use lowutil_workloads::{workload, WorkloadSize};

/// The workload's default-config graph and its instruction count.
fn profiled(name: &str) -> (CostGraph, u64) {
    let w = workload(name, WorkloadSize::Small);
    let mut prof = CostProfiler::new(&w.program, CostGraphConfig::default());
    let out = Vm::new(&w.program).run(&mut prof).expect("runs");
    (prof.finish(), out.instructions_executed)
}

fn bench_rank_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/rank_structures");
    for name in ["chart", "derby", "eclipse"] {
        let (graph, _) = profiled(name);
        let cfg = CostBenefitConfig::default();
        group.bench_with_input(BenchmarkId::new("reference", name), &graph, |b, g| {
            b.iter(|| rank_structures(g, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("batch", name), &graph, |b, g| {
            b.iter(|| rank_structures_batch(g, &cfg, 1))
        });
    }
    group.finish();
}

fn bench_consumer_marking(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/consumer_marking");
    for name in ["chart", "eclipse"] {
        let (graph, _) = profiled(name);
        // The replaced shape: one heap-bounded forward slice per heap
        // load, asking whether it hits a consumer.
        group.bench_with_input(BenchmarkId::new("per-read", name), &graph, |b, g| {
            b.iter(|| {
                let mut hits = 0usize;
                for obj in g.objects() {
                    for field in g.fields_of(obj) {
                        for &r in g.reads_of(obj, field) {
                            if lowutil_analyses::cost::reaches_consumer(g, r) {
                                hits += 1;
                            }
                        }
                    }
                }
                hits
            })
        });
        // The batch shape: one reverse pass marks every node at once.
        let csr = CsrGraph::build(graph.graph());
        group.bench_with_input(BenchmarkId::new("one-pass", name), &csr, |b, g| {
            b.iter(|| g.mark_consumer_reach().count())
        });
    }
    group.finish();
}

fn bench_engine_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/batch_build");
    for name in ["chart", "eclipse"] {
        let (graph, _) = profiled(name);
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, g| {
            b.iter(|| BatchAnalyzer::new(g))
        });
    }
    group.finish();
}

fn bench_dead_values(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/dead_values");
    for name in ["bloat", "fop"] {
        let (graph, total) = profiled(name);
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, g| {
            b.iter(|| dead_value_metrics(g, total))
        });
    }
    group.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_rank_engines, bench_consumer_marking, bench_engine_build,
        bench_dead_values
}
criterion_main!(benches);
