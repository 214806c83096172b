//! Allocation bound for the daemon's warm query path: once a
//! generation's view is materialized and its ranking memoised beside
//! it, `hash`, `stats`, and `rank` queries answer from the live
//! incremental state — O(1) scalar reads plus O(response) formatting. A regression that
//! re-materializes (`to_cost_graph`) or clones the graph per query
//! spikes the allocator high-water mark by the graph's live size and
//! fails the bound.
//!
//! Own test binary: the guard allocator counts every allocation in the
//! process, so sharing a binary with allocation-heavy tests would bury
//! the signal.

use lowutil::ir::Program;
use lowutil::serve::{push_trace, request, ServeConfig, Server};
use lowutil::vm::{RunConfig, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize};
use lowutil_testkit::alloc_guard::{self, GuardedAlloc};
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: GuardedAlloc = GuardedAlloc;

/// Headroom for per-connection plumbing — the accept thread, its
/// buffered reader and response strings — all bounded by connection
/// and response size, never by graph size.
const WARM_BUDGET_BYTES: usize = 32 << 10;

fn record(program: &Program) -> Vec<u8> {
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), 256);
    Vm::with_config(program, RunConfig::default())
        .run(&mut writer)
        .expect("workload runs");
    let (bytes, _) = writer.finish().expect("trace finishes");
    bytes
}

#[test]
fn warm_queries_allocate_o1() {
    let data: PathBuf =
        std::env::temp_dir().join(format!("lowutil-serve-warmalloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    // The widest suite graph, so a per-query graph copy lands far
    // outside the budget while genuine warm work stays bounded.
    let w = workload("eclipse", WorkloadSize::Small);
    let trace = record(&w.program);

    let handle = Server::start(ServeConfig {
        data_dir: data.clone(),
        default_size: WorkloadSize::Small,
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let resp = push_trace(&addr, "acme", "eclipse@small", "s1", &trace).unwrap();
    assert!(resp.starts_with("ok "), "push: {resp}");
    // Cold pass: materializes the generation's view and runs the engine
    // once, memoising the ranking. Repeat once so every lazy pool on the
    // connection path (thread locals, buffered readers) is warm.
    let cold = request(&addr, "query acme eclipse@small rank 5").unwrap();
    let warm = request(&addr, "query acme eclipse@small rank 5").unwrap();
    assert_eq!(cold, warm, "warm ranking reproduces the cold one");
    let hash = request(&addr, "query acme eclipse@small hash").unwrap();
    let stats = request(&addr, "query acme eclipse@small stats").unwrap();

    let baseline = alloc_guard::reset_peak();
    for _ in 0..4 {
        assert_eq!(
            request(&addr, "query acme eclipse@small hash").unwrap(),
            hash
        );
        assert_eq!(
            request(&addr, "query acme eclipse@small stats").unwrap(),
            stats
        );
        assert_eq!(
            request(&addr, "query acme eclipse@small rank 5").unwrap(),
            warm
        );
    }
    let grew = alloc_guard::peak_bytes().saturating_sub(baseline);
    assert!(
        grew < WARM_BUDGET_BYTES,
        "12 warm queries grew the allocation peak by {grew} bytes; \
         the warm path is supposed to answer from live scalars and the \
         memoised ranking, not rebuild or clone the graph"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
