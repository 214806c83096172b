//! End-to-end record/replay identity over the full workload suite: for
//! every benchmark, a trace recorded during a live profiled run must
//! replay to a `G_cost` byte-identical (under the canonical serialization) to the one the
//! live profiler produced in the same run. The identity
//! itself is stated once, in `lowutil_testkit::diff`; this file binds it
//! to the suite workloads and adds the trailer bookkeeping checks.

use lowutil::analyses::{
    copy_chains, copy_profiler, method_costs, null_tracking_profiler, AllocationProfiler,
    CallGraphTracer, StalenessTracer,
};
use lowutil::core::{
    replay_cost_graph, ConcreteProfiler, CostGraphConfig, DepGraph, GraphBuilder, InstanceId,
    SlicingMode,
};
use lowutil::ir::Program;
use lowutil::vm::trace::DEFAULT_SEGMENT_LIMIT;
use lowutil::vm::{CountingSink, EventSink, StreamingReader, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{map_suite, workload, WorkloadSize, CONCURRENT_NAMES};
use lowutil_testkit::diff::{assert_live_replay_identical, canon, record_with_live_graph};
use std::fmt::Debug;
use std::hash::Hash;

/// Records a trace while live-profiling in the same run (one VM pass,
/// two sinks), then checks the replay against the live graph.
fn check_workload(program: &lowutil::ir::Program, config: CostGraphConfig, name: &str) {
    // Small segment limit so every workload produces several segments.
    let bytes = assert_live_replay_identical(program, config, 256, name);

    // Trailer bookkeeping: totals must match an independent re-run.
    let mut builder = GraphBuilder::new(program, config);
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), 256);
    let out = Vm::new(program)
        .run(&mut (&mut builder, &mut writer))
        .unwrap_or_else(|e| panic!("{name} trapped: {e}"));
    let (bytes2, stats) = writer.finish().expect("in-memory trace write succeeds");
    assert_eq!(bytes, bytes2, "{name}: recording is not deterministic");
    let _ = canon(&builder.finish());

    let reader = TraceReader::new(&bytes).unwrap_or_else(|e| panic!("{name}: bad trace: {e}"));
    let trailer = reader.trailer();
    assert_eq!(trailer.instructions, out.instructions_executed, "{name}");
    assert_eq!(
        trailer.objects_allocated, out.objects_allocated as u64,
        "{name}"
    );
    assert_eq!(trailer.events, stats.events, "{name}");
    assert_eq!(trailer.segments, stats.segments, "{name}");
}

#[test]
fn suite_replays_identically_at_every_job_count() {
    map_suite(WorkloadSize::Small, lowutil::par::default_jobs(), |w| {
        check_workload(&w.program, CostGraphConfig::default(), w.name);
    });
}

#[test]
fn suite_replays_identically_under_ablation_configs() {
    // The configs the ablation study cares about; phase limiting and
    // traditional uses change which events matter, so replay must agree
    // with the live builder under both.
    let configs = [
        CostGraphConfig {
            phase_limited: true,
            ..CostGraphConfig::default()
        },
        CostGraphConfig {
            traditional_uses: true,
            control_edges: true,
            ..CostGraphConfig::default()
        },
    ];
    for config in configs {
        for name in ["tradebeans", "derby", "chart", "bloat"] {
            let w = lowutil::workloads::workload(name, WorkloadSize::Small);
            check_workload(&w.program, config, name);
        }
    }
}

/// The inline caches (per-instruction node and edge caches) only skip
/// work: over the whole suite, switching them off changes no byte of the
/// canonical export, live or replayed.
#[test]
fn suite_graphs_are_identical_with_inline_caches_on_and_off() {
    map_suite(WorkloadSize::Small, lowutil::par::default_jobs(), |w| {
        let on = CostGraphConfig::default();
        let off = CostGraphConfig {
            inline_caches: false,
            ..on
        };
        let (bytes, _, live_on) = record_with_live_graph(&w.program, on, 256);
        let (_, _, live_off) = record_with_live_graph(&w.program, off, 256);
        let want = canon(&live_on);
        assert!(canon(&live_off) == want, "{}: live graphs differ", w.name);
        let reader = TraceReader::new(&bytes).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for config in [on, off] {
            let g = replay_cost_graph(&w.program, config, &reader)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", w.name));
            assert!(
                canon(&g) == want,
                "{}: replay with inline_caches {} differs",
                w.name,
                config.inline_caches
            );
        }
    });
}

/// Every suite trace recorded at the default limits is made of bounded
/// segments: none holds more than `DEFAULT_SEGMENT_LIMIT` records, and
/// none is larger than `DEFAULT_STREAM_RECORD_LIMIT`, since the
/// streaming reader at that limit takes every one. A daemon buffers at
/// most one small segment per session.
#[test]
fn suite_segments_are_bounded_at_the_default_limits() {
    map_suite(WorkloadSize::Small, lowutil::par::default_jobs(), |w| {
        let mut writer = TraceWriter::new(Vec::new());
        Vm::new(&w.program)
            .run(&mut writer)
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let (bytes, _) = writer.finish().expect("in-memory trace write succeeds");
        let reader = TraceReader::new(&bytes).expect("trace parses");
        for (i, seg) in reader.segments().iter().enumerate() {
            let mut count = CountingSink::new();
            seg.replay(&mut count).expect("segment replays");
            let records = count.events + count.pushes + count.pops;
            assert!(
                records <= DEFAULT_SEGMENT_LIMIT as u64,
                "{}: segment {i} holds {records} records",
                w.name
            );
        }
        let mut stream = StreamingReader::new();
        stream
            .feed(&bytes, &mut CountingSink::new())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(stream.is_complete(), "{}", w.name);
    });
}

/// Every node of an abstract graph in id order, with its successors.
fn dump_graph<D: Clone + Debug + Eq + Hash>(g: &DepGraph<D>) -> String {
    g.iter()
        .map(|(id, n)| format!("{n:?} -> {:?}\n", g.succs(id)))
        .collect()
}

/// Runs the analysis clients over one event stream, live or replayed,
/// and renders everything they found.
fn run_clients(program: &Program, feed: impl FnOnce(&mut dyn EventSink)) -> String {
    let mut copies = copy_profiler();
    let mut nulls = null_tracking_profiler();
    let mut calls = CallGraphTracer::new();
    let mut allocs = AllocationProfiler::new();
    let mut stale = StalenessTracer::new();
    let mut concrete = ConcreteProfiler::new(SlicingMode::Thin);
    feed(&mut (
        (&mut copies, &mut nulls),
        ((&mut calls, &mut allocs), (&mut stale, &mut concrete)),
    ));
    let (copy_graph, _) = copies.finish();
    let (null_graph, _) = nulls.finish();
    let mut edges: Vec<_> = calls.edges().collect();
    edges.sort_unstable();
    let concrete = concrete.finish();
    let instances: Vec<_> = (0..concrete.num_instances() as u32)
        .map(|i| {
            let id = InstanceId(i);
            (concrete.instance(id), concrete.preds(id).to_vec())
        })
        .collect();
    format!(
        "copies\n{}{:?}\nnulls\n{}calls {:?}\n{:?}\nallocs {} {:?}\nstale {:?}\nconcrete {:?}\n",
        dump_graph(&copy_graph),
        copy_chains(&copy_graph),
        dump_graph(&null_graph),
        edges,
        method_costs(&calls, program),
        allocs.total(),
        allocs.hot_sites(),
        stale.by_site(),
        instances,
    )
}

/// The analysis clients cannot tell a replayed trace from the live run
/// that recorded it: each finds the same graphs, chains, call edges,
/// allocation counts, staleness and concrete dependences. The programs
/// include every multithreaded workload, so the replayed thread switches
/// are checked too, and the small segment limit splits every trace.
#[test]
fn analysis_clients_replay_like_live() {
    for name in ["bloat", "derby", "sunflow"]
        .into_iter()
        .chain(CONCURRENT_NAMES)
    {
        let w = workload(name, WorkloadSize::Small);
        let mut writer = TraceWriter::with_segment_limit(Vec::new(), 256);
        let live = run_clients(&w.program, |clients| {
            Vm::new(&w.program)
                .run(&mut (clients, &mut writer))
                .unwrap_or_else(|e| panic!("{name} trapped: {e}"));
        });
        let (bytes, stats) = writer.finish().expect("in-memory trace write succeeds");
        assert!(stats.segments > 1, "{name}: trace must span segments");
        let reader = TraceReader::new(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let replayed = run_clients(&w.program, |mut clients| {
            reader
                .replay(&mut clients)
                .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        });
        assert!(
            live == replayed,
            "{name}: replayed clients disagree with live"
        );
    }
}
