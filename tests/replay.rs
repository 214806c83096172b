//! End-to-end record/replay identity over the full workload suite: for
//! every benchmark, a trace recorded during a live profiled run must
//! replay to a `G_cost` byte-identical (under the canonical serialization) to the one the
//! live profiler produced in the same run. The identity
//! itself is stated once, in `lowutil_testkit::diff`; this file binds it
//! to the suite workloads and adds the trailer bookkeeping checks.

use lowutil::core::{replay_cost_graph, CostGraphConfig, GraphBuilder};
use lowutil::vm::trace::DEFAULT_SEGMENT_LIMIT;
use lowutil::vm::{CountingSink, SinkTracer, StreamingReader, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{map_suite, WorkloadSize};
use lowutil_testkit::diff::{assert_live_replay_identical, canon, record_with_live_graph};

/// Records a trace while live-profiling in the same run (one VM pass,
/// two sinks), then checks the replay against the live graph.
fn check_workload(program: &lowutil::ir::Program, config: CostGraphConfig, name: &str) {
    // Small segment limit so every workload produces several segments.
    let bytes = assert_live_replay_identical(program, config, 256, name);

    // Trailer bookkeeping: totals must match an independent re-run.
    let mut builder = GraphBuilder::new(program, config);
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), 256);
    let out = {
        let mut tracer = SinkTracer((&mut builder, &mut writer));
        Vm::new(program)
            .run(&mut tracer)
            .unwrap_or_else(|e| panic!("{name} trapped: {e}"))
    };
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
        let mut tracer = SinkTracer(TraceWriter::new(Vec::new()));
        Vm::new(&w.program)
            .run(&mut tracer)
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let (bytes, _) = tracer.0.finish().expect("in-memory trace write succeeds");
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
