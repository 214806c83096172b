//! The metrics the benchmark reports, with their units. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

/// Metrics of an untraced run (`--trace 0`), as a user sees them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of a traced run (`--trace 1`), one per layer boundary. Times
/// are medians over ops of the time an op spent in that call; see the
/// README for what each one times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vm.dispatch_ms", "ms"),
    ("vm.emit_ms", "ms"),
    ("vm.emit_self_ms", "ms"),
    ("vm.events", "count"),
    ("vm.record_ms", "ms"),
    ("vm.trace_bytes", "bytes"),
    ("vm.trace_open_ms", "ms"),
    ("vm.stream_feed_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.gcost_self_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.nodes", "count"),
    ("core.edges", "count"),
    ("core.csr_build_ms", "ms"),
    ("core.absorb_ms", "ms"),
    ("core.freq_only_share", "ratio"),
    ("core.incr_apply_ms", "ms"),
    ("core.materialize_ms", "ms"),
    ("core.snapshot_write_ms", "ms"),
    ("core.snapshot_bytes", "bytes"),
    ("core.snapshot_load_ms", "ms"),
    ("par.replay_ms", "ms"),
    ("par.replay_j1_ms", "ms"),
    ("par.pipeline_ms", "ms"),
    ("par.pipeline_j2_ms", "ms"),
    ("analyses.dead_ms", "ms"),
    ("analyses.rank_ms", "ms"),
    ("analyses.rank_ref_ms", "ms"),
    ("analyses.report_ms", "ms"),
    ("analyses.refresh_ms", "ms"),
    ("analyses.recomputed_share", "ratio"),
    ("analyses.qcache_ms", "ms"),
    ("analyses.qcache_hit_share", "ratio"),
    ("serve.push_ms", "ms"),
    ("serve.rank_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.work_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("op.p50_ms", "ms"),
    ("op.untraced_p50_ms", "ms"),
    ("op.trace_overhead_share", "ratio"),
    ("op.span_cover_share", "ratio"),
];
