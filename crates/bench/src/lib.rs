//! Shared harness code for the table generators and Criterion benches.
//!
//! Binaries:
//! * `table1` — regenerates Table 1 (parts a, b, c): `G_cost`
//!   characteristics per benchmark at `s = 8` and `s = 16`, plus the
//!   dead-value bloat measurements.
//! * `case_studies` — regenerates the §4.2 case-study results: bloated vs
//!   optimized work, and the tool report identifying the planted
//!   structures.
//! * `figure_examples` — walks through the paper's explanatory figures
//!   (1, 2a–c, 3, 6) on their original example programs.

pub mod args;

use lowutil_core::shard::replay_cost_graph;
use lowutil_core::{CostGraph, CostGraphConfig, CostProfiler};
use lowutil_ir::Program;
use lowutil_vm::trace::TraceStats;
use lowutil_vm::{NullTracer, RunOutcome, TraceReader, TraceWriter, Vm};
use std::time::{Duration, Instant};

/// Runs `program` uninstrumented, returning the outcome and wall time.
///
/// # Panics
/// Panics if the program traps — benchmarks are expected to be correct.
pub fn run_plain(program: &Program) -> (RunOutcome, Duration) {
    let start = Instant::now();
    let out = Vm::new(program)
        .run(&mut NullTracer)
        .expect("benchmark runs cleanly");
    (out, start.elapsed())
}

/// Runs `program` under the cost profiler, returning the finished graph,
/// the outcome, and wall time.
///
/// # Panics
/// Panics if the program traps.
pub fn run_profiled(
    program: &Program,
    config: CostGraphConfig,
) -> (CostGraph, RunOutcome, Duration) {
    let mut profiler = CostProfiler::new(program, config);
    let start = Instant::now();
    let out = Vm::new(program)
        .run(&mut profiler)
        .expect("benchmark runs cleanly under profiling");
    let elapsed = start.elapsed();
    (profiler.finish(), out, elapsed)
}

/// Runs `program` while recording its event trace to memory, returning
/// the outcome, the trace bytes, the writer's statistics, and wall time.
/// The wall time measures *recording* overhead (no profiler attached).
///
/// # Panics
/// Panics if the program traps or the in-memory writer fails.
pub fn run_recorded(program: &Program) -> (RunOutcome, Vec<u8>, TraceStats, Duration) {
    let mut writer = TraceWriter::new(Vec::new());
    let start = Instant::now();
    let out = Vm::new(program)
        .run(&mut writer)
        .expect("benchmark runs cleanly while recording");
    let elapsed = start.elapsed();
    let (bytes, stats) = writer.finish().expect("in-memory trace write succeeds");
    (out, bytes, stats, elapsed)
}

/// Rebuilds `G_cost` from recorded trace bytes in one sequential pass,
/// returning the graph and wall time. The timing includes trace parsing,
/// so it is comparable to "profile this recorded run from scratch".
///
/// # Panics
/// Panics on a malformed trace — recorded benches are expected to be
/// well-formed.
pub fn run_replayed(
    program: &Program,
    config: CostGraphConfig,
    trace: &[u8],
) -> (CostGraph, Duration) {
    let start = Instant::now();
    let reader = TraceReader::new(trace).expect("recorded trace parses");
    let graph = replay_cost_graph(program, config, &reader).expect("recorded trace replays");
    (graph, start.elapsed())
}

/// Rebuilds `G_cost` from possibly damaged trace bytes via the salvage
/// path, returning the graph, the salvage statistics, and wall time.
/// On a clean trace this measures the v2 checksum-verification overhead
/// relative to [`run_replayed`]; on a damaged one it benchmarks recovery.
/// Unlike `lowutil replay --salvage` this emits no stderr warning —
/// benches iterate it thousands of times.
///
/// # Panics
/// Panics only when the trace header is unusable — there is nothing to
/// salvage without knowing the format.
pub fn run_salvage_replayed(
    program: &Program,
    config: CostGraphConfig,
    trace: &[u8],
) -> (CostGraph, lowutil_vm::SalvageStats, Duration) {
    let start = Instant::now();
    let (reader, stats) = TraceReader::salvage(trace).expect("trace header is usable");
    let graph = replay_cost_graph(program, config, &reader).expect("salvaged segments replay");
    (graph, stats, start.elapsed())
}

/// Timing methodology for live numbers: one untimed warmup run, then the
/// median of `runs` timed samples of `f` (clamped to at least 1). The
/// warmup pages in code and warms allocator caches; the median discards
/// scheduler outliers that make single-shot timings report profiled runs
/// as faster than plain ones.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> (T, Duration)) -> (T, Duration) {
    let (mut last, _) = f();
    let mut samples = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let (v, d) = f();
        last = v;
        samples.push(d);
    }
    samples.sort();
    (last, samples[samples.len() / 2])
}

/// Profiles with a safe minimum-duration baseline: overhead factor
/// `tracked / untracked`, with sub-microsecond baselines clamped.
pub fn overhead_factor(tracked: Duration, untracked: Duration) -> f64 {
    let base = untracked.as_secs_f64().max(1e-6);
    tracked.as_secs_f64() / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_workloads::{workload, WorkloadSize};

    #[test]
    fn harness_profiles_a_workload_end_to_end() {
        let w = workload("fop", WorkloadSize::Small);
        let (out_plain, _) = run_plain(&w.program);
        let (graph, out_prof, _) = run_profiled(&w.program, CostGraphConfig::default());
        assert_eq!(out_plain.output, out_prof.output);
        assert!(graph.graph().num_nodes() > 0);
    }

    #[test]
    fn record_replay_round_trip_matches_live() {
        let w = workload("fop", WorkloadSize::Small);
        let (graph_live, out_live, _) = run_profiled(&w.program, CostGraphConfig::default());
        let (out_rec, trace, stats, _) = run_recorded(&w.program);
        assert_eq!(out_live.output, out_rec.output);
        assert_eq!(stats.instructions, out_rec.instructions_executed);
        let (graph_replay, _) = run_replayed(&w.program, CostGraphConfig::default(), &trace);
        let bytes = |g: &CostGraph| {
            let mut buf = Vec::new();
            lowutil_core::write_cost_graph(g, &mut buf).unwrap();
            buf
        };
        assert_eq!(bytes(&graph_live), bytes(&graph_replay));
    }

    #[test]
    fn salvage_replay_matches_plain_replay_on_clean_and_cut_traces() {
        let w = workload("fop", WorkloadSize::Small);
        let config = CostGraphConfig::default();
        let (_, trace, ..) = run_recorded(&w.program);
        let bytes = |g: &CostGraph| {
            let mut buf = Vec::new();
            lowutil_core::write_cost_graph(g, &mut buf).unwrap();
            buf
        };
        // Clean trace: salvage is a no-op and the graphs agree.
        let (plain, _) = run_replayed(&w.program, config, &trace);
        let (salvaged, stats, _) = run_salvage_replayed(&w.program, config, &trace);
        assert!(stats.is_clean());
        assert_eq!(bytes(&plain), bytes(&salvaged));
        // Truncated trace: the salvage path still produces a graph.
        let (g, stats, _) = run_salvage_replayed(&w.program, config, &trace[..trace.len() / 2]);
        assert!(!stats.is_clean());
        assert!(g.graph().num_nodes() > 0 || stats.segments_kept == 0);
    }

    #[test]
    fn median_time_takes_the_middle_sample() {
        let mut call = 0u64;
        let (v, d) = median_time(3, || {
            call += 1;
            // Warmup 0ms, then samples 30ms / 10ms / 20ms: median 20ms.
            (
                call,
                Duration::from_millis([0, 30, 10, 20][call as usize - 1]),
            )
        });
        assert_eq!(call, 4, "one warmup + three samples");
        assert_eq!(v, 4);
        assert_eq!(d, Duration::from_millis(20));
    }

    #[test]
    fn overhead_factor_is_clamped() {
        let f = overhead_factor(Duration::from_millis(10), Duration::ZERO);
        assert!(f.is_finite() && f > 0.0);
    }
}
