//! Regenerates Table 1 of the paper: `G_cost` characteristics for every
//! benchmark at `s = 8` and `s = 16` (parts a/b) and the bloat
//! measurements (part c), plus the phase-limited-tracking overhead
//! comparison for the two trade benchmarks.
//!
//! All per-workload measurements run on a thread pool (`--jobs N`,
//! defaulting to the machine's parallelism); each run owns its VM and
//! profiler, so runs never share state and the printed tables are
//! byte-identical to a sequential `--jobs 1` run apart from the timing
//! columns.
//!
//! Three data sources produce the same tables (only the timing-derived
//! `O(x)` column differs):
//!
//! * live (default) — profile while the VM runs, as the paper does;
//! * `--record DIR` — run each workload once writing its event trace to
//!   `DIR/<name>.trace`, then build every graph by replaying the trace;
//! * `--replay DIR` — never run the VM at all: rebuild every graph from
//!   the traces a previous `--record` left in `DIR`.
//!
//! Usage: `table1 [--size small|default|large] [--slots N ...] [--jobs N]
//!         [--record DIR | --replay DIR]`
//!
//! The structure ranking summary is computed with the batch engine;
//! `tests/batch.rs` holds it to the per-seed reference engine's bytes.
//!
//! Speed beyond the `O(x)` column is measured by perfbench, not here.

use lowutil_analyses::batch::{BatchAnalyzer, CostEngine};
use lowutil_analyses::cost::CostBenefitConfig;
use lowutil_analyses::dead::dead_value_metrics;
use lowutil_analyses::report::describe_site;
use lowutil_analyses::structure::rank_structures_with;
use lowutil_bench::args::{take_jobs, take_size, take_value};
use lowutil_bench::{
    median_time, overhead_factor, run_plain, run_profiled, run_recorded, run_replayed,
};
use lowutil_core::{CostGraph, CostGraphConfig, GraphStats};
use lowutil_ir::Program;
use lowutil_vm::TraceReader;
use lowutil_workloads::{map_suite, Workload, WorkloadSize};
use std::time::Duration;

#[derive(Clone)]
enum Mode {
    Live,
    Record(String),
    Replay(String),
}

struct Args {
    size: WorkloadSize,
    slots: Vec<u32>,
    jobs: usize,
    mode: Mode,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        size: WorkloadSize::Default,
        slots: vec![8, 16],
        jobs: lowutil_par::default_jobs(),
        mode: Mode::Live,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => match take_size(&mut args) {
                Some(s) => parsed.size = s,
                None => eprintln!("--size needs small|default|large"),
            },
            "--slots" => {
                // Take every following value (drop 0: the context
                // reduction is `g mod s`).
                let mut slots = Vec::new();
                while let Some(v) = take_value(&mut args) {
                    if let Ok(s) = v.parse::<u32>() {
                        if s > 0 {
                            slots.push(s);
                        }
                    }
                }
                if !slots.is_empty() {
                    parsed.slots = slots;
                }
            }
            "--jobs" => match take_jobs(&mut args) {
                Some(n) => parsed.jobs = n,
                None => eprintln!("--jobs needs a number"),
            },
            "--record" => match take_value(&mut args) {
                Some(d) => parsed.mode = Mode::Record(d),
                None => eprintln!("--record needs a directory"),
            },
            "--replay" => match take_value(&mut args) {
                Some(d) => parsed.mode = Mode::Replay(d),
                None => eprintln!("--replay needs a directory"),
            },
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    parsed
}

/// Everything Table 1 needs for one benchmark, computed by one pool task.
struct Row {
    name: &'static str,
    t_plain: Duration,
    /// One `(stats, wall-clock)` per requested slot setting: profiled
    /// runs in live mode, sequential replays otherwise.
    per_slot: Vec<(GraphStats, Duration)>,
    instructions: u64,
    ipd: f64,
    ipp: f64,
    nld: f64,
    rank: RankSummary,
}

/// Structure-ranking digest of the default-config graph.
struct RankSummary {
    /// Ranked structures (= tagged allocation sites in `G_cost`).
    structs: usize,
    /// Top-ranked structure, in source terms.
    top_desc: String,
    /// Its n-RAC / n-RAB imbalance.
    top_imbalance: f64,
    /// Heap loads whose value reaches a consumer within its hop.
    consumer_reads: usize,
}

/// Ranks the row's default-config graph with the batch engine.
fn ranking_summary(program: &Program, gcost: &CostGraph) -> RankSummary {
    let engine = BatchAnalyzer::new(gcost);
    let ranked = rank_structures_with(gcost, &CostBenefitConfig::default(), &engine, 1);
    let mut consumer_reads = 0;
    for obj in gcost.objects() {
        for field in gcost.fields_of(obj) {
            consumer_reads += gcost
                .reads_of(obj, field)
                .iter()
                .filter(|&&r| engine.reaches_consumer(r))
                .count();
        }
    }
    let (top_desc, top_imbalance) = match ranked.first() {
        Some(top) => (describe_site(program, top.root), top.imbalance()),
        None => ("-".to_string(), 0.0),
    };
    RankSummary {
        structs: ranked.len(),
        top_desc,
        top_imbalance,
        consumer_reads,
    }
}

fn size_name(size: WorkloadSize) -> &'static str {
    match size {
        WorkloadSize::Small => "small",
        WorkloadSize::Default => "default",
        WorkloadSize::Large => "large",
    }
}

fn trace_path(dir: &str, name: &str) -> String {
    format!("{dir}/{name}.trace")
}

fn slot_config(s: u32) -> CostGraphConfig {
    CostGraphConfig {
        slots: s,
        ..CostGraphConfig::default()
    }
}

/// Live-mode row: the paper's methodology, profiling while the VM runs.
///
/// The plain-run time every `O(x)` divides by is a warmup run plus the
/// median of three timed runs: single-shot numbers on millisecond-scale
/// workloads bounce enough with scheduler noise to report profiled runs
/// as *faster* than plain ones.
fn live_row(w: &Workload, slot_settings: &[u32]) -> Row {
    let (_, t_plain) = median_time(3, || run_plain(&w.program));
    let per_slot = slot_settings
        .iter()
        .map(|&s| {
            let (graph, _, t_prof) = run_profiled(&w.program, slot_config(s));
            (GraphStats::of(&graph), t_prof)
        })
        .collect();
    let (graph, out, _) = run_profiled(&w.program, CostGraphConfig::default());
    let m = dead_value_metrics(&graph, out.instructions_executed);
    let rank = ranking_summary(&w.program, &graph);
    Row {
        name: w.name,
        t_plain,
        per_slot,
        instructions: out.instructions_executed,
        ipd: m.ipd,
        ipp: m.ipp,
        nld: m.nld,
        rank,
    }
}

/// Replay-backed row: every graph is rebuilt from `trace` by sequential
/// replay. The graphs (and hence every non-timing column) are identical
/// to the live row's.
fn trace_row(w: &Workload, trace: &[u8], slot_settings: &[u32]) -> Row {
    let (_, t_plain) = median_time(3, || run_plain(&w.program));
    let per_slot = slot_settings
        .iter()
        .map(|&s| {
            let (graph, t) = run_replayed(&w.program, slot_config(s), trace);
            (GraphStats::of(&graph), t)
        })
        .collect();
    let (graph, _) = run_replayed(&w.program, CostGraphConfig::default(), trace);
    let instructions = TraceReader::new(trace)
        .expect("recorded trace parses")
        .trailer()
        .instructions;
    let m = dead_value_metrics(&graph, instructions);
    let rank = ranking_summary(&w.program, &graph);
    Row {
        name: w.name,
        t_plain,
        per_slot,
        instructions,
        ipd: m.ipd,
        ipp: m.ipp,
        nld: m.nld,
        rank,
    }
}

fn read_trace(dir: &str, name: &str) -> Vec<u8> {
    let path = trace_path(dir, name);
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("cannot read {path} (did a --record run create it?): {e}"));
    // Benchmarks need the full recording — a salvaged prefix would skew
    // every column — so damage is fatal here; but diagnose it, so the
    // user knows whether the file is worth `lowutil replay --salvage`.
    if let Err(e) = TraceReader::new(&bytes) {
        match TraceReader::salvage(&bytes) {
            Ok((_, stats)) => panic!(
                "{path} is damaged ({e}); salvage would keep {} segments \
                 (dropping {}) — re-record, or inspect the remains with \
                 `lowutil replay --salvage`",
                stats.segments_kept, stats.segments_dropped
            ),
            Err(_) => panic!("{path} is not a lowutil trace: {e}"),
        }
    }
    bytes
}

fn main() {
    let args = parse_args();

    if let Mode::Record(dir) = &args.mode {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    }

    // One pool task per benchmark computes every measurement Table 1
    // needs for it: the plain-run baseline, one graph per slot setting,
    // and the default-config graph behind part (c).
    let slot_settings = args.slots.clone();
    let mode = args.mode.clone();
    let rows: Vec<Row> = map_suite(args.size, args.jobs, |w| match &mode {
        Mode::Live => live_row(&w, &slot_settings),
        Mode::Record(dir) => {
            let (_, trace, _, _) = run_recorded(&w.program);
            let path = trace_path(dir, w.name);
            std::fs::write(&path, &trace).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            trace_row(&w, &trace, &slot_settings)
        }
        Mode::Replay(dir) => trace_row(&w, &read_trace(dir, w.name), &slot_settings),
    });

    for (si, &s) in args.slots.iter().enumerate() {
        println!(
            "=== Table 1 ({}) — G_cost characteristics, s = {s} ===",
            size_name(args.size)
        );
        println!(
            "{:<12} {:>8} {:>8} {:>9} {:>8} {:>8}",
            "program", "#N", "#E", "M(KiB)", "O(x)", "CR"
        );
        for row in &rows {
            let (stats, t_prof) = &row.per_slot[si];
            println!(
                "{:<12} {:>8} {:>8} {:>9.1} {:>8.1} {:>8.3}",
                row.name,
                stats.nodes,
                stats.edges,
                stats.graph_bytes as f64 / 1024.0,
                overhead_factor(*t_prof, row.t_plain),
                stats.avg_cr,
            );
        }
        println!();
    }

    // Part (c): bloat measurement at s = 16.
    println!("=== Table 1 part (c) — bloat measurement, s = 16 ===");
    println!(
        "{:<12} {:>12} {:>8} {:>8} {:>8}",
        "program", "#I", "IPD%", "IPP%", "NLD%"
    );
    for row in &rows {
        println!(
            "{:<12} {:>12} {:>8.1} {:>8.1} {:>8.1}",
            row.name,
            row.instructions,
            row.ipd * 100.0,
            row.ipp * 100.0,
            row.nld * 100.0,
        );
    }
    println!();

    // Structure ranking summary: what the cost-benefit analysis says
    // about each workload's default-config graph. No timing columns, so
    // the record/replay CI step diffs this section verbatim.
    println!("=== structure ranking summary (default config) ===");
    println!(
        "{:<12} {:>8} {:>12} {:>10}  top-structure",
        "program", "structs", "top-imb", "cons-reads"
    );
    for row in &rows {
        println!(
            "{:<12} {:>8} {:>12.1} {:>10}  {}",
            row.name,
            row.rank.structs,
            row.rank.top_imbalance,
            row.rank.consumer_reads,
            row.rank.top_desc,
        );
    }
    println!();

    // Phase-limited tracking: the paper reports 5–10× overhead reduction
    // for the trade benchmarks when only the load phase is tracked.
    let phase_names = vec!["tradebeans", "tradesoap", "eclipse", "derby"];
    let phase_mode = args.mode.clone();
    let phase_rows = lowutil_par::par_map(args.jobs, phase_names, |name| {
        let w = lowutil_workloads::workload(name, args.size);
        let phased_config = CostGraphConfig {
            phase_limited: true,
            ..CostGraphConfig::default()
        };
        let (full_i, phased_i) = match &phase_mode {
            Mode::Live => {
                let full = run_profiled(&w.program, CostGraphConfig::default());
                let phased = run_profiled(&w.program, phased_config);
                (full.0.instr_instances(), phased.0.instr_instances())
            }
            Mode::Record(dir) | Mode::Replay(dir) => {
                let trace = read_trace(dir, name);
                let full = run_replayed(&w.program, CostGraphConfig::default(), &trace);
                let phased = run_replayed(&w.program, phased_config, &trace);
                (full.0.instr_instances(), phased.0.instr_instances())
            }
        };
        (name, full_i.max(1), phased_i.max(1))
    });
    println!("=== phase-limited tracking (steady-state only) ===");
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "program", "I(full)", "I(phase)", "reduction"
    );
    for (name, fi, pi) in phase_rows {
        println!(
            "{:<12} {:>14} {:>14} {:>9.1}x",
            name,
            fi,
            pi,
            fi as f64 / pi as f64
        );
    }

    // Abstract vs concrete graph growth (the §4.1 N-vs-I discussion).
    let nvi_names = vec!["chart", "jython", "sunflow"];
    let nvi_mode = args.mode.clone();
    let nvi_rows = lowutil_par::par_map(args.jobs, nvi_names, |name| {
        let w = lowutil_workloads::workload(name, args.size);
        let mut conc = lowutil_core::ConcreteProfiler::new(lowutil_core::SlicingMode::Thin);
        let (stats, instructions) = match &nvi_mode {
            Mode::Live => {
                let (graph, out, _) = run_profiled(&w.program, CostGraphConfig::default());
                lowutil_vm::Vm::new(&w.program)
                    .run(&mut conc)
                    .expect("concrete profiling runs");
                (GraphStats::of(&graph), out.instructions_executed)
            }
            Mode::Record(dir) | Mode::Replay(dir) => {
                let trace = read_trace(dir, name);
                let (graph, _) = run_replayed(&w.program, CostGraphConfig::default(), &trace);
                let reader = TraceReader::new(&trace).expect("recorded trace parses");
                let mut sink = lowutil_vm::TracerSink(&mut conc);
                reader.replay(&mut sink).expect("recorded trace replays");
                (GraphStats::of(&graph), reader.trailer().instructions)
            }
        };
        let cg = conc.finish();
        (
            name,
            stats.nodes,
            instructions,
            stats.abstraction_ratio(),
            cg.approx_bytes(),
        )
    });
    println!();
    println!("=== abstract graph (N) vs concrete instances (I) ===");
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>14}",
        "program", "N", "I", "N/I", "concrete(KiB)"
    );
    for (name, nodes, instances, ratio, conc_bytes) in nvi_rows {
        println!(
            "{:<12} {:>8} {:>12} {:>12.6} {:>14.1}",
            name,
            nodes,
            instances,
            ratio,
            conc_bytes as f64 / 1024.0,
        );
    }
}
