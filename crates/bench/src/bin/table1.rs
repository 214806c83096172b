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
//!         [--json PATH] [--record DIR | --replay DIR]
//!         [--analysis batch|reference] [--store DIR]`
//!
//! `--store DIR` adds a sequential post-pass over the persistent CSR
//! store: each workload's graph is saved to `DIR/<name>.snap`, loaded
//! back zero-copy, ranked cold from the loaded arrays, and ranked again
//! through the content-hash query cache under `DIR/qcache` — so the
//! baseline separates build-from-scratch, snapshot-load, cold-query,
//! and cached-query times, plus the steady-state absorb latency of a
//! repeat session — full rebuild (re-merge + re-serialize) vs the
//! incremental delta path (in-place CSR patch + cached-section
//! serialize), held to identical snapshot bytes. The loaded graph's
//! canonical export is asserted byte-identical to the live one, and the
//! cached ranking bit-identical to the cold one; the JSON gains a
//! `store` array.
//!
//! `--analysis` selects the cost-benefit engine behind the structure
//! ranking summary (default `batch`); both engines print identical
//! bytes, which CI asserts by diffing the two outputs.
//!
//! `--json PATH` additionally writes a machine-readable perf baseline
//! (wall-clock and profiled events/sec per workload; in record/replay
//! modes also record overhead and replay time; plus the analysis-phase
//! timings — per-seed reference vs batch engine —
//! separated from graph-build time) to `PATH`.

use lowutil_analyses::batch::{BatchAnalyzer, CostEngine, EngineChoice, ReferenceEngine};
use lowutil_analyses::cost::CostBenefitConfig;
use lowutil_analyses::dead::dead_value_metrics;
use lowutil_analyses::qcache::{CacheKey, QueryCache};
use lowutil_analyses::report::describe_site;
use lowutil_analyses::structure::{
    rank_structures, rank_structures_batch, rank_structures_with, StructureCostBenefit,
};
use lowutil_bench::args::{take_jobs, take_size, take_value};
use lowutil_bench::{
    median_time, overhead_factor, run_plain, run_profiled, run_recorded, run_replayed,
};
use lowutil_core::{read_snapshot, save_snapshot, write_snapshot, Aggregate, AlignedBuf};
use lowutil_core::{CostGraph, CostGraphConfig, GraphStats, IncrementalCsr};
use lowutil_ir::Program;
use lowutil_vm::TraceReader;
use lowutil_workloads::{map_suite, Workload, WorkloadSize, NAMES};
use std::time::{Duration, Instant};

#[derive(Clone, PartialEq)]
enum Mode {
    Live,
    Record(String),
    Replay(String),
}

struct Args {
    size: WorkloadSize,
    slots: Vec<u32>,
    jobs: usize,
    json: Option<String>,
    mode: Mode,
    analysis: EngineChoice,
    /// Detected core count (`available_parallelism`), recorded in the
    /// JSON baseline next to the timings it qualifies.
    cores: usize,
    /// Directory for the persistent-store post-pass (`--store DIR`).
    store: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        size: WorkloadSize::Default,
        slots: vec![8, 16],
        jobs: lowutil_par::default_jobs(),
        json: None,
        mode: Mode::Live,
        analysis: EngineChoice::default(),
        cores: lowutil_par::default_jobs(),
        store: None,
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
            "--json" => match take_value(&mut args) {
                Some(p) => parsed.json = Some(p),
                None => eprintln!("--json needs a path"),
            },
            "--record" => match take_value(&mut args) {
                Some(d) => parsed.mode = Mode::Record(d),
                None => eprintln!("--record needs a directory"),
            },
            "--replay" => match take_value(&mut args) {
                Some(d) => parsed.mode = Mode::Replay(d),
                None => eprintln!("--replay needs a directory"),
            },
            "--analysis" => match take_value(&mut args).and_then(|v| EngineChoice::parse(&v)) {
                Some(e) => parsed.analysis = e,
                None => eprintln!("--analysis needs batch|reference"),
            },
            "--store" => match take_value(&mut args) {
                Some(d) => parsed.store = Some(d),
                None => eprintln!("--store needs a directory"),
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
    /// Time to produce the default-config graph in the current mode
    /// (profiled run, or sequential replay).
    t_profiled: Duration,
    /// Recording overhead run (record mode only).
    t_record: Option<Duration>,
    instructions: u64,
    ipd: f64,
    ipp: f64,
    nld: f64,
    rank: RankSummary,
}

/// Structure-ranking digest of the default-config graph. Every field is
/// engine-independent data — the batch and reference engines fill it
/// with identical values, which CI checks by diffing the two outputs.
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

fn summarize<E: CostEngine>(program: &Program, gcost: &CostGraph, engine: &E) -> RankSummary {
    let ranked = rank_structures_with(gcost, &CostBenefitConfig::default(), engine, 1);
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

/// Runs the selected engine over the row's default-config graph. Always
/// sequential: the suite pool already runs one task per workload.
fn ranking_summary(program: &Program, gcost: &CostGraph, analysis: EngineChoice) -> RankSummary {
    match analysis {
        EngineChoice::Batch => summarize(program, gcost, &BatchAnalyzer::new(gcost, 1)),
        EngineChoice::Reference => summarize(program, gcost, &ReferenceEngine::new(gcost)),
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
/// The two timings the JSON baseline compares (`plain_ms`,
/// `profiled_ms`) are each a warmup run plus the median of three timed
/// runs: single-shot numbers on millisecond-scale workloads bounce
/// enough with scheduler noise to report profiled runs as *faster* than
/// plain ones.
fn live_row(w: &Workload, slot_settings: &[u32], analysis: EngineChoice) -> Row {
    let (_, t_plain) = median_time(3, || run_plain(&w.program));
    let per_slot = slot_settings
        .iter()
        .map(|&s| {
            let (graph, _, t_prof) = run_profiled(&w.program, slot_config(s));
            (GraphStats::of(&graph), t_prof)
        })
        .collect();
    let ((graph, out), t_profiled) = median_time(3, || {
        let (g, o, t) = run_profiled(&w.program, CostGraphConfig::default());
        ((g, o), t)
    });
    let m = dead_value_metrics(&graph, out.instructions_executed);
    let rank = ranking_summary(&w.program, &graph, analysis);
    Row {
        name: w.name,
        t_plain,
        per_slot,
        t_profiled,
        t_record: None,
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
fn trace_row(
    w: &Workload,
    trace: &[u8],
    slot_settings: &[u32],
    t_record: Option<Duration>,
    analysis: EngineChoice,
) -> Row {
    let (_, t_plain) = median_time(3, || run_plain(&w.program));
    let per_slot = slot_settings
        .iter()
        .map(|&s| {
            let (graph, t) = run_replayed(&w.program, slot_config(s), trace);
            (GraphStats::of(&graph), t)
        })
        .collect();
    let (graph, t_profiled) = run_replayed(&w.program, CostGraphConfig::default(), trace);
    let instructions = TraceReader::new(trace)
        .expect("recorded trace parses")
        .trailer()
        .instructions;
    let m = dead_value_metrics(&graph, instructions);
    let rank = ranking_summary(&w.program, &graph, analysis);
    Row {
        name: w.name,
        t_plain,
        per_slot,
        t_profiled,
        t_record,
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
    let wall = Instant::now();

    if let Mode::Record(dir) = &args.mode {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    }

    // One pool task per benchmark computes every measurement Table 1
    // needs for it: the plain-run baseline, one graph per slot setting,
    // and the default-config graph behind part (c).
    let slot_settings = args.slots.clone();
    let mode = args.mode.clone();
    let analysis = args.analysis;
    let rows: Vec<Row> = map_suite(args.size, args.jobs, |w| match &mode {
        Mode::Live => live_row(&w, &slot_settings, analysis),
        Mode::Record(dir) => {
            let (_, trace, _, t_record) = run_recorded(&w.program);
            let path = trace_path(dir, w.name);
            std::fs::write(&path, &trace).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            trace_row(&w, &trace, &slot_settings, Some(t_record), analysis)
        }
        Mode::Replay(dir) => {
            trace_row(&w, &read_trace(dir, w.name), &slot_settings, None, analysis)
        }
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
    // CI diffs this section verbatim across `--analysis batch` and
    // `--analysis reference`.
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

    // Analysis-phase timing: per-seed reference vs batch engine on the
    // same finished graph, so ranking time is split from build time.
    // Sequential post-pass (baseline runs only) so the comparison is not
    // perturbed by the suite pool's own workers.
    let analysis_times: Vec<(&'static str, Duration, Duration, Duration)> = if args.json.is_some() {
        NAMES
            .iter()
            .map(|&name| {
                let w = lowutil_workloads::workload(name, args.size);
                let graph = match &args.mode {
                    Mode::Live => run_profiled(&w.program, CostGraphConfig::default()).0,
                    Mode::Record(dir) | Mode::Replay(dir) => {
                        run_replayed(
                            &w.program,
                            CostGraphConfig::default(),
                            &read_trace(dir, name),
                        )
                        .0
                    }
                };
                let cfg = CostBenefitConfig::default();
                let (reference, t_ref) = time_ranking(|| rank_structures(&graph, &cfg));
                let (batch_seq, t_seq) = time_ranking(|| rank_structures_batch(&graph, &cfg, 1));
                let (batch_par, t_par) =
                    time_ranking(|| rank_structures_batch(&graph, &cfg, args.jobs));
                assert!(
                    rankings_agree(&reference, &batch_seq)
                        && rankings_agree(&reference, &batch_par),
                    "batch ranking diverged from reference on {name}"
                );
                (name, t_ref, t_seq, t_par)
            })
            .collect()
    } else {
        Vec::new()
    };

    // Persistent-store timing: build vs save vs zero-copy load vs cold
    // query vs cached query, per workload. Sequential post-pass for the
    // same reason as the analysis timings above.
    let store_times: Vec<StoreTiming> = match &args.store {
        None => Vec::new(),
        Some(dir) => {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
            let cache = QueryCache::new(format!("{dir}/qcache"));
            NAMES
                .iter()
                .map(|&name| store_timing(name, dir, &cache, &args))
                .collect()
        }
    };
    if !store_times.is_empty() {
        println!();
        println!("=== persistent CSR store (cold build vs load vs cached query) ===");
        println!(
            "{:<12} {:>10} {:>9} {:>9} {:>9} {:>10} {:>10} {:>11} {:>11}",
            "program",
            "snap(KiB)",
            "build(ms)",
            "save(ms)",
            "load(ms)",
            "cold-q(ms)",
            "warm-q(ms)",
            "rb-abs(ms)",
            "dt-abs(ms)"
        );
        for t in &store_times {
            println!(
                "{:<12} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>10.3} {:>10.3} {:>11.3} {:>11.3}",
                t.name,
                t.snapshot_bytes as f64 / 1024.0,
                t.t_build.as_secs_f64() * 1e3,
                t.t_save.as_secs_f64() * 1e3,
                t.t_load.as_secs_f64() * 1e3,
                t.t_cold_query.as_secs_f64() * 1e3,
                t.t_cached_query.as_secs_f64() * 1e3,
                t.t_absorb_rebuild.as_secs_f64() * 1e3,
                t.t_absorb_delta.as_secs_f64() * 1e3,
            );
        }
    }

    if let Some(path) = &args.json {
        let json = baseline_json(&args, &rows, &analysis_times, &store_times, wall.elapsed());
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote perf baseline to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// One workload's persistent-store measurements.
struct StoreTiming {
    name: &'static str,
    snapshot_bytes: u64,
    /// Profile (or replay) + finish the graph from scratch.
    t_build: Duration,
    /// Serialize the finished graph to the snapshot file.
    t_save: Duration,
    /// `AlignedBuf::load` + validation + `to_cost_graph`.
    t_load: Duration,
    /// Rank from the loaded zero-copy CSR (engine construction included).
    t_cold_query: Duration,
    /// Re-read the same ranking from the content-hash query cache.
    t_cached_query: Duration,
    /// Absorb a repeat session, then re-materialize the merged graph and
    /// re-serialize the snapshot from scratch — what `serve` did before
    /// the incremental path.
    t_absorb_rebuild: Duration,
    /// Absorb the same repeat session as a delta: patch the live
    /// incremental CSR in place and serialize from its cached sections.
    t_absorb_delta: Duration,
}

/// Measures one workload's save/load/query cycle against `dir`. The
/// loaded graph is held to canonical-export byte identity with the live
/// one, and the cached ranking to bit identity with the cold one — the
/// numbers are only comparable because the artifacts are equal.
fn store_timing(name: &'static str, dir: &str, cache: &QueryCache, args: &Args) -> StoreTiming {
    let w = lowutil_workloads::workload(name, args.size);
    let build = || match &args.mode {
        Mode::Live => {
            let t0 = Instant::now();
            let (g, out, _) = run_profiled(&w.program, CostGraphConfig::default());
            ((g, out.instructions_executed), t0.elapsed())
        }
        Mode::Record(d) | Mode::Replay(d) => {
            let trace = read_trace(d, name);
            let t0 = Instant::now();
            let (g, _) = run_replayed(&w.program, CostGraphConfig::default(), &trace);
            let instructions = TraceReader::new(&trace)
                .expect("recorded trace parses")
                .trailer()
                .instructions;
            ((g, instructions), t0.elapsed())
        }
    };
    let ((graph, instructions), t_build) = median_time(3, build);
    let path = format!("{dir}/{name}.snap");
    let (_, t_save) = median_time(3, || {
        let t0 = Instant::now();
        save_snapshot(&graph, instructions, &path).unwrap_or_else(|e| panic!("save {path}: {e}"));
        ((), t0.elapsed())
    });
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();
    let (_, t_load) = median_time(3, || {
        let t0 = Instant::now();
        let buf = AlignedBuf::load(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let snap = read_snapshot(&buf).unwrap_or_else(|e| panic!("{path}: {e}"));
        let g = snap.to_cost_graph();
        (g, t0.elapsed())
    });
    let buf = AlignedBuf::load(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let snap = read_snapshot(&buf).unwrap_or_else(|e| panic!("{path}: {e}"));
    let loaded = snap.to_cost_graph();
    assert!(
        export_bytes(&graph) == export_bytes(&loaded),
        "loaded snapshot diverged from live graph on {name}"
    );
    let cfg = CostBenefitConfig::default();
    let (cold, t_cold_query) = time_ranking(|| {
        let engine = BatchAnalyzer::with_csr(snap.csr().clone(), 1);
        rank_structures_with(&loaded, &cfg, &engine, 1)
    });
    let key = CacheKey::new(snap.content_hash(), EngineChoice::Batch, &cfg);
    cache
        .store(&key, &cold)
        .unwrap_or_else(|e| panic!("cache store for {name}: {e}"));
    let (cached, t_cached_query) = time_ranking(|| cache.load(&key).expect("stored entry hits"));
    assert!(
        rankings_agree(&cold, &cached),
        "cached ranking diverged from cold on {name}"
    );

    // Steady-state absorb latency: the serve daemon's common case is
    // re-absorbing a session whose structure the aggregate has already
    // seen (a frequency-only delta). Two aggregates are fed the exact
    // same absorb sequence; the rebuild path re-materializes the merged
    // graph and re-serializes the snapshot from scratch after each
    // absorb, the delta path patches the live incremental CSR in place.
    // Identical final snapshot bytes keep the timings comparable.
    let mut agg_rebuild = Aggregate::new();
    agg_rebuild.absorb(&graph, instructions);
    let (rebuild_snap, t_absorb_rebuild) = median_time(3, || {
        let t0 = Instant::now();
        agg_rebuild.absorb(&graph, instructions);
        let merged = agg_rebuild.to_cost_graph();
        let mut out = Vec::new();
        write_snapshot(&merged, agg_rebuild.total_instructions(), &mut out)
            .expect("in-memory snapshot succeeds");
        (out, t0.elapsed())
    });
    let mut agg_delta = Aggregate::new();
    agg_delta.absorb(&graph, instructions);
    let mut inc = IncrementalCsr::new(&agg_delta);
    let (delta_snap, t_absorb_delta) = median_time(3, || {
        let t0 = Instant::now();
        let delta = agg_delta.absorb(&graph, instructions);
        inc.apply(&agg_delta, &delta);
        let mut out = Vec::new();
        inc.write_snapshot(agg_delta.total_instructions(), &mut out)
            .expect("in-memory snapshot succeeds");
        (out, t0.elapsed())
    });
    assert!(
        rebuild_snap == delta_snap,
        "delta-maintained snapshot diverged from rebuild on {name}"
    );

    StoreTiming {
        name,
        snapshot_bytes,
        t_build,
        t_save,
        t_load,
        t_cold_query,
        t_cached_query,
        t_absorb_rebuild,
        t_absorb_delta,
    }
}

/// One warm-up call (whose result feeds the agreement check), then the
/// mean over a fixed iteration count — the rankings take microseconds
/// to low milliseconds, so a single-shot timing would mostly measure
/// cache state.
fn time_ranking<F: FnMut() -> Vec<StructureCostBenefit>>(
    mut f: F,
) -> (Vec<StructureCostBenefit>, Duration) {
    const ITERS: u32 = 10;
    let first = f();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(f());
    }
    (first, t0.elapsed() / ITERS)
}

/// Canonical export bytes — the identity a loaded snapshot is held to
/// against the graph it was saved from.
fn export_bytes(g: &CostGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    lowutil_core::write_cost_graph(g, &mut buf).expect("in-memory export succeeds");
    buf
}

/// Engine-agreement guard for the timing post-pass: same structures in
/// the same order with bit-identical aggregates.
fn rankings_agree(a: &[StructureCostBenefit], b: &[StructureCostBenefit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.root == y.root && x.n_rac == y.n_rac && x.n_rab == y.n_rab)
}

fn mode_name(mode: &Mode) -> &'static str {
    match mode {
        Mode::Live => "live",
        Mode::Record(_) => "record",
        Mode::Replay(_) => "replay",
    }
}

/// Renders the machine-readable perf baseline. Serde is not available
/// offline, so the (flat, fixed-shape) document is formatted by hand.
fn baseline_json(
    args: &Args,
    rows: &[Row],
    analysis_times: &[(&'static str, Duration, Duration, Duration)],
    store_times: &[StoreTiming],
    total: Duration,
) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"size\": \"{}\",\n", size_name(args.size)));
    s.push_str(&format!("  \"mode\": \"{}\",\n", mode_name(&args.mode)));
    s.push_str(&format!("  \"jobs\": {},\n", args.jobs));
    s.push_str(&format!("  \"cores\": {},\n", args.cores));
    s.push_str(&format!(
        "  \"analysis_engine\": \"{}\",\n",
        args.analysis.name()
    ));
    s.push_str(&format!("  \"total_wall_ms\": {:.3},\n", ms(total)));
    s.push_str("  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let events_per_sec = row.instructions as f64 / row.t_profiled.as_secs_f64().max(1e-9);
        let mut extra = String::new();
        if let Some(t) = row.t_record {
            extra.push_str(&format!(", \"record_ms\": {:.3}", ms(t)));
        }
        if args.mode != Mode::Live {
            // t_profiled is the sequential replay in record/replay mode.
            extra.push_str(&format!(", \"replay_ms\": {:.3}", ms(row.t_profiled)));
        }
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"plain_ms\": {:.3}, \"profiled_ms\": {:.3}, \
             \"instructions\": {}, \"events_per_sec\": {:.0}{}}}{}\n",
            row.name,
            ms(row.t_plain),
            ms(row.t_profiled),
            row.instructions,
            events_per_sec,
            extra,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    // Persistent CSR store: building from scratch vs loading the
    // snapshot vs answering the ranking from the content-hash cache.
    if !store_times.is_empty() {
        s.push_str("  \"store\": [\n");
        for (i, t) in store_times.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"snapshot_bytes\": {}, \"build_ms\": {:.3}, \
                 \"save_ms\": {:.3}, \"load_ms\": {:.3}, \"cold_query_ms\": {:.3}, \
                 \"cached_query_ms\": {:.3}, \"absorb_rebuild_ms\": {:.3}, \
                 \"absorb_delta_ms\": {:.3}, \"load_speedup\": {:.2}, \
                 \"cached_query_speedup\": {:.2}, \"absorb_speedup\": {:.2}}}{}\n",
                t.name,
                t.snapshot_bytes,
                ms(t.t_build),
                ms(t.t_save),
                ms(t.t_load),
                ms(t.t_cold_query),
                ms(t.t_cached_query),
                ms(t.t_absorb_rebuild),
                ms(t.t_absorb_delta),
                t.t_build.as_secs_f64() / t.t_load.as_secs_f64().max(1e-9),
                t.t_cold_query.as_secs_f64() / t.t_cached_query.as_secs_f64().max(1e-9),
                t.t_absorb_rebuild.as_secs_f64() / t.t_absorb_delta.as_secs_f64().max(1e-9),
                if i + 1 == store_times.len() { "" } else { "," },
            ));
        }
        s.push_str("  ],\n");
    }
    // Ranking time on the finished default-config graph — the analysis
    // phase alone, split from the graph-build times above.
    s.push_str("  \"analysis\": [\n");
    for (i, (name, t_ref, t_seq, t_par)) in analysis_times.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"reference_ms\": {:.3}, \"batch_seq_ms\": {:.3}, \
             \"batch_par_ms\": {:.3}, \"speedup_seq\": {:.2}, \"speedup_par\": {:.2}}}{}\n",
            name,
            ms(*t_ref),
            ms(*t_seq),
            ms(*t_par),
            t_ref.as_secs_f64() / t_seq.as_secs_f64().max(1e-9),
            t_ref.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
            if i + 1 == analysis_times.len() {
                ""
            } else {
                ","
            },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
