//! The `lowutil` command-line tool: run IR assembly files under the
//! profilers and print diagnosis reports, the way a tuner would use the
//! paper's tool.
//!
//! ```text
//! lowutil run <file.lu>              execute and print output + run stats
//! lowutil report <file.lu> [--top N] [--slots S] [--control] [--traditional]
//!                                    cost-benefit structure ranking
//! lowutil dead <file.lu>             ultimately-dead / predicate-only metrics
//! lowutil copies <file.lu>           heap-to-heap copy chains
//! lowutil methods <file.lu>          dynamic call-graph method costs
//! lowutil caches <file.lu>           cache-effectiveness scores
//! lowutil alloc <file.lu>            lightweight allocation-site profile
//! lowutil stale <file.lu>            staleness suspects + cost cross-reference
//! lowutil disasm <file.lu>           round-trip through the disassembler
//! lowutil optimize <file.lu>         profile-guided dead-code elimination
//! lowutil export <file.lu>           serialize G_cost to stdout
//! lowutil dot <file.lu>              G_cost as Graphviz DOT on stdout
//! lowutil suite <name> [--size S]    run a built-in DaCapo-style workload
//! lowutil suite all [--size S] [--jobs N]
//!                                    profile the whole suite on N workers
//! lowutil record <file.lu> <out.trace> [--segment-limit N]
//!                                    execute once, writing the event trace
//!                                    (N records per segment; smaller
//!                                    segments salvage at a finer grain)
//! lowutil replay <file.lu> <trace> [--salvage]
//!                                    rebuild G_cost from a trace in one
//!                                    sequential pass and print the same
//!                                    report as `report`; with --salvage a
//!                                    truncated or corrupt trace replays its
//!                                    longest checksum-valid prefix instead
//!                                    of erroring out
//! lowutil snapshot save <file.lu> <out.snap>
//!                                    profile once and persist G_cost as a
//!                                    CSR snapshot (flat arrays, CRC-framed)
//! lowutil snapshot load <file.lu> <in.snap>
//!                                    print the `report` output from a
//!                                    snapshot without re-profiling (the
//!                                    CSR arrays are used zero-copy)
//! lowutil snapshot info <in.snap>    print a snapshot's header fields
//! lowutil snapshot verify <in.snap>  per-section CRC report; exit 0 when
//!                                    the snapshot validates, 1 when not
//! lowutil serve <data-dir> [--listen A] [--spool D] [--programs D]
//!                                    run the concurrent trace-ingestion
//!                                    daemon (prints `tcp HOST:PORT`);
//!                                    sessions stream framed traces and
//!                                    completed ones merge into per-tenant
//!                                    aggregates persisted in <data-dir>
//! lowutil push <addr> <tenant> <program> <trace>
//!                                    stream a recorded trace to a daemon
//! lowutil query <addr> <words...>    query a daemon (`<tenant> <program>
//!                                    hash|stats|rank|report|diff ...`, or
//!                                    the bare `stats` / `shutdown`)
//! lowutil diff <a.snap> <b.snap> [--min-imbalance X] [--worsen-factor X]
//!                                    align structures across two snapshots
//!                                    by (context, allocation-site) and
//!                                    report new/worsened/resolved bloat;
//!                                    with --fail-on-regression exit 3 when
//!                                    anything is new or worsened
//! ```
//!
//! Every ranking command ranks with the batch cost-benefit engine on the
//! calling thread. Each ranked graph is snapshotted into CSR arrays once
//! (or a loaded snapshot's zero-copy arrays are used), and the
//! dead-value metrics read the same snapshot.
//!
//! Execution commands take `--sched-seed N` to pick the deterministic
//! guest-thread schedule. Race-free programs (every built-in workload)
//! produce byte-identical reports and exports under every seed.

use lowutil::analyses::batch::BatchAnalyzer;
use lowutil::analyses::cache::cache_effectiveness;
use lowutil::analyses::copy::{copy_chains, copy_profiler, copy_ratio};
use lowutil::analyses::cost::CostBenefitConfig;
use lowutil::analyses::dead::{dead_value_metrics, dead_value_metrics_csr};
use lowutil::analyses::methods::{method_costs, CallGraphTracer};
use lowutil::analyses::report::{describe_field, describe_site, render_report};
use lowutil::analyses::{
    diff_rankings, rank_structures_with, ranked_keys, DiffConfig, StructureCostBenefit,
};
use lowutil::core::{
    content_hash, read_snapshot, replay_cost_graph, save_snapshot, AlignedBuf, CostGraph,
    CostGraphConfig, CostProfiler, CsrGraph,
};
use lowutil::ir::{display_program, parse_program, Program};
use lowutil::serve::{ServeConfig, Server};
use lowutil::vm::{NullTracer, RunConfig, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize, NAMES};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lowutil <run|report|dead|copies|methods|caches|alloc|disasm|export|dot|suite|record|replay|snapshot|diff|serve|push|query> <file.lu|name|all> [trace|snap] [flags]"
    );
    eprintln!(
        "flags: --top N   --slots S   --control   --traditional   --size small|default|large   --jobs N   --salvage   --segment-limit N   --sched-seed N   --min-imbalance X   --worsen-factor X   --fail-on-regression   --listen ADDR   --spool DIR   --programs DIR   --unix PATH   --idle-secs N"
    );
    ExitCode::from(2)
}

struct Flags {
    top: usize,
    slots: u32,
    control: bool,
    traditional: bool,
    size: WorkloadSize,
    jobs: usize,
    salvage: bool,
    segment_limit: Option<usize>,
    /// Seed for the deterministic guest-thread scheduler.
    sched_seed: u64,
    /// `diff`: imbalance floor below which structures are noise.
    min_imbalance: f64,
    /// `diff`: growth factor for the WORSENED classification.
    worsen_factor: f64,
    /// `diff`: exit 3 when the diff finds a NEW or WORSENED structure.
    fail_on_regression: bool,
    /// `serve`: TCP listen address (`--listen`, default auto-port).
    listen: Option<String>,
    /// `serve`: watched spool directory (`--spool DIR`).
    spool: Option<String>,
    /// `serve`: directory of `<name>.lu` programs (`--programs DIR`).
    programs: Option<String>,
    /// `serve`: unix-domain socket path (`--unix PATH`, unix hosts).
    unix: Option<String>,
    /// `serve`: session idle-eviction timeout (`--idle-secs N`).
    idle_secs: Option<u64>,
}

/// Consumes the next argument as a flag value only when one is actually
/// present: a following `--flag` is *not* a value, so a flag with a
/// missing value never swallows the next flag.
fn take_value<'a>(it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>) -> Option<&'a str> {
    let next = it.peek()?.as_str();
    if next.starts_with("--") {
        return None;
    }
    it.next().map(String::as_str)
}

fn parse_flags(args: &[String]) -> Flags {
    let diff_defaults = DiffConfig::default();
    let mut f = Flags {
        top: 10,
        slots: 16,
        control: false,
        traditional: false,
        size: WorkloadSize::Default,
        jobs: lowutil::par::default_jobs(),
        salvage: false,
        segment_limit: None,
        sched_seed: 0,
        min_imbalance: diff_defaults.min_imbalance,
        worsen_factor: diff_defaults.worsen_factor,
        fail_on_regression: false,
        listen: None,
        spool: None,
        programs: None,
        unix: None,
        idle_secs: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                if let Some(v) = take_value(&mut it).and_then(|s| s.parse().ok()) {
                    f.top = v;
                } else {
                    eprintln!("--top needs a number; keeping {}", f.top);
                }
            }
            "--slots" => {
                if let Some(v) = take_value(&mut it).and_then(|s| s.parse::<u32>().ok()) {
                    // The context reduction is `g mod s`; 0 slots is
                    // meaningless and would divide by zero.
                    f.slots = v.max(1);
                } else {
                    eprintln!("--slots needs a number; keeping {}", f.slots);
                }
            }
            "--jobs" => {
                if let Some(v) = take_value(&mut it).and_then(|s| s.parse::<usize>().ok()) {
                    // 0 workers cannot make progress; treat it as 1.
                    f.jobs = v.max(1);
                } else {
                    eprintln!("--jobs needs a number; keeping {}", f.jobs);
                }
            }
            "--segment-limit" => {
                if let Some(v) = take_value(&mut it).and_then(|s| s.parse::<usize>().ok()) {
                    // A 0-record segment cannot hold its own prologue.
                    f.segment_limit = Some(v.max(1));
                } else {
                    eprintln!("--segment-limit needs a number; keeping the default");
                }
            }
            "--sched-seed" => {
                if let Some(v) = take_value(&mut it).and_then(|s| s.parse::<u64>().ok()) {
                    f.sched_seed = v;
                } else {
                    eprintln!("--sched-seed needs a number; keeping {}", f.sched_seed);
                }
            }
            "--listen" => {
                if let Some(v) = take_value(&mut it) {
                    f.listen = Some(v.to_string());
                } else {
                    eprintln!("--listen needs an address; keeping auto-port");
                }
            }
            "--spool" => {
                if let Some(v) = take_value(&mut it) {
                    f.spool = Some(v.to_string());
                } else {
                    eprintln!("--spool needs a directory; spool stays off");
                }
            }
            "--programs" => {
                if let Some(v) = take_value(&mut it) {
                    f.programs = Some(v.to_string());
                } else {
                    eprintln!("--programs needs a directory; workloads only");
                }
            }
            "--unix" => {
                if let Some(v) = take_value(&mut it) {
                    f.unix = Some(v.to_string());
                } else {
                    eprintln!("--unix needs a socket path; unix socket stays off");
                }
            }
            "--idle-secs" => {
                if let Some(v) = take_value(&mut it).and_then(|s| s.parse::<u64>().ok()) {
                    f.idle_secs = Some(v);
                } else {
                    eprintln!("--idle-secs needs a number; keeping the default");
                }
            }
            "--min-imbalance" => {
                if let Some(v) = take_value(&mut it)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                {
                    f.min_imbalance = v;
                } else {
                    eprintln!(
                        "--min-imbalance needs a non-negative number; keeping {}",
                        f.min_imbalance
                    );
                }
            }
            "--worsen-factor" => {
                if let Some(v) = take_value(&mut it)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                {
                    // A factor below 1 would flag shrinking imbalances as
                    // worsened; clamp to the identity factor.
                    f.worsen_factor = v.max(1.0);
                } else {
                    eprintln!(
                        "--worsen-factor needs a number >= 1; keeping {}",
                        f.worsen_factor
                    );
                }
            }
            "--fail-on-regression" => f.fail_on_regression = true,
            "--control" => f.control = true,
            "--traditional" => f.traditional = true,
            "--salvage" => f.salvage = true,
            "--size" => match take_value(&mut it) {
                Some("small") => f.size = WorkloadSize::Small,
                Some("large") => f.size = WorkloadSize::Large,
                Some("default") => f.size = WorkloadSize::Default,
                _ => eprintln!("--size needs small|default|large; keeping default"),
            },
            other => eprintln!("ignoring unknown flag `{other}`"),
        }
    }
    f
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(&src).map_err(|e| format!("{path}: {e}"))
}

/// A VM honouring `--sched-seed`. Race-free programs behave identically
/// under every seed; the flag exists to demonstrate exactly that.
fn make_vm<'p>(program: &'p Program, flags: &Flags) -> Vm<'p> {
    Vm::with_config(
        program,
        RunConfig {
            sched_seed: flags.sched_seed,
            ..RunConfig::default()
        },
    )
}

/// The profiler configuration the `--slots`, `--traditional` and
/// `--control` flags select.
fn graph_config(flags: &Flags) -> CostGraphConfig {
    CostGraphConfig {
        slots: flags.slots,
        traditional_uses: flags.traditional,
        control_edges: flags.control,
        ..CostGraphConfig::default()
    }
}

fn profile(
    program: &Program,
    flags: &Flags,
) -> Result<(lowutil::core::CostGraph, lowutil::vm::RunOutcome), String> {
    let mut prof = CostProfiler::new(program, graph_config(flags));
    let out = make_vm(program, flags)
        .run(&mut prof)
        .map_err(|e| e.to_string())?;
    Ok((prof.finish(), out))
}

/// Ranks `gcost` with `engine`, the batch engine over its snapshot.
fn rank(gcost: &CostGraph, engine: &BatchAnalyzer<'_>) -> Vec<StructureCostBenefit> {
    rank_structures_with(gcost, &CostBenefitConfig::default(), engine, 1)
}

/// The `report` text: ranks `gcost` with the batch engine over `csr`
/// (built once from `gcost`, or a loaded snapshot's zero-copy arrays)
/// and takes the dead-value metrics from the same snapshot.
fn report(
    program: &Program,
    gcost: &CostGraph,
    csr: CsrGraph<'_>,
    instructions: u64,
    top: usize,
) -> String {
    let engine = BatchAnalyzer::with_csr(csr);
    let dead = dead_value_metrics_csr(engine.csr(), instructions);
    render_report(program, &rank(gcost, &engine), top, Some(&dead))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, target) = match (args.first(), args.get(1)) {
        (Some(c), Some(t)) => (c.as_str(), t.as_str()),
        _ => return usage(),
    };
    // record/replay and diff take a path as a third positional argument;
    // snapshot save/load take a subcommand plus two paths; push takes
    // four positionals; query treats every word as part of the request.
    let flag_start = match cmd {
        "record" | "replay" | "diff" => 3,
        "snapshot" => match target {
            "info" | "verify" => 3,
            _ => 4,
        },
        "push" => 5,
        "query" => args.len(),
        _ => 2,
    };
    let flags = parse_flags(args.get(flag_start..).unwrap_or(&[]));

    // `diff --fail-on-regression` exits 3 on regression: distinguishable
    // from errors (1) and usage mistakes (2) so CI can gate on it.
    let mut exit = ExitCode::SUCCESS;

    let result = (|| -> Result<(), String> {
        match cmd {
            "run" => {
                let p = load(target)?;
                let out = make_vm(&p, &flags)
                    .run(&mut NullTracer)
                    .map_err(|e| e.to_string())?;
                for v in &out.output {
                    println!("{v}");
                }
                eprintln!(
                    "-- {} instructions, {} objects",
                    out.instructions_executed, out.objects_allocated
                );
                Ok(())
            }
            "report" => {
                let p = load(target)?;
                let (g, out) = profile(&p, &flags)?;
                let csr = CsrGraph::build(g.graph());
                print!(
                    "{}",
                    report(&p, &g, csr, out.instructions_executed, flags.top)
                );
                Ok(())
            }
            "dead" => {
                let p = load(target)?;
                let (g, out) = profile(&p, &flags)?;
                let m = dead_value_metrics(&g, out.instructions_executed);
                println!(
                    "I = {}  IPD = {:.1}%  IPP = {:.1}%  NLD = {:.1}%",
                    m.total_instances,
                    m.ipd * 100.0,
                    m.ipp * 100.0,
                    m.nld * 100.0
                );
                for n in m.dead_nodes.iter().take(flags.top) {
                    println!("  dead: {}", p.instr_label(g.graph().node(*n).instr));
                }
                Ok(())
            }
            "copies" => {
                let p = load(target)?;
                let mut prof = copy_profiler();
                make_vm(&p, &flags)
                    .run(&mut prof)
                    .map_err(|e| e.to_string())?;
                let (g, _) = prof.finish();
                println!("copy ratio: {:.1}%", copy_ratio(&g) * 100.0);
                for c in copy_chains(&g).into_iter().take(flags.top) {
                    println!(
                        "  {}x {} -> {} via {} hops (store {})",
                        c.count,
                        c.source,
                        c.dest,
                        c.hops.len(),
                        p.instr_label(c.store)
                    );
                }
                Ok(())
            }
            "methods" => {
                let p = load(target)?;
                let mut calls = CallGraphTracer::new();
                let mut cost = CostProfiler::new(&p, CostGraphConfig::default());
                let mut both = (&mut calls, &mut cost);
                make_vm(&p, &flags)
                    .run(&mut both)
                    .map_err(|e| e.to_string())?;
                let gcost = cost.finish();
                let rel: std::collections::HashMap<_, _> =
                    lowutil::analyses::method_return_costs(&gcost, &p)
                        .into_iter()
                        .collect();
                println!(
                    "{:<30} {:>10} {:>10} {:>8} {:>10}",
                    "method", "self", "total", "calls", "ret-cost"
                );
                for c in method_costs(&calls, &p).into_iter().take(flags.top) {
                    let m = p.method(c.method);
                    let label = match m.class() {
                        Some(cl) => format!("{}.{}", p.class(cl).name(), m.name()),
                        None => m.name().to_string(),
                    };
                    println!(
                        "{:<30} {:>10} {:>10} {:>8} {:>10}",
                        label,
                        c.self_cost,
                        c.total_cost,
                        c.invocations,
                        rel.get(&c.method).copied().unwrap_or(0)
                    );
                }
                Ok(())
            }
            "caches" => {
                let p = load(target)?;
                let (g, _) = profile(&p, &flags)?;
                println!(
                    "{:<40} {:>9} {:>7} {:>7} {:>9}",
                    "location", "cached", "fills", "hits", "score"
                );
                for c in cache_effectiveness(&g).into_iter().take(flags.top) {
                    println!(
                        "{:<40} {:>9.1} {:>7} {:>7} {:>9.2}",
                        format!(
                            "{}.{}",
                            describe_site(&p, c.site),
                            describe_field(&p, c.field)
                        ),
                        c.cached_work,
                        c.writes,
                        c.reads,
                        c.score()
                    );
                }
                Ok(())
            }
            "stale" => {
                let p = load(target)?;
                let mut stale = lowutil::analyses::StalenessTracer::new();
                make_vm(&p, &flags)
                    .run(&mut stale)
                    .map_err(|e| e.to_string())?;
                print!("{}", stale.report(&p, flags.top));
                // Cross-reference the leak suspects against G_cost: how
                // much work built each stale site, and whether anything
                // read from it was worth it.
                let (g, _) = profile(&p, &flags)?;
                let config = CostBenefitConfig::default();
                println!("--- cost-benefit cross-reference ---");
                let engine = BatchAnalyzer::new(&g);
                print!("{}", stale.cost_report(&p, &g, &config, &engine, flags.top));
                Ok(())
            }
            "alloc" => {
                let p = load(target)?;
                let mut prof = lowutil::analyses::AllocationProfiler::new();
                make_vm(&p, &flags)
                    .run(&mut prof)
                    .map_err(|e| e.to_string())?;
                print!("{}", prof.report(&p, flags.top));
                Ok(())
            }
            "disasm" => {
                let p = load(target)?;
                print!("{}", display_program(&p));
                Ok(())
            }
            "optimize" => {
                let p = load(target)?;
                let (g, before) = profile(&p, &flags)?;
                let (opt, stats) = lowutil::analyses::eliminate_dead_instructions(&p, &g)
                    .map_err(|e| e.to_string())?;
                let after = make_vm(&opt, &flags)
                    .run(&mut NullTracer)
                    .map_err(|e| e.to_string())?;
                if after.output != before.output {
                    return Err("optimization changed program output".to_string());
                }
                eprintln!(
                    "removed {} of {} dead candidates ({} kept for safety)",
                    stats.removed, stats.candidates, stats.kept_for_safety
                );
                eprintln!(
                    "instructions: {} -> {} ({:.1}% less)",
                    before.instructions_executed,
                    after.instructions_executed,
                    100.0
                        * (1.0
                            - after.instructions_executed as f64
                                / before.instructions_executed.max(1) as f64)
                );
                // Emit re-parseable source: `lowutil optimize a.lu > b.lu`
                // produces a runnable program.
                print!("{}", lowutil::ir::display_program_source(&opt));
                Ok(())
            }
            "export" => {
                let p = load(target)?;
                let (g, _) = profile(&p, &flags)?;
                lowutil::core::write_cost_graph(&g, std::io::stdout().lock())
                    .map_err(|e| e.to_string())?;
                Ok(())
            }
            "dot" => {
                let p = load(target)?;
                let (g, _) = profile(&p, &flags)?;
                lowutil::core::write_dot(&g, Some(&p), std::io::stdout().lock())
                    .map_err(|e| e.to_string())?;
                Ok(())
            }
            "record" => {
                let p = load(target)?;
                let out_path = args
                    .get(2)
                    .ok_or("record needs <file.lu> <out.trace>".to_string())?;
                let file = std::fs::File::create(out_path)
                    .map_err(|e| format!("cannot create {out_path}: {e}"))?;
                let buf = std::io::BufWriter::new(file);
                let mut writer = match flags.segment_limit {
                    Some(limit) => TraceWriter::with_segment_limit(buf, limit),
                    None => TraceWriter::new(buf),
                };
                let out = make_vm(&p, &flags)
                    .run(&mut writer)
                    .map_err(|e| e.to_string())?;
                let (w, stats) = writer.finish().map_err(|e| e.to_string())?;
                w.into_inner().map_err(|e| format!("flush failed: {e}"))?;
                for v in &out.output {
                    println!("{v}");
                }
                eprintln!(
                    "-- recorded {} events ({} instructions) in {} segments, {} bytes",
                    stats.events, stats.instructions, stats.segments, stats.bytes
                );
                Ok(())
            }
            "replay" => {
                let p = load(target)?;
                let trace_path = args
                    .get(2)
                    .ok_or("replay needs <file.lu> <trace>".to_string())?;
                let bytes = std::fs::read(trace_path)
                    .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
                let reader = if flags.salvage {
                    // Damaged traces replay their longest checksum-valid
                    // prefix; the skip warning goes to stderr so report
                    // output stays diffable.
                    let (reader, stats) =
                        TraceReader::salvage(&bytes).map_err(|e| e.to_string())?;
                    if !stats.is_clean() {
                        eprintln!("-- salvage: {}", stats.summary());
                    }
                    reader
                } else {
                    TraceReader::new(&bytes).map_err(|e| e.to_string())?
                };
                let g = replay_cost_graph(&p, graph_config(&flags), &reader)
                    .map_err(|e| e.to_string())?;
                // A salvaged reader's trailer is synthesized from the
                // kept prefix, so totals match what was replayed.
                let instructions = reader.trailer().instructions;
                let csr = CsrGraph::build(g.graph());
                print!("{}", report(&p, &g, csr, instructions, flags.top));
                Ok(())
            }
            "suite" => {
                if target == "all" {
                    // Profile all 18 workloads on the pool; each task owns
                    // its VM + profiler. Rows print in Table 1 order.
                    let rows = lowutil::workloads::map_suite(flags.size, flags.jobs, |w| {
                        let (g, out) = profile(&w.program, &flags)?;
                        let dead = dead_value_metrics(&g, out.instructions_executed);
                        Ok::<String, String>(format!(
                            "{:<12} {:>14} {:>8} {:>7.1} {:>7.1} {:>7.1}",
                            w.name,
                            out.instructions_executed,
                            g.graph().num_nodes(),
                            dead.ipd * 100.0,
                            dead.ipp * 100.0,
                            dead.nld * 100.0,
                        ))
                    });
                    println!(
                        "{:<12} {:>14} {:>8} {:>7} {:>7} {:>7}",
                        "program", "I", "N", "IPD%", "IPP%", "NLD%"
                    );
                    for row in rows {
                        println!("{}", row?);
                    }
                    return Ok(());
                }
                if !NAMES.contains(&target) {
                    return Err(format!("unknown workload `{target}`; one of {NAMES:?}"));
                }
                let w = workload(target, flags.size);
                println!("{}: {}", w.name, w.description);
                let (g, out) = profile(&w.program, &flags)?;
                let csr = CsrGraph::build(g.graph());
                print!(
                    "{}",
                    report(&w.program, &g, csr, out.instructions_executed, flags.top)
                );
                Ok(())
            }
            "snapshot" => match target {
                "save" => {
                    let prog_path = args
                        .get(2)
                        .ok_or("snapshot save needs <file.lu> <out.snap>".to_string())?;
                    let out_path = args
                        .get(3)
                        .ok_or("snapshot save needs <file.lu> <out.snap>".to_string())?;
                    let p = load(prog_path)?;
                    let (g, out) = profile(&p, &flags)?;
                    save_snapshot(&g, out.instructions_executed, out_path)
                        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
                    eprintln!(
                        "-- snapshot {out_path}: {} nodes, {} edges, content hash {:016x}",
                        g.graph().num_nodes(),
                        g.graph().num_edges(),
                        content_hash(&g)
                    );
                    Ok(())
                }
                "load" => {
                    let prog_path = args
                        .get(2)
                        .ok_or("snapshot load needs <file.lu> <in.snap>".to_string())?;
                    let snap_path = args
                        .get(3)
                        .ok_or("snapshot load needs <file.lu> <in.snap>".to_string())?;
                    let p = load(prog_path)?;
                    let buf = AlignedBuf::load(snap_path)
                        .map_err(|e| format!("cannot read {snap_path}: {e}"))?;
                    let snap = read_snapshot(&buf).map_err(|e| format!("{snap_path}: {e}"))?;
                    // The report needs structure membership and labels, so
                    // a CostGraph is still materialized — but the engine
                    // runs over the snapshot's zero-copy CSR arrays.
                    let gcost = snap.to_cost_graph();
                    // Cheap clone: borrowed Cow arrays stay borrowed.
                    let csr = snap.csr().clone();
                    print!(
                        "{}",
                        report(&p, &gcost, csr, snap.total_instructions(), flags.top)
                    );
                    Ok(())
                }
                "info" => {
                    let snap_path = args
                        .get(2)
                        .ok_or("snapshot info needs <in.snap>".to_string())?;
                    let buf = AlignedBuf::load(snap_path)
                        .map_err(|e| format!("cannot read {snap_path}: {e}"))?;
                    let snap = read_snapshot(&buf).map_err(|e| format!("{snap_path}: {e}"))?;
                    println!("file bytes         {}", buf.as_bytes().len());
                    println!("nodes              {}", snap.num_nodes());
                    println!("edges              {}", snap.num_edges());
                    println!("content hash       {:016x}", snap.content_hash());
                    println!("instr instances    {}", snap.instr_instances());
                    println!("shadow heap bytes  {}", snap.shadow_heap_bytes());
                    println!("total instructions {}", snap.total_instructions());
                    Ok(())
                }
                "verify" => {
                    let snap_path = args
                        .get(2)
                        .ok_or("snapshot verify needs <in.snap>".to_string())?;
                    let buf = AlignedBuf::load(snap_path)
                        .map_err(|e| format!("cannot read {snap_path}: {e}"))?;
                    let report = lowutil::core::verify_snapshot(&buf);
                    if let Some((nodes, edges)) = report.declared {
                        println!("declared  nodes {nodes}  edges {edges}");
                    }
                    if let Some(h) = report.content_hash {
                        println!("content hash {h:016x}");
                    }
                    for s in &report.sections {
                        println!(
                            "section {:<11} {:>10} bytes  {}",
                            s.name,
                            s.len,
                            match &s.status {
                                Ok(()) => "ok",
                                Err(e) => e.as_str(),
                            }
                        );
                    }
                    match &report.error {
                        None => println!("snapshot OK"),
                        Some(e) => {
                            println!("snapshot CORRUPT: {e}");
                            exit = ExitCode::FAILURE;
                        }
                    }
                    Ok(())
                }
                other => Err(format!(
                    "snapshot needs save|load|info|verify, not `{other}`"
                )),
            },
            "serve" => {
                let cfg = ServeConfig {
                    data_dir: std::path::PathBuf::from(target),
                    listen: flags
                        .listen
                        .clone()
                        .unwrap_or_else(|| "127.0.0.1:0".to_string()),
                    unix_socket: flags.unix.as_ref().map(std::path::PathBuf::from),
                    spool_dir: flags.spool.as_ref().map(std::path::PathBuf::from),
                    programs_dir: flags.programs.as_ref().map(std::path::PathBuf::from),
                    default_size: flags.size,
                    graph: graph_config(&flags),
                    idle_timeout: std::time::Duration::from_secs(flags.idle_secs.unwrap_or(30)),
                    ..ServeConfig::default()
                };
                let handle = Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
                // Scripts parse this line to discover the auto-assigned
                // port, so it must reach the pipe before blocking.
                println!("tcp {}", handle.addr());
                std::io::Write::flush(&mut std::io::stdout()).map_err(|e| e.to_string())?;
                handle.wait();
                Ok(())
            }
            "push" => {
                let addr = target;
                let (tenant, program, trace_path) = match (args.get(2), args.get(3), args.get(4)) {
                    (Some(t), Some(p), Some(f)) => (t.as_str(), p.as_str(), f.as_str()),
                    _ => return Err("push needs <addr> <tenant> <program> <trace>".to_string()),
                };
                let bytes = std::fs::read(trace_path)
                    .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
                let id = std::path::Path::new(trace_path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "session".to_string());
                let response = lowutil::serve::push_trace(addr, tenant, program, &id, &bytes)
                    .map_err(|e| format!("push to {addr}: {e}"))?;
                print!("{response}");
                if !response.starts_with("ok ") {
                    exit = ExitCode::FAILURE;
                }
                Ok(())
            }
            "query" => {
                let addr = target;
                let words: Vec<&str> = args[2..].iter().map(String::as_str).collect();
                if words.is_empty() {
                    return Err("query needs <addr> <words...>".to_string());
                }
                let line = match words[0] {
                    "stats" | "shutdown" => words.join(" "),
                    _ => format!("query {}", words.join(" ")),
                };
                let response = lowutil::serve::request(addr, &line)
                    .map_err(|e| format!("query to {addr}: {e}"))?;
                print!("{response}");
                if response.starts_with("error ") || response.starts_with("rejected ") {
                    exit = ExitCode::FAILURE;
                }
                Ok(())
            }
            "diff" => {
                let a_path = target;
                let b_path = args
                    .get(2)
                    .ok_or("diff needs <a.snap> <b.snap>".to_string())?;
                let keys_of =
                    |path: &str| -> Result<Vec<(lowutil::analyses::DiffKey, f64)>, String> {
                        let buf = AlignedBuf::load(path)
                            .map_err(|e| format!("cannot read {path}: {e}"))?;
                        let snap = read_snapshot(&buf).map_err(|e| format!("{path}: {e}"))?;
                        let gcost = snap.to_cost_graph();
                        let ranked = rank(&gcost, &BatchAnalyzer::with_csr(snap.csr().clone()));
                        Ok(ranked_keys(&gcost, &ranked))
                    };
                let ka = keys_of(a_path)?;
                let kb = keys_of(b_path)?;
                let dconfig = DiffConfig {
                    min_imbalance: flags.min_imbalance,
                    worsen_factor: flags.worsen_factor,
                };
                let report = diff_rankings(&ka, &kb, &dconfig);
                print!("{}", report.render());
                if flags.fail_on_regression && report.has_regression() {
                    exit = ExitCode::from(3);
                }
                Ok(())
            }
            _ => Err("unknown command".to_string()),
        }
    })();

    match result {
        Ok(()) => exit,
        Err(e) => {
            eprintln!("lowutil: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(args: &[&str]) -> Flags {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn value_flags_parse_their_values() {
        let f = flags_of(&[
            "--top", "3", "--slots", "8", "--jobs", "2", "--size", "small",
        ]);
        assert_eq!(f.top, 3);
        assert_eq!(f.slots, 8);
        assert_eq!(f.jobs, 2);
        assert!(matches!(f.size, WorkloadSize::Small));
    }

    #[test]
    fn value_flag_with_missing_value_does_not_swallow_next_flag() {
        // `--top` at the end of `--top --control` must not eat `--control`.
        let f = flags_of(&["--top", "--control"]);
        assert_eq!(f.top, 10);
        assert!(f.control);
        let f = flags_of(&["--size", "--traditional"]);
        assert!(matches!(f.size, WorkloadSize::Default));
        assert!(f.traditional);
        let f = flags_of(&["--slots", "--jobs", "3"]);
        assert_eq!(f.slots, 16);
        assert_eq!(f.jobs, 3);
        let f = flags_of(&["--jobs", "--top", "5"]);
        assert_eq!(f.top, 5);
    }

    #[test]
    fn salvage_flag_parses_and_composes() {
        let f = flags_of(&["--salvage"]);
        assert!(f.salvage);
        let f = flags_of(&["--salvage", "--jobs", "3"]);
        assert!(f.salvage);
        assert_eq!(f.jobs, 3);
        // A value flag with a missing value must not swallow --salvage.
        let f = flags_of(&["--top", "--salvage"]);
        assert_eq!(f.top, 10);
        assert!(f.salvage);
        let f = flags_of(&[]);
        assert!(!f.salvage);
    }

    #[test]
    fn segment_limit_flag_parses() {
        let f = flags_of(&["--segment-limit", "64"]);
        assert_eq!(f.segment_limit, Some(64));
        let f = flags_of(&[]);
        assert_eq!(f.segment_limit, None);
        // Missing value keeps the default without swallowing the next flag.
        let f = flags_of(&["--segment-limit", "--salvage"]);
        assert_eq!(f.segment_limit, None);
        assert!(f.salvage);
    }

    #[test]
    fn zero_values_are_clamped() {
        let f = flags_of(&["--jobs", "0"]);
        assert_eq!(f.jobs, 1);
        let f = flags_of(&["--slots", "0"]);
        assert_eq!(f.slots, 1);
        let f = flags_of(&["--segment-limit", "0"]);
        assert_eq!(f.segment_limit, Some(1));
    }

    #[test]
    fn sched_seed_flag_parses() {
        let f = flags_of(&["--sched-seed", "7"]);
        assert_eq!(f.sched_seed, 7);
        let f = flags_of(&[]);
        assert_eq!(f.sched_seed, 0);
        // Missing value keeps the default without swallowing the next flag.
        let f = flags_of(&["--sched-seed", "--salvage"]);
        assert_eq!(f.sched_seed, 0);
        assert!(f.salvage);
    }

    #[test]
    fn trailing_value_flag_keeps_defaults() {
        let f = flags_of(&["--top"]);
        assert_eq!(f.top, 10);
        let f = flags_of(&["--size"]);
        assert!(matches!(f.size, WorkloadSize::Default));
    }

    #[test]
    fn min_imbalance_flag_parses() {
        let f = flags_of(&["--min-imbalance", "2.5"]);
        assert_eq!(f.min_imbalance, 2.5);
        let f = flags_of(&[]);
        assert_eq!(f.min_imbalance, DiffConfig::default().min_imbalance);
        // Missing, unparsable, or negative values keep the default
        // without swallowing the next flag.
        let f = flags_of(&["--min-imbalance", "--salvage"]);
        assert_eq!(f.min_imbalance, DiffConfig::default().min_imbalance);
        assert!(f.salvage);
        let f = flags_of(&["--min-imbalance", "-3"]);
        assert_eq!(f.min_imbalance, DiffConfig::default().min_imbalance);
        let f = flags_of(&["--min-imbalance", "NaN"]);
        assert_eq!(f.min_imbalance, DiffConfig::default().min_imbalance);
    }

    #[test]
    fn worsen_factor_flag_parses_and_clamps() {
        let f = flags_of(&["--worsen-factor", "1.5"]);
        assert_eq!(f.worsen_factor, 1.5);
        let f = flags_of(&[]);
        assert_eq!(f.worsen_factor, DiffConfig::default().worsen_factor);
        // Sub-identity factors would flag improvements as regressions.
        let f = flags_of(&["--worsen-factor", "0.5"]);
        assert_eq!(f.worsen_factor, 1.0);
        // Missing value keeps the default without swallowing the next flag.
        let f = flags_of(&["--worsen-factor", "--fail-on-regression"]);
        assert_eq!(f.worsen_factor, DiffConfig::default().worsen_factor);
        assert!(f.fail_on_regression);
    }

    #[test]
    fn fail_on_regression_flag_parses_and_composes() {
        let f = flags_of(&["--fail-on-regression"]);
        assert!(f.fail_on_regression);
        let f = flags_of(&[]);
        assert!(!f.fail_on_regression);
        // A value flag with a missing value must not swallow it.
        let f = flags_of(&["--listen", "--fail-on-regression"]);
        assert_eq!(f.listen, None);
        assert!(f.fail_on_regression);
    }

    #[test]
    fn unparsable_values_keep_defaults() {
        let f = flags_of(&["--top", "many", "--jobs", "-1"]);
        assert_eq!(f.top, 10);
        // "many" and "-1" are consumed as (bad) values, not re-parsed as
        // positional arguments.
        assert!(f.jobs >= 1);
    }
}
