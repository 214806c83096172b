//! Regenerates the §4.2 case studies: for each of the six applications the
//! paper tuned, run the bloated and optimized variants, verify identical
//! output, and report the work reduction next to the paper's reported
//! running-time reduction. Also prints the top of the tool report for the
//! bloated variant, showing that the planted low-utility structure is what
//! the ranking surfaces.
//!
//! The six studies run on a thread pool (`--jobs N`); each pool task owns
//! every VM and profiler it runs, and results print in the fixed study
//! order, so output is identical to a sequential `--jobs 1` run.
//!
//! Usage: `case_studies [--size small|default|large] [--report] [--jobs N]
//! [--verify-replay]`
//!
//! `--verify-replay` additionally records each bloated run's event trace
//! and checks that the salvage-replay path rebuilds the very graph the
//! numbers came from — the case-study results are then certified
//! reproducible from a trace artifact alone.

use lowutil_analyses::cost::CostBenefitConfig;
use lowutil_analyses::dead::dead_value_metrics;
use lowutil_analyses::report::low_utility_report_batch;
use lowutil_bench::{run_plain, run_profiled, run_recorded, run_salvage_replayed};
use lowutil_core::CostGraphConfig;
use lowutil_workloads::{workload, WorkloadSize};

/// (benchmark, paper-reported running-time reduction %)
const STUDIES: [(&str, f64); 6] = [
    ("bloat", 37.0),
    ("eclipse", 14.5),
    ("sunflow", 12.0), // paper: 9–15%
    ("derby", 6.0),
    ("tomcat", 2.0),
    ("tradebeans", 2.5),
];

/// Everything both report sections need for one study, computed by one
/// pool task.
struct StudyRow {
    name: &'static str,
    paper_pct: f64,
    base_instrs: u64,
    fast_instrs: u64,
    work_red: f64,
    obj_red: f64,
    auto_red: f64,
    same_output: bool,
    ipd: f64,
    ipp: f64,
    nld: f64,
    graph_nodes: usize,
    report: Option<String>,
}

fn main() {
    let mut size = WorkloadSize::Default;
    let mut show_report = false;
    let mut verify_replay = false;
    let mut jobs = lowutil_par::default_jobs();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => match lowutil_bench::args::take_size(&mut args) {
                Some(s) => size = s,
                None => eprintln!("--size needs small|default|large"),
            },
            "--report" => show_report = true,
            "--verify-replay" => verify_replay = true,
            "--jobs" => match lowutil_bench::args::take_jobs(&mut args) {
                Some(n) => jobs = n,
                None => eprintln!("--jobs needs a number"),
            },
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }

    let rows = lowutil_par::par_map(jobs, STUDIES.to_vec(), |(name, paper_pct)| {
        let w = workload(name, size);
        let opt = w.optimized.as_ref().expect("case study has a fix");
        let (base, _) = run_plain(&w.program);
        let (fast, _) = run_plain(opt);
        let same_output = base.output == fast.output;
        let work_red =
            100.0 * (1.0 - fast.instructions_executed as f64 / base.instructions_executed as f64);
        let obj_red =
            100.0 * (1.0 - fast.objects_allocated as f64 / base.objects_allocated.max(1) as f64);
        // What the automatic dead-structure elimination pass recovers,
        // without any of the paper's restructuring.
        let (graph, out, _) = run_profiled(&w.program, CostGraphConfig::default());
        let auto_red = match lowutil_analyses::eliminate_dead_instructions(&w.program, &graph) {
            Ok((auto_prog, _)) => {
                let (auto_out, _) = run_plain(&auto_prog);
                assert_eq!(
                    auto_out.output, base.output,
                    "{name}: auto pass broke output"
                );
                100.0
                    * (1.0
                        - auto_out.instructions_executed as f64 / base.instructions_executed as f64)
            }
            Err(_) => 0.0,
        };
        // Optionally certify the graph is reproducible from a recorded
        // trace alone, through the hardened salvage-replay path.
        if verify_replay {
            let (_, trace, _, _) = run_recorded(&w.program);
            let (replayed, stats, _) =
                run_salvage_replayed(&w.program, CostGraphConfig::default(), &trace);
            assert!(stats.is_clean(), "{name}: fresh recording flagged damaged");
            let canon = |g: &lowutil_core::CostGraph| {
                let mut buf = Vec::new();
                lowutil_core::write_cost_graph(g, &mut buf).expect("in-memory write");
                buf
            };
            assert_eq!(
                canon(&graph),
                canon(&replayed),
                "{name}: trace replay diverged from the live graph"
            );
        }
        let dead = dead_value_metrics(&graph, out.instructions_executed);
        // Batch engine, sequential: the study pool already runs one task
        // per study, and the engine choice cannot change the bytes.
        let report = show_report.then(|| {
            low_utility_report_batch(
                &w.program,
                &graph,
                &CostBenefitConfig::default(),
                3,
                Some(&dead),
                1,
            )
        });
        StudyRow {
            name,
            paper_pct,
            base_instrs: base.instructions_executed,
            fast_instrs: fast.instructions_executed,
            work_red,
            obj_red,
            auto_red,
            same_output,
            ipd: dead.ipd,
            ipp: dead.ipp,
            nld: dead.nld,
            graph_nodes: graph.graph().num_nodes(),
            report,
        }
    });

    println!("=== case studies (paper §4.2): bloated vs optimized ===");
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>10} {:>12} {:>9} {:>9}",
        "program",
        "I(bloated)",
        "I(fixed)",
        "work-red%",
        "paper%",
        "objs-red%",
        "auto%",
        "output=="
    );
    for row in &rows {
        println!(
            "{:<12} {:>14} {:>14} {:>9.1} {:>10.1} {:>11.1} {:>9.1} {:>9}",
            row.name,
            row.base_instrs,
            row.fast_instrs,
            row.work_red,
            row.paper_pct,
            row.obj_red,
            row.auto_red,
            if row.same_output { "yes" } else { "NO" },
        );
        assert!(
            row.same_output,
            "{}: the fix changed observable output",
            row.name
        );
    }

    if verify_replay {
        println!("(replay-verified: every study graph was rebuilt byte-identically from its recorded trace)");
    }

    println!();
    println!("=== what the tool report shows for each bloated variant ===");
    for row in &rows {
        println!(
            "{}: IPD {:.1}%  IPP {:.1}%  NLD {:.1}%  (graph: {} nodes)",
            row.name,
            row.ipd * 100.0,
            row.ipp * 100.0,
            row.nld * 100.0,
            row.graph_nodes,
        );
        if let Some(report) = &row.report {
            for line in report.lines() {
                println!("    {line}");
            }
        }
    }
}
