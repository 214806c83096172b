//! Compares two result files of the benchmark, run by run.
//!
//! ```text
//! compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Each file holds the run records the benchmark appends (one JSON
//! object per run, see the README). For every workload and end-to-end
//! metric it prints each side's median and quartiles and a verdict
//! against the bound `BENCHMARK.json` gives that metric, then each
//! workload's failed ops. Exits 1 when any verdict is `worse` or any
//! workload's change fails more ops than its parent (or reports
//! `correct: false`), 2 on a usage or input error.

use lowutil_perfbench::compare::{compare, render, runs, specs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = "BENCHMARK.json".to_string();
    if let Some(i) = args.iter().position(|a| a == "--bench") {
        if i + 1 >= args.len() {
            eprintln!("--bench needs a path");
            return ExitCode::from(2);
        }
        bench = args.remove(i + 1);
        args.remove(i);
    }
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: compare [--bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let loaded = read(&bench)
        .and_then(|b| specs(&b))
        .and_then(|s| Ok((s, read(parent)?, read(change)?)));
    let (specs, a, b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let c = compare(&specs, &runs(&a), &runs(&b));
    if c.rows.is_empty() {
        eprintln!("no workload has runs in both files");
        return ExitCode::from(2);
    }
    print!("{}", render(&c));
    for m in &c.missing {
        println!("missing on one side: {m}");
    }
    if c.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
