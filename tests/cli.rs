//! Smoke tests for the `lowutil` command-line tool, driving the real
//! binary against the shipped sample program.

use std::process::Command;

fn lowutil(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_lowutil"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const SAMPLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/wasteful.lu");
const COPYCHAIN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/copychain.lu");
const LEAK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/leak.lu");
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/golden.lu");

#[test]
fn run_executes_and_prints_output() {
    let (stdout, stderr, ok) = lowutil(&["run", SAMPLE]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "1");
    assert!(stderr.contains("instructions"));
}

#[test]
fn report_ranks_the_wasteful_structure() {
    let (stdout, _, ok) = lowutil(&["report", SAMPLE, "--top", "3"]);
    assert!(ok);
    assert!(stdout.contains("new Report"), "{stdout}");
    assert!(stdout.contains("RAB 0.0"), "{stdout}");
    assert!(stdout.contains("IPD"), "{stdout}");
}

#[test]
fn methods_attributes_cost_to_the_hot_callee() {
    let (stdout, _, ok) = lowutil(&["methods", SAMPLE]);
    assert!(ok);
    assert!(stdout.contains("expensive_summary"), "{stdout}");
}

#[test]
fn disasm_round_trips_structure() {
    let (stdout, _, ok) = lowutil(&["disasm", SAMPLE]);
    assert!(ok);
    assert!(stdout.contains("method main/0"));
    assert!(stdout.contains("class Report"));
}

#[test]
fn control_flag_inflates_costs() {
    let (plain, _, ok1) = lowutil(&["report", SAMPLE, "--top", "1"]);
    let (control, _, ok2) = lowutil(&["report", SAMPLE, "--top", "1", "--control"]);
    assert!(ok1 && ok2);
    let rac = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.contains("n-RAC"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    assert!(
        rac(&control) > rac(&plain),
        "control: {control}\nplain: {plain}"
    );
}

#[test]
fn alloc_profiles_sites() {
    let (stdout, _, ok) = lowutil(&["alloc", SAMPLE]);
    assert!(ok);
    assert!(stdout.contains("total allocations: 1"), "{stdout}");
    assert!(stdout.contains("new Report"), "{stdout}");
}

#[test]
fn export_emits_a_parseable_graph() {
    let (stdout, _, ok) = lowutil(&["export", SAMPLE]);
    assert!(ok);
    assert!(stdout.starts_with("gcost 1"), "{stdout}");
    let reloaded = lowutil::core::read_cost_graph(stdout.as_bytes()).expect("round trip");
    assert!(reloaded.graph().num_nodes() > 0);
}

/// `--pipeline` no longer exists; old scripts passing it get a warning
/// and the ordinary export.
#[test]
fn removed_pipeline_flag_is_ignored_by_export() {
    let (plain, _, ok) = lowutil(&["export", SAMPLE]);
    assert!(ok);
    let (stdout, stderr, ok) = lowutil(&["export", SAMPLE, "--pipeline", "--jobs", "3"]);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("ignoring unknown flag `--pipeline`"),
        "{stderr}"
    );
    assert_eq!(stdout, plain);
}

#[test]
fn dot_emits_graphviz() {
    let (stdout, _, ok) = lowutil(&["dot", SAMPLE]);
    assert!(ok);
    assert!(stdout.starts_with("digraph gcost"));
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn copies_finds_the_relay_chain() {
    let (stdout, _, ok) = lowutil(&["copies", COPYCHAIN]);
    assert!(ok);
    assert!(stdout.contains("25x"), "{stdout}");
    assert!(stdout.contains("via 2 hops"), "{stdout}");
}

#[test]
fn stale_flags_the_session_leak() {
    let (stdout, _, ok) = lowutil(&["stale", LEAK, "--top", "1"]);
    assert!(ok);
    assert!(stdout.contains("new Session"), "{stdout}");
    assert!(stdout.contains("100% of lifetime"), "{stdout}");
}

#[test]
fn stale_reports_site_staleness() {
    let (stdout, _, ok) = lowutil(&["stale", SAMPLE]);
    assert!(ok);
    assert!(stdout.contains("new Report"), "{stdout}");
    assert!(stdout.contains("% of lifetime"), "{stdout}");
}

#[test]
fn optimize_removes_the_dead_chain_and_prints_the_program() {
    let (stdout, stderr, ok) = lowutil(&["optimize", SAMPLE]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("removed"), "{stderr}");
    assert!(stderr.contains("% less"), "{stderr}");
    // The optimized program is valid assembly-ish output.
    assert!(stdout.contains("method main/0"));
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, stderr, ok) = lowutil(&["run", "/nonexistent.lu"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn unknown_command_shows_usage() {
    let (_, stderr, ok) = lowutil(&["frobnicate", SAMPLE]);
    assert!(!ok);
    assert!(stderr.contains("unknown command") || stderr.contains("usage"));
}

#[test]
fn record_then_replay_matches_the_live_report() {
    let trace = std::env::temp_dir().join(format!("lowutil-cli-{}.trace", std::process::id()));
    let trace = trace.to_str().expect("temp path is UTF-8");

    let (live, _, ok) = lowutil(&["report", SAMPLE, "--top", "3"]);
    assert!(ok);

    let (run_out, stderr, ok) = lowutil(&["record", SAMPLE, trace]);
    assert!(ok, "{stderr}");
    assert_eq!(run_out.trim(), "1", "record still executes the program");
    assert!(stderr.contains("recorded"), "{stderr}");

    for jobs in ["1", "4"] {
        let (replayed, stderr, ok) =
            lowutil(&["replay", SAMPLE, trace, "--jobs", jobs, "--top", "3"]);
        assert!(ok, "{stderr}");
        assert_eq!(
            replayed, live,
            "replay at --jobs {jobs} diverged from live report"
        );
    }

    let _ = std::fs::remove_file(trace);
}

#[test]
fn salvage_replays_a_truncated_trace() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("lowutil-cli-salvage-{}.trace", std::process::id()));
    let cut = dir.join(format!("lowutil-cli-salvage-{}.cut", std::process::id()));
    let trace_s = trace.to_str().expect("temp path is UTF-8");
    let cut_s = cut.to_str().expect("temp path is UTF-8");

    // The golden sample calls in a loop, so a small segment limit makes
    // the recording genuinely multi-segment and truncation leaves a
    // non-trivial salvageable prefix (wasteful.lu makes a single call
    // and can never split).
    let (_, stderr, ok) = lowutil(&["record", GOLDEN, trace_s, "--segment-limit", "64"]);
    assert!(ok, "{stderr}");
    assert!(!stderr.contains("in 1 segments"), "{stderr}");
    let bytes = std::fs::read(&trace).expect("trace written");
    std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).expect("truncated copy written");

    // Without --salvage a damaged trace is a hard error…
    let (_, stderr, ok) = lowutil(&["replay", GOLDEN, cut_s]);
    assert!(!ok, "truncated replay must fail without --salvage");
    assert!(!stderr.is_empty());

    // …with it, the prefix replays, deterministically at any job count.
    let (first, stderr, ok) = lowutil(&["replay", GOLDEN, cut_s, "--salvage", "--jobs", "1"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("salvage"), "{stderr}");
    assert!(!stderr.contains("kept 0 segments"), "{stderr}");
    assert!(first.contains("low-utility data structures"), "{first}");
    for jobs in ["2", "7"] {
        let (out, stderr, ok) = lowutil(&["replay", GOLDEN, cut_s, "--salvage", "--jobs", jobs]);
        assert!(ok, "{stderr}");
        assert_eq!(out, first, "salvage replay diverged at --jobs {jobs}");
    }

    // A clean trace under --salvage matches the plain replay exactly.
    let (plain, _, ok1) = lowutil(&["replay", GOLDEN, trace_s]);
    let (salv, stderr, ok2) = lowutil(&["replay", GOLDEN, trace_s, "--salvage"]);
    assert!(ok1 && ok2);
    assert_eq!(plain, salv);
    assert!(
        !stderr.contains("salvage"),
        "clean trace must not warn: {stderr}"
    );

    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(cut);
}

#[test]
fn record_requires_an_output_path() {
    let (_, stderr, ok) = lowutil(&["record", SAMPLE]);
    assert!(!ok);
    assert!(
        stderr.contains("usage") || stderr.contains("trace"),
        "{stderr}"
    );
}

#[test]
fn value_flags_do_not_swallow_following_flags() {
    // `--top` missing its value must not consume `--control`; the report
    // should still come out (with a warning), not crash or misparse.
    let (stdout, stderr, ok) = lowutil(&["report", SAMPLE, "--top", "--control"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("low-utility data structures"), "{stdout}");
    assert!(
        stderr.contains("--top"),
        "warns about the missing value: {stderr}"
    );
}

#[test]
fn suite_command_runs_a_builtin_workload() {
    let (stdout, _, ok) = lowutil(&["suite", "chart", "--size", "small", "--top", "2"]);
    assert!(ok);
    assert!(stdout.contains("low-utility data structures"), "{stdout}");
}
