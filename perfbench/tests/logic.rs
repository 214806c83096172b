//! Tests of the benchmark's own logic: tail-percentile selection, the
//! seeded arrival schedule, the compare verdicts, and agreement between
//! `BENCHMARK.json` and the metrics the benchmark prints.

use lowutil_perfbench::compare::{compare, render, runs, specs, verdict, MetricSpec, Verdict};
use lowutil_perfbench::json::{self, Value};
use lowutil_perfbench::metrics::{END_TO_END, PER_LAYER};
use lowutil_perfbench::schedule::{poisson_arrivals, Rng};
use lowutil_perfbench::spans::Recorder;
use lowutil_perfbench::stats::{median, quartiles, tail, TAIL_BEYOND};
use std::time::Instant;

#[test]
fn tail_leaves_exactly_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&xs).expect("100 samples have a tail");
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.beyond, TAIL_BEYOND);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

    let xs: Vec<f64> = (1..=250).map(f64::from).collect();
    let t = tail(&xs).unwrap();
    assert_eq!(t.value, 240.0);
    assert_eq!(t.percentile, 96.0);
}

#[test]
fn tail_needs_more_than_ten_samples() {
    let ten: Vec<f64> = (0..10).map(f64::from).collect();
    assert!(tail(&ten).is_none());
    let eleven: Vec<f64> = (0..11).map(f64::from).collect();
    let t = tail(&eleven).unwrap();
    assert_eq!(t.value, 0.0);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
}

#[test]
fn quartiles_match_python_statistics() {
    // Values from statistics.quantiles(xs, n=4).
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
    assert_eq!(
        quartiles(&[215.0, 165.0, 186.0, 176.0, 182.0]),
        [170.5, 182.0, 200.5]
    );
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn poisson_schedule_repeats_for_equal_seeds() {
    let a = poisson_arrivals(7, 200, 20.0);
    assert_eq!(a, poisson_arrivals(7, 200, 20.0));
    assert_ne!(a, poisson_arrivals(8, 200, 20.0));
    assert_eq!(a.len(), 200);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| t > 0.0 && t < 20.0));

    let mut r1 = Rng::new(3);
    let mut r2 = Rng::new(3);
    let d1: Vec<usize> = (0..50).map(|_| r1.below(9)).collect();
    let d2: Vec<usize> = (0..50).map(|_| r2.below(9)).collect();
    assert_eq!(d1, d2);
}

#[test]
fn poisson_gaps_look_exponential() {
    let a = poisson_arrivals(1, 4000, 400.0);
    let gaps: Vec<f64> = std::iter::once(a[0])
        .chain(a.windows(2).map(|w| w[1] - w[0]))
        .collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!((mean - 0.1).abs() < 0.005, "mean gap {mean}");
    // An exponential's median is ln 2 times its mean.
    let ratio = median(&gaps) / mean;
    assert!(
        (ratio - std::f64::consts::LN_2).abs() < 0.05,
        "median/mean {ratio}"
    );
}

fn lower(bound: f64) -> MetricSpec {
    MetricSpec {
        name: "p50_ms".to_string(),
        unit: "ms".to_string(),
        lower_is_better: true,
        bound,
    }
}

#[test]
fn verdicts_on_fixed_inputs() {
    let parent = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
    ];
    let shift = |k: f64| parent.map(|x| x * k);

    assert_eq!(
        verdict(&lower(0.1), &parent, &shift(1.02)),
        Verdict::Unchanged
    );
    assert_eq!(verdict(&lower(0.1), &parent, &shift(1.3)), Verdict::Worse);
    assert_eq!(verdict(&lower(0.1), &parent, &shift(0.8)), Verdict::Better);

    // ops_per_s falling is a regression.
    let higher = MetricSpec {
        lower_is_better: false,
        ..lower(0.1)
    };
    assert_eq!(verdict(&higher, &parent, &shift(0.8)), Verdict::Worse);
    assert_eq!(verdict(&higher, &parent, &shift(1.3)), Verdict::Better);

    // Spread wider than the bound: unresolved unless every change run
    // beats every parent run.
    let wide = [
        80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
    ];
    let wide_worse = wide.map(|x| x * 1.05);
    assert_eq!(
        verdict(&lower(0.05), &wide, &wide_worse),
        Verdict::Unresolved
    );
    let far_better = wide.map(|x| x * 0.5);
    assert_eq!(verdict(&lower(0.05), &wide, &far_better), Verdict::Better);

    // A shift past the parent's spread that wins too few pairs.
    let mut mixed = shift(0.97);
    mixed[0] = 120.0;
    mixed[1] = 120.0;
    assert_eq!(verdict(&lower(0.1), &parent, &mixed), Verdict::Unresolved);
}

const RECORDS_A: &str = r#"perfbench profile seed=1 trace=0
{"workload": "profile", "seed": 1, "trace": 0, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"p50_ms": {"value": 100, "unit": "ms"}}}}
{"workload": "profile", "seed": 2, "trace": 0, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"p50_ms": {"value": 102, "unit": "ms"}}}}
{"workload": "profile", "seed": 3, "trace": 1, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"vm.dispatch_ms": {"value": 5, "unit": "ms"}}}}
{"workload": "serve", "seed": 1, "trace": 0, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"p50_ms": {"value": 50, "unit": "ms"}}}}
"#;

const RECORDS_B: &str = r#"{"workload": "profile", "seed": 1, "trace": 0, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"p50_ms": {"value": 150, "unit": "ms"}}}}
{"workload": "profile", "seed": 2, "trace": 0, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"p50_ms": {"value": 151, "unit": "ms"}}}}
"#;

#[test]
fn compare_groups_runs_and_flags_regressions() {
    let a = runs(RECORDS_A);
    assert_eq!(a["profile"].metrics["p50_ms"], vec![100.0, 102.0]);
    assert_eq!((a["profile"].attempted, a["profile"].failed), (18, 0));
    assert!(
        !a["profile"].metrics.contains_key("vm.dispatch_ms"),
        "traced runs are skipped"
    );
    let b = runs(RECORDS_B);
    let c = compare(&[lower(0.1)], &a, &b);
    assert_eq!(c.rows.len(), 1);
    assert_eq!(c.rows[0].workload, "profile");
    assert_eq!(c.rows[0].verdict, Verdict::Worse);
    assert_eq!(c.rows[0].parent.median, 101.0);
    assert_eq!(c.missing, vec!["serve p50_ms".to_string()]);
    assert!(c.regressed());
    assert!(!c.failures[0].failing());
}

const RECORDS_FAST_BUT_FAILING: &str = r#"{"workload": "profile", "seed": 1, "trace": 0, "meta": {}, "result": {"correct": false, "attempted": 9, "failed": 1, "metrics": {"p50_ms": {"value": 50, "unit": "ms"}}}}
{"workload": "profile", "seed": 2, "trace": 0, "meta": {}, "result": {"correct": true, "attempted": 9, "failed": 0, "metrics": {"p50_ms": {"value": 51, "unit": "ms"}}}}
"#;

#[test]
fn compare_refuses_a_gain_with_more_failed_ops() {
    let a = runs(RECORDS_A);
    let b = runs(RECORDS_FAST_BUT_FAILING);
    assert_eq!(b["profile"].failed, 1);
    assert_eq!(b["profile"].incorrect, 1);
    let c = compare(&[lower(0.1)], &a, &b);
    assert_eq!(c.rows[0].verdict, Verdict::Unresolved, "not better");
    assert_eq!(c.failures.len(), 1);
    assert!(c.failures[0].failing());
    assert!(c.regressed());
    assert!(render(&c).contains("FAILING"));

    // The same speed-up with every op correct is better.
    let ok = RECORDS_FAST_BUT_FAILING
        .replace("\"correct\": false", "\"correct\": true")
        .replace("\"failed\": 1", "\"failed\": 0");
    let c = compare(&[lower(0.1)], &a, &runs(&ok));
    assert_eq!(c.rows[0].verdict, Verdict::Better);
    assert!(!c.regressed());
}

#[test]
fn json_reads_what_the_benchmark_writes() {
    let line = format!(
        "{{\"k\": {}, \"x\": {}, \"a\": [true, null, -1e-3]}}",
        json::string("a \"quoted\"\n\\ name"),
        json::number(0.1 + 0.2)
    );
    let v = json::parse(&line).unwrap();
    assert_eq!(
        v.get("k").and_then(Value::as_str),
        Some("a \"quoted\"\n\\ name")
    );
    assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.1 + 0.2));
    assert_eq!(v.get("a").map(|a| a.items().len()), Some(3));
    assert!(json::parse("{\"k\": 1,}").is_err());
    assert!(json::parse("{\"k\": 1} x").is_err());
}

#[test]
fn span_self_time_subtracts_children() {
    let mut rec = Recorder::new(Instant::now(), true);
    rec.time("op", 0, |rec| {
        rec.time("child", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
    });
    rec.time("op", 1, |_| ());
    let st = rec.self_times();
    let op = st.iter().find(|s| s.name == "op").unwrap();
    let child = st.iter().find(|s| s.name == "child").unwrap();
    assert_eq!(op.count, 2);
    assert!(child.total_ms >= 5.0);
    assert!((op.total_ms - op.self_ms - child.total_ms).abs() < 1e-9);
    assert_eq!(rec.per_op_ms("child").len(), 1);
    assert!(rec.child_cover("op")[0] > 0.5);

    let mut off = Recorder::new(Instant::now(), false);
    assert_eq!(off.time("op", 0, |_| 7), 7);
    assert!(off.spans().is_empty());
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).unwrap();
    let e2e = specs(&text).unwrap();
    let names: Vec<(&str, &str)> = e2e
        .iter()
        .map(|s| (s.name.as_str(), s.unit.as_str()))
        .collect();
    assert_eq!(names, END_TO_END);
    let setup = e2e.iter().find(|s| s.name == "setup_s").unwrap();
    assert!(e2e
        .iter()
        .all(|s| s.bound > 0.0 && s.bound <= 0.25 && s.bound <= setup.bound));
    let per_layer: Vec<(&str, &str)> = doc
        .get("per_layer")
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap(),
                m.get("unit").and_then(Value::as_str).unwrap(),
            )
        })
        .collect();
    assert_eq!(per_layer, PER_LAYER);
}
