//! Verdicts for two sets of runs of the same benchmark: the parent
//! commit's and a change's.
//!
//! A metric is `worse` when the change's median is worse than the
//! parent's by more than the metric's bound, and `better` when it is
//! better by more than the parent's own quartile spread and the change
//! wins at least nine tenths of the run pairs. When either side's spread
//! is wider than the bound, nothing short of every change run beating
//! (or losing to) every parent run resolves it. Everything else is
//! `unchanged`.
//!
//! Speed does not count when correctness slips: a workload whose change
//! runs fail more ops than the parent's, or report `correct: false`, is
//! flagged as failing, and none of its metrics is judged `better`.

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the parent's noise, in at least 90% of pairs.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound, with spreads narrow enough to say so.
    Unchanged,
    /// The spread is too wide, or the gain too uneven, to decide.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of runs.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises one side's values.
    ///
    /// # Panics
    /// On an empty slice.
    pub fn of(values: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median: median(values),
            q3,
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            f64::INFINITY
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judges `change` against `parent`. Runs are paired by position.
///
/// # Panics
/// When either side is empty.
pub fn verdict(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Verdict {
    let a = Summary::of(parent);
    let b = Summary::of(change);
    if a.median == 0.0 {
        return Verdict::Unresolved;
    }
    // Signed so that a positive share is a regression.
    let sign = if spec.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs();
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let every_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let every_worse = change.iter().all(|&c| parent.iter().all(|&p| better(p, c)));
    if a.spread().max(b.spread()) > spec.bound {
        return if every_better {
            Verdict::Better
        } else if every_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > spec.bound {
        return Verdict::Worse;
    }
    if -worse_by > a.spread() {
        let pairs = parent.len().min(change.len());
        let wins = parent
            .iter()
            .zip(change)
            .filter(|(&p, &c)| better(c, p))
            .count();
        return if pairs > 0 && wins * 10 >= pairs * 9 {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    Verdict::Unchanged
}

/// Reads the end-to-end metrics and their bounds from `BENCHMARK.json`.
///
/// # Errors
/// When the file is not valid JSON or a metric lacks a field.
pub fn specs(benchmark_json: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .ok_or("no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end metric lacks `{k}`"));
            Ok(MetricSpec {
                name: field("name")?.as_str().ok_or("bad name")?.to_string(),
                unit: field("unit")?.as_str().ok_or("bad unit")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bad bound")?,
            })
        })
        .collect()
}

/// One workload's untraced runs in a result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    /// Each metric's values, in file order.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Ops attempted over all runs.
    pub attempted: u64,
    /// Ops failed over all runs.
    pub failed: u64,
    /// Runs that reported `correct: false`.
    pub incorrect: usize,
}

/// Every untraced run in a result file, keyed by workload, in file
/// order. Lines that are not run records (the benchmark's
/// human-readable output, traced runs) are skipped.
pub fn runs(text: &str) -> BTreeMap<String, WorkloadRuns> {
    let mut out: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(rec) = json::parse(line) else { continue };
        let (Some(workload), Some(result)) = (
            rec.get("workload").and_then(Value::as_str),
            rec.get("result"),
        ) else {
            continue;
        };
        if rec.get("trace").and_then(Value::as_f64) == Some(1.0) {
            continue;
        }
        let w = out.entry(workload.to_string()).or_default();
        let count = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        w.attempted += count("attempted");
        w.failed += count("failed");
        if result.get("correct") != Some(&Value::Bool(true)) {
            w.incorrect += 1;
        }
        for (name, m) in result.get("metrics").map_or(&[][..], Value::entries) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                w.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    out
}

/// Failed ops of one workload on each side.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRow {
    /// Workload name.
    pub workload: String,
    /// Parent's failed and attempted ops.
    pub parent: (u64, u64),
    /// Change's failed and attempted ops.
    pub change: (u64, u64),
    /// Change runs that reported `correct: false`.
    pub change_incorrect: usize,
}

impl FailureRow {
    /// Whether the change fails more ops than the parent, or any of its
    /// runs is incorrect.
    pub fn failing(&self) -> bool {
        self.change.0 > self.parent.0 || self.change_incorrect > 0
    }
}

/// What [`compare`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// One row per workload and end-to-end metric both sides ran.
    pub rows: Vec<Row>,
    /// One row per workload both sides ran.
    pub failures: Vec<FailureRow>,
    /// `workload metric` pairs missing on one side.
    pub missing: Vec<String>,
}

impl Comparison {
    /// Whether any metric is worse or any workload is failing.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
            || self.failures.iter().any(FailureRow::failing)
    }
}

/// One printed comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub spec: MetricSpec,
    /// Parent side.
    pub parent: Summary,
    /// Change side.
    pub change: Summary,
    /// The outcome.
    pub verdict: Verdict,
}

/// Compares every workload both files ran, for every end-to-end metric.
/// On a workload whose change is failing, a `better` verdict becomes
/// `unresolved`.
pub fn compare(
    specs: &[MetricSpec],
    parent: &BTreeMap<String, WorkloadRuns>,
    change: &BTreeMap<String, WorkloadRuns>,
) -> Comparison {
    let mut c = Comparison::default();
    let workloads: std::collections::BTreeSet<&String> =
        parent.keys().chain(change.keys()).collect();
    for w in workloads {
        let (pw, cw) = (parent.get(w), change.get(w));
        let failing = if let (Some(p), Some(ch)) = (pw, cw) {
            let f = FailureRow {
                workload: w.clone(),
                parent: (p.failed, p.attempted),
                change: (ch.failed, ch.attempted),
                change_incorrect: ch.incorrect,
            };
            let failing = f.failing();
            c.failures.push(f);
            failing
        } else {
            false
        };
        for spec in specs {
            let a = pw.and_then(|r| r.metrics.get(&spec.name));
            let b = cw.and_then(|r| r.metrics.get(&spec.name));
            match (a, b) {
                (Some(a), Some(b)) if !a.is_empty() && !b.is_empty() => {
                    let mut v = verdict(spec, a, b);
                    if failing && v == Verdict::Better {
                        v = Verdict::Unresolved;
                    }
                    c.rows.push(Row {
                        workload: w.clone(),
                        spec: spec.clone(),
                        parent: Summary::of(a),
                        change: Summary::of(b),
                        verdict: v,
                    });
                }
                _ => c.missing.push(format!("{w} {}", spec.name)),
            }
        }
    }
    c
}

/// Renders the metric rows as an aligned table, then each workload's
/// failed ops.
pub fn render(c: &Comparison) -> String {
    let mut out = format!(
        "{:<8} {:<13} {:>6} {:>36} {:>36} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "parent median [q1, q3] runs",
        "change median [q1, q3] runs",
        "change",
        "bound"
    );
    for r in &c.rows {
        let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
        let delta = if r.parent.median == 0.0 {
            "n/a".to_string()
        } else {
            format!(
                "{:+.1}%",
                100.0 * (r.change.median - r.parent.median) / r.parent.median
            )
        };
        out.push_str(&format!(
            "{:<8} {:<13} {:>6} {:>36} {:>36} {:>8} {:>5.0}%  {}\n",
            r.workload,
            r.spec.name,
            r.spec.unit,
            side(&r.parent),
            side(&r.change),
            delta,
            100.0 * r.spec.bound,
            r.verdict
        ));
    }
    for f in &c.failures {
        out.push_str(&format!(
            "{:<8} failed ops: parent {}/{}, change {}/{}, incorrect change runs {}{}\n",
            f.workload,
            f.parent.0,
            f.parent.1,
            f.change.0,
            f.change.1,
            f.change_incorrect,
            if f.failing() { "  FAILING" } else { "" }
        ));
    }
    out
}
