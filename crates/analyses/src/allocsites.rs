//! A lightweight allocation profiler — the inexpensive pre-pass the paper
//! recommends for picking which components deserve full cost-benefit
//! tracking (§4.1: "it is possible for a programmer to identify
//! suspicious program components using lightweight profiling tools such
//! as a method execution time profiler or an object allocation profiler,
//! and run our tool on the selected components").
//!
//! Unlike the cost profiler it keeps no shadow state at all: one counter
//! per allocation site, making its overhead negligible.

use lowutil_ir::{AllocKind, AllocSiteId, Program};
use lowutil_vm::{Event, EventSink};
use std::collections::HashMap;

/// Counts allocations per site.
#[derive(Debug, Default)]
pub struct AllocationProfiler {
    counts: HashMap<AllocSiteId, u64>,
    total: u64,
}

impl AllocationProfiler {
    /// Creates the profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total objects allocated.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Allocation count of one site.
    pub fn count(&self, site: AllocSiteId) -> u64 {
        self.counts.get(&site).copied().unwrap_or(0)
    }

    /// Sites ranked by allocation count, hottest first.
    pub fn hot_sites(&self) -> Vec<(AllocSiteId, u64)> {
        let mut v: Vec<(AllocSiteId, u64)> = self.counts.iter().map(|(&s, &c)| (s, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// A short churn report resolved against the program.
    pub fn report(&self, program: &Program, top: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "total allocations: {}", self.total);
        for (site, count) in self.hot_sites().into_iter().take(top) {
            let s = program.alloc_sites()[site.index()];
            let what = match s.kind {
                AllocKind::Class(c) => format!("new {}", program.class(c).name()),
                AllocKind::Array => "newarray".to_string(),
            };
            let share = 100.0 * count as f64 / self.total.max(1) as f64;
            let _ = writeln!(
                out,
                "  {count:>8} ({share:>5.1}%)  {what} @ {}",
                program.instr_label(s.instr)
            );
        }
        out
    }
}

impl EventSink for AllocationProfiler {
    fn event(&mut self, event: &Event) {
        if let Event::Alloc { site, .. } = event {
            *self.counts.entry(*site).or_insert(0) += 1;
            self.total += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_vm::Vm;

    #[test]
    fn churn_sites_dominate_the_report() {
        // A clone-per-iteration site versus a one-off allocation.
        let p = lowutil_ir::parse_program(
            r#"
class Vec { vx }
class Config { c }
method main/0 {
  cfg = new Config
  i = 0
  one = 1
  lim = 120
l:
  if i >= lim goto d
  v = new Vec
  v.vx = i
  i = i + one
  goto l
d:
  return
}
"#,
        )
        .unwrap();
        let mut prof = AllocationProfiler::new();
        Vm::new(&p).run(&mut prof).unwrap();
        let hot = prof.hot_sites();
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].1, 120);
        assert_eq!(hot[1].1, 1);
        let report = prof.report(&p, 3);
        assert!(report.contains("new Vec"), "{report}");
        assert!(report.contains("total allocations: 121"), "{report}");
    }

    #[test]
    fn counts_are_exact() {
        let p = lowutil_ir::parse_program(
            r#"
class A { }
method main/0 {
  i = 0
  one = 1
  lim = 7
l:
  if i >= lim goto d
  a = new A
  i = i + one
  goto l
d:
  return
}
"#,
        )
        .unwrap();
        let mut prof = AllocationProfiler::new();
        Vm::new(&p).run(&mut prof).unwrap();
        assert_eq!(prof.total(), 7);
        assert_eq!(prof.hot_sites().len(), 1);
        assert_eq!(prof.count(lowutil_ir::AllocSiteId(0)), 7);
        assert_eq!(prof.count(lowutil_ir::AllocSiteId(9)), 0);
    }
}
