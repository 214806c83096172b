//! Object staleness — the §3.1 usage scenario "find long-lived objects
//! that are written much more frequently than being read" and "containers
//! \[that\] are often the sources of memory leaks", in the style of the
//! staleness-based leak detectors the paper compares against (Bond &
//! McKinley's Bell, Novark et al.'s Hound).
//!
//! The tracer stamps every object with the instruction count of its
//! allocation and of its last member access; an object's *staleness* at
//! end of run is how long ago it was last touched. Allocation sites whose
//! objects are stale for most of their lifetime are leak suspects.

use crate::batch::CostEngine;
use crate::cost::{rab_with, rac_with, CostBenefitConfig};
use lowutil_core::CostGraph;
use lowutil_ir::{AllocKind, AllocSiteId, ObjectId, Program};
use lowutil_vm::{Event, EventSink};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy)]
struct ObjRecord {
    site: AllocSiteId,
    born: u64,
    last_access: u64,
}

/// Tracks per-object access recency.
#[derive(Debug, Default)]
pub struct StalenessTracer {
    clock: u64,
    /// Ordered by object id, so the per-site float sums in
    /// [`StalenessTracer::by_site`] add up in the same order every run.
    objects: BTreeMap<ObjectId, ObjRecord>,
}

/// Aggregated staleness for one allocation site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteStaleness {
    /// The allocation site.
    pub site: AllocSiteId,
    /// Objects allocated there.
    pub count: u64,
    /// Mean staleness at end of run (instructions since last access).
    pub mean_staleness: f64,
    /// Mean fraction of each object's lifetime spent stale
    /// (`staleness / (end - born)`, 1.0 = never touched after birth).
    pub mean_stale_fraction: f64,
}

impl StalenessTracer {
    /// Creates the tracer.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, obj: ObjectId) {
        let clock = self.clock;
        if let Some(r) = self.objects.get_mut(&obj) {
            r.last_access = clock;
        }
    }

    /// Staleness of one object at the current clock, if tracked.
    pub fn staleness_of(&self, obj: ObjectId) -> Option<u64> {
        self.objects.get(&obj).map(|r| self.clock - r.last_access)
    }

    /// Per-site aggregation, most-stale-fraction first.
    pub fn by_site(&self) -> Vec<SiteStaleness> {
        let end = self.clock;
        let mut acc: HashMap<AllocSiteId, (u64, f64, f64)> = HashMap::new();
        for r in self.objects.values() {
            let staleness = (end - r.last_access) as f64;
            let lifetime = ((end - r.born) as f64).max(1.0);
            let e = acc.entry(r.site).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += staleness;
            e.2 += staleness / lifetime;
        }
        let mut v: Vec<SiteStaleness> = acc
            .into_iter()
            .map(|(site, (count, total, frac))| SiteStaleness {
                site,
                count,
                mean_staleness: total / count as f64,
                mean_stale_fraction: frac / count as f64,
            })
            .collect();
        v.sort_by(|a, b| {
            b.mean_stale_fraction
                .partial_cmp(&a.mean_stale_fraction)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.site.cmp(&b.site))
        });
        v
    }

    /// Leak suspects: sites whose objects spend at least `threshold` of
    /// their lifetime untouched (the paper's second bloat category:
    /// containers holding many objects that are never retrieved).
    pub fn suspects(&self, threshold: f64) -> Vec<SiteStaleness> {
        self.by_site()
            .into_iter()
            .filter(|s| s.mean_stale_fraction >= threshold)
            .collect()
    }

    /// A report resolved against the program.
    pub fn report(&self, program: &Program, top: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in self.by_site().into_iter().take(top) {
            let site = program.alloc_sites()[s.site.index()];
            let what = match site.kind {
                AllocKind::Class(c) => format!("new {}", program.class(c).name()),
                AllocKind::Array => "newarray".to_string(),
            };
            let _ = writeln!(
                out,
                "  {what} @ {}: {} objects, stale {:.0} instrs ({:.0}% of lifetime)",
                program.instr_label(site.instr),
                s.count,
                s.mean_staleness,
                s.mean_stale_fraction * 100.0
            );
        }
        out
    }

    /// Like [`report`](Self::report), but cross-referenced against a
    /// profiled `G_cost`: each staleness line carries the site's summed
    /// RAC/RAB over all its tagged abstractions and fields, answered by
    /// `engine` — staleness says an object sits untouched, the
    /// cost-benefit columns say how much work built it and whether any
    /// of it was ever worth consuming.
    pub fn cost_report(
        &self,
        program: &Program,
        gcost: &CostGraph,
        config: &CostBenefitConfig,
        engine: &impl CostEngine,
        top: usize,
    ) -> String {
        use std::fmt::Write;
        let objects = gcost.objects();
        let mut out = String::new();
        for s in self.by_site().into_iter().take(top) {
            let site = program.alloc_sites()[s.site.index()];
            let what = match site.kind {
                AllocKind::Class(c) => format!("new {}", program.class(c).name()),
                AllocKind::Array => "newarray".to_string(),
            };
            let mut rac_sum = 0.0;
            let mut rab_sum = 0.0;
            for &tagged in objects.iter().filter(|t| t.site == s.site) {
                for field in gcost.fields_of(tagged) {
                    rac_sum += rac_with(gcost, tagged, field, engine).unwrap_or(0.0);
                    rab_sum += rab_with(gcost, tagged, field, config, engine);
                }
            }
            let _ = writeln!(
                out,
                "  {what} @ {}: {} objects, stale {:.0}% of lifetime, RAC {rac_sum:.1}, RAB {rab_sum:.1}",
                program.instr_label(site.instr),
                s.count,
                s.mean_stale_fraction * 100.0,
            );
        }
        out
    }
}

impl EventSink for StalenessTracer {
    fn event(&mut self, event: &Event) {
        self.clock += 1;
        match event {
            Event::Alloc { object, site, .. } => {
                self.objects.insert(
                    *object,
                    ObjRecord {
                        site: *site,
                        born: self.clock,
                        last_access: self.clock,
                    },
                );
            }
            Event::LoadField { object, .. }
            | Event::StoreField { object, .. }
            | Event::ArrayLoad { object, .. }
            | Event::ArrayStore { object, .. }
            | Event::ArrayLen { object, .. } => self.touch(*object),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    #[test]
    fn leaked_objects_have_high_stale_fractions() {
        // `Leak` objects are filled early and never touched again while a
        // long busy loop runs; `Hot` is accessed at the very end.
        let src = r#"
class Leak { l }
class Hot { h }
native print/1
method main/0 {
  k = new Leak
  x = 1
  k.l = x
  hot = new Hot
  hot.h = x
  i = 0
  one = 1
  lim = 2000
busy:
  if i >= lim goto done
  i = i + one
  goto busy
done:
  v = hot.h
  native print(v)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = StalenessTracer::new();
        Vm::new(&p).run(&mut t).unwrap();
        let sites = t.by_site();
        assert_eq!(sites.len(), 2);
        // The leak ranks first with ~100% stale fraction; the hot object
        // was touched at the end.
        assert!(sites[0].mean_stale_fraction > 0.9, "{sites:?}");
        assert!(sites[1].mean_stale_fraction < 0.1, "{sites:?}");
        let suspects = t.suspects(0.5);
        assert_eq!(suspects.len(), 1);
        let report = t.report(&p, 2);
        assert!(report.contains("new Leak"), "{report}");
    }

    #[test]
    fn cost_report_cross_references_both_engines_identically() {
        let src = r#"
native print/1
class Leak { l }
method main/0 {
  k = new Leak
  x = 1
  k.l = x
  i = 0
  one = 1
  lim = 500
busy:
  if i >= lim goto done
  i = i + one
  goto busy
done:
  y = 2
  native print(y)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut stale = StalenessTracer::new();
        let mut prof =
            lowutil_core::CostProfiler::new(&p, lowutil_core::CostGraphConfig::default());
        Vm::new(&p).run(&mut stale).unwrap();
        Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let cfg = CostBenefitConfig::default();
        let batch = stale.cost_report(&p, &g, &cfg, &crate::batch::BatchAnalyzer::new(&g), 5);
        let reference = stale.cost_report(&p, &g, &cfg, &crate::batch::ReferenceEngine::new(&g), 5);
        assert_eq!(batch, reference);
        assert!(batch.contains("new Leak"), "{batch}");
        assert!(batch.contains("RAC"), "{batch}");
    }

    #[test]
    fn every_access_kind_refreshes_recency() {
        let src = r#"
class C { f }
method main/0 {
  o = new C
  n = 3
  a = newarray n
  x = 1
  o.f = x
  y = o.f
  zero = 0
  a[zero] = x
  z = a[zero]
  l = len a
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = StalenessTracer::new();
        Vm::new(&p).run(&mut t).unwrap();
        for s in t.by_site() {
            // Both objects were touched within a few instructions of the
            // end of this short program.
            assert!(s.mean_staleness < 10.0, "{s:?}");
        }
    }
}
