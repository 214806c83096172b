//! The auxiliary performance queries of §3.2 "Other analyses":
//! always-true/always-false predicate detection, locations rewritten
//! before being read, and method-level cost attribution.

use lowutil_core::{CostGraph, NodeId};
use lowutil_ir::{InstrId, MethodId, ObjectId, Program, StaticId};
use lowutil_vm::{Event, EventSink};
use std::collections::HashMap;

/// Records taken/not-taken counts per predicate, to find conditions that
/// never vary — the paper's sign of over-protective or over-general code
/// (e.g. `bloat`'s `Assert.isTrue` guards that never fire in production).
#[derive(Debug, Default)]
pub struct PredicateOutcomeTracer {
    outcomes: HashMap<InstrId, (u64, u64)>,
}

impl PredicateOutcomeTracer {
    /// Creates the tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(taken, not_taken)` for one predicate.
    pub fn outcome(&self, at: InstrId) -> Option<(u64, u64)> {
        self.outcomes.get(&at).copied()
    }

    /// Predicates that executed at least `min_hits` times with a constant
    /// outcome, sorted by execution count (hottest first). The `bool` is
    /// the constant outcome.
    pub fn constant_predicates(&self, min_hits: u64) -> Vec<(InstrId, bool, u64)> {
        let mut v: Vec<(InstrId, bool, u64)> = self
            .outcomes
            .iter()
            .filter_map(|(&at, &(t, n))| {
                if t + n < min_hits {
                    None
                } else if n == 0 {
                    Some((at, true, t))
                } else if t == 0 {
                    Some((at, false, n))
                } else {
                    None
                }
            })
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        v
    }
}

impl EventSink for PredicateOutcomeTracer {
    fn event(&mut self, event: &Event) {
        if let Event::Predicate { at, taken, .. } = event {
            let e = self.outcomes.entry(*at).or_insert((0, 0));
            if *taken {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }
}

/// A heap location key for dead-store detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    Field(ObjectId, u32),
    Elem(ObjectId, u32),
    Static(StaticId),
}

/// Detects heap locations rewritten before being read — the `derby`
/// case-study pattern (a container-metadata array updated on every page
/// write but read rarely).
#[derive(Debug, Default)]
pub struct DeadStoreTracer {
    /// location → the store instruction whose value is still unread.
    pending: HashMap<Loc, InstrId>,
    /// store instruction → number of its values overwritten unread.
    overwrites: HashMap<InstrId, u64>,
    /// store instruction → number of executions.
    stores: HashMap<InstrId, u64>,
}

impl DeadStoreTracer {
    /// Creates the tracer.
    pub fn new() -> Self {
        Self::default()
    }

    fn store(&mut self, loc: Loc, at: InstrId) {
        *self.stores.entry(at).or_insert(0) += 1;
        if let Some(prev) = self.pending.insert(loc, at) {
            *self.overwrites.entry(prev).or_insert(0) += 1;
        }
    }

    fn load(&mut self, loc: Loc) {
        self.pending.remove(&loc);
    }

    /// Store instructions ranked by the fraction of their executions whose
    /// value was overwritten before any read, hottest first. Only stores
    /// with at least `min_hits` executions are reported.
    pub fn wasted_stores(&self, min_hits: u64) -> Vec<(InstrId, u64, u64)> {
        let mut v: Vec<(InstrId, u64, u64)> = self
            .stores
            .iter()
            .filter(|(_, &hits)| hits >= min_hits)
            .map(|(&at, &hits)| (at, self.overwrites.get(&at).copied().unwrap_or(0), hits))
            .filter(|&(_, over, _)| over > 0)
            .collect();
        v.sort_by(|a, b| {
            let ra = a.1 as f64 / a.2 as f64;
            let rb = b.1 as f64 / b.2 as f64;
            rb.partial_cmp(&ra)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.2.cmp(&a.2))
        });
        v
    }
}

impl EventSink for DeadStoreTracer {
    fn event(&mut self, event: &Event) {
        match event {
            Event::StoreField {
                at, object, offset, ..
            } => self.store(Loc::Field(*object, *offset), *at),
            Event::LoadField { object, offset, .. } => self.load(Loc::Field(*object, *offset)),
            Event::ArrayStore {
                at, object, index, ..
            } => self.store(Loc::Elem(*object, *index), *at),
            Event::ArrayLoad { object, index, .. } => self.load(Loc::Elem(*object, *index)),
            Event::StoreStatic { at, field, .. } => self.store(Loc::Static(*field), *at),
            Event::LoadStatic { field, .. } => self.load(Loc::Static(*field)),
            _ => {}
        }
    }
}

/// Per-method self cost: the total instruction instances attributed to
/// nodes inside each method (the coarse attribution a developer starts
/// from before drilling into data structures).
pub fn method_self_costs(gcost: &CostGraph, program: &Program) -> Vec<(MethodId, u64)> {
    let mut costs: HashMap<MethodId, u64> = HashMap::new();
    for (_, n) in gcost.graph().iter() {
        *costs.entry(n.instr.method).or_insert(0) += n.freq;
    }
    let mut v: Vec<(MethodId, u64)> = costs.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    debug_assert!(v.iter().all(|(m, _)| m.index() < program.methods().len()));
    v
}

/// Collections (objects holding arrays) ranked by element cost-benefit
/// imbalance — the paper's "problematic collections" query, a filtered
/// view of the structure ranking.
pub fn collection_imbalances(
    gcost: &CostGraph,
    config: &crate::cost::CostBenefitConfig,
) -> Vec<(lowutil_core::TaggedSite, f64)> {
    collection_imbalances_with(gcost, config, &crate::batch::ReferenceEngine::new(gcost))
}

/// [`collection_imbalances`] with the per-node queries answered by
/// `engine`.
pub fn collection_imbalances_with(
    gcost: &CostGraph,
    config: &crate::cost::CostBenefitConfig,
    engine: &impl crate::batch::CostEngine,
) -> Vec<(lowutil_core::TaggedSite, f64)> {
    use lowutil_core::FieldKey;
    let mut v: Vec<(lowutil_core::TaggedSite, f64)> = gcost
        .objects()
        .into_iter()
        .filter(|&o| gcost.fields_of(o).contains(&FieldKey::Element))
        .map(|o| {
            let rac = crate::cost::rac_with(gcost, o, FieldKey::Element, engine).unwrap_or(0.0);
            let rab = crate::cost::rab_with(gcost, o, FieldKey::Element, config, engine);
            (o, rac / rab.max(1.0))
        })
        .collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// A node-level utility record used by reports: nodes whose HRAC is large
/// relative to their HRAB.
pub fn hot_imbalanced_nodes(gcost: &CostGraph, top: usize) -> Vec<(NodeId, u64, u64)> {
    hot_imbalanced_nodes_with(gcost, top, &crate::batch::ReferenceEngine::new(gcost))
}

/// [`hot_imbalanced_nodes`] with the per-node queries answered by
/// `engine` — with a [`BatchAnalyzer`](crate::batch::BatchAnalyzer) the
/// per-writer HRAC/HRAB pairs are precomputed array lookups.
pub fn hot_imbalanced_nodes_with(
    gcost: &CostGraph,
    top: usize,
    engine: &impl crate::batch::CostEngine,
) -> Vec<(NodeId, u64, u64)> {
    let mut v: Vec<(NodeId, u64, u64)> = gcost
        .graph()
        .node_ids()
        .filter(|&n| gcost.graph().node(n).kind.writes_heap())
        .map(|n| (n, engine.hrac(n), engine.hrab(n)))
        .collect();
    v.sort_by(|a, b| {
        let ra = a.1 as f64 / (a.2.max(1)) as f64;
        let rb = b.1 as f64 / (b.2.max(1)) as f64;
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    v.truncate(top);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    #[test]
    fn constant_predicates_are_found() {
        let src = r#"
method main/0 {
  i = 0
  one = 1
  lim = 100
  always = 0
loop:
  if i >= lim goto done
  if always == one goto never
never:
  i = i + one
  goto loop
done:
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = PredicateOutcomeTracer::new();
        Vm::new(&p).run(&mut t).unwrap();
        let consts = t.constant_predicates(10);
        // `always == one` is always false (100 hits); the loop guard
        // varies (99 false + 1 true) and must not be reported.
        assert_eq!(consts.len(), 1);
        assert!(!consts[0].1, "constant outcome is false");
        assert_eq!(consts[0].2, 100);
    }

    #[test]
    fn dead_stores_are_counted() {
        // The field is stored 50 times, read once at the end: 49 wasted.
        let src = r#"
native print/1
class C { meta }
method main/0 {
  c = new C
  i = 0
  one = 1
  lim = 50
loop:
  if i >= lim goto done
  c.meta = i
  i = i + one
  goto loop
done:
  m = c.meta
  native print(m)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = DeadStoreTracer::new();
        Vm::new(&p).run(&mut t).unwrap();
        let wasted = t.wasted_stores(1);
        assert_eq!(wasted.len(), 1);
        let (_, over, hits) = wasted[0];
        assert_eq!(hits, 50);
        assert_eq!(over, 49);
    }

    #[test]
    fn read_then_written_locations_are_not_dead() {
        let src = r#"
native print/1
class C { v }
method main/0 {
  c = new C
  x = 1
  c.v = x
  y = c.v
  c.v = y
  z = c.v
  native print(z)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut t = DeadStoreTracer::new();
        Vm::new(&p).run(&mut t).unwrap();
        assert!(t.wasted_stores(1).is_empty());
    }

    #[test]
    fn method_costs_rank_hot_methods_first() {
        let src = r#"
method main/0 {
  i = 0
  one = 1
  lim = 30
loop:
  if i >= lim goto done
  x = call work(i)
  i = i + one
  goto loop
done:
  return
}
method work/1 {
  a = p0 * p0
  b = a + p0
  c = b * a
  return c
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof =
            lowutil_core::CostProfiler::new(&p, lowutil_core::CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        let costs = method_self_costs(&g, &p);
        assert_eq!(costs.len(), 2);
        // `work` runs 3 value instructions × 30 = 90; main's loop is
        // comparable but work should register.
        let work_id = p.method_by_name("work").unwrap();
        assert!(costs.iter().any(|&(m, c)| m == work_id && c >= 90));
    }
}
