//! Object- and data-structure-level aggregation: n-RAC, n-RAB, and the
//! low-utility ranking (Definition 7 and §3.1 "Finding bloat").
//!
//! Costs and benefits of individual heap locations are rolled up through
//! the *object reference tree*: the points-to structure rooted at an
//! object, cut off at height `n` (the paper uses 4, the reference-chain
//! length of `HashSet`). Structures are then ranked by their
//! cost-to-benefit imbalance.

use crate::batch::{BatchAnalyzer, CostEngine, ReferenceEngine};
use crate::cost::{fields_cost_benefit_with, CostBenefitConfig, FieldCostBenefit};
use lowutil_core::{CostGraph, TaggedSite};
use std::collections::HashSet;

/// One data structure's aggregated cost/benefit.
#[derive(Debug, Clone)]
pub struct StructureCostBenefit {
    /// The root object abstraction.
    pub root: TaggedSite,
    /// Objects in the reference tree (root included).
    pub members: Vec<TaggedSite>,
    /// Aggregated relative abstract cost over member fields.
    pub n_rac: f64,
    /// Aggregated relative abstract benefit over member fields.
    pub n_rab: f64,
    /// Per-field breakdown (fields of all members).
    pub fields: Vec<FieldCostBenefit>,
    /// Total allocations at the root (frequency of its alloc node).
    pub allocations: u64,
}

impl StructureCostBenefit {
    /// The cost-benefit imbalance used for ranking: `n_rac / max(n_rab,
    /// 1)`. Structures whose values reach consumers have enormous `n_rab`
    /// and sink to the bottom.
    pub fn imbalance(&self) -> f64 {
        self.n_rac / self.n_rab.max(1.0)
    }
}

/// Collects the object reference tree of height `n` rooted at `root`:
/// breadth-first over points-to edges, cycles removed, nodes more than `n`
/// reference edges from the root excluded (Definition 7).
pub fn reference_tree(gcost: &CostGraph, root: TaggedSite, n: u32) -> Vec<TaggedSite> {
    let mut seen: HashSet<TaggedSite> = HashSet::new();
    let mut frontier = vec![root];
    let mut out = vec![root];
    seen.insert(root);
    for _ in 0..n {
        let mut next = Vec::new();
        for &obj in &frontier {
            for field in gcost.fields_of(obj) {
                for target in gcost.points_to(obj, field) {
                    if seen.insert(target) {
                        next.push(target);
                        out.push(target);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out
}

/// Computes the aggregated cost/benefit of the structure rooted at `root`.
///
/// A member field's RAC/RAB is included when the field is scalar, or when
/// it references at least one object inside the tree (both endpoints in
/// `RT_n`, per Definition 7).
pub fn structure_cost_benefit(
    gcost: &CostGraph,
    root: TaggedSite,
    config: &CostBenefitConfig,
) -> StructureCostBenefit {
    structure_cost_benefit_with(gcost, root, config, &ReferenceEngine::new(gcost))
}

/// [`structure_cost_benefit`] with the per-node queries answered by
/// `engine`. The tree walk and the aggregation order are engine-
/// independent, so agreeing engines produce bit-identical aggregates.
pub fn structure_cost_benefit_with(
    gcost: &CostGraph,
    root: TaggedSite,
    config: &CostBenefitConfig,
    engine: &impl CostEngine,
) -> StructureCostBenefit {
    let members = reference_tree(gcost, root, config.tree_height);
    let member_set: HashSet<TaggedSite> = members.iter().copied().collect();
    let mut n_rac = 0.0;
    let mut n_rab = 0.0;
    let mut fields = Vec::new();
    for &obj in &members {
        for fcb in fields_cost_benefit_with(gcost, obj, config, engine) {
            let pointees = gcost.points_to(obj, fcb.field);
            let include = pointees.is_empty() || pointees.iter().any(|t| member_set.contains(t));
            if !include {
                continue;
            }
            n_rac += fcb.rac.unwrap_or(0.0);
            n_rab += fcb.rab;
            fields.push(fcb);
        }
    }
    let allocations = gcost
        .alloc_node(root)
        .map(|n| gcost.graph().node(n).freq)
        .unwrap_or(0);
    StructureCostBenefit {
        root,
        members,
        n_rac,
        n_rab,
        fields,
        allocations,
    }
}

/// Ranks every allocated structure by cost-benefit imbalance, highest
/// first — the tool report a programmer reads (§3.1). Uses the per-seed
/// reference engine; front ends use [`rank_structures_batch`], which
/// produces the identical ranking faster.
pub fn rank_structures(gcost: &CostGraph, config: &CostBenefitConfig) -> Vec<StructureCostBenefit> {
    rank_structures_with(gcost, config, &ReferenceEngine::new(gcost), 1)
}

/// [`rank_structures`] with the per-node queries answered by `engine`.
/// Roots are aggregated in order and the final sort is stable, so the
/// ranking is identical for every engine. `_jobs` is ignored (every
/// analysis runs on the calling thread); the parameter stays for the
/// benchmark harness, which passes it.
pub fn rank_structures_with<E: CostEngine>(
    gcost: &CostGraph,
    config: &CostBenefitConfig,
    engine: &E,
    _jobs: usize,
) -> Vec<StructureCostBenefit> {
    let mut out: Vec<StructureCostBenefit> = gcost
        .objects()
        .into_iter()
        .map(|root| structure_cost_benefit_with(gcost, root, config, engine))
        .collect();
    out.sort_by(|a, b| {
        b.imbalance()
            .partial_cmp(&a.imbalance())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.root.cmp(&a.root).reverse())
    });
    out
}

/// The fast path: builds a [`BatchAnalyzer`] and ranks with it. Output
/// is byte-identical to [`rank_structures`]. `_jobs` is ignored, as in
/// [`rank_structures_with`].
pub fn rank_structures_batch(
    gcost: &CostGraph,
    config: &CostBenefitConfig,
    _jobs: usize,
) -> Vec<StructureCostBenefit> {
    rank_structures_with(gcost, config, &BatchAnalyzer::new(gcost), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_core::{CostGraphConfig, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn profile(src: &str) -> CostGraph {
        let p = parse_program(src).expect("parse");
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).expect("run");
        prof.finish()
    }

    /// The paper's chart anecdote: a list populated with expensively
    /// computed values only to take its size; versus a structure whose
    /// contents actually reach output.
    const LIST_FOR_SIZE: &str = r#"
native print/1
class List { arr n }
class Used { v }
method main/0 {
  l = new List
  cap = 64
  a = newarray cap
  l.arr = a
  zero = 0
  l.n = zero
  i = 0
  one = 1
  lim = 50
loop:
  if i >= lim goto done
  x = i * i
  x = x + i
  arr = l.arr
  cnt = l.n
  arr[cnt] = x
  cnt = cnt + one
  l.n = cnt
  i = i + one
  goto loop
done:
  size = l.n
  native print(size)
  u = new Used
  y = 7
  u.v = y
  z = u.v
  native print(z)
  return
}
"#;

    #[test]
    fn unread_expensive_elements_rank_above_consumed_fields() {
        let g = profile(LIST_FOR_SIZE);
        let cfg = CostBenefitConfig::default();
        let ranked = rank_structures(&g, &cfg);
        assert!(!ranked.is_empty());
        // The top structure must be the array (or the list holding it):
        // costly element stores, zero element reads. The `Used` object,
        // whose field reaches print, must rank at the bottom.
        let top = &ranked[0];
        assert!(
            top.imbalance() > 1.0,
            "top imbalance too small: {}",
            top.imbalance()
        );
        let bottom = ranked.last().unwrap();
        assert!(
            bottom.n_rab >= cfg.consumer_benefit,
            "consumed structure has huge benefit"
        );
        assert!(top.imbalance() > bottom.imbalance() * 10.0);
    }

    #[test]
    fn reference_tree_respects_height() {
        let src = r#"
class A { b }
class B { c }
class C { v }
method main/0 {
  a = new A
  b = new B
  c = new C
  x = 1
  c.v = x
  b.c = c
  a.b = b
  return
}
"#;
        let g = profile(src);
        // Find A's tag: the object that points to something that points to
        // something.
        let objects = g.objects();
        let mut root = None;
        for &o in &objects {
            if reference_tree(&g, o, 4).len() == 3 {
                root = Some(o);
            }
        }
        let root = root.expect("A reaches B and C");
        assert_eq!(reference_tree(&g, root, 1).len(), 2);
        assert_eq!(reference_tree(&g, root, 0).len(), 1);
        assert_eq!(reference_tree(&g, root, 2).len(), 3);
    }

    #[test]
    fn reference_tree_tolerates_cycles() {
        let src = r#"
class N { next }
method main/0 {
  a = new N
  b = new N
  a.next = b
  b.next = a
  return
}
"#;
        let g = profile(src);
        for &o in &g.objects() {
            let tree = reference_tree(&g, o, 8);
            assert_eq!(tree.len(), 2, "cycle does not loop forever");
        }
    }

    #[test]
    fn tree_height_controls_aggregation_depth() {
        // A 3-deep chain A → B → C where only C's scalar field is costly:
        // at height 0 the root sees nothing of it; at height ≥ 2 the
        // cost is aggregated into A's structure (Definition 7's n-RAC).
        let src = r#"
class A { ab }
class B { bc }
class C { cv }
method main/0 {
  a = new A
  b = new B
  c = new C
  s = 0
  i = 0
  one = 1
  lim = 300
l:
  if i >= lim goto d
  s = s + i
  i = i + one
  goto l
d:
  c.cv = s
  b.bc = c
  a.ab = b
  return
}
"#;
        let g = profile(src);
        // Identify A's tag: the object at the top of the points-to chain.
        let root = g
            .objects()
            .into_iter()
            .find(|&o| reference_tree(&g, o, 4).len() == 3)
            .expect("A found");
        let cost_at = |h: u32| {
            let cfg = CostBenefitConfig {
                tree_height: h,
                ..CostBenefitConfig::default()
            };
            structure_cost_benefit(&g, root, &cfg).n_rac
        };
        let h0 = cost_at(0);
        let h1 = cost_at(1);
        let h2 = cost_at(2);
        let h4 = cost_at(4);
        assert!(h0 <= h1 && h1 <= h2, "{h0} {h1} {h2}");
        assert!(h2 > 300.0, "the loop cost shows at depth 2: {h2}");
        assert_eq!(h2, h4, "the chain is exhausted by depth 2");
        assert!(h0 < h2, "depth truncation matters: {h0} vs {h2}");
    }

    #[test]
    fn structure_aggregates_member_fields() {
        let g = profile(LIST_FOR_SIZE);
        let cfg = CostBenefitConfig::default();
        let ranked = rank_structures(&g, &cfg);
        // The List structure includes the array through the reference
        // tree, so its field breakdown spans both objects.
        let list = ranked
            .iter()
            .find(|s| s.members.len() >= 2)
            .expect("List + array structure");
        assert!(list.fields.len() >= 2);
    }
}
