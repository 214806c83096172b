//! The batch cost-benefit engine.
//!
//! The ranking of §3.1 asks one HRAC query per store node and one HRAB +
//! consumer-reachability query per load node of every field of every
//! site. The per-seed functions in [`crate::cost`] answer each query
//! with a fresh `HashSet` BFS over [`DepGraph`](lowutil_core::DepGraph)
//! adjacency — correct, but O(sites × fields × nodes × edges) with
//! hashing on every visit. The abstract domain bounds the graph to
//! `|I| × |D|` nodes, so the batch engine instead:
//!
//! 1. snapshots the finished graph once into a flat [`CsrGraph`];
//! 2. answers every HRAC/HRAB with the bitset traversal kernel, reusing
//!    one [`TraversalScratch`] across all seeds;
//! 3. replaces the per-read forward BFS of
//!    [`reaches_consumer`](crate::cost::reaches_consumer) with one
//!    O(V+E) reverse pass from all consumer nodes
//!    ([`CsrGraph::mark_consumer_reach`]).
//!
//! Everything runs on the calling thread: the suite's abstract graphs
//! have a few hundred nodes, so a precomputation takes well under a
//! millisecond and worker spawns would only add to it.
//!
//! [`BatchAnalyzer`] (one finished graph) and [`IncrementalAnalyzer`]
//! (a live view maintained across absorbs) share the precomputation and
//! answer through the same [`SnapshotEngine`]. The aggregation layers
//! ([`crate::cost`], [`crate::structure`], [`crate::report`]) are
//! parameterized over [`CostEngine`]: the per-seed [`ReferenceEngine`]
//! stays as the oracle the snapshot engine is property-tested against,
//! and because the hop sums are exact `u64`s aggregated by shared code
//! in identical order, batch reports are byte-identical to reference
//! reports.

use crate::cost;
use lowutil_core::csr::{Bitset, CsrGraph, TraversalScratch};
use lowutil_core::incr::{IncrDirty, IncrementalCsr};
use lowutil_core::{CostGraph, NodeId};

/// Answers the three per-node queries behind every cost-benefit
/// aggregate. Implementations must agree exactly — sums are `u64`, so
/// any divergence is a bug, not a rounding artifact.
pub trait CostEngine {
    /// Heap-relative abstract cost of a node (Definition 5).
    fn hrac(&self, node: NodeId) -> u64;
    /// Heap-relative abstract benefit of a node (Definition 6).
    fn hrab(&self, node: NodeId) -> u64;
    /// Whether the node's value reaches a predicate or native consumer
    /// within its hop.
    fn reaches_consumer(&self, node: NodeId) -> bool;
}

/// The per-seed oracle: every query re-runs the original `HashSet`
/// slicer from [`crate::cost`]. Slow, obviously correct, and the
/// oracle the snapshot engine is tested against.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceEngine<'a> {
    gcost: &'a CostGraph,
}

impl<'a> ReferenceEngine<'a> {
    /// Wraps a finished cost graph.
    pub fn new(gcost: &'a CostGraph) -> Self {
        ReferenceEngine { gcost }
    }
}

impl CostEngine for ReferenceEngine<'_> {
    fn hrac(&self, node: NodeId) -> u64 {
        cost::hrac(self.gcost, node)
    }

    fn hrab(&self, node: NodeId) -> u64 {
        cost::hrab(self.gcost, node)
    }

    fn reaches_consumer(&self, node: NodeId) -> bool {
        cost::reaches_consumer(self.gcost, node)
    }
}

/// Sentinel for "not precomputed" in the per-node sum arrays. A real
/// hop sum of `u64::MAX` would require ~1.8e19 instruction instances,
/// far beyond what a `u64` frequency counter can accumulate from a real
/// run.
const UNCOMPUTED: u64 = u64::MAX;

/// The answers precomputed over one CSR snapshot: HRAC for every
/// heap-store node, HRAB for every heap-store and heap-load node
/// ([`UNCOMPUTED`] elsewhere), and consumer reachability for all nodes
/// from the single reverse marking pass.
#[derive(Debug, Clone)]
struct Sums {
    hrac: Vec<u64>,
    hrab: Vec<u64>,
    consumer_reach: Bitset,
}

impl Sums {
    /// The full precomputation over `csr`.
    fn new(csr: &CsrGraph) -> Self {
        let n = csr.num_nodes();
        let mut sums = Sums {
            hrac: vec![UNCOMPUTED; n],
            hrab: vec![UNCOMPUTED; n],
            consumer_reach: csr.mark_consumer_reach(),
        };
        let (back, fwd) = seed_sets(csr, None, None);
        sums.fill(csr, &back, &fwd);
        sums
    }

    /// Re-runs the bounded kernels from the `back` (HRAC) and `fwd`
    /// (HRAB) seeds into their slots, reusing one traversal scratch.
    fn fill(&mut self, csr: &CsrGraph, back: &[u32], fwd: &[u32]) {
        let mut scratch = TraversalScratch::for_graph(csr);
        for &s in back {
            self.hrac[s as usize] = csr.heap_bounded_backward_sum(&mut scratch, NodeId(s));
        }
        for &s in fwd {
            self.hrab[s as usize] = csr.heap_bounded_forward_sum(&mut scratch, NodeId(s));
        }
    }
}

/// The HRAC (heap-store) and HRAB (heap-store + heap-load) seed lists,
/// optionally filtered to an affected set.
fn seed_sets(
    csr: &CsrGraph,
    back_filter: Option<&Bitset>,
    fwd_filter: Option<&Bitset>,
) -> (Vec<u32>, Vec<u32>) {
    let n = csr.num_nodes() as u32;
    let mut back = Vec::new();
    let mut fwd = Vec::new();
    for i in 0..n {
        let k = csr.kind(NodeId(i));
        if k.writes_heap() && back_filter.is_none_or(|f| f.contains(i as usize)) {
            back.push(i);
        }
        if (k.writes_heap() || k.reads_heap()) && fwd_filter.is_none_or(|f| f.contains(i as usize))
        {
            fwd.push(i);
        }
    }
    (back, fwd)
}

/// A [`CostEngine`] over a CSR snapshot and the answers precomputed on
/// it: what a [`BatchAnalyzer`] answers through, and what
/// [`IncrementalAnalyzer::engine`] lends over a live view. Queries are
/// array lookups; a query for a node outside the precomputed kinds
/// falls back to a one-off kernel run on the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotEngine<'a> {
    csr: &'a CsrGraph<'a>,
    sums: &'a Sums,
}

impl CostEngine for SnapshotEngine<'_> {
    fn hrac(&self, node: NodeId) -> u64 {
        match self.sums.hrac[node.index()] {
            // Cold path: a seed kind not precomputed (ad-hoc query on a
            // plain node). Run the kernel once with throwaway scratch.
            UNCOMPUTED => {
                let mut scratch = TraversalScratch::for_graph(self.csr);
                self.csr.heap_bounded_backward_sum(&mut scratch, node)
            }
            v => v,
        }
    }

    fn hrab(&self, node: NodeId) -> u64 {
        match self.sums.hrab[node.index()] {
            UNCOMPUTED => {
                let mut scratch = TraversalScratch::for_graph(self.csr);
                self.csr.heap_bounded_forward_sum(&mut scratch, node)
            }
            v => v,
        }
    }

    fn reaches_consumer(&self, node: NodeId) -> bool {
        self.sums.consumer_reach.contains(node.index())
    }
}

/// The batch engine: a CSR snapshot of one finished graph plus its
/// precomputed answers.
///
/// Construction does all the work: HRAC for every heap-store node and
/// HRAB for every heap-store and heap-load node run the bounded kernels
/// once per seed, and consumer reachability for *all* nodes comes from
/// the single reverse marking pass. Queries go through a
/// [`SnapshotEngine`].
#[derive(Debug)]
pub struct BatchAnalyzer<'a> {
    csr: CsrGraph<'a>,
    sums: Sums,
}

impl<'a> BatchAnalyzer<'a> {
    /// Snapshots `gcost` into a CSR graph and precomputes over it.
    pub fn new(gcost: &CostGraph) -> Self {
        Self::with_csr(CsrGraph::build(gcost.graph()))
    }

    /// Builds the engine around an existing CSR snapshot — one built
    /// for the dead-value metrics too, or one loaded zero-copy from the
    /// on-disk store ([`lowutil_core::store`]), whose arrays borrow from
    /// the file buffer for `'a`. Only the precomputation passes run.
    pub fn with_csr(csr: CsrGraph<'a>) -> Self {
        let sums = Sums::new(&csr);
        BatchAnalyzer { csr, sums }
    }

    /// The underlying snapshot.
    pub fn csr(&self) -> &CsrGraph<'a> {
        &self.csr
    }

    /// The precomputed consumer-reachability bitmap (bit = node index).
    pub fn consumer_reach(&self) -> &Bitset {
        &self.sums.consumer_reach
    }

    /// The snapshot and its answers as a [`SnapshotEngine`].
    fn engine(&self) -> SnapshotEngine<'_> {
        SnapshotEngine {
            csr: &self.csr,
            sums: &self.sums,
        }
    }
}

impl CostEngine for BatchAnalyzer<'_> {
    fn hrac(&self, node: NodeId) -> u64 {
        self.engine().hrac(node)
    }

    fn hrab(&self, node: NodeId) -> u64 {
        self.engine().hrab(node)
    }

    fn reaches_consumer(&self, node: NodeId) -> bool {
        self.engine().reaches_consumer(node)
    }
}

/// Incrementally-maintained per-seed analysis results over a live
/// [`IncrementalCsr`].
///
/// [`BatchAnalyzer`] precomputes every HRAC/HRAB seed from scratch each
/// time a graph changes — correct, but O(all seeds) per absorb even
/// when a session touched a handful of nodes. This state instead keeps
/// the precomputed sum arrays *across* absorbs and, on each
/// [`refresh`](IncrementalAnalyzer::refresh), re-runs the bounded
/// kernels only for seeds whose bounded region can see the dirty set
/// ([`CsrGraph::affected_seeds`]); every other slot is carried over
/// unchanged. Per-node content hashes (kind, identity, frequency) guard
/// the carry-over: any slot whose node hash moved is treated as dirty
/// even if the delta did not name it.
///
/// The refreshed arrays are slot-for-slot equal to a from-scratch
/// [`BatchAnalyzer::with_csr`] of the same graph — enforced across the
/// workload suite by `tests/incremental.rs`.
#[derive(Debug, Clone)]
pub struct IncrementalAnalyzer {
    sums: Sums,
    node_hash: Vec<u64>,
}

/// What one [`IncrementalAnalyzer::refresh`] recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Precomputed seed slots in the current graph (HRAC + HRAB).
    pub total: usize,
    /// Seed slots whose kernels actually re-ran this refresh.
    pub recomputed: usize,
}

impl IncrementalAnalyzer {
    /// Full precomputation over the live view — the cold start,
    /// equivalent to [`BatchAnalyzer::with_csr`] on the same arrays.
    /// `_jobs` is ignored (every analysis runs on the calling thread);
    /// the parameter stays for the benchmark harness, which passes it.
    pub fn new(inc: &IncrementalCsr, _jobs: usize) -> Self {
        IncrementalAnalyzer {
            sums: Sums::new(inc.csr()),
            node_hash: inc.node_hashes().to_vec(),
        }
    }

    /// Folds one absorb's dirty set into the precomputed state: remaps
    /// surviving slots through the id shift, re-marks consumer
    /// reachability when the structure changed, and re-runs the bounded
    /// kernels only for seeds whose region intersects the changed
    /// nodes. `inc` must be the view the dirty set came from. `_jobs`
    /// is ignored, as in [`IncrementalAnalyzer::new`].
    pub fn refresh(
        &mut self,
        inc: &IncrementalCsr,
        dirty: &IncrDirty,
        _jobs: usize,
    ) -> RefreshStats {
        let csr = inc.csr();
        let n = csr.num_nodes();
        let sums = &mut self.sums;
        if let Some(map) = &dirty.remap {
            let mut hrac = vec![UNCOMPUTED; n];
            let mut hrab = vec![UNCOMPUTED; n];
            let mut hashes = vec![0u64; n];
            for (old, &fin) in map.iter().enumerate() {
                hrac[fin as usize] = sums.hrac[old];
                hrab[fin as usize] = sums.hrab[old];
                hashes[fin as usize] = self.node_hash[old];
            }
            sums.hrac = hrac;
            sums.hrab = hrab;
            self.node_hash = hashes;
        }
        if dirty.structural {
            sums.consumer_reach = csr.mark_consumer_reach();
        }

        // Changed = the delta's dirty set ∪ every node whose content
        // hash moved (new slots hash as 0 after the remap, so inserted
        // nodes always land here even without the dirty bit).
        let cur = inc.node_hashes();
        let mut changed = dirty.dirty.clone();
        for (i, &h) in cur.iter().enumerate() {
            if self.node_hash[i] != h {
                changed.insert(i);
            }
        }
        let back_affected = csr.affected_seeds(&changed, false);
        let fwd_affected = csr.affected_seeds(&changed, true);
        let (back_seeds, fwd_seeds) = seed_sets(csr, Some(&back_affected), Some(&fwd_affected));
        sums.fill(csr, &back_seeds, &fwd_seeds);
        self.node_hash = cur.to_vec();

        let (all_back, all_fwd) = seed_sets(csr, None, None);
        RefreshStats {
            total: all_back.len() + all_fwd.len(),
            recomputed: back_seeds.len() + fwd_seeds.len(),
        }
    }

    /// Borrows the state as a [`CostEngine`] over the live view's CSR.
    pub fn engine<'a>(&'a self, inc: &'a IncrementalCsr) -> SnapshotEngine<'a> {
        SnapshotEngine {
            csr: inc.csr(),
            sums: &self.sums,
        }
    }

    /// The precomputed HRAC slots ([`u64::MAX`] = not a seed kind).
    pub fn hrac_slots(&self) -> &[u64] {
        &self.sums.hrac
    }

    /// The precomputed HRAB slots ([`u64::MAX`] = not a seed kind).
    pub fn hrab_slots(&self) -> &[u64] {
        &self.sums.hrab
    }
}

/// Which cost-benefit engine computed a ranking, as recorded in the
/// keys of the on-disk ranking cache ([`crate::qcache`]). No front end
/// chooses between engines any more (they all run the batch engine);
/// this stays only because the perfbench harness still builds cache
/// keys with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The batch engine (CSR + bitset kernels + precomputation).
    Batch,
    /// The per-seed reference oracle.
    Reference,
}

impl EngineChoice {
    /// The name this choice carries in a cache entry.
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Batch => "batch",
            EngineChoice::Reference => "reference",
        }
    }
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

    const MIXED: &str = r#"
native print/1
class List { arr n }
class Used { v }
method main/0 {
  l = new List
  cap = 16
  a = newarray cap
  l.arr = a
  i = 0
  one = 1
  lim = 12
loop:
  if i >= lim goto done
  x = i * i
  arr = l.arr
  arr[i] = x
  i = i + one
  goto loop
done:
  u = new Used
  y = 7
  u.v = y
  z = u.v
  native print(z)
  return
}
"#;

    #[test]
    fn batch_agrees_with_reference_on_every_query() {
        let g = profile(MIXED);
        let batch = BatchAnalyzer::new(&g);
        let reference = ReferenceEngine::new(&g);
        for id in g.graph().node_ids() {
            assert_eq!(batch.hrac(id), reference.hrac(id), "hrac at {id}");
            assert_eq!(batch.hrab(id), reference.hrab(id), "hrab at {id}");
            assert_eq!(
                batch.reaches_consumer(id),
                reference.reaches_consumer(id),
                "consumer flag at {id}"
            );
        }
    }
}
