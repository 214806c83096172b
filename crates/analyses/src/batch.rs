//! The batch cost-benefit analysis engine.
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
//!    one [`TraversalScratch`] per worker thread;
//! 3. replaces the per-read forward BFS of
//!    [`reaches_consumer`](crate::cost::reaches_consumer) with one
//!    O(V+E) reverse pass from all consumer nodes
//!    ([`CsrGraph::mark_consumer_reach`]);
//! 4. fans the per-seed computations across the `lowutil-par` worker
//!    pool — the snapshot is read-only, so seeds shard trivially.
//!
//! Both engines implement [`CostEngine`], and the aggregation layers
//! ([`crate::cost`], [`crate::structure`], [`crate::report`]) are
//! parameterized over it: the per-seed [`ReferenceEngine`] stays as the
//! oracle the batch engine is property-tested against, and because the
//! hop sums are exact `u64`s aggregated by shared code in identical
//! order, batch reports are byte-identical to reference reports.

use crate::cost;
use lowutil_core::csr::{Bitset, CsrGraph, TraversalScratch};
use lowutil_core::incr::{IncrDirty, IncrementalCsr};
use lowutil_core::{CostGraph, NodeId};

/// Answers the three per-node queries behind every cost-benefit
/// aggregate. Implementations must agree exactly — sums are `u64`, so
/// any divergence is a bug, not a rounding artifact.
pub trait CostEngine: Sync {
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
/// baseline the batch engine is measured and tested against.
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

/// Sentinel for "not precomputed" in the batch engine's per-node sum
/// arrays. A real hop sum of `u64::MAX` would require ~1.8e19
/// instruction instances, far beyond what a `u64` frequency counter can
/// accumulate from a real run.
const UNCOMPUTED: u64 = u64::MAX;

/// Below this many graph nodes the snapshot does not pay for itself:
/// CSR construction + full precomputation costs more than just running
/// the per-seed reference slicer over the whole (tiny) graph. The
/// `jython`-style workloads — large event streams collapsing onto small
/// abstract graphs — sit squarely below this line; BENCH_PR3.json shows
/// the batch engine 4× *slower* than the reference there, while every
/// above-threshold workload keeps its multi-× speedup.
pub const SNAPSHOT_CROSSOVER: usize = 512;

/// How the analyzer is answering queries.
// One `Inner` exists per analyzer (never in collections), so the size
// gap between the variants costs nothing; boxing the snapshot would
// just add an indirection to every query.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Inner<'a> {
    /// The real batch machinery: CSR snapshot + precomputed answers.
    /// The snapshot may borrow its arrays from a loaded store file
    /// ([`BatchAnalyzer::with_csr`]).
    Snapshot {
        csr: CsrGraph<'a>,
        consumer_reach: Bitset,
        hrac: Vec<u64>,
        hrab: Vec<u64>,
    },
    /// Small-graph fallback: per-seed slicing is already cheap below
    /// the crossover, so skip the snapshot entirely.
    Reference(ReferenceEngine<'a>),
}

/// The batch engine: a CSR snapshot plus precomputed per-node answers.
///
/// Construction does all the work: HRAC for every heap-store node and
/// HRAB for every heap-store and heap-load node are computed by sharding
/// the seeds across the worker pool (each worker reusing one traversal
/// scratch), and consumer reachability for *all* nodes comes from the
/// single reverse marking pass. Queries are then array lookups; a query
/// for a node outside the precomputed kinds falls back to a one-off
/// kernel run on the snapshot.
///
/// Graphs below [`SNAPSHOT_CROSSOVER`] nodes skip the snapshot and
/// answer through the [`ReferenceEngine`] instead — the engines agree
/// exactly, so this is invisible except in construction time.
#[derive(Debug)]
pub struct BatchAnalyzer<'a> {
    inner: Inner<'a>,
}

impl<'a> BatchAnalyzer<'a> {
    /// Builds an engine for `gcost`, choosing snapshot or per-seed
    /// fallback by graph size; precomputation runs on up to `jobs`
    /// worker threads (`0`/`1` = inline).
    pub fn new(gcost: &'a CostGraph, jobs: usize) -> Self {
        if gcost.graph().num_nodes() < SNAPSHOT_CROSSOVER {
            return BatchAnalyzer {
                inner: Inner::Reference(ReferenceEngine::new(gcost)),
            };
        }
        Self::with_snapshot(gcost, jobs)
    }

    /// Builds the snapshot engine unconditionally, ignoring the size
    /// gate — the constructor tests and benches use to exercise the
    /// batch machinery on graphs of any size.
    pub fn with_snapshot(gcost: &CostGraph, jobs: usize) -> Self {
        Self::with_csr(CsrGraph::build(gcost.graph()), jobs)
    }

    /// Builds the snapshot engine around an existing CSR snapshot —
    /// typically one loaded zero-copy from the on-disk store
    /// ([`lowutil_core::store`]), whose arrays borrow from the file
    /// buffer for `'a`. Skips graph re-construction entirely; only the
    /// precomputation passes run.
    pub fn with_csr(csr: CsrGraph<'a>, jobs: usize) -> Self {
        let consumer_reach = csr.mark_consumer_reach();
        let n = csr.num_nodes();

        let back_seeds: Vec<u32> = (0..n as u32)
            .filter(|&i| csr.kind(NodeId(i)).writes_heap())
            .collect();
        let fwd_seeds: Vec<u32> = (0..n as u32)
            .filter(|&i| {
                let k = csr.kind(NodeId(i));
                k.writes_heap() || k.reads_heap()
            })
            .collect();

        let mut hrac = vec![UNCOMPUTED; n];
        for (seed, sum) in batch_sums(&csr, &back_seeds, jobs, false) {
            hrac[seed as usize] = sum;
        }
        let mut hrab = vec![UNCOMPUTED; n];
        for (seed, sum) in batch_sums(&csr, &fwd_seeds, jobs, true) {
            hrab[seed as usize] = sum;
        }

        BatchAnalyzer {
            inner: Inner::Snapshot {
                csr,
                consumer_reach,
                hrac,
                hrab,
            },
        }
    }

    /// `true` when this analyzer built the CSR snapshot (as opposed to
    /// taking the small-graph reference fallback).
    pub fn uses_snapshot(&self) -> bool {
        matches!(self.inner, Inner::Snapshot { .. })
    }

    /// The underlying snapshot, when one was built.
    pub fn csr(&self) -> Option<&CsrGraph<'a>> {
        match &self.inner {
            Inner::Snapshot { csr, .. } => Some(csr),
            Inner::Reference(_) => None,
        }
    }

    /// The precomputed consumer-reachability bitmap (bit = node index),
    /// when a snapshot was built.
    pub fn consumer_reach(&self) -> Option<&Bitset> {
        match &self.inner {
            Inner::Snapshot { consumer_reach, .. } => Some(consumer_reach),
            Inner::Reference(_) => None,
        }
    }
}

/// Shards `seeds` into chunks across the pool, each worker reusing one
/// scratch, and returns `(seed, hop sum)` pairs.
fn batch_sums(csr: &CsrGraph, seeds: &[u32], jobs: usize, forward: bool) -> Vec<(u32, u64)> {
    // A bounded traversal visits a few dozen nodes on typical abstract
    // graphs while a worker spawn costs ~100µs, so fanning out only pays
    // past thousands of seeds; below that, run inline.
    let jobs = if seeds.len() < 4096 { 1 } else { jobs };
    // Chunks are the unit of dynamic load balancing: several per worker
    // so an expensive region does not serialize a whole stripe, but big
    // enough that cursor traffic is negligible.
    let chunk = (seeds.len() / (jobs.max(1) * 8)).max(32);
    let chunks: Vec<Vec<u32>> = seeds.chunks(chunk).map(<[u32]>::to_vec).collect();
    let sums = lowutil_par::par_map_init(
        jobs,
        chunks,
        || TraversalScratch::for_graph(csr),
        |scratch, chunk| {
            chunk
                .into_iter()
                .map(|s| {
                    let sum = if forward {
                        csr.heap_bounded_forward_sum(scratch, NodeId(s))
                    } else {
                        csr.heap_bounded_backward_sum(scratch, NodeId(s))
                    };
                    (s, sum)
                })
                .collect::<Vec<(u32, u64)>>()
        },
    );
    sums.concat()
}

impl CostEngine for BatchAnalyzer<'_> {
    fn hrac(&self, node: NodeId) -> u64 {
        match &self.inner {
            Inner::Snapshot { csr, hrac, .. } => {
                let v = hrac[node.index()];
                if v != UNCOMPUTED {
                    return v;
                }
                // Cold path: a seed kind not precomputed (ad-hoc query
                // on a plain node). Run the kernel once with throwaway
                // scratch.
                let mut scratch = TraversalScratch::for_graph(csr);
                csr.heap_bounded_backward_sum(&mut scratch, node)
            }
            Inner::Reference(r) => r.hrac(node),
        }
    }

    fn hrab(&self, node: NodeId) -> u64 {
        match &self.inner {
            Inner::Snapshot { csr, hrab, .. } => {
                let v = hrab[node.index()];
                if v != UNCOMPUTED {
                    return v;
                }
                let mut scratch = TraversalScratch::for_graph(csr);
                csr.heap_bounded_forward_sum(&mut scratch, node)
            }
            Inner::Reference(r) => r.hrab(node),
        }
    }

    fn reaches_consumer(&self, node: NodeId) -> bool {
        match &self.inner {
            Inner::Snapshot { consumer_reach, .. } => consumer_reach.contains(node.index()),
            Inner::Reference(r) => r.reaches_consumer(node),
        }
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
    hrac: Vec<u64>,
    hrab: Vec<u64>,
    consumer_reach: Bitset,
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
    pub fn new(inc: &IncrementalCsr, jobs: usize) -> Self {
        let csr = inc.csr();
        let n = csr.num_nodes();
        let (back_seeds, fwd_seeds) = seed_sets(csr, None, None);
        let mut hrac = vec![UNCOMPUTED; n];
        for (seed, sum) in batch_sums(csr, &back_seeds, jobs, false) {
            hrac[seed as usize] = sum;
        }
        let mut hrab = vec![UNCOMPUTED; n];
        for (seed, sum) in batch_sums(csr, &fwd_seeds, jobs, true) {
            hrab[seed as usize] = sum;
        }
        IncrementalAnalyzer {
            hrac,
            hrab,
            consumer_reach: csr.mark_consumer_reach(),
            node_hash: inc.node_hashes().to_vec(),
        }
    }

    /// Folds one absorb's dirty set into the precomputed state: remaps
    /// surviving slots through the id shift, re-marks consumer
    /// reachability when the structure changed, and re-runs the bounded
    /// kernels only for seeds whose region intersects the changed
    /// nodes. `inc` must be the view the dirty set came from.
    pub fn refresh(
        &mut self,
        inc: &IncrementalCsr,
        dirty: &IncrDirty,
        jobs: usize,
    ) -> RefreshStats {
        let csr = inc.csr();
        let n = csr.num_nodes();
        if let Some(map) = &dirty.remap {
            let mut hrac = vec![UNCOMPUTED; n];
            let mut hrab = vec![UNCOMPUTED; n];
            let mut hashes = vec![0u64; n];
            for (old, &fin) in map.iter().enumerate() {
                hrac[fin as usize] = self.hrac[old];
                hrab[fin as usize] = self.hrab[old];
                hashes[fin as usize] = self.node_hash[old];
            }
            self.hrac = hrac;
            self.hrab = hrab;
            self.node_hash = hashes;
        }
        if dirty.structural {
            self.consumer_reach = csr.mark_consumer_reach();
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
        for (seed, sum) in batch_sums(csr, &back_seeds, jobs, false) {
            self.hrac[seed as usize] = sum;
        }
        for (seed, sum) in batch_sums(csr, &fwd_seeds, jobs, true) {
            self.hrab[seed as usize] = sum;
        }
        self.node_hash = cur.to_vec();

        let (all_back, all_fwd) = seed_sets(csr, None, None);
        RefreshStats {
            total: all_back.len() + all_fwd.len(),
            recomputed: back_seeds.len() + fwd_seeds.len(),
        }
    }

    /// Borrows the state as a [`CostEngine`] over the live view's CSR.
    pub fn engine<'a>(&'a self, inc: &'a IncrementalCsr) -> IncrementalEngine<'a> {
        IncrementalEngine {
            csr: inc.csr(),
            state: self,
        }
    }

    /// The precomputed HRAC slots ([`u64::MAX`] = not a seed kind).
    pub fn hrac_slots(&self) -> &[u64] {
        &self.hrac
    }

    /// The precomputed HRAB slots ([`u64::MAX`] = not a seed kind).
    pub fn hrab_slots(&self) -> &[u64] {
        &self.hrab
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

/// A [`CostEngine`] view over an [`IncrementalAnalyzer`]'s carried
/// state — what warm serve queries answer through.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalEngine<'a> {
    csr: &'a CsrGraph<'static>,
    state: &'a IncrementalAnalyzer,
}

impl CostEngine for IncrementalEngine<'_> {
    fn hrac(&self, node: NodeId) -> u64 {
        let v = self.state.hrac[node.index()];
        if v != UNCOMPUTED {
            return v;
        }
        let mut scratch = TraversalScratch::for_graph(self.csr);
        self.csr.heap_bounded_backward_sum(&mut scratch, node)
    }

    fn hrab(&self, node: NodeId) -> u64 {
        let v = self.state.hrab[node.index()];
        if v != UNCOMPUTED {
            return v;
        }
        let mut scratch = TraversalScratch::for_graph(self.csr);
        self.csr.heap_bounded_forward_sum(&mut scratch, node)
    }

    fn reaches_consumer(&self, node: NodeId) -> bool {
        self.state.consumer_reach.contains(node.index())
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
        // Force the snapshot path: the test graph is far below the
        // crossover, and `new` would silently test reference-vs-itself.
        let batch = BatchAnalyzer::with_snapshot(&g, 2);
        assert!(batch.uses_snapshot());
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

    #[test]
    fn small_graphs_take_the_reference_fallback() {
        let g = profile(MIXED);
        assert!(g.graph().num_nodes() < SNAPSHOT_CROSSOVER);
        let auto = BatchAnalyzer::new(&g, 2);
        assert!(!auto.uses_snapshot(), "tiny graph must skip the snapshot");
        assert!(auto.csr().is_none());
        assert!(auto.consumer_reach().is_none());
        // The fallback still answers every query exactly like the
        // snapshot engine would.
        let forced = BatchAnalyzer::with_snapshot(&g, 2);
        for id in g.graph().node_ids() {
            assert_eq!(auto.hrac(id), forced.hrac(id));
            assert_eq!(auto.hrab(id), forced.hrab(id));
            assert_eq!(auto.reaches_consumer(id), forced.reaches_consumer(id));
        }
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let g = profile(MIXED);
        let one = BatchAnalyzer::with_snapshot(&g, 1);
        let many = BatchAnalyzer::with_snapshot(&g, 7);
        for id in g.graph().node_ids() {
            assert_eq!(one.hrac(id), many.hrac(id));
            assert_eq!(one.hrab(id), many.hrab(id));
            assert_eq!(one.reaches_consumer(id), many.reaches_consumer(id));
        }
    }
}
