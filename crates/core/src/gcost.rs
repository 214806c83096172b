//! Construction of `G_cost`: the abstract thin dependence graph for
//! cost-benefit analysis.
//!
//! [`GraphBuilder`] (alias [`CostProfiler`]) implements the paper's
//! Figure 4 instrumentation semantics as an [`EventSink`] over the VM's
//! event stream, live or replayed:
//!
//! * every value-producing instruction becomes (or bumps) an abstract node
//!   annotated with the *context slot* `h(c)` of the current
//!   receiver-object allocation-site chain `c`;
//! * predicates and natives become context-free *consumer* nodes;
//! * def-use edges are discovered online through shadow locations: every
//!   local, instance field, static field, and array element has a shadow
//!   slot holding the node that last wrote it;
//! * the thin-slicing rule is inherited from the VM's events: base
//!   pointers of heap accesses are not uses, array indices are;
//! * allocations tag the new object (on the shadow heap) with the
//!   context-annotated allocation site `(new X)^{h(c)}`, and every store
//!   into a tagged object adds a *reference edge* from the store node to
//!   the matching allocation node, plus a points-to record used to build
//!   object reference trees (Definition 7);
//! * tracking data for actuals and return values flows through the
//!   call/return events, mirroring the paper's tracking stack.
//!
//! The finished artifact is a [`CostGraph`], the input to every analysis in
//! `lowutil-analyses`.

use crate::context::{slot_of, thread_base, ConflictStats, ContextStack};
use crate::dense::{DenseDomain, DenseInterner, InstrIndexer};
use crate::fx::{FxHashMap, FxHashSet};
use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{AllocSiteId, FieldId, InstrId, StaticId, ThreadId, Value};
use lowutil_vm::{Event, EventSink, FrameInfo, ShadowHeap, ShadowLanes};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The abstract-domain element of a `G_cost` node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostElem {
    /// An encoded context slot `h(c) ∈ [0, s)`.
    Ctx(u32),
    /// Predicate and native nodes carry no context (the paper's `a°`).
    NoCtx,
}

impl fmt::Display for CostElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostElem::Ctx(s) => write!(f, "^{s}"),
            CostElem::NoCtx => write!(f, "°"),
        }
    }
}

impl DenseDomain for CostElem {
    /// `NoCtx` is 0 and slot `k` is `k + 1`; with `s` context slots the
    /// domain cardinality is exactly `s + 1`.
    #[inline]
    fn dense_index(&self) -> usize {
        match *self {
            CostElem::NoCtx => 0,
            CostElem::Ctx(k) => k as usize + 1,
        }
    }
}

/// A context-annotated allocation site `(new X)^{h(c)}` — the paper's
/// static object abstraction, refined by the allocation context so that
/// reference edges connect effects on (probabilistically) the same object
/// population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaggedSite {
    /// The allocation site.
    pub site: AllocSiteId,
    /// The context slot the allocation executed under.
    pub slot: u32,
}

impl fmt::Display for TaggedSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}^{}", self.site, self.slot)
    }
}

/// Which member of an object a heap effect touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldKey {
    /// An instance field.
    Field(FieldId),
    /// Any array element (elements are merged, like the paper's `ELM`).
    Element,
    /// The array length header.
    Length,
}

impl fmt::Display for FieldKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKey::Field(id) => write!(f, "{id}"),
            FieldKey::Element => write!(f, "ELM"),
            FieldKey::Length => write!(f, "LEN"),
        }
    }
}

/// The heap effect recorded for a node (the paper's environment `H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapEffect {
    /// `('U', O^h, ·)` — the node allocates.
    Alloc {
        /// The context-annotated site.
        site: TaggedSite,
    },
    /// `('C', O^h, f)` — the node reads a member of an object.
    Load {
        /// The base object's tag.
        site: TaggedSite,
        /// The member read.
        field: FieldKey,
    },
    /// `('B', O^h, f)` — the node writes a member of an object.
    Store {
        /// The base object's tag.
        site: TaggedSite,
        /// The member written.
        field: FieldKey,
    },
    /// A static-field read.
    LoadStatic(StaticId),
    /// A static-field write.
    StoreStatic(StaticId),
}

/// Profiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct CostGraphConfig {
    /// Number of context slots `s` (the paper evaluates 8 and 16).
    pub slots: u32,
    /// Record exact chains per slot to compute the CR column. Costs
    /// memory; disable for overhead benchmarking.
    pub track_conflicts: bool,
    /// When `true`, profiling is disarmed until a `phase_begin` native
    /// fires (the paper's steady-state-only tracking mode).
    pub phase_limited: bool,
    /// Ablation switch: when `true`, base pointers of heap accesses are
    /// treated as uses (traditional dynamic slicing) instead of being
    /// excluded (thin slicing). The paper argues thin slicing attributes
    /// data-structure formation costs correctly; this flag lets the
    /// degradation be measured.
    pub traditional_uses: bool,
    /// Ablation switch for §3.2 "considering vs ignoring control decision
    /// making": when `true`, every value-producing node receives an edge
    /// from the predicate nodes it is (statically) control-dependent on,
    /// so control work flows into value costs. The paper ignores control
    /// (the default) to keep reports precise.
    pub control_edges: bool,
    /// Per-instruction inline caches on the hot per-event path. Each
    /// static instruction remembers the last `(g, NodeId)` it resolved
    /// to, so the common monomorphic case (an instruction re-executing
    /// under the same encoded context) skips slot hashing, conflict
    /// recording, and the interning table entirely. Compute and
    /// Predicate instructions also remember, per operand, the last edge
    /// that operand added, and skip the edge-set insert when the next
    /// instance would add the same edge again. Produces an identical
    /// graph (same node ids, same first-seen edge order); the off
    /// position is the reference the caches are tested against.
    pub inline_caches: bool,
}

impl Default for CostGraphConfig {
    fn default() -> Self {
        CostGraphConfig {
            slots: 16,
            track_conflicts: true,
            phase_limited: false,
            traditional_uses: false,
            control_edges: false,
            inline_caches: true,
        }
    }
}

/// Builds `G_cost` from an instruction-event *stream* — it does not care
/// whether events come from a live VM run or from a replayed trace.
///
/// It implements [`EventSink`], so the same value profiles a live run
/// (`Vm::run(&mut builder)`, under its alias [`CostProfiler`]) or
/// terminates a replay (`TraceReader::replay(&mut builder)`).
#[derive(Debug)]
pub struct GraphBuilder {
    config: CostGraphConfig,
    graph: DepGraph<CostElem>,
    /// Shadow locals and call plumbing per guest thread, following the
    /// stream's thread switches. The heap, statics, and graph are shared
    /// (the guest heap is shared).
    lanes: ShadowLanes<Option<NodeId>>,
    /// Receiver-chain context stacks by thread id, each based at
    /// [`thread_base`](crate::context::thread_base) so contexts from
    /// different threads never merge.
    contexts: Vec<ContextStack>,
    /// The running frame's encoded context chain kept in a field: every
    /// value-producing event reads it.
    g: u64,
    shadow_heap: ShadowHeap<Option<NodeId>, Option<TaggedSite>>,
    shadow_statics: Vec<Option<NodeId>>,
    conflicts: ConflictStats,
    ref_edges: FxHashSet<(NodeId, NodeId)>,
    /// Heap effect per node, indexed densely by [`NodeId`] (at most one
    /// effect per node, and node ids are small and dense — no map
    /// needed on the per-event store/load path).
    effects: Vec<Option<HeapEffect>>,
    alloc_nodes: FxHashMap<TaggedSite, NodeId>,
    points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>>,
    armed: bool,
    instr_instances: u64,
    /// Static control-dependence table (only populated under
    /// [`CostGraphConfig::control_edges`]): instruction → controlling
    /// branch instructions.
    control_deps: FxHashMap<InstrId, Vec<InstrId>>,
    /// Global dense index per static instruction (for the dense table).
    indexer: InstrIndexer,
    /// The flat `|I| × |D|` interning table in front of the graph's
    /// hashed index.
    dense: DenseInterner,
    /// Per-instruction inline cache indexed by the dense instruction
    /// index, when [`CostGraphConfig::inline_caches`] is on.
    icache: Vec<CacheEntry>,
}

/// One static instruction's inline-cache entry: the node it last resolved
/// to and the context `g` it resolved under (context-free nodes ignore
/// `g`), and for operand `k` of a Compute or Predicate, the last
/// `(src, dst)` edge that operand added.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    g: u64,
    node: NodeId,
    edges: [(NodeId, NodeId); 2],
}

impl CacheEntry {
    const EMPTY: CacheEntry = CacheEntry {
        g: 0,
        node: IC_EMPTY,
        edges: [(IC_EMPTY, IC_EMPTY); 2],
    };
}

/// Empty inline-cache entry. `g = 0` is the valid empty context, so the
/// node component is the sentinel; node ids are dense from 0 and a graph
/// would need 2³²−1 nodes before colliding with it.
const IC_EMPTY: NodeId = NodeId(u32::MAX);

/// Builds the static control-dependence table consulted under
/// [`CostGraphConfig::control_edges`].
fn build_control_deps(
    program: &lowutil_ir::Program,
    config: &CostGraphConfig,
) -> FxHashMap<InstrId, Vec<InstrId>> {
    let mut control_deps = FxHashMap::default();
    if config.control_edges {
        for (mi, method) in program.methods().iter().enumerate() {
            let cfg = lowutil_ir::Cfg::build(method);
            let deps = cfg.control_dependencies();
            for (pc, branches) in deps.into_iter().enumerate() {
                if branches.is_empty() {
                    continue;
                }
                let mid = lowutil_ir::MethodId(mi as u32);
                control_deps.insert(
                    InstrId::new(mid, pc as u32),
                    branches.into_iter().map(|b| InstrId::new(mid, b)).collect(),
                );
            }
        }
    }
    control_deps
}

impl GraphBuilder {
    /// Creates a builder. The `program` is consulted only for static
    /// control-dependence tables when
    /// [`CostGraphConfig::control_edges`] is set; the builder otherwise
    /// consumes the event stream alone.
    pub fn new(program: &lowutil_ir::Program, config: CostGraphConfig) -> Self {
        let control_deps = build_control_deps(program, &config);
        let indexer = InstrIndexer::new(program);
        // |D| = s context slots + NoCtx.
        let dense = DenseInterner::new(indexer.num_instrs(), config.slots as usize + 1);
        // Zero-length (never consulted) when the caches are off.
        let icache = if config.inline_caches {
            vec![CacheEntry::EMPTY; indexer.num_instrs()]
        } else {
            Vec::new()
        };
        let main = ContextStack::with_base(thread_base(ThreadId::MAIN));
        GraphBuilder {
            config,
            graph: DepGraph::new(),
            lanes: ShadowLanes::new(),
            g: main.current(),
            contexts: vec![main],
            shadow_heap: ShadowHeap::new(None),
            shadow_statics: Vec::new(),
            conflicts: ConflictStats::new(),
            ref_edges: FxHashSet::default(),
            effects: Vec::new(),
            alloc_nodes: FxHashMap::default(),
            points_to: FxHashMap::default(),
            armed: !config.phase_limited,
            instr_instances: 0,
            control_deps,
            indexer,
            dense,
            icache,
        }
    }

    /// The inline-cache index of `at`, computed once per event (0 when
    /// the caches are off: it is never used then).
    #[inline]
    fn cache_index(&self, at: InstrId) -> usize {
        if self.config.inline_caches {
            self.indexer.index(at)
        } else {
            0
        }
    }

    /// Interns `(at, elem)` through the dense table, which only fronts
    /// [`DepGraph::intern`]: both give the same node ids.
    #[inline]
    fn intern(&mut self, at: InstrId, elem: CostElem, kind: NodeKind) -> NodeId {
        self.dense
            .intern(&mut self.graph, &self.indexer, at, elem, kind)
    }

    /// Interns + bumps the node for `at` (cache index `idx`) under the
    /// current context.
    ///
    /// The inline cache short-circuits the monomorphic case: when `at`
    /// re-executes under the same encoded context `g` as last time, the
    /// resolved node, its conflict record (set-idempotent per
    /// `(at, slot, g)`), and its control-dependence edges (idempotent in
    /// [`DepGraph::add_edge`]) are all unchanged from the previous miss,
    /// so only the frequency bump remains. Entries are never
    /// invalidated — nodes are append-only and a stale `g` just misses.
    #[inline]
    fn ctx_node(&mut self, idx: usize, at: InstrId, kind: NodeKind) -> NodeId {
        let g = self.g;
        if self.config.inline_caches {
            let entry = &self.icache[idx];
            if entry.node != IC_EMPTY && entry.g == g {
                let n = entry.node;
                self.graph.bump(n);
                return n;
            }
            let n = self.ctx_node_slow(at, kind, g);
            let entry = &mut self.icache[idx];
            (entry.g, entry.node) = (g, n);
            return n;
        }
        self.ctx_node_slow(at, kind, g)
    }

    fn ctx_node_slow(&mut self, at: InstrId, kind: NodeKind, g: u64) -> NodeId {
        let slot = slot_of(g, self.config.slots);
        if self.config.track_conflicts {
            self.conflicts.record(at, slot, g);
        }
        let n = self.intern(at, CostElem::Ctx(slot), kind);
        self.graph.bump(n);
        if self.config.control_edges {
            if let Some(branches) = self.control_deps.get(&at) {
                for b in branches.clone() {
                    let pnode = self.intern(b, CostElem::NoCtx, NodeKind::Predicate);
                    self.graph.add_edge(pnode, n);
                }
            }
        }
        n
    }

    /// Interns + bumps a context-free consumer node. Its node never
    /// changes, so once the cache entry holds it the interning table is
    /// skipped.
    #[inline]
    fn consumer_node(&mut self, idx: usize, at: InstrId, kind: NodeKind) -> NodeId {
        if self.config.inline_caches {
            let cached = self.icache[idx].node;
            if cached != IC_EMPTY {
                self.graph.bump(cached);
                return cached;
            }
        }
        let n = self.intern(at, CostElem::NoCtx, kind);
        if self.config.inline_caches {
            self.icache[idx].node = n;
        }
        self.graph.bump(n);
        n
    }

    /// Records a node's heap effect in the dense per-node table.
    #[inline]
    fn set_effect(&mut self, n: NodeId, eff: HeapEffect) {
        let i = n.index();
        if self.effects.len() <= i {
            self.effects.resize(i + 1, None);
        }
        self.effects[i] = Some(eff);
    }

    fn edge_from_shadow(&mut self, src: Option<NodeId>, to: NodeId) {
        if let Some(m) = src {
            self.graph.add_edge(m, to);
        }
    }

    /// [`edge_from_shadow`](Self::edge_from_shadow) for operand `k` of
    /// the instruction at cache index `idx`, through its cache entry: an
    /// operand that adds the same edge as last time skips the edge-set
    /// insert. Edges are idempotent and never removed, so the skip leaves
    /// the graph unchanged.
    #[inline]
    fn operand_edge(&mut self, idx: usize, k: usize, src: Option<NodeId>, to: NodeId) {
        let Some(m) = src else { return };
        if self.config.inline_caches {
            let last = &mut self.icache[idx].edges[k];
            if *last == (m, to) {
                return;
            }
            *last = (m, to);
        }
        self.graph.add_edge(m, to);
    }

    fn store_common(
        &mut self,
        n: NodeId,
        object: lowutil_ir::ObjectId,
        field: FieldKey,
        value: Value,
    ) {
        if let Some(tag) = self.shadow_heap.tag(object) {
            self.set_effect(n, HeapEffect::Store { site: tag, field });
            if let Some(&alloc) = self.alloc_nodes.get(&tag) {
                self.ref_edges.insert((n, alloc));
            }
            if let Some(target) = value.as_ref_id() {
                if let Some(tag2) = self.shadow_heap.tag(target) {
                    self.points_to.entry((tag, field)).or_default().insert(tag2);
                }
            }
        }
    }

    /// Consumes the builder, producing the analysis-ready [`CostGraph`].
    pub fn finish(self) -> CostGraph {
        CostGraph::assemble(
            self.graph,
            self.ref_edges,
            self.effects,
            self.alloc_nodes,
            self.points_to,
            self.conflicts,
            self.instr_instances,
            self.shadow_heap.approx_bytes(),
        )
    }
}

impl EventSink for GraphBuilder {
    /// Consumes one instruction event (the Figure 4 semantics).
    fn event(&mut self, event: &Event) {
        if let Event::Phase { begin, .. } = event {
            if self.config.phase_limited {
                self.armed = *begin;
            }
            return;
        }
        if !self.armed {
            // Keep call/return plumbing from leaking stale data across an
            // armed/disarmed boundary.
            match event {
                Event::Call { .. } => self.lanes.call(&[]),
                Event::Return { .. } => self.lanes.ret(None),
                _ => {}
            }
            return;
        }
        // A call instruction surfaces as two events (Call before the
        // callee, CallComplete after); count it once.
        if !matches!(event, Event::CallComplete { .. }) {
            self.instr_instances += 1;
        }
        match event {
            Event::Compute {
                at,
                dst,
                uses,
                value: _,
            } => {
                let idx = self.cache_index(*at);
                let n = self.ctx_node(idx, *at, NodeKind::Plain);
                for (k, u) in uses.iter().enumerate() {
                    if let Some(u) = u {
                        self.operand_edge(idx, k, self.lanes.get(*u), n);
                    }
                }
                self.lanes.set(*dst, Some(n));
            }
            Event::Predicate { at, uses, .. } => {
                let idx = self.cache_index(*at);
                let n = self.consumer_node(idx, *at, NodeKind::Predicate);
                for (k, u) in uses.iter().enumerate() {
                    self.operand_edge(idx, k, self.lanes.get(*u), n);
                }
            }
            Event::Alloc {
                at,
                dst,
                object,
                site,
                len_use,
            } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::Alloc);
                if let Some(l) = len_use {
                    self.edge_from_shadow(self.lanes.get(*l), n);
                }
                self.lanes.set(*dst, Some(n));
                let slot = slot_of(self.g, self.config.slots);
                let tag = TaggedSite { site: *site, slot };
                self.shadow_heap.on_alloc(*object, 0, Some(tag));
                self.alloc_nodes.insert(tag, n);
                self.set_effect(n, HeapEffect::Alloc { site: tag });
            }
            Event::LoadField {
                at,
                dst,
                base,
                object,
                field,
                offset,
                ..
            } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapLoad);
                let src = self.shadow_heap.get(*object, *offset as usize);
                self.edge_from_shadow(src, n);
                if self.config.traditional_uses {
                    self.edge_from_shadow(self.lanes.get(*base), n);
                }
                self.lanes.set(*dst, Some(n));
                if let Some(tag) = self.shadow_heap.tag(*object) {
                    self.set_effect(
                        n,
                        HeapEffect::Load {
                            site: tag,
                            field: FieldKey::Field(*field),
                        },
                    );
                }
            }
            Event::StoreField {
                at,
                base,
                object,
                field,
                offset,
                src,
                value,
                ..
            } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapStore);
                self.edge_from_shadow(self.lanes.get(*src), n);
                if self.config.traditional_uses {
                    self.edge_from_shadow(self.lanes.get(*base), n);
                }
                self.shadow_heap.set(*object, *offset as usize, Some(n));
                self.store_common(n, *object, FieldKey::Field(*field), *value);
            }
            Event::LoadStatic { at, dst, field, .. } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapLoad);
                let src = self.shadow_statics.get(field.index()).copied().flatten();
                self.edge_from_shadow(src, n);
                self.lanes.set(*dst, Some(n));
                self.set_effect(n, HeapEffect::LoadStatic(*field));
            }
            Event::StoreStatic { at, field, src, .. } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapStore);
                self.edge_from_shadow(self.lanes.get(*src), n);
                if self.shadow_statics.len() <= field.index() {
                    self.shadow_statics.resize(field.index() + 1, None);
                }
                self.shadow_statics[field.index()] = Some(n);
                self.set_effect(n, HeapEffect::StoreStatic(*field));
            }
            Event::ArrayLoad {
                at,
                dst,
                base,
                object,
                idx,
                index,
                ..
            } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapLoad);
                self.edge_from_shadow(self.lanes.get(*idx), n);
                if self.config.traditional_uses {
                    self.edge_from_shadow(self.lanes.get(*base), n);
                }
                let src = self.shadow_heap.get(*object, *index as usize);
                self.edge_from_shadow(src, n);
                self.lanes.set(*dst, Some(n));
                if let Some(tag) = self.shadow_heap.tag(*object) {
                    self.set_effect(
                        n,
                        HeapEffect::Load {
                            site: tag,
                            field: FieldKey::Element,
                        },
                    );
                }
            }
            Event::ArrayStore {
                at,
                base,
                object,
                idx,
                index,
                src,
                value,
                ..
            } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapStore);
                self.edge_from_shadow(self.lanes.get(*idx), n);
                if self.config.traditional_uses {
                    self.edge_from_shadow(self.lanes.get(*base), n);
                }
                self.edge_from_shadow(self.lanes.get(*src), n);
                self.shadow_heap.set(*object, *index as usize, Some(n));
                self.store_common(n, *object, FieldKey::Element, *value);
            }
            Event::ArrayLen {
                at,
                dst,
                base,
                object,
                ..
            } => {
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::HeapLoad);
                if self.config.traditional_uses {
                    self.edge_from_shadow(self.lanes.get(*base), n);
                }
                // The length was produced by the allocation.
                if let Some(tag) = self.shadow_heap.tag(*object) {
                    if let Some(&alloc) = self.alloc_nodes.get(&tag) {
                        self.graph.add_edge(alloc, n);
                    }
                    self.set_effect(
                        n,
                        HeapEffect::Load {
                            site: tag,
                            field: FieldKey::Length,
                        },
                    );
                }
                self.lanes.set(*dst, Some(n));
            }
            Event::Call { args, .. } => self.lanes.call(args),
            Event::Return { src, .. } => self.lanes.ret(*src),
            Event::CallComplete { dst, .. } => {
                let stash = self.lanes.call_complete();
                if let Some(d) = dst {
                    self.lanes.set(*d, stash);
                }
            }
            Event::Spawn {
                at,
                dst,
                thread,
                args,
                ..
            } => {
                // The handle is a fresh value produced here; the actuals
                // flow to the child thread's formals (rule METHOD ENTRY,
                // across threads), not into the handle.
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::Plain);
                self.lanes.spawn(*thread, args);
                self.lanes.set(*dst, Some(n));
            }
            Event::Join {
                at, dst, thread, ..
            } => {
                // The joined value depends on the node that produced the
                // child thread's return value (recorded at its root
                // frame pop — join blocks until then).
                let n = self.ctx_node(self.cache_index(*at), *at, NodeKind::Plain);
                self.edge_from_shadow(self.lanes.joined(*thread), n);
                if let Some(d) = dst {
                    self.lanes.set(*d, Some(n));
                }
            }
            Event::Native { at, args, dst, .. } => {
                let idx = self.cache_index(*at);
                let n = self.consumer_node(idx, *at, NodeKind::Native);
                for a in args {
                    self.edge_from_shadow(self.lanes.get(*a), n);
                }
                if let Some(d) = dst {
                    self.lanes.set(*d, Some(n));
                }
            }
            Event::Jump { .. } => {}
            Event::Phase { .. } => unreachable!("handled above"),
        }
    }

    /// Consumes a frame push (rule METHOD ENTRY): formals receive the
    /// stashed actuals, a spawned thread's root frame its `Spawn`'s.
    fn frame_push(&mut self, info: &FrameInfo) {
        let receiver_site = info
            .receiver
            .and_then(|o| self.shadow_heap.tag(o))
            .map(|t| t.site);
        let contexts = &mut self.contexts[self.lanes.current().index()];
        contexts.push(receiver_site);
        self.g = contexts.current();
        self.lanes.push_frame(info);
    }

    /// Consumes a frame pop. A thread's root frame pop leaves its
    /// return-value node on its lane for a later `Join`.
    fn frame_pop(&mut self) {
        self.lanes.pop_frame();
        let contexts = &mut self.contexts[self.lanes.current().index()];
        contexts.pop();
        self.g = contexts.current();
    }

    /// Switches the builder to `tid`'s lane and context stack, creating
    /// them on first sight. Idempotent for the current thread, so callers
    /// may invoke it per segment unconditionally.
    fn thread(&mut self, tid: ThreadId) {
        self.lanes.switch(tid);
        while self.contexts.len() <= tid.index() {
            let base = thread_base(ThreadId(self.contexts.len() as u32));
            self.contexts.push(ContextStack::with_base(base));
        }
        self.g = self.contexts[tid.index()].current();
    }
}

/// Builds `G_cost` online while the VM runs: the live profiler is the
/// replay builder itself, passed straight to `Vm::run`.
pub type CostProfiler = GraphBuilder;

/// The finished `G_cost`: the abstract thin dependence graph plus the
/// heap-effect side tables every client analysis consumes.
#[derive(Debug)]
pub struct CostGraph {
    graph: DepGraph<CostElem>,
    ref_edges: FxHashSet<(NodeId, NodeId)>,
    /// Heap effect per node, indexed densely by [`NodeId`].
    effects: Vec<Option<HeapEffect>>,
    alloc_nodes: FxHashMap<TaggedSite, NodeId>,
    points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>>,
    field_writes: FxHashMap<(TaggedSite, FieldKey), Vec<NodeId>>,
    field_reads: FxHashMap<(TaggedSite, FieldKey), Vec<NodeId>>,
    conflicts: ConflictStats,
    instr_instances: u64,
    shadow_heap_bytes: usize,
}

impl CostGraph {
    /// Assembles the finished artifact from builder state, deriving the
    /// field read/write indexes from the effects table. Used by both
    /// [`GraphBuilder::finish`] and [`Aggregate::to_cost_graph`](crate::Aggregate::to_cost_graph),
    /// so every construction path produces structurally identical results.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        graph: DepGraph<CostElem>,
        ref_edges: FxHashSet<(NodeId, NodeId)>,
        effects: Vec<Option<HeapEffect>>,
        alloc_nodes: FxHashMap<TaggedSite, NodeId>,
        points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>>,
        conflicts: ConflictStats,
        instr_instances: u64,
        shadow_heap_bytes: usize,
    ) -> CostGraph {
        let mut field_writes: FxHashMap<(TaggedSite, FieldKey), Vec<NodeId>> = FxHashMap::default();
        let mut field_reads: FxHashMap<(TaggedSite, FieldKey), Vec<NodeId>> = FxHashMap::default();
        for (i, eff) in effects.iter().enumerate() {
            let n = NodeId(i as u32);
            match *eff {
                Some(HeapEffect::Store { site, field }) => {
                    field_writes.entry((site, field)).or_default().push(n)
                }
                Some(HeapEffect::Load { site, field }) => {
                    field_reads.entry((site, field)).or_default().push(n)
                }
                _ => {}
            }
        }
        for v in field_writes.values_mut().chain(field_reads.values_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        CostGraph {
            graph,
            ref_edges,
            effects,
            alloc_nodes,
            points_to,
            field_writes,
            field_reads,
            conflicts,
            instr_instances,
            shadow_heap_bytes,
        }
    }

    /// Reassembles a cost graph from its serialized parts (see
    /// [`crate::export`]); field read/write indexes and the allocation-node
    /// table are rebuilt from the effects. The std-hashed parameter types
    /// keep the deserialization interface independent of the profiler's
    /// internal hashers.
    pub fn from_parts(
        graph: DepGraph<CostElem>,
        ref_edges: HashSet<(NodeId, NodeId)>,
        effects: HashMap<NodeId, HeapEffect>,
        points_to: HashMap<(TaggedSite, FieldKey), HashSet<TaggedSite>>,
        instr_instances: u64,
        shadow_heap_bytes: usize,
    ) -> Self {
        let mut field_writes: FxHashMap<(TaggedSite, FieldKey), Vec<NodeId>> = FxHashMap::default();
        let mut field_reads: FxHashMap<(TaggedSite, FieldKey), Vec<NodeId>> = FxHashMap::default();
        let mut alloc_nodes: FxHashMap<TaggedSite, NodeId> = FxHashMap::default();
        let mut effect_table: Vec<Option<HeapEffect>> = vec![None; graph.num_nodes()];
        for (&n, eff) in &effects {
            if effect_table.len() <= n.index() {
                effect_table.resize(n.index() + 1, None);
            }
            effect_table[n.index()] = Some(*eff);
            match *eff {
                HeapEffect::Store { site, field } => {
                    field_writes.entry((site, field)).or_default().push(n)
                }
                HeapEffect::Load { site, field } => {
                    field_reads.entry((site, field)).or_default().push(n)
                }
                HeapEffect::Alloc { site } => {
                    alloc_nodes.insert(site, n);
                }
                _ => {}
            }
        }
        for v in field_writes.values_mut().chain(field_reads.values_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        CostGraph {
            graph,
            ref_edges: ref_edges.into_iter().collect(),
            effects: effect_table,
            alloc_nodes,
            points_to: points_to
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            field_writes,
            field_reads,
            conflicts: ConflictStats::new(),
            instr_instances,
            shadow_heap_bytes,
        }
    }

    /// The underlying dependence graph.
    pub fn graph(&self) -> &DepGraph<CostElem> {
        &self.graph
    }

    /// Reference edges: store node → allocation node of the stored-into
    /// object.
    pub fn ref_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ref_edges.iter().copied()
    }

    /// The heap effect of a node, if it touches the heap.
    pub fn effect(&self, node: NodeId) -> Option<&HeapEffect> {
        self.effects.get(node.index()).and_then(Option::as_ref)
    }

    /// All context-annotated allocation sites observed, sorted.
    pub fn objects(&self) -> Vec<TaggedSite> {
        let mut v: Vec<TaggedSite> = self.alloc_nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The allocation node of a tagged site.
    pub fn alloc_node(&self, site: TaggedSite) -> Option<NodeId> {
        self.alloc_nodes.get(&site).copied()
    }

    /// Store nodes that write `site.field`.
    pub fn writes_of(&self, site: TaggedSite, field: FieldKey) -> &[NodeId] {
        self.field_writes
            .get(&(site, field))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Load nodes that read `site.field`.
    pub fn reads_of(&self, site: TaggedSite, field: FieldKey) -> &[NodeId] {
        self.field_reads
            .get(&(site, field))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Members of `site` that were ever written or read.
    pub fn fields_of(&self, site: TaggedSite) -> Vec<FieldKey> {
        let mut v: Vec<FieldKey> = self
            .field_writes
            .keys()
            .chain(self.field_reads.keys())
            .filter(|(s, _)| *s == site)
            .map(|(_, f)| *f)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Objects that `site.field` was observed pointing to.
    pub fn points_to(&self, site: TaggedSite, field: FieldKey) -> Vec<TaggedSite> {
        let mut v: Vec<TaggedSite> = self
            .points_to
            .get(&(site, field))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// The raw points-to relation, for cross-session aggregation
    /// ([`crate::shard::Aggregate`]) — the public per-key accessor above
    /// cannot enumerate the key set.
    pub(crate) fn points_to_raw(
        &self,
    ) -> &FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>> {
        &self.points_to
    }

    /// Context-conflict statistics (empty unless tracking was enabled).
    pub fn conflicts(&self) -> &ConflictStats {
        &self.conflicts
    }

    /// Total instruction instances profiled (the paper's column `I`
    /// restricted to the armed window).
    pub fn instr_instances(&self) -> u64 {
        self.instr_instances
    }

    /// Approximate dependence-graph memory in bytes (column `M`).
    ///
    /// Computed from graph *content* (node/edge/effect counts), never
    /// from allocation capacities, so the number is identical however the
    /// graph was built — live, replayed, or materialized from an aggregate.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let effect_count = self.effects.iter().flatten().count();
        self.graph.approx_bytes()
            + self.ref_edges.len() * (size_of::<(NodeId, NodeId)>() + 16)
            + effect_count * size_of::<Option<HeapEffect>>()
    }

    /// Approximate shadow-heap memory at the end of the run (reported
    /// separately, as in the paper).
    pub fn shadow_heap_bytes(&self) -> usize {
        self.shadow_heap_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn profile(src: &str) -> CostGraph {
        let p = parse_program(src).expect("parse");
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).expect("run");
        prof.finish()
    }

    #[test]
    fn straight_line_graph_has_expected_shape() {
        // Figure 1's program: a=0; c=f(a); d=c*3; b=c+d with f(e)=e>>2.
        let g = profile(
            r#"
method main/0 {
  a = 0
  c = call f(a)
  three = 3
  d = c * three
  b = c + d
  return
}
method f/1 {
  two = 2
  r = p0 >> two
  return r
}
"#,
        );
        // Nodes: a=0, c gets f's r (via return), three, d, b, two, r.
        // All execute once under the empty context.
        assert!(g.graph().num_nodes() >= 6);
        for (_, n) in g.graph().iter() {
            assert_eq!(n.freq, 1);
        }
    }

    #[test]
    fn loop_nodes_accumulate_frequency_not_nodes() {
        let g = profile(
            r#"
method main/0 {
  i = 0
  one = 1
  lim = 100
loop:
  if i >= lim goto done
  i = i + one
  goto loop
done:
  return
}
"#,
        );
        let nodes = g.graph().num_nodes();
        assert!(nodes <= 6, "abstract graph stays bounded, got {nodes}");
        // The increment node ran 100 times.
        let max_freq = g.graph().iter().map(|(_, n)| n.freq).max().unwrap();
        assert!(max_freq >= 100);
    }

    #[test]
    fn heap_flow_connects_store_to_load() {
        let g = profile(
            r#"
native print/1
class Box { v }
method main/0 {
  b = new Box
  x = 41
  one = 1
  y = x + one
  b.v = y
  z = b.v
  native print(z)
  return
}
"#,
        );
        let objects = g.objects();
        assert_eq!(objects.len(), 1);
        let tag = objects[0];
        // One write and one read of Box.v.
        let fields = g.fields_of(tag);
        assert_eq!(fields.len(), 1);
        let f = fields[0];
        assert_eq!(g.writes_of(tag, f).len(), 1);
        assert_eq!(g.reads_of(tag, f).len(), 1);
        let store = g.writes_of(tag, f)[0];
        let load = g.reads_of(tag, f)[0];
        // Def-use edge store → load exists.
        assert!(g.graph().succs(store).contains(&load));
        // Reference edge store → alloc exists.
        let alloc = g.alloc_node(tag).unwrap();
        assert!(g.ref_edges().any(|(s, a)| s == store && a == alloc));
        // Store node is boxed, load circled, alloc underlined.
        assert_eq!(g.graph().node(store).kind, NodeKind::HeapStore);
        assert_eq!(g.graph().node(load).kind, NodeKind::HeapLoad);
        assert_eq!(g.graph().node(alloc).kind, NodeKind::Alloc);
    }

    #[test]
    fn predicates_and_natives_are_context_free_consumers() {
        let g = profile(
            r#"
native print/1
method main/0 {
  x = 1
  y = 2
  if x < y goto l
l:
  native print(x)
  return
}
"#,
        );
        let consumers: Vec<_> = g
            .graph()
            .iter()
            .filter(|(_, n)| n.kind.is_consumer())
            .collect();
        assert_eq!(consumers.len(), 2);
        for (_, n) in consumers {
            assert_eq!(n.elem, CostElem::NoCtx);
        }
    }

    #[test]
    fn contexts_split_nodes_by_receiver_chain() {
        // Two A objects from different sites call the same method `get`;
        // with enough slots, the body nodes split into two context slots.
        let g = profile(
            r#"
class A { f }
native print/1
method main/0 {
  x = 1
  a1 = new A
  a1.f = x
  a2 = new A
  a2.f = x
  r1 = vcall get(a1)
  r2 = vcall get(a2)
  native print(r1)
  native print(r2)
  return
}
method A.get/0 {
  r = this.f
  return r
}
"#,
        );
        // The load `r = this.f` should appear under two distinct contexts.
        let load_nodes: Vec<_> = g
            .graph()
            .iter()
            .filter(|(_, n)| n.kind == NodeKind::HeapLoad)
            .collect();
        assert_eq!(load_nodes.len(), 2, "this.f split by receiver context");
    }

    #[test]
    fn points_to_tracks_reference_stores() {
        let g = profile(
            r#"
class Outer { inner }
class Inner { v }
method main/0 {
  o = new Outer
  i = new Inner
  o.inner = i
  return
}
"#,
        );
        let objects = g.objects();
        assert_eq!(objects.len(), 2);
        // Outer's field points to Inner's tag.
        let with_ptr: Vec<_> = objects
            .iter()
            .filter(|&&t| {
                g.fields_of(t)
                    .iter()
                    .any(|&f| !g.points_to(t, f).is_empty())
            })
            .collect();
        assert_eq!(with_ptr.len(), 1);
    }

    #[test]
    fn phase_limited_profiling_skips_outside_window() {
        let src = r#"
native phase_begin/0
native phase_end/0
native print/1
method main/0 {
  a = 1
  b = 2
  native phase_begin()
  c = 3
  native phase_end()
  d = 4
  native print(d)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = CostProfiler::new(
            &p,
            CostGraphConfig {
                phase_limited: true,
                ..CostGraphConfig::default()
            },
        );
        Vm::new(&p).run(&mut prof).unwrap();
        let g = prof.finish();
        // Only `c = 3` was profiled.
        assert_eq!(g.instr_instances(), 1);
        assert_eq!(g.graph().num_nodes(), 1);
    }

    #[test]
    fn traditional_uses_pull_pointer_costs_into_values() {
        // Under thin slicing the value loaded from b.v depends only on the
        // stored value; under traditional slicing it also depends on the
        // expensive computation that produced the *pointer* b.
        let src = r#"
native print/1
class Box { v }
class Registry { slot }
method main/0 {
  # expensive pointer computation: pick a box via a loop
  reg = new Registry
  b = new Box
  reg.slot = b
  i = 0
  one = 1
  lim = 200
loop:
  if i >= lim goto done
  b = reg.slot
  i = i + one
  goto loop
done:
  x = 7
  b.v = x
  y = b.v
  native print(y)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let run = |traditional: bool| {
            let mut prof = CostProfiler::new(
                &p,
                CostGraphConfig {
                    traditional_uses: traditional,
                    ..CostGraphConfig::default()
                },
            );
            Vm::new(&p).run(&mut prof).unwrap();
            prof.finish()
        };
        let thin = run(false);
        let trad = run(true);
        // Same nodes, strictly more edges under traditional slicing.
        assert_eq!(thin.graph().num_nodes(), trad.graph().num_nodes());
        assert!(trad.graph().num_edges() > thin.graph().num_edges());

        // Backward slice size from the load of b.v: thin excludes the
        // pointer-producing loop, traditional includes it.
        let load_of = |g: &CostGraph| {
            g.objects()
                .into_iter()
                .flat_map(|o| {
                    g.fields_of(o)
                        .into_iter()
                        .flat_map(move |f| g.reads_of(o, f).to_vec())
                })
                .max_by_key(|&n| crate::slicer::backward_slice(g.graph(), n).len())
                .unwrap()
        };
        let thin_n = crate::slicer::backward_slice(thin.graph(), load_of(&thin)).len();
        let trad_n = crate::slicer::backward_slice(trad.graph(), load_of(&trad)).len();
        assert!(
            trad_n > thin_n,
            "traditional slice ({trad_n}) must exceed thin ({thin_n})"
        );
    }

    #[test]
    fn control_edges_charge_loop_guards_into_value_costs() {
        // A value computed inside a loop: ignoring control, its backward
        // slice excludes the loop-condition work; counting control, the
        // guard's instances flow in (the paper's §3.2 concern that costs
        // then include "many values that are irrelevant").
        let src = r#"
class Box { v }
method main/0 {
  b = new Box
  acc = 0
  i = 0
  one = 1
  lim = 50
loop:
  if i >= lim goto done
  acc = acc + one
  i = i + one
  goto loop
done:
  b.v = acc
  return
}
"#;
        let p = parse_program(src).unwrap();
        let run = |control: bool| {
            let mut prof = CostProfiler::new(
                &p,
                CostGraphConfig {
                    control_edges: control,
                    ..CostGraphConfig::default()
                },
            );
            Vm::new(&p).run(&mut prof).unwrap();
            prof.finish()
        };
        let plain = run(false);
        let ctl = run(true);
        let store_of = |g: &CostGraph| {
            g.objects()
                .into_iter()
                .flat_map(|o| {
                    g.fields_of(o)
                        .into_iter()
                        .flat_map(move |f| g.writes_of(o, f).to_vec())
                })
                .next()
                .expect("b.v written")
        };
        let cost = |g: &CostGraph| {
            let s = crate::slicer::backward_slice(g.graph(), store_of(g));
            crate::slicer::freq_sum(g.graph(), s)
        };
        let base = cost(&plain);
        let with_control = cost(&ctl);
        assert!(
            with_control > base,
            "control edges must inflate costs: {with_control} vs {base}"
        );
        // The inflation includes the guard's ~51 executions and the i
        // counter feeding it.
        assert!(with_control >= base + 50);
    }

    #[test]
    fn conflict_stats_are_recorded() {
        let g = profile(
            r#"
method main/0 {
  x = 1
  return
}
"#,
        );
        assert!(g.conflicts().num_instructions() >= 1);
        assert_eq!(g.conflicts().average_cr(), 0.0);
    }

    const FORK_JOIN_SRC: &str = r#"
native print/1
class Box { v }
method main/0 {
  b1 = new Box
  b2 = new Box
  t1 = spawn fill(b1)
  t2 = spawn fill(b2)
  r1 = join t1
  r2 = join t2
  s = r1 + r2
  native print(s)
  return
}
method fill/1 {
  i = 0
  one = 1
  lim = 5
loop:
  if i >= lim goto done
  p0.v = i
  i = i + one
  goto loop
done:
  r = p0.v
  return r
}
"#;

    #[test]
    fn thread_salted_contexts_keep_per_thread_nodes_apart() {
        let g = profile(FORK_JOIN_SRC);
        // The store `p0.v = i` (method fill, pc 4) runs on two threads
        // whose salted bases land in different slots iff the bases
        // differ mod 16 — which they do for T1/T2 (checked explicitly so
        // the assertion can't silently go vacuous).
        let s1 = slot_of(thread_base(ThreadId(1)), 16);
        let s2 = slot_of(thread_base(ThreadId(2)), 16);
        assert_ne!(s1, s2, "pick thread ids whose bases split mod 16");
        let store_at = InstrId::new(lowutil_ir::MethodId(1), 4);
        let stores: Vec<_> = g
            .graph()
            .iter()
            .filter(|(_, n)| n.instr == store_at)
            .collect();
        assert_eq!(stores.len(), 2, "one store node per thread context");
        for (_, n) in stores {
            assert_eq!(n.freq, 5);
        }
    }

    #[test]
    fn join_edges_carry_thread_results_into_the_consumer() {
        let g = profile(FORK_JOIN_SRC);
        // The printed sum must transitively depend on work done inside
        // `fill` (method 1) — the value crossed threads via Join.
        let native = g
            .graph()
            .iter()
            .find(|(_, n)| n.kind == NodeKind::Native)
            .map(|(id, _)| id)
            .unwrap();
        let slice = crate::slicer::backward_slice(g.graph(), native);
        let crossed = slice
            .iter()
            .any(|&n| g.graph().node(n).instr.method == lowutil_ir::MethodId(1));
        assert!(crossed, "print's slice must reach into fill's thread");
    }

    #[test]
    fn multithreaded_profiles_are_scheduler_seed_independent() {
        let p = parse_program(FORK_JOIN_SRC).expect("parse");
        let export = |sched_seed: u64| {
            let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
            let rc = lowutil_vm::RunConfig {
                sched_seed,
                ..lowutil_vm::RunConfig::default()
            };
            lowutil_vm::Vm::with_config(&p, rc)
                .run(&mut prof)
                .expect("run");
            let mut buf = Vec::new();
            crate::export::write_cost_graph(&prof.finish(), &mut buf).unwrap();
            buf
        };
        let reference = export(0);
        for seed in [1, 2, 99, 0xFEED] {
            assert_eq!(
                String::from_utf8_lossy(&reference),
                String::from_utf8_lossy(&export(seed)),
                "sched seed {seed} changed the canonical export"
            );
        }
    }

    #[test]
    fn argument_tracking_crosses_calls() {
        // The value printed flows from `x = 5` through double() and back.
        let g = profile(
            r#"
native print/1
method main/0 {
  x = 5
  y = call double(x)
  native print(y)
  return
}
method double/1 {
  r = p0 + p0
  return r
}
"#,
        );
        // Find the const node (freq 1, Plain, no preds) and the native
        // node; the const must reach the native.
        let native = g
            .graph()
            .iter()
            .find(|(_, n)| n.kind == NodeKind::Native)
            .map(|(id, _)| id)
            .unwrap();
        let const_node = g
            .graph()
            .iter()
            .find(|(_, n)| {
                n.kind == NodeKind::Plain
                    && g.graph().preds(NodeId(0)).is_empty()
                    && n.instr.pc == 0
            })
            .map(|(id, _)| id)
            .unwrap();
        // BFS forward from const.
        let mut seen = vec![const_node];
        let mut stack = vec![const_node];
        while let Some(n) = stack.pop() {
            for &s in g.graph().succs(n) {
                if !seen.contains(&s) {
                    seen.push(s);
                    stack.push(s);
                }
            }
        }
        assert!(seen.contains(&native), "x=5 flows into print");
    }
}
