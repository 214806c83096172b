//! Shard-wise construction of `G_cost` from a segmented event stream.
//!
//! A trace (see `lowutil_vm::trace`) is framed into segments at
//! frame-push boundaries, each carrying a prologue describing the live
//! shadow stack; the pipelined live profiler cuts its event batches the
//! same way. This module builds one *shard graph* per segment or batch,
//! independently, then merges the shards into a [`CostGraph`] that is
//! **byte-identical** (under the canonical serialization in
//! [`crate::export`]) to the graph a sequential
//! [`GraphBuilder`](crate::GraphBuilder) run produces. Determinism falls out of the abstract
//! domain: nodes are keyed by `(InstrId, CostElem)`, not arrival order,
//! so shard union is just intern + frequency-sum + edge-union.
//!
//! The only cross-segment information a shard cannot reconstruct locally
//! is (a) the allocation-site tag and allocation-time context of objects
//! allocated in *earlier* segments, and (b) the defining node of shadow
//! locations last written in earlier segments. (a) is solved by one
//! in-order [`ObjectTableScan`] that builds the object table ahead of
//! the shard builds; (b) is solved
//! *symbolically*: a shard records a read of a location it never wrote as
//! [`Loc`]-labelled external edge, and records its final write to every
//! location, so the sequential merge can resolve each shard's external
//! reads against the accumulated writes of all earlier shards.
//!
//! Trace replay itself does not shard: [`replay_cost_graph`] is one
//! sequential pass, because a fan-out over segments did about twice the
//! sequential work and could not balance (see `lowutil_par::replay_gcost`).

use crate::context::{extend_context, slot_of, thread_base, ConflictStats};
use crate::dense::{DenseInterner, InstrIndexer};
use crate::fx::{FxHashMap, FxHashSet};
use crate::gcost::{
    build_control_deps, new_icache, CostElem, CostGraph, CostGraphConfig, FieldKey, HeapEffect,
    TaggedSite, IC_EMPTY,
};
use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{AllocSiteId, InstrId, Local, ObjectId, Program, StaticId, ThreadId};
use lowutil_vm::trace::{Prologue, PrologueFrame, Segment, TraceError, TraceReader};
use lowutil_vm::{Event, EventSink, FrameInfo};

/// What the object table knows about one heap object: everything a shard
/// needs to reconstruct `shadow_heap.tag(o)` without having seen the
/// allocation.
#[derive(Debug, Clone, Copy)]
pub struct ObjectInfo {
    /// The allocation site.
    pub site: AllocSiteId,
    /// The encoded context chain `g` at allocation time.
    pub g: u64,
    /// Whether the allocation executed inside a phase window. Under
    /// [`CostGraphConfig::phase_limited`] an out-of-phase allocation is
    /// untagged, exactly as the live profiler leaves it.
    pub in_phase: bool,
}

/// Sequentially replays a whole trace through a fresh [`GraphBuilder`](crate::GraphBuilder) —
/// the replay path, and the reference the sharded construction is
/// tested against.
///
/// # Errors
/// Fails on a malformed trace.
pub fn replay_cost_graph(
    program: &Program,
    config: CostGraphConfig,
    reader: &TraceReader<'_>,
) -> Result<CostGraph, TraceError> {
    replay_segments(program, config, reader.segments())
}

/// Sequentially replays an explicit segment slice — any prefix (or other
/// subsequence) of a trace — through a fresh [`GraphBuilder`](crate::GraphBuilder).
///
/// This is what makes salvage differential testing possible: the graph of
/// a salvaged reader must be byte-identical (under canonical export) to
/// the graph of the *original* trace restricted to the kept prefix, and
/// this function computes that restriction.
///
/// # Errors
/// Fails on a malformed segment.
pub fn replay_segments(
    program: &Program,
    config: CostGraphConfig,
    segments: &[Segment<'_>],
) -> Result<CostGraph, TraceError> {
    let mut builder = crate::gcost::GraphBuilder::new(program, config);
    for seg in segments {
        // v3 segments are per-thread; announce each segment's owner
        // (idempotent when unchanged, and always MAIN for v1/v2).
        builder.thread(seg.prologue().thread);
        seg.replay(&mut builder)?;
    }
    Ok(builder.finish())
}

// ---------------------------------------------------------------------------
// shard building
// ---------------------------------------------------------------------------

/// Rebuilds the context stack a segment starts under by folding the
/// prologue's receiver chain, outermost frame first, on top of the
/// owning thread's base chain (see
/// [`thread_base`](crate::context::thread_base)).
fn seed_contexts(
    base: u64,
    frames: &[PrologueFrame],
    mut receiver_site: impl FnMut(ObjectId) -> Option<AllocSiteId>,
) -> Vec<u64> {
    let mut gs: Vec<u64> = Vec::with_capacity(frames.len());
    for f in frames {
        let parent = gs.last().copied().unwrap_or(base);
        let g = match f.receiver.and_then(&mut receiver_site) {
            Some(site) => extend_context(parent, site),
            None => parent,
        };
        gs.push(g);
    }
    gs
}

/// A shadow *location* in the global run, used to name cross-segment
/// data flow symbolically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// A local slot of a specific dynamic frame (`frame` is the global
    /// push index the trace writer assigned).
    Local {
        /// Global frame id.
        frame: u64,
        /// Local slot.
        local: u16,
    },
    /// A heap slot (field offset or array index) of an object.
    Heap {
        /// The object.
        object: ObjectId,
        /// The slot within the object.
        slot: u32,
    },
    /// A static field.
    Static(u32),
    /// The `i`-th pending call argument at the segment boundary (a
    /// `Call` event at the very end of a segment whose `frame_push`
    /// opens the next segment). Pending arguments are thread-local
    /// state, so resolution is against the owning thread's argument
    /// stash (trace v3 segments are per-thread).
    Arg(u16),
    /// The `i`-th actual a `Spawn` stashed for thread `thread`, consumed
    /// by the formals of that thread's root frame.
    SpawnArg {
        /// The spawned thread.
        thread: u32,
        /// The argument position.
        i: u16,
    },
    /// The return value of finished thread `thread` (written at its root
    /// frame pop, read by `Join`).
    ThreadRet(u32),
}

/// The symbolic value of a shadow location inside one shard.
#[derive(Debug, Clone, Copy)]
enum Sym {
    /// Known empty (either never written, in a frame/object this shard
    /// created, or explicitly overwritten with "no data").
    None,
    /// Written by this shard's node.
    Node(NodeId),
    /// Whatever value the location held when the segment started.
    Init(Loc),
}

/// Shared, immutable context for building every shard of one replay.
#[derive(Debug)]
pub struct ShardContext {
    config: CostGraphConfig,
    indexer: InstrIndexer,
    control_deps: FxHashMap<InstrId, Vec<InstrId>>,
}

impl ShardContext {
    /// Prepares the per-replay tables (instruction indexer and, under
    /// `control_edges`, the static control-dependence table).
    pub fn new(program: &Program, config: CostGraphConfig) -> Self {
        ShardContext {
            config,
            indexer: InstrIndexer::new(program),
            control_deps: build_control_deps(program, &config),
        }
    }

    /// The configuration shards are built under.
    pub fn config(&self) -> &CostGraphConfig {
        &self.config
    }
}

#[derive(Debug)]
struct SymFrame {
    /// Global frame id.
    gid: u64,
    /// `true` for frames inherited from the prologue: reads of unwritten
    /// locals refer to pre-segment state instead of being empty.
    outer: bool,
    vals: FxHashMap<u16, Sym>,
}

#[derive(Debug, Default)]
struct SymObj {
    /// `true` when this shard saw the allocation, so unwritten slots are
    /// known-empty rather than external.
    in_shard: bool,
    vals: FxHashMap<u32, Sym>,
}

/// One segment's contribution to the merged graph.
#[derive(Debug)]
pub struct ShardGraph {
    /// The thread that executed this segment (v3 segments are
    /// per-thread; always MAIN for v1/v2). Pending-argument state is
    /// thread-local, so the merge resolves [`Loc::Arg`] against this
    /// thread's stash.
    thread: ThreadId,
    graph: DepGraph<CostElem>,
    /// Reads of pre-segment shadow state: `(location, consuming node)`.
    ext_edges: Vec<(Loc, NodeId)>,
    /// The value every written location holds at segment end.
    final_locs: Vec<(Loc, Sym)>,
    /// Pending call arguments at segment end (`None` = untouched, so the
    /// boundary arguments carried into this segment are still pending).
    final_args: Option<Vec<Sym>>,
    ref_edges: FxHashSet<(NodeId, NodeId)>,
    /// Store-to-allocation reference edges whose allocation node lives in
    /// an earlier segment.
    ext_ref_edges: Vec<(NodeId, TaggedSite)>,
    /// Alloc-to-length def-use edges whose allocation node lives in an
    /// earlier segment.
    ext_len_edges: Vec<(TaggedSite, NodeId)>,
    effects: Vec<Option<HeapEffect>>,
    alloc_nodes: FxHashMap<TaggedSite, NodeId>,
    points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>>,
    conflicts: ConflictStats,
    instr_instances: u64,
    /// Shadow-heap occupancy this shard caused: object → minimum slot
    /// count (0 for a bare armed allocation). Reproduces the live
    /// shadow heap's memory accounting.
    heap_touch: FxHashMap<ObjectId, u32>,
}

/// Reusable allocation arena for the shard builder's big side tables —
/// the dense `|I| × |D|` interning table and the per-instruction
/// inline-cache array, both sized by the static instruction count and
/// so by far the largest per-shard allocations. A worker thread keeps
/// one scratch and threads it through every shard it builds
/// ([`shard_sink_reusing`]): construction
/// reuses the warm tables and the between-shards reset clears only the
/// entries actually written (O(nodes interned), not O(|I| × |D|)), so
/// steady-state shard building stops paying the allocator per batch.
#[derive(Debug, Default)]
pub struct ShardScratch {
    dense: Option<DenseInterner>,
    icache: Vec<(u64, NodeId)>,
    /// Inline-cache slots first-written this shard; the reset list.
    icache_touched: Vec<u32>,
}

impl ShardScratch {
    /// Allocates scratch sized for `ctx`.
    pub fn new(ctx: &ShardContext) -> Self {
        let mut s = ShardScratch::default();
        s.ensure(ctx);
        s
    }

    /// (Re)allocates the tables when absent or mis-sized for `ctx`; a
    /// clean scratch carried between shards of one replay is a no-op.
    fn ensure(&mut self, ctx: &ShardContext) {
        let config = &ctx.config;
        let n = ctx.indexer.num_instrs();
        let card = config.slots as usize + 1;
        let dense_ok = matches!(
            &self.dense,
            Some(t) if t.num_slots() == n * card && t.cardinality() == card
        );
        if config.dense_interning {
            if !dense_ok {
                self.dense = Some(DenseInterner::new(n, card));
            }
        } else {
            self.dense = None;
        }
        let want = if config.inline_caches { n } else { 0 };
        if self.icache.len() != want {
            self.icache = new_icache(config.inline_caches, n);
            self.icache_touched.clear();
        }
    }

    /// Returns the tables to their empty state by undoing only the
    /// writes of the shard just finished.
    fn reset(&mut self) {
        if let Some(d) = &mut self.dense {
            d.reset();
        }
        for &i in &self.icache_touched {
            self.icache[i as usize] = (0, IC_EMPTY);
        }
        self.icache_touched.clear();
    }
}

/// Replays one segment into a fresh shard graph.
///
/// # Errors
/// Fails on a malformed segment.
pub fn build_shard(
    ctx: &ShardContext,
    objects: &[Option<ObjectInfo>],
    seg: &Segment<'_>,
) -> Result<ShardGraph, TraceError> {
    let mut b = ShardBuilder::new(ctx, objects, seg.prologue());
    seg.replay(&mut b)?;
    Ok(b.finish())
}

/// An incrementally fed shard builder — the same construction as
/// [`build_shard`], but driven by an in-memory event stream (a live
/// pipelined batch) instead of a decoded trace segment. Feed it the
/// batch's records through the [`EventSink`] hooks, then call
/// [`ShardSink::finish`].
#[derive(Debug)]
pub struct ShardSink<'c>(ShardBuilder<'c>);

/// Starts a shard for a live batch beginning at `prologue`. `objects`
/// must describe (at least) every object allocated before or inside the
/// batch — the streaming [`ObjectTableScan`] produces exactly that.
pub fn shard_sink<'c>(
    ctx: &'c ShardContext,
    objects: &'c [Option<ObjectInfo>],
    prologue: &Prologue,
) -> ShardSink<'c> {
    ShardSink(ShardBuilder::new(ctx, objects, prologue))
}

/// [`shard_sink`] with arena reuse: the builder borrows `scratch`'s
/// side tables instead of allocating fresh ones; reclaim the scratch
/// with [`ShardSink::finish_reusing`]. Graphs are identical to the
/// allocating path's.
pub fn shard_sink_reusing<'c>(
    ctx: &'c ShardContext,
    objects: &'c [Option<ObjectInfo>],
    prologue: &Prologue,
    scratch: ShardScratch,
) -> ShardSink<'c> {
    ShardSink(ShardBuilder::with_scratch(ctx, objects, prologue, scratch))
}

impl ShardSink<'_> {
    /// Finalizes the shard's contribution for [`merge_shards`].
    pub fn finish(self) -> ShardGraph {
        self.0.finish()
    }

    /// Like [`finish`](ShardSink::finish), but also hands back the
    /// (reset) scratch for the caller's next shard.
    pub fn finish_reusing(self) -> (ShardGraph, ShardScratch) {
        self.0.finish_parts()
    }
}

impl EventSink for ShardSink<'_> {
    fn event(&mut self, event: &Event) {
        self.0.event(event);
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.0.frame_push(info);
    }

    fn frame_pop(&mut self) {
        self.0.frame_pop();
    }
}

/// The object table, built in one in-order pass: fed a run's batches
/// (or a trace's segments) in order, it maintains the growing table and
/// reports each batch's newly allocated objects as a delta.
///
/// One pass suffices because any object a frame push or store
/// references must already exist — i.e. was allocated earlier in the
/// same stream — so the prefix table answers every lookup a shard
/// makes.
#[derive(Debug)]
pub struct ObjectTableScan {
    phase_limited: bool,
    /// Per-thread receiver-chain stacks; batches announce their owning
    /// thread through the [`EventSink::thread`] hook before replaying.
    contexts: Vec<Vec<u64>>,
    cur: usize,
    in_phase: bool,
    table: Vec<Option<ObjectInfo>>,
    delta: Vec<(ObjectId, ObjectInfo)>,
}

impl ObjectTableScan {
    /// A scanner for a run starting outside any frame and any phase.
    pub fn new(phase_limited: bool) -> Self {
        ObjectTableScan {
            phase_limited,
            contexts: vec![Vec::new()],
            cur: 0,
            in_phase: false,
            table: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// The current thread's encoded chain (its thread base when no
    /// frame is live).
    fn current_g(&self) -> u64 {
        self.contexts[self.cur]
            .last()
            .copied()
            .unwrap_or_else(|| thread_base(ThreadId(self.cur as u32)))
    }

    /// The object table over everything scanned so far.
    pub fn table(&self) -> &[Option<ObjectInfo>] {
        &self.table
    }

    /// Drains the entries recorded since the last call — what a worker
    /// thread needs to bring its private table copy up to date.
    pub fn take_delta(&mut self) -> Vec<(ObjectId, ObjectInfo)> {
        std::mem::take(&mut self.delta)
    }
}

impl EventSink for ObjectTableScan {
    fn event(&mut self, e: &Event) {
        match e {
            Event::Phase { begin, .. } => self.in_phase = *begin,
            Event::Alloc { object, site, .. } => {
                let info = ObjectInfo {
                    site: *site,
                    g: self.current_g(),
                    in_phase: self.in_phase,
                };
                apply_object_delta(&mut self.table, &[(*object, info)]);
                self.delta.push((*object, info));
            }
            _ => {}
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        let parent = self.current_g();
        let site = info.receiver.and_then(|o| {
            self.table
                .get(o.index())
                .copied()
                .flatten()
                .filter(|i| !self.phase_limited || i.in_phase)
                .map(|i| i.site)
        });
        let g = match site {
            Some(site) => extend_context(parent, site),
            None => parent,
        };
        self.contexts[self.cur].push(g);
    }

    fn frame_pop(&mut self) {
        self.contexts[self.cur].pop();
    }

    fn thread(&mut self, tid: ThreadId) {
        self.cur = tid.index();
        if self.contexts.len() <= self.cur {
            self.contexts.resize_with(self.cur + 1, Vec::new);
        }
    }
}

/// Applies an [`ObjectTableScan`] delta to a (possibly shorter) table
/// copy, growing it as needed.
pub fn apply_object_delta(table: &mut Vec<Option<ObjectInfo>>, delta: &[(ObjectId, ObjectInfo)]) {
    for &(o, info) in delta {
        if table.len() <= o.index() {
            table.resize(o.index() + 1, None);
        }
        table[o.index()] = Some(info);
    }
}

#[derive(Debug)]
struct ShardBuilder<'c> {
    ctx: &'c ShardContext,
    objects: &'c [Option<ObjectInfo>],
    /// The segment's owning thread and its context-chain base.
    thread: ThreadId,
    base: u64,
    /// Spawn-stash writes this shard produced: `(SpawnArg loc, sym)` for
    /// each actual of each `Spawn`, appended to `final_locs`.
    spawn_out: Vec<(Loc, Sym)>,
    /// The return-value sym recorded at this thread's root frame pop.
    thread_ret: Option<Sym>,
    graph: DepGraph<CostElem>,
    /// The two |I|-sized side tables (dense interner + inline caches),
    /// owned here but possibly on loan from a worker's reusable arena.
    scratch: ShardScratch,
    frames: Vec<SymFrame>,
    contexts: Vec<u64>,
    heap: FxHashMap<ObjectId, SymObj>,
    statics: FxHashMap<u32, Sym>,
    pending_args: Option<Vec<Sym>>,
    ret_stash: Sym,
    ext_edges: Vec<(Loc, NodeId)>,
    ref_edges: FxHashSet<(NodeId, NodeId)>,
    ext_ref_edges: Vec<(NodeId, TaggedSite)>,
    ext_len_edges: Vec<(TaggedSite, NodeId)>,
    effects: Vec<Option<HeapEffect>>,
    alloc_nodes: FxHashMap<TaggedSite, NodeId>,
    points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>>,
    conflicts: ConflictStats,
    instr_instances: u64,
    heap_touch: FxHashMap<ObjectId, u32>,
    armed: bool,
    next_gid: u64,
}

impl<'c> ShardBuilder<'c> {
    fn new(ctx: &'c ShardContext, objects: &'c [Option<ObjectInfo>], prologue: &Prologue) -> Self {
        Self::with_scratch(ctx, objects, prologue, ShardScratch::default())
    }

    fn with_scratch(
        ctx: &'c ShardContext,
        objects: &'c [Option<ObjectInfo>],
        prologue: &Prologue,
        mut scratch: ShardScratch,
    ) -> Self {
        scratch.ensure(ctx);
        let config = &ctx.config;
        let base = thread_base(prologue.thread);
        let contexts = seed_contexts(base, &prologue.frames, |o| {
            objects
                .get(o.index())
                .copied()
                .flatten()
                .filter(|info| !config.phase_limited || info.in_phase)
                .map(|info| info.site)
        });
        let frames = prologue
            .frames
            .iter()
            .map(|f| SymFrame {
                gid: f.gid,
                outer: true,
                vals: FxHashMap::default(),
            })
            .collect();
        ShardBuilder {
            ctx,
            objects,
            thread: prologue.thread,
            base,
            spawn_out: Vec::new(),
            thread_ret: None,
            graph: DepGraph::new(),
            scratch,
            frames,
            contexts,
            heap: FxHashMap::default(),
            statics: FxHashMap::default(),
            pending_args: None,
            ret_stash: Sym::None,
            ext_edges: Vec::new(),
            ref_edges: FxHashSet::default(),
            ext_ref_edges: Vec::new(),
            ext_len_edges: Vec::new(),
            effects: Vec::new(),
            alloc_nodes: FxHashMap::default(),
            points_to: FxHashMap::default(),
            conflicts: ConflictStats::new(),
            instr_instances: 0,
            heap_touch: FxHashMap::default(),
            armed: !config.phase_limited || prologue.in_phase,
            next_gid: prologue.first_gid,
        }
    }

    /// The live profiler's `shadow_heap.tag(o)`, reconstructed from the
    /// object table.
    fn tag_of(&self, o: ObjectId) -> Option<TaggedSite> {
        let info = self.objects.get(o.index()).copied().flatten()?;
        if self.ctx.config.phase_limited && !info.in_phase {
            return None;
        }
        Some(TaggedSite {
            site: info.site,
            slot: slot_of(info.g, self.ctx.config.slots),
        })
    }

    fn current_g(&self) -> u64 {
        self.contexts.last().copied().unwrap_or(self.base)
    }

    fn read_local(&self, l: Local) -> Sym {
        let f = self.frames.last().expect("shadow frame present");
        match f.vals.get(&l.0) {
            Some(&s) => s,
            None if f.outer => Sym::Init(Loc::Local {
                frame: f.gid,
                local: l.0,
            }),
            None => Sym::None,
        }
    }

    fn write_local(&mut self, l: Local, s: Sym) {
        self.frames
            .last_mut()
            .expect("shadow frame present")
            .vals
            .insert(l.0, s);
    }

    fn heap_read(&mut self, o: ObjectId, slot: u32) -> Sym {
        let e = self.heap.entry(o).or_default();
        match e.vals.get(&slot) {
            Some(&s) => s,
            None if e.in_shard => Sym::None,
            None => Sym::Init(Loc::Heap { object: o, slot }),
        }
    }

    fn heap_write(&mut self, o: ObjectId, slot: u32, s: Sym) {
        self.heap.entry(o).or_default().vals.insert(slot, s);
        let touch = self.heap_touch.entry(o).or_insert(0);
        *touch = (*touch).max(slot + 1);
    }

    fn static_read(&self, f: StaticId) -> Sym {
        match self.statics.get(&f.0) {
            Some(&s) => s,
            None => Sym::Init(Loc::Static(f.0)),
        }
    }

    fn intern(&mut self, at: InstrId, elem: CostElem, kind: NodeKind) -> NodeId {
        match &mut self.scratch.dense {
            Some(table) => table.intern(&mut self.graph, &self.ctx.indexer, at, elem, kind),
            None => self.graph.intern(at, elem, kind),
        }
    }

    /// Same inline-cache fast path as the live `GraphBuilder` (see the
    /// correctness notes there); the cache is per-shard (reset between
    /// shards when the scratch is reused), so a hit can only repeat
    /// work this shard already did.
    #[inline]
    fn ctx_node(&mut self, at: InstrId, kind: NodeKind) -> NodeId {
        let g = self.current_g();
        if self.ctx.config.inline_caches {
            let idx = self.ctx.indexer.index(at);
            let (cached_g, cached_n) = self.scratch.icache[idx];
            if cached_n != IC_EMPTY && cached_g == g {
                self.graph.bump(cached_n);
                return cached_n;
            }
            let n = self.ctx_node_slow(at, kind, g);
            if cached_n == IC_EMPTY {
                // First write to this slot this shard: remember it for
                // the O(entries-used) scratch reset.
                self.scratch.icache_touched.push(idx as u32);
            }
            self.scratch.icache[idx] = (g, n);
            return n;
        }
        self.ctx_node_slow(at, kind, g)
    }

    fn ctx_node_slow(&mut self, at: InstrId, kind: NodeKind, g: u64) -> NodeId {
        let slot = slot_of(g, self.ctx.config.slots);
        if self.ctx.config.track_conflicts {
            self.conflicts.record(at, slot, g);
        }
        let n = self.intern(at, CostElem::Ctx(slot), kind);
        self.graph.bump(n);
        if self.ctx.config.control_edges {
            if let Some(branches) = self.ctx.control_deps.get(&at) {
                for b in branches.clone() {
                    let pnode = self.intern(b, CostElem::NoCtx, NodeKind::Predicate);
                    self.graph.add_edge(pnode, n);
                }
            }
        }
        n
    }

    fn consumer_node(&mut self, at: InstrId, kind: NodeKind) -> NodeId {
        let n = self.intern(at, CostElem::NoCtx, kind);
        self.graph.bump(n);
        n
    }

    fn set_effect(&mut self, n: NodeId, eff: HeapEffect) {
        let i = n.index();
        if self.effects.len() <= i {
            self.effects.resize(i + 1, None);
        }
        self.effects[i] = Some(eff);
    }

    fn edge_from(&mut self, src: Sym, to: NodeId) {
        match src {
            Sym::None => {}
            Sym::Node(m) => self.graph.add_edge(m, to),
            Sym::Init(loc) => self.ext_edges.push((loc, to)),
        }
    }

    fn store_common(
        &mut self,
        n: NodeId,
        object: ObjectId,
        field: FieldKey,
        value: lowutil_ir::Value,
    ) {
        if let Some(tag) = self.tag_of(object) {
            self.set_effect(n, HeapEffect::Store { site: tag, field });
            match self.alloc_nodes.get(&tag) {
                Some(&alloc) => {
                    self.ref_edges.insert((n, alloc));
                }
                None => self.ext_ref_edges.push((n, tag)),
            }
            if let Some(target) = value.as_ref_id() {
                if let Some(tag2) = self.tag_of(target) {
                    self.points_to.entry((tag, field)).or_default().insert(tag2);
                }
            }
        }
    }

    fn finish(self) -> ShardGraph {
        self.finish_parts().0
    }

    /// Finalizes the shard and returns the reset scratch for reuse.
    fn finish_parts(mut self) -> (ShardGraph, ShardScratch) {
        self.scratch.reset();
        let mut final_locs: Vec<(Loc, Sym)> = Vec::new();
        for f in &self.frames {
            for (&l, &s) in &f.vals {
                final_locs.push((
                    Loc::Local {
                        frame: f.gid,
                        local: l,
                    },
                    s,
                ));
            }
        }
        for (&o, so) in &self.heap {
            for (&slot, &s) in &so.vals {
                final_locs.push((Loc::Heap { object: o, slot }, s));
            }
        }
        for (&f, &s) in &self.statics {
            final_locs.push((Loc::Static(f), s));
        }
        // Cross-thread hand-offs: spawn stashes and this thread's
        // return value (keys are globally unique — thread ids are never
        // reused — so ordering among them is immaterial).
        final_locs.append(&mut self.spawn_out);
        if let Some(s) = self.thread_ret.take() {
            final_locs.push((Loc::ThreadRet(self.thread.0), s));
        }
        let graph = ShardGraph {
            thread: self.thread,
            graph: self.graph,
            ext_edges: self.ext_edges,
            final_locs,
            final_args: self.pending_args,
            ref_edges: self.ref_edges,
            ext_ref_edges: self.ext_ref_edges,
            ext_len_edges: self.ext_len_edges,
            effects: self.effects,
            alloc_nodes: self.alloc_nodes,
            points_to: self.points_to,
            conflicts: self.conflicts,
            instr_instances: self.instr_instances,
            heap_touch: self.heap_touch,
        };
        (graph, self.scratch)
    }
}

impl EventSink for ShardBuilder<'_> {
    fn event(&mut self, event: &Event) {
        if let Event::Phase { begin, .. } = event {
            if self.ctx.config.phase_limited {
                self.armed = *begin;
            }
            return;
        }
        if !self.armed {
            match event {
                Event::Call { .. } => self.pending_args = Some(Vec::new()),
                Event::Return { .. } => self.ret_stash = Sym::None,
                _ => {}
            }
            return;
        }
        if !matches!(event, Event::CallComplete { .. }) {
            self.instr_instances += 1;
        }
        match event {
            Event::Compute { at, dst, uses, .. } => {
                let n = self.ctx_node(*at, NodeKind::Plain);
                for u in uses.iter().flatten() {
                    let s = self.read_local(*u);
                    self.edge_from(s, n);
                }
                self.write_local(*dst, Sym::Node(n));
            }
            Event::Predicate { at, uses, .. } => {
                let n = self.consumer_node(*at, NodeKind::Predicate);
                for u in uses {
                    let s = self.read_local(*u);
                    self.edge_from(s, n);
                }
            }
            Event::Alloc {
                at,
                dst,
                object,
                site,
                len_use,
            } => {
                let n = self.ctx_node(*at, NodeKind::Alloc);
                if let Some(l) = len_use {
                    let s = self.read_local(*l);
                    self.edge_from(s, n);
                }
                self.write_local(*dst, Sym::Node(n));
                let slot = slot_of(self.current_g(), self.ctx.config.slots);
                let tag = TaggedSite { site: *site, slot };
                self.heap.insert(
                    *object,
                    SymObj {
                        in_shard: true,
                        vals: FxHashMap::default(),
                    },
                );
                self.heap_touch.entry(*object).or_insert(0);
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
                let n = self.ctx_node(*at, NodeKind::HeapLoad);
                let src = self.heap_read(*object, *offset);
                self.edge_from(src, n);
                if self.ctx.config.traditional_uses {
                    let b = self.read_local(*base);
                    self.edge_from(b, n);
                }
                self.write_local(*dst, Sym::Node(n));
                if let Some(tag) = self.tag_of(*object) {
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
                let n = self.ctx_node(*at, NodeKind::HeapStore);
                let s = self.read_local(*src);
                self.edge_from(s, n);
                if self.ctx.config.traditional_uses {
                    let b = self.read_local(*base);
                    self.edge_from(b, n);
                }
                self.heap_write(*object, *offset, Sym::Node(n));
                self.store_common(n, *object, FieldKey::Field(*field), *value);
            }
            Event::LoadStatic { at, dst, field, .. } => {
                let n = self.ctx_node(*at, NodeKind::HeapLoad);
                let src = self.static_read(*field);
                self.edge_from(src, n);
                self.write_local(*dst, Sym::Node(n));
                self.set_effect(n, HeapEffect::LoadStatic(*field));
            }
            Event::StoreStatic { at, field, src, .. } => {
                let n = self.ctx_node(*at, NodeKind::HeapStore);
                let s = self.read_local(*src);
                self.edge_from(s, n);
                self.statics.insert(field.0, Sym::Node(n));
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
                let n = self.ctx_node(*at, NodeKind::HeapLoad);
                let i = self.read_local(*idx);
                self.edge_from(i, n);
                if self.ctx.config.traditional_uses {
                    let b = self.read_local(*base);
                    self.edge_from(b, n);
                }
                let src = self.heap_read(*object, *index);
                self.edge_from(src, n);
                self.write_local(*dst, Sym::Node(n));
                if let Some(tag) = self.tag_of(*object) {
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
                let n = self.ctx_node(*at, NodeKind::HeapStore);
                let i = self.read_local(*idx);
                self.edge_from(i, n);
                if self.ctx.config.traditional_uses {
                    let b = self.read_local(*base);
                    self.edge_from(b, n);
                }
                let s = self.read_local(*src);
                self.edge_from(s, n);
                self.heap_write(*object, *index, Sym::Node(n));
                self.store_common(n, *object, FieldKey::Element, *value);
            }
            Event::ArrayLen {
                at,
                dst,
                base,
                object,
                ..
            } => {
                let n = self.ctx_node(*at, NodeKind::HeapLoad);
                if self.ctx.config.traditional_uses {
                    let b = self.read_local(*base);
                    self.edge_from(b, n);
                }
                // The length was produced by the allocation.
                if let Some(tag) = self.tag_of(*object) {
                    match self.alloc_nodes.get(&tag) {
                        Some(&alloc) => self.graph.add_edge(alloc, n),
                        None => self.ext_len_edges.push((tag, n)),
                    }
                    self.set_effect(
                        n,
                        HeapEffect::Load {
                            site: tag,
                            field: FieldKey::Length,
                        },
                    );
                }
                self.write_local(*dst, Sym::Node(n));
            }
            Event::Call { args, .. } => {
                let syms: Vec<Sym> = args.iter().map(|a| self.read_local(*a)).collect();
                self.pending_args = Some(syms);
            }
            Event::Return { src, .. } => {
                self.ret_stash = match src {
                    Some(s) => self.read_local(*s),
                    None => Sym::None,
                };
            }
            Event::CallComplete { dst, .. } => {
                let stash = std::mem::replace(&mut self.ret_stash, Sym::None);
                if let Some(d) = dst {
                    self.write_local(*d, stash);
                }
            }
            Event::Native { at, args, dst, .. } => {
                let n = self.consumer_node(*at, NodeKind::Native);
                for a in args {
                    let s = self.read_local(*a);
                    self.edge_from(s, n);
                }
                if let Some(d) = dst {
                    self.write_local(*d, Sym::Node(n));
                }
            }
            Event::Spawn {
                at,
                dst,
                thread,
                args,
                ..
            } => {
                // Mirrors the live builder: the handle is a fresh value;
                // the actuals are stashed for the child thread's root
                // frame, which lives in another (later) segment.
                let n = self.ctx_node(*at, NodeKind::Plain);
                for (i, a) in args.iter().enumerate() {
                    let s = self.read_local(*a);
                    self.spawn_out.push((
                        Loc::SpawnArg {
                            thread: thread.0,
                            i: i as u16,
                        },
                        s,
                    ));
                }
                self.write_local(*dst, Sym::Node(n));
            }
            Event::Join {
                at, dst, thread, ..
            } => {
                // The child finished (and wrote its ThreadRet) in an
                // earlier segment — always an external read.
                let n = self.ctx_node(*at, NodeKind::Plain);
                self.edge_from(Sym::Init(Loc::ThreadRet(thread.0)), n);
                if let Some(d) = dst {
                    self.write_local(*d, Sym::Node(n));
                }
            }
            Event::Jump { .. } => {}
            Event::Phase { .. } => unreachable!("handled above"),
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        let parent = self.current_g();
        let site = info.receiver.and_then(|o| self.tag_of(o)).map(|t| t.site);
        let g = match site {
            Some(site) => extend_context(parent, site),
            None => parent,
        };
        let root = self.frames.is_empty();
        self.contexts.push(g);
        let mut vals = FxHashMap::default();
        for i in 0..info.num_args {
            let s = match &self.pending_args {
                // Root push: the formals are the actuals a `Spawn` in an
                // earlier segment stashed for this thread (none were
                // stashed for main's entry frame, which has no actuals).
                None if root => Sym::Init(Loc::SpawnArg {
                    thread: self.thread.0,
                    i,
                }),
                // Boundary push: the actuals were read by the `Call`
                // event at the end of the previous segment.
                None => Sym::Init(Loc::Arg(i)),
                Some(v) => v.get(i as usize).copied().unwrap_or(Sym::None),
            };
            vals.insert(i, s);
        }
        self.frames.push(SymFrame {
            gid: self.next_gid,
            outer: false,
            vals,
        });
        self.next_gid += 1;
        self.pending_args = Some(Vec::new());
    }

    fn frame_pop(&mut self) {
        self.frames.pop();
        self.contexts.pop();
        if self.frames.is_empty() {
            // Root pop: the thread finished; its return value becomes
            // visible to `Join`s in later segments.
            self.thread_ret = Some(std::mem::replace(&mut self.ret_stash, Sym::None));
        }
    }
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

fn resolve(
    sym: Sym,
    remap: &[NodeId],
    locs: &FxHashMap<Loc, Option<NodeId>>,
    args: &[Option<NodeId>],
) -> Option<NodeId> {
    match sym {
        Sym::None => None,
        Sym::Node(n) => Some(remap[n.index()]),
        Sym::Init(Loc::Arg(i)) => args.get(usize::from(i)).copied().flatten(),
        Sym::Init(loc) => locs.get(&loc).copied().flatten(),
    }
}

/// `args` is the owning thread's pending-argument stash — pending
/// arguments are thread-local, so the caller selects the slice by the
/// shard's thread.
fn lookup_loc(
    loc: Loc,
    locs: &FxHashMap<Loc, Option<NodeId>>,
    args: &[Option<NodeId>],
) -> Option<NodeId> {
    match loc {
        Loc::Arg(i) => args.get(usize::from(i)).copied().flatten(),
        _ => locs.get(&loc).copied().flatten(),
    }
}

/// Merges shard graphs (in segment order) into the final [`CostGraph`].
///
/// Nodes unite by their abstract key `(InstrId, CostElem)`: frequencies
/// sum, edges union, effects apply last-writer-wins in time order, and
/// each shard's external reads resolve against the accumulated
/// final-writes of all earlier shards. The result is identical to a
/// sequential build over the concatenated event stream.
pub fn merge_shards(shards: Vec<ShardGraph>) -> CostGraph {
    let mut merged: DepGraph<CostElem> = DepGraph::new();
    let mut effects: Vec<Option<HeapEffect>> = Vec::new();
    let mut ref_edges: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    let mut alloc_nodes: FxHashMap<TaggedSite, NodeId> = FxHashMap::default();
    let mut points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>> =
        FxHashMap::default();
    let mut conflicts = ConflictStats::new();
    let mut instr_instances = 0u64;
    // Cumulative cross-shard shadow state: location → defining node.
    let mut locs: FxHashMap<Loc, Option<NodeId>> = FxHashMap::default();
    // Pending call arguments are thread-local: segments of other threads
    // interleave between a boundary `Call` and its `frame_push`, and
    // their calls must not clobber this thread's stash.
    let mut args_by_thread: FxHashMap<u32, Vec<Option<NodeId>>> = FxHashMap::default();
    let mut touched: FxHashMap<ObjectId, u32> = FxHashMap::default();

    for shard in shards {
        let args: Vec<Option<NodeId>> = args_by_thread
            .get(&shard.thread.0)
            .cloned()
            .unwrap_or_default();
        // 1. Intern this shard's nodes; frequencies of shared abstract
        //    nodes sum.
        let remap: Vec<NodeId> = shard
            .graph
            .iter()
            .map(|(_, n)| {
                let m = merged.intern(n.instr, n.elem, n.kind);
                merged.add_freq(m, n.freq);
                m
            })
            .collect();
        // 2. In-shard edges.
        for id in shard.graph.node_ids() {
            for &s in shard.graph.succs(id) {
                merged.add_edge(remap[id.index()], remap[s.index()]);
            }
        }
        // 3. External def-use edges resolve against pre-shard state.
        for &(loc, n) in &shard.ext_edges {
            if let Some(src) = lookup_loc(loc, &locs, &args) {
                merged.add_edge(src, remap[n.index()]);
            }
        }
        // 4. Reference and length edges.
        for (s, a) in shard.ref_edges {
            ref_edges.insert((remap[s.index()], remap[a.index()]));
        }
        for (n, tag) in shard.ext_ref_edges {
            if let Some(&alloc) = alloc_nodes.get(&tag) {
                ref_edges.insert((remap[n.index()], alloc));
            }
        }
        for (tag, n) in shard.ext_len_edges {
            if let Some(&alloc) = alloc_nodes.get(&tag) {
                merged.add_edge(alloc, remap[n.index()]);
            }
        }
        // 5. Allocation nodes become visible to later shards.
        for (tag, n) in shard.alloc_nodes {
            alloc_nodes.insert(tag, remap[n.index()]);
        }
        // 6. Effects: last Some in time order wins, exactly like the
        //    live profiler's overwriting `set_effect`.
        for (i, eff) in shard.effects.iter().enumerate() {
            if let Some(e) = eff {
                let m = remap[i];
                if effects.len() <= m.index() {
                    effects.resize(m.index() + 1, None);
                }
                effects[m.index()] = Some(*e);
            }
        }
        // 7. Order-insensitive unions.
        for (k, v) in shard.points_to {
            points_to.entry(k).or_default().extend(v);
        }
        conflicts.merge(shard.conflicts);
        instr_instances += shard.instr_instances;
        for (o, slots) in shard.heap_touch {
            let t = touched.entry(o).or_insert(0);
            *t = (*t).max(slots);
        }
        // 8. Advance the cumulative shadow state: resolve this shard's
        //    final writes against the *pre-shard* state, then apply.
        let updates: Vec<(Loc, Option<NodeId>)> = shard
            .final_locs
            .iter()
            .map(|&(loc, sym)| (loc, resolve(sym, &remap, &locs, &args)))
            .collect();
        let new_args = shard.final_args.map(|fa| {
            fa.iter()
                .map(|&s| resolve(s, &remap, &locs, &args))
                .collect()
        });
        for (loc, v) in updates {
            locs.insert(loc, v);
        }
        if let Some(a) = new_args {
            args_by_thread.insert(shard.thread.0, a);
        }
    }

    // Reproduce `ShadowHeap::approx_bytes` from the touch records: per
    // tracked object its slot-vector length, plus one tag per index up
    // to the highest tracked object.
    let slot_sz = std::mem::size_of::<Option<NodeId>>();
    let tag_sz = std::mem::size_of::<Option<TaggedSite>>();
    let max_idx = touched.keys().map(|o| o.index()).max();
    let shadow_heap_bytes = touched.values().map(|&l| l as usize).sum::<usize>() * slot_sz
        + max_idx.map_or(0, |m| (m + 1) * tag_sz);

    CostGraph::assemble(
        merged,
        ref_edges,
        effects,
        alloc_nodes,
        points_to,
        conflicts,
        instr_instances,
        shadow_heap_bytes,
    )
}

/// Builds the object table and every shard sequentially, then merges —
/// the single-threaded reference for the pipelined profiler's sharded
/// construction, and the easiest way to replay shard-style in tests.
///
/// The object table comes from one in-order [`ObjectTableScan`] over the
/// whole trace, each segment announcing its owning thread first exactly
/// as [`replay_segments`] does.
///
/// # Errors
/// Fails on a malformed trace.
pub fn sharded_replay_sequential(
    program: &Program,
    config: CostGraphConfig,
    reader: &TraceReader<'_>,
) -> Result<CostGraph, TraceError> {
    let ctx = ShardContext::new(program, config);
    let mut scan = ObjectTableScan::new(config.phase_limited);
    for seg in reader.segments() {
        scan.thread(seg.prologue().thread);
        seg.replay(&mut scan)?;
    }
    let shards: Vec<_> = reader
        .segments()
        .iter()
        .map(|s| build_shard(&ctx, scan.table(), s))
        .collect::<Result<_, _>>()?;
    Ok(merge_shards(shards))
}

// ---------------------------------------------------------------------------
// cross-session aggregation
// ---------------------------------------------------------------------------

/// A node's abstract identity — the key that makes shard union (and any
/// other merge) order-independent.
pub type AbstractNode = (InstrId, CostElem);

/// What one [`Aggregate::absorb`] actually changed, in abstract-node
/// terms — the contract between the aggregate and every incremental
/// consumer ([`crate::incr::IncrementalCsr`], the serve daemon's live
/// analyzer state). Callers that rebuilt the world from scratch can
/// instead patch exactly these entries.
///
/// Entries appear in absorption order of the session graph, which is
/// deterministic for a given session but *not* canonical; consumers
/// sort by canonical key where order matters.
#[derive(Debug, Default, Clone)]
pub struct AbsorbDelta {
    /// Frequency increments on nodes that already existed (zero
    /// increments are omitted).
    pub freq_adds: Vec<(AbstractNode, u64)>,
    /// Nodes this session introduced, with their kind and this
    /// session's frequency contribution.
    pub new_nodes: Vec<(AbstractNode, NodeKind, u64)>,
    /// Dependence edges not previously in the aggregate.
    pub new_edges: Vec<(AbstractNode, AbstractNode)>,
    /// Reference edges not previously in the aggregate.
    pub new_ref_edges: Vec<(AbstractNode, AbstractNode)>,
    /// Effects that were newly recorded or lowered by the rank-min
    /// merge (the final winning effect is stored).
    pub effects_set: Vec<(AbstractNode, HeapEffect)>,
    /// Points-to targets not previously observed for their key.
    pub new_points_to: Vec<((TaggedSite, FieldKey), TaggedSite)>,
    /// Increment to the aggregate's `instr_instances`.
    pub instr_instances: u64,
    /// Increment to the aggregate's `shadow_heap_bytes`.
    pub shadow_heap_bytes: usize,
    /// The session's executed-instruction total.
    pub instructions: u64,
}

impl AbsorbDelta {
    /// True when the absorb only bumped frequencies and scalar totals:
    /// no new nodes, edges, effects, or points-to facts. The common
    /// steady-state case for a long-lived tenant — every structure the
    /// workload can build has been seen, sessions only re-weigh it.
    pub fn is_freq_only(&self) -> bool {
        self.new_nodes.is_empty()
            && self.new_edges.is_empty()
            && self.new_ref_edges.is_empty()
            && self.effects_set.is_empty()
            && self.new_points_to.is_empty()
    }
}

/// A deterministic total order over heap effects, used when sessions
/// disagree about a node's effect. Within one trace, "last write wins"
/// reproduces the live profiler; across *concurrent sessions* there is
/// no meaningful "last", so the aggregate keeps the rank-minimal effect
/// instead — any fixed total order works, it only has to be the same
/// regardless of arrival interleaving. The rank mirrors the snapshot
/// store's record encoding `(tag, site, slot, field)`.
fn effect_rank(e: &HeapEffect) -> (u8, u32, u32, u32) {
    let field_rank = |f: &FieldKey| match f {
        FieldKey::Field(id) => id.0,
        FieldKey::Element => u32::MAX,
        FieldKey::Length => u32::MAX - 1,
    };
    match e {
        HeapEffect::Alloc { site } => (0, site.site.0, site.slot, 0),
        HeapEffect::Load { site, field } => (1, site.site.0, site.slot, field_rank(field)),
        HeapEffect::Store { site, field } => (2, site.site.0, site.slot, field_rank(field)),
        HeapEffect::LoadStatic(s) => (3, s.0, 0, 0),
        HeapEffect::StoreStatic(s) => (4, s.0, 0, 0),
    }
}

/// A commutative cross-session merge target: the per-tenant aggregate a
/// profiling service grows as completed sessions arrive.
///
/// Where [`merge_shards`] stitches the *segments of one trace* back
/// together (and needs their exact order to resolve cross-segment shadow
/// state), `Aggregate` combines *finished graphs of independent runs* of
/// the same program. Everything it keeps is keyed by abstract identity —
/// `(InstrId, CostElem)` nodes, abstract edge pairs, tagged sites — so
/// absorption is order-independent: any arrival interleaving of the same
/// session set produces a [`CostGraph`] with identical canonical bytes.
///
/// Absorbing a graph that is itself the aggregate of earlier sessions
/// (a reloaded snapshot) re-derives the same accumulators as absorbing
/// those sessions one by one: frequencies and instance counts sum, sets
/// union, and the effect order is associative. That is what makes
/// restart-from-snapshot sound: `agg(snapshot(agg(S1..Sk)), Sk+1..)`
/// hashes identically to `agg(S1..Sn)`.
///
/// Conflict statistics are merged while the aggregate lives in memory
/// but are not part of the canonical export, so they reset on restart
/// without affecting any content hash.
#[derive(Debug, Default)]
pub struct Aggregate {
    nodes: FxHashMap<AbstractNode, (NodeKind, u64)>,
    edges: FxHashSet<(AbstractNode, AbstractNode)>,
    ref_edges: FxHashSet<(AbstractNode, AbstractNode)>,
    effects: FxHashMap<AbstractNode, HeapEffect>,
    points_to: FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>>,
    conflicts: ConflictStats,
    instr_instances: u64,
    shadow_heap_bytes: usize,
    total_instructions: u64,
    sessions: u64,
}

impl Aggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// True until the first absorption.
    pub fn is_empty(&self) -> bool {
        self.sessions == 0
    }

    /// How many graphs have been absorbed.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Summed `instructions_executed` across absorbed sessions — the
    /// denominator for dead-value percentages over the aggregate.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Folds one session's finished graph (or a reloaded aggregate
    /// snapshot) into the accumulators. `instructions` is the session's
    /// executed-instruction total (a snapshot's `total_instructions`).
    ///
    /// Returns the [`AbsorbDelta`] describing exactly what changed, so
    /// incremental consumers patch rather than re-derive. The aggregate
    /// state after this call is identical whether or not the delta is
    /// used — callers that rebuild from scratch may simply drop it.
    pub fn absorb(&mut self, g: &CostGraph, instructions: u64) -> AbsorbDelta {
        use std::collections::hash_map::Entry;
        let mut delta = AbsorbDelta {
            instr_instances: g.instr_instances(),
            shadow_heap_bytes: g.shadow_heap_bytes(),
            instructions,
            ..AbsorbDelta::default()
        };
        let dep = g.graph();
        let key = |id: NodeId| {
            let n = dep.node(id);
            (n.instr, n.elem)
        };
        for (id, n) in dep.iter() {
            let k = (n.instr, n.elem);
            match self.nodes.entry(k) {
                Entry::Occupied(mut e) => {
                    debug_assert_eq!(
                        e.get().0,
                        n.kind,
                        "node kind is a function of the instruction"
                    );
                    e.get_mut().1 += n.freq;
                    if n.freq > 0 {
                        delta.freq_adds.push((k, n.freq));
                    }
                }
                Entry::Vacant(e) => {
                    e.insert((n.kind, n.freq));
                    delta.new_nodes.push((k, n.kind, n.freq));
                }
            }
            if let Some(eff) = g.effect(id) {
                match self.effects.entry(k) {
                    Entry::Occupied(mut e) => {
                        if effect_rank(eff) < effect_rank(e.get()) {
                            *e.get_mut() = *eff;
                            delta.effects_set.push((k, *eff));
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(*eff);
                        delta.effects_set.push((k, *eff));
                    }
                }
            }
        }
        for id in dep.node_ids() {
            for &s in dep.succs(id) {
                let e = (key(id), key(s));
                if self.edges.insert(e) {
                    delta.new_edges.push(e);
                }
            }
        }
        for (a, b) in g.ref_edges() {
            let e = (key(a), key(b));
            if self.ref_edges.insert(e) {
                delta.new_ref_edges.push(e);
            }
        }
        for (k, v) in g.points_to_raw() {
            let set = self.points_to.entry(*k).or_default();
            for &t in v {
                if set.insert(t) {
                    delta.new_points_to.push((*k, t));
                }
            }
        }
        self.conflicts.merge_from(g.conflicts());
        self.instr_instances += g.instr_instances();
        self.shadow_heap_bytes += g.shadow_heap_bytes();
        self.total_instructions += instructions;
        self.sessions += 1;
        delta
    }

    /// Number of abstract nodes accumulated so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Summed instruction instances across absorbed sessions.
    pub fn instr_instances(&self) -> u64 {
        self.instr_instances
    }

    /// Summed end-of-run shadow-heap bytes across absorbed sessions.
    pub fn shadow_heap_bytes(&self) -> usize {
        self.shadow_heap_bytes
    }

    /// The raw node accumulator, for incremental consumers.
    pub(crate) fn nodes_map(&self) -> &FxHashMap<AbstractNode, (NodeKind, u64)> {
        &self.nodes
    }

    /// The raw edge accumulator, for incremental consumers.
    pub(crate) fn edges_set(&self) -> &FxHashSet<(AbstractNode, AbstractNode)> {
        &self.edges
    }

    /// The raw reference-edge accumulator, for incremental consumers.
    pub(crate) fn ref_edges_set(&self) -> &FxHashSet<(AbstractNode, AbstractNode)> {
        &self.ref_edges
    }

    /// The raw effect accumulator, for incremental consumers.
    pub(crate) fn effects_map(&self) -> &FxHashMap<AbstractNode, HeapEffect> {
        &self.effects
    }

    /// The raw points-to accumulator, for incremental consumers.
    pub(crate) fn points_to_map(
        &self,
    ) -> &FxHashMap<(TaggedSite, FieldKey), FxHashSet<TaggedSite>> {
        &self.points_to
    }

    /// Materializes the aggregate as a [`CostGraph`], interning nodes in
    /// canonical `(method, pc, elem)` order and inserting edges sorted,
    /// so equal accumulator contents produce equal graphs however they
    /// were reached.
    pub fn to_cost_graph(&self) -> CostGraph {
        let mut order: Vec<AbstractNode> = self.nodes.keys().copied().collect();
        order.sort_unstable_by_key(|&(instr, elem)| {
            (instr.method.0, instr.pc, crate::export::elem_rank(elem))
        });
        let mut graph: DepGraph<CostElem> = DepGraph::new();
        let mut ids: FxHashMap<AbstractNode, NodeId> = FxHashMap::default();
        for &k in &order {
            let (kind, freq) = self.nodes[&k];
            let id = graph.intern(k.0, k.1, kind);
            graph.add_freq(id, freq);
            ids.insert(k, id);
        }
        let mut edges: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .map(|&(a, b)| (ids[&a], ids[&b]))
            .collect();
        edges.sort_unstable();
        for (a, b) in edges {
            graph.add_edge(a, b);
        }
        let ref_edges: FxHashSet<(NodeId, NodeId)> = self
            .ref_edges
            .iter()
            .map(|&(a, b)| (ids[&a], ids[&b]))
            .collect();
        let mut effects: Vec<Option<HeapEffect>> = vec![None; graph.num_nodes()];
        let mut alloc_nodes: FxHashMap<TaggedSite, NodeId> = FxHashMap::default();
        for (k, eff) in &self.effects {
            let id = ids[k];
            effects[id.index()] = Some(*eff);
            if let HeapEffect::Alloc { site } = eff {
                alloc_nodes.insert(*site, id);
            }
        }
        CostGraph::assemble(
            graph,
            ref_edges,
            effects,
            alloc_nodes,
            self.points_to.clone(),
            self.conflicts.clone(),
            self.instr_instances,
            self.shadow_heap_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::write_cost_graph;
    use crate::gcost::GraphBuilder;
    use lowutil_ir::parse_program;
    use lowutil_vm::trace::TraceWriter;
    use lowutil_vm::{SinkTracer, Vm};

    /// Serializes canonically for byte comparison.
    fn bytes_of(g: &CostGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_cost_graph(g, &mut buf).unwrap();
        buf
    }

    /// Runs live (profiling + recording simultaneously), then checks the
    /// sequential replay and the sharded replay against the live graph,
    /// byte for byte, at the given segment limit.
    fn assert_identity(src: &str, config: CostGraphConfig, limit: usize) -> usize {
        let p = parse_program(src).expect("parse");
        let mut builder = GraphBuilder::new(&p, config);
        let mut writer = TraceWriter::with_segment_limit(Vec::new(), limit);
        {
            let mut tracer = SinkTracer((&mut builder, &mut writer));
            Vm::new(&p).run(&mut tracer).expect("program runs");
        }
        let live = bytes_of(&builder.finish());
        let (trace, _) = writer.finish().unwrap();

        let reader = TraceReader::new(&trace).expect("trace parses");
        let seq = bytes_of(&replay_cost_graph(&p, config, &reader).unwrap());
        assert_eq!(
            String::from_utf8_lossy(&live),
            String::from_utf8_lossy(&seq),
            "sequential replay != live"
        );
        let sharded = bytes_of(&sharded_replay_sequential(&p, config, &reader).unwrap());
        assert_eq!(
            String::from_utf8_lossy(&live),
            String::from_utf8_lossy(&sharded),
            "sharded replay != live"
        );
        reader.segments().len()
    }

    const CROSS_SEGMENT_SRC: &str = r#"
native print/1
class A { f }
class Box { v }
method main/0 {
  x = 1
  a1 = new A
  a1.f = x
  a2 = new A
  a2.f = x
  i = 0
  one = 1
  lim = 6
loop:
  if i >= lim goto done
  r1 = vcall get(a1)
  r2 = vcall get(a2)
  b = new Box
  b.v = r1
  t = b.v
  s = call sum(r1, t)
  i = i + one
  goto loop
done:
  native print(s)
  return
}
method A.get/0 {
  r = this.f
  return r
}
method sum/2 {
  r = p0 + p1
  return r
}
"#;

    #[test]
    fn sharded_build_matches_live_across_segment_limits() {
        for limit in [2, 5, 16, 4096] {
            let segs = assert_identity(CROSS_SEGMENT_SRC, CostGraphConfig::default(), limit);
            if limit == 2 {
                assert!(segs > 4, "tiny limit must produce many segments");
            }
        }
    }

    #[test]
    fn sharded_build_matches_live_with_ablation_configs() {
        for config in [
            CostGraphConfig {
                slots: 8,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                traditional_uses: true,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                control_edges: true,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                dense_interning: false,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                track_conflicts: false,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                inline_caches: false,
                ..CostGraphConfig::default()
            },
        ] {
            assert_identity(CROSS_SEGMENT_SRC, config, 3);
        }
    }

    /// A race-free fork-join program with cross-thread flow in every
    /// direction trace v3 can express: spawn arguments (the box refs),
    /// heap hand-off (children write, main reads after join), and
    /// thread return values.
    const THREADED_SRC: &str = r#"
native print/1
class Box { v }
method main/0 {
  b1 = new Box
  b2 = new Box
  t1 = spawn fill(b1)
  t2 = spawn fill(b2)
  r1 = join t1
  r2 = join t2
  x = b1.v
  y = b2.v
  s1 = x + y
  s2 = r1 + r2
  s = s1 + s2
  native print(s)
  return
}
method fill/1 {
  i = 0
  one = 1
  lim = 9
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

    /// Live-profiles + records under one scheduler seed, then checks
    /// sequential replay and sharded replay against the live graph byte
    /// for byte. Returns the live bytes for cross-seed comparison.
    fn threaded_identity(config: CostGraphConfig, limit: usize, sched_seed: u64) -> Vec<u8> {
        let p = parse_program(THREADED_SRC).expect("parse");
        let mut builder = GraphBuilder::new(&p, config);
        let mut writer = TraceWriter::with_segment_limit(Vec::new(), limit);
        {
            let mut tracer = SinkTracer((&mut builder, &mut writer));
            let rc = lowutil_vm::RunConfig {
                sched_seed,
                ..lowutil_vm::RunConfig::default()
            };
            lowutil_vm::Vm::with_config(&p, rc)
                .run(&mut tracer)
                .expect("program runs");
        }
        let live = bytes_of(&builder.finish());
        let (trace, _) = writer.finish().unwrap();
        let reader = TraceReader::new(&trace).expect("trace parses");
        let seq = bytes_of(&replay_cost_graph(&p, config, &reader).unwrap());
        assert_eq!(
            String::from_utf8_lossy(&live),
            String::from_utf8_lossy(&seq),
            "sequential replay != live (limit {limit}, seed {sched_seed})"
        );
        let sharded = bytes_of(&sharded_replay_sequential(&p, config, &reader).unwrap());
        assert_eq!(
            String::from_utf8_lossy(&live),
            String::from_utf8_lossy(&sharded),
            "sharded replay != live (limit {limit}, seed {sched_seed})"
        );
        live
    }

    #[test]
    fn multithreaded_sharded_build_matches_live_across_limits() {
        for limit in [2, 7, 64, 4096] {
            threaded_identity(CostGraphConfig::default(), limit, 0);
        }
    }

    #[test]
    fn multithreaded_graphs_are_schedule_independent() {
        // Same canonical bytes whatever interleaving the scheduler
        // picks, and whatever segment size the writer splits at.
        let reference = threaded_identity(CostGraphConfig::default(), 5, 0);
        for seed in [1, 7, 0xDEAD_BEEF] {
            for limit in [3, 4096] {
                let b = threaded_identity(CostGraphConfig::default(), limit, seed);
                assert_eq!(
                    String::from_utf8_lossy(&reference),
                    String::from_utf8_lossy(&b),
                    "seed {seed} limit {limit} changed the canonical graph"
                );
            }
        }
    }

    #[test]
    fn multithreaded_sharded_build_matches_live_with_ablations() {
        for config in [
            CostGraphConfig {
                slots: 8,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                traditional_uses: true,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                control_edges: true,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                dense_interning: false,
                ..CostGraphConfig::default()
            },
            CostGraphConfig {
                inline_caches: false,
                ..CostGraphConfig::default()
            },
        ] {
            threaded_identity(config, 4, 3);
        }
    }

    #[test]
    fn sharded_build_matches_live_under_phase_limiting() {
        let src = r#"
native phase_begin/0
native phase_end/0
native print/1
class Box { v }
method main/0 {
  warm = 10
  b = new Box
  b.v = warm
  native phase_begin()
  x = 1
  c = new Box
  c.v = x
  y = c.v
  z = call double(y)
  native phase_end()
  dead = 5
  native phase_begin()
  w = call double(z)
  native phase_end()
  native print(w)
  return
}
method double/1 {
  r = p0 + p0
  return r
}
"#;
        let config = CostGraphConfig {
            phase_limited: true,
            ..CostGraphConfig::default()
        };
        for limit in [1, 2, 64] {
            assert_identity(src, config, limit);
        }
    }
    /// Records one trace of `CROSS_SEGMENT_SRC` and derives three
    /// distinct "sessions" of the same program from it: the full run
    /// plus two salvaged prefixes of different lengths.
    fn session_graphs() -> Vec<(CostGraph, u64)> {
        let p = parse_program(CROSS_SEGMENT_SRC).expect("parse");
        let config = CostGraphConfig::default();
        let writer = TraceWriter::with_segment_limit(Vec::new(), 2);
        let mut t = SinkTracer(writer);
        Vm::new(&p).run(&mut t).expect("program runs");
        let (trace, _) = t.0.finish().unwrap();

        let mut sessions = Vec::new();
        let full = TraceReader::new(&trace).expect("trace parses");
        sessions.push((
            replay_cost_graph(&p, config, &full).unwrap(),
            full.trailer().instructions,
        ));
        for cut in [trace.len() * 2 / 5, trace.len() * 4 / 5] {
            let (reader, _) = TraceReader::salvage(&trace[..cut]).expect("header intact");
            assert!(reader.segments().len() > 1, "cut {cut} keeps a real prefix");
            sessions.push((
                replay_cost_graph(&p, config, &reader).unwrap(),
                reader.trailer().instructions,
            ));
        }
        // The three sessions are genuinely different graphs.
        let bytes: Vec<_> = sessions.iter().map(|(g, _)| bytes_of(g)).collect();
        assert!(bytes[0] != bytes[1] && bytes[1] != bytes[2] && bytes[0] != bytes[2]);
        sessions
    }

    /// An aggregate of one session is that session's graph, byte for
    /// byte — absorption loses nothing.
    #[test]
    fn aggregate_of_one_session_reproduces_its_graph() {
        for (g, instructions) in session_graphs() {
            let mut agg = Aggregate::new();
            assert!(agg.is_empty());
            agg.absorb(&g, instructions);
            assert_eq!(agg.sessions(), 1);
            assert_eq!(agg.total_instructions(), instructions);
            assert_eq!(bytes_of(&agg.to_cost_graph()), bytes_of(&g));
        }
    }

    /// Absorbing the same session set in every arrival order produces
    /// identical canonical bytes — the property that lets a concurrent
    /// ingest daemon match an offline sequential merge.
    #[test]
    fn aggregate_absorb_is_order_independent() {
        let sessions = session_graphs();
        let mut exports: Vec<Vec<u8>> = Vec::new();
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut agg = Aggregate::new();
            for &i in &perm {
                let (g, instructions) = &sessions[i];
                agg.absorb(g, *instructions);
            }
            assert_eq!(agg.sessions(), 3);
            exports.push(bytes_of(&agg.to_cost_graph()));
        }
        for e in &exports[1..] {
            assert_eq!(
                String::from_utf8_lossy(&exports[0]),
                String::from_utf8_lossy(e),
                "absorption order changed the aggregate"
            );
        }
    }

    /// Absorbing a previously materialized aggregate (the restart path:
    /// a reloaded snapshot) then more sessions equals absorbing every
    /// session directly.
    #[test]
    fn aggregate_restart_roundtrip_matches_direct_merge() {
        let sessions = session_graphs();
        let mut direct = Aggregate::new();
        for (g, instructions) in &sessions {
            direct.absorb(g, *instructions);
        }

        let mut first = Aggregate::new();
        first.absorb(&sessions[0].0, sessions[0].1);
        first.absorb(&sessions[1].0, sessions[1].1);
        let persisted = first.to_cost_graph();
        let mut resumed = Aggregate::new();
        resumed.absorb(&persisted, first.total_instructions());
        resumed.absorb(&sessions[2].0, sessions[2].1);

        assert_eq!(resumed.total_instructions(), direct.total_instructions());
        assert_eq!(
            String::from_utf8_lossy(&bytes_of(&direct.to_cost_graph())),
            String::from_utf8_lossy(&bytes_of(&resumed.to_cost_graph())),
            "restart-from-aggregate diverged from the direct merge"
        );
    }
}
