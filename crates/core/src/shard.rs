//! Sequential trace replay and the cross-session [`Aggregate`].
//!
//! [`replay_cost_graph`] rebuilds `G_cost` from a recorded trace (see
//! `lowutil_vm::trace`) by feeding every segment, in order, through one
//! [`GraphBuilder`](crate::GraphBuilder); [`replay_segments`] does the
//! same for any segment subsequence, such as a salvaged prefix. Both are
//! **byte-identical** (under the canonical serialization in
//! [`crate::export`]) to a live profile of the same run.
//!
//! [`Aggregate`] merges the finished graphs of independent sessions of
//! one program. Its state is keyed by abstract identity
//! ([`AbstractNode`]), so absorption is commutative and every arrival
//! order yields the same canonical bytes.
//!
//! The module's name is historical: it once also built per-segment
//! shard graphs and merged them.

use crate::context::ConflictStats;
use crate::fx::{FxHashMap, FxHashSet};
use crate::gcost::{CostElem, CostGraph, CostGraphConfig, FieldKey, HeapEffect, TaggedSite};
use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{InstrId, Program};
use lowutil_vm::trace::{Segment, TraceError, TraceReader};

/// Sequentially replays a whole trace through a fresh [`GraphBuilder`](crate::GraphBuilder),
/// with [`TraceReader::replay`]'s dense thread and object id checks.
///
/// # Errors
/// Fails on a malformed trace.
pub fn replay_cost_graph(
    program: &Program,
    config: CostGraphConfig,
    reader: &TraceReader<'_>,
) -> Result<CostGraph, TraceError> {
    let mut builder = crate::gcost::GraphBuilder::new(program, config);
    reader.replay(&mut builder)?;
    Ok(builder.finish())
}

/// Sequentially replays an explicit segment slice — any prefix (or other
/// subsequence) of a trace — through a fresh [`GraphBuilder`](crate::GraphBuilder).
///
/// This is what makes salvage differential testing possible: the graph of
/// a salvaged reader must be byte-identical (under canonical export) to
/// the graph of the *original* trace restricted to the kept prefix, and
/// this function computes that restriction. It skips
/// [`TraceReader::replay`]'s dense-id checks, which salvage has already
/// run on every segment it keeps.
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
// cross-session aggregation
// ---------------------------------------------------------------------------

/// A node's abstract identity — the key that makes an aggregate merge
/// order-independent.
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
/// `Aggregate` combines *finished graphs of independent runs* of the
/// same program. Everything it keeps is keyed by abstract identity —
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
    /// replay against the live graph, byte for byte, at the given segment
    /// limit.
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
            "replay != live"
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
    fn replay_matches_live_across_segment_limits() {
        for limit in [2, 5, 16, 4096] {
            let segs = assert_identity(CROSS_SEGMENT_SRC, CostGraphConfig::default(), limit);
            if limit == 2 {
                assert!(segs > 4, "tiny limit must produce many segments");
            }
        }
    }

    #[test]
    fn replay_matches_live_with_ablation_configs() {
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

    /// Live-profiles + records under one scheduler seed, then checks the
    /// replay against the live graph byte for byte. Returns the live bytes for cross-seed comparison.
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
            "replay != live (limit {limit}, seed {sched_seed})"
        );
        live
    }

    #[test]
    fn replay_matches_live_multithreaded_across_limits() {
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
    fn replay_matches_live_multithreaded_with_ablations() {
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
                inline_caches: false,
                ..CostGraphConfig::default()
            },
        ] {
            threaded_identity(config, 4, 3);
        }
    }

    #[test]
    fn replay_matches_live_under_phase_limiting() {
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
