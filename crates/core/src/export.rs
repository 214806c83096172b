//! Serialization of finished cost graphs.
//!
//! The paper's §3.2 points out that the client analyses "could easily be
//! migrated to an offline heap analysis tool … the JVM only needs to
//! write `G_cost` to external storage". This module provides that
//! boundary: a compact line-oriented text format with a lossless
//! round-trip ([`write_cost_graph`] / [`read_cost_graph`]), and Graphviz
//! DOT output for visual inspection ([`write_dot`]).
//!
//! Format (one record per line, `#`-prefixed comments ignored):
//!
//! ```text
//! gcost 1                            header, format version
//! meta <instr_instances> <shadow_heap_bytes>
//! node <id> <method> <pc> <elem> <kind> <freq>   elem: cN | -
//! edge <from> <to>
//! refedge <store> <alloc>
//! effect <node> alloc <site> <slot>
//! effect <node> load|store <site> <slot> <field>  field: fN | elm | len
//! effect <node> loadstatic|storestatic <static>
//! pointsto <site> <slot> <field> <site2> <slot2>
//! ```

use crate::gcost::{CostElem, CostGraph, FieldKey, HeapEffect, TaggedSite};
use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{AllocSiteId, FieldId, InstrId, MethodId, Program, StaticId};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A malformed record encountered while reading a serialized graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ReadError {}

pub(crate) fn field_key_token(f: FieldKey) -> String {
    match f {
        FieldKey::Field(id) => format!("f{}", id.0),
        FieldKey::Element => "elm".to_string(),
        FieldKey::Length => "len".to_string(),
    }
}

fn parse_field_key(tok: &str) -> Option<FieldKey> {
    match tok {
        "elm" => Some(FieldKey::Element),
        "len" => Some(FieldKey::Length),
        _ => tok
            .strip_prefix('f')
            .and_then(|n| n.parse().ok())
            .map(|n| FieldKey::Field(FieldId(n))),
    }
}

pub(crate) fn kind_token(k: NodeKind) -> &'static str {
    match k {
        NodeKind::Plain => "plain",
        NodeKind::Alloc => "alloc",
        NodeKind::HeapLoad => "load",
        NodeKind::HeapStore => "store",
        NodeKind::Predicate => "pred",
        NodeKind::Native => "native",
    }
}

fn parse_kind(tok: &str) -> Option<NodeKind> {
    Some(match tok {
        "plain" => NodeKind::Plain,
        "alloc" => NodeKind::Alloc,
        "load" => NodeKind::HeapLoad,
        "store" => NodeKind::HeapStore,
        "pred" => NodeKind::Predicate,
        "native" => NodeKind::Native,
        _ => return None,
    })
}

/// The total order serialization uses: nodes sort by `(instr, elem)`,
/// with `NoCtx` ranking before any context slot. This is also the
/// on-disk integer encoding of an elem in snapshot format v1.
pub fn elem_rank(e: CostElem) -> u64 {
    match e {
        CostElem::NoCtx => 0,
        CostElem::Ctx(s) => u64::from(s) + 1,
    }
}

/// The canonical node order shared by the text export and the binary
/// snapshot store: nodes sorted by `(method, pc, elem)`. Both formats
/// renumber through this one function so their content hashes can never
/// disagree about node identity.
pub fn canonical_order(g: &DepGraph<CostElem>) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.node_ids().collect();
    order.sort_unstable_by_key(|&id| {
        let n = g.node(id);
        (n.instr.method.0, n.instr.pc, elem_rank(n.elem))
    });
    order
}

/// Writes one canonical `node` record — the single source of the line
/// format, shared with the incremental writer
/// ([`crate::incr::IncrementalCsr`]).
pub(crate) fn write_node_line<W: Write>(
    mut w: W,
    id: u32,
    instr: InstrId,
    elem: CostElem,
    kind: NodeKind,
    freq: u64,
) -> io::Result<()> {
    let elem = match elem {
        CostElem::Ctx(s) => format!("c{s}"),
        CostElem::NoCtx => "-".to_string(),
    };
    writeln!(
        w,
        "node {} {} {} {} {} {}",
        id,
        instr.method.0,
        instr.pc,
        elem,
        kind_token(kind),
        freq
    )
}

/// Writes one canonical `effect` record (shared with the incremental
/// writer).
pub(crate) fn write_effect_line<W: Write>(mut w: W, id: u32, e: &HeapEffect) -> io::Result<()> {
    match e {
        HeapEffect::Alloc { site } => {
            writeln!(w, "effect {} alloc {} {}", id, site.site.0, site.slot)
        }
        HeapEffect::Load { site, field } => writeln!(
            w,
            "effect {} load {} {} {}",
            id,
            site.site.0,
            site.slot,
            field_key_token(*field)
        ),
        HeapEffect::Store { site, field } => writeln!(
            w,
            "effect {} store {} {} {}",
            id,
            site.site.0,
            site.slot,
            field_key_token(*field)
        ),
        HeapEffect::LoadStatic(s) => writeln!(w, "effect {} loadstatic {}", id, s.0),
        HeapEffect::StoreStatic(s) => writeln!(w, "effect {} storestatic {}", id, s.0),
    }
}

/// Writes one canonical `pointsto` record (shared with the incremental
/// writer).
pub(crate) fn write_pointsto_line<W: Write>(
    mut w: W,
    site: TaggedSite,
    field: FieldKey,
    target: TaggedSite,
) -> io::Result<()> {
    writeln!(
        w,
        "pointsto {} {} {} {} {}",
        site.site.0,
        site.slot,
        field_key_token(field),
        target.site.0,
        target.slot
    )
}

/// Writes a finished graph to the compact text format.
///
/// The output is *canonical*: nodes are sorted by `(method, pc, elem)`
/// and renumbered, and edge/reference-edge records are sorted, so two
/// graphs with the same abstract content serialize to identical bytes
/// regardless of construction order. This is what makes "live == replayed
/// == aggregated" checkable by byte comparison.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_cost_graph<W: Write>(gcost: &CostGraph, mut w: W) -> io::Result<()> {
    writeln!(w, "gcost 1")?;
    writeln!(
        w,
        "meta {} {}",
        gcost.instr_instances(),
        gcost.shadow_heap_bytes()
    )?;
    let g = gcost.graph();
    let order = canonical_order(g);
    // old id -> canonical id
    let mut canon = vec![0u32; g.num_nodes()];
    for (new, &old) in order.iter().enumerate() {
        canon[old.index()] = new as u32;
    }
    for (new, &old) in order.iter().enumerate() {
        let n = g.node(old);
        write_node_line(&mut w, new as u32, n.instr, n.elem, n.kind, n.freq)?;
    }
    let canon = &canon;
    let mut edges: Vec<(u32, u32)> = g
        .node_ids()
        .flat_map(|id| {
            g.succs(id)
                .iter()
                .map(move |&s| (canon[id.index()], canon[s.index()]))
        })
        .collect();
    edges.sort_unstable();
    for (a, b) in edges {
        writeln!(w, "edge {a} {b}")?;
    }
    let mut ref_edges: Vec<(u32, u32)> = gcost
        .ref_edges()
        .map(|(s, a)| (canon[s.index()], canon[a.index()]))
        .collect();
    ref_edges.sort_unstable();
    for (s, a) in ref_edges {
        writeln!(w, "refedge {s} {a}")?;
    }
    for &old in &order {
        let id = NodeId(canon[old.index()]);
        if let Some(e) = gcost.effect(old) {
            write_effect_line(&mut w, id.0, e)?;
        }
    }
    for site in gcost.objects() {
        for field in gcost.fields_of(site) {
            for target in gcost.points_to(site, field) {
                write_pointsto_line(&mut w, site, field, target)?;
            }
        }
    }
    Ok(())
}

/// Reads a graph previously written by [`write_cost_graph`].
///
/// # Errors
/// Returns a [`ReadError`] describing the first malformed record.
pub fn read_cost_graph<R: BufRead>(r: R) -> Result<CostGraph, ReadError> {
    let mut graph: DepGraph<CostElem> = DepGraph::new();
    let mut freqs: HashMap<NodeId, u64> = HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut ref_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut effects: HashMap<NodeId, HeapEffect> = HashMap::new();
    let mut points_to: HashMap<(TaggedSite, FieldKey), HashSet<TaggedSite>> = HashMap::new();
    let mut id_map: HashMap<u32, NodeId> = HashMap::new();
    let mut instr_instances = 0u64;
    let mut shadow_bytes = 0usize;
    let mut saw_header = false;

    let err = |line: usize, message: &str| ReadError {
        line,
        message: message.to_string(),
    };

    for (i, line) in r.lines().enumerate() {
        let ln = i + 1;
        let line = line.map_err(|e| err(ln, &format!("io error: {e}")))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "gcost" => {
                if toks.get(1) != Some(&"1") {
                    return Err(err(ln, "unsupported format version"));
                }
                saw_header = true;
            }
            _ if !saw_header => return Err(err(ln, "missing `gcost` header")),
            "meta" => {
                instr_instances = toks
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(ln, "bad meta"))?;
                shadow_bytes = toks
                    .get(2)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(ln, "bad meta"))?;
            }
            "node" => {
                if toks.len() != 7 {
                    return Err(err(ln, "node needs 6 fields"));
                }
                let ext: u32 = toks[1].parse().map_err(|_| err(ln, "bad node id"))?;
                let method: u32 = toks[2].parse().map_err(|_| err(ln, "bad method"))?;
                let pc: u32 = toks[3].parse().map_err(|_| err(ln, "bad pc"))?;
                let elem = if toks[4] == "-" {
                    CostElem::NoCtx
                } else {
                    let s = toks[4]
                        .strip_prefix('c')
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(ln, "bad elem"))?;
                    CostElem::Ctx(s)
                };
                let kind = parse_kind(toks[5]).ok_or_else(|| err(ln, "bad kind"))?;
                let freq: u64 = toks[6].parse().map_err(|_| err(ln, "bad freq"))?;
                let id = graph.intern(InstrId::new(MethodId(method), pc), elem, kind);
                freqs.insert(id, freq);
                id_map.insert(ext, id);
            }
            "edge" | "refedge" => {
                if toks.len() != 3 {
                    return Err(err(ln, "edge needs 2 fields"));
                }
                let a: u32 = toks[1].parse().map_err(|_| err(ln, "bad edge"))?;
                let b: u32 = toks[2].parse().map_err(|_| err(ln, "bad edge"))?;
                if toks[0] == "edge" {
                    edges.push((a, b));
                } else {
                    let (na, nb) = (
                        *id_map.get(&a).ok_or_else(|| err(ln, "unknown node"))?,
                        *id_map.get(&b).ok_or_else(|| err(ln, "unknown node"))?,
                    );
                    ref_edges.insert((na, nb));
                }
            }
            "effect" => {
                let id: u32 = toks
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(ln, "bad effect node"))?;
                let node = *id_map.get(&id).ok_or_else(|| err(ln, "unknown node"))?;
                let eff = match toks.get(2).copied() {
                    Some("alloc") => HeapEffect::Alloc {
                        site: parse_site(&toks, 3).ok_or_else(|| err(ln, "bad site"))?,
                    },
                    Some("load") => HeapEffect::Load {
                        site: parse_site(&toks, 3).ok_or_else(|| err(ln, "bad site"))?,
                        field: toks
                            .get(5)
                            .and_then(|t| parse_field_key(t))
                            .ok_or_else(|| err(ln, "bad field"))?,
                    },
                    Some("store") => HeapEffect::Store {
                        site: parse_site(&toks, 3).ok_or_else(|| err(ln, "bad site"))?,
                        field: toks
                            .get(5)
                            .and_then(|t| parse_field_key(t))
                            .ok_or_else(|| err(ln, "bad field"))?,
                    },
                    Some("loadstatic") => HeapEffect::LoadStatic(StaticId(
                        toks.get(3)
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| err(ln, "bad static"))?,
                    )),
                    Some("storestatic") => HeapEffect::StoreStatic(StaticId(
                        toks.get(3)
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| err(ln, "bad static"))?,
                    )),
                    _ => return Err(err(ln, "bad effect kind")),
                };
                effects.insert(node, eff);
            }
            "pointsto" => {
                let site = parse_site(&toks, 1).ok_or_else(|| err(ln, "bad site"))?;
                let field = toks
                    .get(3)
                    .and_then(|t| parse_field_key(t))
                    .ok_or_else(|| err(ln, "bad field"))?;
                let target = parse_site(&toks, 4).ok_or_else(|| err(ln, "bad site"))?;
                points_to.entry((site, field)).or_default().insert(target);
            }
            other => return Err(err(ln, &format!("unknown record `{other}`"))),
        }
    }
    if !saw_header {
        return Err(err(0, "empty input"));
    }

    for (a, b) in edges {
        let (na, nb) = (
            *id_map
                .get(&a)
                .ok_or_else(|| err(0, "edge to unknown node"))?,
            *id_map
                .get(&b)
                .ok_or_else(|| err(0, "edge to unknown node"))?,
        );
        graph.add_edge(na, nb);
    }
    for (id, freq) in freqs {
        graph.set_freq(id, freq);
    }

    Ok(CostGraph::from_parts(
        graph,
        ref_edges,
        effects,
        points_to,
        instr_instances,
        shadow_bytes,
    ))
}

fn parse_site(toks: &[&str], at: usize) -> Option<TaggedSite> {
    Some(TaggedSite {
        site: AllocSiteId(toks.get(at)?.parse().ok()?),
        slot: toks.get(at + 1)?.parse().ok()?,
    })
}

/// Writes the graph as Graphviz DOT, with source labels resolved against
/// `program` when supplied.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_dot<W: Write>(
    gcost: &CostGraph,
    program: Option<&Program>,
    mut w: W,
) -> io::Result<()> {
    writeln!(w, "digraph gcost {{")?;
    writeln!(w, "  rankdir=TB; node [fontsize=10];")?;
    let g = gcost.graph();
    for (id, n) in g.iter() {
        let label = match program {
            Some(p) => format!("{}{} x{}", p.instr_label(n.instr), n.elem, n.freq),
            None => format!("{}{} x{}", n.instr, n.elem, n.freq),
        };
        let shape = match n.kind {
            NodeKind::Alloc => "shape=box, peripheries=2",
            NodeKind::HeapStore => "shape=box",
            NodeKind::HeapLoad => "shape=ellipse, style=bold",
            NodeKind::Predicate => "shape=diamond",
            NodeKind::Native => "shape=house",
            NodeKind::Plain => "shape=plaintext",
        };
        writeln!(w, "  n{} [label=\"{}\", {}];", id.0, label, shape)?;
    }
    for id in g.node_ids() {
        for &s in g.succs(id) {
            writeln!(w, "  n{} -> n{};", id.0, s.0)?;
        }
    }
    for (s, a) in gcost.ref_edges() {
        writeln!(w, "  n{} -> n{} [style=dashed, color=gray];", s.0, a.0)?;
    }
    writeln!(w, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcost::{CostGraphConfig, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn sample_graph() -> (Program, CostGraph) {
        let p = parse_program(
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
        )
        .unwrap();
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        Vm::new(&p).run(&mut prof).unwrap();
        (p, prof.finish())
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let (_, g) = sample_graph();
        let mut buf = Vec::new();
        write_cost_graph(&g, &mut buf).unwrap();
        let g2 = read_cost_graph(buf.as_slice()).unwrap();

        assert_eq!(g.graph().num_nodes(), g2.graph().num_nodes());
        assert_eq!(g.graph().num_edges(), g2.graph().num_edges());
        assert_eq!(g.ref_edges().count(), g2.ref_edges().count());
        assert_eq!(g.instr_instances(), g2.instr_instances());
        assert_eq!(g.objects(), g2.objects());
        // Per-node payloads survive keyed by (instr, elem).
        for (_, n) in g.graph().iter() {
            let id2 = g2
                .graph()
                .find(n.instr, &n.elem)
                .expect("node survives round trip");
            let n2 = g2.graph().node(id2);
            assert_eq!(n.freq, n2.freq);
            assert_eq!(n.kind, n2.kind);
        }
        // Field indexes rebuilt from effects.
        for site in g.objects() {
            assert_eq!(g.fields_of(site), g2.fields_of(site));
            for f in g.fields_of(site) {
                assert_eq!(g.writes_of(site, f).len(), g2.writes_of(site, f).len());
                assert_eq!(g.points_to(site, f), g2.points_to(site, f));
            }
        }
    }

    #[test]
    fn analyses_run_identically_on_a_reloaded_graph() {
        let (_, g) = sample_graph();
        let mut buf = Vec::new();
        write_cost_graph(&g, &mut buf).unwrap();
        let g2 = read_cost_graph(buf.as_slice()).unwrap();
        // Backward-slice sizes agree for every (instr, elem) node.
        for (id, n) in g.graph().iter() {
            let id2 = g2.graph().find(n.instr, &n.elem).unwrap();
            let s1 = crate::slicer::backward_slice(g.graph(), id).len();
            let s2 = crate::slicer::backward_slice(g2.graph(), id2).len();
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn dot_output_mentions_every_node() {
        let (p, g) = sample_graph();
        let mut buf = Vec::new();
        write_dot(&g, Some(&p), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("digraph"));
        assert_eq!(text.matches("label=").count(), g.graph().num_nodes());
        assert!(text.contains("style=dashed"), "reference edges rendered");
    }

    #[test]
    fn malformed_input_is_rejected_with_line_numbers() {
        let cases = [
            ("", "empty"),
            ("node 0 0 0 c0 plain 1\n", "header"),
            ("gcost 2\n", "version"),
            ("gcost 1\nnode x\n", "node"),
            ("gcost 1\nedge 0 1\n", "unknown node"),
            ("gcost 1\nwhat 1 2\n", "unknown record"),
        ];
        for (src, _why) in cases {
            assert!(read_cost_graph(src.as_bytes()).is_err(), "{src:?}");
        }
    }
}
