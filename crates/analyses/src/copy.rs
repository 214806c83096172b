//! Extended copy profiling (the paper's third example client, Figure
//! 2(c), extending Xu et al.'s copy graphs).
//!
//! The bounded domain is `O × P ∪ {⊥}`: an instruction instance is
//! annotated with the object field its value *originated* from, or `⊥`
//! when the value came from computation, a constant, or a fresh
//! allocation. Unlike the original copy profiles — which abstracted away
//! stack copies — the abstract graph keeps the intermediate stack nodes,
//! so a chain `O1.f → b → c → O3.f` shows the methods the value was
//! funneled through.

use lowutil_core::{AbstractDomain, AbstractProfiler, DepGraph, NodeId, NodeKind};
use lowutil_ir::{AllocSiteId, FieldId, InstrId, ObjectId};
use lowutil_vm::{Event, FrameInfo, ShadowStack};
use std::collections::HashMap;
use std::fmt;

/// The origin annotation: which heap location a value was copied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CopySource {
    /// The value did not come from a field: constant, computation, or a
    /// fresh reference.
    #[default]
    Bottom,
    /// The value was read from `site.field`.
    Field {
        /// Allocation site of the holder.
        site: AllocSiteId,
        /// The field.
        field: FieldId,
    },
    /// The value was read from an element of an array allocated at `site`.
    Element {
        /// Allocation site of the array.
        site: AllocSiteId,
    },
}

impl fmt::Display for CopySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CopySource::Bottom => write!(f, "⊥"),
            CopySource::Field { site, field } => write!(f, "{site}.{field}"),
            CopySource::Element { site } => write!(f, "{site}.ELM"),
        }
    }
}

/// The copy-profiling abstraction functions, with their origin-shadow
/// state.
#[derive(Debug, Default)]
pub struct CopyDomain {
    origins: ShadowStack<CopySource>,
    tags: HashMap<ObjectId, AllocSiteId>,
    pending_args: Vec<CopySource>,
    ret_stash: CopySource,
}

impl CopyDomain {
    /// Creates the domain.
    pub fn new() -> Self {
        Self::default()
    }

    fn origin(&self, l: lowutil_ir::Local) -> CopySource {
        *self.origins.get(l.index())
    }

    fn set_origin(&mut self, l: lowutil_ir::Local, o: CopySource) {
        self.origins.set(l.index(), o);
    }

    fn tag(&self, obj: ObjectId) -> Option<AllocSiteId> {
        self.tags.get(&obj).copied()
    }
}

impl AbstractDomain for CopyDomain {
    type Elem = CopySource;

    fn classify(&mut self, event: &Event) -> Option<CopySource> {
        match event {
            Event::Compute { dst, uses, .. } => {
                // A move has exactly one use and copies it; anything else
                // computes (⊥).
                let origin = match uses {
                    [Some(src), None] => self.origin(*src),
                    _ => CopySource::Bottom,
                };
                // Distinguish Move from Unop: both have one use. Unops
                // transform the value, so their result is ⊥. The event does
                // not carry the opcode; a conservative copy domain treats
                // single-use computes as copies, which matches the paper's
                // goal of catching data funneled through wrappers. Constants
                // ([None, None]) are ⊥ via the match above.
                self.set_origin(*dst, origin);
                Some(origin)
            }
            Event::Alloc {
                dst, object, site, ..
            } => {
                self.tags.insert(*object, *site);
                self.set_origin(*dst, CopySource::Bottom);
                Some(CopySource::Bottom)
            }
            Event::LoadField {
                dst, object, field, ..
            } => {
                let o = match self.tag(*object) {
                    Some(site) => CopySource::Field {
                        site,
                        field: *field,
                    },
                    None => CopySource::Bottom,
                };
                self.set_origin(*dst, o);
                Some(o)
            }
            Event::ArrayLoad { dst, object, .. } => {
                let o = match self.tag(*object) {
                    Some(site) => CopySource::Element { site },
                    None => CopySource::Bottom,
                };
                self.set_origin(*dst, o);
                Some(o)
            }
            Event::StoreField { object, field, .. } => Some(match self.tag(*object) {
                Some(site) => CopySource::Field {
                    site,
                    field: *field,
                },
                None => CopySource::Bottom,
            }),
            Event::ArrayStore { object, .. } => Some(match self.tag(*object) {
                Some(site) => CopySource::Element { site },
                None => CopySource::Bottom,
            }),
            Event::LoadStatic { dst, .. } | Event::ArrayLen { dst, .. } => {
                self.set_origin(*dst, CopySource::Bottom);
                Some(CopySource::Bottom)
            }
            Event::StoreStatic { .. } => Some(CopySource::Bottom),
            Event::Native { dst, .. } => {
                if let Some(d) = dst {
                    self.set_origin(*d, CopySource::Bottom);
                }
                Some(CopySource::Bottom)
            }
            Event::Call { args, .. } => {
                self.pending_args.clear();
                for a in args {
                    let o = self.origin(*a);
                    self.pending_args.push(o);
                }
                None
            }
            Event::Return { src, .. } => {
                self.ret_stash = src.map(|s| self.origin(s)).unwrap_or_default();
                None
            }
            Event::CallComplete { dst, .. } => {
                if let Some(d) = dst {
                    let o = self.ret_stash;
                    self.set_origin(*d, o);
                }
                self.ret_stash = CopySource::Bottom;
                None
            }
            // A thread handle / join result is a fresh value, never a
            // copy of an existing one — same treatment as natives.
            Event::Spawn { dst, .. } => {
                self.set_origin(*dst, CopySource::Bottom);
                Some(CopySource::Bottom)
            }
            Event::Join { dst, .. } => {
                if let Some(d) = dst {
                    self.set_origin(*d, CopySource::Bottom);
                }
                Some(CopySource::Bottom)
            }
            Event::Predicate { .. } | Event::Jump { .. } | Event::Phase { .. } => None,
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.origins.push(info.num_locals as usize);
        for i in 0..info.num_args as usize {
            let o = self.pending_args.get(i).copied().unwrap_or_default();
            self.origins.set(i, o);
        }
        self.pending_args.clear();
    }

    fn frame_pop(&mut self) {
        self.origins.pop();
    }
}

/// A profiler preconfigured for copy profiling.
pub type CopyProfiler = AbstractProfiler<CopyDomain>;

/// Creates the copy profiler.
pub fn copy_profiler() -> CopyProfiler {
    AbstractProfiler::new(CopyDomain::new())
}

/// One heap-to-heap copy chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyChain {
    /// Where the data came from.
    pub source: CopySource,
    /// Where it was stored.
    pub dest: CopySource,
    /// The load that started the chain, if recorded.
    pub load: Option<InstrId>,
    /// Intermediate stack copies, in flow order.
    pub hops: Vec<InstrId>,
    /// The store that ends the chain.
    pub store: InstrId,
    /// How many times the store executed.
    pub count: u64,
}

impl CopyChain {
    /// Chain length including load and store endpoints.
    pub fn len(&self) -> usize {
        self.hops.len() + 1 + usize::from(self.load.is_some())
    }

    /// Chains always contain at least the store.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Extracts heap-to-heap copy chains from a copy graph: for every store
/// node whose incoming value carries a field origin, walk backward through
/// nodes with that same origin to the load that created it.
pub fn copy_chains(graph: &DepGraph<CopySource>) -> Vec<CopyChain> {
    let mut out = Vec::new();
    for (store_id, store) in graph.iter() {
        if store.kind != NodeKind::HeapStore {
            continue;
        }
        for &p in graph.preds(store_id) {
            let origin = graph.node(p).elem;
            if origin == CopySource::Bottom {
                continue;
            }
            // Walk backward along same-origin nodes.
            let mut hops: Vec<NodeId> = Vec::new();
            let mut cur = p;
            let mut load = None;
            loop {
                if graph.node(cur).kind == NodeKind::HeapLoad {
                    load = Some(graph.node(cur).instr);
                    break;
                }
                hops.push(cur);
                match graph
                    .preds(cur)
                    .iter()
                    .find(|&&q| graph.node(q).elem == origin && !hops.contains(&q))
                {
                    Some(&q) => cur = q,
                    None => break,
                }
            }
            hops.reverse();
            out.push(CopyChain {
                source: origin,
                dest: store.elem,
                load,
                hops: hops.into_iter().map(|n| graph.node(n).instr).collect(),
                store: store.instr,
                count: store.freq,
            });
        }
    }
    out.sort_by(|a, b| b.count.cmp(&a.count).then(a.store.cmp(&b.store)));
    out
}

/// Fraction of profiled instruction instances that were pure copies
/// (non-⊥ annotations) — a coarse "copy bloat" indicator.
pub fn copy_ratio(graph: &DepGraph<CopySource>) -> f64 {
    let mut copies = 0u64;
    let mut total = 0u64;
    for (_, n) in graph.iter() {
        total += n.freq;
        if n.elem != CopySource::Bottom && n.kind == NodeKind::Plain {
            copies += n.freq;
        }
    }
    if total == 0 {
        0.0
    } else {
        copies as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    /// Figure 2(c): data read from O1.f is copied through stack locations
    /// (including a method boundary) into O3.f.
    const COPY_CHAIN: &str = r#"
class A { f }
class D { g }
method main/0 {
  a1 = new A
  x = 7
  a1.f = x
  b = a1.f
  c = b
  d = new D
  e = call pass(c)
  d.g = e
  return
}
method pass/1 {
  r = p0
  return r
}
"#;

    #[test]
    fn chain_from_field_to_field_is_recovered() {
        let p = parse_program(COPY_CHAIN).unwrap();
        let mut prof = copy_profiler();
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        let chains = copy_chains(&g);
        // One chain ends at d.g with a field source.
        let chain = chains
            .iter()
            .find(|c| matches!(c.dest, CopySource::Field { .. }))
            .expect("field-to-field chain");
        assert!(matches!(chain.source, CopySource::Field { .. }));
        assert!(chain.load.is_some(), "chain starts at the load of a1.f");
        // Intermediate stack hops: c = b, r = p0 (inside pass), at least.
        assert!(chain.hops.len() >= 2, "hops: {:?}", chain.hops);
        assert_eq!(chain.count, 1);
    }

    #[test]
    fn computed_values_are_bottom() {
        let src = r#"
class A { f }
method main/0 {
  a = new A
  x = 1
  y = 2
  z = x + y
  a.f = z
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = copy_profiler();
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        // No field-sourced chain: z was computed.
        assert!(copy_chains(&g).is_empty());
    }

    #[test]
    fn copy_ratio_rises_with_copying() {
        let copy_heavy = r#"
class A { f }
method main/0 {
  a = new A
  x = 5
  a.f = x
  i = 0
  one = 1
  lim = 50
loop:
  if i >= lim goto done
  b = a.f
  c = b
  d = c
  e = d
  i = i + one
  goto loop
done:
  return
}
"#;
        let p = parse_program(copy_heavy).unwrap();
        let mut prof = copy_profiler();
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        assert!(copy_ratio(&g) > 0.3, "ratio {}", copy_ratio(&g));
    }

    #[test]
    fn array_elements_get_element_origins() {
        let src = r#"
class A { f }
method main/0 {
  n = 4
  arr = newarray n
  x = 9
  zero = 0
  arr[zero] = x
  y = arr[zero]
  a = new A
  a.f = y
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = copy_profiler();
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        let chains = copy_chains(&g);
        assert!(chains
            .iter()
            .any(|c| matches!(c.source, CopySource::Element { .. })));
    }
}
