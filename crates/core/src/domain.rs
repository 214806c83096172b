//! The generic abstract-dynamic-thin-slicing framework.
//!
//! A backward dynamic flow (BDF) problem is formulated by choosing a
//! bounded abstract domain `D` and per-instruction abstraction functions
//! `f_a : N → D` (Definition 2). [`AbstractProfiler`] then builds the
//! abstract thin data dependence graph online: each event is classified by
//! the client's [`AbstractDomain`]; classified instances intern (and bump)
//! a node `(a, d)`, def-use edges are found through shadow locations, and
//! unclassified instances create no node (their definitions break the
//! chain, exactly as the paper's "the function is undefined otherwise").
//!
//! The null-origin and extended-copy-profiling clients in
//! `lowutil-analyses` are instances of this framework; `G_cost`
//! ([`crate::CostProfiler`]) is a hand-specialized instance that
//! additionally maintains heap-effect environments and reference edges.

use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::Local;
use lowutil_vm::{Event, FrameInfo, ShadowHeap, ShadowStack, Tracer};
use std::fmt::Debug;
use std::hash::Hash;

/// A client-defined bounded abstract domain.
///
/// `classify` is the abstraction function family `F = {f_a}`: given an
/// executed instruction instance (the event), return the domain element for
/// this instance, or `None` if the instance is not tracked.
///
/// Domains that need their own auxiliary state (object tags, origin
/// shadows) implement the optional frame hooks and keep that state
/// internally.
pub trait AbstractDomain {
    /// The domain element type (must be bounded in practice).
    type Elem: Clone + Eq + Hash + Debug;

    /// Classifies one instruction instance.
    fn classify(&mut self, event: &Event) -> Option<Self::Elem>;

    /// Observes a frame push (optional).
    fn frame_push(&mut self, info: &FrameInfo) {
        let _ = info;
    }

    /// Observes a frame pop (optional).
    fn frame_pop(&mut self) {}
}

/// Builds an abstract thin dependence graph for any [`AbstractDomain`].
#[derive(Debug)]
pub struct AbstractProfiler<D: AbstractDomain> {
    domain: D,
    graph: DepGraph<D::Elem>,
    shadow_stack: ShadowStack<Option<NodeId>>,
    shadow_heap: ShadowHeap<Option<NodeId>, ()>,
    shadow_statics: Vec<Option<NodeId>>,
    pending_args: Vec<Option<NodeId>>,
    ret_stash: Option<NodeId>,
}

impl<D: AbstractDomain> AbstractProfiler<D> {
    /// Creates a profiler around a client domain.
    pub fn new(domain: D) -> Self {
        AbstractProfiler {
            domain,
            graph: DepGraph::new(),
            shadow_stack: ShadowStack::new(),
            shadow_heap: ShadowHeap::new(()),
            shadow_statics: Vec::new(),
            pending_args: Vec::new(),
            ret_stash: None,
        }
    }

    /// The domain, for querying client-side state.
    pub fn domain(&self) -> &D {
        &self.domain
    }

    /// The graph built so far (read-only view for mid-run inspection, e.g.
    /// after a trap).
    pub fn graph(&self) -> &DepGraph<D::Elem> {
        &self.graph
    }

    /// The current shadow of a local in the innermost live frame — used by
    /// trap-time clients (null-origin tracking reads the shadow of the
    /// faulting base pointer). Returns `None` if no frame is live.
    pub fn local_shadow(&self, l: Local) -> Option<NodeId> {
        if self.shadow_stack.depth() == 0 {
            return None;
        }
        *self.shadow_stack.get(l.index())
    }

    /// Consumes the profiler, returning the abstract graph and the domain.
    pub fn finish(self) -> (DepGraph<D::Elem>, D) {
        (self.graph, self.domain)
    }

    fn shadow(&self, l: Local) -> Option<NodeId> {
        *self.shadow_stack.get(l.index())
    }

    fn set_shadow(&mut self, l: Local, n: Option<NodeId>) {
        self.shadow_stack.set(l.index(), n);
    }

    fn kind_of(event: &Event) -> NodeKind {
        match event {
            Event::Alloc { .. } => NodeKind::Alloc,
            Event::LoadField { .. }
            | Event::LoadStatic { .. }
            | Event::ArrayLoad { .. }
            | Event::ArrayLen { .. } => NodeKind::HeapLoad,
            Event::StoreField { .. } | Event::StoreStatic { .. } | Event::ArrayStore { .. } => {
                NodeKind::HeapStore
            }
            Event::Predicate { .. } => NodeKind::Predicate,
            Event::Native { .. } => NodeKind::Native,
            _ => NodeKind::Plain,
        }
    }

    /// Thin uses of an event, as shadow sources.
    fn use_nodes(&self, event: &Event) -> Vec<Option<NodeId>> {
        match event {
            Event::Compute { uses, .. } => uses.iter().flatten().map(|&u| self.shadow(u)).collect(),
            Event::Predicate { uses, .. } => uses.iter().map(|&u| self.shadow(u)).collect(),
            Event::Alloc { len_use, .. } => len_use.iter().map(|&u| self.shadow(u)).collect(),
            Event::LoadField { object, offset, .. } => {
                vec![self.shadow_heap.get(*object, *offset as usize)]
            }
            Event::StoreField { src, .. } | Event::StoreStatic { src, .. } => {
                vec![self.shadow(*src)]
            }
            Event::LoadStatic { field, .. } => {
                vec![self.shadow_statics.get(field.index()).copied().flatten()]
            }
            Event::ArrayLoad {
                object, idx, index, ..
            } => vec![
                self.shadow(*idx),
                self.shadow_heap.get(*object, *index as usize),
            ],
            Event::ArrayStore { idx, src, .. } => {
                vec![self.shadow(*idx), self.shadow(*src)]
            }
            Event::ArrayLen { .. } => vec![],
            Event::Native { args, .. } => args.iter().map(|&a| self.shadow(a)).collect(),
            // Thread handles and join results are fresh producers for
            // generic domains; cross-thread value flow is modeled only by
            // the hand-specialized `G_cost` builder.
            Event::Spawn { .. }
            | Event::Join { .. }
            | Event::Call { .. }
            | Event::Return { .. }
            | Event::CallComplete { .. }
            | Event::Jump { .. }
            | Event::Phase { .. } => vec![],
        }
    }

    /// Where the event's definition shadow lives, if it defines something.
    fn apply_def(&mut self, event: &Event, node: Option<NodeId>) {
        match event {
            Event::Compute { dst, .. }
            | Event::Alloc { dst, .. }
            | Event::LoadField { dst, .. }
            | Event::LoadStatic { dst, .. }
            | Event::ArrayLoad { dst, .. }
            | Event::ArrayLen { dst, .. } => self.set_shadow(*dst, node),
            Event::StoreField { object, offset, .. } => {
                self.shadow_heap.set(*object, *offset as usize, node)
            }
            Event::ArrayStore { object, index, .. } => {
                self.shadow_heap.set(*object, *index as usize, node)
            }
            Event::StoreStatic { field, .. } => {
                if self.shadow_statics.len() <= field.index() {
                    self.shadow_statics.resize(field.index() + 1, None);
                }
                self.shadow_statics[field.index()] = node;
            }
            Event::Native { dst: Some(d), .. } => self.set_shadow(*d, node),
            Event::Spawn { dst, .. } => self.set_shadow(*dst, node),
            Event::Join { dst: Some(d), .. } => self.set_shadow(*d, node),
            _ => {}
        }
    }
}

impl<D: AbstractDomain> Tracer for AbstractProfiler<D> {
    fn instr(&mut self, event: &Event) {
        // Call/return plumbing is domain-independent.
        match event {
            Event::Call { args, .. } => {
                self.pending_args.clear();
                for a in args {
                    let s = self.shadow(*a);
                    self.pending_args.push(s);
                }
                self.domain.classify(event);
                return;
            }
            Event::Return { src, .. } => {
                self.ret_stash = src.and_then(|s| self.shadow(s));
                self.domain.classify(event);
                return;
            }
            Event::CallComplete { dst, .. } => {
                let stash = self.ret_stash.take();
                if let Some(d) = dst {
                    self.set_shadow(*d, stash);
                }
                self.domain.classify(event);
                return;
            }
            Event::Jump { .. } | Event::Phase { .. } => {
                return;
            }
            _ => {}
        }

        let elem = self.domain.classify(event);
        let node = elem.map(|e| {
            let n = self.graph.intern(event.at(), e, Self::kind_of(event));
            self.graph.bump(n);
            n
        });
        if let Some(n) = node {
            for m in self.use_nodes(event).into_iter().flatten() {
                self.graph.add_edge(m, n);
            }
        }
        self.apply_def(event, node);
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.shadow_stack.push(info.num_locals as usize);
        for i in 0..info.num_args as usize {
            let data = self.pending_args.get(i).copied().flatten();
            self.shadow_stack.set(i, data);
        }
        self.pending_args.clear();
        self.domain.frame_push(info);
    }

    fn frame_pop(&mut self) {
        self.shadow_stack.pop();
        self.domain.frame_pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::{parse_program, Value};
    use lowutil_vm::Vm;

    /// A toy domain: classify every value-producing instruction by the
    /// *sign* of the produced integer. Bounded domain {Neg, Zero, Pos}.
    #[derive(Debug, Default)]
    struct SignDomain;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sign {
        Neg,
        Zero,
        Pos,
        NonInt,
    }

    impl AbstractDomain for SignDomain {
        type Elem = Sign;

        fn classify(&mut self, event: &Event) -> Option<Sign> {
            let v = event.produced_value()?;
            Some(match v {
                Value::Int(i) if i < 0 => Sign::Neg,
                Value::Int(0) => Sign::Zero,
                Value::Int(_) => Sign::Pos,
                _ => Sign::NonInt,
            })
        }
    }

    #[test]
    fn sign_domain_builds_bounded_graph() {
        let src = r#"
method main/0 {
  i = 0
  one = 1
  lim = 50
loop:
  if i >= lim goto done
  i = i + one
  goto loop
done:
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = AbstractProfiler::new(SignDomain);
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        // `i = i + one` produces Pos 50 times → one node with freq 50.
        // `i = 0` produces Zero once. Bounded regardless of trip count.
        assert!(g.num_nodes() <= 6);
        let add_pos = g
            .iter()
            .find(|(_, n)| n.elem == Sign::Pos && n.freq >= 50)
            .expect("hot positive node");
        let _ = add_pos;
    }

    #[test]
    fn unclassified_instances_break_chains() {
        /// Tracks only stores; everything else is untracked.
        #[derive(Debug, Default)]
        struct StoresOnly;
        impl AbstractDomain for StoresOnly {
            type Elem = ();
            fn classify(&mut self, event: &Event) -> Option<()> {
                matches!(event, Event::StoreField { .. }).then_some(())
            }
        }
        let src = r#"
class Box { v }
method main/0 {
  b = new Box
  x = 1
  b.v = x
  y = b.v
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = AbstractProfiler::new(StoresOnly);
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0, "untracked defs do not feed edges");
    }

    #[test]
    fn data_still_flows_through_heap_between_tracked_nodes() {
        /// Track every definition with a unit domain.
        #[derive(Debug, Default)]
        struct All;
        impl AbstractDomain for All {
            type Elem = ();
            fn classify(&mut self, event: &Event) -> Option<()> {
                event.produced_value().map(|_| ())
            }
        }
        let src = r#"
class Box { v }
native print/1
method main/0 {
  b = new Box
  x = 1
  b.v = x
  y = b.v
  native print(y)
  return
}
"#;
        let p = parse_program(src).unwrap();
        let mut prof = AbstractProfiler::new(All);
        Vm::new(&p).run(&mut prof).unwrap();
        let (g, _) = prof.finish();
        // x=1 → store → load → (print consumes but produces no value here:
        // print has no return, so Native classify sees None → untracked).
        // Chain length ≥ 3 edges among tracked nodes: x→store, store→load.
        assert!(g.num_edges() >= 2);
    }
}
