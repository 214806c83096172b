//! The abstract (thin) data dependence graph.
//!
//! Nodes are elements of `I × D` (Definition 2): a static instruction
//! annotated with a bounded abstract-domain element. Each node carries an
//! execution frequency (how many instruction instances it stands for) and a
//! kind mark — the paper's underlined (allocation), boxed (heap store),
//! circled (heap load), predicate, and native decorations — that the
//! cost-benefit analyses dispatch on.
//!
//! The same structure, instantiated with the *occurrence index* as the
//! domain, represents the unbounded concrete dependence graph of
//! traditional dynamic slicing (see [`crate::concrete`]); its memory growth
//! versus the abstract graph is one of the reproduction's experiments.

use crate::fx::{FxHashMap, FxHashSet};
use lowutil_ir::InstrId;
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hash;

/// Dense node index within one [`DepGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The paper's node decorations (Figure 3): how an instruction touches the
/// heap, or whether it is a pure consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeKind {
    /// A stack-only computation.
    #[default]
    Plain,
    /// An allocation ("underlined").
    Alloc,
    /// A heap load ("circled"): instance field, static field, array
    /// element, or array length.
    HeapLoad,
    /// A heap store ("boxed").
    HeapStore,
    /// A predicate consumer (`if`).
    Predicate,
    /// A native consumer/producer (program output boundary).
    Native,
}

impl NodeKind {
    /// Consumers (predicates and natives) represent the consumption of
    /// data: values reaching them benefit control flow or program output.
    pub fn is_consumer(self) -> bool {
        matches!(self, NodeKind::Predicate | NodeKind::Native)
    }

    /// Returns `true` for heap-reading nodes, which bound the backward
    /// traversal of relative-cost computation (Definition 5).
    pub fn reads_heap(self) -> bool {
        self == NodeKind::HeapLoad
    }

    /// Returns `true` for heap-writing nodes, which bound the forward
    /// traversal of relative-benefit computation (Definition 6).
    pub fn writes_heap(self) -> bool {
        self == NodeKind::HeapStore
    }

    /// The stable one-byte on-disk code of this kind (snapshot format v1).
    pub fn code(self) -> u8 {
        match self {
            NodeKind::Plain => 0,
            NodeKind::Alloc => 1,
            NodeKind::HeapLoad => 2,
            NodeKind::HeapStore => 3,
            NodeKind::Predicate => 4,
            NodeKind::Native => 5,
        }
    }

    /// Decodes [`code`](NodeKind::code); `None` for bytes outside the
    /// format.
    pub fn from_code(code: u8) -> Option<NodeKind> {
        Some(match code {
            0 => NodeKind::Plain,
            1 => NodeKind::Alloc,
            2 => NodeKind::HeapLoad,
            3 => NodeKind::HeapStore,
            4 => NodeKind::Predicate,
            5 => NodeKind::Native,
            _ => return None,
        })
    }
}

/// Payload of one abstract node.
#[derive(Debug, Clone)]
pub struct Node<D> {
    /// The static instruction.
    pub instr: InstrId,
    /// The abstract-domain element annotating it.
    pub elem: D,
    /// Execution frequency: how many instruction instances mapped here.
    pub freq: u64,
    /// Heap/consumer decoration.
    pub kind: NodeKind,
}

/// An abstract data dependence graph over domain elements `D`.
///
/// Edges are def-use: an edge `a → b` means (an instance of) `a` wrote a
/// location that (an instance of) `b` read without an intervening write.
/// Edge insertion is idempotent.
#[derive(Debug, Clone)]
pub struct DepGraph<D> {
    nodes: Vec<Node<D>>,
    index: FxHashMap<(InstrId, D), NodeId>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    edge_set: FxHashSet<(NodeId, NodeId)>,
    /// Fast path for the profiler's hot loops, which re-add the same edge
    /// on every iteration: the most recently added edge skips the set
    /// lookup.
    last_edge: Option<(NodeId, NodeId)>,
}

impl<D: Clone + Eq + Hash> Default for DepGraph<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Clone + Eq + Hash> DepGraph<D> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DepGraph {
            nodes: Vec::new(),
            index: FxHashMap::default(),
            succs: Vec::new(),
            preds: Vec::new(),
            edge_set: FxHashSet::default(),
            last_edge: None,
        }
    }

    /// Returns the node for `(instr, elem)`, creating it with frequency 0
    /// and the given kind if absent. The kind of an existing node is left
    /// unchanged (an instruction's kind never varies across instances).
    pub fn intern(&mut self, instr: InstrId, elem: D, kind: NodeKind) -> NodeId {
        match self.index.entry((instr, elem.clone())) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Node {
                    instr,
                    elem,
                    freq: 0,
                    kind,
                });
                self.succs.push(Vec::new());
                self.preds.push(Vec::new());
                e.insert(id);
                id
            }
        }
    }

    /// Looks up a node without creating it.
    pub fn find(&self, instr: InstrId, elem: &D) -> Option<NodeId> {
        self.index.get(&(instr, elem.clone())).copied()
    }

    /// Increments a node's execution frequency.
    pub fn bump(&mut self, node: NodeId) {
        self.nodes[node.index()].freq += 1;
    }

    /// Overwrites a node's execution frequency (used when reloading a
    /// serialized graph).
    pub fn set_freq(&mut self, node: NodeId, freq: u64) {
        self.nodes[node.index()].freq = freq;
    }

    /// Adds `delta` to a node's execution frequency (used when merging
    /// session graphs: frequencies of the same abstract node sum).
    pub fn add_freq(&mut self, node: NodeId, delta: u64) {
        self.nodes[node.index()].freq += delta;
    }

    /// Adds a def-use edge `from → to` (idempotent).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if self.last_edge == Some((from, to)) {
            return;
        }
        self.last_edge = Some((from, to));
        if self.edge_set.insert((from, to)) {
            self.succs[from.index()].push(to);
            self.preds[to.index()].push(from);
        }
    }

    /// The node payload.
    ///
    /// # Panics
    /// Panics if `node` is not in this graph.
    pub fn node(&self, node: NodeId) -> &Node<D> {
        &self.nodes[node.index()]
    }

    /// Successors (uses of this node's definition).
    pub fn succs(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node.index()]
    }

    /// Predecessors (definitions this node uses).
    pub fn preds(&self, node: NodeId) -> &[NodeId] {
        &self.preds[node.index()]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (deduplicated) edges.
    pub fn num_edges(&self) -> usize {
        self.edge_set.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<D>)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Approximate memory footprint of the graph in bytes (the paper's `M`
    /// column reports graph memory, excluding the shadow heap).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // Count content (lengths), not allocation capacities: the figure
        // must not depend on construction history, so a graph rebuilt from
        // an aggregate reports exactly what a live-built one does.
        let node_bytes = self.nodes.len() * size_of::<Node<D>>();
        let index_bytes = self.index.len() * (size_of::<(InstrId, D)>() + size_of::<NodeId>() + 16);
        let adj_bytes: usize = self
            .succs
            .iter()
            .chain(self.preds.iter())
            .map(|v| v.len() * size_of::<NodeId>())
            .sum();
        let edge_bytes = self.edge_set.len() * (size_of::<(NodeId, NodeId)>() + 16);
        node_bytes + index_bytes + adj_bytes + edge_bytes
    }

    /// Computes strongly connected components (Tarjan, iterative) and
    /// returns `(component index per node, number of components)`.
    /// Component indices are in reverse topological order: if `c1` has an
    /// edge into `c2`, then `comp[c1] > comp[c2]`.
    pub fn sccs(&self) -> (Vec<u32>, usize) {
        let n = self.nodes.len();
        let mut comp = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut disc = vec![u32::MAX; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut timer = 0u32;
        let mut n_comps = 0usize;

        // Iterative Tarjan with an explicit work stack of (node, child idx).
        let mut work: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if disc[start as usize] != u32::MAX {
                continue;
            }
            work.push((start, 0));
            while let Some(&(v, ci)) = work.last() {
                let vi = v as usize;
                if ci == 0 {
                    disc[vi] = timer;
                    low[vi] = timer;
                    timer += 1;
                    stack.push(v);
                    on_stack[vi] = true;
                }
                if ci < self.succs[vi].len() {
                    work.last_mut().expect("non-empty work stack").1 += 1;
                    let w = self.succs[vi][ci].0;
                    let wi = w as usize;
                    if disc[wi] == u32::MAX {
                        work.push((w, 0));
                    } else if on_stack[wi] {
                        low[vi] = low[vi].min(disc[wi]);
                    }
                } else {
                    if low[vi] == disc[vi] {
                        // v is an SCC root.
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w as usize] = false;
                            comp[w as usize] = n_comps as u32;
                            if w == v {
                                break;
                            }
                        }
                        n_comps += 1;
                    }
                    work.pop();
                    if let Some(&(p, _)) = work.last() {
                        let pi = p as usize;
                        low[pi] = low[pi].min(low[vi]);
                    }
                }
            }
        }
        (comp, n_comps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::MethodId;

    fn at(pc: u32) -> InstrId {
        InstrId::new(MethodId(0), pc)
    }

    #[test]
    fn intern_is_idempotent_per_instr_and_element() {
        let mut g: DepGraph<u32> = DepGraph::new();
        let a = g.intern(at(0), 1, NodeKind::Plain);
        let b = g.intern(at(0), 1, NodeKind::Plain);
        let c = g.intern(at(0), 2, NodeKind::Plain);
        let d = g.intern(at(1), 1, NodeKind::Plain);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.find(at(0), &1), Some(a));
        assert_eq!(g.find(at(9), &1), None);
    }

    #[test]
    fn edges_deduplicate() {
        let mut g: DepGraph<u32> = DepGraph::new();
        let a = g.intern(at(0), 0, NodeKind::Plain);
        let b = g.intern(at(1), 0, NodeKind::Plain);
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.succs(a), &[b]);
        assert_eq!(g.preds(b), &[a]);
    }

    #[test]
    fn frequencies_accumulate() {
        let mut g: DepGraph<u32> = DepGraph::new();
        let a = g.intern(at(0), 0, NodeKind::Plain);
        g.bump(a);
        g.bump(a);
        assert_eq!(g.node(a).freq, 2);
    }

    #[test]
    fn kinds_classify_consumers_and_heap_ops() {
        assert!(NodeKind::Predicate.is_consumer());
        assert!(NodeKind::Native.is_consumer());
        assert!(!NodeKind::Alloc.is_consumer());
        assert!(NodeKind::HeapLoad.reads_heap());
        assert!(NodeKind::HeapStore.writes_heap());
        assert!(!NodeKind::Plain.reads_heap());
    }

    #[test]
    fn scc_condensation_orders_reverse_topologically() {
        // a → b ⇄ c → d; SCCs: {a}, {b,c}, {d}; comp(a) > comp(bc) > comp(d).
        let mut g: DepGraph<u32> = DepGraph::new();
        let a = g.intern(at(0), 0, NodeKind::Plain);
        let b = g.intern(at(1), 0, NodeKind::Plain);
        let c = g.intern(at(2), 0, NodeKind::Plain);
        let d = g.intern(at(3), 0, NodeKind::Plain);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, b);
        g.add_edge(c, d);
        let (comp, n) = g.sccs();
        assert_eq!(n, 3);
        assert_eq!(comp[b.index()], comp[c.index()]);
        assert_ne!(comp[a.index()], comp[b.index()]);
        assert!(comp[a.index()] > comp[b.index()]);
        assert!(comp[b.index()] > comp[d.index()]);
    }

    #[test]
    fn scc_handles_self_loops_and_isolated_nodes() {
        let mut g: DepGraph<u32> = DepGraph::new();
        let a = g.intern(at(0), 0, NodeKind::Plain);
        let b = g.intern(at(1), 0, NodeKind::Plain);
        g.add_edge(a, a);
        let (comp, n) = g.sccs();
        assert_eq!(n, 2);
        assert_ne!(comp[a.index()], comp[b.index()]);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut g: DepGraph<u64> = DepGraph::new();
        let empty = g.approx_bytes();
        for i in 0..100 {
            let a = g.intern(at(i), 0, NodeKind::Plain);
            let b = g.intern(at(i + 1), 0, NodeKind::Plain);
            g.add_edge(a, b);
        }
        assert!(g.approx_bytes() > empty);
    }
}
