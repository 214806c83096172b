//! Dense `|I| × |D|` node interning for bounded abstract domains.
//!
//! The whole point of abstract thin slicing (Definition 2) is that the
//! dependence graph is bounded by `|I| × |D|` — so when the domain `D`
//! can enumerate itself densely, the per-event node lookup does not
//! need a hash probe at all. [`DenseInterner`] fronts
//! [`DepGraph::intern`] with a flat `Vec<NodeId>` indexed by
//! `global_instr_index * |D| + elem.dense_index()`: the hot path is one
//! multiply-add and one array load. The hashed [`DepGraph`] index stays
//! authoritative (the cold path still goes through
//! [`DepGraph::intern`]), so `find`, serialization, and every graph
//! consumer are oblivious to which interning path built the graph —
//! the two produce structurally identical graphs by construction, and a
//! property test (`crates/core/tests/dense_props.rs`) checks it anyway.
//!
//! Domains that cannot enumerate themselves densely intern through
//! [`DepGraph::intern`] alone, as the generic [`crate::domain`] profiler
//! does; [`crate::concrete`] keeps one node per instance and interns
//! nothing.

use crate::graph::{DepGraph, NodeId, NodeKind};
use lowutil_ir::{InstrId, Program};
use std::hash::Hash;

/// A bounded abstract domain whose elements enumerate densely as
/// `0..cardinality`.
///
/// The cardinality is a run-time property of the profiler configuration
/// (for [`crate::gcost::CostElem`] it is `slots + 1`), so it is passed
/// to [`DenseInterner::new`] rather than baked into the trait; an
/// element's `dense_index` must be below the cardinality the interner
/// was built with.
pub trait DenseDomain: Clone + Eq + Hash {
    /// This element's index in `0..cardinality`.
    fn dense_index(&self) -> usize;
}

/// Maps every static instruction of a program to a dense global index
/// in `0..program.num_instrs()`, via per-method prefix sums.
#[derive(Debug, Clone)]
pub struct InstrIndexer {
    /// `method_offsets[m]` = number of instructions in methods `0..m`.
    method_offsets: Vec<u32>,
    num_instrs: usize,
}

impl InstrIndexer {
    /// Builds the indexer for a program.
    pub fn new(program: &Program) -> Self {
        let mut method_offsets = Vec::with_capacity(program.methods().len());
        let mut total: u32 = 0;
        for method in program.methods() {
            method_offsets.push(total);
            total += method.body().len() as u32;
        }
        InstrIndexer {
            method_offsets,
            num_instrs: total as usize,
        }
    }

    /// The dense global index of `instr`.
    #[inline]
    pub fn index(&self, instr: InstrId) -> usize {
        (self.method_offsets[instr.method.0 as usize] + instr.pc) as usize
    }

    /// Total number of static instructions.
    pub fn num_instrs(&self) -> usize {
        self.num_instrs
    }
}

/// Sentinel marking an empty table slot. Node ids are dense from 0, so
/// a graph would need 2³²−1 nodes before colliding with it.
const EMPTY: NodeId = NodeId(u32::MAX);

/// A flat `|I| × |D|` interning table fronting [`DepGraph::intern`].
#[derive(Debug, Clone)]
pub struct DenseInterner {
    table: Vec<NodeId>,
    cardinality: usize,
}

impl DenseInterner {
    /// Creates a table for `num_instrs` static instructions and a
    /// domain of `cardinality` elements.
    pub fn new(num_instrs: usize, cardinality: usize) -> Self {
        let slots = num_instrs * cardinality;
        debug_assert!(slots <= u32::MAX as usize, "table exceeds u32 slot width");
        DenseInterner {
            table: vec![EMPTY; slots],
            cardinality,
        }
    }

    /// The domain cardinality this table was sized for.
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// Total slot count (`num_instrs × cardinality`) this table holds.
    pub fn num_slots(&self) -> usize {
        self.table.len()
    }

    /// Approximate memory footprint of the table in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Returns the node for `(instr, elem)`, creating it in `graph` if
    /// absent. Hot path: one multiply-add and one array load; the
    /// hashed index inside `graph` is only touched on first sight of a
    /// pair, keeping [`DepGraph::find`] and friends consistent.
    ///
    /// # Panics
    /// Panics if `instr` is outside the program the `indexer` was built
    /// from, or `elem.dense_index() >= self.cardinality()`.
    #[inline]
    pub fn intern<D: DenseDomain>(
        &mut self,
        graph: &mut DepGraph<D>,
        indexer: &InstrIndexer,
        instr: InstrId,
        elem: D,
        kind: NodeKind,
    ) -> NodeId {
        let di = elem.dense_index();
        debug_assert!(di < self.cardinality, "dense index out of bounds");
        let slot = indexer.index(instr) * self.cardinality + di;
        let cached = self.table[slot];
        if cached != EMPTY {
            return cached;
        }
        let id = graph.intern(instr, elem, kind);
        self.table[slot] = id;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_ir::MethodId;

    impl DenseDomain for u32 {
        fn dense_index(&self) -> usize {
            *self as usize
        }
    }

    fn at(m: u32, pc: u32) -> InstrId {
        InstrId::new(MethodId(m), pc)
    }

    #[test]
    fn dense_intern_matches_hashed_intern() {
        // Fake a 2-method layout: method 0 has 3 instrs, method 1 has 2.
        let indexer = InstrIndexer {
            method_offsets: vec![0, 3],
            num_instrs: 5,
        };
        let card = 4;
        let mut di = DenseInterner::new(indexer.num_instrs(), card);
        let mut dense: DepGraph<u32> = DepGraph::new();
        let mut hashed: DepGraph<u32> = DepGraph::new();
        let events = [
            (at(0, 0), 1u32),
            (at(0, 2), 0),
            (at(1, 1), 3),
            (at(0, 0), 1),
            (at(1, 1), 3),
            (at(0, 0), 2),
        ];
        for &(instr, elem) in &events {
            let a = di.intern(&mut dense, &indexer, instr, elem, NodeKind::Plain);
            let b = hashed.intern(instr, elem, NodeKind::Plain);
            assert_eq!(a, b);
        }
        assert_eq!(dense.num_nodes(), hashed.num_nodes());
        // The dense-built graph's own hashed index stays queryable.
        assert_eq!(dense.find(at(0, 0), &1), hashed.find(at(0, 0), &1));
    }

    #[test]
    fn indexer_assigns_contiguous_indices() {
        let indexer = InstrIndexer {
            method_offsets: vec![0, 4, 9],
            num_instrs: 12,
        };
        assert_eq!(indexer.index(at(0, 0)), 0);
        assert_eq!(indexer.index(at(0, 3)), 3);
        assert_eq!(indexer.index(at(1, 0)), 4);
        assert_eq!(indexer.index(at(2, 2)), 11);
    }

    #[test]
    fn table_bytes_scale_with_domain() {
        let small = DenseInterner::new(100, 2);
        let large = DenseInterner::new(100, 17);
        assert!(large.approx_bytes() > small.approx_bytes());
    }
}
