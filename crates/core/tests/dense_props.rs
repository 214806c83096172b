//! Property tests for dense interning: over arbitrary method layouts and
//! event sequences, the dense `|I| × |D|` table and the hashed
//! `(InstrId, CostElem)` index must build structurally identical
//! dependence graphs — same node ids, same nodes, same edges, and a
//! hashed index that stays queryable on the dense-built graph.

use lowutil_core::{CostElem, DenseInterner, DepGraph, InstrIndexer, NodeId, NodeKind};
use lowutil_ir::{ConstValue, InstrId, MethodId, Program, ProgramBuilder};
use proptest::prelude::*;

/// Builds a program whose method bodies have the given instruction
/// counts (`sizes[i] + 1` instructions each: `sizes[i]` constants plus a
/// return). The program is never executed — it only gives the
/// [`InstrIndexer`] a real multi-method layout to index.
fn layout_program(sizes: &[u8]) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut entry = None;
    for (i, &n) in sizes.iter().enumerate() {
        let mut mb = pb.method(format!("m{i}"), 0);
        let x = mb.new_local("x");
        for _ in 0..n {
            mb.constant(x, ConstValue::Int(0));
        }
        mb.ret_void();
        let id = mb.finish(&mut pb);
        entry.get_or_insert(id);
    }
    pb.finish(entry.expect("at least one method"))
        .expect("layout program is valid")
}

/// Every static instruction of `program`, in layout order.
fn all_instrs(program: &Program) -> Vec<InstrId> {
    let mut instrs = Vec::new();
    for (m, method) in program.methods().iter().enumerate() {
        for pc in 0..method.body().len() as u32 {
            instrs.push(InstrId::new(MethodId(m as u32), pc));
        }
    }
    instrs
}

fn kind_of(k: u8) -> NodeKind {
    match k % 6 {
        0 => NodeKind::Plain,
        1 => NodeKind::Alloc,
        2 => NodeKind::HeapLoad,
        3 => NodeKind::HeapStore,
        4 => NodeKind::Predicate,
        _ => NodeKind::Native,
    }
}

proptest! {
    #[test]
    fn dense_and_hashed_interning_build_identical_graphs(
        sizes in proptest::collection::vec(0u8..6, 1..6),
        slots in 1u32..9,
        events in proptest::collection::vec(
            (0u32..10_000, 0u32..64, 0u8..6),
            0..300,
        )
    ) {
        let program = layout_program(&sizes);
        let instrs = all_instrs(&program);
        let indexer = InstrIndexer::new(&program);
        prop_assert_eq!(indexer.num_instrs(), instrs.len());

        let cardinality = slots as usize + 1;
        let mut hashed: DepGraph<CostElem> = DepGraph::new();
        let mut dense: DepGraph<CostElem> = DepGraph::new();
        let mut table = DenseInterner::new(indexer.num_instrs(), cardinality);

        // Replay the same event sequence through both paths, wiring a
        // def-use edge from each node to the next as a profiler would.
        let mut prev: Option<(NodeId, NodeId)> = None;
        for (iraw, eraw, kraw) in events {
            let instr = instrs[iraw as usize % instrs.len()];
            let elem = match eraw % cardinality as u32 {
                0 => CostElem::NoCtx,
                k => CostElem::Ctx(k - 1),
            };
            let kind = kind_of(kraw);
            let a = hashed.intern(instr, elem, kind);
            let b = table.intern(&mut dense, &indexer, instr, elem, kind);
            prop_assert_eq!(a, b);
            hashed.bump(a);
            dense.bump(b);
            if let Some((pa, pb)) = prev {
                hashed.add_edge(pa, a);
                dense.add_edge(pb, b);
            }
            prev = Some((a, b));
        }

        prop_assert_eq!(hashed.num_nodes(), dense.num_nodes());
        prop_assert_eq!(hashed.num_edges(), dense.num_edges());
        for (id, n) in hashed.iter() {
            let m = dense.node(id);
            prop_assert_eq!(n.instr, m.instr);
            prop_assert_eq!(&n.elem, &m.elem);
            prop_assert_eq!(n.kind, m.kind);
            prop_assert_eq!(n.freq, m.freq);
            prop_assert_eq!(hashed.succs(id), dense.succs(id));
            // The hashed index inside the dense-built graph stays
            // authoritative: find() sees every dense-interned node.
            prop_assert_eq!(dense.find(n.instr, &n.elem), Some(id));
        }
    }
}
