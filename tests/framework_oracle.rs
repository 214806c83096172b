//! The paper's generic framework as an oracle for `G_cost`.
//!
//! PAPER.md §1 presents cost-benefit analysis as one instance of abstract
//! dynamic thin slicing. `AbstractProfiler` is that framework written
//! generically, and `GraphBuilder` is a hand-specialised instance of it.
//! At `slots = 1` every value-producing instruction has one context, so
//! the framework over a one-point domain must build the same graph: the
//! same nodes (instruction, frequency, kind) and the same def-use edges,
//! on the concurrent workloads too, whose edges cross spawns and joins.
//!
//! One exception is named. `G_cost` adds an edge from an array's
//! allocation to each `ArrayLen` of it ("the length was produced by the
//! allocation"), where thin slicing gives `ArrayLen` no predecessor.
//! Which reading matches the paper is ROADMAP item 6's open question, so
//! those edges alone are set aside here.

use lowutil::core::{AbstractDomain, AbstractProfiler, CostGraphConfig, CostProfiler, DepGraph};
use lowutil::ir::{Instr, InstrId, Program};
use lowutil::vm::{Event, Vm};
use lowutil::workloads::{suite, WorkloadSize};
use std::collections::BTreeSet;
use std::hash::Hash;

/// The one-point domain: every instruction instance is tracked, under
/// the same element.
struct OnePoint;

impl AbstractDomain for OnePoint {
    type Elem = ();

    fn classify(&mut self, _: &Event) -> Option<()> {
        Some(())
    }
}

/// A graph's nodes as sorted `(instr, freq, kind code)`.
type Nodes = Vec<(InstrId, u64, u8)>;

/// A graph's edges as instruction pairs.
type Edges = BTreeSet<(InstrId, InstrId)>;

fn shape<D: Clone + Eq + Hash>(g: &DepGraph<D>) -> (Nodes, Edges) {
    let mut nodes: Vec<_> = g
        .iter()
        .map(|(_, n)| (n.instr, n.freq, n.kind.code()))
        .collect();
    nodes.sort_unstable();
    let edges = g
        .iter()
        .flat_map(|(id, n)| g.succs(id).iter().map(move |&s| (n.instr, g.node(s).instr)))
        .collect();
    (nodes, edges)
}

/// The named exception: an edge from a `NewArray` to an `ArrayLen`.
fn is_array_len_edge(p: &Program, (from, to): (InstrId, InstrId)) -> bool {
    matches!(p.instr(from), Instr::NewArray { .. }) && matches!(p.instr(to), Instr::ArrayLen { .. })
}

#[test]
fn framework_reproduces_gcost_at_one_slot() {
    let config = CostGraphConfig {
        slots: 1,
        ..CostGraphConfig::default()
    };
    let workloads = suite(WorkloadSize::Small);
    assert_eq!(workloads.len(), 21);
    for w in workloads {
        let (p, name) = (&w.program, w.name);
        let mut gcost = CostProfiler::new(p, config);
        Vm::new(p).run(&mut gcost).expect("profiled run");
        let mut framework = AbstractProfiler::new(OnePoint);
        Vm::new(p).run(&mut framework).expect("framework run");
        let (want_nodes, want_edges) = shape(gcost.finish().graph());
        let (nodes, edges) = shape(framework.graph());
        assert_eq!(nodes, want_nodes, "{name}: nodes");
        let extra: Vec<_> = edges.difference(&want_edges).collect();
        assert!(extra.is_empty(), "{name}: edges G_cost lacks: {extra:?}");
        let missing: Vec<_> = want_edges
            .difference(&edges)
            .filter(|&&e| !is_array_len_edge(p, e))
            .collect();
        assert!(
            missing.is_empty(),
            "{name}: edges the framework lacks: {missing:?}"
        );
    }
}
