//! Ultimately-dead values and predicate-only values: the paper's IPD, IPP,
//! and NLD metrics (Table 1 part (c)).
//!
//! * `D` — non-consumer sink nodes (no outgoing def-use edges): their
//!   values are never used by anything.
//! * `D*` — nodes that can lead *only* to nodes in `D`; equivalently,
//!   nodes from which no consumer (predicate or native) is reachable.
//!   **IPD** is the fraction of instruction instances represented by `D*`;
//!   **NLD** the fraction of graph nodes in `D*`.
//! * `P*` — nodes whose values reach predicates but never a native
//!   (program output): work spent purely on control decisions. **IPP** is
//!   the corresponding instance fraction.

use lowutil_core::csr::CsrGraph;
use lowutil_core::{CostGraph, NodeId, NodeKind};

/// The Table 1(c) measurements for one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadValueMetrics {
    /// Fraction of instruction instances that (directly or transitively)
    /// produce only ultimately-dead values.
    pub ipd: f64,
    /// Fraction of instruction instances whose values end up only in
    /// predicates.
    pub ipp: f64,
    /// Fraction of graph nodes all of whose instances produce
    /// ultimately-dead values.
    pub nld: f64,
    /// The nodes in `D*` (ultimately dead).
    pub dead_nodes: Vec<NodeId>,
    /// The nodes in `P*` (predicate-only).
    pub predicate_only_nodes: Vec<NodeId>,
    /// Total instruction instances used as the denominator (`I`).
    pub total_instances: u64,
}

/// Computes IPD/IPP/NLD over a finished `G_cost`.
///
/// `total_instances` is the run's full instruction count (the VM outcome's
/// `instructions_executed`); the paper's `I` column. Consumer nodes produce
/// no values and are excluded from `D*`/`P*` by construction.
pub fn dead_value_metrics(gcost: &CostGraph, total_instances: u64) -> DeadValueMetrics {
    dead_value_metrics_csr(&CsrGraph::build(gcost.graph()), total_instances)
}

/// [`dead_value_metrics`] over an already-built CSR snapshot. The two
/// reachability passes (from all consumers, from all natives) run as
/// multi-source bitset traversals. A caller that also ranks builds the
/// snapshot once, hands it to
/// [`BatchAnalyzer::with_csr`](crate::batch::BatchAnalyzer::with_csr)
/// and passes [`csr()`](crate::batch::BatchAnalyzer::csr)'s value here.
pub fn dead_value_metrics_csr(csr: &CsrGraph, total_instances: u64) -> DeadValueMetrics {
    let ids = (0..csr.num_nodes() as u32).map(NodeId);
    let consumers: Vec<NodeId> = ids.clone().filter(|&n| csr.kind(n).is_consumer()).collect();
    let natives: Vec<NodeId> = consumers
        .iter()
        .copied()
        .filter(|&n| csr.kind(n) == NodeKind::Native)
        .collect();

    // Nodes that reach any consumer.
    let alive = csr.reach_backward(consumers.iter().copied());
    // Nodes that reach a native (program output).
    let reaches_output = csr.reach_backward(natives.iter().copied());

    let mut dead_nodes = Vec::new();
    let mut predicate_only_nodes = Vec::new();
    let mut dead_freq = 0u64;
    let mut pred_freq = 0u64;
    for id in ids {
        if csr.kind(id).is_consumer() {
            continue;
        }
        if !alive.contains(id.index()) {
            dead_nodes.push(id);
            dead_freq += csr.freq(id);
        } else if !reaches_output.contains(id.index()) {
            predicate_only_nodes.push(id);
            pred_freq += csr.freq(id);
        }
    }

    let total = total_instances.max(1) as f64;
    let nodes = csr.num_nodes().max(1) as f64;
    DeadValueMetrics {
        ipd: dead_freq as f64 / total,
        ipp: pred_freq as f64 / total,
        nld: dead_nodes.len() as f64 / nodes,
        dead_nodes,
        predicate_only_nodes,
        total_instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_core::{CostGraphConfig, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    fn profile(src: &str) -> (CostGraph, u64) {
        let p = parse_program(src).expect("parse");
        let mut prof = CostProfiler::new(&p, CostGraphConfig::default());
        let out = Vm::new(&p).run(&mut prof).expect("run");
        (prof.finish(), out.instructions_executed)
    }

    #[test]
    fn dead_chain_is_detected() {
        // d1/d2 feed a field that is never read; u reaches print.
        let (g, total) = profile(
            r#"
native print/1
class Sink { dead }
method main/0 {
  s = new Sink
  d1 = 10
  d2 = d1 * d1
  s.dead = d2
  u = 42
  native print(u)
  return
}
"#,
        );
        let m = dead_value_metrics(&g, total);
        assert!(m.ipd > 0.0, "dead work measured: {}", m.ipd);
        assert!(!m.dead_nodes.is_empty());
        // The store into s.dead is a sink; d1, d2 lead only to it.
        assert!(m.dead_nodes.len() >= 3);
        // u = 42 reaches output → not dead, not predicate-only.
        assert!(m.ipd < 1.0);
    }

    #[test]
    fn predicate_only_work_is_separated_from_output_work() {
        let (g, total) = profile(
            r#"
native print/1
method main/0 {
  i = 0
  one = 1
  lim = 100
loop:
  if i >= lim goto done
  i = i + one
  goto loop
done:
  x = 5
  native print(x)
  return
}
"#,
        );
        let m = dead_value_metrics(&g, total);
        // The loop counter work ends in the predicate: large IPP. (Each
        // iteration executes branch + add + goto; only the add produces a
        // value, so IPP approaches 1/3 of all instances.)
        assert!(m.ipp > 0.3, "loop work is predicate-only: {}", m.ipp);
        // x = 5 reaches print: not counted.
        assert!(m.ipp < 1.0);
        assert_eq!(m.ipd, 0.0, "nothing is fully dead here");
    }

    #[test]
    fn all_consumed_program_has_zero_ipd() {
        let (g, total) = profile(
            r#"
native print/1
method main/0 {
  a = 1
  b = 2
  c = a + b
  native print(c)
  return
}
"#,
        );
        let m = dead_value_metrics(&g, total);
        assert_eq!(m.ipd, 0.0);
        assert_eq!(m.ipp, 0.0);
        assert_eq!(m.nld, 0.0);
    }

    #[test]
    fn heap_roundtrip_that_is_dead_counts_fully() {
        // Value goes through the heap and back, then dies.
        let (g, total) = profile(
            r#"
class Box { v }
method main/0 {
  b = new Box
  x = 3
  b.v = x
  y = b.v
  z = y + y
  return
}
"#,
        );
        let m = dead_value_metrics(&g, total);
        // Everything is dead (no consumer in the program).
        assert!(m.nld > 0.9, "all value nodes dead: {}", m.nld);
    }

    #[test]
    fn prebuilt_snapshot_matches_fresh_build() {
        let (g, total) = profile(
            r#"
native print/1
class Sink { dead }
method main/0 {
  s = new Sink
  d1 = 10
  s.dead = d1
  u = 42
  native print(u)
  return
}
"#,
        );
        let fresh = dead_value_metrics(&g, total);
        let csr = CsrGraph::build(g.graph());
        let reused = dead_value_metrics_csr(&csr, total);
        assert_eq!(fresh.dead_nodes, reused.dead_nodes);
        assert_eq!(fresh.predicate_only_nodes, reused.predicate_only_nodes);
        assert_eq!(fresh.ipd, reused.ipd);
        assert_eq!(fresh.ipp, reused.ipp);
        assert_eq!(fresh.nld, reused.nld);
    }

    #[test]
    fn denominators_are_robust_to_zero() {
        let (g, _) = profile("method main/0 {\n  return\n}\n");
        let m = dead_value_metrics(&g, 0);
        assert_eq!(m.ipd, 0.0);
        assert_eq!(m.total_instances, 0);
    }
}
