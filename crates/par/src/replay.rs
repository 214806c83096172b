//! Trace replay: rebuild `G_cost` from a recorded trace in one
//! sequential pass through a single `GraphBuilder`.
//!
//! Replay used to fan segments across workers (two prescans for the
//! object table, one shard build per segment, then a merge). Measured
//! over the suite's 21 traces at `small`, that path did about twice the
//! sequential work — each prescan is a full decode, and decoding alone
//! is ~63% of a sequential replay — and it could not balance: segments
//! then split only at frame pushes, so one segment held nearly all of a
//! big trace (10.61 of tomcat's 10.90 MB). It never beat one thread, so
//! it is gone. Segments are now bounded (at most 16,384 records each),
//! so the second reason is gone; the first, the prescans' extra decodes,
//! stands.

use lowutil_core::shard::replay_cost_graph;
use lowutil_core::{CostGraph, CostGraphConfig};
use lowutil_ir::Program;
use lowutil_vm::trace::{TraceError, TraceReader};

/// Rebuilds `G_cost` from a recorded trace: a thin wrapper over
/// [`replay_cost_graph`], which every other caller calls directly.
///
/// The result is identical — byte-for-byte under the canonical
/// serialization — to a live profiling run. `_jobs` is ignored: graph
/// construction is one sequential pass. The function and its parameter
/// stay for the benchmark harness, which calls them.
///
/// # Errors
/// Fails on a malformed trace.
pub fn replay_gcost(
    program: &Program,
    config: CostGraphConfig,
    reader: &TraceReader<'_>,
    _jobs: usize,
) -> Result<CostGraph, TraceError> {
    replay_cost_graph(program, config, reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_core::{write_cost_graph, GraphBuilder};
    use lowutil_ir::parse_program;
    use lowutil_vm::trace::TraceWriter;
    use lowutil_vm::Vm;

    fn bytes_of(g: &CostGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_cost_graph(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn replay_matches_live_across_segments() {
        let p = parse_program(
            r#"
native print/1
class A { f }
method main/0 {
  x = 2
  a1 = new A
  a1.f = x
  a2 = new A
  a2.f = x
  i = 0
  one = 1
  lim = 8
loop:
  if i >= lim goto done
  r1 = vcall get(a1)
  r2 = vcall get(a2)
  s = call sum(r1, r2)
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
"#,
        )
        .unwrap();
        let config = CostGraphConfig::default();
        let mut builder = GraphBuilder::new(&p, config);
        let mut writer = TraceWriter::with_segment_limit(Vec::new(), 4);
        Vm::new(&p).run(&mut (&mut builder, &mut writer)).unwrap();
        let live = bytes_of(&builder.finish());
        let (trace, stats) = writer.finish().unwrap();
        assert!(stats.segments > 2, "test must span several segments");

        let reader = TraceReader::new(&trace).unwrap();
        let replayed = bytes_of(&replay_gcost(&p, config, &reader, 1).unwrap());
        assert_eq!(
            String::from_utf8_lossy(&live),
            String::from_utf8_lossy(&replayed)
        );
    }
}
