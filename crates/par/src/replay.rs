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
use lowutil_vm::trace::{SalvageStats, TraceError, TraceReader};

/// Rebuilds `G_cost` from a recorded trace.
///
/// The result is identical — byte-for-byte under the canonical
/// serialization — to a live profiling run. `jobs` does not affect
/// graph construction, which is always one sequential pass; the
/// parameter is kept so callers can pass their `--jobs` value through
/// unchanged (the analyses that follow still use it).
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

/// Like [`replay_gcost`], but on a possibly damaged trace: salvages the
/// longest checksum-valid segment prefix, warns on stderr about anything
/// it had to skip, and replays the kept segments.
///
/// The graph is byte-identical (canonical export) to a live run of the
/// original program stopped at the salvage boundary — replay sees a kept
/// prefix exactly as it would a shorter clean trace.
///
/// # Errors
/// Fails only when the header is unusable (nothing to salvage) or — a
/// bug, given salvage trial-decodes every kept segment — a kept segment
/// fails to replay.
pub fn salvage_replay_gcost(
    program: &Program,
    config: CostGraphConfig,
    bytes: &[u8],
) -> Result<(CostGraph, SalvageStats), TraceError> {
    let (reader, stats) = TraceReader::salvage(bytes)?;
    if !stats.is_clean() {
        eprintln!("warning: trace damaged; {}", stats.summary());
    }
    let graph = replay_cost_graph(program, config, &reader)?;
    Ok((graph, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_core::{write_cost_graph, GraphBuilder};
    use lowutil_ir::parse_program;
    use lowutil_vm::trace::TraceWriter;
    use lowutil_vm::{SinkTracer, Vm};

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
        {
            let mut tracer = SinkTracer((&mut builder, &mut writer));
            Vm::new(&p).run(&mut tracer).unwrap();
        }
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
