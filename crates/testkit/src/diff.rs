//! Differential assertion helpers shared by the integration suites.
//!
//! The pipeline's core correctness claim is an identity: the live
//! profile and the replay of a recorded trace must produce
//! byte-identical cost graphs under the canonical export. Salvage extends the chain to
//! damaged traces: the salvaged graph must equal the original graph
//! restricted to the kept segment prefix. These helpers state those
//! identities once, with panics that name the diverging stage.

use lowutil_core::shard::replay_segments;
use lowutil_core::{write_cost_graph, CostGraph, CostGraphConfig, GraphBuilder};
use lowutil_ir::Program;
use lowutil_par::{replay_gcost, salvage_replay_gcost};
use lowutil_vm::trace::TraceReader;
use lowutil_vm::{SinkTracer, TraceStats, TraceWriter, Vm};

/// The canonical byte serialization of a cost graph — the form in which
/// "identical" is judged everywhere in the workspace.
///
/// # Panics
/// Panics if serialization fails (it writes to memory; it cannot).
pub fn canon(g: &CostGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_cost_graph(g, &mut buf).expect("in-memory serialization cannot fail");
    buf
}

/// Runs `program` once, simultaneously building the live cost graph and
/// recording a trace with the given segment limit. Returns the trace
/// bytes, the recording stats, and the live graph.
///
/// # Panics
/// Panics if the program traps — callers pass known-good programs.
pub fn record_with_live_graph(
    program: &Program,
    config: CostGraphConfig,
    segment_limit: usize,
) -> (Vec<u8>, TraceStats, CostGraph) {
    let mut builder = GraphBuilder::new(program, config);
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), segment_limit);
    {
        let mut tracer = SinkTracer((&mut builder, &mut writer));
        Vm::new(program).run(&mut tracer).expect("program runs");
    }
    let (bytes, stats) = writer.finish().expect("in-memory write cannot fail");
    (bytes, stats, builder.finish())
}

/// Asserts the identity on one program: live graph == replay of the
/// recorded trace, judged on canonical bytes. Returns the trace bytes so callers can
/// feed them to the corruption harness without re-recording.
///
/// # Panics
/// Panics (with `label`) on any divergence, on a trap, or on a
/// malformed trace — all test failures.
pub fn assert_live_replay_identical(
    program: &Program,
    config: CostGraphConfig,
    segment_limit: usize,
    label: &str,
) -> Vec<u8> {
    let (bytes, _, live) = record_with_live_graph(program, config, segment_limit);
    let live_bytes = canon(&live);
    let reader = TraceReader::new(&bytes)
        .unwrap_or_else(|e| panic!("{label}: fresh recording failed to parse: {e}"));
    let g = replay_gcost(program, config, &reader, 1)
        .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
    assert!(
        canon(&g) == live_bytes,
        "{label}: replay diverged from live"
    );
    bytes
}

/// Asserts salvage correctness of `mutated` against the `original` clean
/// trace it was derived from:
///
/// 1. the salvaged segments are **byte-identical** to the original's
///    first `segments_kept` segments (prefix property — guaranteed by
///    the v2 per-segment index + CRC, for any mutation);
/// 2. the salvaged graph equals [`replay_segments`] over exactly that
///    original prefix, canonically.
///
/// Returns `None` when the mutation destroyed the header (nothing to
/// salvage — a legal outcome the caller just counts).
///
/// # Panics
/// Panics (with `label`) if salvage keeps a non-prefix, diverges from
/// the prefix graph, or fails on a clean original — all test failures.
pub fn assert_salvage_matches_prefix(
    program: &Program,
    config: CostGraphConfig,
    original: &[u8],
    mutated: &[u8],
    label: &str,
) -> Option<lowutil_vm::SalvageStats> {
    let orig = TraceReader::new(original)
        .unwrap_or_else(|e| panic!("{label}: original trace must be clean: {e}"));
    let (salvaged, stats) = match TraceReader::salvage(mutated) {
        Ok(r) => r,
        Err(_) => return None, // header destroyed: nothing to salvage
    };
    let k = stats.segments_kept;
    assert_eq!(salvaged.segments().len(), k, "{label}: stats disagree");
    assert!(
        k <= orig.segments().len(),
        "{label}: salvage kept {k} segments, original has {}",
        orig.segments().len()
    );
    for (i, (s, o)) in salvaged.segments().iter().zip(orig.segments()).enumerate() {
        assert!(
            s.payload() == o.payload() && s.prologue() == o.prologue(),
            "{label}: kept segment {i} is not byte-identical to the original"
        );
    }
    let prefix = replay_segments(program, config, &orig.segments()[..k])
        .unwrap_or_else(|e| panic!("{label}: prefix replay failed: {e}"));
    let prefix_bytes = canon(&prefix);
    let (g, st) = salvage_replay_gcost(program, config, mutated)
        .unwrap_or_else(|e| panic!("{label}: salvage replay failed: {e}"));
    assert_eq!(st.segments_kept, k, "{label}: salvage not deterministic");
    assert!(
        canon(&g) == prefix_bytes,
        "{label}: salvaged graph != prefix graph"
    );
    Some(stats)
}
