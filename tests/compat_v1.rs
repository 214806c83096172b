//! Wire-format compatibility: the checked-in v1 golden trace
//! (`samples/golden_v1.trace`, recorded from `samples/golden.lu` by the
//! v1 writer this crate once had) must keep replaying byte-for-byte
//! under every future reader. The committed bytes are the pin: any
//! silent reader drift — in varint decoding, segment framing, prologue
//! layout, or event tags — fails loudly here before it can strand
//! anyone's archived traces.

use lowutil::core::{CostGraphConfig, GraphBuilder};
use lowutil::ir::parse_program;
use lowutil::vm::{
    Event, EventSink, FrameInfo, TraceReader, TraceWriter, Trailer, Vm, TRACE_VERSION,
    TRACE_VERSION_V1,
};
use lowutil_testkit::diff::canon;

const GOLDEN_TRACE: &[u8] = include_bytes!("../samples/golden_v1.trace");
const GOLDEN_SOURCE: &str = include_str!("../samples/golden.lu");
/// The segment limit the fixture was recorded with.
const GOLDEN_SEGMENT_LIMIT: usize = 64;

fn golden_program() -> lowutil::ir::Program {
    parse_program(GOLDEN_SOURCE).expect("golden source parses")
}

#[test]
fn golden_v1_fixture_replays_under_the_v2_reader() {
    let program = golden_program();
    let reader = TraceReader::new(GOLDEN_TRACE).expect("golden v1 trace parses");
    assert_eq!(reader.version(), TRACE_VERSION_V1);
    assert!(
        reader.segments().len() > 10,
        "fixture must be multi-segment to cover v1 framing"
    );
    assert_eq!(reader.trailer().segments, reader.segments().len() as u64);

    // The replayed graph equals a live profile of the same program.
    let config = CostGraphConfig::default();
    let mut builder = GraphBuilder::new(&program, config);
    let out = Vm::new(&program)
        .run(&mut builder)
        .expect("golden program runs");
    let live = builder.finish();
    assert_eq!(reader.trailer().instructions, out.instructions_executed);
    assert_eq!(
        reader.trailer().objects_allocated,
        out.objects_allocated as u64
    );
    let replayed =
        lowutil::core::replay_cost_graph(&program, config, &reader).expect("golden trace replays");
    assert_eq!(
        canon(&replayed),
        canon(&live),
        "v1 fixture no longer rebuilds the live graph"
    );
}

/// Renders every record a replay delivers, for stream comparison.
#[derive(Default)]
struct StreamLog(Vec<String>);

impl EventSink for StreamLog {
    fn event(&mut self, e: &Event) {
        self.0.push(format!("{e:?}"));
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        self.0.push(format!("push {info:?}"));
    }

    fn frame_pop(&mut self) {
        self.0.push("pop".to_string());
    }
}

#[test]
fn v2_recording_of_the_golden_program_differs_only_in_envelope() {
    // Same program, current writer: the reader negotiates each version
    // from its header, and both replay the identical record stream with
    // the same run totals. Where the writers split segments is not
    // compared: the v1 writer split only at frame pushes.
    let program = golden_program();
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), GOLDEN_SEGMENT_LIMIT);
    Vm::new(&program)
        .run(&mut writer)
        .expect("golden program runs");
    let (bytes, _) = writer.finish().expect("in-memory write succeeds");
    let current = TraceReader::new(&bytes).expect("current trace parses");
    let v1 = TraceReader::new(GOLDEN_TRACE).expect("v1 trace parses");
    assert_eq!(current.version(), TRACE_VERSION);
    assert_eq!(v1.version(), TRACE_VERSION_V1);
    let totals = |t: &Trailer| Trailer { segments: 0, ..*t };
    assert_eq!(totals(current.trailer()), totals(v1.trailer()));
    let (mut a, mut b) = (StreamLog::default(), StreamLog::default());
    current.replay(&mut a).expect("current trace replays");
    v1.replay(&mut b).expect("v1 trace replays");
    assert_eq!(a.0, b.0, "identical stream across wire versions");
}

#[test]
fn v1_traces_salvage_too() {
    // v1 has no checksums, so salvage can only lean on framing — but it
    // must still recover cleanly-truncated prefixes without panicking.
    let program = golden_program();
    let full = TraceReader::new(GOLDEN_TRACE).expect("golden trace parses");
    for cut in [GOLDEN_TRACE.len() / 3, GOLDEN_TRACE.len() / 2] {
        let (reader, stats) =
            TraceReader::salvage(&GOLDEN_TRACE[..cut]).expect("v1 header salvages");
        assert!(!stats.is_clean());
        assert!(stats.segments_kept < full.segments().len());
        let config = CostGraphConfig::default();
        let salvaged = lowutil::core::replay_cost_graph(&program, config, &reader)
            .expect("salvaged v1 prefix replays");
        let prefix = lowutil::core::replay_segments(
            &program,
            config,
            &full.segments()[..stats.segments_kept],
        )
        .expect("prefix replays");
        assert_eq!(canon(&salvaged), canon(&prefix), "cut at {cut}");
    }
}
