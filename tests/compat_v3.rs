//! Wire-format compatibility for trace v3: the checked-in v3 golden
//! trace (`samples/golden_v3.trace`, recorded from `samples/golden.lu`
//! at segment limit 64 by the writer that split segments only at frame
//! pushes) must keep replaying under every future reader. The committed
//! bytes are the pin, as `compat_v1` and `compat_v2` pin the legacy
//! formats: a writer change cannot move them.

use lowutil::core::{CostGraphConfig, GraphBuilder};
use lowutil::ir::{parse_program, ThreadId};
use lowutil::vm::{SinkTracer, TraceReader, Vm, TRACE_VERSION};
use lowutil_testkit::diff::canon;

const GOLDEN_TRACE: &[u8] = include_bytes!("../samples/golden_v3.trace");
const GOLDEN_SOURCE: &str = include_str!("../samples/golden.lu");

fn golden_program() -> lowutil::ir::Program {
    parse_program(GOLDEN_SOURCE).expect("golden source parses")
}

#[test]
fn golden_v3_fixture_replays_to_the_live_graph() {
    let program = golden_program();
    let reader = TraceReader::new(GOLDEN_TRACE).expect("golden v3 trace parses");
    assert_eq!(reader.version(), TRACE_VERSION);
    assert!(
        reader.segments().len() > 10,
        "fixture must be multi-segment to cover v3 framing"
    );
    assert_eq!(reader.trailer().segments, reader.segments().len() as u64);
    assert!(reader
        .segments()
        .iter()
        .all(|s| s.prologue().thread == ThreadId::MAIN));

    let config = CostGraphConfig::default();
    let mut builder = SinkTracer(GraphBuilder::new(&program, config));
    let out = Vm::new(&program)
        .run(&mut builder)
        .expect("golden program runs");
    let live = builder.0.finish();
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
        "v3 fixture no longer rebuilds the live graph"
    );
}

#[test]
fn v3_checksums_still_reject_corruption() {
    let mut bytes = GOLDEN_TRACE.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert!(
        TraceReader::new(&bytes).is_err(),
        "corrupted v3 fixture parsed cleanly"
    );
}
