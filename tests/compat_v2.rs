//! Wire-format compatibility for trace v2: the checked-in v2 golden
//! trace (`samples/golden_v2.trace`, recorded from `samples/golden.lu`
//! at segment limit 64 by the v2 writer this crate once had) must keep
//! replaying byte-for-byte under every future reader. Together with
//! `compat_v1`, this pins that the v3 thread-id prologue extension
//! changed *nothing* for archived single-threaded traces in either
//! legacy format.

use lowutil::core::{CostGraphConfig, GraphBuilder};
use lowutil::ir::parse_program;
use lowutil::vm::{TraceReader, Vm, TRACE_VERSION_V2};
use lowutil_testkit::diff::canon;

const GOLDEN_TRACE: &[u8] = include_bytes!("../samples/golden_v2.trace");
const GOLDEN_SOURCE: &str = include_str!("../samples/golden.lu");

fn golden_program() -> lowutil::ir::Program {
    parse_program(GOLDEN_SOURCE).expect("golden source parses")
}

#[test]
fn golden_v2_fixture_replays_under_the_v3_reader() {
    let program = golden_program();
    let reader = TraceReader::new(GOLDEN_TRACE).expect("golden v2 trace parses");
    assert_eq!(reader.version(), TRACE_VERSION_V2);
    assert!(
        reader.segments().len() > 10,
        "fixture must be multi-segment to cover v2 framing"
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
    let replayed =
        lowutil::core::replay_cost_graph(&program, config, &reader).expect("golden trace replays");
    assert_eq!(
        canon(&replayed),
        canon(&live),
        "v2 fixture no longer rebuilds the live graph"
    );
}

#[test]
fn v2_checksums_still_reject_corruption() {
    // CRC framing is v2's contribution; the compatibility path must not
    // lose it. Flip one payload byte and the reader must refuse.
    let mut bytes = GOLDEN_TRACE.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert!(
        TraceReader::new(&bytes).is_err(),
        "corrupted v2 fixture parsed cleanly"
    );
}
