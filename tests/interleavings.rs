//! Pinned guest-thread interleavings. `tests/schedule.rs` shows that
//! race-free exports do not depend on the scheduler seed; this file pins
//! the schedule itself. Each multithreaded program is recorded under
//! scheduler seeds 0 and 1, and the v3 trace's length and CRC32, the
//! instructions executed and the number of thread switches must match
//! the constants below. Any change to the quantum stream, to what counts
//! against a quantum, or to where a switch lands moves the trace bytes
//! and fails here.

use lowutil::ir::{parse_program, Program};
use lowutil::vm::{crc32, CountingTracer, RunConfig, SinkTracer, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize};

const THREADS_SOURCE: &str = include_str!("../samples/threads.lu");

/// What one recorded run looks like from the outside.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    trace_len: usize,
    trace_crc: u32,
    instructions: u64,
    switches: u64,
}

fn record(p: &Program, sched_seed: u64) -> Pin {
    let mut writer = TraceWriter::new(Vec::new());
    let mut counter = CountingTracer::new();
    let out = {
        let mut tracer = (SinkTracer(&mut writer), &mut counter);
        Vm::with_config(
            p,
            RunConfig {
                sched_seed,
                ..RunConfig::default()
            },
        )
        .run(&mut tracer)
        .expect("program runs")
    };
    let (bytes, _) = writer.finish().expect("in-memory write cannot fail");
    Pin {
        trace_len: bytes.len(),
        trace_crc: crc32(&bytes),
        instructions: out.instructions_executed,
        switches: counter.switches,
    }
}

fn pin(trace_len: usize, trace_crc: u32, instructions: u64, switches: u64) -> Pin {
    Pin {
        trace_len,
        trace_crc,
        instructions,
        switches,
    }
}

fn check(name: &str, p: &Program, expected: [Pin; 2]) {
    for (seed, want) in expected.into_iter().enumerate() {
        let got = record(p, seed as u64);
        assert_eq!(got, want, "{name}: interleaving moved at sched seed {seed}");
    }
}

#[test]
fn pcqueue_interleaving_is_pinned() {
    let w = workload("pcqueue", WorkloadSize::Small);
    check(
        "pcqueue",
        &w.program,
        [
            pin(19_894, 0x7E4C_FED9, 2_069, 70),
            pin(19_779, 0xCACF_B50F, 2_069, 65),
        ],
    );
}

#[test]
fn mtserver_interleaving_is_pinned() {
    let w = workload("mtserver", WorkloadSize::Small);
    check(
        "mtserver",
        &w.program,
        [
            pin(42_351, 0xC91A_0ECD, 4_425, 67),
            pin(42_296, 0xBCEB_388F, 4_425, 64),
        ],
    );
}

#[test]
fn forkjoin_interleaving_is_pinned() {
    let w = workload("forkjoin", WorkloadSize::Small);
    check(
        "forkjoin",
        &w.program,
        [
            pin(8_553, 0x601E_ED2B, 999, 37),
            pin(8_433, 0x31C0_ADC0, 999, 30),
        ],
    );
}

#[test]
fn threads_sample_interleaving_is_pinned() {
    let p = parse_program(THREADS_SOURCE).expect("threads.lu parses");
    check(
        "threads.lu",
        &p,
        [
            pin(5_419, 0x9725_3E41, 588, 23),
            pin(5_310, 0xB597_EF67, 588, 17),
        ],
    );
}
