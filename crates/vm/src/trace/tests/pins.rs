//! Pins of the decoder's failure behaviour: one record per content-error
//! class, and a seeded in-payload mutation sweep folded into one digest.
//! The constants are fixed points, not expectations to regenerate: a
//! decoder change must reproduce these error offsets, messages and
//! delivered prefixes exactly.

use super::*;

/// A v3 trace of one segment on thread 0 (empty prologue) carrying
/// `payload`, checksummed over whatever the payload holds, then a
/// trailer.
fn framed(payload: &[u8]) -> Vec<u8> {
    framed_on(0, payload)
}

/// [`framed`], with the prologue naming `thread`.
fn framed_on(thread: u32, payload: &[u8]) -> Vec<u8> {
    // Index 0, then the prologue: `thread`, no frames, not in a phase,
    // first gid 0.
    let mut prologue = Vec::new();
    put_u32(&mut prologue, thread);
    prologue.extend_from_slice(&[0, 0, 0]);
    let mut body = vec![0, prologue.len() as u8];
    body.extend_from_slice(&prologue);
    put_u64(&mut body, payload.len() as u64);
    body.extend_from_slice(payload);
    let mut t = TRACE_MAGIC.to_vec();
    put_u64(&mut t, TRACE_VERSION);
    for (tag, body) in [(TAG_SEGMENT, body), (TAG_TRAILER, vec![0, 0, 0, 0, 1])] {
        t.push(tag);
        put_u64(&mut t, body.len() as u64);
        t.extend_from_slice(&body);
        t.extend_from_slice(&crc32(&body).to_le_bytes());
    }
    t
}

/// Every content-error class inside a checksum-valid segment fails
/// with the offset and message the decoder has always given, the
/// same through `replay`, `salvage` and the streaming reader, after
/// delivering the clean record in front of it. The streaming reader
/// counts none of the failed segment: its progress is salvage's
/// synthesized trailer.
#[test]
fn content_errors_fail_at_pinned_offsets() {
    // A clean `Jump`, then a record opening with `op` whose fields
    // are the varints in `rest`.
    let rec = |op: u8, rest: &[u64]| {
        let mut b = vec![OP_JUMP, 1, 2, op];
        for &v in rest {
            put_u64(&mut b, v);
        }
        b
    };
    let mut long = rec(OP_JUMP, &[]);
    long.extend_from_slice(&[0xff; 10]);
    let cases = [
        (rec(20, &[]), "18: invalid record opcode 20"),
        (
            rec(OP_COMPUTE, &[300, 200, 3, 0, 0, 9]),
            "26: invalid value tag 9",
        ),
        (rec(OP_RETURN, &[300, 200, 0, 9]), "24: invalid value tag 9"),
        (rec(OP_PREDICATE, &[300, 200, 6]), "23: invalid cmp op 6"),
        (
            rec(OP_PREDICATE, &[300, 200, 0, 1, 2, 2]),
            "26: invalid bool byte 2",
        ),
        (rec(OP_PHASE, &[300, 200, 7]), "23: invalid bool byte 7"),
        (rec(OP_FRAME_PUSH, &[300, 2]), "21: invalid call-site tag 2"),
        (
            rec(OP_FRAME_PUSH, &[300, 0, 1, 2, (1 << 32) + 1]),
            "28: object id overflows u32",
        ),
        (
            rec(OP_COMPUTE, &[300, 200, 3, 70_000]),
            "26: local index overflows u16",
        ),
        (
            rec(OP_COMPUTE, &[300, 200, 70_000]),
            "25: varint overflows u16",
        ),
        (rec(OP_JUMP, &[1 << 32]), "23: varint overflows u32"),
        (long, "28: varint overflows u64"),
    ];
    let pin = |e: TraceError| format!("{}: {}", e.offset, e.message);
    for (payload, want) in cases {
        let bytes = framed(&payload);
        let reader = TraceReader::new(&bytes).unwrap_or_else(|e| panic!("{want}: {e}"));
        let mut sink = CountingSink::new();
        assert_eq!(pin(reader.replay(&mut sink).expect_err(want)), want);
        assert_eq!(sink.events, 1, "{want}: the clean jump is delivered");
        let (salvaged, st) = TraceReader::salvage(&bytes).expect("header is intact");
        assert_eq!(pin(st.first_error.expect(want)), want);
        let mut r = StreamingReader::new();
        let mut sink = CountingSink::new();
        assert_eq!(pin(r.feed(&bytes, &mut sink).expect_err(want)), want);
        assert_eq!(sink.events, 1, "{want}: the leading jump is delivered");
        assert_eq!(r.segments_seen(), 0, "{want}");
        assert_eq!(&r.progress(), salvaged.trailer(), "{want}");
    }
}

/// The writer numbers threads and objects densely and balances every
/// thread's frames, and a record that breaks either sequence or the
/// balance fails as a pinned error through `replay`, `salvage` and the
/// streaming reader before it reaches the sink: a prologue naming a
/// thread no `Spawn` created, an `Alloc` that does not carry its own
/// allocation count as the object id, a `Spawn` that does not create the
/// next thread, a `Join` of a thread never spawned, a `Compute` before
/// any frame push, and a frame pop with no frame open. Unchecked, each
/// id sizes or indexes a table in the graph builder, and either frame
/// fault indexes an empty shadow stack.
#[test]
fn sequence_errors_fail_at_pinned_offsets() {
    // A frame push (opcode 16) into method 0 with one local, then an
    // `Alloc` (opcode 2) at its first instruction naming object
    // 4,000,000 (varint 80 92 f4 01).
    let alloc = [
        16, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0x80, 0x92, 0xf4, 0x01, 0, 0,
    ];
    // The same frame push, then a `Spawn` (opcode 18) at its first
    // instruction into local 0 naming thread 4,000,000, of method 0 with
    // no actuals.
    let spawn = [
        16, 0, 0, 0, 1, 0, 0, 18, 0, 0, 0, 0x80, 0x92, 0xf4, 0x01, 0, 0,
    ];
    // The same frame push, then a `Join` (opcode 19) of thread 1 with no
    // destination and no value.
    let join = [16, 0, 0, 0, 1, 0, 0, 19, 0, 0, 0, 1, 4];
    // A `Compute` (opcode 0) of null into local 0 of method 0, with no
    // frame pushed.
    let compute = [0, 0, 0, 0, 0, 0, 0];
    // The same frame push, its pop (opcode 17), and a second pop.
    let pops = [16, 0, 0, 0, 1, 0, 0, 17, 17];
    let cases = [
        (
            framed_on(4_000_000, &[]),
            "17: segment runs on thread 4000000 but only 0 threads were spawned",
            0,
        ),
        (
            framed_on(0, &alloc),
            "21: alloc record names object 4000000 but is allocation 0",
            1,
        ),
        (
            framed_on(0, &spawn),
            "21: spawn record names thread 4000000 but is spawn 1",
            1,
        ),
        (
            framed_on(0, &join),
            "21: join record names thread 1 but only 0 threads were spawned",
            1,
        ),
        (
            framed_on(0, &compute),
            "14: record on thread 0 outside any frame",
            0,
        ),
        (
            framed_on(0, &pops),
            "22: frame pop on thread 0 with no frame open",
            1,
        ),
    ];
    let pin = |e: TraceError| format!("{}: {}", e.offset, e.message);
    let delivered = |sink: &CountingSink| (sink.switches, sink.pushes, sink.events);
    for (bytes, want, pushes) in cases {
        let reader = TraceReader::new(&bytes).unwrap_or_else(|e| panic!("{want}: {e}"));
        let mut sink = CountingSink::new();
        assert_eq!(pin(reader.replay(&mut sink).expect_err(want)), want);
        assert_eq!(delivered(&sink), (0, pushes, 0), "{want}: offline");
        let (salvaged, st) = TraceReader::salvage(&bytes).expect("header is intact");
        assert_eq!(pin(st.first_error.expect(want)), want);
        assert_eq!(st.segments_kept, 0, "{want}");
        let mut r = StreamingReader::new();
        let mut sink = CountingSink::new();
        assert_eq!(pin(r.feed(&bytes, &mut sink).expect_err(want)), want);
        assert_eq!(
            delivered(&sink),
            (0, pushes, 0),
            "{want}: only the records before the offender are delivered"
        );
        assert_eq!(r.segments_seen(), 0, "{want}");
        assert_eq!(&r.progress(), salvaged.trailer(), "{want}");
    }
}

/// One `xorshift64*` draw in `0..bound`.
fn draw(state: &mut u64, bound: usize) -> usize {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
}

/// Mutations in the payload sweep unless `LOWUTIL_FUZZ_SEEDS` says
/// otherwise; the digest is pinned at this width only.
const SWEEP_SEEDS: u64 = 128;

/// The sweep's inputs: `kitchen_sink_program` and `fork_join_program`
/// recorded at segment limit 4 by the writer that split segments only
/// at frame pushes. Checked in, so the digest pins the decoder alone.
const SWEEP_TRACES: [&[u8]; 2] = [
    include_bytes!("sweep_kitchen_sink.trace"),
    include_bytes!("sweep_fork_join.trace"),
];

/// Seeded in-payload mutations (bit flip, byte overwrite, byte insert,
/// byte delete) of the segments of two checked-in recordings, decoded
/// with no checksum in the way. At any width: no panic, any error
/// offset lies inside the payload, and every record ending before the
/// mutated byte is delivered exactly as the clean decode delivers it.
/// At the default width the outcomes (error offset and message, or
/// delivered record count) fold into one pinned CRC32.
#[test]
fn payload_mutation_sweep_is_pinned() {
    let seeds = std::env::var("LOWUTIL_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SWEEP_SEEDS);
    let readers: Vec<TraceReader> = SWEEP_TRACES
        .iter()
        .map(|t| TraceReader::new(t).unwrap())
        .collect();
    let segs: Vec<&Segment> = readers.iter().flat_map(|r| r.segments()).collect();
    let (mut digest, mut failed) = (Crc32::new(), 0);
    for seed in 0..seeds {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let seg = segs[draw(&mut rng, segs.len())];
        let mut payload = seg.payload().to_vec();
        let pos = draw(&mut rng, payload.len());
        match draw(&mut rng, 4) {
            0 => payload[pos] ^= 1 << draw(&mut rng, 8),
            1 => payload[pos] = draw(&mut rng, 256) as u8,
            2 => payload.insert(pos, draw(&mut rng, 256) as u8),
            _ => drop(payload.remove(pos)),
        }
        let mut log = StreamLog::default();
        let outcome = match (Segment {
            payload: &payload,
            ..seg.clone()
        })
        .replay(&mut log)
        {
            Ok(()) => format!("ok {}", log.0.len()),
            Err(e) => {
                let span = seg.payload_offset..=seg.payload_offset + payload.len();
                assert!(
                    span.contains(&e.offset),
                    "seed {seed}: {e} outside {span:?}"
                );
                failed += 1;
                format!("{} {}", e.offset, e.message)
            }
        };
        let mut clean = StreamLog::default();
        let _ = Segment {
            payload: &seg.payload()[..pos],
            ..seg.clone()
        }
        .replay(&mut clean);
        let k = clean.0.len();
        assert!(
            log.0.len() >= k && log.0[..k] == clean.0[..],
            "seed {seed}: the records before byte {pos} were not delivered intact"
        );
        digest.update(outcome.as_bytes());
        digest.update(b"\n");
    }
    assert!(failed > 0 && failed < seeds, "{failed} of {seeds} failed");
    if seeds == SWEEP_SEEDS {
        assert_eq!(digest.finish(), 0x36aa_3fcc, "outcome digest");
    }
}
