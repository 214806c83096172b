//! Fault injection against a *running* `lowutil serve` daemon: seeded
//! mutated streams (truncations, bit flips, record splices), mid-stream
//! disconnects and hand-built hostile records are pushed at a live
//! server, and every bad session must either salvage-and-reject or be
//! absorbed as a valid trace — never poison the tenant aggregate, and
//! never blow the allocation cap.
//!
//! All randomness comes from `lowutil_testkit::mutate` loop seeds, so a
//! CI failure names a seed that replays bit-for-bit locally. Sweep
//! width is `LOWUTIL_FUZZ_SEEDS` (default 24).

use lowutil::core::{replay_cost_graph, CostGraphConfig};
use lowutil::ir::Program;
use lowutil::serve::{push_trace, request, ServeConfig, Server};
use lowutil::vm::trace::TRACE_MAGIC;
use lowutil::vm::{
    crc32, TraceReader, TraceWriter, Vm, DEFAULT_STREAM_RECORD_LIMIT, TRACE_VERSION,
};
use lowutil::workloads::{workload, WorkloadSize};
use lowutil_testkit::alloc_guard::{self, GuardedAlloc};
use lowutil_testkit::mutate::mutate;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// The daemon threads run in this test binary, so the guard sees every
// session's allocations: a corrupt length field that slips past stream
// validation shows up as a peak explosion with a seed attached.
#[global_allocator]
static ALLOC: GuardedAlloc = GuardedAlloc;

/// No mutated session may allocate more than this beyond the live heap
/// at sweep start — the GuardedAlloc cap from the offline corruption
/// harness, applied to the daemon path.
const ALLOC_CAP_BYTES: usize = 512 << 20;

fn fuzz_seeds() -> u64 {
    std::env::var("LOWUTIL_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lowutil-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Records `program` at segment limit 512, which splits even a short
/// run into several framed segment records.
fn record(program: &Program) -> (Vec<u8>, u64) {
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), 512);
    Vm::new(program).run(&mut writer).expect("workload runs");
    let (bytes, stats) = writer.finish().expect("trace finishes");
    (bytes, stats.segments)
}

fn rejected_count(addr: &str) -> u64 {
    request(addr, "stats")
        .unwrap()
        .split_whitespace()
        .find_map(|t| t.strip_prefix("rejected="))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn mutated_streams_never_poison_the_aggregate() {
    let w = workload("antlr", WorkloadSize::Small);
    let (trace, segments) = record(&w.program);
    // Several segments, so splice and truncation mutations cross
    // segment records and a salvaged prefix can keep whole segments.
    assert!(
        segments >= 2,
        "antlr@small records as {segments} segment(s)"
    );
    let data = tmpdir("mutants");
    let cfg = ServeConfig {
        data_dir: data.clone(),
        default_size: WorkloadSize::Small,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();
    let snap_path = data.join("tenants").join("fuzz").join("antlr@small.snap");

    let resp = push_trace(&addr, "fuzz", "antlr@small", "seed-session", &trace).unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    let mut baseline_hash = request(&addr, "query fuzz antlr@small hash").unwrap();
    let mut baseline_snap = std::fs::read(&snap_path).unwrap();
    let alloc_floor = alloc_guard::reset_peak();

    for seed in 0..fuzz_seeds() {
        let (mutated, desc) = mutate(&trace, seed);
        let resp = push_trace(&addr, "fuzz", "antlr@small", &format!("m{seed}"), &mutated)
            .unwrap_or_else(|e| panic!("seed {seed} ({desc}): push failed: {e}"));
        if resp.starts_with("ok ") {
            // A self-splice no-op can reproduce a valid trace; the
            // daemon legitimately absorbs it. Rebase the baseline.
            baseline_hash = request(&addr, "query fuzz antlr@small hash").unwrap();
            baseline_snap = std::fs::read(&snap_path).unwrap();
        } else {
            assert!(
                resp.starts_with("rejected "),
                "seed {seed} ({desc}): unexpected response: {resp}"
            );
            assert_eq!(
                request(&addr, "query fuzz antlr@small hash").unwrap(),
                baseline_hash,
                "seed {seed} ({desc}): rejected session moved the content hash"
            );
            assert!(
                std::fs::read(&snap_path).unwrap() == baseline_snap,
                "seed {seed} ({desc}): rejected session rewrote the snapshot"
            );
        }
        let peak = alloc_guard::peak_bytes();
        assert!(
            peak.saturating_sub(alloc_floor) < ALLOC_CAP_BYTES,
            "seed {seed} ({desc}): allocation peak {peak} blew past the cap"
        );
    }

    // Mid-stream disconnects at seeded cut points: the client vanishes
    // without a trailer; the daemon salvages and must not absorb.
    let before = rejected_count(&addr);
    let cuts: Vec<usize> = (0..4)
        .map(|i| 1 + (trace.len() - 2) * (i * 2 + 1) / 8)
        .collect();
    for (i, cut) in cuts.iter().enumerate() {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(format!("ingest fuzz antlr@small cut{i}\n").as_bytes())
            .unwrap();
        s.write_all(&trace[..*cut]).unwrap();
        drop(s);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while rejected_count(&addr) < before + cuts.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "disconnected sessions never finalized"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        request(&addr, "query fuzz antlr@small hash").unwrap(),
        baseline_hash,
        "disconnected sessions moved the content hash"
    );
    assert!(
        std::fs::read(&snap_path).unwrap() == baseline_snap,
        "disconnected sessions rewrote the snapshot"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `*at`, advancing past it.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends one framed record: tag (1 segment, 2 trailer), body length,
/// body, CRC32 of the body.
fn put_frame(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

/// Checksum-valid streams whose trailers agree with their contents but
/// which break the VM's dense numbering or its frame balance: a segment
/// on thread 4,000,000 with no `Spawn` before it, an `Alloc` of object
/// 4,000,000 as the first allocation, a first `Spawn` naming thread
/// 4,000,000, and a `Compute` before any frame push. The graph builder
/// would size a table by any of these ids and index an empty shadow
/// stack for the `Compute`; the daemon rejects all four before the
/// builder sees them, counts each in `stats`, and keeps answering.
#[test]
fn hostile_thread_and_object_ids_are_rejected() {
    let probe = |segment: &[u8], trailer: &[u8]| {
        let mut t = TRACE_MAGIC.to_vec();
        put_varint(&mut t, TRACE_VERSION);
        put_frame(&mut t, 1, segment);
        put_frame(&mut t, 2, trailer);
        t
    };
    // Segment bodies: index 0, prologue length, prologue (thread, no
    // frames, not in a phase, first gid 0), payload length, payload.
    // 4,000,000 is the varint 80 92 f4 01. The second payload is a frame
    // push (opcode 16) into method 0 with one local, then an `Alloc`
    // (opcode 2) at its first instruction. The third is the same push,
    // then a `Spawn` (opcode 18) into local 0 of method 0 with no
    // actuals. The fourth is a `Compute` (opcode 0) of null into local 0
    // at method 0's first instruction.
    let probes = [
        (
            "thread",
            probe(
                &[0, 7, 0x80, 0x92, 0xf4, 0x01, 0, 0, 0, 0],
                &[0, 0, 0, 0, 1],
            ),
            "thread 4000000 but only 0 threads were spawned",
        ),
        (
            "alloc",
            probe(
                &[
                    0, 4, 0, 0, 0, 0, 17, 16, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0x80, 0x92, 0xf4, 0x01,
                    0, 0,
                ],
                &[1, 1, 1, 1, 1],
            ),
            "names object 4000000 but is allocation 0",
        ),
        (
            "spawn",
            probe(
                &[
                    0, 4, 0, 0, 0, 0, 17, 16, 0, 0, 0, 1, 0, 0, 18, 0, 0, 0, 0x80, 0x92, 0xf4,
                    0x01, 0, 0,
                ],
                &[1, 1, 0, 1, 1],
            ),
            "spawn record names thread 4000000 but is spawn 1",
        ),
        (
            "compute",
            probe(
                &[0, 4, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0],
                &[1, 1, 0, 0, 1],
            ),
            "record on thread 0 outside any frame",
        ),
    ];
    assert_eq!(probes[3].1.len(), 36, "the compute-before-push trace");
    let data = tmpdir("hostile");
    let handle = Server::start(ServeConfig {
        data_dir: data.clone(),
        default_size: WorkloadSize::Small,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let alloc_floor = alloc_guard::reset_peak();
    for (i, (name, bytes, why)) in probes.iter().enumerate() {
        let resp = push_trace(&addr, "hostile", "antlr@small", name, bytes).unwrap();
        assert!(
            resp.starts_with("rejected ") && resp.contains(why),
            "{name}: {resp}"
        );
        assert!(resp.contains(" salvaged_segments=0 "), "{name}: {resp}");
        assert_eq!(rejected_count(&addr), i as u64 + 1, "{name}: stats");
        let peak = alloc_guard::peak_bytes();
        assert!(
            peak.saturating_sub(alloc_floor) < ALLOC_CAP_BYTES,
            "{name}: allocation peak {peak} blew past the cap"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// The default stream limit is the longest segment record the writer
/// can emit: a session whose first record declares one byte more is
/// rejected for it by name as soon as the length arrives, and one that
/// declares exactly the limit is not (it fails later, for ending early).
#[test]
fn records_over_the_default_stream_limit_are_rejected_by_name() {
    let data = tmpdir("oversize");
    let handle = Server::start(ServeConfig {
        data_dir: data.clone(),
        default_size: WorkloadSize::Small,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let limit = DEFAULT_STREAM_RECORD_LIMIT;
    for (declared, over) in [(limit + 1, true), (limit, false)] {
        let mut t = TRACE_MAGIC.to_vec();
        put_varint(&mut t, TRACE_VERSION);
        t.push(1);
        put_varint(&mut t, declared as u64);
        let resp = push_trace(&addr, "hostile", "antlr@small", "big", &t).unwrap();
        let why = format!("over the streaming record limit of {limit}");
        assert!(resp.starts_with("rejected "), "{declared}: {resp}");
        assert_eq!(resp.contains(&why), over, "{declared}: {resp}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// Re-frames a v3 recording with each run of same-thread segments joined
/// into one: the run's first prologue, then every payload of the run.
/// Payload records carry no per-segment state, so the result replays to
/// the same stream. Before segments were bounded at any record, the
/// writer split only at frame pushes and emitted segments this long.
fn join_thread_runs(trace: &[u8]) -> Vec<u8> {
    let mut at = TRACE_MAGIC.len();
    get_varint(trace, &mut at);
    let mut out = trace[..at].to_vec();
    let mut runs: Vec<(u64, Vec<u8>, Vec<u8>)> = Vec::new();
    while trace[at] == 1 {
        at += 1;
        let end = get_varint(trace, &mut at) as usize + at;
        get_varint(trace, &mut at);
        let plen = get_varint(trace, &mut at) as usize;
        let prologue = &trace[at..at + plen];
        at += plen;
        get_varint(trace, &mut at);
        let thread = get_varint(prologue, &mut 0);
        match runs.last_mut() {
            Some((t, _, payload)) if *t == thread => payload.extend_from_slice(&trace[at..end]),
            _ => runs.push((thread, prologue.to_vec(), trace[at..end].to_vec())),
        }
        at = end + 4;
    }
    for (index, (_, prologue, payload)) in runs.iter().enumerate() {
        let mut body = Vec::new();
        put_varint(&mut body, index as u64);
        put_varint(&mut body, prologue.len() as u64);
        body.extend_from_slice(prologue);
        put_varint(&mut body, payload.len() as u64);
        body.extend_from_slice(payload);
        put_frame(&mut out, 1, &body);
    }
    // Trailer: events, instructions, objects, frame pushes, then the
    // segment count, which the join changed.
    at += 1;
    get_varint(trace, &mut at);
    let mut body = Vec::new();
    for _ in 0..4 {
        put_varint(&mut body, get_varint(trace, &mut at));
    }
    put_varint(&mut body, runs.len() as u64);
    put_frame(&mut out, 2, &body);
    out
}

/// The trade-off of the derived stream limit: a trace whose segments
/// are longer than any the writer now emits still replays offline, but
/// the daemon rejects it by name. derby@small, recorded in one segment
/// as the frame-push-only writer nearly did (its largest segment was
/// 1.49 MB), is such a trace; the same run recorded with bounded
/// segments is absorbed.
#[test]
fn traces_with_segments_over_the_stream_limit_replay_offline_but_serve_rejects_them() {
    let w = workload("derby", WorkloadSize::Small);
    let mut writer = TraceWriter::new(Vec::new());
    Vm::new(&w.program).run(&mut writer).expect("workload runs");
    let (bounded, _) = writer.finish().expect("trace finishes");
    let joined = join_thread_runs(&bounded);
    let reader = TraceReader::new(&joined).expect("joined trace parses");
    assert_eq!(reader.segments().len(), 1);
    assert!(reader.segments()[0].payload().len() > DEFAULT_STREAM_RECORD_LIMIT);
    replay_cost_graph(&w.program, CostGraphConfig::default(), &reader).expect("replays offline");

    let data = tmpdir("unbounded");
    let handle = Server::start(ServeConfig {
        data_dir: data.clone(),
        default_size: WorkloadSize::Small,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let resp = push_trace(&addr, "old", "derby@small", "joined", &joined).unwrap();
    let why = format!("over the streaming record limit of {DEFAULT_STREAM_RECORD_LIMIT}");
    assert!(
        resp.starts_with("rejected ") && resp.contains(&why),
        "{resp}"
    );
    let resp = push_trace(&addr, "old", "derby@small", "bounded", &bounded).unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// A session whose second segment is checksum-valid but does not decode
/// is rejected with the prefix salvage keeps: the first segment and its
/// events. The failed segment's leading records reach the session's
/// graph builder, which is dropped unread, so the aggregate's content
/// hash does not move.
#[test]
fn undecodable_checksum_valid_segment_is_rejected_with_the_salvaged_prefix() {
    let w = workload("chart", WorkloadSize::Small);
    let (trace, _) = record(&w.program);
    // Append an invalid opcode to the second segment's payload, the last
    // field of its frame's body, and frame that body again.
    let reader = TraceReader::new(&trace).unwrap();
    let offset = |s: &[u8]| s.as_ptr() as usize - trace.as_ptr() as usize;
    let [first, second] = [0, 1].map(|i| reader.segments()[i].payload());
    let frame = offset(first) + first.len() + 4;
    let mut body = frame + 1;
    get_varint(&trace, &mut body);
    let mut paylen = Vec::new();
    put_varint(&mut paylen, second.len() as u64);
    let mut bad = trace[body..offset(second) - paylen.len()].to_vec();
    put_varint(&mut bad, second.len() as u64 + 1);
    bad.extend_from_slice(second);
    bad.push(20);
    let mut mutated = trace[..frame].to_vec();
    put_frame(&mut mutated, 1, &bad);
    mutated.extend_from_slice(&trace[offset(second) + second.len() + 4..]);

    let (salvaged, st) = TraceReader::salvage(&mutated).unwrap();
    assert_eq!(st.segments_kept, 1);
    let data = tmpdir("undecodable");
    let handle = Server::start(ServeConfig {
        data_dir: data.clone(),
        default_size: WorkloadSize::Small,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let resp = push_trace(&addr, "fuzz", "chart@small", "clean", &trace).unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    let hash = request(&addr, "query fuzz chart@small hash").unwrap();
    let resp = push_trace(&addr, "fuzz", "chart@small", "bad", &mutated).unwrap();
    assert!(resp.contains("invalid record opcode 20"), "{resp}");
    assert!(
        resp.starts_with("rejected ")
            && resp.ends_with(&format!(
                " salvaged_segments=1 salvaged_events={}\n",
                salvaged.trailer().events
            )),
        "{resp}"
    );
    assert_eq!(
        request(&addr, "query fuzz chart@small hash").unwrap(),
        hash,
        "the rejected session moved the content hash"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
