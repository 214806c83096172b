//! Concurrency soak for `lowutil serve`: N concurrent clients replaying
//! the full 21-workload suite must produce tenant aggregates that are
//! byte-identical to the offline sequential merge, regardless of
//! arrival interleaving — and killed, corrupted, or evicted sessions
//! must never change an aggregate's content hash.

use lowutil::core::{content_hash, replay_cost_graph, write_snapshot, Aggregate, CostGraphConfig};
use lowutil::ir::Program;
use lowutil::serve::{push_trace, request, ServeConfig, Server};
use lowutil::vm::{RunConfig, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize, NAMES};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lowutil-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn record(program: &Program, sched_seed: u64) -> Vec<u8> {
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), 4096);
    Vm::with_config(
        program,
        RunConfig {
            sched_seed,
            ..RunConfig::default()
        },
    )
    .run(&mut writer)
    .expect("workload runs");
    writer.finish().expect("trace finishes").0
}

fn test_config(data: PathBuf) -> ServeConfig {
    ServeConfig {
        data_dir: data,
        default_size: WorkloadSize::Small,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

struct Bench {
    name: String,
    program: Program,
    traces: Vec<Vec<u8>>,
}

/// Records every workload at `Small` under two scheduler seeds: two
/// sessions per (tenant, program) aggregate, so concurrent clients can
/// race on the same aggregate, not just on the tenant map.
fn record_suite() -> Vec<Bench> {
    NAMES
        .iter()
        .map(|name| {
            let w = workload(name, WorkloadSize::Small);
            let traces = [0u64, 1].iter().map(|&s| record(&w.program, s)).collect();
            Bench {
                name: format!("{name}@small"),
                program: w.program,
                traces,
            }
        })
        .collect()
}

/// The offline sequential merge: snapshot bytes + content hash per
/// workload, exactly what the daemon must persist.
fn offline_reference(suite: &[Bench]) -> Vec<(Vec<u8>, u64)> {
    suite
        .iter()
        .map(|b| {
            let mut agg = Aggregate::new();
            for bytes in &b.traces {
                let reader = TraceReader::new(bytes).expect("clean trace");
                let g = replay_cost_graph(&b.program, CostGraphConfig::default(), &reader).unwrap();
                agg.absorb(&g, reader.trailer().instructions);
            }
            let merged = agg.to_cost_graph();
            let mut snap = Vec::new();
            write_snapshot(&merged, agg.total_instructions(), &mut snap).unwrap();
            (snap, content_hash(&merged))
        })
        .collect()
}

#[test]
fn concurrent_ingest_is_byte_identical_to_offline_merge() {
    let suite = record_suite();
    let reference = offline_reference(&suite);

    for jobs in [1usize, 2, 7] {
        let data = tmpdir(&format!("jobs{jobs}"));
        let handle = Server::start(test_config(data.clone())).unwrap();
        let addr = handle.addr().to_string();

        // Flatten into (program, session-id, trace) units and shard them
        // round-robin across `jobs` clients: sessions of one workload
        // deliberately land on different clients.
        let units: Vec<(&str, String, &[u8])> = suite
            .iter()
            .flat_map(|b| {
                b.traces
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (b.name.as_str(), format!("s{i}"), t.as_slice()))
            })
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                let units = &units;
                let addr = addr.as_str();
                scope.spawn(move || {
                    for (program, id, trace) in units.iter().skip(worker).step_by(jobs) {
                        let resp = push_trace(addr, "soak", program, id, trace).unwrap();
                        assert!(resp.starts_with("ok "), "push {program}/{id}: {resp}");
                    }
                });
            }
        });

        for (b, (snap, hash)) in suite.iter().zip(&reference) {
            let persisted = std::fs::read(
                data.join("tenants")
                    .join("soak")
                    .join(format!("{}.snap", b.name)),
            )
            .unwrap_or_else(|e| panic!("{} snapshot at jobs={jobs}: {e}", b.name));
            assert!(
                persisted == *snap,
                "{} aggregate at jobs={jobs} differs from the offline merge",
                b.name
            );
            let line = request(&addr, &format!("query soak {} hash", b.name)).unwrap();
            assert_eq!(
                line.trim(),
                format!("hash {hash:016x} sessions=2"),
                "{}",
                b.name
            );
        }
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&data);
    }
}

/// Polls the daemon's global counters until `rejected` reaches `want`.
fn await_rejections(addr: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = request(addr, "stats").unwrap();
        let rejected: u64 = stats
            .split_whitespace()
            .find_map(|t| t.strip_prefix("rejected="))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if rejected >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "rejections never surfaced: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killed_and_corrupted_sessions_never_change_the_aggregate() {
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 0);
    let data = tmpdir("faults");
    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();
    let snap_path = data.join("tenants").join("acme").join("antlr@small.snap");

    let resp = push_trace(&addr, "acme", "antlr@small", "good", &trace).unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    let baseline_hash = request(&addr, "query acme antlr@small hash").unwrap();
    let baseline_snap = std::fs::read(&snap_path).unwrap();
    let mut rejections = 0u64;

    // Mid-stream kill: the client dies after half the trace. The server
    // sees EOF without a trailer, salvages, and must not absorb.
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(b"ingest acme antlr@small killed\n").unwrap();
        s.write_all(&trace[..trace.len() / 2]).unwrap();
        drop(s);
    }
    rejections += 1;
    await_rejections(&addr, rejections);

    // Corrupted stream: a flipped byte mid-trace fails the record CRC.
    let mut flipped = trace.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    let resp = push_trace(&addr, "acme", "antlr@small", "flip", &flipped).unwrap();
    assert!(resp.starts_with("rejected "), "{resp}");
    rejections += 1;

    // Truncation at a record boundary: parses cleanly but never reaches
    // the trailer.
    let resp = push_trace(
        &addr,
        "acme",
        "antlr@small",
        "trunc",
        &trace[..trace.len() - 1],
    )
    .unwrap();
    assert!(resp.starts_with("rejected "), "{resp}");
    rejections += 1;
    await_rejections(&addr, rejections);

    assert_eq!(
        request(&addr, "query acme antlr@small hash").unwrap(),
        baseline_hash,
        "rejected sessions must not move the content hash"
    );
    assert!(
        std::fs::read(&snap_path).unwrap() == baseline_snap,
        "rejected sessions must not rewrite the persisted snapshot"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn oversize_and_idle_sessions_are_evicted_without_absorbing() {
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 0);

    // Oversize eviction: a session budget smaller than the trace.
    let data = tmpdir("evict");
    let cfg = ServeConfig {
        max_session_bytes: (trace.len() / 2) as u64,
        idle_timeout: Duration::from_millis(300),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();
    let resp = push_trace(&addr, "acme", "antlr@small", "big", &trace).unwrap();
    assert!(resp.starts_with("rejected "), "oversize session: {resp}");
    assert!(resp.contains("budget") || resp.contains("bytes"), "{resp}");

    // Idle eviction: the client stalls mid-stream past the idle window;
    // the server cuts the session loose and reports it rejected.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(b"ingest acme antlr@small stalled\n").unwrap();
    s.write_all(&trace[..64]).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("rejected "), "idle session: {resp}");

    // Neither session may have created an aggregate.
    let line = request(&addr, "query acme antlr@small hash").unwrap();
    assert!(line.starts_with("error "), "no aggregate may exist: {line}");
    assert!(!data
        .join("tenants")
        .join("acme")
        .join("antlr@small.snap")
        .exists());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
