//! Session-lifecycle tests for `lowutil serve`: ingest over TCP and
//! unix sockets, spool-directory pickup, aggregate persistence across
//! restarts, the `snapshot verify` corruption sweep, and ranked answers
//! across a restart.

use lowutil::core::{content_hash, replay_cost_graph, Aggregate, CostGraphConfig};
use lowutil::ir::Program;
use lowutil::serve::{push_trace, request, spool_paths, ServeConfig, Server};
use lowutil::vm::{RunConfig, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lowutil-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn record(program: &Program, segment_limit: usize, sched_seed: u64) -> Vec<u8> {
    let mut writer = TraceWriter::with_segment_limit(Vec::new(), segment_limit);
    Vm::with_config(
        program,
        RunConfig {
            sched_seed,
            ..RunConfig::default()
        },
    )
    .run(&mut writer)
    .expect("workload runs");
    let (bytes, _) = writer.finish().expect("trace finishes");
    bytes
}

fn test_config(data: PathBuf) -> ServeConfig {
    ServeConfig {
        data_dir: data,
        default_size: WorkloadSize::Small,
        idle_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// The offline sequential merge the daemon must reproduce.
fn offline_hash(program: &Program, traces: &[Vec<u8>]) -> u64 {
    let mut agg = Aggregate::new();
    for bytes in traces {
        let reader = TraceReader::new(bytes).expect("clean trace");
        let g = replay_cost_graph(program, CostGraphConfig::default(), &reader).unwrap();
        agg.absorb(&g, reader.trailer().instructions);
    }
    content_hash(&agg.to_cost_graph())
}

#[test]
fn tcp_ingest_lifecycle_and_restart_persistence() {
    let data = tmpdir("life");
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let expect1 = offline_hash(&w.program, std::slice::from_ref(&trace));
    let expect2 = offline_hash(&w.program, &[trace.clone(), trace.clone()]);

    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();

    let resp = push_trace(&addr, "acme", "antlr@small", "s1", &trace).unwrap();
    assert!(resp.starts_with("ok "), "push: {resp}");
    assert!(resp.contains("sessions=1"), "{resp}");
    let hash_line = request(&addr, "query acme antlr@small hash").unwrap();
    assert_eq!(
        hash_line.trim(),
        format!("hash {expect1:016x} sessions=1"),
        "daemon hash matches the offline merge"
    );

    // A corrupt session is rejected and leaves the aggregate untouched.
    let resp = push_trace(
        &addr,
        "acme",
        "antlr@small",
        "bad",
        &trace[..trace.len() / 3],
    )
    .unwrap();
    assert!(resp.starts_with("rejected "), "truncated push: {resp}");
    assert_eq!(
        request(&addr, "query acme antlr@small hash")
            .unwrap()
            .trim(),
        format!("hash {expect1:016x} sessions=1")
    );

    // Unknown programs and bad names are rejected outright.
    let resp = push_trace(&addr, "acme", "nosuch", "x", &trace).unwrap();
    assert!(resp.starts_with("rejected "), "{resp}");
    let resp = push_trace(&addr, "../etc", "antlr@small", "x", &trace).unwrap();
    assert!(resp.starts_with("rejected "), "{resp}");

    // Queries keep working while the aggregate grows.
    let resp = push_trace(&addr, "acme", "antlr@small", "s2", &trace).unwrap();
    assert!(resp.contains("sessions=2"), "{resp}");
    let stats = request(&addr, "query acme antlr@small stats").unwrap();
    assert!(stats.contains("sessions=2"), "{stats}");
    assert!(stats.contains(&format!("hash={expect2:016x}")), "{stats}");
    let rank = request(&addr, "query acme antlr@small rank 5").unwrap();
    assert!(rank.lines().last().unwrap().starts_with("end "), "{rank}");
    let report = request(&addr, "query acme antlr@small report 3").unwrap();
    assert!(report.contains("low-utility data structures"), "{report}");
    let diff = request(&addr, "query acme antlr@small diff acme antlr@small").unwrap();
    assert!(diff.contains("regression=0"), "self-diff is clean: {diff}");

    // The shutdown request stops the daemon...
    let resp = request(&addr, "shutdown").unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    handle.wait();

    // ...and a fresh daemon on the same data dir restores the aggregate
    // from its persisted snapshot: same content hash, no re-ingestion.
    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();
    let hash_line = request(&addr, "query acme antlr@small hash").unwrap();
    assert!(
        hash_line.starts_with(&format!("hash {expect2:016x}")),
        "restart restores the aggregate: {hash_line}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn spool_directory_ingestion() {
    let data = tmpdir("spool-data");
    let spool = tmpdir("spool-in");
    std::fs::create_dir_all(&spool).unwrap();
    let w = workload("chart", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let expect = offline_hash(&w.program, std::slice::from_ref(&trace));

    let cfg = ServeConfig {
        spool_dir: Some(spool.clone()),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let (trace_path, resp_path) = spool_paths(&spool, "acme", "chart@small", "job1");
    std::fs::create_dir_all(trace_path.parent().unwrap()).unwrap();
    std::fs::write(&trace_path, &trace).unwrap();
    // Also drop a corrupt file: it must land in `.rejected`, not the
    // aggregate.
    let (bad_path, bad_resp) = spool_paths(&spool, "acme", "chart@small", "job2");
    std::fs::write(&bad_path, &trace[..trace.len() / 2]).unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    while (!resp_path.exists() || !bad_resp.exists()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = std::fs::read_to_string(&resp_path).expect("spool file was processed");
    assert!(resp.starts_with("ok "), "{resp}");
    assert!(trace_path.with_extension("done").exists());
    let resp = std::fs::read_to_string(&bad_resp).expect("bad spool file was processed");
    assert!(resp.starts_with("rejected "), "{resp}");
    assert!(bad_path.with_extension("rejected").exists());

    let hash_line = request(&addr, "query acme chart@small hash").unwrap();
    assert_eq!(hash_line.trim(), format!("hash {expect:016x} sessions=1"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir_all(&spool);
}

#[cfg(unix)]
#[test]
fn unix_socket_ingestion() {
    let data = tmpdir("unix-data");
    let sock = std::env::temp_dir().join(format!("lowutil-serve-{}.sock", std::process::id()));
    let w = workload("fop", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let expect = offline_hash(&w.program, std::slice::from_ref(&trace));

    let cfg = ServeConfig {
        unix_socket: Some(sock.clone()),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let mut s = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    s.write_all(b"ingest acme fop@small u1\n").unwrap();
    s.write_all(&trace).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("ok "), "unix ingest: {resp}");

    let hash_line = request(&addr, "query acme fop@small hash").unwrap();
    assert_eq!(hash_line.trim(), format!("hash {expect:016x} sessions=1"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_file(&sock);
}

/// One stop request wakes every daemon thread: with TCP, a unix socket
/// and a spool all configured, both the `shutdown` request and
/// `Handle::shutdown` return promptly and close both listeners — also
/// on a wildcard bind, where the wake-up connects to loopback.
#[cfg(unix)]
#[test]
fn shutdown_wakes_every_listener_promptly() {
    for via_request in [true, false] {
        let tag = if via_request { "request" } else { "handle" };
        let data = tmpdir(&format!("stop-{tag}"));
        let spool = tmpdir(&format!("stop-spool-{tag}"));
        std::fs::create_dir_all(&spool).unwrap();
        let sock = std::env::temp_dir().join(format!(
            "lowutil-serve-stop-{tag}-{}.sock",
            std::process::id()
        ));
        let cfg = ServeConfig {
            listen: if via_request {
                "127.0.0.1:0"
            } else {
                "0.0.0.0:0"
            }
            .to_string(),
            unix_socket: Some(sock.clone()),
            spool_dir: Some(spool.clone()),
            ..test_config(data.clone())
        };
        let handle = Server::start(cfg).unwrap();
        let addr = std::net::SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
        let stats = request(&addr.to_string(), "stats").unwrap();
        assert!(stats.starts_with("ok "), "{stats}");

        // Stop on another thread, so a thread that never wakes fails
        // the deadline instead of hanging the test.
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            if via_request {
                let resp = request(&addr.to_string(), "shutdown").unwrap();
                assert!(resp.starts_with("ok "), "{resp}");
                handle.wait();
            } else {
                handle.shutdown();
            }
            let _ = done.send(());
        });
        stopped
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{tag} stop did not return within 2 s"));

        // Both listeners refuse connections. A CLI test running alongside
        // may hold a forked copy of a listener until its child execs, so
        // allow a moment. (Binding the port again would race client
        // sockets of those tests, which may take the freed number.)
        let closed_by = Instant::now() + Duration::from_secs(1);
        while std::net::TcpStream::connect(addr).is_ok()
            || std::os::unix::net::UnixStream::connect(&sock).is_ok()
        {
            assert!(
                Instant::now() < closed_by,
                "{tag}: a listener is still open"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = std::fs::remove_dir_all(&data);
        let _ = std::fs::remove_dir_all(&spool);
        let _ = std::fs::remove_file(&sock);
    }
}

/// A push whose whole trace arrives in the same write as its request
/// line is decoded from the request-line leftover alone, and absorbs
/// exactly as the offline merge does.
#[test]
fn trace_sent_with_the_request_line_is_absorbed() {
    let data = tmpdir("leftover");
    let samples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("samples");
    let src = std::fs::read_to_string(samples.join("copychain.lu")).unwrap();
    let program = lowutil::ir::parse_program(&src).unwrap();
    let trace = record(&program, 256, 0);
    let expect = offline_hash(&program, std::slice::from_ref(&trace));

    let cfg = ServeConfig {
        programs_dir: Some(samples),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let mut msg = b"ingest acme copychain one\n".to_vec();
    msg.extend_from_slice(&trace);
    // The daemon reads the request line in 4 KiB reads; one write that
    // fits puts the whole trace in the leftover.
    assert!(msg.len() <= 4096, "trace too large: {} bytes", msg.len());
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(&msg).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("ok session=one "), "{resp}");

    let hash_line = request(&addr, "query acme copychain hash").unwrap();
    assert_eq!(hash_line.trim(), format!("hash {expect:016x} sessions=1"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// A push whose first chunk already exceeds the session byte budget is
/// evicted before anything is decoded, and the client still reads the
/// rejection line after writing the whole trace: no connection reset.
#[test]
fn first_chunk_over_budget_is_rejected_without_reset() {
    let data = tmpdir("budget");
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let cfg = ServeConfig {
        max_session_bytes: 16,
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let mut msg = b"ingest acme antlr@small big\n".to_vec();
    msg.extend_from_slice(&trace);
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(&msg)
        .expect("the daemon drains the evicted session");
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .expect("the rejection line arrives without a reset");
    assert!(
        resp.starts_with("rejected session=big reason=\"session exceeds byte budget of 16\""),
        "{resp}"
    );
    assert!(resp.contains("salvaged_segments=0"), "{resp}");

    let line = request(&addr, "query acme antlr@small hash").unwrap();
    assert!(line.starts_with("error "), "no aggregate may exist: {line}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// `lowutil snapshot verify`: exit 0 with per-section `ok` rows on a
/// valid snapshot; exit 1 naming the damaged section on corruption,
/// across a sweep of truncations and byte flips.
#[test]
fn snapshot_verify_cli_corruption_sweep() {
    use std::process::Command;
    let dir = tmpdir("verify");
    std::fs::create_dir_all(&dir).unwrap();
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let reader = TraceReader::new(&trace).unwrap();
    let g = replay_cost_graph(&w.program, CostGraphConfig::default(), &reader).unwrap();
    let snap = dir.join("good.snap");
    lowutil::core::save_snapshot(&g, reader.trailer().instructions, &snap).unwrap();
    let bytes = std::fs::read(&snap).unwrap();

    let verify = |path: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_lowutil"))
            .args(["snapshot", "verify"])
            .arg(path)
            .output()
            .expect("lowutil runs");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };

    let (code, stdout) = verify(&snap);
    assert_eq!(code, 0, "clean snapshot verifies: {stdout}");
    assert!(stdout.contains("snapshot OK"), "{stdout}");
    assert!(stdout.contains("section kind"), "{stdout}");

    let bad = dir.join("bad.snap");
    for cut in [0, 7, 15, 16, 40, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&bad, &bytes[..cut]).unwrap();
        let (code, stdout) = verify(&bad);
        assert_eq!(code, 1, "truncation at {cut} must fail: {stdout}");
        assert!(stdout.contains("snapshot CORRUPT"), "{stdout}");
    }
    // A flip inside the first section body is named in the report. The
    // section area starts at the 8-aligned end of the preamble+header.
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let body_at = (16 + header_len).next_multiple_of(8);
    let mut flipped = bytes.clone();
    flipped[body_at] ^= 0x01;
    std::fs::write(&bad, &flipped).unwrap();
    let (code, stdout) = verify(&bad);
    assert_eq!(code, 1, "section flip must fail: {stdout}");
    assert!(stdout.contains("CRC mismatch"), "{stdout}");
    // Magic and header flips fail before any section table exists.
    for at in [0, 20] {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x40;
        std::fs::write(&bad, &flipped).unwrap();
        let (code, stdout) = verify(&bad);
        assert_eq!(code, 1, "flip at {at} must fail: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ranked queries keep nothing on disk — a warm `rank` is answered from
/// the generation's in-memory ranking and equals the cold one — and a
/// restarted daemon answers from the persisted snapshot with the same
/// hash and ranking.
#[test]
fn restart_keeps_rank_responses_bit_exact() {
    let data = tmpdir("restart-rank");
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);

    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();
    let resp = push_trace(&addr, "acme", "antlr@small", "s1", &trace).unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    let hash = request(&addr, "query acme antlr@small hash").unwrap();
    let cold = request(&addr, "query acme antlr@small rank 5").unwrap();
    let report = request(&addr, "query acme antlr@small report 3").unwrap();
    assert!(report.ends_with("\nend\n"), "{report}");
    let warm = request(&addr, "query acme antlr@small rank 5").unwrap();
    assert_eq!(cold, warm, "the warm ranking reproduces the cold one");
    assert!(
        !data.join("qcache").exists(),
        "ranked queries must not write a query cache"
    );
    handle.shutdown();

    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();
    // A restart restores the aggregate as one absorbed snapshot, so only
    // the hash (not the session count) must match.
    let content = |line: &str| line.split(" sessions=").next().unwrap_or("").to_string();
    let restored = request(&addr, "query acme antlr@small hash").unwrap();
    assert_eq!(content(&restored), content(&hash));
    assert_eq!(
        request(&addr, "query acme antlr@small rank 5").unwrap(),
        cold
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
