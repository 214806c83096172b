//! `lowutil serve` — a concurrent trace-ingestion daemon.
//!
//! The offline pipeline (`record` → `replay`/`snapshot`) assumes each
//! trace is a file that already ended. This module is the long-lived
//! complement: a daemon that accepts many trace streams *concurrently*
//! (TCP, unix sockets, and a watched spool directory), incrementally
//! builds a per-session [`CostGraph`] as framed v2/v3 segments arrive
//! ([`StreamingReader`]), and merges *completed* sessions into
//! per-`(tenant, program)` [`Aggregate`]s that persist across restarts
//! through the snapshot store.
//!
//! # Session lifecycle
//!
//! ```text
//! connect ── "ingest <tenant> <program> <id>\n" ── raw trace bytes ── EOF
//!    │                                                                │
//!    │   connection thread: socket read → StreamingReader → GraphBuilder
//!    ▼                                                                ▼
//!  evict (idle / oversize / corrupt) ──▶ salvage stats, NOT absorbed
//!  clean EOF with verified trailer   ──▶ absorbed + snapshot persisted
//! ```
//!
//! The accept loops block in `accept` and each connection gets one
//! thread that reads, decodes and answers it. Stopping wakes every
//! waiting thread at once: a self-connect per listener, a condvar for
//! the spool and join waits.
//!
//! Per-session memory is bounded: the connection thread reads one
//! chunk at a time and feeds it before reading the next, so while it
//! decodes nothing drains the socket and the kernel socket buffer
//! pushes back on the client; every framed record is capped by the
//! streaming record limit, and a per-session byte budget evicts runaway
//! streams. Idle sessions are evicted on a timeout.
//!
//! # The aggregate-integrity invariant
//!
//! Only a session whose stream ends with a checksum-verified trailer
//! that agrees with its replayed contents is absorbed. An evicted,
//! disconnected, or corrupted session finalizes through the salvage
//! path — its longest valid prefix is *reported* to the client (the
//! reported segment and event counts are exactly the offline
//! `TraceReader::salvage` prefix's; the builder, which may also hold the
//! leading records of a failed segment, is dropped unread) — but it is
//! **never** merged, so a bad session cannot change
//! a tenant aggregate's content hash. Because [`Aggregate::absorb`] is
//! commutative, concurrent arrival order does not change the merged
//! graph either: the daemon's aggregate is byte-identical to an offline
//! sequential merge of the same sessions.
//!
//! Queries (`report` / `rank` / `diff` / `hash` / `stats`) run against a
//! point-in-time copy of the aggregate while ingestion continues. Each
//! aggregate generation is ranked at most once: the ranking is memoised
//! in memory beside the generation's materialised graph and dropped by
//! the next absorb.
//!
//! The daemon writes exactly one snapshot per aggregate and never
//! deletes one: every persisted file is live state.

use crate::analyses::dead::dead_value_metrics_csr;
use crate::analyses::{
    diff_rankings, rank_structures_with, ranked_keys, render_report, CostBenefitConfig, DiffConfig,
    IncrementalAnalyzer, StructureCostBenefit,
};
use crate::core::{
    read_snapshot, Aggregate, AlignedBuf, CostGraph, CostGraphConfig, GraphBuilder, IncrementalCsr,
};
use crate::ir::{parse_program, Program};
use crate::vm::{StreamingReader, DEFAULT_STREAM_RECORD_LIMIT};
use crate::workloads::{workload, WorkloadSize, NAMES};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// How the daemon listens, ingests, and bounds sessions.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of persistent state: `tenants/<tenant>/<program>.snap`
    /// aggregate snapshots.
    pub data_dir: PathBuf,
    /// TCP listen address; port 0 auto-assigns (printed by the CLI).
    pub listen: String,
    /// Unix-domain socket path (unix hosts only; removed on start).
    pub unix_socket: Option<PathBuf>,
    /// Watched spool directory: `<spool>/<tenant>/<program>/*.trace`
    /// files are ingested and renamed to `.done` / `.rejected`.
    pub spool_dir: Option<PathBuf>,
    /// Directory of `<name>.lu` programs; names not found there fall
    /// back to built-in workload names (`antlr`, `antlr@small`, …).
    pub programs_dir: Option<PathBuf>,
    /// Workload size when a program name has no `@size` suffix.
    pub default_size: WorkloadSize,
    /// Graph construction config for every session.
    pub graph: CostGraphConfig,
    /// Socket and spool read chunk size in bytes.
    pub chunk_bytes: usize,
    /// Per-record cap handed to [`StreamingReader::with_record_limit`].
    pub record_limit: usize,
    /// Per-session raw-byte budget; exceeding it evicts the session.
    pub max_session_bytes: u64,
    /// Evict a session that sends nothing for this long.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            data_dir: PathBuf::from("lowutil-serve"),
            listen: "127.0.0.1:0".to_string(),
            unix_socket: None,
            spool_dir: None,
            programs_dir: None,
            default_size: WorkloadSize::Default,
            graph: CostGraphConfig::default(),
            chunk_bytes: 64 << 10,
            record_limit: DEFAULT_STREAM_RECORD_LIMIT,
            max_session_bytes: 1 << 30,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Tenant and program names become path components and protocol tokens,
/// so they are restricted to a conservative alphabet (`@` carries the
/// workload-size suffix).
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'@')
}

struct Tenant {
    agg: Aggregate,
    /// The incrementally-maintained view of `agg`, built lazily on the
    /// first absorb or query and patched in O(delta) afterwards.
    live: Option<Live>,
}

/// The live query/persist state of one aggregate: the canonical CSR
/// view (arrays, cached export, content hash) plus the carried per-seed
/// analysis results. The `Arc`s let queries take O(1) handles and rank
/// outside the tenant lock; an absorb racing a long query pays one
/// copy-on-write clone ([`Arc::make_mut`]) instead of blocking.
struct Live {
    inc: Arc<IncrementalCsr>,
    rank: Arc<IncrementalAnalyzer>,
    /// The current generation's materialized view, built on the first
    /// ranked query after an absorb and shared by every later query
    /// until the next absorb drops it.
    view: Option<Arc<View>>,
}

/// One aggregate generation as ranked queries see it: the materialized
/// [`CostGraph`] plus its ranking, computed by the first query that
/// needs it — outside the tenant lock — and shared by every later one.
struct View {
    graph: CostGraph,
    ranked: OnceLock<Vec<StructureCostBenefit>>,
}

impl Tenant {
    /// Builds (or returns) the live view. The full canonical build runs
    /// once per aggregate per daemon lifetime; every later absorb goes
    /// through the delta path.
    fn ensure_live(&mut self) -> &mut Live {
        if self.live.is_none() {
            let inc = IncrementalCsr::new(&self.agg);
            let rank = IncrementalAnalyzer::new(&inc, 1);
            self.live = Some(Live {
                inc: Arc::new(inc),
                rank: Arc::new(rank),
                view: None,
            });
        }
        self.live.as_mut().expect("just ensured")
    }

    /// Absorbs one session graph and folds the returned delta into the
    /// live view — no fresh [`CostGraph`] is materialized.
    fn absorb(&mut self, g: &CostGraph, instructions: u64) {
        let delta = self.agg.absorb(g, instructions);
        match &mut self.live {
            None => {
                self.ensure_live();
            }
            Some(live) => {
                let dirty = Arc::make_mut(&mut live.inc).apply(&self.agg, &delta);
                Arc::make_mut(&mut live.rank).refresh(&live.inc, &dirty, 1);
                live.view = None;
            }
        }
    }
}

/// Tenant aggregates keyed by `(tenant, program)`.
type TenantMap = HashMap<(String, String), Arc<Mutex<Tenant>>>;

struct State {
    cfg: ServeConfig,
    /// The bound TCP address, which [`State::request_stop`] connects to.
    addr: SocketAddr,
    stop: AtomicBool,
    /// Paired with `wake`: signalled when `stop` is raised and when
    /// `active_sessions` drops to zero.
    signal: Mutex<()>,
    wake: Condvar,
    programs: Mutex<HashMap<String, Arc<Program>>>,
    tenants: Mutex<TenantMap>,
    /// Connection threads alive, each serving one session.
    active_sessions: AtomicU64,
    absorbed: AtomicU64,
    rejected: AtomicU64,
}

impl State {
    /// Raises the stop flag and wakes every thread waiting on it: the
    /// spool and join waits through the condvar, each blocked `accept`
    /// through one self-connect (to loopback on a wildcard bind).
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.notify();
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
        #[cfg(unix)]
        if let Some(path) = &self.cfg.unix_socket {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
    }

    /// Wakes the condvar waiters. Taking the lock orders the wake after
    /// any waiter's predicate check, so none can miss it.
    fn notify(&self) {
        let _g = self.signal.lock().unwrap();
        self.wake.notify_all();
    }

    /// Waits on the condvar while `busy` holds, for at most `timeout`.
    fn wait_while(&self, timeout: Duration, mut busy: impl FnMut() -> bool) {
        let g = self.signal.lock().unwrap();
        let _ = self
            .wake
            .wait_timeout_while(g, timeout, |_| busy())
            .unwrap();
    }

    fn tenant(&self, tenant: &str, program: &str) -> Arc<Mutex<Tenant>> {
        let mut map = self.tenants.lock().unwrap();
        map.entry((tenant.to_string(), program.to_string()))
            .or_insert_with(|| {
                Arc::new(Mutex::new(Tenant {
                    agg: Aggregate::new(),
                    live: None,
                }))
            })
            .clone()
    }

    fn existing_tenant(&self, tenant: &str, program: &str) -> Option<Arc<Mutex<Tenant>>> {
        self.tenants
            .lock()
            .unwrap()
            .get(&(tenant.to_string(), program.to_string()))
            .cloned()
    }

    fn snapshot_path(&self, tenant: &str, program: &str) -> PathBuf {
        self.cfg
            .data_dir
            .join("tenants")
            .join(tenant)
            .join(format!("{program}.snap"))
    }

    /// Resolves a program name: `<programs_dir>/<name>.lu` first, then
    /// the built-in workloads (`name` or `name@small|default|large`).
    fn resolve_program(&self, name: &str) -> Result<Arc<Program>, String> {
        if let Some(p) = self.programs.lock().unwrap().get(name) {
            return Ok(p.clone());
        }
        let program = self.load_program(name)?;
        let arc = Arc::new(program);
        self.programs
            .lock()
            .unwrap()
            .insert(name.to_string(), arc.clone());
        Ok(arc)
    }

    fn load_program(&self, name: &str) -> Result<Program, String> {
        if let Some(dir) = &self.cfg.programs_dir {
            let path = dir.join(format!("{name}.lu"));
            if path.exists() {
                let src = fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                return parse_program(&src).map_err(|e| format!("{name}: {e}"));
            }
        }
        let (base, size) = match name.split_once('@') {
            Some((b, "small")) => (b, WorkloadSize::Small),
            Some((b, "default")) => (b, WorkloadSize::Default),
            Some((b, "large")) => (b, WorkloadSize::Large),
            Some((_, other)) => return Err(format!("unknown workload size `{other}`")),
            None => (name, self.cfg.default_size),
        };
        if !NAMES.contains(&base) {
            return Err(format!("unknown program `{name}`"));
        }
        Ok(workload(base, size).program)
    }
}

/// A running daemon: its bound address plus the join handles needed to
/// stop it. Created by [`Server::start`].
pub struct Handle {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Handle {
    /// The bound TCP address (with the auto-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon is asked to stop (`shutdown` request or
    /// [`Handle::shutdown`] from another thread via a cloned stopper).
    pub fn wait(self) {
        self.join();
    }

    /// Stops the daemon: no new connections are accepted, in-flight
    /// sessions are evicted within the socket read timeout, and all
    /// daemon threads are joined.
    pub fn shutdown(self) {
        self.state.request_stop();
        self.join();
    }

    fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        // Sessions notice the stop flag within one read timeout; wait
        // for their threads so tenant locks, sockets and the threads'
        // memory are released before a restart allocates afresh.
        let state = &self.state;
        state.wait_while(Duration::from_secs(10), || {
            state.active_sessions.load(Ordering::SeqCst) > 0
        });
    }
}

/// The daemon entry point; see [`Server::start`].
pub struct Server;

impl Server {
    /// Starts the daemon: binds the listeners, restores persisted
    /// tenant aggregates from `data_dir`, and spawns the accept/spool
    /// threads.
    ///
    /// # Errors
    /// Fails when the data directory or a listener cannot be set up.
    pub fn start(cfg: ServeConfig) -> io::Result<Handle> {
        fs::create_dir_all(cfg.data_dir.join("tenants"))?;
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        // Bind every listener before any thread starts, so a failed bind
        // leaves no accept loop behind.
        #[cfg(unix)]
        let unix_listener = match &cfg.unix_socket {
            Some(path) => {
                let _ = fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path)?)
            }
            None => None,
        };

        let state = Arc::new(State {
            cfg,
            addr,
            stop: AtomicBool::new(false),
            signal: Mutex::new(()),
            wake: Condvar::new(),
            programs: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            active_sessions: AtomicU64::new(0),
            absorbed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        restore_tenants(&state);

        let mut threads = Vec::new();
        {
            let state = state.clone();
            threads.push(thread::spawn(move || {
                accept_loop(&state, || {
                    listener.accept().map(|(s, _)| Box::new(s) as Conn)
                })
            }));
        }
        #[cfg(unix)]
        if let Some(listener) = unix_listener {
            let state = state.clone();
            threads.push(thread::spawn(move || {
                accept_loop(&state, || {
                    listener.accept().map(|(s, _)| Box::new(s) as Conn)
                })
            }));
        }
        if state.cfg.spool_dir.is_some() {
            let state = state.clone();
            threads.push(thread::spawn(move || spool_loop(&state)));
        }
        Ok(Handle {
            addr,
            state,
            threads,
        })
    }
}

/// Reloads every persisted `tenants/<tenant>/<program>.snap` aggregate.
/// A snapshot that fails validation is skipped (and reported on stderr)
/// rather than poisoning startup; `lowutil snapshot verify` names the
/// damage.
fn restore_tenants(state: &Arc<State>) {
    let root = state.cfg.data_dir.join("tenants");
    let Ok(tenants) = fs::read_dir(&root) else {
        return;
    };
    for tenant_dir in tenants.flatten() {
        let tenant = tenant_dir.file_name().to_string_lossy().into_owned();
        let Ok(files) = fs::read_dir(tenant_dir.path()) else {
            continue;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().is_none_or(|e| e != "snap") {
                continue;
            }
            let Some(program) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
                continue;
            };
            let restored = AlignedBuf::load(&path)
                .map_err(|e| e.to_string())
                .and_then(|buf| {
                    let snap = read_snapshot(&buf).map_err(|e| e.to_string())?;
                    Ok((snap.to_cost_graph(), snap.total_instructions()))
                });
            match restored {
                Ok((g, total)) => {
                    let slot = state.tenant(&tenant, &program);
                    slot.lock().unwrap().agg.absorb(&g, total);
                }
                Err(e) => eprintln!("-- serve: skipping {}: {e}", path.display()),
            }
        }
    }
}

/// Blocks in `accept` and hands each connection its own thread. The
/// connection that wakes the loop after a stop request — normally
/// [`State::request_stop`]'s self-connect — is dropped unanswered.
///
/// Threads that have sent their answer are joined before the next
/// spawn. A client that reconnects on EOF (push, then `rank`, then
/// `report`) would otherwise race the old thread's exit, and glibc would
/// open a new malloc arena for the new thread instead of handing it the
/// old one's; each extra arena keeps about 1 MiB resident.
fn accept_loop(state: &Arc<State>, mut accept: impl FnMut() -> io::Result<Conn>) {
    let mut threads: Vec<(Arc<AtomicBool>, thread::JoinHandle<()>)> = Vec::new();
    loop {
        let accepted = accept();
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(conn) => {
                let (done, busy) = threads
                    .drain(..)
                    .partition(|(answered, t)| answered.load(Ordering::SeqCst) || t.is_finished());
                threads = busy;
                for (_, t) in done {
                    let _ = t.join();
                }
                // Counted before the spawn, so `Handle::join` cannot
                // miss a thread that has yet to start.
                state.active_sessions.fetch_add(1, Ordering::SeqCst);
                let state = state.clone();
                let answered = Arc::new(AtomicBool::new(false));
                let flag = answered.clone();
                let t = thread::spawn(move || {
                    let _guard = SessionGuard(&state);
                    handle_conn(&state, conn, &flag);
                });
                threads.push((answered, t));
            }
            // Out of descriptors and the like: back off, don't spin.
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// A client connection, TCP or unix-domain: one request per connection.
type Conn = Box<dyn Socket>;

/// What a connection needs of its socket beyond reading and writing.
trait Socket: Read + Write + Send {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()>;
    /// Sends EOF to the peer.
    fn close_write(&self);
}

impl Socket for TcpStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }
    fn close_write(&self) {
        let _ = self.shutdown(Shutdown::Write);
    }
}

#[cfg(unix)]
impl Socket for std::os::unix::net::UnixStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, d)
    }
    fn close_write(&self) {
        let _ = self.shutdown(Shutdown::Write);
    }
}

/// The socket read timeout: a read blocked on a quiet client returns
/// this often so the idle and stop checks run. Data wakes it at once.
const POLL: Duration = Duration::from_millis(100);

/// Counts a session's thread out; the last one wakes `Handle::join`.
struct SessionGuard<'a>(&'a State);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        if self.0.active_sessions.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.notify();
        }
    }
}

/// Answers one request, raising `answered` just before the client can
/// see EOF.
fn handle_conn(state: &Arc<State>, mut conn: Conn, answered: &AtomicBool) {
    let _ = conn.set_read_timeout(Some(POLL));
    let (line, leftover) = match read_request_line(state, &mut conn) {
        Ok(v) => v,
        Err(_) => return,
    };
    let toks: Vec<&str> = line.split_whitespace().collect();
    let response = match toks.as_slice() {
        ["ingest", tenant, program, id] => {
            ingest_socket(state, &mut conn, tenant, program, id, leftover)
        }
        ["query", rest @ ..] => match run_query(state, rest) {
            Ok(r) => r,
            Err(e) => format!("error {}\n", one_line(&e)),
        },
        ["stats"] => {
            let tenants = state.tenants.lock().unwrap().len();
            format!(
                "ok tenants={} active_sessions={} absorbed={} rejected={}\n",
                tenants,
                // This very connection holds one active slot.
                state
                    .active_sessions
                    .load(Ordering::SeqCst)
                    .saturating_sub(1),
                state.absorbed.load(Ordering::SeqCst),
                state.rejected.load(Ordering::SeqCst),
            )
        }
        ["shutdown"] => {
            state.request_stop();
            "ok shutting down\n".to_string()
        }
        _ => "error unknown request\n".to_string(),
    };
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
    answered.store(true, Ordering::SeqCst);
    conn.close_write();
}

/// Reads the request line (bounded), returning it plus any body bytes
/// that arrived in the same chunks.
fn read_request_line(state: &State, conn: &mut Conn) -> Result<(String, Vec<u8>), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
            buf.drain(..=nl);
            return Ok((line, buf));
        }
        if buf.len() > 4096 {
            return Err("request line too long".to_string());
        }
        match read_some(state, conn, &mut chunk)? {
            0 => return Err("connection closed before request line".to_string()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Reads into `buf`, waiting past [`POLL`] timeouts; `Ok(0)` is EOF.
/// `Err` says why the connection ends instead: the daemon is stopping,
/// the client sent nothing for the idle timeout, or the read failed.
fn read_some(state: &State, conn: &mut Conn, buf: &mut [u8]) -> Result<usize, String> {
    let start = Instant::now();
    loop {
        if state.stop.load(Ordering::SeqCst) {
            return Err("server shutting down".to_string());
        }
        match conn.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if start.elapsed() > state.cfg.idle_timeout {
                    return Err("idle timeout".to_string());
                }
            }
            r => return r.map_err(|e| format!("read error: {e}")),
        }
    }
}

/// One line, protocol-safe: newlines collapsed.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

/// One session's decode state: the streaming reader, the graph builder
/// it feeds, and the raw bytes fed so far against the byte budget.
struct Session {
    sr: StreamingReader,
    builder: GraphBuilder,
    fed: u64,
}

impl Session {
    /// Checks the names and resolves the program; `Err` carries the
    /// rejection line.
    fn open(state: &State, tenant: &str, program_name: &str, id: &str) -> Result<Session, String> {
        let program = if !valid_name(tenant) || !valid_name(program_name) || !valid_name(id) {
            Err("invalid tenant/program/session name".to_string())
        } else {
            state.resolve_program(program_name)
        };
        match program {
            Ok(program) => Ok(Session {
                sr: StreamingReader::with_record_limit(state.cfg.record_limit),
                builder: GraphBuilder::new(&program, state.cfg.graph),
                fed: 0,
            }),
            Err(e) => {
                state.rejected.fetch_add(1, Ordering::SeqCst);
                Err(format!("rejected {}\n", one_line(&e)))
            }
        }
    }

    /// Feeds one chunk. `Err` evicts the session: the byte budget is
    /// spent, or the stream failed (the error stays latched in `sr`).
    fn feed(&mut self, bytes: &[u8], budget: u64) -> Result<(), String> {
        self.fed += bytes.len() as u64;
        if self.fed > budget {
            return Err(format!("session exceeds byte budget of {budget}"));
        }
        self.sr
            .feed(bytes, &mut self.builder)
            .map_err(|e| e.to_string())
    }
}

/// Socket ingestion on the connection's own thread: each read goes
/// straight into [`Session::feed`] before the next read, so the kernel
/// socket buffer is the back-pressure bound. One buffer serves the
/// request-line leftover, every read, and the eviction drain.
fn ingest_socket(
    state: &Arc<State>,
    conn: &mut Conn,
    tenant: &str,
    program_name: &str,
    id: &str,
    leftover: Vec<u8>,
) -> String {
    let mut buf = leftover;
    let fed = buf.len();
    buf.resize(fed.max(state.cfg.chunk_bytes.max(1)), 0);
    let mut s = match Session::open(state, tenant, program_name, id) {
        Ok(s) => s,
        Err(line) => {
            drain_to_eof(conn, state, &mut buf);
            return line;
        }
    };
    let budget = state.cfg.max_session_bytes;
    let mut evicted = s.feed(&buf[..fed], budget).err();
    let end = loop {
        if let Some(reason) = evicted {
            drain_to_eof(conn, state, &mut buf);
            break Err(reason);
        }
        match read_some(state, conn, &mut buf) {
            Ok(0) => break Ok(()),
            Ok(n) => evicted = s.feed(&buf[..n], budget).err(),
            Err(e) => break Err(e),
        }
    };
    drop(buf);
    finalize_session(state, tenant, program_name, id, s, end)
}

/// Discards an evicted session's remaining bytes until EOF (bounded by
/// the idle timeout and the stop flag), keeping the TCP teardown clean
/// for the client: without this, closing with unread data queued sends a
/// reset that can destroy the rejection line before the peer reads it.
fn drain_to_eof(conn: &mut Conn, state: &State, buf: &mut [u8]) {
    while let Ok(n) = read_some(state, conn, buf) {
        if n == 0 {
            return;
        }
    }
}

/// Spool/file ingestion: the bytes are already complete on disk, so they
/// stream through the same session in `chunk_bytes` pieces.
fn ingest_bytes(
    state: &Arc<State>,
    tenant: &str,
    program_name: &str,
    id: &str,
    bytes: &[u8],
) -> String {
    let mut s = match Session::open(state, tenant, program_name, id) {
        Ok(s) => s,
        Err(line) => return line,
    };
    let budget = state.cfg.max_session_bytes;
    // The whole file is at hand: one oversize feed refuses it undecoded.
    let end = if bytes.len() as u64 > budget {
        s.feed(bytes, budget)
    } else {
        bytes
            .chunks(state.cfg.chunk_bytes.max(1))
            .try_for_each(|chunk| s.feed(chunk, budget))
    };
    finalize_session(state, tenant, program_name, id, s, end)
}

/// The single absorption gate. Only a clean end of stream (`end` is
/// `Ok`) with a verified, totals-consistent trailer merges the session;
/// every other outcome reports the salvaged prefix and leaves the
/// aggregate untouched.
fn finalize_session(
    state: &Arc<State>,
    tenant: &str,
    program_name: &str,
    id: &str,
    session: Session,
    end: Result<(), String>,
) -> String {
    let Session {
        mut sr, builder, ..
    } = session;
    let progress = sr.progress();
    let complete = end.is_ok() && sr.finish().is_ok();
    if !complete {
        state.rejected.fetch_add(1, Ordering::SeqCst);
        let reason = sr
            .error()
            .map(|e| e.to_string())
            .or(end.err())
            .unwrap_or_else(|| "incomplete stream".to_string());
        return format!(
            "rejected session={id} reason=\"{}\" salvaged_segments={} salvaged_events={}\n",
            one_line(&reason),
            sr.segments_seen(),
            progress.events,
        );
    }
    let trailer = *sr.trailer().expect("complete session has a trailer");
    let g = builder.finish();
    let slot = state.tenant(tenant, program_name);
    let mut t = slot.lock().unwrap();
    t.absorb(&g, trailer.instructions);
    let sessions = t.agg.sessions();
    let total = t.agg.total_instructions();
    let live = t.ensure_live();
    let hash = live.inc.content_hash();
    // Persist while still holding the aggregate lock: concurrent
    // sessions on the same aggregate would otherwise race on the temp
    // file and could overwrite a newer snapshot with a staler merge.
    // The bytes come straight from the live view — byte-identical to
    // `write_snapshot` of the offline sequential merge.
    let persisted = persist_live(state, tenant, program_name, &live.inc, total);
    drop(t);
    if let Err(e) = persisted {
        eprintln!("-- serve: persisting {tenant}/{program_name} failed: {e}");
    }
    state.absorbed.fetch_add(1, Ordering::SeqCst);
    format!(
        "ok session={id} sessions={sessions} hash={hash:016x} events={} instructions={}\n",
        trailer.events, trailer.instructions,
    )
}

/// Persists one live view via temp-file + rename, so a crash mid-write
/// leaves the previous snapshot intact.
fn persist_live(
    state: &State,
    tenant: &str,
    program: &str,
    inc: &IncrementalCsr,
    total_instructions: u64,
) -> io::Result<()> {
    let path = state.snapshot_path(tenant, program);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("snap.tmp");
    let mut buf = Vec::new();
    inc.write_snapshot(total_instructions, &mut buf)?;
    fs::write(&tmp, buf)?;
    fs::rename(&tmp, &path)
}

// ---------------------------------------------------------------------------
// Spool ingestion
// ---------------------------------------------------------------------------

/// Rescans the spool every 100 ms; a stop request cuts the wait short.
fn spool_loop(state: &Arc<State>) {
    while !state.stop.load(Ordering::SeqCst) {
        spool_scan(state);
        state.wait_while(Duration::from_millis(100), || {
            !state.stop.load(Ordering::SeqCst)
        });
    }
}

/// One spool sweep: `<spool>/<tenant>/<program>/<id>.trace` files are
/// claimed by renaming to `.work` (restart- and multi-scanner-safe),
/// ingested, then renamed to `.done` or `.rejected` with the response
/// line written alongside as `<id>.resp`.
fn spool_scan(state: &Arc<State>) {
    let Some(root) = state.cfg.spool_dir.clone() else {
        return;
    };
    let Ok(tenants) = fs::read_dir(&root) else {
        return;
    };
    for tenant_dir in tenants.flatten() {
        let tenant = tenant_dir.file_name().to_string_lossy().into_owned();
        let Ok(programs) = fs::read_dir(tenant_dir.path()) else {
            continue;
        };
        for program_dir in programs.flatten() {
            let program = program_dir.file_name().to_string_lossy().into_owned();
            let Ok(files) = fs::read_dir(program_dir.path()) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                if path.extension().is_none_or(|e| e != "trace") {
                    continue;
                }
                let id = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let work = path.with_extension("work");
                if fs::rename(&path, &work).is_err() {
                    continue; // another scanner claimed it
                }
                let response = match fs::read(&work) {
                    Ok(bytes) => ingest_bytes(state, &tenant, &program, &id, &bytes),
                    Err(e) => format!("rejected cannot read spool file: {e}\n"),
                };
                let done = if response.starts_with("ok ") {
                    path.with_extension("done")
                } else {
                    path.with_extension("rejected")
                };
                let _ = fs::write(path.with_extension("resp"), &response);
                let _ = fs::rename(&work, &done);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Serves `query <tenant> <program> hash|stats|rank|report|diff …`
/// against the live incremental view. `hash`/`stats` answer from the
/// view's maintained scalars without touching the graph; ranked queries
/// share the generation's memoised ranking, which the first of them
/// computes with the carried per-seed analysis state instead of a fresh
/// engine.
fn run_query(state: &Arc<State>, toks: &[&str]) -> Result<String, String> {
    let (&tenant, &program, op) = match toks {
        [t, p, rest @ ..] if !rest.is_empty() => (t, p, rest),
        _ => return Err("query needs <tenant> <program> <op>".to_string()),
    };
    match op {
        ["hash"] => {
            let s = live_scalars(state, tenant, program)?;
            Ok(format!("hash {:016x} sessions={}\n", s.hash, s.sessions))
        }
        ["stats"] => {
            let s = live_scalars(state, tenant, program)?;
            Ok(format!(
                "stats sessions={} nodes={} edges={} instructions={} hash={:016x}\n",
                s.sessions, s.nodes, s.edges, s.total, s.hash,
            ))
        }
        ["rank"] | ["rank", _] => {
            let top = match op {
                ["rank", n] => n
                    .parse::<usize>()
                    .map_err(|_| "bad top count".to_string())?,
                _ => 10,
            };
            let q = live_view(state, tenant, program)?;
            let ranked = q.ranked();
            let mut out = String::new();
            for s in ranked.iter().take(top) {
                let _ = writeln!(
                    out,
                    "struct {} {} {:016x} {:016x} {}",
                    s.root.site.0,
                    s.root.slot,
                    s.n_rac.to_bits(),
                    s.n_rab.to_bits(),
                    s.allocations
                );
            }
            let _ = writeln!(out, "end {}", ranked.len().min(top));
            Ok(out)
        }
        ["report"] | ["report", _] => {
            let top = match op {
                ["report", n] => n
                    .parse::<usize>()
                    .map_err(|_| "bad top count".to_string())?,
                _ => 10,
            };
            let prog = state.resolve_program(program)?;
            let q = live_view(state, tenant, program)?;
            // The live CSR shares the materialised graph's node ids.
            let dead = dead_value_metrics_csr(q.inc.csr(), q.total);
            let mut out = render_report(&prog, q.ranked(), top, Some(&dead));
            out.push_str("end\n");
            Ok(out)
        }
        ["diff", other_tenant, other_program] => {
            let qa = live_view(state, tenant, program)?;
            let qb = live_view(state, other_tenant, other_program)?;
            let ka = ranked_keys(&qa.view.graph, qa.ranked());
            let kb = ranked_keys(&qb.view.graph, qb.ranked());
            let report = diff_rankings(&ka, &kb, &DiffConfig::default());
            let mut out = report.render();
            let _ = writeln!(
                out,
                "end regression={}",
                if report.has_regression() { 1 } else { 0 }
            );
            Ok(out)
        }
        _ => Err("unknown query op".to_string()),
    }
}

/// The O(1) scalars of one live aggregate — content hash, session and
/// node/edge counts — read under the tenant lock without materializing
/// or cloning any graph.
struct LiveScalars {
    hash: u64,
    sessions: u64,
    total: u64,
    nodes: usize,
    edges: usize,
}

fn live_scalars(state: &Arc<State>, tenant: &str, program: &str) -> Result<LiveScalars, String> {
    let slot = state
        .existing_tenant(tenant, program)
        .ok_or_else(|| format!("no aggregate for {tenant}/{program}"))?;
    let mut t = slot.lock().unwrap();
    if t.agg.is_empty() {
        return Err(format!("no aggregate for {tenant}/{program}"));
    }
    let sessions = t.agg.sessions();
    let total = t.agg.total_instructions();
    let live = t.ensure_live();
    Ok(LiveScalars {
        hash: live.inc.content_hash(),
        sessions,
        total,
        nodes: live.inc.num_nodes(),
        edges: live.inc.num_edges(),
    })
}

/// Shared handles for one ranked query: the current generation's view
/// plus the live CSR and analysis state it is ranked with. Taken under
/// the tenant lock in O(1) once the generation's view exists — ranking
/// then runs outside the lock, so ingestion never blocks behind an
/// engine run.
struct LiveQuery {
    view: Arc<View>,
    inc: Arc<IncrementalCsr>,
    rank: Arc<IncrementalAnalyzer>,
    total: u64,
}

impl LiveQuery {
    /// The generation's ranking: computed by the first caller, shared
    /// by every later one. The incremental engine answers
    /// byte-identically to a cold batch engine (`tests/incremental.rs`).
    fn ranked(&self) -> &[StructureCostBenefit] {
        self.view.ranked.get_or_init(|| {
            let engine = self.rank.engine(&self.inc);
            rank_structures_with(&self.view.graph, &CostBenefitConfig::default(), &engine, 1)
        })
    }
}

fn live_view(state: &Arc<State>, tenant: &str, program: &str) -> Result<LiveQuery, String> {
    let slot = state
        .existing_tenant(tenant, program)
        .ok_or_else(|| format!("no aggregate for {tenant}/{program}"))?;
    let mut t = slot.lock().unwrap();
    if t.agg.is_empty() {
        return Err(format!("no aggregate for {tenant}/{program}"));
    }
    let total = t.agg.total_instructions();
    // Materialize once per generation: the first ranked query after an
    // absorb pays `to_cost_graph`, every later one shares the Arc.
    if t.ensure_live().view.is_none() {
        let graph = t.agg.to_cost_graph();
        let live = t.ensure_live();
        debug_assert_eq!(
            graph.graph().num_nodes(),
            live.inc.num_nodes(),
            "canonical interning and the live view must agree on node ids"
        );
        live.view = Some(Arc::new(View {
            graph,
            ranked: OnceLock::new(),
        }));
    }
    let live = t.ensure_live();
    Ok(LiveQuery {
        view: live.view.clone().expect("just materialized"),
        inc: live.inc.clone(),
        rank: live.rank.clone(),
        total,
    })
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

/// Pushes one recorded trace to a running daemon over TCP, returning the
/// daemon's single-line response (`ok …` or `rejected …`).
///
/// # Errors
/// Propagates connection/transfer errors; a *rejected* session is an
/// `Ok` carrying the rejection line, not an error.
pub fn push_trace(
    addr: &str,
    tenant: &str,
    program: &str,
    id: &str,
    trace: &[u8],
) -> io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(format!("ingest {tenant} {program} {id}\n").as_bytes())?;
    s.write_all(trace)?;
    s.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    s.read_to_string(&mut response)?;
    Ok(response)
}

/// Sends one request line (`query …`, `stats`, `shutdown`) to a running
/// daemon over TCP and returns the full response.
///
/// # Errors
/// Propagates connection/transfer errors.
pub fn request(addr: &str, line: &str) -> io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(line.as_bytes())?;
    s.write_all(b"\n")?;
    s.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    s.read_to_string(&mut response)?;
    Ok(response)
}

/// Writes a trace into a spool directory in the layout
/// the spool loop watches, plus the path the response will land at.
pub fn spool_paths(spool: &Path, tenant: &str, program: &str, id: &str) -> (PathBuf, PathBuf) {
    let dir = spool.join(tenant).join(program);
    (
        dir.join(format!("{id}.trace")),
        dir.join(format!("{id}.resp")),
    )
}
