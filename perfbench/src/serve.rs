//! The `serve` workload: a daemon started in-process on a fresh data
//! dir, clients pushing sessions and querying the aggregates over TCP,
//! and an in-process mirror that repeats the daemon's calls so the
//! traced run can split client latency into work and overhead.

use crate::suite::{stream_build, Prog, Tally, TOP};
use lowutil::analyses::{
    dead_value_metrics, rank_structures_batch, rank_structures_with, render_report, CacheKey,
    CostBenefitConfig, EngineChoice, IncrementalAnalyzer, QueryCache, StructureCostBenefit,
};
use lowutil::core::{Aggregate, CostGraph, CostGraphConfig, IncrementalCsr};
use lowutil::par::replay_gcost;
use lowutil::serve::{push_trace, request, Handle, ServeConfig, Server};
use lowutil::vm::TraceReader;
use lowutil_perfbench::schedule::{poisson_arrivals, Rng};
use lowutil_perfbench::spans::Recorder;
use lowutil_perfbench::stats::median;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The tenant every session is pushed under.
const TENANT: &str = "bench";

/// One pushable session: its aggregate, the program run that produced
/// it, and the recorded trace.
pub struct Session {
    /// Index into [`Pool::aggs`].
    pub agg: usize,
    /// The program and scheduler seed it was recorded from.
    pub prog: Prog,
    /// The recorded trace.
    pub trace: Vec<u8>,
}

/// The sessions one workload pushes, grouped by aggregate.
pub struct Pool {
    /// Aggregate (program) names as the daemon resolves them.
    pub aggs: Vec<String>,
    /// Every session; each aggregate has at least one.
    pub sessions: Vec<Session>,
}

impl Pool {
    /// Records one session per program, each its own aggregate.
    fn from_programs(progs: Vec<Prog>) -> Result<Pool, String> {
        let mut pool = Pool {
            aggs: Vec::new(),
            sessions: Vec::new(),
        };
        for prog in progs {
            pool.add(prog)?;
        }
        Ok(pool)
    }

    /// Records `prog` and files it under its program's aggregate.
    fn add(&mut self, prog: Prog) -> Result<(), String> {
        let agg = match self.aggs.iter().position(|a| *a == prog.name) {
            Some(i) => i,
            None => {
                self.aggs.push(prog.name.clone());
                self.aggs.len() - 1
            }
        };
        let trace = prog.record()?;
        self.sessions.push(Session { agg, prog, trace });
        Ok(())
    }

    /// The first session of each aggregate, which set-up pushes.
    fn seeds(&self) -> Vec<usize> {
        (0..self.aggs.len())
            .map(|a| {
                self.sessions
                    .iter()
                    .position(|s| s.agg == a)
                    .expect("every aggregate has a session")
            })
            .collect()
    }

    fn program(&self, agg: usize) -> &Prog {
        &self.sessions[self.seeds()[agg]].prog
    }
}

/// The `serve` workload's sessions: five programs at `small` and
/// `mtserver` at `default` under four scheduler seeds, all traces within
/// 2× of each other in size.
pub fn workload_pool(seed: u64) -> Result<Pool, String> {
    use lowutil::workloads::WorkloadSize::{Default, Small};
    let mut progs: Vec<Prog> = ["bloat", "pmd", "xalan", "luindex", "sunflow"]
        .iter()
        .map(|n| Prog::new(n, Small, seed))
        .collect();
    progs.extend((0..4).map(|k| Prog::new("mtserver", Default, seed.wrapping_add(k))));
    Pool::from_programs(progs)
}

/// Client-side times of one op: push, cold `rank`, warm `report`.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    /// When the client started the push.
    pub start: Instant,
    /// When the push answered.
    pub pushed: Instant,
    /// When `query … rank` answered.
    pub ranked: Instant,
    /// When `query … report` answered.
    pub reported: Instant,
}

/// One finished op of a loop.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Op id, unique in the run; also the pushed session's id.
    pub id: u64,
    /// Index into [`Pool::sessions`].
    pub session: usize,
    /// When the op was due.
    pub due: Instant,
    /// When the op ended, answered or failed.
    pub end: Instant,
    /// Its times, or why it failed.
    pub times: Result<OpTimes, String>,
}

impl OpRecord {
    fn run(rig: &Rig, pool: &Pool, session: usize, id: u64, due: Instant) -> OpRecord {
        let times = rig.op(pool, session, id);
        OpRecord {
            id,
            session,
            due,
            end: Instant::now(),
            times,
        }
    }

    /// Latency from the due time to the end of the op.
    pub fn latency_ms(&self) -> f64 {
        self.end.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the client started the op.
    pub fn late_ms(&self) -> f64 {
        self.times.as_ref().map_or(0.0, |t| {
            t.start.saturating_duration_since(self.due).as_secs_f64() * 1e3
        })
    }
}

/// A running daemon seeded with one session per aggregate.
pub struct Rig {
    handle: Handle,
    addr: String,
    /// Milliseconds `Server::start` took to restore the seeded data dir.
    pub restore_ms: f64,
    /// Sessions each aggregate has absorbed, by index into the pool.
    absorbed: Mutex<Vec<Vec<usize>>>,
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        data_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    }
}

impl Rig {
    /// Starts a daemon on a fresh `dir`, pushes one session per
    /// aggregate, restarts it so it restores from its snapshots, and
    /// runs one hash, rank and report query per aggregate so the first
    /// timed op finds the live views built and the programs resolved.
    pub fn setup(pool: &Pool, dir: &Path) -> Result<Rig, String> {
        let _ = fs::remove_dir_all(dir);
        let first = Server::start(config(dir)).map_err(|e| format!("serve: {e}"))?;
        let mut absorbed = vec![Vec::new(); pool.aggs.len()];
        let seeded = pool
            .seeds()
            .into_iter()
            .try_for_each(|s| -> Result<(), String> {
                push(&first.addr().to_string(), pool, s, &format!("seed{s}"))?;
                absorbed[pool.sessions[s].agg].push(s);
                Ok(())
            });
        first.shutdown();
        seeded?;
        let t = Instant::now();
        let handle = Server::start(config(dir)).map_err(|e| format!("serve restart: {e}"))?;
        let restore_ms = t.elapsed().as_secs_f64() * 1e3;
        let rig = Rig {
            addr: handle.addr().to_string(),
            handle,
            restore_ms,
            absorbed: Mutex::new(absorbed),
        };
        for agg in &pool.aggs {
            for q in ["hash", "rank", "report"] {
                if let Err(e) = rig.query(agg, q) {
                    rig.handle.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(rig)
    }

    fn query(&self, agg: &str, what: &str) -> Result<String, String> {
        let line = format!("query {TENANT} {agg} {what}");
        let r = request(&self.addr, &line).map_err(|e| format!("{line}: {e}"))?;
        if r.starts_with("error") {
            return Err(format!("{line}: {}", r.trim_end()));
        }
        Ok(r)
    }

    /// One op: push `session`, then `rank` (cold: a new generation) and
    /// `report` (warm: the view and the cached ranking are reused).
    pub fn op(&self, pool: &Pool, session: usize, id: u64) -> Result<OpTimes, String> {
        let agg = &pool.aggs[pool.sessions[session].agg];
        let start = Instant::now();
        push(&self.addr, pool, session, &format!("s{id}"))?;
        self.absorbed.lock().expect("absorbed list poisoned")[pool.sessions[session].agg]
            .push(session);
        let pushed = Instant::now();
        let rank = self.query(agg, "rank")?;
        let ranked = Instant::now();
        check_rank(&rank)?;
        let report = self.query(agg, "report")?;
        let reported = Instant::now();
        if !report.ends_with("\nend\n") {
            return Err(format!("{agg}: report does not end with `end`"));
        }
        Ok(OpTimes {
            start,
            pushed,
            ranked,
            reported,
        })
    }

    /// Compares each aggregate's `hash` and `rank` answers with an
    /// offline merge of the sessions it absorbed. Returns one message
    /// per aggregate that differs.
    pub fn verify(&self, pool: &Pool) -> Vec<String> {
        let graphs: Vec<Result<(CostGraph, u64), String>> = pool
            .sessions
            .iter()
            .map(|s| {
                let reader = TraceReader::new(&s.trace).map_err(|e| e.to_string())?;
                let g = replay_gcost(&s.prog.program, CostGraphConfig::default(), &reader, 1)
                    .map_err(|e| e.to_string())?;
                Ok((g, reader.trailer().instructions))
            })
            .collect();
        let absorbed = self.absorbed.lock().expect("absorbed list poisoned");
        let mut errors = Vec::new();
        for (a, name) in pool.aggs.iter().enumerate() {
            let check = || -> Result<(), String> {
                let mut offline = Aggregate::new();
                for &s in &absorbed[a] {
                    let (g, instr) = graphs[s].as_ref().map_err(Clone::clone)?;
                    offline.absorb(g, *instr);
                }
                let hash = format!(
                    "hash {:016x} sessions={}\n",
                    IncrementalCsr::new(&offline).content_hash(),
                    offline.sessions()
                );
                let ranked = rank_structures_batch(
                    &offline.to_cost_graph(),
                    &CostBenefitConfig::default(),
                    1,
                );
                if self.query(name, "hash")? != hash {
                    return Err(format!("{name}: hash differs from the offline merge"));
                }
                if self.query(name, "rank")? != rank_text(&ranked) {
                    return Err(format!("{name}: rank differs from the offline merge"));
                }
                Ok(())
            };
            if let Err(e) = check() {
                errors.push(e);
            }
        }
        errors
    }

    /// Stops the daemon and joins its threads.
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

fn push(addr: &str, pool: &Pool, session: usize, id: &str) -> Result<(), String> {
    let s = &pool.sessions[session];
    let agg = &pool.aggs[s.agg];
    let r = push_trace(addr, TENANT, agg, id, &s.trace).map_err(|e| format!("push {agg}: {e}"))?;
    if r.starts_with("ok ") {
        Ok(())
    } else {
        Err(format!("push {agg}: {}", r.trim_end()))
    }
}

/// A `rank` answer must end with `end N`, N being its struct lines.
fn check_rank(r: &str) -> Result<(), String> {
    let structs = r.lines().filter(|l| l.starts_with("struct ")).count();
    match r.lines().last() {
        Some(last) if last == format!("end {structs}") => Ok(()),
        _ => Err("rank does not end with `end N`".to_string()),
    }
}

/// The daemon's `rank` answer for a ranking.
fn rank_text(ranked: &[StructureCostBenefit]) -> String {
    let mut out = String::new();
    for s in ranked.iter().take(TOP) {
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
    let _ = writeln!(out, "end {}", ranked.len().min(TOP));
    out
}

/// Runs `count` ops due at seeded Poisson arrival times over `seconds`,
/// with at most `inflight` in flight. Each op pushes a session drawn
/// with the same seed. Op ids start at `first_id`. Returns the ops in id
/// order and the instant the schedule started.
pub fn open_loop(
    rig: &Rig,
    pool: &Pool,
    seed: u64,
    count: usize,
    seconds: f64,
    inflight: usize,
    first_id: u64,
) -> (Vec<OpRecord>, Instant) {
    let due = poisson_arrivals(seed, count, seconds);
    let mut rng = Rng::new(seed);
    let draws: Vec<usize> = (0..count).map(|_| rng.below(pool.sessions.len())).collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut records: Vec<OpRecord> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..inflight)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= count {
                            return out;
                        }
                        let at = t0 + Duration::from_secs_f64(due[i]);
                        if let Some(wait) = at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        out.push(OpRecord::run(rig, pool, draws[i], first_id + i as u64, at));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.id);
    (records, t0)
}

/// The live state the daemon keeps per aggregate, rebuilt in-process.
struct MirrorAgg {
    agg: Aggregate,
    inc: IncrementalCsr,
    an: IncrementalAnalyzer,
}

/// Repeats the daemon's public calls for each op, timed per layer.
pub struct Mirror {
    aggs: Vec<MirrorAgg>,
    cache: QueryCache,
    snap: PathBuf,
    /// Aggregate and query-cache outcomes of the mirrored ops.
    pub tally: Tally,
}

impl Mirror {
    /// The state a restored daemon starts from: each aggregate holding
    /// its set-up session, with its live view and analysis built.
    pub fn new(pool: &Pool, dir: &Path) -> Result<Mirror, String> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let aggs = pool
            .seeds()
            .into_iter()
            .map(|s| {
                let s = &pool.sessions[s];
                let (g, instr) = stream_build(&s.prog.program, &s.trace)?;
                let mut agg = Aggregate::new();
                agg.absorb(&g, instr);
                let inc = IncrementalCsr::new(&agg);
                let an = IncrementalAnalyzer::new(&inc, 1);
                Ok(MirrorAgg { agg, inc, an })
            })
            .collect::<Result<_, String>>()?;
        Ok(Mirror {
            aggs,
            cache: QueryCache::new(dir.join("qcache")),
            snap: dir.join("mirror.snap"),
            tally: Tally::default(),
        })
    }

    /// Repeats op `op` (a push of `session`, a cold rank, a warm report)
    /// under a `serve.work` span.
    pub fn op(
        &mut self,
        pool: &Pool,
        session: usize,
        rec: &mut Recorder,
        op: u64,
    ) -> Result<(), String> {
        rec.time("serve.work", op, |rec| {
            self.op_inner(pool, session, rec, op)
        })
    }

    fn op_inner(
        &mut self,
        pool: &Pool,
        session: usize,
        rec: &mut Recorder,
        op: u64,
    ) -> Result<(), String> {
        let s = &pool.sessions[session];
        let a = s.agg;
        let (g, instr) = rec.time("vm.stream_feed", op, |_| {
            stream_build(&s.prog.program, &s.trace)
        })?;
        let m = &mut self.aggs[a];
        let delta = rec.time("core.absorb", op, |_| m.agg.absorb(&g, instr));
        let dirty = rec.time("core.incr_apply", op, |_| m.inc.apply(&m.agg, &delta));
        let rs = rec.time("analyses.refresh", op, |_| m.an.refresh(&m.inc, &dirty, 1));
        let total = m.agg.total_instructions();
        let mut buf = Vec::new();
        rec.time("core.snapshot_write", op, |_| {
            m.inc.write_snapshot(total, &mut buf)
        })
        .map_err(|e| e.to_string())?;
        rec.time("serve.persist", op, |_| -> std::io::Result<()> {
            let tmp = self.snap.with_extension("snap.tmp");
            fs::write(&tmp, &buf)?;
            fs::rename(&tmp, &self.snap)
        })
        .map_err(|e| e.to_string())?;
        let t = &mut self.tally;
        t.absorbs += 1;
        t.freq_only += delta.is_freq_only() as u64;
        t.refresh_total += rs.total as u64;
        t.refresh_recomputed += rs.recomputed as u64;

        // rank: materialize the new generation, miss the cache, rank
        // with the carried analysis state, store.
        let config = CostBenefitConfig::default();
        let view = rec.time("core.materialize", op, |_| m.agg.to_cost_graph());
        let key = CacheKey::new(m.inc.content_hash(), EngineChoice::Batch, &config);
        let cache = &self.cache;
        let cold = rec.time("analyses.qcache", op, |_| cache.load(&key));
        let ranked = match &cold {
            Some(hit) => hit.clone(),
            None => rec.time("analyses.rank", op, |_| {
                rank_structures_with(&view, &config, &m.an.engine(&m.inc), 1)
            }),
        };
        rec.time("analyses.qcache", op, |_| cache.store(&key, &ranked))
            .map_err(|e| format!("query cache store: {e}"))?;

        // report: the cached ranking, dead values, render.
        let warm = rec
            .time("analyses.qcache", op, |_| cache.load(&key))
            .ok_or("mirror query cache missed a stored entry")?;
        let dead = rec.time("analyses.dead", op, |_| dead_value_metrics(&view, total));
        rec.time("analyses.report", op, |_| {
            render_report(&pool.program(a).program, &warm, TOP, Some(&dead))
        });
        self.tally.lookups += 2;
        self.tally.hits += cold.is_some() as u64 + 1;
        Ok(())
    }
}

/// Client-observed and mirrored per-op times of one set of ops.
#[derive(Debug, Clone, Copy)]
pub struct SocketLayers {
    /// Median push latency.
    pub push_ms: f64,
    /// Median cold `rank` latency.
    pub rank_ms: f64,
    /// Median warm `report` latency.
    pub report_ms: f64,
    /// Median mirrored work per op.
    pub work_ms: f64,
    /// Median of client request time minus mirrored work, per op.
    pub overhead_ms: f64,
}

/// Records the client spans of `records` into `rec` (an `op` span from
/// due time to the last answer, with the queue wait and the three
/// requests under it) and mirrors every successful op, in id order.
/// Returns the socket-layer medians, or `None` when no op succeeded.
pub fn trace_ops(
    records: &[OpRecord],
    pool: &Pool,
    mirror: &mut Mirror,
    rec: &mut Recorder,
    op_span: &'static str,
) -> Result<Option<SocketLayers>, String> {
    let (mut push, mut rank, mut report, mut work, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in records {
        let Ok(t) = &r.times else { continue };
        let parent = rec.record(op_span, r.id, None, r.due, t.reported);
        rec.record("serve.wait", r.id, parent, r.due, t.start);
        rec.record("serve.push", r.id, parent, t.start, t.pushed);
        rec.record("serve.rank", r.id, parent, t.pushed, t.ranked);
        rec.record("serve.report", r.id, parent, t.ranked, t.reported);
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        push.push(ms(t.start, t.pushed));
        rank.push(ms(t.pushed, t.ranked));
        report.push(ms(t.ranked, t.reported));
        let before = Instant::now();
        mirror.op(pool, r.session, rec, r.id)?;
        let w = before.elapsed().as_secs_f64() * 1e3;
        work.push(w);
        overhead.push(ms(t.start, t.reported) - w);
    }
    if push.is_empty() {
        return Ok(None);
    }
    Ok(Some(SocketLayers {
        push_ms: median(&push),
        rank_ms: median(&rank),
        report_ms: median(&report),
        work_ms: median(&work),
        overhead_ms: median(&overhead),
    }))
}
