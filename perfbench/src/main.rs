//! `perfbench`: the lowutil benchmark. Runs one workload (`profile`,
//! `replay` or `serve`) for a fixed time, checks every op's output, and
//! prints its metrics; the last line of standard output is one JSON
//! result object. `--workload all` runs the three in turn, one process
//! each. See README.md for the workloads and metrics.

mod serve;
mod suite;

use lowutil::par::{auto_pipeline_jobs, default_jobs};
use lowutil::workloads::WorkloadSize;
use lowutil_perfbench::json;
use lowutil_perfbench::metrics::{END_TO_END, PER_LAYER};
use lowutil_perfbench::spans::Recorder;
use lowutil_perfbench::stats::{median, tail};
use serve::{Mirror, OpRecord, Pool, Rig, SocketLayers};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use suite::{Inputs, ProbeCounts, Prog, Tally};

const USAGE: &str = "usage: perfbench --workload profile|replay|serve|all --seed N --seconds N --trace 0|1 [--out FILE]";

/// Set-ups per run of `serve`; `setup_s` is their median.
const SERVE_SETUPS: usize = 5;

/// Set-ups per run of `profile` and `replay`. Their set-up is short
/// (~0.1 s on `profile`) and one varies by a fifth from the next, so the
/// median takes more of them than on `serve`.
const SUITE_SETUPS: usize = 15;

/// Ops a closed loop runs at the least, so the tail has samples beyond it.
const MIN_OPS: usize = 20;

/// Offered load of `serve`, in ops per second. An op is a push plus two
/// queries taking ~50 ms; at this rate both in-flight slots are busy for
/// under 2% of arrivals, so the queued ops stay well inside the ten
/// samples `tail_ms` leaves beyond it (at 6 ops/s ~4% queue, and the
/// tail jumped between queued and unqueued ops from seed to seed). It
/// is about an eighth of the closed-loop capacity on a 2-core machine.
const SERVE_RATE: f64 = 4.0;

/// Requests `serve` keeps in flight at most.
const SERVE_INFLIGHT: usize = 2;

/// Passes the probe pass makes over its programs.
const PROBE_PASSES: u64 = 3;

/// Where runs keep scratch data, span files and result records,
/// relative to the checkout root.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: Path::new(OUT_DIR).join("results.jsonl"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["profile", "replay", "serve", "all"].contains(&a.workload.as_str()) {
        return Err("--workload must be profile, replay, serve or all".to_string());
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// Latencies and failures of one timed loop.
#[derive(Default)]
struct Loop {
    lat_ms: Vec<f64>,
    ops_per_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Loop {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn p50(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// Folds in another loop's failures (its latencies stay its own).
    fn add_failures(&mut self, other: &Loop) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// Runs ops back to back until `seconds` have passed and at least
/// [`MIN_OPS`] ran, each under an `op` span.
fn closed_loop(
    seconds: f64,
    first_id: u64,
    rec: &mut Recorder,
    mut op: impl FnMut(&mut Recorder, u64) -> Result<(), String>,
) -> Loop {
    let mut l = Loop::default();
    let t0 = Instant::now();
    let mut id = first_id;
    while t0.elapsed().as_secs_f64() < seconds || l.lat_ms.len() < MIN_OPS {
        let t = Instant::now();
        let r = rec.time("op", id, |rec| op(rec, id));
        l.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        l.attempted += 1;
        if let Err(e) = r {
            l.fail(e);
        }
        id += 1;
    }
    l.ops_per_s = l.lat_ms.len() as f64 / t0.elapsed().as_secs_f64();
    l
}

/// Latencies of an open loop's ops, counted from their due times.
fn open_loop_stats(records: &[OpRecord], t0: Instant) -> Loop {
    let mut l = Loop::default();
    let mut last = t0;
    for r in records {
        l.attempted += 1;
        l.lat_ms.push(r.latency_ms());
        last = last.max(r.end);
        if let Err(e) = &r.times {
            l.fail(e.clone());
        }
    }
    let done = l.attempted - l.failed;
    l.ops_per_s = done as f64 / last.saturating_duration_since(t0).as_secs_f64().max(1e-9);
    l
}

/// Runs `setup` `reps` times, handing every result but the last to
/// `discard`. Returns each set-up's seconds and the last result.
fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((secs, last.expect("at least one set-up")))
}

/// What a workload run measured.
struct Measured {
    setup_s: Vec<f64>,
    timed: Loop,
    /// Failures of everything else the run checked.
    checks: Loop,
    meta: Vec<(&'static str, String)>,
    traced: Option<Traced>,
}

/// The traced run's extras.
struct Traced {
    /// Values of the [`PER_LAYER`] metrics, in order.
    layers: Vec<f64>,
    spans: Recorder,
    /// Per program: name, plain and profiled ms, instructions.
    per_program: Vec<(String, f64, f64, u64)>,
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    /// Spans of the traced ops.
    ops: &'a Recorder,
    /// Spans of the probe pass, used for layers the op does not call.
    probes: &'a Recorder,
    counts: &'a ProbeCounts,
    tally: Tally,
    socket: SocketLayers,
    restore_ms: f64,
    untraced_p50: f64,
    traced_p50: f64,
}

/// One value per [`PER_LAYER`] metric, in its order.
fn layer_metrics(x: &LayerInputs) -> Result<Vec<f64>, String> {
    let median_of = |rec: &Recorder, span: &str| -> Result<f64, String> {
        let v = rec.per_op_ms(span);
        if v.is_empty() {
            return Err(format!("no `{span}` spans were recorded"));
        }
        Ok(median(&v))
    };
    // A layer the op calls is timed in the ops, any other in the probes.
    let time = |span: &str| {
        if x.ops.per_op_ms(span).is_empty() {
            median_of(x.probes, span)
        } else {
            median_of(x.ops, span)
        }
    };
    // Self times subtract one call from another, so both come from the
    // probe pass, where each program's calls run back to back on one
    // thread.
    let probe = |span: &str| median_of(x.probes, span);
    let [freq_only, recomputed, hit] = x.tally.shares();
    // Share of each program's (or, on serve, each op's) time that
    // its layer spans cover.
    let mut cover = x.ops.child_cover("task");
    if cover.is_empty() {
        cover = x.ops.child_cover("op");
    }
    let mut out = Vec::new();
    for &(name, _) in PER_LAYER {
        let v = match name {
            "vm.emit_self_ms" => probe("vm.emit")? - probe("vm.dispatch")?,
            "core.gcost_self_ms" => probe("core.profile")? - probe("vm.emit")?,
            "vm.events" => x.counts.events as f64,
            "vm.trace_bytes" => x.counts.trace_bytes as f64,
            "core.nodes" => x.counts.nodes as f64,
            "core.edges" => x.counts.edges as f64,
            "core.snapshot_bytes" => x.counts.snapshot_bytes as f64,
            "core.freq_only_share" => freq_only,
            "analyses.recomputed_share" => recomputed,
            "analyses.qcache_hit_share" => hit,
            "serve.push_ms" => x.socket.push_ms,
            "serve.rank_ms" => x.socket.rank_ms,
            "serve.report_ms" => x.socket.report_ms,
            "serve.work_ms" => x.socket.work_ms,
            "serve.overhead_ms" => x.socket.overhead_ms,
            "serve.restore_ms" => x.restore_ms,
            "op.p50_ms" => x.traced_p50,
            "op.untraced_p50_ms" => x.untraced_p50,
            "op.trace_overhead_share" => x.traced_p50 / x.untraced_p50 - 1.0,
            "op.span_cover_share" => {
                if cover.is_empty() {
                    return Err("no op spans were recorded".to_string());
                }
                median(&cover)
            }
            span_ms => time(
                span_ms
                    .strip_suffix("_ms")
                    .expect("time metrics end in _ms"),
            )?,
        };
        out.push(v);
    }
    Ok(out)
}

/// The serve workload's traced traffic: a daemon set up afresh, the
/// seeded open loop, the end-of-run check, and every op mirrored
/// in-process.
struct TracedServe {
    layers: SocketLayers,
    restore_ms: f64,
    /// Client spans (the op span named as asked) and mirrored layer spans.
    spans: Recorder,
    /// Aggregate and query-cache outcomes of the mirrored ops.
    tally: Tally,
    /// Op p50 of the traced loop.
    p50: f64,
}

/// Runs the serve workload's traced half. Every traced run reports its
/// `serve.*` metrics from it: `profile` and `replay` ops never touch the
/// socket layer, so their traced runs measure it with the same traffic
/// `serve` sends. Failures are added to `checks`.
fn traced_serve(
    pool: &Pool,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    epoch: Instant,
    op_span: &'static str,
    checks: &mut Loop,
) -> Result<TracedServe, String> {
    let count = serve_ops(seconds);
    let rig = Rig::setup(pool, &scratch.join("traced-serve"))?;
    let (records, t0) = serve::open_loop(
        &rig,
        pool,
        seed ^ 0x7ace_d000,
        count,
        seconds,
        SERVE_INFLIGHT,
        count as u64,
    );
    let errors = rig.verify(pool);
    let restore_ms = rig.restore_ms;
    rig.stop();
    let traced = open_loop_stats(&records, t0);
    checks.add_failures(&traced);
    checks.attempted += pool.aggs.len() as u64;
    errors.into_iter().for_each(|e| checks.fail(e));
    let mut spans = Recorder::new(epoch, true);
    let mut mirror = Mirror::new(pool, &scratch.join("mirror"))?;
    let layers = serve::trace_ops(&records, pool, &mut mirror, &mut spans, op_span)?
        .ok_or("no traced serve op succeeded")?;
    Ok(TracedServe {
        layers,
        restore_ms,
        spans,
        tally: mirror.tally,
        p50: traced.p50(),
    })
}

/// Ops `serve` offers over `seconds`.
fn serve_ops(seconds: f64) -> usize {
    ((SERVE_RATE * seconds).round() as usize).max(MIN_OPS)
}

fn run_suite(a: &Args, replay: bool, scratch: &Path) -> Result<Measured, String> {
    let jobs = default_jobs();
    let epoch = Instant::now();
    let op = |inp: &Inputs, rec: &mut Recorder, id: u64| {
        if replay {
            suite::replay_op(inp, rec, id, jobs)
        } else {
            suite::profile_op(inp, rec, id, jobs)
        }
    };
    let (setup_s, inp) = repeat_setup(SUITE_SETUPS, || suite::setup(a.seed, replay, jobs), drop)?;
    let phase = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let timed = closed_loop(phase, 0, &mut Recorder::new(epoch, false), |rec, id| {
        op(&inp, rec, id)
    });
    let mut m = Measured {
        setup_s,
        checks: Loop::default(),
        meta: vec![("jobs", jobs.to_string())],
        traced: None,
        timed,
    };
    if a.trace {
        let mut ops = Recorder::new(epoch, true);
        let first = m.timed.attempted;
        let traced = closed_loop(phase, first, &mut ops, |rec, id| op(&inp, rec, id));
        m.checks.add_failures(&traced);
        let mut probes = Recorder::new(epoch, true);
        let progs: Vec<&Prog> = inp.progs.iter().collect();
        let counts = suite::probe_pass(&progs, PROBE_PASSES, false, scratch, &mut probes, jobs)?;
        let pool = serve::workload_pool(a.seed)?;
        let sock = traced_serve(
            &pool,
            a.seed,
            phase,
            scratch,
            epoch,
            "serve.op",
            &mut m.checks,
        )?;
        // The program and size ROADMAP item 1(a) tracks across BENCH files.
        let tomcat = Prog::new("tomcat", WorkloadSize::Default, a.seed);
        let (plain, profiled, instr) = suite::plain_and_profiled(&tomcat, 5)?;
        m.meta.push((
            "tomcat_default",
            format!(
                "{{\"plain_ms\": {}, \"profiled_ms\": {}, \"instructions\": {instr}}}",
                json::number(plain),
                json::number(profiled)
            ),
        ));
        let layers = layer_metrics(&LayerInputs {
            ops: &ops,
            probes: &probes,
            tally: counts.tally,
            counts: &counts,
            socket: sock.layers,
            restore_ms: sock.restore_ms,
            untraced_p50: m.timed.p50(),
            traced_p50: traced.p50(),
        })?;
        ops.absorb(probes);
        ops.absorb(sock.spans);
        m.traced = Some(Traced {
            layers,
            spans: ops,
            per_program: counts.per_program,
        });
    }
    Ok(m)
}

fn run_serve(a: &Args, scratch: &Path) -> Result<Measured, String> {
    let epoch = Instant::now();
    let data = scratch.join("serve");
    let (setup_s, (pool, rig)) = repeat_setup(
        SERVE_SETUPS,
        || {
            let pool = serve::workload_pool(a.seed)?;
            let rig = Rig::setup(&pool, &data)?;
            Ok((pool, rig))
        },
        |(_, rig): (Pool, Rig)| rig.stop(),
    )?;
    let phase = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let (records, t0) = serve::open_loop(
        &rig,
        &pool,
        a.seed,
        serve_ops(phase),
        phase,
        SERVE_INFLIGHT,
        0,
    );
    let timed = open_loop_stats(&records, t0);
    let late: Vec<f64> = records.iter().map(OpRecord::late_ms).collect();
    let mut m = Measured {
        setup_s,
        checks: Loop::default(),
        meta: vec![
            ("serve_rate_per_s", json::number(SERVE_RATE)),
            ("serve_inflight", SERVE_INFLIGHT.to_string()),
            ("serve_late_p50_ms", json::number(median(&late))),
            (
                "serve_late_max_ms",
                json::number(late.iter().copied().fold(0.0, f64::max)),
            ),
            ("serve_sessions", pool.sessions.len().to_string()),
            ("serve_aggregates", pool.aggs.len().to_string()),
        ],
        traced: None,
        timed,
    };
    let errors = rig.verify(&pool);
    rig.stop();
    m.checks.attempted += pool.aggs.len() as u64;
    errors.into_iter().for_each(|e| m.checks.fail(e));

    if a.trace {
        let sock = traced_serve(&pool, a.seed, phase, scratch, epoch, "op", &mut m.checks)?;
        let mut probes = Recorder::new(epoch, true);
        let progs: Vec<&Prog> = pool.sessions.iter().map(|s| &s.prog).collect();
        let counts = suite::probe_pass(
            &progs,
            PROBE_PASSES,
            true,
            scratch,
            &mut probes,
            default_jobs(),
        )?;
        let layers = layer_metrics(&LayerInputs {
            ops: &sock.spans,
            probes: &probes,
            counts: &counts,
            tally: sock.tally,
            socket: sock.layers,
            restore_ms: sock.restore_ms,
            untraced_p50: m.timed.p50(),
            traced_p50: sock.p50,
        })?;
        let mut spans = sock.spans;
        spans.absorb(probes);
        m.traced = Some(Traced {
            layers,
            spans,
            per_program: counts.per_program,
        });
    }
    Ok(m)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(n),
                json::number(*v),
                json::string(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_one(a: &Args) -> Result<ExitCode, String> {
    let scratch = Path::new(OUT_DIR).join(format!("run-{}-{}", a.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let measured = match a.workload.as_str() {
        "profile" => run_suite(a, false, &scratch),
        "replay" => run_suite(a, true, &scratch),
        _ => run_serve(a, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut m = measured?;

    let lat = &m.timed.lat_ms;
    let tail = tail(lat).ok_or("too few ops for a tail percentile")?;
    let attempted = m.timed.attempted + m.checks.attempted;
    let failed = m.timed.failed + m.checks.failed;
    let mut errors = std::mem::take(&mut m.timed.errors);
    errors.extend(m.checks.errors.iter().cloned());

    let metrics: Vec<(&str, f64, &str)> = match &m.traced {
        None => {
            let values = [
                median(&m.setup_s),
                m.timed.ops_per_s,
                median(lat),
                tail.value,
                peak_rss_mib()?,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect()
        }
        Some(t) => PER_LAYER
            .iter()
            .zip(&t.layers)
            .map(|(&(n, u), &v)| (n, v, u))
            .collect(),
    };

    let mut meta = vec![
        ("workload", json::string(&a.workload)),
        ("seed", a.seed.to_string()),
        ("trace", (a.trace as u8).to_string()),
        ("seconds", json::number(a.seconds)),
        ("nproc", default_jobs().to_string()),
        ("auto_pipeline_jobs", auto_pipeline_jobs().to_string()),
        ("commit", json::string(&commit())),
        ("setup_reps", m.setup_s.len().to_string()),
        (
            "setup_s_each",
            format!(
                "[{}]",
                m.setup_s
                    .iter()
                    .map(|s| json::number(*s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("ops", lat.len().to_string()),
        ("tail_percentile", json::number(tail.percentile)),
        ("tail_samples_beyond", tail.beyond.to_string()),
    ];
    meta.append(&mut m.meta);
    if let Some(e) = errors.first() {
        meta.push(("first_error", json::string(e)));
    }
    let meta_json = format!(
        "{{{}}}",
        meta.iter()
            .map(|(k, v)| format!("{}: {v}", json::string(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics)
    );

    let mut human = format!(
        "perfbench {} seed={} trace={} ops={} failed={failed}/{attempted} tail=p{:.2}\n",
        a.workload,
        a.seed,
        a.trace as u8,
        lat.len(),
        tail.percentile
    );
    for (n, v, u) in &metrics {
        let _ = writeln!(human, "  {n:<26} {v:>14.4} {u}");
    }
    if let Some(t) = &m.traced {
        let _ = writeln!(human, "  span self times (all ops of the traced run):");
        let _ = writeln!(
            human,
            "  {:<22} {:>7} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for s in t.spans.self_times() {
            let _ = writeln!(
                human,
                "  {:<22} {:>7} {:>12.3} {:>12.3}",
                s.name, s.count, s.total_ms, s.self_ms
            );
        }
        let _ = writeln!(
            human,
            "  per program (probe medians): {:<18} {:>10} {:>11} {:>12} {:>14}",
            "program", "plain_ms", "profiled_ms", "instructions", "instr/s profiled"
        );
        for (name, plain, profiled, instr) in &t.per_program {
            let _ = writeln!(
                human,
                "  {:<47} {plain:>10.3} {profiled:>11.3} {instr:>12} {:>14.0}",
                name,
                *instr as f64 / (profiled / 1e3)
            );
        }
        let spans_path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        let written = std::fs::File::create(&spans_path)
            .map(std::io::BufWriter::new)
            .and_then(|w| t.spans.write_jsonl(w));
        if let Err(e) = written {
            return Err(format!("{}: {e}", spans_path.display()));
        }
        let _ = writeln!(human, "  spans written to {}", spans_path.display());
    }
    for e in &errors {
        let _ = writeln!(human, "  error: {e}");
    }

    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"meta\": {meta_json}, \"result\": {result}}}\n",
        json::string(&a.workload),
        a.seed,
        a.trace as u8
    );
    if let Some(dir) = a.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&a.out)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("{}: {e}", a.out.display()))?;

    print!("{human}");
    println!("meta {meta_json}");
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// `--workload all`: each workload in its own process, so each reports
/// its own peak memory.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut summary = String::new();
    for w in ["profile", "replay", "serve"] {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let correct = json::parse(last)
            .ok()
            .and_then(|v| v.get("correct").cloned())
            == Some(json::Value::Bool(true));
        ok &= out.status.success() && correct;
        let _ = writeln!(summary, "{w}: exit {} correct {correct}", out.status);
    }
    print!("{summary}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let r = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match r {
        Ok(code) => {
            eprintln!(
                "perfbench: done in {:.1?}",
                Duration::from_secs_f64(t.elapsed().as_secs_f64())
            );
            code
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
