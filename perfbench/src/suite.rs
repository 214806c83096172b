//! The programs every workload is built from, the `profile` and
//! `replay` ops, and the probe pass that times each layer on its own.

use lowutil::analyses::{
    dead_value_metrics, low_utility_report, low_utility_report_batch, rank_structures,
    rank_structures_batch, render_report, CacheKey, CostBenefitConfig, EngineChoice,
    IncrementalAnalyzer, QueryCache,
};
use lowutil::core::{
    read_snapshot, write_cost_graph, Aggregate, AlignedBuf, CostGraph, CostGraphConfig,
    CostProfiler, CsrGraph, GraphBuilder, IncrementalCsr,
};
use lowutil::ir::Program;
use lowutil::par::{auto_pipeline_jobs, par_map, replay_gcost, run_pipelined, PipelineOptions};
use lowutil::vm::{
    CountingSink, NullTracer, RunConfig, SinkTracer, StreamingReader, TraceReader, TraceWriter, Vm,
};
use lowutil::workloads::{workload, WorkloadSize, NAMES};
use lowutil_perfbench::spans::Recorder;
use lowutil_perfbench::stats::median;
use std::path::Path;

/// Structures per report, as `lowutil report` prints by default.
pub const TOP: usize = 10;

/// The chunk size the daemon reads sockets with, used when feeding the
/// streaming reader directly.
const CHUNK: usize = 64 << 10;

/// One program of an op and the scheduler seed it runs under.
pub struct Prog {
    /// Workload name with its size, as the daemon resolves it.
    pub name: String,
    /// The built program.
    pub program: Program,
    run: RunConfig,
}

impl Prog {
    /// Builds workload `name` at `size`, run under `sched_seed`.
    pub fn new(name: &str, size: WorkloadSize, sched_seed: u64) -> Prog {
        let suffix = match size {
            WorkloadSize::Small => "small",
            WorkloadSize::Default => "default",
            WorkloadSize::Large => "large",
        };
        Prog {
            name: format!("{name}@{suffix}"),
            program: workload(name, size).program,
            run: RunConfig {
                sched_seed,
                ..RunConfig::default()
            },
        }
    }

    /// A VM for this program under its scheduler seed.
    pub fn vm(&self) -> Vm<'_> {
        Vm::with_config(&self.program, self.run)
    }

    /// Records a trace into memory.
    pub fn record(&self) -> Result<Vec<u8>, String> {
        let mut tracer = SinkTracer(TraceWriter::new(Vec::new()));
        self.vm().run(&mut tracer).map_err(|e| e.to_string())?;
        let (bytes, _) = tracer.0.finish().map_err(|e| e.to_string())?;
        Ok(bytes)
    }

    /// The report `lowutil report --analysis reference` prints: the
    /// oracle every op's output is checked against. Also returns the
    /// executed instruction count.
    pub fn reference_report(&self) -> Result<(String, u64), String> {
        let mut prof = CostProfiler::new(&self.program, CostGraphConfig::default());
        let out = self.vm().run(&mut prof).map_err(|e| e.to_string())?;
        let g = prof.finish();
        let dead = dead_value_metrics(&g, out.instructions_executed);
        let report = low_utility_report(
            &self.program,
            &g,
            &CostBenefitConfig::default(),
            TOP,
            Some(&dead),
        );
        Ok((report, out.instructions_executed))
    }
}

/// Median plain-run (`NullTracer`) and profiled (`CostProfiler`)
/// milliseconds of `prog` over `reps` runs, and its instruction count.
pub fn plain_and_profiled(prog: &Prog, reps: usize) -> Result<(f64, f64, u64), String> {
    let (mut plain, mut profiled, mut instructions) = (Vec::new(), Vec::new(), 0);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        prog.vm().run(&mut NullTracer).map_err(|e| e.to_string())?;
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        let mut prof = CostProfiler::new(&prog.program, CostGraphConfig::default());
        let t = std::time::Instant::now();
        instructions = prog
            .vm()
            .run(&mut prof)
            .map_err(|e| e.to_string())?
            .instructions_executed;
        profiled.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&plain), median(&profiled), instructions))
}

/// What the `profile` and `replay` ops run on.
pub struct Inputs {
    /// The programs, one per suite workload.
    pub progs: Vec<Prog>,
    /// Each program's reference report.
    pub expected: Vec<String>,
    /// Each program's recorded trace (empty for `profile`).
    pub traces: Vec<Vec<u8>>,
}

/// Set-up for `profile` (`record` false) and `replay` (`record` true):
/// build the programs and compute the reference reports, spread over
/// `jobs` workers, then record the traces replay reads one at a time
/// (recording in parallel would set the run's peak memory above the
/// op's). Programs are ordered longest first (by executed instructions,
/// then name), so workers that claim them in order stay busy until the
/// op ends instead of waiting on one long program.
pub fn setup(sched_seed: u64, record: bool, jobs: usize) -> Result<Inputs, String> {
    let built = par_map(jobs, NAMES.to_vec(), |n| {
        let p = Prog::new(n, WorkloadSize::Small, sched_seed);
        let (report, instructions) = p.reference_report()?;
        Ok((instructions, p, report))
    });
    let mut runs = built.into_iter().collect::<Result<Vec<_>, String>>()?;
    runs.sort_by(|(a, pa, _), (b, pb, _)| b.cmp(a).then_with(|| pa.name.cmp(&pb.name)));
    let (progs, expected): (Vec<Prog>, Vec<String>) =
        runs.into_iter().map(|(_, p, report)| (p, report)).unzip();
    let traces = if record {
        progs.iter().map(Prog::record).collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    Ok(Inputs {
        progs,
        expected,
        traces,
    })
}

/// Renders the report from a finished graph: the untraced path is the
/// CLI's `low_utility_report_batch`; the traced path makes the same two
/// calls it makes, timed apart.
fn report(rec: &mut Recorder, op: u64, p: &Prog, g: &CostGraph, instr: u64, jobs: usize) -> String {
    let dead = rec.time("analyses.dead", op, |_| dead_value_metrics(g, instr));
    let config = CostBenefitConfig::default();
    if !rec.enabled() {
        return low_utility_report_batch(&p.program, g, &config, TOP, Some(&dead), jobs);
    }
    let ranked = rec.time("analyses.rank", op, |_| {
        rank_structures_batch(g, &config, jobs)
    });
    rec.time("analyses.report", op, |_| {
        render_report(&p.program, &ranked, TOP, Some(&dead))
    })
}

fn check(p: &Prog, got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{}: report differs from the reference", p.name))
    }
}

/// One `profile` op: for every program, `Vm::run` under
/// `CostProfiler`, `finish`, dead values and the batch report, the
/// programs spread over `jobs` workers as `lowutil suite all` spreads
/// them. Each program's calls sit under a `task` span recorded on its
/// worker and folded into `rec`.
pub fn profile_op(inp: &Inputs, rec: &mut Recorder, op: u64, jobs: usize) -> Result<(), String> {
    let (epoch, traced) = (rec.epoch(), rec.enabled());
    let items: Vec<(&Prog, &String)> = inp.progs.iter().zip(&inp.expected).collect();
    let done = par_map(jobs, items, |(p, expected)| {
        let mut r = Recorder::new(epoch, traced);
        let checked = r.time("task", op, |r| {
            let mut prof = CostProfiler::new(&p.program, CostGraphConfig::default());
            let out = r
                .time("core.profile", op, |_| p.vm().run(&mut prof))
                .map_err(|e| format!("{}: {e}", p.name))?;
            let g = r.time("core.finish", op, |_| prof.finish());
            let got = report(r, op, p, &g, out.instructions_executed, 1);
            check(p, &got, expected)
        });
        (checked, r)
    });
    let mut result = Ok(());
    for (checked, r) in done {
        rec.absorb(r);
        result = result.and(checked);
    }
    result
}

/// One `replay` op: for every recorded trace in turn, open it, replay
/// it sharded over `jobs` workers, and render the same report.
pub fn replay_op(inp: &Inputs, rec: &mut Recorder, op: u64, jobs: usize) -> Result<(), String> {
    for ((p, expected), bytes) in inp.progs.iter().zip(&inp.expected).zip(&inp.traces) {
        rec.time("task", op, |rec| {
            let reader = rec
                .time("vm.trace_open", op, |_| TraceReader::new(bytes))
                .map_err(|e| format!("{}: {e}", p.name))?;
            let g = rec
                .time("par.replay", op, |_| {
                    replay_gcost(&p.program, CostGraphConfig::default(), &reader, jobs)
                })
                .map_err(|e| format!("{}: {e}", p.name))?;
            let got = report(rec, op, p, &g, reader.trailer().instructions, jobs);
            check(p, &got, expected)
        })?;
    }
    Ok(())
}

/// How often the aggregate and query-cache layers did useful work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Absorbs made.
    pub absorbs: u64,
    /// Absorbs whose delta was frequency-only.
    pub freq_only: u64,
    /// Seed slots the refreshes covered.
    pub refresh_total: u64,
    /// Seed slots whose kernels re-ran.
    pub refresh_recomputed: u64,
    /// Query-cache lookups.
    pub lookups: u64,
    /// Query-cache hits.
    pub hits: u64,
}

impl Tally {
    /// Frequency-only absorbs, re-run seed slots and cache hits, each
    /// as a share of its attempts (0 when there were none).
    pub fn shares(&self) -> [f64; 3] {
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        [
            share(self.freq_only, self.absorbs),
            share(self.refresh_recomputed, self.refresh_total),
            share(self.hits, self.lookups),
        ]
    }
}

/// Counts the probe pass makes where the work happens.
#[derive(Debug, Default, Clone)]
pub struct ProbeCounts {
    /// Instruction events per op.
    pub events: u64,
    /// Trace bytes per op.
    pub trace_bytes: u64,
    /// `G_cost` nodes per op.
    pub nodes: u64,
    /// `G_cost` edges per op.
    pub edges: u64,
    /// Snapshot bytes per op.
    pub snapshot_bytes: u64,
    /// Aggregate and query-cache outcomes over the whole pass.
    pub tally: Tally,
    /// Per program: name, median plain-run (`NullTracer`) and profiled
    /// (`CostProfiler`) milliseconds, and executed instructions.
    pub per_program: Vec<(String, f64, f64, u64)>,
}

/// Decodes a trace as the daemon does: `StreamingReader::feed` in
/// socket-sized chunks into a `GraphBuilder`. Returns the graph and the
/// trailer's instruction count.
pub fn stream_build(program: &Program, trace: &[u8]) -> Result<(CostGraph, u64), String> {
    let mut sr = StreamingReader::new();
    let mut builder = GraphBuilder::new(program, CostGraphConfig::default());
    for chunk in trace.chunks(CHUNK) {
        sr.feed(chunk, &mut builder).map_err(|e| e.to_string())?;
    }
    let trailer = sr.finish().map_err(|e| e.to_string())?;
    Ok((builder.finish(), trailer.instructions))
}

fn export(g: &CostGraph) -> Vec<u8> {
    let mut out = Vec::new();
    write_cost_graph(g, &mut out).expect("writing to memory cannot fail");
    out
}

/// Times every layer on its own, once per program per pass: the calls
/// an op makes as well as the probes it does not (a VM run under the
/// null tracer, emission into a counting sink, CSR build, the reference
/// engine, the pipelined profiler) and the absorb → view → snapshot →
/// query path the daemon takes. Spans of one pass share an op id, or,
/// with `op_per_program`, spans of one program in one pass do. Counts
/// are per op. Fails when a pipelined graph differs from the
/// sequential one.
pub fn probe_pass(
    progs: &[&Prog],
    passes: u64,
    op_per_program: bool,
    scratch: &Path,
    rec: &mut Recorder,
    jobs: usize,
) -> Result<ProbeCounts, String> {
    let config = CostGraphConfig::default();
    let cb = CostBenefitConfig::default();
    let snap_path = scratch.join("probe.snap");
    let mut c = ProbeCounts::default();
    let mut plain_ms = vec![Vec::new(); progs.len()];
    let mut profiled_ms = vec![Vec::new(); progs.len()];
    let mut instructions = vec![0; progs.len()];
    let last_ms = |rec: &Recorder| rec.spans().last().map_or(0.0, |s| s.ms());
    for pass in 0..passes {
        // A fresh cache per pass, so its first lookup is a miss.
        let cache = QueryCache::new(scratch.join(format!("probe-qcache-{pass}")));
        for (i, p) in progs.iter().enumerate() {
            let op = if op_per_program {
                pass * progs.len() as u64 + i as u64
            } else {
                pass
            };
            let first = pass == 0;
            let fail = |e: String| format!("{}: {e}", p.name);

            rec.time("vm.dispatch", op, |_| p.vm().run(&mut NullTracer))
                .map_err(|e| fail(e.to_string()))?;
            plain_ms[i].push(last_ms(rec));
            let mut counting = SinkTracer(CountingSink::default());
            rec.time("vm.emit", op, |_| p.vm().run(&mut counting))
                .map_err(|e| fail(e.to_string()))?;
            let bytes = rec.time("vm.record", op, |_| p.record()).map_err(fail)?;

            let mut prof = CostProfiler::new(&p.program, config);
            let out = rec
                .time("core.profile", op, |_| p.vm().run(&mut prof))
                .map_err(|e| fail(e.to_string()))?;
            profiled_ms[i].push(last_ms(rec));
            let g = rec.time("core.finish", op, |_| prof.finish());
            let instr = out.instructions_executed;
            instructions[i] = instr;
            let sequential = export(&g);

            let reader = rec
                .time("vm.trace_open", op, |_| TraceReader::new(&bytes))
                .map_err(|e| fail(e.to_string()))?;
            rec.time("par.replay", op, |_| {
                replay_gcost(&p.program, config, &reader, jobs)
            })
            .map_err(|e| fail(e.to_string()))?;
            rec.time("par.replay_j1", op, |_| {
                replay_gcost(&p.program, config, &reader, 1)
            })
            .map_err(|e| fail(e.to_string()))?;
            rec.time("vm.stream_feed", op, |_| stream_build(&p.program, &bytes))
                .map_err(fail)?;

            for (name, pjobs) in [
                ("par.pipeline", auto_pipeline_jobs()),
                ("par.pipeline_j2", 2),
            ] {
                let opts = PipelineOptions {
                    jobs: pjobs,
                    ..PipelineOptions::default()
                };
                let (run, pg) = rec.time(name, op, |_| {
                    run_pipelined(&p.program, config, &opts, |t| p.vm().run(t))
                });
                run.map_err(|e| fail(e.to_string()))?;
                if export(&pg) != sequential {
                    return Err(fail(format!("pipelined graph at jobs {pjobs} differs")));
                }
            }

            rec.time("core.csr_build", op, |_| CsrGraph::build(g.graph()));
            let dead = rec.time("analyses.dead", op, |_| dead_value_metrics(&g, instr));
            let ranked = rec.time("analyses.rank", op, |_| {
                rank_structures_batch(&g, &cb, jobs)
            });
            rec.time("analyses.rank_ref", op, |_| rank_structures(&g, &cb));
            rec.time("analyses.report", op, |_| {
                render_report(&p.program, &ranked, TOP, Some(&dead))
            });

            // The daemon's path: a first absorb builds the aggregate, a
            // repeat session is a frequency-only delta patched into the
            // live view.
            let mut agg = Aggregate::new();
            let d1 = rec.time("core.absorb", op, |_| agg.absorb(&g, instr));
            let mut inc = IncrementalCsr::new(&agg);
            let mut an = IncrementalAnalyzer::new(&inc, 1);
            let d2 = rec.time("core.absorb", op, |_| agg.absorb(&g, instr));
            let dirty = rec.time("core.incr_apply", op, |_| inc.apply(&agg, &d2));
            let rs = rec.time("analyses.refresh", op, |_| an.refresh(&inc, &dirty, 1));
            let mut snap = Vec::new();
            rec.time("core.snapshot_write", op, |_| {
                inc.write_snapshot(agg.total_instructions(), &mut snap)
            })
            .map_err(|e| fail(e.to_string()))?;
            let view = rec.time("core.materialize", op, |_| agg.to_cost_graph());
            let key = CacheKey::new(inc.content_hash(), EngineChoice::Batch, &cb);
            let hits = rec
                .time("analyses.qcache", op, |_| -> Result<u64, String> {
                    let cold_hit = cache.load(&key).is_some() as u64;
                    cache
                        .store(&key, &ranked)
                        .map_err(|e| format!("query cache store: {e}"))?;
                    Ok(cold_hit + cache.load(&key).is_some() as u64)
                })
                .map_err(fail)?;
            std::fs::write(&snap_path, &snap).map_err(|e| fail(e.to_string()))?;
            rec.time("core.snapshot_load", op, |_| -> Result<CostGraph, String> {
                let buf = AlignedBuf::load(&snap_path).map_err(|e| e.to_string())?;
                let s = read_snapshot(&buf).map_err(|e| e.to_string())?;
                Ok(s.to_cost_graph())
            })
            .map_err(fail)?;
            if view.graph().num_nodes() != g.graph().num_nodes() {
                return Err(fail("materialized aggregate lost nodes".to_string()));
            }

            if first {
                c.events += counting.0.events;
                c.trace_bytes += bytes.len() as u64;
                c.nodes += g.graph().num_nodes() as u64;
                c.edges += g.graph().num_edges() as u64;
                c.snapshot_bytes += snap.len() as u64;
            }
            let t = &mut c.tally;
            t.absorbs += 2;
            t.freq_only += d1.is_freq_only() as u64 + d2.is_freq_only() as u64;
            t.refresh_total += rs.total as u64;
            t.refresh_recomputed += rs.recomputed as u64;
            t.lookups += 2;
            t.hits += hits;
        }
    }
    c.per_program = progs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.name.clone(),
                median(&plain_ms[i]),
                median(&profiled_ms[i]),
                instructions[i],
            )
        })
        .collect();
    if op_per_program {
        let n = progs.len().max(1) as u64;
        for x in [
            &mut c.events,
            &mut c.trace_bytes,
            &mut c.nodes,
            &mut c.edges,
            &mut c.snapshot_bytes,
        ] {
            *x /= n;
        }
    }
    Ok(c)
}
