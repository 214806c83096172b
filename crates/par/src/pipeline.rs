//! The pipelined live profiler: execution decoupled from `G_cost`
//! construction.
//!
//! A sequential profiled run interleaves graph construction with every
//! executed instruction, which is where the 2–15× live overhead comes
//! from. [`run_pipelined`] moves construction off the VM thread:
//!
//! ```text
//! VM thread ──BatchSink──► MPSC ring ──► coordinator ──┬─lane─► worker
//!   (runs ~plain speed)    (bounded)     (object scan)  ├─lane─► worker
//!                                              │        └─lane─► worker
//!                                              └─ deltas (all lanes) ┘
//!                                                        merge_shards
//! ```
//!
//! The VM thread packs events into [`EventBatch`]es (split only at
//! frame-push boundaries and guest-thread switches, like trace
//! segments) and pushes them into a bounded multi-producer ring —
//! backpressure blocks the producer, so memory stays flat no matter
//! how far construction falls behind. The ingest sender clones, so N
//! concurrent event streams can share one coordinator; the
//! deterministic scheduler multiplexes all guest threads onto a single
//! producing OS thread today, and the single consumer pops batches in
//! exactly its push order. With `jobs = 1`
//! the consumer replays batches in order straight into the sequential
//! [`GraphBuilder`](lowutil_core::GraphBuilder) — the exact sequential
//! build cost, just moved off the VM thread. With `jobs ≥ 2` the
//! coordinator pops batches in order, runs the streaming
//! [`ObjectTableScan`] (one in-order pass building the object table),
//! and deals each batch into one of `jobs` per-worker SPSC
//! [`Lanes`] — routed by a shard key (the method the batch enters, for
//! construction-table locality) with overflow to any lane with room,
//! so a slow worker never serializes the deal. Non-empty object-table
//! deltas are broadcast down every lane *before* the batch that
//! produced them, so each worker's private table copy is current in
//! batch order wherever the batch lands. Workers pull from their own
//! lane — the coordinator never blocks on a worker that has room —
//! rebuild each batch with the exact per-segment construction of
//! `lowutil_core::shard` (reusing one [`ShardScratch`] arena across
//! all their batches), and the shards merge in batch order. The
//! canonical export is therefore **byte-identical** to a sequential
//! [`GraphBuilder`](lowutil_core::GraphBuilder) run at any job count
//! and any routing: batch boundaries are fixed by the producer, shard
//! contents by the batch and the (order-broadcast) object table, and
//! the merge by batch index; neither worker scheduling nor lane
//! assignment can reach the output.
//!
//! Shutdown is symmetric: the run closure returning (or unwinding)
//! drops the producer, which ends the stream; dropping the lane array
//! ends every worker's stream in turn. A crashed worker makes lane
//! pushes fail, the coordinator drains the main ring (so the VM is
//! never left blocking), and the panic resurfaces when the scope
//! joins.

use crate::ring::{lanes, mpsc_ring, MpscReceiver, MpscSender, RingReceiver};
use lowutil_core::shard::{
    apply_object_delta, merge_shards, shard_sink_reusing, ObjectInfo, ObjectTableScan,
    ShardContext, ShardGraph, ShardScratch,
};
use lowutil_core::{CostGraph, CostGraphConfig, GraphBuilder};
use lowutil_ir::{ObjectId, Program, ThreadId};
use lowutil_vm::{
    BatchRecord, BatchSink, BatchTarget, Event, EventBatch, EventSink, FrameInfo, SinkTracer,
    DEFAULT_BATCH_LIMIT,
};
use std::sync::Arc;

/// Tuning knobs for [`run_pipelined`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Graph-construction worker threads. `0` is the adaptive
    /// fallback: no pipeline thread at all — events feed the
    /// sequential [`GraphBuilder`] directly on the VM thread (what
    /// [`auto_pipeline_jobs`] picks on a single-core machine, where a
    /// second thread only adds handoff cost). `1` replays batches in
    /// order into the `GraphBuilder` on a consumer thread — pure
    /// overlap, no shard machinery; higher values fan per-batch shard
    /// construction out round-robin and merge.
    pub jobs: usize,
    /// Records per batch (the analogue of the trace segment limit).
    /// Smaller batches pipeline sooner but pay more prologue/merge
    /// overhead.
    pub batch_limit: usize,
    /// Ring capacity in batches. The producer blocks when construction
    /// falls this many batches behind, bounding pipeline memory at
    /// roughly `ring_capacity × batch_limit` records.
    pub ring_capacity: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            jobs: auto_pipeline_jobs(),
            batch_limit: DEFAULT_BATCH_LIMIT,
            ring_capacity: 8,
        }
    }
}

/// The worker count `--pipeline` should use when the user did not pick
/// one: the available cores *minus the one the VM thread occupies* —
/// the producer runs flat out for the whole pipeline's lifetime, so
/// spawning a construction worker for its core just makes the two
/// time-slice against each other. On a single-core machine that leaves
/// nothing, which is the in-thread fallback (`0`): shipping events to
/// a consumer thread sharing the one core costs strictly more than
/// building the graph in place. An explicit `--jobs` is passed through
/// unclamped — deliberate oversubscription is how the determinism
/// tests exercise high worker counts on small machines.
pub fn auto_pipeline_jobs() -> usize {
    crate::default_jobs().saturating_sub(1)
}

/// The producer end the `BatchSink` targets: finished batches go out
/// through the batch ring, and spent record buffers come back from the
/// consumer side through the recycle ring, so steady-state packing
/// reuses warm allocations instead of growing a fresh `Vec` per batch.
///
/// Both rings are multi-producer: the ingest sender is cloneable so N
/// concurrent event streams can feed one coordinator (today's
/// deterministic scheduler multiplexes all guest threads onto one OS
/// producer, but the ingest path no longer assumes that), and the
/// recycle ring collects spent buffers from *every* shard worker, not
/// just a single consumer.
pub struct PipeProducer {
    tx: MpscSender<EventBatch>,
    spent: MpscReceiver<Vec<BatchRecord>>,
}

impl BatchTarget for PipeProducer {
    fn accept(&mut self, batch: EventBatch) -> bool {
        self.tx.push(batch).is_ok()
    }

    fn recycle(&mut self) -> Option<Vec<BatchRecord>> {
        self.spent.try_pop()
    }
}

/// The sink behind [`PipelineTracer`]: batching into the ring in
/// threaded mode, or the sequential [`GraphBuilder`] itself in the
/// `jobs = 0` fallback.
pub enum PipelineSink {
    /// Threaded: pack events into batches and push them into the ring.
    Ring(BatchSink<PipeProducer>),
    /// In-thread fallback: build `G_cost` right here, sequentially.
    Inline(Box<GraphBuilder>),
}

impl EventSink for PipelineSink {
    fn event(&mut self, event: &Event) {
        match self {
            PipelineSink::Ring(s) => s.event(event),
            PipelineSink::Inline(b) => b.event(event),
        }
    }

    fn frame_push(&mut self, info: &FrameInfo) {
        match self {
            PipelineSink::Ring(s) => s.frame_push(info),
            PipelineSink::Inline(b) => b.frame_push(info),
        }
    }

    fn frame_pop(&mut self) {
        match self {
            PipelineSink::Ring(s) => s.frame_pop(),
            PipelineSink::Inline(b) => b.frame_pop(),
        }
    }

    fn thread(&mut self, tid: ThreadId) {
        match self {
            PipelineSink::Ring(s) => s.thread(tid),
            PipelineSink::Inline(b) => b.thread(tid),
        }
    }
}

/// The tracer [`run_pipelined`] hands to its run closure: attach it to
/// a [`Vm::run`](lowutil_vm::Vm::run) call.
pub type PipelineTracer = SinkTracer<PipelineSink>;

/// One unit of coordinator→worker lane traffic: an object-table delta
/// to apply (broadcast down every lane, possibly empty), plus at most
/// one batch to build with its position in the run. Deltas commute
/// with batches from other lanes (each `ObjectId` is allocated exactly
/// once, so applies target distinct slots); per-lane FIFO order keeps
/// each worker's table current before any batch it builds.
struct WorkItem {
    delta: Arc<Vec<(ObjectId, ObjectInfo)>>,
    batch: Option<(usize, EventBatch)>,
}

/// The lane a batch is routed to first: batches shard by the method
/// they enter (the first record's pushed method when the batch starts
/// with a frame push — every non-first batch of a thread's stream does
/// — else the innermost live frame of the batch's thread, e.g. after a
/// mid-frame thread-switch split), so consecutive batches running the
/// same code land on the worker whose interner and inline-cache
/// entries for that code are warm. Purely a performance hint: the output is invariant under
/// routing (see [`WorkItem`]), which is what lets `push_spill`
/// overflow to another lane when the home worker is behind.
fn home_lane(batch: &EventBatch, jobs: usize) -> usize {
    let key = match batch.records.first() {
        Some(BatchRecord::Push(info)) => u64::from(info.method.0),
        _ => batch
            .prologue
            .frames
            .last()
            .map_or(0, |f| u64::from(f.method.0)),
    };
    // Fibonacci mix so consecutive method ids spread across lanes.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % jobs
}

/// Profiles a run with graph construction pipelined off the VM thread.
///
/// Calls `run` with a tracer on the current thread while a coordinator
/// (plus `opts.jobs` shard workers when `jobs > 1`) builds `G_cost`
/// concurrently; returns the closure's result and the finished graph.
/// The graph is byte-identical under canonical export to a sequential
/// [`GraphBuilder`](lowutil_core::GraphBuilder) profile of the same
/// run, at any `jobs` and any `batch_limit`.
///
/// # Panics
/// Re-raises panics from the construction threads.
pub fn run_pipelined<R>(
    program: &Program,
    config: CostGraphConfig,
    opts: &PipelineOptions,
    run: impl FnOnce(&mut PipelineTracer) -> R,
) -> (R, CostGraph) {
    if opts.jobs == 0 {
        // Adaptive fallback: no spare core, no pipeline — the VM
        // thread feeds the sequential GraphBuilder directly, exactly
        // as a sequential profiled run would.
        let builder = Box::new(GraphBuilder::new(program, config));
        let mut tracer = SinkTracer(PipelineSink::Inline(builder));
        let r = run(&mut tracer);
        let graph = match tracer.0 {
            PipelineSink::Inline(b) => b.finish(),
            PipelineSink::Ring(_) => unreachable!("inline mode never builds a ring"),
        };
        return (r, graph);
    }
    let ctx = ShardContext::new(program, config);
    let jobs = opts.jobs;
    // Multi-producer ingest: the sender clones, so N concurrent event
    // streams could feed this one coordinator; this run has a single
    // VM thread producing (the deterministic scheduler multiplexes
    // guest threads onto it), which the single-consumer pop order
    // then reproduces batch-for-batch.
    let (tx, mut rx) = mpsc_ring::<EventBatch>(opts.ring_capacity);
    // The reverse lane: consumers return spent record buffers so the
    // producer packs into warm allocations. Multi-producer because in
    // threaded mode every shard worker returns the buffers of the
    // batches it built. A little extra slack means a momentarily full
    // lane drops a buffer instead of stalling.
    let (ret_tx, ret_rx) = mpsc_ring::<Vec<BatchRecord>>(opts.ring_capacity.max(1) + 2);
    std::thread::scope(|s| {
        let ctx = &ctx;
        let builder = s.spawn(move || {
            let ret_tx = ret_tx;
            if jobs == 1 {
                // A single worker sees every batch in order, which is
                // the whole event stream in order — so it feeds the
                // sequential GraphBuilder directly. No prescan, no
                // shards, no merge: the consumer does exactly the work
                // a sequential profiled run does, just off the VM
                // thread, and the graph is byte-identical because it
                // is the same sink reading the same stream.
                let mut b = GraphBuilder::new(program, config);
                while let Some(batch) = rx.pop() {
                    batch.replay(&mut b);
                    let mut spent = batch.records;
                    spent.clear();
                    // Full lane (or a gone producer): drop the buffer.
                    let _ = ret_tx.try_push(spent);
                }
                b.finish()
            } else {
                coordinate(ctx, &mut rx, jobs, &ret_tx)
            }
        });
        let sink = BatchSink::new(PipeProducer { tx, spent: ret_rx }, opts.batch_limit.max(1));
        let mut tracer = SinkTracer(PipelineSink::Ring(sink));
        let r = run(&mut tracer);
        // Flush the tail batch and drop the producer: end-of-stream.
        match tracer.0 {
            PipelineSink::Ring(sink) => drop(sink.finish()),
            PipelineSink::Inline(_) => unreachable!("threaded mode never builds inline"),
        }
        let graph = match builder.join() {
            Ok(g) => g,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (r, graph)
    })
}

/// The multi-worker coordinator: scans batches in order, broadcasts
/// non-empty table deltas down every lane, deals each batch into its
/// home lane (spilling to any lane with room), then merges in batch
/// order.
fn coordinate(
    ctx: &ShardContext,
    rx: &mut MpscReceiver<EventBatch>,
    jobs: usize,
    ret_tx: &MpscSender<Vec<BatchRecord>>,
) -> CostGraph {
    std::thread::scope(|s| {
        // A small per-lane bound keeps total buffered batches (and so
        // memory) proportional to the worker count.
        let (mut lanes, lane_rxs) = lanes::<WorkItem>(jobs, 2);
        let mut handles = Vec::with_capacity(jobs);
        for wrx in lane_rxs {
            let ret = ret_tx.clone();
            handles.push(s.spawn(move || worker(ctx, wrx, ret)));
        }
        let empty_delta: Arc<Vec<(ObjectId, ObjectInfo)>> = Arc::new(Vec::new());
        let mut scan = ObjectTableScan::new(ctx.config().phase_limited);
        let mut idx = 0usize;
        'feed: while let Some(batch) = rx.pop() {
            batch.replay(&mut scan);
            let delta = scan.take_delta();
            // An allocating batch: its delta goes down *every* lane
            // before the batch itself, so whichever lane the batch (or
            // any later batch) lands on has the table entries it needs.
            // Most batches allocate nothing and skip this entirely —
            // one lane push per batch, not `jobs`.
            if !delta.is_empty() {
                let delta = Arc::new(delta);
                for lane in 0..jobs {
                    let item = WorkItem {
                        delta: Arc::clone(&delta),
                        batch: None,
                    };
                    if lanes.push(lane, item).is_err() {
                        // The worker died; drain the ring so the
                        // producer is never left blocking, then surface
                        // the panic below.
                        while rx.pop().is_some() {}
                        break 'feed;
                    }
                }
            }
            let home = home_lane(&batch, jobs);
            let item = WorkItem {
                delta: Arc::clone(&empty_delta),
                batch: Some((idx, batch)),
            };
            if lanes.push_spill(home, item).is_err() {
                while rx.pop().is_some() {}
                break 'feed;
            }
            idx += 1;
        }
        drop(lanes);
        let mut indexed: Vec<(usize, ShardGraph)> = Vec::new();
        for h in handles {
            match h.join() {
                Ok(shards) => indexed.extend(shards),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        indexed.sort_by_key(|&(i, _)| i);
        merge_shards(indexed.into_iter().map(|(_, sh)| sh).collect())
    })
}

/// A shard worker: pulls from its own lane, applies every delta in
/// arrival (= batch) order to its private object table, and builds the
/// batches dealt to it — reusing one [`ShardScratch`] arena across all
/// of them, so the |I|-sized construction tables are allocated once
/// per worker instead of once per batch. Spent record buffers go back
/// to the VM thread through the (multi-producer) recycle ring, so
/// threaded runs also pack into warm allocations.
fn worker(
    ctx: &ShardContext,
    mut rx: RingReceiver<WorkItem>,
    ret: MpscSender<Vec<BatchRecord>>,
) -> Vec<(usize, ShardGraph)> {
    let mut table: Vec<Option<ObjectInfo>> = Vec::new();
    let mut scratch = ShardScratch::new(ctx);
    let mut out = Vec::new();
    while let Some(item) = rx.pop() {
        apply_object_delta(&mut table, &item.delta);
        if let Some((i, batch)) = item.batch {
            let mut b = shard_sink_reusing(ctx, &table, &batch.prologue, scratch);
            batch.replay(&mut b);
            let (shard, sc) = b.finish_reusing();
            scratch = sc;
            out.push((i, shard));
            let mut spent = batch.records;
            spent.clear();
            // Full lane (or a gone producer): drop the buffer.
            let _ = ret.try_push(spent);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowutil_core::{write_cost_graph, CostProfiler};
    use lowutil_ir::parse_program;
    use lowutil_vm::Vm;

    const SRC: &str = r#"
native print/1
class A { f }
class Box { v }
method main/0 {
  x = 1
  a1 = new A
  a1.f = x
  a2 = new A
  a2.f = x
  i = 0
  one = 1
  lim = 6
loop:
  if i >= lim goto done
  r1 = vcall get(a1)
  r2 = vcall get(a2)
  b = new Box
  b.v = r1
  t = b.v
  s = call sum(r1, t)
  i = i + one
  goto loop
done:
  native print(s)
  return
}
method A.get/0 {
  r = this.f
  return r
}
method sum/2 {
  r = p0 + p1
  return r
}
"#;

    fn bytes_of(g: &CostGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_cost_graph(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn pipelined_matches_sequential_at_any_jobs_and_batch() {
        let p = parse_program(SRC).expect("parse");
        let config = CostGraphConfig::default();
        let mut prof = CostProfiler::new(&p, config);
        let out_seq = Vm::new(&p).run(&mut prof).expect("runs");
        let seq = bytes_of(&prof.finish());

        for jobs in [0, 1, 2, 7] {
            for batch in [1, 64, 4096] {
                let opts = PipelineOptions {
                    jobs,
                    batch_limit: batch,
                    ring_capacity: 4,
                };
                let (out, graph) =
                    run_pipelined(&p, config, &opts, |t| Vm::new(&p).run(t).expect("runs"));
                assert_eq!(out.output, out_seq.output);
                assert_eq!(
                    bytes_of(&graph),
                    seq,
                    "jobs={jobs} batch={batch} diverged from sequential"
                );
            }
        }
    }

    const MT_SRC: &str = r#"
native print/1
class Box { v }
method main/0 {
  b1 = new Box
  b2 = new Box
  t1 = spawn fill(b1)
  t2 = spawn fill(b2)
  r1 = join t1
  r2 = join t2
  x = b1.v
  y = b2.v
  s1 = x + y
  s2 = r1 + r2
  s = s1 + s2
  native print(s)
  return
}
method fill/1 {
  i = 0
  one = 1
  lim = 9
loop:
  if i >= lim goto done
  p0.v = i
  i = i + one
  goto loop
done:
  r = p0.v
  return r
}
"#;

    /// A multithreaded guest run through the pipeline: the batch
    /// stream now interleaves guest threads (batches split at thread
    /// switches, some starting mid-frame), and the result must still
    /// be byte-identical to the sequential profile — at every job
    /// count, batch size, and scheduler seed.
    #[test]
    fn multithreaded_pipelined_matches_sequential() {
        let p = parse_program(MT_SRC).expect("parse");
        let config = CostGraphConfig::default();
        for sched_seed in [0u64, 7, 0xFEED] {
            let rc = lowutil_vm::RunConfig {
                sched_seed,
                ..lowutil_vm::RunConfig::default()
            };
            let mut prof = CostProfiler::new(&p, config);
            let out_seq = Vm::with_config(&p, rc).run(&mut prof).expect("runs");
            let seq = bytes_of(&prof.finish());

            for jobs in [0, 1, 2, 7] {
                for batch in [1, 8, 4096] {
                    let opts = PipelineOptions {
                        jobs,
                        batch_limit: batch,
                        ring_capacity: 4,
                    };
                    let (out, graph) = run_pipelined(&p, config, &opts, |t| {
                        Vm::with_config(&p, rc).run(t).expect("runs")
                    });
                    assert_eq!(out.output, out_seq.output);
                    assert_eq!(
                        bytes_of(&graph),
                        seq,
                        "seed={sched_seed} jobs={jobs} batch={batch} diverged"
                    );
                }
            }
        }
    }

    /// Auto mode reserves one core for the VM thread: construction
    /// workers plus the producer never exceed available parallelism,
    /// and a single core falls back to the in-thread path.
    #[test]
    fn auto_jobs_reserves_the_vm_core() {
        let cores = crate::default_jobs();
        let auto = auto_pipeline_jobs();
        assert_eq!(auto, cores.saturating_sub(1));
        assert!(auto < cores.max(1), "would oversubscribe {cores} cores");
    }

    #[test]
    fn worker_panic_propagates_without_hanging() {
        let p = parse_program(SRC).expect("parse");
        // A panic inside the run closure must unwind cleanly through
        // the scope (consumer sees end-of-stream and finishes).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipelined(
                &p,
                CostGraphConfig::default(),
                &PipelineOptions {
                    jobs: 2,
                    batch_limit: 4,
                    ring_capacity: 2,
                },
                |t| {
                    let _ = Vm::new(&p).run(t);
                    panic!("vm thread dies");
                },
            )
        }));
        assert!(result.is_err());
    }
}
