//! Order-preserving parallel fan-out over independent work items.
//!
//! The workload suite profiles each benchmark program in its own VM +
//! profiler, so the runs are embarrassingly parallel; the only
//! requirements are (a) bounded worker count, (b) results returned in
//! input order so reports print deterministically, and (c) worker
//! panics surfacing in the caller. [`par_map`] provides exactly that on
//! top of `std::thread::scope` — no external runtime needed (the build
//! environment cannot fetch rayon).
//!
//! Work is distributed dynamically: workers pull the next unclaimed
//! index from a shared cursor, so a slow item (e.g. the `eclipse`
//! workload) does not serialize the rest of its stripe.
//!
//! The crate also hosts trace replay ([`replay_gcost`]), which is one
//! sequential pass, and [`run_pipelined`], a shim over the sequential
//! profiler kept for callers of the removed pipelined profiler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
mod replay;

pub use pipeline::{auto_pipeline_jobs, run_pipelined, PipelineOptions, PipelineTracer};
pub use replay::{replay_gcost, salvage_replay_gcost};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Returns a sensible default worker count: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order.
///
/// `jobs == 0` or `jobs == 1` (or a single item) runs inline on the
/// calling thread with no thread overhead, so callers can pass a user
/// `--jobs` value straight through. If a worker panics, the panic
/// propagates to the caller when the scope joins.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_init(jobs, items, || (), move |(), t| f(t))
}

/// Like [`par_map`], but each worker thread first builds private state
/// with `init` and every call on that worker gets `&mut` access to it.
///
/// This is the scratch-reuse hook for the batch analysis engine: a
/// worker allocates one traversal scratch (visited bitset + stack) up
/// front and reuses it across every seed it claims, instead of paying an
/// allocation per slice query. The inline path (`jobs <= 1` or a single
/// item) calls `init` once and maps sequentially, so results are
/// identical whatever the worker count.
pub fn par_map_init<T, R, S, I, F>(jobs: usize, items: Vec<T>, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|t| f(&mut state, t)).collect();
    }

    // Each slot is claimed exactly once via the shared cursor, so a
    // worker takes the item out of its Mutex<Option<T>> and writes the
    // result into the matching output slot.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = inputs[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("input slot claimed twice");
                    let result = f(&mut state, item);
                    *outputs[i].lock().expect("output slot poisoned") = Some(result);
                }
            });
        }
    });

    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot poisoned")
                .expect("worker exited without producing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(8, items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_when_single_job() {
        let out = par_map(1, vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<u32> = par_map(4, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_items() {
        let out = par_map(64, vec![10, 20], |x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(4, items, |x| {
            // Make early items slow so later items finish first.
            let spins = if x < 4 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn init_state_is_per_worker_and_reused() {
        // Each worker counts how many items it processed in its private
        // state; the counts must sum to the item count, and results must
        // stay in input order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_init(
            4,
            items,
            || 0u64,
            |count, x| {
                *count += 1;
                (x, *count)
            },
        );
        for (i, (x, count)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
            assert!(*count >= 1);
        }
    }

    #[test]
    fn init_inline_path_initializes_once() {
        // One state serves all items sequentially: 10 becomes 11, 12, 13.
        let out = par_map_init(
            1,
            vec![1, 2, 3],
            || 10,
            |s, x| {
                *s += 1;
                *s + x
            },
        );
        assert_eq!(out, vec![12, 14, 16]);
    }
}
