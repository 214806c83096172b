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
//! The crate also hosts [`replay_gcost`], a wrapper over core's
//! sequential trace replay, and [`run_pipelined`], a shim over the
//! sequential profiler; both stay for the benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
mod replay;

pub use pipeline::{auto_pipeline_jobs, run_pipelined, PipelineOptions};
pub use replay::replay_gcost;

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
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Each slot is claimed exactly once via the shared cursor, so a
    // worker takes the item out of its Mutex<Option<T>> and writes the
    // result into the matching output slot.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("input slot claimed twice");
                let result = f(item);
                *outputs[i].lock().expect("output slot poisoned") = Some(result);
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
}
