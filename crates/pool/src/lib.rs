//! A minimal scoped-thread worker pool for the embarrassingly parallel
//! parts of the harness: benchmark×flow evaluation jobs and per-catalogue
//! refinement obligations.
//!
//! The pool is deliberately tiny — no external dependencies, no global
//! state, no work stealing. [`parallel_map`] fans a `Vec` of jobs out over
//! [`std::thread::scope`] workers that pull indices from a shared atomic
//! cursor, and reassembles the results in input order, so callers see
//! deterministic output regardless of completion order.
//!
//! Worker count is `min(jobs, available_parallelism)`, overridable with the
//! `GRAPHITI_JOBS` environment variable (`GRAPHITI_JOBS=1` forces the
//! serial path, which runs on the caller's thread with no pool at all —
//! useful for workloads that mutate process-global state such as the
//! `graphiti-obs` registry).
//!
//! When `graphiti-obs` collection is enabled, each run records
//! `pool.jobs.worker_<k>` counters (jobs executed per worker) and the
//! `pool.workers` gauge, making scheduling skew visible in metrics dumps.
//! The caller's current span ([`graphiti_obs::current_span_id`]) is
//! captured before the fan-out and adopted by every worker, so spans
//! opened inside jobs — deferred refinement discharge, bench flow runs —
//! appear causally parented under the spawning span in the Chrome trace
//! instead of as orphan roots.

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers [`parallel_map`] would use for `jobs` jobs: the
/// machine's available parallelism (or the `GRAPHITI_JOBS` override),
/// capped by the job count and floored at one.
pub fn worker_count(jobs: usize) -> usize {
    let hw = std::env::var("GRAPHITI_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&j| j > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        });
    hw.min(jobs).max(1)
}

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in input order.
///
/// Jobs are claimed through a shared atomic cursor, so a slow job never
/// blocks the others and scheduling is load-balanced; the result vector is
/// indexed by input position, so the output is deterministic. With one
/// worker (single-core machine, one job, or `GRAPHITI_JOBS=1`) the items
/// are mapped inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_cancellable(items, &graphiti_obs::CancelToken::new(), f)
        .expect("a fresh token never trips")
}

/// [`parallel_map`] with cooperative cancellation: each worker polls
/// `token` before claiming its next job.
///
/// Returns `None` when the token tripped before every job completed —
/// in-flight jobs finish, unclaimed ones are abandoned — and
/// `Some(results)` in input order otherwise. With one worker the items
/// are mapped inline with the same per-item poll.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn parallel_map_cancellable<T, R, F>(
    items: Vec<T>,
    token: &graphiti_obs::CancelToken,
    f: F,
) -> Option<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for item in items {
            if token.is_cancelled() {
                return None;
            }
            out.push(f(item));
        }
        return Some(out);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let record = graphiti_obs::enabled();
    // Causal tracing: workers adopt the caller's current span as their
    // parent, so job spans trace back to the fan-out site.
    let parent_span = if record { graphiti_obs::current_span_id() } else { 0 };
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, slots, results, f, token) = (&next, &slots, &results, &f, &token);
            scope.spawn(move || {
                let _adopt = graphiti_obs::adopt_parent(parent_span);
                let mut done: u64 = 0;
                loop {
                    if token.is_cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().expect("job slot").take().expect("job taken once");
                    let r = f(item);
                    *results[i].lock().expect("result slot") = Some(r);
                    done += 1;
                }
                if record && done > 0 {
                    graphiti_obs::counter(&format!("pool.jobs.worker_{w}")).add(done);
                }
            });
        }
    });
    if record {
        graphiti_obs::gauge("pool.workers").set(workers as i64);
    }
    let mut out = Vec::with_capacity(n);
    for m in results {
        match m.into_inner().expect("result slot") {
            Some(r) => out.push(r),
            // An unclaimed job: the token tripped mid-batch.
            None => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_come_back_in_input_order() {
        // Non-uniform job cost: later jobs finish first under any actual
        // parallelism, so order preservation is exercised for real.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(items.clone(), |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_is_capped_by_jobs() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn runs_are_deterministic_across_repeats() {
        let run = || parallel_map((0..257u64).collect::<Vec<_>>(), |x| x.wrapping_mul(x) ^ 0xa5);
        assert_eq!(run(), run());
    }

    #[test]
    fn cancellable_map_completes_when_token_stays_quiet() {
        let token = graphiti_obs::CancelToken::new();
        let out = parallel_map_cancellable((0..64u64).collect::<Vec<_>>(), &token, |x| x + 1);
        assert_eq!(out, Some((1..=64).collect::<Vec<_>>()));
    }

    #[test]
    fn pre_tripped_token_abandons_the_batch() {
        let token = graphiti_obs::CancelToken::new();
        token.cancel();
        let out = parallel_map_cancellable((0..64u64).collect::<Vec<_>>(), &token, |x| x + 1);
        assert_eq!(out, None);
    }
}
