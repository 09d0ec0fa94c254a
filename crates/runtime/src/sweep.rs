//! A scoped-thread worker pool for fanning independent jobs across cores.
//!
//! The amortization story of split compilation (compile once online, run many
//! times) only pays off at scale if the "many times" can actually happen at
//! once. This module provides the fan-out half: a job list — typically the
//! cells of a `K kernels × T targets × R repeats` matrix — is distributed
//! over a pool of scoped worker threads that all share one
//! [`ExecutionEngine`](crate::ExecutionEngine), whose in-flight
//! deduplicated code cache guarantees that racing cold compiles still happen
//! exactly once per (target, options) pair.
//!
//! Two properties make the pool suitable for measurement sweeps:
//!
//! * **per-worker state** — each worker builds one `State` value (a scratch
//!   workspace, a prepared simulator, …) and reuses it for every job it
//!   pulls, amortizing setup across the whole sweep instead of paying it per
//!   cell;
//! * **deterministic output order** — results are returned indexed by job
//!   position, not completion time, so a parallel sweep is bit-comparable to
//!   a sequential one.
//!
//! Workers pull jobs from a shared atomic cursor (work stealing by
//! construction: a slow cell never stalls the other workers). With `jobs <= 1`
//! the pool degenerates to an inline loop on the calling thread — no threads
//! are spawned, which keeps single-job callers allocation- and
//! synchronization-free.
//!
//! # Example
//!
//! ```
//! // Square eight numbers on four workers, each worker counting its jobs.
//! let inputs: Vec<u64> = (0..8).collect();
//! let squares = splitc_runtime::sweep(
//!     &inputs,
//!     4,
//!     |_worker| 0u64,                      // per-worker state: jobs done
//!     |done, &x, _index| { *done += 1; x * x },
//! );
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads the host supports (at least 1).
///
/// Sweep callers use this as the default for "use all cores" requests such as
/// the CLI's `--jobs 0`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The number of workers [`sweep`] will actually run for a request of
/// `workers` over `jobs` jobs: at least 1, at most one worker per job.
///
/// Callers that report a pool width (amortized-per-worker figures) use this
/// so their numbers match the real pool, not the requested one.
pub fn pool_width(workers: usize, jobs: usize) -> usize {
    workers.max(1).min(jobs.max(1))
}

/// Run every job of `jobs` through `work` on a pool of `workers` scoped
/// threads, returning the results in job order.
///
/// Each worker calls `init` once with its worker index to build its reusable
/// state, then repeatedly pulls the next unclaimed job. `work` receives the
/// worker state, the job, and the job's index in `jobs`. The returned vector
/// is indexed exactly like `jobs`, whatever order the cells completed in.
///
/// `workers` is clamped to `[1, jobs.len()]`; with one worker the jobs run
/// inline on the calling thread, in order, with no synchronization.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads first).
pub fn sweep<Job, Out, State>(
    jobs: &[Job],
    workers: usize,
    init: impl Fn(usize) -> State + Sync,
    work: impl Fn(&mut State, &Job, usize) -> Out + Sync,
) -> Vec<Out>
where
    Job: Sync,
    Out: Send,
{
    let workers = pool_width(workers, jobs.len());
    if workers <= 1 {
        let mut state = init(0);
        return jobs
            .iter()
            .enumerate()
            .map(|(i, job)| work(&mut state, job, i))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Out>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let cursor = &cursor;
            let slots = &slots;
            let init = &init;
            let work = &work;
            scope.spawn(move || {
                let mut state = init(worker);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let out = work(&mut state, &jobs[i], i);
                    *slots[i].lock().expect("sweep result slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep result slot poisoned")
                .expect("every job produces a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 8, 200] {
            let out = sweep(&jobs, workers, |_| (), |(), &j, i| (j, i));
            assert_eq!(out.len(), jobs.len());
            for (i, (job, index)) in out.iter().enumerate() {
                assert_eq!(*job, i);
                assert_eq!(*index, i);
            }
        }
    }

    #[test]
    fn empty_job_lists_are_fine() {
        let out: Vec<u32> = sweep(&[] as &[u8], 4, |_| (), |(), _, _| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_worker() {
        let inits = AtomicU64::new(0);
        let jobs: Vec<u32> = (0..64).collect();
        let out = sweep(
            &jobs,
            4,
            |worker| {
                inits.fetch_add(1, Ordering::Relaxed);
                worker
            },
            |worker, _, _| *worker,
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
        // Every job was handled by one of the workers.
        let seen: HashSet<usize> = out.into_iter().collect();
        assert!(seen.iter().all(|w| *w < 4));
    }

    #[test]
    fn single_worker_runs_inline_and_in_order() {
        let jobs: Vec<u32> = (0..10).collect();
        let mut order = Vec::new();
        // With one worker the closure runs on this thread, so it can borrow
        // local state mutably through a RefCell-free Mutex.
        let log = Mutex::new(&mut order);
        sweep(&jobs, 1, |_| (), |(), &j, _| log.lock().unwrap().push(j));
        assert_eq!(order, jobs);
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }
}
