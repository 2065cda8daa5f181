//! Independent jobs claimed by every core.
//!
//! Two hot paths split their work into independent jobs whose results do
//! not depend on which thread ran them: snapshot chunk hashing
//! ([`crate::snap`]) and the fused plan passes of `cw_core::query`. Both
//! run the jobs through [`claim_while`]: scoped `std` threads take job
//! indices from one shared counter until none are left, so a slow job
//! never leaves the other cores idle. Callers that collect results give
//! each job its own slot (a `OnceLock` per job index), which keeps the
//! output in job order whatever the claim order was.
//!
//! These workers are sized by [`hardware_threads`], not by `--threads`:
//! they parallelise inside one step of one run, like the engine's shard
//! threads, and never change a result.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The default worker count: one per hardware thread the process may use
/// (`available_parallelism()`, which honours CPU affinity masks), or 1
/// when that is unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `job` once for every index in `0..jobs`, claimed in increasing
/// index order from a shared counter by `workers` threads: the calling
/// thread, which first runs `work`, and `workers - 1` scoped helpers
/// (none when `workers` or `jobs` is at most 1). Returns `work`'s result
/// and whether every job returned `true`; the first `false` stops all
/// claiming, skipping the jobs not yet claimed.
///
/// A panic in `job` or `work` propagates to the caller with its original
/// payload once every helper has stopped.
///
/// ```
/// use cw_netsim::par::claim_while;
/// use std::sync::OnceLock;
///
/// let slots: Vec<OnceLock<u64>> = (0..8).map(|_| OnceLock::new()).collect();
/// let job = |i: usize| slots[i].set(i as u64 * 10).is_ok();
/// let ((), all_ok) = claim_while(slots.len(), 3, job, || ());
/// assert!(all_ok);
/// let tens: Vec<u64> = slots.into_iter().map(|s| s.into_inner().unwrap()).collect();
/// assert_eq!(tens, [0, 10, 20, 30, 40, 50, 60, 70]);
/// ```
pub fn claim_while<R>(
    jobs: usize,
    workers: usize,
    job: impl Fn(usize) -> bool + Sync,
    work: impl FnOnce() -> R,
) -> (R, bool) {
    // Relaxed suffices: neither atomic publishes other data, and the
    // scope's join orders every job's effects before `failed` is read.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let claim = || {
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            if !job(i) {
                failed.store(true, Ordering::Relaxed);
            }
        }
    };
    let out = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(jobs)).map(|_| s.spawn(claim)).collect();
        let out = work();
        claim();
        // Join by hand so a helper's panic keeps its own message instead
        // of the scope's generic "a scoped thread panicked".
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
        out
    });
    (out, !failed.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    #[test]
    fn every_job_runs_exactly_once_for_any_worker_count() {
        for workers in [0, 1, 2, 3, 8] {
            for jobs in [0, 1, 2, 7, 64] {
                let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let job = |i: usize| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    true
                };
                let (out, ok) = claim_while(jobs, workers, job, || 41 + 1);
                assert_eq!((out, ok), (42, true));
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "{jobs} jobs on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn slots_keep_job_order_whatever_the_claim_order() {
        let slots: Vec<OnceLock<usize>> = (0..100).map(|_| OnceLock::new()).collect();
        claim_while(slots.len(), 4, |i| slots[i].set(i * i).is_ok(), || ());
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.into_inner(), Some(i * i));
        }
    }

    #[test]
    fn a_failed_job_stops_further_claims() {
        let ran = AtomicUsize::new(0);
        let job = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            i != 0
        };
        let ((), ok) = claim_while(1000, 1, job, || ());
        assert!(!ok);
        assert_eq!(ran.into_inner(), 1, "one worker stops right after job 0");
    }

    #[test]
    fn a_helper_panic_surfaces_with_its_own_message() {
        for workers in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                claim_while(16, workers, |i| i != 9 || panic!("job nine broke"), || ())
            })
            .expect_err("the panic must reach the caller");
            let msg = caught
                .downcast_ref::<&str>()
                .copied()
                .or(caught.downcast_ref::<String>().map(String::as_str));
            assert_eq!(msg, Some("job nine broke"), "{workers} workers");
        }
    }
}
