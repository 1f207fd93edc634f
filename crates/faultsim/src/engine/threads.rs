//! The only threads the library spawns: each [`run_indexed`] call runs
//! jobs `0..n` on the calling thread plus scoped helpers that exit before
//! it returns.
//!
//! Campaign trials and design-space sweeps are embarrassingly parallel.
//! Every thread of a call claims the next index from one shared counter,
//! which load-balances jobs of very different cost (a 105-scheme sweep
//! mixes SLC layers that decode instantly with ECC-protected MLC3 layers
//! that dominate the wall-clock). A job runs start to finish on one
//! thread, its GEMMs included, and its result lands in its index's slot,
//! so the output depends neither on the thread count nor on scheduling.

use crate::cancel::CancelToken;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// What one thread of a call ran: its jobs' results by index, and the
/// lowest index among its jobs that panicked, with the payload.
type Share<T> = (Vec<(usize, T)>, Option<(usize, Box<dyn Any + Send>)>);

/// Runs `f(0..n)` on `threads` compute threads — the caller and
/// `min(threads, n) - 1` scoped helpers — and returns the results by
/// index.
///
/// Each job checks `cancel` just before it would run; once the token has
/// fired, the remaining jobs are skipped and their slots stay `None`. A
/// job's panic is caught, and once every job has settled the payload of
/// the lowest index that panicked is re-raised on the caller. If the OS
/// refuses a helper, the threads that did spawn run every job.
pub(crate) fn run_indexed<T, F>(
    threads: usize,
    n: usize,
    cancel: &CancelToken,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // The counter only hands out indices: results travel back through
    // the joins, so it publishes no other data.
    let next = AtomicUsize::new(0);
    let work = || -> Share<T> {
        let mut ran = Vec::new();
        let mut panicked = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            // A fired token stays fired, so every later job would skip.
            if i >= n || cancel.is_cancelled() {
                return (ran, panicked);
            }
            match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(value) => ran.push((i, value)),
                // A thread claims rising indices: its first is its lowest.
                Err(payload) => {
                    panicked.get_or_insert((i, payload));
                }
            }
        }
    };
    let shares: Vec<Share<T>> = thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(n))
            .map_while(|h| {
                thread::Builder::new()
                    .name(format!("maxnvm-eval-{h}"))
                    .spawn_scoped(s, work)
                    .ok()
            })
            .collect();
        let mut shares = vec![work()];
        // `work` catches its jobs' panics, so a helper that still ended
        // in one hit a bug outside them: pass that panic on.
        shares.extend(helpers.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        }));
        shares
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for (ran, panicked) in shares {
        for (i, value) in ran {
            slots[i] = Some(value);
        }
        if let Some((i, payload)) = panicked {
            if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                first_panic = Some((i, payload));
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        panic::resume_unwind(payload);
    }
    slots
}

/// [`run_indexed`] without cancellation: every job's result, in index
/// order.
pub(crate) fn map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // A token that never fires skips no job, so every slot is `Some`.
    run_indexed(threads, n, &CancelToken::new(), f)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn maps_in_index_order() {
        let out = map_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_runs_every_job_on_the_caller() {
        let caller = thread::current().id();
        let ran_on = map_indexed(1, 10, |_| thread::current().id());
        assert!(ran_on.iter().all(|id| *id == caller));
    }

    #[test]
    fn empty_scope_returns_immediately() {
        assert!(map_indexed(2, 0, |i| i).is_empty());
    }

    #[test]
    fn results_do_not_depend_on_thread_count() {
        let work = |i: usize| {
            // Uneven job costs exercise the dynamic scheduling.
            (0..(i % 7) * 1000).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        };
        let serial = map_indexed(1, 64, work);
        for threads in [2, 3, 8] {
            assert_eq!(map_indexed(threads, 64, work), serial);
        }
    }

    #[test]
    fn borrows_caller_state() {
        let data: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let out = map_indexed(3, data.len(), |i| data[i] + 1);
        assert_eq!(out[49], 49 * 3 + 1);
    }

    #[test]
    fn the_lowest_panicking_index_propagates_to_the_caller() {
        for threads in [1, 2, 4] {
            let ran = Mutex::new(Vec::new());
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                map_indexed(threads, 8, |i| {
                    ran.lock().unwrap().push(i);
                    match i {
                        2 => panic!("job 2 exploded"),
                        5 => panic!("job 5 exploded"),
                        _ => i,
                    }
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "job 2 exploded", "threads={threads}");
            // Every job settled before the panic was re-raised.
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            assert_eq!(ran, (0..8).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn nested_scopes_make_progress() {
        let out = map_indexed(2, 4, |i| {
            map_indexed(2, 4, |j| i * 4 + j).iter().sum::<usize>()
        });
        assert_eq!(out.iter().sum::<usize>(), (0..16).sum());
    }

    #[test]
    fn cancelled_scope_skips_remaining_jobs() {
        let cancel = CancelToken::new();
        let ran = AtomicUsize::new(0);
        // One thread: the caller runs the jobs in index order.
        let out = run_indexed(1, 10, &cancel, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                cancel.cancel();
            }
            i
        });
        // Jobs 0..=2 ran; the rest were skipped.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        let mut want = vec![Some(0), Some(1), Some(2)];
        want.resize(10, None);
        assert_eq!(out, want);
    }

    #[test]
    fn pre_cancelled_scope_runs_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_indexed(2, 16, &cancel, |i| i);
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn cancellable_scope_without_cancellation_fills_every_slot() {
        let out = run_indexed(3, 32, &CancelToken::new(), |i| i * 2);
        assert_eq!(out, (0..32).map(|i| Some(i * 2)).collect::<Vec<_>>());
    }
}
