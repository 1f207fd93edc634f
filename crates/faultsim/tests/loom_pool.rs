//! Model checks of the WorkerPool's condvar protocol and the CancelToken
//! handoff, run under `cargo xtask loom` (`RUSTFLAGS="--cfg loom"`).
//!
//! With `--cfg loom` the pool's Mutex/Condvar/atomics swap to the
//! vendored loom polyfill: every acquisition, wake-up, and atomic access
//! injects a seeded pseudo-random yield or spin, and `loom::model` runs
//! each closure across many distinct perturbation seeds. This is
//! randomized-schedule stress, not exhaustive DPOR (see DESIGN.md §11) —
//! a failure is always a real schedule, a pass is strong evidence.
//!
//! The scenarios pin the pool's three load-bearing windows, plus the
//! scope-local helping rule (a waiting caller never starts an outer job):
//! - enqueue vs. park: a caller pushing jobs while workers are between
//!   the queue check and the condvar wait must not strand a job;
//! - completion vs. wait: the scope's last job waking the parked caller
//!   must not be lost (the completion count changes under the queue
//!   lock the caller checks it under, which closes this);
//! - shutdown vs. drain: dropping the pool while workers race the
//!   shutdown flag must join every thread.

#![cfg(loom)]

use maxnvm_faultsim::engine::WorkerPool;
use maxnvm_faultsim::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn enqueue_wakeup_returns_every_result_in_order() {
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let out = pool.scope_map(8, |i| i * 3);
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    });
}

#[test]
fn parked_caller_is_woken_by_its_last_job() {
    // One job, two workers: the caller usually finds the queue already
    // drained and must park until the worker's completion wake-up. A
    // lost wake-up hangs this test rather than failing an assert, so a
    // pass also certifies the notify protocol's liveness.
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let out = pool.scope_map(1, |i| i + 41);
        assert_eq!(out, vec![41]);
    });
}

#[test]
fn nested_scopes_stay_live_with_one_worker() {
    loom::model(|| {
        let pool = WorkerPool::new(1);
        let total: usize = pool
            .scope_map(3, |i| {
                pool.scope_map(3, |j| i * 3 + j).iter().sum::<usize>()
            })
            .iter()
            .sum();
        assert_eq!(total, (0..9).sum());
    });
}

#[test]
fn nested_scope_callers_never_start_outer_jobs() {
    // A caller waiting in a nested scope runs only its own scope's jobs,
    // under every perturbed schedule: outer jobs in flight never exceed
    // the pool's threads (two workers plus the outer caller).
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = pool.scope_map(6, |i| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let inner: usize = pool.scope_map(2, |j| i * 2 + j).iter().sum();
            active.fetch_sub(1, Ordering::SeqCst);
            inner
        });
        assert_eq!(out, (0..6).map(|i| 4 * i + 1).collect::<Vec<_>>());
        assert!(peak.load(Ordering::SeqCst) <= 3);
    });
}

#[test]
fn shutdown_joins_workers_racing_the_flag() {
    loom::model(|| {
        let pool = WorkerPool::new(3);
        // Leave some work in flight right up to the drop so workers are
        // caught at every point of their loop: running a job, checking
        // the queue, checking shutdown, or parked.
        let _ = pool.scope_map(5, |i| i);
        drop(pool); // must join all three threads, never hang
    });
}

#[test]
fn cancel_handoff_skips_cleanly_mid_scope() {
    // A second thread fires the token while the scope is running. Every
    // index must settle as exactly Some (ran before the cancel landed)
    // or None (skipped after), with no slot lost either way — and the
    // scope must terminate regardless of where the store interleaves
    // with the per-job token checks.
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        let fired = cancel.clone();
        let canceller = loom::thread::spawn(move || fired.cancel());
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let out = pool.scope_map_cancellable(16, &cancel, move |_| {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        canceller.join().expect("canceller thread");
        let produced = out.iter().filter(|slot| slot.is_some()).count();
        assert_eq!(out.len(), 16);
        assert_eq!(produced, ran.load(Ordering::Relaxed));
    });
}

#[test]
fn pre_fired_token_runs_nothing() {
    loom::model(|| {
        let pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = pool.scope_map_cancellable(8, &cancel, |i| i);
        assert!(out.iter().all(Option::is_none));
    });
}
