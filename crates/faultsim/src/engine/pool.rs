//! A persistent worker pool: the only threads the library spawns.
//!
//! Campaign trials and design-space sweeps are embarrassingly parallel.
//! This pool spawns its workers once and serves every evaluation in the
//! process: each [`WorkerPool::scope_map`] call opens a scope in a shared
//! FIFO queue, and idle workers claim its jobs one index at a time, which
//! load-balances trials of very different cost (a 105-scheme sweep mixes
//! SLC layers that decode instantly with ECC-protected MLC3 layers that
//! dominate the wall-clock). A trial is the unit of parallelism: each
//! runs start to finish on one thread, its GEMMs included.
//!
//! The scheduling is cooperative but scope-local: the thread that calls
//! [`WorkerPool::scope_map`] runs jobs of *its own* scope while it
//! waits, never another scope's, while workers take whatever is oldest
//! in the queue. So a pool works at any size (even zero workers
//! degenerates to the caller running everything serially), and
//! concurrent callers sharing the process-wide pool never run each
//! other's jobs. The same rule keeps nested scopes safe, although no
//! library path opens one: a job that calls back into the pool (a
//! campaign started from inside another pool job) cannot deadlock — a
//! blocked scope always has its own caller able to run every job nobody
//! else claimed — and cannot start further outer jobs on its thread, so
//! at most `workers + 1` jobs of any one scope run at once. While
//! waiting, a caller parks on the pool's `work_ready` condvar until its
//! scope's last job completes.
//!
//! Scopes can be made cancellable ([`WorkerPool::scope_map_cancellable`]):
//! each job checks a [`CancelToken`] just before running, so a
//! cancelled scope drains near-instantly and reports which indices
//! actually ran.

use crate::cancel::CancelToken;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

// Under `--cfg loom` (cargo xtask loom) the pool's primitives swap to the
// vendored loom polyfill, which injects seeded schedule perturbations at
// every lock/wait/notify/atomic access so the model tests explore many
// interleavings of the enqueue/park/wake windows. Production builds use
// parking_lot and plain std atomics.
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, Ordering};
#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use parking_lot::{Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, Ordering};

/// Runs job `i` of one scope; never unwinds (job panics are caught).
type Run = dyn Fn(usize) + Sync;

/// One open scope in the queue: its type-erased job runner, the next
/// index to hand out, and how many claimed jobs have returned. The entry
/// leaves the queue only when its caller sees every job returned.
struct OpenScope {
    id: u64,
    run: &'static Run,
    n: usize,
    next: usize,
    done: usize,
}

/// A claimed job: the scope it belongs to, its runner and its index.
type Claim = (u64, &'static Run, usize);

#[derive(Default)]
struct Queue {
    scopes: VecDeque<OpenScope>,
    next_id: u64,
}

impl Queue {
    /// The next unclaimed job of scope `only` — what that scope's waiting
    /// caller runs — or, for `None`, of the oldest scope with unclaimed
    /// jobs — what an idle worker runs.
    fn claim(&mut self, only: Option<u64>) -> Option<Claim> {
        let scope = self
            .scopes
            .iter_mut()
            .find(|s| s.next < s.n && only.is_none_or(|id| s.id == id))?;
        let i = scope.next;
        scope.next += 1;
        Some((scope.id, scope.run, i))
    }

    /// Records that a claimed job of scope `id` returned; true when it
    /// was the scope's last.
    fn complete(&mut self, id: u64) -> bool {
        match self.scopes.iter_mut().find(|s| s.id == id) {
            Some(s) => {
                s.done += 1;
                s.done == s.n
            }
            None => false,
        }
    }

    /// Removes scope `id` if all its jobs have returned; true if so.
    fn close_if_done(&mut self, id: u64) -> bool {
        match self.scopes.iter().position(|s| s.id == id) {
            Some(pos) if self.scopes[pos].done == self.scopes[pos].n => {
                self.scopes.remove(pos);
                true
            }
            Some(_) => false,
            None => true,
        }
    }
}

struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Records that a claimed job of scope `id` returned and, if it was
    /// the scope's last, wakes the parked caller (the count changes under
    /// the lock, so the notify cannot be lost). Callers run the job first
    /// and pass only the id: no borrow of the scope's state may be live
    /// here, since its caller may free it as soon as it sees the count.
    fn complete(&self, id: u64) {
        let last = self.queue.lock().complete(id);
        if last {
            self.work_ready.notify_all();
        }
    }
}

/// A fixed set of persistent worker threads draining a shared job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent threads.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // If the OS refuses a thread, run with the workers that did
        // spawn: `scope_map` has the caller run its own scope's jobs, so
        // the pool stays correct (just slower) even with zero workers.
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("maxnvm-eval-{i}"))
                .spawn(move || worker_loop(&shared))
            {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        Self { shared, handles }
    }

    /// Number of worker threads that spawned — fewer than requested if
    /// the OS refused some. The caller of [`Self::scope_map`] also
    /// contributes while it waits.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Evaluates `f(0..n)` across the pool, returning results in index
    /// order. Blocks until every job has finished; if any job panicked,
    /// the first panic is re-raised on the calling thread.
    ///
    /// Results are independent of the worker count and of scheduling:
    /// each index is computed by exactly one pure call of `f`, and the
    /// output vector is assembled by index, so a 1-worker and a
    /// 64-worker pool return byte-identical vectors.
    pub fn scope_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let never = CancelToken::new();
        self.scope_map_cancellable(n, &never, f)
            .into_iter()
            // maxnvm-lint: allow(D2/expect): a never-fired CancelToken cannot skip jobs, and job panics re-raise in finish() before results are read, so every slot is Some.
            .map(|slot| slot.expect("uncancellable scope job left no result"))
            .collect()
    }

    /// [`Self::scope_map`] with cooperative cancellation: each job
    /// checks `cancel` immediately before running `f`, so once the
    /// token fires the remaining queue drains without doing work.
    /// Returns `Some(result)` for indices that ran, `None` for indices
    /// skipped after cancellation. Panics from `f` are still re-raised
    /// (first one wins) after all jobs have settled.
    pub fn scope_map_cancellable<T, F>(
        &self,
        n: usize,
        cancel: &CancelToken,
        f: F,
    ) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let state = ScopeState::new(n);
        let run = |i: usize| {
            if !cancel.is_cancelled() {
                state.run_one(i, &f);
            }
        };
        let run: &(dyn Fn(usize) + Sync + '_) = &run;
        // SAFETY: the erased reference lives only in this scope's queue
        // entry and in the claims taken from it, and a claim's holder
        // calls it once and then reports completion by scope id alone
        // (`Shared::complete`), so no call or argument holding it is
        // live after the report. This call does not return (and so drop
        // `run`, `state`, `f` or release `cancel`) until `close_if_done`
        // has removed the entry, which requires all `n` claimed jobs to
        // have reported under the queue lock; `run` never unwinds
        // (`run_one` catches panics), so every claim is reported. No use
        // of the reference can outlive the borrows it erases.
        let run: &'static Run = unsafe { std::mem::transmute(run) };
        let id = {
            let mut queue = self.shared.queue.lock();
            let id = queue.next_id;
            queue.next_id += 1;
            queue.scopes.push_back(OpenScope {
                id,
                run,
                n,
                next: 0,
                done: 0,
            });
            id
        };
        self.shared.work_ready.notify_all();
        loop {
            let mut queue = self.shared.queue.lock();
            if let Some((_, run, i)) = queue.claim(Some(id)) {
                drop(queue);
                run(i);
                self.shared.complete(id);
                continue;
            }
            if queue.close_if_done(id) {
                break;
            }
            // Parked until a job of this scope completes (the last one
            // wakes us); other scopes' work is left to the workers.
            self.shared.work_ready.wait(&mut queue);
        }
        state.finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // The flag is set outside the queue lock. Taking (and releasing)
        // the lock before notifying closes the race against a worker
        // that has checked the flag but not yet parked: the notify
        // serializes behind that worker's critical section, so it cannot
        // land in the gap.
        drop(self.shared.queue.lock());
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock();
    loop {
        if let Some((id, run, i)) = queue.claim(None) {
            drop(queue);
            run(i);
            shared.complete(id);
            queue = shared.queue.lock();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Woken by new work or (spuriously) by a scope completing; both
        // re-check the queue.
        shared.work_ready.wait(&mut queue);
    }
}

/// Results of one `scope_map` call: per-index result slots and the
/// first panic payload (if any). Completion is counted in the queue.
struct ScopeState<T> {
    results: Mutex<Vec<Option<T>>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T: Send> ScopeState<T> {
    fn new(n: usize) -> Self {
        Self {
            results: Mutex::new((0..n).map(|_| None).collect()),
            panic: Mutex::new(None),
        }
    }

    /// Runs job `i`, storing its result or its panic payload.
    fn run_one<F: Fn(usize) -> T + Sync>(&self, i: usize, f: &F) {
        match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(value) => self.results.lock()[i] = Some(value),
            Err(payload) => {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    fn finish(self) -> Vec<Option<T>> {
        if let Some(payload) = self.panic.into_inner() {
            panic::resume_unwind(payload);
        }
        self.results.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn maps_in_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.scope_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_still_completes_via_the_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.scope_map(10, |i| i + 1), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = WorkerPool::new(2);
        assert!(pool.scope_map(0, |i| i).is_empty());
    }

    #[test]
    fn results_do_not_depend_on_worker_count() {
        let work = |i: usize| {
            // Uneven job costs exercise the dynamic scheduling.
            (0..(i % 7) * 1000).fold(i as u64, |acc, x| {
                acc.wrapping_mul(31).wrapping_add(x as u64)
            })
        };
        let serial = WorkerPool::new(0).scope_map(64, work);
        for workers in [1, 2, 8] {
            assert_eq!(WorkerPool::new(workers).scope_map(64, work), serial);
        }
    }

    #[test]
    fn borrows_caller_state() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let out = pool.scope_map(data.len(), |i| data[i] + 1);
        assert_eq!(out[49], 49 * 3 + 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job 5 exploded");
        // The pool survives and keeps serving work.
        assert_eq!(pool.scope_map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_scopes_make_progress() {
        let pool = WorkerPool::new(1);
        let out = pool.scope_map(4, |i| {
            pool.scope_map(4, |j| i * 4 + j).iter().sum::<usize>()
        });
        assert_eq!(out.iter().sum::<usize>(), (0..16).sum());
    }

    #[test]
    fn nested_scopes_never_start_more_than_workers_plus_one_outer_jobs() {
        // Every outer job opens a nested scope and waits in it. A waiting
        // caller runs only its own scope's jobs, so the outer jobs
        // running at once are bounded by the pool's threads: each worker
        // and the outer caller hold at most one.
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let active = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let out = pool.scope_map(4 * (workers + 1), |i| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let inner = pool.scope_map(4, |j| i * 4 + j);
                active.fetch_sub(1, Ordering::SeqCst);
                inner.iter().sum::<usize>()
            });
            let want: Vec<usize> = (0..out.len()).map(|i| 16 * i + 6).collect();
            assert_eq!(out, want);
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= workers + 1,
                "{peak} outer jobs ran at once on {workers} workers"
            );
        }
    }

    #[test]
    fn completion_wakes_the_caller_promptly() {
        // One slow job running on a worker while the caller has nothing
        // left to steal: the caller must park and be woken by the job's
        // completion, not by a polling interval. An end-to-end latency
        // far below the old 1 ms poll multiplied by the iteration count
        // would not prove much, so instead assert the scope returns
        // promptly after the job finishes.
        let pool = WorkerPool::new(2);
        let start = Instant::now();
        let out = pool.scope_map(1, |i| {
            std::thread::sleep(Duration::from_millis(30));
            i + 7
        });
        assert_eq!(out, vec![7]);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "scope took {elapsed:?} for a 30 ms job"
        );
    }

    #[test]
    fn cancelled_scope_skips_remaining_jobs() {
        let pool = WorkerPool::new(0); // caller-only: deterministic order
        let cancel = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out = pool.scope_map_cancellable(10, &cancel, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                cancel.cancel();
            }
            i
        });
        // Jobs 0..=2 ran (in order, caller-only); the rest were skipped.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        assert_eq!(
            out,
            vec![
                Some(0),
                Some(1),
                Some(2),
                None,
                None,
                None,
                None,
                None,
                None,
                None
            ]
        );
    }

    #[test]
    fn pre_cancelled_scope_runs_nothing() {
        let pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = pool.scope_map_cancellable(16, &cancel, |i| i);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn transmute_job_borrows_stay_contained_in_the_scope() {
        // The Miri target for `cargo xtask miri` (matched by the
        // `engine::pool::tests::transmute_` filter): exercises the
        // lifetime-erasing transmute in `scope_map_cancellable` under
        // the borrow tracker. The jobs borrow caller-owned state, run on
        // pool workers and the caller, and one scope nests inside
        // another — if the SAFETY argument (no job outlives the scope
        // call) were wrong, Miri reports use-after-free on `data`,
        // `sums`, or the scope's own state.
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..24).map(|i| i * 7 + 1).collect();
        let sums = Mutex::new(0u64);
        let out = pool.scope_map(data.len(), |i| {
            let nested = pool.scope_map(2, |j| data[i] + j as u64);
            *sums.lock() += 1;
            nested[0] + nested[1]
        });
        assert_eq!(*sums.lock(), data.len() as u64);
        assert_eq!(out[3], 2 * data[3] + 1);
        // A cancelled scope drains through the same transmuted jobs.
        let cancel = CancelToken::new();
        cancel.cancel();
        let skipped = pool.scope_map_cancellable(8, &cancel, |i| data[i]);
        assert!(skipped.iter().all(Option::is_none));
    }

    #[test]
    fn cancellable_scope_without_cancellation_matches_scope_map() {
        let pool = WorkerPool::new(3);
        let cancel = CancelToken::new();
        let out = pool.scope_map_cancellable(32, &cancel, |i| i * 2);
        assert_eq!(out, (0..32).map(|i| Some(i * 2)).collect::<Vec<_>>());
    }
}
