//! The supervisor actor: one event-loop thread multiplexing many
//! campaign streams over the shared engine pool.
//!
//! Clients talk to the loop through a *bounded* event channel (backing
//! the admission-control guarantee) and observe stream lifecycles
//! through a shared status table + condvar. Runner threads execute one
//! stream each via `Campaign::run_controlled`, spooling checkpoints
//! through the configured [`CheckpointStore`]; the loop's periodic tick
//! drives the per-stream watchdog.

use crate::config::SupervisorConfig;
use crate::error::Rejected;
use crate::job::{CampaignJob, StreamId, StreamState, StreamStatus};
use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_faultsim::checkpoint::{CheckpointConfig, CheckpointStore};
use maxnvm_faultsim::evaluate::{AccuracyEval, EvalScratch, SparseModel};
use maxnvm_faultsim::{CampaignResult, CancelToken, EngineError, RunControl};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Wraps a job's evaluator so every evaluation bumps a shared progress
/// counter — the watchdog's liveness signal. Every trait method
/// forwards, so the engine's trial path (and its bit-exactness) is
/// preserved; only the counter is added.
struct HeartbeatEval {
    inner: Arc<dyn AccuracyEval + Send + Sync>,
    beats: Arc<AtomicU64>,
}

impl HeartbeatEval {
    fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }
}

impl AccuracyEval for HeartbeatEval {
    fn baseline_error(&self) -> f64 {
        self.inner.baseline_error()
    }

    fn eval(&self, mats: &[LayerMatrix]) -> f64 {
        self.beat();
        self.inner.eval(mats)
    }

    fn eval_deltas_sparse(
        &self,
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        self.beat();
        self.inner.eval_deltas_sparse(key, clean, deltas, scratch)
    }
}

/// Wraps a job's checkpoint store so every snapshot I/O attempt — the
/// resume-time load, each retry attempt inside the backoff loop, the
/// self-heal removal — bumps the same progress counter the evaluator
/// does. Without it, a stream riding out transient spool faults (whose
/// per-attempt backoff can dwarf the eval cadence) would look stalled
/// to the watchdog and be spuriously quarantined.
#[derive(Debug)]
struct HeartbeatStore {
    inner: Arc<dyn CheckpointStore>,
    beats: Arc<AtomicU64>,
}

impl HeartbeatStore {
    fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }
}

impl CheckpointStore for HeartbeatStore {
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), EngineError> {
        self.beat();
        self.inner.write_atomic(path, text)
    }

    fn read(&self, path: &Path) -> Result<String, EngineError> {
        self.beat();
        self.inner.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.beat();
        self.inner.exists(path)
    }

    fn remove(&self, path: &Path) -> Result<(), EngineError> {
        self.beat();
        self.inner.remove(path)
    }
}

/// Messages into the event loop. Client-facing sends go through the
/// bounded channel, so a wedged loop turns into backpressure at the
/// API, never unbounded queue growth.
enum Event {
    Submit {
        id: StreamId,
        job: CampaignJob,
    },
    Cancel {
        id: StreamId,
    },
    Evict {
        id: StreamId,
    },
    Done {
        id: StreamId,
        /// The generation of the runner reporting in; a `Done` whose
        /// generation does not match the live [`Running`] entry is
        /// stale and must not touch the current run.
        gen: u64,
        outcome: Result<CampaignResult, EngineError>,
    },
    Shutdown,
}

/// State shared between the API handles and the loop thread.
struct Shared {
    table: Mutex<BTreeMap<StreamId, StreamStatus>>,
    cond: Condvar,
    shutting_down: AtomicBool,
}

impl Shared {
    /// Updates a stream's status and wakes every waiter.
    fn set(&self, id: &StreamId, update: impl FnOnce(&mut StreamStatus)) {
        let mut table = self.table.lock();
        if let Some(status) = table.get_mut(id) {
            update(status);
        }
        self.cond.notify_all();
    }
}

/// A stream currently on a runner thread.
struct Running {
    /// Monotonic per-spawn generation; pairs this entry with the `Done`
    /// event of exactly the runner it describes.
    gen: u64,
    token: CancelToken,
    beats: Arc<AtomicU64>,
    last_beat: u64,
    last_progress: Instant,
    /// Quarantined streams no longer hold an execution slot.
    quarantined: bool,
    /// Terminal state to apply when the runner drains, decided by a
    /// cancel/evict/shutdown that raced the run.
    override_state: Option<StreamState>,
    handle: JoinHandle<()>,
}

/// The campaign supervisor: accepts streams, runs up to
/// `max_running` concurrently, watches them for stalls, and survives
/// both its own crash (spool checkpoints + resubmission resume) and
/// its storage's misbehaviour (typed disk-full eviction, bounded
/// retries, torn-snapshot self-heal).
pub struct Supervisor {
    shared: Arc<Shared>,
    tx: SyncSender<Event>,
    loop_handle: Option<JoinHandle<()>>,
    capacity: usize,
}

impl Supervisor {
    /// Starts the event loop.
    ///
    /// Errors with [`EngineError::InvalidConfig`] if
    /// `MAXNVM_WATCHDOG_SECS` or `MAXNVM_CHECKPOINT_RETRIES` is set but
    /// malformed (the same boundary-validation contract as
    /// `MAXNVM_THREADS`/`MAXNVM_FORCE_SCALAR`), and with
    /// [`EngineError::CheckpointIo`] if the spool directory cannot be
    /// created.
    pub fn start(config: SupervisorConfig) -> Result<Self, EngineError> {
        crate::config::env_watchdog_secs()?;
        maxnvm_faultsim::checkpoint::env_checkpoint_retries()?;
        std::fs::create_dir_all(&config.spool_dir).map_err(|e| EngineError::CheckpointIo {
            path: config.spool_dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let shared = Arc::new(Shared {
            table: Mutex::new(BTreeMap::new()),
            cond: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        // Channel capacity = in-flight bound: even a storm of submits
        // racing the admission check degrades to typed QueueFull.
        let (tx, rx) = sync_channel::<Event>(config.max_inflight.max(1));
        let capacity = config.max_inflight;
        let loop_shared = Arc::clone(&shared);
        let loop_tx = tx.clone();
        let loop_handle = std::thread::Builder::new()
            .name("maxnvm-supervisor".to_string())
            .spawn(move || event_loop(config, loop_shared, loop_tx, rx))
            .map_err(|e| EngineError::Internal {
                detail: format!("failed to spawn supervisor thread: {e}"),
            })?;
        Ok(Self {
            shared,
            tx,
            loop_handle: Some(loop_handle),
            capacity,
        })
    }

    /// Submits a stream. Admission is checked synchronously: an invalid
    /// id, a duplicate *active* id, a full supervisor, or one shutting
    /// down is a typed [`Rejected`] — the job is returned to the caller
    /// untouched in spirit (nothing was queued).
    ///
    /// Resubmitting a *terminal* stream id is allowed and is the resume
    /// path: the fresh run picks up the stream's spool checkpoint (if
    /// one survived) and completes byte-identically to an uninterrupted
    /// run. A quarantined id resubmitted while its stalled runner is
    /// still draining is accepted but deferred — the fresh run starts
    /// only once the old runner exits, so two runners never share one
    /// spool file.
    pub fn submit(&self, id: impl Into<String>, job: CampaignJob) -> Result<StreamId, Rejected> {
        let id = StreamId::new(id)?;
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(Rejected::ShuttingDown);
        }
        let prev = {
            let mut table = self.shared.table.lock();
            let active = table.values().filter(|s| s.state.is_active()).count();
            if active >= self.capacity {
                return Err(Rejected::QueueFull {
                    capacity: self.capacity,
                });
            }
            if table.get(&id).is_some_and(|s| s.state.is_active()) {
                return Err(Rejected::DuplicateStream {
                    id: id.as_str().to_string(),
                });
            }
            table.insert(id.clone(), StreamStatus::submitted())
        };
        match self.tx.try_send(Event::Submit {
            id: id.clone(),
            job,
        }) {
            Ok(()) => Ok(id),
            Err(e) => {
                // Roll the reservation back. A first submission never
                // existed; a failed *re*submission must restore the
                // prior terminal status — the client may still query
                // the finished stream — not erase it.
                {
                    let mut table = self.shared.table.lock();
                    match prev {
                        Some(prior) => {
                            table.insert(id.clone(), prior);
                        }
                        None => {
                            table.remove(&id);
                        }
                    }
                }
                self.shared.cond.notify_all();
                match e {
                    TrySendError::Full(_) => Err(Rejected::QueueFull {
                        capacity: self.capacity,
                    }),
                    TrySendError::Disconnected(_) => Err(Rejected::ShuttingDown),
                }
            }
        }
    }

    /// Requests cooperative cancellation of a queued or running stream.
    /// Returns `false` for unknown/terminal streams (nothing to do).
    pub fn cancel(&self, id: &StreamId) -> bool {
        self.signal(id, Event::Cancel { id: id.clone() })
    }

    /// Evicts a queued or running stream: it stops (cooperatively) and
    /// its spool checkpoint is *kept*, so resubmitting later resumes
    /// it. Returns `false` for unknown/terminal streams.
    pub fn evict(&self, id: &StreamId) -> bool {
        self.signal(id, Event::Evict { id: id.clone() })
    }

    fn signal(&self, id: &StreamId, event: Event) -> bool {
        let live = self
            .shared
            .table
            .lock()
            .get(id)
            .is_some_and(|s| s.state.is_active());
        if !live {
            return false;
        }
        self.tx.send(event).is_ok()
    }

    /// The stream's current status, if the supervisor knows the id.
    pub fn status(&self, id: &StreamId) -> Option<StreamStatus> {
        self.shared.table.lock().get(id).cloned()
    }

    /// Blocks until the stream reaches a terminal state and returns its
    /// final status (`None` for ids never submitted).
    pub fn wait(&self, id: &StreamId) -> Option<StreamStatus> {
        let mut table = self.shared.table.lock();
        loop {
            match table.get(id) {
                None => return None,
                Some(s) if s.state.is_terminal() => return Some(s.clone()),
                Some(_) => self.shared.cond.wait(&mut table),
            }
        }
    }

    /// Stops accepting work, cancels running streams, evicts queued
    /// ones (their spool checkpoints survive for resumption), drains
    /// the loop, and returns the final status table.
    pub fn shutdown(mut self) -> BTreeMap<StreamId, StreamStatus> {
        self.shutdown_impl();
        self.shared.table.lock().clone()
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        if let Some(handle) = self.loop_handle.take() {
            let _ = self.tx.send(Event::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Ids of the spool checkpoints under `dir` — the streams a restarted
/// service can resume by resubmitting their jobs.
pub fn spooled_streams(dir: &Path) -> Result<Vec<String>, EngineError> {
    let io = |e: std::io::Error| EngineError::CheckpointIo {
        path: dir.display().to_string(),
        detail: e.to_string(),
    };
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("ckpt") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                ids.push(stem.to_string());
            }
        }
    }
    ids.sort();
    Ok(ids)
}

/// One stream's execution, entirely on the runner thread: wrap the
/// evaluator with the heartbeat, spool checkpoints through the
/// configured store, and self-heal a corrupt/foreign spool snapshot by
/// discarding it and rerunning from scratch (byte-identical by D1 —
/// the snapshot only ever caches prefixes of the same deterministic
/// trial sequence).
fn run_stream(
    job: &CampaignJob,
    spool: &PathBuf,
    config: &SupervisorConfig,
    token: CancelToken,
    beats: Arc<AtomicU64>,
) -> Result<CampaignResult, EngineError> {
    // Both the evaluator and the checkpoint store feed the same
    // liveness counter: a stream deep in retry backoff (or loading a
    // large snapshot at resume) is making progress, not stalling.
    let store: Arc<dyn CheckpointStore> = Arc::new(HeartbeatStore {
        inner: Arc::clone(&config.store),
        beats: Arc::clone(&beats),
    });
    let eval = HeartbeatEval {
        inner: Arc::clone(&job.eval),
        beats,
    };
    let control = RunControl {
        cancel: token,
        checkpoint: Some(
            CheckpointConfig::new(spool)
                .every(config.checkpoint_every)
                .with_store(Arc::clone(&store))
                .with_retry(config.retry.clone()),
        ),
        ..RunControl::default()
    };
    let run = || {
        job.campaign
            .run_controlled(&job.stored, job.tech, &job.sa, &eval, &control)
    };
    match run() {
        Err(EngineError::CheckpointParse { .. }) | Err(EngineError::CheckpointMismatch { .. }) => {
            // The spool file is torn or belongs to a different
            // configuration of this stream id. It cannot help and can
            // only block the stream: discard and run clean.
            store.remove(spool)?;
            run()
        }
        other => other,
    }
}

fn event_loop(
    config: SupervisorConfig,
    shared: Arc<Shared>,
    tx: SyncSender<Event>,
    rx: Receiver<Event>,
) {
    let mut queue: VecDeque<(StreamId, CampaignJob)> = VecDeque::new();
    let mut running: BTreeMap<StreamId, Running> = BTreeMap::new();
    let mut next_gen: u64 = 0;
    let mut shutting_down = false;
    let mut shutdown_deadline: Option<Instant> = None;
    loop {
        match rx.recv_timeout(config.tick) {
            Ok(Event::Submit { id, job }) => {
                if shutting_down {
                    shared.set(&id, |s| s.state = StreamState::Evicted);
                } else {
                    queue.push_back((id, job));
                }
            }
            Ok(Event::Cancel { id }) => {
                if let Some(pos) = queue.iter().position(|(q, _)| *q == id) {
                    queue.remove(pos);
                    shared.set(&id, |s| s.state = StreamState::Cancelled);
                } else if let Some(r) = running.get_mut(&id) {
                    r.token.cancel();
                    if !r.quarantined && r.override_state.is_none() {
                        r.override_state = Some(StreamState::Cancelled);
                    }
                }
            }
            Ok(Event::Evict { id }) => {
                if let Some(pos) = queue.iter().position(|(q, _)| *q == id) {
                    queue.remove(pos);
                    shared.set(&id, |s| s.state = StreamState::Evicted);
                } else if let Some(r) = running.get_mut(&id) {
                    r.token.cancel();
                    if !r.quarantined {
                        r.override_state = Some(StreamState::Evicted);
                    }
                }
            }
            Ok(Event::Done { id, gen, outcome }) => {
                if let Some(r) = running.remove(&id) {
                    if r.gen != gen {
                        // A Done from a superseded runner generation.
                        // `start_queued` defers restarting an id whose
                        // old runner has not drained, so this is pure
                        // defense in depth: put the live entry back and
                        // drop the stale outcome.
                        running.insert(id, r);
                    } else if r.quarantined {
                        // The quarantine decision was published as the
                        // terminal state when the watchdog fired; it is
                        // never rewritten — even for an error drain.
                        // Attach the drained partial outcome only while
                        // the table entry still belongs to this run: a
                        // resubmission of the terminal id replaces the
                        // entry, and this stale outcome must not
                        // clobber the new run's status.
                        shared.set(&id, |s| {
                            if s.state == StreamState::Quarantined {
                                match outcome {
                                    Ok(result) => s.result = Some(result),
                                    Err(e) => s.error = Some(e),
                                }
                            }
                        });
                        // The runner sent Done as its last act; join is
                        // immediate (or the thread is in its epilogue).
                        // maxnvm-lint: allow(C1/thread-join): the runner sent Done as its last act, so this join reaps a thread already past its final send; it cannot stall the loop.
                        let _ = r.handle.join();
                    } else {
                        let state = terminal_state(&r, &outcome);
                        shared.set(&id, |s| {
                            s.state = state;
                            match outcome {
                                Ok(result) => s.result = Some(result),
                                Err(e) => s.error = Some(e),
                            }
                        });
                        // maxnvm-lint: allow(C1/thread-join): the runner sent Done as its last act, so this join reaps a thread already past its final send; it cannot stall the loop.
                        let _ = r.handle.join();
                    }
                }
            }
            Ok(Event::Shutdown) => {
                shutting_down = true;
                shutdown_deadline = Some(Instant::now() + config.shutdown_grace);
                for (id, _) in queue.drain(..) {
                    shared.set(&id, |s| s.state = StreamState::Evicted);
                }
                for r in running.values_mut() {
                    r.token.cancel();
                    if !r.quarantined && r.override_state.is_none() {
                        r.override_state = Some(StreamState::Evicted);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Unreachable while the loop runs — it holds a sender clone
            // itself (`tx`, also cloned into every runner) — but kept
            // as a defensive exit rather than a busy branch if that
            // ever changes. A dropped API handle without an explicit
            // shutdown is covered by `Supervisor`'s `Drop`.
            Err(RecvTimeoutError::Disconnected) => break,
        }
        watchdog_scan(&config, &shared, &mut running);
        if !shutting_down {
            start_queued(
                &config,
                &shared,
                &tx,
                &mut queue,
                &mut running,
                &mut next_gen,
            );
        }
        if shutting_down {
            if running.is_empty() {
                break;
            }
            if let Some(deadline) = shutdown_deadline {
                if Instant::now() >= deadline {
                    // Whatever is left is stalled past quarantine and
                    // past the grace period: detach, report, leave.
                    for (id, r) in std::mem::take(&mut running) {
                        let state = if r.quarantined {
                            StreamState::Quarantined
                        } else {
                            StreamState::Evicted
                        };
                        shared.set(&id, |s| s.state = state);
                        drop(r.handle);
                    }
                    break;
                }
            }
        }
    }
}

/// The terminal state for a drained runner: an explicit
/// quarantine/cancel/evict decision wins over the natural outcome —
/// including error outcomes, so a state a client may already have
/// observed as terminal (quarantine publishes immediately) is never
/// rewritten; absent a decision, disk-full is an eviction (the
/// previous snapshot is still resumable) and any other engine error is
/// a failure.
fn terminal_state(r: &Running, outcome: &Result<CampaignResult, EngineError>) -> StreamState {
    if r.quarantined {
        return StreamState::Quarantined;
    }
    if let Some(state) = r.override_state {
        return state;
    }
    match outcome {
        Ok(result) if result.cancelled => StreamState::Cancelled,
        Ok(_) => StreamState::Done,
        Err(EngineError::CheckpointDiskFull { .. }) => StreamState::Evicted,
        Err(_) => StreamState::Failed,
    }
}

/// Fires the watchdog for any running stream that has made no progress
/// — neither an evaluator call nor a checkpoint-store I/O attempt —
/// within the deadline: cancel its token, mark it quarantined
/// (terminal for clients; the stalled thread drains cooperatively),
/// and free its execution slot immediately. The clock starts at spawn,
/// so the deadline must also cover a stream's pre-first-eval setup
/// (snapshot parse, fault-map build).
fn watchdog_scan(
    config: &SupervisorConfig,
    shared: &Shared,
    running: &mut BTreeMap<StreamId, Running>,
) {
    let now = Instant::now();
    for (id, r) in running.iter_mut() {
        if r.quarantined {
            continue;
        }
        let beats = r.beats.load(Ordering::Relaxed);
        if beats != r.last_beat {
            r.last_beat = beats;
            r.last_progress = now;
        } else if now.duration_since(r.last_progress) >= config.watchdog {
            r.token.cancel();
            r.quarantined = true;
            shared.set(id, |s| s.state = StreamState::Quarantined);
        }
    }
}

/// Starts queued streams while execution slots are free (quarantined
/// streams no longer count against the slots).
///
/// A queued id whose previous runner is still draining (a quarantined
/// stream that was resubmitted before its stalled thread exited) is
/// *deferred*, not started: two runners must never share one spool
/// file, and the old runner's `Done` must never be mistakable for the
/// new one's. The deferred stream starts on a later pass, once the old
/// runner's `Done` retires its `running` entry; later queued streams
/// are not blocked behind it.
fn start_queued(
    config: &SupervisorConfig,
    shared: &Shared,
    tx: &SyncSender<Event>,
    queue: &mut VecDeque<(StreamId, CampaignJob)>,
    running: &mut BTreeMap<StreamId, Running>,
    next_gen: &mut u64,
) {
    loop {
        let active = running.values().filter(|r| !r.quarantined).count();
        if active >= config.max_running.max(1) {
            return;
        }
        let Some(pos) = queue.iter().position(|(id, _)| !running.contains_key(id)) else {
            return;
        };
        let Some((id, job)) = queue.remove(pos) else {
            return;
        };
        let gen = *next_gen;
        *next_gen = next_gen.wrapping_add(1);
        let token = CancelToken::new();
        let beats = Arc::new(AtomicU64::new(0));
        let spool = id.spool_path(&config.spool_dir);
        let runner_token = token.clone();
        let runner_beats = Arc::clone(&beats);
        let runner_tx = tx.clone();
        let runner_id = id.clone();
        let runner_config = config.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("maxnvm-stream-{id}"))
            .spawn(move || {
                let outcome = run_stream(&job, &spool, &runner_config, runner_token, runner_beats);
                // If the loop is already gone (post-grace shutdown),
                // the result is simply dropped — the stream was
                // reported evicted/quarantined.
                let _ = runner_tx.send(Event::Done {
                    id: runner_id,
                    gen,
                    outcome,
                });
            });
        match spawned {
            Ok(handle) => {
                shared.set(&id, |s| s.state = StreamState::Running);
                running.insert(
                    id,
                    Running {
                        gen,
                        token,
                        beats,
                        last_beat: 0,
                        last_progress: Instant::now(),
                        quarantined: false,
                        override_state: None,
                        handle,
                    },
                );
            }
            Err(e) => {
                shared.set(&id, |s| {
                    s.state = StreamState::Failed;
                    s.error = Some(EngineError::Internal {
                        detail: format!("failed to spawn runner thread: {e}"),
                    });
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Rejected;
    use maxnvm_envm::{CellTechnology, SenseAmp};
    use maxnvm_faultsim::Campaign;

    /// A do-nothing evaluator; these tests never run a stream.
    #[derive(Debug)]
    struct NullEval;

    impl AccuracyEval for NullEval {
        fn baseline_error(&self) -> f64 {
            0.0
        }

        fn eval(&self, _mats: &[LayerMatrix]) -> f64 {
            0.0
        }

        fn eval_deltas_sparse(
            &self,
            _key: u64,
            _clean: &SparseModel,
            _deltas: &[Vec<WeightDelta>],
            _scratch: &mut EvalScratch,
        ) -> f64 {
            0.0
        }
    }

    fn null_job() -> CampaignJob {
        CampaignJob {
            campaign: Campaign {
                trials: 1,
                seed: 0,
                rate_scale: 1.0,
            },
            stored: Vec::new(),
            tech: CellTechnology::MlcCtt,
            sa: SenseAmp::paper_default(),
            eval: Arc::new(NullEval),
        }
    }

    /// A supervisor with no event loop and an already-full channel, so
    /// `try_send` fails deterministically. The receiver is returned so
    /// the failure is `Full`, not `Disconnected`.
    fn full_channel_supervisor() -> (Supervisor, Receiver<Event>) {
        let (tx, rx) = sync_channel::<Event>(1);
        tx.try_send(Event::Shutdown).expect("fill the only slot");
        let sup = Supervisor {
            shared: Arc::new(Shared {
                table: Mutex::new(BTreeMap::new()),
                cond: Condvar::new(),
                shutting_down: AtomicBool::new(false),
            }),
            tx,
            loop_handle: None,
            capacity: 4,
        };
        (sup, rx)
    }

    #[test]
    fn failed_enqueue_restores_the_prior_terminal_status() {
        let (sup, _rx) = full_channel_supervisor();
        let id = StreamId::new("finished").expect("valid id");
        let prior = StreamStatus {
            state: StreamState::Failed,
            result: None,
            error: Some(EngineError::Internal {
                detail: "previous run's terminal error".to_string(),
            }),
        };
        sup.shared.table.lock().insert(id.clone(), prior.clone());
        // Admission passes (the id is terminal, capacity is free), but
        // the enqueue fails: the prior terminal status must survive the
        // rollback, not be erased.
        let err = sup
            .submit("finished", null_job())
            .expect_err("full channel");
        assert_eq!(err, Rejected::QueueFull { capacity: 4 });
        assert_eq!(sup.status(&id), Some(prior));
    }

    #[test]
    fn failed_enqueue_of_a_new_stream_leaves_no_trace() {
        let (sup, _rx) = full_channel_supervisor();
        let err = sup.submit("fresh", null_job()).expect_err("full channel");
        assert_eq!(err, Rejected::QueueFull { capacity: 4 });
        let id = StreamId::new("fresh").expect("valid id");
        assert_eq!(sup.status(&id), None);
    }
}
