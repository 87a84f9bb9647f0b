//! Persistent worker pool: spawn threads once, run many jobs.
//!
//! [`run_collaborative`](crate::run_collaborative) spawns and joins
//! `num_threads` OS threads for every propagation. That is fine for a
//! one-off calibration but dominates latency when a service answers a
//! stream of queries over one compiled junction tree. [`CollabPool`]
//! keeps the workers alive between jobs: they park on a condvar, a job
//! submission bumps an epoch and wakes them, and the submitter blocks
//! until every worker has checked back in — the compile-once,
//! serve-many half of the scheduler.
//!
//! # Safety model
//!
//! [`CollabPool::run`] borrows a [`Shared`] job descriptor on its own
//! stack and hands workers a lifetime-erased pointer to it (a `usize`
//! in the job slot). This is the classic scoped-thread pattern routed
//! through a pool instead of `std::thread::scope`:
//!
//! * `run` does not return until every worker has decremented the
//!   job's `active` count under the slot mutex, so the `Shared` (and
//!   the `&TaskGraph`/`&TableArena`/`&SchedulerConfig` inside it)
//!   strictly outlives all worker access.
//! * Workers read the pointer only between observing the new epoch and
//!   decrementing `active`, both under the same mutex, so the
//!   mutex/condvar handshake carries the happens-before edges in both
//!   directions (job visible to workers; results visible to the
//!   submitter).
//! * An internal submission lock serializes concurrent `run` calls, so
//!   at most one job's pointer is ever live in the slot.
//!
//! # Panic containment
//!
//! A panic inside a worker job (a bug in a primitive, an OOM in a
//! partial-table allocation, injected poison in tests) must not hang
//! the submitter or kill the pool: the worker loop catches the unwind,
//! marks the job aborted so sibling workers stop waiting for tasks that
//! will never complete, and checks back in; `run` then returns the
//! panic as a [`JobPanic`] error instead of blocking forever. The pool
//! itself stays usable — the next job starts from a fresh job
//! descriptor — though the *arena* of the failed job is left in an
//! unspecified intermediate state and must be re-initialized (or
//! discarded) by the caller before reuse.
//!
//! # Supervision
//!
//! `catch_unwind` cannot save a worker whose thread genuinely dies —
//! a panic *outside* the job guard (injected by the chaos harness, or
//! a defect in the loop itself) exits the thread without decrementing
//! `active`, which would hang the submitter forever. The pool
//! therefore supervises its own threads: the completion handshake
//! waits in bounded slices and, on each timeout, reaps finished
//! (dead) worker handles — joining them, respawning a replacement
//! parked past the in-flight job, settling the missing `active`
//! decrements, and failing only that job with a [`JobPanic`]. A
//! pre-submission sweep does the same between jobs. Sibling shards
//! (other pools) are untouched, and [`CollabPool::restarts`] counts
//! every respawn for the serving stats.

use crate::collab::{worker, JobScratch, Shared};
use crate::{CancelToken, RunReport, SchedulerConfig, TableArena, ThreadStats};
use evprop_taskgraph::TaskGraph;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the completion handshake waits between checks for dead
/// worker threads. Long enough that healthy jobs (microseconds to
/// milliseconds) never pay for a sweep; short enough that a killed
/// worker is reaped and its job failed promptly.
const REAP_INTERVAL: Duration = Duration::from_millis(25);

/// A worker thread panicked while executing a pool job. Carries the
/// panic payload's message when it was a string (the common case).
#[derive(Clone, Debug)]
pub struct JobPanic {
    message: String,
}

impl JobPanic {
    /// The panic payload's message, if one could be extracted.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker thread panicked during the job: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Why a pool job did not produce a result.
#[derive(Clone, Debug)]
pub enum JobError {
    /// A worker panicked (or its thread died) mid-job; the pool reaped
    /// and respawned any dead threads and remains usable.
    Panicked(JobPanic),
    /// The job's [`CancelToken`] fired before the job drained; the
    /// workers stopped at task boundaries and no result was produced.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(p) => p.fmt(f),
            JobError::Cancelled => write!(f, "job cancelled before completion"),
        }
    }
}

impl std::error::Error for JobError {}

/// The job slot workers and submitter rendezvous over.
struct Slot {
    /// Bumped once per submitted job; workers use it to detect fresh
    /// work after spurious wakeups.
    epoch: u64,
    /// Lifetime-erased `*const Shared<'_>` of the current job, if one
    /// is running.
    job: Option<usize>,
    /// Workers still executing the current job.
    active: usize,
    /// Per-worker statistics for the current job.
    results: Vec<ThreadStats>,
    /// Message of the first worker panic in the current job, if any.
    panic: Option<String>,
    shutdown: bool,
}

struct Inner {
    slot: Mutex<Slot>,
    /// Workers wait here for the next epoch.
    job_cv: Condvar,
    /// The submitter waits here for `active == 0`.
    done_cv: Condvar,
    /// Pending injected worker deaths: each picked-up job decrements
    /// this and, when it wins a decrement, kills its thread *outside*
    /// the panic guard — exercising the reap/respawn path, not
    /// `catch_unwind`. Test/bench fault injection; zero in production.
    kill: AtomicUsize,
    /// Dead worker threads reaped and respawned over the pool's life.
    restarts: AtomicU64,
}

/// A persistent pool of collaborative-scheduler workers.
///
/// Construct once, then call [`run`](Self::run) per propagation; the
/// pool's thread count (not `cfg.num_threads`) decides the worker
/// count of every job. Dropping the pool shuts the workers down and
/// joins them.
///
/// ```
/// use evprop_bayesnet::networks;
/// use evprop_jtree::JunctionTree;
/// use evprop_potential::EvidenceSet;
/// use evprop_sched::{CollabPool, SchedulerConfig, TableArena};
/// use evprop_taskgraph::TaskGraph;
///
/// let jt = JunctionTree::from_network(&networks::asia()).unwrap();
/// let graph = TaskGraph::from_shape(jt.shape());
/// let pool = CollabPool::new(2);
/// let cfg = SchedulerConfig::with_threads(2);
/// for _ in 0..3 {
///     let arena = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());
///     let report = pool.run(&graph, &arena, &cfg).expect("no worker panicked");
///     assert_eq!(report.threads.len(), 2);
/// }
/// ```
pub struct CollabPool {
    inner: Arc<Inner>,
    /// Serializes `run` calls: only one job may occupy the slot. The
    /// lock's holder also holds the scheduler scratch (dependency
    /// counters, one-worker ready ring) every job reuses.
    submit: Mutex<JobScratch>,
    /// Sink attached to every subsequent job (worker rows + job spans
    /// on the control row).
    trace: Mutex<Option<Arc<evprop_trace::TraceSink>>>,
    /// Worker handles, index = worker id. Behind a lock so the
    /// supervisor can swap a dead thread's handle for its replacement.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Cached `handles.len()` so `num_threads` stays lock-free.
    threads: usize,
}

impl CollabPool {
    /// Spawns `num_threads` (at least 1) parked workers.
    pub fn new(num_threads: usize) -> Self {
        let p = num_threads.max(1);
        let inner = Arc::new(Inner {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                active: 0,
                results: vec![ThreadStats::default(); p],
                panic: None,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            kill: AtomicUsize::new(0),
            restarts: AtomicU64::new(0),
        });
        let handles = (0..p)
            .map(|id| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("evprop-worker-{id}"))
                    .spawn(move || worker_loop(&inner, id, 0))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        CollabPool {
            inner,
            submit: Mutex::new(JobScratch::default()),
            trace: Mutex::new(None),
            handles: Mutex::new(handles),
            threads: p,
        }
    }

    /// Number of worker threads (every job runs on exactly this many).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Dead worker threads the supervisor has reaped and respawned over
    /// the pool's lifetime.
    pub fn restarts(&self) -> u64 {
        self.inner.restarts.load(Ordering::Relaxed)
    }

    /// Fault injection for tests and the robustness harness: the next
    /// `n` job pickups each kill their worker thread *outside* the
    /// job's panic guard (a genuine thread death, recovered by the
    /// supervisor — not by `catch_unwind`). Hidden because it is not
    /// part of the stable API.
    #[doc(hidden)]
    pub fn inject_worker_deaths(&self, n: usize) {
        self.inner.kill.fetch_add(n, Ordering::AcqRel);
    }

    /// Joins and respawns every worker thread that has died, returning
    /// how many were reaped. Replacements park with `start_epoch` set
    /// to the current epoch so they never join the job that was in
    /// flight (or just finished) when their predecessor died — the
    /// submitter has already settled that job's accounting.
    fn reap_dead(&self, start_epoch: u64) -> usize {
        let mut handles = self.handles.lock();
        let mut dead = 0;
        for (id, handle) in handles.iter_mut().enumerate() {
            if !handle.is_finished() {
                continue;
            }
            let inner = Arc::clone(&self.inner);
            let fresh = std::thread::Builder::new()
                .name(format!("evprop-worker-{id}"))
                .spawn(move || worker_loop(&inner, id, start_epoch))
                .expect("failed to respawn pool worker");
            let old = std::mem::replace(handle, fresh);
            let _ = old.join(); // finished; the Err payload is the death cause
            dead += 1;
            self.inner.restarts.fetch_add(1, Ordering::Relaxed);
        }
        dead
    }

    /// Attaches (or with `None`, detaches) a span sink recorded into by
    /// every subsequent job: worker `id` writes scheduler events to row
    /// `id`, and each job's overall span lands on the sink's control
    /// row. Size the sink with
    /// [`TraceSink::for_workers`](evprop_trace::TraceSink::for_workers)`(num_threads(), …)`;
    /// worker rows beyond the sink record nothing.
    ///
    /// Takes effect from the next job (jobs already running keep the
    /// sink they started with).
    pub fn set_trace_sink(&self, sink: Option<Arc<evprop_trace::TraceSink>>) {
        *self.trace.lock() = sink;
    }

    /// Runs one propagation job on the resident workers and blocks
    /// until it completes. Semantics match
    /// [`run_collaborative`](crate::run_collaborative), except the
    /// worker count is the pool's, and `report.wall` excludes thread
    /// spawn (there is none).
    ///
    /// Concurrent calls from different threads are serialized
    /// internally; jobs never interleave.
    ///
    /// # Errors
    ///
    /// [`JobPanic`] when a worker panicked mid-job. The pool remains
    /// usable for subsequent jobs, but the arena's buffers are in an
    /// unspecified intermediate state — re-initialize or discard it.
    ///
    /// # Panics
    ///
    /// Panics if the graph and arena disagree on buffer count.
    pub fn run(
        &self,
        graph: &TaskGraph,
        arena: &TableArena,
        cfg: &SchedulerConfig,
    ) -> Result<RunReport, JobPanic> {
        let submission = self.submit.lock();
        self.run_locked(submission, graph, arena, cfg, None)
            .map_err(|e| match e {
                JobError::Panicked(p) => p,
                JobError::Cancelled => unreachable!("no cancel token was attached"),
            })
    }

    /// Like [`CollabPool::run`], but the job can be stopped early by
    /// `cancel`: workers check the token at task boundaries and bail,
    /// and the call returns [`JobError::Cancelled`] with no result. If
    /// the job drains before any worker observes the fired token, the
    /// run succeeds and the arena holds the same bits an uncancelled
    /// run would have produced. After a cancelled run the arena is in
    /// an unspecified intermediate state — re-initialize before reuse.
    pub fn run_cancellable(
        &self,
        graph: &TaskGraph,
        arena: &TableArena,
        cfg: &SchedulerConfig,
        cancel: &CancelToken,
    ) -> Result<RunReport, JobError> {
        let submission = self.submit.lock();
        self.run_locked(submission, graph, arena, cfg, Some(cancel))
    }

    fn run_locked(
        &self,
        mut submission: MutexGuard<'_, JobScratch>,
        graph: &TaskGraph,
        arena: &TableArena,
        cfg: &SchedulerConfig,
        cancel: Option<&CancelToken>,
    ) -> Result<RunReport, JobError> {
        let p = self.num_threads();
        let mut report = RunReport {
            threads: vec![ThreadStats::default(); p],
            ..Default::default()
        };
        assert_eq!(
            graph.buffers().len(),
            arena.len(),
            "arena was not initialized for this graph"
        );
        if graph.num_tasks() == 0 {
            return Ok(report);
        }

        // Pre-submission sweep: a worker that died between jobs (or
        // whose death the last reap raced) is respawned before this job
        // sets `active`, so the handshake never waits on a ghost.
        {
            let epoch = self.inner.slot.lock().epoch;
            self.reap_dead(epoch);
        }

        // SAFETY: the submission lock makes this job the arena's only
        // user until we return — no other job can derive a view or
        // touch the buffers — and the completion handshake below joins
        // every worker access before we drop `shared`.
        let mut shared = unsafe { Shared::prepare(graph, arena, cfg, p, &mut submission) };
        shared.set_cancel(cancel.cloned());
        shared.set_trace(self.trace.lock().clone());
        let shared = shared;

        let wall_start = Instant::now();
        let panicked = {
            let mut slot = self.inner.slot.lock();
            slot.job = Some(&shared as *const Shared<'_> as usize);
            slot.active = p;
            slot.panic = None;
            slot.epoch += 1;
            self.inner.job_cv.notify_all();
            while slot.active > 0 {
                if self.inner.done_cv.wait_for(&mut slot, REAP_INTERVAL) {
                    // Timed out: any worker that died mid-job exited
                    // without decrementing `active`. Reap and respawn
                    // the dead (replacements park past this epoch),
                    // settle their missing decrements, and fail the job
                    // — its bookkeeping is unrecoverable.
                    let dead = self.reap_dead(slot.epoch);
                    if dead > 0 {
                        slot.active = slot.active.saturating_sub(dead);
                        if slot.panic.is_none() {
                            slot.panic = Some(format!(
                                "{dead} worker thread(s) died mid-job \
                                 (reaped and respawned)"
                            ));
                        }
                        // Live siblings stop waiting for tasks the dead
                        // worker will never complete.
                        shared.abort();
                    }
                }
            }
            slot.job = None;
            report.threads.clone_from_slice(&slot.results);
            slot.panic.take()
        };
        report.wall = wall_start.elapsed();
        shared.trace_job_span(wall_start, graph.num_tasks());
        if let Some(message) = panicked {
            // The aborted job left tasks in ready lists and nonzero
            // weight counters; `shared` (and all of them) drops here, so
            // nothing leaks into the next job.
            return Err(JobError::Panicked(JobPanic { message }));
        }
        if shared.tasks_remaining() > 0 {
            // No panic, tasks left behind: the cancel token fired and
            // the workers bailed at their next boundary. The ready
            // lists drop with `shared`; nothing leaks into the next
            // job. (`assert_drained` is deliberately skipped — a
            // cancelled job legitimately leaves entries behind.)
            return Err(JobError::Cancelled);
        }
        // Catch scheduler bookkeeping leaks (lost tasks, weight-counter
        // drift) at the end of every job while testing.
        #[cfg(debug_assertions)]
        shared.assert_drained();
        shared.finish_into(&mut report);
        Ok(report)
    }
}

impl std::fmt::Debug for CollabPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollabPool")
            .field("num_threads", &self.num_threads())
            .finish_non_exhaustive()
    }
}

impl Drop for CollabPool {
    fn drop(&mut self) {
        {
            let mut slot = self.inner.slot.lock();
            slot.shutdown = true;
            self.inner.job_cv.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = self.handles.get_mut().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// What a resident worker does for its whole life: park, wake on a new
/// epoch, run the job, report back, park again. A respawned
/// replacement starts with `start_epoch` at the epoch that was current
/// when its predecessor died, so it skips that (already-settled) job.
fn worker_loop(inner: &Inner, id: usize, start_epoch: u64) {
    let mut seen_epoch = start_epoch;
    loop {
        let job = {
            let mut slot = inner.slot.lock();
            while !slot.shutdown && slot.epoch == seen_epoch {
                inner.job_cv.wait(&mut slot);
            }
            if slot.shutdown {
                return;
            }
            seen_epoch = slot.epoch;
            slot.job.expect("a fresh epoch always carries a job")
        };

        // Injected worker death: panic *outside* the catch_unwind below,
        // so the thread genuinely dies without checking back in — only
        // the supervisor's reap path can recover. The message is never
        // observed (the reaper writes its own); dying is the point.
        if inner
            .kill
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |k| k.checked_sub(1))
            .is_ok()
        {
            panic!("injected worker death: thread {id} killed outside the job guard");
        }
        #[cfg(feature = "chaos")]
        if crate::chaos::should_kill_worker() {
            panic!("chaos: worker {id} killed outside the job guard");
        }

        // SAFETY: `run` blocks until this worker decrements `active`
        // below, so the `Shared` behind the pointer is alive for the
        // whole dereference; the slot mutex ordered its construction
        // before our read. The erased lifetime never escapes this
        // scope.
        let sh = unsafe { &*(job as *const Shared<'_>) };
        // Contain panics from inside the job: letting one unwind through
        // this loop would kill the thread *without* decrementing
        // `active`, hanging the submitter forever. Unwinding drops every
        // live window (unregistering it from the debug overlap checker)
        // before the catch.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(sh, id)));
        if result.is_err() {
            // Sibling workers must stop waiting for tasks the panicked
            // one will never complete.
            sh.abort();
        }

        let mut slot = inner.slot.lock();
        match result {
            Ok(stats) => slot.results[id] = stats,
            Err(payload) => {
                slot.results[id] = ThreadStats::default();
                if slot.panic.is_none() {
                    slot.panic = Some(panic_message(payload.as_ref()));
                }
            }
        }
        slot.active -= 1;
        if slot.active == 0 {
            inner.done_cv.notify_all();
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_bayesnet::networks;
    use evprop_jtree::JunctionTree;
    use evprop_potential::EvidenceSet;

    fn asia_graph() -> (TaskGraph, Vec<evprop_potential::PotentialTable>) {
        let jt = JunctionTree::from_network(&networks::asia()).unwrap();
        let g = TaskGraph::from_shape(jt.shape());
        (g, jt.potentials().to_vec())
    }

    #[test]
    fn pool_runs_many_jobs_on_same_workers() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(3);
        let cfg = SchedulerConfig::with_threads(3);
        let mut reference: Option<Vec<evprop_potential::PotentialTable>> = None;
        for _ in 0..5 {
            let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
            let report = pool.run(&g, &arena, &cfg).unwrap();
            assert_eq!(report.threads.len(), 3);
            let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
            assert!(executed >= g.num_tasks());
            let tables = arena.into_tables();
            match &reference {
                None => reference = Some(tables),
                Some(r) => {
                    for (a, b) in r.iter().zip(&tables) {
                        assert!(a.approx_eq(b, 1e-12));
                    }
                }
            }
        }
    }

    #[test]
    fn pool_thread_count_wins_over_cfg() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(2);
        // cfg asks for 8; the pool only has (and reports) 2.
        let cfg = SchedulerConfig::with_threads(8);
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let report = pool.run(&g, &arena, &cfg).unwrap();
        assert_eq!(report.threads.len(), 2);
    }

    #[test]
    fn pool_handles_empty_graph() {
        let d = evprop_potential::Domain::new(vec![evprop_potential::Variable::binary(
            evprop_potential::VarId(0),
        )])
        .unwrap();
        let shape = evprop_jtree::TreeShape::new(vec![d.clone()], &[], 0).unwrap();
        let jt = JunctionTree::from_parts(shape, vec![evprop_potential::PotentialTable::ones(d)])
            .unwrap();
        let g = TaskGraph::from_shape(jt.shape());
        let arena = TableArena::initialize(&g, jt.potentials(), &EvidenceSet::new());
        let pool = CollabPool::new(4);
        let report = pool
            .run(&g, &arena, &SchedulerConfig::with_threads(4))
            .unwrap();
        assert!(report.threads.iter().all(|t| t.tasks_executed == 0));
    }

    #[test]
    fn pool_is_shared_across_threads() {
        // &CollabPool is Sync: submissions from several threads serialize.
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(2);
        let cfg = SchedulerConfig::with_threads(2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
                    let report = pool.run(&g, &arena, &cfg).unwrap();
                    let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
                    assert!(executed >= g.num_tasks());
                });
            }
        });
    }

    #[test]
    fn drop_joins_workers() {
        let pool = CollabPool::new(2);
        drop(pool); // must not hang
    }

    /// A panic inside a worker job must surface as `Err` from `run` —
    /// not hang the submitter, not deadlock sibling workers — and the
    /// pool must stay fully usable for the next job. This is the
    /// robustness a long-running serving runtime leans on.
    #[test]
    fn poisoned_job_errors_instead_of_deadlocking() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(3);
        let mut cfg = SchedulerConfig::with_threads(3);
        cfg.poison_task = Some(0); // task 0 always exists and panics
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let err = pool
            .run(&g, &arena, &cfg)
            .expect_err("the poisoned task must fail the job");
        assert!(
            err.message().contains("injected poison"),
            "unexpected panic message: {err}"
        );

        // The pool survives: a clean job on the same workers succeeds
        // (with a *fresh* arena — the failed job's buffers are dirty).
        cfg.poison_task = None;
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let report = pool.run(&g, &arena, &cfg).expect("clean job succeeds");
        let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
        assert!(executed >= g.num_tasks());
    }

    /// A genuine worker-thread death (outside the job's panic guard) is
    /// the failure `catch_unwind` cannot contain: the supervisor must
    /// reap the dead thread, respawn it, fail only the in-flight job,
    /// and leave the pool serving.
    #[test]
    fn killed_worker_is_reaped_and_respawned() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(2);
        let cfg = SchedulerConfig::with_threads(2);
        pool.inject_worker_deaths(1);
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let err = pool
            .run(&g, &arena, &cfg)
            .expect_err("the killed worker must fail the job");
        assert!(err.message().contains("died mid-job"), "{err}");
        assert_eq!(pool.restarts(), 1);

        // The respawned complement serves the next job normally.
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let report = pool.run(&g, &arena, &cfg).expect("pool recovered");
        let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
        assert!(executed >= g.num_tasks());
        assert_eq!(pool.restarts(), 1, "no spurious respawns");
    }

    /// Repeated deaths, including on a single-thread pool (where the
    /// dead worker *was* the whole pool), never hang a submitter.
    #[test]
    fn pool_survives_repeated_worker_deaths() {
        let (g, pots) = asia_graph();
        for threads in [1, 2] {
            let pool = CollabPool::new(threads);
            let cfg = SchedulerConfig::with_threads(threads);
            for round in 0..3u64 {
                pool.inject_worker_deaths(1);
                let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
                assert!(pool.run(&g, &arena, &cfg).is_err(), "round {round}");
                let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
                assert!(pool.run(&g, &arena, &cfg).is_ok(), "round {round}");
            }
            assert_eq!(pool.restarts(), 3);
        }
    }

    /// A pre-fired token cancels the job deterministically; an unfired
    /// one changes nothing.
    #[test]
    fn cancelled_job_reports_cancelled_and_pool_survives() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(2);
        let cfg = SchedulerConfig::with_threads(2);
        let token = CancelToken::new();
        token.cancel();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        assert!(matches!(
            pool.run_cancellable(&g, &arena, &cfg, &token),
            Err(JobError::Cancelled)
        ));

        let token = CancelToken::new();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let report = pool
            .run_cancellable(&g, &arena, &cfg, &token)
            .expect("unfired token never cancels");
        let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
        assert!(executed >= g.num_tasks());
    }

    /// A token that fires only after the job drained does not turn a
    /// completed job into an error (the bit-identical contract: results
    /// that exist are never altered by cancellation).
    #[test]
    fn late_cancel_keeps_completed_result() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(2);
        let cfg = SchedulerConfig::with_threads(2);
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        pool.run_cancellable(&g, &arena, &cfg, &token)
            .expect("far-future deadline never fires");
    }

    /// Sequential reference for whole-arena comparisons.
    fn oracle(g: &TaskGraph, pots: &[evprop_potential::PotentialTable]) -> Vec<Vec<f64>> {
        let mut arena = TableArena::initialize(g, pots, &EvidenceSet::new());
        let tables = arena.tables_mut();
        for t in g.topological_order().unwrap() {
            evprop_taskgraph::execute_full(&g.task(t).kind, tables);
        }
        tables.iter().map(|t| t.data().to_vec()).collect()
    }

    /// The one-worker walk keeps the pool's failure contract at every
    /// δ: a fired token (flag or expired deadline) is `Cancelled`, a
    /// poisoned task is a `JobPanic`, and the next job on the same
    /// arena, reset, computes the oracle's tables.
    #[test]
    fn one_worker_pool_cancels_panics_and_recovers() {
        let (g, pots) = asia_graph();
        let want = oracle(&g, &pots);
        let pool = CollabPool::new(1);
        let fired = CancelToken::new();
        fired.cancel();
        let expired = CancelToken::with_deadline(Instant::now());
        for delta in [None, Some(2)] {
            let mut cfg = SchedulerConfig::with_threads(1);
            cfg.partition_threshold = delta;
            let mut arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
            for token in [&fired, &expired] {
                assert!(matches!(
                    pool.run_cancellable(&g, &arena, &cfg, token),
                    Err(JobError::Cancelled)
                ));
            }

            // A task in the middle, so the walk dies with work done.
            cfg.poison_task = Some(g.num_tasks() / 2);
            let err = pool.run(&g, &arena, &cfg).expect_err("poisoned");
            assert!(err.message().contains("injected poison"), "{err}");

            cfg.poison_task = None;
            arena.reset(&g, &pots, &EvidenceSet::new());
            pool.run(&g, &arena, &cfg).expect("clean job succeeds");
            for (i, (w, have)) in want.iter().zip(arena.tables_mut()).enumerate() {
                assert!(
                    w.iter().zip(have.data()).all(|(a, b)| (a - b).abs() < 1e-9),
                    "buffer {i} after recovery at δ = {delta:?}"
                );
            }
        }
    }

    /// Two different slices rebuilt through ONE scratch graph and run
    /// back to back on a one-worker pool leave the very bits the same
    /// slices leave when each is built into a fresh graph: `slice_into`
    /// reassigns task ids, so a resolved-plan table that outlived the
    /// rebuild would run the second slice with the first one's plans.
    #[test]
    fn rebuilt_slice_scratch_runs_like_fresh_slices() {
        use evprop_taskgraph::{EdgeUpdate, SlicePlan};
        use evprop_workloads::{materialize, random_tree, TreeParams};

        let shape = random_tree(&TreeParams::new(14, 4, 2, 3).with_seed(11));
        let jt = materialize(&shape, 11);
        let full = TaskGraph::from_shape(&shape);
        let pool = CollabPool::new(1);
        let cfg = SchedulerConfig::with_threads(1);
        let none = EvidenceSet::new();
        let calibrated = || {
            let arena = TableArena::initialize(&full, jt.potentials(), &none);
            pool.run(&full, &arena, &cfg).unwrap();
            arena
        };
        let (mut via_scratch, mut via_fresh) = (calibrated(), calibrated());
        let mut scratch = full.slice_scaffold();

        let leaves = shape.leaves();
        let (first, last) = (leaves[0], leaves[leaves.len() - 1]);
        assert_ne!(first, last);
        // re-collect `dirty` and its ancestors, distribute to `target`
        for (dirty, target) in [(first, last), (last, first)] {
            let mut plan = SlicePlan::default_for(shape.num_cliques());
            let recollected = shape.path_from_root(dirty);
            for &c in &recollected {
                plan.recollect[c.index()] = true;
            }
            for &c in shape.path_from_root(target).iter().skip(1) {
                let update = if plan.recollect[c.index()] {
                    EdgeUpdate::Fresh
                } else {
                    EdgeUpdate::Stale
                };
                plan.path.push((c, update));
            }
            for arena in [&mut via_scratch, &mut via_fresh] {
                arena.reset_cliques(&full, jt.potentials(), &none, &recollected);
            }
            full.slice_into(&mut scratch, &shape, &plan);
            pool.run(&scratch, &via_scratch, &cfg).unwrap();
            let fresh = full.incremental_slice(&shape, &plan);
            pool.run(&fresh, &via_fresh, &cfg).unwrap();
            let tables = via_scratch.tables_mut().iter().zip(via_fresh.tables_mut());
            for (i, (a, b)) in tables.enumerate() {
                assert_eq!(a.data(), b.data(), "buffer {i}, slice for {dirty:?}");
            }
        }
    }

    /// Back-to-back poisoned jobs: every submission returns (no hang),
    /// and interleaved clean jobs keep working.
    #[test]
    fn pool_survives_repeated_poisoned_jobs() {
        let (g, pots) = asia_graph();
        let pool = CollabPool::new(2);
        for round in 0..3 {
            let mut cfg = SchedulerConfig::with_threads(2);
            cfg.poison_task = Some(round % g.num_tasks());
            let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
            assert!(pool.run(&g, &arena, &cfg).is_err(), "round {round}");

            let cfg = SchedulerConfig::with_threads(2);
            let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
            assert!(pool.run(&g, &arena, &cfg).is_ok(), "round {round}");
        }
    }
}
