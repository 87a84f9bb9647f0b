//! The sharded serving runtime: N shards, each owning one
//! [`ShardState`] (resident worker pool + recycled arenas), fed from a
//! single bounded admission queue.
//!
//! # Why shards
//!
//! One [`ShardState`] serializes jobs on its pool — that is the arena
//! safety invariant — so a single shard answers one query at a time no
//! matter how many clients connect. Sharding multiplies the serving
//! capacity: K shards answer K queries concurrently, each on its own
//! pool and arenas, so the serialized-jobs invariant still holds *per
//! shard*. The same total thread budget can be split depth-first
//! (1 shard × P threads: lowest single-query latency) or width-first
//! (P shards × 1 thread: highest throughput under concurrent load);
//! [`RuntimeConfig`] makes the split explicit.
//!
//! # Dataflow
//!
//! Clients [`submit`](ShardedRuntime::submit) queries into the
//! admission queue (blocking on backpressure, or failing fast via
//! [`try_submit`](ShardedRuntime::try_submit)) and get a [`Ticket`].
//! Each shard runs one dispatcher thread: pop a job, opportunistically
//! drain up to `max_batch - 1` more (micro-batching amortizes the
//! arena checkout), answer them all on one arena, fulfill the tickets.
//! With one thread per shard (the default) the dispatcher runs each
//! propagation itself — the shard's pool has no worker thread — and a
//! session query runs entirely on the thread that asked.

use crate::metrics::{quantile_of, FaultStats, RuntimeStats, ShardMetrics};
use crate::queue::{AdmissionQueue, PushError};
use crate::sessions::{OpenError, SessionTable};
use evprop_core::{CompiledModel, EngineError, InferenceSession, Query, ShardState};
use evprop_incremental::{IncrementalSession, QueryMode};
use evprop_potential::{PotentialTable, VarId};
use evprop_registry::{ModelHandle, ModelRegistry, RegistryError};
use evprop_sched::{CancelToken, SchedulerConfig, TableArena};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// How many completed queries the runtime remembers for the `trace`
/// protocol command ([`ShardedRuntime::recent`]).
const RECENT_CAP: usize = 64;

/// Errors surfaced to serving clients.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The admission queue is full (only from the non-blocking path).
    Overloaded,
    /// The runtime is shutting down; no new queries are admitted.
    ShuttingDown,
    /// The referenced session id is not open (never opened, already
    /// closed, or evicted after its idle TTL).
    UnknownSession(u64),
    /// The session table is full; no new session can be opened until
    /// one closes or expires.
    SessionLimit,
    /// The query's deadline expired before a result was produced —
    /// either shed at dequeue (the propagation never started) or
    /// cancelled mid-flight at a task boundary. Either way no partial
    /// result escapes: a query that *does* complete is bit-identical to
    /// an undeadlined run. Carries the time the query spent queued, the
    /// usual culprit.
    DeadlineExceeded {
        /// Enqueue-to-verdict wait.
        queue: Duration,
    },
    /// The query was answered with an engine error.
    Engine(EngineError),
    /// A model-registry operation failed (unknown model or version,
    /// version mid-unload, bad name, failed warmup). Only produced by
    /// runtimes booted with a registry or by requests naming a model.
    Registry(RegistryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full: query rejected"),
            ServeError::ShuttingDown => write!(f, "runtime is shutting down"),
            ServeError::UnknownSession(id) => {
                write!(f, "unknown session {id} (closed, expired, or never opened)")
            }
            ServeError::SessionLimit => write!(f, "session table full: open rejected"),
            ServeError::DeadlineExceeded { queue } => {
                write!(
                    f,
                    "deadline_exceeded: queued {}us without completing",
                    queue.as_micros()
                )
            }
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Registry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        ServeError::Registry(e)
    }
}

/// Result alias for serving calls.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Shape of the runtime: how many shards, how the thread budget is
/// split, and how admission control behaves.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of shards (independent pools). Must be ≥ 1.
    pub shards: usize,
    /// Worker threads per shard. Total budget = `shards ×
    /// threads_per_shard` (+ one lightweight dispatcher per shard).
    pub threads_per_shard: usize,
    /// Admission-queue capacity: queries beyond this block (or are
    /// rejected on the non-blocking path).
    pub queue_depth: usize,
    /// Max queries a dispatcher answers per arena checkout (≥ 1).
    /// Micro-batching amortizes checkout and keeps a hot arena.
    pub max_batch: usize,
    /// Partition threshold δ forwarded to each shard's scheduler.
    pub delta: Option<usize>,
    /// Max concurrently open incremental sessions; `session-open`
    /// beyond this is rejected with [`ServeError::SessionLimit`].
    pub session_capacity: usize,
    /// Idle time after which an open session may be evicted (lazily,
    /// on the next session-table access).
    pub session_ttl: Duration,
}

impl RuntimeConfig {
    /// `shards × threads_per_shard` with serving-friendly defaults
    /// (queue depth 64, micro-batches of up to 8, default δ).
    pub fn new(shards: usize, threads_per_shard: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(threads_per_shard >= 1, "need at least one thread per shard");
        RuntimeConfig {
            shards,
            threads_per_shard,
            queue_depth: 64,
            max_batch: 8,
            delta: Some(4096),
            session_capacity: 256,
            session_ttl: Duration::from_secs(600),
        }
    }

    /// Sets the max number of concurrently open sessions
    /// (builder-style).
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "session capacity must be positive");
        self.session_capacity = capacity;
        self
    }

    /// Sets the session idle TTL (builder-style).
    pub fn with_session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = ttl;
        self
    }

    /// Sets the admission-queue capacity (builder-style).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be positive");
        self.queue_depth = depth;
        self
    }

    /// Sets the micro-batch cap (builder-style); 1 disables batching.
    pub fn with_max_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "max batch must be positive");
        self.max_batch = batch;
        self
    }

    /// Disables δ-partitioning on every shard (builder-style). Partial
    /// propagations then run "literally the same arithmetic" as the
    /// sequential engine, making answers bit-identical to it.
    pub fn without_partitioning(mut self) -> Self {
        self.delta = None;
        self
    }

    /// Sets the partition threshold δ on every shard (builder-style).
    pub fn with_delta(mut self, delta: usize) -> Self {
        assert!(delta > 0, "partition threshold must be positive");
        self.delta = Some(delta);
        self
    }

    fn scheduler(&self) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::with_threads(self.threads_per_shard);
        cfg.partition_threshold = self.delta;
        cfg
    }
}

/// Where one answered query spent its time, measured by the shard
/// dispatcher. All durations are wall-clock.
#[derive(Clone, Copy, Debug)]
pub struct QueryTiming {
    /// Enqueue to dispatch: admission-queue wait plus any time spent
    /// behind earlier queries of the same micro-batch.
    pub queue: Duration,
    /// The propagation itself (`posterior_on` on the shard's arena).
    pub exec: Duration,
    /// Which shard answered.
    pub shard: usize,
}

/// One entry of the recent-query ring ([`ShardedRuntime::recent`]):
/// a completed query and where its time went.
#[derive(Clone, Debug)]
pub struct QuerySummary {
    /// The queried variable.
    pub target: VarId,
    /// The registry version that answered (`None` on a runtime booted
    /// without a registry). Weak, so the ring never pins a version
    /// against unload or eviction; a summary whose version is gone is
    /// formatted with positional names.
    pub model: Option<Weak<ModelHandle>>,
    /// Whether the query succeeded.
    pub ok: bool,
    /// Queue/exec breakdown and the answering shard.
    pub timing: QueryTiming,
}

/// One-shot rendezvous between a dispatcher and a waiting client.
#[derive(Debug)]
struct ResponseSlot {
    result: Mutex<Option<(ServeResult<PotentialTable>, QueryTiming)>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, result: ServeResult<PotentialTable>, timing: QueryTiming) {
        *self.result.lock() = Some((result, timing));
        self.ready.notify_all();
    }

    fn wait(&self) -> (ServeResult<PotentialTable>, QueryTiming) {
        let mut guard = self.result.lock();
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            self.ready.wait(&mut guard);
        }
    }

    fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<(ServeResult<PotentialTable>, QueryTiming)> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.result.lock();
        loop {
            if let Some(r) = guard.take() {
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Timed condvar wait: wakes on fulfill, re-checks on
            // spurious wakeups, and gives up at the deadline — no
            // sleep-slice polling, no wasted latency on the fulfill.
            let _ = self.ready.wait_for(&mut guard, deadline - now);
        }
    }
}

/// Handle for one in-flight query: redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
    /// Exact `name@vN` tag of the version answering this query, when
    /// the submission named a model. Resolved at submit time, so the
    /// tag identifies the answering version even if the alias is
    /// swapped while the query is in flight.
    tag: Option<String>,
}

impl Ticket {
    /// The exact `name@vN` tag of the model version answering this
    /// query, when the submission named one (`None` for default-alias
    /// and non-registry submissions).
    pub fn model_tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// Blocks until the query is answered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Engine`] if the query itself failed.
    pub fn wait(self) -> ServeResult<PotentialTable> {
        self.slot.wait().0
    }

    /// Blocks until the query is answered, also returning where its
    /// time went (even when the answer is an error).
    pub fn wait_timed(self) -> (ServeResult<PotentialTable>, QueryTiming) {
        self.slot.wait()
    }

    /// Waits up to `timeout`; `None` means still in flight (the ticket
    /// is consumed — intended for tests and best-effort clients).
    pub fn wait_timeout(self, timeout: Duration) -> Option<ServeResult<PotentialTable>> {
        self.slot.wait_timeout(timeout).map(|(r, _)| r)
    }
}

/// A query travelling through the admission queue.
struct Job {
    query: Query,
    enqueued: Instant,
    /// Absolute completion deadline, fixed at submit time. Expired jobs
    /// are shed at dequeue without ever starting a propagation; jobs
    /// already executing are cancelled cooperatively at task
    /// boundaries. `None` (the default) adds zero cost to the job.
    deadline: Option<Instant>,
    slot: Arc<ResponseSlot>,
    /// The registry version answering this query, resolved at submit
    /// time. Holding the `Arc` pins the version: an unload or eviction
    /// racing the queue can drop the registry's strong reference, but
    /// the compiled model stays alive until this job is answered.
    /// `None` on runtimes booted without a registry.
    handle: Option<Arc<ModelHandle>>,
}

struct Shard {
    state: ShardState,
    metrics: ShardMetrics,
}

/// The registry a runtime was booted against, plus the alias answering
/// queries that name no model.
struct RegistryBinding {
    registry: Arc<ModelRegistry>,
    default_model: String,
}

struct Inner {
    /// The one compiled model (domains + task graph + interned kernel
    /// plans) every shard serves. Shards share this `Arc` — they never
    /// copy the graph or recompile plans. With a registry this is the
    /// default alias's version at boot; per-query resolution may
    /// override it job by job.
    model: Arc<CompiledModel>,
    /// Present iff the runtime was booted with
    /// [`ShardedRuntime::with_registry`]: every query then resolves a
    /// model (the `"model"` field or the default alias) at submit time.
    registry: Option<RegistryBinding>,
    queue: AdmissionQueue<Job>,
    shards: Vec<Shard>,
    max_batch: usize,
    started: Instant,
    /// Ring of the last [`RECENT_CAP`] completed queries, oldest first.
    recent: Mutex<VecDeque<QuerySummary>>,
    /// Open incremental sessions (bounded, TTL-evicted, shard-pinned).
    sessions: SessionTable,
}

impl Inner {
    fn remember(&self, summary: QuerySummary) {
        let mut ring = self.recent.lock();
        if ring.len() == RECENT_CAP {
            ring.pop_front();
        }
        ring.push_back(summary);
    }
}

/// The sharded serving runtime. See the `runtime` module docs.
pub struct ShardedRuntime {
    inner: Arc<Inner>,
    dispatchers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: RuntimeConfig,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("config", &self.config)
            .field("queue", &self.inner.queue)
            .finish_non_exhaustive()
    }
}

impl ShardedRuntime {
    /// Boots the runtime from a session, taking over its compiled
    /// model. Convenience for [`ShardedRuntime::from_model`].
    pub fn new(session: InferenceSession, config: RuntimeConfig) -> Self {
        Self::from_model(Arc::clone(session.model()), config)
    }

    /// Boots the runtime: builds `config.shards` shards (each spawning
    /// its resident worker pool) and one dispatcher thread per shard,
    /// all serving the **same** `Arc<CompiledModel>` — the compile step
    /// (junction tree, task graph, kernel-plan interning) happened
    /// exactly once, no matter how many shards or runtimes share it.
    pub fn from_model(model: Arc<CompiledModel>, config: RuntimeConfig) -> Self {
        Self::boot(model, None, config)
    }

    /// Boots the runtime against a registry: queries resolve their model
    /// per submission — the request's `"model"` field, or
    /// `default_model` when absent — so alias swaps take effect on the
    /// very next query, loads and unloads happen while serving, and
    /// every in-flight query pins the exact version that answers it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when `default_model` does not resolve.
    pub fn with_registry(
        registry: Arc<ModelRegistry>,
        default_model: &str,
        config: RuntimeConfig,
    ) -> ServeResult<Self> {
        let handle = registry.resolve(default_model)?;
        let model = Arc::clone(handle.model());
        let binding = RegistryBinding {
            registry,
            default_model: default_model.to_string(),
        };
        Ok(Self::boot(model, Some(binding), config))
    }

    fn boot(
        model: Arc<CompiledModel>,
        registry: Option<RegistryBinding>,
        config: RuntimeConfig,
    ) -> Self {
        let shards = (0..config.shards)
            .map(|_| Shard {
                state: ShardState::new(config.scheduler()),
                metrics: ShardMetrics::default(),
            })
            .collect();
        let inner = Arc::new(Inner {
            model,
            registry,
            queue: AdmissionQueue::new(config.queue_depth),
            shards,
            max_batch: config.max_batch,
            started: Instant::now(),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAP)),
            sessions: SessionTable::new(config.session_capacity, config.session_ttl),
        });
        let dispatchers = (0..config.shards)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("evprop-shard-{idx}"))
                    .spawn(move || dispatcher(&inner, idx))
                    .expect("spawn dispatcher thread")
            })
            .collect();
        ShardedRuntime {
            inner,
            dispatchers: Mutex::new(dispatchers),
            config,
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The compiled model this runtime serves, shared by every shard.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.inner.model
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The model registry this runtime was booted against, if any.
    pub fn registry(&self) -> Option<&Arc<ModelRegistry>> {
        self.inner.registry.as_ref().map(|b| &b.registry)
    }

    /// The alias answering queries that name no model (`None` without
    /// a registry).
    pub fn default_model(&self) -> Option<&str> {
        self.inner
            .registry
            .as_ref()
            .map(|b| b.default_model.as_str())
    }

    /// Resolves the model answering a submission: the named spec, or
    /// the default alias, or — without a registry — the one compiled
    /// model (`None`; the dispatcher then uses `inner.model`).
    fn resolve_handle(&self, model: Option<&str>) -> ServeResult<Option<Arc<ModelHandle>>> {
        match (&self.inner.registry, model) {
            (Some(binding), spec) => {
                let spec = spec.unwrap_or(&binding.default_model);
                Ok(Some(binding.registry.resolve(spec)?))
            }
            (None, None) => Ok(None),
            (None, Some(spec)) => Err(ServeError::Registry(RegistryError::UnknownModel(
                spec.to_string(),
            ))),
        }
    }

    /// Submits a query, blocking while the admission queue is full.
    /// With a registry the default alias is resolved at submit time,
    /// so an alias swap lands on the very next submission.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] if the runtime is stopping.
    pub fn submit(&self, query: Query) -> ServeResult<Ticket> {
        self.submit_model(query, None)
    }

    /// Submits a query against a named model (`"name"` for the alias,
    /// `"name@vN"` for an exact version), blocking while the admission
    /// queue is full. The version is resolved — and pinned — here, so
    /// the returned ticket's [`model_tag`](Ticket::model_tag) names the
    /// exact version that answers, even across a concurrent swap or
    /// unload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the spec does not resolve (or the
    /// runtime has no registry); [`ServeError::ShuttingDown`] if the
    /// runtime is stopping.
    pub fn submit_model(&self, query: Query, model: Option<&str>) -> ServeResult<Ticket> {
        self.enqueue(query, model, None, true)
    }

    /// [`submit_model`](ShardedRuntime::submit_model) with an optional
    /// relative deadline. A query whose deadline expires while queued is
    /// shed at dequeue — it never starts a propagation — and one whose
    /// deadline fires mid-flight is cancelled cooperatively at the next
    /// task boundary; both resolve the ticket with
    /// [`ServeError::DeadlineExceeded`]. A query that completes despite
    /// a tight deadline returns its normal, bit-identical answer.
    ///
    /// # Errors
    ///
    /// As for [`submit_model`](ShardedRuntime::submit_model).
    pub fn submit_with_deadline(
        &self,
        query: Query,
        model: Option<&str>,
        deadline: Option<Duration>,
    ) -> ServeResult<Ticket> {
        self.enqueue(query, model, deadline, true)
    }

    /// Non-blocking
    /// [`submit_with_deadline`](ShardedRuntime::submit_with_deadline).
    ///
    /// # Errors
    ///
    /// As for [`try_submit_model`](ShardedRuntime::try_submit_model).
    pub fn try_submit_with_deadline(
        &self,
        query: Query,
        model: Option<&str>,
        deadline: Option<Duration>,
    ) -> ServeResult<Ticket> {
        self.enqueue(query, model, deadline, false)
    }

    fn enqueue(
        &self,
        query: Query,
        model: Option<&str>,
        deadline: Option<Duration>,
        blocking: bool,
    ) -> ServeResult<Ticket> {
        let handle = self.resolve_handle(model)?;
        let tag = model.and(handle.as_ref()).map(|h| h.tag());
        let slot = Arc::new(ResponseSlot::new());
        let now = Instant::now();
        let job = Job {
            query,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            slot: Arc::clone(&slot),
            handle,
        };
        if blocking {
            match self.inner.queue.push(job) {
                Ok(()) => Ok(Ticket { slot, tag }),
                Err(_) => Err(ServeError::ShuttingDown),
            }
        } else {
            match self.inner.queue.try_push(job) {
                Ok(()) => Ok(Ticket { slot, tag }),
                Err((_, PushError::Full)) => Err(ServeError::Overloaded),
                Err((_, PushError::Closed)) => Err(ServeError::ShuttingDown),
            }
        }
    }

    /// Submits without blocking: backpressure surfaces as
    /// [`ServeError::Overloaded`] instead of a wait.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is full;
    /// [`ServeError::ShuttingDown`] if the runtime is stopping.
    pub fn try_submit(&self, query: Query) -> ServeResult<Ticket> {
        self.try_submit_model(query, None)
    }

    /// Non-blocking [`submit_model`](ShardedRuntime::submit_model).
    ///
    /// # Errors
    ///
    /// As for [`submit_model`](ShardedRuntime::submit_model), plus
    /// [`ServeError::Overloaded`] when the queue is full.
    pub fn try_submit_model(&self, query: Query, model: Option<&str>) -> ServeResult<Ticket> {
        self.enqueue(query, model, None, false)
    }

    /// Submit-and-wait convenience (closed-loop client).
    ///
    /// # Errors
    ///
    /// As for [`ShardedRuntime::submit`] and [`Ticket::wait`].
    pub fn query(&self, query: Query) -> ServeResult<PotentialTable> {
        self.submit(query)?.wait()
    }

    /// Submit-and-wait with a queue/exec timing breakdown attached.
    ///
    /// # Errors
    ///
    /// As for [`ShardedRuntime::query`]; timing is only reported for
    /// answered queries.
    pub fn query_timed(&self, query: Query) -> ServeResult<(PotentialTable, QueryTiming)> {
        let (result, timing) = self.submit(query)?.wait_timed();
        result.map(|table| (table, timing))
    }

    /// The most recently completed queries (oldest first, at most 64)
    /// with their per-query queue/exec timing — the data behind the
    /// TCP protocol's `{"cmd": "trace"}` command.
    pub fn recent(&self) -> Vec<QuerySummary> {
        self.inner.recent.lock().iter().cloned().collect()
    }

    /// Attaches (or with `None`, detaches) a span sink recording shard
    /// `shard`'s scheduler events, arena checkouts, and query spans.
    /// Size the sink with `TraceSink::for_workers(threads_per_shard,
    /// …)`; takes effect from that shard's next dispatched query.
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn attach_trace(&self, shard: usize, sink: Option<Arc<evprop_trace::TraceSink>>) {
        self.inner.shards[shard]
            .state
            .attach_trace(sink, shard as u32);
    }

    /// A point-in-time statistics snapshot across all shards, including
    /// the shared model's kernel-plan cache counters. Each snapshot
    /// also drops a `plan-cache` instant on the control row of every
    /// attached shard sink, so exported timelines carry the counter
    /// history alongside the scheduler spans.
    pub fn stats(&self) -> RuntimeStats {
        let plan_cache = self.inner.model.plan_stats();
        let mut faults = FaultStats::default();
        for s in &self.inner.shards {
            faults.shed += s.metrics.shed.get();
            faults.cancelled += s.metrics.cancelled.get();
            faults.panics += s.metrics.panics.get();
            faults.restarts += s.state.pool_restarts();
        }
        for shard in &self.inner.shards {
            shard.state.trace_instant(evprop_trace::SpanKind::Faults {
                shed: faults.shed,
                cancelled: faults.cancelled,
                panics: faults.panics,
                restarts: faults.restarts,
            });
            shard
                .state
                .trace_instant(evprop_trace::SpanKind::PlanCache {
                    hits: plan_cache.hits,
                    misses: plan_cache.misses,
                    interned: plan_cache.interned,
                });
        }
        let wall = self.inner.started.elapsed();
        let shards: Vec<_> = self
            .inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.metrics.snapshot(i, s.state.arenas_allocated(), wall))
            .collect();
        let mut merged = vec![0u64; 64];
        let mut sum_nanos = 0u64;
        for s in &self.inner.shards {
            for (m, c) in merged.iter_mut().zip(s.metrics.latency.snapshot_counts()) {
                *m += c;
            }
            sum_nanos += s.metrics.latency.sum_nanos();
        }
        let served: u64 = shards.iter().map(|s| s.served).sum();
        RuntimeStats {
            served,
            errors: shards.iter().map(|s| s.errors).sum(),
            queue_depth: self.inner.queue.len(),
            queue_high_water: self.inner.queue.high_water(),
            mean_latency: sum_nanos
                .checked_div(served)
                .map_or(Duration::ZERO, Duration::from_nanos),
            p50: quantile_of(&merged, 0.50),
            p95: quantile_of(&merged, 0.95),
            p99: quantile_of(&merged, 0.99),
            uptime: wall,
            shards,
            plan_cache: Some(plan_cache),
            sessions: self
                .inner
                .sessions
                .ever_used()
                .then(|| self.inner.sessions.stats()),
            registry: self.inner.registry.as_ref().map(|b| b.registry.stats()),
            faults: faults.any().then_some(faults),
        }
    }

    // ------------------------------------------------- session commands
    //
    // Session commands run on the calling (connection) thread against
    // the pinned shard's `ShardState` directly — the pool serializes
    // jobs internally, so this is safe alongside the dispatcher's
    // stateless queries on the same shard. Pinning keeps a session's
    // resident arena on one pool for its whole lifetime.

    /// Opens an incremental session pinned to one shard (round-robin)
    /// and returns its id. The first open calibrates the model once
    /// under empty evidence; later opens clone that snapshot, so a new
    /// session starts with resident state and its first query under
    /// fresh evidence already runs incrementally.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionLimit`] when the table is full;
    /// [`ServeError::Engine`] if the base calibration fails.
    pub fn session_open(&self) -> ServeResult<u64> {
        self.session_open_model(None).map(|(id, _)| id)
    }

    /// Opens an incremental session against a named model (or the
    /// default alias / the one compiled model when `None`). The session
    /// pins the exact version it opened against — that version can be
    /// swapped away, unloaded, or evicted from the registry, yet the
    /// session keeps answering on it until closed or expired. Returns
    /// the session id plus the pinned `name@vN` tag when a model was
    /// named.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the spec does not resolve or the
    /// version is being unloaded (the unload check is atomic with the
    /// table insert, so a racing `model-unload` yields a deterministic
    /// `model_unloading` error, never a half-dropped session);
    /// [`ServeError::SessionLimit`] when the table is full;
    /// [`ServeError::Engine`] if the base calibration fails.
    pub fn session_open_model(&self, model: Option<&str>) -> ServeResult<(u64, Option<String>)> {
        let handle = self.resolve_handle(model)?;
        self.open_with_handle(handle, model.is_some())
    }

    /// Opens a session on `handle`'s version, pinning it (`None`: the
    /// one compiled model of a runtime without a registry). Split out
    /// so the unload-race test can inject a handle resolved *before* a
    /// `model-unload`.
    fn open_with_handle(
        &self,
        handle: Option<Arc<ModelHandle>>,
        named: bool,
    ) -> ServeResult<(u64, Option<String>)> {
        let model = handle.as_ref().map_or(&self.inner.model, |h| h.model());
        let base = model.session_base_with(|| {
            let mut boot = IncrementalSession::new(Arc::clone(model));
            boot.calibrate_full(&self.inner.shards[0].state)?;
            Ok::<_, ServeError>(boot.snapshot().expect("no pending deltas after calibrate"))
        })?;
        let tag = handle.as_ref().filter(|_| named).map(|h| h.tag());
        self.inner
            .sessions
            .open(self.inner.shards.len(), |_| {
                // Re-checked under the table lock, atomically with the
                // insert: once `model-unload` marks the version, no new
                // session can pin it — and a session inserted before
                // the mark holds a strong `Arc` the unload observes.
                if let Some(h) = handle.as_ref().filter(|h| h.is_unloading()) {
                    return Err(ServeError::Registry(RegistryError::Unloading(h.tag())));
                }
                Ok((
                    IncrementalSession::from_snapshot(Arc::clone(model), &base),
                    handle.clone(),
                ))
            })
            .map(|(id, _)| (id, tag))
            .map_err(|e| match e {
                OpenError::Full => ServeError::SessionLimit,
                OpenError::Make(e) => e,
            })
    }

    /// Sets hard evidence on an open session (a pending delta; the
    /// propagation happens on the next `session_query`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`]; [`ServeError::Engine`] on an
    /// unknown variable or out-of-range state.
    pub fn session_set(&self, id: u64, var: VarId, state: usize) -> ServeResult<()> {
        let (_, session, _) = self.session_entry(id)?;
        let result = session.lock().observe(var, state);
        result.map_err(ServeError::Engine)
    }

    /// Retracts evidence from an open session, returning the state that
    /// was observed (`None` when the variable was unobserved).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn session_retract(&self, id: u64, var: VarId) -> ServeResult<Option<usize>> {
        let (_, session, _) = self.session_entry(id)?;
        let removed = session.lock().retract(var);
        Ok(removed)
    }

    /// Answers a posterior query on an open session, bringing exactly
    /// the dirty slice of the tree up to date on the session's pinned
    /// shard. Also returns how the query was answered (cached /
    /// incremental / full).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`]; [`ServeError::Engine`] for
    /// propagation errors (unknown target, impossible evidence, …).
    pub fn session_query(
        &self,
        id: u64,
        target: VarId,
    ) -> ServeResult<(PotentialTable, QueryMode)> {
        let (shard, session, handle) = self.session_entry(id)?;
        let state = &self.inner.shards[shard].state;
        let result = session.lock().query(state, target);
        if result.is_ok() {
            if let Some(h) = &handle {
                h.record_served();
            }
        }
        result.map_err(ServeError::Engine)
    }

    /// Closes an open session, releasing its resident tables.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] when the id is not open.
    pub fn session_close(&self, id: u64) -> ServeResult<()> {
        if self.inner.sessions.close(id) {
            Ok(())
        } else {
            Err(ServeError::UnknownSession(id))
        }
    }

    #[allow(clippy::type_complexity)]
    fn session_entry(
        &self,
        id: u64,
    ) -> ServeResult<(
        usize,
        Arc<parking_lot::Mutex<IncrementalSession>>,
        Option<Arc<ModelHandle>>,
    )> {
        self.inner
            .sessions
            .get(id)
            .ok_or(ServeError::UnknownSession(id))
    }

    /// The name catalog of the model a live session pinned, if it
    /// pinned one. The front-end interprets and formats
    /// session commands against these names rather than the default
    /// model's — the pinned model's variables can differ arbitrarily.
    pub(crate) fn session_names(
        &self,
        id: u64,
    ) -> Option<Arc<dyn evprop_registry::ModelNames + Send + Sync>> {
        let (_, _, handle) = self.inner.sessions.get(id)?;
        handle.map(|h| Arc::clone(h.names()))
    }

    /// Stops admitting new queries without waiting: later submissions
    /// fail with [`ServeError::ShuttingDown`] while the dispatchers
    /// keep draining everything already admitted. The first step of a
    /// graceful drain; [`ShardedRuntime::drain`] adds the bounded wait.
    pub fn close_admission(&self) {
        self.inner.queue.close();
    }

    /// Graceful drain: stop admitting, answer every query already
    /// admitted, close all open sessions, and join the dispatcher
    /// threads — bounded by `timeout`. Returns `true` on a clean drain;
    /// `false` when the timeout fired first (sessions are still closed
    /// and admission stays shut, but dispatcher threads may still be
    /// finishing — the caller decides whether to force-exit).
    pub fn drain(&self, timeout: Duration) -> bool {
        self.inner.queue.close();
        let deadline = Instant::now() + timeout;
        // `JoinHandle` has no timed join; poll `is_finished` instead.
        // The dispatchers exit as soon as the closed queue runs dry.
        loop {
            if self.dispatchers.lock().iter().all(|h| h.is_finished()) {
                break;
            }
            if Instant::now() >= deadline {
                self.inner.sessions.close_all();
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let handles: Vec<_> = self.dispatchers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.inner.sessions.close_all();
        true
    }

    /// Marks `n` upcoming pool jobs on `shard` to kill their worker
    /// thread outside the panic guard — exercising the supervision/
    /// respawn path from tests and benchmarks without the `chaos`
    /// feature.
    #[doc(hidden)]
    pub fn inject_worker_deaths(&self, shard: usize, n: usize) {
        self.inner.shards[shard].state.inject_worker_deaths(n);
    }

    /// Stops admission, answers everything already queued, and joins
    /// the dispatcher threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let handles: Vec<_> = self.dispatchers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shard dispatcher loop: pop → drain a micro-batch → answer on one
/// arena → fulfill tickets. Exits when the queue is closed and empty.
///
/// Jobs carry their resolved model, so one micro-batch may interleave
/// models: the dispatcher keeps the arena checked out while consecutive
/// jobs share a model and swaps it (recycle + checkout) on a change.
/// The shard's arena cache matches recycled arenas by graph, so a small
/// working set of interleaved models serves allocation-free once warm.
fn dispatcher(inner: &Inner, idx: usize) {
    let shard = &inner.shards[idx];
    let mut batch: Vec<Job> = Vec::with_capacity(inner.max_batch);
    while let Some(first) = inner.queue.pop() {
        batch.push(first);
        if inner.max_batch > 1 {
            inner.queue.drain_into(&mut batch, inner.max_batch - 1);
        }
        #[cfg(feature = "chaos")]
        if let Some(stall) = evprop_sched::chaos::queue_stall() {
            std::thread::sleep(stall);
        }
        let round = Instant::now();
        let mut current: Option<(Arc<CompiledModel>, TableArena)> = None;
        for job in batch.drain(..) {
            // Deadline shed: a job whose deadline expired while queued
            // never starts a propagation — the deterministic outcome
            // for work the client has already given up on.
            if let Some(dl) = job.deadline {
                let now = Instant::now();
                if now >= dl {
                    let queue = now.duration_since(job.enqueued);
                    let timing = QueryTiming {
                        queue,
                        exec: Duration::ZERO,
                        shard: idx,
                    };
                    shard.metrics.served.incr();
                    shard.metrics.errors.incr();
                    shard.metrics.shed.incr();
                    shard.metrics.latency.record(queue);
                    inner.remember(QuerySummary {
                        target: job.query.target,
                        model: job.handle.as_ref().map(Arc::downgrade),
                        ok: false,
                        timing,
                    });
                    job.slot
                        .fulfill(Err(ServeError::DeadlineExceeded { queue }), timing);
                    continue;
                }
            }
            let model = job.handle.as_ref().map_or(&inner.model, |h| h.model());
            let stale = current
                .as_ref()
                .is_none_or(|(cur, _)| !Arc::ptr_eq(cur, model));
            if stale {
                if let Some((_, arena)) = current.take() {
                    shard.state.recycle(arena);
                }
                let arena = shard
                    .state
                    .checkout(model.graph(), model.junction_tree().potentials());
                current = Some((Arc::clone(model), arena));
            }
            let (model, arena) = current.as_mut().expect("arena checked out above");
            // Deadline-armed jobs run under a cancel token the workers
            // consult at task boundaries; deadline-free jobs take the
            // exact pre-existing path (no token, no clock reads).
            let cancel = job.deadline.map(CancelToken::with_deadline);
            let exec_start = Instant::now();
            let result = shard
                .state
                .posterior_on_cancellable(
                    model.junction_tree(),
                    model.graph(),
                    arena,
                    job.query.target,
                    &job.query.evidence,
                    cancel.as_ref(),
                )
                .map_err(|e| match e {
                    EngineError::Cancelled => {
                        shard.metrics.cancelled.incr();
                        ServeError::DeadlineExceeded {
                            queue: exec_start.duration_since(job.enqueued),
                        }
                    }
                    other => {
                        if matches!(other, EngineError::WorkerPanicked(_)) {
                            shard.metrics.panics.incr();
                        }
                        ServeError::Engine(other)
                    }
                });
            let timing = QueryTiming {
                queue: exec_start.duration_since(job.enqueued),
                exec: exec_start.elapsed(),
                shard: idx,
            };
            shard.metrics.served.incr();
            if result.is_err() {
                shard.metrics.errors.incr();
            }
            if let Some(h) = &job.handle {
                h.record_served();
            }
            shard.metrics.latency.record(job.enqueued.elapsed());
            inner.remember(QuerySummary {
                target: job.query.target,
                model: job.handle.as_ref().map(Arc::downgrade),
                ok: result.is_ok(),
                timing,
            });
            job.slot.fulfill(result, timing);
        }
        if let Some((_, arena)) = current.take() {
            shard.state.recycle(arena);
        }
        shard.metrics.batches.incr();
        shard
            .metrics
            .busy_nanos
            .add(u64::try_from(round.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_bayesnet::networks;
    use evprop_core::SequentialEngine;
    use evprop_potential::{EvidenceSet, VarId};

    use evprop_incremental::QueryMode;

    fn asia_runtime(config: RuntimeConfig) -> ShardedRuntime {
        let session = InferenceSession::from_network(&networks::asia()).unwrap();
        ShardedRuntime::new(session, config)
    }

    /// Same contract as `SchedulerConfig::with_delta`: δ = 0 would reach
    /// `EntryRange::split` and kill a worker mid-job.
    #[test]
    #[should_panic(expected = "positive")]
    fn zero_delta_rejected() {
        let _ = RuntimeConfig::new(1, 1).with_delta(0);
    }

    #[test]
    fn answers_match_sequential_bitwise() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1).without_partitioning());
        let session = InferenceSession::from_network(&networks::asia()).unwrap();
        for state in 0..2 {
            let mut ev = EvidenceSet::new();
            ev.observe(VarId(7), state);
            let want_all = session.propagate(&SequentialEngine, &ev).unwrap();
            for v in 0..8u32 {
                let got = rt.query(Query::new(VarId(v), ev.clone())).unwrap();
                let want = want_all.marginal(VarId(v)).unwrap();
                assert_eq!(got.data(), want.data(), "V{v} state {state}");
            }
        }
    }

    #[test]
    fn tickets_resolve_out_of_order_submissions() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1));
        let tickets: Vec<(u32, Ticket)> = (0..6u32)
            .map(|i| {
                let mut ev = EvidenceSet::new();
                ev.observe(VarId(7), (i % 2) as usize);
                (i, rt.submit(Query::new(VarId(i % 3), ev)).unwrap())
            })
            .collect();
        for (i, t) in tickets {
            let m = t.wait().unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert!((m.sum() - 1.0).abs() < 1e-9);
        }
        let stats = rt.stats();
        assert_eq!(stats.served, 6);
        assert_eq!(stats.errors, 0);
        assert!(stats.queue_high_water <= rt.config().queue_depth);
    }

    #[test]
    fn per_query_errors_do_not_poison_the_batch() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1));
        let bad = rt
            .submit(Query::new(VarId(99), EvidenceSet::new()))
            .unwrap();
        let good = rt.submit(Query::new(VarId(3), EvidenceSet::new())).unwrap();
        assert!(matches!(
            bad.wait(),
            Err(ServeError::Engine(EngineError::VariableNotInTree(_)))
        ));
        assert!(good.wait().is_ok());
        let stats = rt.stats();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn shutdown_rejects_new_work_but_answers_queued() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1));
        let t = rt.submit(Query::new(VarId(2), EvidenceSet::new())).unwrap();
        rt.shutdown();
        assert!(t.wait().is_ok());
        assert!(matches!(
            rt.submit(Query::new(VarId(2), EvidenceSet::new())),
            Err(ServeError::ShuttingDown)
        ));
        assert!(matches!(
            rt.try_submit(Query::new(VarId(2), EvidenceSet::new())),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn steady_state_allocates_no_new_arenas() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1).without_partitioning());
        // Warm every shard: more queries than shards × batch.
        for _ in 0..40 {
            rt.query(Query::new(VarId(3), EvidenceSet::new())).unwrap();
        }
        let warm: u64 = rt.stats().shards.iter().map(|s| s.arenas_allocated).sum();
        for _ in 0..40 {
            rt.query(Query::new(VarId(3), EvidenceSet::new())).unwrap();
        }
        let after: u64 = rt.stats().shards.iter().map(|s| s.arenas_allocated).sum();
        assert_eq!(warm, after, "warm serving must not allocate arenas");
        // Each shard allocated at most one arena for this single graph.
        assert!(after <= 2, "got {after}");
    }

    #[test]
    fn query_timed_reports_sane_breakdown() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1));
        let (m, t) = rt
            .query_timed(Query::new(VarId(3), EvidenceSet::new()))
            .unwrap();
        assert!((m.sum() - 1.0).abs() < 1e-9);
        assert!(t.shard < 2);
        assert!(t.exec > Duration::ZERO);
        assert!(t.queue < Duration::from_secs(60));
        // Errors still resolve the ticket with timing attached.
        let (bad, t) = rt
            .submit(Query::new(VarId(99), EvidenceSet::new()))
            .unwrap()
            .wait_timed();
        assert!(bad.is_err());
        assert!(t.shard < 2);
    }

    #[test]
    fn recent_ring_keeps_newest_in_order() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1));
        for i in 0..(RECENT_CAP + 5) {
            rt.query(Query::new(VarId((i % 3) as u32), EvidenceSet::new()))
                .unwrap();
        }
        let _ = rt
            .submit(Query::new(VarId(99), EvidenceSet::new()))
            .unwrap()
            .wait();
        let recent = rt.recent();
        assert_eq!(recent.len(), RECENT_CAP, "ring is capped");
        // Newest entry is the failing query; everything else succeeded.
        let last = recent.last().unwrap();
        assert_eq!(last.target, VarId(99));
        assert!(!last.ok);
        assert!(recent[..RECENT_CAP - 1].iter().all(|q| q.ok));
    }

    #[test]
    fn sessions_answer_incrementally_and_match_stateless() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1).without_partitioning());
        let session = InferenceSession::from_network(&networks::asia()).unwrap();
        let id = rt.session_open().unwrap();

        // The open cloned the shared empty-evidence calibration, so the
        // first query needs no propagation at all.
        let (m0, mode0) = rt.session_query(id, VarId(3)).unwrap();
        assert_eq!(mode0, QueryMode::Cached);
        let want0 = session
            .posterior(&SequentialEngine, VarId(3), &EvidenceSet::new())
            .unwrap();
        for (g, w) in m0.data().iter().zip(want0.data()) {
            assert!(
                (g - w).abs() < 1e-12,
                "{:?} vs {:?}",
                m0.data(),
                want0.data()
            );
        }

        // An additive delta runs the dirty slice, not a full repropagation,
        // and still matches the stateless path.
        rt.session_set(id, VarId(7), 1).unwrap();
        let (m1, mode1) = rt.session_query(id, VarId(3)).unwrap();
        assert!(
            matches!(mode1, QueryMode::Incremental { .. }),
            "got {mode1:?}"
        );
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(7), 1);
        let want1 = session.posterior(&SequentialEngine, VarId(3), &ev).unwrap();
        for (g, w) in m1.data().iter().zip(want1.data()) {
            assert!(
                (g - w).abs() < 1e-9,
                "{:?} vs {:?}",
                m1.data(),
                want1.data()
            );
        }

        // Retraction round-trips and the posterior returns to the prior.
        assert_eq!(rt.session_retract(id, VarId(7)).unwrap(), Some(1));
        assert_eq!(rt.session_retract(id, VarId(7)).unwrap(), None);
        let (m2, _) = rt.session_query(id, VarId(3)).unwrap();
        for (g, w) in m2.data().iter().zip(want0.data()) {
            assert!((g - w).abs() < 1e-9);
        }

        rt.session_close(id).unwrap();
        assert!(matches!(
            rt.session_query(id, VarId(3)),
            Err(ServeError::UnknownSession(_))
        ));
    }

    #[test]
    fn session_table_is_bounded_and_ids_are_checked() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1).with_session_capacity(1));
        assert!(matches!(
            rt.session_set(42, VarId(0), 0),
            Err(ServeError::UnknownSession(42))
        ));
        let id = rt.session_open().unwrap();
        assert!(matches!(rt.session_open(), Err(ServeError::SessionLimit)));
        rt.session_close(id).unwrap();
        assert!(matches!(
            rt.session_close(id),
            Err(ServeError::UnknownSession(_))
        ));
        rt.session_open().unwrap();
        // Per-session engine errors surface without killing the session.
        let id2 = 2;
        assert!(matches!(
            rt.session_set(id2, VarId(99), 0),
            Err(ServeError::Engine(EngineError::VariableNotInTree(_)))
        ));
        assert!(rt.session_query(id2, VarId(3)).is_ok());
    }

    #[test]
    fn idle_sessions_expire_and_stats_appear_on_first_use() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1).with_session_ttl(Duration::from_millis(20)));
        assert!(rt.stats().sessions.is_none(), "absent before any open");
        let id = rt.session_open().unwrap();
        rt.session_query(id, VarId(3)).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        assert!(matches!(
            rt.session_query(id, VarId(3)),
            Err(ServeError::UnknownSession(_))
        ));
        let stats = rt.stats().sessions.expect("present after first open");
        assert_eq!(stats.opened, 1);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.open, 0);
        assert_eq!(stats.propagation.queries, 1, "retired counters survive");
    }

    fn registry_with(nets: &[(&str, &evprop_bayesnet::BayesianNetwork)]) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        for (name, net) in nets {
            let session = InferenceSession::from_network(net).unwrap();
            registry
                .install(
                    name,
                    Arc::clone(session.model()),
                    Arc::new(evprop_registry::NumericNames::of(net)),
                )
                .unwrap();
        }
        registry
    }

    #[test]
    fn registry_mode_answers_match_and_tags_named_queries() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let registry = registry_with(&[("asia", &net)]);
        let rt = ShardedRuntime::with_registry(
            Arc::clone(&registry),
            "asia",
            RuntimeConfig::new(1, 1).without_partitioning(),
        )
        .unwrap();
        let want = session
            .posterior(&SequentialEngine, VarId(3), &EvidenceSet::new())
            .unwrap();
        // Default-alias submission: untagged, bitwise-identical answer.
        let t = rt.submit(Query::new(VarId(3), EvidenceSet::new())).unwrap();
        assert_eq!(t.model_tag(), None);
        assert_eq!(t.wait().unwrap().data(), want.data());
        // Named submission pins and reports the exact version.
        let t = rt
            .submit_model(Query::new(VarId(3), EvidenceSet::new()), Some("asia@v1"))
            .unwrap();
        assert_eq!(t.model_tag(), Some("asia@v1"));
        assert_eq!(t.wait().unwrap().data(), want.data());
        // Unknown specs fail at submit, before touching the queue.
        assert!(matches!(
            rt.submit_model(Query::new(VarId(3), EvidenceSet::new()), Some("nope")),
            Err(ServeError::Registry(RegistryError::UnknownModel(_)))
        ));
        let reg = rt.stats().registry.expect("registry stats present");
        assert_eq!(reg.loads, 1);
        assert_eq!(reg.served, 2, "both answered jobs carried a handle");
    }

    #[test]
    fn interleaved_models_each_answer_with_their_own_tables() {
        let asia = networks::asia();
        let student = networks::student();
        let registry = registry_with(&[("asia", &asia), ("student", &student)]);
        let rt = ShardedRuntime::with_registry(
            Arc::clone(&registry),
            "asia",
            RuntimeConfig::new(1, 1)
                .without_partitioning()
                .with_max_batch(4),
        )
        .unwrap();
        let want_asia = InferenceSession::from_network(&asia)
            .unwrap()
            .posterior(&SequentialEngine, VarId(2), &EvidenceSet::new())
            .unwrap();
        let want_student = InferenceSession::from_network(&student)
            .unwrap()
            .posterior(&SequentialEngine, VarId(2), &EvidenceSet::new())
            .unwrap();
        // Interleave the two models within micro-batches; every answer
        // must come from the right model's tables, bit-identical.
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                let spec = if i % 2 == 0 { "asia" } else { "student" };
                rt.submit_model(Query::new(VarId(2), EvidenceSet::new()), Some(spec))
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let want = if i % 2 == 0 {
                &want_asia
            } else {
                &want_student
            };
            assert_eq!(t.wait().unwrap().data(), want.data(), "query {i}");
        }
        // Both graphs fit the shard's arena cache: a second interleaved
        // round allocates nothing new.
        let warm: u64 = rt.stats().shards.iter().map(|s| s.arenas_allocated).sum();
        for i in 0..12 {
            let spec = if i % 2 == 0 { "asia" } else { "student" };
            rt.submit_model(Query::new(VarId(2), EvidenceSet::new()), Some(spec))
                .unwrap()
                .wait()
                .unwrap();
        }
        let after: u64 = rt.stats().shards.iter().map(|s| s.arenas_allocated).sum();
        assert_eq!(warm, after, "warm interleaved serving must not allocate");
    }

    #[test]
    fn session_open_racing_unload_is_rejected_deterministically() {
        let net = networks::asia();
        let registry = registry_with(&[("asia", &net)]);
        let rt =
            ShardedRuntime::with_registry(Arc::clone(&registry), "asia", RuntimeConfig::new(1, 1))
                .unwrap();
        // A connection resolved the handle, then an unload won the race:
        // the open's re-check under the table lock must reject it.
        let stale = registry.resolve("asia").unwrap();
        registry.unload("asia", None).unwrap();
        let err = rt.open_with_handle(Some(stale), true).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Registry(RegistryError::Unloading(_))
        ));
        assert_eq!(err.to_string(), "model_unloading: asia@v1");
        // The normal path no longer resolves the name at all.
        assert!(matches!(
            rt.session_open_model(Some("asia")),
            Err(ServeError::Registry(RegistryError::UnknownModel(_)))
        ));
    }

    #[test]
    fn open_sessions_pin_their_version_across_unload() {
        let net = networks::asia();
        let registry = registry_with(&[("asia", &net)]);
        let rt =
            ShardedRuntime::with_registry(Arc::clone(&registry), "asia", RuntimeConfig::new(1, 1))
                .unwrap();
        let (id, tag) = rt.session_open_model(Some("asia")).unwrap();
        assert_eq!(tag.as_deref(), Some("asia@v1"));
        registry.unload("asia", None).unwrap();
        // New work can no longer name the model...
        assert!(rt
            .submit_model(Query::new(VarId(3), EvidenceSet::new()), Some("asia"))
            .is_err());
        // ...but the open session still answers on its pinned version.
        rt.session_set(id, VarId(7), 1).unwrap();
        let (m, _) = rt.session_query(id, VarId(3)).unwrap();
        assert!((m.sum() - 1.0).abs() < 1e-9);
        rt.session_close(id).unwrap();
    }

    #[test]
    fn expired_deadline_sheds_deterministically() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1));
        let t = rt
            .submit_with_deadline(
                Query::new(VarId(3), EvidenceSet::new()),
                None,
                Some(Duration::ZERO),
            )
            .unwrap();
        match t.wait() {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        let stats = rt.stats();
        let faults = stats
            .faults
            .expect("faults object appears once a counter moves");
        assert_eq!(faults.shed, 1, "expired-at-dequeue is a shed, not a cancel");
        assert_eq!(faults.cancelled, 0);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.served, 1, "shed queries still count as answered");
    }

    #[test]
    fn far_deadline_answers_bit_identical_with_no_fault_counters() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1).without_partitioning());
        let session = InferenceSession::from_network(&networks::asia()).unwrap();
        let want = session
            .posterior(&SequentialEngine, VarId(3), &EvidenceSet::new())
            .unwrap();
        let got = rt
            .submit_with_deadline(
                Query::new(VarId(3), EvidenceSet::new()),
                None,
                Some(Duration::from_secs(3600)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            got.data(),
            want.data(),
            "deadline-armed completion is bit-identical"
        );
        assert!(
            rt.stats().faults.is_none(),
            "nothing fired, no faults object"
        );
    }

    /// One worker per shard (the death lands on the dispatcher's own
    /// job) and two (a pool thread dies and is reaped) keep the same
    /// books: one failed query, one panic, one restart.
    #[test]
    fn worker_death_fails_one_query_and_the_shard_recovers() {
        let session = InferenceSession::from_network(&networks::asia()).unwrap();
        let want = session
            .posterior(&SequentialEngine, VarId(3), &EvidenceSet::new())
            .unwrap();
        for threads in [1, 2] {
            let rt = asia_runtime(RuntimeConfig::new(1, threads).without_partitioning());
            rt.query(Query::new(VarId(3), EvidenceSet::new())).unwrap();
            rt.inject_worker_deaths(0, 1);
            let err = rt
                .query(Query::new(VarId(3), EvidenceSet::new()))
                .unwrap_err();
            assert!(
                matches!(err, ServeError::Engine(EngineError::WorkerPanicked(_))),
                "{threads} thread(s): {err}"
            );
            // The shard answers the next query, bit-identical.
            let got = rt.query(Query::new(VarId(3), EvidenceSet::new())).unwrap();
            assert_eq!(got.data(), want.data(), "{threads} thread(s)");
            let faults = rt.stats().faults.expect("panic and restart counted");
            assert_eq!(
                (faults.panics, faults.restarts),
                (1, 1),
                "{threads} thread(s)"
            );
        }
    }

    #[test]
    fn drain_answers_admitted_work_and_reports_clean() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1));
        let tickets: Vec<Ticket> = (0..8u32)
            .map(|i| {
                rt.submit(Query::new(VarId(i % 8), EvidenceSet::new()))
                    .unwrap()
            })
            .collect();
        assert!(rt.drain(Duration::from_secs(30)), "drain should finish");
        for t in tickets {
            assert!(t.wait().is_ok(), "every admitted query is answered");
        }
        assert!(matches!(
            rt.submit(Query::new(VarId(0), EvidenceSet::new())),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn drain_closes_open_sessions() {
        let rt = asia_runtime(RuntimeConfig::new(1, 1));
        let id = rt.session_open().unwrap();
        assert!(rt.drain(Duration::from_secs(30)));
        assert!(matches!(
            rt.session_query(id, VarId(3)),
            Err(ServeError::UnknownSession(_))
        ));
        let stats = rt.stats().sessions.unwrap();
        assert_eq!(stats.closed, 1);
        assert_eq!(stats.open, 0);
    }

    #[test]
    fn stats_are_consistent() {
        let rt = asia_runtime(RuntimeConfig::new(2, 1).with_max_batch(4));
        for i in 0..10u32 {
            rt.query(Query::new(VarId(i % 8), EvidenceSet::new()))
                .unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.served, 10);
        let per_shard: u64 = stats.shards.iter().map(|s| s.served).sum();
        assert_eq!(per_shard, 10);
        let batches: u64 = stats.shards.iter().map(|s| s.batches).sum();
        assert!((1..=10).contains(&batches));
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
        assert!(stats.mean_latency > Duration::ZERO);
        for s in &stats.shards {
            assert!(s.busy + s.idle <= stats.uptime + Duration::from_millis(50));
        }
    }
}
