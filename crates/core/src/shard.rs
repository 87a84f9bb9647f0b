//! The one parallel executor: a resident worker pool running the
//! paper's collaborative scheduler, plus a cache of recycled table
//! arenas.
//!
//! [`ShardState`] is the paper's engine behind the [`Engine`] trait
//! (as [`CollaborativeEngine`](crate::CollaborativeEngine)) and the
//! unit the `evprop-serve` sharded runtime runs N of side by side. The
//! serialized-jobs arena invariant holds *per shard*: a shard's pool
//! runs one job at a time, so its arenas are never aliased across
//! concurrent jobs.

use crate::{covering_clique, read_out, Calibrated, Engine, EngineError, Result};
use evprop_jtree::{CliqueId, JunctionTree};
use evprop_potential::{EvidenceSet, PotentialTable, VarId};
use evprop_sched::{CancelToken, CollabPool, JobError, RunReport, SchedulerConfig, TableArena};
use evprop_taskgraph::TaskGraph;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Arenas kept warm between queries. Jobs are serialized on the pool,
/// so one arena per concurrently-used task graph (sum-product,
/// max-product, the occasional collect-only graph) is plenty.
const MAX_CACHED_ARENAS: usize = 4;

/// The proposed method (§6) as a resident engine: `P` worker threads
/// with local ready lists, least-loaded allocation and δ-partitioning
/// of large tasks (a [`CollabPool`]), spawned **once**, over recycled
/// [`TableArena`]s — the steady-state cost of a query is the
/// propagation itself, with no thread spawn and no table allocation.
///
/// All methods take `&self`; concurrent callers are serialized on the
/// pool's submission lock, which is exactly the invariant the arena's
/// `unsafe impl Sync` relies on. The report of the most recent job
/// (per-thread computation time and scheduling overhead — Fig. 8's
/// measurements) is kept for [`ShardState::last_report`].
///
/// # Example
///
/// ```
/// use evprop_bayesnet::networks;
/// use evprop_core::{CollaborativeEngine, Engine};
/// use evprop_potential::{EvidenceSet, VarId};
/// use evprop_jtree::JunctionTree;
///
/// let jt = JunctionTree::from_network(&networks::asia())?;
/// let engine = CollaborativeEngine::with_threads(2);
/// for state in 0..2 {
///     let mut ev = EvidenceSet::new();
///     ev.observe(VarId(7), state);
///     let calibrated = engine.propagate(&jt, &ev)?;
///     assert!((calibrated.marginal(VarId(3))?.sum() - 1.0).abs() < 1e-9);
/// }
/// # Ok::<(), evprop_core::EngineError>(())
/// ```
pub struct ShardState {
    pool: CollabPool,
    config: SchedulerConfig,
    /// Recycled arenas, matched back to graphs by buffer layout.
    arenas: Mutex<Vec<TableArena>>,
    last_report: Mutex<Option<RunReport>>,
    /// Cold-start arena allocations since construction — stays flat in
    /// steady state, which the serving tests assert.
    arenas_allocated: AtomicU64,
    /// Attached span sink plus the shard index query spans are tagged
    /// with; also forwarded to the pool for worker-level events.
    trace: Mutex<Option<(std::sync::Arc<evprop_trace::TraceSink>, u32)>>,
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardState")
            .field("pool", &self.pool)
            .field("config", &self.config)
            .field("cached_arenas", &self.arenas.lock().len())
            .field("arenas_allocated", &self.arenas_allocated())
            .finish_non_exhaustive()
    }
}

impl ShardState {
    /// A shard with resident `config.num_threads` workers.
    pub fn new(config: SchedulerConfig) -> Self {
        ShardState {
            pool: CollabPool::new(config.num_threads),
            config,
            arenas: Mutex::new(Vec::new()),
            last_report: Mutex::new(None),
            arenas_allocated: AtomicU64::new(0),
            trace: Mutex::new(None),
        }
    }

    /// Attaches (or with `None`, detaches) a span sink: the resident
    /// pool's workers record scheduler events into it, and this shard
    /// records arena checkouts and `Query` spans — tagged with
    /// `shard` — on its control row. Size the sink with
    /// [`evprop_trace::TraceSink::for_workers`]`(num_threads(), …)`.
    pub fn attach_trace(&self, sink: Option<std::sync::Arc<evprop_trace::TraceSink>>, shard: u32) {
        self.pool.set_trace_sink(sink.clone());
        *self.trace.lock() = sink.map(|s| (s, shard));
    }

    fn trace_span(&self, kind: impl FnOnce(u32) -> evprop_trace::SpanKind, t0: std::time::Instant) {
        if let Some((sink, shard)) = self.trace.lock().as_ref() {
            sink.control()
                .span(kind(*shard), sink.clock().ns_at(t0), sink.clock().now_ns());
        }
    }

    /// Records `kind` as a zero-duration instant on the control row of
    /// this shard's attached sink (no-op while detached) — how the
    /// serving runtime drops counter snapshots, e.g. plan-cache
    /// hit/miss totals, into exported timelines.
    pub fn trace_instant(&self, kind: evprop_trace::SpanKind) {
        if let Some((sink, _)) = self.trace.lock().as_ref() {
            sink.control().instant(kind, sink.clock().now_ns());
        }
    }

    /// A shard with `threads` resident workers and default δ.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(SchedulerConfig::with_threads(threads))
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Number of resident worker threads.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// Per-thread statistics of the most recent job, if any.
    pub fn last_report(&self) -> Option<RunReport> {
        self.last_report.lock().clone()
    }

    /// Cold-start arena allocations since construction. A warm shard
    /// answering queries for graphs it has seen before does not move
    /// this counter.
    pub fn arenas_allocated(&self) -> u64 {
        self.arenas_allocated.load(Ordering::Relaxed)
    }

    /// Number of arenas currently parked in the recycle cache.
    pub fn cached_arenas(&self) -> usize {
        self.arenas.lock().len()
    }

    /// Dead pool worker threads the supervisor reaped and respawned
    /// over this shard's lifetime (see [`CollabPool::restarts`]).
    pub fn pool_restarts(&self) -> u64 {
        self.pool.restarts()
    }

    /// Fault injection forward to [`CollabPool::inject_worker_deaths`]:
    /// the next `n` job pickups on this shard each kill their worker
    /// thread. Hidden; for fault tests and the robustness harness only.
    #[doc(hidden)]
    pub fn inject_worker_deaths(&self, n: usize) {
        self.pool.inject_worker_deaths(n);
    }

    /// Takes a warm arena matching `graph` from the cache, or allocates
    /// a fresh one (initialized with empty evidence) on a cold start.
    /// The caller is expected to [`TableArena::reset`] it with the
    /// query's evidence — [`ShardState::posterior_on`] does — and hand
    /// it back via [`ShardState::recycle`].
    pub fn checkout(&self, graph: &TaskGraph, clique_potentials: &[PotentialTable]) -> TableArena {
        let t0 = std::time::Instant::now();
        let cached = {
            let mut cache = self.arenas.lock();
            cache
                .iter()
                .position(|a| a.matches(graph))
                .map(|i| cache.swap_remove(i))
        };
        let (arena, fresh) = match cached {
            Some(a) => (a, false),
            None => {
                self.arenas_allocated.fetch_add(1, Ordering::Relaxed);
                (
                    TableArena::initialize(graph, clique_potentials, &EvidenceSet::new()),
                    true,
                )
            }
        };
        self.trace_span(|_| evprop_trace::SpanKind::ArenaCheckout { fresh }, t0);
        arena
    }

    /// Returns an arena to the cache for the next query.
    pub fn recycle(&self, arena: TableArena) {
        let mut cache = self.arenas.lock();
        if cache.len() < MAX_CACHED_ARENAS {
            cache.push(arena);
        }
    }

    /// Runs one job on the resident pool and stores its report.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] if a worker thread panicked; the
    /// pool itself stays usable, but the arena's contents are
    /// unspecified (the next `reset` reinitializes them).
    pub fn run_job(&self, graph: &TaskGraph, arena: &TableArena) -> Result<()> {
        match self.pool.run(graph, arena, &self.config) {
            Ok(report) => {
                *self.last_report.lock() = Some(report);
                Ok(())
            }
            Err(panic) => Err(EngineError::WorkerPanicked(panic.message().to_string())),
        }
    }

    /// Like [`ShardState::run_job`], but the job can be stopped early
    /// by `cancel` (workers check the token at task boundaries).
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] if the token fired before the job
    /// drained; [`EngineError::WorkerPanicked`] as for `run_job`. In
    /// both cases the arena's contents are unspecified and the next
    /// `reset` reinitializes them.
    pub fn run_job_cancellable(
        &self,
        graph: &TaskGraph,
        arena: &TableArena,
        cancel: &CancelToken,
    ) -> Result<()> {
        match self
            .pool
            .run_cancellable(graph, arena, &self.config, cancel)
        {
            Ok(report) => {
                *self.last_report.lock() = Some(report);
                Ok(())
            }
            Err(JobError::Cancelled) => Err(EngineError::Cancelled),
            Err(JobError::Panicked(panic)) => {
                Err(EngineError::WorkerPanicked(panic.message().to_string()))
            }
        }
    }

    /// Answers one query **on a caller-held arena**: resets the arena
    /// with the query's evidence, propagates, and marginalizes `var`
    /// straight out of the buffer of the smallest clique covering it —
    /// the same clique [`Calibrated::marginal`] picks, so results are
    /// bit-identical to the sequential path on unpartitioned runs.
    ///
    /// This is the batch building block: checking out one arena and
    /// calling this per query reuses the evidence-scratch buffers for
    /// the whole batch.
    ///
    /// # Errors
    ///
    /// [`EngineError::VariableNotInTree`] if no clique covers `var`;
    /// [`EngineError::ImpossibleEvidence`] if `P(e) = 0`;
    /// [`EngineError::WorkerPanicked`] if a worker died mid-job.
    pub fn posterior_on(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        arena: &mut TableArena,
        var: VarId,
        evidence: &EvidenceSet,
    ) -> Result<PotentialTable> {
        self.posterior_on_cancellable(jt, graph, arena, var, evidence, None)
    }

    /// [`ShardState::posterior_on`] with an optional cancellation
    /// token: with `Some`, the propagation job can be stopped early at
    /// task boundaries (the deadline path of the serving runtime). A
    /// query that completes despite a racing token is bit-identical to
    /// an uncancelled one. With `None` this *is* `posterior_on` — no
    /// token is allocated and the job runs the plain path.
    ///
    /// # Errors
    ///
    /// As for [`ShardState::posterior_on`], plus
    /// [`EngineError::Cancelled`] when the token fired mid-job.
    pub fn posterior_on_cancellable(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        arena: &mut TableArena,
        var: VarId,
        evidence: &EvidenceSet,
        cancel: Option<&CancelToken>,
    ) -> Result<PotentialTable> {
        let t0 = std::time::Instant::now();
        let result = self.posterior_on_impl(jt, graph, arena, var, evidence, cancel);
        self.trace_span(|shard| evprop_trace::SpanKind::Query { shard }, t0);
        result
    }

    fn posterior_on_impl(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        arena: &mut TableArena,
        var: VarId,
        evidence: &EvidenceSet,
        cancel: Option<&CancelToken>,
    ) -> Result<PotentialTable> {
        let target = covering_clique(jt.shape(), &[var])?;
        // The unconditional reset is also the self-heal after a
        // cancelled or panicked predecessor left this arena dirty.
        arena.reset(graph, jt.potentials(), evidence);
        match cancel {
            Some(token) => self.run_job_cancellable(graph, arena, token)?,
            None => self.run_job(graph, arena)?,
        }
        read_out(
            &arena.tables_mut()[graph.clique_buffer(target).index()],
            &[var],
        )
    }

    /// Checkout–answer–recycle convenience for a single query.
    ///
    /// # Errors
    ///
    /// As for [`ShardState::posterior_on`].
    pub fn posterior(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        var: VarId,
        evidence: &EvidenceSet,
    ) -> Result<PotentialTable> {
        let mut arena = self.checkout(graph, jt.potentials());
        let result = self.posterior_on(jt, graph, &mut arena, var, evidence);
        self.recycle(arena);
        result
    }

    /// Answers a batch of queries reusing **one** arena across the
    /// whole batch: the arena (and its evidence-scratch buffers) is
    /// checked out once, each query resets it in place, and it is
    /// recycled at the end. Results are in input order.
    ///
    /// # Errors
    ///
    /// Per-query errors as in [`ShardState::posterior_on`]; the first
    /// error aborts the batch.
    pub fn posterior_batch(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        queries: &[crate::Query],
    ) -> Result<Vec<PotentialTable>> {
        let mut arena = self.checkout(graph, jt.potentials());
        let mut out = Vec::with_capacity(queries.len());
        let mut first_err = None;
        for q in queries {
            match self.posterior_on(jt, graph, &mut arena, q.target, &q.evidence) {
                Ok(m) => out.push(m),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        self.recycle(arena);
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Full calibration: propagates and clones every clique table out
    /// into a [`Calibrated`], leaving the arena in the cache.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerPanicked`] if a worker died mid-job.
    pub fn calibrate(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        evidence: &EvidenceSet,
    ) -> Result<Calibrated> {
        let mut arena = self.checkout(graph, jt.potentials());
        arena.reset(graph, jt.potentials(), evidence);
        if let Err(e) = self.run_job(graph, &arena) {
            self.recycle(arena);
            return Err(e);
        }
        // Clone the calibrated clique tables out instead of consuming
        // the arena — the buffers stay allocated for the next query.
        let tables = arena.tables_mut();
        let cliques: Vec<PotentialTable> = (0..jt.num_cliques())
            .map(|c| tables[graph.clique_buffer(CliqueId(c)).index()].clone())
            .collect();
        self.recycle(arena);
        Ok(Calibrated::new(jt.shape().clone(), cliques))
    }
}

impl Engine for ShardState {
    fn name(&self) -> &'static str {
        "collaborative"
    }

    fn propagate_graph(
        &self,
        jt: &JunctionTree,
        graph: &TaskGraph,
        evidence: &EvidenceSet,
    ) -> Result<Calibrated> {
        self.calibrate(jt, graph, evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, SequentialEngine};
    use evprop_bayesnet::networks;

    #[test]
    fn agrees_with_sequential_across_thread_counts() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(6), 1);
        let reference = SequentialEngine.propagate(&jt, &ev).unwrap();
        for threads in [1, 2, 4] {
            let engine = ShardState::with_threads(threads);
            let got = engine.propagate(&jt, &ev).unwrap();
            assert!(got.max_divergence(&reference) < 1e-9, "threads = {threads}");
            assert!(engine.last_report().is_some());
        }
    }

    #[test]
    fn partitioning_preserves_results() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let reference = SequentialEngine
            .propagate(&jt, &EvidenceSet::new())
            .unwrap();
        let engine = ShardState::new(SchedulerConfig::with_threads(4).with_delta(2));
        let got = engine.propagate(&jt, &EvidenceSet::new()).unwrap();
        assert!(got.max_divergence(&reference) < 1e-9);
        let report = engine.last_report().unwrap();
        assert!(report.partitioned_tasks > 0);
    }

    #[test]
    fn shard_posterior_bit_identical_to_sequential() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let graph = TaskGraph::from_shape(jt.shape());
        let shard = ShardState::new(SchedulerConfig::with_threads(2).without_partitioning());
        for state in 0..2 {
            let mut ev = EvidenceSet::new();
            ev.observe(VarId(7), state);
            let reference = SequentialEngine.propagate(&jt, &ev).unwrap();
            for v in 0..8u32 {
                let got = shard.posterior(&jt, &graph, VarId(v), &ev).unwrap();
                let want = reference.marginal(VarId(v)).unwrap();
                assert_eq!(got.data(), want.data(), "V{v} state {state}");
            }
        }
    }

    #[test]
    fn batch_reuses_one_arena_with_zero_steady_state_allocation() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let graph = TaskGraph::from_shape(jt.shape());
        let shard = ShardState::new(SchedulerConfig::with_threads(2).without_partitioning());
        let queries: Vec<Query> = (0..6u32)
            .map(|i| {
                let mut ev = EvidenceSet::new();
                ev.observe(VarId(7), (i % 2) as usize);
                Query::new(VarId(i % 3), ev)
            })
            .collect();
        let batch = shard.posterior_batch(&jt, &graph, &queries).unwrap();
        assert_eq!(batch.len(), 6);
        // The whole batch checked out exactly one arena …
        assert_eq!(shard.arenas_allocated(), 1);
        // … and a second batch on the warm shard allocates none.
        shard.posterior_batch(&jt, &graph, &queries).unwrap();
        assert_eq!(shard.arenas_allocated(), 1);
        assert_eq!(shard.last_report().unwrap().total_tables_allocated(), 0);
    }

    /// A cancelled query fails with `Cancelled`, and the *same* arena
    /// (left dirty by the cancelled job) heals on the next query via
    /// the unconditional reset — bit-identical to the sequential
    /// engine.
    #[test]
    fn cancelled_query_errors_and_arena_heals() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let graph = TaskGraph::from_shape(jt.shape());
        let shard = ShardState::new(SchedulerConfig::with_threads(2).without_partitioning());
        let mut arena = shard.checkout(&graph, jt.potentials());
        let token = CancelToken::new();
        token.cancel();
        let ev = EvidenceSet::new();
        let err = shard
            .posterior_on_cancellable(&jt, &graph, &mut arena, VarId(0), &ev, Some(&token))
            .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled));
        let got = shard
            .posterior_on(&jt, &graph, &mut arena, VarId(0), &ev)
            .unwrap();
        shard.recycle(arena);
        let reference = SequentialEngine.propagate(&jt, &ev).unwrap();
        assert_eq!(got.data(), reference.marginal(VarId(0)).unwrap().data());
    }

    /// The stateless path leans on `reset` leaving scratch alone: an
    /// arena whose every `Scratch` buffer holds NaN answers
    /// `posterior_on` bit-for-bit like a fresh shard, sum and max, with
    /// and without partitioning.
    #[test]
    fn poisoned_scratch_does_not_reach_posterior_on() {
        use evprop_taskgraph::{BufferInit, PropagationMode};
        let jt = JunctionTree::from_network(&networks::asia()).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(7), 1);
        ev.observe_likelihood(VarId(2), vec![0.3, 0.9]);
        for mode in [PropagationMode::SumProduct, PropagationMode::MaxProduct] {
            let graph = TaskGraph::from_shape_mode(jt.shape(), mode);
            for config in [
                SchedulerConfig::with_threads(2).without_partitioning(),
                SchedulerConfig::with_threads(2).with_delta(1),
            ] {
                let shard = ShardState::new(config.clone());
                let mut arena = shard.checkout(&graph, jt.potentials());
                for v in 0..8u32 {
                    for (t, spec) in arena.tables_mut().iter_mut().zip(graph.buffers()) {
                        if spec.init == BufferInit::Scratch {
                            t.fill(f64::NAN);
                        }
                    }
                    let got = shard
                        .posterior_on(&jt, &graph, &mut arena, VarId(v), &ev)
                        .unwrap();
                    let want = ShardState::new(config.clone())
                        .posterior(&jt, &graph, VarId(v), &ev)
                        .unwrap();
                    assert_eq!(got.data(), want.data(), "V{v} {mode:?} {config:?}");
                    assert!(got.data().iter().all(|p| p.is_finite()));
                }
            }
        }
    }

    #[test]
    fn batch_error_recycles_arena() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let graph = TaskGraph::from_shape(jt.shape());
        let shard = ShardState::with_threads(2);
        let queries = vec![
            Query::new(VarId(3), EvidenceSet::new()),
            Query::new(VarId(99), EvidenceSet::new()), // not in tree
        ];
        let err = shard.posterior_batch(&jt, &graph, &queries).unwrap_err();
        assert!(matches!(err, EngineError::VariableNotInTree(_)));
        // The arena went back to the cache despite the error.
        assert_eq!(shard.cached_arenas(), 1);
        assert!(shard
            .posterior(&jt, &graph, VarId(3), &EvidenceSet::new())
            .is_ok());
        assert_eq!(shard.arenas_allocated(), 1);
    }

    #[test]
    fn unknown_variable_and_impossible_evidence() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let graph = TaskGraph::from_shape(jt.shape());
        let shard = ShardState::with_threads(2);
        let r = shard.posterior(&jt, &graph, VarId(99), &EvidenceSet::new());
        assert!(matches!(r, Err(EngineError::VariableNotInTree(_))));
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(3), 1);
        ev.observe(VarId(5), 0); // contradiction
        let r = shard.posterior(&jt, &graph, VarId(4), &ev);
        assert!(matches!(r, Err(EngineError::ImpossibleEvidence)));
    }
}
