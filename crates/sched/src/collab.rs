//! The collaborative scheduling algorithm (Algorithm 2 of the paper).

use crate::{ArenaView, CancelToken, RunReport, SchedulerConfig, TableArena, ThreadStats};
use evprop_potential::{raw, EntryRange, PotentialTable};
use evprop_taskgraph::{PlanId, TaskGraph, TaskId, TaskKind};
use evprop_trace::{PrimitiveKind, SpanKind, TraceSink};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A schedulable unit: a static graph task, or one subtask of a
/// partitioned task (`part` indexes into the record's range list; the
/// last part is the combiner that inherits the original successors).
///
/// A `Part` carries its weight (its plan's op count) inline so the
/// Fetch and Allocate modules never have to consult the global
/// record list just to keep weight counters accurate, and its interned
/// [`PlanId`] so the executor runs the precompiled index map for its
/// range instead of recomputing strides (`None` for Divide, which is
/// contiguous on both sides and needs no plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exec {
    Static(TaskId),
    Part {
        rec: usize,
        part: usize,
        weight: u64,
        plan: Option<PlanId>,
    },
}

/// Runtime record of one partitioned task (the paper's `T̂_1 … T̂_n`).
struct Record {
    task: TaskId,
    ranges: Vec<EntryRange>,
    /// Subtasks the combiner still waits for (`n − 1` initially).
    final_deps: AtomicU32,
    /// Private partial tables produced by marginalization subtasks,
    /// tagged with their part index. The combiner folds them in part
    /// order, so the combined result is bitwise identical no matter
    /// which threads ran which subtask in which interleaving.
    partials: Mutex<Vec<(usize, PotentialTable)>>,
}

/// One thread's local ready list (LL) with its weight counter.
///
/// The weight counter is kept consistent with the queue *under the
/// queue's lock*: every push adds the unit's weight after enqueueing and
/// every pop subtracts it before releasing the lock, so a unit is never
/// counted twice no matter how fetches and allocations interleave.
struct LocalList {
    queue: Mutex<VecDeque<Exec>>,
    weight: AtomicU64,
    /// Whether the owning thread is currently spinning for work — used
    /// as the tie-breaker so zero-weight *idle* threads win allocations
    /// over zero-weight busy ones.
    idle: AtomicBool,
    /// Pushes plus successful pops — counted, not timed, so a test can
    /// assert which jobs go through the lists at all.
    #[cfg(test)]
    ops: AtomicUsize,
}

impl LocalList {
    fn push_back(&self, e: Exec, w: u64) {
        let mut q = self.queue.lock();
        q.push_back(e);
        self.weight.fetch_add(w, Ordering::Relaxed);
        #[cfg(test)]
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
}

/// Job-lifetime scheduler state that outlives the job: a pool keeps one
/// behind its submission lock and lends it to each job's [`Shared`], so
/// a steady-state job sizes nothing it sized before.
#[derive(Debug, Default)]
pub(crate) struct JobScratch {
    /// Remaining dependency degree per static task.
    deps: Vec<AtomicU32>,
    /// The one-worker walk's ready ring: every task enters exactly
    /// once, so `num_tasks` slots and two cursors never wrap.
    ring: Vec<AtomicUsize>,
}

/// Everything one scheduler **job** shares between workers. Built per
/// propagation by [`run_collaborative`] or [`crate::CollabPool::run`];
/// a pool with worker threads hands them a raw pointer to this for the
/// job's duration, a one-worker pool runs the job on it in place.
pub(crate) struct Shared<'g> {
    graph: &'g TaskGraph,
    /// The job's window-granting view of the arena; see the safety model
    /// in [`crate::arena`]. Workers never touch the tables directly.
    view: ArenaView<'g>,
    cfg: &'g SchedulerConfig,
    /// Remaining dependency degree per static task. With one worker
    /// only that worker touches them (plain load/store, see [`walk`]).
    deps: &'g [AtomicU32],
    /// The one-worker ready ring; empty when the job has more workers.
    ring: &'g [AtomicUsize],
    lls: Vec<LocalList>,
    records: Mutex<Vec<Arc<Record>>>,
    /// Static tasks not yet (semantically) complete.
    remaining: AtomicUsize,
    partitioned: AtomicUsize,
    subtasks: AtomicUsize,
    /// Set when a worker panicked mid-job: the job's bookkeeping is
    /// unrecoverable (the panicked task's successors will never become
    /// ready), so every other worker must stop waiting for `remaining`
    /// to hit zero and bail out instead of spinning forever.
    aborted: AtomicBool,
    /// Optional cooperative cancellation token, checked by every worker
    /// at task boundaries alongside the abort flag. A cancelled job
    /// stops early and leaves `remaining > 0`, which the pool reports
    /// as [`crate::JobError::Cancelled`]; a job that drains before any
    /// worker observes the token completes normally.
    cancel: Option<CancelToken>,
    /// Optional span sink: worker `id` records into row `id`, the
    /// submitter records the job span on the control row. An `Arc`
    /// (not a borrow) so attaching a sink never narrows the job
    /// descriptor's `'g` lifetime.
    trace: Option<Arc<TraceSink>>,
}

impl<'g> Shared<'g> {
    /// Prepares a job for `p` workers: dependency counters, one local
    /// ready list per worker, and the initially-ready tasks placed by
    /// the same weight-aware rule the Allocate module uses (`arg min_t
    /// W_t`, Line 7 of Algorithm 2) — round-robin would hand one thread
    /// several heavy roots while another starts idle. A one-worker job
    /// places nothing: its worker seeds a private ring instead (see
    /// [`walk`]). Counters and ring are lent by `scratch`, resized only
    /// when this graph is larger than any the scratch has served.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the *serialized jobs* invariant for the
    /// lifetime of the returned `Shared`: it is the arena's only user,
    /// and nothing accesses the arena except through this job's view
    /// (see [`TableArena::job_view`]). [`crate::CollabPool::run`]
    /// guarantees this with its submission lock and completion
    /// handshake.
    ///
    /// # Panics
    ///
    /// Panics if the graph and arena disagree on buffer count.
    pub(crate) unsafe fn prepare(
        graph: &'g TaskGraph,
        arena: &'g TableArena,
        cfg: &'g SchedulerConfig,
        p: usize,
        scratch: &'g mut JobScratch,
    ) -> Self {
        assert_eq!(
            graph.buffers().len(),
            arena.len(),
            "arena was not initialized for this graph"
        );
        let n = graph.num_tasks();
        if scratch.deps.len() < n {
            scratch.deps.resize_with(n, AtomicU32::default);
        }
        if p == 1 && scratch.ring.len() < n {
            scratch.ring.resize_with(n, AtomicUsize::default);
        }
        for (t, dep) in scratch.deps[..n].iter_mut().enumerate() {
            *dep.get_mut() = graph.dependency_degree(TaskId(t));
        }
        let scratch: &'g JobScratch = scratch;
        let shared = Shared {
            graph,
            // SAFETY: forwarded to our caller — sole arena user for the
            // lifetime of this job.
            view: arena.job_view(),
            cfg,
            deps: &scratch.deps[..n],
            ring: if p == 1 { &scratch.ring[..n] } else { &[] },
            lls: (0..p)
                .map(|_| LocalList {
                    queue: Mutex::new(VecDeque::new()),
                    weight: AtomicU64::new(0),
                    idle: AtomicBool::new(false),
                    #[cfg(test)]
                    ops: AtomicUsize::new(0),
                })
                .collect(),
            records: Mutex::new(Vec::new()),
            remaining: AtomicUsize::new(n),
            partitioned: AtomicUsize::new(0),
            subtasks: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            cancel: None,
            trace: None,
        };
        if p > 1 {
            for t in graph.initial_ready() {
                let w = graph.task(t).weight;
                shared.lls[least_loaded(&shared.lls)].push_back(Exec::Static(t), w);
            }
        }
        shared
    }

    /// Folds the job-wide counters into `report` after all workers
    /// finished.
    pub(crate) fn finish_into(&self, report: &mut RunReport) {
        report.partitioned_tasks = self.partitioned.load(Ordering::Relaxed);
        report.subtasks_spawned = self.subtasks.load(Ordering::Relaxed);
    }

    /// Marks the job as unrecoverable (a worker panicked). Release
    /// ordering pairs with the Acquire load in the worker loop: a
    /// worker observing the flag also observes that no more of this
    /// job's tasks will complete.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    /// `true` once [`Shared::abort`] ran.
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Attaches the job's cancellation token. Like
    /// [`Shared::set_trace`], this must happen before any worker starts
    /// the job (the pool does it under its submission lock,
    /// pre-handoff).
    pub(crate) fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Whether the job's token (if any) has fired. One `Option` branch
    /// when no token is attached — the steady-state serving path.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// How many static tasks never (semantically) completed — nonzero
    /// after a cancelled or aborted job.
    pub(crate) fn tasks_remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Attaches the sink workers record into. Must happen before any
    /// worker starts the job (the pool does it under its submission
    /// lock, pre-handoff).
    pub(crate) fn set_trace(&mut self, sink: Option<Arc<TraceSink>>) {
        self.trace = sink;
    }

    /// Records the whole-job span on the sink's control row.
    pub(crate) fn trace_job_span(&self, started: Instant, tasks: usize) {
        if let Some(sink) = &self.trace {
            sink.control().span(
                SpanKind::Job {
                    tasks: tasks as u32,
                },
                sink.clock().ns_at(started),
                sink.clock().now_ns(),
            );
        }
    }

    /// The recording handle worker `id` threads through its loop.
    fn tracer(&self, id: usize) -> WorkerTracer<'_> {
        WorkerTracer {
            // Rows beyond the sink (a sink sized for fewer workers
            // than the pool has) silently record nothing rather than
            // panicking mid-job.
            sink: self.trace.as_deref().filter(|s| id < s.rows()),
            row: id,
            idle_since: None,
        }
    }

    /// Post-job invariant: every ready list is empty and every weight
    /// counter is back at zero. A leftover queue entry means a lost
    /// task; a nonzero weight means a bookkeeping leak that would skew
    /// every Allocate decision of the *next* job on a reused pool.
    /// Release builds skip the check (and the tests that call it), so
    /// the method is debug/test-only.
    #[cfg_attr(not(any(debug_assertions, test)), allow(dead_code))]
    pub(crate) fn assert_drained(&self) {
        for (i, ll) in self.lls.iter().enumerate() {
            let q = ll.queue.lock();
            assert!(
                q.is_empty(),
                "thread {i}'s ready list still holds {} entries after the job",
                q.len()
            );
            let w = ll.weight.load(Ordering::Relaxed);
            assert_eq!(w, 0, "thread {i}'s weight counter leaked {w} after the job");
        }
    }
}

/// Per-worker recording handle: buffers the current idle stretch and
/// forwards scheduler events to the worker's sink row. With no sink
/// attached every method is one `Option` branch and records nothing.
struct WorkerTracer<'s> {
    sink: Option<&'s TraceSink>,
    row: usize,
    /// Start of the current contiguous idle stretch, so back-to-back
    /// snoozes collapse into one `IdleSpin` span instead of flooding
    /// the ring with one event per backoff step.
    idle_since: Option<Instant>,
}

impl WorkerTracer<'_> {
    /// Whether events go anywhere — the one-worker walk reads per-task
    /// clocks only then.
    fn recording(&self) -> bool {
        self.sink.is_some()
    }

    fn fetch(&self) {
        if let Some(s) = self.sink {
            s.recorder(self.row)
                .instant(SpanKind::Fetch, s.clock().now_ns());
        }
    }

    fn idle_begin(&mut self, at: Instant) {
        if self.sink.is_some() {
            self.idle_since.get_or_insert(at);
        }
    }

    fn work_resumed(&mut self) {
        if let (Some(s), Some(t0)) = (self.sink, self.idle_since.take()) {
            s.recorder(self.row)
                .span(SpanKind::IdleSpin, s.clock().ns_at(t0), s.clock().now_ns());
        }
    }

    fn partition(&self, kind: &TaskKind, parts: usize) {
        if let Some(s) = self.sink {
            let (buffer, _) = task_target(kind);
            s.recorder(self.row).instant(
                SpanKind::Partition {
                    buffer,
                    parts: parts as u32,
                },
                s.clock().now_ns(),
            );
        }
    }

    /// Records a task span from the *same* two instants the
    /// `ThreadStats::busy` measurement used, so the analyzer's busy
    /// totals and the stats agree exactly.
    fn task(&self, kind: &TaskKind, weight: u64, part: Option<u32>, t0: Instant, t1: Instant) {
        if let Some(s) = self.sink {
            let (buffer, primitive) = task_target(kind);
            s.recorder(self.row).span(
                SpanKind::Task {
                    buffer,
                    primitive,
                    weight,
                    part,
                },
                s.clock().ns_at(t0),
                s.clock().ns_at(t1),
            );
        }
    }

    fn finish(&mut self) {
        self.work_resumed();
    }
}

/// Destination buffer and primitive of a task kind, for span labels.
fn task_target(kind: &TaskKind) -> (u32, PrimitiveKind) {
    match *kind {
        TaskKind::Marginalize { dst, max, .. } => (
            dst.index() as u32,
            if max {
                PrimitiveKind::MaxMarginalize
            } else {
                PrimitiveKind::Marginalize
            },
        ),
        TaskKind::Divide { dst, .. } => (dst.index() as u32, PrimitiveKind::Divide),
        TaskKind::Extend { dst, .. } => (dst.index() as u32, PrimitiveKind::Extend),
        TaskKind::Multiply { dst, .. } => (dst.index() as u32, PrimitiveKind::Multiply),
    }
}

/// Runs two-phase evidence propagation: every task of `graph` executes
/// against `arena` under the collaborative scheduler with `cfg.num_threads`
/// workers. Returns per-thread statistics.
///
/// ```
/// use evprop_bayesnet::networks;
/// use evprop_jtree::JunctionTree;
/// use evprop_potential::EvidenceSet;
/// use evprop_sched::{run_collaborative, SchedulerConfig, TableArena};
/// use evprop_taskgraph::TaskGraph;
///
/// let jt = JunctionTree::from_network(&networks::asia()).unwrap();
/// let graph = TaskGraph::from_shape(jt.shape());
/// let arena = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());
/// let report = run_collaborative(&graph, &arena, &SchedulerConfig::with_threads(2));
/// let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
/// assert!(executed >= graph.num_tasks());
/// ```
///
/// The arena must have been initialized for this graph
/// ([`TableArena::initialize`]); after the call the clique buffers hold
/// the calibrated potentials.
///
/// # Panics
///
/// Panics if the graph and arena disagree on buffer count.
///
/// This is the *spawn-per-query* path: it builds a one-shot
/// [`crate::CollabPool`], runs the single job, and tears the pool down —
/// paying `cfg.num_threads` thread spawns and joins per call, none at
/// one thread (the calling thread runs the walk). Services answering
/// many queries should hold a [`crate::CollabPool`] and call
/// [`crate::CollabPool::run`] directly to amortize that cost (and to
/// observe worker panics as an `Err` instead of the re-panic here).
pub fn run_collaborative(
    graph: &TaskGraph,
    arena: &TableArena,
    cfg: &SchedulerConfig,
) -> RunReport {
    crate::CollabPool::new(cfg.num_threads)
        .run(graph, arena, cfg)
        .unwrap_or_else(|p| panic!("{p}"))
}

/// One worker's share of a job: Algorithm 2's loop, or — when the job
/// has no second worker to collaborate with — the private [`walk`].
pub(crate) fn worker(sh: &Shared<'_>, id: usize) -> ThreadStats {
    let start = Instant::now();
    let mut stats = ThreadStats::default();
    let mut tr = sh.tracer(id);
    if sh.lls.len() == 1 {
        walk(sh, start, &mut stats, &tr);
    } else {
        collaborate(sh, id, &mut stats, &mut tr);
    }
    tr.finish();
    stats.overhead = start.elapsed().saturating_sub(stats.busy);
    stats
}

/// Exponential backoff for an idle worker's spin: `2^k` spin-loop
/// hints at step `k ≤ SPIN_LIMIT`, a `yield_now` beyond, and back to
/// the cheapest step after useful work.
#[derive(Default)]
struct Backoff {
    step: Cell<u32>,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;

    fn snooze(&self) {
        let step = self.step.get();
        if step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
            self.step.set(step + 1);
        } else {
            std::thread::yield_now();
        }
    }

    fn reset(&self) {
        self.step.set(0);
    }
}

/// The per-thread loop: Fetch → (Partition) → Execute → Allocate.
fn collaborate(sh: &Shared<'_>, id: usize, stats: &mut ThreadStats, tr: &mut WorkerTracer) {
    let backoff = Backoff::default();
    loop {
        if sh.remaining.load(Ordering::Acquire) == 0 || sh.is_aborted() || sh.is_cancelled() {
            break;
        }
        // Fetch: head of own LL.
        let Some(e) = pop_front(sh, id) else {
            sh.lls[id].idle.store(true, Ordering::Relaxed);
            let spin_start = Instant::now();
            tr.idle_begin(spin_start);
            backoff.snooze();
            stats.idle_spin += spin_start.elapsed();
            continue;
        };
        sh.lls[id].idle.store(false, Ordering::Relaxed);
        backoff.reset();
        tr.work_resumed();
        tr.fetch();
        process(sh, id, e, stats, tr);
    }
}

/// P = 1: Algorithm 2 makes no decision. Allocate's `arg min_t W_t`
/// has one candidate and Fetch's list one reader, so the lone worker
/// runs the DAG as a private FIFO walk — the order its LL would have
/// produced — with none of the machinery that exists to share work: no
/// LL (lock, weight counter, idle flag), no `least_loaded`, and plain
/// load/store on the dependency counters. That is not a lost update:
/// the walk runs on the thread that submitted the job (a one-worker
/// [`crate::CollabPool`] has no worker thread), and under the
/// serialized-jobs invariant that thread is the only one touching the
/// job's counters and ring until `run` returns — program order is the
/// only happens-before edge the walk needs.
///
/// Execution is Algorithm 2's own ([`exec_full`], [`exec_part`]). A task
/// over δ runs its parts here in index order, partials folded by part
/// index exactly as the combiner folds them, so answers stay
/// bit-identical to every other worker count. Every task-boundary check
/// stays: abort, cancel token, poison, chaos slowdown.
///
/// Clocks: with no sink recording, `busy` is the walk's wall time, read
/// once (kernels plus this loop; `overhead` is what the worker spent
/// around it). While a sink records, each unit is clocked as in
/// Algorithm 2 so its spans and `busy` come from the same instants.
fn walk(sh: &Shared<'_>, start: Instant, stats: &mut ThreadStats, tr: &WorkerTracer) {
    let graph = sh.graph;
    let n = graph.num_tasks();
    let clocked = tr.recording();
    let (mut head, mut tail) = (0, 0);
    for t in (0..n).filter(|&t| graph.dependency_degree(TaskId(t)) == 0) {
        sh.ring[tail].store(t, Ordering::Relaxed);
        tail += 1;
    }
    while head < tail && !sh.is_aborted() && !sh.is_cancelled() {
        let t = TaskId(sh.ring[head].load(Ordering::Relaxed));
        tr.fetch();
        check_poison(sh, t);
        let task = graph.task(t);
        let len = graph.partition_len(t);
        match sh.cfg.partition_threshold {
            Some(delta) if len > delta => {
                let record = partition(sh, t, len, delta, tr);
                for (part, &range) in record.ranges.iter().enumerate() {
                    // Algorithm 2 allocates every part but the first.
                    stats.allocations += u64::from(part > 0);
                    let (plan, weight) = subtask_plan(sh, t, range);
                    let part_no = Some(part as u32);
                    run_unit(stats, tr, clocked, &task.kind, weight, part_no, |stats| {
                        exec_part(sh, &record, part, plan, stats)
                    });
                }
            }
            _ => run_unit(stats, tr, clocked, &task.kind, task.weight, None, |_| {
                // SAFETY: this thread runs every task of the job, in an
                // order the DAG allows; no other window is live.
                unsafe { exec_full(sh, t) }
            }),
        }
        head += 1;
        for &s in graph.successors(t) {
            let dep = &sh.deps[s.index()];
            let left = dep.load(Ordering::Relaxed) - 1;
            dep.store(left, Ordering::Relaxed);
            if left == 0 {
                stats.allocations += 1;
                sh.ring[tail].store(s.index(), Ordering::Relaxed);
                tail += 1;
            }
        }
    }
    if !clocked {
        stats.busy = start.elapsed();
    }
    sh.remaining.store(n - head, Ordering::Release);
}

/// One executed unit of the walk: the chaos hook every unit passes,
/// `exec`, and the same books [`record_exec`] keeps — with the clock
/// pair and the task span only while a sink records.
fn run_unit(
    stats: &mut ThreadStats,
    tr: &WorkerTracer,
    clocked: bool,
    kind: &TaskKind,
    weight: u64,
    part: Option<u32>,
    exec: impl FnOnce(&mut ThreadStats),
) {
    chaos_slowdown();
    if clocked {
        let t0 = Instant::now();
        exec(stats);
        let t1 = record_exec(stats, t0, weight);
        tr.task(kind, weight, part, t0, t1);
    } else {
        exec(stats);
        stats.tasks_executed += 1;
        stats.weight_executed += weight;
    }
}

/// Pops the head of thread `id`'s LL, keeping the weight counter
/// consistent under the queue lock.
fn pop_front(sh: &Shared<'_>, id: usize) -> Option<Exec> {
    let ll = &sh.lls[id];
    let mut q = ll.queue.lock();
    let e = q.pop_front()?;
    ll.weight
        .fetch_sub(exec_weight(sh.graph, e), Ordering::Relaxed);
    #[cfg(test)]
    ll.ops.fetch_add(1, Ordering::Relaxed);
    Some(e)
}

/// A unit's weight without any global lookup: static weights live in the
/// graph, subtask weights ride inline in the token.
fn exec_weight(graph: &TaskGraph, e: Exec) -> u64 {
    match e {
        Exec::Static(t) => graph.task(t).weight,
        Exec::Part { weight, .. } => weight,
    }
}

/// The Allocate target: the thread with the smallest weight counter,
/// preferring idle threads on ties (then lowest id). Shared by the
/// Allocate module and the initial distribution in [`Shared::prepare`].
fn least_loaded(lls: &[LocalList]) -> usize {
    (0..lls.len())
        .min_by_key(|&j| {
            (
                lls[j].weight.load(Ordering::Relaxed),
                !lls[j].idle.load(Ordering::Relaxed),
                j,
            )
        })
        .expect("at least one thread")
}

/// Allocate module: give a ready task to the thread with the smallest
/// weight counter (`arg min_t W_t`, Line 7 of Algorithm 2).
fn allocate(sh: &Shared<'_>, e: Exec, w: u64, stats: &mut ThreadStats) {
    stats.allocations += 1;
    sh.lls[least_loaded(&sh.lls)].push_back(e, w);
}

/// Executes one unit and performs the Allocate bookkeeping for whatever
/// it unblocks.
fn process(sh: &Shared<'_>, id: usize, e: Exec, stats: &mut ThreadStats, tr: &WorkerTracer) {
    chaos_slowdown();
    match e {
        Exec::Static(t) => {
            check_poison(sh, t);
            let task = sh.graph.task(t);
            let len = sh.graph.partition_len(t);
            match sh.cfg.partition_threshold {
                // Partition module: large task → subtasks of ≤ δ entries.
                Some(delta) if len > delta => {
                    let record = Arc::new(partition(sh, t, len, delta, tr));
                    let n = record.ranges.len();
                    let rec = {
                        let mut recs = sh.records.lock();
                        recs.push(record.clone());
                        recs.len() - 1
                    };
                    // middle subtasks spread across threads
                    for part in 1..n - 1 {
                        let (plan, weight) = subtask_plan(sh, t, record.ranges[part]);
                        allocate(
                            sh,
                            Exec::Part {
                                rec,
                                part,
                                weight,
                                plan,
                            },
                            weight,
                            stats,
                        );
                    }
                    // first subtask runs here, now
                    let (plan, _) = subtask_plan(sh, t, record.ranges[0]);
                    run_part(sh, id, rec, &record, 0, plan, stats, tr);
                }
                _ => {
                    let t0 = Instant::now();
                    // SAFETY: the task DAG gives this task exclusive
                    // access to its destination buffer
                    // (TaskGraph::validate) and orders every writer of
                    // its sources before it.
                    unsafe { exec_full(sh, t) };
                    let t1 = record_exec(stats, t0, task.weight);
                    tr.task(&task.kind, task.weight, None, t0, t1);
                    complete_static(sh, t, stats);
                }
            }
        }
        Exec::Part {
            rec, part, plan, ..
        } => {
            let record = sh.records.lock()[rec].clone();
            run_part(sh, id, rec, &record, part, plan, stats, tr);
        }
    }
}

/// The chaos harness's per-unit kernel slowdown, when armed.
fn chaos_slowdown() {
    #[cfg(feature = "chaos")]
    if let Some(delay) = crate::chaos::kernel_slowdown() {
        std::thread::sleep(delay);
    }
}

/// Fault injection: poison one task to exercise the pool's panic
/// containment (a real panic here would be a bug in a primitive or an
/// OOM inside a partial-table allocation).
fn check_poison(sh: &Shared<'_>, t: TaskId) {
    if sh.cfg.poison_task == Some(t.index()) {
        panic!("injected poison: task {} panicked", t.index());
    }
}

/// Partition module: the record of task `t` split into subtasks of at
/// most `delta` entries, counted into the job's totals.
fn partition(sh: &Shared<'_>, t: TaskId, len: usize, delta: usize, tr: &WorkerTracer) -> Record {
    let ranges = EntryRange::split(len, delta);
    let n = ranges.len();
    debug_assert!(n >= 2);
    sh.partitioned.fetch_add(1, Ordering::Relaxed);
    sh.subtasks.fetch_add(n, Ordering::Relaxed);
    tr.partition(&sh.graph.task(t).kind, n);
    Record {
        task: t,
        ranges,
        final_deps: AtomicU32::new((n - 1) as u32),
        partials: Mutex::new(Vec::new()),
    }
}

/// Interned plan id and plan op-count weight for one subtask range of
/// task `t`. The graph's [`PlanCache`](evprop_taskgraph::PlanCache)
/// memoizes ids by `(task, range)` without compiling — the program is
/// built by whichever worker dereferences it first in `run_part`, and
/// every later propagation hits both caches. A plan's `ops()` equals
/// its range length by definition, so the weight never needs the
/// compiled program; Divide carries no plan (contiguous on both sides)
/// and gets the same range-length weight.
fn subtask_plan(sh: &Shared<'_>, t: TaskId, range: EntryRange) -> (Option<PlanId>, u64) {
    (sh.graph.ranged_plan_id(t, range), range.len() as u64)
}

/// Books one executed unit into `stats`, returning the end instant so
/// a trace span can reuse the exact same measurement.
fn record_exec(stats: &mut ThreadStats, t0: Instant, weight: u64) -> Instant {
    let t1 = Instant::now();
    stats.busy += t1.duration_since(t0);
    stats.tasks_executed += 1;
    stats.weight_executed += weight;
    t1
}

/// Executes subtask `part` of a partitioned task and nothing else — the
/// half of [`run_part`] the one-worker [`walk`] shares.
///
/// Every arena access goes through a window of the job's [`ArenaView`]:
/// a subtask owns exactly its own [`EntryRange`] of the destination
/// (never a reference to the table), sibling ranges are disjoint by
/// construction ([`EntryRange::split`]), and sources are shared
/// read-only windows — the Rust-visible shape of the paper's
/// "concurrent writes to one table are fine because ranges are
/// disjoint" argument.
///
/// Cross-domain subtasks execute through the interned [`KernelPlan`]
/// named by `plan` (compiled once per `(task, range)` and cached on the
/// graph).
fn exec_part(
    sh: &Shared<'_>,
    record: &Record,
    part: usize,
    plan: Option<PlanId>,
    stats: &mut ThreadStats,
) {
    let range = record.ranges[part];
    let is_final = part == record.ranges.len() - 1;
    let buffers = sh.graph.buffers();

    match sh.graph.task(record.task).kind {
        TaskKind::Marginalize { src, dst, max } => {
            let dst_domain = &buffers[dst.index()].domain;
            let kplan = sh
                .graph
                .plans()
                .get(plan.expect("marginalize subtasks carry a plan"));
            // SAFETY: the task DAG orders every writer of src before
            // this task; sibling subtasks only read src (overlapping
            // shared windows are fine).
            let s = unsafe { sh.view.read_full(src) };
            if is_final {
                // SAFETY: all sibling subtasks have completed (final_deps
                // reached 0), so this subtask is the sole accessor of dst.
                let mut d = unsafe { sh.view.write_full(dst) };
                let out = d.as_mut_slice();
                out.fill(0.0);
                if max {
                    kplan
                        .marginalize_max_into(&s, out)
                        .expect("plan was compiled for these buffers");
                } else {
                    kplan
                        .marginalize_sum_into(&s, out)
                        .expect("plan was compiled for these buffers");
                }
                // Fold partials in part order: the combined marginal is
                // then bitwise reproducible across thread counts and
                // schedules (FP addition is not associative, so an
                // arrival-order fold would not be).
                let mut parts = record.partials.lock();
                parts.sort_unstable_by_key(|&(i, _)| i);
                for (_, p) in parts.drain(..) {
                    if max {
                        raw::max_assign_raw(out, p.data())
                            .expect("partials share the separator domain");
                    } else {
                        raw::add_assign_raw(out, p.data())
                            .expect("partials share the separator domain");
                    }
                }
            } else {
                // private partial table; only the arena source is read
                stats.tables_allocated += 1;
                let mut partial = PotentialTable::zeros(dst_domain.clone());
                if max {
                    kplan
                        .marginalize_max_into(&s, partial.data_mut())
                        .expect("plan was compiled for these buffers");
                } else {
                    kplan
                        .marginalize_sum_into(&s, partial.data_mut())
                        .expect("plan was compiled for these buffers");
                }
                record.partials.lock().push((part, partial));
            }
        }
        TaskKind::Divide { num, den, dst } => {
            // SAFETY: sibling subtasks own disjoint dst windows; num and
            // den are only read, ordered after their writers by the DAG.
            let nm = unsafe { sh.view.read_full(num) };
            let dn = unsafe { sh.view.read_full(den) };
            let mut d = unsafe { sh.view.write_range(dst, range) };
            raw::divide_range_into(&nm, &dn, range, d.as_mut_slice())
                .expect("separator domains agree");
        }
        TaskKind::Extend { src, dst } => {
            // SAFETY: as for Divide — disjoint dst windows, read-only src.
            let s = unsafe { sh.view.read_full(src) };
            let mut d = unsafe { sh.view.write_range(dst, range) };
            sh.graph
                .plans()
                .get(plan.expect("extend subtasks carry a plan"))
                .extend_into(&s, d.as_mut_slice())
                .expect("plan was compiled for these buffers");
        }
        TaskKind::Multiply { src, dst } => {
            // SAFETY: as for Divide — disjoint dst windows, read-only src.
            let s = unsafe { sh.view.read_full(src) };
            let mut d = unsafe { sh.view.write_range(dst, range) };
            sh.graph
                .plans()
                .get(plan.expect("multiply subtasks carry a plan"))
                .multiply_into(&s, d.as_mut_slice())
                .expect("plan was compiled for these buffers");
        }
    }
}

/// Runs subtask `part` of a partitioned task under Algorithm 2: execute,
/// book, then either complete the task (the final part) or count down
/// toward allocating the combiner.
#[allow(clippy::too_many_arguments)]
fn run_part(
    sh: &Shared<'_>,
    _id: usize,
    rec: usize,
    record: &Record,
    part: usize,
    plan: Option<PlanId>,
    stats: &mut ThreadStats,
    tr: &WorkerTracer,
) {
    let n = record.ranges.len();
    let range = record.ranges[part];
    let task = sh.graph.task(record.task);
    let is_final = part == n - 1;

    let t0 = Instant::now();
    exec_part(sh, record, part, plan, stats);
    let t1 = record_exec(stats, t0, range.len() as u64);
    tr.task(&task.kind, range.len() as u64, Some(part as u32), t0, t1);

    if is_final {
        complete_static(sh, record.task, stats);
    } else if record.final_deps.fetch_sub(1, Ordering::AcqRel) == 1 {
        // combiner becomes ready
        let (plan, weight) = subtask_plan(sh, record.task, record.ranges[n - 1]);
        allocate(
            sh,
            Exec::Part {
                rec,
                part: n - 1,
                weight,
                plan,
            },
            weight,
            stats,
        );
    }
}

/// A static task is semantically done: decrease successors' dependency
/// degrees (allocating any that reach zero) and the remaining counter.
fn complete_static(sh: &Shared<'_>, t: TaskId, stats: &mut ThreadStats) {
    for &s in sh.graph.successors(t) {
        if sh.deps[s.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
            allocate(sh, Exec::Static(s), sh.graph.task(s).weight, stats);
        }
    }
    sh.remaining.fetch_sub(1, Ordering::AcqRel);
}

/// Whole-task execution through the job's view: the task's interned
/// full-range [`KernelPlan`], so the partitioned and unpartitioned
/// schedules compute literally the same arithmetic.
///
/// # Safety
///
/// Caller must hold (via the task DAG) exclusive access to the task's
/// destination buffer and shared access to its sources.
unsafe fn exec_full(sh: &Shared<'_>, t: TaskId) {
    let plan = |msg: &str| sh.graph.task_plan_ref(t).expect(msg);
    match sh.graph.task(t).kind {
        TaskKind::Marginalize { src, dst, max } => {
            let s = sh.view.read_full(src);
            let mut d = sh.view.write_full(dst);
            let out = d.as_mut_slice();
            out.fill(0.0);
            let kplan = plan("marginalize tasks carry a plan");
            if max {
                kplan
                    .marginalize_max_into(&s, out)
                    .expect("plan was compiled for these buffers");
            } else {
                kplan
                    .marginalize_sum_into(&s, out)
                    .expect("plan was compiled for these buffers");
            }
        }
        TaskKind::Divide { num, den, dst } => {
            let nm = sh.view.read_full(num);
            let dn = sh.view.read_full(den);
            let mut d = sh.view.write_full(dst);
            raw::divide_range_into(&nm, &dn, EntryRange::full(nm.len()), d.as_mut_slice())
                .expect("separator domains agree");
        }
        TaskKind::Extend { src, dst } => {
            let s = sh.view.read_full(src);
            let mut d = sh.view.write_full(dst);
            plan("extend tasks carry a plan")
                .extend_into(&s, d.as_mut_slice())
                .expect("plan was compiled for these buffers");
        }
        TaskKind::Multiply { src, dst } => {
            let s = sh.view.read_full(src);
            let mut d = sh.view.write_full(dst);
            plan("multiply tasks carry a plan")
                .multiply_into(&s, d.as_mut_slice())
                .expect("plan was compiled for these buffers");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_bayesnet::networks;
    use evprop_jtree::JunctionTree;
    use evprop_potential::EvidenceSet;
    use evprop_taskgraph::execute_full as seq_execute;

    /// Sequential reference: run all tasks in topological order.
    fn run_sequential(graph: &TaskGraph, arena: &mut TableArena) {
        let order = graph.topological_order().unwrap();
        let tables = arena.tables_mut();
        for t in order {
            seq_execute(&graph.task(t).kind, tables);
        }
    }

    fn asia_setup() -> (TaskGraph, Vec<PotentialTable>) {
        let jt = JunctionTree::from_network(&networks::asia()).unwrap();
        let g = TaskGraph::from_shape(jt.shape());
        let pots = jt.potentials().to_vec();
        (g, pots)
    }

    fn compare_engines(threads: usize, delta: Option<usize>) {
        let (g, pots) = asia_setup();
        let ev = {
            let mut e = EvidenceSet::new();
            e.observe(evprop_potential::VarId(7), 1); // dysp = yes
            e
        };
        let mut seq = TableArena::initialize(&g, &pots, &ev);
        run_sequential(&g, &mut seq);
        let seq_tables = seq.into_tables();

        let mut cfg = SchedulerConfig::with_threads(threads);
        cfg.partition_threshold = delta;
        let par = TableArena::initialize(&g, &pots, &ev);
        let report = run_collaborative(&g, &par, &cfg);
        let par_tables = par.into_tables();

        let executed: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
        assert!(executed >= g.num_tasks());
        for (i, (a, b)) in seq_tables.iter().zip(&par_tables).enumerate() {
            assert!(
                a.approx_eq(b, 1e-9),
                "buffer {i} differs: {:?} vs {:?}",
                a,
                b
            );
        }
    }

    #[test]
    fn matches_sequential_single_thread() {
        compare_engines(1, None);
    }

    #[test]
    fn matches_sequential_multithreaded() {
        for p in [2, 4, 8] {
            compare_engines(p, None);
        }
    }

    #[test]
    fn matches_sequential_with_partitioning() {
        // tiny δ forces aggressive partitioning on every table
        for delta in [1, 2, 3, 7] {
            compare_engines(4, Some(delta));
        }
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let jt = {
            // single-clique tree
            let d = evprop_potential::Domain::new(vec![evprop_potential::Variable::binary(
                evprop_potential::VarId(0),
            )])
            .unwrap();
            let shape = evprop_jtree::TreeShape::new(vec![d.clone()], &[], 0).unwrap();
            JunctionTree::from_parts(shape, vec![PotentialTable::ones(d)]).unwrap()
        };
        let g = TaskGraph::from_shape(jt.shape());
        let arena = TableArena::initialize(&g, jt.potentials(), &EvidenceSet::new());
        let report = run_collaborative(&g, &arena, &SchedulerConfig::with_threads(4));
        assert_eq!(report.partitioned_tasks, 0);
        assert!(report.threads.iter().all(|t| t.tasks_executed == 0));
    }

    #[test]
    fn partition_stats_reported() {
        let (g, pots) = asia_setup();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let cfg = SchedulerConfig::with_threads(2).with_delta(2);
        let report = run_collaborative(&g, &arena, &cfg);
        assert!(report.partitioned_tasks > 0);
        assert!(report.subtasks_spawned > report.partitioned_tasks);
    }

    #[test]
    fn all_threads_do_work_on_wide_trees() {
        // star-ish tree: many leaves → concurrent chains
        use evprop_potential::{Domain, VarId, Variable};
        let k = 8usize;
        let mut domains =
            vec![Domain::new((0..k as u32).map(|i| Variable::binary(VarId(i))).collect()).unwrap()];
        for i in 0..k as u32 {
            domains.push(Domain::new(vec![Variable::binary(VarId(i))]).unwrap());
        }
        let edges: Vec<(usize, usize)> = (1..=k).map(|i| (0, i)).collect();
        let shape = evprop_jtree::TreeShape::new(domains, &edges, 0).unwrap();
        let g = TaskGraph::from_shape(&shape);
        let pots: Vec<PotentialTable> = shape
            .domains()
            .iter()
            .map(|d| PotentialTable::ones(d.clone()))
            .collect();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let cfg = SchedulerConfig::with_threads(2).without_partitioning();
        let report = run_collaborative(&g, &arena, &cfg);
        let total: usize = report.threads.iter().map(|t| t.tasks_executed).sum();
        assert_eq!(total, g.num_tasks());
    }

    /// Regression for the weight-accounting races: after a job with
    /// aggressive partitioning, every LL must be empty and every weight
    /// counter exactly zero. A push or pop that touches the counter
    /// outside the queue lock leaves it wrapped or nonzero and fails
    /// here.
    #[test]
    fn weights_drain_to_zero_after_run() {
        let (g, pots) = asia_setup();
        let mut scratch = JobScratch::default();
        for (threads, delta) in [(1, None), (4, Some(1)), (8, Some(2))] {
            let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
            let mut cfg = SchedulerConfig::with_threads(threads);
            cfg.partition_threshold = delta;
            let (sh, _) = run_scoped(&g, &arena, &cfg, &mut scratch, None);
            sh.assert_drained();
        }
    }

    /// A token that fired before the handoff — by flag or by an
    /// already-expired deadline — stops every worker at its first
    /// boundary check: no task runs, `remaining` stays at the full task
    /// count, and the workers return instead of spinning. One worker
    /// (the walk) and two (Algorithm 2), at any δ.
    #[test]
    fn pre_fired_token_stops_workers_before_any_task() {
        let (g, pots) = asia_setup();
        let fired = CancelToken::new();
        fired.cancel();
        let expired = CancelToken::with_deadline(Instant::now());
        let mut scratch = JobScratch::default();
        for (threads, delta) in [(1, None), (1, Some(2)), (2, None)] {
            for token in [&fired, &expired] {
                let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
                let mut cfg = SchedulerConfig::with_threads(threads);
                cfg.partition_threshold = delta;
                let (sh, reports) = run_scoped(&g, &arena, &cfg, &mut scratch, Some(token.clone()));
                assert_eq!(sh.tasks_remaining(), g.num_tasks());
                assert!(reports.iter().all(|r| r.tasks_executed == 0));
            }
        }
    }

    /// Runs one job of `threads` workers on scoped threads and returns
    /// its `Shared` for inspection, with the workers' stats.
    fn run_scoped<'g>(
        g: &'g TaskGraph,
        arena: &'g TableArena,
        cfg: &'g SchedulerConfig,
        scratch: &'g mut JobScratch,
        cancel: Option<CancelToken>,
    ) -> (Shared<'g>, Vec<ThreadStats>) {
        let threads = cfg.num_threads;
        // SAFETY: the calling test is the arena's only user; the scope
        // joins every worker before `Shared` is returned.
        let mut sh = unsafe { Shared::prepare(g, arena, cfg, threads, scratch) };
        sh.set_cancel(cancel);
        let stats = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|id| {
                    let shr = &sh;
                    s.spawn(move || worker(shr, id))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (sh, stats)
    }

    fn ll_ops(sh: &Shared<'_>) -> usize {
        sh.lls.iter().map(|ll| ll.ops.load(Ordering::Relaxed)).sum()
    }

    /// Counted, not timed: a one-worker job never goes through a local
    /// list, a two-worker job pushes and pops every task through one.
    /// The books the walk keeps by hand must still read like Algorithm
    /// 2's: every task executed once, every non-root task allocated.
    #[test]
    fn one_worker_job_takes_no_ll_operations() {
        let (g, pots) = asia_setup();
        let roots = g.initial_ready().len();
        let mut scratch = JobScratch::default();

        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let cfg = SchedulerConfig::with_threads(1);
        let (sh, stats) = run_scoped(&g, &arena, &cfg, &mut scratch, None);
        assert!(ll_ops(&sh) <= roots, "{} LL operations", ll_ops(&sh));
        assert_eq!(sh.tasks_remaining(), 0);
        sh.assert_drained();
        assert_eq!(stats[0].tasks_executed, g.num_tasks());
        assert_eq!(stats[0].weight_executed, g.total_weight());
        assert_eq!(stats[0].allocations as usize, g.num_tasks() - roots);
        drop(sh);

        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let cfg = SchedulerConfig::with_threads(2);
        let (sh, _) = run_scoped(&g, &arena, &cfg, &mut scratch, None);
        assert!(
            ll_ops(&sh) >= g.num_tasks(),
            "{} LL operations",
            ll_ops(&sh)
        );
    }

    /// One worker at tiny δ (every part inline, in index order) computes
    /// the very bits eight workers racing over the same parts do.
    #[test]
    fn one_worker_partitioned_walk_is_bitwise_the_parallel_answer() {
        let (g, pots) = asia_setup();
        for delta in [1, 2, 3] {
            let run = |threads: usize| {
                let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
                let cfg = SchedulerConfig::with_threads(threads).with_delta(delta);
                let report = run_collaborative(&g, &arena, &cfg);
                (arena.into_tables(), report)
            };
            let (one, report_one) = run(1);
            let (eight, report_eight) = run(8);
            for (i, (a, b)) in one.iter().zip(&eight).enumerate() {
                assert_eq!(a.data(), b.data(), "buffer {i} at δ = {delta}");
            }
            assert_eq!(report_one.partitioned_tasks, report_eight.partitioned_tasks);
            assert_eq!(report_one.subtasks_spawned, report_eight.subtasks_spawned);
            let executed =
                |r: &RunReport| -> usize { r.threads.iter().map(|t| t.tasks_executed).sum() };
            assert_eq!(executed(&report_one), executed(&report_eight));
        }
    }

    /// The weight-aware initial distribution: with one worker far ahead
    /// in weight, new roots must land on the lighter workers first.
    #[test]
    fn prepare_distributes_roots_by_weight() {
        let (g, pots) = asia_setup();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let cfg = SchedulerConfig::with_threads(2);
        // SAFETY: sole user of the arena; no workers run in this test.
        let mut scratch = JobScratch::default();
        let sh = unsafe { Shared::prepare(&g, &arena, &cfg, 2, &mut scratch) };
        let weights: Vec<u64> = sh
            .lls
            .iter()
            .map(|ll| ll.weight.load(Ordering::Relaxed))
            .collect();
        let total: u64 = g.initial_ready().iter().map(|&t| g.task(t).weight).sum();
        assert_eq!(weights.iter().sum::<u64>(), total);
        // least-loaded placement keeps the gap below the heaviest root
        let heaviest = g
            .initial_ready()
            .iter()
            .map(|&t| g.task(t).weight)
            .max()
            .unwrap_or(0);
        assert!(weights[0].abs_diff(weights[1]) <= heaviest);
    }
}
