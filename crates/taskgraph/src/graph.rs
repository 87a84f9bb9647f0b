//! The task DAG data structures.

use crate::plan_cache::{PlanCache, PlanId};
use crate::slice::Hazards;
use evprop_jtree::CliqueId;
use evprop_potential::plan::KernelPlan;
use evprop_potential::{Domain, EntryRange, PrimitiveKind};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Index of a task in a [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Index of a buffer (a potential table the tasks read/write).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BufferId(pub usize);

impl BufferId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// How an engine initializes a buffer before propagation starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferInit {
    /// Copy the junction tree's initial potential of this clique (then
    /// absorb evidence into it).
    CliquePotential(CliqueId),
    /// Scratch (marginalization targets, ratios, extended ratios):
    /// contents unspecified until a task writes
    /// them; `initialize` zero-fills, `reset` leaves them. Every graph
    /// `build` emits writes each scratch buffer over its full length
    /// before any task reads it; an incremental slice may read one a
    /// previous full job or slice left behind.
    Scratch,
    /// Scratch no built graph touches: an incremental slice's stale
    /// edge writes it before it reads it (the edge's `stash`).
    /// `initialize` zero-fills, `reset` leaves it.
    SliceScratch,
}

/// Size and initialization of one buffer.
#[derive(Clone, Debug)]
pub struct BufferSpec {
    /// The buffer's variable set.
    pub domain: Domain,
    /// How to initialize it.
    pub init: BufferInit,
}

/// The scratch-buffer ids of one junction-tree edge (identified by its
/// child clique). Recorded at build time so incremental slices
/// ([`TaskGraph::incremental_slice`]) can re-address the exact buffers
/// the full graph uses.
#[derive(Clone, Copy, Debug)]
pub struct EdgeBuffers {
    /// ψ*_S — the collect message: the child clique's marginal, which
    /// the parent multiplies in through the (parent, separator) plan.
    /// A session's clean child keeps it as its cached message.
    pub sep_up: BufferId,
    /// Separator-sized scratch a stale slice edge stashes the parent's
    /// new marginal in (written before it is read; unused by built
    /// graphs).
    pub stash: BufferId,
    /// Distribute-phase buffers.
    pub down: DownBuffers,
}

/// Distribute-phase scratch for one edge.
#[derive(Clone, Copy, Debug)]
pub struct DownBuffers {
    /// ψ**_S — distribute-phase marginal of the parent clique.
    pub sep_down: BufferId,
    /// ψ**_S / ψ*_S — distribute-phase ratio.
    pub ratio_down: BufferId,
    /// The ratio extended over the child clique's domain.
    pub ext_down: BufferId,
}

/// The interned full-range plan shapes of one clique `C` (parent `P`,
/// parent separator `S`). Every full-range plan a built graph or a
/// slice emits is one of these, so `build` interns each once and
/// everything after copies ids.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CliquePlans {
    /// (C, C): every distribute multiplication into `C`.
    pub(crate) own: PlanId,
    /// The plans of the edge to `P`; `None` for the root.
    pub(crate) edge: Option<EdgePlans>,
}

/// The two index maps of one junction-tree edge (identified by its
/// child clique `C`, parent `P`, separator `S`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgePlans {
    /// (C, S): the collect marginalization out of `C` and the
    /// distribute extension into it.
    pub(crate) up: PlanId,
    /// (P, S): the collect multiplication into `P` and the distribute
    /// marginalization out of it.
    pub(crate) down: PlanId,
}

/// Which algebra the propagation runs in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PropagationMode {
    /// Ordinary evidence propagation: marginals are sums.
    #[default]
    SumProduct,
    /// Dawid max-propagation: marginals are maxima; calibrated cliques
    /// hold max-marginals, from which the most probable explanation is
    /// decoded.
    MaxProduct,
}

/// Which propagation phase a task belongs to (the two symmetric halves of
/// the clique updating graph, Fig. 2a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Evidence flows leaves → root.
    Collect,
    /// Evidence flows root → leaves.
    Distribute,
}

/// The operation a task performs. Every task writes exactly one buffer
/// (`dst`) and reads at most two others — the invariant that makes
/// DAG-ordered parallel execution race-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// `dst = Σ src` over the eliminated variables (`dst`'s domain ⊆
    /// `src`'s). The task zeroes `dst` before accumulating.
    Marginalize {
        /// Clique-sized source.
        src: BufferId,
        /// Separator-sized destination.
        dst: BufferId,
        /// `false` = sum out (ordinary evidence propagation);
        /// `true` = max out (Dawid max-propagation for MPE queries).
        max: bool,
    },
    /// `dst = num / den` elementwise with `0/0 = 0` (identical domains).
    Divide {
        /// The separator's new marginal (ψ**_S).
        num: BufferId,
        /// The marginal it replaces (ψ*_S).
        den: BufferId,
        /// Ratio output.
        dst: BufferId,
    },
    /// `dst[i] = src[project(i)]`: replicate a separator over a clique
    /// domain (`src`'s domain ⊆ `dst`'s).
    Extend {
        /// Separator-sized source.
        src: BufferId,
        /// Clique-sized destination.
        dst: BufferId,
    },
    /// `dst[i] *= src[project(i)]` (`src`'s domain ⊆ `dst`'s): the
    /// collect message multiplies a separator straight into the parent
    /// clique, the distribute message its extended ratio (identical
    /// domains) into the child.
    Multiply {
        /// Separator or extended-ratio source.
        src: BufferId,
        /// Clique potential destination.
        dst: BufferId,
    },
}

impl TaskKind {
    /// The buffer this task writes.
    pub fn dst(&self) -> BufferId {
        match *self {
            TaskKind::Marginalize { dst, .. }
            | TaskKind::Divide { dst, .. }
            | TaskKind::Extend { dst, .. }
            | TaskKind::Multiply { dst, .. } => dst,
        }
    }

    /// The buffers this task reads (one or two), without allocating.
    pub fn reads(&self) -> impl Iterator<Item = BufferId> {
        let (first, second) = match *self {
            TaskKind::Marginalize { src, .. } | TaskKind::Extend { src, .. } => (src, None),
            TaskKind::Divide { num, den, .. } => (num, Some(den)),
            TaskKind::Multiply { src, dst } => (src, Some(dst)),
        };
        std::iter::once(first).chain(second)
    }

    /// The node-level primitive this task performs.
    pub fn primitive(&self) -> PrimitiveKind {
        match self {
            TaskKind::Marginalize { .. } => PrimitiveKind::Marginalize,
            TaskKind::Divide { .. } => PrimitiveKind::Divide,
            TaskKind::Extend { .. } => PrimitiveKind::Extend,
            TaskKind::Multiply { .. } => PrimitiveKind::Multiply,
        }
    }
}

/// One schedulable task: a primitive plus bookkeeping.
#[derive(Clone, Debug)]
pub struct Task {
    /// What to execute.
    pub kind: TaskKind,
    /// Work size — the scheduler's load-balancing weight and the
    /// simulator's cost driver. Derived from the compiled plan's
    /// inner-loop op count ([`KernelPlan::ops`]), which equals the
    /// partitionable table's length (source for marginalization,
    /// destination otherwise); `Divide` has no cross-domain plan and
    /// keeps its separator length.
    pub weight: u64,
    /// Which propagation phase the task belongs to.
    pub phase: Phase,
    /// The clique whose update this task is part of (the *receiving*
    /// clique of the message).
    pub clique: CliqueId,
    /// The interned full-range [`KernelPlan`] for this task's
    /// cross-domain index map; `None` for `Divide`, which is
    /// contiguous on both sides.
    pub plan: Option<PlanId>,
}

/// Errors detected by [`TaskGraph::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskGraphError {
    /// The graph has a dependency cycle (builder bug).
    Cyclic,
    /// A task references a buffer id out of range.
    BadBuffer(TaskId),
    /// Two tasks write the same buffer without an ordering path between
    /// them (write-write race).
    UnorderedWriters(TaskId, TaskId),
}

impl fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskGraphError::Cyclic => write!(f, "task graph contains a cycle"),
            TaskGraphError::BadBuffer(t) => write!(f, "task {t:?} references unknown buffer"),
            TaskGraphError::UnorderedWriters(a, b) => {
                write!(f, "tasks {a:?} and {b:?} write the same buffer unordered")
            }
        }
    }
}

impl Error for TaskGraphError {}

/// The global task dependency graph `G` plus the buffer table it runs on.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    /// Successor lists, flat in task order: task `t`'s successors are
    /// `succ[succ_start[t]..succ_start[t + 1]]`, ascending.
    pub(crate) succ: Vec<TaskId>,
    pub(crate) succ_start: Vec<usize>,
    pub(crate) pred_count: Vec<u32>,
    pub(crate) buffers: Vec<BufferSpec>,
    /// Buffer holding each clique's potential, indexed by clique id.
    pub(crate) clique_buffers: Vec<BufferId>,
    /// Per-edge scratch buffers, indexed by child clique (`None` for the
    /// root, which has no parent edge).
    pub(crate) edge_buffers: Vec<Option<EdgeBuffers>>,
    /// Per-clique interned plan ids, indexed by clique id.
    pub(crate) clique_plans: Vec<CliquePlans>,
    /// Interned kernel plans compiled at build time (plus lazily
    /// interned δ-subrange plans the scheduler adds at run time).
    pub(crate) plans: PlanCache,
    /// Identity of the buffer table: graphs with equal ids have equal
    /// `buffers` (a clone or a slice scaffold of one build), so an arena
    /// can recognize its graph without walking the domains. Graphs with
    /// different ids may still share a layout.
    pub(crate) layout_id: u64,
    /// The tasks' full-range plans indexed by [`PlanId`], resolved
    /// through `plans` by the first [`TaskGraph::task_plan_ref`] (a
    /// slice scaffold copies its origin's) and borrowed from then on.
    pub(crate) resolved: OnceLock<Vec<Option<Arc<KernelPlan>>>>,
    /// The message emitter's reusable state (empty outside slice
    /// scaffolds).
    pub(crate) hazards: Hazards,
}

/// A process-wide fresh [`TaskGraph::layout_id`].
pub(crate) fn fresh_layout_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl TaskGraph {
    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The task with the given id.
    #[inline]
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.index()]
    }

    /// All tasks, indexed by id.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Successor tasks of `t` (tasks with an incoming edge from `t`).
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        &self.succ[self.succ_start[t.index()]..self.succ_start[t.index() + 1]]
    }

    /// Initial dependency degree of `t` (number of incoming edges).
    #[inline]
    pub fn dependency_degree(&self, t: TaskId) -> u32 {
        self.pred_count[t.index()]
    }

    /// Buffer specifications, indexed by [`BufferId`].
    #[inline]
    pub fn buffers(&self) -> &[BufferSpec] {
        &self.buffers
    }

    /// The buffer holding clique `c`'s potential.
    #[inline]
    pub fn clique_buffer(&self, c: CliqueId) -> BufferId {
        self.clique_buffers[c.index()]
    }

    /// The scratch buffers of the edge whose child clique is `c`
    /// (`None` for the root). In replicated graphs this refers to copy
    /// 0, like [`TaskGraph::clique_buffer`].
    #[inline]
    pub fn edge_buffers(&self, c: CliqueId) -> Option<EdgeBuffers> {
        self.edge_buffers[c.index()]
    }

    /// The first **clique-initialized** buffer whose domain contains
    /// `var`, or `None` when no clique covers it. Engines use this to
    /// route evidence: hard evidence must land in at least one clique,
    /// and each soft likelihood is multiplied into exactly the clique
    /// returned here (applying it to more than one would double-count
    /// the observation).
    pub fn clique_buffer_containing(&self, var: evprop_potential::VarId) -> Option<BufferId> {
        self.buffers
            .iter()
            .enumerate()
            .find(|(_, spec)| {
                matches!(spec.init, BufferInit::CliquePotential(_)) && spec.domain.contains(var)
            })
            .map(|(i, _)| BufferId(i))
    }

    /// The graph's interned kernel-plan cache.
    #[inline]
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// The partitionable table's length for task `t` — the source for
    /// marginalization, the destination otherwise. This is the length
    /// the scheduler's Partition module splits into δ-sized subranges
    /// (decoupled from [`Task::weight`], which is an op count).
    pub fn partition_len(&self, t: TaskId) -> usize {
        let task = &self.tasks[t.index()];
        let buf = match task.kind {
            TaskKind::Marginalize { src, .. } => src,
            _ => task.kind.dst(),
        };
        self.buffers[buf.index()].domain.size()
    }

    /// The (scan, target) domains of task `t`'s cross-domain index
    /// map: scan is walked linearly (marginalization source;
    /// extension/multiplication destination), target is projected.
    /// `None` for `Divide`, which never crosses domains.
    pub fn scan_target_domains(&self, t: TaskId) -> Option<(&Domain, &Domain)> {
        match self.tasks[t.index()].kind {
            TaskKind::Marginalize { src, dst, .. } => Some((
                &self.buffers[src.index()].domain,
                &self.buffers[dst.index()].domain,
            )),
            TaskKind::Extend { src, dst } | TaskKind::Multiply { src, dst } => Some((
                &self.buffers[dst.index()].domain,
                &self.buffers[src.index()].domain,
            )),
            TaskKind::Divide { .. } => None,
        }
    }

    /// The full-range compiled plan of task `t` (`None` for `Divide`).
    pub fn task_plan(&self, t: TaskId) -> Option<Arc<KernelPlan>> {
        self.tasks[t.index()].plan.map(|id| self.plans.get(id))
    }

    /// [`task_plan`](Self::task_plan) without the per-call cache lock
    /// and `Arc` traffic — the executors' per-task lookup. The first
    /// call resolves (and so compiles) the full-range plan of **every**
    /// task into a table the graph keeps; later calls index it.
    pub fn task_plan_ref(&self, t: TaskId) -> Option<&KernelPlan> {
        let id = self.tasks[t.index()].plan?;
        let plan = self.resolved_plans()[id.index()].as_deref();
        Some(plan.expect("every task's plan is resolved"))
    }

    /// The resolved-plan table behind [`task_plan_ref`](Self::task_plan_ref):
    /// `Some` at the id of every plan a task of this graph uses.
    pub(crate) fn resolved_plans(&self) -> &[Option<Arc<KernelPlan>>] {
        self.resolved.get_or_init(|| {
            let mut table = vec![None; self.plans.len()];
            for id in self.tasks.iter().filter_map(|task| task.plan) {
                table[id.index()].get_or_insert_with(|| self.plans.get(id));
            }
            table
        })
    }

    /// Identity of this graph's buffer table: equal ids imply equal
    /// [`buffers`](Self::buffers) (clones and slice scaffolds keep their
    /// origin's id), so an arena initialized for one is laid out for
    /// the other. Different ids imply nothing.
    #[inline]
    pub fn layout_id(&self) -> u64 {
        self.layout_id
    }

    /// The compiled plan for subrange `range` of task `t`, interned on
    /// first use and cached thereafter (`None` for `Divide`). This is
    /// the execution-time lookup for δ-partitioned subtasks; use
    /// [`ranged_plan_id`](Self::ranged_plan_id) when only the id (and
    /// no compiled program) is needed.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the task's partitionable table — the
    /// scheduler only splits in-bounds ranges.
    pub fn ranged_plan(&self, t: TaskId, range: EntryRange) -> Option<(PlanId, Arc<KernelPlan>)> {
        let id = self.ranged_plan_id(t, range)?;
        Some((id, self.plans.get(id)))
    }

    /// Interns (or re-keys) the plan shape for subrange `range` of task
    /// `t` without compiling it — the scheduler's allocation-time path,
    /// which needs only the id to stamp on a subtask. `None` for
    /// `Divide`.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the task's partitionable table.
    pub fn ranged_plan_id(&self, t: TaskId, range: EntryRange) -> Option<PlanId> {
        let (scan, target) = self.scan_target_domains(t)?;
        let id = self
            .plans
            .for_task_range(t, scan, target, range)
            .expect("scheduler ranges are in bounds for compiled domains");
        Some(id)
    }

    /// Tasks with dependency degree zero — schedulable immediately.
    pub fn initial_ready(&self) -> Vec<TaskId> {
        (0..self.num_tasks())
            .map(TaskId)
            .filter(|&t| self.pred_count[t.index()] == 0)
            .collect()
    }

    /// Sum of all task weights — the serial work `W`.
    pub fn total_weight(&self) -> u64 {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// Weight of the heaviest dependency chain — the critical work
    /// `T_∞`; `W / T_∞` bounds achievable speedup.
    pub fn critical_path_weight(&self) -> u64 {
        let order = self
            .topological_order()
            .expect("graphs built here are acyclic");
        let mut longest = vec![0u64; self.num_tasks()];
        let mut best = 0;
        for &t in &order {
            let w = longest[t.index()] + self.tasks[t.index()].weight;
            best = best.max(w);
            for &s in self.successors(t) {
                longest[s.index()] = longest[s.index()].max(w);
            }
        }
        best
    }

    /// Replicates the graph `copies` times into one disjoint-union DAG:
    /// copy `i`'s task `t` becomes task `i·T + t` and its buffers shift
    /// by `i·B`. Scheduling a batch of independent evidence cases through
    /// one replicated graph exposes *inter-case* parallelism — exactly
    /// what small-table trees (the paper's `w=10, r=2` outlier) lack
    /// within a single case.
    ///
    /// The returned graph's [`TaskGraph::clique_buffer`] mapping refers to
    /// copy 0; copy `i`'s clique `c` lives at buffer
    /// `clique_buffer(c) + i · buffers_per_copy`.
    ///
    /// ```
    /// use evprop_bayesnet::networks;
    /// use evprop_jtree::JunctionTree;
    /// use evprop_taskgraph::TaskGraph;
    /// let jt = JunctionTree::from_network(&networks::asia()).unwrap();
    /// let g = TaskGraph::from_shape(jt.shape());
    /// let batch = g.replicate(4);
    /// assert_eq!(batch.num_tasks(), 4 * g.num_tasks());
    /// assert_eq!(batch.critical_path_weight(), g.critical_path_weight());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`.
    pub fn replicate(&self, copies: usize) -> TaskGraph {
        assert!(copies > 0, "need at least one copy");
        let t = self.num_tasks();
        let b = self.buffers.len();
        let e = self.succ.len();
        let mut tasks = Vec::with_capacity(t * copies);
        let mut succ = Vec::with_capacity(e * copies);
        let mut succ_start = Vec::with_capacity(t * copies + 1);
        let mut pred_count = Vec::with_capacity(t * copies);
        let mut buffers = Vec::with_capacity(b * copies);
        for copy in 0..copies {
            let shift_buf = |id: BufferId| BufferId(id.index() + copy * b);
            for task in &self.tasks {
                let kind = match task.kind {
                    TaskKind::Marginalize { src, dst, max } => TaskKind::Marginalize {
                        src: shift_buf(src),
                        dst: shift_buf(dst),
                        max,
                    },
                    TaskKind::Divide { num, den, dst } => TaskKind::Divide {
                        num: shift_buf(num),
                        den: shift_buf(den),
                        dst: shift_buf(dst),
                    },
                    TaskKind::Extend { src, dst } => TaskKind::Extend {
                        src: shift_buf(src),
                        dst: shift_buf(dst),
                    },
                    TaskKind::Multiply { src, dst } => TaskKind::Multiply {
                        src: shift_buf(src),
                        dst: shift_buf(dst),
                    },
                };
                tasks.push(Task {
                    kind,
                    ..task.clone()
                });
            }
            succ.extend(self.succ.iter().map(|s| TaskId(s.index() + copy * t)));
            succ_start.extend(self.succ_start[..t].iter().map(|&s| s + copy * e));
            pred_count.extend_from_slice(&self.pred_count);
            buffers.extend(self.buffers.iter().cloned());
        }
        succ_start.push(copies * e);
        TaskGraph {
            tasks,
            succ,
            succ_start,
            pred_count,
            buffers,
            clique_buffers: self.clique_buffers.clone(),
            edge_buffers: self.edge_buffers.clone(),
            // Copies share domains, so the structurally interned plans
            // (and the plan ids stored on the copied tasks and in the
            // per-clique table) carry over unchanged.
            clique_plans: self.clique_plans.clone(),
            plans: self.plans.clone(),
            layout_id: fresh_layout_id(),
            resolved: OnceLock::new(),
            hazards: Hazards::default(),
        }
    }

    /// The scratch buffers and interned plans of the edge whose child
    /// clique is `c`.
    pub(crate) fn edge(&self, c: CliqueId) -> (EdgeBuffers, EdgePlans) {
        let buffers = self.edge_buffers[c.index()].expect("non-root cliques have edge buffers");
        let plans = self.clique_plans[c.index()]
            .edge
            .expect("non-root cliques have edge plans");
        (buffers, plans)
    }

    /// Turns `preds` — every task's dependencies, flat in task order,
    /// `pred_count[t]` of them for task `t` — into the successor lists,
    /// reusing their storage.
    pub(crate) fn link_successors(&mut self, preds: &[TaskId]) {
        let n = self.tasks.len();
        // Count each task's successors into the slot after its own.
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for p in preds {
            self.succ_start[p.index() + 1] += 1;
        }
        for t in 0..n {
            self.succ_start[t + 1] += self.succ_start[t];
        }
        // Place the edges with `succ_start[p]` as `p`'s cursor; walking
        // the successors in id order keeps every list ascending.
        self.succ.clear();
        self.succ.resize(preds.len(), TaskId(0));
        let mut rest = preds.iter();
        for (t, &count) in self.pred_count.iter().enumerate() {
            for p in rest.by_ref().take(count as usize) {
                self.succ[self.succ_start[p.index()]] = TaskId(t);
                self.succ_start[p.index()] += 1;
            }
        }
        // Each cursor now stands at the start of the next list.
        self.succ_start.copy_within(0..n, 1);
        self.succ_start[0] = 0;
    }

    /// A topological order, or `None` if cyclic.
    pub fn topological_order(&self) -> Option<Vec<TaskId>> {
        let n = self.num_tasks();
        let mut indeg = self.pred_count.clone();
        let mut queue: Vec<TaskId> = (0..n)
            .map(TaskId)
            .filter(|&t| indeg[t.index()] == 0)
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            out.push(t);
            for &s in self.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        (out.len() == n).then_some(out)
    }

    /// Levels for level-synchronous (OpenMP-style) execution: task `t` is
    /// in level `1 + max(level of predecessors)`.
    pub fn levels(&self) -> Vec<Vec<TaskId>> {
        let order = self
            .topological_order()
            .expect("graphs built here are acyclic");
        let mut level = vec![0usize; self.num_tasks()];
        let mut max_level = 0;
        for &t in &order {
            for &s in self.successors(t) {
                level[s.index()] = level[s.index()].max(level[t.index()] + 1);
                max_level = max_level.max(level[s.index()]);
            }
        }
        let mut out = vec![Vec::new(); max_level + 1];
        for t in (0..self.num_tasks()).map(TaskId) {
            out[level[t.index()]].push(t);
        }
        out
    }

    /// Structural validation: buffer ids in range, acyclicity, and every
    /// pair of writers to the same buffer ordered by a dependency path.
    ///
    /// O(V·E/64) via bitset reachability — meant for tests and debug
    /// assertions, not hot paths.
    ///
    /// # Errors
    ///
    /// See [`TaskGraphError`].
    pub fn validate(&self) -> Result<(), TaskGraphError> {
        let nb = self.buffers.len();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.kind
                .reads()
                .chain([t.kind.dst()])
                .any(|b| b.index() >= nb)
            {
                return Err(TaskGraphError::BadBuffer(TaskId(i)));
            }
        }
        let order = self.topological_order().ok_or(TaskGraphError::Cyclic)?;

        // reachability bitsets, processed in reverse topological order
        let n = self.num_tasks();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut row = vec![0u64; words];
        for &t in order.iter().rev() {
            let ti = t.index();
            // set own bit
            reach[ti * words + ti / 64] |= 1 << (ti % 64);
            for s in self.successors(t).iter().map(|s| s.index()) {
                row.copy_from_slice(&reach[s * words..(s + 1) * words]);
                for (d, &v) in reach[ti * words..(ti + 1) * words].iter_mut().zip(&row) {
                    *d |= v;
                }
            }
        }
        // group writers per buffer
        let mut writers: Vec<Vec<TaskId>> = vec![Vec::new(); nb];
        for (i, t) in self.tasks.iter().enumerate() {
            writers[t.kind.dst().index()].push(TaskId(i));
        }
        for ws in &writers {
            for (x, &a) in ws.iter().enumerate() {
                for &b in &ws[x + 1..] {
                    let (ai, bi) = (a.index(), b.index());
                    let a_reaches_b = reach[ai * words + bi / 64] >> (bi % 64) & 1 == 1;
                    let b_reaches_a = reach[bi * words + ai / 64] >> (ai % 64) & 1 == 1;
                    if !a_reaches_b && !b_reaches_a {
                        return Err(TaskGraphError::UnorderedWriters(a, b));
                    }
                }
            }
        }
        Ok(())
    }
}
