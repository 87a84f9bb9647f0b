//! Dirty-slice extraction: build the *fragment* of the propagation DAG
//! that an incremental evidence update actually needs to re-run.
//!
//! After a full two-phase propagation, the table arena holds every
//! clique belief, every collect separator `ψ*_S` (`sep_up`), every
//! extended collect message (`ext_up`), and every distribute separator
//! `ψ**_S` (`sep_down`). A later query under slightly different
//! evidence can reuse most of that state:
//!
//! * a child's collect message depends only on the evidence inside its
//!   subtree, so messages from *clean* subtrees are still valid and are
//!   re-multiplied from their cached `ext_up` buffers without
//!   recomputation;
//! * a clique whose belief is calibrated under older evidence can be
//!   updated Hugin-style by multiplying in the *ratio* of the new to
//!   the old parent marginal, dividing against the stored `sep_down`
//!   table — no upstream work at all (valid only when the stored
//!   denominator has no zero entry; the caller checks and falls back to
//!   full repropagation otherwise).
//!
//! [`TaskGraph::incremental_slice`] turns a [`SlicePlan`] — which
//! cliques to re-collect and which root-to-target path to distribute
//! along — into a standalone [`TaskGraph`] over the **same buffer
//! table** as the full graph, so it runs on the session's resident
//! arena unchanged. Plans are re-interned through a clone of the full
//! graph's [`PlanCache`], which makes every intern a structural cache
//! hit: a slice never compiles a kernel.

use crate::graph::{BufferId, Phase, Task, TaskGraph, TaskId, TaskKind};
use evprop_jtree::{CliqueId, TreeShape};
use evprop_potential::EntryRange;

/// How one edge on the distribute path is brought up to date (the edge
/// is identified by its child clique).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// The child was just re-collected (it holds a post-collect value
    /// for the current evidence): run the ordinary distribute chain,
    /// dividing the new parent marginal by the child's fresh `sep_up`.
    Fresh,
    /// The child's belief is calibrated under *older* evidence whose
    /// subtree part is unchanged: multiply in the ratio of the new
    /// parent marginal to the stored `sep_down`. The caller must have
    /// verified the stored `sep_down` has no zero entries.
    Stale,
    /// The child is already calibrated under the current evidence:
    /// emit nothing, just walk through it.
    Skip,
}

/// The slice a session wants executed: which cliques to re-collect and
/// which path to distribute along.
#[derive(Clone, Debug, Default)]
pub struct SlicePlan {
    /// Re-collect set, one flag per clique. Must be **upward-closed**:
    /// whenever a clique is flagged, so are all of its ancestors (the
    /// root included). Flagged cliques must have had their arena
    /// buffers re-initialized (potential copied back, current evidence
    /// absorbed) before the slice runs.
    pub recollect: Vec<bool>,
    /// Distribute edges in root-to-target order, each named by its
    /// child clique. Every edge on the path must appear (use
    /// [`EdgeUpdate::Skip`] for already-current children).
    pub path: Vec<(CliqueId, EdgeUpdate)>,
}

impl SlicePlan {
    /// Number of cliques flagged for re-collection.
    pub fn dirty_cliques(&self) -> usize {
        self.recollect.iter().filter(|&&d| d).count()
    }

    /// Number of stale edges on the distribute path.
    pub fn stale_edges(&self) -> usize {
        self.path
            .iter()
            .filter(|(_, u)| *u == EdgeUpdate::Stale)
            .count()
    }
}

/// Read/write hazard tracker: derives dependencies so that every task
/// runs after the last writer of each buffer it reads, after the last
/// writer of its destination, and after every reader of its destination
/// since that write (write-after-read). Emission order therefore fixes
/// the serialization of same-buffer writers — the slice builder emits
/// multiplies in the full graph's children order, which keeps slice
/// arithmetic bit-identical to full propagation on unpartitioned runs.
struct Hazards {
    last_write: Vec<Option<TaskId>>,
    reads_since: Vec<Vec<TaskId>>,
}

impl Hazards {
    fn new(buffers: usize) -> Self {
        Hazards {
            last_write: vec![None; buffers],
            reads_since: vec![Vec::new(); buffers],
        }
    }

    fn emit(&mut self, g: &mut TaskGraph, task: Task) -> TaskId {
        let reads = task.kind.reads();
        let dst = task.kind.dst();
        let mut deps: Vec<TaskId> = Vec::new();
        let add = |t: TaskId, deps: &mut Vec<TaskId>| {
            if !deps.contains(&t) {
                deps.push(t);
            }
        };
        for r in &reads {
            if let Some(w) = self.last_write[r.index()] {
                add(w, &mut deps);
            }
        }
        if let Some(w) = self.last_write[dst.index()] {
            add(w, &mut deps);
        }
        for &r in &self.reads_since[dst.index()] {
            add(r, &mut deps);
        }
        let id = g.push_task_pub(task, deps);
        for r in reads {
            if r != dst {
                self.reads_since[r.index()].push(id);
            }
        }
        self.last_write[dst.index()] = Some(id);
        self.reads_since[dst.index()].clear();
        id
    }
}

impl TaskGraph {
    pub(crate) fn push_task_pub(&mut self, task: Task, deps: Vec<TaskId>) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(task);
        self.succ.push(Vec::new());
        self.pred_count.push(deps.len() as u32);
        for d in deps {
            self.succ[d.index()].push(id);
        }
        id
    }

    /// Builds the dirty-slice graph for `plan` over this full two-phase
    /// graph. The result shares this graph's buffer table (same ids,
    /// same count), so it executes on an arena initialized for the full
    /// graph; its kernel plans are structural cache hits against this
    /// graph's interned plans.
    ///
    /// The collect part walks `plan.recollect` in postorder: for each
    /// flagged clique, dirty children's messages are recomputed
    /// (marginalize → extend, the divide skipped because `sep_old` is
    /// all-ones) and every child's `ext_up` — cached or fresh — is
    /// multiplied back in, in children order. The distribute part walks
    /// `plan.path` from the root outward, emitting the standard chain
    /// for [`EdgeUpdate::Fresh`] edges and the division-against-stored-
    /// `sep_down` chain for [`EdgeUpdate::Stale`] edges.
    ///
    /// # Panics
    ///
    /// Panics if `plan.recollect` is flagged on a clique whose parent is
    /// not flagged (the set must be upward-closed), if a path edge's
    /// child is the root, or if this graph lacks distribute buffers
    /// (collect-only graphs cannot slice).
    pub fn incremental_slice(&self, shape: &TreeShape, plan: &SlicePlan) -> TaskGraph {
        let mut g = self.slice_scaffold();
        self.slice_into(&mut g, shape, plan);
        g
    }

    /// An empty slice graph sharing this graph's buffer table and a
    /// clone of its interned plans — the reusable scaffold for
    /// [`TaskGraph::slice_into`]. Cloning the buffer specs and the
    /// plan index is the expensive part of slice construction
    /// (`O(buffers)` domain clones plus a hashmap rebuild); a session
    /// answering many incremental queries builds one scaffold and
    /// refills its task list per query instead of paying that cost
    /// every time.
    pub fn slice_scaffold(&self) -> TaskGraph {
        TaskGraph {
            tasks: Vec::new(),
            succ: Vec::new(),
            pred_count: Vec::new(),
            buffers: self.buffers.clone(),
            clique_buffers: self.clique_buffers.clone(),
            edge_buffers: self.edge_buffers.clone(),
            plans: self.plans.clone(),
            layout_id: self.layout_id,
            resolved: std::sync::OnceLock::new(),
        }
    }

    /// Rebuilds the dirty-slice task list for `plan` **into**
    /// `scratch`, a scaffold previously obtained from
    /// [`TaskGraph::slice_scaffold`] on this same graph. The scratch
    /// graph's tasks, dependency edges, per-task plan memo and resolved
    /// plan table are cleared (task ids are reassigned on every
    /// rebuild); its buffer table and interned plan shapes — the
    /// expensive parts — are kept.
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`TaskGraph::incremental_slice`],
    /// or if `scratch`'s buffer table does not match this graph's.
    pub fn slice_into(&self, scratch: &mut TaskGraph, shape: &TreeShape, plan: &SlicePlan) {
        let n = shape.num_cliques();
        assert_eq!(plan.recollect.len(), n, "one recollect flag per clique");
        assert_eq!(
            scratch.buffers.len(),
            self.buffers.len(),
            "scratch graph was not scaffolded from this graph"
        );
        scratch.tasks.clear();
        scratch.succ.clear();
        scratch.pred_count.clear();
        scratch.plans.reset_memo();
        scratch.resolved.take();
        let g = scratch;
        let mut hz = Hazards::new(g.buffers.len());

        // ---------------- collect along dirty paths ----------------
        for &c in &shape.postorder() {
            if !plan.recollect[c.index()] {
                continue;
            }
            if let Some(p) = shape.parent(c) {
                assert!(
                    plan.recollect[p.index()],
                    "recollect set must be upward-closed ({c:?} flagged, parent {p:?} not)"
                );
            }
            for &ch in shape.children(c) {
                let eb = self.edge_buffers[ch.index()].expect("non-root cliques have edge buffers");
                let sep_dom = shape.parent_separator(ch);
                let clique_dom = shape.domain(ch);
                let parent_dom = shape.domain(c);
                if plan.recollect[ch.index()] {
                    // Dirty child: recompute its message. The divide
                    // against sep_old is skipped — sep_old is all-ones
                    // in the resident arena, so ratio_up ≡ sep_up and
                    // extending sep_up directly produces the exact
                    // full-graph ext_up value.
                    let marg_plan = g
                        .plans
                        .intern(clique_dom, sep_dom, EntryRange::full(clique_dom.size()))
                        .expect("separator domain nests in clique domain");
                    hz.emit(
                        g,
                        Task {
                            kind: TaskKind::Marginalize {
                                src: self.clique_buffers[ch.index()],
                                dst: eb.sep_up,
                                max: false,
                            },
                            weight: clique_dom.size() as u64,
                            phase: Phase::Collect,
                            clique: ch,
                            plan: Some(marg_plan),
                        },
                    );
                    let ext_plan = g
                        .plans
                        .intern(parent_dom, sep_dom, EntryRange::full(parent_dom.size()))
                        .expect("separator domain nests in parent domain");
                    hz.emit(
                        g,
                        Task {
                            kind: TaskKind::Extend {
                                src: eb.sep_up,
                                dst: eb.ext_up,
                            },
                            weight: parent_dom.size() as u64,
                            phase: Phase::Collect,
                            clique: c,
                            plan: Some(ext_plan),
                        },
                    );
                }
                // Every child's message — cached or fresh — multiplies
                // back into the re-initialized parent, in children
                // order (matching the full graph's serialization).
                let mul_plan = g
                    .plans
                    .intern(parent_dom, parent_dom, EntryRange::full(parent_dom.size()))
                    .expect("a domain nests in itself");
                hz.emit(
                    g,
                    Task {
                        kind: TaskKind::Multiply {
                            src: eb.ext_up,
                            dst: self.clique_buffers[c.index()],
                        },
                        weight: parent_dom.size() as u64,
                        phase: Phase::Collect,
                        clique: c,
                        plan: Some(mul_plan),
                    },
                );
            }
        }

        // ------------- distribute along the query path -------------
        for &(ch, update) in &plan.path {
            if update == EdgeUpdate::Skip {
                continue;
            }
            let p = shape.parent(ch).expect("path edges name non-root children");
            let eb = self.edge_buffers[ch.index()].expect("non-root cliques have edge buffers");
            let down = eb.down.expect("incremental slices need distribute buffers");
            let sep_dom = shape.parent_separator(ch);
            let clique_dom = shape.domain(ch);
            let parent_dom = shape.domain(p);
            let sep_len = g.buffers[down.sep_down.index()].domain.size() as u64;
            let marg_plan = g
                .plans
                .intern(parent_dom, sep_dom, EntryRange::full(parent_dom.size()))
                .expect("separator domain nests in parent domain");
            let ext_plan = g
                .plans
                .intern(clique_dom, sep_dom, EntryRange::full(clique_dom.size()))
                .expect("separator domain nests in clique domain");
            let mul_plan = g
                .plans
                .intern(clique_dom, clique_dom, EntryRange::full(clique_dom.size()))
                .expect("a domain nests in itself");
            let marg = |dst: BufferId| Task {
                kind: TaskKind::Marginalize {
                    src: self.clique_buffers[p.index()],
                    dst,
                    max: false,
                },
                weight: parent_dom.size() as u64,
                phase: Phase::Distribute,
                clique: p,
                plan: Some(marg_plan),
            };
            let div = |num: BufferId, den: BufferId| Task {
                kind: TaskKind::Divide {
                    num,
                    den,
                    dst: down.ratio_down,
                },
                weight: sep_len,
                phase: Phase::Distribute,
                clique: ch,
                plan: None,
            };
            match update {
                EdgeUpdate::Fresh => {
                    // Standard Hugin chain: μ_new = Σ_p B(p), ratio
                    // against the child's fresh collect separator.
                    hz.emit(g, marg(down.sep_down));
                    hz.emit(g, div(down.sep_down, eb.sep_up));
                }
                EdgeUpdate::Stale => {
                    // Division update: stash μ_new in sep_old (unused
                    // scratch in slices), ratio it against the *stored*
                    // μ_old in sep_down, then persist μ_new into
                    // sep_down (ordered after the divide's read by the
                    // hazard tracker) so the invariant "sep_down is the
                    // separator marginal of the child's belief" holds
                    // at the child's new epoch.
                    hz.emit(g, marg(eb.sep_old));
                    hz.emit(g, div(eb.sep_old, down.sep_down));
                    hz.emit(g, marg(down.sep_down));
                }
                EdgeUpdate::Skip => unreachable!(),
            }
            hz.emit(
                g,
                Task {
                    kind: TaskKind::Extend {
                        src: down.ratio_down,
                        dst: down.ext_down,
                    },
                    weight: clique_dom.size() as u64,
                    phase: Phase::Distribute,
                    clique: ch,
                    plan: Some(ext_plan),
                },
            );
            hz.emit(
                g,
                Task {
                    kind: TaskKind::Multiply {
                        src: down.ext_down,
                        dst: self.clique_buffers[ch.index()],
                    },
                    weight: clique_dom.size() as u64,
                    phase: Phase::Distribute,
                    clique: ch,
                    plan: Some(mul_plan),
                },
            );
        }

        debug_assert!(g.validate().is_ok(), "slice builder produced invalid graph");
    }
}

impl SlicePlan {
    /// An empty plan (nothing to re-collect, no path) for an `n`-clique
    /// tree.
    pub fn default_for(n: usize) -> Self {
        SlicePlan {
            recollect: vec![false; n],
            path: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_potential::{Domain, PrimitiveKind, VarId, Variable};

    fn dom(ids: &[u32]) -> Domain {
        Domain::new(ids.iter().map(|&i| Variable::binary(VarId(i))).collect()).unwrap()
    }

    /// C0{0,1} — C1{1,2} — C2{2,3} — C3{3,4}, rooted at C0.
    fn path4() -> TreeShape {
        TreeShape::new(
            vec![dom(&[0, 1]), dom(&[1, 2]), dom(&[2, 3]), dom(&[3, 4])],
            &[(0, 1), (1, 2), (2, 3)],
            0,
        )
        .unwrap()
    }

    #[test]
    fn slice_shares_buffers_and_plans() {
        let shape = path4();
        let full = TaskGraph::from_shape(&shape);
        let plans_before = full.plans().len();
        let plan = SlicePlan {
            recollect: vec![true, true, false, false],
            path: vec![(CliqueId(1), EdgeUpdate::Fresh)],
        };
        let slice = full.incremental_slice(&shape, &plan);
        assert_eq!(slice.buffers().len(), full.buffers().len());
        // every intern was a structural cache hit
        assert_eq!(slice.plans().len(), plans_before);
        slice.validate().unwrap();
    }

    #[test]
    fn recollect_emits_cached_muls_for_clean_children() {
        let shape = path4();
        let full = TaskGraph::from_shape(&shape);
        // only the root re-collects: its single child C1 is clean, so
        // the slice is one multiply from the cached ext_up
        let plan = SlicePlan {
            recollect: vec![true, false, false, false],
            path: vec![],
        };
        let slice = full.incremental_slice(&shape, &plan);
        assert_eq!(slice.num_tasks(), 1);
        assert_eq!(
            slice.task(TaskId(0)).kind.primitive(),
            PrimitiveKind::Multiply
        );
    }

    #[test]
    fn stale_edge_emits_division_chain() {
        let shape = path4();
        let full = TaskGraph::from_shape(&shape);
        let plan = SlicePlan {
            recollect: vec![false; 4],
            path: vec![
                (CliqueId(1), EdgeUpdate::Stale),
                (CliqueId(2), EdgeUpdate::Skip),
            ],
        };
        assert_eq!(plan.stale_edges(), 1);
        let slice = full.incremental_slice(&shape, &plan);
        // Marg(μ_new) + Div + Marg(persist) + Ext + Mul, skip emits none
        assert_eq!(slice.num_tasks(), 5);
        slice.validate().unwrap();
        // the divide reads sep_down before the persisting marg rewrites it
        let order = slice.topological_order().unwrap();
        let div_pos = order
            .iter()
            .position(|&t| slice.task(t).kind.primitive() == PrimitiveKind::Divide)
            .unwrap();
        let second_marg_pos = order
            .iter()
            .rposition(|&t| slice.task(t).kind.primitive() == PrimitiveKind::Marginalize)
            .unwrap();
        assert!(div_pos < second_marg_pos);
    }

    /// `slice_into` reassigns task ids, so the resolved-plan table of
    /// the previous rebuild must not answer for the next one.
    #[test]
    fn resolved_plans_follow_the_rebuilt_task_list() {
        let shape = path4();
        let full = TaskGraph::from_shape(&shape);
        let mut scratch = full.slice_scaffold();
        let plans = [
            SlicePlan {
                recollect: vec![true, true, true, true],
                path: vec![],
            },
            SlicePlan {
                recollect: vec![true, false, false, false],
                path: vec![(CliqueId(1), EdgeUpdate::Stale)],
            },
        ];
        for plan in &plans {
            full.slice_into(&mut scratch, &shape, plan);
            assert!(scratch.num_tasks() > 0);
            for t in (0..scratch.num_tasks()).map(TaskId) {
                assert_eq!(scratch.task_plan_ref(t), scratch.task_plan(t).as_deref());
            }
        }
    }

    #[test]
    #[should_panic(expected = "upward-closed")]
    fn non_upward_closed_recollect_panics() {
        let shape = path4();
        let full = TaskGraph::from_shape(&shape);
        let plan = SlicePlan {
            recollect: vec![false, false, true, false],
            path: vec![],
        };
        let _ = full.incremental_slice(&shape, &plan);
    }

    #[test]
    fn empty_plan_builds_empty_graph() {
        let shape = path4();
        let full = TaskGraph::from_shape(&shape);
        let slice = full.incremental_slice(&shape, &SlicePlan::default_for(4));
        assert_eq!(slice.num_tasks(), 0);
    }
}
