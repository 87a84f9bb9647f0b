//! The message emitter and dirty-slice extraction.
//!
//! [`TaskGraph::emit_messages`] writes every task list this crate
//! builds: the collect messages into a set of re-collected cliques,
//! then the distribute messages along a sequence of edges, with
//! [`Hazards`] deriving each task's dependencies from the buffers it
//! reads and writes. The full two-phase graph is the slice that
//! re-collects every clique and distributes every edge fresh.
//!
//! After a full two-phase propagation, the table arena holds every
//! clique belief, every collect message `ψ*_S` (`sep_up`) and every
//! distribute separator `ψ**_S` (`sep_down`). A later query under
//! slightly different evidence can reuse most of that state:
//!
//! * a child's collect message depends only on the evidence inside its
//!   subtree, so messages from *clean* subtrees are still valid and are
//!   re-multiplied from their cached `sep_up` buffers without
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
//! arena unchanged. Every task takes its plan id from the full graph's
//! per-clique plan table, interned once by `build`: building a slice
//! never touches the [`PlanCache`](crate::PlanCache)'s shapes and never
//! compiles a kernel. A session rebuilds one scaffold per query
//! ([`TaskGraph::slice_into`]), and once its storage has grown to the
//! largest slice it has seen, a rebuild allocates nothing.

use crate::graph::{BufferId, Phase, Task, TaskGraph, TaskId, TaskKind};
use evprop_jtree::{CliqueId, TreeShape};
use std::sync::OnceLock;

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
    /// An empty plan (nothing to re-collect, no path) for an `n`-clique
    /// tree.
    pub fn default_for(n: usize) -> Self {
        SlicePlan {
            recollect: vec![false; n],
            path: Vec::new(),
        }
    }

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
/// the serialization of same-buffer writers: the emitter writes the
/// multiplies into a clique in children order, in the full graph and in
/// every slice alike, which keeps slice arithmetic bit-identical to
/// full propagation on unpartitioned runs.
///
/// A slice scaffold keeps its tracker across rebuilds: the per-buffer
/// tables are sized once, and a rebuild resets only the buffers the
/// previous one touched.
#[derive(Clone, Debug, Default)]
pub(crate) struct Hazards {
    /// Per buffer: the last task that wrote it.
    last_write: Vec<Option<TaskId>>,
    /// Per buffer: its newest reader since that write, as an index into
    /// `reads`.
    last_read: Vec<Option<u32>>,
    /// Reader chains: a reader and the index of the same buffer's
    /// previous reader.
    reads: Vec<(TaskId, Option<u32>)>,
    /// Buffers with an entry in `last_write` or `last_read`.
    touched: Vec<BufferId>,
    /// Every emitted task's dependencies, flat in task order.
    preds: Vec<TaskId>,
}

impl Hazards {
    /// Forgets the previous rebuild of a graph with `buffers` buffers.
    fn restart(&mut self, buffers: usize) {
        if self.last_write.len() != buffers {
            *self = Hazards {
                last_write: vec![None; buffers],
                last_read: vec![None; buffers],
                ..Hazards::default()
            };
        }
        for b in self.touched.drain(..) {
            self.last_write[b.index()] = None;
            self.last_read[b.index()] = None;
        }
        self.reads.clear();
        self.preds.clear();
    }

    fn touch(&mut self, b: BufferId) {
        if self.last_write[b.index()].is_none() && self.last_read[b.index()].is_none() {
            self.touched.push(b);
        }
    }

    fn emit(&mut self, g: &mut TaskGraph, task: Task) {
        let id = TaskId(g.tasks.len());
        let kind = task.kind;
        let dst = kind.dst();
        let start = self.preds.len();
        let preds = &mut self.preds;
        let mut add = |t: TaskId| {
            if !preds[start..].contains(&t) {
                preds.push(t);
            }
        };
        for r in kind.reads().chain([dst]) {
            if let Some(w) = self.last_write[r.index()] {
                add(w);
            }
        }
        let mut reader = self.last_read[dst.index()];
        while let Some(i) = reader {
            let (r, previous) = self.reads[i as usize];
            add(r);
            reader = previous;
        }
        g.tasks.push(task);
        g.pred_count.push((self.preds.len() - start) as u32);
        for r in kind.reads().filter(|&r| r != dst) {
            self.touch(r);
            self.reads.push((id, self.last_read[r.index()]));
            let newest = u32::try_from(self.reads.len() - 1).expect("read count fits u32");
            self.last_read[r.index()] = Some(newest);
        }
        self.touch(dst);
        self.last_write[dst.index()] = Some(id);
        self.last_read[dst.index()] = None;
    }
}

impl TaskGraph {
    /// Replaces this graph's tasks and dependency edges with the
    /// messages of one propagation over its own buffer and plan tables
    /// (Fig. 2c), `hz` deriving every dependency: the collect messages
    /// into the cliques `recollect` flags, then the distribute chains of
    /// the `path` edges, as [`TaskGraph::incremental_slice`] describes.
    /// The multiplies into a parent run in children order. `max`
    /// selects max-marginalization.
    ///
    /// # Panics
    ///
    /// Panics if a flagged clique's parent is not flagged (`recollect`
    /// must be upward-closed) or if a path edge's child is the root.
    pub(crate) fn emit_messages(
        &mut self,
        hz: &mut Hazards,
        shape: &TreeShape,
        recollect: &[bool],
        path: impl IntoIterator<Item = (CliqueId, EdgeUpdate)>,
        max: bool,
    ) {
        self.tasks.clear();
        self.pred_count.clear();
        hz.restart(self.buffers.len());

        for c in shape.postorder() {
            let Some(p) = shape.parent(c) else { continue };
            let dirty = recollect[c.index()];
            if !recollect[p.index()] {
                assert!(
                    !dirty,
                    "recollect set must be upward-closed ({c:?} flagged, parent {p:?} not)"
                );
                continue;
            }
            let (eb, ep) = self.edge(c);
            if dirty {
                let task = Task {
                    kind: TaskKind::Marginalize {
                        src: self.clique_buffers[c.index()],
                        dst: eb.sep_up,
                        max,
                    },
                    // == the interned plan's ops(): one op per scan
                    // entry, without forcing compilation
                    weight: shape.domain(c).size() as u64,
                    phase: Phase::Collect,
                    clique: c,
                    plan: Some(ep.up),
                };
                hz.emit(self, task);
            }
            let task = Task {
                kind: TaskKind::Multiply {
                    src: eb.sep_up,
                    dst: self.clique_buffers[p.index()],
                },
                weight: shape.domain(p).size() as u64,
                phase: Phase::Collect,
                clique: p,
                plan: Some(ep.down),
            };
            hz.emit(self, task);
        }

        for (c, update) in path {
            if update == EdgeUpdate::Skip {
                continue;
            }
            let p = shape.parent(c).expect("path edges name non-root children");
            let (eb, ep) = self.edge(c);
            let down = eb.down;
            let parent = self.clique_buffers[p.index()];
            let clique_len = shape.domain(c).size() as u64;
            let sep_len = shape.parent_separator(c).size() as u64;
            let marg = |dst: BufferId| Task {
                kind: TaskKind::Marginalize {
                    src: parent,
                    dst,
                    max,
                },
                weight: shape.domain(p).size() as u64,
                phase: Phase::Distribute,
                clique: p,
                plan: Some(ep.down),
            };
            let div = |num: BufferId, den: BufferId| Task {
                kind: TaskKind::Divide {
                    num,
                    den,
                    dst: down.ratio_down,
                },
                weight: sep_len,
                phase: Phase::Distribute,
                clique: c,
                plan: None,
            };
            match update {
                EdgeUpdate::Fresh => {
                    // Standard Hugin chain: μ_new = Σ_p B(p), ratio
                    // against the child's fresh collect separator.
                    hz.emit(self, marg(down.sep_down));
                    hz.emit(self, div(down.sep_down, eb.sep_up));
                }
                EdgeUpdate::Stale => {
                    // Division update: stash μ_new, ratio it against
                    // the *stored* μ_old in sep_down, then persist
                    // μ_new into sep_down (ordered after the divide's
                    // read by the hazard tracker) so the invariant
                    // "sep_down is the separator marginal of the
                    // child's belief" holds at the child's new epoch.
                    hz.emit(self, marg(eb.stash));
                    hz.emit(self, div(eb.stash, down.sep_down));
                    hz.emit(self, marg(down.sep_down));
                }
                EdgeUpdate::Skip => unreachable!(),
            }
            let extend = Task {
                kind: TaskKind::Extend {
                    src: down.ratio_down,
                    dst: down.ext_down,
                },
                weight: clique_len,
                phase: Phase::Distribute,
                clique: c,
                plan: Some(ep.up),
            };
            hz.emit(self, extend);
            let multiply = Task {
                kind: TaskKind::Multiply {
                    src: down.ext_down,
                    dst: self.clique_buffers[c.index()],
                },
                weight: clique_len,
                phase: Phase::Distribute,
                clique: c,
                plan: Some(self.clique_plans[c.index()].own),
            };
            hz.emit(self, multiply);
        }

        self.link_successors(&hz.preds);
    }

    /// Builds the dirty-slice graph for `plan` over this full two-phase
    /// graph. The result shares this graph's buffer table (same ids,
    /// same count), so it executes on an arena initialized for the full
    /// graph; its tasks carry this graph's interned plan ids.
    ///
    /// The collect part walks `shape` in postorder: at each non-root
    /// clique whose parent is flagged in `plan.recollect`, it
    /// recomputes the clique's message (`Marginalize` into `sep_up`) if
    /// the clique is flagged too, then multiplies that message — fresh
    /// or cached — into the parent. The distribute part walks
    /// `plan.path` from the root outward, emitting the standard chain
    /// for [`EdgeUpdate::Fresh`] edges and the division-against-stored-
    /// `sep_down` chain for [`EdgeUpdate::Stale`] edges. The slice that
    /// flags every clique and names every non-root clique in preorder
    /// as `Fresh` is [`TaskGraph::from_shape`]'s graph.
    ///
    /// # Panics
    ///
    /// Panics if `plan.recollect` is flagged on a clique whose parent is
    /// not flagged (the set must be upward-closed) or if a path edge's
    /// child is the root.
    pub fn incremental_slice(&self, shape: &TreeShape, plan: &SlicePlan) -> TaskGraph {
        let mut g = self.slice_scaffold();
        self.slice_into(&mut g, shape, plan);
        g
    }

    /// An empty slice graph sharing this graph's buffer table, plan
    /// table, a clone of its interned plans and its resolved plans — the
    /// reusable scaffold for [`TaskGraph::slice_into`]. Cloning the
    /// buffer specs and the plan index is the expensive part of slice
    /// construction (`O(buffers)` domain clones plus a hashmap
    /// rebuild); a session answering many incremental queries builds
    /// one scaffold and refills its task list per query instead of
    /// paying that cost every time.
    pub fn slice_scaffold(&self) -> TaskGraph {
        TaskGraph {
            tasks: Vec::new(),
            succ: Vec::new(),
            succ_start: vec![0],
            pred_count: Vec::new(),
            buffers: self.buffers.clone(),
            clique_buffers: self.clique_buffers.clone(),
            edge_buffers: self.edge_buffers.clone(),
            clique_plans: self.clique_plans.clone(),
            plans: self.plans.clone(),
            layout_id: self.layout_id,
            // A slice only uses plans the full graph's tasks use, so its
            // origin's table serves every rebuild.
            resolved: OnceLock::from(self.resolved_plans().to_vec()),
            hazards: Hazards::default(),
        }
    }

    /// Rebuilds the dirty-slice task list for `plan` **into**
    /// `scratch`, a scaffold previously obtained from
    /// [`TaskGraph::slice_scaffold`] on this same graph. The scratch
    /// graph's tasks, dependency edges and per-task δ-subrange plan
    /// memo are replaced (task ids are reassigned on every rebuild);
    /// its buffer table, interned and resolved plans and the storage of
    /// the previous rebuild are kept. Work is `O(slice)`, with no plan
    /// interning and — once the scaffold's storage has grown to the
    /// largest slice it has built — no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`TaskGraph::incremental_slice`],
    /// or if `scratch` was not scaffolded from this graph (or a clone
    /// of it).
    pub fn slice_into(&self, scratch: &mut TaskGraph, shape: &TreeShape, plan: &SlicePlan) {
        assert_eq!(
            plan.recollect.len(),
            shape.num_cliques(),
            "one recollect flag per clique"
        );
        assert_eq!(
            scratch.layout_id, self.layout_id,
            "scratch graph was not scaffolded from this graph"
        );
        scratch.plans.reset_memo();
        let mut hz = std::mem::take(&mut scratch.hazards);
        let path = plan.path.iter().copied();
        scratch.emit_messages(&mut hz, shape, &plan.recollect, path, false);
        scratch.hazards = hz;
        debug_assert!(
            scratch.validate().is_ok(),
            "slice builder produced invalid graph"
        );
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
        // the slice is one multiply from the cached sep_up
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

    /// A scaffold of a different tree with the same buffer count would
    /// run this graph's plan ids against its own buffer table.
    #[test]
    #[should_panic(expected = "scaffolded")]
    fn scaffold_of_another_tree_is_refused() {
        let shape = path4();
        let star = TreeShape::new(
            vec![dom(&[0, 1, 2]), dom(&[0]), dom(&[1]), dom(&[2])],
            &[(0, 1), (0, 2), (0, 3)],
            0,
        )
        .unwrap();
        let full = TaskGraph::from_shape(&shape);
        let other = TaskGraph::from_shape(&star);
        assert_eq!(other.buffers().len(), full.buffers().len());
        let mut scratch = other.slice_scaffold();
        full.slice_into(&mut scratch, &shape, &SlicePlan::default_for(4));
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
