//! Construction of the global task DAG from a tree shape (§5.2).

use crate::graph::{
    fresh_layout_id, BufferId, BufferInit, BufferSpec, CliquePlans, DownBuffers, EdgeBuffers,
    EdgePlans, PropagationMode, TaskGraph,
};
use crate::plan_cache::PlanCache;
use crate::slice::{EdgeUpdate, Hazards};
use evprop_jtree::{CliqueId, TreeShape};
use evprop_potential::{Domain, EntryRange};
use std::sync::OnceLock;

/// Each junction-tree edge expands into 6 tasks: the collect message
/// `Marginalize → Multiply` (the child's separator marginal multiplied
/// straight into the parent through the (parent, separator) index map)
/// plus the 4-primitive distribute chain `Marginalize → Divide → Extend
/// → Multiply` (Fig. 2b/c).
pub const MESSAGE_TASKS_PER_EDGE: usize = 6;

impl TaskGraph {
    /// Builds the task dependency graph for two-phase evidence propagation
    /// over `shape`, following §5.2: the clique updating graph (collect
    /// phase depending on children, distribute phase on the parent),
    /// refined by the per-edge local task chains: `Marginalize →
    /// Multiply` for a collect message and `Marginalize → Divide →
    /// Extend → Multiply` for a distribute message. The collect chain is
    /// the paper's four-primitive chain with its no-op steps dropped:
    /// the original separator it would divide by is all ones
    /// (`safe_div(x, 1.0) == x` for every finite `x`), and multiplying
    /// the parent by the extended separator is the same single
    /// multiply per entry as multiplying it by the separator through
    /// the (parent, separator) plan. Multiplications into
    /// the same clique are serialized (they share a destination table);
    /// everything else runs as parallel as the tree allows.
    ///
    /// A single-clique tree yields an empty graph — propagation is a
    /// no-op.
    pub fn from_shape(shape: &TreeShape) -> TaskGraph {
        Self::from_shape_mode(shape, PropagationMode::SumProduct)
    }

    /// Like [`TaskGraph::from_shape`], but selecting the algebra: with
    /// [`PropagationMode::MaxProduct`] the marginalization tasks maximize
    /// instead of summing, producing the max-calibrated tree used for
    /// most-probable-explanation queries. The graph structure, weights
    /// and dependencies are identical in both modes.
    ///
    /// The tasks are the message emitter's with every clique
    /// re-collected and every edge distributed fresh in preorder: the
    /// full graph is the slice that recomputes everything.
    pub fn from_shape_mode(shape: &TreeShape, mode: PropagationMode) -> TaskGraph {
        let n = shape.num_cliques();
        let mut g = TaskGraph {
            tasks: Vec::with_capacity(MESSAGE_TASKS_PER_EDGE * n.saturating_sub(1)),
            succ: Vec::new(),
            succ_start: Vec::new(),
            pred_count: Vec::new(),
            buffers: Vec::with_capacity(n * 6),
            clique_buffers: Vec::with_capacity(n),
            edge_buffers: vec![None; n],
            clique_plans: Vec::with_capacity(n),
            plans: PlanCache::new(),
            layout_id: fresh_layout_id(),
            resolved: OnceLock::new(),
            hazards: Hazards::default(),
        };

        // clique potentials occupy buffers 0..n
        for c in (0..n).map(CliqueId) {
            let b = g.push_buffer(shape.domain(c).clone(), BufferInit::CliquePotential(c));
            g.clique_buffers.push(b);
        }

        // per-edge scratch buffers
        for c in (0..n).map(CliqueId) {
            if shape.parent(c).is_none() {
                continue;
            }
            let sep = shape.parent_separator(c);
            g.edge_buffers[c.index()] = Some(EdgeBuffers {
                sep_up: g.push_buffer(sep.clone(), BufferInit::Scratch),
                stash: g.push_buffer(sep.clone(), BufferInit::SliceScratch),
                down: DownBuffers {
                    sep_down: g.push_buffer(sep.clone(), BufferInit::Scratch),
                    ratio_down: g.push_buffer(sep.clone(), BufferInit::Scratch),
                    ext_down: g.push_buffer(shape.domain(c).clone(), BufferInit::Scratch),
                },
            });
        }

        // Compile-once index maps: one interned shape per clique and two
        // per edge (3n − 2 interns), which both phases' chains — and
        // every slice — copy by id.
        let intern = |scan: &Domain, target: &Domain| {
            g.plans
                .intern(scan, target, EntryRange::full(scan.size()))
                .expect("a separator nests in both its cliques, a clique in itself")
        };
        let clique_plans = (0..n)
            .map(CliqueId)
            .map(|c| {
                let dom = shape.domain(c);
                CliquePlans {
                    own: intern(dom, dom),
                    edge: shape.parent(c).map(|p| {
                        let sep = shape.parent_separator(c);
                        EdgePlans {
                            up: intern(dom, sep),
                            down: intern(shape.domain(p), sep),
                        }
                    }),
                }
            })
            .collect();
        g.clique_plans = clique_plans;

        let everything = vec![true; n];
        let distribute = shape
            .preorder()
            .iter()
            .skip(1)
            .map(|&c| (c, EdgeUpdate::Fresh));
        let max = mode == PropagationMode::MaxProduct;
        g.emit_messages(&mut Hazards::default(), shape, &everything, distribute, max);
        debug_assert!(g.validate().is_ok(), "builder produced an invalid graph");
        g
    }

    fn push_buffer(&mut self, domain: Domain, init: BufferInit) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(BufferSpec { domain, init });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Phase, TaskId, TaskKind};
    use evprop_potential::{Domain, PrimitiveKind, VarId, Variable};

    fn dom(ids: &[u32]) -> Domain {
        Domain::new(ids.iter().map(|&i| Variable::binary(VarId(i))).collect()).unwrap()
    }

    fn path(n: usize) -> TreeShape {
        // C_i = {i, i+1}
        let domains: Vec<Domain> = (0..n).map(|i| dom(&[i as u32, i as u32 + 1])).collect();
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        TreeShape::new(domains, &edges, 0).unwrap()
    }

    fn star(k: usize) -> TreeShape {
        // center {0..k}, leaf i = {i}
        let mut domains =
            vec![Domain::new((0..k as u32).map(|i| Variable::binary(VarId(i))).collect()).unwrap()];
        for i in 0..k as u32 {
            domains.push(dom(&[i]));
        }
        let edges: Vec<(usize, usize)> = (1..=k).map(|i| (0, i)).collect();
        TreeShape::new(domains, &edges, 0).unwrap()
    }

    #[test]
    fn counts_match_formula() {
        for n in [2, 3, 5, 9] {
            let g = TaskGraph::from_shape(&path(n));
            assert_eq!(g.num_tasks(), MESSAGE_TASKS_PER_EDGE * (n - 1));
            g.validate().unwrap();
        }
    }

    #[test]
    fn single_clique_graph_is_empty() {
        let g = TaskGraph::from_shape(&path(1));
        assert_eq!(g.num_tasks(), 0);
        assert_eq!(g.initial_ready().len(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn leaves_start_ready() {
        let g = TaskGraph::from_shape(&star(4));
        // collect MARG of each leaf is dependency-free
        let ready = g.initial_ready();
        assert_eq!(ready.len(), 4);
        for t in ready {
            assert_eq!(g.task(t).phase, Phase::Collect);
            assert_eq!(g.task(t).kind.primitive(), PrimitiveKind::Marginalize);
        }
    }

    #[test]
    fn multiplies_into_shared_clique_serialize() {
        let g = TaskGraph::from_shape(&star(4));
        // collect multiplications all write buffer 0 (center clique);
        // validate() already checks ordering, but assert the chain length
        let muls: Vec<TaskId> = (0..g.num_tasks())
            .map(TaskId)
            .filter(|&t| {
                g.task(t).phase == Phase::Collect
                    && g.task(t).kind.primitive() == PrimitiveKind::Multiply
            })
            .collect();
        assert_eq!(muls.len(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn critical_path_le_total() {
        let g = TaskGraph::from_shape(&path(6));
        assert!(g.critical_path_weight() <= g.total_weight());
        assert!(g.critical_path_weight() > 0);
    }

    #[test]
    fn star_has_more_parallelism_than_path() {
        // same number of edges → same total tasks, but the star's
        // critical path is far shorter relative to total work
        let gp = TaskGraph::from_shape(&path(9));
        let gs = TaskGraph::from_shape(&star(8));
        let par_p = gp.total_weight() as f64 / gp.critical_path_weight() as f64;
        let par_s = gs.total_weight() as f64 / gs.critical_path_weight() as f64;
        assert!(par_s > par_p);
    }

    #[test]
    fn levels_partition_all_tasks() {
        let g = TaskGraph::from_shape(&path(5));
        let levels = g.levels();
        let total: usize = levels.iter().map(Vec::len).sum();
        assert_eq!(total, g.num_tasks());
        // within a level no task depends on another of the same level
        for level in &levels {
            for &t in level {
                for &s in g.successors(t) {
                    assert!(!level.contains(&s));
                }
            }
        }
    }

    #[test]
    fn phases_are_ordered_per_clique_pair() {
        let g = TaskGraph::from_shape(&path(4));
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_tasks()];
            for (i, t) in order.iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        // every collect multiply into the root precedes every distribute
        // marginalize out of the root
        for a in (0..g.num_tasks()).map(TaskId) {
            for b in (0..g.num_tasks()).map(TaskId) {
                let (ta, tb) = (g.task(a), g.task(b));
                if ta.phase == Phase::Collect
                    && tb.phase == Phase::Distribute
                    && ta.kind.dst() == BufferId(0)
                    && matches!(tb.kind, TaskKind::Marginalize { src, .. } if src == BufferId(0))
                {
                    assert!(pos[a.index()] < pos[b.index()]);
                }
            }
        }
    }

    #[test]
    fn weights_derive_from_plan_op_counts() {
        let g = TaskGraph::from_shape(&path(3));
        for (i, t) in g.tasks().iter().enumerate() {
            match t.plan {
                // Cross-domain tasks: weight is the compiled plan's
                // inner-loop op count, which equals the partitionable
                // table's length (so cost calibrations are unchanged).
                Some(id) => {
                    assert_eq!(t.weight, g.plans().get(id).ops());
                    assert_eq!(t.weight, g.partition_len(TaskId(i)) as u64);
                }
                // Divide has no cross-domain plan: separator length.
                None => {
                    assert_eq!(t.kind.primitive(), evprop_potential::PrimitiveKind::Divide);
                    assert_eq!(
                        t.weight,
                        g.buffers()[t.kind.dst().index()].domain.size() as u64
                    );
                }
            }
            match t.kind {
                TaskKind::Marginalize { src, .. } => {
                    assert_eq!(t.weight, g.buffers()[src.index()].domain.size() as u64)
                }
                _ => assert_eq!(
                    t.weight,
                    g.buffers()[t.kind.dst().index()].domain.size() as u64
                ),
            }
        }
    }

    #[test]
    fn plans_are_structurally_shared() {
        // Every task but the distribute divide is planful, but the
        // collect marg / distribute ext of an edge share a plan, as do
        // the collect multiply / distribute marg — so a path graph
        // interns 3 distinct plans per clique pair, not 5 per edge.
        let g = TaskGraph::from_shape(&path(3));
        let planful = g.tasks().iter().filter(|t| t.plan.is_some()).count();
        assert_eq!(planful, (MESSAGE_TASKS_PER_EDGE - 1) * 2);
        assert!(
            g.plans().len() < planful,
            "interning should dedup: {} plans for {} planful tasks",
            g.plans().len(),
            planful
        );
        // Collect marginalize (clique→sep) and distribute extend
        // (sep→clique over the same pair) share one interned plan.
        let mut by_prim: Vec<Vec<crate::PlanId>> = vec![Vec::new(); 4];
        for t in g.tasks() {
            if let Some(id) = t.plan {
                by_prim[t.kind.primitive() as usize].push(id);
            }
        }
        let margs = &by_prim[evprop_potential::PrimitiveKind::Marginalize as usize];
        let exts = &by_prim[evprop_potential::PrimitiveKind::Extend as usize];
        assert!(margs.iter().any(|id| exts.contains(id)));
    }

    #[test]
    fn replicated_graphs_share_plan_ids() {
        let g = TaskGraph::from_shape(&path(3));
        let batch = g.replicate(3);
        batch.validate().unwrap();
        assert_eq!(batch.buffers().len(), 3 * g.buffers().len());
        assert_eq!(batch.total_weight(), 3 * g.total_weight());
        assert_eq!(batch.plans().len(), g.plans().len());
        for copy in 0..3 {
            for (t, orig) in batch.tasks()[copy * g.num_tasks()..(copy + 1) * g.num_tasks()]
                .iter()
                .zip(g.tasks())
            {
                assert_eq!(t.plan, orig.plan);
                assert_eq!(t.weight, orig.weight);
            }
        }
    }

    #[test]
    fn buffer_inits_are_sane() {
        let g = TaskGraph::from_shape(&path(3));
        let n_clique = g
            .buffers()
            .iter()
            .filter(|b| matches!(b.init, BufferInit::CliquePotential(_)))
            .count();
        assert_eq!(n_clique, 3);
        // sep_up and the three distribute buffers of each edge
        let n_scratch = g
            .buffers()
            .iter()
            .filter(|b| b.init == BufferInit::Scratch)
            .count();
        assert_eq!(n_scratch, 4 * 2);
        // one stash per edge
        let n_stash = g
            .buffers()
            .iter()
            .filter(|b| b.init == BufferInit::SliceScratch)
            .count();
        assert_eq!(n_stash, 2);
        assert_eq!(g.buffers().len(), n_clique + n_scratch + n_stash);
    }
}
