//! The immutable compile-once artifact: junction tree + task graphs +
//! interned kernel plans.
//!
//! Compiling a Bayesian network produces everything that is *shared*
//! between queries — the re-rooted junction tree, the task dependency
//! graph, and the [`PlanCache`](evprop_taskgraph::PlanCache) of
//! compiled kernel plans hanging off that graph. A [`CompiledModel`]
//! bundles exactly that state and nothing mutable-per-query, so one
//! `Arc<CompiledModel>` can back every shard of a serving runtime:
//! the plans are compiled once and every pool, shard and dispatcher
//! executes through the same interned index maps.

use crate::{CalibratedState, Result};
use evprop_bayesnet::BayesianNetwork;
use evprop_jtree::{select_root, JunctionTree, RootChoice};
use evprop_taskgraph::{PlanCacheStats, PropagationMode, TaskGraph};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// A compiled inference model: the re-rooted junction tree, its
/// sum-product task graph (with interned [`KernelPlan`]s), and a
/// lazily-built max-product twin for MPE queries.
///
/// Immutable after construction apart from three append-only caches —
/// the max-product graph's one-time initialization, the plan caches'
/// internal memo and the session-base calibration — all safe to share:
/// hand out `Arc<CompiledModel>` clones freely.
///
/// [`KernelPlan`]: evprop_potential::KernelPlan
#[derive(Debug)]
pub struct CompiledModel {
    jt: JunctionTree,
    graph: TaskGraph,
    root_choice: RootChoice,
    /// Max-product task graph, built on first MPE query.
    max_graph: OnceLock<TaskGraph>,
    /// Empty-evidence calibration, computed by the first session opened
    /// against this model and copied into every later one.
    session_base: Mutex<Option<Arc<CalibratedState>>>,
}

impl CompiledModel {
    /// Compiles `net` into a junction tree, re-roots it with Algorithm 1
    /// to minimize the critical path, and builds the task graph (which
    /// compiles and interns one kernel plan per cross-domain task).
    ///
    /// # Errors
    ///
    /// Propagates junction-tree compilation errors.
    pub fn from_network(net: &BayesianNetwork) -> Result<Self> {
        let jt = JunctionTree::from_network(net)?;
        Ok(Self::from_junction_tree(jt))
    }

    /// Wraps an existing junction tree, re-rooting it with Algorithm 1.
    pub fn from_junction_tree(mut jt: JunctionTree) -> Self {
        let root_choice = select_root(jt.shape());
        jt.reroot(root_choice.root)
            .expect("Algorithm 1 returns an in-range clique");
        let graph = TaskGraph::from_shape(jt.shape());
        CompiledModel {
            jt,
            graph,
            root_choice,
            max_graph: OnceLock::new(),
            session_base: Mutex::new(None),
        }
    }

    /// Wraps an existing junction tree *without* re-rooting (the paper's
    /// "original tree" baseline in Fig. 5).
    pub fn from_junction_tree_unrerooted(jt: JunctionTree) -> Self {
        let root_choice = RootChoice {
            root: jt.shape().root(),
            critical_path: evprop_jtree::critical_path_weight(jt.shape()),
        };
        let graph = TaskGraph::from_shape(jt.shape());
        CompiledModel {
            jt,
            graph,
            root_choice,
            max_graph: OnceLock::new(),
            session_base: Mutex::new(None),
        }
    }

    /// The junction tree (after any re-rooting).
    pub fn junction_tree(&self) -> &JunctionTree {
        &self.jt
    }

    /// The prebuilt sum-product task dependency graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The max-product task graph (same structure, max-marginalization),
    /// built lazily on the first MPE query.
    pub fn max_graph(&self) -> &TaskGraph {
        self.max_graph.get_or_init(|| {
            TaskGraph::from_shape_mode(self.jt.shape(), PropagationMode::MaxProduct)
        })
    }

    /// The cached empty-evidence calibration of this model, computing
    /// it via `init` on first use — opening a session then costs one
    /// buffer copy instead of one full propagation. `init` runs under
    /// the cache's lock, so the calibration happens at most once per
    /// model. Not part of [`CompiledModel::resident_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates `init`'s error (nothing is cached then).
    pub fn session_base_with<E>(
        &self,
        init: impl FnOnce() -> std::result::Result<CalibratedState, E>,
    ) -> std::result::Result<Arc<CalibratedState>, E> {
        let mut base = self.session_base.lock();
        if let Some(b) = base.as_ref() {
            return Ok(Arc::clone(b));
        }
        let snapshot = Arc::new(init()?);
        *base = Some(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// The root selected at construction and its critical-path weight.
    pub fn root_choice(&self) -> RootChoice {
        self.root_choice
    }

    /// Resident memory of the compiled artifact in bytes: the clique
    /// potential tables, one arena's worth of propagation buffers
    /// (what every checkout of this model costs), and the kernel-plan
    /// programs compiled so far (sum-product, plus max-product once an
    /// MPE query forced it into existence). This is the unit the model
    /// registry's `--model-budget-mb` eviction accounts in; it grows
    /// monotonically as lazily-compiled plans materialize.
    pub fn resident_bytes(&self) -> u64 {
        let f64s = std::mem::size_of::<f64>() as u64;
        let potentials: u64 = self
            .jt
            .potentials()
            .iter()
            .map(|t| t.data().len() as u64 * f64s)
            .sum();
        let buffers: u64 = self
            .graph
            .buffers()
            .iter()
            .map(|b| b.domain.size() as u64 * f64s)
            .sum();
        let mut plans = self.graph.plans().resident_bytes() as u64;
        if let Some(max) = self.max_graph.get() {
            plans += max.plans().resident_bytes() as u64;
        }
        potentials + buffers + plans
    }

    /// Combined plan-cache counters of every graph this model has
    /// built so far (sum-product, plus max-product once an MPE query
    /// forced it into existence).
    pub fn plan_stats(&self) -> PlanCacheStats {
        let mut stats = self.graph.plans().stats();
        if let Some(max) = self.max_graph.get() {
            stats = stats.merged(max.plans().stats());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_bayesnet::networks;

    #[test]
    fn one_model_is_shared_not_copied() {
        let model = Arc::new(CompiledModel::from_network(&networks::asia()).unwrap());
        let interned = model.graph().plans().len();
        assert!(interned > 0, "build interned plans");
        // Shards-style sharing: clones of the Arc see the same graph
        // (and therefore the same plan cache), not per-shard copies.
        let a = Arc::clone(&model);
        let b = Arc::clone(&model);
        assert!(std::ptr::eq(a.graph(), b.graph()));
        assert_eq!(model.plan_stats().interned, interned as u64);
    }

    #[test]
    fn session_base_is_computed_once_and_not_counted_resident() {
        use crate::ShardState;
        use evprop_potential::EvidenceSet;
        use evprop_sched::TableArena;

        let model = CompiledModel::from_network(&networks::asia()).unwrap();
        let calibrate = || {
            let mut arena = TableArena::initialize(
                model.graph(),
                model.junction_tree().potentials(),
                &EvidenceSet::new(),
            );
            ShardState::with_threads(1)
                .run_job(model.graph(), &arena)
                .unwrap();
            CalibratedState::capture(model.graph(), &mut arena, EvidenceSet::new())
        };
        calibrate(); // compiles every plan, so `resident_bytes` is settled
        let resident = model.resident_bytes();
        let mut calls = 0;
        let mut make = || -> std::result::Result<CalibratedState, ()> {
            calls += 1;
            Ok(calibrate())
        };
        let a = model.session_base_with(&mut make).unwrap();
        let b = model.session_base_with(&mut make).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls, 1);
        assert_eq!(model.resident_bytes(), resident);
    }

    #[test]
    fn resident_bytes_grow_as_plans_compile() {
        let model = CompiledModel::from_network(&networks::asia()).unwrap();
        let fresh = model.resident_bytes();
        assert!(fresh > 0, "tables and buffers count even before compile");
        let plans = model.graph().plans();
        for i in 0..plans.len() {
            let _ = plans.get(evprop_taskgraph::PlanId(i as u32));
        }
        assert!(model.resident_bytes() > fresh, "compiled plans add bytes");
    }

    #[test]
    fn plan_stats_fold_in_the_max_graph() {
        let model = CompiledModel::from_network(&networks::asia()).unwrap();
        let before = model.plan_stats().interned;
        let max_interned = model.max_graph().plans().len() as u64;
        assert!(max_interned > 0);
        assert_eq!(model.plan_stats().interned, before + max_interned);
    }
}
