//! End-to-end inference sessions: compile once, query many times.

use crate::{Calibrated, CollaborativeEngine, CompiledModel, Engine, Result};
use evprop_bayesnet::BayesianNetwork;
use evprop_jtree::{JunctionTree, RootChoice};
use evprop_potential::{EvidenceSet, PotentialTable, VarId};
use evprop_sched::SchedulerConfig;
use evprop_taskgraph::{PropagationMode, TaskGraph};
use std::sync::{Arc, OnceLock};

/// One serving query: the variable whose posterior is wanted, under
/// some evidence.
#[derive(Clone, Debug)]
pub struct Query {
    /// Variable whose posterior marginal is requested.
    pub target: VarId,
    /// Evidence to condition on (may be empty).
    pub evidence: EvidenceSet,
}

impl Query {
    /// A query for `P(target | evidence)`.
    pub fn new(target: VarId, evidence: EvidenceSet) -> Self {
        Query { target, evidence }
    }
}

/// An ordered batch of queries, answered back-to-back on the session's
/// resident pool by [`InferenceSession::posterior_batch`].
pub type QueryBatch = Vec<Query>;

/// A reusable inference pipeline: an [`Arc`]-shared [`CompiledModel`]
/// (junction tree re-rooted by Algorithm 1, task graph, interned
/// kernel plans) plus this session's resident serving engine.
///
/// # Example
///
/// ```
/// use evprop_bayesnet::networks;
/// use evprop_core::{InferenceSession, SequentialEngine};
/// use evprop_potential::{EvidenceSet, VarId};
///
/// let session = InferenceSession::from_network(&networks::asia())?;
/// let posterior = session.posterior(&SequentialEngine, VarId(3), &EvidenceSet::new())?;
/// assert!((posterior.sum() - 1.0).abs() < 1e-9);
/// # Ok::<(), evprop_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct InferenceSession {
    model: Arc<CompiledModel>,
    /// Resident serving engine, spawned on first pooled query.
    pooled: OnceLock<CollaborativeEngine>,
}

impl InferenceSession {
    /// Compiles `net` into a junction tree, re-roots it with Algorithm 1
    /// to minimize the critical path, and builds the task graph.
    ///
    /// # Errors
    ///
    /// Propagates junction-tree compilation errors.
    pub fn from_network(net: &BayesianNetwork) -> Result<Self> {
        Ok(Self::from_model(Arc::new(CompiledModel::from_network(
            net,
        )?)))
    }

    /// Wraps an existing junction tree, re-rooting it with Algorithm 1.
    pub fn from_junction_tree(jt: JunctionTree) -> Self {
        Self::from_model(Arc::new(CompiledModel::from_junction_tree(jt)))
    }

    /// Wraps an existing junction tree *without* re-rooting (the paper's
    /// "original tree" baseline in Fig. 5).
    pub fn from_junction_tree_unrerooted(jt: JunctionTree) -> Self {
        Self::from_model(Arc::new(CompiledModel::from_junction_tree_unrerooted(jt)))
    }

    /// A session serving an already-compiled model. The model stays
    /// shared: sessions (and serving shards) built from clones of the
    /// same `Arc` execute through one set of interned kernel plans.
    pub fn from_model(model: Arc<CompiledModel>) -> Self {
        InferenceSession {
            model,
            pooled: OnceLock::new(),
        }
    }

    /// The shared compiled model behind this session.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The junction tree (after any re-rooting).
    pub fn junction_tree(&self) -> &JunctionTree {
        self.model.junction_tree()
    }

    /// The prebuilt task dependency graph.
    pub fn task_graph(&self) -> &TaskGraph {
        self.model.graph()
    }

    /// The max-product task graph (same structure, max-marginalization),
    /// built lazily on the first MPE query.
    pub fn max_task_graph(&self) -> &TaskGraph {
        self.model.max_graph()
    }

    /// The root selected at construction and its critical-path weight.
    pub fn root_choice(&self) -> RootChoice {
        self.model.root_choice()
    }

    /// Runs two-phase propagation with `engine`.
    ///
    /// # Errors
    ///
    /// See [`Engine::propagate_graph`].
    pub fn propagate(&self, engine: &dyn Engine, evidence: &EvidenceSet) -> Result<Calibrated> {
        engine.propagate_graph(self.junction_tree(), self.task_graph(), evidence)
    }

    /// Convenience: posterior marginal of one variable.
    ///
    /// # Errors
    ///
    /// See [`Calibrated::marginal`].
    pub fn posterior(
        &self,
        engine: &dyn Engine,
        var: VarId,
        evidence: &EvidenceSet,
    ) -> Result<PotentialTable> {
        self.propagate(engine, evidence)?.marginal(var)
    }

    /// The session's resident serving engine — worker threads spawned
    /// once, table arenas recycled across queries — created with the
    /// default [`SchedulerConfig`] on first use. To pick the
    /// configuration, call [`InferenceSession::pooled_engine_with`]
    /// before the first pooled query.
    pub fn pooled_engine(&self) -> &CollaborativeEngine {
        self.pooled
            .get_or_init(|| CollaborativeEngine::new(SchedulerConfig::default()))
    }

    /// The resident serving engine, created with `config` if none
    /// exists yet. The first creation wins: if the pool is already
    /// running, the existing engine is returned and `config` ignored.
    pub fn pooled_engine_with(&self, config: SchedulerConfig) -> &CollaborativeEngine {
        self.pooled.get_or_init(|| CollaborativeEngine::new(config))
    }

    /// Posterior marginal of one variable on the resident pool: the
    /// steady-state serving path (no thread spawn, no table
    /// allocation on a warm arena).
    ///
    /// # Errors
    ///
    /// See [`CollaborativeEngine::posterior`].
    pub fn posterior_pooled(&self, var: VarId, evidence: &EvidenceSet) -> Result<PotentialTable> {
        self.pooled_engine()
            .posterior(self.junction_tree(), self.task_graph(), var, evidence)
    }

    /// Answers a [`QueryBatch`] back-to-back on the resident pool,
    /// reusing one arena slot for the whole batch. Results are in
    /// input order.
    ///
    /// # Errors
    ///
    /// See [`CollaborativeEngine::posterior_batch`].
    pub fn posterior_batch(&self, batch: &[Query]) -> Result<Vec<PotentialTable>> {
        self.pooled_engine()
            .posterior_batch(self.junction_tree(), self.task_graph(), batch)
    }

    /// Posterior marginal via **collect-only propagation**: the tree is
    /// re-rooted at a clique covering `var` and only the collect phase
    /// runs — half the propagation work of [`InferenceSession::posterior`],
    /// at the cost of building a one-shot task graph. Worth it when a
    /// single marginal is needed from a large tree; for many queries over
    /// the same evidence, full calibration amortizes better.
    ///
    /// # Errors
    ///
    /// [`crate::EngineError::VariableNotInTree`] if no clique covers
    /// `var`; [`crate::EngineError::ImpossibleEvidence`] if `P(e) = 0`.
    pub fn posterior_collect_only(
        &self,
        engine: &dyn Engine,
        var: VarId,
        evidence: &EvidenceSet,
    ) -> Result<PotentialTable> {
        let mut shape = self.junction_tree().shape().clone();
        let target = crate::covering_clique(&shape, &[var])?;
        shape
            .reroot(target)
            .expect("covering_clique returns in-range ids");
        let graph = TaskGraph::collect_only(&shape, PropagationMode::SumProduct);
        let calibrated = engine.propagate_graph(self.junction_tree(), &graph, evidence)?;
        // only the target clique is calibrated; marginalize from it
        crate::read_out(calibrated.clique(target), &[var])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollaborativeEngine, SequentialEngine};
    use evprop_bayesnet::{networks, JointDistribution};

    #[test]
    fn session_reroots_and_stays_correct() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let joint = JointDistribution::of(&net).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(7), 1);
        for v in 0..7u32 {
            let got = session.posterior(&SequentialEngine, VarId(v), &ev).unwrap();
            let want = joint.marginal(VarId(v), &ev).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "V{v}");
        }
    }

    #[test]
    fn rerooted_and_original_agree() {
        let net = networks::asia();
        let jt = JunctionTree::from_network(&net).unwrap();
        let a = InferenceSession::from_junction_tree(jt.clone());
        let b = InferenceSession::from_junction_tree_unrerooted(jt);
        assert!(a.root_choice().critical_path <= b.root_choice().critical_path);
        let ev = EvidenceSet::new();
        let pa = a.posterior(&SequentialEngine, VarId(3), &ev).unwrap();
        let pb = b.posterior(&SequentialEngine, VarId(3), &ev).unwrap();
        assert!(pa.approx_eq(&pb, 1e-9));
    }

    #[test]
    fn pooled_batch_matches_per_query_engines() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let batch: QueryBatch = (0..4u32)
            .map(|i| {
                let mut ev = EvidenceSet::new();
                ev.observe(VarId(7), (i % 2) as usize);
                Query::new(VarId(i), ev)
            })
            .collect();
        let pooled = session.posterior_batch(&batch).unwrap();
        assert_eq!(pooled.len(), batch.len());
        for (q, got) in batch.iter().zip(&pooled) {
            let want = session
                .posterior(&SequentialEngine, q.target, &q.evidence)
                .unwrap();
            assert!(got.approx_eq(&want, 1e-9), "query {:?}", q.target);
            let single = session.posterior_pooled(q.target, &q.evidence).unwrap();
            assert!(got.approx_eq(&single, 1e-12));
        }
    }

    #[test]
    fn session_reuse_across_queries_and_engines() {
        let net = networks::student();
        let session = InferenceSession::from_network(&net).unwrap();
        let collab = CollaborativeEngine::with_threads(2);
        for state in 0..2 {
            let mut ev = EvidenceSet::new();
            ev.observe(VarId(3), state);
            let a = session.posterior(&SequentialEngine, VarId(2), &ev).unwrap();
            let b = session.posterior(&collab, VarId(2), &ev).unwrap();
            assert!(a.approx_eq(&b, 1e-9));
        }
    }
}

#[cfg(test)]
mod collect_only_tests {
    use super::*;
    use crate::{CollaborativeEngine, SequentialEngine};
    use evprop_bayesnet::networks;

    #[test]
    fn collect_only_matches_full_posterior() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(7), 1);
        ev.observe_likelihood(VarId(6), vec![0.4, 0.8]);
        for v in 0..6u32 {
            let full = session.posterior(&SequentialEngine, VarId(v), &ev).unwrap();
            let fast = session
                .posterior_collect_only(&SequentialEngine, VarId(v), &ev)
                .unwrap();
            assert!(full.approx_eq(&fast, 1e-9), "V{v}");
            let fast_par = session
                .posterior_collect_only(&CollaborativeEngine::with_threads(3), VarId(v), &ev)
                .unwrap();
            assert!(full.approx_eq(&fast_par, 1e-9), "V{v} parallel");
        }
    }

    #[test]
    fn collect_only_detects_impossible_evidence() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(3), 1);
        ev.observe(VarId(5), 0); // contradiction
        let r = session.posterior_collect_only(&SequentialEngine, VarId(4), &ev);
        assert!(matches!(r, Err(crate::EngineError::ImpossibleEvidence)));
    }

    #[test]
    fn collect_only_unknown_variable() {
        let net = networks::sprinkler();
        let session = InferenceSession::from_network(&net).unwrap();
        let r = session.posterior_collect_only(&SequentialEngine, VarId(99), &EvidenceSet::new());
        assert!(matches!(r, Err(crate::EngineError::VariableNotInTree(_))));
    }
}
