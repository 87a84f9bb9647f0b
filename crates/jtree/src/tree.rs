//! The junction tree proper: a [`TreeShape`] plus one potential table per
//! clique.

use crate::{compile::compile_network, CliqueId, JtreeError, Result, TreeShape};
use evprop_bayesnet::BayesianNetwork;
use evprop_potential::PotentialTable;
use std::fmt;

/// A junction tree `J = (T, P̂)`: tree structure plus clique potentials.
///
/// The potentials stored here are the *initial* ones (products of the
/// assigned CPTs, before any evidence or propagation); the inference
/// engines clone them into working state, so one compiled tree can serve
/// many queries.
#[derive(Clone)]
pub struct JunctionTree {
    shape: TreeShape,
    potentials: Vec<PotentialTable>,
}

impl JunctionTree {
    /// Compiles a Bayesian network into a junction tree: moralization →
    /// min-fill triangulation → maximal cliques → maximum-weight spanning
    /// clique tree → CPT assignment (Lauritzen–Spiegelhalter pipeline).
    ///
    /// The initial root is clique 0; callers typically re-root using
    /// [`crate::select_root`] before parallel propagation.
    ///
    /// # Errors
    ///
    /// Propagates structural errors; [`JtreeError::UnassignableCpt`]
    /// indicates an internal triangulation bug.
    pub fn from_network(net: &BayesianNetwork) -> Result<Self> {
        compile_network(net)
    }

    /// Like [`JunctionTree::from_network`] with an explicit triangulation
    /// heuristic (see [`crate::EliminationHeuristic`]).
    ///
    /// # Errors
    ///
    /// Same as [`JunctionTree::from_network`].
    pub fn from_network_with(
        net: &BayesianNetwork,
        heuristic: crate::EliminationHeuristic,
    ) -> Result<Self> {
        crate::compile::compile_network_with(net, heuristic)
    }

    /// Assembles a junction tree from parts, validating that each
    /// potential's domain equals its clique's domain.
    ///
    /// # Errors
    ///
    /// [`JtreeError::PotentialDomainMismatch`] on any mismatch;
    /// [`JtreeError::NotATree`] if counts disagree.
    pub fn from_parts(shape: TreeShape, potentials: Vec<PotentialTable>) -> Result<Self> {
        if potentials.len() != shape.num_cliques() {
            return Err(JtreeError::NotATree {
                cliques: shape.num_cliques(),
                edges: potentials.len(),
            });
        }
        for (i, p) in potentials.iter().enumerate() {
            if p.domain() != shape.domain(CliqueId(i)) {
                return Err(JtreeError::PotentialDomainMismatch(i));
            }
        }
        Ok(JunctionTree { shape, potentials })
    }

    /// The structural part of the tree.
    #[inline]
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The initial potential of a clique.
    #[inline]
    pub fn potential(&self, c: CliqueId) -> &PotentialTable {
        &self.potentials[c.index()]
    }

    /// All initial clique potentials, indexed by clique id.
    #[inline]
    pub fn potentials(&self) -> &[PotentialTable] {
        &self.potentials
    }

    /// Number of cliques.
    #[inline]
    pub fn num_cliques(&self) -> usize {
        self.shape.num_cliques()
    }

    /// Re-roots the tree (structure only; potentials are per-clique and
    /// unaffected). See [`TreeShape::reroot`].
    ///
    /// # Errors
    ///
    /// [`JtreeError::BadCliqueId`] for an out-of-range clique.
    pub fn reroot(&mut self, new_root: CliqueId) -> Result<()> {
        self.shape.reroot(new_root)
    }

    /// Splits into parts (shape, potentials) — the inverse of
    /// [`JunctionTree::from_parts`].
    pub fn into_parts(self) -> (TreeShape, Vec<PotentialTable>) {
        (self.shape, self.potentials)
    }
}

impl fmt::Debug for JunctionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JunctionTree({} cliques, max width {}, {} total entries)",
            self.num_cliques(),
            self.shape.max_width(),
            self.shape.total_state_space()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeShape;
    use evprop_bayesnet::networks::{asia, sprinkler};
    use evprop_potential::{Domain, VarId, Variable};

    #[test]
    fn compile_sprinkler() {
        let jt = JunctionTree::from_network(&sprinkler()).unwrap();
        assert_eq!(jt.num_cliques(), 2);
        jt.shape().validate().unwrap();
        // the product of all clique potentials must equal the joint:
        // total mass of the tree = 1 after multiplying all CPTs in.
        let total: f64 = jt
            .potentials()
            .iter()
            .fold(evprop_potential::PotentialTable::scalar(1.0), |acc, p| {
                acc.product(p).unwrap()
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compile_asia() {
        let jt = JunctionTree::from_network(&asia()).unwrap();
        assert!(jt.num_cliques() >= 5);
        jt.shape().validate().unwrap();
        for i in 0..8u32 {
            assert!(jt.shape().smallest_clique_covering(&[VarId(i)]).is_some());
        }
        assert!(format!("{jt:?}").contains("cliques"));
    }

    #[test]
    fn from_parts_validates() {
        let d = Domain::new(vec![Variable::binary(VarId(0))]).unwrap();
        let d2 = Domain::new(vec![Variable::binary(VarId(1))]).unwrap();
        let shape = TreeShape::new(vec![d.clone()], &[], 0).unwrap();
        assert!(matches!(
            JunctionTree::from_parts(shape.clone(), vec![PotentialTable::ones(d2)]),
            Err(JtreeError::PotentialDomainMismatch(0))
        ));
        assert!(matches!(
            JunctionTree::from_parts(shape.clone(), vec![]),
            Err(JtreeError::NotATree { .. })
        ));
        let jt = JunctionTree::from_parts(shape, vec![PotentialTable::ones(d)]).unwrap();
        assert_eq!(jt.num_cliques(), 1);
        let (_s, p) = jt.into_parts();
        assert_eq!(p.len(), 1);
    }
}
