//! The result of evidence propagation: a calibrated junction tree.

use crate::{EngineError, Result};
use evprop_jtree::{CliqueId, TreeShape};
use evprop_potential::{PotentialTable, VarId};
use std::fmt;

/// Calibrated clique potentials after two-phase propagation: the table of
/// clique `C` holds the unnormalized joint `P(C, e)` of its variables
/// with the absorbed evidence `e`. Any variable's posterior can be read
/// off any clique containing it.
#[derive(Clone)]
pub struct Calibrated {
    shape: TreeShape,
    cliques: Vec<PotentialTable>,
}

impl Calibrated {
    /// Assembles a calibrated result (used by engines).
    pub(crate) fn new(shape: TreeShape, cliques: Vec<PotentialTable>) -> Self {
        debug_assert_eq!(shape.num_cliques(), cliques.len());
        Calibrated { shape, cliques }
    }

    /// The tree structure.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The calibrated potential of one clique.
    pub fn clique(&self, c: CliqueId) -> &PotentialTable {
        &self.cliques[c.index()]
    }

    /// The probability of the absorbed evidence, `P(e)` — the total mass
    /// of the root clique. After full calibration every clique agrees.
    pub fn probability_of_evidence(&self) -> f64 {
        self.cliques
            .get(self.shape.root().index())
            .map(PotentialTable::sum)
            .unwrap_or(1.0)
    }

    /// The normalized posterior marginal `P(var | e)`.
    ///
    /// # Errors
    ///
    /// [`EngineError::VariableNotInTree`] if no clique contains `var`;
    /// [`EngineError::ImpossibleEvidence`] if `P(e) = 0`.
    pub fn marginal(&self, var: VarId) -> Result<PotentialTable> {
        self.joint_marginal(&[var])
    }

    /// Normalized posteriors for **every** variable in the tree, sorted
    /// by variable id — the batch form of [`Calibrated::marginal`].
    ///
    /// # Errors
    ///
    /// [`EngineError::ImpossibleEvidence`] if `P(e) = 0`.
    pub fn all_marginals(&self) -> Result<Vec<(VarId, PotentialTable)>> {
        let mut vars: Vec<VarId> = Vec::new();
        for c in 0..self.shape.num_cliques() {
            for v in self.shape.domain(CliqueId(c)).vars() {
                if !vars.contains(&v.id()) {
                    vars.push(v.id());
                }
            }
        }
        vars.sort_unstable();
        vars.into_iter()
            .map(|v| Ok((v, self.marginal(v)?)))
            .collect()
    }

    /// The normalized joint posterior over a *set* of variables, provided
    /// some clique covers all of them (junction trees answer in-clique
    /// joint queries for free; cross-clique joints would require
    /// out-of-band elimination).
    ///
    /// # Errors
    ///
    /// [`EngineError::VariableNotInTree`] (reporting the first variable)
    /// if no clique contains the whole set;
    /// [`EngineError::ImpossibleEvidence`] if the restricted mass is zero.
    pub fn joint_marginal(&self, vars: &[VarId]) -> Result<PotentialTable> {
        let c = covering_clique(&self.shape, vars)?;
        read_out(&self.cliques[c.index()], vars)
    }

    /// Maximum absolute disagreement between two calibrated results over
    /// the same shape (engine cross-checks on normalized inputs).
    ///
    /// # Panics
    ///
    /// Panics if clique counts differ.
    pub fn max_divergence(&self, other: &Calibrated) -> f64 {
        assert_eq!(self.cliques.len(), other.cliques.len());
        self.cliques
            .iter()
            .zip(&other.cliques)
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }

    /// Maximum *relative* disagreement: per clique, the absolute gap
    /// divided by the largest magnitude in either table. The right
    /// comparison for unnormalized potentials, whose calibrated masses
    /// can be astronomically large or small.
    ///
    /// # Panics
    ///
    /// Panics if clique counts differ.
    pub fn max_relative_divergence(&self, other: &Calibrated) -> f64 {
        assert_eq!(self.cliques.len(), other.cliques.len());
        self.cliques
            .iter()
            .zip(&other.cliques)
            .map(|(a, b)| {
                let scale = a
                    .data()
                    .iter()
                    .chain(b.data())
                    .fold(0.0f64, |m, &v| m.max(v.abs()));
                if scale == 0.0 {
                    0.0
                } else {
                    a.max_abs_diff(b) / scale
                }
            })
            .fold(0.0, f64::max)
    }
}

/// The clique every query path reads `vars` out of: the smallest one
/// covering the whole set.
///
/// # Errors
///
/// [`EngineError::VariableNotInTree`] (reporting the first variable) if
/// no clique contains the whole set.
pub fn covering_clique(shape: &TreeShape, vars: &[VarId]) -> Result<CliqueId> {
    shape.smallest_clique_covering(vars).ok_or_else(|| {
        EngineError::VariableNotInTree(vars.first().copied().unwrap_or(VarId(u32::MAX)))
    })
}

/// The one read-out: the normalized posterior over `vars` from a
/// calibrated clique table `P(C, e)` whose domain covers them. Only a
/// finite positive mass normalizes to a posterior.
///
/// # Errors
///
/// [`EngineError::ImpossibleEvidence`] if the table's mass is zero;
/// [`EngineError::EvidenceOverflow`] if it is not finite.
pub fn read_out(table: &PotentialTable, vars: &[VarId]) -> Result<PotentialTable> {
    let sub = table.domain().project(vars);
    let mut m = table.marginalize(&sub)?;
    let mass = m.sum();
    if !mass.is_finite() {
        return Err(EngineError::EvidenceOverflow { mass });
    }
    if mass <= 0.0 {
        return Err(EngineError::ImpossibleEvidence);
    }
    m.normalize();
    Ok(m)
}

impl fmt::Debug for Calibrated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Calibrated({} cliques, P(e) = {:.6})",
            self.cliques.len(),
            self.probability_of_evidence()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_potential::{Domain, Variable};

    fn simple() -> Calibrated {
        let d = Domain::new(vec![Variable::binary(VarId(0)), Variable::binary(VarId(1))]).unwrap();
        let shape = TreeShape::new(vec![d.clone()], &[], 0).unwrap();
        let t = PotentialTable::from_data(d, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        Calibrated::new(shape, vec![t])
    }

    #[test]
    fn marginal_normalizes() {
        let c = simple();
        let m = c.marginal(VarId(0)).unwrap();
        assert!((m.data()[0] - 0.3).abs() < 1e-12);
        assert!((m.data()[1] - 0.7).abs() < 1e-12);
        assert!((c.probability_of_evidence() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_marginals_cover_every_variable() {
        let c = simple();
        let all = c.all_marginals().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, VarId(0));
        assert_eq!(all[1].0, VarId(1));
        for (_, m) in &all {
            assert!((m.sum() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn joint_marginal_within_clique() {
        let c = simple();
        let j = c.joint_marginal(&[VarId(0), VarId(1)]).unwrap();
        assert_eq!(j.data(), &[0.1, 0.2, 0.3, 0.4]);
        // covered subset works too, uncovered set errors
        assert!(c.joint_marginal(&[VarId(0)]).is_ok());
        assert!(matches!(
            c.joint_marginal(&[VarId(0), VarId(9)]),
            Err(EngineError::VariableNotInTree(_))
        ));
    }

    #[test]
    fn unknown_variable_errors() {
        let c = simple();
        assert!(matches!(
            c.marginal(VarId(9)),
            Err(EngineError::VariableNotInTree(_))
        ));
    }

    #[test]
    fn impossible_evidence_detected() {
        let d = Domain::new(vec![Variable::binary(VarId(0))]).unwrap();
        let shape = TreeShape::new(vec![d.clone()], &[], 0).unwrap();
        let c = Calibrated::new(shape, vec![PotentialTable::zeros(d)]);
        assert!(matches!(
            c.marginal(VarId(0)),
            Err(EngineError::ImpossibleEvidence)
        ));
    }

    /// A mass that overflowed (or turned `NaN` in the Hugin division)
    /// is refused, not normalized into `NaN` marginals; exact zero is
    /// still `ImpossibleEvidence`.
    #[test]
    fn non_finite_mass_is_refused() {
        let d = Domain::new(vec![Variable::binary(VarId(0))]).unwrap();
        let shape = TreeShape::new(vec![d.clone()], &[], 0).unwrap();
        for (data, nan) in [([f64::INFINITY, 1.0], false), ([f64::NAN, 1.0], true)] {
            let table = PotentialTable::from_data(d.clone(), data.to_vec()).unwrap();
            let c = Calibrated::new(shape.clone(), vec![table]);
            match c.marginal(VarId(0)) {
                Err(EngineError::EvidenceOverflow { mass }) => assert_eq!(mass.is_nan(), nan),
                other => panic!("{data:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn debug_shows_pe() {
        assert!(format!("{:?}", simple()).contains("P(e)"));
    }
}
