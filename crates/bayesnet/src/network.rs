//! Bayesian network structure and conditional probability tables.

use crate::{BayesError, Result};
use evprop_potential::{Domain, Odometer, PotentialTable, VarId, Variable};
use std::fmt;

/// The conditional probability table `P(X | pa(X))` of one variable.
///
/// Internally the distribution is stored as a [`PotentialTable`] over the
/// canonical (id-sorted) domain `{X} ∪ pa(X)`; rows supplied by the user
/// are indexed by the parent order *they* gave, so construction is
/// ergonomic while storage stays canonical.
#[derive(Clone, Debug, PartialEq)]
pub struct Cpt {
    child: Variable,
    parents: Vec<Variable>,
    table: PotentialTable,
}

impl Cpt {
    /// Builds a CPT from `rows`: one row per parent configuration
    /// (odometer order over `parents` as listed, last parent fastest),
    /// each row a distribution over the child's states.
    ///
    /// A root variable (no parents) has exactly one row: its prior.
    ///
    /// # Errors
    ///
    /// [`BayesError::CptShapeMismatch`] for wrong row/column counts,
    /// [`BayesError::BadCptEntry`] for a negative or non-finite entry and
    /// [`BayesError::UnnormalizedCpt`] if any row does not sum to 1
    /// within `1e-9`.
    pub fn new(child: Variable, parents: Vec<Variable>, rows: Vec<Vec<f64>>) -> Result<Self> {
        let parent_dom = Domain::new(parents.clone())?;
        let expected_rows: usize = parents.iter().map(|p| p.cardinality()).product();
        if rows.len() != expected_rows {
            return Err(BayesError::CptShapeMismatch {
                var: child.id(),
                expected: (expected_rows, child.cardinality()),
                found: (rows.len(), rows.first().map_or(0, Vec::len)),
            });
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != child.cardinality() {
                return Err(BayesError::CptShapeMismatch {
                    var: child.id(),
                    expected: (expected_rows, child.cardinality()),
                    found: (rows.len(), row.len()),
                });
            }
            // Before the sum test: `[1.5, -0.5]` sums to 1, and a NaN
            // sum fails no comparison.
            if let Some(&value) = row.iter().find(|p| !(p.is_finite() && **p >= 0.0)) {
                return Err(BayesError::BadCptEntry {
                    var: child.id(),
                    parent_config: i,
                    value,
                });
            }
            let s: f64 = row.iter().sum();
            if (s - 1.0).abs() > 1e-9 {
                return Err(BayesError::UnnormalizedCpt {
                    var: child.id(),
                    parent_config: i,
                    sum: s,
                });
            }
        }

        // Lay the rows into the canonical table over {child} ∪ parents.
        let mut all = parents.clone();
        all.push(child);
        let dom = Domain::new(all)?;
        let mut table = PotentialTable::zeros(dom.clone());
        // Odometer over parents in *user* order.
        let user_parent_dom = parents.clone();
        let mut states = vec![0usize; dom.width()];
        for (row_idx, parent_states) in parent_odometer(&user_parent_dom).enumerate() {
            for (child_state, &p) in rows[row_idx].iter().enumerate() {
                for (pos, v) in dom.vars().iter().enumerate() {
                    states[pos] = if v.id() == child.id() {
                        child_state
                    } else {
                        let k = parents.iter().position(|pv| pv.id() == v.id()).unwrap();
                        parent_states[k]
                    };
                }
                table.set(&states, p);
            }
        }
        let _ = parent_dom; // validated duplicates/cardinalities above
        Ok(Cpt {
            child,
            parents,
            table,
        })
    }

    /// A uniform CPT (every row the uniform distribution).
    pub fn uniform(child: Variable, parents: Vec<Variable>) -> Result<Self> {
        let rows: usize = parents.iter().map(|p| p.cardinality()).product();
        let row = vec![1.0 / child.cardinality() as f64; child.cardinality()];
        Cpt::new(child, parents, vec![row; rows])
    }

    /// The child variable.
    pub fn child(&self) -> Variable {
        self.child
    }

    /// The parent variables, in the order given at construction.
    pub fn parents(&self) -> &[Variable] {
        &self.parents
    }

    /// The CPT as a potential table over the canonical domain
    /// `{child} ∪ parents`.
    pub fn table(&self) -> &PotentialTable {
        &self.table
    }
}

/// Iterates over parent configurations in user order, last parent fastest.
fn parent_odometer(parents: &[Variable]) -> impl Iterator<Item = Vec<usize>> + '_ {
    // Reuse Odometer over a synthetic domain with ids 0..n standing for
    // the user positions, so user order (not id order) drives iteration.
    let synth = Domain::new(
        parents
            .iter()
            .enumerate()
            .map(|(i, p)| Variable::new(VarId(i as u32), p.cardinality()))
            .collect(),
    )
    .expect("synthetic positions are unique");
    Odometer::new(&synth)
}

/// A discrete Bayesian network: a DAG over variables, one CPT per node
/// (§2 of the paper; Fig. 1(a)).
///
/// Construct with [`BayesianNetworkBuilder`]; the builder checks
/// acyclicity, CPT completeness and normalization.
#[derive(Clone, Debug)]
pub struct BayesianNetwork {
    vars: Vec<Variable>,
    cpts: Vec<Cpt>,
    /// Parent ids per variable position.
    parents: Vec<Vec<VarId>>,
    /// Children ids per variable position.
    children: Vec<Vec<VarId>>,
}

impl BayesianNetwork {
    /// Number of variables (nodes).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The variables, indexed by position `0..n`; positions equal
    /// `VarId::index()` (ids are dense by construction).
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The variable with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn var(&self, id: VarId) -> Variable {
        self.vars[id.index()]
    }

    /// Parent ids of `id`.
    pub fn parents_of(&self, id: VarId) -> &[VarId] {
        &self.parents[id.index()]
    }

    /// Child ids of `id`.
    pub fn children_of(&self, id: VarId) -> &[VarId] {
        &self.children[id.index()]
    }

    /// The CPT of `id`.
    pub fn cpt(&self, id: VarId) -> &Cpt {
        &self.cpts[id.index()]
    }

    /// All CPTs, indexed by variable position.
    pub fn cpts(&self) -> &[Cpt] {
        &self.cpts
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }
}

impl fmt::Display for BayesianNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BayesianNetwork({} vars, {} edges)",
            self.num_vars(),
            self.num_edges()
        )
    }
}

/// Incremental builder for [`BayesianNetwork`].
///
/// # Example
///
/// ```
/// use evprop_bayesnet::BayesianNetworkBuilder;
///
/// let mut b = BayesianNetworkBuilder::new();
/// let rain = b.add_variable(2);
/// let wet = b.add_variable(2);
/// b.set_prior(rain, vec![0.8, 0.2]).unwrap();
/// b.set_cpt(wet, &[rain], vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
/// let net = b.build().unwrap();
/// assert_eq!(net.num_edges(), 1);
/// ```
#[derive(Debug, Default)]
pub struct BayesianNetworkBuilder {
    vars: Vec<Variable>,
    cpts: Vec<Option<Cpt>>,
}

impl BayesianNetworkBuilder {
    /// A builder with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a fresh variable with `cardinality` states and returns its
    /// id (ids are dense, assigned in declaration order).
    pub fn add_variable(&mut self, cardinality: usize) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable::new(id, cardinality));
        self.cpts.push(None);
        id
    }

    /// Sets the prior of a root variable: one row summing to 1.
    ///
    /// # Errors
    ///
    /// See [`Cpt::new`]; also [`BayesError::UnknownVariable`] /
    /// [`BayesError::DuplicateCpt`].
    pub fn set_prior(&mut self, var: VarId, prior: Vec<f64>) -> Result<&mut Self> {
        self.set_cpt(var, &[], vec![prior])
    }

    /// Sets the CPT of `var` given `parents`: one row per parent
    /// configuration (odometer order over `parents` as listed, last
    /// fastest).
    ///
    /// # Errors
    ///
    /// [`BayesError::UnknownVariable`] for undeclared ids,
    /// [`BayesError::DuplicateCpt`] if already set, plus [`Cpt::new`]'s
    /// shape/normalization errors.
    pub fn set_cpt(
        &mut self,
        var: VarId,
        parents: &[VarId],
        rows: Vec<Vec<f64>>,
    ) -> Result<&mut Self> {
        let child = *self
            .vars
            .get(var.index())
            .ok_or(BayesError::UnknownVariable(var))?;
        let parent_vars: Vec<Variable> = parents
            .iter()
            .map(|&p| {
                self.vars
                    .get(p.index())
                    .copied()
                    .ok_or(BayesError::UnknownVariable(p))
            })
            .collect::<Result<_>>()?;
        let slot = &mut self.cpts[var.index()];
        if slot.is_some() {
            return Err(BayesError::DuplicateCpt(var));
        }
        *slot = Some(Cpt::new(child, parent_vars, rows)?);
        Ok(self)
    }

    /// Finishes the network, checking every variable has a CPT and the
    /// edges form a DAG.
    ///
    /// # Errors
    ///
    /// [`BayesError::MissingCpt`] or [`BayesError::CyclicGraph`].
    pub fn build(self) -> Result<BayesianNetwork> {
        let n = self.vars.len();
        let mut cpts = Vec::with_capacity(n);
        for (i, c) in self.cpts.into_iter().enumerate() {
            cpts.push(c.ok_or(BayesError::MissingCpt(VarId(i as u32)))?);
        }
        let parents: Vec<Vec<VarId>> = cpts
            .iter()
            .map(|c| c.parents().iter().map(|p| p.id()).collect())
            .collect();
        let mut children: Vec<Vec<VarId>> = vec![Vec::new(); n];
        for (i, ps) in parents.iter().enumerate() {
            for p in ps {
                children[p.index()].push(VarId(i as u32));
            }
        }
        let net = BayesianNetwork {
            vars: self.vars,
            cpts,
            parents,
            children,
        };
        if crate::topo::topological_order(&net).is_none() {
            return Err(BayesError::CyclicGraph);
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpt_rows_land_in_canonical_table() {
        // child V0, parent V1 (child id < parent id: exercises sorting)
        let child = Variable::binary(VarId(0));
        let parent = Variable::binary(VarId(1));
        let cpt = Cpt::new(child, vec![parent], vec![vec![0.9, 0.1], vec![0.3, 0.7]]).unwrap();
        let t = cpt.table();
        // canonical domain order: V0, V1; P(V0=1 | V1=0) = 0.1
        assert_eq!(t.get(&[1, 0]), 0.1);
        assert_eq!(t.get(&[0, 1]), 0.3);
        assert_eq!(t.get(&[1, 1]), 0.7);
    }

    #[test]
    fn cpt_two_parents_user_order() {
        // P(c | a, b) with rows in odometer order over (a, b), b fastest.
        let a = Variable::binary(VarId(2));
        let b = Variable::binary(VarId(1));
        let c = Variable::binary(VarId(0));
        let rows = vec![
            vec![1.0, 0.0], // a=0,b=0
            vec![0.8, 0.2], // a=0,b=1
            vec![0.6, 0.4], // a=1,b=0
            vec![0.0, 1.0], // a=1,b=1
        ];
        let cpt = Cpt::new(c, vec![a, b], rows).unwrap();
        // canonical domain V0,V1,V2 = (c, b, a)
        assert_eq!(cpt.table().get(&[1, 1, 0]), 0.2); // c=1,b=1,a=0
        assert_eq!(cpt.table().get(&[0, 0, 1]), 0.6); // c=0,b=0,a=1
    }

    #[test]
    fn cpt_rejects_bad_shapes() {
        let v = Variable::binary(VarId(0));
        let p = Variable::binary(VarId(1));
        assert!(matches!(
            Cpt::new(v, vec![p], vec![vec![1.0, 0.0]]),
            Err(BayesError::CptShapeMismatch { .. })
        ));
        assert!(matches!(
            Cpt::new(v, vec![p], vec![vec![1.0], vec![1.0]]),
            Err(BayesError::CptShapeMismatch { .. })
        ));
    }

    #[test]
    fn cpt_rejects_unnormalized() {
        let v = Variable::binary(VarId(0));
        assert!(matches!(
            Cpt::new(v, vec![], vec![vec![0.5, 0.6]]),
            Err(BayesError::UnnormalizedCpt { .. })
        ));
    }

    #[test]
    fn cpt_rejects_negative_and_non_finite_entries() {
        let v = Variable::binary(VarId(4));
        let p = Variable::binary(VarId(1));
        // sums to 1, so only the entry check can catch it
        let err = Cpt::new(v, vec![p], vec![vec![0.5, 0.5], vec![1.5, -0.5]]).unwrap_err();
        assert_eq!(
            err,
            BayesError::BadCptEntry {
                var: VarId(4),
                parent_config: 1,
                value: -0.5,
            }
        );
        assert_eq!(
            err.to_string(),
            "CPT of V4 has entry -0.5 at parent configuration 1; \
             probabilities must be finite and >= 0"
        );
        // a NaN sum fails no comparison
        let err = Cpt::new(v, vec![], vec![vec![f64::NAN, 1.0]]).unwrap_err();
        assert!(
            matches!(err, BayesError::BadCptEntry { var: VarId(4), parent_config: 0, value } if value.is_nan()),
            "{err}"
        );
    }

    #[test]
    fn uniform_cpt() {
        let v = Variable::new(VarId(0), 4);
        let p = Variable::binary(VarId(1));
        let c = Cpt::uniform(v, vec![p]).unwrap();
        assert_eq!(c.table().get(&[2, 1]), 0.25);
    }

    #[test]
    fn builder_happy_path() {
        let mut b = BayesianNetworkBuilder::new();
        let x = b.add_variable(2);
        let y = b.add_variable(3);
        b.set_prior(x, vec![0.4, 0.6]).unwrap();
        b.set_cpt(y, &[x], vec![vec![0.2, 0.3, 0.5], vec![0.1, 0.1, 0.8]])
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.num_vars(), 2);
        assert_eq!(net.parents_of(y), &[x]);
        assert_eq!(net.children_of(x), &[y]);
        assert_eq!(net.var(y).cardinality(), 3);
        assert_eq!(net.num_edges(), 1);
        assert!(net.to_string().contains("2 vars"));
    }

    #[test]
    fn builder_detects_cycles() {
        let mut b = BayesianNetworkBuilder::new();
        let x = b.add_variable(2);
        let y = b.add_variable(2);
        b.set_cpt(x, &[y], vec![vec![0.5, 0.5], vec![0.5, 0.5]])
            .unwrap();
        b.set_cpt(y, &[x], vec![vec![0.5, 0.5], vec![0.5, 0.5]])
            .unwrap();
        assert_eq!(b.build().unwrap_err(), BayesError::CyclicGraph);
    }

    #[test]
    fn builder_detects_missing_and_duplicate_cpts() {
        let mut b = BayesianNetworkBuilder::new();
        let x = b.add_variable(2);
        assert!(matches!(b.build(), Err(BayesError::MissingCpt(_))));

        let mut b = BayesianNetworkBuilder::new();
        let x2 = b.add_variable(2);
        b.set_prior(x2, vec![0.5, 0.5]).unwrap();
        assert!(matches!(
            b.set_prior(x2, vec![0.5, 0.5]),
            Err(BayesError::DuplicateCpt(_))
        ));
        let _ = x;
    }

    #[test]
    fn builder_unknown_variable() {
        let mut b = BayesianNetworkBuilder::new();
        assert!(matches!(
            b.set_prior(VarId(0), vec![1.0]),
            Err(BayesError::UnknownVariable(_))
        ));
        let x = b.add_variable(2);
        assert!(matches!(
            b.set_cpt(x, &[VarId(9)], vec![vec![0.5, 0.5]]),
            Err(BayesError::UnknownVariable(_))
        ));
    }
}
