//! Potential tables: the ψ of the paper.

use crate::{Domain, PotentialError, Result, VarId};
use std::fmt;

/// A potential table ψ over a [`Domain`]: one non-negative `f64` per joint
/// state, laid out row-major with the last domain variable fastest.
///
/// For a clique `C` with `w` variables of `r` states each, the table has
/// `r^w` entries — the quantity that drives task weights and the
/// Partition module's split threshold δ in the collaborative scheduler.
///
/// # Example
///
/// ```
/// use evprop_potential::{Domain, PotentialTable, Variable, VarId};
/// let d = Domain::new(vec![Variable::binary(VarId(0))]).unwrap();
/// let mut t = PotentialTable::from_data(d, vec![3.0, 1.0]).unwrap();
/// t.normalize();
/// assert_eq!(t.data(), &[0.75, 0.25]);
/// ```
#[derive(Clone, PartialEq)]
pub struct PotentialTable {
    domain: Domain,
    data: Vec<f64>,
}

// A potential table is never empty (the empty domain has one joint
// state), so `is_empty` would be constantly false and misleading;
// `is_scalar` covers the meaningful question.
#[allow(clippy::len_without_is_empty)]
impl PotentialTable {
    /// A table of zeros over `domain`.
    pub fn zeros(domain: Domain) -> Self {
        let n = domain.size();
        PotentialTable {
            domain,
            data: vec![0.0; n],
        }
    }

    /// A table of ones over `domain` — the multiplicative identity used to
    /// initialize clique and separator potentials.
    pub fn ones(domain: Domain) -> Self {
        let n = domain.size();
        PotentialTable {
            domain,
            data: vec![1.0; n],
        }
    }

    /// A table with explicit entries.
    ///
    /// # Errors
    ///
    /// Returns [`PotentialError::DataSizeMismatch`] when `data.len()`
    /// differs from `domain.size()`.
    pub fn from_data(domain: Domain, data: Vec<f64>) -> Result<Self> {
        if data.len() != domain.size() {
            return Err(PotentialError::DataSizeMismatch {
                expected: domain.size(),
                found: data.len(),
            });
        }
        Ok(PotentialTable { domain, data })
    }

    /// The scalar table (empty domain) holding `value`.
    pub fn scalar(value: f64) -> Self {
        PotentialTable {
            domain: Domain::empty(),
            data: vec![value],
        }
    }

    /// The table's domain.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The raw entries in flat-index order.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw entries.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Domain and mutable entries borrowed at once — lets the `*_range`
    /// methods delegate to the [`crate::raw`] functions without fighting
    /// the borrow checker.
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&Domain, &mut [f64]) {
        (&self.domain, &mut self.data)
    }

    /// Number of entries (`domain().size()`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the table is a scalar with no variables.
    ///
    /// Note a potential table is never length zero: the empty domain has
    /// exactly one joint state.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.domain.is_empty()
    }

    /// Reads the entry for a full assignment (states in domain order).
    pub fn get(&self, states: &[usize]) -> f64 {
        self.data[self.domain.flat_index(states)]
    }

    /// Writes the entry for a full assignment (states in domain order).
    pub fn set(&mut self, states: &[usize], value: f64) {
        let idx = self.domain.flat_index(states);
        self.data[idx] = value;
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Rescales entries to sum to 1. A table summing to zero is left
    /// unchanged (there is no meaningful normalization for it).
    pub fn normalize(&mut self) {
        let s = self.sum();
        if s > 0.0 {
            let inv = 1.0 / s;
            for v in &mut self.data {
                *v *= inv;
            }
        }
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Overwrites this table's entries with `src`'s, **without
    /// reallocating** — the in-place counterpart of cloning, used by the
    /// serving path to reset clique buffers between queries.
    ///
    /// # Errors
    ///
    /// Returns [`PotentialError::DomainMismatch`] when the tables are
    /// not over the same domain.
    pub fn copy_from(&mut self, src: &PotentialTable) -> Result<()> {
        if self.domain != src.domain {
            return Err(PotentialError::DomainMismatch);
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Multiplies every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Maximum absolute difference against another table over the same
    /// domain. Used pervasively by tests to compare engines.
    ///
    /// # Panics
    ///
    /// Panics if the domains differ.
    pub fn max_abs_diff(&self, other: &PotentialTable) -> f64 {
        assert_eq!(
            self.domain, other.domain,
            "max_abs_diff requires identical domains"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` when the two tables agree entrywise within `tol` and share a
    /// domain.
    pub fn approx_eq(&self, other: &PotentialTable, tol: f64) -> bool {
        self.domain == other.domain && self.max_abs_diff(other) <= tol
    }

    /// Restricts the table by an instantiated variable: entries whose
    /// state of `var` differs from `state` are zeroed. This is how
    /// evidence is *absorbed* at a clique (§2 of the paper).
    ///
    /// # Errors
    ///
    /// [`PotentialError::UnknownVariable`] if `var` is not in the domain;
    /// [`PotentialError::StateOutOfRange`] if `state` exceeds its
    /// cardinality.
    pub fn restrict(&mut self, var: VarId, state: usize) -> Result<()> {
        let pos = self
            .domain
            .position_of(var)
            .ok_or(PotentialError::UnknownVariable(var))?;
        let card = self.domain.vars()[pos].cardinality();
        if state >= card {
            return Err(PotentialError::StateOutOfRange {
                var,
                state,
                cardinality: card,
            });
        }
        let stride = self.domain.stride(pos);
        let block = stride * card;
        for base in (0..self.data.len()).step_by(block) {
            for s in 0..card {
                if s == state {
                    continue;
                }
                let lo = base + s * stride;
                self.data[lo..lo + stride].fill(0.0);
            }
        }
        Ok(())
    }

    /// Consumes the table, returning its raw entries.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }
}

impl fmt::Debug for PotentialTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PotentialTable({:?}, {} entries",
            self.domain,
            self.len()
        )?;
        if self.len() <= 16 {
            write!(f, ", {:?}", self.data)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variable;

    fn dom(spec: &[(u32, usize)]) -> Domain {
        Domain::new(
            spec.iter()
                .map(|&(id, c)| Variable::new(VarId(id), c))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_identity() {
        let d = dom(&[(0, 2), (1, 3)]);
        assert_eq!(PotentialTable::zeros(d.clone()).sum(), 0.0);
        let ones = PotentialTable::ones(d.clone());
        assert_eq!(ones.sum(), 6.0);
        assert_eq!(ones.len(), 6);
        assert!(!ones.is_scalar());
    }

    #[test]
    fn from_data_validates_length() {
        let d = dom(&[(0, 2)]);
        assert!(PotentialTable::from_data(d.clone(), vec![1.0]).is_err());
        assert!(PotentialTable::from_data(d, vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let d = dom(&[(0, 2), (1, 3)]);
        let mut t = PotentialTable::zeros(d);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.get(&[1, 2]), 7.0);
        assert_eq!(t.get(&[0, 2]), 0.0);
        assert_eq!(t.data()[5], 7.0); // 1*3 + 2
    }

    #[test]
    fn normalize_sums_to_one() {
        let d = dom(&[(0, 4)]);
        let mut t = PotentialTable::from_data(d, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        t.normalize();
        assert!((t.sum() - 1.0).abs() < 1e-12);
        assert_eq!(t.data()[0], 0.25);
    }

    #[test]
    fn normalize_zero_table_is_noop() {
        let d = dom(&[(0, 2)]);
        let mut t = PotentialTable::zeros(d);
        t.normalize();
        assert_eq!(t.data(), &[0.0, 0.0]);
    }

    #[test]
    fn scalar_table() {
        let t = PotentialTable::scalar(4.5);
        assert!(t.is_scalar());
        assert_eq!(t.len(), 1);
        assert_eq!(t.sum(), 4.5);
    }

    #[test]
    fn restrict_zeroes_inconsistent_entries() {
        // P(A,B), restrict A=1
        let d = dom(&[(0, 2), (1, 3)]);
        let mut t = PotentialTable::from_data(d, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        t.restrict(VarId(0), 1).unwrap();
        assert_eq!(t.data(), &[0.0, 0.0, 0.0, 4.0, 5.0, 6.0]);
        // restrict B=0 next
        t.restrict(VarId(1), 0).unwrap();
        assert_eq!(t.data(), &[0.0, 0.0, 0.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn restrict_middle_variable() {
        let d = dom(&[(0, 2), (1, 2), (2, 2)]);
        let mut t = PotentialTable::ones(d);
        t.restrict(VarId(1), 0).unwrap();
        // entries with V1 = 1 are zero: indices 2,3,6,7
        assert_eq!(t.data(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn restrict_errors() {
        let d = dom(&[(0, 2)]);
        let mut t = PotentialTable::ones(d);
        assert!(matches!(
            t.restrict(VarId(9), 0),
            Err(PotentialError::UnknownVariable(_))
        ));
        assert!(matches!(
            t.restrict(VarId(0), 2),
            Err(PotentialError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let d = dom(&[(0, 2)]);
        let a = PotentialTable::from_data(d.clone(), vec![1.0, 2.0]).unwrap();
        let b = PotentialTable::from_data(d, vec![1.0, 2.5]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.4));
    }

    #[test]
    fn scale_and_fill() {
        let d = dom(&[(0, 2)]);
        let mut t = PotentialTable::ones(d);
        t.scale(3.0);
        assert_eq!(t.data(), &[3.0, 3.0]);
        t.fill(0.5);
        assert_eq!(t.data(), &[0.5, 0.5]);
    }

    #[test]
    fn copy_from_resets_in_place() {
        let d = dom(&[(0, 2)]);
        let src = PotentialTable::from_data(d.clone(), vec![0.25, 0.75]).unwrap();
        let mut dst = PotentialTable::zeros(d);
        dst.copy_from(&src).unwrap();
        assert_eq!(dst.data(), src.data());
        // mismatched domains are rejected, even at equal size
        let other = PotentialTable::ones(dom(&[(1, 2)]));
        assert_eq!(dst.copy_from(&other), Err(PotentialError::DomainMismatch));
    }

    #[test]
    fn debug_shows_entries_for_small_tables() {
        let d = dom(&[(0, 2)]);
        let t = PotentialTable::ones(d);
        let s = format!("{t:?}");
        assert!(s.contains("2 entries"));
        assert!(s.contains("1.0"));
    }
}
