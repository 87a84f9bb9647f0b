//! The structural part of a junction tree: clique domains, tree edges,
//! and a root-induced orientation — everything the task-graph builder and
//! the simulator need, without allocating potential tables.

use crate::{JtreeError, Result};
use evprop_potential::{Domain, VarId};
use std::collections::HashMap;
use std::fmt;

/// Index of a clique within a junction tree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CliqueId(pub usize);

impl CliqueId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for CliqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for CliqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A junction tree's *shape*: clique domains plus tree structure,
/// oriented away from a root clique.
///
/// The orientation (parent/children arrays) is derived state: rerooting
/// — the subject of §4 of the paper — only recomputes it, leaving the
/// underlying undirected topology untouched, exactly as the paper's
/// preorder-walk formulation (`α`) describes.
#[derive(Clone, Debug)]
pub struct TreeShape {
    domains: Vec<Domain>,
    /// Undirected adjacency lists.
    adj: Vec<Vec<CliqueId>>,
    root: CliqueId,
    parent: Vec<Option<CliqueId>>,
    children: Vec<Vec<CliqueId>>,
    /// Separator with the parent, per non-root clique.
    sep_dom: Vec<Option<Domain>>,
    /// Cliques in preorder (parents before children) for the current root.
    preorder: Vec<CliqueId>,
}

impl TreeShape {
    /// Builds a shape from clique domains, undirected edges, and a root.
    ///
    /// # Errors
    ///
    /// * [`JtreeError::NotATree`] — edge count differs from `N − 1` or the
    ///   graph is disconnected;
    /// * [`JtreeError::BadCliqueId`] — an edge or the root is out of range.
    ///
    /// Validation of the running-intersection property is separate (and
    /// more expensive): see [`TreeShape::validate`].
    pub fn new(domains: Vec<Domain>, edges: &[(usize, usize)], root: usize) -> Result<Self> {
        let n = domains.len();
        if root >= n {
            return Err(JtreeError::BadCliqueId(root));
        }
        if n > 0 && edges.len() != n - 1 {
            return Err(JtreeError::NotATree {
                cliques: n,
                edges: edges.len(),
            });
        }
        let mut adj: Vec<Vec<CliqueId>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(JtreeError::BadCliqueId(a));
            }
            if b >= n {
                return Err(JtreeError::BadCliqueId(b));
            }
            adj[a].push(CliqueId(b));
            adj[b].push(CliqueId(a));
        }
        let mut shape = TreeShape {
            domains,
            adj,
            root: CliqueId(root),
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            sep_dom: vec![None; n],
            preorder: Vec::with_capacity(n),
        };
        shape.orient_from(CliqueId(root))?;
        Ok(shape)
    }

    /// Recomputes the orientation from `new_root` via a preorder walk —
    /// the paper's rerooting procedure. O(N · w).
    ///
    /// # Errors
    ///
    /// [`JtreeError::BadCliqueId`] if out of range;
    /// [`JtreeError::NotATree`] if the walk cannot reach every clique.
    pub fn reroot(&mut self, new_root: CliqueId) -> Result<()> {
        if new_root.index() >= self.num_cliques() {
            return Err(JtreeError::BadCliqueId(new_root.index()));
        }
        self.orient_from(new_root)
    }

    fn orient_from(&mut self, root: CliqueId) -> Result<()> {
        let n = self.num_cliques();
        for v in &mut self.parent {
            *v = None;
        }
        for c in &mut self.children {
            c.clear();
        }
        for s in &mut self.sep_dom {
            *s = None;
        }
        self.preorder.clear();
        self.root = root;
        if n == 0 {
            return Ok(());
        }
        let mut visited = vec![false; n];
        let mut stack = vec![root];
        visited[root.index()] = true;
        while let Some(c) = stack.pop() {
            self.preorder.push(c);
            // deterministic child order: adjacency order
            for i in 0..self.adj[c.index()].len() {
                let nb = self.adj[c.index()][i];
                if !visited[nb.index()] {
                    visited[nb.index()] = true;
                    self.parent[nb.index()] = Some(c);
                    self.children[c.index()].push(nb);
                    self.sep_dom[nb.index()] =
                        Some(self.domains[nb.index()].intersect(&self.domains[c.index()]));
                    stack.push(nb);
                }
            }
        }
        if self.preorder.len() != n {
            return Err(JtreeError::NotATree {
                cliques: n,
                edges: n - 1,
            });
        }
        Ok(())
    }

    /// Number of cliques `N`.
    #[inline]
    pub fn num_cliques(&self) -> usize {
        self.domains.len()
    }

    /// The domain (variable set) of a clique.
    #[inline]
    pub fn domain(&self, c: CliqueId) -> &Domain {
        &self.domains[c.index()]
    }

    /// All clique domains, indexed by clique id.
    #[inline]
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The current root.
    #[inline]
    pub fn root(&self) -> CliqueId {
        self.root
    }

    /// Parent of a clique under the current orientation (`None` for the
    /// root).
    #[inline]
    pub fn parent(&self, c: CliqueId) -> Option<CliqueId> {
        self.parent[c.index()]
    }

    /// Children of a clique under the current orientation.
    #[inline]
    pub fn children(&self, c: CliqueId) -> &[CliqueId] {
        &self.children[c.index()]
    }

    /// Undirected neighbors of a clique.
    #[inline]
    pub fn neighbors(&self, c: CliqueId) -> &[CliqueId] {
        &self.adj[c.index()]
    }

    /// Undirected degree of a clique (the `k_t` of Eq. 2).
    #[inline]
    pub fn degree(&self, c: CliqueId) -> usize {
        self.adj[c.index()].len()
    }

    /// The separator domain between a non-root clique and its parent.
    ///
    /// # Panics
    ///
    /// Panics when called on the root, which has no parent separator.
    #[inline]
    pub fn parent_separator(&self, c: CliqueId) -> &Domain {
        self.sep_dom[c.index()]
            .as_ref()
            .expect("the root clique has no parent separator")
    }

    /// Cliques in preorder (every clique after its parent).
    #[inline]
    pub fn preorder(&self) -> &[CliqueId] {
        &self.preorder
    }

    /// Cliques in postorder (every clique before its parent) — the
    /// collect-phase schedule.
    pub fn postorder(&self) -> impl Iterator<Item = CliqueId> + '_ {
        self.preorder.iter().rev().copied()
    }

    /// Leaf cliques under the current orientation.
    pub fn leaves(&self) -> Vec<CliqueId> {
        (0..self.num_cliques())
            .map(CliqueId)
            .filter(|&c| self.children(c).is_empty())
            .collect()
    }

    /// Depth of each clique (root = 0).
    pub fn depths(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_cliques()];
        for &c in &self.preorder {
            if let Some(p) = self.parent(c) {
                d[c.index()] = d[p.index()] + 1;
            }
        }
        d
    }

    /// The cliques on the path from the root down to `c`, in
    /// root-first order (`c` included, the root included). The
    /// incremental engine distributes along exactly this path.
    pub fn path_from_root(&self, c: CliqueId) -> Vec<CliqueId> {
        let mut path = vec![c];
        let mut cur = c;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Every clique in the subtree rooted at `c` (c included), in
    /// preorder.
    pub fn subtree(&self, c: CliqueId) -> Vec<CliqueId> {
        let mut out = Vec::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            out.push(x);
            stack.extend(self.children(x).iter().rev().copied());
        }
        out
    }

    /// Checks the running-intersection property: for every variable, the
    /// set of cliques containing it forms a connected subtree. Also
    /// rejects empty separators on trees with more than one clique.
    ///
    /// # Errors
    ///
    /// [`JtreeError::RunningIntersectionViolated`] or
    /// [`JtreeError::EmptySeparator`].
    pub fn validate(&self) -> Result<()> {
        // For each variable, walk up from every containing clique; the
        // variable's occurrences are connected iff exactly one containing
        // clique has a parent that lacks the variable (the subtree root).
        let mut owners: HashMap<VarId, usize> = HashMap::new();
        for c in (0..self.num_cliques()).map(CliqueId) {
            for v in self.domain(c).vars() {
                let is_subtree_root = match self.parent(c) {
                    None => true,
                    Some(p) => !self.domain(p).contains(v.id()),
                };
                if is_subtree_root {
                    let e = owners.entry(v.id()).or_insert(0);
                    *e += 1;
                    if *e > 1 {
                        return Err(JtreeError::RunningIntersectionViolated(v.id()));
                    }
                }
            }
        }
        for c in (0..self.num_cliques()).map(CliqueId) {
            if let Some(p) = self.parent(c) {
                if self.parent_separator(c).is_empty() {
                    return Err(JtreeError::EmptySeparator {
                        a: c.index(),
                        b: p.index(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Total number of potential-table entries across all cliques — the
    /// memory footprint driver.
    pub fn total_state_space(&self) -> usize {
        self.domains.iter().map(Domain::size).sum()
    }

    /// Maximum clique width (the `w_C` the paper's complexity bounds use).
    pub fn max_width(&self) -> usize {
        self.domains.iter().map(Domain::width).max().unwrap_or(0)
    }

    /// The smallest clique whose domain contains every variable of
    /// `vars` (lowest id among equals), or `None` if no clique covers
    /// the set. Every read-out goes through this lookup, so all query
    /// paths marginalize a variable out of the same clique.
    pub fn smallest_clique_covering(&self, vars: &[VarId]) -> Option<CliqueId> {
        (0..self.num_cliques())
            .map(CliqueId)
            .filter(|&c| vars.iter().all(|&v| self.domain(c).contains(v)))
            .min_by_key(|&c| self.domain(c).size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_potential::Variable;

    fn dom(ids: &[u32]) -> Domain {
        Domain::new(ids.iter().map(|&i| Variable::binary(VarId(i))).collect()).unwrap()
    }

    /// A 4-clique path: C0{0,1} - C1{1,2} - C2{2,3} - C3{3,4}.
    fn path4() -> TreeShape {
        TreeShape::new(
            vec![dom(&[0, 1]), dom(&[1, 2]), dom(&[2, 3]), dom(&[3, 4])],
            &[(0, 1), (1, 2), (2, 3)],
            0,
        )
        .unwrap()
    }

    #[test]
    fn orientation_from_root() {
        let t = path4();
        assert_eq!(t.root(), CliqueId(0));
        assert_eq!(t.parent(CliqueId(1)), Some(CliqueId(0)));
        assert_eq!(t.children(CliqueId(0)), &[CliqueId(1)]);
        assert_eq!(t.leaves(), vec![CliqueId(3)]);
        assert_eq!(t.depths(), vec![0, 1, 2, 3]);
        assert_eq!(t.degree(CliqueId(1)), 2);
    }

    #[test]
    fn preorder_parents_first() {
        let t = path4();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, c) in t.preorder().iter().enumerate() {
                p[c.index()] = i;
            }
            p
        };
        for c in (0..4).map(CliqueId) {
            if let Some(p) = t.parent(c) {
                assert!(pos[p.index()] < pos[c.index()]);
            }
        }
        // postorder is reverse
        let post: Vec<CliqueId> = t.postorder().collect();
        assert_eq!(post.len(), 4);
        assert_eq!(post[3], t.root());
    }

    #[test]
    fn reroot_flips_orientation_only() {
        let mut t = path4();
        t.reroot(CliqueId(3)).unwrap();
        assert_eq!(t.root(), CliqueId(3));
        assert_eq!(t.parent(CliqueId(0)), Some(CliqueId(1)));
        assert_eq!(t.leaves(), vec![CliqueId(0)]);
        // undirected structure unchanged
        assert_eq!(t.neighbors(CliqueId(1)).len(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn separators_are_intersections() {
        let t = path4();
        assert_eq!(t.parent_separator(CliqueId(1)).var_ids(), vec![VarId(1)]);
        assert_eq!(t.parent_separator(CliqueId(3)).var_ids(), vec![VarId(3)]);
    }

    #[test]
    fn rejects_non_tree() {
        let e = TreeShape::new(vec![dom(&[0]), dom(&[0])], &[], 0).unwrap_err();
        assert!(matches!(e, JtreeError::NotATree { .. }));
        let e = TreeShape::new(
            vec![dom(&[0]), dom(&[0]), dom(&[0])],
            &[(0, 1), (0, 1)], // duplicate edge, C2 unreachable
            0,
        )
        .unwrap_err();
        assert!(matches!(e, JtreeError::NotATree { .. }));
    }

    #[test]
    fn rejects_bad_ids() {
        assert!(matches!(
            TreeShape::new(vec![dom(&[0])], &[], 3),
            Err(JtreeError::BadCliqueId(3))
        ));
        assert!(matches!(
            TreeShape::new(vec![dom(&[0]), dom(&[0])], &[(0, 5)], 0),
            Err(JtreeError::BadCliqueId(5))
        ));
    }

    #[test]
    fn path_and_subtree_queries() {
        let t = path4();
        assert_eq!(
            t.path_from_root(CliqueId(3)),
            vec![CliqueId(0), CliqueId(1), CliqueId(2), CliqueId(3)]
        );
        assert_eq!(t.path_from_root(CliqueId(0)), vec![CliqueId(0)]);
        assert_eq!(t.subtree(CliqueId(2)), vec![CliqueId(2), CliqueId(3)]);
        assert_eq!(t.subtree(CliqueId(0)).len(), 4);
        let mut r = path4();
        r.reroot(CliqueId(3)).unwrap();
        assert_eq!(
            r.path_from_root(CliqueId(0)),
            vec![CliqueId(3), CliqueId(2), CliqueId(1), CliqueId(0)]
        );
    }

    #[test]
    fn validate_detects_rip_violation() {
        // V0 appears in C0 and C2 but not the middle clique C1.
        let t = TreeShape::new(
            vec![dom(&[0, 1]), dom(&[1, 2]), dom(&[2, 0])],
            &[(0, 1), (1, 2)],
            0,
        )
        .unwrap();
        assert!(matches!(
            t.validate(),
            Err(JtreeError::RunningIntersectionViolated(v)) if v == VarId(0)
        ));
    }

    #[test]
    fn validate_detects_empty_separator() {
        let t = TreeShape::new(vec![dom(&[0]), dom(&[1])], &[(0, 1)], 0).unwrap();
        assert!(matches!(
            t.validate(),
            Err(JtreeError::EmptySeparator { .. })
        ));
    }

    #[test]
    fn validate_accepts_star() {
        // star: center {0,1,2}, leaves {0},{1},{2}
        let t = TreeShape::new(
            vec![dom(&[0, 1, 2]), dom(&[0]), dom(&[1]), dom(&[2])],
            &[(0, 1), (0, 2), (0, 3)],
            0,
        )
        .unwrap();
        t.validate().unwrap();
        assert_eq!(t.leaves().len(), 3);
        assert_eq!(t.max_width(), 3);
        assert_eq!(t.total_state_space(), 8 + 2 + 2 + 2);
    }

    #[test]
    fn single_clique_tree() {
        let t = TreeShape::new(vec![dom(&[0, 1])], &[], 0).unwrap();
        t.validate().unwrap();
        assert_eq!(t.leaves(), vec![CliqueId(0)]);
        assert_eq!(t.preorder(), &[CliqueId(0)]);
    }
}
