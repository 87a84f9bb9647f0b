//! Junction-tree rerooting for minimizing the critical path (§4 of the
//! paper, Algorithm 1), plus the straightforward `O(w_C · N²)` method it
//! is compared against.
//!
//! ## Cost model (Eq. 2)
//!
//! The weight of a path is the sum of per-clique terms
//! `k_t · w_Ct · |ψ_Ct|` — degree × width × potential-table size — the
//! serial cost of the node-level primitives a clique executes during the
//! two propagation phases. The *critical path* of a rooted tree is the
//! heaviest root-to-leaf path; evidence propagation takes at least that
//! long regardless of core count, so the root minimizing it maximizes
//! available parallelism.
//!
//! ## Algorithm 1 in brief
//!
//! A bottom-up sweep computes, per clique, the heaviest (`p_i`) and
//! second-heaviest (`q_i`) child subtree chains; the clique maximizing
//! `v_i + v_{q_i}` sits on a maximum-weight leaf-to-leaf path, recovered
//! by descending the two chains (Lemma 1). The new root is the path
//! clique balancing the two sides, which minimizes the rooted tree's
//! eccentricity. Total cost `O(w_C · N)` versus `O(w_C · N²)` for trying
//! every root.
//!
//! Line 17 of the paper picks the path clique minimizing
//! `|L(x,C) − L(C,y)|`; we minimize `max(L(x,C), L(C,y))` instead, which
//! is the quantity the critical path actually depends on. The two rules
//! coincide when clique costs are uniform (all the paper's workloads);
//! the max rule is never worse.

use crate::{CliqueId, TreeShape};

/// Outcome of root selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootChoice {
    /// The selected root clique.
    pub root: CliqueId,
    /// The critical-path weight the tree has when rooted there.
    pub critical_path: u64,
}

/// The per-clique term of Eq. 2: `k_t · w_Ct · |ψ_Ct|` (degree × width ×
/// table size). Degree and width are clamped to at least 1 so single-
/// clique trees and scalar cliques still carry their table cost.
pub fn clique_cost(shape: &TreeShape, c: CliqueId) -> u64 {
    let k = shape.degree(c).max(1) as u64;
    let w = shape.domain(c).width().max(1) as u64;
    let size = shape.domain(c).size() as u64;
    k * w * size
}

/// Critical-path weight of the tree under its *current* root: the
/// maximum over cliques of the root-to-clique path weight (Eq. 2 summed
/// over path cliques, both endpoints included).
pub fn critical_path_weight(shape: &TreeShape) -> u64 {
    eccentricity(shape, shape.root())
}

/// Path-weight eccentricity of candidate root `r`, computed over the
/// undirected topology in O(N).
fn eccentricity(shape: &TreeShape, r: CliqueId) -> u64 {
    let n = shape.num_cliques();
    if n == 0 {
        return 0;
    }
    let mut dist = vec![0u64; n];
    let mut visited = vec![false; n];
    let mut stack = vec![r];
    visited[r.index()] = true;
    dist[r.index()] = clique_cost(shape, r);
    let mut max = dist[r.index()];
    while let Some(c) = stack.pop() {
        for &nb in shape.neighbors(c) {
            if !visited[nb.index()] {
                visited[nb.index()] = true;
                dist[nb.index()] = dist[c.index()] + clique_cost(shape, nb);
                max = max.max(dist[nb.index()]);
                stack.push(nb);
            }
        }
    }
    max
}

/// The straightforward root selection (§4): evaluate the critical path
/// for every candidate root and keep the minimum. `O(w_C · N²)`.
/// Deterministic: ties break toward the smaller clique id.
pub fn select_root_naive(shape: &TreeShape) -> RootChoice {
    let mut best = RootChoice {
        root: shape.root(),
        critical_path: u64::MAX,
    };
    for c in (0..shape.num_cliques()).map(CliqueId) {
        let ecc = eccentricity(shape, c);
        if ecc < best.critical_path {
            best = RootChoice {
                root: c,
                critical_path: ecc,
            };
        }
    }
    best
}

/// **Algorithm 1**: root selection minimizing the critical path in
/// `O(w_C · N)`.
///
/// ```
/// use evprop_jtree::{critical_path_weight, select_root};
/// use evprop_bayesnet::networks;
/// let mut jt = evprop_jtree::JunctionTree::from_network(&networks::asia())?;
/// let choice = select_root(jt.shape());
/// jt.reroot(choice.root)?;
/// assert_eq!(critical_path_weight(jt.shape()), choice.critical_path);
/// # Ok::<(), evprop_jtree::JtreeError>(())
/// ```
///
/// # Panics
///
/// Panics on an empty tree.
pub fn select_root(shape: &TreeShape) -> RootChoice {
    let n = shape.num_cliques();
    assert!(n > 0, "cannot select a root of an empty junction tree");

    // Lines 1–6: bottom-up sweep over the current orientation.
    // v[i]   — weight of the heaviest chain from C_i down to a leaf of its
    //          subtree (own cost included);
    // p[i]   — child starting that chain;
    // q[i]   — child starting the second-heaviest chain.
    let mut v: Vec<u64> = (0..n).map(|i| clique_cost(shape, CliqueId(i))).collect();
    let mut p: Vec<Option<CliqueId>> = vec![None; n];
    let mut q: Vec<Option<CliqueId>> = vec![None; n];
    for c in shape.postorder() {
        let mut best: Option<(u64, CliqueId)> = None;
        let mut second: Option<(u64, CliqueId)> = None;
        for &ch in shape.children(c) {
            let vc = v[ch.index()];
            match best {
                None => best = Some((vc, ch)),
                Some((bv, _)) if vc > bv => {
                    second = best;
                    best = Some((vc, ch));
                }
                _ => match second {
                    None => second = Some((vc, ch)),
                    Some((sv, _)) if vc > sv => second = Some((vc, ch)),
                    _ => {}
                },
            }
        }
        p[c.index()] = best.map(|(_, ch)| ch);
        q[c.index()] = second.map(|(_, ch)| ch);
        if let Some((bv, _)) = best {
            v[c.index()] += bv;
        }
    }

    // Line 7: the clique where the two heaviest chains meet.
    let m = (0..n)
        .map(CliqueId)
        .max_by_key(|c| {
            (
                v[c.index()] + q[c.index()].map_or(0, |ch| v[ch.index()]),
                // deterministic tie-break: smaller id wins via Reverse
                std::cmp::Reverse(c.index()),
            )
        })
        .expect("n > 0");

    // Lines 8–15: materialize the leaf-to-leaf path x ⋯ m ⋯ y.
    let mut path: Vec<CliqueId> = Vec::new();
    let mut c = m;
    loop {
        path.push(c);
        match p[c.index()] {
            Some(ch) => c = ch,
            None => break,
        }
    }
    path.reverse(); // now leaf x … m
    if let Some(mut c) = q[m.index()] {
        loop {
            path.push(c);
            match p[c.index()] {
                Some(ch) => c = ch,
                None => break,
            }
        }
    }

    // Line 17: balance point of the path. Prefix sums give L(x, C_i) and
    // L(C_i, y) in O(|path|).
    let costs: Vec<u64> = path.iter().map(|&c| clique_cost(shape, c)).collect();
    let total: u64 = costs.iter().sum();
    let mut prefix = 0u64; // L(x, C_i) inclusive
    let mut best: Option<(u64, CliqueId)> = None;
    for (i, &c) in path.iter().enumerate() {
        prefix += costs[i];
        let from_x = prefix;
        let to_y = total - prefix + costs[i];
        let worse_side = from_x.max(to_y);
        match best {
            None => best = Some((worse_side, c)),
            Some((b, _)) if worse_side < b => best = Some((worse_side, c)),
            _ => {}
        }
    }
    let root = best.expect("path is nonempty").1;
    RootChoice {
        root,
        critical_path: eccentricity(shape, root),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_potential::{Domain, VarId, Variable};

    /// Builds a shape whose cliques all contain `width` binary variables
    /// sharing one variable with their parent (a fresh chain per edge is
    /// irrelevant for cost testing; costs are uniform).
    fn uniform_tree(edges: &[(usize, usize)], n: usize, width: usize) -> TreeShape {
        // clique i gets variables {base_i .. base_i + width-1} with the
        // first variable shared with the parent to keep RIP-ish structure;
        // for cost tests only structure matters.
        let mut domains = Vec::with_capacity(n);
        for i in 0..n {
            let vars: Vec<Variable> = (0..width)
                .map(|j| Variable::binary(VarId((i * width + j) as u32)))
                .collect();
            domains.push(Domain::new(vars).unwrap());
        }
        TreeShape::new(domains, edges, 0).unwrap()
    }

    /// A path of n cliques 0-1-2-…-(n-1).
    fn path(n: usize, width: usize) -> TreeShape {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        uniform_tree(&edges, n, width)
    }

    #[test]
    fn path_center_is_optimal_root() {
        let shape = path(9, 2);
        let alg = select_root(&shape);
        let naive = select_root_naive(&shape);
        assert_eq!(alg.critical_path, naive.critical_path);
        assert_eq!(alg.root, CliqueId(4)); // exact middle
    }

    #[test]
    fn star_center_already_optimal() {
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let shape = uniform_tree(&edges, 6, 2);
        let alg = select_root(&shape);
        let naive = select_root_naive(&shape);
        assert_eq!(alg.critical_path, naive.critical_path);
        assert_eq!(alg.root, CliqueId(0));
    }

    #[test]
    fn critical_path_halves_on_rerooted_path() {
        // Rooted at one end, the critical path is the entire chain; at the
        // center it is about half — the mechanism behind Fig. 5's ≤2×.
        let mut shape = path(16, 2);
        let before = critical_path_weight(&shape);
        let choice = select_root(&shape);
        shape.reroot(choice.root).unwrap();
        let after = critical_path_weight(&shape);
        assert_eq!(after, choice.critical_path);
        assert!(after * 2 <= before + clique_cost(&shape, choice.root) * 2);
        assert!(after < before);
    }

    #[test]
    fn template_tree_reroot_matches_paper_fig4() {
        // Fig. 4: root R has one long branch (Branch 0) and b short
        // branches hanging off R'; rerooting moves the root toward the
        // balance point between Branch 0 and the longest other branch.
        // Build: R=0; Branch0 = 0-1-2-...-9 (long); R'=10 attached to 0;
        // branches of length 4 at R'.
        let mut edges = vec![];
        for i in 1..10 {
            edges.push((i - 1, i));
        }
        edges.push((0, 10));
        let mut next = 11;
        for _b in 0..3 {
            let mut prev = 10;
            for _ in 0..4 {
                edges.push((prev, next));
                prev = next;
                next += 1;
            }
        }
        let shape = uniform_tree(&edges, next, 2);
        let alg = select_root(&shape);
        let naive = select_root_naive(&shape);
        assert_eq!(alg.critical_path, naive.critical_path);
        // optimal root is strictly better than the original
        assert!(alg.critical_path < eccentricity_pub(&shape, CliqueId(0)));
    }

    fn eccentricity_pub(shape: &TreeShape, c: CliqueId) -> u64 {
        let mut s = shape.clone();
        s.reroot(c).unwrap();
        critical_path_weight(&s)
    }

    #[test]
    fn single_clique() {
        let shape = path(1, 3);
        let alg = select_root(&shape);
        assert_eq!(alg.root, CliqueId(0));
        assert_eq!(alg.critical_path, clique_cost(&shape, CliqueId(0)));
    }

    #[test]
    fn two_cliques() {
        let shape = path(2, 2);
        let alg = select_root(&shape);
        let naive = select_root_naive(&shape);
        assert_eq!(alg.critical_path, naive.critical_path);
    }

    #[test]
    fn cost_includes_degree_width_size() {
        let shape = path(3, 2);
        // middle clique has degree 2 -> cost 2 * 2 * 4 = 16; ends 1*2*4=8
        assert_eq!(clique_cost(&shape, CliqueId(0)), 8);
        assert_eq!(clique_cost(&shape, CliqueId(1)), 16);
    }

    #[test]
    fn reroot_does_not_change_undirected_critical_structure() {
        let shape = path(7, 2);
        let choice = select_root(&shape);
        let mut s2 = shape.clone();
        s2.reroot(choice.root).unwrap();
        // selecting again is idempotent
        let again = select_root(&s2);
        assert_eq!(again.critical_path, choice.critical_path);
    }
}
