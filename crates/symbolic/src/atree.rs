//! The assembly tree: the task graph of the multifrontal method.
//!
//! Each node is a supernode; the edge `s → parent(s)` says "the update
//! matrix produced by front `s` is assembled (extend-added) into front
//! `parent(s)`". Disjoint subtrees are independent — all parallelism in the
//! factorization, from SMP threads to simulated ranks, each given whole
//! subtrees by the subtree-to-subcube mapping, is parallelism over this
//! tree.

use crate::NONE;

/// Assembly tree over supernodes (numbered in column order = postorder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssemblyTree {
    /// Parent supernode, `NONE` at roots.
    pub parent: Vec<usize>,
    /// Children lists (ascending).
    pub children: Vec<Vec<usize>>,
    /// Root supernodes (ascending).
    pub roots: Vec<usize>,
}

impl AssemblyTree {
    /// Build from the supernode partition and per-supernode row structures:
    /// the parent is the supernode owning the first below-pivot row.
    pub fn build(sn_ptr: &[usize], sn_of: &[usize], sn_rows: &[Vec<usize>]) -> Self {
        let nsuper = sn_ptr.len() - 1;
        let mut parent = vec![NONE; nsuper];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nsuper];
        let mut roots = Vec::new();
        for s in 0..nsuper {
            match sn_rows[s].first() {
                Some(&r) => {
                    let p = sn_of[r];
                    debug_assert!(p > s, "assembly tree must be postordered");
                    parent[s] = p;
                    children[p].push(s);
                }
                None => roots.push(s),
            }
        }
        AssemblyTree {
            parent,
            children,
            roots,
        }
    }

    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Per-node subtree aggregate of an arbitrary weight function (e.g.
    /// flops per front): `out[s] = w(s) + Σ_{child c} out[c]`.
    pub fn subtree_sum(&self, weight: impl Fn(usize) -> f64) -> Vec<f64> {
        let n = self.len();
        let mut acc: Vec<f64> = (0..n).map(&weight).collect();
        for s in 0..n {
            if self.parent[s] != NONE {
                let v = acc[s];
                acc[self.parent[s]] += v;
            }
        }
        acc
    }

    /// The critical path length under a weight function: the maximum over
    /// leaves of the summed weight along the root path. This lower-bounds
    /// parallel factorization time and upper-bounds achievable speedup as
    /// `total / critical`.
    pub fn critical_path(&self, weight: impl Fn(usize) -> f64) -> f64 {
        let n = self.len();
        let mut up: Vec<f64> = (0..n).map(&weight).collect();
        let mut best: f64 = 0.0;
        for s in (0..n).rev() {
            if self.parent[s] != NONE {
                up[s] += up[self.parent[s]];
            }
            best = best.max(up[s]);
        }
        best
    }

    /// Validate structural invariants (postorder, mutual parent/child
    /// consistency, every non-root reachable from a root).
    pub fn validate(&self) -> bool {
        let n = self.len();
        for s in 0..n {
            let p = self.parent[s];
            if p == NONE {
                if self.roots.binary_search(&s).is_err() {
                    return false;
                }
            } else {
                if p <= s || p >= n {
                    return false;
                }
                if self.children[p].binary_search(&s).is_err() {
                    return false;
                }
            }
        }
        let child_edges: usize = self.children.iter().map(|c| c.len()).sum();
        child_edges + self.roots.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree used everywhere below:
    /// ```text
    ///        4
    ///       / \
    ///      2   3
    ///     / \
    ///    0   1
    /// ```
    fn sample() -> AssemblyTree {
        // Simulate via build(): supernodes 0..5 each one column; rows point
        // at the parent's column.
        let sn_ptr = vec![0, 1, 2, 3, 4, 5];
        let sn_of = vec![0, 1, 2, 3, 4];
        let sn_rows = vec![vec![2], vec![2], vec![4], vec![4], vec![]];
        AssemblyTree::build(&sn_ptr, &sn_of, &sn_rows)
    }

    #[test]
    fn build_sets_parents_and_children() {
        let t = sample();
        assert_eq!(t.parent, vec![2, 2, 4, 4, NONE]);
        assert_eq!(t.children[2], vec![0, 1]);
        assert_eq!(t.children[4], vec![2, 3]);
        assert_eq!(t.roots, vec![4]);
        assert!(t.validate());
    }

    #[test]
    fn subtree_sum_accumulates() {
        let t = sample();
        let acc = t.subtree_sum(|_| 1.0);
        assert_eq!(acc, vec![1.0, 1.0, 3.0, 1.0, 5.0]);
    }

    #[test]
    fn critical_path_with_uniform_weights() {
        let t = sample();
        // Longest root path: 0 -> 2 -> 4 = 3 nodes.
        assert_eq!(t.critical_path(|_| 1.0), 3.0);
        // Weighted: make node 3 heavy; path 3 -> 4 dominates.
        let w = [1.0, 1.0, 1.0, 10.0, 1.0];
        assert_eq!(t.critical_path(|s| w[s]), 11.0);
    }

    #[test]
    fn forest_with_two_roots() {
        let sn_ptr = vec![0, 1, 2, 3, 4];
        let sn_of = vec![0, 1, 2, 3];
        let sn_rows = vec![vec![1], vec![], vec![3], vec![]];
        let t = AssemblyTree::build(&sn_ptr, &sn_of, &sn_rows);
        assert_eq!(t.roots, vec![1, 3]);
        assert!(t.validate());
    }

    #[test]
    fn validate_catches_broken_children() {
        let mut t = sample();
        t.children[2].clear();
        assert!(!t.validate());
    }
}
