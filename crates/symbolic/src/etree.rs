//! Elimination tree (Liu's algorithm), postorder, and tree utilities.
//!
//! The elimination tree of a symmetric matrix has `parent(j) = min { i > j :
//! L[i][j] != 0 }`. It encodes every column dependency of the factorization
//! and is the skeleton all later analysis (and all parallelism) hangs off.

use crate::NONE;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;

/// Compute the elimination tree of a symmetric-lower CSC matrix using
/// Liu's algorithm with ancestor path compression. `O(nnz * α(n))`.
pub fn etree(a: &CscMatrix) -> Vec<usize> {
    let n = a.ncols();
    // Liu's algorithm must visit nodes i in ascending order and, for each,
    // the entries (i, j) with j < i — i.e. *row* i of the lower triangle.
    // (Sweeping columns instead can point a parent edge downward.) Row
    // access comes from the transpose.
    let at = a.to_csr();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for i in 0..n {
        let (cols, _) = at.row(i);
        for &j in cols {
            if j >= i {
                continue;
            }
            // Walk from j to the root of its current tree, compressing the
            // ancestor path to i as we go; the old root becomes i's child.
            let mut r = j;
            while r != NONE && r < i {
                let next = ancestor[r];
                ancestor[r] = i;
                if next == NONE {
                    parent[r] = i;
                }
                r = next;
            }
        }
    }
    parent
}

/// Postorder a forest given as a parent array. Children are visited in
/// ascending order, so the result is deterministic. Returns `post` where
/// `post[k]` is the original node visited `k`-th — i.e. a `new → old`
/// permutation vector.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Build child lists (ascending by construction).
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for j in (0..n).rev() {
        let p = parent[j];
        if p != NONE {
            next[j] = head[p];
            head[p] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in 0..n {
        if parent[root] != NONE {
            continue;
        }
        // Iterative DFS emitting nodes in postorder.
        stack.push(root);
        while let Some(&top) = stack.last() {
            let child = head[top];
            if child == NONE {
                post.push(top);
                stack.pop();
            } else {
                head[top] = next[child];
                stack.push(child);
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    post
}

/// Relabel a parent array under a `new → old` permutation:
/// `out[new_j] = new_of_old(parent[old_j])`.
pub fn relabel(parent: &[usize], perm: &Perm) -> Vec<usize> {
    let n = parent.len();
    let mut out = vec![NONE; n];
    for newj in 0..n {
        let oldj = perm.old_of_new(newj);
        let p = parent[oldj];
        out[newj] = if p == NONE { NONE } else { perm.new_of_old(p) };
    }
    out
}

/// True iff every parent index exceeds its child (the defining property of
/// a postordered elimination tree with consecutive subtrees).
pub fn is_postordered(parent: &[usize]) -> bool {
    parent.iter().enumerate().all(|(j, &p)| p == NONE || p > j)
}

/// Number of nodes in each subtree (requires a postordered parent array).
pub fn subtree_sizes(parent: &[usize]) -> Vec<usize> {
    debug_assert!(is_postordered(parent));
    let n = parent.len();
    let mut size = vec![1usize; n];
    for j in 0..n {
        let p = parent[j];
        if p != NONE {
            size[p] += size[j];
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::coo::CooMatrix;
    use parfact_sparse::gen;

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = gen::tridiagonal(6);
        let parent = etree(&a);
        assert_eq!(parent, vec![1, 2, 3, 4, 5, NONE]);
    }

    #[test]
    fn etree_of_diagonal_is_forest_of_singletons() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        let parent = etree(&coo.to_csc());
        assert_eq!(parent, vec![NONE; 4]);
    }

    #[test]
    fn etree_of_arrowhead_reversed() {
        // Arrowhead with the hub FIRST: every elimination of column 0
        // connects everything; parent(j) = j+1 after fill.
        let a = gen::arrowhead(5);
        let parent = etree(&a);
        assert_eq!(parent, vec![1, 2, 3, 4, NONE]);
    }

    #[test]
    fn etree_known_small_example() {
        // From Davis' book style: A lower pattern
        // col0: {0, 3}, col1: {1, 4}, col2: {2, 4}, col3: {3, 4}, col4: {4}.
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 4.0);
        }
        coo.push(3, 0, 1.0);
        coo.push(4, 1, 1.0);
        coo.push(4, 2, 1.0);
        coo.push(4, 3, 1.0);
        let parent = etree(&coo.to_csc());
        assert_eq!(parent, vec![3, 4, 4, 4, NONE]);
    }

    #[test]
    fn etree_fill_path_regression() {
        // Entries (2,0), (4,0), (3,2): eliminating 0 fills (4,2), so
        // parent[2] = 3 and parent[3] = 4 via fill. A column-order sweep
        // (the bug this guards against) wrongly produced parent[4] = 3.
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 4.0);
        }
        coo.push(2, 0, 1.0);
        coo.push(4, 0, 1.0);
        coo.push(3, 2, 1.0);
        let parent = etree(&coo.to_csc());
        assert_eq!(parent, vec![2, NONE, 3, 4, NONE]);
    }

    #[test]
    fn postorder_of_path_is_identity() {
        let parent = vec![1, 2, 3, NONE];
        assert_eq!(postorder(&parent), vec![0, 1, 2, 3]);
    }

    #[test]
    fn postorder_visits_children_before_parents() {
        // Star: root 3 with children 0, 1, 2.
        let parent = vec![3, 3, 3, NONE];
        let post = postorder(&parent);
        assert_eq!(post, vec![0, 1, 2, 3]);
    }

    #[test]
    fn postorder_handles_forest() {
        // Two trees: {0 -> 1} and {2 -> 3}.
        let parent = vec![1, NONE, 3, NONE];
        let post = postorder(&parent);
        assert_eq!(post.len(), 4);
        let pos: Vec<usize> = {
            let mut pos = vec![0; 4];
            for (k, &v) in post.iter().enumerate() {
                pos[v] = k;
            }
            pos
        };
        assert!(pos[0] < pos[1]);
        assert!(pos[2] < pos[3]);
    }

    #[test]
    fn relabel_preserves_tree_shape() {
        // Tree 0->2, 1->2 (root 2). Postorder = identity here, so test with a
        // nontrivial permutation instead.
        let parent = vec![2, 2, NONE];
        let p = Perm::from_vec(vec![2, 0, 1]); // new0=old2, new1=old0, new2=old1
        let rl = relabel(&parent, &p);
        // old2 (root) -> new0: parent NONE. old0 -> new1: parent old2 = new0.
        assert_eq!(rl, vec![NONE, 0, 0]);
    }

    #[test]
    fn postordered_etree_of_grid() {
        let a = gen::laplace2d(5, 4, gen::Stencil2d::FivePoint);
        let parent = etree(&a);
        let post = postorder(&parent);
        let p = Perm::from_vec(post);
        let rl = relabel(&parent, &p);
        assert!(is_postordered(&rl));
        // Re-permuted matrix has the same (relabeled) etree.
        let ap = p.apply_sym_lower(&a);
        assert_eq!(etree(&ap), rl);
    }

    #[test]
    fn subtree_sizes_of_postordered_tree() {
        // Postordered tree: 0->2, 1->2, 2->4, 3->4, root 4.
        let parent = vec![2, 2, 4, 4, NONE];
        assert_eq!(subtree_sizes(&parent), vec![1, 1, 3, 1, 5]);
    }
}
