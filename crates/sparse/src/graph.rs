//! Adjacency-graph view of a symmetric sparsity pattern.
//!
//! Orderings operate on the undirected graph of the matrix: vertices are
//! rows/columns, and `{i, j}` is an edge iff `A[i][j] != 0` for `i != j`.
//! [`AdjGraph`] stores that graph in compressed adjacency form (both
//! directions present, no self loops), the format every ordering algorithm
//! in `parfact-order` consumes.

use crate::csc::CscMatrix;

/// Undirected graph in compressed adjacency (CSR-like) form.
///
/// Invariants: `adjncy[xadj[v]..xadj[v+1]]` lists the neighbors of `v`,
/// sorted ascending, without `v` itself, and edge `{u, v}` appears in both
/// lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjGraph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl AdjGraph {
    /// Build from raw compressed-adjacency arrays (trusted, debug-asserted).
    pub fn from_parts(xadj: Vec<usize>, adjncy: Vec<usize>) -> Self {
        debug_assert!(!xadj.is_empty());
        debug_assert_eq!(*xadj.last().unwrap(), adjncy.len());
        let g = AdjGraph { xadj, adjncy };
        debug_assert!(g.validate(), "adjacency invariants violated");
        g
    }

    /// Build the adjacency graph of a **symmetric-lower** CSC matrix,
    /// ignoring the diagonal and mirroring each off-diagonal entry.
    pub fn from_sym_lower(a: &CscMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        let n = a.ncols();
        let mut deg = vec![0usize; n];
        for c in 0..n {
            let (rows, _) = a.col(c);
            for &r in rows {
                if r != c {
                    deg[r] += 1;
                    deg[c] += 1;
                }
            }
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut adjncy = vec![0usize; xadj[n]];
        let mut next = xadj.clone();
        for c in 0..n {
            let (rows, _) = a.col(c);
            for &r in rows {
                if r != c {
                    adjncy[next[c]] = r;
                    next[c] += 1;
                    adjncy[next[r]] = c;
                    next[r] += 1;
                }
            }
        }
        for v in 0..n {
            adjncy[xadj[v]..xadj[v + 1]].sort_unstable();
        }
        AdjGraph { xadj, adjncy }
    }

    /// Number of vertices.
    pub fn nvert(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Raw `xadj` array.
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw `adjncy` array.
    pub fn adjncy(&self) -> &[usize] {
        &self.adjncy
    }

    /// Check all structural invariants (used by tests and debug asserts).
    pub fn validate(&self) -> bool {
        let n = self.nvert();
        if self.xadj[0] != 0 || self.xadj.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        for v in 0..n {
            let nb = self.neighbors(v);
            if nb.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            for &u in nb {
                if u >= n || u == v {
                    return false;
                }
                // Mirror edge must exist.
                if self.neighbors(u).binary_search(&v).is_err() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn path_graph(n: usize) -> AdjGraph {
        // Tridiagonal matrix -> path graph.
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            if i + 1 < n {
                a.push(i + 1, i, -1.0);
            }
        }
        AdjGraph::from_sym_lower(&a.to_csc())
    }

    #[test]
    fn path_graph_structure() {
        let g = path_graph(5);
        assert_eq!(g.nvert(), 5);
        assert_eq!(g.adjncy().len(), 2 * 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.degree(4), 1);
        assert!(g.validate());
    }

    #[test]
    fn diagonal_only_matrix_has_no_edges() {
        let mut a = CooMatrix::new(3, 3);
        for i in 0..3 {
            a.push(i, i, 1.0);
        }
        let g = AdjGraph::from_sym_lower(&a.to_csc());
        assert!(g.adjncy().is_empty());
        assert!(g.validate());
    }

    #[test]
    fn validate_rejects_asymmetric() {
        // Hand-built broken graph: edge 0->1 without mirror.
        let g = AdjGraph {
            xadj: vec![0, 1, 1],
            adjncy: vec![1],
        };
        assert!(!g.validate());
    }
}
