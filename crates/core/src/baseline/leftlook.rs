//! Sequential left-looking simplicial (column-by-column) Cholesky.
//!
//! No supernodes, no fronts: column `j` of `L` is computed by applying the
//! updates of every earlier column `k` with `L[j][k] != 0`, then scaling.
//! This is the textbook `O(flops)` algorithm with none of the BLAS-3
//! structure — the natural sequential baseline, and a fully independent
//! implementation used as a correctness oracle for the multifrontal
//! engines.

use crate::error::FactorError;
use parfact_sparse::csc::CscMatrix;
use parfact_symbolic::etree;
use parfact_symbolic::NONE;

/// Sparse lower factor in CSC form plus the elimination tree used.
pub struct SimplicialFactor {
    /// `L` (unit diagonal NOT implied; true Cholesky factor).
    pub l: CscMatrix,
    /// Elimination tree of the input.
    pub parent: Vec<usize>,
}

/// Symbolic structure of `L` column by column (sorted), via row subtrees.
pub fn symbolic_l(a: &CscMatrix, parent: &[usize]) -> Vec<Vec<usize>> {
    let n = a.ncols();
    let at = a.to_csr();
    let mut cols: Vec<Vec<usize>> = (0..n).map(|j| vec![j]).collect();
    let mut mark = vec![usize::MAX; n];
    for i in 0..n {
        mark[i] = i;
        let (cs, _) = at.row(i);
        for &j in cs {
            if j >= i {
                continue;
            }
            let mut x = j;
            while mark[x] != i {
                mark[x] = i;
                cols[x].push(i);
                x = parent[x];
                debug_assert_ne!(x, NONE);
            }
        }
    }
    for c in cols.iter_mut() {
        c.sort_unstable();
    }
    cols
}

/// Left-looking simplicial Cholesky of a symmetric-lower matrix (already
/// permuted by the caller's fill ordering, or not — any order works).
// lint:allow(R7) reference factorization: the bitwise oracle of `fanout_matches_leftlooking_bitwise` and `multifrontal_matches_leftlooking_oracle`
pub fn factorize_leftlooking(a: &CscMatrix) -> Result<SimplicialFactor, FactorError> {
    a.check_sym_lower()?;
    let n = a.ncols();
    let parent = etree::etree(a);
    let pattern = symbolic_l(a, &parent);

    // Row-structure access of L (needed to know the k with L[j][k] != 0):
    // row lists derived from the column patterns.
    let mut rowlist: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, pat) in pattern.iter().enumerate() {
        for &i in pat {
            if i > k {
                rowlist[i].push(k);
            }
        }
    }

    // Dense scatter workspace for the current column.
    let mut work = vec![0.0f64; n];
    let mut colptr = vec![0usize; n + 1];
    let mut rowind: Vec<usize> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    // L columns already computed, in CSC-ish parallel arrays.
    let mut lcols: Vec<(Vec<usize>, Vec<f64>)> = Vec::with_capacity(n);

    for j in 0..n {
        // Scatter A[:, j] (lower part).
        let (arows, avals) = a.col(j);
        for (&r, &v) in arows.iter().zip(avals) {
            work[r] = v;
        }
        // Apply updates from every k with L[j][k] != 0.
        for &k in &rowlist[j] {
            let (krows, kvals) = &lcols[k];
            // Find L[j][k].
            let pos = krows.binary_search(&j).expect("structure mismatch");
            let ljk = kvals[pos];
            if ljk != 0.0 {
                for (&r, &v) in krows[pos..].iter().zip(&kvals[pos..]) {
                    work[r] -= v * ljk;
                }
            }
        }
        // Scale.
        let djj = work[j];
        if djj <= 0.0 || !djj.is_finite() {
            return Err(FactorError::NotPositiveDefinite { col: j, value: djj });
        }
        let root = djj.sqrt();
        let pat = &pattern[j];
        let mut col_rows = Vec::with_capacity(pat.len());
        let mut col_vals = Vec::with_capacity(pat.len());
        for &r in pat {
            let v = if r == j { root } else { work[r] / root };
            col_rows.push(r);
            col_vals.push(v);
            work[r] = 0.0;
        }
        rowind.extend_from_slice(&col_rows);
        vals.extend_from_slice(&col_vals);
        colptr[j + 1] = rowind.len();
        lcols.push((col_rows, col_vals));
    }
    Ok(SimplicialFactor {
        l: CscMatrix::from_parts(n, n, colptr, rowind, vals),
        parent,
    })
}

impl SimplicialFactor {
    /// Solve `A x = b` (in the same index space the factor was computed in).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.ncols();
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        // Forward L y = b.
        for j in 0..n {
            let (rows, vals) = self.l.col(j);
            let xj = x[j] / vals[0];
            x[j] = xj;
            for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                x[r] -= v * xj;
            }
        }
        // Backward L^T z = y.
        for j in (0..n).rev() {
            let (rows, vals) = self.l.col(j);
            let mut acc = x[j];
            for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
                acc -= v * x[r];
            }
            x[j] = acc / vals[0];
        }
        x
    }

    /// Factor nonzeros.
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::{gen, ops};

    #[test]
    fn factor_matches_multifrontal_values() {
        let a = gen::laplace2d(8, 7, gen::Stencil2d::FivePoint);
        let sf = factorize_leftlooking(&a).unwrap();
        // Independent check: L L^T x = b solves the system.
        let xstar: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; a.nrows()];
        a.sym_spmv(&xstar, &mut b);
        let x = sf.solve(&b);
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-10);
        }
    }

    #[test]
    fn nnz_matches_symbolic_prediction() {
        let a = gen::laplace2d(10, 10, gen::Stencil2d::FivePoint);
        let sf = factorize_leftlooking(&a).unwrap();
        // Strict (no amalgamation) symbolic count must equal simplicial nnz.
        let (sym, _) = parfact_symbolic::analyze(
            &a,
            &parfact_symbolic::AmalgOpts {
                min_width: 0,
                relax_frac: 0.0,
            },
        );
        assert_eq!(sf.nnz(), sym.factor_nnz());
    }

    #[test]
    fn rejects_indefinite() {
        let a = gen::indefinite(30, 2);
        assert!(matches!(
            factorize_leftlooking(&a),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn tridiagonal_known_factor() {
        // A = tridiag(-1, 2, -1), n=2: L = [[sqrt2, 0], [-1/sqrt2, sqrt(3/2)]].
        let a = gen::tridiagonal(2);
        let sf = factorize_leftlooking(&a).unwrap();
        let s2 = 2.0f64.sqrt();
        assert!((sf.l.get(0, 0).unwrap() - s2).abs() < 1e-15);
        assert!((sf.l.get(1, 0).unwrap() + 1.0 / s2).abs() < 1e-15);
        assert!((sf.l.get(1, 1).unwrap() - (1.5f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn residual_small_on_elasticity() {
        let a = gen::elasticity3d(3, 2, 2);
        let sf = factorize_leftlooking(&a).unwrap();
        let b = vec![1.0; a.nrows()];
        let x = sf.solve(&b);
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    }
}
