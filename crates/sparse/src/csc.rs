//! Compressed sparse column format — the solver's working format.
//!
//! The factorization stack stores symmetric matrices as the **lower
//! triangle in CSC** (`A[i][j]` kept iff `i >= j`), the convention used by
//! classic sparse Cholesky codes: column `j` then lists exactly the
//! below-diagonal structure that the elimination of `j` touches.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// Sparse matrix in compressed sparse column form. Row indices within each
/// column are sorted ascending and unique.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Assemble from raw parts. Debug-asserts the CSC invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(colptr.len(), ncols + 1);
        debug_assert_eq!(colptr[0], 0);
        debug_assert_eq!(*colptr.last().unwrap(), rowind.len());
        debug_assert_eq!(rowind.len(), vals.len());
        debug_assert!(colptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..ncols).all(|c| {
            let col = &rowind[colptr[c]..colptr[c + 1]];
            col.windows(2).all(|w| w[0] < w[1]) && col.iter().all(|&r| r < nrows)
        }));
        CscMatrix {
            nrows,
            ncols,
            colptr,
            rowind,
            vals,
        }
    }

    /// An `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowind: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Column pointer array (length `ncols + 1`).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row indices, concatenated column by column.
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// Values, parallel to [`Self::rowind`].
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values (structure stays fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The row indices and values of column `c`.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.colptr[c], self.colptr[c + 1]);
        (&self.rowind[lo..hi], &self.vals[lo..hi])
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let (rows, vals) = self.col(c);
        rows.binary_search(&r).ok().map(|k| vals[k])
    }

    /// `y = A x` where `self` stores the **lower triangle of a symmetric**
    /// matrix (diagonal included). The implicit upper triangle is applied
    /// on the fly.
    pub fn sym_spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(self.nrows, self.ncols, "symmetric matrix must be square");
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        y.fill(0.0);
        for c in 0..self.ncols {
            let (rows, vals) = self.col(c);
            let xc = x[c];
            for (&r, &v) in rows.iter().zip(vals) {
                y[r] += v * xc;
                if r != c {
                    y[c] += v * x[r];
                }
            }
        }
    }

    /// Convert to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        // CSR of A = transpose of (CSC of A read as CSR of Aᵀ).
        let as_csr_of_t = CsrMatrix::from_parts(
            self.ncols,
            self.nrows,
            self.colptr.clone(),
            self.rowind.clone(),
            self.vals.clone(),
        );
        as_csr_of_t.transpose()
    }

    /// Check the lower-triangle convention: square, every entry on or below
    /// the diagonal, and every diagonal entry structurally present.
    pub fn check_sym_lower(&self) -> Result<(), SparseError> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        for c in 0..self.ncols {
            let (rows, _) = self.col(c);
            match rows.first() {
                Some(&r0) if r0 == c => {}
                Some(&r0) if r0 < c => return Err(SparseError::NotLower { row: r0, col: c }),
                _ => return Err(SparseError::MissingDiagonal { col: c }),
            }
        }
        Ok(())
    }

    /// Extract the lower triangle (diagonal included) of a general square
    /// matrix, producing the solver's symmetric-lower form.
    pub fn lower_triangle(&self) -> CscMatrix {
        assert_eq!(self.nrows, self.ncols);
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowind = Vec::new();
        let mut vals = Vec::new();
        for c in 0..self.ncols {
            let (rows, v) = self.col(c);
            for (&r, &x) in rows.iter().zip(v) {
                if r >= c {
                    rowind.push(r);
                    vals.push(x);
                }
            }
            colptr[c + 1] = rowind.len();
        }
        CscMatrix::from_parts(self.nrows, self.ncols, colptr, rowind, vals)
    }

    /// Expand a symmetric-lower matrix into its full (both-triangles) form.
    // lint:allow(R7) reference expansion of symmetric-lower storage: the oracle the `sym_spmv`, `lower_triangle` and `apply_sym_lower` tests compare against
    pub fn sym_to_full(&self) -> CscMatrix {
        assert_eq!(self.nrows, self.ncols);
        let n = self.ncols;
        // Count entries per column of the full matrix.
        let mut count = vec![0usize; n];
        for c in 0..n {
            let (rows, _) = self.col(c);
            for &r in rows {
                count[c] += 1;
                if r != c {
                    count[r] += 1;
                }
            }
        }
        let mut colptr = vec![0usize; n + 1];
        for c in 0..n {
            colptr[c + 1] = colptr[c] + count[c];
        }
        let nnz = colptr[n];
        let mut rowind = vec![0usize; nnz];
        let mut vals = vec![0f64; nnz];
        let mut next = colptr.clone();
        // Emit in row-sorted order per column: first the mirrored upper part
        // (rows < c come from columns r < c processed in order), then the
        // lower part. Processing columns ascending and appending (r, c) pairs
        // in ascending r keeps each output column sorted.
        for c in 0..n {
            let (rows, v) = self.col(c);
            for (&r, &x) in rows.iter().zip(v) {
                if r != c {
                    // Mirror into column r at row c (c > r, appended after
                    // all rows < c for that column).
                    let slot = next[r];
                    rowind[slot] = c;
                    vals[slot] = x;
                    next[r] += 1;
                }
            }
        }
        // Now append the stored lower entries column by column.
        // Careful: the mirrored entries for column c all have row > c, but we
        // appended them *before* the lower entries of column c, which start at
        // row c. Rebuild properly: mirrored entries of column r have rows > r,
        // and lower entries of column r also have rows >= r. To get sorted
        // columns we must interleave. Simplest correct approach: collect and
        // sort each column once at the end.
        for c in 0..n {
            let (rows, v) = self.col(c);
            for (&r, &x) in rows.iter().zip(v) {
                let slot = next[c];
                rowind[slot] = r;
                vals[slot] = x;
                next[c] += 1;
            }
        }
        for c in 0..n {
            let (lo, hi) = (colptr[c], colptr[c + 1]);
            let mut pairs: Vec<(usize, f64)> = rowind[lo..hi]
                .iter()
                .copied()
                .zip(vals[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(r, _)| r);
            for (k, (r, x)) in pairs.into_iter().enumerate() {
                rowind[lo + k] = r;
                vals[lo + k] = x;
            }
        }
        CscMatrix::from_parts(n, n, colptr, rowind, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sym_lower_3x3() -> CscMatrix {
        // Full matrix:
        // [ 4 -1  0]
        // [-1  4 -2]
        // [ 0 -2  5]
        let mut a = CooMatrix::new(3, 3);
        a.push(0, 0, 4.0);
        a.push(1, 0, -1.0);
        a.push(1, 1, 4.0);
        a.push(2, 1, -2.0);
        a.push(2, 2, 5.0);
        a.to_csc()
    }

    #[test]
    fn col_access() {
        let a = sym_lower_3x3();
        let (rows, vals) = a.col(1);
        assert_eq!(rows, &[1, 2]);
        assert_eq!(vals, &[4.0, -2.0]);
    }

    #[test]
    fn sym_spmv_matches_the_full_matrix() {
        let a = sym_lower_3x3();
        let full = a.sym_to_full();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.sym_spmv(&x, &mut y);
        let want: Vec<f64> = (0..3)
            .map(|r| (0..3).map(|c| full.get(r, c).unwrap_or(0.0) * x[c]).sum())
            .collect();
        assert_eq!(y, want);
    }

    #[test]
    fn sym_to_full_is_symmetric() {
        let f = sym_lower_3x3().sym_to_full();
        assert_eq!(f.nnz(), 7);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(f.get(r, c), f.get(c, r));
            }
        }
    }

    #[test]
    fn check_sym_lower_accepts_valid() {
        assert!(sym_lower_3x3().check_sym_lower().is_ok());
    }

    #[test]
    fn check_sym_lower_rejects_upper_entry() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, 1.0);
        a.push(0, 1, 2.0); // upper entry
        a.push(1, 1, 1.0);
        let csc = a.to_csc();
        assert!(matches!(
            csc.check_sym_lower(),
            Err(SparseError::NotLower { row: 0, col: 1 })
        ));
    }

    #[test]
    fn check_sym_lower_rejects_missing_diagonal() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, 1.0);
        a.push(1, 0, 2.0);
        let csc = a.to_csc();
        assert_eq!(
            csc.check_sym_lower(),
            Err(SparseError::MissingDiagonal { col: 1 })
        );
        // An empty column and one with only below-diagonal entries alike.
        let mut b = CooMatrix::new(3, 3);
        b.push(1, 1, 1.0);
        b.push(2, 0, 1.0);
        b.push(2, 2, 1.0);
        let err = b.to_csc().check_sym_lower().unwrap_err();
        assert_eq!(err, SparseError::MissingDiagonal { col: 0 });
        assert_eq!(
            err.to_string(),
            "diagonal entry (0, 0) is not stored; store it, as an explicit zero if need be"
        );
    }

    #[test]
    fn lower_triangle_of_full() {
        let full = sym_lower_3x3().sym_to_full();
        let low = full.lower_triangle();
        assert_eq!(low, sym_lower_3x3());
    }

    #[test]
    fn csr_roundtrip() {
        let a = sym_lower_3x3();
        let back = a.to_csr().to_csc();
        assert_eq!(a, back);
    }
}
