//! Compressed sparse row format.

use crate::csc::CscMatrix;

/// Sparse matrix in compressed sparse row form. Column indices within each
/// row are sorted ascending and unique.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Assemble from raw parts. Debug-asserts the CSR invariants; callers are
    /// internal conversion routines that construct valid arrays by design.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indptr[0], 0);
        debug_assert_eq!(*indptr.last().unwrap(), indices.len());
        debug_assert_eq!(indices.len(), vals.len());
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..nrows).all(|r| {
            let row = &indices[indptr[r]..indptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| c < ncols)
        }));
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            vals,
        }
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
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
        self.indices.len()
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, concatenated row by row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Values, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// The column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.vals[lo..hi])
    }

    /// Value at `(r, c)` if stored (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|k| vals[k])
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        let mut next = indptr.clone();
        for r in 0..self.nrows {
            let (cols, v) = self.row(r);
            for (&c, &x) in cols.iter().zip(v) {
                let slot = next[c];
                indices[slot] = r;
                vals[slot] = x;
                next[c] += 1;
            }
        }
        // Row-major traversal emits each transposed row in ascending column
        // order, so the invariants hold by construction.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            vals,
        }
    }

    /// Convert to CSC (same matrix, column-compressed).
    pub fn to_csc(&self) -> CscMatrix {
        self.transpose().into_csc_of_transpose()
    }

    /// Reinterpret `self`, *which must be the CSR of Aᵀ*, as the CSC of `A`.
    /// Zero-copy: the arrays are moved, not rebuilt.
    pub fn into_csc_of_transpose(self) -> CscMatrix {
        CscMatrix::from_parts(self.ncols, self.nrows, self.indptr, self.indices, self.vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        let mut a = CooMatrix::new(2, 3);
        a.push(0, 0, 1.0);
        a.push(0, 2, 2.0);
        a.push(1, 1, 3.0);
        a.to_csr()
    }

    #[test]
    fn identity_roundtrip() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        for r in 0..4 {
            assert_eq!(i.row(r), (&[r][..], &[1.0][..]));
        }
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_shape_and_entries() {
        let t = sample().transpose();
        assert_eq!((t.nrows(), t.ncols()), (3, 2));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(1, 1), Some(3.0));
        assert_eq!(t.get(0, 1), None);
    }

    #[test]
    fn csc_conversion_preserves_entries() {
        let a = sample();
        let c = a.to_csc();
        assert_eq!(c.get(0, 2), Some(2.0));
        assert_eq!(c.get(1, 1), Some(3.0));
        assert_eq!(c.nnz(), a.nnz());
    }
}
