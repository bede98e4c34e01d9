//! Triplet (coordinate) format — the assembly/ingest format.
//!
//! A [`CooMatrix`] is an unordered list of `(row, col, value)` triplets.
//! Duplicate entries are allowed and are **summed** on conversion to a
//! compressed format, which makes COO the natural target of finite-element
//! style assembly loops (the generators in [`crate::gen`] use it this way).

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;

/// Sparse matrix in coordinate (triplet) form.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Create an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Create an empty matrix and reserve room for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
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

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Append one entry. Panics on out-of-bounds indices: assembly loops are
    /// internal code where a bad index is a bug, not recoverable input.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) out of bounds for {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Iterate over the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSR, summing duplicates. Entries whose sum is exactly zero
    /// are kept (structural nonzeros matter for symbolic analysis).
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row, then sort-and-merge within each row.
        let mut indptr = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            indptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        let mut next = indptr.clone();
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let slot = next[r];
            indices[slot] = c;
            vals[slot] = v;
            next[r] += 1;
        }
        // Sort each row segment by column and merge duplicates in place.
        let mut out_indptr = vec![0usize; self.nrows + 1];
        let mut out_indices = Vec::with_capacity(self.nnz());
        let mut out_vals = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            let (lo, hi) = (indptr[r], indptr[r + 1]);
            scratch.clear();
            scratch.extend(
                indices[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                out_indices.push(c);
                out_vals.push(sum);
            }
            out_indptr[r + 1] = out_indices.len();
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, out_indptr, out_indices, out_vals)
    }

    /// Convert to CSC, summing duplicates.
    pub fn to_csc(&self) -> CscMatrix {
        self.transposed_view_to_csr().into_csc_of_transpose()
    }

    /// Keep only the lower triangle (including the diagonal). Used to take a
    /// symmetrically-assembled matrix into the solver's lower-CSC convention.
    pub fn lower_triangle(&self) -> CooMatrix {
        let mut out = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz() / 2 + 1);
        for (r, c, v) in self.iter() {
            if r >= c {
                out.push(r, c, v);
            }
        }
        out
    }

    fn transposed_view_to_csr(&self) -> CsrMatrix {
        let t = CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            vals: self.vals.clone(),
        };
        t.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_shape() {
        let mut a = CooMatrix::new(3, 4);
        a.push(0, 0, 1.0);
        a.push(2, 3, -2.0);
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 4);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut a = CooMatrix::new(2, 2);
        a.push(2, 0, 1.0);
    }

    #[test]
    fn duplicates_are_summed_in_csr() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 1, 1.0);
        a.push(0, 1, 2.5);
        a.push(1, 0, -1.0);
        let csr = a.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), Some(3.5));
        assert_eq!(csr.get(1, 0), Some(-1.0));
        assert_eq!(csr.get(0, 0), None);
    }

    #[test]
    fn lower_triangle_drops_upper() {
        let mut a = CooMatrix::new(3, 3);
        a.push(1, 0, 4.0);
        a.push(0, 1, 4.0);
        a.push(2, 2, 1.0);
        let l = a.lower_triangle();
        assert_eq!(l.nnz(), 2);
        assert!(l.iter().all(|(r, c, _)| r >= c));
    }

    #[test]
    fn csr_row_columns_sorted() {
        let mut a = CooMatrix::new(1, 5);
        for &c in &[4, 0, 2, 1, 3] {
            a.push(0, c, c as f64);
        }
        let csr = a.to_csr();
        let (cols, _) = csr.row(0);
        assert_eq!(cols, &[0, 1, 2, 3, 4]);
    }
}
