//! The column-major dense matrix the dense-kernel tests build their
//! operands and references in. Shared by the unit tests (`src/lib.rs`
//! includes it under `cfg(test)`) and `tests/properties.rs`; each uses a
//! part of it.
#![allow(dead_code)]

use std::fmt;

/// A column-major dense matrix: entry `(i, j)` lives at `data[j * nrows + i]`.
#[derive(Clone, PartialEq)]
pub struct DMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a generator `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        DMat { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Underlying column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// `self * other` (naive; test/assembly helper, not a hot kernel).
    pub fn matmul(&self, other: &DMat) -> DMat {
        assert_eq!(self.ncols, other.nrows);
        let mut out = DMat::zeros(self.nrows, other.ncols);
        for j in 0..other.ncols {
            for k in 0..self.ncols {
                let b = other[(k, j)];
                if b == 0.0 {
                    continue;
                }
                for i in 0..self.nrows {
                    out[(i, j)] += self[(i, k)] * b;
                }
            }
        }
        out
    }

    /// Transpose copy.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Maximum absolute entrywise difference; NaN if an entry differs by
    /// NaN (either one is NaN).
    pub fn max_abs_diff(&self, other: &DMat) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let diffs = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs());
        // `f64::max` drops a NaN; in `total_cmp` order a NaN `abs` tops all.
        diffs.fold(0.0, |m, d| std::cmp::max_by(m, d, f64::total_cmp))
    }

    /// Zero out the strict upper triangle (factor kernels leave garbage there).
    pub fn zero_upper(&mut self) {
        for j in 1..self.ncols {
            for i in 0..j.min(self.nrows) {
                self[(i, j)] = 0.0;
            }
        }
    }

    /// A random symmetric positive definite matrix: `B Bᵀ + n·I` with `B`
    /// filled from the provided generator closure (kept generic so callers
    /// control the RNG without this crate depending on `rand`).
    pub fn random_spd(n: usize, mut next: impl FnMut() -> f64) -> DMat {
        let b = DMat::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

impl fmt::Debug for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "..." } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_column_major() {
        let mut m = DMat::zeros(2, 3);
        m[(1, 2)] = 7.0;
        assert_eq!(m.as_slice()[2 * 2 + 1], 7.0);
    }

    #[test]
    fn identity_matmul() {
        let a = DMat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let i = DMat::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_fn(2, 4, |i, j| (i + 10 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(3, 1)], a[(1, 3)]);
    }

    #[test]
    fn zero_upper_keeps_the_lower_triangle() {
        let mut a = DMat::from_fn(3, 3, |i, j| if i >= j { (i + 1) as f64 } else { 99.0 });
        a.zero_upper();
        assert_eq!(a[(0, 2)], 0.0);
        assert_eq!(a[(2, 0)], 3.0);
    }

    #[test]
    fn random_spd_is_symmetric_with_heavy_diagonal() {
        let mut state = 1u64;
        let a = DMat::random_spd(5, move || {
            // Tiny xorshift so the test has no external deps.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        });
        for i in 0..5 {
            assert!(a[(i, i)] >= 5.0);
            for j in 0..5 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn max_abs_diff_reports_largest() {
        let a = DMat::zeros(2, 2);
        let mut b = DMat::zeros(2, 2);
        b[(1, 0)] = -3.0;
        b[(0, 1)] = 2.0;
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    fn max_abs_diff_sees_a_nan_entry() {
        let a = DMat::zeros(2, 2);
        let mut b = DMat::zeros(2, 2);
        b[(0, 0)] = f64::NAN;
        b[(1, 1)] = 5.0;
        assert!(a.max_abs_diff(&b).is_nan());
        assert!(b.max_abs_diff(&a).is_nan());
    }
}
