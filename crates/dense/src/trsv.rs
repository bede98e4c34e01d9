//! Dense triangular solves on one vector: the scalar column sweeps that
//! serve as the independent per-column reference the blocked
//! [`crate::solve`] kernels are tested against.

#[inline]
fn at(ld: usize, i: usize, j: usize) -> usize {
    j * ld + i
}

/// Forward solve `L x = b` in place, `L` lower `n x n` with leading
/// dimension `ldl`. With `unit`, the diagonal is implicitly 1.
pub fn trsv_ln(n: usize, l: &[f64], ldl: usize, x: &mut [f64], unit: bool) {
    debug_assert!(x.len() >= n);
    for j in 0..n {
        let mut xj = x[j];
        if !unit {
            xj /= l[at(ldl, j, j)];
        }
        x[j] = xj;
        if xj != 0.0 {
            let lc = j * ldl;
            for i in j + 1..n {
                x[i] -= l[lc + i] * xj;
            }
        }
    }
}

/// Backward solve `Lᵀ x = b` in place.
pub fn trsv_lt(n: usize, l: &[f64], ldl: usize, x: &mut [f64], unit: bool) {
    debug_assert!(x.len() >= n);
    for j in (0..n).rev() {
        let lc = j * ldl;
        let mut acc = x[j];
        for i in j + 1..n {
            acc -= l[lc + i] * x[i];
        }
        x[j] = if unit { acc } else { acc / l[lc + j] };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DMat;

    fn lower(n: usize, seed: u64) -> DMat {
        let mut s = seed.max(1);
        let mut r = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f64 / 1000.0 - 1.0
        };
        DMat::from_fn(n, n, |i, j| {
            if i > j {
                r() * 0.4
            } else if i == j {
                1.5 + r().abs()
            } else {
                0.0
            }
        })
    }

    #[test]
    fn trsv_roundtrip() {
        let n = 9;
        let l = lower(n, 3);
        let x0: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        // b = L x0.
        let xm = DMat::from_colmajor(n, 1, x0.clone());
        let mut b: Vec<f64> = l.matmul(&xm).as_slice().to_vec();
        trsv_ln(n, l.as_slice(), n, &mut b, false);
        for (a, e) in b.iter().zip(&x0) {
            assert!((a - e).abs() < 1e-12);
        }
        // bt = L^T x0.
        let mut bt: Vec<f64> = l.transpose().matmul(&xm).as_slice().to_vec();
        trsv_lt(n, l.as_slice(), n, &mut bt, false);
        for (a, e) in bt.iter().zip(&x0) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn trsv_unit_ignores_diagonal() {
        let n = 5;
        let mut l = lower(n, 4);
        let x0 = vec![1.0; n];
        // b = Lunit x0 where Lunit has 1s on the diagonal.
        let mut lu = l.clone();
        for i in 0..n {
            lu[(i, i)] = 1.0;
        }
        let mut b: Vec<f64> = lu
            .matmul(&DMat::from_colmajor(n, 1, x0.clone()))
            .as_slice()
            .to_vec();
        for i in 0..n {
            l[(i, i)] = f64::NAN; // must never be read
        }
        trsv_ln(n, l.as_slice(), n, &mut b, true);
        for (a, e) in b.iter().zip(&x0) {
            assert!((a - e).abs() < 1e-12);
        }
    }
}
