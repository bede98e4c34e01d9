//! Vector/matrix operations used across the solver stack: SpMV wrappers,
//! norms, residuals and diagonal utilities.

use crate::csc::CscMatrix;

/// Infinity norm of a vector; NaN when any entry is NaN (`f64::max`
/// alone would drop it).
pub fn norm_inf(x: &[f64]) -> f64 {
    if x.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// Euclidean norm of a vector.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum::<f64>().sqrt()
}

/// Dot product.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Residual `r = b - A x` for a symmetric-lower `A`.
pub fn sym_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> Vec<f64> {
    let mut ax = vec![0.0; b.len()];
    a.sym_spmv(x, &mut ax);
    b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect()
}

/// `‖b − A x‖_∞ / (‖A‖_∞ ‖x‖_∞ + ‖b‖_∞)` — the standard componentwise-scaled
/// backward-error style residual for a symmetric-lower `A`.
pub fn sym_residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let r = sym_residual(a, x, b);
    let denom = sym_norm_inf(a) * norm_inf(x) + norm_inf(b);
    if denom == 0.0 {
        norm_inf(&r)
    } else {
        norm_inf(&r) / denom
    }
}

/// Infinity norm (max absolute row sum) of a symmetric-lower matrix.
pub fn sym_norm_inf(a: &CscMatrix) -> f64 {
    let n = a.ncols();
    let mut rowsum = vec![0.0f64; n];
    for c in 0..n {
        let (rows, vals) = a.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            rowsum[r] += v.abs();
            if r != c {
                rowsum[c] += v.abs();
            }
        }
    }
    rowsum.into_iter().fold(0.0, f64::max)
}

/// Conjugate gradient on a symmetric-lower SPD matrix. Used as an
/// independent cross-check of direct-solver solutions in tests; returns the
/// iterate and the number of iterations, or `None` if `maxit` is hit without
/// reducing the residual below `tol * ||b||`.
// lint:allow(R7) independent iterative solver: the oracle `solve_matches_cg_cross_check` compares the direct solve against
pub fn cg(a: &CscMatrix, b: &[f64], tol: f64, maxit: usize) -> Option<(Vec<f64>, usize)> {
    let n = b.len();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let mut rsold = dot(&r, &r);
    for it in 0..maxit {
        if rsold.sqrt() <= tol * bnorm {
            return Some((x, it));
        }
        a.sym_spmv(&p, &mut ap);
        let alpha = rsold / dot(&p, &ap);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rsnew = dot(&r, &r);
        let beta = rsnew / rsold;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rsold = rsnew;
    }
    if rsold.sqrt() <= tol * bnorm {
        Some((x, maxit))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn spd_lower() -> CscMatrix {
        // [ 4 -1  0]
        // [-1  4 -1]
        // [ 0 -1  4]
        let mut a = CooMatrix::new(3, 3);
        for i in 0..3 {
            a.push(i, i, 4.0);
        }
        a.push(1, 0, -1.0);
        a.push(2, 1, -1.0);
        a.to_csc()
    }

    #[test]
    fn norms() {
        assert_eq!(norm_inf(&[1.0, -3.0, 2.0]), 3.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn norms_never_hide_a_nan() {
        assert!(norm_inf(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(norm_inf(&[f64::NAN, 1.0]).is_nan());
        assert_eq!(norm_inf(&[]), 0.0);
        let a = spd_lower();
        let b = vec![1.0, 2.0, 3.0];
        assert!(sym_residual_inf(&a, &[f64::NAN; 3], &b).is_nan());
        assert!(sym_residual_inf(&a, &[0.0; 3], &[1.0, f64::NAN, 0.0]).is_nan());
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn sym_norm_inf_counts_both_triangles() {
        let a = spd_lower();
        // Row 1 sum: |-1| + |4| + |-1| = 6.
        assert_eq!(sym_norm_inf(&a), 6.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = spd_lower();
        let x = vec![1.0, 2.0, 3.0];
        let mut b = vec![0.0; 3];
        a.sym_spmv(&x, &mut b);
        assert!(sym_residual_inf(&a, &x, &b) < 1e-16);
    }

    #[test]
    fn cg_solves_spd_system() {
        let a = spd_lower();
        let xstar = vec![1.0, -2.0, 0.5];
        let mut b = vec![0.0; 3];
        a.sym_spmv(&xstar, &mut b);
        let (x, _iters) = cg(&a, &b, 1e-12, 100).expect("cg must converge");
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-9);
        }
    }

    #[test]
    fn cg_reports_nonconvergence() {
        let a = spd_lower();
        let b = vec![1.0, 1.0, 1.0];
        // Zero iterations allowed and nonzero rhs: must fail.
        assert!(cg(&a, &b, 1e-30, 0).is_none());
    }
}
