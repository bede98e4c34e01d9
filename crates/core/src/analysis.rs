//! Post-factorization numerical analysis utilities: condition-number
//! estimation (Hager–Higham), symmetric equilibration, and determinant
//! helpers — the auxiliary toolkit production direct solvers ship with.

use crate::factor::Factor;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::ops;

/// Estimate `‖A⁻¹‖₁` with Hager's algorithm (as refined by Higham): a
/// few forward/backward solve pairs steered by sign vectors. For symmetric
/// matrices `‖A⁻¹‖₁ = ‖A⁻¹‖_∞`, so together with `‖A‖₁` this yields the
/// classic `cond₁` estimate without ever forming `A⁻¹`.
pub fn inv_norm1_estimate(factor: &Factor, max_iter: usize) -> f64 {
    let n = factor.sym.n;
    if n == 0 {
        return 0.0;
    }
    // x = e / n.
    let mut x = vec![1.0 / n as f64; n];
    let mut best: f64 = 0.0;
    let mut last_sign: Vec<f64> = Vec::new();
    for _ in 0..max_iter.max(1) {
        // y = A^{-1} x  (A symmetric: one solve serves both roles).
        let y = factor.solve(&x);
        let norm = y.iter().map(|v| v.abs()).sum::<f64>();
        best = best.max(norm);
        let sign: Vec<f64> = y
            .iter()
            .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        if sign == last_sign {
            break;
        }
        // z = A^{-T} sign = A^{-1} sign.
        let z = factor.solve(&sign);
        // Pick the coordinate of max |z|; stop if no improvement direction.
        let (jmax, zmax) = z
            .iter()
            .enumerate()
            .fold((0usize, 0.0f64), |(bj, bv), (j, &v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
        let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if zmax <= zx.abs() {
            break;
        }
        x.iter_mut().for_each(|v| *v = 0.0);
        x[jmax] = 1.0;
        last_sign = sign;
    }
    // Final lower-bound refinement with the alternating-sign probe.
    let probe: Vec<f64> = (0..n)
        .map(|i| {
            let v = 1.0 + i as f64 / (n.max(2) - 1) as f64;
            if i % 2 == 0 {
                v
            } else {
                -v
            }
        })
        .collect();
    let y = factor.solve(&probe);
    let alt = 2.0 * y.iter().map(|v| v.abs()).sum::<f64>() / (3.0 * n as f64);
    best.max(alt)
}

/// 1-norm (= ∞-norm) of a symmetric-lower matrix.
pub fn norm1_sym(a: &CscMatrix) -> f64 {
    ops::sym_norm_inf(a)
}

/// Estimated 1-norm condition number `‖A‖₁ · ‖A⁻¹‖₁`.
pub fn cond1_estimate(a: &CscMatrix, factor: &Factor, max_iter: usize) -> f64 {
    norm1_sym(a) * inv_norm1_estimate(factor, max_iter)
}

/// Symmetric (Jacobi) equilibration: returns `d` with
/// `d[i] = 1 / sqrt(A[i][i])` and the scaled matrix `D A D` (unit
/// diagonal), which typically tightens pivots for the no-pivot LDLᵀ path.
/// Panics if a diagonal entry is non-positive — equilibration of symmetric
/// matrices is only meaningful with a positive diagonal.
pub fn equilibrate(a: &CscMatrix) -> (Vec<f64>, CscMatrix) {
    let n = a.ncols();
    let diag = ops::sym_diagonal(a);
    let d: Vec<f64> = diag
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            assert!(v > 0.0, "equilibrate: non-positive diagonal at {i}");
            1.0 / v.sqrt()
        })
        .collect();
    let mut scaled = a.clone();
    // Scale values in place: entry (r, c) -> d[r] * v * d[c].
    let colptr = scaled.colptr().to_vec();
    let rowind = scaled.rowind().to_vec();
    let vals = scaled.values_mut();
    for c in 0..n {
        for k in colptr[c]..colptr[c + 1] {
            vals[k] *= d[rowind[k]] * d[c];
        }
    }
    (d, scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{FactorOpts, SparseCholesky};
    use parfact_sparse::gen;

    fn dense_inv_norm1(a: &CscMatrix) -> f64 {
        // Reference via explicit inverse columns (small n only).
        let n = a.ncols();
        let chol = SparseCholesky::factorize(a, &FactorOpts::default()).unwrap();
        let mut best: f64 = 0.0;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = chol.factor().solve(&e);
            best = best.max(col.iter().map(|v| v.abs()).sum());
        }
        best
    }

    #[test]
    fn inv_norm_estimate_is_tight_lower_bound() {
        for (name, a) in [
            ("tridiag", gen::tridiagonal(40)),
            ("lap2d", gen::laplace2d(8, 8, gen::Stencil2d::FivePoint)),
            ("rand", gen::random_spd(60, 4, 5)),
        ] {
            let exact = dense_inv_norm1(&a);
            let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
            let est = inv_norm1_estimate(chol.factor(), 6);
            assert!(est <= exact * (1.0 + 1e-10), "{name}: estimate above exact");
            assert!(
                est >= exact / 3.0,
                "{name}: estimate {est} too far below exact {exact}"
            );
        }
    }

    #[test]
    fn cond_estimate_tracks_known_conditioning() {
        // 1-D Laplacian condition grows ~ (n/pi)^2 * 4.
        let a_small = gen::tridiagonal(10);
        let a_big = gen::tridiagonal(80);
        let cs = {
            let f = SparseCholesky::factorize(&a_small, &FactorOpts::default()).unwrap();
            cond1_estimate(&a_small, f.factor(), 5)
        };
        let cb = {
            let f = SparseCholesky::factorize(&a_big, &FactorOpts::default()).unwrap();
            cond1_estimate(&a_big, f.factor(), 5)
        };
        assert!(
            cb > 20.0 * cs,
            "conditioning must grow with n: {cs} vs {cb}"
        );
    }

    #[test]
    fn equilibration_gives_unit_diagonal_and_same_solution() {
        use crate::solver::{RhsBlock, SolveOpts};
        let a = gen::random_spd(80, 5, 17);
        let (d, scaled) = equilibrate(&a);
        for i in 0..80 {
            assert!((scaled.get(i, i).unwrap() - 1.0).abs() < 1e-14);
        }
        let b: Vec<f64> = (0..80).map(|i| (i % 7) as f64 - 3.0).collect();
        let direct = SparseCholesky::factorize(&a, &FactorOpts::default())
            .unwrap()
            .solve(&b);
        let chol_s = SparseCholesky::factorize(&scaled, &FactorOpts::default()).unwrap();
        // `(D A D)(D⁻¹ x) = D b`: the equilibrated solve returns
        // `x = D · solve(D b)`, the solution of the original system.
        let via_eq = chol_s
            .solve_with(
                RhsBlock::single(&b),
                &SolveOpts::new().equilibrate(d.clone()),
            )
            .unwrap()
            .x;
        for (x, y) in direct.iter().zip(&via_eq) {
            assert!((x - y).abs() < 1e-9);
        }
        // Bitwise what scaling by hand around a plain solve gives.
        let db: Vec<f64> = b.iter().zip(&d).map(|(bi, di)| bi * di).collect();
        let by_hand = chol_s.solve(&db);
        for ((x, y), di) in via_eq.iter().zip(&by_hand).zip(&d) {
            assert_eq!(x.to_bits(), (y * di).to_bits());
        }
    }

    #[test]
    fn log_det_matches_dense_reference() {
        // det of tridiag(-1,2,-1)_n is n+1.
        let n = 12;
        let a = gen::tridiagonal(n);
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let (ld, sign) = chol.factor().log_det();
        assert_eq!(sign, 1.0);
        assert!((ld - ((n + 1) as f64).ln()).abs() < 1e-10);
    }

    #[test]
    fn log_det_ldlt_signs() {
        use crate::factor::FactorKind;
        let a = gen::indefinite(30, 3);
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt)).unwrap();
        let (_, sign) = chol.factor().log_det();
        assert_eq!(sign, -1.0, "one negative pivot flips the determinant sign");
    }

    #[test]
    #[should_panic(expected = "non-positive diagonal")]
    fn equilibrate_rejects_bad_diagonal() {
        let a = gen::indefinite(10, 1); // has a negative diagonal entry
        equilibrate(&a);
    }
}
