//! End-to-end tests on symmetric **indefinite** systems: the Helmholtz
//! model problem rejected by LLᵀ and solved by the sparse no-pivot LDLᵀ.

use parfact::core::solver::{FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
use parfact::core::{FactorError, FactorKind};
use parfact::sparse::{gen, ops};

#[test]
fn helmholtz_rejected_by_cholesky() {
    // Interior shift: indefinite. The grid is chosen so the shift is far
    // from any eigenvalue (no near-singularity).
    let a = gen::helmholtz2d(9, 9, 1.7);
    assert!(matches!(
        SparseCholesky::factorize(&a, &FactorOpts::default()),
        Err(FactorError::NotPositiveDefinite { .. })
    ));
}

#[test]
fn sparse_ldlt_on_mildly_indefinite_helmholtz() {
    // Small shift on a modest grid: indefinite but no pivot happens to
    // vanish under the ND ordering — the regime the no-pivot sparse LDLᵀ
    // targets. Iterative refinement mops up pivoting-free growth.
    let a = gen::helmholtz2d(12, 12, 0.5);
    let n = a.nrows();
    let chol = SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt))
        .expect("no-pivot LDLt on mildly indefinite system");
    let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut b = vec![0.0; n];
    a.sym_spmv(&xstar, &mut b);
    let out = chol
        .solve_with(RhsBlock::single(&b), &SolveOpts::new().refine(2))
        .unwrap();
    let resid = out.residual.unwrap();
    assert!(resid < 1e-8, "residual {resid}");
    let maxerr = out
        .x
        .iter()
        .zip(&xstar)
        .fold(0.0f64, |m, (u, v)| m.max((u - v).abs()));
    assert!(maxerr < 1e-6, "error {maxerr}");
    // Sylvester: number of negative pivots = number of eigenvalues below
    // the shift; must be positive and small.
    let nneg = chol.factor().d.iter().filter(|&&d| d < 0.0).count();
    assert!((1..20).contains(&nneg), "nneg = {nneg}");
}

#[test]
fn anisotropic_problem_end_to_end() {
    let a = gen::laplace2d_aniso(40, 40, 1e-3);
    let n = a.nrows();
    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let b = vec![1.0; n];
    let x = chol.solve(&b);
    assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    // Orderings must remain valid despite extreme weights.
    for m in [
        parfact::order::Method::MinDegree,
        parfact::order::Method::default(),
    ] {
        let chol2 = SparseCholesky::factorize(&a, &FactorOpts::new().ordering(m)).unwrap();
        let x2 = chol2.solve(&b);
        assert!(ops::sym_residual_inf(&a, &x2, &b) < 1e-12);
    }
}
