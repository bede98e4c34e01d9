//! Edge-case battery for the sparse substrate: degenerate shapes, empty
//! structures, and boundary conditions that unit tests tend to skip.

use parfact_sparse::coo::CooMatrix;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::csr::CsrMatrix;
use parfact_sparse::gen;
use parfact_sparse::graph::AdjGraph;
use parfact_sparse::ops;
use parfact_sparse::perm::Perm;

#[test]
fn empty_matrix_conversions() {
    let coo = CooMatrix::new(0, 0);
    let csr = coo.to_csr();
    assert_eq!(csr.nrows(), 0);
    assert_eq!(csr.nnz(), 0);
    let csc = csr.to_csc();
    assert_eq!(csc.ncols(), 0);
}

#[test]
fn empty_rows_and_columns_survive_roundtrip() {
    // 4x4 with entries only in row/col 1 and 3.
    let mut coo = CooMatrix::new(4, 4);
    coo.push(1, 1, 2.0);
    coo.push(3, 1, -1.0);
    coo.push(3, 3, 2.0);
    let csc = coo.to_csc();
    assert_eq!(csc.col(0).0.len(), 0);
    assert_eq!(csc.col(2).0.len(), 0);
    let back = csc.to_csr().to_csc();
    assert_eq!(csc, back);
}

#[test]
fn one_by_one_matrix() {
    let mut coo = CooMatrix::new(1, 1);
    coo.push(0, 0, 5.0);
    let a = coo.to_csc();
    a.check_sym_lower().unwrap();
    let mut y = vec![0.0];
    a.sym_spmv(&[3.0], &mut y);
    assert_eq!(y, vec![15.0]);
    let g = AdjGraph::from_sym_lower(&a);
    assert_eq!(g.nvert(), 1);
    assert!(g.adjncy().is_empty());
}

#[test]
fn rectangular_transpose() {
    // 2x5 matrix through CSR.
    let mut coo = CooMatrix::new(2, 5);
    coo.push(0, 4, 1.0);
    coo.push(1, 0, 2.0);
    let csr = coo.to_csr();
    let t = csr.transpose();
    assert_eq!((t.nrows(), t.ncols()), (5, 2));
    assert_eq!(t.get(4, 0), Some(1.0));
}

#[test]
fn identity_permutation_on_empty() {
    let p = Perm::identity(0);
    assert!(p.is_empty());
    assert_eq!(p.apply_vec(&[]), Vec::<f64>::new());
}

#[test]
fn sym_norms_on_diagonal_matrix() {
    let mut coo = CooMatrix::new(3, 3);
    for i in 0..3 {
        coo.push(i, i, -((i + 1) as f64));
    }
    let a = coo.to_csc();
    assert_eq!(ops::sym_norm_inf(&a), 3.0);
}

#[test]
fn generators_minimum_sizes() {
    // 1x1x1 grids and tiny meshes must not panic and stay SPD-shaped.
    let a = gen::laplace3d(1, 1, 1, gen::Stencil3d::SevenPoint);
    assert_eq!(a.nrows(), 1);
    assert_eq!(a.get(0, 0), Some(6.0));

    let b = gen::laplace2d(1, 5, gen::Stencil2d::NinePoint);
    b.check_sym_lower().unwrap();
    assert_eq!(b.nrows(), 5);

    let e = gen::elasticity3d(1, 1, 2);
    e.check_sym_lower().unwrap();
    assert_eq!(e.nrows(), 6);
    assert!(ops::cg(&e, &[1.0; 6], 1e-10, 200).is_some());
}

#[test]
fn identity_csr_and_csc_agree() {
    let i1 = CsrMatrix::identity(7).to_csc();
    let i2 = CscMatrix::identity(7);
    assert_eq!(i1, i2);
}

#[test]
fn lower_triangle_idempotent() {
    let a = gen::random_spd(30, 4, 3);
    let full = a.sym_to_full();
    let low1 = full.lower_triangle();
    let low2 = low1.clone(); // already lower: extracting again is a no-op
    assert_eq!(low1, low2.lower_triangle());
    assert_eq!(low1, a);
}

#[test]
fn coo_iter_matches_pushes() {
    let mut coo = CooMatrix::new(3, 3);
    coo.push(2, 1, 4.5);
    coo.push(0, 0, -1.0);
    let got: Vec<(usize, usize, f64)> = coo.iter().collect();
    assert_eq!(got, vec![(2, 1, 4.5), (0, 0, -1.0)]);
}

#[test]
fn cg_on_singular_matrix_fails_gracefully() {
    // Zero matrix with unit diagonal removed -> singular; cg must return
    // None rather than produce NaN panics.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 1.0);
    coo.push(1, 1, 0.0);
    let a = coo.to_csc();
    let r = ops::cg(&a, &[0.0, 1.0], 1e-12, 50);
    assert!(r.is_none() || r.unwrap().0[1].is_finite());
}
