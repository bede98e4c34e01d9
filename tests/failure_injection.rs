//! Failure injection and degenerate-input battery at the solver level:
//! every engine must reject bad inputs with typed errors (never UB, never
//! a wrong answer) and handle boundary shapes.

use parfact::core::dist::run_distributed;
use parfact::core::mapping::MapStrategy;
use parfact::core::smp::SmpOpts;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
use parfact::core::{FactorError, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::order::Method;
use parfact::sparse::coo::CooMatrix;
use parfact::sparse::{gen, io};

#[test]
fn indefinite_rejected_by_every_llt_engine() {
    let a = gen::indefinite(60, 21);
    for engine in [
        Engine::Sequential,
        Engine::Smp(SmpOpts {
            threads: 3,
            big_front: 32,
        }),
    ] {
        let r = SparseCholesky::factorize(&a, &FactorOpts::new().engine(engine));
        match r {
            Err(FactorError::NotPositiveDefinite { value, .. }) => assert!(value <= 0.0),
            other => panic!("expected NotPositiveDefinite, got {:?}", other.is_ok()),
        }
    }
}

#[test]
fn zero_matrix_is_rejected_not_nan() {
    // All-zero diagonal: first pivot is 0, which is not positive.
    let mut coo = CooMatrix::new(4, 4);
    for i in 0..4 {
        coo.push(i, i, 0.0);
    }
    let a = coo.to_csc();
    let r = SparseCholesky::factorize(&a, &FactorOpts::default());
    assert!(matches!(r, Err(FactorError::NotPositiveDefinite { col: _, value }) if value == 0.0));
    // LDLt also refuses (exactly-zero pivot).
    let r2 = SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt));
    assert!(matches!(r2, Err(FactorError::ZeroPivot { .. })));
}

#[test]
fn nan_and_inf_inputs_are_rejected() {
    let mut coo = CooMatrix::new(3, 3);
    coo.push(0, 0, 1.0);
    coo.push(1, 1, f64::NAN);
    coo.push(2, 2, 1.0);
    let a = coo.to_csc();
    let r = SparseCholesky::factorize(&a, &FactorOpts::default());
    assert!(matches!(r, Err(FactorError::NotPositiveDefinite { .. })));

    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, f64::INFINITY);
    coo.push(1, 1, 1.0);
    let a = coo.to_csc();
    // An infinite pivot is "positive": the factorization may accept it but
    // must not crash, and the solve must stay non-UB (values may be inf).
    if let Ok(chol) = SparseCholesky::factorize(&a, &FactorOpts::default()) {
        let _ = chol.solve(&[1.0, 1.0]);
    }
}

#[test]
fn pivot_error_reports_usable_column() {
    // Break positive-definiteness at a KNOWN original index and make sure
    // the reported (permuted) column maps back inside the matrix.
    let mut a = gen::random_spd(50, 3, 5);
    {
        let colptr = a.colptr().to_vec();
        let vals = a.values_mut();
        vals[colptr[20]] = -1.0; // diagonal of column 20
    }
    match SparseCholesky::factorize(&a, &FactorOpts::default()) {
        Err(FactorError::NotPositiveDefinite { col, .. }) => assert!(col < 50),
        other => panic!("expected failure, got ok={}", other.is_ok()),
    }
}

#[test]
fn empty_and_singleton_systems() {
    // 1x1.
    let mut coo = CooMatrix::new(1, 1);
    coo.push(0, 0, 4.0);
    let a = coo.to_csc();
    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    assert_eq!(chol.solve(&[8.0]), vec![2.0]);
}

#[test]
fn forest_matrix_disconnected_components() {
    // Block-diagonal with three disconnected tridiagonal blocks: the
    // assembly tree is a forest; every engine must handle multiple roots.
    let mut coo = CooMatrix::new(30, 30);
    for b in 0..3 {
        let base = b * 10;
        for i in 0..10 {
            coo.push(base + i, base + i, 2.0);
            if i + 1 < 10 {
                coo.push(base + i + 1, base + i, -1.0);
            }
        }
    }
    let a = coo.to_csc();
    let xstar: Vec<f64> = (0..30).map(|i| (i % 4) as f64).collect();
    let mut b = vec![0.0; 30];
    a.sym_spmv(&xstar, &mut b);
    for engine in [
        Engine::Sequential,
        Engine::Smp(SmpOpts {
            threads: 2,
            big_front: 8,
        }),
    ] {
        let chol = SparseCholesky::factorize(&a, &FactorOpts::new().engine(engine)).unwrap();
        let x = chol.solve(&b);
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-10);
        }
    }
    // Distributed too.
    let out = run_distributed(
        4,
        CostModel::zero_cost(),
        &a,
        Method::default(),
        &Default::default(),
        MapStrategy::default(),
        Some(&b),
    )
    .expect("SPD");
    let x = out.x.unwrap();
    for (xi, xs) in x.iter().zip(&xstar) {
        assert!((xi - xs).abs() < 1e-10);
    }
}

#[test]
fn malformed_matrix_market_inputs() {
    for bad in [
        "",                                                                   // empty
        "%%MatrixMarket matrix coordinate real symmetric",                    // no size line
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n0 1 1.0\n",  // 0-based index
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 abc\n",  // bad value
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", // complex
    ] {
        assert!(io::parse_sym_lower(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn rectangular_matrix_market_rejected_for_solver() {
    let text = "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n";
    assert!(io::parse_sym_lower(text).is_err());
}

/// Distributed engine at `p` simulated ranks, zero-cost model (degenerate
/// inputs should fail identically regardless of the machine).
fn dist_engine(p: usize) -> Engine {
    Engine::Dist(DistOpts {
        ranks: p,
        model: CostModel::zero_cost(),
        ..DistOpts::default()
    })
}

#[test]
fn dist_rejects_indefinite_at_2_4_8_ranks() {
    let a = gen::indefinite(60, 21);
    for p in [2, 4, 8] {
        let r = SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist_engine(p)));
        match r {
            Err(FactorError::NotPositiveDefinite { value, .. }) => {
                assert!(value <= 0.0, "p={p}")
            }
            other => panic!(
                "p={p}: expected NotPositiveDefinite, got ok={}",
                other.is_ok()
            ),
        }
    }
}

/// A machine of no ranks and a block size of zero are option errors, not
/// engine invariants: both used to die inside the mapping (an `assert!`)
/// and the front tiling (a division by zero).
#[test]
fn dist_rejects_zero_ranks_and_zero_block_size_at_2_4_8_ranks() {
    let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
    let unsupported = |opts: DistOpts, what: &str| {
        let r = SparseCholesky::factorize(&a, &FactorOpts::new().engine(Engine::Dist(opts)));
        assert!(
            matches!(r, Err(FactorError::Unsupported(_))),
            "{what}: expected Unsupported, got ok={}",
            r.is_ok()
        );
    };
    let no_ranks = DistOpts {
        ranks: 0,
        ..DistOpts::default()
    };
    unsupported(no_ranks, "ranks = 0");
    for ranks in [2, 4, 8] {
        for use_2d in [true, false] {
            for strategy in [
                MapStrategy::Proportional { use_2d, nb: 0 },
                MapStrategy::Flat { use_2d, nb: 0 },
            ] {
                let opts = DistOpts {
                    ranks,
                    strategy,
                    ..DistOpts::default()
                };
                unsupported(opts, &format!("ranks = {ranks}, {strategy:?}"));
            }
        }
    }
}

#[test]
fn dist_rejects_zero_matrix_at_2_4_8_ranks() {
    // All-zero diagonal over enough columns that every rank count gets a
    // non-trivial mapping; the zero pivot must surface from whichever rank
    // owns it, as a typed error — never a NaN-filled "factor".
    let mut coo = CooMatrix::new(24, 24);
    for i in 0..24 {
        coo.push(i, i, 0.0);
    }
    let a = coo.to_csc();
    for p in [2, 4, 8] {
        let r = SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist_engine(p)));
        assert!(
            matches!(r, Err(FactorError::NotPositiveDefinite { value, .. }) if value == 0.0),
            "p={p}"
        );
    }
}

#[test]
fn dist_rejects_nan_and_survives_inf_at_2_4_8_ranks() {
    let mut a = gen::tridiagonal(24);
    {
        let colptr = a.colptr().to_vec();
        let vals = a.values_mut();
        vals[colptr[11]] = f64::NAN; // diagonal of column 11
    }
    for p in [2, 4, 8] {
        let r = SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist_engine(p)));
        assert!(
            matches!(r, Err(FactorError::NotPositiveDefinite { .. })),
            "p={p}: NaN diagonal must be rejected"
        );
    }

    let mut a = gen::tridiagonal(24);
    {
        let colptr = a.colptr().to_vec();
        let vals = a.values_mut();
        vals[colptr[5]] = f64::INFINITY;
    }
    for p in [2, 4, 8] {
        // An infinite pivot is "positive": the run may accept it but must
        // terminate with either a factor or a typed error — never hang.
        let _ = SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist_engine(p)));
    }
}

#[test]
fn dist_factor_reports_dimension_mismatch_on_bad_rhs() {
    let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
    for p in [2, 4, 8] {
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist_engine(p))).unwrap();
        let short = vec![1.0; 17];
        let r = chol.solve_with(RhsBlock::single(&short), &SolveOpts::new());
        assert!(
            matches!(r, Err(FactorError::DimensionMismatch { .. })),
            "p={p}"
        );
    }
}

#[test]
fn refinement_on_already_exact_solution_is_stable() {
    let a = gen::tridiagonal(20);
    let b = vec![0.0; 20]; // zero rhs: x = 0 exactly
    let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let out = chol
        .solve_with(RhsBlock::single(&b), &SolveOpts::new().refine(3))
        .unwrap();
    assert!(out.x.iter().all(|&v| v == 0.0));
    assert_eq!(out.residual, Some(0.0));
}
