//! Failure injection and degenerate-input battery at the solver level:
//! every engine must reject bad inputs with typed errors (never UB, never
//! a wrong answer) and handle boundary shapes.

use parfact::core::dist::run_distributed;
use parfact::core::mapping::MapStrategy;
use parfact::core::smp::SmpOpts;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
use parfact::core::{FactorError, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::mpsim::{Fault, FaultPlan};
use parfact::order::Method;
use parfact::sparse::coo::CooMatrix;
use parfact::sparse::{gen, io};

#[test]
fn indefinite_rejected_by_every_llt_engine() {
    let a = gen::indefinite(60, 21);
    for engine in [Engine::Sequential, Engine::Smp(SmpOpts { threads: 3 })] {
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

/// A stored NaN or infinity, on or off the diagonal, has its own verdict in
/// the caller's numbering on every engine and both factor kinds. It is
/// checked before any engine runs, so it also wins over the distributed
/// engine's LDLᵀ `Unsupported`.
#[test]
fn nan_and_inf_inputs_are_rejected() {
    let header = "%%MatrixMarket matrix coordinate real symmetric\n";
    let cases = [
        ("3 3 3\n1 1 4\n2 2 4\n3 3 nan\n", (2, 2)),
        ("3 3 4\n1 1 4\n2 2 4\n3 3 4\n3 1 nan\n", (2, 0)),
        ("3 3 3\n1 1 inf\n2 2 4\n3 3 4\n", (0, 0)),
        ("3 3 4\n1 1 4\n2 1 -inf\n2 2 4\n3 3 4\n", (1, 0)),
    ];
    let engines = [
        Engine::Sequential,
        Engine::Smp(SmpOpts { threads: 2 }),
        dist_engine(2),
    ];
    for (body, (row, col)) in cases {
        let a = io::parse_sym_lower(&format!("{header}{body}")).unwrap();
        for engine in &engines {
            for kind in [FactorKind::Llt, FactorKind::Ldlt] {
                let opts = FactorOpts::new().engine(engine.clone()).kind(kind);
                let r = SparseCholesky::factorize(&a, &opts);
                assert_eq!(
                    r.err(),
                    Some(FactorError::NonFinite { row, col }),
                    "{body:?} on {} {kind:?}",
                    engine.name()
                );
            }
        }
    }
    // `refactorize` refuses the same input and keeps the stored factor.
    let good = gen::tridiagonal(6);
    let mut bad = good.clone();
    let k = bad.colptr()[1] + 1;
    assert_eq!(bad.rowind()[k], 2);
    bad.values_mut()[k] = f64::NAN; // entry (2, 1)
    for engine in engines {
        let mut chol =
            SparseCholesky::factorize(&good, &FactorOpts::new().engine(engine.clone())).unwrap();
        let before = chol.solve(&[1.0; 6]);
        let r = chol.refactorize(&bad, engine.clone());
        assert_eq!(
            r,
            Err(FactorError::NonFinite { row: 2, col: 1 }),
            "{}",
            engine.name()
        );
        assert_eq!(chol.solve(&[1.0; 6]), before, "{}", engine.name());
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
    for engine in [Engine::Sequential, Engine::Smp(SmpOpts { threads: 2 })] {
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
    let x = out.solve.unwrap().x;
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
        assert_eq!(
            r.err(),
            Some(FactorError::NonFinite { row: 11, col: 11 }),
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
        // An infinite pivot ends in the same typed error — never a hang.
        let r = SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist_engine(p)));
        assert_eq!(
            r.err(),
            Some(FactorError::NonFinite { row: 5, col: 5 }),
            "p={p}"
        );
    }
}

/// A fault plan naming a rank the machine does not have, a link from a
/// rank to itself, or a fault that can never fire cannot be applied: it is
/// an option error before the machine starts, not a run reported as if the
/// plan had fired. A plan built in code gets the parser's checks too.
#[test]
fn dist_rejects_fault_plans_outside_the_machine() {
    let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
    let parsed = [
        "crash:9@t=0",
        "crash:4@send=1",
        "dup:7-1",
        "delay:1-4:5",
        "delay:0-0:5",
        "delay:0-1:5,dup:3-3",
    ]
    .map(|spec| FaultPlan::parse(spec).unwrap());
    let built = [
        Fault::DelayLink {
            src: 0,
            dst: 1,
            alphas: f64::NAN,
        },
        Fault::DelayLink {
            src: 0,
            dst: 1,
            alphas: -1e9,
        },
        Fault::CrashAt {
            rank: 1,
            at_s: f64::NAN,
        },
        Fault::CrashOnSend { rank: 1, nth: 0 },
    ]
    .map(|fault| FaultPlan {
        faults: vec![fault],
    });
    for plan in parsed.into_iter().chain(built) {
        let misfit = format!("{:?}", plan.faults.last().unwrap());
        let opts = DistOpts {
            ranks: 4,
            faults: plan,
            ..DistOpts::default()
        };
        match SparseCholesky::factorize(&a, &FactorOpts::new().engine(Engine::Dist(opts))) {
            // The message names the fault that does not fit.
            Err(FactorError::Unsupported(why)) => {
                assert!(why.contains(&misfit), "{misfit}: {why}")
            }
            other => panic!("{misfit}: expected Unsupported, got ok={}", other.is_ok()),
        }
    }
    // The same faults inside the machine run.
    let opts = DistOpts {
        ranks: 4,
        faults: FaultPlan::parse("delay:0-3:5,dup:3-1").unwrap(),
        ..DistOpts::default()
    };
    assert!(SparseCholesky::factorize(&a, &FactorOpts::new().engine(Engine::Dist(opts))).is_ok());
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
