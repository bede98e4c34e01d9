//! Cross-crate integration tests: the full pipeline (generator → ordering →
//! symbolic → numeric → solve) through every engine, checked against
//! independent oracles.

use parfact::core::baseline::{fanout, leftlook};
use parfact::core::dist::run_distributed;
use parfact::core::mapping::MapStrategy;
use parfact::core::smp::SmpOpts;
use parfact::core::solver::{Engine, FactorOpts, SparseCholesky};
use parfact::core::FactorKind;
use parfact::mpsim::model::CostModel;
use parfact::mpsim::Machine;
use parfact::order::Method;
use parfact::sparse::csc::CscMatrix;
use parfact::sparse::{gen, io};
use parfact::symbolic::AmalgOpts;

fn rhs_for(a: &CscMatrix, seed: usize) -> (Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n)
        .map(|i| (((i * 37 + seed * 101) % 97) as f64) / 17.0 - 2.5)
        .collect();
    let mut b = vec![0.0; n];
    a.sym_spmv(&xstar, &mut b);
    (xstar, b)
}

#[test]
fn end_to_end_all_engines_agree_on_solution() {
    let matrices: Vec<(&str, CscMatrix)> = vec![
        (
            "laplace2d",
            gen::laplace2d(20, 17, gen::Stencil2d::FivePoint),
        ),
        (
            "laplace3d",
            gen::laplace3d(7, 6, 7, gen::Stencil3d::SevenPoint),
        ),
        ("elasticity", gen::elasticity3d(4, 4, 3)),
        ("random", gen::random_spd(400, 6, 7)),
    ];
    for (name, a) in &matrices {
        let (xstar, b) = rhs_for(a, 1);
        let seq = SparseCholesky::factorize(a, &FactorOpts::default()).unwrap();
        let smp = SparseCholesky::factorize(
            a,
            &FactorOpts::new().engine(Engine::Smp(SmpOpts { threads: 4 })),
        )
        .unwrap();
        let xs = seq.solve(&b);
        let xp = smp.solve(&b);
        for ((a_, b_), c_) in xs.iter().zip(&xp).zip(&xstar) {
            assert!((a_ - b_).abs() < 1e-12, "{name}: engines disagree");
            assert!((a_ - c_).abs() < 1e-6, "{name}: wrong solution");
        }
    }
}

#[test]
fn multifrontal_matches_leftlooking_oracle() {
    // Same permutation, strict supernodes: identical factor values.
    let a0 = gen::laplace2d(15, 15, gen::Stencil2d::FivePoint);
    let perm = parfact::order::order_matrix(&a0, Method::MinDegree);
    let a = perm.apply_sym_lower(&a0);
    let oracle = leftlook::factorize_leftlooking(&a).unwrap();

    let chol = SparseCholesky::factorize(
        &a,
        &FactorOpts::new()
            .ordering(Method::Natural)
            .amalg(AmalgOpts {
                min_width: 0,
                relax_frac: 0.0,
            }),
    )
    .unwrap();
    // Compare column by column in the permuted space of the solver.
    let l_mf = chol.factor().to_sparse_l();
    // chol applied its own postorder on top; map oracle columns through it.
    let post = &chol.factor().perm;
    for newc in 0..a.ncols() {
        let oldc = post.old_of_new(newc);
        let (rows_mf, vals_mf) = l_mf.col(newc);
        let (rows_or, vals_or) = oracle.l.col(oldc);
        assert_eq!(rows_mf.len(), rows_or.len(), "col {newc} nnz");
        for ((rm, vm), (ro, vo)) in rows_mf.iter().zip(vals_mf).zip(rows_or.iter().zip(vals_or)) {
            assert_eq!(post.old_of_new(*rm), *ro, "row index mismatch");
            assert!(
                (vm - vo).abs() <= 1e-12 * vo.abs().max(1.0),
                "value mismatch at col {newc}: {vm} vs {vo}"
            );
        }
    }
}

#[test]
fn distributed_equals_sequential_and_solves() {
    let a = gen::elasticity3d(4, 3, 3);
    let (xstar, b) = rhs_for(&a, 3);
    let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    for p in [2usize, 5, 8] {
        let out = run_distributed(
            p,
            CostModel::bluegene_p(),
            &a,
            Method::default(),
            &AmalgOpts::default(),
            MapStrategy::default(),
            Some(&b),
        )
        .expect("SPD");
        assert_eq!(
            out.factor.max_abs_diff(seq.factor()),
            0.0,
            "p={p}: distributed factor differs from sequential"
        );
        let x = out.solve.unwrap().x;
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-6, "p={p}");
        }
    }
}

#[test]
fn fanout_baseline_solves_same_system() {
    let a0 = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
    let fill = parfact::order::order_matrix(&a0, Method::default());
    let a = fill.apply_sym_lower(&a0);
    let n = a.ncols();
    let gathered = std::sync::Mutex::new(None);
    Machine::new(4, CostModel::bluegene_p()).run(|rank| {
        let cols = fanout::factorize_rank(rank, &a).unwrap();
        if let Some(l) = fanout::gather_l(rank, n, &cols) {
            *gathered.lock().unwrap() = Some(l);
        }
    });
    let l = gathered.into_inner().unwrap().expect("gathered L");
    // Forward/backward solve with the gathered sparse factor.
    let (xstar, b) = rhs_for(&a, 5);
    let mut x = b.clone();
    for j in 0..n {
        let (rows, vals) = l.col(j);
        let xj = x[j] / vals[0];
        x[j] = xj;
        for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
            x[r] -= v * xj;
        }
    }
    for j in (0..n).rev() {
        let (rows, vals) = l.col(j);
        let mut acc = x[j];
        for (&r, &v) in rows[1..].iter().zip(&vals[1..]) {
            acc -= v * x[r];
        }
        x[j] = acc / vals[0];
    }
    for (xi, xs) in x.iter().zip(&xstar) {
        assert!((xi - xs).abs() < 1e-7);
    }
}

#[test]
fn matrix_market_roundtrip_through_solver() {
    let a = gen::random_spd(120, 5, 99);
    let text = io::write_sym_lower(&a);
    let a2 = io::parse_sym_lower(&text).unwrap();
    assert_eq!(a, a2);
    let (xstar, b) = rhs_for(&a2, 7);
    let chol = SparseCholesky::factorize(&a2, &FactorOpts::default()).unwrap();
    let x = chol.solve(&b);
    for (xi, xs) in x.iter().zip(&xstar) {
        assert!((xi - xs).abs() < 1e-7);
    }
}

#[test]
fn ldlt_pipeline_on_indefinite_system() {
    let a = gen::indefinite(150, 11);
    let (xstar, b) = rhs_for(&a, 9);
    let chol = SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt)).unwrap();
    let x = chol.solve(&b);
    for (xi, xs) in x.iter().zip(&xstar) {
        assert!((xi - xs).abs() < 1e-6);
    }
    // Sylvester check: pivot signs reveal the single negative eigenvalue.
    assert_eq!(chol.factor().d.iter().filter(|&&d| d < 0.0).count(), 1);
}

#[test]
fn dist_memory_and_gflops_reporting() {
    let a = gen::laplace3d(8, 8, 8, gen::Stencil3d::SevenPoint);
    let out1 = run_distributed(
        1,
        CostModel::bluegene_p(),
        &a,
        Method::default(),
        &AmalgOpts::default(),
        MapStrategy::default(),
        None,
    )
    .expect("SPD");
    let out8 = run_distributed(
        8,
        CostModel::bluegene_p(),
        &a,
        Method::default(),
        &AmalgOpts::default(),
        MapStrategy::default(),
        None,
    )
    .expect("SPD");
    assert!(out8.max_factor_bytes < out1.max_factor_bytes);
    assert!(out8.factor_gflops() > 0.0);
    // Assembly accounting differs slightly between the local and
    // distributed paths; totals must agree to within a couple percent.
    let rel = (out8.total_flops - out1.total_flops).abs() / out1.total_flops;
    assert!(rel < 0.02, "flop totals diverged: {rel}");
    assert!(out8.max_mem_peak() < out1.max_mem_peak());
}

#[test]
fn mapping_ablation_proportional_beats_flat() {
    let a = gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint);
    let common = |strategy| {
        run_distributed(
            8,
            CostModel::bluegene_p(),
            &a,
            Method::default(),
            &AmalgOpts::default(),
            strategy,
            None,
        )
        .expect("SPD")
    };
    let prop = common(MapStrategy::default());
    let flat = common(MapStrategy::Flat {
        use_2d: true,
        nb: parfact::dense::chol::NB,
    });
    // Identical numerics...
    assert_eq!(prop.factor.max_abs_diff(&flat.factor), 0.0);
    // ...but flat mapping pays for distributing every tiny front.
    // The gap widens with problem size (EXP-A1 shows the full sweep); at
    // this small size demand a conservative 25%.
    assert!(
        flat.factor_time_s > 1.25 * prop.factor_time_s,
        "flat {:.6}s should be slower than proportional {:.6}s",
        flat.factor_time_s,
        prop.factor_time_s
    );
}
