//! Distributed-engine scheduling contracts: the event-driven schedule is
//! bitwise identical to the synchronous postorder schedule (and to the
//! sequential engine), and numeric failure on any simulated rank surfaces
//! as an `Err` — never a panic, never a hang.

use parfact::core::dist::{prepare, run_distributed, run_distributed_prepared, DistRun};
use parfact::core::mapping::MapStrategy;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, SparseCholesky};
use parfact::core::{Factor, FactorError, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::mpsim::FaultPlan;
use parfact::order::Method;
use parfact::sparse::gen;
use parfact::symbolic::AmalgOpts;

/// Indefinite input must come back as `NotPositiveDefinite` from the raw
/// distributed entry point at every rank count — the failing rank reports
/// the error and its peers are unblocked, so the call returns promptly.
#[test]
fn indefinite_returns_err_at_all_rank_counts() {
    let a = gen::indefinite(60, 3);
    for p in [2usize, 4, 8] {
        let r = run_distributed(
            p,
            CostModel::bluegene_p(),
            &a,
            Method::default(),
            &AmalgOpts::default(),
            MapStrategy::default(),
            None,
        );
        assert!(
            matches!(r, Err(FactorError::NotPositiveDefinite { .. })),
            "p={p}: expected NotPositiveDefinite, got {:?}",
            r.map(|_| "Ok(..)").err()
        );
    }
}

/// Same contract through the façade: `Engine::Dist` propagates the error
/// like every other engine instead of panicking inside a simulated rank.
#[test]
fn facade_dist_engine_propagates_indefinite() {
    let a = gen::indefinite(60, 3);
    for ranks in [2usize, 4, 8] {
        let r = SparseCholesky::factorize(
            &a,
            &FactorOpts::new().engine(Engine::Dist(DistOpts {
                ranks,
                ..DistOpts::default()
            })),
        );
        assert!(
            matches!(r, Err(FactorError::NotPositiveDefinite { .. })),
            "ranks={ranks}: expected NotPositiveDefinite, got Err-or-Ok mismatch"
        );
    }
}

/// The sync-schedule ablation toggle and checkpoint mode (deferred sends,
/// under a plan whose fault never fires) change only simulated clocks: all
/// three produce factors
/// bitwise equal to each other and to the sequential engine, across rank
/// counts that exercise local subtrees, 1-D groups, and 2-D grids.
#[test]
fn schedules_agree_bitwise_across_rank_counts() {
    let a = gen::laplace3d(7, 6, 5, gen::Stencil3d::SevenPoint);
    let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    for p in [1usize, 2, 3, 4, 6, 8] {
        let run = |sync_schedule| {
            run_distributed_prepared(
                p,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::default(),
                sync_schedule,
                None,
            )
            .expect("SPD")
        };
        let evd = run(false);
        let sync = run(true);
        let mut run = DistRun::new(p, CostModel::bluegene_p(), &ap);
        run.opts.faults = FaultPlan::parse("crash:0@t=1e30").unwrap();
        let mut ckpt = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
        run.run(&mut ckpt).expect("SPD");
        assert_eq!(
            evd.factor.max_abs_diff(&sync.factor),
            0.0,
            "p={p}: event-driven vs sync schedule"
        );
        assert_eq!(
            evd.factor.max_abs_diff(&ckpt),
            0.0,
            "p={p}: event-driven vs checkpointing schedule"
        );
        assert_eq!(
            evd.factor.max_abs_diff(seq.factor()),
            0.0,
            "p={p}: distributed vs sequential"
        );
    }
}

/// The façade toggle is wired through: `sync_schedule: true` still solves,
/// and with any fault plan — every plan checkpoints, and checkpoints defer
/// sends, which needs the event-driven loop — it is a typed error instead
/// of a silent fallback.
#[test]
fn facade_sync_schedule_solves() {
    let a = gen::laplace2d(24, 24, gen::Stencil2d::FivePoint);
    let factor = |sync_schedule, faults: &str| {
        SparseCholesky::factorize(
            &a,
            &FactorOpts::new().engine(Engine::Dist(DistOpts {
                ranks: 4,
                sync_schedule,
                faults: FaultPlan::parse(faults).unwrap(),
                ..DistOpts::default()
            })),
        )
    };
    let chol = factor(true, "").unwrap();
    let xstar: Vec<f64> = (0..a.nrows()).map(|i| (i % 11) as f64 - 5.0).collect();
    let mut b = vec![0.0; a.nrows()];
    a.sym_spmv(&xstar, &mut b);
    let x = chol.solve(&b);
    for (xi, xs) in x.iter().zip(&xstar) {
        assert!((xi - xs).abs() < 1e-8);
    }
    for plan in ["crash:0@t=1e30", "delay:0-1:5", "dup:1-0"] {
        assert!(
            matches!(factor(true, plan), Err(FactorError::Unsupported(_))),
            "{plan}"
        );
        assert!(factor(false, plan).is_ok(), "{plan}");
    }
}

/// `refactorize` with `Engine::Dist` writes the stored slab in place, and
/// leaves exactly the bits a fresh distributed factorization of the new
/// values has — whichever engine wrote the previous factor. Every entry the
/// ranks never wrote (the strict upper triangle of a pivot block, say)
/// would keep the previous factor's value and show here.
#[test]
fn dist_refactorize_overwrites_any_engines_factor_in_place() {
    let a = gen::laplace3d(7, 6, 5, gen::Stencil3d::SevenPoint);
    // `D A D`: the analyzed pattern with new values, still SPD.
    let mut scaled = a.clone();
    let d = |i: usize| 1.0 + (i % 7) as f64 * 0.125;
    let entries = (0..a.ncols()).flat_map(|c| a.col(c).0.iter().map(move |&r| (r, c)));
    for (v, (r, c)) in scaled.values_mut().iter_mut().zip(entries) {
        *v *= d(r) * d(c);
    }
    let bits = |chol: &SparseCholesky| {
        let panels = &chol.factor().panels;
        panels.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    for ranks in [1usize, 3, 4, 8] {
        let dist = Engine::Dist(DistOpts {
            ranks,
            ..DistOpts::default()
        });
        let fresh = SparseCholesky::factorize(&scaled, &FactorOpts::new().engine(dist.clone()));
        let fresh = bits(&fresh.unwrap());
        let smp = Engine::Smp(parfact::core::smp::SmpOpts { threads: 2 });
        for previous in [Engine::Sequential, smp, dist.clone()] {
            let name = previous.name();
            let opts = FactorOpts::new().engine(previous);
            let mut chol = SparseCholesky::factorize(&a, &opts).unwrap();
            let slab = chol.factor().panels.as_ptr();
            chol.refactorize(&scaled, dist.clone()).unwrap();
            assert_eq!(
                chol.factor().panels.as_ptr(),
                slab,
                "ranks={ranks} after {name}: the slab was reallocated"
            );
            assert!(
                bits(&chol) == fresh,
                "ranks={ranks} after {name}: bits differ from a fresh factorization"
            );
        }
    }
}
