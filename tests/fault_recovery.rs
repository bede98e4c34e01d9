//! Fault injection + recovery drills for the distributed engine.
//!
//! The contract under test, end to end:
//!
//! 1. **Bitwise recovery** — a rank crashed at *any* point of the run
//!    (virtual-time sweep, send-count sweep, any rank count) restarts from
//!    the checkpoint store's consistent cut and produces a factor bitwise
//!    identical to the fault-free run.
//! 2. **Typed failure** — when recovery is disabled or impossible, the run
//!    ends in a typed [`FactorError`] (`RankFailed` / `TimedOut`), never a
//!    hang, never a panic, and never a spurious `Deadlock`.
//! 3. **Checkpoints pay** — a late crash recovered from checkpoints redoes
//!    less work than the full factorization.
//!
//! Everything here is deterministic: same plan, same seed, same bits.

use parfact::core::dist::{prepare, run_distributed_prepared, DistOutcome, DistRun, FaultRun};
use parfact::core::mapping::MapStrategy;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, SparseCholesky};
use parfact::core::{Factor, FactorError, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::mpsim::FaultPlan;
use parfact::order::Method;
use parfact::sparse::csc::CscMatrix;
use parfact::sparse::gen;
use parfact::sparse::perm::Perm;
use parfact::symbolic::Symbolic;
use std::sync::Arc;

/// The shared test problem: big enough for real grid fronts at 8 ranks,
/// small enough to sweep crash times over many runs.
fn problem() -> CscMatrix {
    gen::laplace2d(14, 12, gen::Stencil2d::FivePoint)
}

struct Prepared {
    sym: Arc<Symbolic>,
    ap: CscMatrix,
    perm: Perm,
}

fn prep(a: &CscMatrix) -> Prepared {
    let (sym, ap, perm) = prepare(a, Method::default(), &Default::default());
    Prepared { sym, ap, perm }
}

impl Prepared {
    /// A fresh (zeroed) slab for a distributed run to write.
    fn slab(&self) -> Factor {
        Factor::allocate(&self.sym, FactorKind::Llt, self.perm.clone())
    }
}

fn fault_free(p: usize, pr: &Prepared) -> DistOutcome {
    run_distributed_prepared(
        p,
        CostModel::bluegene_p(),
        &pr.ap,
        &pr.sym,
        &pr.perm,
        MapStrategy::default(),
        false,
        None,
    )
    .unwrap()
}

/// The fault-injected run of `plan` on `p` ranks, two restarts allowed.
fn faulty(p: usize, pr: &Prepared, plan: FaultPlan) -> DistRun<'_> {
    let mut run = DistRun::new(p, CostModel::bluegene_p(), &pr.ap);
    run.opts.faults = plan;
    run
}

/// The recovered run of `plan` and the factor it wrote.
fn recover(p: usize, pr: &Prepared, plan: FaultPlan) -> (FaultRun, Factor) {
    let mut factor = pr.slab();
    let run = faulty(p, pr, plan).run(&mut factor).unwrap();
    (run, factor)
}

/// A plan whose only fault never fires: it turns recovery on (checkpoints,
/// the receive deadline) and injects nothing.
fn never_fires() -> FaultPlan {
    FaultPlan::parse("crash:0@t=1e30").unwrap()
}

#[test]
fn checkpoint_mode_without_faults_is_bitwise_identical() {
    // The deferred-send schedule changes when messages travel, never what
    // they carry: a checkpointing run whose fault never fires must
    // reproduce the plain factor bit for bit.
    let a = problem();
    let pr = prep(&a);
    for p in [1usize, 2, 4, 8] {
        let plain = fault_free(p, &pr);
        let (ck, factor) = recover(p, &pr, never_fires());
        assert_eq!(ck.restarts, 0, "p={p}");
        assert!(ck.counts.is_zero(), "p={p}");
        assert_eq!(
            factor.max_abs_diff(&plain.factor),
            0.0,
            "p={p}: checkpoint-mode factor must equal plain factor bitwise"
        );
    }
}

#[test]
fn total_makespan_is_the_makespan_when_nothing_restarts() {
    // Nothing runs on the machine after a factor-only run's factorization,
    // so a run that never restarts costs exactly its factor makespan.
    let a = problem();
    let pr = prep(&a);
    for p in [2usize, 4, 8] {
        let (run, _) = recover(p, &pr, never_fires());
        assert_eq!(run.restarts, 0, "p={p}");
        assert_eq!(
            run.total_makespan_s.to_bits(),
            run.outcome.factor_time_s.to_bits(),
            "p={p}: total {} vs factor {}",
            run.total_makespan_s,
            run.outcome.factor_time_s
        );
    }
}

#[test]
fn crash_time_sweep_recovers_bitwise_at_2_4_8_ranks() {
    // Property sweep: crash one rank at each of a spread of virtual times
    // covering the whole makespan (epoch boundaries included), at every
    // rank count. Every single recovery must be bitwise.
    let a = problem();
    let pr = prep(&a);
    let mut crashes_fired = 0u64;
    for p in [2usize, 4, 8] {
        let plain = fault_free(p, &pr);
        let t_end = plain.factor_time_s;
        for victim in [p - 1, p / 2] {
            for k in 0..10 {
                let t = t_end * (0.03 + 0.105 * k as f64);
                let (run, factor) = recover(p, &pr, FaultPlan::new().crash_at(victim, t));
                crashes_fired += run.counts.crashes;
                assert_eq!(
                    factor.max_abs_diff(&plain.factor),
                    0.0,
                    "p={p} victim={victim} t={t:.6}: recovered factor differs"
                );
                assert_eq!(run.restarts, run.counts.crashes, "one restart per crash");
            }
        }
    }
    assert!(
        crashes_fired >= 30,
        "sweep was supposed to actually kill ranks (fired {crashes_fired})"
    );
}

#[test]
fn crash_on_send_sweep_recovers_bitwise() {
    // Same property keyed on message counts instead of clocks: kill the
    // victim just before its k-th send, for ks across the whole run.
    let a = problem();
    let pr = prep(&a);
    for p in [2usize, 4, 8] {
        let plain = fault_free(p, &pr);
        for k in [1usize, 2, 3, 5, 8, 13, 21, 34] {
            let (_, factor) = recover(p, &pr, FaultPlan::new().crash_on_send(1, k as u64));
            assert_eq!(
                factor.max_abs_diff(&plain.factor),
                0.0,
                "p={p} send={k}: recovered factor differs"
            );
        }
    }
}

#[test]
fn crash_early_recovers_from_scratch() {
    // A crash before the first completed epoch leaves no snapshot; the
    // restart must fall back to a clean re-run and still be bitwise.
    let a = problem();
    let pr = prep(&a);
    for p in [2usize, 4, 8] {
        let plain = fault_free(p, &pr);
        let (run, factor) = recover(p, &pr, FaultPlan::new().crash_at(0, 1e-9));
        assert_eq!(run.counts.crashes, 1, "p={p}");
        assert_eq!(run.restarts, 1, "p={p}");
        assert_eq!(factor.max_abs_diff(&plain.factor), 0.0, "p={p}");
    }
}

#[test]
fn crash_late_restarts_from_checkpoint_not_scratch() {
    // A late crash must resume from the consistent cut: the final attempt
    // re-executes only the tail, so it performs measurably fewer flops
    // than the fault-free run (the whole point of checkpointing).
    let a = gen::laplace3d(8, 8, 8, gen::Stencil3d::SevenPoint);
    let pr = prep(&a);
    for p in [4usize, 8] {
        let plain = fault_free(p, &pr);
        let (run, factor) = recover(
            p,
            &pr,
            FaultPlan::new().crash_at(p - 1, plain.factor_time_s * 0.85),
        );
        assert_eq!(run.counts.crashes, 1, "p={p}: late crash must fire");
        assert_eq!(run.restarts, 1, "p={p}");
        assert_eq!(factor.max_abs_diff(&plain.factor), 0.0, "p={p}");
        assert!(
            run.outcome.total_flops < 0.9 * plain.total_flops,
            "p={p}: restart redid {:.3e} of {:.3e} flops — checkpoint restore \
             should have skipped the completed epochs",
            run.outcome.total_flops,
            plain.total_flops
        );
    }
}

#[test]
fn delay_storm_and_duplicates_do_not_change_the_bits() {
    // Link faults shift arrival clocks and replay messages; the canonical
    // extend-add order makes the numbers immune. Pile delays and
    // duplication on every link around rank 0, plus a mid-run crash.
    let a = problem();
    let pr = prep(&a);
    for p in [2usize, 4, 8] {
        let plain = fault_free(p, &pr);
        let mut plan = FaultPlan::new().crash_at(p / 2, plain.factor_time_s * 0.4);
        for q in 1..p {
            plan = plan.delay_link(0, q, 40.0).delay_link(q, 0, 40.0);
        }
        plan = plan.duplicate_link(1 % p, 0);
        let (run, factor) = recover(p, &pr, plan);
        assert_eq!(
            factor.max_abs_diff(&plain.factor),
            0.0,
            "p={p}: delay storm changed the factor"
        );
        assert!(run.counts.delayed_msgs > 0, "p={p}: storm never fired");
    }
}

#[test]
fn unrecovered_crash_is_a_typed_rank_failure_not_a_hang() {
    // max_restarts = 0: the crash verdict must surface as the typed error.
    let a = problem();
    let pr = prep(&a);
    for p in [2usize, 4, 8] {
        let plain = fault_free(p, &pr);
        let plan = FaultPlan::new().crash_at(1, plain.factor_time_s * 0.3);
        let mut run = faulty(p, &pr, plan);
        run.opts.max_restarts = 0;
        let err = run.run(&mut pr.slab()).err().expect("run must fail");
        match err {
            FactorError::RankFailed { ranks, detail } => {
                assert_eq!(ranks, vec![1], "p={p}");
                assert!(!detail.is_empty(), "p={p}");
            }
            other => panic!("p={p}: expected RankFailed, got {other}"),
        }
    }
}

#[test]
fn lost_messages_surface_as_typed_timeouts_never_spurious_deadlock() {
    // A delay storm pushing arrivals far past the receive deadline is the
    // simulator's model of message loss. With restarts exhausted it must
    // end in `TimedOut` carrying (rank, src, tag, waited) — and is never
    // misclassified as a protocol deadlock.
    let a = problem();
    let pr = prep(&a);
    for p in [2usize, 4] {
        let mut plan = FaultPlan::new();
        for q in 1..p {
            plan = plan.delay_link(q, 0, 1e12);
        }
        let mut run = faulty(p, &pr, plan);
        run.opts.max_restarts = 1;
        let err = run.run(&mut pr.slab()).err().expect("run must fail");
        match err {
            FactorError::TimedOut {
                rank,
                src,
                waited_s,
                ..
            } => {
                assert!(src > 0 && src < p, "p={p}: delayed source, got src={src}");
                assert!(rank < p, "p={p}");
                assert!(waited_s > 0.0, "p={p}");
            }
            FactorError::Deadlock { detail } => {
                panic!("p={p}: lost message misreported as deadlock: {detail}")
            }
            other => panic!("p={p}: expected TimedOut, got {other}"),
        }
    }
}

#[test]
fn numeric_errors_outrank_fault_verdicts_and_are_not_retried() {
    // An indefinite input under an armed fault plan must come back as the
    // numeric error, not as a fault verdict or a retry loop.
    let a = gen::indefinite(60, 7);
    let pr = prep(&a);
    let mut run = faulty(4, &pr, FaultPlan::new().crash_at(3, 1e30));
    run.opts.model = CostModel::zero_cost();
    let err = run.run(&mut pr.slab()).err().expect("run must fail");
    assert!(
        matches!(err, FactorError::NotPositiveDefinite { .. }),
        "got {err}"
    );
}

#[test]
fn solve_after_recovery_matches_fault_free_solution_bitwise() {
    let a = problem();
    let n = a.nrows();
    let pr = prep(&a);
    let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    let plain = run_distributed_prepared(
        4,
        CostModel::bluegene_p(),
        &pr.ap,
        &pr.sym,
        &pr.perm,
        MapStrategy::default(),
        false,
        Some(&b),
    )
    .unwrap();
    let t = plain.factor_time_s;
    let run = faulty(4, &pr, FaultPlan::new().crash_at(2, t * 0.5));
    let mut factor = pr.slab();
    let out = run.run(&mut factor).unwrap();
    assert_eq!(
        out.counts.crashes, 1,
        "the crash fires inside the factorization"
    );
    let xr = run.solve(&factor, &out.outcome.map, &b, 1).unwrap().x;
    let xf = plain.solve.unwrap().x;
    for (i, (pv, rv)) in xf.iter().zip(&xr).enumerate() {
        assert_eq!(pv.to_bits(), rv.to_bits(), "x[{i}] differs after recovery");
    }
}

#[test]
fn facade_runs_fault_plans_and_reports_them() {
    // The whole path through `SparseCholesky`: parseable plan in
    // `DistOpts`, recovery underneath, fault section in the report.
    let a = problem();
    let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    let chol = SparseCholesky::factorize(
        &a,
        &FactorOpts::new().engine(Engine::Dist(DistOpts {
            faults: FaultPlan::parse("crash:1@t=0,delay:0-1:10").unwrap(),
            ..DistOpts::default()
        })),
    )
    .unwrap();
    assert_eq!(
        chol.factor().max_abs_diff(seq.factor()),
        0.0,
        "recovered distributed factor must still equal the sequential one"
    );
    let faults = chol.report().faults.expect("fault section");
    assert_eq!(faults.crashes, 1);
    assert_eq!(faults.restarts, 1);
    // The enriched report round-trips through JSON with the fault section.
    let back = parfact::FactorReport::from_json_str(&chol.report().to_json_string()).unwrap();
    assert_eq!(&back, chol.report());
}

/// A restart writes the caller's slab in place: a refactorization with
/// new values, crashed mid-run, must leave exactly the factor of the new
/// values — a front the restart skipped would keep the previous factor's
/// values and show here.
#[test]
fn crashed_refactorization_rewrites_the_slab_in_place() {
    let a = problem();
    // `D A D`: the same pattern with new values, still SPD.
    let mut scaled = a.clone();
    let d = |i: usize| 1.0 + (i % 5) as f64 * 0.25;
    let entries = (0..a.ncols()).flat_map(|c| a.col(c).0.iter().map(move |&r| (r, c)));
    for (v, (r, c)) in scaled.values_mut().iter_mut().zip(entries) {
        *v *= d(r) * d(c);
    }
    let bits = |f: &Factor| f.panels.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for p in [2usize, 4, 8] {
        let dist = |faults| {
            Engine::Dist(DistOpts {
                ranks: p,
                faults,
                ..DistOpts::default()
            })
        };
        let fresh =
            SparseCholesky::factorize(&scaled, &FactorOpts::new().engine(dist(FaultPlan::new())))
                .unwrap();
        let pr = prep(&scaled);
        let t_end = fault_free(p, &pr).factor_time_s;
        for (victim, k) in [p - 1, p / 2]
            .into_iter()
            .flat_map(|v| (1..10).map(move |k| (v, k)))
        {
            let mut chol =
                SparseCholesky::factorize(&a, &FactorOpts::new().engine(dist(FaultPlan::new())))
                    .unwrap();
            let slab = chol.factor().panels.as_ptr();
            let t = t_end * 0.1 * k as f64;
            chol.refactorize(&scaled, dist(FaultPlan::new().crash_at(victim, t)))
                .unwrap();
            let tag = format!("p={p}: rank {victim} crashed at {t:.6}");
            let faults = chol.report().faults.expect("fault section");
            assert_eq!(faults.crashes, 1, "{tag}: the crash must fire");
            assert_eq!(
                chol.factor().panels.as_ptr(),
                slab,
                "{tag}: slab reallocated"
            );
            assert!(
                bits(chol.factor()) == bits(fresh.factor()),
                "{tag}: the restarted refactorization left other bits"
            );
        }
    }
}

#[test]
fn repeated_recovery_runs_are_bitwise_reproducible() {
    // Determinism of the whole recovery pipeline: same plan, same machine,
    // same bits — clocks included.
    let a = problem();
    let pr = prep(&a);
    let plan = FaultPlan::new()
        .crash_at(2, 0.002)
        .delay_link(0, 3, 15.0)
        .duplicate_link(3, 0);
    let (r1, f1) = recover(4, &pr, plan.clone());
    let (r2, f2) = recover(4, &pr, plan);
    assert_eq!(f1.max_abs_diff(&f2), 0.0);
    assert_eq!(
        r1.outcome.factor_time_s.to_bits(),
        r2.outcome.factor_time_s.to_bits()
    );
    assert_eq!(r1.total_makespan_s.to_bits(), r2.total_makespan_s.to_bits());
    assert_eq!(r1.counts, r2.counts);
    assert_eq!(r1.restarts, r2.restarts);
}
