//! Shared-memory parallel triangular solves on the paper's subtree
//! mapping: the solve runs over the same tree and data distribution as the
//! factorization.
//!
//! The schedule is the SMP factorization's (`mapping::Plan`):
//! [`crate::mapping::map_tree`], with one "rank" per thread, cuts the
//! assembly tree into **local subtrees** (groups of one thread) under a
//! **top**. Going forward, every thread sweeps its own subtrees in
//! postorder on one stack of its own, exactly as the sequential sweep does
//! over the whole tree, and leaves each local root's block on that stack;
//! after the join, one thread sweeps the top in postorder and takes those
//! blocks off where the sequential sweep would have found them. Going
//! backward, the top runs first and puts each local root's x-below block
//! back on its thread's stack, then the threads sweep their subtrees. A
//! subtree is consecutive in postorder, so its pivot rows are one run of
//! `x`, split off as a `&mut` slice of its own: no queue, no locks, and
//! nothing is shared but the stacks handed over at the joins.
//!
//! Every supernode runs the same step (`sweep::Sweep::{up, down}`) on the
//! same child blocks in `tree.children` order as in the sequential sweep
//! and the distributed solve, so the solution is bit-equal to both at any
//! thread count. The solve spreads only the work below the top over
//! threads and sweeps the top on one, where the factorization also splits
//! each top front's trailing updates (cf. EXP-F4 on the distributed
//! engine).

use crate::error::FactorError;
use crate::factor::{Factor, FactorKind};
use crate::mapping::Plan;
use crate::smp::resolve_threads;
use crate::sweep::{self, Sweep};
use parfact_symbolic::Symbolic;
use parfact_trace::{Collector, LocalRecorder};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Smallest solve `SolveEngine::Auto` spreads over threads, in units of
/// [`solve_work`]. Below it, starting the two thread scopes (about 50 µs on
/// two cores) costs more than the second thread saves, and Auto runs the
/// sequential sweep. Measured with two threads on 2-D and 3-D Laplacians
/// and 3-D elasticity, 1 to 16 right-hand sides: every solve below 0.8 M
/// ran slower mapped, every one above 1.6 M faster (0.95 × the sequential
/// time at worst); 2 M leaves a margin.
pub const AUTO_MIN_WORK: usize = 1 << 21;

/// The size of a solve: `nnz(L) · (nrhs + 8)`. A sweep streams every factor
/// entry once whatever `nrhs` is, and that costs about as much per entry
/// as eight right-hand sides' arithmetic.
pub fn solve_work(factor: &Factor, nrhs: usize) -> usize {
    factor.nnz().saturating_mul(nrhs.saturating_add(8))
}

/// Multi-RHS solve of `A X = B` on the subtree mapping with `threads` OS
/// threads (0 = available parallelism): `b` is `n x nrhs` column-major.
/// Results equal [`Factor::try_solve_many`]'s bit for bit: both fold child
/// blocks in `tree.children` order through the same supernode steps. One
/// thread, an empty block or a single supernode run the sequential sweep.
/// Checked: a wrong `b.len()` returns [`FactorError::DimensionMismatch`].
pub fn solve_smp_many(
    factor: &Factor,
    b: &[f64],
    nrhs: usize,
    threads: usize,
) -> Result<Vec<f64>, FactorError> {
    let plans = Plans::default();
    solve_smp_many_traced(factor, b, nrhs, threads, &plans, &Collector::disabled()).map(|(x, _)| x)
}

/// The run plans of one analysis, one per thread count, each built on
/// first use. A plan depends only on the analysis, so a solver's workspace
/// keeps them for its factorizations (one thread: sequential) and solves.
#[derive(Default)]
pub(crate) struct Plans(Mutex<Vec<Arc<Plan>>>);

impl Plans {
    /// The plan of `sym` on `threads` threads.
    pub(crate) fn get(&self, sym: &Symbolic, threads: usize) -> Arc<Plan> {
        let mut plans = self.0.lock().expect("a solve panicked building a plan");
        if let Some(p) = plans.iter().find(|p| p.threads == threads) {
            return Arc::clone(p);
        }
        let p = Arc::new(Plan::host(sym, threads));
        plans.push(Arc::clone(&p));
        p
    }

    /// How many plans are kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

/// [`solve_smp_many`] with instrumentation: one `Phase::Solve` span per
/// supernode per sweep lands on the lane of the thread that ran it (the
/// top on lane 0) when `tr` records spans. The schedule comes from
/// `plans`. Also returns how many threads swept: the threads that own a
/// local subtree, at least one.
pub(crate) fn solve_smp_many_traced(
    factor: &Factor,
    b: &[f64],
    nrhs: usize,
    threads: usize,
    plans: &Plans,
    tr: &Collector,
) -> Result<(Vec<f64>, usize), FactorError> {
    let sym = &factor.sym;
    if b.len() != sym.n * nrhs {
        return Err(FactorError::DimensionMismatch {
            expected: sym.n * nrhs,
            got: b.len(),
        });
    }
    let nthreads = resolve_threads(threads);
    if nthreads <= 1 || sym.nsuper() <= 1 || nrhs == 0 {
        return Ok((factor.try_solve_many(b, nrhs)?, 1));
    }
    let plan = plans.get(sym, nthreads);
    let mut x = sweep::permute_in(&factor.perm, b, nrhs);
    solve(&plan, factor, &mut x, nrhs, tr);
    Ok((sweep::permute_out(&factor.perm, &x, nrhs), plan.workers()))
}

/// Both sweeps and the diagonal scaling on the interleaved block `x`.
fn solve(plan: &Plan, factor: &Factor, x: &mut [f64], nrhs: usize, tr: &Collector) {
    let sw = Sweep::new(&factor.sym, nrhs, factor.kind == FactorKind::Ldlt);
    // One stack per thread. After the forward subtrees it holds the blocks
    // of the thread's local roots in ascending order; before the backward
    // ones, their x-below blocks, the lowest root's on top.
    let mut stacks: Vec<Vec<f64>> = vec![Vec::new(); plan.threads];
    on_threads(plan, &sw, x, &mut stacks, tr, |sns, rows, stack, rec| {
        factor.sweep_up(&sw, sns, rows, stack, rec)
    });
    let mut rec = tr.local(0);
    let mut stack = Vec::new();
    let mut taken = vec![0usize; plan.threads];
    for run in &plan.runs {
        let root = run.sns.end - 1;
        match run.owner {
            Some(t) => {
                let at = taken[t];
                taken[t] += sw.below_len(root);
                stack.extend_from_slice(&stacks[t][at..taken[t]]);
            }
            None => factor.sweep_up(
                &sw,
                run.sns.clone(),
                &mut x[sw.pivot_rows(&run.sns)],
                &mut stack,
                &mut rec,
            ),
        }
    }
    sw.diag_scale(&factor.d, x);
    stacks.iter_mut().for_each(Vec::clear);
    for run in plan.runs.iter().rev() {
        let root = run.sns.end - 1;
        match run.owner {
            Some(t) => {
                let from = stack.len() - sw.below_len(root);
                stacks[t].extend(stack.drain(from..));
            }
            None => factor.sweep_down(
                &sw,
                run.sns.clone(),
                &mut x[sw.pivot_rows(&run.sns)],
                &mut stack,
                &mut rec,
            ),
        }
    }
    on_threads(plan, &sw, x, &mut stacks, tr, |sns, rows, stack, rec| {
        factor.sweep_down(&sw, sns, rows, stack, rec)
    });
}

/// Run `sweep(sns, rows, stack, rec)` over every local subtree, each
/// thread over its own in ascending order, on its own stack and lane.
fn on_threads(
    plan: &Plan,
    sw: &Sweep<'_>,
    mut x: &mut [f64],
    stacks: &mut [Vec<f64>],
    tr: &Collector,
    sweep: impl Fn(Range<usize>, &mut [f64], &mut Vec<f64>, &mut LocalRecorder<'_>) + Sync,
) {
    plan.on_threads(
        |sns| {
            let rows = x.split_off_mut(..sw.pivot_rows(sns).len());
            rows.expect("the runs partition the pivot rows")
        },
        stacks,
        |t, subtrees, stack| {
            let mut rec = tr.local(t);
            for (sns, rows) in subtrees {
                sweep(sns, rows, stack, &mut rec);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{FactorOpts, SparseCholesky};
    use parfact_sparse::{gen, ops};

    #[test]
    fn smp_solve_equals_sequential_solve_bitwise() {
        for a in [
            gen::laplace2d(17, 15, gen::Stencil2d::FivePoint),
            gen::laplace3d(6, 6, 6, gen::Stencil3d::SevenPoint),
            gen::elasticity3d(4, 3, 3),
        ] {
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64 - 14.0).collect();
            let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
            let x_seq = chol.solve(&b);
            let x_par = solve_smp_many(chol.factor(), &b, 1, 4).unwrap();
            for (p, q) in x_par.iter().zip(&x_seq) {
                assert_eq!(p.to_bits(), q.to_bits(), "parallel solve diverged");
            }
            assert!(ops::sym_residual_inf(&a, &x_par, &b) < 1e-12);
        }
    }

    #[test]
    fn smp_solve_many_matches_per_column_smp_solve_bitwise() {
        // The block sweep must be bitwise equal to running each column
        // through the single-RHS parallel path: the kernels promise
        // per-column op order independent of nrhs, and the tree schedule
        // does not affect any column's arithmetic.
        let a = gen::laplace3d(5, 5, 5, gen::Stencil3d::SevenPoint);
        let n = a.nrows();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        for nrhs in [1usize, 2, 7] {
            let b: Vec<f64> = (0..n * nrhs)
                .map(|i| ((i * 7 + 3) % 23) as f64 - 11.0)
                .collect();
            let xblk = solve_smp_many(chol.factor(), &b, nrhs, 4).unwrap();
            for r in 0..nrhs {
                let xcol = solve_smp_many(chol.factor(), &b[r * n..(r + 1) * n], 1, 4).unwrap();
                for (bq, cq) in xblk[r * n..(r + 1) * n].iter().zip(&xcol) {
                    assert_eq!(bq.to_bits(), cq.to_bits(), "nrhs={nrhs} col={r}");
                }
            }
        }
    }

    #[test]
    fn smp_solve_ldlt() {
        use crate::factor::FactorKind;
        let a = gen::indefinite(80, 9);
        let b: Vec<f64> = (0..80).map(|i| (i % 7) as f64 - 3.0).collect();
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt)).unwrap();
        let x_par = solve_smp_many(chol.factor(), &b, 1, 3).unwrap();
        assert_eq!(x_par, chol.solve(&b));
        assert!(ops::sym_residual_inf(&a, &x_par, &b) < 1e-10);
    }

    #[test]
    fn single_thread_falls_back() {
        let a = gen::tridiagonal(30);
        let b = vec![1.0; 30];
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let x1 = solve_smp_many(chol.factor(), &b, 1, 1).unwrap();
        let x2 = chol.solve(&b);
        assert_eq!(x1, x2); // the fallback is the sequential schedule
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let a = gen::tridiagonal(12);
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let bad = vec![1.0; 11];
        assert!(matches!(
            solve_smp_many(chol.factor(), &bad, 1, 4),
            Err(FactorError::DimensionMismatch {
                expected: 12,
                got: 11
            })
        ));
    }

    #[test]
    fn forest_handled() {
        // Disconnected blocks: multiple roots in both sweeps.
        let mut coo = parfact_sparse::coo::CooMatrix::new(20, 20);
        for b in 0..2 {
            let base = b * 10;
            for i in 0..10 {
                coo.push(base + i, base + i, 3.0);
                if i + 1 < 10 {
                    coo.push(base + i + 1, base + i, -1.0);
                }
            }
        }
        let a = coo.to_csc();
        let b = vec![2.0; 20];
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let x = solve_smp_many(chol.factor(), &b, 1, 4).unwrap();
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-13);
    }
}
