//! Shared-memory parallel triangular solves: the solve phase parallelized
//! over the assembly tree with real threads, mirroring the factorization's
//! tree parallelism.
//!
//! The forward sweep runs leaves-to-roots (a supernode is ready when its
//! children finished; its contribution block travels to the parent like an
//! update matrix), the backward sweep roots-to-leaves (a supernode is
//! ready when its parent finished and has published the x values at the
//! child's below-pivot rows). Both sweeps therefore expose exactly the
//! tree parallelism of the factorization — and inherit its limitation, the
//! serial top of the tree, which is why parallel solves gain less than
//! factorizations (cf. EXP-F4 on the distributed engine).
//!
//! All right-hand sides move as one interleaved block: the per-supernode
//! steps are `sweep::Sweep::{up, down}`, shared with the other two solve
//! paths, and this module only schedules them over the `tree_pool`.
//! Contributions are folded into a parent in the fixed order of
//! `tree.children`, so the solution does not depend on the thread count or
//! the run, and is bit-equal to the sequential solve's and to the
//! distributed solve's at any rank count.

use crate::error::FactorError;
use crate::factor::{Factor, FactorKind};
use crate::smp::resolve_threads;
use crate::sweep::{self, Sweep};
use crate::tree_pool::{walk_tree, Walk};
use parfact_trace::{Collector, LocalRecorder, Phase};
use parking_lot::Mutex;
use std::mem::take;

/// Multi-RHS tree-parallel solve of `A X = B` on `threads` OS threads
/// (0 = available parallelism): `b` is `n x nrhs` column-major. Results
/// equal [`Factor::try_solve_many`]'s bit for bit: both fold child blocks
/// in `tree.children` order through the same supernode steps. Checked: a
/// wrong `b.len()` returns [`FactorError::DimensionMismatch`].
pub fn solve_smp_many(
    factor: &Factor,
    b: &[f64],
    nrhs: usize,
    threads: usize,
) -> Result<Vec<f64>, FactorError> {
    solve_smp_many_traced(factor, b, nrhs, threads, &Collector::disabled())
}

/// [`solve_smp_many`] with instrumentation: per-worker `Phase::Solve`
/// spans (one per supernode per sweep) land in `tr` when its level records
/// spans, giving the timeline per-worker solve lanes.
pub fn solve_smp_many_traced(
    factor: &Factor,
    b: &[f64],
    nrhs: usize,
    threads: usize,
    tr: &Collector,
) -> Result<Vec<f64>, FactorError> {
    let sym = &factor.sym;
    if b.len() != sym.n * nrhs {
        return Err(FactorError::DimensionMismatch {
            expected: sym.n * nrhs,
            got: b.len(),
        });
    }
    let nthreads = resolve_threads(threads);
    if nthreads <= 1 || sym.nsuper() <= 1 || nrhs == 0 {
        // The sequential schedule of the same steps: same bits, no pool.
        return factor.try_solve_many(b, nrhs);
    }
    let sw = Sweep::new(sym, nrhs, factor.kind == FactorKind::Ldlt);
    let mut x = sweep::permute_in(&factor.perm, b, nrhs);
    // What travels along a tree edge: the child's contribution block going
    // up, the x at the child's below-pivot rows coming back down.
    let edge: Vec<Mutex<Vec<f64>>> = (0..sym.nsuper()).map(|_| Mutex::new(Vec::new())).collect();
    for dir in [Walk::Up, Walk::Down] {
        // Each task owns its supernode's pivot rows of `x`.
        let mut rest = x.as_mut_slice();
        let pivots: Vec<Mutex<&mut [f64]>> = (0..sym.nsuper())
            .map(|s| {
                let (head, tail) = take(&mut rest).split_at_mut(sw.pivot_range(s).len());
                rest = tail;
                Mutex::new(head)
            })
            .collect();
        // Each worker keeps one buffer for the children's blocks of its task.
        let step = |s: usize, kids: &mut Vec<f64>, rec: &mut LocalRecorder<'_>| {
            let tick = rec.start();
            let mut xpiv = pivots[s].lock();
            let children = &sym.tree.children[s];
            kids.clear();
            if dir == Walk::Up {
                let mut ybelow = vec![0.0f64; sw.below_len(s)];
                for &c in children {
                    kids.extend(take(&mut *edge[c].lock()));
                }
                sw.up(s, factor.panel(s), &mut xpiv, &mut ybelow, kids);
                *edge[s].lock() = ybelow;
            } else {
                let xbelow = take(&mut *edge[s].lock());
                sw.down(s, factor.panel(s), &mut xpiv, &xbelow, kids);
                for &c in children.iter().rev() {
                    *edge[c].lock() = kids.split_off(kids.len() - sw.below_len(c));
                }
            }
            rec.stop(tick, Phase::Solve, Some(s));
            Ok::<(), FactorError>(())
        };
        let scratch = (0..nthreads).map(|_| Vec::new());
        walk_tree(&sym.tree, dir, |_| true, scratch, tr, step)?;
        if dir == Walk::Up {
            sw.diag_scale(&factor.d, &mut x);
        }
    }
    Ok(sweep::permute_out(&factor.perm, &x, nrhs))
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
