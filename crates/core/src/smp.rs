//! Shared-memory parallel multifrontal factorization on the paper's
//! subtree mapping.
//!
//! [`crate::mapping::map_tree`], with one "rank" per thread, splits the
//! assembly tree into the two regimes of the paper:
//!
//! 1. **Local subtrees** (groups of one thread): disjoint subtrees are
//!    independent, so every thread factors its own in postorder with the
//!    sequential engine's loop, its updates in its own arena of the
//!    [`Workspace`]. A subtree is consecutive in postorder, so its panels
//!    and pivots are one run of each array, split off as a safe `&mut`
//!    slice: no queue, no locks, and each thread writes only what it owns.
//! 2. **The top** (groups of several threads): near the root the tree is
//!    too narrow to feed the cores, but the fronts are large. After the
//!    join the calling thread runs them in postorder with the sequential
//!    engine's loop and dense kernel, whose updates (each panel's update
//!    from the panels left of it, the Schur update, the LDLᵀ trailing
//!    updates) are split by columns across all threads
//!    ([`parfact_dense::blas::gemm_nt_ln`]), to the same bits.
//!
//! The schedule is built once per analysis and thread count and kept in
//! the [`Workspace`], for the mapped solves as well. It gives every update
//! a fixed place in the arena of the thread that runs its front (the top
//! on thread 0's); the top reads each local root's update where its
//! thread left it, so nothing is handed back, and a warm run grows no
//! arena. A failing run returns the sequential engine's error: each thread
//! stops at its own first failure, the top runs every front below the
//! lowest one, and the lowest failure in postorder is returned.

use crate::error::FactorError;
use crate::factor::{Factor, FactorKind};
use crate::seq::{factor_run, Slab};
use crate::workspace::Workspace;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_symbolic::Symbolic;
use parfact_trace::Collector;
use std::sync::Arc;

/// Options for the SMP engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SmpOpts {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

/// Resolve `threads = 0` to the machine's available parallelism.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|x| x.get())
            .unwrap_or(1)
    }
}

/// Shared-memory parallel factorization of an already-permuted matrix.
pub fn factorize_smp(
    ap: &CscMatrix,
    sym: &Arc<Symbolic>,
    kind: FactorKind,
    perm: Perm,
    opts: &SmpOpts,
) -> Result<Factor, FactorError> {
    let mut factor = Factor::allocate(sym, kind, perm);
    let mut ws = Workspace::new();
    factorize_smp_into(ap, sym, opts, &Collector::disabled(), &mut ws, &mut factor)?;
    Ok(factor)
}

/// The in-place SMP engine: overwrite `factor`'s slab (allocated with the
/// same `sym`) using the per-thread arenas in `ws`. Each thread records
/// into a private recorder of `tr` keyed by its index; the top records as
/// thread 0. See [`crate::seq::factorize_seq_into`] for what it returns
/// and the error-state contract.
pub(crate) fn factorize_smp_into(
    ap: &CscMatrix,
    sym: &Arc<Symbolic>,
    opts: &SmpOpts,
    tr: &Collector,
    ws: &mut Workspace,
    factor: &mut Factor,
) -> Result<usize, FactorError> {
    let nthreads = resolve_threads(opts.threads);
    let nsuper = sym.nsuper();
    if nthreads <= 1 || nsuper <= 1 {
        return crate::seq::factorize_seq_into(ap, sym, tr, ws, factor);
    }
    let plan = ws.plans.get(sym, nthreads);
    let arenas = ws.arenas_for(&plan);

    // The local subtrees, each thread over its own.
    let mut rest = Slab::new(factor);
    let failed = plan
        .on_threads(
            |sns| rest.cut(sym, sns.end),
            arenas.iter_mut(),
            |t, subtrees, arena| {
                let mut rec = tr.local(t);
                subtrees.into_iter().find_map(|(sns, mut out)| {
                    factor_run(ap, sym, &plan, sns, &mut out, arena, &[], &mut rec, 1).err()
                })
            },
        )
        .into_iter()
        .flatten()
        .min_by_key(|&(s, _)| s);

    // The top, on this thread: every front below the lowest failure.
    let stop = failed.as_ref().map_or(nsuper, |&(s, _)| s);
    let mut out = Slab::new(factor);
    let mut rec = tr.local(0);
    let (mine, theirs) = arenas.split_first_mut().expect("a plan has a thread");
    for s in plan.top().take_while(|&s| s < stop) {
        let sns = s..s + 1;
        factor_run(
            ap, sym, &plan, sns, &mut out, mine, theirs, &mut rec, nthreads,
        )
        .map_err(|(_, e)| e)?;
    }
    failed.map_or(Ok(plan.arena_bytes()), |(_, e)| Err(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::prepare;
    use crate::factor::reconstruction_error;
    use crate::mapping::Plan;
    use crate::seq::factorize_seq;
    use parfact_dense::chol;
    use parfact_order::Method;
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    /// The SMP engine's plan of `sym` on `threads` threads.
    fn smp_plan(sym: &Symbolic, threads: usize) -> Plan {
        Plan::host(sym, threads)
    }

    /// Both engines on `a` after nested dissection, whose tree gives the
    /// SMP engine's threads local subtrees below a top (asserted).
    fn both_engines(
        a: &CscMatrix,
        kind: FactorKind,
        opts: &SmpOpts,
    ) -> (Factor, Factor, CscMatrix) {
        let (sym, ap, perm) = prepare(a, Method::default(), &AmalgOpts::default());
        let plan = smp_plan(&sym, resolve_threads(opts.threads));
        assert!(plan.runs.iter().any(|run| run.owner.is_some()));
        let fs = factorize_seq(&ap, &sym, kind, perm.clone()).unwrap();
        let fp = factorize_smp(&ap, &sym, kind, perm, opts).unwrap();
        (fs, fp, ap)
    }

    #[test]
    fn smp_matches_seq_on_2d_grid() {
        let a = gen::laplace2d(20, 20, gen::Stencil2d::FivePoint);
        let opts = SmpOpts { threads: 4 };
        let (fs, fp, ap) = both_engines(&a, FactorKind::Llt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0, "engines must agree bitwise");
        assert!(reconstruction_error(&fp, &ap) < 1e-10);
        // Without a fill-reducing ordering the tree is too narrow for any
        // local subtree: every front is a top front.
        let (sym, ap) = analyze(&a, &AmalgOpts::default());
        let sym = Arc::new(sym);
        let plan = smp_plan(&sym, opts.threads);
        assert!(plan.runs.iter().all(|run| run.owner.is_none()));
        let fs = factorize_seq(&ap, &sym, FactorKind::Llt, sym.post.clone()).unwrap();
        let fp = factorize_smp(&ap, &sym, FactorKind::Llt, sym.post.clone(), &opts).unwrap();
        assert_eq!(fp.max_abs_diff(&fs), 0.0);
    }

    #[test]
    fn smp_matches_seq_on_3d_grid() {
        let a = gen::laplace3d(6, 6, 6, gen::Stencil3d::SevenPoint);
        let opts = SmpOpts { threads: 3 };
        let (fs, fp, _) = both_engines(&a, FactorKind::Llt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0);
    }

    #[test]
    fn smp_ldlt_matches_seq() {
        let a = gen::indefinite(60, 4);
        let opts = SmpOpts { threads: 3 };
        let (fs, fp, ap) = both_engines(&a, FactorKind::Ldlt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0);
        assert!(reconstruction_error(&fp, &ap) < 1e-9);
        assert!(fp.d.iter().any(|&x| x < 0.0));
    }

    #[test]
    fn smp_error_propagates() {
        let a = gen::indefinite(50, 6);
        let (sym, ap) = analyze(&a, &AmalgOpts::default());
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        let r = factorize_smp(&ap, &sym, FactorKind::Llt, perm, &SmpOpts { threads: 4 });
        assert!(matches!(r, Err(FactorError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn smp_solve_end_to_end() {
        let a = gen::elasticity3d(4, 4, 3);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut b = vec![0.0; n];
        a.sym_spmv(&xstar, &mut b);
        let opts = SmpOpts { threads: 4 };
        let (_, fp, _) = both_engines(&a, FactorKind::Llt, &opts);
        let x = fp.solve(&b);
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-7);
        }
    }

    #[test]
    fn single_thread_falls_back_to_seq() {
        let a = gen::laplace2d(6, 6, gen::Stencil2d::FivePoint);
        let opts = SmpOpts { threads: 1 };
        let (fs, fp, _) = both_engines(&a, FactorKind::Llt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0);
    }

    #[test]
    fn smp_reuses_workspace_across_refactorizations() {
        // Second run through the same workspace must stay in warm arenas.
        let a = gen::laplace2d(15, 15, gen::Stencil2d::FivePoint);
        let (sym, ap) = analyze(&a, &AmalgOpts::default());
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm);
        let mut ws = Workspace::new();
        let opts = SmpOpts { threads: 2 };
        let tr = Collector::disabled();
        factorize_smp_into(&ap, &sym, &opts, &tr, &mut ws, &mut factor).unwrap();
        let first = ws.arena_addrs();
        assert!(
            ws.arenas.iter().any(|a| !a.is_empty()),
            "cold start must grow an arena"
        );
        factorize_smp_into(&ap, &sym, &opts, &tr, &mut ws, &mut factor).unwrap();
        // Every run lays each update at the same place of the same arena.
        assert_eq!(ws.arena_addrs(), first, "a warm run grew an arena");
    }

    #[test]
    fn the_top_kernel_runs_fronts_of_several_panels() {
        // Under nested dissection, three threads share the two top fronts
        // of lap3d-12 (69 and 204 pivots: two and five `chol::NB`-column
        // panels) and split each update of the dense kernel between them,
        // to the sequential engine's bits, for both kinds.
        let a = gen::laplace3d(12, 12, 12, gen::Stencil3d::SevenPoint);
        let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
        let opts = SmpOpts { threads: 3 };
        let widest = smp_plan(&sym, opts.threads)
            .top()
            .map(|s| sym.sn_width(s))
            .max();
        assert!(widest > Some(chol::NB), "widest top front: {widest:?}");
        for kind in [FactorKind::Llt, FactorKind::Ldlt] {
            let fs = factorize_seq(&ap, &sym, kind, perm.clone()).unwrap();
            let fp = factorize_smp(&ap, &sym, kind, perm.clone(), &opts).unwrap();
            let bits = |f: &Factor| {
                f.panels
                    .iter()
                    .chain(&f.d)
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            assert!(bits(&fp) == bits(&fs), "{kind:?}");
        }
    }

    #[test]
    fn a_failing_run_returns_the_sequential_engines_error() {
        // A shifted Laplacian fails in many subtrees at once. At shift 1
        // every thread's subtrees fail near the leaves; at 0.05 several
        // threads fail, and with four threads the lowest failure is a top
        // front below two failed subtrees; at 0.02 only the root fails.
        // Every thread stops at its own first failure, the top runs below
        // the lowest one, and the lowest wins: the sequential engine's
        // error, pivot bits included, whichever thread failed first.
        for shift in [1.0, 0.05, 0.02] {
            let a = gen::helmholtz2d(40, 40, shift);
            let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
            let seq = factorize_seq(&ap, &sym, FactorKind::Llt, perm.clone()).unwrap_err();
            let FactorError::NotPositiveDefinite { col, value } = seq else {
                panic!("shift {shift}: {seq:?}");
            };
            for threads in 2..=4 {
                let owners = failing_owners(&ap, &sym, threads);
                assert!(
                    shift < 0.05 || owners.len() >= 2,
                    "{threads} threads: {owners:?}"
                );
                for _ in 0..20 {
                    let opts = SmpOpts { threads };
                    let smp = factorize_smp(&ap, &sym, FactorKind::Llt, perm.clone(), &opts);
                    let Err(FactorError::NotPositiveDefinite { col: c, value: v }) = smp else {
                        panic!("shift {shift}, {threads} threads: {smp:?}");
                    };
                    assert_eq!((c, v.to_bits()), (col, value.to_bits()), "shift {shift}");
                }
            }
        }
    }

    /// The threads that own a local subtree which fails when factored on
    /// its own.
    fn failing_owners(ap: &CscMatrix, sym: &Arc<Symbolic>, threads: usize) -> Vec<usize> {
        let plan = smp_plan(sym, threads);
        let mut factor = Factor::allocate(sym, FactorKind::Llt, sym.post.clone());
        let mut out = Slab::new(&mut factor);
        let tr = Collector::disabled();
        let mut owners: Vec<usize> = (plan.runs.iter())
            .filter_map(|run| {
                let owner = run.owner?;
                let mut arena = vec![0.0; plan.arena[owner]];
                let mut rec = tr.local(0);
                let sns = run.sns.clone();
                let r = factor_run(ap, sym, &plan, sns, &mut out, &mut arena, &[], &mut rec, 1);
                r.is_err().then_some(owner)
            })
            .collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }
}
