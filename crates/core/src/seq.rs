//! Sequential supernodal multifrontal factorization: the postorder
//! scheduler over `factor_front`, and the correctness oracle for the
//! parallel engines. Its loop (`factor_run`) runs every engine's local
//! fronts: SMP subtrees and top, and each simulated rank's subtrees. This
//! engine runs the one-thread plan: one arena, laid out over postorder.

use crate::error::FactorError;
use crate::factor::{Factor, FactorKind};
use crate::frontal::{factor_front, panel_kernel, update_len, FrontMeter};
use crate::mapping::Plan;
use crate::workspace::Workspace;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_symbolic::Symbolic;
use parfact_trace::Collector;
use std::ops::Range;
use std::sync::Arc;

/// Factor an already-permuted matrix (the output of
/// [`parfact_symbolic::analyze`]) into a supernodal factor.
///
/// `perm` is the total permutation recorded into the [`Factor`] so `solve`
/// can map user vectors; it does not affect the numerics here.
pub fn factorize_seq(
    ap: &CscMatrix,
    sym: &Arc<Symbolic>,
    kind: FactorKind,
    perm: Perm,
) -> Result<Factor, FactorError> {
    let mut factor = Factor::allocate(sym, kind, perm);
    let mut ws = Workspace::new();
    factorize_seq_into(ap, sym, &Collector::disabled(), &mut ws, &mut factor)?;
    Ok(factor)
}

/// The in-place sequential engine: overwrite `factor`'s slab (allocated
/// with the same `sym`) using the arena in `ws`, recording into `tr` (with
/// a disabled collector every hook is a single branch, so this *is* the
/// uninstrumented engine). With a warm workspace the steady state performs
/// **no per-supernode heap allocation** — every update lives at its planned
/// place in the arena, and a front's pivot columns are assembled and
/// factored in `factor`'s own slab.
///
/// Returns the bytes of update arena the plan laid out
/// ([`Plan::arena_bytes`]).
///
/// On error the panels written so far are left behind; callers that reuse
/// factors across calls (refactorize) must treat a failed factor as
/// invalid.
pub(crate) fn factorize_seq_into(
    ap: &CscMatrix,
    sym: &Arc<Symbolic>,
    tr: &Collector,
    ws: &mut Workspace,
    factor: &mut Factor,
) -> Result<usize, FactorError> {
    debug_assert_eq!(factor.sym.sn_ptr, sym.sn_ptr, "factor/symbolic mismatch");
    let plan = ws.plans.get(sym, 1);
    let (arena, out) = (&mut ws.arenas_for(&plan)[0], &mut Slab::new(factor));
    let (sns, mut rec) = (0..sym.nsuper(), tr.local(0));
    factor_run(ap, sym, &plan, sns, out, arena, &[], &mut rec, 1).map_err(|(_, e)| e)?;
    Ok(plan.arena_bytes())
}

/// What the fronts of supernodes `first..` write to the factor: their
/// panels and LDLᵀ pivots. Each array starts at supernode `first`'s
/// entries.
pub(crate) struct Slab<'a> {
    first: usize,
    kind: FactorKind,
    panel_ptr: &'a [usize],
    pub(crate) panels: &'a mut [f64],
    /// Empty for LLᵀ.
    d: &'a mut [f64],
}

impl<'a> Slab<'a> {
    /// The whole of `factor`.
    pub(crate) fn new(factor: &'a mut Factor) -> Self {
        Slab {
            first: 0,
            kind: factor.kind,
            panel_ptr: &factor.panel_ptr,
            panels: &mut factor.panels,
            d: &mut factor.d,
        }
    }

    /// Split off supernodes `first..end`, leaving `end..` here.
    pub(crate) fn cut(&mut self, sym: &Symbolic, end: usize) -> Slab<'a> {
        let (first, pp, cp) = (self.first, self.panel_ptr, &sym.sn_ptr);
        let nd = match self.kind {
            FactorKind::Llt => 0,
            FactorKind::Ldlt => cp[end] - cp[first],
        };
        self.first = end;
        let whole = "a cut ends inside the slab";
        Slab {
            first,
            kind: self.kind,
            panel_ptr: pp,
            panels: self
                .panels
                .split_off_mut(..pp[end] - pp[first])
                .expect(whole),
            d: self.d.split_off_mut(..nd).expect(whole),
        }
    }
}

/// The sequential engine's loop: factor the supernodes `sns` in order into
/// `out` and their updates into `arena` at their places in `plan`. A child
/// another worker `w` ran is read from its arena, `theirs[w - 1]` (only
/// the SMP top, worker 0, has such children: local roots). Every child of
/// a supernode in `sns` comes before it, in `sns` or already factored.
/// Every front runs [`panel_kernel`], whose updates `threads` threads
/// share, for both kinds, to the same bits at every thread count, charged
/// to `meter`. Stops at the first failure and returns it with its node.
#[allow(clippy::too_many_arguments)]
pub(crate) fn factor_run<M: FrontMeter>(
    ap: &CscMatrix,
    sym: &Symbolic,
    plan: &Plan,
    sns: Range<usize>,
    out: &mut Slab<'_>,
    arena: &mut [f64],
    theirs: &[Vec<f64>],
    meter: &mut M,
    threads: usize,
) -> Result<(), (usize, FactorError)> {
    let (first, kind, pp, cp) = (out.first, out.kind, out.panel_ptr, &sym.sn_ptr);
    let len = |s: usize| update_len(sym.sn_rows[s].len());
    for s in sns {
        // The live updates, its children's among them, lie around that of `s`.
        let (at, me) = (plan.at[s], plan.runner(s));
        let (below, rest) = arena.split_at_mut(at);
        let (schur, above) = rest.split_at_mut(len(s));
        let (below, above) = (&*below, &*above);
        let children = sym.tree.children[s].iter().map(|&c| {
            let (a, n) = (plan.at[c], len(c));
            let data = match plan.runner(c) {
                w if w != me => &theirs[w - 1][a..a + n],
                _ if a < at => &below[a..a + n],
                _ => &above[a - at - len(s)..][..n],
            };
            (c, data)
        });
        let panel = &mut out.panels[pp[s] - pp[first]..pp[s + 1] - pp[first]];
        let d = match kind {
            FactorKind::Llt => &mut [][..],
            FactorKind::Ldlt => &mut out.d[cp[s] - cp[first]..cp[s + 1] - cp[first]],
        };
        let kernel = |m: &mut M, f, w, p: &mut [f64], schur: &mut [f64]| {
            panel_kernel(kind, s, m, f, w, p, schur, d, threads)
        };
        factor_front(ap, sym, s, children, meter, panel, schur, kernel).map_err(|e| (s, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::reconstruction_error;
    use parfact_sparse::{gen, ops};
    use parfact_symbolic::{analyze, AmalgOpts};

    fn pipeline(a: &CscMatrix, kind: FactorKind) -> (Factor, CscMatrix) {
        let (sym, ap) = analyze(a, &AmalgOpts::default());
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        let f = factorize_seq(&ap, &sym, kind, perm).unwrap();
        (f, ap)
    }

    #[test]
    fn factor_reconstructs_tridiagonal() {
        let a = gen::tridiagonal(12);
        let (f, ap) = pipeline(&a, FactorKind::Llt);
        assert!(reconstruction_error(&f, &ap) < 1e-12);
    }

    #[test]
    fn factor_reconstructs_2d_grid() {
        let a = gen::laplace2d(9, 8, gen::Stencil2d::FivePoint);
        let (f, ap) = pipeline(&a, FactorKind::Llt);
        assert!(reconstruction_error(&f, &ap) < 1e-10);
    }

    #[test]
    fn factor_reconstructs_3d_grid() {
        let a = gen::laplace3d(4, 4, 4, gen::Stencil3d::SevenPoint);
        let (f, ap) = pipeline(&a, FactorKind::Llt);
        assert!(reconstruction_error(&f, &ap) < 1e-10);
    }

    #[test]
    fn factor_reconstructs_random_spd() {
        for seed in 0..4 {
            let a = gen::random_spd(70, 5, seed);
            let (f, ap) = pipeline(&a, FactorKind::Llt);
            assert!(reconstruction_error(&f, &ap) < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn ldlt_reconstructs_spd_and_indefinite() {
        let a = gen::random_spd(50, 4, 3);
        let (f, ap) = pipeline(&a, FactorKind::Ldlt);
        assert!(reconstruction_error(&f, &ap) < 1e-9);
        assert!(f.d.iter().all(|&x| x > 0.0));

        // Indefinite but diagonally dominant: LDLt succeeds, pivots signed.
        let ind = gen::indefinite(40, 8);
        let (fi, api) = pipeline(&ind, FactorKind::Ldlt);
        assert!(reconstruction_error(&fi, &api) < 1e-9);
        assert!(fi.d.iter().any(|&x| x < 0.0));
    }

    #[test]
    fn llt_rejects_indefinite_with_column_info() {
        let ind = gen::indefinite(30, 5);
        let (sym, ap) = analyze(&ind, &AmalgOpts::default());
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        match factorize_seq(&ap, &sym, FactorKind::Llt, perm) {
            Err(FactorError::NotPositiveDefinite { col, .. }) => assert!(col < 30),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = gen::laplace2d(11, 7, gen::Stencil2d::FivePoint);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = vec![0.0; n];
        a.sym_spmv(&xstar, &mut b);

        // Full pipeline with a fill ordering: permute, analyze, factor.
        let fill = parfact_order::order_matrix(&a, parfact_order::Method::default());
        let af = fill.apply_sym_lower(&a);
        let (sym, ap) = analyze(&af, &AmalgOpts::default());
        let total = sym.post.compose(&fill);
        let sym = Arc::new(sym);
        let f = factorize_seq(&ap, &sym, FactorKind::Llt, total).unwrap();
        let x = f.solve(&b);
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-8);
        }
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_matches_cg_cross_check() {
        let a = gen::elasticity3d(3, 3, 3);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let (f, _) = pipeline(&a, FactorKind::Llt);
        // pipeline() used no fill ordering: perm = postorder only. Solve in
        // original space directly.
        let x = f.solve(&b);
        let (xcg, _) = ops::cg(&a, &b, 1e-12, 4000).expect("cg converges");
        for (xi, xc) in x.iter().zip(&xcg) {
            assert!((xi - xc).abs() < 1e-6);
        }
    }

    #[test]
    fn singleton_and_diagonal_matrices() {
        let mut coo = parfact_sparse::coo::CooMatrix::new(1, 1);
        coo.push(0, 0, 9.0);
        let a1 = coo.to_csc();
        let (f, ap) = pipeline(&a1, FactorKind::Llt);
        assert!(reconstruction_error(&f, &ap) < 1e-15);
        assert_eq!(f.solve(&[18.0]), vec![2.0]);

        let mut coo = parfact_sparse::coo::CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, (i + 1) as f64);
        }
        let ad = coo.to_csc();
        let (fd, _) = pipeline(&ad, FactorKind::Llt);
        let x = fd.solve(&[1.0, 2.0, 3.0, 4.0]);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_many_matches_repeated_single_solves() {
        let a = gen::laplace2d(9, 9, gen::Stencil2d::FivePoint);
        let n = a.nrows();
        let nrhs = 5;
        let (f, _) = pipeline(&a, FactorKind::Llt);
        let mut b = vec![0.0; n * nrhs];
        for r in 0..nrhs {
            for i in 0..n {
                b[r * n + i] = ((i * (r + 2)) % 13) as f64 - 6.0;
            }
        }
        let xm = f.try_solve_many(&b, nrhs).unwrap();
        for r in 0..nrhs {
            let x1 = f.solve(&b[r * n..(r + 1) * n]);
            for (a_, b_) in xm[r * n..(r + 1) * n].iter().zip(&x1) {
                assert_eq!(a_.to_bits(), b_.to_bits(), "rhs {r}");
            }
        }
    }

    #[test]
    fn solve_many_ldlt() {
        let a = gen::indefinite(40, 5);
        let n = a.nrows();
        let (f, _) = pipeline(&a, FactorKind::Ldlt);
        let b: Vec<f64> = (0..2 * n).map(|i| (i % 9) as f64 - 4.0).collect();
        let xm = f.try_solve_many(&b, 2).unwrap();
        for r in 0..2 {
            let x1 = f.solve(&b[r * n..(r + 1) * n]);
            for (a_, b_) in xm[r * n..(r + 1) * n].iter().zip(&x1) {
                assert!((a_ - b_).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn wide_amalgamation_still_correct() {
        // Heavy padding must not change numerics (padded entries are zeros).
        let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
        let (sym, ap) = analyze(
            &a,
            &AmalgOpts {
                min_width: 32,
                relax_frac: 0.5,
            },
        );
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        let f = factorize_seq(&ap, &sym, FactorKind::Llt, perm).unwrap();
        assert!(reconstruction_error(&f, &ap) < 1e-10);
    }
}
