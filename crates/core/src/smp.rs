//! Shared-memory parallel multifrontal factorization.
//!
//! The parallelization mirrors the paper's two regimes:
//!
//! 1. **Tree parallelism** at the bottom: disjoint subtrees are independent,
//!    so small fronts are processed by a work-stealing pool over the
//!    assembly tree (one task per supernode, released when its children
//!    finish; the worker that releases a parent runs it next).
//! 2. **Kernel parallelism** at the top: near the root the tree is too
//!    narrow to feed the cores, but the fronts are large — those are
//!    processed in postorder with the trailing (Schur) update of each panel
//!    split across all threads.
//!
//! The boundary between regimes is the `big_front` threshold, closed upward
//! (a parent of a big front is big) so phase 2 never waits on phase 1.
//!
//! Workers assemble and factor panels straight in the [`Factor`] slab
//! (disjoint per supernode) and draw update buffers from their
//! [`FrontWorkspace`] arenas, each about one live front stack deep. Which
//! worker builds a front changes from run to run, and a consumed buffer
//! goes to the consumer's arena, so a warm run still grows a few buffers
//! (tens to a couple of hundred on lap2d-400's 33 048 fronts, where the
//! sequential engine grows none); idle workers wait with a spin-then-park
//! [`crate::backoff::Backoff`] instead of burning a core on `yield_now`.

use crate::error::FactorError;
use crate::factor::{Factor, FactorKind, FactorWriter};
use crate::frontal::{factor_front, panel_kernel, UpdateMatrix};
use crate::tree_pool::walk_tree;
use crate::workspace::{FrontWorkspace, Workspace};
use parfact_dense::blas::{gemm_nt, syrk_ln};
use parfact_dense::chol;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_symbolic::Symbolic;
use parfact_trace::{Collector, LocalRecorder, Phase};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Options for the SMP engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmpOpts {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Fronts at least this large switch to kernel parallelism.
    pub big_front: usize,
}

impl Default for SmpOpts {
    fn default() -> Self {
        SmpOpts {
            threads: 0,
            big_front: 384,
        }
    }
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
/// same `sym`) using the per-worker arenas in `ws`. Each phase-1 worker
/// accumulates into a private recorder of `tr` (keyed by worker id) that
/// merges into the collector when the worker exits; phase 2 records as
/// worker 0. See [`crate::seq::factorize_seq_into`] for the error-state
/// contract.
pub(crate) fn factorize_smp_into(
    ap: &CscMatrix,
    sym: &Arc<Symbolic>,
    opts: &SmpOpts,
    tr: &Collector,
    ws: &mut Workspace,
    factor: &mut Factor,
) -> Result<(), FactorError> {
    let nthreads = resolve_threads(opts.threads);
    let nsuper = sym.nsuper();
    if nthreads <= 1 || nsuper <= 1 {
        return crate::seq::factorize_seq_into(ap, sym, tr, ws, factor);
    }

    // Upward-closed "big" set.
    let mut big = vec![false; nsuper];
    for s in 0..nsuper {
        if sym.front_order(s) >= opts.big_front || sym.tree.children[s].iter().any(|&c| big[c]) {
            big[s] = true;
        }
    }

    let fronts = Fronts {
        ap,
        sym,
        kind: factor.kind,
        updates: (0..nsuper).map(|_| Mutex::new(None)).collect(),
        writer: FactorWriter::new(factor),
    };

    // ---- Phase 1: tree-parallel over small supernodes. ----
    ws.ensure_threads(nthreads);
    let arenas = &mut ws.threads[..nthreads];
    walk_tree(
        &sym.tree,
        |s| !big[s],
        arenas.iter_mut(),
        tr,
        |s, wst, rec| fronts.run(s, wst, rec, 1),
    )?;

    // ---- Phase 2: kernel-parallel over big supernodes, in postorder. ----
    let wst = &mut ws.threads[0];
    let mut rec = tr.local(0);
    for s in (0..nsuper).filter(|&s| big[s]) {
        fronts.run(s, wst, &mut rec, nthreads)?;
    }
    Ok(())
}

/// What every worker shares: the problem, the factor being written and the
/// per-supernode update hand-off slots (mutexes for the cross-thread
/// hand-off; each is locked once by the producer and once by the parent).
struct Fronts<'a> {
    ap: &'a CscMatrix,
    sym: &'a Symbolic,
    kind: FactorKind,
    updates: Vec<Mutex<Option<UpdateMatrix>>>,
    writer: FactorWriter<'a>,
}

impl Fronts<'_> {
    /// Run supernode `s` on the calling worker. `threads > 1` splits the
    /// trailing update of an LLᵀ front across that many threads (phase 2);
    /// LDLᵀ fronts keep the sequential kernel (they only arise in
    /// quasi-definite runs where the SPD fast path is off anyway).
    fn run(
        &self,
        s: usize,
        wst: &mut FrontWorkspace,
        rec: &mut LocalRecorder<'_>,
        threads: usize,
    ) -> Result<(), FactorError> {
        let (sym, kind) = (self.sym, self.kind);
        wst.stage(sym.tree.children[s].iter().map(|&c| {
            let update = self.updates[c].lock().take();
            update.expect("child update missing")
        }));
        // SAFETY: the schedule hands supernode `s` to exactly one worker,
        // and panels / `d` segments of distinct supernodes are disjoint.
        let panel = unsafe {
            self.writer
                .panel_mut(s, 0..sym.front_order(s) * sym.sn_width(s))
        };
        let d = match kind {
            FactorKind::Llt => &mut [][..],
            // SAFETY: as above.
            FactorKind::Ldlt => unsafe { self.writer.d_mut(sym.sn_ptr[s], sym.sn_width(s)) },
        };
        let update = factor_front(
            self.ap,
            sym,
            s,
            wst,
            rec,
            panel,
            |rec, f, w, panel, schur| {
                if threads > 1 && kind == FactorKind::Llt {
                    parallel_partial_potrf_traced(f, w, panel, schur, f - w, threads, rec, Some(s))
                } else {
                    panel_kernel(kind, s, rec, f, w, panel, schur, d)
                }
            },
        )?;
        *self.updates[s].lock() = update;
        Ok(())
    }
}

/// Partial blocked Cholesky with the trailing update of each panel split
/// across `nthreads` threads, on a front stored as
/// [`chol::partial_potrf_split`] takes it: the `nf x npiv` pivot columns
/// in `panel` (leading dimension `nf`), the trailing block in `schur`
/// (leading dimension `lds`). Right-looking: after each panel, everything
/// right of it takes that panel's update. The sequential kernel is
/// left-looking and updates the Schur block once from all panels, but
/// the packed kernels round a `k`-long update as one update per
/// `chol::NB`-wide panel in ascending order (the determinism contract in
/// `parfact_dense::pack`), so every entry sees the same operations in the
/// same order and the results match it bitwise.
///
/// Phase timing: the panel section (diagonal factor + TRSM) accumulates as
/// [`Phase::Panel`], the threaded trailing update as [`Phase::Gemm`].
#[allow(clippy::too_many_arguments)]
pub fn parallel_partial_potrf_traced(
    nf: usize,
    npiv: usize,
    panel: &mut [f64],
    schur: &mut [f64],
    lds: usize,
    nthreads: usize,
    rec: &mut LocalRecorder<'_>,
    supernode: Option<usize>,
) -> Result<(), parfact_dense::DenseError> {
    for j in (0..npiv).step_by(chol::NB) {
        let jb = chol::NB.min(npiv - j);
        let col0 = j + jb;
        let rest = nf - col0;
        let tick = rec.start();
        // Panel: factor the diagonal block and scale the rows below it.
        chol::potrf_panel(nf - j, jb, &mut panel[j * nf + j..], nf, j)?;
        rec.stop(tick, Phase::Panel, supernode);
        if rest == 0 {
            break;
        }
        let tick = rec.start();
        // The workers read L21 (rows col0.. of the panel's columns) while
        // they write the trailing columns `col0..nf`, which lie past it in
        // `panel` and in `schur`. Those are split into chunks, each
        // updated with the packed kernels: per the determinism contract
        // every entry takes the panel as one ascending-k chain regardless
        // of chunking, as in the sequential kernel's updates.
        let (done, ahead) = panel.split_at_mut((col0 * nf).min(panel.len()));
        let l21 = &done[j * nf + col0..];
        let trailing = Trailing {
            ahead: ahead.as_mut_ptr(),
            schur: schur.as_mut_ptr(),
            col0,
            nf,
            npiv,
            lds,
        };
        let nchunks = (nthreads * 4).min(rest);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..nthreads.min(nchunks) {
                scope.spawn(|| {
                    let trailing = &trailing;
                    loop {
                        let c = counter.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        // Chunk c owns trailing columns [a, b); where it
                        // straddles the pivot boundary its two halves live
                        // in different buffers.
                        let (a, b) = (col0 + c * rest / nchunks, col0 + (c + 1) * rest / nchunks);
                        for (a, b) in [(a, b.min(npiv)), (a.max(npiv), b)] {
                            if a >= b {
                                continue;
                            }
                            let cw = b - a;
                            // SAFETY: each trailing column is written by
                            // exactly one chunk, and the views are used
                            // strictly one after the other.
                            let (tri, ld) = unsafe { trailing.cols(a, cw, a) };
                            // Diagonal part: rows [a, b) — a cw x cw syrk
                            // on the lower triangle.
                            let la = &l21[a - col0..];
                            syrk_ln(cw, jb, -1.0, la, nf, 1.0, tri, ld);
                            // Below-diagonal part: rows [b, nf) — a gemm.
                            if b < nf {
                                // SAFETY: as above; `tri` is dead by now.
                                let (rect, ld) = unsafe { trailing.cols(a, cw, b) };
                                let lb = &l21[b - col0..];
                                gemm_nt(nf - b, cw, jb, -1.0, lb, nf, la, nf, 1.0, rect, ld);
                            }
                        }
                    }
                });
            }
        });
        rec.stop(tick, Phase::Gemm, supernode);
    }
    Ok(())
}

/// Raw view of the trailing columns `col0..nf` of a split front — those
/// still in the panel (`ahead`, from column `col0` on) and the Schur block
/// — for the disjoint column chunks of the threaded trailing update.
struct Trailing {
    ahead: *mut f64,
    schur: *mut f64,
    col0: usize,
    nf: usize,
    npiv: usize,
    lds: usize,
}

// SAFETY: Trailing only ferries the two base pointers into the worker
// closures above; each worker carves disjoint column chunks out of them
// (see the SAFETY notes at the `cols` calls), so sharing the addresses
// across threads is sound.
unsafe impl Sync for Trailing {}

impl Trailing {
    /// Rows `row0..nf` of front columns `col..col + ncols` as `(view,
    /// leading dimension)`; the columns lie on one side of the pivot
    /// boundary and `col0 <= col <= row0`.
    ///
    /// # Safety
    /// The caller must be the unique user of those columns while the view
    /// lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn cols(&self, col: usize, ncols: usize, row0: usize) -> (&mut [f64], usize) {
        let (nf, npiv) = (self.nf, self.npiv);
        debug_assert!(self.col0 <= col && col <= row0 && row0 < nf);
        debug_assert!(col + ncols <= npiv || col >= npiv);
        let (base, ld, start) = if col < npiv {
            (self.ahead, nf, (col - self.col0) * nf + row0)
        } else {
            (self.schur, self.lds, (col - npiv) * self.lds + row0 - npiv)
        };
        let len = (ncols - 1) * ld + nf - row0;
        // SAFETY: the view ends at the last row of its last column, inside
        // the buffer; uniqueness is the caller's contract (see `# Safety`).
        (
            unsafe { std::slice::from_raw_parts_mut(base.add(start), len) },
            ld,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::reconstruction_error;
    use crate::seq::factorize_seq;
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    fn both_engines(
        a: &CscMatrix,
        kind: FactorKind,
        opts: &SmpOpts,
    ) -> (Factor, Factor, CscMatrix) {
        let (sym, ap) = analyze(a, &AmalgOpts::default());
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        let fs = factorize_seq(&ap, &sym, kind, perm.clone()).unwrap();
        let fp = factorize_smp(&ap, &sym, kind, perm, opts).unwrap();
        (fs, fp, ap)
    }

    #[test]
    fn parallel_partial_potrf_matches_sequential_kernel() {
        use parfact_dense::DMat;
        for (n, npiv) in [(60usize, 25usize), (130, 130), (97, 40)] {
            let mut state = n as u64 * 31 + 7;
            let a = DMat::random_spd(n, move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f64 / 1000.0 - 1.0
            });
            let mut f1 = a.clone();
            chol::partial_potrf(n, npiv, f1.as_mut_slice(), n).unwrap();
            // The front as the engines store it: pivot columns and the
            // trailing block in separate, tightly packed buffers.
            let r = n - npiv;
            let mut panel = a.as_slice()[..n * npiv].to_vec();
            let mut schur = vec![0.0; r * r];
            for j in 0..r {
                for i in j..r {
                    schur[j * r + i] = a[(npiv + i, npiv + j)];
                }
            }
            let tr = Collector::disabled();
            let mut rec = tr.local(0);
            parallel_partial_potrf_traced(n, npiv, &mut panel, &mut schur, r, 4, &mut rec, None)
                .unwrap();
            // Same panel boundaries and accumulation order: bitwise equal
            // on the lower triangle.
            for j in 0..n {
                for i in j..n {
                    let got = if j < npiv {
                        panel[j * n + i]
                    } else {
                        schur[(j - npiv) * r + i - npiv]
                    };
                    assert_eq!(
                        f1[(i, j)].to_bits(),
                        got.to_bits(),
                        "mismatch at ({i},{j}) n={n} npiv={npiv}"
                    );
                }
            }
        }
    }

    #[test]
    fn smp_matches_seq_on_2d_grid() {
        let a = gen::laplace2d(20, 20, gen::Stencil2d::FivePoint);
        let opts = SmpOpts {
            threads: 4,
            big_front: 64,
        };
        let (fs, fp, ap) = both_engines(&a, FactorKind::Llt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0, "engines must agree bitwise");
        assert!(reconstruction_error(&fp, &ap) < 1e-10);
    }

    #[test]
    fn smp_matches_seq_on_3d_grid() {
        let a = gen::laplace3d(6, 6, 6, gen::Stencil3d::SevenPoint);
        let opts = SmpOpts {
            threads: 3,
            big_front: 128,
        };
        let (fs, fp, _) = both_engines(&a, FactorKind::Llt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0);
    }

    #[test]
    fn smp_ldlt_matches_seq() {
        let a = gen::indefinite(60, 4);
        let opts = SmpOpts {
            threads: 3,
            big_front: 24,
        };
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
        let r = factorize_smp(
            &ap,
            &sym,
            FactorKind::Llt,
            perm,
            &SmpOpts {
                threads: 4,
                big_front: 32,
            },
        );
        assert!(matches!(r, Err(FactorError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn smp_solve_end_to_end() {
        let a = gen::elasticity3d(4, 4, 3);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut b = vec![0.0; n];
        a.sym_spmv(&xstar, &mut b);
        let opts = SmpOpts {
            threads: 4,
            big_front: 96,
        };
        let (_, fp, _) = both_engines(&a, FactorKind::Llt, &opts);
        let x = fp.solve(&b);
        for (xi, xs) in x.iter().zip(&xstar) {
            assert!((xi - xs).abs() < 1e-7);
        }
    }

    #[test]
    fn single_thread_falls_back_to_seq() {
        let a = gen::laplace2d(6, 6, gen::Stencil2d::FivePoint);
        let opts = SmpOpts {
            threads: 1,
            big_front: 64,
        };
        let (fs, fp, _) = both_engines(&a, FactorKind::Llt, &opts);
        assert_eq!(fp.max_abs_diff(&fs), 0.0);
    }

    #[test]
    fn smp_reuses_workspace_across_refactorizations() {
        // Second run through the same workspace must stay in warm buffers.
        let a = gen::laplace2d(15, 15, gen::Stencil2d::FivePoint);
        let (sym, ap) = analyze(&a, &AmalgOpts::default());
        let perm = sym.post.clone();
        let sym = Arc::new(sym);
        let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm);
        let mut ws = Workspace::new();
        let opts = SmpOpts {
            threads: 2,
            big_front: 64,
        };
        let tr = Collector::disabled();
        factorize_smp_into(&ap, &sym, &opts, &tr, &mut ws, &mut factor).unwrap();
        let first = ws.growth_events();
        assert!(first > 0, "cold start must grow buffers");
        factorize_smp_into(&ap, &sym, &opts, &tr, &mut ws, &mut factor).unwrap();
        // Work stealing makes the supernode-to-worker assignment
        // nondeterministic, so a warm run may still grow a pool buffer —
        // but the per-worker arenas are stable, so growth must at least
        // taper off rather than repeat per supernode.
        let second = ws.growth_events() - first;
        assert!(
            second <= first,
            "warm run grew more than cold ({second} > {first})"
        );
    }
}
