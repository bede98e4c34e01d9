//! The assembled factor and its triangular solves.
//!
//! The solve phase is blocked: every entry point (single vector included)
//! funnels into one postorder sweep that streams each supernode panel once
//! through the shared supernode step (`sweep::Sweep`, the `dense` crate's
//! interleaved `trsm`/`gemm` kernels) for all `nrhs` columns. The kernels
//! process each column in an order independent of `nrhs`, so the blocked
//! solve is bitwise identical to `nrhs` single-RHS solves.

use crate::error::FactorError;
use crate::sweep::{self, Sweep};
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_symbolic::Symbolic;
use parfact_trace::{Collector, LocalRecorder, Phase};
use std::ops::Range;
use std::sync::Arc;

/// Which factorization the blocks hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorKind {
    /// `P A Pᵀ = L Lᵀ` (SPD only).
    Llt,
    /// `P A Pᵀ = L D Lᵀ` with unit-lower `L` (symmetric quasi-definite /
    /// diagonally dominant indefinite; no pivoting).
    Ldlt,
}

/// A computed supernodal factor.
///
/// Per supernode `s`, [`Factor::panel`] is the column-major `f x w` panel
/// (`f = front order`, `w = width`): the first `w` rows are the (lower)
/// pivot block, the remaining rows follow `sym.sn_rows[s]`. All panels live
/// in a single contiguous slab (`panels` indexed through `panel_ptr`), so a
/// factorization performs one allocation instead of one per supernode and
/// `refactorize` can overwrite the slab in place.
#[derive(Debug, Clone)]
pub struct Factor {
    /// Symbolic analysis this factor was computed under (shared: the SMP
    /// engine and repeated numeric refactorizations reuse it).
    pub sym: Arc<Symbolic>,
    /// LLᵀ or LDLᵀ.
    pub kind: FactorKind,
    /// Slab of all factor panels, concatenated in supernode order.
    pub panels: Vec<f64>,
    /// Panel `s` occupies `panels[panel_ptr[s]..panel_ptr[s + 1]]`.
    pub panel_ptr: Vec<usize>,
    /// LDLᵀ pivots (length n; empty for LLᵀ).
    pub d: Vec<f64>,
    /// Total permutation (fill-reducing ∘ postorder), `new → old`.
    pub perm: Perm,
}

impl Factor {
    /// Allocate a zeroed factor with the slab layout implied by `sym`.
    /// Engines fill it in via [`Factor::panel_mut`] (and `d` for LDLᵀ).
    pub fn allocate(sym: &Arc<Symbolic>, kind: FactorKind, perm: Perm) -> Factor {
        let nsuper = sym.nsuper();
        let mut panel_ptr = Vec::with_capacity(nsuper + 1);
        panel_ptr.push(0usize);
        let mut total = 0usize;
        for s in 0..nsuper {
            total += sym.front_order(s) * sym.sn_width(s);
            panel_ptr.push(total);
        }
        let d = match kind {
            FactorKind::Llt => Vec::new(),
            FactorKind::Ldlt => vec![0.0; sym.n],
        };
        Factor {
            sym: Arc::clone(sym),
            kind,
            panels: vec![0.0; total],
            panel_ptr,
            d,
            perm,
        }
    }

    /// The `f x w` column-major factor panel of supernode `s`.
    #[inline]
    pub fn panel(&self, s: usize) -> &[f64] {
        &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]]
    }

    /// Mutable view of supernode `s`'s panel.
    #[inline]
    pub fn panel_mut(&mut self, s: usize) -> &mut [f64] {
        &mut self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]]
    }

    /// Nonzeros stored in the factor (padding included).
    pub fn nnz(&self) -> usize {
        self.sym.factor_nnz()
    }

    /// Solve `A x = b` using the factor (applies the permutation, runs the
    /// forward/backward supernodal sweeps, un-permutes).
    ///
    /// **Panics** if `b.len() != n` — kept for ergonomic call sites; use
    /// [`Factor::try_solve_many`] with `nrhs = 1` for a checked variant.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.try_solve_many(b, 1).expect("Factor::solve")
    }

    /// Solve `A X = B` for multiple right-hand sides stored column-major in
    /// `b` (`n x nrhs`). Sweeps run per supernode across all columns, so the
    /// factor panels are traversed once regardless of `nrhs`. A `b` whose
    /// length is not `n * nrhs` is [`FactorError::DimensionMismatch`].
    pub fn try_solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, FactorError> {
        let n = self.sym.n;
        if b.len() != n * nrhs {
            return Err(FactorError::DimensionMismatch {
                expected: n * nrhs,
                got: b.len(),
            });
        }
        let mut x = sweep::permute_in(&self.perm, b, nrhs);
        self.solve_permuted(&mut x, nrhs);
        Ok(sweep::permute_out(&self.perm, &x, nrhs))
    }

    /// The blocked sweeps on an interleaved `n x nrhs` block in the
    /// permuted space (`x[i*nrhs + r]`), in postorder: [`Factor::sweep_up`]
    /// and [`Factor::sweep_down`] over every supernode, with one stack for
    /// the blocks below the pivot rows. One stack and one scratch block per
    /// solve, grown as needed; nothing is allocated per supernode.
    pub(crate) fn solve_permuted(&self, x: &mut [f64], nrhs: usize) {
        if nrhs == 0 {
            return;
        }
        let sw = Sweep::new(&self.sym, nrhs, self.kind == FactorKind::Ldlt);
        let (all, mut stack) = (0..self.sym.nsuper(), Vec::new());
        let tr = Collector::disabled();
        let mut rec = tr.local(0);
        self.sweep_up(&sw, all.clone(), x, &mut stack, &mut rec);
        sw.diag_scale(&self.d, x);
        self.sweep_down(&sw, all, x, &mut stack, &mut rec);
    }

    /// Forward steps (`L Y = B`) of the supernodes `sns`, in postorder, on
    /// their pivot rows `x` (the interleaved rows from `sn_ptr[sns.start]`
    /// on). The blocks below the pivot rows live on `stack`, like the
    /// factorization's update stack: a supernode's children's blocks are
    /// its top, in child order, and its own block is folded in a zeroed
    /// slot above them, then takes their place. A run that holds whole
    /// subtrees leaves the blocks of their roots pushed, in order. Each step
    /// is one `Phase::Solve` span on `rec`.
    pub(crate) fn sweep_up(
        &self,
        sw: &Sweep<'_>,
        sns: Range<usize>,
        x: &mut [f64],
        stack: &mut Vec<f64>,
        rec: &mut LocalRecorder<'_>,
    ) {
        let base = sw.pivot_rows(&sns).start;
        for s in sns {
            let tick = rec.start();
            let piv = sw.pivot_range(s);
            let (kbase, top) = (stack.len() - sw.children_len(s), stack.len());
            stack.resize(top + sw.below_len(s), 0.0);
            let (kids, ybelow) = stack[kbase..].split_at_mut(top - kbase);
            sw.up(
                s,
                self.panel(s),
                &mut x[piv.start - base..piv.end - base],
                ybelow,
                kids,
            );
            stack.copy_within(top.., kbase);
            stack.truncate(kbase + sw.below_len(s));
            rec.stop(tick, Phase::Solve, Some(s));
        }
    }

    /// Backward steps (`Lᵀ X = Y`) of the supernodes `sns`, in reverse
    /// postorder, on their pivot rows `x`: the inverse of
    /// [`Factor::sweep_up`]. A supernode's block moves off the top of
    /// `stack` and its children's go on, the last child's (the next
    /// supernode's) on top.
    pub(crate) fn sweep_down(
        &self,
        sw: &Sweep<'_>,
        sns: Range<usize>,
        x: &mut [f64],
        stack: &mut Vec<f64>,
        rec: &mut LocalRecorder<'_>,
    ) {
        let base = sw.pivot_rows(&sns).start;
        let mut xb = Vec::new();
        for s in sns.rev() {
            let tick = rec.start();
            let piv = sw.pivot_range(s);
            xb.clear();
            xb.extend(stack.drain(stack.len() - sw.below_len(s)..));
            sw.down(
                s,
                self.panel(s),
                &mut x[piv.start - base..piv.end - base],
                &xb,
                stack,
            );
            rec.stop(tick, Phase::Solve, Some(s));
        }
    }

    /// Log-determinant of `A` (`2 Σ log L(j,j)` for LLᵀ, `Σ log |d_j|`
    /// plus the sign for LDLᵀ). Returns `(log |det A|, sign)`.
    pub fn log_det(&self) -> (f64, f64) {
        match self.kind {
            FactorKind::Llt => {
                let mut acc = 0.0;
                for s in 0..self.sym.nsuper() {
                    let (c0, c1) = (self.sym.sn_ptr[s], self.sym.sn_ptr[s + 1]);
                    let f = self.sym.front_order(s);
                    for j in 0..c1 - c0 {
                        acc += self.panel(s)[j * f + j].ln();
                    }
                }
                (2.0 * acc, 1.0)
            }
            FactorKind::Ldlt => {
                let mut acc = 0.0;
                let mut sign = 1.0;
                for &dj in &self.d {
                    acc += dj.abs().ln();
                    if dj < 0.0 {
                        sign = -sign;
                    }
                }
                (acc, sign)
            }
        }
    }

    /// Reconstruct the factor as an explicit sparse lower-triangular matrix
    /// in the permuted index space (validation/debug; includes padding
    /// zeros as explicit entries).
    pub fn to_sparse_l(&self) -> CscMatrix {
        let sym = &self.sym;
        let n = sym.n;
        let mut colptr = vec![0usize; n + 1];
        let mut rowind = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for s in 0..sym.nsuper() {
            let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
            let w = c1 - c0;
            let f = sym.front_order(s);
            let blk = self.panel(s);
            for j in 0..w {
                let c = c0 + j;
                // Pivot-block part (rows j..w map to c0+j..c1).
                for i in j..w {
                    rowind.push(c0 + i);
                    vals.push(blk[j * f + i]);
                }
                for (k, &r) in sym.sn_rows[s].iter().enumerate() {
                    rowind.push(r);
                    vals.push(blk[j * f + w + k]);
                }
                colptr[c + 1] = rowind.len();
            }
        }
        CscMatrix::from_parts(n, n, colptr, rowind, vals)
    }

    /// Max `|L(i,j)|` difference against another factor with the identical
    /// symbolic structure (cross-engine equivalence checks).
    pub fn max_abs_diff(&self, other: &Factor) -> f64 {
        assert_eq!(self.sym.sn_ptr, other.sym.sn_ptr);
        assert_eq!(self.panels.len(), other.panels.len());
        let mut m: f64 = 0.0;
        for (x, y) in self.panels.iter().zip(&other.panels) {
            m = m.max((x - y).abs());
        }
        for (x, y) in self.d.iter().zip(&other.d) {
            m = m.max((x - y).abs());
        }
        m
    }
}

/// Raw-pointer view of a [`Factor`]'s output arrays for disjoint
/// cross-thread writes: SMP workers and simulated ranks write the slab in
/// place through it, each range by one thread; the scope join (of the
/// worker pool or the machine) publishes the writes.
pub(crate) struct FactorWriter<'a> {
    panels: *mut f64,
    panel_ptr: &'a [usize],
    d: *mut f64,
    d_len: usize,
}

// SAFETY: FactorWriter holds raw pointers into one Factor's slabs; the
// schedulers hand each range of them to exactly one thread, and the scope
// join publishes the writes before the Factor is read again.
unsafe impl Send for FactorWriter<'_> {}
// SAFETY: see Send above — shared access is only through `panel_mut` /
// `d_mut`, whose contracts require a unique writer per disjoint range.
unsafe impl Sync for FactorWriter<'_> {}

impl<'a> FactorWriter<'a> {
    pub(crate) fn new(factor: &'a mut Factor) -> Self {
        FactorWriter {
            panels: factor.panels.as_mut_ptr(),
            panel_ptr: &factor.panel_ptr,
            d: factor.d.as_mut_ptr(),
            d_len: factor.d.len(),
        }
    }

    /// Entries `part` of panel `s`.
    ///
    /// # Safety
    /// The caller must be the unique writer of those entries while the
    /// returned slice lives.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn panel_mut(&self, s: usize, part: Range<usize>) -> &mut [f64] {
        let p0 = self.panel_ptr[s];
        assert!(part.start <= part.end && p0 + part.end <= self.panel_ptr[s + 1]);
        // SAFETY: the assert keeps `part` inside panel `s`, whose bounds
        // come from the Factor this writer was built over; uniqueness of
        // the `&mut` is the caller's contract (see `# Safety`).
        unsafe { std::slice::from_raw_parts_mut(self.panels.add(p0 + part.start), part.len()) }
    }

    /// # Safety
    /// The caller must be the unique writer of `d[c0..c0+w]` while the
    /// returned slice lives.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn d_mut(&self, c0: usize, w: usize) -> &mut [f64] {
        debug_assert!(c0 + w <= self.d_len);
        // SAFETY: `c0 + w <= d_len` keeps the slice in-bounds (supernode
        // column ranges never overlap); uniqueness of the `&mut` is the
        // caller's contract (see `# Safety`).
        unsafe { std::slice::from_raw_parts_mut(self.d.add(c0), w) }
    }
}

/// Validate that a factor reproduces `P A Pᵀ` (test helper used across the
/// workspace): returns the max abs entry of `L Lᵀ − P A Pᵀ` (or the LDLᵀ
/// equivalent) over the lower triangle.
pub fn reconstruction_error(factor: &Factor, ap: &CscMatrix) -> f64 {
    let n = factor.sym.n;
    let l = factor.to_sparse_l();
    // Dense reconstruction — test sizes only.
    assert!(
        n <= 3000,
        "reconstruction_error is a small-matrix test helper"
    );
    let ld = l.to_dense_colmajor();
    let mut rec = vec![0.0; n * n];
    match factor.kind {
        FactorKind::Llt => {
            for j in 0..n {
                for k in 0..=j {
                    let ljk = ld[k * n + j];
                    if ljk == 0.0 {
                        continue;
                    }
                    for i in j..n {
                        rec[j * n + i] += ld[k * n + i] * ljk;
                    }
                }
            }
        }
        FactorKind::Ldlt => {
            for j in 0..n {
                for k in 0..=j {
                    let lik_base = k * n;
                    let ljk = if j == k { 1.0 } else { ld[lik_base + j] };
                    let w = ljk * factor.d[k];
                    if w == 0.0 {
                        continue;
                    }
                    for i in j..n {
                        let lik = if i == k { 1.0 } else { ld[lik_base + i] };
                        rec[j * n + i] += lik * w;
                    }
                }
            }
        }
    }
    let ad = ap.to_dense_colmajor();
    let mut err: f64 = 0.0;
    for j in 0..n {
        for i in j..n {
            err = err.max((rec[j * n + i] - ad[j * n + i]).abs());
        }
    }
    err
}
