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
use parfact_sparse::perm::Perm;
use parfact_symbolic::Symbolic;
use parfact_trace::{Collector, LocalRecorder, Phase};
use std::cmp::max_by;
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
    /// Engines overwrite its slab (and `d` for LDLᵀ) in place, each
    /// front's panel where the run plan deals it.
    /// The slab is a fresh mapping of its own on transparent huge pages
    /// where the kernel has them (`workspace::zeroed`), so a cold
    /// factorization faults it in 2 MiB at a time, not 4 KiB.
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
            panels: crate::workspace::zeroed(total),
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

    /// Max `|L(i,j)|` difference against another factor with the identical
    /// symbolic structure (cross-engine equivalence checks); NaN where a
    /// difference is (a NaN in either factor, or one infinity in both).
    pub fn max_abs_diff(&self, other: &Factor) -> f64 {
        assert_eq!(self.sym.sn_ptr, other.sym.sn_ptr);
        assert_eq!(self.panels.len(), other.panels.len());
        let panels = self.panels.iter().zip(&other.panels);
        let pivots = self.d.iter().zip(&other.d);
        // `f64::max` drops a NaN; in `total_cmp` order a NaN `abs` tops all.
        let diffs = panels.chain(pivots).map(|(x, y)| (x - y).abs());
        diffs.fold(0.0, |m, d| max_by(m, d, f64::total_cmp))
    }
}

/// Validate that a factor reproduces `P A Pᵀ` (the unit tests' check):
/// returns the max abs entry of `L Lᵀ − P A Pᵀ` (or the LDLᵀ equivalent)
/// over the lower triangle.
#[cfg(test)]
pub(crate) fn reconstruction_error(factor: &Factor, ap: &parfact_sparse::csc::CscMatrix) -> f64 {
    let sym = &factor.sym;
    let n = sym.n;
    // Dense reconstruction — test sizes only.
    assert!(
        n <= 3000,
        "reconstruction_error is a small-matrix test helper"
    );
    let mut ld = vec![0.0; n * n];
    for s in 0..sym.nsuper() {
        let (c0, w, f) = (sym.sn_ptr[s], sym.sn_width(s), sym.front_order(s));
        let rows: Vec<usize> = (c0..c0 + w).chain(sym.sn_rows[s].iter().copied()).collect();
        let panel = factor.panel(s);
        for j in 0..w {
            for (i, &r) in rows.iter().enumerate().skip(j) {
                ld[(c0 + j) * n + r] = panel[j * f + i];
            }
        }
    }
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
    let mut ad = vec![0.0; n * n];
    for c in 0..n {
        let (rows, vals) = ap.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            ad[c * n + r] = v;
        }
    }
    let mut err: f64 = 0.0;
    for j in 0..n {
        for i in j..n {
            err = max_by(err, (rec[j * n + i] - ad[j * n + i]).abs(), f64::total_cmp);
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::csc::CscMatrix;
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    fn grid_factor() -> (Factor, CscMatrix) {
        let a = gen::laplace2d(6, 5, gen::Stencil2d::FivePoint);
        let (sym, ap) = analyze(&a, &AmalgOpts::default());
        let perm = sym.post.clone();
        let f = crate::seq::factorize_seq(&ap, &Arc::new(sym), FactorKind::Llt, perm);
        (f.unwrap(), ap)
    }

    #[test]
    fn max_abs_diff_sees_a_nan_entry() {
        let (f, _) = grid_factor();
        let mut g = f.clone();
        assert_eq!(f.max_abs_diff(&g), 0.0);
        // A NaN after a larger difference, then before one: both orders.
        g.panels[0] += 1.0;
        g.panels[1] = f64::NAN;
        assert!(f.max_abs_diff(&g).is_nan());
        assert!(g.max_abs_diff(&f).is_nan());
        g.panels[2] += 2.0;
        assert!(f.max_abs_diff(&g).is_nan());
    }

    #[test]
    fn reconstruction_error_sees_a_nan_entry() {
        let (mut f, ap) = grid_factor();
        assert!(reconstruction_error(&f, &ap) < 1e-12);
        let last = f.panels.len() - 1;
        f.panels[last] = f64::NAN;
        assert!(reconstruction_error(&f, &ap).is_nan());
    }
}
