//! The one supernode solve step, shared by the three solve paths.
//!
//! What [`crate::frontal::factor_front`] is to the factorization, this
//! module is to the triangular sweeps: the per-supernode arithmetic and the
//! row bookkeeping around it, on **interleaved** blocks (`v[i*nrhs + r]`:
//! row `i`'s `nrhs` values are contiguous, so a supernode's pivot rows are
//! one slice of the whole block). A supernode's step is [`Sweep::up`] on
//! the way to the roots and [`Sweep::down`] on the way back; the solve paths
//! only schedule them and move the blocks in between:
//!
//! - [`crate::factor`] walks the supernodes in postorder and keeps the
//!   blocks on a stack, like the factorization's update stack;
//! - [`crate::smp_solve`] walks the tree with the [`crate::tree_pool`] and
//!   hands the blocks from task to task;
//! - [`crate::dist::solve`] runs each step on the supernode's leader rank
//!   and ships the same blocks as messages.
//!
//! Every path folds a child's block into the parent's front
//! ([`Sweep::fold_child`]) and cuts it back out ([`Sweep::cut_child`]) in
//! the order of `tree.children`, so the sequential, SMP (any thread count)
//! and distributed (any rank count) solutions are bit-equal.

use parfact_dense::solve as dsolve;
use parfact_sparse::perm::Perm;
use parfact_symbolic::Symbolic;
use std::ops::Range;

/// The solve step of every supernode of `sym`, for `nrhs` right-hand sides
/// and a unit (`LDLᵀ`) or non-unit (`LLᵀ`) lower factor.
pub(crate) struct Sweep<'a> {
    sym: &'a Symbolic,
    nrhs: usize,
    unit: bool,
}

impl<'a> Sweep<'a> {
    pub(crate) fn new(sym: &'a Symbolic, nrhs: usize, unit: bool) -> Self {
        Sweep { sym, nrhs, unit }
    }

    /// Where the pivot rows of supernode `s` sit in an interleaved
    /// `n x nrhs` block.
    pub(crate) fn pivot_range(&self, s: usize) -> Range<usize> {
        self.sym.sn_ptr[s] * self.nrhs..self.sym.sn_ptr[s + 1] * self.nrhs
    }

    /// Length of the below-pivot block of supernode `s`.
    pub(crate) fn below_len(&self, s: usize) -> usize {
        self.sym.sn_rows[s].len() * self.nrhs
    }

    /// `LDLᵀ` diagonal solve between the sweeps: row `i` of `v` over `d[i]`
    /// (`d` is empty for `LLᵀ`).
    pub(crate) fn diag_scale(&self, d: &[f64], v: &mut [f64]) {
        for (i, &di) in d.iter().enumerate() {
            for x in &mut v[i * self.nrhs..(i + 1) * self.nrhs] {
                *x /= di;
            }
        }
    }

    /// Length of the blocks of all children of `s` together.
    pub(crate) fn children_len(&self, s: usize) -> usize {
        let kids = &self.sym.tree.children[s];
        kids.iter().map(|&c| self.below_len(c)).sum()
    }

    /// Forward step of supernode `s` with its `f x w` panel: fold the
    /// children's blocks (`kids`, back to back in `tree.children` order)
    /// into `ypiv` and the zeroed `ybelow`, then `ypiv <- L11^-1 ypiv`,
    /// `ybelow -= L21 ypiv`.
    pub(crate) fn up(
        &self,
        s: usize,
        panel: &[f64],
        ypiv: &mut [f64],
        ybelow: &mut [f64],
        mut kids: &[f64],
    ) {
        for &c in &self.sym.tree.children[s] {
            let (blk, rest) = kids.split_at(self.below_len(c));
            self.fold_child(s, c, blk, ypiv, ybelow);
            kids = rest;
        }
        let (w, f) = (self.sym.sn_width(s), self.sym.front_order(s));
        dsolve::trsm_ln_rm(w, self.nrhs, panel, f, ypiv, self.unit);
        if f > w {
            dsolve::gemm_block_sub_rm(f - w, w, self.nrhs, &panel[w..], f, ypiv, ybelow);
        }
    }

    /// Backward step: `xpiv -= L21' xbelow`, `xpiv <- L11^-T xpiv`, then
    /// the children's x-below blocks appended to `kids`, in
    /// `tree.children` order.
    pub(crate) fn down(
        &self,
        s: usize,
        panel: &[f64],
        xpiv: &mut [f64],
        xbelow: &[f64],
        kids: &mut Vec<f64>,
    ) {
        let (w, f) = (self.sym.sn_width(s), self.sym.front_order(s));
        if f > w {
            dsolve::gemm_block_t_sub_rm(f - w, w, self.nrhs, &panel[w..], f, xbelow, xpiv);
        }
        dsolve::trsm_lt_rm(w, self.nrhs, panel, f, xpiv, self.unit);
        for &c in &self.sym.tree.children[s] {
            self.cut_child(s, c, xpiv, xbelow, kids);
        }
    }

    /// Add child `c`'s forward contribution block into the front of `s`: the
    /// block's row `k` goes to front position `sn_rel[c][k]`, a pivot row of
    /// `s` below `w` and a below row of `s` from `w` on.
    fn fold_child(&self, s: usize, c: usize, blk: &[f64], ypiv: &mut [f64], ybelow: &mut [f64]) {
        let (nrhs, w) = (self.nrhs, self.sym.sn_width(s));
        for (k, &pos) in self.sym.sn_rel[c].iter().enumerate() {
            let pos = pos as usize;
            let dst = match pos.checked_sub(w) {
                None => &mut ypiv[pos * nrhs..(pos + 1) * nrhs],
                Some(q) => &mut ybelow[q * nrhs..(q + 1) * nrhs],
            };
            for (d, v) in dst.iter_mut().zip(&blk[k * nrhs..(k + 1) * nrhs]) {
                *d += v;
            }
        }
    }

    /// Append the solved x at child `c`'s below-pivot rows, cut out of the
    /// front of `s`, to the caller's `out`.
    fn cut_child(&self, s: usize, c: usize, xpiv: &[f64], xbelow: &[f64], out: &mut Vec<f64>) {
        let (nrhs, w) = (self.nrhs, self.sym.sn_width(s));
        for &pos in &self.sym.sn_rel[c] {
            let pos = pos as usize;
            out.extend_from_slice(match pos.checked_sub(w) {
                None => &xpiv[pos * nrhs..(pos + 1) * nrhs],
                Some(q) => &xbelow[q * nrhs..(q + 1) * nrhs],
            });
        }
    }
}

/// Permute and interleave in one pass: the `n x nrhs` column-major block
/// `b` in the original index space becomes `v[new*nrhs + r]`. The walk
/// goes down the original rows, so `b` is read as `nrhs` sequential
/// streams and each write fills one whole interleaved row of `v`.
pub(crate) fn permute_in(perm: &Perm, b: &[f64], nrhs: usize) -> Vec<f64> {
    let n = perm.len();
    let mut v = vec![0.0f64; n * nrhs];
    for (old, &new) in perm.inv().iter().enumerate() {
        for (r, x) in v[new * nrhs..(new + 1) * nrhs].iter_mut().enumerate() {
            *x = b[r * n + old];
        }
    }
    v
}

/// Inverse of [`permute_in`]: de-interleave and un-permute in one pass,
/// reading whole interleaved rows and writing `nrhs` sequential streams.
pub(crate) fn permute_out(perm: &Perm, v: &[f64], nrhs: usize) -> Vec<f64> {
    let n = perm.len();
    let mut out = vec![0.0f64; n * nrhs];
    for (old, &new) in perm.inv().iter().enumerate() {
        for (r, &x) in v[new * nrhs..(new + 1) * nrhs].iter().enumerate() {
            out[r * n + old] = x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    #[test]
    fn permute_in_and_out_are_per_column_apply_vec_and_inverse() {
        let perm = Perm::from_vec(vec![2, 0, 3, 1]);
        let (n, nrhs) = (4, 3);
        let b: Vec<f64> = (0..n * nrhs).map(|i| i as f64).collect();
        let v = permute_in(&perm, &b, nrhs);
        for r in 0..nrhs {
            let col = perm.apply_vec(&b[r * n..(r + 1) * n]);
            for i in 0..n {
                assert_eq!(v[i * nrhs + r], col[i]);
            }
        }
        assert_eq!(permute_out(&perm, &v, nrhs), b);
        assert!(permute_in(&perm, &[], 0).is_empty());
    }

    #[test]
    fn cut_child_reads_the_rows_fold_child_writes() {
        // Folding a child block of ones into a zero front and cutting the
        // child's rows back out returns the ones; every other row stays 0.
        let a = gen::laplace2d(9, 9, gen::Stencil2d::FivePoint);
        let (sym, _) = analyze(&a, &AmalgOpts::default());
        let nrhs = 2;
        let sw = Sweep::new(&sym, nrhs, false);
        let mut checked = 0;
        for s in 0..sym.nsuper() {
            for &c in &sym.tree.children[s] {
                let ones = vec![1.0; sw.below_len(c)];
                let mut piv = vec![0.0; sw.pivot_range(s).len()];
                let mut below = vec![0.0; sw.below_len(s)];
                sw.fold_child(s, c, &ones, &mut piv, &mut below);
                let mut cut = Vec::new();
                sw.cut_child(s, c, &piv, &below, &mut cut);
                assert_eq!(cut, ones);
                let touched: f64 = piv.iter().chain(&below).sum();
                assert_eq!(touched, ones.len() as f64);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
