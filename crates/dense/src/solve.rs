//! Batched (multi-right-hand-side) triangular-solve kernels.
//!
//! The solve phase streams every factor panel once and applies it to all
//! `nrhs` right-hand sides, so the per-panel work has the BLAS-3 shape
//! `TRSM` + `GEMM` instead of `nrhs` scalar `trsv`/`gemv` sweeps.
//!
//! ## Bitwise contract
//!
//! Every kernel here processes each right-hand-side column with a
//! floating-point operation order that is *identical* for every column and
//! *independent of `nrhs`* (the block shape only amortizes panel loads:
//! each loaded `L` column is applied to several RHS columns before moving
//! on). Consequently a blocked solve over `nrhs` columns is bitwise equal
//! to `nrhs` independent single-column solves — the property the solver's
//! cross-`nrhs` determinism tests pin down.
//!
//! ## One layout
//!
//! A block holds row `i`'s `nrhs` values contiguously at `b[i*nrhs..]`
//! (*interleaved*; a single column is already in this form). SIMD then runs
//! *across* RHS columns while each column keeps a fixed op order —
//! reductions over `i` stay per-lane and are never reassociated — and a
//! supernode's pivot rows are one contiguous slice of the whole block.
//! Every solve path (sequential, SMP, distributed) runs these four kernels
//! through the one supernode step in `parfact_core`, so any two of them
//! that fold the same inputs in the same order agree bit for bit. The
//! per-column [`crate::trsv`] sweeps order the updates differently (pure
//! column sweeps vs 4-column panels); they are the independent reference
//! the tests below hold this family against, to rounding.
//!
//! ## Instruction sets
//!
//! Like the packed `gemm` tile ([`crate::pack`]), the four kernels are
//! compiled once per instruction set — 8 lanes per `zmm` vector with
//! AVX-512, 4 per `ymm` vector with AVX, 4 lanes left to the
//! auto-vectorizer elsewhere — and CPU detection picks the copy on every
//! call; there is no option, environment variable or cargo feature. Each
//! copy is the same generic body ([`Kernel::run`]) over fixed-width lane
//! chunks. With `nrhs >= 2` the lanes are RHS columns: whole vectors, then
//! the remainder in chunks of 4, 2 and 1 lanes through the same body. With
//! `nrhs = 1` the forward update runs its lanes down the rows instead, each
//! row keeping its own ascending-`j` chain; the dot products of the
//! backward update have nothing to run across and stay one lane wide.
//! **The lane width is a property of the instruction set; the chain is
//! not**: every lane performs the scalar chain documented on each kernel,
//! as separate multiply and add or subtract — never FMA, which rounds once
//! and would fork the bits by host (lint R4) — in the same [`COL_UNROLL`]
//! panels, so AVX-512, AVX and portable hosts produce the same solution
//! bits.

use crate::pack::{self, Isa};

/// How many `L21` columns the micro-kernels chain per row visit. Chained
/// updates stay in ascending-`j` order per RHS column (subtraction is not
/// reassociated), so the bitwise contract holds; the payoff is that each
/// `Y` element is loaded and stored once per group of four `L` columns
/// instead of once per column. [`trsm_lt_rm`]'s bits depend on this width:
/// inside a panel it subtracts term by term, across panels it subtracts
/// accumulated dot products.
const COL_UNROLL: usize = 4;

/// Forward apply, interleaved layout: `Y <- Y - L21 * X` where `X` holds
/// `k` rows of `nrhs` contiguous lane values (`x[j*nrhs + r]`) and `Y`
/// holds `m` such rows. Per lane the update order is: 4-column panels in
/// ascending `j`, chained in ascending column order per row visit, then
/// tail columns one at a time — fixed and independent of `nrhs`.
pub fn gemm_block_sub_rm(
    m: usize,
    k: usize,
    nrhs: usize,
    l21: &[f64],
    ldl: usize,
    x: &[f64],
    y: &mut [f64],
) {
    debug_assert!(ldl >= m.max(1) && x.len() >= k * nrhs && y.len() >= m * nrhs);
    let a = Apply {
        m,
        k,
        nrhs,
        l21,
        ldl,
    };
    Kernel::Sub(a, x, y).run_on(pack::isa());
}

/// Backward apply, interleaved layout: `X <- X - L21' * Y` (shapes as in
/// [`gemm_block_sub_rm`]). Per lane each dot product accumulates from zero
/// with `i` ascending and is subtracted once — the order is fixed and
/// independent of `nrhs` (lane grouping never touches a lane's own chain).
pub fn gemm_block_t_sub_rm(
    m: usize,
    k: usize,
    nrhs: usize,
    l21: &[f64],
    ldl: usize,
    y: &[f64],
    x: &mut [f64],
) {
    debug_assert!(ldl >= m.max(1) && y.len() >= m * nrhs && x.len() >= k * nrhs);
    let a = Apply {
        m,
        k,
        nrhs,
        l21,
        ldl,
    };
    Kernel::SubT(a, y, x).run_on(pack::isa());
}

/// Solve `L X = B` in place, interleaved layout (`b[i*nrhs + r]`). The
/// triangle is processed in 4-column panels: solve the small diagonal
/// block, then rank-4-update the rows below through
/// [`gemm_block_sub_rm`]. Per lane the order is fixed and independent of
/// `nrhs`; there is no zero-skip (unlike the scalar [`crate::trsv::trsv_ln`]).
pub fn trsm_ln_rm(n: usize, nrhs: usize, l: &[f64], ldl: usize, b: &mut [f64], unit: bool) {
    debug_assert!(ldl >= n.max(1) && b.len() >= n * nrhs);
    let t = Tri {
        n,
        nrhs,
        l,
        ldl,
        unit,
    };
    Kernel::Ln(t, b).run_on(pack::isa());
}

/// Solve `L' X = B` in place, interleaved layout. Mirrors [`trsm_ln_rm`]:
/// tail columns first (descending), then 4-column panels descending, each
/// taking the below-panel contribution through [`gemm_block_t_sub_rm`]
/// before the small intra-panel sweep. Per lane the order is fixed and
/// independent of `nrhs`.
pub fn trsm_lt_rm(n: usize, nrhs: usize, l: &[f64], ldl: usize, b: &mut [f64], unit: bool) {
    debug_assert!(ldl >= n.max(1) && b.len() >= n * nrhs);
    let t = Tri {
        n,
        nrhs,
        l,
        ldl,
        unit,
    };
    Kernel::Lt(t, b).run_on(pack::isa());
}

/// The `m x k` block `L21` (column-major, leading dimension `ldl`) a
/// rectangular apply multiplies `nrhs` lanes by.
#[derive(Clone, Copy)]
struct Apply<'a> {
    m: usize,
    k: usize,
    nrhs: usize,
    l21: &'a [f64],
    ldl: usize,
}

impl<'a> Apply<'a> {
    /// Columns `j..j + C` of `L21`.
    #[inline(always)]
    fn cols<const C: usize>(&self, j: usize) -> [&'a [f64]; C] {
        let mut cols = [&self.l21[..0]; C];
        for (q, c) in cols.iter_mut().enumerate() {
            *c = &self.l21[(j + q) * self.ldl..][..self.m];
        }
        cols
    }
}

/// The `n x n` lower triangle a triangular solve runs against.
#[derive(Clone, Copy)]
struct Tri<'a> {
    n: usize,
    nrhs: usize,
    l: &'a [f64],
    ldl: usize,
    unit: bool,
}

impl<'a> Tri<'a> {
    /// The rows below the panel of columns `jp..jp + c`: the `L21` of
    /// that panel.
    #[inline(always)]
    fn below(&self, jp: usize, c: usize) -> Apply<'a> {
        Apply {
            m: self.n - jp - c,
            k: c,
            nrhs: self.nrhs,
            l21: &self.l[jp * self.ldl + jp + c..],
            ldl: self.ldl,
        }
    }
}

/// One call of a kernel of this module, so that a single dispatcher
/// enters the copy compiled for the host's instruction set.
enum Kernel<'a> {
    /// [`gemm_block_sub_rm`]: `L21`, then `X`, then the updated `Y`.
    Sub(Apply<'a>, &'a [f64], &'a mut [f64]),
    /// [`gemm_block_t_sub_rm`]: `L21`, then `Y`, then the updated `X`.
    SubT(Apply<'a>, &'a [f64], &'a mut [f64]),
    /// [`trsm_ln_rm`] on the block.
    Ln(Tri<'a>, &'a mut [f64]),
    /// [`trsm_lt_rm`] on the block.
    Lt(Tri<'a>, &'a mut [f64]),
}

impl Kernel<'_> {
    /// Run on the instruction set `isa`, which the host must support
    /// ([`pack::isa`] returns the widest such).
    fn run_on(self, isa: Isa) {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn avx512(k: Kernel<'_>) {
            k.run::<8>()
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx")]
        fn avx(k: Kernel<'_>) {
            k.run::<4>()
        }
        debug_assert!(isa <= pack::isa());
        match isa {
            // SAFETY: the caller only names instruction sets the host has.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { avx512(self) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { avx(self) },
            _ => self.run::<4>(),
        }
    }

    /// The one body of every copy, `L` lanes to the vector. Inlined into
    /// each entry point so that everything below is compiled at its width.
    #[inline(always)]
    fn run<const L: usize>(self) {
        match self {
            Kernel::Sub(a, x, y) => sub::<L>(a, x, y),
            Kernel::SubT(a, y, x) => sub_t::<L>(a, y, x),
            Kernel::Ln(t, b) => trsm_ln::<L>(t, b),
            Kernel::Lt(t, b) => trsm_lt::<L>(t, b),
        }
    }
}

/// A kernel's work on the `W` lanes from lane `g` on.
trait Lanes {
    fn chunk<const W: usize>(&mut self, g: usize);
}

/// Run `op` over the lanes `0..n`: whole `L`-lane vectors, then what is
/// left in chunks of 4, 2 and 1 lanes — the same body at every width.
#[inline(always)]
fn for_chunks<const L: usize>(n: usize, op: &mut impl Lanes) {
    let mut g = 0;
    while g + L <= n {
        op.chunk::<L>(g);
        g += L;
    }
    if g + 4 <= n {
        op.chunk::<4>(g);
        g += 4;
    }
    if g + 2 <= n {
        op.chunk::<2>(g);
        g += 2;
    }
    if g < n {
        op.chunk::<1>(g);
    }
}

/// The `W` values at the front of `s`, as a register array.
#[inline(always)]
fn lanes<const W: usize>(s: &[f64]) -> [f64; W] {
    s[..W].try_into().expect("W lanes")
}

/// [`gemm_block_sub_rm`] at `L` lanes: `COL_UNROLL`-column panels in
/// ascending `j`, then the tail columns one at a time.
#[inline(always)]
fn sub<const L: usize>(a: Apply<'_>, x: &[f64], y: &mut [f64]) {
    let mut j = 0;
    while j + COL_UNROLL <= a.k {
        sub_panel::<L, COL_UNROLL>(a, j, x, y);
        j += COL_UNROLL;
    }
    for j in j..a.k {
        sub_panel::<L, 1>(a, j, x, y);
    }
}

/// `Y -= L21[:, j..j+C] X[j..j+C, :]`, chained in ascending column order
/// per element: across RHS columns, or down the rows for a single one.
#[inline(always)]
fn sub_panel<const L: usize, const C: usize>(a: Apply<'_>, j: usize, x: &[f64], y: &mut [f64]) {
    let (cols, nrhs) = (a.cols::<C>(j), a.nrhs);
    let y = &mut y[..a.m * nrhs];
    if nrhs == 1 {
        let mut xs = [0.0; C];
        xs.copy_from_slice(&x[j..j + C]);
        for_chunks::<L>(a.m, &mut SubRows { cols, xs, y });
    } else {
        let x = &x[j * nrhs..(j + C) * nrhs];
        for_chunks::<L>(nrhs, &mut SubCols { cols, x, y, nrhs });
    }
}

/// One forward panel with the lanes across RHS columns: the panel's `X`
/// rows stay in registers while the `Y` rows stream past.
struct SubCols<'a, const C: usize> {
    cols: [&'a [f64]; C],
    x: &'a [f64],
    y: &'a mut [f64],
    nrhs: usize,
}

impl<const C: usize> Lanes for SubCols<'_, C> {
    #[inline(always)]
    fn chunk<const W: usize>(&mut self, g: usize) {
        let mut xs = [[0.0; W]; C];
        for (xq, row) in xs.iter_mut().zip(self.x.chunks_exact(self.nrhs)) {
            *xq = lanes(&row[g..]);
        }
        let rows = self.y.chunks_exact_mut(self.nrhs);
        let mut cols = self.cols;
        for c in &mut cols {
            *c = &c[..rows.len()];
        }
        for (i, yi) in rows.enumerate() {
            let yi = &mut yi[g..g + W];
            let mut v: [f64; W] = lanes(yi);
            for q in 0..C {
                let lv = cols[q][i];
                for t in 0..W {
                    v[t] -= lv * xs[q][t];
                }
            }
            yi.copy_from_slice(&v);
        }
    }
}

/// One forward panel of a single right-hand side, the lanes down the rows:
/// row `i` keeps its own chain over the panel's columns.
struct SubRows<'a, const C: usize> {
    cols: [&'a [f64]; C],
    xs: [f64; C],
    y: &'a mut [f64],
}

impl<const C: usize> Lanes for SubRows<'_, C> {
    #[inline(always)]
    fn chunk<const W: usize>(&mut self, i0: usize) {
        let yi = &mut self.y[i0..i0 + W];
        let mut v: [f64; W] = lanes(yi);
        for q in 0..C {
            let lv: [f64; W] = lanes(&self.cols[q][i0..]);
            for t in 0..W {
                v[t] -= lv[t] * self.xs[q];
            }
        }
        yi.copy_from_slice(&v);
    }
}

/// [`gemm_block_t_sub_rm`] at `L` lanes, panels as in [`sub`].
#[inline(always)]
fn sub_t<const L: usize>(a: Apply<'_>, y: &[f64], x: &mut [f64]) {
    let mut j = 0;
    while j + COL_UNROLL <= a.k {
        sub_t_panel::<L, COL_UNROLL>(a, j, y, x);
        j += COL_UNROLL;
    }
    for j in j..a.k {
        sub_t_panel::<L, 1>(a, j, y, x);
    }
}

/// `X[j..j+C, :] -= L21[:, j..j+C]' Y`: per element a dot product from
/// zero, `i` ascending, subtracted once.
#[inline(always)]
fn sub_t_panel<const L: usize, const C: usize>(a: Apply<'_>, j: usize, y: &[f64], x: &mut [f64]) {
    let (cols, nrhs) = (a.cols::<C>(j), a.nrhs);
    let xs = &mut x[j * nrhs..(j + C) * nrhs];
    let y = &y[..a.m * nrhs];
    for_chunks::<L>(nrhs, &mut SubTCols { cols, y, xs, nrhs });
}

/// One backward panel: `C` accumulator vectors per lane chunk.
struct SubTCols<'a, const C: usize> {
    cols: [&'a [f64]; C],
    y: &'a [f64],
    xs: &'a mut [f64],
    nrhs: usize,
}

impl<const C: usize> Lanes for SubTCols<'_, C> {
    #[inline(always)]
    fn chunk<const W: usize>(&mut self, g: usize) {
        let mut acc = [[0.0f64; W]; C];
        let rows = self.y.chunks_exact(self.nrhs);
        let mut cols = self.cols;
        for c in &mut cols {
            *c = &c[..rows.len()];
        }
        for (i, yi) in rows.enumerate() {
            let v: [f64; W] = lanes(&yi[g..]);
            for q in 0..C {
                let lv = cols[q][i];
                for t in 0..W {
                    acc[q][t] += lv * v[t];
                }
            }
        }
        for (q, xq) in self.xs.chunks_exact_mut(self.nrhs).enumerate() {
            for t in 0..W {
                xq[g + t] -= acc[q][t];
            }
        }
    }
}

/// [`trsm_ln_rm`] at `L` lanes: per panel (the last one may be narrower)
/// the diagonal triangle, then the rows below through [`sub`].
#[inline(always)]
fn trsm_ln<const L: usize>(t: Tri<'_>, b: &mut [f64]) {
    let (n, nrhs) = (t.n, t.nrhs);
    for jp in (0..n).step_by(COL_UNROLL) {
        let c = COL_UNROLL.min(n - jp);
        for_chunks::<L>(
            nrhs,
            &mut TriLn {
                t,
                jp,
                c,
                b: &mut *b,
            },
        );
        if jp + c < n {
            let (x, y) = b.split_at_mut((jp + c) * nrhs);
            sub::<L>(t.below(jp, c), &x[jp * nrhs..], y);
        }
    }
}

/// The diagonal triangle of one forward panel, columns `jp..jp + c`:
/// divide row `jj` by its pivot, then subtract it from the rows below it
/// in the panel.
struct TriLn<'a> {
    t: Tri<'a>,
    jp: usize,
    c: usize,
    b: &'a mut [f64],
}

impl Lanes for TriLn<'_> {
    #[inline(always)]
    fn chunk<const W: usize>(&mut self, g: usize) {
        let Tri {
            nrhs, l, ldl, unit, ..
        } = self.t;
        for jj in self.jp..self.jp + self.c {
            let mut xj: [f64; W] = lanes(&self.b[jj * nrhs + g..]);
            if !unit {
                let d = l[jj * ldl + jj];
                for v in &mut xj {
                    *v /= d;
                }
                self.b[jj * nrhs + g..jj * nrhs + g + W].copy_from_slice(&xj);
            }
            for i in jj + 1..self.jp + self.c {
                let lv = l[jj * ldl + i];
                let yi = &mut self.b[i * nrhs + g..i * nrhs + g + W];
                for t in 0..W {
                    yi[t] -= lv * xj[t];
                }
            }
        }
    }
}

/// [`trsm_lt_rm`] at `L` lanes: the tail columns one at a time
/// (descending), each a dot product over everything below it, then the
/// panels descending — the rows below through [`sub_t`], then the
/// panel's own triangle term by term.
#[inline(always)]
fn trsm_lt<const L: usize>(t: Tri<'_>, b: &mut [f64]) {
    let (n, nrhs) = (t.n, t.nrhs);
    let tail_start = n - n % COL_UNROLL;
    let tail = (tail_start..n).rev().map(|jj| (jj, 1));
    let panels = (0..tail_start).step_by(COL_UNROLL).rev();
    for (jp, c) in tail.chain(panels.map(|jp| (jp, COL_UNROLL))) {
        // A tail column takes its dot product even with no row below it.
        if jp + c < n || c == 1 {
            let (x, y) = b.split_at_mut((jp + c) * nrhs);
            sub_t::<L>(t.below(jp, c), y, &mut x[jp * nrhs..]);
        }
        for_chunks::<L>(
            nrhs,
            &mut TriLt {
                t,
                jp,
                c,
                b: &mut *b,
            },
        );
    }
}

/// The diagonal triangle of one backward panel, columns `jp..jp + c`
/// descending: subtract the solved rows below `jj` in the panel one term
/// at a time, then divide by the pivot.
struct TriLt<'a> {
    t: Tri<'a>,
    jp: usize,
    c: usize,
    b: &'a mut [f64],
}

impl Lanes for TriLt<'_> {
    #[inline(always)]
    fn chunk<const W: usize>(&mut self, g: usize) {
        let Tri {
            nrhs, l, ldl, unit, ..
        } = self.t;
        for jj in (self.jp..self.jp + self.c).rev() {
            let mut v: [f64; W] = lanes(&self.b[jj * nrhs + g..]);
            for i in jj + 1..self.jp + self.c {
                let lv = l[jj * ldl + i];
                let xi: [f64; W] = lanes(&self.b[i * nrhs + g..]);
                for t in 0..W {
                    v[t] -= lv * xi[t];
                }
            }
            if !unit {
                let d = l[jj * ldl + jj];
                for x in &mut v {
                    *x /= d;
                }
            }
            self.b[jj * nrhs + g..jj * nrhs + g + W].copy_from_slice(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f64 / 1000.0 - 1.0
        }
    }

    /// Scalar single-column references with the exact op order the blocked
    /// kernels promise (no zero-skip, ascending loops).
    fn gemm_sub_ref(m: usize, k: usize, l21: &[f64], ldl: usize, x: &[f64], y: &mut [f64]) {
        for j in 0..k {
            let xj = x[j];
            for i in 0..m {
                y[i] -= l21[j * ldl + i] * xj;
            }
        }
    }

    fn gemm_t_sub_ref(m: usize, k: usize, l21: &[f64], ldl: usize, y: &[f64], x: &mut [f64]) {
        for j in 0..k {
            let mut acc = 0.0;
            for i in 0..m {
                acc += l21[j * ldl + i] * y[i];
            }
            x[j] -= acc;
        }
    }

    /// Extract lane `r` of an interleaved block into its own nrhs=1 block.
    fn lane(b: &[f64], rows: usize, nrhs: usize, r: usize) -> Vec<f64> {
        (0..rows).map(|i| b[i * nrhs + r]).collect()
    }

    #[test]
    fn block_applies_match_per_column_reference_bitwise() {
        let mut r = det_rng(7);
        for &(m, k, nrhs) in &[
            (1usize, 1usize, 1usize),
            (5, 3, 2),
            (8, 8, 4),
            (13, 6, 7),
            (9, 4, 32),
            (3, 11, 5),
        ] {
            let ldl = m + 2;
            let l21: Vec<f64> = (0..ldl * k).map(|_| r()).collect();
            let x: Vec<f64> = (0..k * nrhs).map(|_| r()).collect();
            let y: Vec<f64> = (0..m * nrhs).map(|_| r()).collect();

            let mut yb = y.clone();
            gemm_block_sub_rm(m, k, nrhs, &l21, ldl, &x, &mut yb);
            let mut xb = x.clone();
            gemm_block_t_sub_rm(m, k, nrhs, &l21, ldl, &y, &mut xb);
            for c in 0..nrhs {
                let mut yr = lane(&y, m, nrhs, c);
                gemm_sub_ref(m, k, &l21, ldl, &lane(&x, k, nrhs, c), &mut yr);
                for (a, b) in lane(&yb, m, nrhs, c).iter().zip(&yr) {
                    assert_eq!(a.to_bits(), b.to_bits(), "fwd m={m} k={k} nrhs={nrhs}");
                }
                let mut xr = lane(&x, k, nrhs, c);
                gemm_t_sub_ref(m, k, &l21, ldl, &lane(&y, m, nrhs, c), &mut xr);
                for (a, b) in lane(&xb, k, nrhs, c).iter().zip(&xr) {
                    assert_eq!(a.to_bits(), b.to_bits(), "bwd m={m} k={k} nrhs={nrhs}");
                }
            }
        }
    }

    #[test]
    fn interleaved_kernels_are_nrhs_independent_bitwise() {
        // The contract the solver relies on: for every kernel in the _rm
        // family, lane r of a blocked run equals a full nrhs=1 run of the
        // same kernel on that lane alone.
        let mut r = det_rng(23);
        for &(m, k, nrhs) in &[
            (1usize, 1usize, 1usize),
            (5, 3, 2),
            (8, 8, 4),
            (13, 6, 7),
            (9, 4, 32),
            (3, 11, 5),
            (17, 5, 3),
        ] {
            let ldl = m + 2;
            let l21: Vec<f64> = (0..ldl * k).map(|_| r()).collect();
            let x: Vec<f64> = (0..k * nrhs).map(|_| r()).collect();
            let y: Vec<f64> = (0..m * nrhs).map(|_| r()).collect();

            let mut yb = y.clone();
            gemm_block_sub_rm(m, k, nrhs, &l21, ldl, &x, &mut yb);
            let mut xb = x.clone();
            gemm_block_t_sub_rm(m, k, nrhs, &l21, ldl, &y, &mut xb);
            for c in 0..nrhs {
                let mut y1 = lane(&y, m, nrhs, c);
                gemm_block_sub_rm(m, k, 1, &l21, ldl, &lane(&x, k, nrhs, c), &mut y1);
                for (a, b) in lane(&yb, m, nrhs, c).iter().zip(&y1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "fwd m={m} k={k} nrhs={nrhs}");
                }
                let mut x1 = lane(&x, k, nrhs, c);
                gemm_block_t_sub_rm(m, k, 1, &l21, ldl, &lane(&y, m, nrhs, c), &mut x1);
                for (a, b) in lane(&xb, k, nrhs, c).iter().zip(&x1) {
                    assert_eq!(a.to_bits(), b.to_bits(), "bwd m={m} k={k} nrhs={nrhs}");
                }
            }
        }

        // The triangular solves, unit and non-unit, at widths around the
        // panel size.
        for n in [1usize, 3, 4, 6, 8, 11] {
            let ld = n + 1;
            let mut l = vec![0.0; ld * n];
            for j in 0..n {
                for i in j..n {
                    l[j * ld + i] = r();
                }
                l[j * ld + j] = 2.0 + r().abs();
            }
            for unit in [false, true] {
                for nrhs in [1usize, 2, 4, 7] {
                    let b: Vec<f64> = (0..n * nrhs).map(|_| r()).collect();
                    let mut fwd = b.clone();
                    trsm_ln_rm(n, nrhs, &l, ld, &mut fwd, unit);
                    let mut bwd = b.clone();
                    trsm_lt_rm(n, nrhs, &l, ld, &mut bwd, unit);
                    for c in 0..nrhs {
                        let mut f1 = lane(&b, n, nrhs, c);
                        trsm_ln_rm(n, 1, &l, ld, &mut f1, unit);
                        for (a, q) in lane(&fwd, n, nrhs, c).iter().zip(&f1) {
                            assert_eq!(a.to_bits(), q.to_bits(), "ln n={n} nrhs={nrhs}");
                        }
                        let mut b1 = lane(&b, n, nrhs, c);
                        trsm_lt_rm(n, 1, &l, ld, &mut b1, unit);
                        for (a, q) in lane(&bwd, n, nrhs, c).iter().zip(&b1) {
                            assert_eq!(a.to_bits(), q.to_bits(), "lt n={n} nrhs={nrhs}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_trsm_agrees_with_per_column_trsv_to_rounding() {
        // Panel blocking changes the op order, so the interleaved solves
        // agree with the scalar per-column sweeps numerically (same
        // triangular system), not bit for bit.
        use crate::trsv;
        let mut r = det_rng(31);
        for (n, ld, nrhs) in [(10usize, 10usize, 5usize), (7, 8, 6)] {
            let mut l = vec![0.0; ld * n];
            for j in 0..n {
                for i in j..n {
                    l[j * ld + i] = r();
                }
                l[j * ld + j] = 3.0 + r().abs();
            }
            for unit in [false, true] {
                let b: Vec<f64> = (0..n * nrhs).map(|_| r()).collect();
                let mut il = b.clone();
                trsm_ln_rm(n, nrhs, &l, ld, &mut il, unit);
                trsm_lt_rm(n, nrhs, &l, ld, &mut il, unit);
                for c in 0..nrhs {
                    let mut col = lane(&b, n, nrhs, c);
                    trsv::trsv_ln(n, &l, ld, &mut col, unit);
                    trsv::trsv_lt(n, &l, ld, &mut col, unit);
                    for (u, v) in col.iter().zip(lane(&il, n, nrhs, c)) {
                        assert!(
                            (u - v).abs() <= 1e-12 * v.abs().max(1.0),
                            "n={n} unit={unit} col {c}: {u} vs {v}"
                        );
                    }
                }
            }
        }
    }

    /// Every instruction set the host supports, all four kernels, against
    /// the portable copy: `nrhs` below, at and across every lane width and
    /// chunk remainder (1 takes the row-lane forward update), shapes around
    /// the panel width and the lane widths, 0 included, unit and non-unit.
    /// Prints what it exercised, so a CI log shows a runner without
    /// `avx512f` instead of passing silently.
    #[test]
    // Miri runs neither AVX nor AVX-512 code (detection reports the
    // portable copy there, which the other tests cover).
    #[cfg_attr(miri, ignore)]
    fn solve_lane_kernels_match_the_portable_copy_bit_for_bit() {
        let isas = Isa::supported();
        println!("solve kernels exercised on this host: {isas:?}");
        let mut r = det_rng(41);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dims = [0usize, 1, 3, 4, 5, 7, 8, 9, 12, 17];
        for nrhs in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
            for (m, k) in dims.iter().flat_map(|&m| dims.map(|k| (m, k))) {
                let ldl = m + 2;
                let l21: Vec<f64> = (0..ldl * k).map(|_| r()).collect();
                let x: Vec<f64> = (0..k * nrhs).map(|_| r()).collect();
                let y: Vec<f64> = (0..m * nrhs).map(|_| r()).collect();
                let a = Apply {
                    m,
                    k,
                    nrhs,
                    l21: &l21,
                    ldl,
                };
                let run = |isa: Isa| {
                    let (mut yo, mut xo) = (y.clone(), x.clone());
                    Kernel::Sub(a, &x, &mut yo).run_on(isa);
                    Kernel::SubT(a, &y, &mut xo).run_on(isa);
                    (bits(&yo), bits(&xo))
                };
                let want = run(Isa::Portable);
                for &isa in &isas[1..] {
                    assert_eq!(run(isa), want, "{isa:?} m={m} k={k} nrhs={nrhs}");
                }
            }
            for n in dims {
                let ldl = n + 1;
                let mut l: Vec<f64> = (0..ldl * n).map(|_| r()).collect();
                for j in 0..n {
                    l[j * ldl + j] = 2.0 + r().abs();
                }
                let b: Vec<f64> = (0..n * nrhs).map(|_| r()).collect();
                for unit in [false, true] {
                    let t = Tri {
                        n,
                        nrhs,
                        l: &l,
                        ldl,
                        unit,
                    };
                    let run = |isa: Isa| {
                        let (mut fwd, mut bwd) = (b.clone(), b.clone());
                        Kernel::Ln(t, &mut fwd).run_on(isa);
                        Kernel::Lt(t, &mut bwd).run_on(isa);
                        (bits(&fwd), bits(&bwd))
                    };
                    let want = run(Isa::Portable);
                    for &isa in &isas[1..] {
                        assert_eq!(run(isa), want, "{isa:?} n={n} nrhs={nrhs} unit={unit}");
                    }
                }
            }
        }
    }
}
