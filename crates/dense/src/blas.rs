//! BLAS-3 style kernels on column-major buffers with explicit leading
//! dimensions.
//!
//! Only the operations the multifrontal factorization needs are provided,
//! in the exact variants it needs them:
//!
//! - [`gemm_nt`] — `C ← α A Bᵀ + β C` (the outer-product update shape);
//! - [`gemm_nt_ln`] — lower `C ← C + α A Bᵀ`, triangle or tall trapezoid
//!   (Schur complements with `A = B`; the pivot columns right of a panel;
//!   LDLᵀ trailing updates, where the two operands differ by the `D`
//!   scaling);
//! - [`trsm_right_lt`] — `X Lᵀ = B` (panel scaling below a factored block).
//!
//! `C` is column-major with a leading dimension, except that
//! [`gemm_nt_ln`] takes its lower block as a [`CLayout`]: plain, or the
//! [`NB`]-column strips the multifrontal engines store
//! every update in (no entry above the diagonal is kept).
//!
//! The solve phase's left-side block solves live in [`crate::solve`].
//!
//! The rank-k updates are backed by the packed register-blocked core in
//! [`crate::pack`]; see that module for the blocking scheme and the
//! per-entry determinism contract the engines rely on. The triangular
//! solve stays unpacked (its `n` is a panel width, at most
//! [`crate::chol::NB`], in the factorization): it sweeps a strip of rows
//! at a time with the strip held in registers, and blocks its column
//! sweep through [`gemm_nt`] when callers hand it a wide triangle.

use crate::chol::NB;
use crate::pack::{self, strips_len, CLayout, Isa};
use std::cell::RefCell;

/// Column block size for the blocked [`trsm_right_lt`] sweep. Matches the
/// factorization panel width (`chol::NB`) so factorization-path calls are
/// a single block.
const TRSM_NB: usize = NB;

/// Rows [`trsm_right_lt`] solves at a time: four 8-lane vectors, enough
/// independent subtract chains to cover the add latency.
const STRIP: usize = 32;

/// One strip of a panel, a column per row of the array.
type Strip = [[f64; STRIP]; TRSM_NB];

thread_local! {
    // Lives here rather than on the stack so that a call on a ten-row
    // front does not pay for initialising 12 KB; its contents carry
    // nothing from one call to the next.
    static STRIP_BUF: RefCell<Strip> = const { RefCell::new([[0.0; STRIP]; TRSM_NB]) };
}

#[inline]
fn at(ld: usize, i: usize, j: usize) -> usize {
    j * ld + i
}

/// Scale `C ← β C` over full `m`-row columns (the `gemm` pre-pass).
fn scale_full(m: usize, n: usize, beta: f64, c: &mut [f64], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let cj = &mut c[at(ldc, 0, j)..at(ldc, m, j)];
        if beta == 0.0 {
            cj.fill(0.0);
        } else {
            for v in cj {
                *v *= beta;
            }
        }
    }
}

/// `C ← α A Bᵀ + β C` where `A` is `m x k`, `B` is `n x k`, `C` is `m x n`,
/// all column-major with leading dimensions `lda`, `ldb`, `ldc`.
#[allow(clippy::too_many_arguments)] // BLAS calling convention
pub fn gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    debug_assert!(lda >= m.max(1) && ldb >= n.max(1) && ldc >= m.max(1));
    scale_full(m, n, beta, c, ldc);
    let ldc = CLayout::Plain(ldc);
    pack::gemm_packed(pack::isa(), m, n, k, alpha, a, lda, b, ldb, c, ldc, false);
}

/// Lower general rank-k update: `C ← C + α A Bᵀ`, touching only `C[i][j]`
/// with `i >= j`. `A` is `m x k`, `B` is `n x k`, `C` is `m x n` with
/// `m >= n`, laid out as `ldc` says — the lower triangle of a square block
/// or, with `m > n`, the lower trapezoid of a tall one (the pivot columns
/// right of a panel, which run all the way down the front).
///
/// With `A = B` this is the Schur update `C ← C − L₂₁ L₂₁ᵀ`; with
/// `A != B` the LDLᵀ trailing-update shape `C ← C − L₂₁ (L₂₁ D)ᵀ`, where
/// the operands differ by a diagonal scaling.
///
/// With `threads > 1` the columns of `C` are cut into up to `threads`
/// runs of about equal area, each a lower trapezoid of its own, and each
/// run is updated on its own thread (the last on the calling one). Under
/// [`CLayout::Strips`] the cuts are rounded to strip boundaries, so each
/// run is a strip layout of its own. The packed kernels give every entry
/// one chain whatever the tiling (the determinism contract in
/// [`crate::pack`]), so the bits do not depend on `threads` or the layout;
/// every run works on the instruction set of the calling thread. With
/// `threads <= 1` this is one packed call on this thread.
#[allow(clippy::too_many_arguments)] // BLAS calling convention
pub fn gemm_nt_ln(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: CLayout,
    threads: usize,
) {
    debug_assert!(m >= n && lda >= m.max(1) && ldb >= n.max(1));
    let isa = pack::isa();
    if threads <= 1 || k == 0 || n < 2 {
        pack::gemm_packed(isa, m, n, k, alpha, a, lda, b, ldb, c, ldc, true);
        return;
    }
    let runs = threads.min(n);
    // Entries of `C` in its columns `0..j`: column `t` holds `m - t`.
    let area = |j: usize| j * m - j * j.saturating_sub(1) / 2;
    std::thread::scope(|scope| {
        let (mut c, mut j0) = (c, 0);
        for t in 1..=runs {
            // The first cut at or past `t / runs` of the area, or the
            // strip boundary nearest to it.
            let mut j1 = j0;
            while j1 < n && area(j1) * runs < t * area(n) {
                j1 += 1;
            }
            if ldc == CLayout::Strips && j1 < n {
                j1 = ((j1 + NB / 2) / NB * NB).min(n);
            }
            if j1 <= j0 {
                continue;
            }
            // The run's own `C`, from its entry `(j0, j0)` on.
            let (len, top) = match ldc {
                CLayout::Plain(ld) => (at(ld, 0, j1 - j0), j0),
                CLayout::Strips => (strips_len(m - j0, j1 - j0), 0),
            };
            let run = &mut c
                .split_off_mut(..len.min(c.len()))
                .expect("a run ends inside C")[top..];
            let (a, b) = (&a[j0..], &b[j0..]);
            let mut update = move || {
                pack::gemm_packed(
                    isa,
                    m - j0,
                    j1 - j0,
                    k,
                    alpha,
                    a,
                    lda,
                    b,
                    ldb,
                    run,
                    ldc,
                    true,
                )
            };
            if j1 < n {
                scope.spawn(update);
            } else {
                update();
            }
            j0 = j1;
        }
    });
}

/// Solve `X Lᵀ = B` in place (`B ← B L⁻ᵀ`), where `L` is `n x n` lower
/// triangular (not unit) and `B` is `m x n`.
///
/// This is the panel operation of Cholesky: given the factored diagonal
/// block `L11`, the subdiagonal panel becomes `L21 = A21 L11⁻ᵀ`.
///
/// Columns are swept in `TRSM_NB` blocks: contributions of previously
/// solved column blocks are folded in with one [`gemm_nt`] per block, then
/// the block itself is solved against its diagonal triangle by
/// `trsm_block`. For `n <= TRSM_NB` (every factorization-path call)
/// that is the whole operation.
pub fn trsm_right_lt(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    debug_assert!(ldl >= n.max(1) && ldb >= m.max(1));
    if m == 0 {
        return;
    }
    for j0 in (0..n).step_by(TRSM_NB) {
        let jb = TRSM_NB.min(n - j0);
        let (solved, rest) = b.split_at_mut(j0 * ldb);
        if j0 > 0 {
            // B[:, j0..j0+jb] -= B[:, 0..j0] * L[j0..j0+jb, 0..j0]ᵀ.
            gemm_nt(m, jb, j0, -1.0, solved, ldb, &l[j0..], ldl, 1.0, rest, ldb);
        }
        trsm_block(pack::isa(), m, jb, &l[at(ldl, j0, j0)..], ldl, rest, ldb);
    }
}

/// [`trsm_right_lt`] for one column block (`n <= TRSM_NB`), on the
/// instruction set `isa` (which the host must support).
fn trsm_block(isa: Isa, m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512(x: &mut Strip, m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
        trsm_strips(x, m, n, l, ldl, b, ldb)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    fn avx(x: &mut Strip, m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
        trsm_strips(x, m, n, l, ldl, b, ldb)
    }
    debug_assert!(isa <= pack::isa());
    STRIP_BUF.with(|cell| {
        let x = &mut *cell.borrow_mut();
        match isa {
            // SAFETY: the caller only names instruction sets the host has.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { avx512(x, m, n, l, ldl, b, ldb) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { avx(x, m, n, l, ldl, b, ldb) },
            _ => trsm_strips(x, m, n, l, ldl, b, ldb),
        }
    })
}

/// The column sweep `B[:,j] = (B[:,j] − Σ_{t<j} X[:,t] L[j,t]) / L[j,j]`,
/// [`STRIP`] rows at a time: a strip is copied into `x`, solved there with
/// the column being solved held in registers across its whole `t` sweep,
/// and copied back, so every entry of `B` is read and written once instead
/// of once per column. Per entry the operations and their order are those
/// of the plain column sweep — subtract `x · l[j][t]` for ascending `t`,
/// skipping `l[j][t] == 0`, then multiply by `1 / l[j][j]` — so the bits
/// are too, whatever vector width this is compiled for. (Lanes past the
/// end of a short last strip compute on stale values and are never copied
/// back.)
#[inline(always)]
fn trsm_strips(
    x: &mut Strip,
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    assert!(n <= TRSM_NB);
    let mut inv = [0.0f64; TRSM_NB];
    for j in 0..n {
        inv[j] = 1.0 / l[at(ldl, j, j)];
    }
    for i0 in (0..m).step_by(STRIP) {
        let rows = STRIP.min(m - i0);
        for j in 0..n {
            let bj = &b[at(ldb, i0, j)..at(ldb, i0 + rows, j)];
            // A full strip is a fixed-size copy the compiler inlines.
            match <&[f64; STRIP]>::try_from(bj) {
                Ok(full) => x[j] = *full,
                Err(_) => x[j][..rows].copy_from_slice(bj),
            }
        }
        for j in 0..n {
            let mut acc = x[j];
            for t in 0..j {
                let ljt = l[at(ldl, j, t)];
                if ljt == 0.0 {
                    continue;
                }
                let xt = &x[t];
                for p in 0..STRIP {
                    acc[p] -= xt[p] * ljt;
                }
            }
            for v in &mut acc {
                *v *= inv[j];
            }
            x[j] = acc;
        }
        for j in 0..n {
            let bj = &mut b[at(ldb, i0, j)..at(ldb, i0 + rows, j)];
            match <&mut [f64; STRIP]>::try_from(&mut *bj) {
                Ok(full) => *full = x[j],
                Err(_) => bj.copy_from_slice(&x[j][..rows]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_rng;
    use crate::matrix::DMat;

    #[test]
    fn gemm_nt_matches_naive() {
        let mut r = det_rng(1);
        let (m, n, k) = (7, 5, 9);
        let a = DMat::from_fn(m, k, |_, _| r());
        let b = DMat::from_fn(n, k, |_, _| r());
        let c0 = DMat::from_fn(m, n, |_, _| r());

        let mut c = c0.clone();
        gemm_nt(
            m,
            n,
            k,
            2.0,
            a.as_slice(),
            m,
            b.as_slice(),
            n,
            0.5,
            c.as_mut_slice(),
            m,
        );
        // Reference: 2 * A * B^T + 0.5 * C0.
        let mut reference = a.matmul(&b.transpose());
        for j in 0..n {
            for i in 0..m {
                reference[(i, j)] = 2.0 * reference[(i, j)] + 0.5 * c0[(i, j)];
            }
        }
        assert!(c.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn gemm_nt_respects_leading_dimension() {
        // Embed a 2x2 product inside larger buffers.
        let (lda, ldb, ldc) = (4, 3, 5);
        let mut a = vec![0.0; lda * 2];
        let mut b = vec![0.0; ldb * 2];
        let mut c = vec![9.0; ldc * 2];
        // A = [1 2; 3 4] (col-major within ld), B = I.
        a[0] = 1.0;
        a[1] = 3.0;
        a[lda] = 2.0;
        a[lda + 1] = 4.0;
        b[0] = 1.0;
        b[ldb + 1] = 1.0;
        gemm_nt(2, 2, 2, 1.0, &a, lda, &b, ldb, 0.0, &mut c, ldc);
        assert_eq!(&c[0..2], &[1.0, 3.0]);
        assert_eq!(&c[ldc..ldc + 2], &[2.0, 4.0]);
        // Padding untouched beyond the written rows.
        assert_eq!(c[2], 9.0);
    }

    #[test]
    // Too many interpreted flops for Miri; the small-dim tests above walk
    // the same pack/microkernel/store paths.
    #[cfg_attr(miri, ignore)]
    fn gemm_handles_large_blocked_path() {
        // Exercise the KC/NC tiling with dims beyond one tile.
        let mut r = det_rng(2);
        let (m, n, k) = (30, 150, 80);
        let a = DMat::from_fn(m, k, |_, _| r());
        let b = DMat::from_fn(n, k, |_, _| r());
        let mut c = DMat::zeros(m, n);
        gemm_nt(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            m,
        );
        let reference = a.matmul(&b.transpose());
        assert!(c.max_abs_diff(&reference) < 1e-11);
    }

    #[test]
    // Crossing MC/NC/KC needs >512-wide operands — too slow under Miri.
    #[cfg_attr(miri, ignore)]
    fn gemm_crosses_every_cache_block_boundary() {
        // Dimensions straddling MC/NC/KC with ragged remainders.
        let mut r = det_rng(7);
        let (m, n, k) = (
            crate::pack::MC + 3,
            crate::pack::NC + 5,
            crate::pack::KC + 2,
        );
        let a = DMat::from_fn(m, k, |_, _| r());
        let b = DMat::from_fn(n, k, |_, _| r());
        let mut c = DMat::zeros(m, n);
        gemm_nt(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            n,
            0.0,
            c.as_mut_slice(),
            m,
        );
        let mut reference = DMat::zeros(m, n);
        crate::naive::gemm_nt(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            n,
            0.0,
            reference.as_mut_slice(),
            m,
        );
        assert!(c.max_abs_diff(&reference) < 1e-10);
    }

    #[test]
    fn gemm_nt_ln_of_a_with_itself_is_the_lower_gram_update() {
        let mut r = det_rng(3);
        let (n, k) = (9, 6);
        let a = DMat::from_fn(n, k, |_, _| r());
        let mut c = DMat::zeros(n, n);
        let (s, ldc) = (a.as_slice(), CLayout::Plain(n));
        gemm_nt_ln(n, n, k, -1.0, s, n, s, n, c.as_mut_slice(), ldc, 1);
        let full = a.matmul(&a.transpose());
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    assert!((c[(i, j)] + full[(i, j)]).abs() < 1e-12);
                } else {
                    assert_eq!(c[(i, j)], 0.0, "upper triangle must stay untouched");
                }
            }
        }
    }

    #[test]
    fn gemm_nt_ln_matches_masked_gemm() {
        let mut r = det_rng(8);
        let (n, k) = (37, 17);
        let a = DMat::from_fn(n, k, |_, _| r());
        let b = DMat::from_fn(n, k, |_, _| r());
        let mut c = DMat::zeros(n, n);
        gemm_nt_ln(
            n,
            n,
            k,
            -1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            c.as_mut_slice(),
            CLayout::Plain(n),
            1,
        );
        let full = a.matmul(&b.transpose());
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    assert!((c[(i, j)] + full[(i, j)]).abs() < 1e-11);
                } else {
                    assert_eq!(c[(i, j)], 0.0, "upper triangle must stay untouched");
                }
            }
        }
        // A tall block (m > n) is the leading columns of the square one,
        // bit for bit: the entry chain does not depend on the call shape.
        let nn = 11;
        let mut tall = DMat::zeros(n, nn);
        gemm_nt_ln(
            n,
            nn,
            k,
            -1.0,
            a.as_slice(),
            n,
            b.as_slice(),
            n,
            tall.as_mut_slice(),
            CLayout::Plain(n),
            1,
        );
        for j in 0..nn {
            for i in 0..n {
                assert_eq!(tall[(i, j)].to_bits(), c[(i, j)].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_right_lt_inverts_multiplication() {
        let mut r = det_rng(4);
        let (m, n) = (6, 4);
        // Well-conditioned lower L: random strictly lower + dominant diagonal.
        let l = DMat::from_fn(n, n, |i, j| {
            if i > j {
                r() * 0.3
            } else if i == j {
                2.0 + r().abs()
            } else {
                0.0
            }
        });
        let x = DMat::from_fn(m, n, |_, _| r());
        // B = X * L^T, then solve back.
        let mut b = x.matmul(&l.transpose());
        trsm_right_lt(m, n, l.as_slice(), n, b.as_mut_slice(), m);
        assert!(b.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn trsm_right_lt_blocked_path_inverts_multiplication() {
        // n > TRSM_NB forces the gemm-backed column-block sweep.
        let mut r = det_rng(9);
        let (m, n) = (11, TRSM_NB + 13);
        let l = DMat::from_fn(n, n, |i, j| {
            if i > j {
                r() * 0.1
            } else if i == j {
                2.0 + r().abs()
            } else {
                0.0
            }
        });
        let x = DMat::from_fn(m, n, |_, _| r());
        let mut b = x.matmul(&l.transpose());
        trsm_right_lt(m, n, l.as_slice(), n, b.as_mut_slice(), m);
        assert!(b.max_abs_diff(&x) < 1e-9);
    }

    /// The plain column sweep the strip kernel replaced: every column
    /// streamed once per earlier column.
    fn trsm_column_sweep(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
        for j in 0..n {
            for t in 0..j {
                let ljt = l[at(ldl, j, t)];
                if ljt == 0.0 {
                    continue;
                }
                for i in 0..m {
                    b[at(ldb, i, j)] -= b[at(ldb, i, t)] * ljt;
                }
            }
            let inv = 1.0 / l[at(ldl, j, j)];
            for i in 0..m {
                b[at(ldb, i, j)] *= inv;
            }
        }
    }

    #[test]
    fn trsm_strip_sweep_equals_column_sweep_bit_for_bit() {
        let isas = Isa::supported();
        println!("trsm strip kernels exercised on this host: {isas:?}");
        // Row counts around the strip height, widths up to a full panel.
        for &(m, n) in &[
            (1usize, 1usize),
            (5, 7),
            (16, 48),
            (33, 48),
            (70, 13),
            (131, 47),
        ] {
            let mut r = det_rng((m * 100 + n) as u64);
            let (ldl, ldb) = (n + 2, m + 3);
            let mut l = vec![0.0; ldl * n];
            for j in 0..n {
                for i in j..n {
                    l[at(ldl, i, j)] = if i == j { 2.0 + r().abs() } else { r() * 0.3 };
                }
            }
            let mut b0: Vec<f64> = (0..ldb * n).map(|_| r()).collect();
            // A skipped update, a signed zero and a non-finite row: the
            // zero skip must happen per (j, t) exactly as in the column
            // sweep, or `inf * 0` would turn up as NaN in one and not the
            // other.
            if n > 2 {
                l[at(ldl, n - 1, 0)] = 0.0;
                l[at(ldl, 2, 1)] = 0.0;
            }
            b0[at(ldb, 0, 0)] = -0.0;
            if m > 2 {
                for j in 0..n {
                    b0[at(ldb, 2, j)] = f64::INFINITY;
                }
            }
            let mut want = b0.clone();
            trsm_column_sweep(m, n, &l, ldl, &mut want, ldb);
            for &isa in &isas {
                let mut got = b0.clone();
                trsm_block(isa, m, n, &l, ldl, &mut got, ldb);
                for (idx, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "{isa:?} m={m} n={n} at ({}, {})",
                        idx % ldb,
                        idx / ldb
                    );
                }
            }
        }
    }

    /// `gemm_nt_ln` into the strip layout leaves the bits the plain layout
    /// gets, on every instruction set the host has and 1 to 4 threads, and
    /// writes nothing outside the strips.
    fn assert_strip_update_equals_plain(isas: &[Isa], m: usize, n: usize, k: usize, seed: u64) {
        let mut r = det_rng(seed);
        let (lda, ldb, pad) = (m + 1, n + 2, 3);
        let a: Vec<f64> = (0..lda * k).map(|_| r()).collect();
        let b: Vec<f64> = (0..ldb * k).map(|_| r()).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| r()).collect();
        let mut want = c0.clone();
        pack::on_isa(Isa::Portable, || {
            let ldc = CLayout::Plain(m);
            gemm_nt_ln(m, n, k, -1.0, &a, lda, &b, ldb, &mut want, ldc, 1)
        });
        for &isa in isas {
            for threads in 1..=4 {
                let mut got = pack::to_strips(m, n, &c0, pad);
                let c = &mut got[pad..pad + strips_len(m, n)];
                pack::on_isa(isa, || {
                    gemm_nt_ln(m, n, k, -1.0, &a, lda, &b, ldb, c, CLayout::Strips, threads)
                });
                let what = format!("{isa:?} m={m} n={n} k={k} threads={threads}");
                pack::assert_strips_equal(m, n, &want, &got, pad, &what);
            }
        }
    }

    #[test]
    fn strip_layout_update_keeps_the_plain_bits_on_small_blocks() {
        // Small enough for Miri: one and two strips, a tall trapezoid,
        // `k` across a segment edge.
        let isas = Isa::supported();
        for (m, n, k) in [(1, 1, 1), (7, 5, 3), (53, 53, 50), (61, 13, 9)] {
            assert_strip_update_equals_plain(&isas, m, n, k, (m * 100 + k) as u64);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Orders and `k` off every multiple of the tile, strip and cache
        /// block sizes (odd or 2 mod 4), up to several strips and past a
        /// `KC` block; one block crosses `NC`. Prints what it exercised.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn strip_layout_update_keeps_the_plain_bits(
            m in 1usize..=210, tall in proptest::prelude::any::<bool>(), k in 1usize..=260,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let isas = Isa::supported();
            println!("strip layout updates exercised on this host: {isas:?}");
            let off = |x: usize| if x.is_multiple_of(4) { x - 1 } else { x };
            let (m, k) = (off(m.max(2)), off(k.max(2)));
            let n = if tall { off((m / 2).max(2)).min(m) } else { m };
            assert_strip_update_equals_plain(&isas, m, n, k, seed);
            let nc = pack::NC + 5;
            assert_strip_update_equals_plain(&isas, nc, nc, 7, seed);
        }
    }

    #[test]
    fn degenerate_sizes_are_noops() {
        let mut c = [1.0; 1];
        gemm_nt(0, 0, 0, 1.0, &[], 1, &[], 1, 1.0, &mut c, 1);
        gemm_nt_ln(0, 0, 0, 1.0, &[], 1, &[], 1, &mut c, CLayout::Plain(1), 1);
        gemm_nt_ln(0, 0, 0, 1.0, &[], 1, &[], 1, &mut c, CLayout::Strips, 1);
        trsm_right_lt(0, 0, &[], 1, &mut c, 1);
        assert_eq!(c[0], 1.0);
    }
}
