//! Blocked dense Cholesky and LDLᵀ, full and **partial**.
//!
//! The partial variants are the heart of the multifrontal method: a frontal
//! matrix of order `nf` has its first `npiv` variables eliminated, leaving
//! the Schur complement of the remaining `nf - npiv` in the trailing block.
//! Storage is column-major lower triangle; the strict upper triangle is
//! never read or written. Each partial kernel takes the front either as
//! one contiguous block or split into its pivot columns and its trailing
//! block, wherever the caller keeps the two; the split kernels take the
//! trailing block as a [`CLayout`], plain or in the [`NB`]-column strips
//! that store no upper entry at all.

use crate::blas::{gemm_nt_ln, trsm_right_lt};
use crate::error::DenseError;
use crate::pack::CLayout;
use crate::pack::{self, Isa};
use std::cell::RefCell;

/// Panel width for the blocked algorithms.
pub const NB: usize = 48;

#[inline]
fn at(ld: usize, i: usize, j: usize) -> usize {
    j * ld + i
}

/// A diagonal block copied out of its front: column-major with leading
/// dimension [`NB`], only the lower triangle of the leading `n x n` block
/// meaningful. The extra column lets a full [`NB`]-lane load start at any
/// lower entry; what such a load reads past the end of its column is
/// never stored to a meaningful entry.
type Compact = [f64; NB * (NB + 1)];

thread_local! {
    // Lives here rather than on the stack so that a ten-row front does not
    // pay for initialising 19 KB; its contents carry nothing from one
    // panel to the next.
    static L11: RefCell<Compact> = const { RefCell::new([0.0; NB * (NB + 1)]) };
}

/// Unblocked Cholesky of the leading `n x n` lower block of a [`Compact`]
/// buffer on the instruction set `isa` (which the host must support).
/// `base` is added to pivot indices in errors (so blocked callers report
/// global positions).
fn potf2(isa: Isa, n: usize, a: &mut Compact, base: usize) -> Result<(), DenseError> {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512(n: usize, a: &mut Compact, base: usize) -> Result<(), DenseError> {
        potf2_columns(n, a, base)
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    fn avx(n: usize, a: &mut Compact, base: usize) -> Result<(), DenseError> {
        potf2_columns(n, a, base)
    }
    debug_assert!(isa <= pack::isa());
    match isa {
        // SAFETY: the caller only names instruction sets the host has.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512(n, a, base) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx => unsafe { avx(n, a, base) },
        _ => potf2_columns(n, a, base),
    }
}

/// Column-by-column Cholesky: column `j` is held in registers — all [`NB`]
/// lanes, those past row `n` computing on whatever lies there — while the
/// columns left of it are subtracted, then scaled by its pivot. Per entry
/// this is the right-looking sweep's arithmetic in the same order
/// (subtract `l[i][t] · l[j][t]` for ascending `t`, skipping
/// `l[j][t] == 0`, then multiply by `1 / l[j][j]`), so the bits are the
/// same; what changes is that an entry is stored once instead of once per
/// earlier column.
#[inline(always)]
fn potf2_columns(n: usize, a: &mut Compact, base: usize) -> Result<(), DenseError> {
    assert!(n <= NB);
    let lanes = |a: &Compact, i: usize, j: usize| -> [f64; NB] {
        let o = at(NB, i, j);
        a[o..o + NB].try_into().expect("NB lanes")
    };
    for j in 0..n {
        let mut acc = lanes(a, j, j);
        for t in 0..j {
            let ljt = a[at(NB, j, t)];
            if ljt == 0.0 {
                continue;
            }
            let lt = lanes(a, j, t);
            for p in 0..NB {
                acc[p] -= lt[p] * ljt;
            }
        }
        let ajj = acc[0];
        if ajj <= 0.0 || !ajj.is_finite() {
            return Err(DenseError::NotPositiveDefinite {
                index: base + j,
                value: ajj,
            });
        }
        let root = ajj.sqrt();
        let inv = 1.0 / root;
        for v in &mut acc {
            *v *= inv;
        }
        acc[0] = root;
        // All lanes go back, a fixed-size store: the ones past row `n`
        // land on entries nothing reads as data.
        let djj = at(NB, j, j);
        a[djj..djj + NB].copy_from_slice(&acc);
    }
    Ok(())
}

/// Split a contiguous lower-stored front at its pivot boundary into the
/// `(panel, schur)` pair of the split kernels: the `npiv` pivot columns,
/// and the trailing block from entry `(npiv, npiv)` on, both with leading
/// dimension `ldf`.
fn split_front(f: &mut [f64], ldf: usize, npiv: usize) -> (&mut [f64], &mut [f64]) {
    let mid = at(ldf, npiv, npiv).min(f.len());
    f.split_at_mut(mid)
}

/// Partial blocked Cholesky: factor the first `npiv` columns of the `nf x nf`
/// lower-stored front `f` (leading dimension `ldf`), producing
///
/// - `L11` (lower, `npiv x npiv`) in the leading block,
/// - `L21` (`(nf-npiv) x npiv`) below it,
/// - the **Schur complement** `A22 - L21 L21ᵀ` in the trailing lower block.
///
/// With `npiv == nf` this is an ordinary blocked `LLᵀ` factorization.
pub fn partial_potrf(nf: usize, npiv: usize, f: &mut [f64], ldf: usize) -> Result<(), DenseError> {
    assert!(npiv <= nf);
    assert!(ldf >= nf.max(1));
    let (panel, schur) = split_front(f, ldf, npiv);
    partial_potrf_split(nf, npiv, panel, ldf, schur, CLayout::Plain(ldf), 1)
}

/// [`partial_potrf`] on a front stored where its two halves are kept: the
/// `nf x npiv` pivot columns in `panel` (leading dimension `ldp`) and the
/// trailing `(nf-npiv)`-order lower block in `schur` (laid out as `lds`
/// says), anywhere in memory. The multifrontal engines hand it the factor
/// slab and the update buffer (in strips), so a front is factored in place
/// and never copied; the bits do not depend on the layout.
///
/// Left-looking: [`potrf_panel`] factors the pivot columns, then the
/// Schur block takes one update from all of them, `A22 -= L21 L21ᵀ` as a
/// single [`gemm_nt_ln`] with `k = npiv`. The packed kernels round a
/// `k`-long update as one update per [`NB`]-wide panel, in ascending
/// order (the determinism contract in [`crate::pack`]), so every entry
/// gets the bits of a right-looking sweep, which updates everything right
/// of each panel in turn. [`partial_potrf`] runs this on the two halves of
/// one buffer, so the contiguous and split forms agree bit for bit.
///
/// `threads` is how many threads share each of those updates (see
/// [`gemm_nt_ln`]); the bits do not depend on it.
pub fn partial_potrf_split(
    nf: usize,
    npiv: usize,
    panel: &mut [f64],
    ldp: usize,
    schur: &mut [f64],
    lds: CLayout,
    threads: usize,
) -> Result<(), DenseError> {
    assert!(npiv <= nf);
    let r = nf - npiv;
    assert!(ldp >= nf.max(1) && lds.at(r, 0, 0).1 >= r);
    potrf_panel(nf, npiv, panel, ldp, 0, threads)?;
    if r > 0 {
        let l21 = &panel[npiv..];
        gemm_nt_ln(r, r, npiv, -1.0, l21, ldp, l21, ldp, schur, lds, threads);
    }
    Ok(())
}

/// Factor the `n` pivot columns of a front: the `m x n` block of columns
/// `cols` (leading dimension `ld`, starting at its diagonal entry) becomes
/// `L11` over `L21 = A21 L11⁻ᵀ`. What is left of a partial factorization
/// after this is the Schur update, which callers may cut up as they like.
/// `base` is added to pivot indices in errors.
///
/// Left-looking over groups of `threads` [`NB`]-wide panels: a group
/// takes every panel left of it in one [`gemm_nt_ln`] (`k` = the group's
/// first column) whose columns the threads share, a panel's width each;
/// then each of its panels takes the group's panels left of it (another
/// `gemm_nt_ln`, shared the same way), factors its diagonal block and
/// scales the rows below. Every entry thus takes the panels left of it in
/// ascending order, whatever `threads`, and the packed kernels round that
/// the same however it is grouped (the determinism contract in
/// [`crate::pack`]): the bits do not depend on `threads`. A group of one
/// panel is the plain left-looking sweep; with `n <= NB` that is one
/// panel step and no update.
pub fn potrf_panel(
    m: usize,
    n: usize,
    cols: &mut [f64],
    ld: usize,
    base: usize,
    threads: usize,
) -> Result<(), DenseError> {
    assert!(n <= m && ld >= m.max(1));
    let group = NB * threads.max(1);
    for g in (0..n).step_by(group) {
        let end = n.min(g + group);
        for j in (g..end).step_by(NB) {
            let jb = NB.min(n - j);
            // Columns `j..to` take the panels `from..j`: the whole group the
            // panels left of it, each later panel the group's before it.
            let (from, to) = if j == g { (0, end) } else { (g, j + jb) };
            let (left, cur) = cols.split_at_mut(at(ld, 0, j));
            let (l, c) = (&left[at(ld, j, from)..], &mut cur[j..]);
            let ldc = CLayout::Plain(ld);
            gemm_nt_ln(m - j, to - j, j - from, -1.0, l, ld, l, ld, c, ldc, threads);
            panel_step(m - j, jb, c, ld, base + j)?;
        }
    }
    Ok(())
}

/// One panel of [`potrf_panel`] on an `m x jb` block of up-to-date
/// columns (`jb <= NB`, starting at its diagonal entry): factor the
/// `jb x jb` diagonal block, then scale the `m - jb` rows below it.
fn panel_step(
    m: usize,
    jb: usize,
    cols: &mut [f64],
    ld: usize,
    base: usize,
) -> Result<(), DenseError> {
    assert!(jb <= NB && jb <= m && ld >= m.max(1));
    L11.with(|cell| {
        // Factor the diagonal block in a compact copy, which then is the
        // triangle the rows below are solved against.
        let l11 = &mut *cell.borrow_mut();
        for t in 0..jb {
            l11[at(NB, t, t)..at(NB, jb, t)].copy_from_slice(&cols[at(ld, t, t)..at(ld, jb, t)]);
        }
        potf2(pack::isa(), jb, l11, base)?;
        for t in 0..jb {
            cols[at(ld, t, t)..at(ld, jb, t)].copy_from_slice(&l11[at(NB, t, t)..at(NB, jb, t)]);
        }
        if m > jb {
            trsm_right_lt(m - jb, jb, &l11[..], NB, &mut cols[jb..], ld);
        }
        Ok(())
    })
}

/// Relative threshold under which an LDLᵀ pivot counts as zero.
pub const LDLT_PIVOT_TOL: f64 = 1e-300;

/// Partial `LDLᵀ` factorization (no pivoting): factor the first `npiv`
/// columns of the `nf x nf` lower-stored front, split into its pivot
/// columns and its trailing block as in [`partial_potrf_split`] (the
/// trailing block plain or in strips). On return the unit-lower `L`
/// occupies the strictly-lower part of the pivot columns, `d[0..npiv]`
/// holds the (possibly negative) pivots, and the trailing block holds the
/// Schur complement.
///
/// Without pivoting this is only numerically safe for quasi-definite or
/// diagonally dominant symmetric matrices; a vanishing pivot is reported
/// as [`DenseError::ZeroPivot`] rather than silently producing infinities.
///
/// Blocked right-looking: each [`NB`]-wide panel is factored with an
/// unblocked sweep whose rank-1 updates stay inside the panel, then
/// everything right of it absorbs the whole panel at once as
/// `C ← C − L₂₁ (L₂₁ D)ᵀ` through the packed [`gemm_nt_ln`] kernel (with
/// `W = L₂₁ D` staged in thread-local scratch), shared by `threads`
/// threads; the bits do not depend on `threads`.
#[allow(clippy::too_many_arguments)]
pub fn partial_ldlt_split(
    nf: usize,
    npiv: usize,
    panel: &mut [f64],
    ldp: usize,
    schur: &mut [f64],
    lds: CLayout,
    d: &mut [f64],
    threads: usize,
) -> Result<(), DenseError> {
    assert!(npiv <= nf);
    let r = nf - npiv;
    assert!(ldp >= nf.max(1) && lds.at(r, 0, 0).1 >= r);
    assert!(d.len() >= npiv);
    for j0 in (0..npiv).step_by(NB) {
        let jb = NB.min(npiv - j0);
        let j1 = j0 + jb;
        // Unblocked factorization of the panel; rank-1 updates are applied
        // only to columns inside the panel, the rest waits for the blocked
        // trailing update below.
        for j in j0..j1 {
            let dj = panel[at(ldp, j, j)];
            if dj.abs() <= LDLT_PIVOT_TOL || !dj.is_finite() {
                return Err(DenseError::ZeroPivot { index: j });
            }
            d[j] = dj;
            let inv = 1.0 / dj;
            // Scale column j to unit-lower L.
            for i in j + 1..nf {
                panel[at(ldp, i, j)] *= inv;
            }
            // A[i, l] -= L[i, j] * d_j * L[l, j]  (i >= l, j < l < j1).
            for l in j + 1..j1 {
                let w = panel[at(ldp, l, j)] * dj;
                if w == 0.0 {
                    continue;
                }
                let (lcol, jcol) = (l * ldp, j * ldp);
                for i in l..nf {
                    panel[lcol + i] -= panel[jcol + i] * w;
                }
            }
        }
        // Blocked trailing update over columns j1..nf, cut at the pivot
        // boundary.
        let rest = nf - j1;
        if rest == 0 {
            break;
        }
        pack::with_scratch(rest * jb, |w| {
            for (t, wcol) in w.chunks_exact_mut(rest).enumerate() {
                let dj = d[j0 + t];
                let src = at(ldp, j1, j0 + t);
                for (wv, &lv) in wcol.iter_mut().zip(&panel[src..src + rest]) {
                    *wv = lv * dj;
                }
            }
            let (done, ahead) = panel.split_at_mut(at(ldp, j1, j1).min(panel.len()));
            let (l21, n1) = (&done[at(ldp, j1, j0)..], npiv - j1);
            let ahead_ld = CLayout::Plain(ldp);
            gemm_nt_ln(
                rest, n1, jb, -1.0, l21, ldp, w, rest, ahead, ahead_ld, threads,
            );
            if r > 0 {
                let (l22, w2) = (&l21[npiv - j1..], &w[npiv - j1..]);
                gemm_nt_ln(r, r, jb, -1.0, l22, ldp, w2, rest, schur, lds, threads);
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_rng;
    use crate::matrix::DMat;
    use proptest::prelude::*;

    /// [`partial_ldlt_split`] on a contiguous front: the trailing block
    /// in place, leading dimension `ldf`.
    fn partial_ldlt(
        nf: usize,
        npiv: usize,
        f: &mut [f64],
        ldf: usize,
        d: &mut [f64],
    ) -> Result<(), DenseError> {
        let (panel, schur) = split_front(f, ldf, npiv);
        partial_ldlt_split(nf, npiv, panel, ldf, schur, CLayout::Plain(ldf), d, 1)
    }

    fn reconstruct_lower(l: &DMat) -> DMat {
        let mut ll = l.clone();
        ll.zero_upper();
        ll.matmul(&ll.transpose())
    }

    #[test]
    fn potrf_small_known() {
        // A = [[4, 2], [2, 5]] -> L = [[2, 0], [1, 2]].
        let mut a = DMat::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 5.0;
        partial_potrf(2, 2, a.as_mut_slice(), 2).unwrap();
        assert!((a[(0, 0)] - 2.0).abs() < 1e-15);
        assert!((a[(1, 0)] - 1.0).abs() < 1e-15);
        assert!((a[(1, 1)] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn potrf_reconstructs_random_spd() {
        for n in [1usize, 3, 17, 48, 49, 97, 130] {
            let mut r = det_rng(n as u64);
            let a = DMat::random_spd(n, &mut r);
            let mut l = a.clone();
            partial_potrf(n, n, l.as_mut_slice(), n).unwrap();
            let back = reconstruct_lower(&l);
            // Compare lower triangles.
            let mut err: f64 = 0.0;
            for j in 0..n {
                for i in j..n {
                    err = err.max((back[(i, j)] - a[(i, j)]).abs());
                }
            }
            assert!(err < 1e-9 * n as f64, "n={n}, err={err}");
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = DMat::identity(3);
        a[(1, 1)] = -1.0;
        let e = partial_potrf(3, 3, a.as_mut_slice(), 3).unwrap_err();
        assert_eq!(
            e,
            DenseError::NotPositiveDefinite {
                index: 1,
                value: -1.0
            }
        );
    }

    #[test]
    fn potrf_reports_global_pivot_index_in_blocked_path() {
        // Make a big SPD matrix, then poison a diagonal entry beyond the
        // first panel so the failure happens inside a later block.
        let n = NB + 10;
        let mut r = det_rng(9);
        let mut a = DMat::random_spd(n, &mut r);
        let bad = NB + 5;
        a[(bad, bad)] = -1e6;
        let e = partial_potrf(n, n, a.as_mut_slice(), n).unwrap_err();
        match e {
            DenseError::NotPositiveDefinite { index, .. } => assert_eq!(index, bad),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn partial_potrf_produces_schur_complement() {
        let n = 20;
        let npiv = 7;
        let mut r = det_rng(77);
        let a = DMat::random_spd(n, &mut r);
        let mut f = a.clone();
        partial_potrf(n, npiv, f.as_mut_slice(), n).unwrap();

        // Reference: full factor, then reconstruct what the Schur complement
        // must be: S = A22 - A21 A11^{-1} A12.
        // Compute via the factored pieces: S = A22 - L21 L21^T where the
        // L-pieces come from a *full* factorization truncated at npiv.
        let mut lfull = a.clone();
        partial_potrf(n, n, lfull.as_mut_slice(), n).unwrap();
        // L11/L21 of the full factor equal those of the partial factor.
        for j in 0..npiv {
            for i in j..n {
                assert!(
                    (f[(i, j)] - lfull[(i, j)]).abs() < 1e-10,
                    "factored panel mismatch at ({i},{j})"
                );
            }
        }
        // Schur complement check: finishing the factorization of the trailing
        // block of `f` must reproduce the trailing block of the full factor.
        let rest = n - npiv;
        let mut s = DMat::zeros(rest, rest);
        for j in 0..rest {
            for i in j..rest {
                s[(i, j)] = f[(npiv + i, npiv + j)];
            }
        }
        partial_potrf(rest, rest, s.as_mut_slice(), rest).unwrap();
        for j in 0..rest {
            for i in j..rest {
                assert!((s[(i, j)] - lfull[(npiv + i, npiv + j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn partial_potrf_with_zero_pivots_is_noop() {
        let mut r = det_rng(5);
        let a = DMat::random_spd(6, &mut r);
        let mut f = a.clone();
        partial_potrf(6, 0, f.as_mut_slice(), 6).unwrap();
        assert_eq!(f, a);
    }

    #[test]
    fn ldlt_reconstructs_spd_and_matches_cholesky() {
        let n = 25;
        let mut r = det_rng(13);
        let a = DMat::random_spd(n, &mut r);
        let mut l = a.clone();
        let mut d = vec![0.0; n];
        partial_ldlt(n, n, l.as_mut_slice(), n, &mut d).unwrap();
        // Reconstruct L D L^T over the lower triangle.
        for j in 0..n {
            for i in j..n {
                let mut acc = 0.0;
                for k in 0..=j {
                    let lik = if i == k { 1.0 } else { l[(i, k)] };
                    let ljk = if j == k { 1.0 } else { l[(j, k)] };
                    acc += lik * d[k] * ljk;
                }
                assert!((acc - a[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
        // All pivots positive for an SPD matrix.
        assert!(d.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn ldlt_handles_negative_pivots() {
        // Indefinite but strongly diagonally dominant per sign: A = diag(2, -3)
        // plus small coupling.
        let mut a = DMat::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(1, 0)] = 0.5;
        a[(1, 1)] = -3.0;
        let mut d = vec![0.0; 2];
        partial_ldlt(2, 2, a.as_mut_slice(), 2, &mut d).unwrap();
        assert!(d[0] > 0.0 && d[1] < 0.0);
        // Reconstruct entry (1,1): d0*l10^2 + d1 = -3.
        let l10 = a[(1, 0)];
        assert!((d[0] * l10 * l10 + d[1] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn ldlt_rejects_zero_pivot() {
        let mut a = DMat::zeros(2, 2);
        a[(1, 0)] = 1.0; // zero diagonal
        let mut d = vec![0.0; 2];
        assert_eq!(
            partial_ldlt(2, 2, a.as_mut_slice(), 2, &mut d),
            Err(DenseError::ZeroPivot { index: 0 })
        );
    }

    #[test]
    fn ldlt_blocked_path_reconstructs() {
        // n > NB so the panel/trailing-update split is exercised.
        let n = NB + 23;
        let mut r = det_rng(31);
        let a = DMat::random_spd(n, &mut r);
        let mut l = a.clone();
        let mut d = vec![0.0; n];
        partial_ldlt(n, n, l.as_mut_slice(), n, &mut d).unwrap();
        for j in 0..n {
            for i in j..n {
                let mut acc = 0.0;
                for k in 0..=j {
                    let lik = if i == k { 1.0 } else { l[(i, k)] };
                    let ljk = if j == k { 1.0 } else { l[(j, k)] };
                    acc += lik * d[k] * ljk;
                }
                assert!((acc - a[(i, j)]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn partial_ldlt_schur_matches_partial_potrf() {
        // On an SPD matrix, the LDLt Schur complement equals the LLt one.
        let n = 15;
        let npiv = 6;
        let mut r = det_rng(21);
        let a = DMat::random_spd(n, &mut r);
        let mut f1 = a.clone();
        partial_potrf(n, npiv, f1.as_mut_slice(), n).unwrap();
        let mut f2 = a.clone();
        let mut d = vec![0.0; npiv];
        partial_ldlt(n, npiv, f2.as_mut_slice(), n, &mut d).unwrap();
        for j in npiv..n {
            for i in j..n {
                assert!((f1[(i, j)] - f2[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// The right-looking sweep `potf2` used to be: scale a column, then
    /// rank-1 update everything right of it.
    fn potf2_right_looking(n: usize, a: &mut [f64], lda: usize) {
        for j in 0..n {
            let root = a[at(lda, j, j)].sqrt();
            a[at(lda, j, j)] = root;
            let inv = 1.0 / root;
            for i in j + 1..n {
                a[at(lda, i, j)] *= inv;
            }
            for l in j + 1..n {
                let alj = a[at(lda, l, j)];
                if alj == 0.0 {
                    continue;
                }
                for i in l..n {
                    a[at(lda, i, l)] -= a[at(lda, i, j)] * alj;
                }
            }
        }
    }

    #[test]
    fn potf2_columns_equal_the_right_looking_sweep_bit_for_bit() {
        let isas = Isa::supported();
        println!("potf2 kernels exercised on this host: {isas:?}");
        for n in [1usize, 2, 7, 8, 9, 31, NB - 1, NB] {
            let mut r = det_rng(n as u64 + 40);
            let mut a = DMat::random_spd(n, &mut r);
            if n > 3 {
                // An exact zero below the diagonal exercises the skip.
                a[(2, 0)] = 0.0;
                a[(n - 1, 0)] = 0.0;
            }
            let mut want = a.clone();
            potf2_right_looking(n, want.as_mut_slice(), n);
            for &isa in &isas {
                // Stale contents everywhere but the block's lower triangle.
                let mut c: Compact = [f64::NAN; NB * (NB + 1)];
                for t in 0..n {
                    c[at(NB, t, t)..at(NB, n, t)]
                        .copy_from_slice(&a.as_slice()[t * n + t..(t + 1) * n]);
                }
                potf2(isa, n, &mut c, 0).unwrap();
                for j in 0..n {
                    for i in j..n {
                        let (got, want) = (c[at(NB, i, j)], want[(i, j)]);
                        assert_eq!(got.to_bits(), want.to_bits(), "{isa:?} n={n} ({i},{j})");
                    }
                }
            }
        }
    }

    /// The `npiv` pivot columns of the square `a` and its trailing lower
    /// block, in separate, tightly packed buffers, as the engines store a
    /// front.
    fn split_of(a: &DMat, npiv: usize) -> (Vec<f64>, Vec<f64>) {
        let (nf, rr) = (a.nrows(), a.nrows() - npiv);
        let panel = a.as_slice()[..nf * npiv].to_vec();
        let mut schur = vec![0.0; rr * rr];
        for j in 0..rr {
            for i in j..rr {
                schur[j * rr + i] = a[(npiv + i, npiv + j)];
            }
        }
        (panel, schur)
    }

    /// Factor `a` (order `nf`, `npiv` pivots) once contiguously and once
    /// with the pivot columns and the trailing block in separate, tightly
    /// packed buffers; every lower entry must agree bit for bit.
    fn assert_split_equals_contiguous(nf: usize, npiv: usize) {
        let mut r = det_rng((nf * 1000 + npiv) as u64);
        let a = DMat::random_spd(nf, &mut r);
        let rr = nf - npiv;
        let check = |what: &str, f: &DMat, panel: &[f64], schur: &[f64]| {
            for j in 0..nf {
                for i in j..nf {
                    let got = if j < npiv {
                        panel[j * nf + i]
                    } else {
                        schur[(j - npiv) * rr + (i - npiv)]
                    };
                    assert_eq!(
                        f[(i, j)].to_bits(),
                        got.to_bits(),
                        "{what} nf={nf} npiv={npiv} at ({i},{j})"
                    );
                }
            }
        };
        let mut f = a.clone();
        partial_potrf(nf, npiv, f.as_mut_slice(), nf).unwrap();
        let (mut panel, mut schur) = split_of(&a, npiv);
        let ls = CLayout::Plain(rr);
        partial_potrf_split(nf, npiv, &mut panel, nf, &mut schur, ls, 1).unwrap();
        check("llt", &f, &panel, &schur);
        let mut f = a.clone();
        let mut d = vec![0.0; npiv];
        partial_ldlt(nf, npiv, f.as_mut_slice(), nf, &mut d).unwrap();
        let (mut panel, mut schur) = split_of(&a, npiv);
        let mut d2 = vec![0.0; npiv];
        partial_ldlt_split(nf, npiv, &mut panel, nf, &mut schur, ls, &mut d2, 1).unwrap();
        check("ldlt", &f, &panel, &schur);
        assert_eq!(d, d2);
    }

    #[test]
    // The larger fronts are too many interpreted flops for Miri; the
    // small ones walk the same code.
    #[cfg_attr(miri, ignore)]
    fn split_storage_equals_contiguous_bit_for_bit() {
        // w < NB, w = NB + 1, w = f (r = 0), several panels, tiny.
        for (nf, npiv) in [
            (30usize, 7usize),
            (90, NB + 1),
            (NB + 1, NB + 1),
            (130, 130),
            (200, 2 * NB + 5),
            (1, 1),
            (5, 0),
        ] {
            assert_split_equals_contiguous(nf, npiv);
        }
    }

    #[test]
    fn every_thread_count_leaves_the_bits_of_one_thread() {
        // (nf, npiv): fewer columns than threads in every update, no
        // pivots, one and several panels with a Schur block, none, and a
        // Schur update with `k > KC`. The last four are too many
        // interpreted flops for Miri; the first two walk the same code.
        let shapes = [
            (5usize, 3usize),
            (6, 0),
            (60, 25),
            (97, 40),
            (130, 130),
            (300, pack::KC + 20),
        ];
        let shapes = &shapes[..if cfg!(miri) { 2 } else { shapes.len() }];
        for &(nf, npiv) in shapes {
            let mut r = det_rng((nf * 1000 + npiv) as u64 + 3);
            let a = DMat::random_spd(nf, &mut r);
            let b = DMat::from_fn(nf, nf, |_, _| r());
            let rr = nf - npiv;
            let (panel, schur) = split_of(&a, npiv);
            let run = |threads| {
                let (mut lp, mut ls, plain) = (panel.clone(), schur.clone(), CLayout::Plain(rr));
                partial_potrf_split(nf, npiv, &mut lp, nf, &mut ls, plain, threads).unwrap();
                let (mut dp, mut ds, mut d) = (panel.clone(), schur.clone(), vec![0.0; npiv]);
                partial_ldlt_split(nf, npiv, &mut dp, nf, &mut ds, plain, &mut d, threads).unwrap();
                // The update helper alone, on a tall trapezoid with `k = nf`
                // and two different operands.
                let mut c = panel.clone();
                let (a, b, ldc) = (a.as_slice(), b.as_slice(), CLayout::Plain(nf));
                gemm_nt_ln(nf, npiv, nf, -1.0, a, nf, b, nf, &mut c, ldc, threads);
                [lp, ls, dp, ds, d, c]
            };
            let want = run(1);
            for threads in 2..=4 {
                for (what, (w, g)) in want.iter().zip(run(threads)).enumerate() {
                    let diff = w
                        .iter()
                        .zip(&g)
                        .position(|(w, g)| w.to_bits() != g.to_bits());
                    assert_eq!(
                        diff, None,
                        "nf={nf} npiv={npiv} threads={threads} output {what}"
                    );
                }
            }
        }
    }

    /// [`partial_potrf_split`] as it stood before the left-looking
    /// kernel, verbatim: after each panel, everything right of it takes
    /// that panel's update. The oracle the new kernel must reproduce bit
    /// for bit.
    fn partial_potrf_split_right_looking(
        nf: usize,
        npiv: usize,
        panel: &mut [f64],
        ldp: usize,
        schur: &mut [f64],
        lds: usize,
    ) -> Result<(), DenseError> {
        assert!(npiv <= nf);
        let r = nf - npiv;
        assert!(ldp >= nf.max(1) && lds >= r);
        for j in (0..npiv).step_by(NB) {
            let jb = NB.min(npiv - j);
            let j1 = j + jb;
            let rest = nf - j1;
            potrf_panel(nf - j, jb, &mut panel[at(ldp, j, j)..], ldp, j, 1)?;
            if rest == 0 {
                break;
            }
            // Trailing update A22 -= L21 L21^T (lower): the pivot columns
            // still to come run down the whole front, the rest is the Schur
            // block.
            let (done, ahead) = panel.split_at_mut(at(ldp, j1, j1).min(panel.len()));
            let l21 = &done[at(ldp, j1, j)..];
            let (ahead_ld, ls) = (CLayout::Plain(ldp), CLayout::Plain(lds));
            gemm_nt_ln(
                rest,
                npiv - j1,
                jb,
                -1.0,
                l21,
                ldp,
                l21,
                ldp,
                ahead,
                ahead_ld,
                1,
            );
            if r > 0 {
                // The lower Gram update of the rows below the pivots.
                let l22 = &l21[npiv - j1..];
                gemm_nt_ln(r, r, jb, -1.0, l22, ldp, l22, ldp, schur, ls, 1);
            }
        }
        Ok(())
    }

    /// Factor an `(npiv + r)`-order front, stored split as the engines
    /// keep it (leading dimensions padded by `pad`), with the right-looking
    /// oracle on the portable kernels and with [`partial_potrf_split`] on
    /// every instruction set the host has; all must leave the same bits
    /// everywhere in both buffers.
    fn assert_left_equals_right_looking(npiv: usize, r: usize, pad: (usize, usize), seed: u64) {
        let nf = npiv + r;
        let (ldp, lds) = (nf.max(1) + pad.0, r.max(1) + pad.1);
        // Diagonally dominant, so positive definite; about one
        // off-diagonal entry in eight is an exact zero of either sign.
        let mut rng = det_rng(seed);
        let mut entry = |i: usize, j: usize| {
            let u = rng();
            if i == j {
                nf as f64 + u
            } else if u >= 0.875 {
                0.0
            } else if u < -0.875 {
                -0.0
            } else {
                rng()
            }
        };
        // Everything outside the lower front holds a marker that must come
        // through untouched.
        let marker = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut panel = vec![marker; ldp * npiv];
        let mut schur = vec![marker; lds * r];
        for j in 0..nf {
            for i in j..nf {
                if j < npiv {
                    panel[at(ldp, i, j)] = entry(i, j);
                } else {
                    schur[at(lds, i - npiv, j - npiv)] = entry(i, j);
                }
            }
        }
        let (mut want_p, mut want_s) = (panel.clone(), schur.clone());
        pack::on_isa(Isa::Portable, || {
            partial_potrf_split_right_looking(nf, npiv, &mut want_p, ldp, &mut want_s, lds)
        })
        .expect("diagonally dominant");
        for isa in Isa::supported() {
            let (mut got_p, mut got_s) = (panel.clone(), schur.clone());
            pack::on_isa(isa, || {
                let ls = CLayout::Plain(lds);
                partial_potrf_split(nf, npiv, &mut got_p, ldp, &mut got_s, ls, 1)
            })
            .expect("diagonally dominant");
            for (what, want, got) in [
                ("pivot columns", &want_p, &got_p),
                ("Schur block", &want_s, &got_s),
            ] {
                let diff = want
                    .iter()
                    .zip(got)
                    .position(|(w, g)| w.to_bits() != g.to_bits());
                assert_eq!(
                    diff, None,
                    "{isa:?} npiv={npiv} r={r} pad={pad:?}: {what} differ"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The left-looking kernel leaves the right-looking sweep's bits
        /// across panel (`NB`) and cache-block (`KC`) edges: every pivot
        /// count and trailing order below, on random fronts and padding.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn left_looking_kernel_equals_the_right_looking_sweep_bit_for_bit(
            pad in (0usize..3, 0usize..3),
            seed in any::<u64>(),
        ) {
            for npiv in [0, 1, 47, 48, 49, 96, 97, 241] {
                for r in [0, 1, 17, 300] {
                    assert_left_equals_right_looking(npiv, r, pad, seed);
                }
            }
        }
    }

    /// Both split kernels with the Schur block in strips leave the bits of
    /// the plain layout — pivot columns, pivots and every Schur entry — on
    /// every instruction set the host has and 1 to 4 threads, and write
    /// nothing outside the strips.
    fn assert_strip_schur_equals_plain(isas: &[Isa], nf: usize, npiv: usize, seed: u64) {
        let mut rng = det_rng(seed);
        let a = DMat::random_spd(nf, &mut rng);
        let (rr, pad) = (nf - npiv, 2);
        let (panel, schur) = split_of(&a, npiv);
        let plain = CLayout::Plain(rr.max(1));
        // (pivot columns, Schur buffer, pivots) of LLᵀ and of LDLᵀ; the
        // kernels see the buffer less `skip` entries at either end.
        let run = |isa, threads, ls, schur: &[f64], skip: usize| {
            pack::on_isa(isa, || {
                let inner = skip..schur.len() - skip;
                let (mut lp, mut ls_buf) = (panel.clone(), schur.to_vec());
                let l = &mut ls_buf[inner.clone()];
                partial_potrf_split(nf, npiv, &mut lp, nf, l, ls, threads).unwrap();
                let (mut dp, mut ds_buf, mut d) = (panel.clone(), schur.to_vec(), vec![0.0; npiv]);
                let ds = &mut ds_buf[inner];
                partial_ldlt_split(nf, npiv, &mut dp, nf, ds, ls, &mut d, threads).unwrap();
                [(lp, ls_buf, vec![]), (dp, ds_buf, d)]
            })
        };
        let want = run(Isa::Portable, 1, plain, &schur, 0);
        for &isa in isas {
            for threads in 1..=4 {
                let strips = pack::to_strips(rr, rr, &schur, pad);
                let got = run(isa, threads, CLayout::Strips, &strips, pad);
                for (kind, (w, g)) in ["llt", "ldlt"].iter().zip(want.iter().zip(&got)) {
                    let what = format!("{kind} {isa:?} nf={nf} npiv={npiv} threads={threads}");
                    let same = |x: &[f64], y: &[f64]| {
                        x.iter()
                            .map(|v| v.to_bits())
                            .eq(y.iter().map(|v| v.to_bits()))
                    };
                    assert!(same(&w.0, &g.0), "{what}: pivot columns differ");
                    assert!(same(&w.2, &g.2), "{what}: pivots differ");
                    pack::assert_strips_equal(rr, rr, &w.1, &g.1, pad, &what);
                }
            }
        }
    }

    #[test]
    fn strip_layout_schur_keeps_the_plain_bits_on_small_fronts() {
        // Small enough for Miri: no Schur block, one strip, two strips.
        let isas = Isa::supported();
        for (nf, npiv) in [(3, 3), (9, 3), (60, 7)] {
            assert_strip_schur_equals_plain(&isas, nf, npiv, (nf * 100 + npiv) as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Pivot counts (the update's `k`) and Schur orders off every
        /// multiple of the tile, strip and cache-block sizes, up to several
        /// strips and past a `KC` block. Prints what it exercised.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn strip_layout_schur_keeps_the_plain_bits(
            npiv in 1usize..=250, r in 1usize..=170, seed in any::<u64>(),
        ) {
            let isas = Isa::supported();
            println!("strip layout Schur blocks exercised on this host: {isas:?}");
            let off = |x: usize| if x.is_multiple_of(4) { x - 1 } else { x };
            let (npiv, r) = (off(npiv.max(2)), off(r.max(2)));
            assert_strip_schur_equals_plain(&isas, npiv + r, npiv, seed);
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        partial_potrf(0, 0, &mut [], 1).unwrap();
        partial_potrf_split(0, 0, &mut [], 1, &mut [], CLayout::Plain(1), 1).unwrap();
        partial_potrf_split(0, 0, &mut [], 1, &mut [], CLayout::Strips, 1).unwrap();
    }
}
