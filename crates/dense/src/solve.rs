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

/// How many `L21` columns the micro-kernels chain per row visit. Chained
/// updates stay in ascending-`j` order per RHS column (subtraction is not
/// reassociated), so the bitwise contract holds; the payoff is that each
/// `Y` element is loaded and stored once per group of four `L` columns
/// instead of once per column.
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
    let mut j = 0;
    while j + COL_UNROLL <= k {
        let ca = &l21[j * ldl..j * ldl + m];
        let cb = &l21[(j + 1) * ldl..(j + 1) * ldl + m];
        let cc = &l21[(j + 2) * ldl..(j + 2) * ldl + m];
        let cd = &l21[(j + 3) * ldl..(j + 3) * ldl + m];
        let xa = &x[j * nrhs..(j + 1) * nrhs];
        let xb = &x[(j + 1) * nrhs..(j + 2) * nrhs];
        let xc = &x[(j + 2) * nrhs..(j + 3) * nrhs];
        let xd = &x[(j + 3) * nrhs..(j + 4) * nrhs];
        for i in 0..m {
            let (a, b, c, d) = (ca[i], cb[i], cc[i], cd[i]);
            let row = &mut y[i * nrhs..(i + 1) * nrhs];
            for (r, yv) in row.iter_mut().enumerate() {
                *yv = (((*yv - a * xa[r]) - b * xb[r]) - c * xc[r]) - d * xd[r];
            }
        }
        j += COL_UNROLL;
    }
    for j in j..k {
        let col = &l21[j * ldl..j * ldl + m];
        let xj = &x[j * nrhs..(j + 1) * nrhs];
        for (i, &lv) in col.iter().enumerate() {
            let row = &mut y[i * nrhs..(i + 1) * nrhs];
            for (r, yv) in row.iter_mut().enumerate() {
                *yv -= lv * xj[r];
            }
        }
    }
}

/// Lanes per accumulator group in the transposed interleaved kernels:
/// small enough that the per-group partial sums stay in vector registers.
const LANE_GROUP: usize = 4;

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
    let mut j = 0;
    while j + COL_UNROLL <= k {
        let ca = &l21[j * ldl..j * ldl + m];
        let cb = &l21[(j + 1) * ldl..(j + 1) * ldl + m];
        let cc = &l21[(j + 2) * ldl..(j + 2) * ldl + m];
        let cd = &l21[(j + 3) * ldl..(j + 3) * ldl + m];
        let mut g = 0;
        while g + LANE_GROUP <= nrhs {
            let mut aa = [0.0f64; LANE_GROUP];
            let mut ab = [0.0f64; LANE_GROUP];
            let mut ac = [0.0f64; LANE_GROUP];
            let mut ad = [0.0f64; LANE_GROUP];
            for i in 0..m {
                let yv = &y[i * nrhs + g..i * nrhs + g + LANE_GROUP];
                let (a, b, c, d) = (ca[i], cb[i], cc[i], cd[i]);
                for t in 0..LANE_GROUP {
                    aa[t] += a * yv[t];
                    ab[t] += b * yv[t];
                    ac[t] += c * yv[t];
                    ad[t] += d * yv[t];
                }
            }
            for t in 0..LANE_GROUP {
                x[j * nrhs + g + t] -= aa[t];
                x[(j + 1) * nrhs + g + t] -= ab[t];
                x[(j + 2) * nrhs + g + t] -= ac[t];
                x[(j + 3) * nrhs + g + t] -= ad[t];
            }
            g += LANE_GROUP;
        }
        for r in g..nrhs {
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for i in 0..m {
                let v = y[i * nrhs + r];
                a0 += ca[i] * v;
                a1 += cb[i] * v;
                a2 += cc[i] * v;
                a3 += cd[i] * v;
            }
            x[j * nrhs + r] -= a0;
            x[(j + 1) * nrhs + r] -= a1;
            x[(j + 2) * nrhs + r] -= a2;
            x[(j + 3) * nrhs + r] -= a3;
        }
        j += COL_UNROLL;
    }
    for j in j..k {
        let col = &l21[j * ldl..j * ldl + m];
        let mut g = 0;
        while g + LANE_GROUP <= nrhs {
            let mut acc = [0.0f64; LANE_GROUP];
            for (i, &lv) in col.iter().enumerate() {
                let yv = &y[i * nrhs + g..i * nrhs + g + LANE_GROUP];
                for t in 0..LANE_GROUP {
                    acc[t] += lv * yv[t];
                }
            }
            for t in 0..LANE_GROUP {
                x[j * nrhs + g + t] -= acc[t];
            }
            g += LANE_GROUP;
        }
        for r in g..nrhs {
            let mut acc = 0.0f64;
            for (i, &lv) in col.iter().enumerate() {
                acc += lv * y[i * nrhs + r];
            }
            x[j * nrhs + r] -= acc;
        }
    }
}

/// Solve `L X = B` in place, interleaved layout (`b[i*nrhs + r]`). The
/// triangle is processed in 4-column panels: solve the small diagonal
/// block, then rank-4-update the rows below through
/// [`gemm_block_sub_rm`]. Per lane the order is fixed and independent of
/// `nrhs`; there is no zero-skip (unlike the scalar [`crate::trsv::trsv_ln`]).
pub fn trsm_ln_rm(n: usize, nrhs: usize, l: &[f64], ldl: usize, b: &mut [f64], unit: bool) {
    debug_assert!(ldl >= n.max(1) && b.len() >= n * nrhs);
    let at = |i: usize, j: usize| j * ldl + i;
    let mut jp = 0;
    while jp + COL_UNROLL <= n {
        for jj in jp..jp + COL_UNROLL {
            let (head, tail) = b.split_at_mut((jj + 1) * nrhs);
            let rowj = &mut head[jj * nrhs..];
            if !unit {
                let d = l[at(jj, jj)];
                for v in rowj.iter_mut() {
                    *v /= d;
                }
            }
            for i in jj + 1..jp + COL_UNROLL {
                let lv = l[at(i, jj)];
                let row = &mut tail[(i - jj - 1) * nrhs..(i - jj) * nrhs];
                for (r, yv) in row.iter_mut().enumerate() {
                    *yv -= lv * rowj[r];
                }
            }
        }
        if jp + COL_UNROLL < n {
            let (x, y) = b.split_at_mut((jp + COL_UNROLL) * nrhs);
            gemm_block_sub_rm(
                n - jp - COL_UNROLL,
                COL_UNROLL,
                nrhs,
                &l[at(jp + COL_UNROLL, jp)..],
                ldl,
                &x[jp * nrhs..],
                y,
            );
        }
        jp += COL_UNROLL;
    }
    for jj in jp..n {
        let (head, tail) = b.split_at_mut((jj + 1) * nrhs);
        let rowj = &mut head[jj * nrhs..];
        if !unit {
            let d = l[at(jj, jj)];
            for v in rowj.iter_mut() {
                *v /= d;
            }
        }
        for i in jj + 1..n {
            let lv = l[at(i, jj)];
            let row = &mut tail[(i - jj - 1) * nrhs..(i - jj) * nrhs];
            for (r, yv) in row.iter_mut().enumerate() {
                *yv -= lv * rowj[r];
            }
        }
    }
}

/// Solve `L' X = B` in place, interleaved layout. Mirrors [`trsm_ln_rm`]:
/// tail columns first (descending), then 4-column panels descending, each
/// taking the below-panel contribution through [`gemm_block_t_sub_rm`]
/// before the small intra-panel sweep. Per lane the order is fixed and
/// independent of `nrhs`.
pub fn trsm_lt_rm(n: usize, nrhs: usize, l: &[f64], ldl: usize, b: &mut [f64], unit: bool) {
    debug_assert!(ldl >= n.max(1) && b.len() >= n * nrhs);
    let at = |i: usize, j: usize| j * ldl + i;
    let tail_start = n - n % COL_UNROLL;
    for jj in (tail_start..n).rev() {
        let (head, below) = b.split_at_mut((jj + 1) * nrhs);
        let rowj = &mut head[jj * nrhs..];
        let col = &l[at(jj + 1, jj)..at(n, jj)];
        let mut g = 0;
        while g + LANE_GROUP <= nrhs {
            let mut acc = [0.0f64; LANE_GROUP];
            for (i, &lv) in col.iter().enumerate() {
                let yv = &below[i * nrhs + g..i * nrhs + g + LANE_GROUP];
                for t in 0..LANE_GROUP {
                    acc[t] += lv * yv[t];
                }
            }
            for t in 0..LANE_GROUP {
                rowj[g + t] -= acc[t];
            }
            g += LANE_GROUP;
        }
        for r in g..nrhs {
            let mut acc = 0.0f64;
            for (i, &lv) in col.iter().enumerate() {
                acc += lv * below[i * nrhs + r];
            }
            rowj[r] -= acc;
        }
        if !unit {
            let d = l[at(jj, jj)];
            for v in rowj.iter_mut() {
                *v /= d;
            }
        }
    }
    let mut jp = tail_start;
    while jp >= COL_UNROLL {
        jp -= COL_UNROLL;
        if jp + COL_UNROLL < n {
            let (x, y) = b.split_at_mut((jp + COL_UNROLL) * nrhs);
            gemm_block_t_sub_rm(
                n - jp - COL_UNROLL,
                COL_UNROLL,
                nrhs,
                &l[at(jp + COL_UNROLL, jp)..],
                ldl,
                y,
                &mut x[jp * nrhs..],
            );
        }
        for jj in (jp..jp + COL_UNROLL).rev() {
            let (head, below) = b.split_at_mut((jj + 1) * nrhs);
            let rowj = &mut head[jj * nrhs..];
            for i in jj + 1..jp + COL_UNROLL {
                let lv = l[at(i, jj)];
                let row = &below[(i - jj - 1) * nrhs..(i - jj) * nrhs];
                for (r, v) in rowj.iter_mut().enumerate() {
                    *v -= lv * row[r];
                }
            }
            if !unit {
                let d = l[at(jj, jj)];
                for v in rowj.iter_mut() {
                    *v /= d;
                }
            }
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
}
