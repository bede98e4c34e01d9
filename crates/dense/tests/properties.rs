//! Property-based tests for the dense kernels: agreement with naive
//! reference implementations on random shapes and values.

use parfact_dense::pack::CLayout;
use parfact_dense::{blas, chol, trsv, DMat};
use proptest::prelude::*;

/// Deterministic value stream from a seed (keeps shrinking meaningful).
fn fill(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 4000) as f64 / 1000.0 - 2.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_matches_naive(m in 1usize..24, n in 1usize..24, k in 0usize..24,
                          alpha in -2.0f64..2.0, beta in -2.0f64..2.0, seed in any::<u64>()) {
        let mut r = fill(seed);
        let a = DMat::from_fn(m, k, |_, _| r());
        let b = DMat::from_fn(n, k, |_, _| r());
        let c0 = DMat::from_fn(m, n, |_, _| r());
        let mut c = c0.clone();
        blas::gemm_nt(m, n, k, alpha, a.as_slice(), m, b.as_slice(), n, beta, c.as_mut_slice(), m);
        let mut want = a.matmul(&b.transpose());
        for j in 0..n {
            for i in 0..m {
                want[(i, j)] = alpha * want[(i, j)] + beta * c0[(i, j)];
            }
        }
        prop_assert!(c.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn lower_gram_update_matches_gemm_lower(n in 1usize..24, k in 0usize..24, seed in any::<u64>()) {
        let mut r = fill(seed);
        let a = DMat::from_fn(n, k, |_, _| r());
        let mut c = DMat::zeros(n, n);
        let (s, ldc) = (a.as_slice(), CLayout::Plain(n));
        blas::gemm_nt_ln(n, n, k, 1.0, s, n, s, n, c.as_mut_slice(), ldc, 1);
        let full = a.matmul(&a.transpose());
        for j in 0..n {
            for i in j..n {
                prop_assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-10);
            }
            for i in 0..j {
                prop_assert_eq!(c[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn potrf_roundtrip(n in 1usize..40, seed in any::<u64>()) {
        let mut r = fill(seed);
        let a = DMat::random_spd(n, &mut r);
        let mut l = a.clone();
        chol::potrf(n, l.as_mut_slice(), n).unwrap();
        l.zero_upper();
        let back = l.matmul(&l.transpose());
        for j in 0..n {
            for i in j..n {
                prop_assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-8 * (n as f64));
            }
        }
    }

    #[test]
    fn partial_then_full_equals_full(n in 2usize..40, split_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let npiv = ((n as f64) * split_frac) as usize;
        let mut r = fill(seed);
        let a = DMat::random_spd(n, &mut r);
        // Reference full factor.
        let mut lfull = a.clone();
        chol::potrf(n, lfull.as_mut_slice(), n).unwrap();
        // Partial, then factor the Schur complement with fresh panel
        // boundaries; the *panel columns* must agree exactly.
        let mut f = a.clone();
        chol::partial_potrf(n, npiv, f.as_mut_slice(), n).unwrap();
        for j in 0..npiv {
            for i in j..n {
                prop_assert!((f[(i, j)] - lfull[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ldlt_reconstructs(n in 1usize..30, seed in any::<u64>()) {
        let mut r = fill(seed);
        let a = DMat::random_spd(n, &mut r);
        let mut l = a.clone();
        let mut d = vec![0.0; n];
        chol::ldlt(n, l.as_mut_slice(), n, &mut d).unwrap();
        for j in 0..n {
            for i in j..n {
                let mut acc = 0.0;
                for k in 0..=j {
                    let lik = if i == k { 1.0 } else { l[(i, k)] };
                    let ljk = if j == k { 1.0 } else { l[(j, k)] };
                    acc += lik * d[k] * ljk;
                }
                prop_assert!((acc - a[(i, j)]).abs() < 1e-8 * (n as f64 + 1.0));
            }
        }
    }

    #[test]
    fn trsm_variants_invert(m in 1usize..16, n in 1usize..16, seed in any::<u64>()) {
        let mut r = fill(seed);
        let l = DMat::from_fn(n, n, |i, j| {
            if i > j { r() * 0.3 } else if i == j { 1.5 + r().abs() } else { 0.0 }
        });
        let x = DMat::from_fn(m, n, |_, _| r());
        let mut b = x.matmul(&l.transpose());
        blas::trsm_right_lt(m, n, l.as_slice(), n, b.as_mut_slice(), m);
        prop_assert!(b.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn trsv_pair_roundtrips(n in 1usize..32, seed in any::<u64>()) {
        let mut r = fill(seed);
        let l = DMat::from_fn(n, n, |i, j| {
            if i > j { r() * 0.4 } else if i == j { 1.0 + r().abs() } else { 0.0 }
        });
        let x0: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 1.0).collect();
        // Forward then "undo" by multiplying back.
        let mut y = x0.clone();
        trsv::trsv_ln(n, l.as_slice(), n, &mut y, false);
        // L y must equal x0.
        let mut back = vec![0.0; n];
        for j in 0..n {
            for i in j..n {
                back[i] += l[(i, j)] * y[j];
            }
        }
        for (a, b) in back.iter().zip(&x0) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

// ---- Packed-kernel properties: the BLIS-style core vs the naive oracle ----
//
// Shapes deliberately hit remainder tiles (sizes not divisible by MR/NR),
// non-trivial leading dimensions (lda > m), and, via the unit tests in
// `blas.rs`, blocking boundaries (> MC/NC/KC). `parfact_dense::naive` holds
// the pre-packing reference kernels.

/// Column-major `rows x cols` buffer with leading dimension `ld >= rows`,
/// filled from the value stream (padding rows included, so stray reads of
/// padding would corrupt results and fail the comparison).
fn padded(rows: usize, cols: usize, ld: usize, r: &mut impl FnMut() -> f64) -> Vec<f64> {
    (0..ld * cols.max(1)).map(|_| r()).collect::<Vec<_>>()[..ld * cols.max(1) - (ld - rows)]
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_gemm_matches_naive_on_padded_lds(
        m in 1usize..70, n in 1usize..70, k in 0usize..70,
        pa in 0usize..5, pb in 0usize..5, pc in 0usize..5,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0, seed in any::<u64>(),
    ) {
        let (lda, ldb, ldc) = (m + pa, n + pb, m + pc);
        let mut r = fill(seed);
        let a = padded(m, k, lda, &mut r);
        let b = padded(n, k, ldb, &mut r);
        let c0 = padded(m, n, ldc, &mut r);
        let mut c_packed = c0.clone();
        blas::gemm_nt(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_packed, ldc);
        let mut c_naive = c0;
        parfact_dense::naive::gemm_nt(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_naive, ldc);
        for j in 0..n {
            for i in 0..m {
                let (p, q) = (c_packed[j * ldc + i], c_naive[j * ldc + i]);
                prop_assert!((p - q).abs() < 1e-10 * (k as f64 + 1.0),
                             "({i},{j}): packed {p} vs naive {q}");
            }
        }
    }

    #[test]
    fn packed_lower_gram_update_matches_naive_syrk_on_padded_lds(
        n in 1usize..70, k in 0usize..70, pa in 0usize..5, pc in 0usize..5,
        alpha in -2.0f64..2.0, seed in any::<u64>(),
    ) {
        let (lda, ldc) = (n + pa, n + pc);
        let mut r = fill(seed);
        let a = padded(n, k, lda, &mut r);
        let c0 = padded(n, n, ldc, &mut r);
        let mut c_packed = c0.clone();
        blas::gemm_nt_ln(n, n, k, alpha, &a, lda, &a, lda, &mut c_packed, CLayout::Plain(ldc), 1);
        let mut c_naive = c0.clone();
        parfact_dense::naive::syrk_ln(n, k, alpha, &a, lda, 1.0, &mut c_naive, ldc);
        for j in 0..n {
            for i in j..n {
                let (p, q) = (c_packed[j * ldc + i], c_naive[j * ldc + i]);
                prop_assert!((p - q).abs() < 1e-10 * (k as f64 + 1.0),
                             "({i},{j}): packed {p} vs naive {q}");
            }
            // Strict upper triangle untouched by both.
            for i in 0..j {
                prop_assert_eq!(c_packed[j * ldc + i], c0[j * ldc + i]);
            }
        }
    }

    #[test]
    fn packed_gemm_entries_independent_of_tiling(
        m in 1usize..60, n in 1usize..24, k in 1usize..48, seed in any::<u64>(),
    ) {
        // The determinism contract of `parfact_dense::pack`: with k inside
        // one KC block, each output entry is one ascending-k dot chain, so
        // its bits cannot depend on where the entry falls in the tile grid.
        // Computing one column at a time moves every entry to tile column 0;
        // the bits must not change.
        let mut r = fill(seed);
        let a = padded(m, k, m, &mut r);
        let b = padded(n, k, n, &mut r);
        let c0 = padded(m, n, m, &mut r);
        let mut c_full = c0.clone();
        blas::gemm_nt(m, n, k, -1.0, &a, m, &b, n, 1.0, &mut c_full, m);
        for j in 0..n {
            let mut col = c0[j * m..(j + 1) * m].to_vec();
            blas::gemm_nt(m, 1, k, -1.0, &a, m, &b[j..], n, 1.0, &mut col, m);
            for i in 0..m {
                prop_assert_eq!(c_full[j * m + i].to_bits(), col[i].to_bits(),
                                "entry ({i},{j}) depends on tile position");
            }
        }
    }
}
