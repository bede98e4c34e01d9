//! Naive (pre-packing) reference kernels.
//!
//! These are the original unpacked axpy-loop kernels the packed
//! implementations in [`crate::blas`] replaced. They are kept for two
//! reasons:
//!
//! - **correctness oracle** — the property tests compare the packed
//!   kernels against these over odd shapes, remainder tiles and
//!   non-trivial leading dimensions;
//! - **performance baseline** — `bench_pr2` and the `dense_kernels`
//!   criterion groups measure the packed kernels *against* these, so the
//!   speedup is tracked as evidence rather than asserted from memory.
//!
//! Do not use them in the factorization path.

/// Tile size along the shared (`k`) dimension.
const KC: usize = 64;
/// Tile size along the output-column (`n`) dimension.
const NC: usize = 128;

#[inline]
fn at(ld: usize, i: usize, j: usize) -> usize {
    j * ld + i
}

/// Reference `C ← α A Bᵀ + β C`: `A` is `m x k`, `B` is `n x k`, `C` is
/// `m x n`, all column-major with leading dimensions `lda`, `ldb`, `ldc`.
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
    if beta != 1.0 {
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
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for l0 in (0..k).step_by(KC) {
        let l1 = (l0 + KC).min(k);
        for j0 in (0..n).step_by(NC) {
            let j1 = (j0 + NC).min(n);
            for j in j0..j1 {
                let cj = j * ldc;
                for l in l0..l1 {
                    let blj = alpha * b[at(ldb, j, l)];
                    if blj == 0.0 {
                        continue;
                    }
                    let al = l * lda;
                    let (acol, ccol) = (&a[al..al + m], &mut c[cj..cj + m]);
                    for (cv, &av) in ccol.iter_mut().zip(acol) {
                        *cv += av * blj;
                    }
                }
            }
        }
    }
}

/// Reference lower-triangle rank-k update: `C ← α A Aᵀ + β C`, touching
/// only `C[i][j]` with `i >= j`. `A` is `n x k`, `C` is `n x n`.
// BLAS calling convention.
#[allow(clippy::too_many_arguments)]
// lint:allow(R7) reference kernel: the oracle `tests/properties.rs` holds the packed `gemm_nt_ln` to
pub fn syrk_ln(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    debug_assert!(lda >= n.max(1) && ldc >= n.max(1));
    if beta != 1.0 {
        for j in 0..n {
            let cj = &mut c[at(ldc, j, j)..at(ldc, n, j)];
            if beta == 0.0 {
                cj.fill(0.0);
            } else {
                for v in cj {
                    *v *= beta;
                }
            }
        }
    }
    if alpha == 0.0 || n == 0 || k == 0 {
        return;
    }
    for l0 in (0..k).step_by(KC) {
        let l1 = (l0 + KC).min(k);
        for j in 0..n {
            let cj = j * ldc;
            for l in l0..l1 {
                let alj = alpha * a[at(lda, j, l)];
                if alj == 0.0 {
                    continue;
                }
                let al = l * lda;
                let (acol, ccol) = (&a[al + j..al + n], &mut c[cj + j..cj + n]);
                for (cv, &av) in ccol.iter_mut().zip(acol) {
                    *cv += av * alj;
                }
            }
        }
    }
}
