//! Dense kernels for `parfact` frontal matrices.
//!
//! The multifrontal method turns a sparse factorization into a tree of
//! *dense* partial factorizations. This crate supplies those kernels in
//! pure Rust, mirroring the BLAS-3/LAPACK operations a production solver
//! would get from a vendor library:
//!
//! - [`blas`] — `gemm` (`C += A Bᵀ`), its lower-triangle form (the Schur
//!   update, into a plain block or into the column strips the engines keep
//!   updates in), and the right-side panel `trsm` the factorization needs,
//!   built on the packed register-blocked core in [`pack`];
//! - [`pack`] — BLIS-style packing + microkernel layer (MC/KC/NC cache
//!   blocks, one driver over per-instruction-set `MR x NR` register tiles
//!   picked by CPU detection — [`kernel_name`] says which — and
//!   thread-local packing arenas);
//! - [`naive`] — the pre-packing reference kernels, kept as correctness
//!   oracle and performance baseline;
//! - [`chol`] — blocked full and **partial** Cholesky (`LLᵀ`) and `LDLᵀ`
//!   factorizations of a front: factor the first `npiv` columns, form the
//!   Schur complement of the rest — contiguous, or split into the pivot
//!   columns and the trailing block wherever the caller keeps them;
//! - [`solve`] — the blocked multi-right-hand-side `trsm`/`gemm` kernels
//!   of the sparse solve phase (one interleaved layout, one body per
//!   instruction set picked by the same CPU detection);
//! - [`trsv`] — scalar single-vector triangular sweeps, the reference
//!   [`solve`] is tested against.
//!
//! All kernels work on **column-major** storage with an explicit leading
//! dimension, so they apply directly to sub-blocks of larger fronts.
// Index loops over parallel arrays (`for j in 0..n` touching several
// slices) are the deliberate idiom of this numerical code; clippy's
// iterator rewrites obscure the subscript math.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod chol;
pub mod error;
pub mod naive;
pub mod pack;
pub mod solve;
pub mod trsv;

pub use error::DenseError;
pub use pack::kernel_name;

/// The tests' dense matrix type (`tests/common/dmat.rs`).
#[cfg(test)]
#[path = "../tests/common/dmat.rs"]
mod matrix;

/// Deterministic xorshift stream in `[-1, 1)` for the unit tests.
#[cfg(test)]
pub(crate) fn det_rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 2000) as f64 / 1000.0 - 1.0
    }
}
