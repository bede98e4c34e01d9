//! Dense kernels for `parfact` frontal matrices.
//!
//! The multifrontal method turns a sparse factorization into a tree of
//! *dense* partial factorizations. This crate supplies those kernels in
//! pure Rust, mirroring the BLAS-3/LAPACK operations a production solver
//! would get from a vendor library:
//!
//! - [`blas`] — `gemm` (`C += A Bᵀ`), `syrk` (lower `C += A Aᵀ`), and the
//!   `trsm` variants the factorization needs, built on the packed
//!   register-blocked core in [`pack`];
//! - [`pack`] — BLIS-style packing + microkernel layer (MC/KC/NC cache
//!   blocks, `MR x NR` register tiles, thread-local packing arenas);
//! - [`naive`] — the pre-packing reference kernels, kept as correctness
//!   oracle and performance baseline;
//! - [`chol`] — blocked full and **partial** Cholesky (`LLᵀ`) and `LDLᵀ`
//!   factorizations of a front: factor the first `npiv` columns, form the
//!   Schur complement of the rest;
//! - [`bunch_kaufman`] — fully pivoted dense `LDLᵀ` (1×1/2×2 blocks) for
//!   general symmetric indefinite systems, with inertia computation;
//! - [`solve`] — the blocked multi-right-hand-side `trsm`/`gemm` kernels
//!   of the sparse solve phase (one interleaved layout);
//! - [`trsv`] — scalar single-vector triangular sweeps (small dense
//!   solves, and the reference [`solve`] is tested against);
//! - [`matrix`] — a small column-major matrix type for assembling fronts.
//!
//! All kernels work on **column-major** storage with an explicit leading
//! dimension, so they apply directly to sub-blocks of larger fronts.
// Index loops over parallel arrays (`for j in 0..n` touching several
// slices) are the deliberate idiom of this numerical code; clippy's
// iterator rewrites obscure the subscript math.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod bunch_kaufman;
pub mod chol;
pub mod error;
pub mod matrix;
pub mod naive;
pub mod pack;
pub mod solve;
pub mod trsv;

pub use error::DenseError;
pub use matrix::DMat;
