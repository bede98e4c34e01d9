//! # parfact — sparse matrix factorization on massively parallel computers
//!
//! `parfact` is a direct solver for large sparse symmetric linear systems
//! `A x = b`, reproducing the system described in *"Sparse matrix
//! factorization on massively parallel computers"* (SC 2009): a supernodal
//! multifrontal Cholesky/LDLᵀ factorization parallelized with
//! subtree-to-subcube mapping and block-cyclic distributed fronts, together
//! with every substrate it depends on — fill-reducing orderings, symbolic
//! analysis, dense kernels, and a deterministic message-passing machine
//! simulator that stands in for MPI on a massively parallel machine.
//!
//! The workspace crates are re-exported here under short names:
//!
//! - [`sparse`] — matrix formats, Matrix Market I/O, problem generators
//! - [`dense`] — blocked dense kernels (GEMM/SYRK/TRSM, partial Cholesky)
//! - [`order`] — nested dissection, AMD, RCM
//! - [`symbolic`] — elimination tree, supernodes, symbolic factorization
//! - [`mpsim`] — message-passing machine simulator with an α–β cost model
//! - [`core`] — the multifrontal solver itself (sequential, SMP, distributed)
//!
//! ## Quickstart
//!
//! ```
//! use parfact::prelude::*;
//!
//! // A 2-D Laplacian on a 20x20 grid, in symmetric-lower CSC form.
//! let a = parfact::sparse::gen::laplace2d(20, 20, Stencil2d::FivePoint);
//! let b = vec![1.0; a.nrows()];
//!
//! let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
//! let out = chol.solve_with(RhsBlock::single(&b), &SolveOpts::new()).unwrap();
//!
//! let r = parfact::sparse::ops::sym_residual_inf(&a, &out.x, &b);
//! assert!(r < 1e-8);
//! ```
//!
//! Batched right-hand sides run through the same call — stack the columns
//! and describe the block:
//!
//! ```
//! use parfact::prelude::*;
//!
//! let a = parfact::sparse::gen::laplace2d(20, 20, Stencil2d::FivePoint);
//! let n = a.nrows();
//! let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
//!
//! let b: Vec<f64> = (0..n * 4).map(|i| (i % 3) as f64).collect(); // 4 RHS
//! let out = chol.solve_with(RhsBlock::new(&b, 4), &SolveOpts::new()).unwrap();
//! assert_eq!(out.x.len(), n * 4);
//! ```

pub use parfact_core as core;
pub use parfact_dense as dense;
pub use parfact_mpsim as mpsim;
pub use parfact_order as order;
pub use parfact_sparse as sparse;
pub use parfact_symbolic as symbolic;
pub use parfact_trace as trace;

// The façade types, at the crate root: factorize with
// `parfact::SparseCholesky` and inspect the run via `parfact::FactorReport`
// without spelling out the workspace layout.
pub use parfact_core::solver::{
    DistOpts, Engine, FactorOpts, RhsBlock, SolveEngine, SolveOpts, Solved, SparseCholesky,
};
pub use parfact_core::FactorKind;
pub use parfact_order::Method;
pub use parfact_trace::{FactorReport, TraceLevel};

/// Convenience re-exports for the common workflow.
pub mod prelude {
    pub use parfact_core::solver::{
        DistOpts, Engine, FactorOpts, RhsBlock, SolveEngine, SolveOpts, Solved, SparseCholesky,
    };
    pub use parfact_core::{FactorKind, OrderingChoice};
    pub use parfact_order::Method;
    pub use parfact_sparse::csc::CscMatrix;
    pub use parfact_sparse::gen::{Stencil2d, Stencil3d};
    pub use parfact_trace::{FactorReport, TraceLevel};
}
