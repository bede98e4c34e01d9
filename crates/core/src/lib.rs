//! `parfact-core`: supernodal multifrontal sparse symmetric factorization —
//! the system of *"Sparse matrix factorization on massively parallel
//! computers"* (SC 2009), rebuilt in Rust.
//!
//! One front loop, three schedulers. The life of a front — assemble it
//! from the matrix and the children's update matrices, partially factor
//! it, keep the panel, hand the Schur complement up — is
//! `frontal::factor_front`, run by one loop (`seq::factor_run`) for every
//! engine's local fronts; the engines only decide which supernodes run
//! next and on which part of the factor slab:
//!
//! - [`seq`] — postorder on one thread; the correctness oracle;
//! - [`smp`] — shared-memory parallel: each thread factors its local
//!   subtrees of the proportional [`mapping`], and the top of the tree
//!   runs the same dense kernel with each of its updates split over the
//!   threads (real wall-clock speedups on this machine);
//! - [`dist`] — distributed-memory: subtree-to-subcube (proportional)
//!   mapping of the assembly tree onto ranks of a
//!   [`parfact_mpsim::Machine`]. Each rank runs its local subtrees through
//!   the same front loop, charged to its virtual clock; the fronts above
//!   them are block-cyclic 1-D/2-D distributed fronts with pipelined panel
//!   broadcasts, fed by the parallel extend-add. This is the paper's
//!   contribution.
//!
//! The solve phase has the same shape: one supernode step (the private
//! `sweep` module: forward and backward `trsm` + block `gemm` on
//! interleaved right-hand-side blocks, the child-row bookkeeping, the fused
//! permute-and-interleave) and three schedulers over it: the postorder
//! sweep in [`factor`], the subtree-mapped [`smp_solve`] (each thread
//! sweeps its local subtrees of the proportional [`mapping`], one thread
//! the top of the tree) and the leader-per-front `dist::solve`.
//!
//! Baselines the paper's method is measured against live in [`baseline`]:
//! the classic *fan-out* distributed column-Cholesky and a left-looking
//! simplicial sequential code.
//!
//! Most users want the [`solver::SparseCholesky`] façade:
//!
//! ```
//! use parfact_core::solver::{FactorOpts, SparseCholesky};
//! use parfact_sparse::gen;
//!
//! let a = gen::laplace2d(20, 20, gen::Stencil2d::FivePoint);
//! let b = vec![1.0; a.nrows()];
//! let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
//! let x = chol.solve(&b);
//! assert!(parfact_sparse::ops::sym_residual_inf(&a, &x, &b) < 1e-10);
//! ```
// Index loops over parallel arrays (`for j in 0..n` touching several
// slices) are the deliberate idiom of this numerical code; clippy's
// iterator rewrites obscure the subscript math.
#![allow(clippy::needless_range_loop)]
// The one `unsafe` block is the `madvise` call in `workspace::zeroed`,
// allowed where it stands.
#![deny(unsafe_code)]

pub mod analysis;
pub mod baseline;
pub mod dist;
pub mod error;
pub mod factor;
pub mod frontal;
pub mod mapping;
pub mod scalability;
pub mod seq;
pub mod smp;
pub mod smp_solve;
pub mod solver;
mod sweep;
pub mod workspace;

pub use error::FactorError;
pub use factor::{Factor, FactorKind};
pub use workspace::Workspace;

/// Re-export of the ordering selector for convenience.
pub type OrderingChoice = parfact_order::Method;
