//! Options of the solver façade: the engine that factors, the one that
//! solves, and the right-hand-side block a solve takes and returns.

use crate::dist::DistOpts;
use crate::factor::FactorKind;
use crate::smp::SmpOpts;
use parfact_order::Method;
use parfact_symbolic::AmalgOpts;
use parfact_trace::TraceLevel;

#[cfg(doc)]
use super::SparseCholesky;

/// Engine selection for the factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Single-threaded multifrontal.
    Sequential,
    /// Shared-memory parallel multifrontal.
    Smp(SmpOpts),
    /// Distributed multifrontal on the simulated message-passing machine.
    /// `LLᵀ` only; each simulated rank writes its share of the factor into
    /// the caller's slab in place, so `solve` works like the other engines.
    /// Reports carry per-rank statistics.
    Dist(DistOpts),
}

impl Engine {
    /// Stable engine name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Smp(_) => "smp",
            Engine::Dist(_) => "dist",
        }
    }
}

/// Options for [`SparseCholesky::factorize`].
///
/// Construct with the builder and override what you need:
///
/// ```
/// use parfact_core::solver::{Engine, FactorOpts};
/// use parfact_core::smp::SmpOpts;
///
/// let opts = FactorOpts::new()
///     .ordering(parfact_order::Method::default())
///     .engine(Engine::Smp(SmpOpts::default()));
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable, but new options
/// (like `trace`) can be added without breaking downstream code.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct FactorOpts {
    /// Fill-reducing ordering.
    pub ordering: Method,
    /// Supernode amalgamation.
    pub amalg: AmalgOpts,
    /// `LLᵀ` or `LDLᵀ`.
    pub kind: FactorKind,
    /// Execution engine.
    pub engine: Engine,
    /// Instrumentation level ([`TraceLevel::Off`] by default: every hook in
    /// the engines reduces to a single branch).
    pub trace: TraceLevel,
    /// Worker threads for the analysis phase (ordering + symbolic).
    /// `0` (the default) inherits the numeric engine's parallelism: the SMP
    /// engine's thread count, or the machine's available parallelism
    /// otherwise. The analysis result is bitwise identical at every thread
    /// count — this knob trades wall-clock only.
    pub analysis_threads: usize,
}

impl Default for FactorOpts {
    fn default() -> Self {
        FactorOpts {
            ordering: Method::default(),
            amalg: AmalgOpts::default(),
            kind: FactorKind::Llt,
            engine: Engine::Sequential,
            trace: TraceLevel::Off,
            analysis_threads: 0,
        }
    }
}

impl FactorOpts {
    /// Default options (alias of `Default`, reads better in builder chains).
    pub fn new() -> Self {
        FactorOpts::default()
    }

    /// Set the fill-reducing ordering.
    pub fn ordering(mut self, ordering: Method) -> Self {
        self.ordering = ordering;
        self
    }

    /// Set the supernode amalgamation options.
    pub fn amalg(mut self, amalg: AmalgOpts) -> Self {
        self.amalg = amalg;
        self
    }

    /// Choose `LLᵀ` or `LDLᵀ`.
    pub fn kind(mut self, kind: FactorKind) -> Self {
        self.kind = kind;
        self
    }

    /// Choose the execution engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Set the analysis-phase worker count (`0` = inherit from the engine).
    pub fn analysis_threads(mut self, threads: usize) -> Self {
        self.analysis_threads = threads;
        self
    }

    /// Set the instrumentation level.
    pub fn trace(mut self, trace: TraceLevel) -> Self {
        self.trace = trace;
        self
    }

    /// The analysis-phase worker count this option set resolves to.
    pub fn resolved_analysis_threads(&self) -> usize {
        if self.analysis_threads > 0 {
            return self.analysis_threads;
        }
        match &self.engine {
            Engine::Smp(smp) => crate::smp::resolve_threads(smp.threads),
            _ => crate::smp::resolve_threads(0),
        }
    }
}

/// Engine selection for the solve phase, independent of the engine that
/// produced the factor (the factor is host-resident under every
/// [`Engine`], so any solve engine applies to any factor).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveEngine {
    /// Let the solver pick. Currently the subtree-mapped sweep of
    /// [`SolveEngine::Smp`] on every available core when the machine has
    /// more than one and the solve is at least
    /// [`crate::smp_solve::AUTO_MIN_WORK`] in size
    /// ([`crate::smp_solve::solve_work`]), else the blocked sequential
    /// sweep, which needs no threads. Both give the same bits;
    /// [`SparseCholesky::report_with_solve`] records the thread count
    /// (`SolveReport::threads`).
    #[default]
    Auto,
    /// The sweeps on the paper's subtree mapping: each of `threads` threads
    /// sweeps its own local subtrees of the proportional mapping, one
    /// thread the top of the tree. `threads: 0` sizes it from the machine;
    /// one thread runs the sequential sweep. Every supernode folds its
    /// children in assembly-tree child order, as in the sequential sweep,
    /// so every thread count gives the same bits as `Auto`.
    Smp {
        /// Worker threads (0 = auto).
        threads: usize,
    },
}

/// Options for [`SparseCholesky::solve_with`], mirroring the
/// [`FactorOpts`] builder. `#[non_exhaustive]`: construct with
/// [`SolveOpts::new`] and override what you need.
///
/// ```
/// use parfact_core::solver::{SolveEngine, SolveOpts};
///
/// let opts = SolveOpts::new()
///     .refine(2)
///     .engine(SolveEngine::Smp { threads: 4 });
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveOpts {
    /// Iterative-refinement correction steps (`x += A⁻¹ (b − A x)`),
    /// applied per column against the factored (permuted) matrix. `0` by
    /// default.
    pub refine: usize,
    /// Execution engine for the triangular sweeps.
    pub engine: SolveEngine,
    /// Compute [`Solved::residual`] even when no refinement runs. Off by
    /// default: the extra matrix-vector product per column is pure
    /// diagnostics cost.
    pub residual: bool,
}

impl SolveOpts {
    /// Default options (alias of `Default`, reads better in builder chains).
    pub fn new() -> Self {
        SolveOpts::default()
    }

    /// Set the number of iterative-refinement steps.
    pub fn refine(mut self, iters: usize) -> Self {
        self.refine = iters;
        self
    }

    /// Choose the solve engine.
    pub fn engine(mut self, engine: SolveEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Request the final residual in [`Solved::residual`] even without
    /// refinement steps.
    pub fn residual(mut self, compute: bool) -> Self {
        self.residual = compute;
        self
    }
}

/// A borrowed right-hand-side block: `nrhs` vectors of length `n` stored
/// column-major in one flat slice. The typed view keeps `solve_with` from
/// guessing how a flat slice splits into columns.
#[derive(Debug, Clone, Copy)]
pub struct RhsBlock<'a> {
    data: &'a [f64],
    nrhs: usize,
}

impl<'a> RhsBlock<'a> {
    /// View `data` as `nrhs` columns (validated against the factored
    /// system's order inside [`SparseCholesky::solve_with`]).
    pub fn new(data: &'a [f64], nrhs: usize) -> Self {
        RhsBlock { data, nrhs }
    }

    /// A single right-hand side.
    pub fn single(b: &'a [f64]) -> Self {
        RhsBlock { data: b, nrhs: 1 }
    }

    /// The flat column-major storage.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Number of right-hand-side columns.
    pub fn ncols(&self) -> usize {
        self.nrhs
    }
}

/// Result of [`SparseCholesky::solve_with`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// Solution block, `n x nrhs` column-major (same layout as the input
    /// [`RhsBlock`]).
    pub x: Vec<f64>,
    /// Final residual ∞-norm over all columns, reported in the caller's
    /// (original) system: permutation leaves the ∞-norm alone. `Some` when
    /// refinement ran
    /// (`SolveOpts::refine > 0`) or `SolveOpts::residual` asked for it.
    pub residual: Option<f64>,
}
