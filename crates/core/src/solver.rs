//! High-level solver façade: ordering → symbolic analysis → numeric
//! factorization → solve, with engine and ordering selection and a
//! uniform observability surface ([`FactorReport`]) across all three
//! engines.

use crate::dist;
use crate::error::FactorError;
use crate::factor::{Factor, FactorKind};
use crate::mapping::MapStrategy;
use crate::smp::SmpOpts;
use crate::workspace::Workspace;
use parfact_mpsim::model::CostModel;
use parfact_mpsim::FaultPlan;
use parfact_order::Method;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::ops::norm_inf;
use parfact_sparse::SparseError;
use parfact_symbolic::{analyze_with, AmalgOpts, Symbolic};
use parfact_trace::{Collector, Counters, FactorReport, Phase, SolveReport, SpanEvent, TraceLevel};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Options for the simulator-backed distributed engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DistOpts {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Machine cost model for the simulated clocks.
    pub model: CostModel,
    /// Assembly-tree-to-rank mapping strategy.
    pub strategy: MapStrategy,
    /// Run the strict-postorder blocking schedule instead of the default
    /// event-driven one (the EXP-A7 ablation baseline). The factor is
    /// bitwise identical either way; only the simulated clocks differ.
    /// Combined with `checkpoint` (whose deferred sends need the
    /// event-driven loop) the run is [`FactorError::Unsupported`].
    pub sync_schedule: bool,
    /// Deterministic fault-injection plan for the simulated machine (see
    /// [`FaultPlan::parse`] for the `crash:`/`delay:`/`dup:` grammar).
    /// Empty by default: the fault machinery is entirely bypassed.
    pub faults: FaultPlan,
    /// Machine-wide receive deadline in virtual seconds. `None` derives a
    /// generous one from the cost model when `faults` is non-empty, and
    /// disables timeouts otherwise.
    pub recv_timeout_s: Option<f64>,
    /// Record per-rank checkpoints at distributed-front epochs so an
    /// injected crash restarts from the last consistent epoch instead of
    /// from scratch. The recovered factor is bitwise identical either way.
    pub checkpoint: bool,
    /// Restart attempts after a fault verdict before the typed error
    /// ([`FactorError::RankFailed`] / [`FactorError::TimedOut`]) surfaces.
    pub max_restarts: usize,
}

impl Default for DistOpts {
    fn default() -> Self {
        DistOpts {
            ranks: 4,
            model: CostModel::bluegene_p(),
            strategy: MapStrategy::default(),
            sync_schedule: false,
            faults: FaultPlan::new(),
            recv_timeout_s: None,
            checkpoint: false,
            max_restarts: 2,
        }
    }
}

/// Engine selection for the factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Single-threaded multifrontal.
    Sequential,
    /// Shared-memory parallel multifrontal.
    Smp(SmpOpts),
    /// Distributed multifrontal on the simulated message-passing machine.
    /// `LLᵀ` only; the factor is gathered to the host, so `solve` works
    /// like the other engines. Reports carry per-rank statistics.
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
    /// Let the solver pick. Currently the blocked sequential sweep, which
    /// needs no thread pool.
    #[default]
    Auto,
    /// Tree-parallel shared-memory sweep over the assembly tree.
    /// `threads: 0` sizes the pool from the machine; a pool of one falls
    /// back to the sequential sweep. Contributions fold in assembly-tree
    /// child order regardless of scheduling, as in the sequential sweep,
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
    /// applied per column against the factored (permuted, possibly
    /// equilibrated) matrix. `0` by default.
    pub refine: usize,
    /// Execution engine for the triangular sweeps.
    pub engine: SolveEngine,
    /// Symmetric equilibration scale `d`: set when the factor was computed
    /// from `D·A·D` (see [`crate::analysis::equilibrate`]); the solve then
    /// returns `x = D · (DAD)⁻¹ · D b`, the solution of the original
    /// system.
    pub scale: Option<Vec<f64>>,
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

    /// Declare the factor equilibrated with scale `d` (from
    /// [`crate::analysis::equilibrate`]); right-hand sides are scaled by
    /// `D` on the way in and solutions by `D` on the way out.
    pub fn equilibrate(mut self, d: Vec<f64>) -> Self {
        self.scale = Some(d);
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
    /// (original) system: permutation leaves the ∞-norm alone, and under
    /// equilibration the scaled-space residual `r̂ = D(b − A x)` is
    /// unscaled by `D⁻¹` before the norm. `Some` when refinement ran
    /// (`SolveOpts::refine > 0`) or `SolveOpts::residual` asked for it.
    pub residual: Option<f64>,
}

/// Interior-mutable solve-phase accumulator: `solve_with` takes `&self`,
/// but every solve feeds counts, wall-clock, flops, and (when the session
/// traces at timeline level) spans into the report.
#[derive(Default)]
struct SolveStats(Mutex<SolveStatsInner>);

#[derive(Default)]
struct SolveStatsInner {
    solves: u64,
    rhs: u64,
    seconds: f64,
    flops: f64,
    /// Solve spans in solve-local time: consecutive solves are laid
    /// end-to-end from 0; `report_with_solve` shifts them past the factor
    /// spans.
    spans: Vec<SpanEvent>,
    cursor_s: f64,
}

impl SolveStats {
    fn accumulate(
        &self,
        nrhs: usize,
        seconds: f64,
        flops: f64,
        mut spans: Vec<SpanEvent>,
        timeline: bool,
    ) {
        let mut g = self.0.lock().unwrap();
        g.solves += 1;
        g.rhs += nrhs as u64;
        g.seconds += seconds;
        g.flops += flops;
        if timeline {
            if spans.is_empty() {
                // Engines without per-supernode solve hooks (the sequential
                // sweep) still contribute one whole-solve span.
                spans.push(SpanEvent {
                    phase: Phase::Solve,
                    supernode: None,
                    who: 0,
                    start_s: 0.0,
                    dur_s: seconds,
                });
            }
            let base = g.cursor_s;
            let mut end = base;
            for mut s in spans {
                s.start_s += base;
                end = end.max(s.start_s + s.dur_s);
                g.spans.push(s);
            }
            g.cursor_s = end;
        }
    }
}

/// The first stored NaN or infinity of `a` (column-major), as a typed error.
fn check_finite(a: &CscMatrix) -> Result<(), FactorError> {
    let Some(k) = a.values().iter().position(|v| !v.is_finite()) else {
        return Ok(());
    };
    let col = a.colptr().partition_point(|&p| p <= k) - 1;
    Err(FactorError::NonFinite {
        row: a.rowind()[k],
        col,
    })
}

/// A factorized sparse symmetric system.
pub struct SparseCholesky {
    factor: Factor,
    report: FactorReport,
    trace: TraceLevel,
    /// The permuted matrix actually factored (kept for refinement).
    ap: CscMatrix,
    /// Numeric-factorization arenas, reused across `refactorize` calls so
    /// the steady state allocates nothing per supernode.
    ws: Workspace,
    /// Solve-phase accumulator (counts, time, flops, spans). Interior
    /// mutability keeps `solve_with` callable through `&self`.
    solve_stats: SolveStats,
}

impl SparseCholesky {
    /// Order, analyze and factor `a` (symmetric-lower CSC).
    ///
    /// All engines share one error contract: a stored NaN or infinity is
    /// [`FactorError::NonFinite`], a matrix that is not positive definite
    /// [`FactorError::NotPositiveDefinite`]. Under
    /// [`Engine::Dist`] the failing simulated rank reports the error and
    /// the machine unblocks its peers — no panic, no hang. `Dist` +
    /// [`FactorKind::Ldlt`] returns [`FactorError::Unsupported`].
    pub fn factorize(a: &CscMatrix, opts: &FactorOpts) -> Result<Self, FactorError> {
        a.check_sym_lower()?;
        check_finite(a)?;
        // The analysis phase records into its own collector so its stage
        // counters and spans never mix with a numeric engine's. Span
        // recording follows the session level; below `Timeline` only the
        // per-stage second counters are kept.
        let analysis_threads = opts.resolved_analysis_threads();
        let alevel = if opts.trace.timeline() {
            TraceLevel::Timeline
        } else if opts.trace != TraceLevel::Off {
            TraceLevel::Counters
        } else {
            TraceLevel::Off
        };
        let atr = Collector::new(alevel);
        // lint:allow(R1) phase timers: report wall time of real host work
        let t0 = Instant::now();
        let fill = parfact_order::order_matrix_with(a, opts.ordering, analysis_threads, &atr);
        // lint:allow(R1) phase timers: report wall time of real host work
        let t1 = Instant::now();
        let af = fill.apply_sym_lower(a);
        let (sym, ap) = analyze_with(&af, &opts.amalg, analysis_threads, &atr);
        let total_perm = sym.post.compose(&fill);
        let sym = Arc::new(sym);
        // lint:allow(R1) phase timers: report wall time of real host work
        let t2 = Instant::now();
        let analysis = (alevel != TraceLevel::Off).then(|| {
            parfact_trace::AnalysisReport::from_counters(&atr.snapshot(), analysis_threads)
        });
        let mut report = FactorReport {
            engine: String::new(),
            n: sym.n,
            nnz_a: ap.nnz(),
            factor_nnz: sym.factor_nnz(),
            nsuper: sym.nsuper(),
            predicted_flops: sym.factor_flops(),
            refactorizations: 0,
            ordering_s: (t1 - t0).as_secs_f64(),
            symbolic_s: (t2 - t1).as_secs_f64(),
            numeric_s: 0.0,
            counters: Counters::default(),
            ranks: Vec::new(),
            spans: Vec::new(),
            profile: None,
            analysis,
            solve: None,
            faults: None,
            scalability: None,
        };
        let mut ws = Workspace::new();
        let mut factor = Factor::allocate(&sym, opts.kind, total_perm);
        numeric_phase(
            &ap,
            &opts.engine,
            opts.trace,
            atr.take_spans(),
            &mut ws,
            &mut factor,
            &mut report,
        )?;
        Ok(SparseCholesky {
            factor,
            report,
            trace: opts.trace,
            ap,
            ws,
            solve_stats: SolveStats::default(),
        })
    }

    /// Refactorize with the same symbolic analysis (new values, same
    /// pattern) — the production pattern for time-stepping simulations.
    ///
    /// The analysis placed every stored entry of the matrix in its front
    /// (`Symbolic::a_pos`), so `a` must have exactly the pattern that was
    /// analyzed. Input is checked before any engine runs, and a rejected
    /// call leaves the stored factor untouched: a matrix that is not
    /// symmetric-lower, or of another order, is
    /// [`FactorError::BadStructure`]; one that stores a NaN or an infinity
    /// is [`FactorError::NonFinite`]; one with another pattern is
    /// [`FactorError::Unsupported`] (call [`SparseCholesky::factorize`]).
    ///
    /// Host engines (`Sequential`, `Smp`) overwrite the stored factor **in
    /// place** through the solver's retained [`Workspace`] arenas, so a
    /// steady-state refactorization performs no per-supernode heap
    /// allocation (the distributed engine gathers a fresh factor from the
    /// simulated machine and replaces the stored one wholesale).
    /// Consequence of in-place operation: if the factorization itself fails
    /// (e.g. the new values are not positive definite), the stored factor is
    /// partially overwritten and numerically invalid — call `refactorize`
    /// again with good values (or rebuild with
    /// [`SparseCholesky::factorize`]) before trusting `solve`.
    ///
    /// Report semantics: `ordering_s` and `symbolic_s` keep the one-time
    /// analysis cost (it was genuinely reused, not re-paid), while
    /// `numeric_s`, `counters`, `ranks`, and `spans` describe the **latest**
    /// numeric factorization; `refactorizations` counts how many times the
    /// numeric phase has been redone.
    pub fn refactorize(&mut self, a: &CscMatrix, engine: Engine) -> Result<(), FactorError> {
        a.check_sym_lower()?;
        check_finite(a)?;
        let n = self.factor.sym.n;
        if a.ncols() != n {
            return Err(SparseError::DimMismatch {
                expected: n,
                got: a.ncols(),
            }
            .into());
        }
        let ap_new = self.factor.perm.apply_sym_lower(a);
        if ap_new.colptr() != self.ap.colptr() || ap_new.rowind() != self.ap.rowind() {
            return Err(FactorError::Unsupported(
                "refactorize needs the analyzed sparsity pattern; factorize a new pattern"
                    .to_string(),
            ));
        }
        numeric_phase(
            &ap_new,
            &engine,
            self.trace,
            Vec::new(),
            &mut self.ws,
            &mut self.factor,
            &mut self.report,
        )?;
        self.ap = ap_new;
        self.report.refactorizations += 1;
        Ok(())
    }

    /// Solve `A x = b` (legacy shim; **panics** if `b.len()` is wrong).
    /// Prefer [`SparseCholesky::solve_with`], which returns
    /// [`FactorError::DimensionMismatch`] instead and batches, refines and
    /// records solve statistics.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_with(RhsBlock::single(b), &SolveOpts::new())
            .expect("SparseCholesky::solve")
            .x
    }

    /// Solve `A X = B` for a right-hand-side block under [`SolveOpts`]:
    /// the unified entry point (batching, refinement, equilibration).
    ///
    /// All `nrhs` columns stream through the factor panels together
    /// (BLAS-3 blocked sweeps), and every column's floating-point operation
    /// order is independent of `nrhs` — on any given engine, batched
    /// results are bitwise identical to one-at-a-time solves.
    ///
    /// ```
    /// use parfact_core::solver::{FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
    ///
    /// let a = parfact_sparse::gen::laplace2d(8, 8, parfact_sparse::gen::Stencil2d::FivePoint);
    /// let chol = SparseCholesky::factorize(&a, &FactorOpts::new()).unwrap();
    /// let b = vec![1.0; 64 * 2]; // two stacked right-hand sides
    /// let out = chol.solve_with(RhsBlock::new(&b, 2), &SolveOpts::new()).unwrap();
    /// assert_eq!(out.x.len(), 64 * 2);
    /// ```
    pub fn solve_with(&self, b: RhsBlock<'_>, opts: &SolveOpts) -> Result<Solved, FactorError> {
        let n = self.factor.sym.n;
        let nrhs = b.nrhs;
        if b.data.len() != n * nrhs {
            return Err(FactorError::DimensionMismatch {
                expected: n * nrhs,
                got: b.data.len(),
            });
        }
        if let Some(d) = &opts.scale {
            if d.len() != n {
                return Err(FactorError::DimensionMismatch {
                    expected: n,
                    got: d.len(),
                });
            }
        }
        // lint:allow(R1) solve-phase timer: reports wall time of real host work
        let t0 = Instant::now();
        // Equilibrated systems: the factor holds D·A·D, so solve against
        // the scaled right-hand side and unscale the solution.
        let mut bs = b.data.to_vec();
        if let Some(d) = &opts.scale {
            for col in bs.chunks_mut(n.max(1)) {
                for (v, &di) in col.iter_mut().zip(d) {
                    *v *= di;
                }
            }
        }
        let tr = Collector::new(self.trace);
        let mut x = match opts.engine {
            SolveEngine::Auto => self.factor.try_solve_many(&bs, nrhs)?,
            SolveEngine::Smp { threads } => {
                crate::smp_solve::solve_smp_many_traced(&self.factor, &bs, nrhs, threads, &tr)?
            }
        };
        // Iterative refinement, per column, in the permuted space of the
        // matrix actually factored (no original-matrix argument needed).
        let mut residual = None;
        if opts.refine > 0 || opts.residual {
            let perm = &self.factor.perm;
            let mut worst = Vec::with_capacity(nrhs);
            for col in 0..nrhs {
                let bp = perm.apply_vec(&bs[col * n..(col + 1) * n]);
                let mut xp = perm.apply_vec(&x[col * n..(col + 1) * n]);
                for _ in 0..opts.refine {
                    let mut rp = parfact_sparse::ops::sym_residual(&self.ap, &xp, &bp);
                    if norm_inf(&rp) == 0.0 {
                        break;
                    }
                    self.factor.solve_permuted(&mut rp, 1);
                    for (xi, di) in xp.iter_mut().zip(&rp) {
                        *xi += di;
                    }
                }
                let mut rp = parfact_sparse::ops::sym_residual(&self.ap, &xp, &bp);
                // The factored matrix is D·A·D under equilibration, so
                // `rp` is the scaled residual r̂ = D(b − A x); the caller's
                // residual is D⁻¹ r̂ (entry k sits at original row
                // `old_of_new(k)`). Reporting r̂ itself was a bug: D
                // shrinks exactly the rows equilibration targets, making
                // ill-scaled systems look better converged than they are.
                if let Some(d) = &opts.scale {
                    for (k, v) in rp.iter_mut().enumerate() {
                        *v /= d[perm.old_of_new(k)];
                    }
                }
                worst.push(norm_inf(&rp));
                if opts.refine > 0 {
                    x[col * n..(col + 1) * n].copy_from_slice(&perm.apply_inv_vec(&xp));
                }
            }
            // `norm_inf`, not `f64::max`: a NaN column is never hidden.
            residual = Some(norm_inf(&worst));
        }
        if let Some(d) = &opts.scale {
            for col in x.chunks_mut(n.max(1)) {
                for (v, &di) in col.iter_mut().zip(d) {
                    *v *= di;
                }
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        // 4·nnz(L) flops per column per sweep pair, once for the base solve
        // and once per refinement step (the spmv residuals add 4·nnz(A)).
        let per_col = 4.0 * self.factor.nnz() as f64;
        let flops = per_col * nrhs as f64 * (1.0 + opts.refine as f64)
            + 4.0 * self.ap.nnz() as f64 * nrhs as f64 * opts.refine as f64;
        self.solve_stats
            .accumulate(nrhs, seconds, flops, tr.take_spans(), self.trace.timeline());
        Ok(Solved { x, residual })
    }

    /// Start a [`SolveSession`] that accumulates right-hand sides and
    /// flushes them through [`SparseCholesky::solve_with`] in
    /// kernel-friendly blocks (default 32 columns).
    pub fn solve_session(&self, opts: SolveOpts) -> SolveSession<'_> {
        SolveSession {
            chol: self,
            opts,
            capacity: 32,
            pending: Vec::new(),
            columns: 0,
            solved: Vec::new(),
        }
    }

    /// The factorization record enriched with the solve phase: a
    /// [`FactorReport`] whose `solve` section aggregates every
    /// [`SparseCholesky::solve_with`]/[`SolveSession`] call so far, and —
    /// at [`TraceLevel::Timeline`] — whose span stream gains the solve
    /// spans, laid out after the factorization spans so Chrome-trace
    /// exports show both phases on one time axis.
    pub fn report_with_solve(&self) -> FactorReport {
        let mut r = self.report.clone();
        let g = self.solve_stats.0.lock().unwrap();
        if g.solves > 0 {
            r.solve = Some(SolveReport {
                solves: g.solves,
                rhs: g.rhs,
                seconds: g.seconds,
                flops: g.flops,
            });
            if !g.spans.is_empty() {
                let base = r
                    .spans
                    .iter()
                    .map(|s| s.start_s + s.dur_s)
                    .fold(0.0f64, f64::max);
                r.spans.extend(g.spans.iter().map(|s| {
                    let mut s = s.clone();
                    s.start_s += base;
                    s
                }));
            }
        }
        r
    }

    /// The underlying factor.
    pub fn factor(&self) -> &Factor {
        &self.factor
    }

    /// The symbolic analysis.
    pub fn symbolic(&self) -> &Symbolic {
        &self.factor.sym
    }

    /// The full factorization record: phase times, counters, per-rank
    /// statistics (distributed engine), span events (at
    /// [`TraceLevel::Full`]). Serializable via
    /// [`FactorReport::to_json_string`].
    pub fn report(&self) -> &FactorReport {
        &self.report
    }

    /// Factor nonzeros (padding included).
    pub fn factor_nnz(&self) -> usize {
        self.factor.nnz()
    }

    /// Predicted factorization flops.
    pub fn factor_flops(&self) -> f64 {
        self.factor.sym.factor_flops()
    }

    /// How many times the retained numeric workspace had to grow a buffer
    /// (see [`Workspace::growth_events`]). Stays flat across steady-state
    /// host-engine refactorizations — the arena-reuse guarantee.
    pub fn workspace_growth_events(&self) -> u64 {
        self.ws.growth_events()
    }
}

/// Accumulates right-hand sides and solves them in blocks.
///
/// Callers that receive right-hand sides one at a time (time steppers,
/// request loops) would otherwise pay a full factor-panel traversal per
/// vector; the session buffers up to `capacity` columns and runs each
/// flush as one blocked [`SparseCholesky::solve_with`] call. Results come
/// back in push order from [`SolveSession::finish`]. Batching never
/// changes the answers: the blocked sweeps are bitwise identical per
/// column regardless of block size.
pub struct SolveSession<'a> {
    chol: &'a SparseCholesky,
    opts: SolveOpts,
    capacity: usize,
    /// Buffered columns, column-major.
    pending: Vec<f64>,
    /// How many columns `pending` holds (counted: on an order-0 system
    /// every column is empty).
    columns: usize,
    /// Solved columns in push order.
    solved: Vec<Vec<f64>>,
}

impl SolveSession<'_> {
    /// Override the flush threshold (columns per blocked solve; min 1,
    /// default 32).
    pub fn capacity(mut self, cols: usize) -> Self {
        self.capacity = cols.max(1);
        self
    }

    /// Queue one right-hand side; flushes automatically when `capacity`
    /// columns have accumulated.
    pub fn push(&mut self, b: &[f64]) -> Result<(), FactorError> {
        let n = self.chol.factor.sym.n;
        if b.len() != n {
            return Err(FactorError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        self.pending.extend_from_slice(b);
        self.columns += 1;
        if self.columns >= self.capacity {
            self.flush()?;
        }
        Ok(())
    }

    /// Columns buffered but not yet solved.
    pub fn pending(&self) -> usize {
        self.columns
    }

    /// Solve everything buffered (no-op when empty).
    pub fn flush(&mut self) -> Result<(), FactorError> {
        if self.columns == 0 {
            return Ok(());
        }
        let n = self.chol.factor.sym.n;
        let nrhs = self.columns;
        let out = self
            .chol
            .solve_with(RhsBlock::new(&self.pending, nrhs), &self.opts)?;
        for col in 0..nrhs {
            self.solved.push(out.x[col * n..(col + 1) * n].to_vec());
        }
        self.pending.clear();
        self.columns = 0;
        Ok(())
    }

    /// Flush the tail and return every solution, in push order.
    pub fn finish(mut self) -> Result<Vec<Vec<f64>>, FactorError> {
        self.flush()?;
        Ok(self.solved)
    }
}

/// How many blocking edges the timeline profile keeps in the report.
const PROFILE_TOP_K: usize = 8;

/// Critical-path / idle analysis of a timeline-traced run. `None` unless
/// the run was traced at [`TraceLevel::Timeline`] and produced spans.
fn timeline_profile(
    sym: &Symbolic,
    trace: TraceLevel,
    spans: &[parfact_trace::SpanEvent],
    ranks: &[parfact_trace::RankReport],
) -> Option<parfact_trace::ProfileReport> {
    if !trace.timeline() || spans.is_empty() {
        return None;
    }
    Some(parfact_trace::profile::analyze(
        &sym.tree.parent,
        spans,
        ranks,
        PROFILE_TOP_K,
    ))
}

/// Per-worker rows for the host engines, in the shared rank-report schema:
/// `rank` is the worker id, `clock_s` stays zero (host workers have no
/// virtual clock — [`parfact_trace::FactorReport::sim_makespan_s`] treats
/// all-zero clocks as "no simulated makespan"), and `mem_peak_bytes` is
/// the worker's own allocation high-water mark.
fn worker_ranks(tr: &Collector) -> Vec<parfact_trace::RankReport> {
    tr.worker_summaries()
        .into_iter()
        .map(|w| parfact_trace::RankReport {
            rank: w.who,
            compute_s: w.compute_s,
            flops: w.flops,
            mem_peak_bytes: w.mem_peak_bytes,
            ..parfact_trace::RankReport::default()
        })
        .collect()
}

/// Predicted-vs-measured scalability rows for a host engine: the model at
/// `p = 1` (all-local mapping: zero traffic, factor + largest front
/// memory) against the workers' measured peaks.
fn host_scalability(
    sym: &Symbolic,
    ranks: &[parfact_trace::RankReport],
) -> Option<parfact_trace::ScalabilityReport> {
    if ranks.is_empty() {
        return None;
    }
    let map = crate::mapping::map_tree(sym, 1, crate::mapping::MapStrategy::default());
    let pred = crate::scalability::predict(sym, &map);
    Some(parfact_trace::ScalabilityReport {
        nranks: ranks.len(),
        ranks: ranks
            .iter()
            .map(|r| parfact_trace::RankScalability {
                rank: r.rank,
                measured_bytes: r.bytes_sent,
                predicted_bytes: 0.0,
                measured_mem_peak: r.mem_peak_bytes,
                // Every worker shares one address space; the single-rank
                // model bounds the whole process.
                predicted_mem_peak: pred.mem[0],
            })
            .collect(),
        comm: None,
    })
}

/// One numeric factorization of `ap` into `factor` (allocated under the
/// symbolic analysis it carries), timed and recorded into `report` — the
/// single dispatch and report-assembly path behind
/// [`SparseCholesky::factorize`] and [`SparseCholesky::refactorize`].
/// `engine`, `numeric_s`, `counters`, `ranks`, `spans` (the analysis-phase
/// spans passed in, then this run's), `faults` (`Some` only for
/// fault-injected distributed runs), `scalability` and `profile` describe
/// this run; the rest of the report is left alone, and all of it on error.
///
/// Host engines overwrite the factor's slab in place through the arenas in
/// `ws`; the distributed engine gathers a fresh factor from the simulated
/// machine and replaces `*factor` wholesale.
fn numeric_phase(
    ap: &CscMatrix,
    engine: &Engine,
    trace: TraceLevel,
    mut spans: Vec<SpanEvent>,
    ws: &mut Workspace,
    factor: &mut Factor,
    report: &mut FactorReport,
) -> Result<(), FactorError> {
    let sym = Arc::clone(&factor.sym);
    // lint:allow(R1) numeric-phase timer: reports wall time of real host work
    let t0 = Instant::now();
    if let Engine::Dist(d) = engine {
        if factor.kind != FactorKind::Llt {
            return Err(FactorError::Unsupported(
                "the distributed engine factors LLt only; use Sequential or Smp for LDLt"
                    .to_string(),
            ));
        }
        // Rank statistics come from the simulator and are always collected;
        // span events (compute, comm, wait lanes in virtual time) are
        // recorded only at `TraceLevel::Timeline`, the comm matrix whenever
        // tracing is on.
        let run = dist::DistRun {
            strategy: d.strategy,
            sync_schedule: d.sync_schedule,
            timeline: trace.timeline(),
            comm: trace.enabled(),
            faults: d.faults.clone(),
            recv_timeout_s: d.recv_timeout_s,
            checkpoint: d.checkpoint,
            max_restarts: d.max_restarts,
            ..dist::DistRun::new(d.ranks, d.model, ap, &sym, &factor.perm)
        }
        .run()?;
        let out = run.outcome;
        let faulty = !d.faults.is_empty() || d.checkpoint || d.recv_timeout_s.is_some();
        report.faults = faulty.then_some(parfact_trace::FaultReport {
            crashes: run.counts.crashes,
            timeouts: run.counts.timeouts,
            delayed_msgs: run.counts.delayed_msgs,
            duplicated_msgs: run.counts.duplicated_msgs,
            restarts: run.restarts,
            total_makespan_s: run.total_makespan_s,
        });
        report.counters = out.fold_counters();
        // The simulator counts traffic per rank, not fronts; every
        // supernode is factored exactly once across the machine.
        report.counters.fronts_factored = sym.nsuper() as u64;
        report.ranks = out.rank_reports();
        spans.extend(out.merged_events());
        // Predicted-vs-measured per rank: the model needs only the symbolic
        // structure and the mapping (recomputed here — it is deterministic
        // and cheap relative to the factorization).
        report.scalability = trace.enabled().then(|| {
            let map = crate::mapping::map_tree(&sym, d.ranks, d.strategy);
            let pred = crate::scalability::predict(&sym, &map);
            let row = |(r, s): (usize, &parfact_mpsim::RankStats)| parfact_trace::RankScalability {
                rank: r,
                measured_bytes: s.bytes_sent,
                predicted_bytes: pred.bytes[r],
                measured_mem_peak: s.mem_peak,
                predicted_mem_peak: pred.mem[r],
            };
            parfact_trace::ScalabilityReport {
                nranks: d.ranks,
                ranks: out.stats.iter().enumerate().map(row).collect(),
                comm: out.comm,
            }
        });
        *factor = out.factor;
    } else {
        let tr = Collector::new(trace);
        match engine {
            Engine::Smp(smp) => crate::smp::factorize_smp_into(ap, &sym, smp, &tr, ws, factor)?,
            _ => crate::seq::factorize_seq_into(ap, &sym, &tr, ws, factor)?,
        }
        report.faults = None;
        report.counters = tr.snapshot();
        report.ranks = worker_ranks(&tr);
        spans.extend(tr.take_spans());
        report.scalability = host_scalability(&sym, &report.ranks);
    }
    report.numeric_s = t0.elapsed().as_secs_f64();
    report.engine = engine.name().to_string();
    // Analysis spans lead the numeric stream unshifted: they render in
    // their own timeline lane (`LaneKind::Analysis`), and each phase keeps
    // its own clock origin — shifting virtual-clock dist spans by a
    // wall-clock offset would break their exact adjacency.
    report.spans = spans;
    report.profile = timeline_profile(&sym, trace, &report.spans, &report.ranks);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::{gen, ops};

    #[test]
    fn default_pipeline_solves_laplace() {
        let a = gen::laplace2d(15, 13, gen::Stencil2d::FivePoint);
        let b = vec![1.0; a.nrows()];
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let x = chol.solve(&b);
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
        assert!(chol.factor_nnz() >= a.nnz());
        assert!(chol.factor_flops() > 0.0);
        // Untraced run: report carries shape and times, counters stay zero.
        let r = chol.report();
        assert_eq!(r.engine, "sequential");
        assert_eq!(r.n, a.nrows());
        assert!(r.numeric_s > 0.0);
        assert_eq!(r.counters.fronts_factored, 0);
    }

    #[test]
    fn all_orderings_solve_correctly() {
        let a = gen::laplace3d(4, 5, 4, gen::Stencil3d::SevenPoint);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
        for ordering in [
            Method::Natural,
            Method::Rcm,
            Method::MinDegree,
            Method::default(),
        ] {
            let chol =
                SparseCholesky::factorize(&a, &FactorOpts::new().ordering(ordering)).unwrap();
            let x = chol.solve(&b);
            assert!(
                ops::sym_residual_inf(&a, &x, &b) < 1e-12,
                "ordering {ordering:?}"
            );
        }
    }

    #[test]
    fn smp_engine_through_facade() {
        let a = gen::elasticity3d(4, 3, 3);
        let b = vec![0.5; a.nrows()];
        let chol = SparseCholesky::factorize(
            &a,
            &FactorOpts::new().engine(Engine::Smp(SmpOpts {
                threads: 4,
                big_front: 128,
            })),
        )
        .unwrap();
        let x = chol.solve(&b);
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn dist_engine_matches_sequential_through_facade() {
        let a = gen::laplace2d(14, 12, gen::Stencil2d::FivePoint);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let xs = seq.solve(&b);
        for ranks in [1usize, 4, 6] {
            let dist = SparseCholesky::factorize(
                &a,
                &FactorOpts::new().engine(Engine::Dist(DistOpts {
                    ranks,
                    ..DistOpts::default()
                })),
            )
            .unwrap();
            // Identical ordering + deterministic simulator: bitwise parity.
            assert_eq!(
                dist.factor().max_abs_diff(seq.factor()),
                0.0,
                "ranks={ranks}"
            );
            let xd = dist.solve(&b);
            assert!(ops::sym_residual_inf(&a, &xd, &b) < 1e-12, "ranks={ranks}");
            for (d, s) in xd.iter().zip(&xs) {
                assert_eq!(d.to_bits(), s.to_bits(), "ranks={ranks}");
            }
            // The report folds simulator rank statistics.
            let r = dist.report();
            assert_eq!(r.engine, "dist");
            assert_eq!(r.ranks.len(), ranks);
            assert_eq!(r.counters.fronts_factored, r.nsuper as u64);
            if ranks > 1 {
                assert!(r.counters.msgs_sent > 0);
                assert!(r.counters.bytes_sent > 0);
            }
        }
    }

    #[test]
    fn traced_reports_are_self_consistent_across_engines() {
        let a = gen::laplace2d(30, 30, gen::Stencil2d::FivePoint);
        let engines = [
            Engine::Sequential,
            Engine::Smp(SmpOpts {
                threads: 3,
                big_front: 96,
            }),
            Engine::Dist(DistOpts::default()),
        ];
        for engine in engines {
            let chol = SparseCholesky::factorize(
                &a,
                &FactorOpts::new()
                    .engine(engine.clone())
                    .trace(TraceLevel::Counters),
            )
            .unwrap();
            let r = chol.report();
            let predicted = chol.factor_flops();
            assert_eq!(r.predicted_flops, predicted);
            let rel = (r.counters.flops - predicted).abs() / predicted;
            assert!(
                rel < 0.05,
                "{}: counted {:.3e} vs predicted {:.3e} ({:.1}% off)",
                r.engine,
                r.counters.flops,
                predicted,
                rel * 100.0
            );
            assert_eq!(r.counters.fronts_factored, r.nsuper as u64);
            match engine {
                Engine::Dist(d) => {
                    // Per-rank entries mirror the simulator statistics and
                    // sum to the folded counters.
                    assert_eq!(r.ranks.len(), d.ranks);
                    let bytes: u64 = r.ranks.iter().map(|x| x.bytes_sent).sum();
                    let msgs: u64 = r.ranks.iter().map(|x| x.msgs_sent).sum();
                    let flops: f64 = r.ranks.iter().map(|x| x.flops).sum();
                    assert_eq!(bytes, r.counters.bytes_sent);
                    assert_eq!(msgs, r.counters.msgs_sent);
                    assert!((flops - r.counters.flops).abs() < 1e-6);
                }
                _ => {
                    // Host engines count exactly the predicted flops and
                    // track assembly and memory.
                    assert_eq!(r.counters.flops, predicted, "{}", r.engine);
                    assert!(r.counters.bytes_assembled > 0);
                    assert!(r.counters.mem_peak_bytes > 0);
                    // Per-worker rows: one per worker that recorded, with
                    // their own memory high-water marks, zero virtual
                    // clocks (no simulated makespan), and flops summing to
                    // the folded counter.
                    assert!(!r.ranks.is_empty(), "{}", r.engine);
                    assert!(r.ranks.iter().all(|x| x.clock_s == 0.0));
                    assert!(r.sim_makespan_s().is_none());
                    assert!(
                        r.ranks.iter().any(|x| x.mem_peak_bytes > 0),
                        "{}: no worker reported memory",
                        r.engine
                    );
                    let flops: f64 = r.ranks.iter().map(|x| x.flops).sum();
                    assert!((flops - r.counters.flops).abs() < 1e-6, "{}", r.engine);
                    // And the scalability section carries a memory model.
                    let s = r.scalability.as_ref().expect("host scalability");
                    assert_eq!(s.nranks, r.ranks.len());
                    assert!(s.ranks.iter().all(|x| x.predicted_mem_peak > 0.0));
                }
            }
            // Every traced engine publishes a scalability section.
            assert!(r.scalability.is_some(), "{}", r.engine);
        }
    }

    #[test]
    fn full_trace_produces_spans_and_json_round_trips() {
        let a = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().trace(TraceLevel::Full)).unwrap();
        let r = chol.report();
        assert!(!r.spans.is_empty());
        // Every factored front produced a panel span.
        let panels = r
            .spans
            .iter()
            .filter(|s| s.phase == parfact_trace::Phase::Panel)
            .count();
        assert_eq!(panels, r.nsuper);
        let text = r.to_json_string();
        let back = FactorReport::from_json_str(&text).unwrap();
        assert_eq!(&back, r);
    }

    #[test]
    fn timeline_trace_profiles_the_distributed_run() {
        let a = gen::laplace3d(5, 5, 4, gen::Stencil3d::SevenPoint);
        let chol = SparseCholesky::factorize(
            &a,
            &FactorOpts::new()
                .engine(Engine::Dist(DistOpts::default()))
                .trace(TraceLevel::Timeline),
        )
        .unwrap();
        let r = chol.report();
        assert!(!r.spans.is_empty());
        // Numeric spans form a valid timeline in exact virtual time;
        // analysis spans are wall-clock and get an Instant-read epsilon.
        let tl = parfact_trace::Timeline::from_spans(&r.spans);
        tl.validate(1e-9).unwrap();
        let numeric: Vec<_> = r
            .spans
            .iter()
            .filter(|s| !s.phase.is_analysis())
            .cloned()
            .collect();
        parfact_trace::Timeline::from_spans(&numeric)
            .validate(0.0)
            .unwrap();
        let kinds: std::collections::HashSet<_> = tl.lanes.iter().map(|l| l.kind).collect();
        assert!(kinds.contains(&parfact_trace::LaneKind::Compute));
        assert!(kinds.contains(&parfact_trace::LaneKind::Comm));
        assert!(kinds.contains(&parfact_trace::LaneKind::Wait));
        assert!(kinds.contains(&parfact_trace::LaneKind::Analysis));
        // The profile is attached and self-consistent.
        let p = r.profile.as_ref().expect("timeline trace attaches profile");
        assert!(p.critical_path_s > 0.0);
        assert!(p.critical_path_s <= p.makespan_s + 1e-12);
        assert!(p.critical_path_len > 0);
        assert_eq!(p.ranks.len(), DistOpts::default().ranks);
        for ra in &p.ranks {
            assert!((0.0..=1.0).contains(&ra.idle_frac), "rank {}", ra.who);
        }
        // And the whole report (profile included) round-trips as JSON.
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(&back, r);

        // Full-level traces keep their pre-timeline behavior: host hooks
        // only, no dist spans, no profile.
        let full = SparseCholesky::factorize(
            &a,
            &FactorOpts::new()
                .engine(Engine::Dist(DistOpts::default()))
                .trace(TraceLevel::Full),
        )
        .unwrap();
        assert!(full.report().spans.is_empty());
        assert!(full.report().profile.is_none());
    }

    #[test]
    fn timeline_trace_profiles_host_engines() {
        let a = gen::laplace2d(16, 16, gen::Stencil2d::FivePoint);
        for engine in [
            Engine::Sequential,
            Engine::Smp(SmpOpts {
                threads: 3,
                big_front: 96,
            }),
        ] {
            let chol = SparseCholesky::factorize(
                &a,
                &FactorOpts::new().engine(engine).trace(TraceLevel::Timeline),
            )
            .unwrap();
            let r = chol.report();
            assert!(!r.spans.is_empty(), "{}", r.engine);
            let p = r.profile.as_ref().expect("profile");
            assert!(p.critical_path_s > 0.0, "{}", r.engine);
            assert!(p.makespan_s > 0.0, "{}", r.engine);
        }
    }

    #[test]
    fn refactorize_refreshes_profile() {
        let a = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
        let mut chol = SparseCholesky::factorize(
            &a,
            &FactorOpts::new()
                .engine(Engine::Dist(DistOpts::default()))
                .trace(TraceLevel::Timeline),
        )
        .unwrap();
        assert!(chol.report().profile.is_some());
        chol.refactorize(&a, Engine::Dist(DistOpts::default()))
            .unwrap();
        assert!(chol.report().profile.is_some());
        // Switching to an untraced-span engine level still works; the dist
        // engine at Timeline keeps producing spans, so the profile stays.
        chol.refactorize(&a, Engine::Sequential).unwrap();
        assert!(chol.report().profile.is_some());
    }

    #[test]
    fn analysis_threads_change_nothing_but_the_report() {
        let a = gen::laplace3d(6, 5, 5, gen::Stencil3d::SevenPoint);
        let base = SparseCholesky::factorize(
            &a,
            &FactorOpts::new()
                .analysis_threads(1)
                .trace(TraceLevel::Counters),
        )
        .unwrap();
        // Untraced runs carry no analysis section; traced runs do, with the
        // resolved thread count and the per-stage seconds summing sanely.
        assert!(SparseCholesky::factorize(&a, &FactorOpts::default())
            .unwrap()
            .report()
            .analysis
            .is_none());
        let ar = base.report().analysis.as_ref().expect("analysis section");
        assert_eq!(ar.threads, 1);
        assert!(ar.total_s() > 0.0);
        // The default ND ordering exercises coarsening/bisection/refinement
        // plus the symbolic stages.
        assert!(ar.coarsen_s > 0.0);
        assert!(ar.etree_s > 0.0);
        assert!(ar.colcount_s > 0.0);
        assert!(ar.structure_s > 0.0);
        for threads in [2, 4] {
            let par = SparseCholesky::factorize(
                &a,
                &FactorOpts::new()
                    .analysis_threads(threads)
                    .trace(TraceLevel::Counters),
            )
            .unwrap();
            // Bitwise-identical analysis: same permutation, same partition,
            // same structure, hence a bitwise-identical factor.
            assert_eq!(
                par.factor().perm.old_of_new(0),
                base.factor().perm.old_of_new(0)
            );
            assert_eq!(par.symbolic().sn_ptr, base.symbolic().sn_ptr);
            assert_eq!(par.symbolic().sn_rows, base.symbolic().sn_rows);
            assert_eq!(par.factor().max_abs_diff(base.factor()), 0.0);
            assert_eq!(par.report().analysis.as_ref().unwrap().threads, threads);
        }
        // The report (analysis section included) survives the JSON round
        // trip.
        let back = FactorReport::from_json_str(&base.report().to_json_string()).unwrap();
        assert_eq!(&back, base.report());
    }

    #[test]
    fn nd_beats_natural_on_grid_fill() {
        let a = gen::laplace2d(24, 24, gen::Stencil2d::FivePoint);
        let nat =
            SparseCholesky::factorize(&a, &FactorOpts::new().ordering(Method::Natural)).unwrap();
        let nd = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        assert!(
            nd.factor_nnz() < nat.factor_nnz(),
            "nd {} vs natural {}",
            nd.factor_nnz(),
            nat.factor_nnz()
        );
    }

    #[test]
    fn ldlt_handles_indefinite() {
        let a = gen::indefinite(60, 3);
        let b = vec![1.0; 60];
        let spd_attempt = SparseCholesky::factorize(&a, &FactorOpts::default());
        assert!(matches!(
            spd_attempt,
            Err(FactorError::NotPositiveDefinite { .. })
        ));
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().kind(FactorKind::Ldlt)).unwrap();
        let x = chol.solve(&b);
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn dist_rejects_ldlt() {
        let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
        let r = SparseCholesky::factorize(
            &a,
            &FactorOpts::new()
                .kind(FactorKind::Ldlt)
                .engine(Engine::Dist(DistOpts::default())),
        );
        assert!(matches!(r, Err(FactorError::Unsupported(_))));
    }

    #[test]
    fn refactorize_reuses_symbolic() {
        let a = gen::random_spd(60, 4, 1);
        let mut chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let nnz_before = chol.factor_nnz();
        // Same pattern, scaled values.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        chol.refactorize(&a2, Engine::Sequential).unwrap();
        assert_eq!(chol.factor_nnz(), nnz_before);
        let b = vec![3.0; 60];
        let x = chol.solve(&b);
        assert!(ops::sym_residual_inf(&a2, &x, &b) < 1e-12);
    }

    #[test]
    fn refactorize_keeps_report_consistent() {
        let a = gen::laplace2d(16, 16, gen::Stencil2d::FivePoint);
        let mut chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().trace(TraceLevel::Counters)).unwrap();
        let first = chol.report().clone();
        assert_eq!(first.refactorizations, 0);
        assert_eq!(first.counters.fronts_factored, first.nsuper as u64);

        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        chol.refactorize(&a2, Engine::Sequential).unwrap();
        let second = chol.report();
        // Analysis was reused: its recorded cost must not change.
        assert_eq!(second.ordering_s, first.ordering_s);
        assert_eq!(second.symbolic_s, first.symbolic_s);
        // The numeric side was redone and re-counted, not accumulated.
        assert_eq!(second.refactorizations, 1);
        assert_eq!(second.counters.fronts_factored, second.nsuper as u64);
        assert_eq!(second.counters.flops, first.counters.flops);

        // Refactorize may switch engines; the report must follow.
        chol.refactorize(&a, Engine::Dist(DistOpts::default()))
            .unwrap();
        let third = chol.report();
        assert_eq!(third.engine, "dist");
        assert_eq!(third.refactorizations, 2);
        assert_eq!(third.ranks.len(), DistOpts::default().ranks);
        let b = vec![1.0; a.nrows()];
        let x = chol.solve(&b);
        assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn rejected_refactorize_leaves_the_factor_untouched() {
        let a = gen::laplace2d(10, 10, gen::Stencil2d::FivePoint);
        let n = a.nrows();
        let with = |extra: (usize, usize)| {
            let mut coo = parfact_sparse::coo::CooMatrix::new(n, n);
            for c in 0..n {
                for (&r, &v) in a.col(c).0.iter().zip(a.col(c).1) {
                    coo.push(r, c, v);
                }
            }
            coo.push(extra.0, extra.1, 0.5);
            coo.to_csc()
        };
        // An entry outside the analyzed pattern, an upper-triangle entry and
        // a matrix of another order.
        let outside = with((n - 1, 0));
        let upper = with((0, n - 1));
        let small = gen::laplace2d(9, 9, gen::Stencil2d::FivePoint);
        let b = vec![1.0; n];
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for engine in [
            Engine::Sequential,
            Engine::Smp(SmpOpts {
                threads: 2,
                big_front: 16,
            }),
            Engine::Dist(DistOpts::default()),
        ] {
            let opts = FactorOpts::new().engine(engine.clone());
            let mut chol = SparseCholesky::factorize(&a, &opts).unwrap();
            let before = bits(chol.solve(&b));
            let r = chol.refactorize(&outside, engine.clone());
            assert!(matches!(r, Err(FactorError::Unsupported(_))), "{r:?}");
            let r = chol.refactorize(&upper, engine.clone());
            assert!(
                matches!(
                    r,
                    Err(FactorError::BadStructure(SparseError::NotLower { .. }))
                ),
                "{r:?}"
            );
            let r = chol.refactorize(&small, engine.clone());
            let dim = SparseError::DimMismatch {
                expected: n,
                got: small.nrows(),
            };
            assert_eq!(r, Err(FactorError::BadStructure(dim)));
            assert_eq!(bits(chol.solve(&b)), before, "{}", engine.name());
            assert_eq!(chol.report().refactorizations, 0);
        }
    }

    #[test]
    fn refactorize_runs_in_warm_arenas() {
        // The arena-reuse assertion of the acceptance criteria: after the
        // first sequential refactorize has warmed the workspace, further
        // steady-state refactorizations must not grow a single buffer.
        let a = gen::laplace2d(20, 20, gen::Stencil2d::FivePoint);
        let mut chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 1.5;
        }
        chol.refactorize(&a2, Engine::Sequential).unwrap();
        let warm = chol.workspace_growth_events();
        for _ in 0..3 {
            chol.refactorize(&a2, Engine::Sequential).unwrap();
            assert_eq!(
                chol.workspace_growth_events(),
                warm,
                "steady-state refactorize grew a workspace buffer"
            );
        }
        let b = vec![1.0; a.nrows()];
        let x = chol.solve(&b);
        assert!(ops::sym_residual_inf(&a2, &x, &b) < 1e-12);
    }

    #[test]
    fn rejects_non_lower_input() {
        let mut coo = parfact_sparse::coo::CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, 1.0); // upper entry
        coo.push(1, 1, 2.0);
        let bad = coo.to_csc();
        assert!(matches!(
            SparseCholesky::factorize(&bad, &FactorOpts::default()),
            Err(FactorError::BadStructure(_))
        ));
    }

    #[test]
    fn refined_solve_reports_residual() {
        let a = gen::laplace2d(10, 10, gen::Stencil2d::FivePoint);
        let b = vec![2.0; 100];
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let out = chol
            .solve_with(RhsBlock::single(&b), &SolveOpts::new().refine(2))
            .unwrap();
        assert!(out.residual.unwrap() < 1e-12);
        assert!(ops::sym_residual_inf(&a, &out.x, &b) < 1e-13);
    }

    #[test]
    fn solve_with_checks_dimensions_instead_of_panicking() {
        let a = gen::laplace2d(6, 6, gen::Stencil2d::FivePoint);
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let short = vec![1.0; 35];
        let e = chol
            .solve_with(RhsBlock::single(&short), &SolveOpts::new())
            .unwrap_err();
        assert_eq!(
            e,
            FactorError::DimensionMismatch {
                expected: 36,
                got: 35
            }
        );
        // Block shape wrong: 2 columns claimed over 36 values.
        let b = vec![1.0; 36];
        assert!(matches!(
            chol.solve_with(RhsBlock::new(&b, 2), &SolveOpts::new()),
            Err(FactorError::DimensionMismatch {
                expected: 72,
                got: 36
            })
        ));
        // Bad equilibration scale length is caught too.
        let bad_scale = vec![1.0; 10];
        assert!(matches!(
            chol.solve_with(
                RhsBlock::single(&b),
                &SolveOpts::new().equilibrate(bad_scale)
            ),
            Err(FactorError::DimensionMismatch {
                expected: 36,
                got: 10
            })
        ));
    }

    #[test]
    fn solve_engines_agree_through_the_facade() {
        let a = gen::laplace3d(5, 4, 4, gen::Stencil3d::SevenPoint);
        let n = a.nrows();
        let nrhs = 3;
        let b: Vec<f64> = (0..n * nrhs).map(|i| ((i % 11) as f64) - 5.0).collect();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let seq = chol
            .solve_with(RhsBlock::new(&b, nrhs), &SolveOpts::new())
            .unwrap();
        // Both engines fold child contributions in the same order, so they
        // agree bitwise at every thread count.
        let smp2 = chol
            .solve_with(
                RhsBlock::new(&b, nrhs),
                &SolveOpts::new().engine(SolveEngine::Smp { threads: 2 }),
            )
            .unwrap();
        let smp4 = chol
            .solve_with(
                RhsBlock::new(&b, nrhs),
                &SolveOpts::new().engine(SolveEngine::Smp { threads: 4 }),
            )
            .unwrap();
        for ((s, p2), p4) in seq.x.iter().zip(&smp2.x).zip(&smp4.x) {
            assert_eq!(s.to_bits(), p2.to_bits());
            assert_eq!(s.to_bits(), p4.to_bits());
        }
        // Batched == one-at-a-time, bitwise, per engine.
        for col in 0..nrhs {
            let one = chol
                .solve_with(
                    RhsBlock::single(&b[col * n..(col + 1) * n]),
                    &SolveOpts::new(),
                )
                .unwrap();
            for (s, p) in seq.x[col * n..(col + 1) * n].iter().zip(&one.x) {
                assert_eq!(s.to_bits(), p.to_bits(), "col={col}");
            }
        }
    }

    #[test]
    fn solve_session_batches_and_matches_direct_solves() {
        let a = gen::laplace2d(9, 8, gen::Stencil2d::FivePoint);
        let n = a.nrows();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let rhs: Vec<Vec<f64>> = (0..7)
            .map(|k| (0..n).map(|i| ((i + k) % 5) as f64 - 2.0).collect())
            .collect();
        let mut sess = chol.solve_session(SolveOpts::new()).capacity(3);
        for b in &rhs {
            sess.push(b).unwrap();
        }
        // 7 pushes at capacity 3: two auto-flushes happened, one column
        // still buffered until finish().
        assert_eq!(sess.pending(), 1);
        let xs = sess.finish().unwrap();
        assert_eq!(xs.len(), rhs.len());
        for (b, x) in rhs.iter().zip(&xs) {
            let direct = chol
                .solve_with(RhsBlock::single(b), &SolveOpts::new())
                .unwrap();
            for (d, s) in direct.x.iter().zip(x) {
                assert_eq!(d.to_bits(), s.to_bits());
            }
        }
        // A session rejects wrong-length pushes.
        let mut sess = chol.solve_session(SolveOpts::new());
        assert!(matches!(
            sess.push(&[1.0]),
            Err(FactorError::DimensionMismatch { .. })
        ));
        // Aggregate stats saw every column exactly once.
        let r = chol.report_with_solve();
        let solve = r.solve.expect("solve section");
        assert!(solve.rhs >= rhs.len() as u64);
        assert!(solve.solves >= 3);
        assert!(solve.seconds > 0.0);
        assert!(solve.flops > 0.0);
        // An order-0 system keeps every (empty) column it is given.
        let empty = parfact_sparse::coo::CooMatrix::new(0, 0).to_csc();
        let chol = SparseCholesky::factorize(&empty, &FactorOpts::default()).unwrap();
        let mut sess = chol.solve_session(SolveOpts::new()).capacity(2);
        for _ in 0..3 {
            sess.push(&[]).unwrap();
        }
        assert_eq!(sess.pending(), 1);
        let xs = sess.finish().unwrap();
        assert_eq!(xs, vec![Vec::<f64>::new(); 3]);
    }

    #[test]
    fn a_nan_right_hand_side_reports_a_nan_residual() {
        let a = gen::laplace2d(4, 4, gen::Stencil2d::FivePoint);
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let mut b = vec![1.0; 16];
        b[5] = f64::NAN;
        let d = vec![0.5; 16];
        for opts in [
            SolveOpts::new().residual(true),
            SolveOpts::new().refine(2),
            SolveOpts::new().refine(1).equilibrate(d),
        ] {
            let out = chol.solve_with(RhsBlock::single(&b), &opts).unwrap();
            assert!(out.x.iter().all(|v| v.is_nan()), "{opts:?}");
            assert!(out.residual.unwrap().is_nan(), "{opts:?}");
        }
    }

    #[test]
    fn report_with_solve_appends_solve_spans_at_timeline() {
        let a = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
        let b = vec![1.0; a.nrows()];
        let chol =
            SparseCholesky::factorize(&a, &FactorOpts::new().trace(TraceLevel::Timeline)).unwrap();
        // Before any solve: no solve section, factor spans untouched.
        assert!(chol.report_with_solve().solve.is_none());
        let factor_spans = chol.report().spans.len();
        chol.solve_with(RhsBlock::single(&b), &SolveOpts::new())
            .unwrap();
        chol.solve_with(
            RhsBlock::single(&b),
            &SolveOpts::new().engine(SolveEngine::Smp { threads: 2 }),
        )
        .unwrap();
        let r = chol.report_with_solve();
        assert!(r.solve.is_some());
        let solve_spans: Vec<_> = r.spans.iter().filter(|s| s.phase == Phase::Solve).collect();
        assert!(!solve_spans.is_empty());
        assert_eq!(r.spans.len() - solve_spans.len(), factor_spans);
        // Solve spans start after every factor span ends, so the merged
        // stream renders as one ordered Chrome trace.
        let factor_end = chol
            .report()
            .spans
            .iter()
            .map(|s| s.start_s + s.dur_s)
            .fold(0.0f64, f64::max);
        assert!(solve_spans.iter().all(|s| s.start_s >= factor_end));
        // The base report is untouched (solve spans are an enrichment).
        assert_eq!(chol.report().spans.len(), factor_spans);
        assert!(chol.report().solve.is_none());
        // And the enriched report still round-trips as JSON.
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        // The profile ignores solve spans: recomputing it over the
        // enriched stream changes nothing.
        let p = parfact_trace::profile::analyze(
            &chol.symbolic().tree.parent,
            &r.spans,
            &r.ranks,
            PROFILE_TOP_K,
        );
        assert_eq!(Some(p), r.profile);
    }
}
