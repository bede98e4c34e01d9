//! The end-to-end run: set-up, then trials of the workload's script through
//! the `SparseCholesky` façade until the time is up. Tracing is off here;
//! the traced run reuses [`Session`] under a recording tracer.

use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{rescaled, rhs, sym_norm_inf, Rng, Script, Tally, Workload, BATCH};
use parfact_core::solver::{Engine, FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
use parfact_sparse::{io, CscMatrix};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run, at least; `setup_s` is the median of all of them.
const MIN_SETUPS: usize = 3;
/// Further set-ups are made while they fit in this share of `--seconds`,
/// so that a workload with a cheap set-up gets more samples of it (and
/// `steady_elas`, whose only cold factorize is the set-up's, more of those).
const SETUP_SHARE: f64 = 0.5;
/// Trials measured even when `--seconds` is shorter than they take.
const MIN_TRIALS: u64 = 3;
/// 1-RHS solves per trial. A solve is a fortieth of a trial, so the extra
/// ones are nearly free, and `dist_scale` fits only five trials in a run.
const SINGLE_SOLVES: usize = 3;

/// Virtual statistics of one simulated factorization. They depend on the
/// sparsity pattern and the mapping only, so every trial must repeat them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    pub makespan_s: f64,
    pub comm_bytes: f64,
    pub mem_peak_bytes: f64,
    pub msgs: f64,
}

impl SimStats {
    fn of(chol: &SparseCholesky) -> Option<SimStats> {
        let r = chol.report();
        Some(SimStats {
            makespan_s: r.sim_makespan_s()?,
            comm_bytes: r.ranks.iter().map(|k| k.bytes_sent as f64).sum(),
            mem_peak_bytes: r
                .ranks
                .iter()
                .map(|k| k.mem_peak_bytes as f64)
                .fold(0.0, f64::max),
            msgs: r.ranks.iter().map(|k| k.msgs_sent as f64).sum(),
        })
    }
}

/// What the trials of one run have produced so far.
#[derive(Default)]
pub struct Recorder {
    pub tally: Tally,
    /// Timing samples by end-to-end metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub sim: Option<SimStats>,
    pub factor_flops: f64,
    pub factor_nnz: f64,
}

impl Recorder {
    fn push(&mut self, name: &'static str, seconds: f64) {
        self.samples.entry(name).or_default().push(seconds);
    }

    pub fn median_of(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |s| median(s))
    }

    /// Record the analysis and numeric phase times of a cold `factorize`.
    /// On a simulated engine also hold its virtual statistics to the first
    /// ones seen; `false` if they moved.
    fn cold_factorize_done(&mut self, chol: &SparseCholesky) -> bool {
        let r = chol.report();
        self.push("analyze_s", r.ordering_s + r.symbolic_s);
        self.push("factor_s", r.numeric_s);
        self.factor_flops = chol.factor_flops();
        self.factor_nnz = chol.factor_nnz() as f64;
        match (self.sim, SimStats::of(chol)) {
            (None, now) => {
                self.sim = now;
                true
            }
            (Some(first), now) => now == Some(first),
        }
    }
}

/// One set-up's worth of state: the inputs and, on the steady script, the
/// solver that every step refactorizes in place.
pub struct Session {
    wl: &'static Workload,
    seed: u64,
    base: CscMatrix,
    b1: Vec<f64>,
    b16: Vec<f64>,
    chol: Option<SparseCholesky>,
    /// Time to solution of the warm-up trial, the process's first call.
    pub warm_up_s: f64,
}

impl Session {
    /// Generate the matrix, take it through a Matrix Market write and parse
    /// (the way a user's matrix arrives), draw the right-hand sides, on the
    /// steady script analyse and factor once, and run the discarded warm-up
    /// trial. `None` if an operation failed; `rec.tally` says which.
    pub fn set_up(
        wl: &'static Workload,
        seed: u64,
        quick: bool,
        rec: &mut Recorder,
    ) -> Option<Session> {
        let generated = wl.matrix(quick);
        let parsed = io::parse_sym_lower(&io::write_sym_lower(&generated));
        let Some(base) = parsed.ok().filter(|m| *m == generated) else {
            rec.tally
                .reject("Matrix Market round trip changed the matrix");
            return None;
        };
        let n = base.nrows();
        let mut rng = Rng::new(seed, u64::MAX);
        let mut session = Session {
            wl,
            seed,
            b1: rhs(&mut rng, n),
            b16: rhs(&mut rng, n * BATCH),
            base,
            chol: None,
            warm_up_s: f64::NAN,
        };
        if wl.script == Script::Steady {
            let a = rescaled(&session.base, &mut Rng::new(seed, 0));
            let chol = rec
                .tally
                .attempt(|| SparseCholesky::factorize(&a, &session.opts()))?;
            // Its phase times are samples only once a checked solve has
            // used the factor.
            let mut off = Tracer::new(false);
            session.solve(&chol, &a, "facade.solve.r1", &session.b1, &mut off, rec)?;
            if !rec.cold_factorize_done(&chol) {
                return None;
            }
            session.chol = Some(chol);
        }
        let mut warm_up = Recorder::default();
        session.trial(0, &mut Tracer::new(false), &mut warm_up);
        rec.tally.absorb(warm_up.tally);
        session.warm_up_s = warm_up.median_of("time_to_solution_s");
        (warm_up.tally.failed == 0).then_some(session)
    }

    /// The matrix before rescaling, the single right-hand side and the block.
    pub fn inputs(&self) -> (&CscMatrix, &[f64], &[f64]) {
        (&self.base, &self.b1, &self.b16)
    }

    fn opts(&self) -> FactorOpts {
        FactorOpts::new().engine(self.wl.engine())
    }

    /// One trial of the workload's script with the values of trial `idx`.
    /// Every solve is checked, outside the timed regions, against the
    /// matrix values then in force; samples are kept only for operations
    /// whose answer passed, and a failure ends the trial.
    pub fn trial(&mut self, idx: u64, tr: &mut Tracer, rec: &mut Recorder) {
        tr.span("trial", |tr| match self.wl.script {
            Script::Cold => self.cold_trial(idx, tr, rec),
            Script::Steady => self.steady_step(idx, tr, rec),
        });
    }

    fn cold_trial(&mut self, idx: u64, tr: &mut Tracer, rec: &mut Recorder) -> Option<()> {
        let a = rescaled(&self.base, &mut Rng::new(self.seed, 2 * idx));
        let opts = self.opts();
        let (chol, factorize_s) = tr.span("facade.factorize", |_| {
            rec.tally.attempt(|| SparseCholesky::factorize(&a, &opts))
        });
        let mut chol = chol?;
        let solve_s = self.single_solves(&chol, &a, tr, rec)?;
        if !rec.cold_factorize_done(&chol) {
            rec.tally.reject("virtual statistics differ between trials");
            return None;
        }
        rec.push("time_to_solution_s", factorize_s + solve_s);

        let a = rescaled(&self.base, &mut Rng::new(self.seed, 2 * idx + 1));
        let (done, refactor_s) = tr.span("facade.refactorize", |_| {
            rec.tally
                .attempt(|| chol.refactorize(&a, Engine::Sequential))
        });
        done?;
        let batch_s = self.solve(&chol, &a, "facade.solve.r16", &self.b16, tr, rec)?;
        rec.push("refactor_s", refactor_s);
        rec.push("solve_batch_s", batch_s);
        Some(())
    }

    fn steady_step(&mut self, idx: u64, tr: &mut Tracer, rec: &mut Recorder) -> Option<()> {
        // Stream 0 gave the values of the set-up's first factor.
        let a = rescaled(&self.base, &mut Rng::new(self.seed, idx + 1));
        let chol = self.chol.as_mut().expect("steady set-up factors first");
        let (done, refactor_s) = tr.span("facade.refactorize", |_| {
            rec.tally
                .attempt(|| chol.refactorize(&a, Engine::Sequential))
        });
        done?;
        let chol = self.chol.as_ref().expect("steady set-up factors first");
        let batch_s = self.solve(chol, &a, "facade.solve.r16", &self.b16, tr, rec)?;
        let solve_s = self.single_solves(chol, &a, tr, rec)?;
        rec.push("refactor_s", refactor_s);
        rec.push("solve_batch_s", batch_s);
        rec.push("time_to_solution_s", refactor_s + batch_s + solve_s);
        Some(())
    }

    /// One timed `solve_with` of the block `b`, then its check against `a`;
    /// the seconds it took if the answer passed.
    fn solve(
        &self,
        chol: &SparseCholesky,
        a: &CscMatrix,
        span: &'static str,
        b: &[f64],
        tr: &mut Tracer,
        rec: &mut Recorder,
    ) -> Option<f64> {
        let block = RhsBlock::new(b, b.len() / a.nrows());
        let (x, seconds) = tr.span(span, |_| {
            rec.tally
                .attempt(|| chol.solve_with(block, &SolveOpts::new()))
        });
        rec.tally
            .check_solve(a, sym_norm_inf(a), &x?.x, b)
            .then_some(seconds)
    }

    /// [`SINGLE_SOLVES`] 1-RHS solves, each with its own right-hand side and
    /// each a sample of `solve_s`; returns the first one's seconds, which is
    /// the one time to solution counts.
    fn single_solves(
        &self,
        chol: &SparseCholesky,
        a: &CscMatrix,
        tr: &mut Tracer,
        rec: &mut Recorder,
    ) -> Option<f64> {
        let n = a.nrows();
        let first = self.solve(chol, a, "facade.solve.r1", &self.b1, tr, rec)?;
        rec.push("solve_s", first);
        for col in self.b16.chunks(n).take(SINGLE_SOLVES - 1) {
            let seconds = self.solve(chol, a, "facade.solve.r1", col, tr, rec)?;
            rec.push("solve_s", seconds);
        }
        Some(first)
    }
}

/// Set up several times, then run trials for `seconds`.
pub fn run(wl: &'static Workload, seed: u64, seconds: f64, quick: bool) -> Recorder {
    let mut rec = Recorder::default();
    let mut session = None;
    let t_setup = Instant::now();
    for done in 0.. {
        let elapsed = t_setup.elapsed().as_secs_f64();
        if done >= MIN_SETUPS && elapsed + elapsed / done as f64 > SETUP_SHARE * seconds {
            break;
        }
        // Drop the previous set-up first: peak memory is one session's.
        drop(session.take());
        let t0 = Instant::now();
        session = Session::set_up(wl, seed, quick, &mut rec);
        rec.push("setup_s", t0.elapsed().as_secs_f64());
    }
    let Some(mut session) = session else {
        return rec;
    };
    let mut tr = Tracer::new(false);
    let t0 = Instant::now();
    let mut idx = 0;
    loop {
        idx += 1;
        session.trial(idx, &mut tr, &mut rec);
        // Stop when the next trial, at the pace so far, would overrun.
        let elapsed = t0.elapsed().as_secs_f64();
        if idx >= MIN_TRIALS && elapsed + elapsed / idx as f64 > seconds {
            return rec;
        }
    }
}
