//! The four workloads, their seeded inputs, and the checker that decides
//! whether an operation's output counts.

use parfact_core::solver::{DistOpts, Engine};
use parfact_core::FactorError;
use parfact_sparse::{gen, CscMatrix};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Columns of the batched right-hand side.
pub const BATCH: usize = 16;

/// Largest accepted `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
pub const RESIDUAL_LIMIT: f64 = 1e-10;

/// What one trial does with the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Cold `factorize` → 1-RHS solve → `refactorize` with new values →
    /// 16-RHS solve. Each factorization is followed by a checked solve.
    Cold,
    /// Analysis and first factor happen in set-up; a step is
    /// `refactorize` → 16-RHS solve → 1-RHS solve.
    Steady,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub script: Script,
    /// Simulated ranks of the factorize engine; 0 is the sequential engine.
    pub ranks: usize,
    matrix: fn(bool) -> CscMatrix,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold3d",
        why: "lap3d-32: numeric phase ~72% of time-to-solution, 91% of flops in 35 fronts >= 512; \
              dense kernels and the seq front loop do the work",
        script: Script::Cold,
        ranks: 0,
        matrix: |quick| {
            let g = if quick { 10 } else { 32 };
            gen::laplace3d(g, g, g, gen::Stencil3d::SevenPoint)
        },
    },
    Workload {
        name: "cold2d",
        why: "lap2d-400: ordering + symbolic ~65-75% of time-to-solution, 28k fronts < 32; \
              bypasses big-tile kernels, targets analysis and per-front overhead",
        script: Script::Cold,
        ranks: 0,
        matrix: |quick| {
            let g = if quick { 60 } else { 400 };
            gen::laplace2d(g, g, gen::Stencil2d::FivePoint)
        },
    },
    Workload {
        name: "steady_elas",
        why: "elas-16: in-place refactorize of a warm slab plus solves, analysis out of the loop; \
              shows a cold-path gain that costs the in-place path",
        script: Script::Steady,
        ranks: 0,
        matrix: |quick| {
            let g = if quick { 5 } else { 16 };
            gen::elasticity3d(g, g, g)
        },
    },
    Workload {
        name: "dist_scale",
        why: "lap3d-32 on 64 simulated Blue Gene/P ranks: mapping, dist and mpsim do the work; \
              host time is the simulator's cost, virtual statistics repeat exactly",
        script: Script::Cold,
        ranks: 64,
        matrix: |quick| {
            let g = if quick { 10 } else { 32 };
            gen::laplace3d(g, g, g, gen::Stencil3d::SevenPoint)
        },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn matrix(&self, quick: bool) -> CscMatrix {
        (self.matrix)(quick)
    }

    /// The engine `factorize` runs on.
    pub fn engine(&self) -> Engine {
        match self.ranks {
            0 => Engine::Sequential,
            ranks => Engine::Dist(DistOpts {
                ranks,
                ..DistOpts::default()
            }),
        }
    }
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the seed
/// and on nothing in the program under test.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct pairs give unrelated streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` values uniform in `[-1, 1)`.
pub fn rhs(rng: &mut Rng, len: usize) -> Vec<f64> {
    (0..len).map(|_| 2.0 * rng.unit() - 1.0).collect()
}

/// `D A D` with `d_i` log-uniform in `[0.5, 2]`: same pattern, new values,
/// still symmetric positive definite.
pub fn rescaled(a: &CscMatrix, rng: &mut Rng) -> CscMatrix {
    let d: Vec<f64> = (0..a.nrows())
        .map(|_| (2.0 * rng.unit() - 1.0).exp2())
        .collect();
    let mut out = a.clone();
    let (colptr, rowind) = (a.colptr(), a.rowind());
    let values = out.values_mut();
    for c in 0..colptr.len() - 1 {
        for k in colptr[c]..colptr[c + 1] {
            values[k] *= d[rowind[k]] * d[c];
        }
    }
    out
}

fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// `‖A‖∞` of a symmetric matrix stored as its lower triangle.
pub fn sym_norm_inf(a: &CscMatrix) -> f64 {
    let mut row_sums = vec![0.0f64; a.nrows()];
    for c in 0..a.ncols() {
        let (rows, vals) = a.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            row_sums[r] += v.abs();
            if r != c {
                row_sums[c] += v.abs();
            }
        }
    }
    norm_inf(&row_sums)
}

/// Largest scaled residual over the columns of `x` against `b`, computed
/// with the benchmark's own matrix-vector product. NaN if `x` has the
/// wrong length or a non-finite entry.
pub fn scaled_residual(a: &CscMatrix, a_norm: f64, x: &[f64], b: &[f64]) -> f64 {
    let n = a.nrows();
    if x.len() != b.len() || n == 0 || !x.len().is_multiple_of(n) {
        return f64::NAN;
    }
    let mut worst = 0.0f64;
    let mut r = vec![0.0f64; n];
    for (xc, bc) in x.chunks(n).zip(b.chunks(n)) {
        r.copy_from_slice(bc);
        for c in 0..n {
            let (rows, vals) = a.col(c);
            for (&i, &v) in rows.iter().zip(vals) {
                r[i] -= v * xc[c];
                if i != c {
                    r[c] -= v * xc[i];
                }
            }
        }
        let scaled = norm_inf(&r) / (a_norm * norm_inf(xc) + norm_inf(bc));
        // `f64::max` would drop a NaN; a NaN column must fail the check.
        if scaled.is_nan() {
            return f64::NAN;
        }
        worst = worst.max(scaled);
    }
    worst
}

/// Operations attempted and failed. An `Err`, a caught panic or a rejected
/// answer is a failure; a failed operation yields no timing sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run one operation of the program, turning a panic into a failure.
    pub fn attempt<T>(&mut self, op: impl FnOnce() -> Result<T, FactorError>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                eprintln!("operation failed: {e}");
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("operation panicked");
                self.failed += 1;
                None
            }
        }
    }

    /// Add the counts of operations tallied elsewhere.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count an operation that returned but whose answer was rejected.
    pub fn reject(&mut self, why: &str) {
        eprintln!("operation rejected: {why}");
        self.failed += 1;
    }

    /// Check a solve's answer; `true` if it counts.
    pub fn check_solve(&mut self, a: &CscMatrix, a_norm: f64, x: &[f64], b: &[f64]) -> bool {
        let res = scaled_residual(a, a_norm, x, b);
        // Written so that a NaN residual fails.
        let ok = res <= RESIDUAL_LIMIT;
        if !ok {
            self.reject(&format!("scaled residual {res:e} above {RESIDUAL_LIMIT:e}"));
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_core::solver::{FactorOpts, RhsBlock, SolveOpts, SparseCholesky};

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = WORKLOADS[0].matrix(true);
        let x = rescaled(&a, &mut Rng::new(7, 1));
        let y = rescaled(&a, &mut Rng::new(7, 1));
        let z = rescaled(&a, &mut Rng::new(8, 1));
        assert_eq!(x.values(), y.values());
        assert_ne!(x.values(), z.values());
        assert_eq!(x.rowind(), a.rowind());
        assert_ne!(rhs(&mut Rng::new(7, 1), 4), rhs(&mut Rng::new(7, 2), 4));
        let d2: Vec<f64> = x
            .values()
            .iter()
            .zip(a.values())
            .map(|(s, v)| s / v)
            .collect();
        assert!(d2.iter().all(|&r| (0.25..=4.0).contains(&r)));
    }

    #[test]
    fn a_correct_solve_passes_and_a_perturbed_one_is_counted_failed() {
        let a = rescaled(&WORKLOADS[0].matrix(true), &mut Rng::new(3, 0));
        let n = a.nrows();
        let b = rhs(&mut Rng::new(3, 1), n * 2);
        let mut tally = Tally::default();
        let chol = tally
            .attempt(|| SparseCholesky::factorize(&a, &FactorOpts::default()))
            .unwrap();
        let mut x = tally
            .attempt(|| chol.solve_with(RhsBlock::new(&b, 2), &SolveOpts::new()))
            .unwrap()
            .x;
        let norm = sym_norm_inf(&a);
        assert!((norm - parfact_sparse::ops::sym_norm_inf(&a)).abs() <= 1e-12 * norm);
        assert!(tally.check_solve(&a, norm, &x, &b));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 0
            }
        );

        // One entry of the second column off by a part in a million.
        x[n + n / 2] *= 1.0 + 1e-6;
        assert!(!tally.check_solve(&a, norm, &x, &b));
        x[0] = f64::NAN;
        assert!(!tally.check_solve(&a, norm, &x, &b));
        assert!(!tally.check_solve(&a, norm, &x[..n], &b));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 3
            }
        );
    }

    #[test]
    fn an_indefinite_matrix_and_a_panic_are_failures_not_crashes() {
        let mut tally = Tally::default();
        let bad = gen::indefinite(60, 5);
        assert!(tally
            .attempt(|| SparseCholesky::factorize(&bad, &FactorOpts::default()))
            .is_none());
        let panicked: Option<()> = tally.attempt(|| panic!("boom"));
        assert!(panicked.is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }
}
