//! Bitwise parity of the distributed fronts' kernels on fronts of several
//! blocks.
//!
//! The older dist ≡ seq tests use grids whose distributed fronts fit in one
//! 48-block, so the multi-panel trailing update, the partial last panel
//! (pivot width not a multiple of `nb`) and the run-based extend-add between
//! two multi-block grids were never compared bit for bit. Here the fronts
//! span 3+ blocks: every rank count that gives a new grid shape, the 2-D,
//! 1-D and flat mappings, three block sizes for async ≡ sync, and seq ≡ dist
//! at the sequential kernel's panel width — all by `to_bits()`, so a `-0.0`
//! or a NaN payload cannot hide behind `max_abs_diff == 0.0`.

use parfact::core::dist::{prepare, run_distributed_prepared};
use parfact::core::mapping::MapStrategy;
use parfact::core::seq::factorize_seq;
use parfact::core::smp::{factorize_smp, SmpOpts};
use parfact::core::solver::{Engine, FactorOpts, SparseCholesky};
use parfact::core::{Factor, FactorKind};
use parfact::dense::chol;
use parfact::mpsim::model::CostModel;
use parfact::order::Method;
use parfact::sparse::csc::CscMatrix;
use parfact::sparse::gen;
use parfact::sparse::perm::Perm;
use parfact::symbolic::{AmalgOpts, Symbolic};
use proptest::prelude::*;
use std::sync::Arc;

const RANKS: [usize; 7] = [2, 3, 4, 6, 8, 16, 32];

/// The three mapping shapes at block size `nb`: subtree-to-subcube with 2-D
/// grids, the same with 1-D column layouts, and the flat 2-D baseline.
fn mappings(nb: usize) -> [(&'static str, MapStrategy); 3] {
    [
        ("2d", MapStrategy::Proportional { use_2d: true, nb }),
        ("1d", MapStrategy::Proportional { use_2d: false, nb }),
        ("flat", MapStrategy::Flat { use_2d: true, nb }),
    ]
}

fn assert_bitwise(got: &Factor, want: &Factor, what: &str) {
    assert_eq!(got.panels.len(), want.panels.len(), "{what}: slab size");
    for (k, (x, y)) in got.panels.iter().zip(&want.panels).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: factor slab entry {k} differs: {x:e} vs {y:e}"
        );
    }
    let d = |f: &Factor| f.d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(d(got), d(want), "{what}: LDLᵀ pivots");
}

/// A prepared problem and its sequential factor.
struct Problem {
    sym: Arc<Symbolic>,
    ap: CscMatrix,
    perm: Perm,
    seq: Factor,
}

impl Problem {
    fn new(a: &CscMatrix) -> Self {
        let (sym, ap, perm) = prepare(a, Method::default(), &AmalgOpts::default());
        let seq = factorize_seq(&ap, &sym, FactorKind::Llt, perm.clone()).expect("SPD");
        Problem { sym, ap, perm, seq }
    }

    /// On `p` ranks at block size `nb`, under each mapping: async ≡ sync,
    /// and dist ≡ seq when `nb` is the sequential kernel's panel width.
    fn check(&self, what: &str, p: usize, nb: usize, model: CostModel) {
        for (shape, strategy) in mappings(nb) {
            let run = |sync| {
                let Problem { sym, ap, perm, .. } = self;
                run_distributed_prepared(p, model, ap, sym, perm, strategy, sync, None)
                    .expect("SPD")
                    .factor
            };
            let what = format!("{what} p={p} {shape} nb={nb}");
            let event_driven = run(false);
            assert_bitwise(&event_driven, &run(true), &format!("{what}: async vs sync"));
            if nb == chol::NB {
                assert_bitwise(&event_driven, &self.seq, &format!("{what}: dist vs seq"));
            }
        }
    }
}

/// Every rank count and block size of a matrix whose fronts span 3+ blocks.
fn check_matrix(name: &str, a: &CscMatrix) {
    let problem = Problem::new(a);
    let sym = &problem.sym;
    let widest = (0..sym.nsuper()).map(|s| sym.front_order(s)).max();
    assert!(
        widest.unwrap_or(0) > 2 * chol::NB,
        "{name}: fronts must span 3+ blocks to exercise the multi-block paths"
    );
    for p in RANKS {
        for nb in [16, chol::NB, 64] {
            problem.check(name, p, nb, CostModel::bluegene_p());
        }
    }
}

#[test]
fn lap3d12_multi_block_fronts_are_bitwise() {
    check_matrix(
        "lap3d-12",
        &gen::laplace3d(12, 12, 12, gen::Stencil3d::SevenPoint),
    );
}

#[test]
fn elas6_multi_block_fronts_are_bitwise() {
    check_matrix("elas-6", &gen::elasticity3d(6, 6, 6));
}

/// One front kernel, three schedulers, and the front is factored where it
/// is stored: the sequential postorder loop, both SMP regimes (each
/// thread's local subtrees, and the top with its trailing updates split
/// over the threads) and the local path of the distributed engine on one
/// rank must leave the same bits in the factor slab — and so must a
/// refactorization, which assembles into a slab still holding the
/// previous factor.
#[test]
fn seq_smp_and_one_rank_dist_share_every_factor_bit() {
    let smp_opts = SmpOpts { threads: 3 };
    let matrices = [
        (
            "lap3d-12",
            gen::laplace3d(12, 12, 12, gen::Stencil3d::SevenPoint),
        ),
        ("elas-6", gen::elasticity3d(6, 6, 6)),
    ];
    for (name, a) in &matrices {
        let Problem { sym, ap, perm, seq } = &Problem::new(a);
        let smp = factorize_smp(ap, sym, FactorKind::Llt, perm.clone(), &smp_opts).expect("SPD");
        assert_bitwise(&smp, seq, &format!("{name}: smp vs seq"));
        let strategy = MapStrategy::Proportional {
            use_2d: true,
            nb: chol::NB,
        };
        let model = CostModel::bluegene_p();
        let dist1 = run_distributed_prepared(1, model, ap, sym, perm, strategy, false, None);
        let dist1 = dist1.expect("SPD").factor;
        assert_bitwise(&dist1, seq, &format!("{name}: dist p=1 vs seq"));

        // Refactorize with other values and back: the second pass writes
        // over a slab full of the first one's factor.
        let mut chol = SparseCholesky::factorize(a, &FactorOpts::default()).expect("SPD");
        let mut scaled = a.clone();
        scaled.values_mut().iter_mut().for_each(|v| *v *= 3.0);
        for engine in [Engine::Sequential, Engine::Smp(smp_opts)] {
            chol.refactorize(&scaled, engine.clone()).expect("SPD");
            chol.refactorize(a, engine.clone()).expect("SPD");
            let what = format!("{name}: {} refactorize vs seq", engine.name());
            assert_bitwise(chol.factor(), seq, &what);
        }
    }

    // LDLᵀ (not a distributed kernel): an indefinite matrix on the two
    // host schedulers, pivots included.
    let a = gen::indefinite(400, 7);
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    let seq = factorize_seq(&ap, &sym, FactorKind::Ldlt, perm.clone()).expect("quasi-definite");
    assert!(
        seq.d.iter().any(|&d| d < 0.0),
        "the case must be indefinite"
    );
    let smp = factorize_smp(&ap, &sym, FactorKind::Ldlt, perm, &smp_opts);
    assert_bitwise(&smp.expect("quasi-definite"), &seq, "ldlt: smp vs seq");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random SPD patterns: irregular trees, ragged front orders, children
    /// whose rows interleave with the parent's. A small `nb` makes even
    /// these fronts multi-block, so the event-driven and the blocking
    /// schedule must still agree bit for bit, and the default block size
    /// must reproduce the sequential factor.
    #[test]
    fn random_spd_patterns_are_bitwise(
        n in 30usize..=140,
        k in 1usize..=6,
        seed in any::<u64>(),
        p in 2usize..=9,
    ) {
        let problem = Problem::new(&gen::random_spd(n, k, seed));
        for nb in [5, chol::NB] {
            problem.check(&format!("n={n} k={k} seed={seed}"), p, nb, CostModel::zero_cost());
        }
    }
}
