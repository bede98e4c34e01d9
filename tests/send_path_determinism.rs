//! Send-path determinism regressions: pins the container remediations in
//! the distributed engine and the fan-out baseline (BTreeMap panel/block
//! stores, sorted cache drains, centralized tags).
//!
//! Each `HashMap` gets a fresh random hasher seed per instance, so an
//! iteration-order dependence in a message-send path shows up as run-to-run
//! drift *within one process*. These tests run each engine twice at 2/4/8
//! ranks and require bitwise-identical factors, simulated clocks, and
//! traffic counts — and bitwise agreement with the sequential engine.

use parfact::core::baseline::fanout;
use parfact::core::dist::run_distributed;
use parfact::core::mapping::MapStrategy;
use parfact::core::solver::{FactorOpts, SparseCholesky};
use parfact::mpsim::model::CostModel;
use parfact::mpsim::Machine;
use parfact::order::Method;
use parfact::sparse::csc::CscMatrix;
use parfact::sparse::gen;
use parfact::symbolic::AmalgOpts;

/// Two back-to-back distributed runs must agree bitwise with each other and
/// with the sequential factor, at every rank count. A `HashMap`-ordered
/// gather or extend-add send would break the run-to-run comparison.
#[test]
fn dist_factor_is_bitwise_repeatable_at_2_4_8_ranks() {
    let a = gen::elasticity3d(4, 3, 3);
    let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
    for p in [2usize, 4, 8] {
        let run = || {
            run_distributed(
                p,
                CostModel::bluegene_p(),
                &a,
                Method::default(),
                &AmalgOpts::default(),
                MapStrategy::default(),
                None,
            )
            .expect("SPD")
        };
        let first = run();
        let second = run();
        assert_eq!(
            first.factor.max_abs_diff(&second.factor),
            0.0,
            "p={p}: repeated distributed runs disagree"
        );
        assert_eq!(
            first.factor.max_abs_diff(seq.factor()),
            0.0,
            "p={p}: distributed factor differs from sequential"
        );
    }
}

/// The columns of `L` one rank factored.
type Columns = Vec<(usize, Vec<usize>, Vec<f64>)>;

/// One fan-out baseline run: each rank's columns of the factor plus its
/// virtual clock and message counters — everything the send order can
/// perturb.
fn fanout_run(a: &CscMatrix, p: usize) -> Vec<(Columns, (f64, u64, u64))> {
    Machine::new(p, CostModel::bluegene_p())
        .run(|rank| {
            let cols = fanout::factorize_rank(rank, a).unwrap().cols;
            let s = rank.stats();
            (cols, (rank.clock(), s.msgs_sent, s.bytes_sent))
        })
        .results
}

/// The fan-out baseline must be bitwise repeatable in factor values AND in
/// its simulated schedule (clocks, traffic). This pins the sorted drain of
/// the column cache: an unordered `HashMap::drain` in the cleanup path
/// reorders `free()` calls and perturbs the memory/timing accounting from
/// run to run.
#[test]
fn fanout_baseline_is_bitwise_repeatable_at_2_4_8_ranks() {
    let a0 = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
    let fill = parfact::order::order_matrix(&a0, Method::default());
    let a = fill.apply_sym_lower(&a0);
    for p in [2usize, 4, 8] {
        let (l1, s1): (Vec<_>, Vec<_>) = fanout_run(&a, p).into_iter().unzip();
        let (l2, s2): (Vec<_>, Vec<_>) = fanout_run(&a, p).into_iter().unzip();
        assert_eq!(l1, l2, "p={p}: repeated fan-out runs disagree on L");
        assert_eq!(
            s1, s2,
            "p={p}: repeated fan-out runs disagree on clocks/traffic"
        );
    }
}
