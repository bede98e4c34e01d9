//! Property-based tests (proptest) over randomly generated systems:
//! the invariants every engine must hold on *arbitrary* valid inputs, not
//! just the hand-picked cases.

use parfact::core::dist::run_distributed;
use parfact::core::mapping::MapStrategy;
use parfact::core::smp::SmpOpts;
use parfact::core::solver::{Engine, FactorOpts, RhsBlock, SolveOpts, SparseCholesky};
use parfact::mpsim::model::CostModel;
use parfact::order::Method;
use parfact::sparse::coo::CooMatrix;
use parfact::sparse::csc::CscMatrix;
use parfact::sparse::perm::Perm;
use parfact::sparse::{gen, io, ops};
use parfact::symbolic::{colcount, etree, AmalgOpts, NONE};
use proptest::prelude::*;

/// Strategy: a random symmetric-lower SPD matrix (diagonally dominant) of
/// order 5..=60 with random sparsity.
fn spd_matrix() -> impl Strategy<Value = CscMatrix> {
    (5usize..=60, 1usize..=6, any::<u64>()).prop_map(|(n, k, seed)| gen::random_spd(n, k, seed))
}

/// Strategy: a random symmetric *pattern* matrix (values irrelevant) used
/// for symbolic-analysis invariants.
fn sym_pattern() -> impl Strategy<Value = CscMatrix> {
    (4usize..=50, 0usize..=5, any::<u64>()).prop_map(|(n, k, seed)| gen::random_spd(n, k, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solve_has_small_residual_for_every_ordering(a in spd_matrix(), seed in 0usize..1000) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (((i * 31 + seed) % 89) as f64) / 11.0 - 4.0).collect();
        for ordering in [Method::Natural, Method::Rcm, Method::MinDegree, Method::default()] {
            let chol = SparseCholesky::factorize(&a, &FactorOpts::new().ordering(ordering)).unwrap();
            let x = chol.solve(&b);
            prop_assert!(ops::sym_residual_inf(&a, &x, &b) < 1e-10, "ordering {:?}", ordering);
        }
    }

    #[test]
    fn smp_factor_is_bitwise_sequential(a in spd_matrix()) {
        let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let smp = SparseCholesky::factorize(
            &a,
            &FactorOpts::new().engine(Engine::Smp(SmpOpts { threads: 3 })),
        ).unwrap();
        prop_assert_eq!(seq.factor().max_abs_diff(smp.factor()), 0.0);
    }

    #[test]
    fn distributed_factor_is_bitwise_sequential(a in spd_matrix(), p in 1usize..=6) {
        let seq = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let out = run_distributed(
            p, CostModel::zero_cost(), &a,
            Method::default(), &AmalgOpts::default(), MapStrategy::default(), None,
        ).expect("SPD");
        prop_assert_eq!(out.factor.max_abs_diff(seq.factor()), 0.0);
    }

    #[test]
    fn permutation_roundtrip(n in 1usize..200, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = Perm::random(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
        prop_assert_eq!(p.apply_inv_vec(&p.apply_vec(&x)), x);
        prop_assert_eq!(p.compose(&p.inverse()), Perm::identity(n));
    }

    #[test]
    fn symmetric_permutation_preserves_solution(a in spd_matrix(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = Perm::random(n, &mut rng);
        let pa = p.apply_sym_lower(&a);
        pa.check_sym_lower().unwrap();
        // Solve both systems; solutions must match after unpermuting.
        let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        let x = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap().solve(&b);
        let pb = p.apply_vec(&b);
        let px = SparseCholesky::factorize(&pa, &FactorOpts::default()).unwrap().solve(&pb);
        let back = p.apply_inv_vec(&px);
        for (u, v) in x.iter().zip(&back) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn matrix_market_roundtrip(a in spd_matrix()) {
        let text = io::write_sym_lower(&a);
        let b = io::parse_sym_lower(&text).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn etree_is_postordered_after_postordering(a in sym_pattern()) {
        let parent0 = etree::etree(&a);
        let post = Perm::from_vec(etree::postorder(&parent0));
        let rl = etree::relabel(&parent0, &post);
        prop_assert!(etree::is_postordered(&rl));
        // Subtree sizes sum to n over roots.
        let sizes = etree::subtree_sizes(&rl);
        let total: usize = rl.iter().enumerate()
            .filter(|(_, &p)| p == NONE)
            .map(|(j, _)| sizes[j]).sum();
        prop_assert_eq!(total, a.ncols());
    }

    #[test]
    fn fast_colcounts_match_naive(a in sym_pattern()) {
        let parent0 = etree::etree(&a);
        let post = Perm::from_vec(etree::postorder(&parent0));
        let ap = post.apply_sym_lower(&a);
        let parent = etree::relabel(&parent0, &post);
        prop_assert_eq!(
            colcount::col_counts(&ap, &parent),
            colcount::col_counts_naive(&ap, &parent)
        );
    }

    #[test]
    fn factor_nnz_at_least_matrix_nnz(a in spd_matrix()) {
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        prop_assert!(chol.factor_nnz() >= a.nnz());
        prop_assert!(chol.factor_flops() >= chol.factor_nnz() as f64);
    }

    #[test]
    fn refinement_never_hurts(a in spd_matrix()) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 19) as f64 - 9.0).collect();
        let chol = SparseCholesky::factorize(&a, &FactorOpts::default()).unwrap();
        let x0 = chol.solve(&b);
        let r0 = ops::norm_inf(&ops::sym_residual(&a, &x0, &b));
        let out = chol
            .solve_with(RhsBlock::single(&b), &SolveOpts::new().refine(2))
            .unwrap();
        let r1 = out.residual.unwrap();
        prop_assert!(r1 <= r0.max(1e-14) * 1.0001, "refined {r1} vs plain {r0}");
    }

    #[test]
    fn orderings_are_valid_permutations(a in sym_pattern()) {
        for m in [Method::Rcm, Method::MinDegree, Method::default()] {
            let p = parfact::order::order_matrix(&a, m);
            // from_vec inside order_matrix validates; double-check coverage.
            let mut seen = vec![false; a.ncols()];
            for &o in p.perm() {
                prop_assert!(!seen[o]);
                seen[o] = true;
            }
        }
    }

    #[test]
    fn extend_add_is_child_order_independent_in_value(
        n in 6usize..30, k in 1usize..4, seed in any::<u64>()
    ) {
        // The *sum* assembled into a parent front must not depend on which
        // engine computed it; amalgamation settings shuffle the tree shape,
        // and the reconstruction must stay correct under all of them.
        let a = gen::random_spd(n, k, seed);
        for amalg in [
            AmalgOpts { min_width: 0, relax_frac: 0.0 },
            AmalgOpts { min_width: 4, relax_frac: 0.1 },
            AmalgOpts { min_width: 16, relax_frac: 0.5 },
        ] {
            let chol = SparseCholesky::factorize(&a, &FactorOpts::new().amalg(amalg)).unwrap();
            let ap = chol.factor().perm.apply_sym_lower(&a);
            let err = parfact::core::factor::reconstruction_error(chol.factor(), &ap);
            prop_assert!(err < 1e-9, "amalg {:?}: err {err}", amalg);
        }
    }

    #[test]
    fn coo_duplicate_summing(n in 2usize..20, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(n, n);
        let mut dense = vec![0.0f64; n * n];
        for _ in 0..4 * n {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            let v = rng.gen_range(-2.0..2.0);
            coo.push(i, j, v);
            dense[j * n + i] += v;
        }
        let csc = coo.to_csc();
        for j in 0..n {
            for i in 0..n {
                let got = csc.get(i, j).unwrap_or(0.0);
                prop_assert!((got - dense[j * n + i]).abs() < 1e-12);
            }
        }
    }
}
