//! Property-based tests for the symbolic-analysis invariants on random
//! sparsity patterns.

use parfact_sparse::gen;
use parfact_sparse::perm::Perm;
use parfact_symbolic::{analyze, etree, AmalgOpts, NONE};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn analyze_invariants_hold(n in 4usize..60, k in 0usize..5, seed in any::<u64>(),
                               min_width in 0usize..12, relax in 0.0f64..0.5) {
        let a = gen::random_spd(n, k, seed);
        let (sym, ap) = analyze(&a, &AmalgOpts { min_width, relax_frac: relax });

        // Partition covers all columns contiguously.
        prop_assert_eq!(sym.sn_ptr[0], 0);
        prop_assert_eq!(*sym.sn_ptr.last().unwrap(), n);
        prop_assert!(sym.sn_ptr.windows(2).all(|w| w[0] < w[1]));

        // sn_of is consistent with the partition.
        for s in 0..sym.nsuper() {
            for c in sym.sn_ptr[s]..sym.sn_ptr[s + 1] {
                prop_assert_eq!(sym.sn_of[c], s);
            }
        }

        // The assembly tree is a valid postordered forest and every
        // supernode's below rows are covered by its parent.
        prop_assert!(sym.tree.validate());
        for s in 0..sym.nsuper() {
            let p = sym.tree.parent[s];
            if p == NONE {
                prop_assert!(sym.sn_rows[s].is_empty());
                continue;
            }
            prop_assert!(p > s);
            for &r in &sym.sn_rows[s] {
                let ok = (sym.sn_ptr[p]..sym.sn_ptr[p + 1]).contains(&r)
                    || sym.sn_rows[p].binary_search(&r).is_ok();
                prop_assert!(ok, "row {} of supernode {} not covered", r, s);
            }
        }

        // Rows are sorted, strictly beyond the pivot block, in range.
        for s in 0..sym.nsuper() {
            let c1 = sym.sn_ptr[s + 1];
            prop_assert!(sym.sn_rows[s].windows(2).all(|w| w[0] < w[1]));
            prop_assert!(sym.sn_rows[s].iter().all(|&r| r >= c1 && r < n));
        }

        // Factor never loses entries of A, and flops dominate nnz.
        prop_assert!(sym.factor_nnz() >= ap.nnz());
        prop_assert!(sym.factor_flops() >= sym.factor_nnz() as f64);
    }

    #[test]
    fn postorder_permutation_is_consistent(n in 2usize..80, k in 0usize..5, seed in any::<u64>()) {
        let a = gen::random_spd(n, k, seed);
        let parent = etree::etree(&a);
        let post = etree::postorder(&parent);
        // post is a permutation.
        let p = Perm::from_vec(post);
        // Relabeled tree is postordered and has the same root count.
        let rl = etree::relabel(&parent, &p);
        prop_assert!(etree::is_postordered(&rl));
        let roots_before = parent.iter().filter(|&&x| x == NONE).count();
        let roots_after = rl.iter().filter(|&&x| x == NONE).count();
        prop_assert_eq!(roots_before, roots_after);
    }

    #[test]
    fn strict_partition_is_finest(n in 4usize..50, k in 1usize..4, seed in any::<u64>()) {
        let a = gen::random_spd(n, k, seed);
        let strict = analyze(&a, &AmalgOpts { min_width: 0, relax_frac: 0.0 }).0;
        let relaxed = analyze(&a, &AmalgOpts { min_width: 8, relax_frac: 0.25 }).0;
        prop_assert!(relaxed.nsuper() <= strict.nsuper());
        prop_assert!(relaxed.factor_nnz() >= strict.factor_nnz());
        // Relaxed boundaries are a subset of strict boundaries... not true in
        // general for arbitrary amalgamation schemes, but ours only merges
        // fundamental supernodes, so every relaxed boundary is a strict one.
        let strict_set: std::collections::HashSet<usize> = strict.sn_ptr.iter().copied().collect();
        for b in &relaxed.sn_ptr {
            prop_assert!(strict_set.contains(b), "boundary {} not fundamental", b);
        }
    }

    #[test]
    fn amalgamation_padding_is_bounded(n in 8usize..60, k in 1usize..4, seed in any::<u64>()) {
        // The strict-size budget must cap padding: relaxed nnz stays within
        // (1 + relax) * strict nnz + tiny-merge slack.
        let a = gen::random_spd(n, k, seed);
        let strict = analyze(&a, &AmalgOpts { min_width: 0, relax_frac: 0.0 }).0;
        let relaxed = analyze(&a, &AmalgOpts { min_width: 4, relax_frac: 0.10 }).0;
        let bound = (strict.factor_nnz() as f64) * 1.35 + 64.0 * strict.nsuper() as f64;
        prop_assert!(
            (relaxed.factor_nnz() as f64) <= bound,
            "padding exploded: strict {} relaxed {}",
            strict.factor_nnz(),
            relaxed.factor_nnz()
        );
    }
}
