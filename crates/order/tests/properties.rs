//! Property-based tests for the ordering algorithms on random graphs.

use parfact_order::{fill_in, mindeg, order_graph, Method};
use parfact_sparse::gen;
use parfact_sparse::graph::AdjGraph;
use parfact_sparse::perm::Perm;
use proptest::prelude::*;

fn random_graph() -> impl Strategy<Value = AdjGraph> {
    (5usize..=60, 1usize..=5, any::<u64>())
        .prop_map(|(n, k, seed)| AdjGraph::from_sym_lower(&gen::random_spd(n, k, seed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn orderings_are_permutations(g in random_graph()) {
        for m in [Method::Rcm, Method::MinDegree, Method::default()] {
            let p = order_graph(&g, m);
            prop_assert_eq!(p.len(), g.nvert());
            let mut seen = vec![false; g.nvert()];
            for &o in p.perm() {
                prop_assert!(!seen[o]);
                seen[o] = true;
            }
        }
    }

    #[test]
    fn mindeg_never_loses_to_identity_badly(g in random_graph()) {
        // Minimum degree is a heuristic, but on these random graphs it must
        // stay within a factor of the natural order's fill (sanity guard
        // against regressions that silently break the degree updates).
        let f_md = fill_in(&g, &mindeg::min_degree(&g));
        let f_nat = fill_in(&g, &Perm::identity(g.nvert()));
        prop_assert!(f_md <= f_nat.max(8) * 2, "md {f_md} vs natural {f_nat}");
    }

    #[test]
    fn nd_fill_is_reasonable_on_grids(nx in 4usize..14, ny in 4usize..14) {
        let a = gen::laplace2d(nx, ny, gen::Stencil2d::FivePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let p = order_graph(&g, Method::default());
        let f_nd = fill_in(&g, &p);
        let f_nat = fill_in(&g, &Perm::identity(g.nvert()));
        // ND must be no worse than 1.5x natural on small grids and strictly
        // better once the grid is big enough for separators to pay off.
        prop_assert!(f_nd as f64 <= 1.5 * f_nat as f64 + 8.0);
        if nx >= 10 && ny >= 10 {
            prop_assert!(f_nd < f_nat);
        }
    }

    #[test]
    fn rcm_is_deterministic_and_covers(g in random_graph()) {
        let p1 = order_graph(&g, Method::Rcm);
        let p2 = order_graph(&g, Method::Rcm);
        prop_assert_eq!(p1, p2);
    }
}
