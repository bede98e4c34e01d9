//! Reverse Cuthill–McKee: the classic bandwidth/profile-reducing ordering,
//! kept as the envelope-method baseline the paper's generation of solvers
//! displaced.

use parfact_sparse::graph::AdjGraph;
use parfact_sparse::perm::Perm;
use std::collections::VecDeque;

/// Find a pseudo-peripheral vertex of the component containing `start`
/// (George–Liu: repeat BFS from the farthest, least-degree vertex of the
/// last level until eccentricity stops growing).
pub fn pseudo_peripheral(g: &AdjGraph, start: usize) -> usize {
    let n = g.nvert();
    let mut level = vec![usize::MAX; n];
    let mut cur = start;
    let mut best_ecc = 0usize;
    loop {
        level.fill(usize::MAX);
        let mut q = VecDeque::new();
        level[cur] = 0;
        q.push_back(cur);
        let mut last_level = 0usize;
        let mut frontier = vec![cur];
        while let Some(v) = q.pop_front() {
            if level[v] > last_level {
                last_level = level[v];
                frontier.clear();
            }
            frontier.push(v);
            for &u in g.neighbors(v) {
                if level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    q.push_back(u);
                }
            }
        }
        if last_level <= best_ecc {
            return cur;
        }
        best_ecc = last_level;
        // Continue from the min-degree vertex of the last level.
        cur = frontier
            .iter()
            .copied()
            .min_by_key(|&v| g.degree(v))
            .unwrap_or(cur);
    }
}

/// Reverse Cuthill–McKee ordering over all components.
pub fn rcm(g: &AdjGraph) -> Perm {
    let n = g.nvert();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut scratch: Vec<usize> = Vec::new();
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let root = pseudo_peripheral(g, s);
        // Cuthill–McKee BFS with neighbors sorted by degree.
        let mut q = VecDeque::new();
        visited[root] = true;
        q.push_back(root);
        while let Some(v) = q.pop_front() {
            order.push(v);
            scratch.clear();
            scratch.extend(g.neighbors(v).iter().copied().filter(|&u| !visited[u]));
            scratch.sort_unstable_by_key(|&u| g.degree(u));
            for &u in &scratch {
                visited[u] = true;
                q.push_back(u);
            }
        }
    }
    order.reverse();
    Perm::from_vec(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;
    use parfact_sparse::graph::AdjGraph;

    fn bandwidth(a: &parfact_sparse::csc::CscMatrix) -> usize {
        let mut bw = 0;
        for c in 0..a.ncols() {
            let (rows, _) = a.col(c);
            for &r in rows {
                bw = bw.max(r - c);
            }
        }
        bw
    }

    #[test]
    fn rcm_on_path_keeps_unit_bandwidth() {
        let a = gen::tridiagonal(20);
        let g = AdjGraph::from_sym_lower(&a);
        let p = rcm(&g);
        let ap = p.apply_sym_lower(&a);
        assert_eq!(bandwidth(&ap), 1);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        use parfact_sparse::perm::Perm;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let a = gen::tridiagonal(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut order: Vec<usize> = (0..50).collect();
        order.sort_by_cached_key(|_| rng.gen::<u64>());
        let shuffle = Perm::from_vec(order);
        let bad = shuffle.apply_sym_lower(&a);
        assert!(bandwidth(&bad) > 10);
        let p = rcm(&AdjGraph::from_sym_lower(&bad));
        let good = p.apply_sym_lower(&bad);
        assert_eq!(bandwidth(&good), 1);
    }

    #[test]
    fn rcm_on_grid_beats_random_bandwidth() {
        let a = gen::laplace2d(10, 10, gen::Stencil2d::FivePoint);
        let p = rcm(&AdjGraph::from_sym_lower(&a));
        let ap = p.apply_sym_lower(&a);
        // Grid bandwidth under RCM should be close to min(nx, ny).
        assert!(bandwidth(&ap) <= 14, "bandwidth {}", bandwidth(&ap));
    }

    #[test]
    fn pseudo_peripheral_on_path_is_endpoint() {
        let a = gen::tridiagonal(9);
        let g = AdjGraph::from_sym_lower(&a);
        let v = pseudo_peripheral(&g, 4);
        assert!(v == 0 || v == 8, "got {v}");
    }

    #[test]
    fn rcm_covers_disconnected_graphs() {
        let mut coo = parfact_sparse::coo::CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0);
        }
        coo.push(1, 0, -1.0);
        coo.push(5, 4, -1.0);
        let g = AdjGraph::from_sym_lower(&coo.to_csc());
        let p = rcm(&g);
        assert_eq!(p.len(), 6);
    }
}
