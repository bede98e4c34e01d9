//! Fill-reducing orderings for `parfact`.
//!
//! The SC'09 system relies on nested dissection to expose both low fill and
//! a well-balanced assembly tree — the tree shape *is* the parallelism. This
//! crate implements the ordering substrate from scratch:
//!
//! - [`nd`] — multilevel nested dissection (heavy-edge-matching coarsening,
//!   greedy graph growing, Fiduccia–Mattheyses boundary refinement, vertex
//!   separators), the production choice;
//! - [`mindeg`] — quotient-graph minimum (external) degree, used below the
//!   dissection cutoff and as a standalone classic;
//! - [`rcm`] — reverse Cuthill–McKee, the bandwidth-oriented baseline;
//! - [`partition`] — the weighted-graph multilevel bisection machinery
//!   underlying `nd` (usable on its own for the mapping experiments).
//!
//! All orderings return a [`Perm`] `p` meaning "position `k` of the
//! reordered matrix is original vertex `p.old_of_new(k)`"; apply it with
//! [`Perm::apply_sym_lower`].
// Index loops over parallel arrays (`for j in 0..n` touching several
// slices) are the deliberate idiom of this numerical code; clippy's
// iterator rewrites obscure the subscript math.
#![allow(clippy::needless_range_loop)]

pub mod mindeg;
pub mod nd;
pub mod partition;
pub mod rcm;

use parfact_sparse::csc::CscMatrix;
use parfact_sparse::graph::AdjGraph;
use parfact_sparse::perm::Perm;
use parfact_trace::{Collector, Phase};

/// Ordering algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Identity ordering (whatever the input numbering was).
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Quotient-graph minimum degree.
    MinDegree,
    /// Multilevel nested dissection with the given options.
    NestedDissection(nd::NdOpts),
}

impl Default for Method {
    fn default() -> Self {
        Method::NestedDissection(nd::NdOpts::default())
    }
}

/// Order an adjacency graph.
pub fn order_graph(g: &AdjGraph, method: Method) -> Perm {
    order_graph_with(g, method, 1, &Collector::disabled())
}

/// Order an adjacency graph on `threads` workers, recording per-stage
/// analysis spans into `tr`. The permutation is identical to
/// [`order_graph`] at every thread count; only nested dissection actually
/// fans out (the other methods are inherently sequential and run inline).
pub fn order_graph_with(g: &AdjGraph, method: Method, threads: usize, tr: &Collector) -> Perm {
    match method {
        Method::Natural => Perm::identity(g.nvert()),
        Method::Rcm => rcm::rcm(g),
        Method::MinDegree => {
            let mut rec = tr.local(0);
            let t = rec.start();
            let p = mindeg::min_degree(g);
            rec.stop(t, Phase::Mindeg, None);
            p
        }
        Method::NestedDissection(opts) => nd::nested_dissection_with(g, &opts, threads, tr),
    }
}

/// Order a symmetric-lower matrix (builds the adjacency graph internally).
pub fn order_matrix(a: &CscMatrix, method: Method) -> Perm {
    order_graph(&AdjGraph::from_sym_lower(a), method)
}

/// [`order_matrix`] on `threads` workers with analysis tracing; see
/// [`order_graph_with`].
pub fn order_matrix_with(a: &CscMatrix, method: Method, threads: usize, tr: &Collector) -> Perm {
    order_graph_with(&AdjGraph::from_sym_lower(a), method, threads, tr)
}

/// Exact fill-in of an elimination order, by explicit graph elimination.
/// Quadratic in the worst case — a quality-evaluation/reference tool, not a
/// production path (the production fill predictor is the near-linear
/// column-count algorithm in `parfact-symbolic`).
// lint:allow(R7) reference fill count by explicit elimination: the yardstick the ordering tests hold every method to
pub fn fill_in(g: &AdjGraph, perm: &Perm) -> usize {
    let n = g.nvert();
    let mut adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let mut eliminated = vec![false; n];
    let mut fill = 0usize;
    for k in 0..n {
        let v = perm.old_of_new(k);
        let nb: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        for i in 0..nb.len() {
            for j in i + 1..nb.len() {
                let (a, b) = (nb[i], nb[j]);
                if adj[a].insert(b) {
                    adj[b].insert(a);
                    fill += 1;
                }
            }
        }
        eliminated[v] = true;
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;

    #[test]
    fn every_method_yields_valid_permutation() {
        let a = gen::laplace2d(9, 7, gen::Stencil2d::FivePoint);
        for m in [
            Method::Natural,
            Method::Rcm,
            Method::MinDegree,
            Method::NestedDissection(nd::NdOpts::default()),
        ] {
            let p = order_matrix(&a, m);
            assert_eq!(p.len(), 63);
            // from_vec validates permutation-ness; applying must round-trip.
            let ap = p.apply_sym_lower(&a);
            ap.check_sym_lower().unwrap();
            assert_eq!(ap.nnz(), a.nnz());
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = gen::tridiagonal(5);
        let p = order_matrix(&a, Method::Natural);
        assert_eq!(p, Perm::identity(5));
    }
}
