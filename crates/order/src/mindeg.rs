//! Quotient-graph minimum (external) degree ordering.
//!
//! Classic minimum degree in the element/variable ("quotient graph")
//! formulation: eliminating a variable turns it into an *element* whose
//! boundary is its live neighbourhood; a variable's neighbourhood is the
//! union of its plain variable adjacency and the boundaries of its
//! elements. Exact external degrees are recounted by marker scans (no
//! AMD-style approximation or supervariables): the order is the repeated
//! pick of the smallest `(degree, vertex)` pair, deterministic and exact.
//!
//! The quotient graph lives in flat arrays, reused across calls by one
//! `MinDegree` workspace (nested dissection keeps one per worker for its
//! many small leaves). Every vertex owns one run of the shared list array
//! `iw`: a variable's run holds its elements first, then its variables,
//! and is rewritten in place — the run never grows, because the variable
//! adjacent to the eliminated one loses either that variable or an
//! absorbed element for the one element it gains. A new element's boundary
//! is appended at the end of `iw`; when that would pass twice the input
//! size, the live runs are compacted. Live storage never exceeds the input
//! adjacency, so `iw` stays within `2·nnz + n` entries.

use crate::partition::narrow;
use parfact_sparse::graph::AdjGraph;
use parfact_sparse::perm::Perm;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Still a variable awaiting elimination.
    Var,
    /// Eliminated variable now acting as an element.
    Elem,
    /// Element absorbed into a newer element (dead).
    Dead,
}

/// The reusable workspace of [`min_degree`].
#[derive(Default)]
pub(crate) struct MinDegree {
    status: Vec<Status>,
    /// Start of each vertex's run in `iw`.
    pe: Vec<u32>,
    /// Length of each vertex's run.
    len: Vec<u32>,
    /// How many entries at the front of a variable's run are elements.
    elen: Vec<u32>,
    degree: Vec<u32>,
    /// Marker stamps: the boundary being formed carries one stamp, and
    /// each of its variables' degree unions the next ones.
    mark: Vec<u32>,
    iw: Vec<u32>,
    /// Compaction target, swapped with `iw`.
    spare: Vec<u32>,
    /// The boundary of the element being formed.
    le: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl MinDegree {
    /// Append the minimum-degree elimination order of the graph
    /// `(xadj, adjncy)` (sorted or not, no self loops) to `out`.
    pub(crate) fn order(&mut self, xadj: &[u32], adjncy: &[u32], out: &mut Vec<u32>) {
        let n = xadj.len() - 1;
        let degs = xadj.windows(2).map(|w| w[1] - w[0]);
        self.status.clear();
        self.status.resize(n, Status::Var);
        self.pe.clear();
        self.pe.extend_from_slice(&xadj[..n]);
        self.len.clear();
        self.len.extend(degs.clone());
        self.elen.clear();
        self.elen.resize(n, 0);
        self.degree.clear();
        self.degree.extend(degs);
        self.mark.clear();
        self.mark.resize(n, 0);
        self.iw.clear();
        self.iw.extend_from_slice(adjncy);
        let limit = 2 * adjncy.len() + n;
        let mut stamp = 0u32;
        self.heap.clear();
        self.heap
            .extend((0..n as u32).map(|v| Reverse((self.degree[v as usize], v))));

        for _ in 0..n {
            // Pop the minimum-degree live variable with a fresh key.
            let v = loop {
                let Reverse((d, v)) = self
                    .heap
                    .pop()
                    .expect("heap exhausted before all vars ordered");
                if self.status[v as usize] == Status::Var && self.degree[v as usize] == d {
                    break v as usize;
                }
            };
            out.push(v as u32);

            // Form the new element's boundary: live vars adjacent to v, plus
            // live vars on the boundary of every element adjacent to v.
            // Its members carry the stamp `base`.
            if stamp as usize + n + 2 > u32::MAX as usize {
                self.mark.fill(0);
                stamp = 0;
            }
            stamp += 1;
            let base = stamp;
            self.le.clear();
            let (p, el, l) = (
                self.pe[v] as usize,
                self.elen[v] as usize,
                self.len[v] as usize,
            );
            for &u in &self.iw[p + el..p + l] {
                if self.status[u as usize] == Status::Var && self.mark[u as usize] != base {
                    self.mark[u as usize] = base;
                    self.le.push(u);
                }
            }
            for k in p..p + el {
                let e = self.iw[k] as usize;
                if self.status[e] != Status::Elem {
                    continue;
                }
                let q = self.pe[e] as usize;
                for &u in &self.iw[q..q + self.len[e] as usize] {
                    if self.status[u as usize] == Status::Var
                        && self.mark[u as usize] != base
                        && u as usize != v
                    {
                        self.mark[u as usize] = base;
                        self.le.push(u);
                    }
                }
                self.status[e] = Status::Dead; // absorbed into the new element
            }
            // v's run now holds its boundary.
            self.status[v] = Status::Elem;
            self.len[v] = 0;
            if self.iw.len() + self.le.len() > limit {
                self.compact();
            }
            self.pe[v] = self.iw.len() as u32;
            self.len[v] = self.le.len() as u32;
            self.iw.extend_from_slice(&self.le);

            // Update every boundary variable: prune dominated edges and
            // absorbed elements, link the new element, and recount its
            // exact degree.
            for i in 0..self.le.len() {
                let u = self.le[i] as usize;
                let (p, el, l) = (
                    self.pe[u] as usize,
                    self.elen[u] as usize,
                    self.len[u] as usize,
                );
                // Keep the live elements, then the live vars outside the
                // boundary (their coupling is now represented by v), and
                // put v between them.
                let mut ke = 0;
                for k in p..p + el {
                    let e = self.iw[k];
                    if self.status[e as usize] == Status::Elem {
                        self.iw[p + ke] = e;
                        ke += 1;
                    }
                }
                let mut kv = 0;
                for k in p + el..p + l {
                    let w = self.iw[k] as usize;
                    if self.status[w] == Status::Var && self.mark[w] != base {
                        self.iw[p + el + kv] = w as u32;
                        kv += 1;
                    }
                }
                debug_assert!(ke + 1 + kv <= l, "a variable's run must not grow");
                self.iw.copy_within(p + el..p + el + kv, p + ke + 1);
                self.iw[p + ke] = v as u32;
                self.elen[u] = (ke + 1) as u32;
                self.len[u] = (ke + 1 + kv) as u32;

                // Exact external degree by marker union: the new element
                // contributes its other members, the vars and the older
                // elements whatever they add outside it.
                stamp += 1;
                let mut d = (self.le.len() - 1 + kv) as u32;
                for &w in &self.iw[p + ke + 1..p + ke + 1 + kv] {
                    self.mark[w as usize] = stamp;
                }
                for k in p..p + ke {
                    // Count the element's live variables, dropping the
                    // eliminated ones from its run as they are met.
                    let e = self.iw[k] as usize;
                    let q = self.pe[e] as usize;
                    let mut live = q;
                    for j in q..q + self.len[e] as usize {
                        let w = self.iw[j] as usize;
                        if self.status[w] == Status::Var {
                            self.iw[live] = w as u32;
                            live += 1;
                            if self.mark[w] != base && self.mark[w] != stamp {
                                self.mark[w] = stamp;
                                d += 1;
                            }
                        }
                    }
                    self.len[e] = (live - q) as u32;
                }
                self.degree[u] = d;
                self.heap.push(Reverse((d, u as u32)));
            }
        }
    }

    /// Copy every live run to the front of a fresh array, dropping the
    /// runs of absorbed elements and the space freed by pruning.
    fn compact(&mut self) {
        self.spare.clear();
        for x in 0..self.pe.len() {
            if self.status[x] != Status::Dead {
                let p = self.pe[x] as usize;
                self.pe[x] = self.spare.len() as u32;
                self.spare
                    .extend_from_slice(&self.iw[p..p + self.len[x] as usize]);
            }
        }
        std::mem::swap(&mut self.iw, &mut self.spare);
    }
}

/// Minimum-degree ordering of an undirected graph.
///
/// # Panics
/// If `g` exceeds [`crate::partition::MAX_GRAPH`].
pub fn min_degree(g: &AdjGraph) -> Perm {
    let (xadj, adjncy) = narrow(g);
    let mut order = Vec::with_capacity(g.nvert());
    MinDegree::default().order(&xadj, &adjncy, &mut order);
    Perm::from_vec(order.into_iter().map(|v| v as usize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;
    use parfact_sparse::graph::AdjGraph;

    use crate::fill_in;

    #[test]
    fn arrowhead_hub_is_eliminated_last() {
        // Star graph: minimum degree must defer the hub to the end,
        // producing zero fill.
        let a = gen::arrowhead(12);
        let g = AdjGraph::from_sym_lower(&a);
        let p = min_degree(&g);
        // Once only the hub and one leaf remain both have degree 1, so the
        // hub may come second-to-last; anything earlier would create fill.
        let hub_pos = p.new_of_old(0);
        assert!(hub_pos >= 10, "hub eliminated too early: {hub_pos}");
        assert_eq!(fill_in(&g, &p), 0);
    }

    #[test]
    fn path_graph_zero_fill() {
        let a = gen::tridiagonal(15);
        let g = AdjGraph::from_sym_lower(&a);
        let p = min_degree(&g);
        assert_eq!(fill_in(&g, &p), 0);
    }

    #[test]
    fn cycle_graph_fill_is_n_minus_3() {
        // A cycle requires exactly n-3 fill edges under ANY order; check
        // minimum degree achieves it.
        let n = 10;
        let mut coo = parfact_sparse::coo::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            coo.push(i.max((i + 1) % n), i.min((i + 1) % n), -1.0);
        }
        let g = AdjGraph::from_sym_lower(&coo.to_csc());
        let p = min_degree(&g);
        assert_eq!(fill_in(&g, &p), n - 3);
    }

    #[test]
    fn grid_beats_natural_order_fill() {
        let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let md = min_degree(&g);
        let nat = Perm::identity(64);
        let f_md = fill_in(&g, &md);
        let f_nat = fill_in(&g, &nat);
        assert!(
            f_md < f_nat,
            "minimum degree fill {f_md} must beat natural {f_nat}"
        );
    }

    #[test]
    fn handles_disconnected_and_isolated() {
        let mut coo = parfact_sparse::coo::CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        coo.push(2, 1, -1.0);
        let g = AdjGraph::from_sym_lower(&coo.to_csc());
        let p = min_degree(&g);
        assert_eq!(p.len(), 5);
        assert_eq!(fill_in(&g, &p), 0);
    }

    #[test]
    fn deterministic() {
        let a = gen::random_spd(40, 4, 9);
        let g = AdjGraph::from_sym_lower(&a);
        assert_eq!(min_degree(&g), min_degree(&g));
    }
}
