//! The paper's scalability model: *predicted* per-rank communication
//! volume and peak working memory, computed from the symbolic structure
//! and the subtree-to-subcube mapping alone — before (or without) running
//! the distributed engine.
//!
//! The source paper's central claim is that multifrontal factorization
//! scales because (a) subtree-to-subcube mapping confines all traffic to
//! the thin top of the assembly tree, and (b) a 2-D front layout bounds
//! per-front panel traffic by `O(f²/√g)` per process. This module turns
//! those bounds into per-rank byte predictions that mirror what the
//! engine actually sends, so the measured comm matrix can be validated
//! against the model (`ScalabilityReport::volume_model_ratio`).
//!
//! ## What is predicted
//!
//! **Panel traffic** (a grid front of order `f`, pivot width `w`, on a
//! `pr x pc` grid with block size `nb` — see `DistFront::factorize`):
//! per panel of width `jb` at offset `k0`, the engine broadcasts
//!
//! - the `jb x jb` diagonal block down one grid column: `(pr-1)` hops,
//! - each panel piece along its grid row: `(pc-1)` hops over `jb·(f-k0)`
//!   entries in total, and
//! - each transposed operand down its grid column: `(pr-1)` hops over
//!   the same `jb·(f-k0)` entries,
//!
//! for `8·jb·[(f-k0)·(pr+pc-2) + jb·(pr-1)]` bytes per panel, summed over
//! `ceil(w/nb)` panels and attributed uniformly to the `g = pr·pc` group
//! ranks (binomial-tree forwarding spreads sends across the group).
//!
//! **Extend-add traffic**: a front's `r(r+1)/2`-entry Schur update (values
//! only — coordinates are regenerated by the receiver) is scattered to the
//! owners of the parent's grid; on average `1/gp` of it stays on-rank, so
//! `8·r(r+1)/2·(1-1/gp)` bytes cross the wire. Updates into a *local*
//! parent are free by construction (nested rank ranges) — the
//! subtree-to-subcube locality the paper builds on.
//!
//! **Memory**: each rank holds its share of the factor (`w` panel columns
//! of length `f-k`, split over the group) plus, transiently, the working
//! set of the largest front it participates in (`8·f²` local, `~8·f²/2g`
//! for the lower block-triangle of a grid front).
//!
//! The solve phase is *not* modelled, and model-validation runs factor
//! only.

use crate::mapping::{Layout, Mapping};
use parfact_symbolic::{Symbolic, NONE};

/// Per-rank model predictions, index = rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prediction {
    /// Predicted bytes sent per rank during factorization.
    pub bytes: Vec<f64>,
    /// Predicted peak tracked working memory per rank, bytes.
    pub mem: Vec<f64>,
}

impl Prediction {
    /// Predicted total communication volume.
    pub fn total_bytes(&self) -> f64 {
        self.bytes.iter().sum()
    }
}

/// Predict per-rank comm volume and peak memory for `sym` under `map`.
/// Pure arithmetic over the supernode structure — `O(nsuper · p)` worst
/// case, no numeric data touched.
pub fn predict(sym: &Symbolic, map: &Mapping) -> Prediction {
    let p = map.nranks;
    let mut bytes = vec![0.0f64; p];
    // Factor storage accumulates; the front working set takes the max.
    let mut factor_share = vec![0.0f64; p];
    let mut front_share = vec![0.0f64; p];
    for s in 0..sym.nsuper() {
        let w = sym.sn_width(s);
        let r = sym.sn_rows[s].len();
        let f = w + r;
        let (lo, hi) = map.group[s];
        let g = hi - lo;
        // Factor panels kept to the end: w columns of length f-k.
        let panel_bytes = 8.0 * (w * f - w * (w.saturating_sub(1)) / 2) as f64;
        match map.layout[s] {
            Layout::Local => {
                factor_share[lo] += panel_bytes;
                front_share[lo] = front_share[lo].max(8.0 * (f * f) as f64);
            }
            Layout::Grid { pr, pc, nb } => {
                let ws = 8.0 * (f as f64) * (f as f64) / 2.0 / g as f64;
                for q in lo..hi {
                    factor_share[q] += panel_bytes / g as f64;
                    front_share[q] = front_share[q].max(ws);
                }
                // Panel broadcast volume (see module docs).
                let mut t = 0.0f64;
                let mut k0 = 0usize;
                while k0 < w {
                    let jb = nb.min(w - k0);
                    t += 8.0
                        * jb as f64
                        * ((f - k0) as f64 * (pr + pc - 2) as f64 + (jb * (pr - 1)) as f64);
                    k0 += nb;
                }
                for q in lo..hi {
                    bytes[q] += t / g as f64;
                }
            }
        }
        // Extend-add: this front's Schur update crosses into a distributed
        // parent's grid; local parents share the rank (zero traffic).
        let parent = sym.tree.parent[s];
        if parent != NONE {
            if let Layout::Grid { .. } = map.layout[parent] {
                let gp = map.group_size(parent);
                let upd = 8.0 * (r * (r + 1) / 2) as f64;
                let crossing = upd * (1.0 - 1.0 / gp as f64);
                for q in lo..hi {
                    bytes[q] += crossing / g as f64;
                }
            }
        }
    }
    let mem = factor_share
        .iter()
        .zip(&front_share)
        .map(|(&fa, &fr)| fa + fr)
        .collect();
    Prediction { bytes, mem }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map_tree, MapStrategy};
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    fn sym_for(nx: usize, ny: usize) -> Symbolic {
        let a = gen::laplace2d(nx, ny, gen::Stencil2d::FivePoint);
        let fill = parfact_order::order_matrix(&a, parfact_order::Method::default());
        let af = fill.apply_sym_lower(&a);
        analyze(&af, &AmalgOpts::default()).0
    }

    #[test]
    fn single_rank_predicts_zero_traffic() {
        let sym = sym_for(12, 12);
        let map = map_tree(&sym, 1, MapStrategy::default());
        let pred = predict(&sym, &map);
        assert_eq!(pred.bytes, vec![0.0]);
        // Memory = whole factor + the largest front.
        assert!(pred.mem[0] >= 8.0 * sym.factor_nnz() as f64);
    }

    #[test]
    fn predicted_volume_grows_with_rank_count() {
        let sym = sym_for(16, 16);
        let mut prev = 0.0;
        for p in [2usize, 4, 8, 16] {
            let map = map_tree(&sym, p, MapStrategy::default());
            let pred = predict(&sym, &map);
            let total = pred.total_bytes();
            assert!(total > 0.0, "p={p}");
            assert!(
                total >= prev,
                "volume should not shrink as p grows: p={p} {total} < {prev}"
            );
            prev = total;
        }
    }

    #[test]
    fn predicted_memory_per_rank_shrinks_with_p() {
        let sym = sym_for(20, 20);
        let max_mem = |p| {
            let pred = predict(&sym, &map_tree(&sym, p, MapStrategy::default()));
            pred.mem.iter().fold(0.0f64, |m, &v| m.max(v))
        };
        let (m1, m8) = (max_mem(1), max_mem(8));
        // Not 8x (the top fronts replicate panel traffic), but clearly down.
        assert!(m8 < m1, "per-rank memory should drop with p: {m8} !< {m1}");
    }

    #[test]
    fn flat_mapping_predicts_more_traffic_than_proportional() {
        let sym = sym_for(16, 16);
        let p = 8;
        let nb = parfact_dense::chol::NB;
        let prop = predict(
            &sym,
            &map_tree(&sym, p, MapStrategy::Proportional { use_2d: true, nb }),
        );
        let flat = predict(
            &sym,
            &map_tree(&sym, p, MapStrategy::Flat { use_2d: true, nb }),
        );
        assert!(
            flat.total_bytes() > prop.total_bytes(),
            "flat {} should exceed proportional {}",
            flat.total_bytes(),
            prop.total_bytes()
        );
    }
}
