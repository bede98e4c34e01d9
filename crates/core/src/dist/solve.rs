//! Distributed triangular solves.
//!
//! The solve follows the assembly tree like the factorization, but the
//! per-front work is tiny (O(front²·nrhs) flops against O(front³) for the
//! factorization), so the panel of each distributed supernode is gathered
//! to the supernode's **group leader**, which performs the front's solve
//! steps and exchanges right-hand-side segments with its parent's and
//! children's leaders. This gather-per-front pattern is exactly why solve
//! scales worse than factorization — a shape the experiments reproduce
//! (EXP-F4).
//!
//! Right-hand sides travel as column-major blocks: contribution and
//! x-row messages carry `rows x nrhs` flattened buffers, so the message
//! count stays flat while the payload (and the per-front flops) scale with
//! `nrhs` — batched solves amortize the latency-bound tree walk across
//! the whole block.

use crate::dist::front::{self, DistFront};
use crate::dist::RankFactor;
use crate::mapping::{Layout, Mapping};
use parfact_dense::solve as dsolve;
use parfact_mpsim::Rank;
use parfact_symbolic::{Symbolic, NONE};
use parfact_trace::Phase;
use std::collections::HashMap;

use front::{
    PHASE_BWD_PANEL as PH_BWD_PANEL, PHASE_BWD_XROWS as PH_BWD_XROWS,
    PHASE_FWD_CONTRIB as PH_FWD_CONTRIB, PHASE_FWD_PANEL as PH_FWD_PANEL,
    PHASE_GATHER_X as PH_GATHER_X,
};

/// Assemble the full `f x w` panel of supernode `s` on the leader,
/// receiving the pivot pieces every other group member sends it under the
/// same `s` and `phase`.
fn gather_panel(
    rank: &mut Rank,
    sym: &Symbolic,
    map: &Mapping,
    rf: &RankFactor,
    s: usize,
    phase: u64,
) -> Vec<f64> {
    let f = sym.front_order(s);
    let w = sym.sn_width(s);
    let (lo, hi) = map.group[s];
    let mut panel = vec![0.0f64; f * w];
    rank.alloc(panel.len() * 8);
    for q in lo..hi {
        if q == rank.rank() {
            rf.dist_blocks[&s].scatter_pivots(&mut panel);
        } else {
            let share = rank.recv::<DistFront>(q, front::tag(s, phase));
            share.scatter_pivots(&mut panel);
        }
    }
    panel
}

/// SPMD distributed solve (`L Lᵀ X = B`, permuted space). Every rank calls
/// this with the (replicated) permuted right-hand-side block (`n x nrhs`
/// column-major); rank 0 returns the full solution block.
pub fn solve_rank(
    rank: &mut Rank,
    sym: &Symbolic,
    map: &Mapping,
    rf: &RankFactor,
    bp: &[f64],
    nrhs: usize,
) -> Option<Vec<f64>> {
    let me = rank.rank();
    let n = sym.n;
    debug_assert_eq!(bp.len(), n * nrhs);
    let nsuper = sym.nsuper();
    let mut x = bp.to_vec();
    // Leader-to-leader stashes for same-rank transfers.
    let mut fwd_stash: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut bwd_stash: HashMap<u64, Vec<f64>> = HashMap::new();

    // ---- Forward sweep. ----
    for s in 0..nsuper {
        if !map.participates(s, me) {
            continue;
        }
        let lead = map.leader(s);
        let is_dist = matches!(map.layout[s], Layout::Grid { .. });
        if me != lead {
            if is_dist {
                let share = rf.dist_blocks[&s].clone();
                rank.send(lead, front::tag(s, PH_FWD_PANEL), share);
            }
            continue;
        }
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        let w = c1 - c0;
        let f = sym.front_order(s);
        let m = f - w;
        let panel: std::borrow::Cow<'_, [f64]> = if is_dist {
            std::borrow::Cow::Owned(gather_panel(rank, sym, map, rf, s, PH_FWD_PANEL))
        } else {
            std::borrow::Cow::Borrowed(&rf.local_panels[&s])
        };
        // RHS front: pivot block then below-rows block, column-major.
        let mut ypiv = vec![0.0f64; w * nrhs];
        let mut ybelow = vec![0.0f64; m * nrhs];
        for r in 0..nrhs {
            ypiv[r * w..(r + 1) * w].copy_from_slice(&x[r * n + c0..r * n + c1]);
        }
        // Children contributions.
        for &c in &sym.tree.children[s] {
            let clead = map.leader(c);
            let contrib = if clead == me {
                fwd_stash
                    .remove(&front::tag(c, PH_FWD_CONTRIB))
                    .expect("missing stashed forward contribution")
            } else {
                rank.recv::<Vec<f64>>(clead, front::tag(c, PH_FWD_CONTRIB))
            };
            let mc = sym.sn_rows[c].len();
            for (k, &r_row) in sym.sn_rows[c].iter().enumerate() {
                let pos = if r_row < c1 {
                    r_row - c0
                } else {
                    w + sym.sn_rows[s].binary_search(&r_row).expect("containment")
                };
                for r in 0..nrhs {
                    if pos < w {
                        ypiv[r * w + pos] += contrib[r * mc + k];
                    } else {
                        ybelow[r * m + (pos - w)] += contrib[r * mc + k];
                    }
                }
            }
        }
        dsolve::trsm_ln(w, nrhs, &panel, f, &mut ypiv, w, false);
        rank.compute_as((w * w * nrhs) as f64, Phase::Solve, Some(s));
        if m > 0 {
            dsolve::gemm_block_sub(m, w, nrhs, &panel[w..], f, &ypiv, w, &mut ybelow, m);
            rank.compute_as((2 * m * w * nrhs) as f64, Phase::Solve, Some(s));
        }
        for r in 0..nrhs {
            x[r * n + c0..r * n + c1].copy_from_slice(&ypiv[r * w..(r + 1) * w]);
        }
        let parent = sym.tree.parent[s];
        if parent != NONE {
            let plead = map.leader(parent);
            if plead == me {
                fwd_stash.insert(front::tag(s, PH_FWD_CONTRIB), ybelow);
            } else {
                rank.send(plead, front::tag(s, PH_FWD_CONTRIB), ybelow);
            }
        }
        if is_dist {
            rank.free(f * w * 8);
        }
    }

    // ---- Backward sweep. ----
    for s in (0..nsuper).rev() {
        if !map.participates(s, me) {
            continue;
        }
        let lead = map.leader(s);
        let is_dist = matches!(map.layout[s], Layout::Grid { .. });
        if me != lead {
            if is_dist {
                let share = rf.dist_blocks[&s].clone();
                rank.send(lead, front::tag(s, PH_BWD_PANEL), share);
            }
            continue;
        }
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        let w = c1 - c0;
        let f = sym.front_order(s);
        let m = f - w;
        let panel: std::borrow::Cow<'_, [f64]> = if is_dist {
            std::borrow::Cow::Owned(gather_panel(rank, sym, map, rf, s, PH_BWD_PANEL))
        } else {
            std::borrow::Cow::Borrowed(&rf.local_panels[&s])
        };
        // x at this supernode's below rows (`m x nrhs`), provided by the
        // parent's leader.
        let parent = sym.tree.parent[s];
        let xrows: Vec<f64> = if parent == NONE {
            vec![0.0f64; m * nrhs]
        } else {
            let plead = map.leader(parent);
            if plead == me {
                bwd_stash
                    .remove(&front::tag(s, PH_BWD_XROWS))
                    .expect("missing stashed backward x-rows")
            } else {
                rank.recv::<Vec<f64>>(plead, front::tag(s, PH_BWD_XROWS))
            }
        };
        if m > 0 {
            dsolve::gemm_block_t_sub(m, w, nrhs, &panel[w..], f, &xrows, m, &mut x[c0..], n);
            rank.compute_as((2 * m * w * nrhs) as f64, Phase::Solve, Some(s));
        }
        dsolve::trsm_lt(w, nrhs, &panel, f, &mut x[c0..], n, false);
        rank.compute_as((w * w * nrhs) as f64, Phase::Solve, Some(s));
        // Provide x-rows to every child's leader. A child's rows live in my
        // columns or in my own x-rows (containment invariant).
        for &c in &sym.tree.children[s] {
            let mc = sym.sn_rows[c].len();
            let mut vals = vec![0.0f64; mc * nrhs];
            for (k, &r_row) in sym.sn_rows[c].iter().enumerate() {
                if r_row < c1 {
                    for r in 0..nrhs {
                        vals[r * mc + k] = x[r * n + r_row];
                    }
                } else {
                    let k2 = sym.sn_rows[s].binary_search(&r_row).expect("containment");
                    for r in 0..nrhs {
                        vals[r * mc + k] = xrows[r * m + k2];
                    }
                }
            }
            let clead = map.leader(c);
            if clead == me {
                bwd_stash.insert(front::tag(c, PH_BWD_XROWS), vals);
            } else {
                rank.send(clead, front::tag(c, PH_BWD_XROWS), vals);
            }
        }
        if is_dist {
            rank.free(f * w * 8);
        }
    }

    // ---- Gather solution segments to rank 0. ----
    if me == 0 {
        for s in 0..nsuper {
            let lead = map.leader(s);
            if lead != 0 {
                let seg = rank.recv::<Vec<f64>>(lead, front::tag(s, PH_GATHER_X));
                let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
                let w = c1 - c0;
                for r in 0..nrhs {
                    x[r * n + c0..r * n + c1].copy_from_slice(&seg[r * w..(r + 1) * w]);
                }
            }
        }
        Some(x)
    } else {
        for s in 0..nsuper {
            if map.leader(s) == me {
                let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
                let w = c1 - c0;
                let mut seg = vec![0.0f64; w * nrhs];
                for r in 0..nrhs {
                    seg[r * w..(r + 1) * w].copy_from_slice(&x[r * n + c0..r * n + c1]);
                }
                rank.send(0, front::tag(s, PH_GATHER_X), seg);
            }
        }
        None
    }
}
