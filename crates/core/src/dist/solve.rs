//! Distributed triangular solves.
//!
//! The solve is a machine run of its own over the factor slab and the
//! mapping of a distributed factorization: each rank reads only what the
//! mapping gives it, the distribution the factorization left behind.
//! The solve follows the assembly tree like the factorization, but the
//! per-front work is tiny (O(front²·nrhs) flops against O(front³) for the
//! factorization), so the panel of each distributed supernode is gathered
//! to the supernode's **group leader**, which performs the front's solve
//! steps and exchanges right-hand-side segments with its parent's and
//! children's leaders. This gather-per-front pattern is exactly why solve
//! scales worse than factorization — a shape the experiments reproduce
//! (EXP-F4).
//!
//! Right-hand sides travel as interleaved blocks (`rows x nrhs`, a row's
//! values contiguous): contribution and x-row messages carry one flattened
//! buffer per tree edge, so the message count stays flat while the payload
//! (and the per-front flops) scale with `nrhs` — batched solves amortize
//! the latency-bound tree walk across the whole block. The arithmetic of a
//! front is `sweep::Sweep`'s, the step the host solves run; this module
//! places it on leaders, moves its blocks and charges the virtual clock.

use crate::dist::front::{self, pivot_segments};
use crate::factor::Factor;
use crate::mapping::{Layout, Mapping};
use crate::sweep::Sweep;
use parfact_mpsim::Rank;
use parfact_symbolic::NONE;
use parfact_trace::Phase;
use std::borrow::Cow;
use std::collections::HashMap;

use front::{
    PHASE_BWD_PANEL as PH_BWD_PANEL, PHASE_BWD_XROWS as PH_BWD_XROWS,
    PHASE_FWD_CONTRIB as PH_FWD_CONTRIB, PHASE_FWD_PANEL as PH_FWD_PANEL,
    PHASE_GATHER_X as PH_GATHER_X,
};

/// A rank's pivot entries of one grid panel as `(li, lj, value)`
/// triplets — on the modelled wire two `u32` and an `f64` each.
type Share = Vec<(u32, u32, f64)>;

/// The full `f x w` panel of supernode `s` if this rank is its leader
/// (`None` otherwise): a local panel read from the slab in place, or a
/// grid panel gathered under `phase` — each member reads its own
/// [`pivot_segments`] out of the slab and sends them, and the leader
/// assembles an owned panel (tracked until the caller [`release`]s it).
fn leader_panel<'a>(
    rank: &mut Rank,
    map: &Mapping,
    factor: &'a Factor,
    s: usize,
    phase: u64,
) -> Option<Cow<'a, [f64]>> {
    let me = rank.rank();
    if !map.participates(s, me) {
        return None;
    }
    let (lead, slab) = (map.leader(s), factor.panel(s));
    let Layout::Grid { pr, pc, nb } = map.layout[s] else {
        return (me == lead).then_some(Cow::Borrowed(slab));
    };
    let (f, w) = (factor.sym.front_order(s), factor.sym.sn_width(s));
    let ((lo, hi), tag) = (map.group[s], front::tag(s, phase));
    let mut mine = Share::new();
    let pos = ((me - lo) / pc, (me - lo) % pc);
    pivot_segments(f, w, nb, (pr, pc), pos, |lj, rows| {
        mine.extend(rows.map(|li| (li as u32, lj as u32, slab[lj * f + li])));
    });
    if me != lead {
        rank.send(lead, tag, mine);
        return None;
    }
    let mut panel = vec![0.0f64; f * w];
    rank.alloc(panel.len() * 8);
    let others = (lo..hi)
        .filter(|&q| q != me)
        .map(|q| rank.recv::<Share>(q, tag));
    for (li, lj, v) in mine.into_iter().chain(others.flatten()) {
        panel[lj as usize * f + li as usize] = v;
    }
    Some(Cow::Owned(panel))
}

/// Stop tracking a gathered panel once its step is done.
fn release(rank: &mut Rank, panel: Cow<'_, [f64]>) {
    if let Cow::Owned(p) = panel {
        rank.free(p.len() * 8);
    }
}

/// Leader-to-leader transfers that stay on this rank, by tag.
type Stash = HashMap<u64, Vec<f64>>;

/// Hand `block` to the leader `to` under `tag`: stashed when that is this
/// rank, sent otherwise. [`take`] is the receiving end.
fn give(rank: &mut Rank, stash: &mut Stash, to: usize, tag: u64, block: Vec<f64>) {
    if to == rank.rank() {
        stash.insert(tag, block);
    } else {
        rank.send(to, tag, block);
    }
}

fn take(rank: &mut Rank, stash: &mut Stash, from: usize, tag: u64) -> Vec<f64> {
    if from == rank.rank() {
        let block = stash.remove(&tag);
        block.expect("a same-rank leader stashed this block earlier in the sweep")
    } else {
        rank.recv::<Vec<f64>>(from, tag)
    }
}

/// SPMD distributed solve (`L Lᵀ X = B`, permuted space) over the factor
/// slab written under `map`. Every rank calls this with the (replicated)
/// permuted right-hand-side block (`n x nrhs` interleaved); rank 0 returns
/// the full solution block in the same layout.
pub fn solve_rank(
    rank: &mut Rank,
    map: &Mapping,
    factor: &Factor,
    bp: &[f64],
    nrhs: usize,
) -> Option<Vec<f64>> {
    let (me, sym) = (rank.rank(), &*factor.sym);
    debug_assert_eq!(bp.len(), sym.n * nrhs);
    let nsuper = sym.nsuper();
    let sw = Sweep::new(sym, nrhs, false);
    let mut x = bp.to_vec();
    let mut stash = Stash::new();
    // What a front's `trsm` and (when it has below rows) `gemm` charge.
    let solve_flops = |s: usize| {
        let (w, m) = (sym.sn_width(s), sym.sn_rows[s].len());
        let gemm = (m > 0).then_some((2 * m * w * nrhs) as f64);
        ((w * w * nrhs) as f64, gemm)
    };

    // ---- Forward sweep. ----
    for s in 0..nsuper {
        let Some(panel) = leader_panel(rank, map, factor, s, PH_FWD_PANEL) else {
            continue;
        };
        let mut ybelow = vec![0.0f64; sw.below_len(s)];
        let mut kids = Vec::with_capacity(sw.children_len(s));
        for &c in &sym.tree.children[s] {
            let tag = front::tag(c, PH_FWD_CONTRIB);
            kids.extend(take(rank, &mut stash, map.leader(c), tag));
        }
        sw.up(s, &panel, &mut x[sw.pivot_range(s)], &mut ybelow, &kids);
        let (trsm, gemm) = solve_flops(s);
        rank.compute_as(trsm, Phase::Solve, Some(s));
        if let Some(gemm) = gemm {
            rank.compute_as(gemm, Phase::Solve, Some(s));
        }
        let parent = sym.tree.parent[s];
        if parent != NONE {
            let tag = front::tag(s, PH_FWD_CONTRIB);
            give(rank, &mut stash, map.leader(parent), tag, ybelow);
        }
        release(rank, panel);
    }

    // ---- Backward sweep. ----
    for s in (0..nsuper).rev() {
        let Some(panel) = leader_panel(rank, map, factor, s, PH_BWD_PANEL) else {
            continue;
        };
        // x at this supernode's below rows, provided by the parent's
        // leader (a root has none).
        let parent = sym.tree.parent[s];
        let tag = front::tag(s, PH_BWD_XROWS);
        let xbelow = match parent {
            NONE => Vec::new(),
            _ => take(rank, &mut stash, map.leader(parent), tag),
        };
        let mut kids = Vec::new();
        sw.down(s, &panel, &mut x[sw.pivot_range(s)], &xbelow, &mut kids);
        let (trsm, gemm) = solve_flops(s);
        if let Some(gemm) = gemm {
            rank.compute_as(gemm, Phase::Solve, Some(s));
        }
        rank.compute_as(trsm, Phase::Solve, Some(s));
        let mut rest = &kids[..];
        for &c in &sym.tree.children[s] {
            let (xrows, tail) = rest.split_at(sw.below_len(c));
            let tag = front::tag(c, PH_BWD_XROWS);
            give(rank, &mut stash, map.leader(c), tag, xrows.to_vec());
            rest = tail;
        }
        release(rank, panel);
    }

    // ---- Gather solution segments to rank 0. ----
    for s in (0..nsuper).filter(|&s| map.leader(s) != 0) {
        if me == 0 {
            let seg = rank.recv::<Vec<f64>>(map.leader(s), front::tag(s, PH_GATHER_X));
            x[sw.pivot_range(s)].copy_from_slice(&seg);
        } else if map.leader(s) == me {
            rank.send(0, front::tag(s, PH_GATHER_X), x[sw.pivot_range(s)].to_vec());
        }
    }
    (me == 0).then_some(x)
}
