//! Multilevel weighted-graph bisection: the engine under nested dissection.
//!
//! The V-cycle is the standard one (METIS-style, scratch implementation):
//!
//! 1. **Coarsen** by heavy-edge matching until the graph is small;
//! 2. **Initial partition** on the coarsest graph by greedy graph growing
//!    from a pseudo-peripheral vertex;
//! 3. **Uncoarsen**, projecting the partition and running a pass of
//!    boundary Fiduccia–Mattheyses refinement at every level.
//!
//! Vertices carry weights (they represent contracted sets), edges carry
//! multiplicities; balance is measured in vertex weight.
//!
//! The bookkeeping is what costs, not the decisions, so it is kept lean:
//!
//! - **Narrow graphs.** Every level stores `u32` indices and `i32`
//!   weights. The bound that makes this safe ([`MAX_GRAPH`]) is checked
//!   once, where a graph enters ([`bisect_with`], the
//!   nested-dissection root); no sum formed below it can overflow.
//! - **One workspace per worker.** A `Bisector` owns the level graphs,
//!   the matching and contraction arrays, the sides and the refinement
//!   state, and reuses them across levels and calls. A buffer that is
//!   fully overwritten is cleared and refilled, never zero-filled first.
//! - **Incremental refinement** (`Refine`). The coarsest level is scanned
//!   once; every finer one inherits its state by projection: a fine
//!   vertex can only have an edge across the cut if its coarse vertex did,
//!   so only those vertices' edges are read. The weighted degrees come out
//!   of the contraction as a per-level array.

use parfact_sparse::graph::AdjGraph;
use parfact_trace::{Collector, LocalRecorder, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Largest vertex count, adjacency length (twice the edge count) and total
/// vertex or edge weight a multilevel graph may have: `i32::MAX / 2`, about
/// 1.07 · 10⁹. Contraction only merges weight, so a gain `2·ext − wdeg`
/// and every per-vertex sum of any level fit an `i32`, and vertex ids and
/// offsets fit a `u32` with one value to spare as the empty mark.
pub const MAX_GRAPH: usize = i32::MAX as usize / 2;

/// Empty slot of the index arrays below.
const NONE: u32 = u32::MAX;

/// Narrow an adjacency graph to `u32` arrays, checking [`MAX_GRAPH`].
///
/// # Panics
/// If the graph has more than [`MAX_GRAPH`] vertices or adjacency entries.
pub(crate) fn narrow(g: &AdjGraph) -> (Vec<u32>, Vec<u32>) {
    assert!(
        g.nvert() <= MAX_GRAPH && g.adjncy().len() <= MAX_GRAPH,
        "graph too large to order: {} vertices, {} adjacency entries (at most {MAX_GRAPH})",
        g.nvert(),
        g.adjncy().len()
    );
    (
        g.xadj().iter().map(|&x| x as u32).collect(),
        g.adjncy().iter().map(|&u| u as u32).collect(),
    )
}

/// Weighted undirected graph in compressed adjacency form, within the
/// bounds of [`MAX_GRAPH`].
#[derive(Debug, Clone, Default)]
pub struct WGraph {
    pub xadj: Vec<u32>,
    pub adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`; positive.
    pub adjwgt: Vec<i32>,
    /// Vertex weights; positive.
    pub vwgt: Vec<i32>,
}

impl WGraph {
    /// Unit-weight graph from an adjacency graph.
    ///
    /// # Panics
    /// If `g` exceeds [`MAX_GRAPH`].
    #[cfg(test)]
    pub(crate) fn from_adj(g: &AdjGraph) -> Self {
        let (xadj, adjncy) = narrow(g);
        WGraph {
            adjwgt: vec![1; adjncy.len()],
            vwgt: vec![1; g.nvert()],
            xadj,
            adjncy,
        }
    }

    pub fn nvert(&self) -> usize {
        self.vwgt.len()
    }

    #[cfg(test)]
    fn total_vwgt(&self) -> i64 {
        self.vwgt.iter().map(|&w| w as i64).sum()
    }

    /// Sum of edge weights crossing the bipartition.
    pub fn cut(&self, side: &[u8]) -> i64 {
        self.view().cut(side)
    }

    fn view(&self) -> Graph<'_> {
        Graph {
            xadj: &self.xadj,
            adjncy: &self.adjncy,
            adjwgt: &self.adjwgt,
            vwgt: &self.vwgt,
        }
    }
}

/// A borrowed [`WGraph`]: one level of the V-cycle, or a nested-dissection
/// subgraph with unit weights that it does not own.
#[derive(Clone, Copy)]
pub(crate) struct Graph<'a> {
    pub xadj: &'a [u32],
    pub adjncy: &'a [u32],
    pub adjwgt: &'a [i32],
    pub vwgt: &'a [i32],
}

impl Graph<'_> {
    fn nvert(&self) -> usize {
        self.vwgt.len()
    }

    /// The adjacency positions of `v`.
    fn row(&self, v: usize) -> Range<usize> {
        self.xadj[v] as usize..self.xadj[v + 1] as usize
    }

    fn cut(&self, side: &[u8]) -> i64 {
        let mut cut = 0i64;
        for v in 0..self.nvert() {
            for e in self.row(v) {
                if side[self.adjncy[e] as usize] != side[v] {
                    cut += self.adjwgt[e] as i64;
                }
            }
        }
        cut / 2
    }
}

/// Result of a bisection: side (0/1) per vertex plus achieved cut/balance.
#[derive(Debug, Clone)]
pub struct Bisection {
    pub side: Vec<u8>,
    pub cut: i64,
    pub wgt: [i64; 2],
}

/// Parameters of the multilevel bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartOpts {
    /// Stop coarsening below this many vertices.
    pub coarsen_to: usize,
    /// Allowed imbalance: heavier side at most `(1 + eps) * total / 2`.
    pub eps: f64,
    /// FM refinement passes per level.
    pub fm_passes: usize,
    /// RNG seed (drives matching/tie-breaking; results are deterministic
    /// for a fixed seed).
    pub seed: u64,
}

impl Default for PartOpts {
    fn default() -> Self {
        PartOpts {
            coarsen_to: 48,
            eps: 0.15,
            fm_passes: 6,
            seed: 0x5EED,
        }
    }
}

/// Heavy-edge matching into `mate` (unmatched vertices map to themselves,
/// so a vertex is matched iff its mate is another vertex); `order` is
/// scratch for the random visit order. Returns the number of coarse
/// vertices, pairs and singletons.
fn heavy_edge_matching(
    g: Graph<'_>,
    rng: &mut StdRng,
    mate: &mut Vec<u32>,
    order: &mut Vec<u32>,
) -> usize {
    let n = g.nvert();
    mate.clear();
    mate.extend(0..n as u32);
    order.clear();
    order.extend(0..n as u32);
    // Random visit order avoids systematic bias on meshes.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut pairs = 0;
    for &v in order.iter() {
        if mate[v as usize] != v {
            continue;
        }
        let mut best = NONE;
        let mut bestw = i32::MIN;
        for e in g.row(v as usize) {
            let (u, w) = (g.adjncy[e], g.adjwgt[e]);
            if mate[u as usize] == u && u != v && w > bestw {
                bestw = w;
                best = u;
            }
        }
        if best != NONE {
            mate[v as usize] = best;
            mate[best as usize] = v;
            pairs += 1;
        }
    }
    n - pairs
}

/// One level below the input graph.
#[derive(Default)]
struct Level {
    g: WGraph,
    /// Weighted degree of every vertex of `g`, summed by the contraction.
    wdeg: Vec<i32>,
    /// Map from the level above into `g`.
    cmap: Vec<u32>,
}

/// Contract matched pairs of `g` into `out`. Coarse vertex `c` is the
/// `c`-th pair `(v, mate[v])` with `v <= mate[v]`, so one walk over the
/// pairs builds the graph row by row; `pos` is scratch.
fn contract(g: Graph<'_>, mate: &[u32], pos: &mut Vec<u32>, out: &mut Level) {
    let n = g.nvert();
    let cmap = &mut out.cmap;
    cmap.clear();
    let mut nc = 0u32;
    for v in 0..n {
        let m = mate[v] as usize;
        debug_assert_eq!(mate[m] as usize, v, "matching must be symmetric");
        if m >= v {
            cmap.push(nc);
            nc += 1;
        } else {
            cmap.push(cmap[m]);
        }
    }
    let WGraph {
        xadj,
        adjncy,
        adjwgt,
        vwgt,
    } = &mut out.g;
    xadj.clear();
    adjncy.clear();
    adjwgt.clear();
    vwgt.clear();
    out.wdeg.clear();
    xadj.push(0);
    // Coarse neighbour -> one past its index in `adjncy`; it is in the row
    // being built iff that is past the row's start.
    pos.clear();
    pos.resize(nc as usize, 0);
    for v in 0..n {
        let m = mate[v] as usize;
        if m < v {
            continue;
        }
        let c = vwgt.len() as u32;
        let row_start = adjncy.len() as u32;
        let mut wdeg = 0;
        let pair = [v, m];
        for &x in &pair[..1 + usize::from(m != v)] {
            for e in g.row(x) {
                let cu = cmap[g.adjncy[e] as usize];
                if cu == c {
                    continue;
                }
                let w = g.adjwgt[e];
                wdeg += w;
                let p = pos[cu as usize];
                if p <= row_start {
                    adjncy.push(cu);
                    adjwgt.push(w);
                    pos[cu as usize] = adjncy.len() as u32;
                } else {
                    adjwgt[p as usize - 1] += w;
                }
            }
        }
        vwgt.push(g.vwgt[v] + if m != v { g.vwgt[m] } else { 0 });
        out.wdeg.push(wdeg);
        xadj.push(adjncy.len() as u32);
    }
}

/// Greedy graph growing from a pseudo-peripheral vertex: grow region 0
/// until it holds half the vertex weight. Disconnected remainders are
/// swept into side 0 until it does. `seen` and `queue` are scratch.
fn grow_partition(
    g: Graph<'_>,
    rng: &mut StdRng,
    side: &mut Vec<u8>,
    seen: &mut Vec<bool>,
    queue: &mut Vec<u32>,
) {
    let n = g.nvert();
    let total: i64 = g.vwgt.iter().map(|&w| w as i64).sum();
    let start0 = rng.gen_range(0..n);
    // Breadth-first search from `start` until `stop` returns true for a
    // dequeued vertex; returns the last vertex dequeued.
    let mut bfs = |start: usize, stop: &mut dyn FnMut(usize) -> bool| {
        seen.clear();
        seen.resize(n, false);
        queue.clear();
        seen[start] = true;
        queue.push(start as u32);
        let (mut head, mut last) = (0, start);
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            last = v;
            if stop(v) {
                break;
            }
            for e in g.row(v) {
                let u = g.adjncy[e] as usize;
                if !seen[u] {
                    seen[u] = true;
                    queue.push(u as u32);
                }
            }
        }
        last
    };
    // The last vertex reached approximates a peripheral vertex.
    let start = bfs(start0, &mut |_| false);
    side.clear();
    side.resize(n, 1);
    let mut w0 = 0i64;
    bfs(start, &mut |v| {
        side[v] = 0;
        w0 += g.vwgt[v] as i64;
        2 * w0 >= total
    });
    // If the BFS exhausted a small component before reaching half weight,
    // keep growing from any unvisited vertex.
    if 2 * w0 < total {
        for v in 0..n {
            if side[v] == 1 && 2 * w0 < total {
                side[v] = 0;
                w0 += g.vwgt[v] as i64;
            }
        }
    }
}

/// Indexed binary max-heap of vertices keyed `(gain, vertex)`; the vertex
/// breaks ties the way the pair compares. Each entry packs the pair into
/// one `u64` that orders the same way: the gain with its sign bit flipped
/// above the vertex.
///
/// A key is stored with its entry when [`GainQueue::set`] is called, never
/// read from the live gains: a move changes every neighbour's gain before
/// the loop that repairs their entries has reached them, and sifting one
/// entry against live values of the others would compare keys the heap is
/// not yet ordered by. Keys are distinct, so the order of `set` calls never
/// changes what [`GainQueue::pop`] returns.
#[derive(Default)]
struct GainQueue {
    heap: Vec<u64>,
    /// Index of each vertex's entry in `heap`, or [`NONE`].
    slot: Vec<u32>,
}

impl GainQueue {
    fn key(gain: i32, v: u32) -> u64 {
        (((gain as u32) ^ (1 << 31)) as u64) << 32 | v as u64
    }

    /// Insert `v` with key `gain`, or re-key its entry.
    fn set(&mut self, v: u32, gain: i32) {
        let key = Self::key(gain, v);
        match self.slot[v as usize] {
            NONE => {
                self.heap.push(key);
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let i = i as usize;
                let old = self.heap[i];
                self.heap[i] = key;
                if key > old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Remove and return the entry with the largest key as `(gain, v)`.
    fn pop(&mut self) -> Option<(i32, u32)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            None => last,
            Some(&top) => {
                self.heap[0] = last;
                self.sift_down(0);
                top
            }
        };
        let v = top as u32;
        self.slot[v as usize] = NONE;
        Some((((top >> 32) as u32 ^ (1 << 31)) as i32, v))
    }

    fn clear(&mut self) {
        for &key in &self.heap {
            self.slot[key as u32 as usize] = NONE;
        }
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 2;
            if self.heap[p] > e {
                break;
            }
            self.heap[i] = self.heap[p];
            self.slot[self.heap[i] as u32 as usize] = i as u32;
            i = p;
        }
        self.heap[i] = e;
        self.slot[e as u32 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && self.heap[c + 1] > self.heap[c] {
                c += 1;
            }
            if self.heap[c] < e {
                break;
            }
            self.heap[i] = self.heap[c];
            self.slot[self.heap[i] as u32 as usize] = i as u32;
            i = c;
        }
        self.heap[i] = e;
        self.slot[e as u32 as usize] = i as u32;
    }
}

/// Boundary Fiduccia–Mattheyses state of one level, kept incrementally.
///
/// `ext[v]` is the weight of `v`'s edges to the other side and `wdeg[v]`
/// (the level's, passed in) that of all its edges, so moving `v` lowers the
/// cut by `gain = 2·ext − wdeg`. `bnd` lists the vertices with `ext > 0`
/// and `bpos` places them in it; with positive edge weights these are
/// exactly the vertices with a neighbour across the cut. [`Refine::build`]
/// sets it up by scanning a level, [`Refine::project`] carries it down to
/// the next finer one, [`Refine::flip`] keeps it current in O(deg) per move
/// or rollback.
#[derive(Default)]
struct Refine {
    ext: Vec<i32>,
    /// The other level's `ext` while [`Refine::project`] writes this one.
    spare: Vec<i32>,
    bnd: Vec<u32>,
    bpos: Vec<u32>,
    /// Vertex weight on each side.
    wgt: [i64; 2],
    /// `locked[v] == pass` once `v` left the queue in the current pass.
    locked: Vec<u32>,
    pass: u32,
    moves: Vec<u32>,
    queue: GainQueue,
}

impl Refine {
    /// Set the state up for `g` under `side` from scratch.
    fn build(&mut self, g: Graph<'_>, side: &[u8]) {
        let n = g.nvert();
        self.ext.clear();
        self.bnd.clear();
        self.bpos.clear();
        self.wgt = [0; 2];
        for v in 0..n {
            let mut ext = 0;
            for e in g.row(v) {
                if side[g.adjncy[e] as usize] != side[v] {
                    ext += g.adjwgt[e];
                }
            }
            self.ext.push(ext);
            let at = if ext > 0 { self.enter(v) } else { NONE };
            self.bpos.push(at);
            self.wgt[side[v] as usize] += g.vwgt[v] as i64;
        }
        self.size_for(n);
    }

    /// Carry the state from the coarse level it describes to the finer
    /// level `fine`, whose vertex `v` lies in coarse vertex `cmap[v]` and
    /// on `side[v]`. A vertex whose coarse vertex had no edge across the
    /// cut has none either, so only the others are scanned; the side
    /// weights carry over unchanged.
    fn project(&mut self, fine: Graph<'_>, cmap: &[u32], side: &[u8]) {
        let n = fine.nvert();
        std::mem::swap(&mut self.ext, &mut self.spare);
        self.ext.clear();
        self.bnd.clear();
        self.bpos.clear();
        for v in 0..n {
            let mut ext = 0;
            if self.spare[cmap[v] as usize] > 0 {
                for e in fine.row(v) {
                    if side[fine.adjncy[e] as usize] != side[v] {
                        ext += fine.adjwgt[e];
                    }
                }
            }
            self.ext.push(ext);
            let at = if ext > 0 { self.enter(v) } else { NONE };
            self.bpos.push(at);
        }
        self.size_for(n);
    }

    /// Append `v` to the boundary list; returns its position.
    fn enter(&mut self, v: usize) -> u32 {
        self.bnd.push(v as u32);
        self.bnd.len() as u32 - 1
    }

    /// Grow the per-vertex pass state to `n` vertices. Stamps only grow,
    /// so stale entries from other levels and calls never match.
    fn size_for(&mut self, n: usize) {
        if self.locked.len() < n {
            self.locked.resize(n, 0);
            self.queue.slot.resize(n, NONE);
        }
    }

    fn gain(&self, wdeg: &[i32], v: usize) -> i32 {
        2 * self.ext[v] - wdeg[v]
    }

    /// Put `v` on the boundary list iff `ext[v] > 0`.
    fn sync(&mut self, v: usize) {
        let at = self.bpos[v];
        if self.ext[v] > 0 {
            if at == NONE {
                self.bpos[v] = self.enter(v);
            }
        } else if at != NONE {
            self.bnd.swap_remove(at as usize);
            if let Some(&moved) = self.bnd.get(at as usize) {
                self.bpos[moved as usize] = at;
            }
            self.bpos[v] = NONE;
        }
    }

    /// Move `v` to the other side, updating side weights, the gains of `v`
    /// and its neighbours, and their boundary membership. With `requeue`
    /// (the level's weighted degrees), each neighbour not locked in this
    /// pass is re-keyed in the queue with its new gain.
    fn flip(&mut self, g: Graph<'_>, side: &mut [u8], v: usize, requeue: Option<&[i32]>) {
        let to = side[v] ^ 1;
        side[v] = to;
        self.wgt[to as usize] += g.vwgt[v] as i64;
        self.wgt[(to ^ 1) as usize] -= g.vwgt[v] as i64;
        let mut ext = 0;
        for e in g.row(v) {
            let (u, w) = (g.adjncy[e] as usize, g.adjwgt[e]);
            if side[u] == to {
                self.ext[u] -= w;
            } else {
                self.ext[u] += w;
                ext += w;
            }
            self.sync(u);
            if let Some(wdeg) = requeue {
                if self.locked[u] != self.pass {
                    self.queue.set(u as u32, self.gain(wdeg, u));
                }
            }
        }
        self.ext[v] = ext;
        self.sync(v);
    }

    /// Up to `opts.fm_passes` passes, stopping at the first that does not
    /// lower the cut.
    fn run(&mut self, g: Graph<'_>, wdeg: &[i32], side: &mut [u8], opts: &PartOpts) {
        let total = self.wgt[0] + self.wgt[1];
        let maxside = ((1.0 + opts.eps) * (total as f64) / 2.0) as i64;
        for _ in 0..opts.fm_passes {
            if self.pass(g, wdeg, side, maxside) <= 0 {
                break;
            }
        }
    }

    /// One boundary-FM sweep: tentatively move vertices in `(gain, vertex)`
    /// order while the receiving side stays within `maxside`, then roll back
    /// to the best prefix. Returns the cut reduction kept.
    fn pass(&mut self, g: Graph<'_>, wdeg: &[i32], side: &mut [u8], maxside: i64) -> i64 {
        if self.pass == u32::MAX {
            self.locked.fill(0);
            self.pass = 0;
        }
        self.pass += 1;
        for i in 0..self.bnd.len() {
            let v = self.bnd[i];
            self.queue.set(v, self.gain(wdeg, v as usize));
        }
        self.moves.clear();
        let mut cur_delta = 0i64;
        let mut best_delta = 0i64;
        let mut best_len = 0usize;
        while let Some((gv, v)) = self.queue.pop() {
            let v = v as usize;
            self.locked[v] = self.pass;
            let to = (side[v] ^ 1) as usize;
            if self.wgt[to] + g.vwgt[v] as i64 > maxside {
                continue; // would break balance; lock in place
            }
            self.flip(g, side, v, Some(wdeg));
            self.moves.push(v as u32);
            cur_delta += gv as i64;
            if cur_delta > best_delta {
                best_delta = cur_delta;
                best_len = self.moves.len();
            }
            // Bail out of hopeless tails.
            if self.moves.len() > best_len + 64 {
                break;
            }
        }
        self.queue.clear();
        // Roll back moves beyond the best prefix.
        for i in best_len..self.moves.len() {
            let v = self.moves[i] as usize;
            self.flip(g, side, v, None);
        }
        best_delta
    }
}

/// The workspace of multilevel bisection: every level graph, array and
/// refinement state of one V-cycle, reused by the next. One per
/// nested-dissection worker; a bisection allocates only where a level
/// outgrows what an earlier one left behind.
#[derive(Default)]
pub(crate) struct Bisector {
    /// `levels[k]` is the graph `k + 1` contractions below the input; only
    /// the first levels of the current V-cycle are live.
    levels: Vec<Level>,
    mate: Vec<u32>,
    order: Vec<u32>,
    pos: Vec<u32>,
    side: Vec<u8>,
    spare: Vec<u8>,
    seen: Vec<bool>,
    queue: Vec<u32>,
    refine: Refine,
}

impl Bisector {
    /// Bisect `g`, whose vertices have the weighted degrees `wdeg`:
    /// coarsening (matching + contraction) is recorded as
    /// [`Phase::Coarsen`], the initial partition and each projection of the
    /// sides as [`Phase::Bisect`], each level's refinement (with its state
    /// set-up) as [`Phase::Refine`], all tagged `tag`. Returns the side of
    /// every vertex and the vertices with a neighbour across, in no
    /// particular order.
    pub(crate) fn bisect(
        &mut self,
        g: Graph<'_>,
        wdeg: &[i32],
        opts: &PartOpts,
        rec: &mut LocalRecorder<'_>,
        tag: Option<usize>,
    ) -> (&[u8], &[u32]) {
        if g.nvert() == 0 {
            self.side.clear();
            self.refine.build(g, &self.side);
            return (&self.side, &self.refine.bnd);
        }
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut depth = 0;
        loop {
            if self.levels.len() == depth {
                self.levels.push(Level::default());
            }
            let (above, below) = self.levels.split_at_mut(depth);
            let cur = above.last().map_or(g, |l| l.g.view());
            if cur.nvert() <= opts.coarsen_to || depth > 60 {
                break;
            }
            let t = rec.start();
            let nc = heavy_edge_matching(cur, &mut rng, &mut self.mate, &mut self.order);
            // Coarsening stalled (e.g. star graphs): partition this level.
            let stalled = nc as f64 > 0.95 * cur.nvert() as f64;
            if !stalled {
                contract(cur, &self.mate, &mut self.pos, &mut below[0]);
            }
            rec.stop(t, Phase::Coarsen, tag);
            if stalled {
                break;
            }
            depth += 1;
        }
        let (coarsest, cwdeg) = match depth {
            0 => (g, wdeg),
            _ => (
                self.levels[depth - 1].g.view(),
                &self.levels[depth - 1].wdeg[..],
            ),
        };
        let t = rec.start();
        grow_partition(
            coarsest,
            &mut rng,
            &mut self.side,
            &mut self.seen,
            &mut self.queue,
        );
        rec.stop(t, Phase::Bisect, tag);
        let t = rec.start();
        self.refine.build(coarsest, &self.side);
        self.refine.run(coarsest, cwdeg, &mut self.side, opts);
        rec.stop(t, Phase::Refine, tag);
        for k in (0..depth).rev() {
            let (fine, wdeg) = match k {
                0 => (g, wdeg),
                _ => (self.levels[k - 1].g.view(), &self.levels[k - 1].wdeg[..]),
            };
            let cmap = &self.levels[k].cmap;
            let t = rec.start();
            self.spare.clear();
            self.spare
                .extend(cmap.iter().map(|&c| self.side[c as usize]));
            std::mem::swap(&mut self.side, &mut self.spare);
            rec.stop(t, Phase::Bisect, tag);
            let t = rec.start();
            self.refine.project(fine, cmap, &self.side);
            self.refine.run(fine, wdeg, &mut self.side, opts);
            rec.stop(t, Phase::Refine, tag);
        }
        (&self.side, &self.refine.bnd)
    }
}

/// Multilevel bisection of a weighted graph.
pub fn bisect(g: &WGraph, opts: &PartOpts) -> Bisection {
    let tr = Collector::disabled();
    let mut rec = tr.local(0);
    bisect_with(g, opts, &mut rec, None)
}

/// Multilevel bisection recording per-stage time into `rec`: coarsening
/// (matching + contraction) as [`Phase::Coarsen`], initial partition /
/// projection as [`Phase::Bisect`], FM sweeps as [`Phase::Refine`]. Spans
/// are tagged with `tag` so callers can attribute them to a recursion-tree
/// task. The partition computed is identical to [`bisect`].
///
/// # Panics
/// If `g`'s vertex count, adjacency length, total vertex weight or total
/// edge weight exceeds [`MAX_GRAPH`].
pub fn bisect_with(
    g: &WGraph,
    opts: &PartOpts,
    rec: &mut LocalRecorder<'_>,
    tag: Option<usize>,
) -> Bisection {
    let sum = |w: &[i32]| w.iter().map(|&x| x as i64).sum::<i64>();
    assert!(
        g.nvert().max(g.adjncy.len()) as i64 <= MAX_GRAPH as i64
            && sum(&g.vwgt).max(sum(&g.adjwgt)) <= MAX_GRAPH as i64,
        "graph too large to bisect (bound {MAX_GRAPH})"
    );
    let view = g.view();
    let wdeg: Vec<i32> = (0..g.nvert())
        .map(|v| view.adjwgt[view.row(v)].iter().sum())
        .collect();
    let side = Bisector::default()
        .bisect(view, &wdeg, opts, rec, tag)
        .0
        .to_vec();
    let mut wgt = [0i64; 2];
    for v in 0..g.nvert() {
        wgt[side[v] as usize] += g.vwgt[v] as i64;
    }
    Bisection {
        cut: g.cut(&side),
        side,
        wgt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;
    use parfact_sparse::graph::AdjGraph;
    use proptest::prelude::*;

    fn grid_graph(nx: usize, ny: usize) -> WGraph {
        let a = gen::laplace2d(nx, ny, gen::Stencil2d::FivePoint);
        WGraph::from_adj(&AdjGraph::from_sym_lower(&a))
    }

    fn matching(g: &WGraph, seed: u64) -> Vec<u32> {
        let (mut mate, mut order) = (Vec::new(), Vec::new());
        heavy_edge_matching(
            g.view(),
            &mut StdRng::seed_from_u64(seed),
            &mut mate,
            &mut order,
        );
        mate
    }

    fn contracted(g: &WGraph, seed: u64) -> Level {
        let mut level = Level::default();
        contract(g.view(), &matching(g, seed), &mut Vec::new(), &mut level);
        level
    }

    /// Every vertex's edge weight, summed from scratch.
    fn recount_wdeg(g: &WGraph) -> Vec<i32> {
        let g = g.view();
        (0..g.nvert())
            .map(|v| g.adjwgt[g.row(v)].iter().sum())
            .collect()
    }

    #[test]
    fn cut_of_hand_partition() {
        // 2x2 grid, split left/right: cut = 2.
        let g = grid_graph(2, 2);
        let side = vec![0, 1, 0, 1];
        assert_eq!(g.cut(&side), 2);
    }

    #[test]
    fn matching_is_symmetric_and_disjoint() {
        let g = grid_graph(6, 6);
        let mate = matching(&g, 1);
        for v in 0..g.nvert() {
            assert_eq!(mate[mate[v] as usize] as usize, v);
        }
    }

    #[test]
    fn contract_preserves_total_weight_and_edges() {
        let g = grid_graph(6, 6);
        let Level { g: cg, wdeg, cmap } = contracted(&g, 2);
        assert_eq!(cg.total_vwgt(), g.total_vwgt());
        assert!(cg.nvert() < g.nvert());
        // Every fine edge is either internal to a coarse vertex or present
        // with accumulated weight.
        let total_fine: i32 = g.adjwgt.iter().sum();
        let total_coarse: i32 = cg.adjwgt.iter().sum();
        let v = g.view();
        let internal: i32 = (0..g.nvert())
            .flat_map(|x| v.row(x).map(move |e| (x, e)))
            .filter(|&(x, e)| cmap[x] == cmap[g.adjncy[e] as usize])
            .map(|(_, e)| g.adjwgt[e])
            .sum();
        assert_eq!(total_coarse, total_fine - internal);
        assert_eq!(wdeg, recount_wdeg(&cg));
    }

    #[test]
    fn bisect_grid_is_balanced_with_small_cut() {
        let g = grid_graph(16, 16);
        let b = bisect(&g, &PartOpts::default());
        let total = g.total_vwgt();
        let maxside = b.wgt[0].max(b.wgt[1]);
        assert!(
            (maxside as f64) <= (1.0 + 0.16) * total as f64 / 2.0,
            "imbalance: {:?}",
            b.wgt
        );
        // A 16x16 grid has a width-16 minimum bisection; multilevel+FM
        // should land within a factor ~2 of it.
        assert!(b.cut <= 32, "cut too large: {}", b.cut);
        assert!(b.cut >= 16);
    }

    #[test]
    fn bisect_long_strip() {
        // 64x2 strip: optimal cut 2.
        let g = grid_graph(64, 2);
        let b = bisect(&g, &PartOpts::default());
        assert!(b.cut <= 6, "cut {} too large for a strip", b.cut);
    }

    #[test]
    fn bisect_is_deterministic_for_fixed_seed() {
        let g = grid_graph(12, 12);
        let b1 = bisect(&g, &PartOpts::default());
        let b2 = bisect(&g, &PartOpts::default());
        assert_eq!(b1.side, b2.side);
        assert_eq!(b1.cut, b2.cut);
    }

    #[test]
    fn bisect_empty_graph() {
        let g = WGraph {
            xadj: vec![0],
            ..WGraph::default()
        };
        let b = bisect(&g, &PartOpts::default());
        assert!(b.side.is_empty());
        assert_eq!(b.cut, 0);
        assert_eq!(b.wgt, [0, 0]);
    }

    #[test]
    fn bisect_disconnected_graph() {
        // Two disjoint 4x4 grids glued into one vertex set.
        let g1 = grid_graph(4, 4);
        let n = g1.nvert() as u32;
        let mut xadj = g1.xadj.clone();
        let base = *xadj.last().unwrap();
        xadj.extend(g1.xadj[1..].iter().map(|&x| x + base));
        let mut adjncy = g1.adjncy.clone();
        adjncy.extend(g1.adjncy.iter().map(|&u| u + n));
        let g = WGraph {
            xadj,
            adjwgt: vec![1; adjncy.len()],
            adjncy,
            vwgt: vec![1; 2 * n as usize],
        };
        let b = bisect(&g, &PartOpts::default());
        // Perfect split exists with zero cut; accept near-perfect.
        assert!(b.cut <= 4, "cut {}", b.cut);
    }

    /// The boundary-FM sweep as it stood before the incremental
    /// [`Refine`] state, verbatim: the oracle the new pass must reproduce
    /// move for move.
    fn fm_pass(g: &WGraph, side: &mut [u8], eps: f64) -> i64 {
        use std::collections::BinaryHeap;
        let n = g.nvert();
        let total = g.total_vwgt();
        let maxside = ((1.0 + eps) * (total as f64) / 2.0) as i64;
        let view = g.view();
        let neighbors = |v: usize| {
            view.row(v)
                .map(move |e| (view.adjncy[e] as usize, view.adjwgt[e] as i64))
        };

        let mut wgt = [0i64; 2];
        for v in 0..n {
            wgt[side[v] as usize] += g.vwgt[v] as i64;
        }
        // gain(v) = external - internal edge weight.
        let gain = |side: &[u8], v: usize| -> i64 {
            let mut ext = 0;
            let mut int = 0;
            for (u, w) in neighbors(v) {
                if side[u] != side[v] {
                    ext += w;
                } else {
                    int += w;
                }
            }
            ext - int
        };
        let mut heap: BinaryHeap<(i64, usize)> = BinaryHeap::new();
        for v in 0..n {
            let is_boundary = neighbors(v).any(|(u, _)| side[u] != side[v]);
            if is_boundary {
                heap.push((gain(side, v), v));
            }
        }
        let mut locked = vec![false; n];
        let mut moves: Vec<usize> = Vec::new();
        let mut cur_delta = 0i64;
        let mut best_delta = 0i64;
        let mut best_len = 0usize;
        while let Some((gv, v)) = heap.pop() {
            if locked[v] {
                continue;
            }
            let g_now = gain(side, v);
            if g_now != gv {
                heap.push((g_now, v)); // stale entry: reinsert with fresh gain
                continue;
            }
            let from = side[v] as usize;
            let to = 1 - from;
            if wgt[to] + g.vwgt[v] as i64 > maxside {
                locked[v] = true; // would break balance; lock in place
                continue;
            }
            // Commit the tentative move.
            side[v] = to as u8;
            wgt[from] -= g.vwgt[v] as i64;
            wgt[to] += g.vwgt[v] as i64;
            locked[v] = true;
            moves.push(v);
            cur_delta += g_now;
            if cur_delta > best_delta {
                best_delta = cur_delta;
                best_len = moves.len();
            }
            for (u, _) in neighbors(v) {
                if !locked[u] {
                    heap.push((gain(side, u), u));
                }
            }
            // Bail out of hopeless tails.
            if moves.len() > best_len + 64 {
                break;
            }
        }
        // Roll back moves beyond the best prefix.
        for &v in &moves[best_len..] {
            side[v] ^= 1;
        }
        best_delta
    }

    /// A graph to refine: a random sparse pattern or a grid (many gain
    /// ties), with symmetric edge weights 1–4 and vertex weights 1–3 when
    /// `weighted`, then contracted `levels` times.
    fn test_graph(
        grid: bool,
        n: usize,
        k: usize,
        seed: u64,
        weighted: bool,
        levels: usize,
    ) -> WGraph {
        let a = if grid {
            gen::laplace2d(4 + n % 20, 3 + n / 20 + k, gen::Stencil2d::NinePoint)
        } else {
            gen::random_spd(n, k, seed)
        };
        let mut g = WGraph::from_adj(&AdjGraph::from_sym_lower(&a));
        if weighted {
            for v in 0..g.nvert() {
                g.vwgt[v] = 1 + ((v as u64 * 7 + seed % 5) % 3) as i32;
                for e in g.xadj[v] as usize..g.xadj[v + 1] as usize {
                    g.adjwgt[e] = 1 + ((v ^ g.adjncy[e] as usize) % 4) as i32;
                }
            }
        }
        for l in 0..levels {
            g = contracted(&g, seed ^ l as u64).g;
        }
        g
    }

    fn random_side(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u32) as u8).collect()
    }

    /// `r` describes `g` under `side` exactly as a fresh
    /// [`Refine::build`] would: the same `ext`, the same boundary list in
    /// the same order with matching positions, and the same side weights.
    fn assert_matches_a_fresh_build(
        r: &Refine,
        g: &WGraph,
        side: &[u8],
        sorted: bool,
    ) -> Result<(), String> {
        let mut fresh = Refine::default();
        fresh.build(g.view(), side);
        prop_assert_eq!(&r.ext, &fresh.ext);
        prop_assert_eq!(r.wgt, fresh.wgt);
        let mut bnd = r.bnd.clone();
        if sorted {
            bnd.sort_unstable();
        }
        prop_assert_eq!(&bnd, &fresh.bnd);
        for (i, &v) in r.bnd.iter().enumerate() {
            prop_assert_eq!(r.bpos[v as usize] as usize, i);
        }
        prop_assert_eq!(r.bpos.len(), g.nvert());
        prop_assert_eq!(r.bpos.iter().filter(|&&p| p != NONE).count(), r.bnd.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn bisection_is_balanced_two_sided(
            n in 5usize..=60,
            k in 1usize..=5,
            seed in any::<u64>(),
        ) {
            let g = AdjGraph::from_sym_lower(&gen::random_spd(n, k, seed));
            let w = WGraph::from_adj(&g);
            let b = bisect(&w, &PartOpts::default());
            prop_assert_eq!(b.wgt[0] + b.wgt[1], g.nvert() as i64);
            // Never everything on one side for n >= 2.
            prop_assert!(b.wgt[0] > 0 && b.wgt[1] > 0, "degenerate split {:?}", b.wgt);
            // Cut must match a recount.
            prop_assert_eq!(b.cut, w.cut(&b.side));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The incremental pass makes the same moves, keeps the same
        /// prefix and reports the same gain as the original sweep, pass
        /// after pass, on unit, weighted and contracted graphs.
        #[test]
        fn refinement_matches_the_original_fm_pass(
            grid in any::<bool>(),
            n in 8usize..120,
            k in 1usize..6,
            seed in any::<u64>(),
            weighted in any::<bool>(),
            levels in 0usize..3,
            eps_i in 0usize..4,
            grown in any::<bool>(),
        ) {
            let g = test_graph(grid, n, k, seed, weighted, levels);
            let eps = [0.0, 0.03, 0.15, 0.5][eps_i];
            let mut side = if grown {
                let mut side = Vec::new();
                grow_partition(
                    g.view(),
                    &mut StdRng::seed_from_u64(seed),
                    &mut side,
                    &mut Vec::new(),
                    &mut Vec::new(),
                );
                side
            } else {
                random_side(g.nvert(), seed)
            };
            let mut oracle = side.clone();
            let wdeg = recount_wdeg(&g);
            let mut r = Refine::default();
            r.build(g.view(), &side);
            let maxside = ((1.0 + eps) * (g.total_vwgt() as f64) / 2.0) as i64;
            for pass in 0..6 {
                let want = fm_pass(&g, &mut oracle, eps);
                let got = r.pass(g.view(), &wdeg, &mut side, maxside);
                prop_assert_eq!(got, want, "pass {}", pass);
                prop_assert_eq!(&side, &oracle, "pass {}", pass);
            }
        }

        /// After any sequence of flips the incremental degrees, boundary
        /// and side weights equal a recount from scratch.
        #[test]
        fn incremental_state_matches_a_recount(
            grid in any::<bool>(),
            n in 8usize..120,
            k in 1usize..6,
            seed in any::<u64>(),
            weighted in any::<bool>(),
            levels in 0usize..3,
            nflips in 1usize..200,
        ) {
            let g = test_graph(grid, n, k, seed, weighted, levels);
            let mut side = random_side(g.nvert(), seed);
            let mut r = Refine::default();
            r.build(g.view(), &side);
            let mut rng = StdRng::seed_from_u64(!seed);
            for _ in 0..nflips {
                r.flip(g.view(), &mut side, rng.gen_range(0..g.nvert()), None);
            }
            assert_matches_a_fresh_build(&r, &g, &side, true)?;
        }

        /// Through a whole V-cycle, the state projected onto every finer
        /// level — before that level's passes — equals a fresh build on it,
        /// and the weighted degrees the contraction summed equal a recount.
        #[test]
        fn projection_matches_a_rebuild_on_every_level(
            grid in any::<bool>(),
            n in 60usize..400,
            k in 1usize..6,
            seed in any::<u64>(),
            weighted in any::<bool>(),
            eps_i in 0usize..3,
        ) {
            let g = test_graph(grid, n, k, seed, weighted, 0);
            let opts = PartOpts {
                coarsen_to: 8,
                eps: [0.0, 0.15, 0.5][eps_i],
                seed,
                ..PartOpts::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut mate, mut order) = (Vec::new(), Vec::new());
            let mut levels: Vec<Level> = Vec::new();
            loop {
                let cur = levels.last().map_or(&g, |l| &l.g);
                if cur.nvert() <= opts.coarsen_to {
                    break;
                }
                let nc = heavy_edge_matching(cur.view(), &mut rng, &mut mate, &mut order);
                let mut next = Level::default();
                contract(cur.view(), &mate, &mut Vec::new(), &mut next);
                prop_assert_eq!(next.g.nvert(), nc);
                prop_assert_eq!(&next.wdeg, &recount_wdeg(&next.g));
                if nc as f64 > 0.95 * cur.nvert() as f64 {
                    break;
                }
                levels.push(next);
            }
            let coarsest = levels.last().map_or(&g, |l| &l.g);
            let mut side = Vec::new();
            grow_partition(coarsest.view(), &mut rng, &mut side, &mut Vec::new(), &mut Vec::new());
            let mut r = Refine::default();
            r.build(coarsest.view(), &side);
            r.run(coarsest.view(), &recount_wdeg(coarsest), &mut side, &opts);
            for k in (0..levels.len()).rev() {
                let fine = levels[..k].last().map_or(&g, |l| &l.g);
                let cmap = &levels[k].cmap;
                side = cmap.iter().map(|&c| side[c as usize]).collect();
                r.project(fine.view(), cmap, &side);
                assert_matches_a_fresh_build(&r, fine, &side, false)?;
                r.run(fine.view(), &recount_wdeg(fine), &mut side, &opts);
            }
        }
    }
}
