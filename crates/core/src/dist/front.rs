//! Block-cyclic distributed frontal matrices and their partial Cholesky.
//!
//! A distributed front of order `f` is cut into `nb x nb` blocks; block
//! `(bi, bj)` (lower triangle only) lives on grid position
//! `(bi mod pr, bj mod pc)` of the supernode's `pr x pc` process grid. The
//! partial factorization is the classic right-looking panel algorithm with
//! two broadcast phases per panel (row-wise panel broadcast, column-wise
//! broadcast of the transposed operand) — the ScaLAPACK `pdpotrf` pattern,
//! with `pr == 1` degenerating to the 1-D column layout the paper's method
//! outgrew.
//!
//! Panel boundaries equal the sequential kernel's (`nb == chol::NB` by
//! default) and per-entry accumulation order is preserved, so a distributed
//! factor matches the sequential factor **bitwise**.

use parfact_dense::blas::{gemm_nt, gemm_nt_ln, trsm_right_lt};
use parfact_dense::chol;
use parfact_dense::pack::CLayout;
use parfact_mpsim::collective::{bcast, ibcast, Group};
use parfact_mpsim::Rank;
use parfact_trace::Phase;
use std::ops::Range;
use std::sync::Arc;

use crate::error::FactorError;
use crate::frontal::flops_partial;

// ---------------------------------------------------------------------------
// Message-tag namespace.
//
// Every message in the distributed engine is tagged `tag(s, phase)` where
// `s` is a supernode id and `phase` one of the constants below. The
// invariant that keeps `(src, tag)` matching unambiguous is:
//
//   * phases are unique and `< PHASE_LIMIT` (tags pack as
//     `s * PHASE_LIMIT + phase`), and
//   * within one `(src, dst, s, phase)` stream, messages are consumed in
//     the order they were sent (mpsim queues are FIFO per `(src, tag)`).
//
// All tags — factorization broadcasts, extend-adds and the five solve
// phases — MUST go through [`tag`] so the namespace stays
// collision-free as phases are added; `tag` debug-asserts the bound.
// ---------------------------------------------------------------------------

/// Panel factorization phases (factorize).
pub const PHASE_L11: u64 = 1;
pub const PHASE_ROWCAST: u64 = 2;
pub const PHASE_COLCAST: u64 = 3;
/// Extend-add contribution of child supernode `s` into its parent.
pub const PHASE_EXTADD: u64 = 7;
/// Triangular-solve phases.
pub const PHASE_FWD_PANEL: u64 = 9;
pub const PHASE_FWD_CONTRIB: u64 = 10;
pub const PHASE_BWD_PANEL: u64 = 11;
pub const PHASE_BWD_XROWS: u64 = 12;
pub const PHASE_GATHER_X: u64 = 13;
/// Exclusive upper bound of the phase sub-namespace.
pub const PHASE_LIMIT: u64 = 16;

/// Block-cyclic home of front index `g` along one grid dimension of `np`
/// positions: `(owning position, index within the owner's stacked blocks)`.
/// Every block but the last is `nb` long, so the owner's `k`-th block starts
/// at `k * nb` whatever the front order.
#[inline]
pub fn cyclic(g: usize, nb: usize, np: usize) -> (usize, usize) {
    let b = g / nb;
    (b % np, (b / np) * nb + g % nb)
}

/// Total extent of blocks `first, first + step, ...` of an order-`f` front.
fn stacked_len(f: usize, nb: usize, first: usize, step: usize) -> usize {
    let blocks = (first..f.div_ceil(nb)).step_by(step);
    blocks.map(|b| nb.min(f - b * nb)).sum()
}

/// Entries of the first `k` strips of the share of grid position `my`
/// (see [`DistFront`]), whose block rows stack to `mloc` local rows.
fn strips_len(
    f: usize,
    nb: usize,
    (pr, pc): (usize, usize),
    my: (usize, usize),
    mloc: usize,
    k: usize,
) -> usize {
    let cols = (my.1..f.div_ceil(nb)).step_by(pc).take(k);
    cols.map(|bj| (mloc - first_row(bj, nb, pr, my.0, mloc)) * nb.min(f - bj * nb))
        .sum()
}

/// First local row of grid row `my0` belonging to a block row at or below
/// `b` (`mloc` when it has none).
fn first_row(b: usize, nb: usize, pr: usize, my0: usize, mloc: usize) -> usize {
    (b.saturating_sub(my0).div_ceil(pr) * nb).min(mloc)
}

/// Entries of the share grid position `my` of a `pr x pc` grid holds of
/// an order-`f` front in `nb` blocks: all of its strips.
pub(crate) fn share_len(f: usize, nb: usize, grid: (usize, usize), my: (usize, usize)) -> usize {
    let mloc = stacked_len(f, nb, my.0, grid.0);
    strips_len(f, nb, grid, my, mloc, usize::MAX)
}

/// The lower-triangle pivot entries grid position `my` of a `pr x pc` grid
/// holds of an order-`f` front with `w` pivots in `nb` blocks, as column
/// segments `cb(lj, rows)`: one per owned pivot column and block row.
pub fn pivot_segments(
    f: usize,
    w: usize,
    nb: usize,
    (pr, pc): (usize, usize),
    my: (usize, usize),
    mut cb: impl FnMut(usize, Range<usize>),
) {
    for lj in (0..w).filter(|lj| (lj / nb) % pc == my.1) {
        for bi in (lj / nb..f.div_ceil(nb)).filter(|bi| bi % pr == my.0) {
            cb(lj, lj.max(bi * nb)..f.min((bi + 1) * nb));
        }
    }
}

/// Cut the `f x w` column-major factor panel of a grid front into the
/// pieces its grid positions write, handing each to `give(position,
/// piece)`. Column `lj` of block `bj` is cut at the block-row boundaries
/// from the end of its diagonal block on: its head, down to that end, goes
/// to `(bj mod pr, bj mod pc)`, and the rows of each block row `bi` below
/// to `(bi mod pr, bj mod pc)`. So each position gets one piece per
/// [`pivot_segments`] segment of its own, in that order, each as long as
/// its segment, the head's rows above the diagonal included; and the
/// pieces tile the panel.
pub(crate) fn cut_pivots<'p>(
    panel: &'p mut [f64],
    (f, w, nb): (usize, usize, usize),
    (pr, pc): (usize, usize),
    mut give: impl FnMut((usize, usize), &'p mut [f64]),
) {
    let mut rest = panel;
    for lj in 0..w {
        let (bj, mut top) = (lj / nb, 0);
        for bi in bj..f.div_ceil(nb) {
            let end = f.min((bi + 1) * nb);
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(end - top);
            give((bi % pr, bj % pc), piece);
            (rest, top) = (tail, end);
        }
    }
    debug_assert!(rest.is_empty(), "a panel of f x w entries");
}

/// A front distributed block-cyclically over a process grid.
///
/// A rank's share is stored the way ScaLAPACK stores a local array, lower
/// blocks only: its block rows are stacked into `mloc` **local rows**, and
/// each owned block column is one column-major **strip** over the local rows
/// at or below that column's diagonal. A block is a window of its strip
/// (same leading dimension), so the dense kernels run on a whole strip at a
/// time and an extend-add addresses an entry as `strip column + local row`.
/// The strips lie one after another in a region of the rank's arena that
/// the run plan makes room for (`mapping::Plan::new`).
pub struct DistFront<'a> {
    /// Supernode id (tag namespace).
    pub s: usize,
    /// Front order and pivot count.
    pub f: usize,
    pub w: usize,
    /// Grid shape, block size, first rank of the group.
    pub pr: usize,
    pub pc: usize,
    pub nb: usize,
    pub lo: usize,
    /// This rank's grid position.
    pub my: (usize, usize),
    /// Front rows in this rank's block rows.
    mloc: usize,
    /// The strips held, one after another: strip `k` is block column
    /// `my.1 + k * pc`, local rows `row_start(bj)..mloc` by the block's
    /// columns, column-major.
    share: &'a mut [f64],
}

impl<'a> DistFront<'a> {
    /// Lay out this rank's owned blocks, zeroed, at the start of `region`,
    /// reporting them to the cost model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        s: usize,
        f: usize,
        w: usize,
        pr: usize,
        pc: usize,
        nb: usize,
        lo: usize,
        region: &'a mut [f64],
        rank: &mut Rank,
    ) -> Self {
        let me = rank.rank();
        debug_assert!(me >= lo && me < lo + pr * pc);
        let rel = me - lo;
        let my = (rel / pc, rel % pc);
        let share = &mut region[..share_len(f, nb, (pr, pc), my)];
        share.fill(0.0);
        let df = DistFront {
            s,
            f,
            w,
            pr,
            pc,
            nb,
            lo,
            my,
            mloc: stacked_len(f, nb, my.0, pr),
            share,
        };
        rank.alloc(df.bytes());
        df
    }

    /// Number of block rows/cols.
    pub fn nblk(&self) -> usize {
        self.f.div_ceil(self.nb)
    }

    /// Rows in block-row `bi`.
    pub fn mrows(&self, bi: usize) -> usize {
        self.nb.min(self.f - bi * self.nb)
    }

    /// Machine rank at grid position `(gr, gc)`.
    pub fn rank_at(&self, gr: usize, gc: usize) -> usize {
        self.lo + gr * self.pc + gc
    }

    /// Total bytes currently held in owned blocks.
    pub fn bytes(&self) -> usize {
        self.share.len() * 8
    }

    /// Entries of the first `k` strips.
    fn strips_len(&self, k: usize) -> usize {
        strips_len(self.f, self.nb, (self.pr, self.pc), self.my, self.mloc, k)
    }

    /// First local row belonging to a block row at or below `b` (`mloc`
    /// when this rank has none).
    fn row_start(&self, b: usize) -> usize {
        first_row(b, self.nb, self.pr, self.my.0, self.mloc)
    }

    /// The strip of owned block column `bj`: `(first local row, leading
    /// dimension, its span in the share)`.
    fn strip(&self, bj: usize) -> (usize, usize, Range<usize>) {
        debug_assert_eq!(bj % self.pc, self.my.1, "strip of an unowned block column");
        let r0 = self.row_start(bj);
        let (ld, start) = (self.mloc - r0, self.strips_len(bj / self.pc));
        (r0, ld, start..start + ld * self.mrows(bj))
    }

    /// Mutable [`DistFront::strip`], with the strip itself.
    fn strip_mut(&mut self, bj: usize) -> (usize, usize, &mut [f64]) {
        let (r0, ld, span) = self.strip(bj);
        (r0, ld, &mut self.share[span])
    }

    /// Where local column `lc` lives: `(first local row its strip stores,
    /// the column's span in the share)`.
    fn locate_col(&self, lc: usize) -> (usize, Range<usize>) {
        let (k, jc) = (lc / self.nb, lc % self.nb);
        let (r0, ld, strip) = self.strip(self.my.1 + k * self.pc);
        (r0, strip.start + jc * ld..strip.start + (jc + 1) * ld)
    }

    /// Local column `lc` (the second half of [`cyclic`] along the grid
    /// columns) as `(first local row it stores, the column)`: local row `lr`
    /// of the front sits at `column[lr - first]`.
    pub fn col(&self, lc: usize) -> (usize, &[f64]) {
        let (r0, span) = self.locate_col(lc);
        (r0, &self.share[span])
    }

    /// Mutable [`DistFront::col`].
    pub fn col_mut(&mut self, lc: usize) -> (usize, &mut [f64]) {
        let (r0, span) = self.locate_col(lc);
        (r0, &mut self.share[span])
    }

    /// Drop the strips that hold no pivot column (pure Schur blocks) once
    /// the update has been shipped; returns the released bytes.
    pub fn release_schur(&mut self) -> usize {
        let before = self.bytes();
        let pivot_cols = (self.my.1..self.w.div_ceil(self.nb)).step_by(self.pc);
        let keep = self.strips_len(pivot_cols.len());
        self.share = &mut std::mem::take(&mut self.share)[..keep];
        before - self.bytes()
    }

    /// Write this rank's share of the factor into its pieces of panel `s`
    /// (what [`cut_pivots`] gave its grid position, in order): each the
    /// values of its [`pivot_segments`] segment and, above a diagonal
    /// block's segment, zeros. The grid's ranks so overwrite each entry of
    /// the `f x w` panel once.
    pub(crate) fn write_pivots<'p>(&self, pieces: impl IntoIterator<Item = &'p mut [f64]>) {
        let (grid, mut pieces) = ((self.pr, self.pc), pieces.into_iter());
        pivot_segments(self.f, self.w, self.nb, grid, self.my, |lj, rows| {
            let (r0, col) = self.col(cyclic(lj, self.nb, self.pc).1);
            let lr = cyclic(rows.start, self.nb, self.pr).1 - r0;
            let vals = &col[lr..lr + rows.len()];
            let piece = pieces.next().expect("a piece for every pivot segment");
            let (upper, lower) = piece.split_at_mut(piece.len() - vals.len());
            upper.fill(0.0);
            lower.copy_from_slice(vals);
        });
        debug_assert!(pieces.next().is_none(), "a pivot segment for every piece");
    }

    /// Distributed right-looking partial Cholesky of the leading `w`
    /// columns: per panel, factor the diagonal block, scale the panel,
    /// broadcast the pieces row-wise and the transposed operands
    /// column-wise (binomial trees), then apply the trailing update.
    ///
    /// With `overlap` set, panel `bk`'s drain is deferred by one iteration
    /// (lookahead window of 1): only its own block column is brought
    /// current before panel `bk+1`'s broadcasts post, the rest drains
    /// *after* those broadcasts are in flight, and the broadcasts
    /// themselves forward with [`ibcast`] so their β transfer time hides
    /// under the deferred drain's compute. Under blocking sends lookahead
    /// measured slower (the forwarding ranks sat on the critical path
    /// either way); with nonblocking forwards the freed sender time is
    /// exactly what the drain fills — see DESIGN.md "Communication
    /// overlap".
    ///
    /// Per-entry accumulation order matches the sequential kernel exactly
    /// regardless of `overlap` (each entry still receives panel updates in
    /// ascending panel order), so results are bitwise identical to it.
    ///
    /// `col_base` converts pivot indices into matrix columns for error
    /// reporting. Every rank of the grid must call this.
    pub fn factorize(
        &mut self,
        rank: &mut Rank,
        col_base: usize,
        overlap: bool,
    ) -> Result<(), FactorError> {
        let (s, nb, pr, pc, w, f, my) =
            (self.s, self.nb, self.pr, self.pc, self.w, self.f, self.my);
        let nblk = self.nblk();
        let npanels = w.div_ceil(nb);
        let mrows = |b: usize| nb.min(f - b * nb);
        let t_l11 = tag(s, PHASE_L11);
        let t_row = tag(s, PHASE_ROWCAST);
        let t_col = tag(s, PHASE_COLCAST);
        // Broadcast a `len`-value piece. The pieces travel shared: every
        // rank of a tree gets the root's buffer, and the wire size is the
        // vector's. The three streams reuse one tag per supernode, so a
        // message duplicated by an injected link fault puts a stream out
        // of step: a typed error, not an index panic.
        let cast = |rank: &mut Rank, group: &Group, root, v: Option<Piece>, t, len| {
            let piece = if overlap {
                ibcast(rank, group, root, v, t)
            } else {
                bcast(rank, group, root, v, t)
            };
            let in_step = piece.len() == len;
            in_step.then_some(piece).ok_or(FactorError::Internal(
                "panel broadcast out of step: a piece of the wrong size",
            ))
        };
        // Binomial-tree communicators along my grid row and column.
        let my_row_group = Group::new((0..pc).map(|gc| self.rank_at(my.0, gc)).collect());
        let my_col_group = Group::new((0..pr).map(|gr| self.rank_at(gr, my.1)).collect());
        // The not-yet-drained previous panel (lookahead window of 1).
        let mut pending: Option<PanelPieces> = None;
        // The operand buffer of the last panel drained, for the next one.
        let mut spare = Vec::new();
        for bk in 0..npanels {
            let k0 = bk * nb;
            let jb = nb.min(w - k0);
            let (br, bc) = (bk % pr, bk % pc);
            let m_bk = mrows(bk);

            // --- A. Bring this panel's block column current. (Eager
            // draining keeps `pending` empty here; with `overlap` this is
            // the first half of draining panel bk-1.) ---
            if let Some(p) = &pending {
                self.apply_panel(p, rank, |bj| bj == bk);
            }

            // --- B1. Diagonal block (it heads its strip): factor its
            // leading jb columns, then broadcast L11 down the panel's grid
            // column. ---
            let mut l11 = Piece::default();
            if my == (br, bc) {
                let (_, ld, blk) = self.strip_mut(bk);
                chol::partial_potrf(m_bk, jb, blk, ld)
                    .map_err(|e| FactorError::from_dense(e, col_base + k0))?;
                rank.compute_as(flops_partial(m_bk, jb), Phase::Panel, Some(s));
                // Compact copy of the jb x jb lower L11.
                let mut lower = vec![0.0; jb * jb];
                for t in 0..jb {
                    lower[t * jb + t..(t + 1) * jb].copy_from_slice(&blk[t * ld + t..t * ld + jb]);
                }
                l11 = Arc::new(lower);
            }
            if my.1 == bc && pr > 1 {
                let root = if my == (br, bc) { Some(l11) } else { None };
                l11 = cast(rank, &my_col_group, br, root, t_l11, jb * jb)?;
            }

            // --- B2. Panel scaling: L21 = A21 L11^{-T} on grid column bc. ---
            if my.1 == bc {
                let (r0, ld, strip) = self.strip_mut(bk);
                for bi in (bk + 1..nblk).filter(|bi| bi % pr == my.0) {
                    let m = mrows(bi);
                    trsm_right_lt(m, jb, &l11, jb, &mut strip[(bi / pr) * nb - r0..], ld);
                    rank.compute_as((m * jb * jb) as f64, Phase::Panel, Some(s));
                }
            }

            // --- B3. Row-wise broadcast of panel pieces (binomial within
            // each grid row): the first jb columns of block (bi, bk), for
            // every block row bi congruent to my grid row, my local rows
            // from block row bk down. ---
            let a_r0 = self.row_start(bk);
            let lda = self.mloc - a_r0;
            let mut rows: Vec<Piece> = Vec::new();
            for bi in (bk..nblk).filter(|bi| bi % pr == my.0) {
                let (m, off) = (mrows(bi), (bi / pr) * nb - a_r0);
                // On grid column bc the strip of bk starts at a_r0 too.
                let mine = (my.1 == bc).then(|| {
                    let strip = &self.share[self.strip(bk).2];
                    Arc::new(rows_of(strip, lda, off, m, jb))
                });
                rows.push(match mine {
                    Some(piece) if pc == 1 => piece,
                    root => cast(rank, &my_row_group, bc, root, t_row, m * jb)?,
                });
            }
            // The pieces tile my rows from block row bk down, so stacking
            // them column by column writes all of `a`.
            let mut a = std::mem::take(&mut spare);
            a.clear();
            for j in 0..jb {
                for piece in &rows {
                    let m = piece.len() / jb;
                    a.extend_from_slice(&piece[j * m..(j + 1) * m]);
                }
            }
            debug_assert_eq!(a.len(), lda * jb);

            // --- B4. Column-wise broadcast of transposed operands (binomial
            // within each grid column): the panel piece of block row bj, for
            // every block column bj congruent to my grid column, is one
            // entry of `b`: each strip multiplies by its own piece only. The
            // root of each cast is the rank of block row bj, which forwards
            // the row piece B3 gave it (`rows` holds my block rows from bk
            // on, every pr-th). ---
            let mut b = Vec::new();
            for bj in (bk..nblk).filter(|bj| bj % pc == my.1) {
                let (m, sr) = (mrows(bj), bj % pr);
                let mine = (my.0 == sr).then(|| Arc::clone(&rows[(bj - bk) / pr]));
                b.push(match mine {
                    Some(piece) if pr == 1 => piece,
                    root => cast(rank, &my_col_group, sr, root, t_col, m * jb)?,
                });
            }

            // --- C. Drain. Without overlap: apply this panel eagerly.
            // With overlap: finish draining panel bk-1 (every column except
            // bk, which step A already brought current) now that panel bk's
            // broadcasts are in flight, and keep panel bk pending — its
            // transfer time hides under this compute. ---
            let current = PanelPieces { bk, jb, a, b };
            if overlap {
                if let Some(p) = pending.take() {
                    self.apply_panel(&p, rank, |bj| bj != bk);
                    spare = p.a;
                }
                pending = Some(current);
            } else {
                self.apply_panel(&current, rank, |_| true);
                spare = current.a;
            }
        }
        if let Some(p) = pending.take() {
            self.apply_panel(&p, rank, |_| true);
        }
        Ok(())
    }

    /// Apply one panel's trailing update to every owned block column that
    /// satisfies `keep` (and is at or right of the panel): one packed
    /// lower-triangle update on the diagonal block when this rank owns it,
    /// one packed `C -= A Bᵀ` on all the local rows below. The panel's own
    /// block column only updates its columns beyond the pivot part, and its
    /// diagonal block was already updated inside its `partial_potrf`.
    ///
    /// `k = jb <= nb`; with `nb = chol::NB` every entry takes the panel's
    /// pivots as one ascending dot subtracted once — the packed kernels'
    /// one-chain-per-segment contract (see `parfact_dense::pack`), which
    /// keeps distributed results bitwise equal to sequential. The flops charged
    /// are the entries updated times `2 jb` (a diagonal block only counts
    /// its lower triangle), by formula — not whatever the kernel's tiles
    /// happen to compute.
    fn apply_panel(&mut self, p: &PanelPieces, rank: &mut Rank, keep: impl Fn(usize) -> bool) {
        let (pr, pc, my, mloc) = (self.pr, self.pc, self.my, self.mloc);
        let (bk, jb) = (p.bk, p.jb);
        let a_r0 = self.row_start(bk);
        let lda = mloc - a_r0;
        let mut flops = 0usize;
        let my_cols = (bk..self.nblk()).filter(|bj| bj % pc == my.1);
        for (bj, bop) in my_cols.zip(&p.b).filter(|&(bj, _)| keep(bj)) {
            // `bop` is the piece of block row bj: n_bj x jb, compact.
            let n_bj = self.mrows(bj);
            let jc0 = if bj == bk { jb } else { 0 };
            if jc0 >= n_bj {
                continue;
            }
            let (r0, ld, strip) = self.strip_mut(bj);
            // First local row below the diagonal block.
            let mut below = r0;
            if bj % pr == my.0 {
                if bj != bk {
                    let aop = &p.a[r0 - a_r0..];
                    let ldc = CLayout::Plain(ld);
                    gemm_nt_ln(n_bj, n_bj, jb, -1.0, aop, lda, bop, n_bj, strip, ldc, 1);
                    flops += jb * n_bj * (n_bj + 1);
                }
                below += n_bj;
            }
            let (m, n) = (mloc - below, n_bj - jc0);
            if m > 0 {
                let (aop, bop) = (&p.a[below - a_r0..], &bop[jc0..]);
                let c = &mut strip[jc0 * ld + below - r0..];
                gemm_nt(m, n, jb, -1.0, aop, lda, bop, n_bj, 1.0, c, ld);
                flops += 2 * m * n * jb;
            }
        }
        rank.compute_as(flops as f64, Phase::Gemm, Some(self.s));
    }
}

/// One panel's broadcast pieces, kept alive by the lookahead window: the
/// first `jb` columns of the panel's blocks in this rank's block rows,
/// stacked column-major over the local rows from block row `bk` down (`a`),
/// and one compact piece per block column of this rank from `bk` right
/// (`b`, the piece of the block *row* of that number).
struct PanelPieces {
    bk: usize,
    jb: usize,
    a: Vec<f64>,
    b: Vec<Piece>,
}

/// A broadcast panel piece: compact, column-major, shared by every rank
/// that received it.
type Piece = Arc<Vec<f64>>;

/// Rows `off..off + m` of the first `n` columns of a column-major matrix
/// with leading dimension `ld`, compacted to `m x n`.
fn rows_of(src: &[f64], ld: usize, off: usize, m: usize, n: usize) -> Vec<f64> {
    let mut piece = Vec::with_capacity(m * n);
    for j in 0..n {
        piece.extend_from_slice(&src[j * ld + off..j * ld + off + m]);
    }
    piece
}

/// Tag for `(supernode, phase)` — phases within a supernode are disjoint,
/// and supernode ids never repeat across the run. This is the single tag
/// constructor for the whole distributed engine; see the namespace notes
/// at the top of this module.
pub fn tag(s: usize, phase: u64) -> u64 {
    debug_assert!(
        phase < PHASE_LIMIT,
        "tag phase {phase} outside the {PHASE_LIMIT}-wide namespace"
    );
    (s as u64) * PHASE_LIMIT + phase
}

/// Names for the three traffic classes of [`comm_class`], in index order.
/// The simulator's comm matrix uses these as its class axis.
pub const COMM_CLASSES: [&str; 3] = ["extadd", "panel", "solve"];

/// Classify a message tag into a traffic class for the comm matrix:
/// extend-add contributions (0), factorization panel broadcasts (1) and
/// triangular-solve traffic (2) — every phase the engine sends on. Pure
/// arithmetic on the phase field of the tag, so it is safe to call from
/// the simulator's recording path.
pub fn comm_class(t: u64) -> usize {
    match t % PHASE_LIMIT {
        PHASE_EXTADD => 0,
        PHASE_L11 | PHASE_ROWCAST | PHASE_COLCAST => 1,
        PHASE_FWD_PANEL | PHASE_FWD_CONTRIB | PHASE_BWD_PANEL | PHASE_BWD_XROWS
        | PHASE_GATHER_X => 2,
        phase => unreachable!("message phase {phase} has no traffic class"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pivot_cut_tiles_each_panel_once_in_segment_order() {
        // (f, w, nb, pr, pc): one grid row, one grid column, a last block
        // short of nb, fewer pivots than a block, a front of pivots only.
        let cases = [
            (10, 7, 3, 1, 3),
            (10, 7, 3, 3, 1),
            (11, 8, 4, 2, 3),
            (9, 2, 4, 2, 2),
            (12, 12, 5, 3, 2),
            (7, 7, 3, 1, 1),
        ];
        for (f, w, nb, pr, pc) in cases {
            // Each entry holds its own index, so a piece names what it covers.
            let mut panel: Vec<f64> = (0..f * w).map(|i| i as f64).collect();
            let mut pieces: Vec<Vec<&mut [f64]>> = (0..pr * pc).map(|_| Vec::new()).collect();
            cut_pivots(&mut panel, (f, w, nb), (pr, pc), |(gr, gc), piece| {
                pieces[gr * pc + gc].push(piece)
            });
            let mut covered = vec![0; f * w];
            for (rel, mine) in pieces.iter().enumerate() {
                // Where each segment's piece starts, and its length: from
                // the top of the column for a diagonal block's segment.
                let mut want = Vec::new();
                pivot_segments(f, w, nb, (pr, pc), (rel / pc, rel % pc), |lj, rows| {
                    let top = if rows.start == lj { 0 } else { rows.start };
                    want.push((lj * f + top, rows.end - top));
                });
                let got: Vec<_> = mine.iter().map(|p| (p[0] as usize, p.len())).collect();
                assert_eq!(
                    got,
                    want,
                    "(f, w, nb, pr, pc) = {:?}, rank {rel}",
                    (f, w, nb, pr, pc)
                );
                for &v in mine.iter().flat_map(|p| p.iter()) {
                    covered[v as usize] += 1;
                }
            }
            assert!(covered.iter().all(|&n| n == 1), "{:?}", (f, w, nb, pr, pc));
        }
    }
}
