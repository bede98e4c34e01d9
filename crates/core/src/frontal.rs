//! Frontal matrices and extend-add: the data movement of the multifrontal
//! method.
//!
//! The front of supernode `s` is a dense lower-stored matrix of order
//! `f = width(s) + |rows(s)|` whose index space is the concatenation of the
//! supernode's pivot columns and its below-pivot rows. It is assembled from
//! the original matrix entries of the pivot columns plus the **update
//! matrices** (Schur complements) of the children, then partially factored;
//! the leading `width` columns become factor panel `s`, the trailing block
//! becomes this front's own update matrix.
//!
//! A front is never stored as one `f x f` matrix: its pivot columns are
//! assembled and factored in the factor panel they stay in (leading
//! dimension `f`), its trailing block where the run plan put its update in
//! its worker's arena (`mapping::Plan::at`), where the parent reads it:
//! rows `sym.sn_rows[s]`, landing at `sym.sn_rel[s]`. An update of order
//! `r = f - width` keeps only its lower triangle, in the dense kernels'
//! strips of `chol::NB` columns (`CLayout::Strips`: strip `b` holds rows
//! `48b..r` of columns `48b..48b + 48`, leading dimension `r - 48b`), so
//! it takes `update_len(r)` entries, about `r²/2 + 24r`, not `r²`. The
//! packed kernel writes the strips in place, and extend-add reads each
//! child column below its diagonal as one contiguous run of its strip.
//!
//! That life-cycle is spelled out exactly once, in `factor_front`, and run
//! by one loop, `seq::factor_run`, for the local fronts of all engines
//! (`seq`, the `smp` subtrees and top, the local subtrees of `dist`): they
//! are schedulers around it, picking the next supernodes, the slab part
//! they write and the arena their updates live in. What a front costs is
//! charged through a `FrontMeter` — wall-clock ticks and tracked bytes on
//! the host engines, virtual compute time and rank memory on the simulated
//! machine.

use crate::error::FactorError;
use crate::factor::FactorKind;
use parfact_dense::blas::gemm_nt_ln;
use parfact_dense::pack::{strips_len, CLayout};
use parfact_dense::{chol, DenseError};
use parfact_sparse::csc::CscMatrix;
use parfact_symbolic::Symbolic;
use parfact_trace::{LocalRecorder, Phase, Tick};
use std::ops::Range;

/// Entries an update of order `r` takes: its lower triangle in strips
/// ([`CLayout::Strips`]). Every engine, the run plan and the memory
/// meters measure updates with this.
pub(crate) fn update_len(r: usize) -> usize {
    strips_len(r, r)
}

/// Where column `j` of an update of order `r` lies from its diagonal
/// down: one contiguous run of its strip.
pub(crate) fn update_column(r: usize, j: usize) -> Range<usize> {
    let d = CLayout::Strips.at(r, j, j).0;
    d..d + r - j
}

/// Assemble the front of supernode `s` where it will be factored: zero
/// `panel` (the `f x w` pivot columns) and `schur` (the trailing block of
/// order `r = f - w` in strips, [`update_len`]`(r)` entries), place the
/// pivot columns of `ap` at their A positions (`sym.a_pos`), then
/// extend-add every child update `(src, data)`, `data` holding the
/// [`update_len`]`(|sn_rows[src]|)` entries of `src`'s update.
///
/// Returns the number of entries placed or added into the front
/// (original-matrix entries plus applied extend-add contributions), which
/// instrumentation converts to assembly byte counts.
pub(crate) fn assemble_front<'u>(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    children: impl IntoIterator<Item = (usize, &'u [f64])>,
    panel: &mut [f64],
    schur: &mut [f64],
) -> u64 {
    let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
    let w = c1 - c0;
    let f = w + sym.sn_rows[s].len();
    panel.fill(0.0);
    schur.fill(0.0);
    let mut entries = 0u64;
    // Original matrix entries of the pivot columns (lower part only).
    for (c, col) in (c0..c1).zip(panel.chunks_exact_mut(f)) {
        let k = ap.colptr()[c]..ap.colptr()[c + 1];
        entries += k.len() as u64;
        for (&p, &v) in sym.a_pos[k.clone()].iter().zip(&ap.values()[k]) {
            col[p as usize] = v;
        }
    }
    for (src, data) in children {
        entries += extend_add(&sym.sn_rel[src], data, panel, schur, f, w);
    }
    entries
}

/// Add one update matrix (order `rel.len()`, its lower triangle in strips
/// in `data`) into a front of order `f` with `w` pivots, where `rel[i]` is
/// the front position of the update's row `i`: a column at a position
/// below `w` lands in `panel`, one at or beyond it in `schur` (both as
/// `assemble_front` lays them out). The positions are increasing (both
/// index lists are sorted), so the child's lower triangle lands in the
/// parent's lower triangle: child column `j`, rows `j..`, is one run of its
/// strip, added into front column `rel[j]` from its diagonal down. Returns
/// the number of (nonzero) entries added.
pub(crate) fn extend_add(
    rel: &[u32],
    data: &[f64],
    panel: &mut [f64],
    schur: &mut [f64],
    f: usize,
    w: usize,
) -> u64 {
    let (r, rs) = (rel.len(), f - w);
    let mut added = 0u64;
    for j in 0..r {
        let lj = rel[j] as usize;
        // The front column from its diagonal (front row `lj`) down.
        let col = if lj < w {
            &mut panel[lj * f + lj..(lj + 1) * f]
        } else {
            &mut schur[update_column(rs, lj - w)]
        };
        for (&v, &i) in data[update_column(r, j)].iter().zip(&rel[j..]) {
            if v != 0.0 {
                col[i as usize - lj] += v;
                added += 1;
            }
        }
    }
    added
}

/// Flop count of a partial factorization of `npiv` columns in an
/// `m`-order block: `Σ_k (m-k)²`, the classic LAPACK convention that counts
/// multiplies and adds separately (`n³/3` for full dense Cholesky).
pub fn flops_partial(m: usize, npiv: usize) -> f64 {
    (0..npiv).map(|k| ((m - k) * (m - k)) as f64).sum()
}

/// The buffers a front's life-cycle holds, as far as memory accounting
/// tells them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Buf {
    /// The dense `f x f` front the machine model assembles and factors. On
    /// the host it does not exist — a front lives in its `Panel` and its
    /// `Update` — and costs nothing.
    Front,
    /// The `f x w` factor panel kept for the solves.
    Panel,
    /// An update matrix travelling from a child to its parent (its lower
    /// triangle in strips, [`update_len`] entries).
    Update,
}

/// Where [`factor_front`] charges the time, flops and memory of a front.
/// The hooks fire in a fixed order — `hold(Front)`, `hold(Update)`,
/// `start`, `assembled`, `release(Update)` per child, (kernel: `start`,
/// `step`, ...), `factored`, `hold(Panel)`, `release(Front)` — which is
/// what keeps memory high-water marks and virtual clocks reproducible.
pub(crate) trait FrontMeter {
    /// An in-flight assembly timing.
    type Tick;
    /// Assembly of a front begins.
    fn start(&mut self) -> Self::Tick;
    /// Supernode `s` is assembled from the matrix and all its children's
    /// updates: `entries` values were scattered or added into its front.
    fn assembled(&mut self, tick: Self::Tick, sym: &Symbolic, s: usize, entries: u64);
    /// Step `phase` of supernode `s`'s dense kernel, begun at `tick`, ended.
    fn step(&mut self, tick: Self::Tick, phase: Phase, s: usize);
    /// The dense partial factorization of supernode `s` took `flops`.
    fn factored(&mut self, s: usize, flops: f64);
    /// `bytes` of `buf` became live.
    fn hold(&mut self, buf: Buf, bytes: usize);
    /// `bytes` of `buf` were released.
    fn release(&mut self, buf: Buf, bytes: usize);
}

/// Host engines: assembly and each step of the dense kernel are wall-timed
/// in their phase, every buffer that exists is tracked.
impl FrontMeter for LocalRecorder<'_> {
    type Tick = Tick;

    fn start(&mut self) -> Tick {
        LocalRecorder::start(self)
    }

    fn assembled(&mut self, tick: Tick, _: &Symbolic, s: usize, entries: u64) {
        self.stop(tick, Phase::ExtendAdd, Some(s));
        self.add_assembled_entries(entries);
    }

    fn step(&mut self, tick: Tick, phase: Phase, s: usize) {
        self.stop(tick, phase, Some(s));
    }

    fn factored(&mut self, _: usize, flops: f64) {
        self.add_flops(flops);
        self.front_done();
    }

    fn hold(&mut self, buf: Buf, bytes: usize) {
        if buf != Buf::Front {
            self.mem_alloc(bytes);
        }
    }

    fn release(&mut self, buf: Buf, bytes: usize) {
        if buf != Buf::Front {
            self.mem_free(bytes);
        }
    }
}

/// The dense kernel of `kind` on an assembled front of order `f` with `w`
/// pivots, stored as [`assemble_front`] leaves it, with each of its
/// updates shared by `threads` threads (the bits do not depend on
/// `threads`). `d` receives the LDLᵀ pivots (unused for LLᵀ). LLᵀ runs
/// the two steps of [`chol::partial_potrf_split`] here so that each is a
/// [`FrontMeter::step`] of its own: the pivot columns as [`Phase::Panel`],
/// the one Schur update from all of them as [`Phase::Gemm`]. LDLᵀ is one
/// [`Phase::Panel`] step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel_kernel<M: FrontMeter>(
    kind: FactorKind,
    s: usize,
    meter: &mut M,
    f: usize,
    w: usize,
    panel: &mut [f64],
    schur: &mut [f64],
    d: &mut [f64],
    threads: usize,
) -> Result<(), DenseError> {
    let tick = meter.start();
    match kind {
        FactorKind::Llt => {
            chol::potrf_panel(f, w, panel, f, 0, threads)?;
            meter.step(tick, Phase::Panel, s);
            if f > w {
                let tick = meter.start();
                let (r, l21, ls) = (f - w, &panel[w..], CLayout::Strips);
                gemm_nt_ln(r, r, w, -1.0, l21, f, l21, f, schur, ls, threads);
                meter.step(tick, Phase::Gemm, s);
            }
        }
        FactorKind::Ldlt => {
            chol::partial_ldlt_split(f, w, panel, f, schur, CLayout::Strips, d, threads)?;
            meter.step(tick, Phase::Panel, s);
        }
    }
    Ok(())
}

/// The life of one front: assemble the front of supernode `s` from
/// `children` (each child's update, see [`assemble_front`]) into `panel`
/// (its `f x w` slice of the factor) and `schur` (the [`update_len`]`(r)`
/// range of the arena its update lives in, empty for a root), and run
/// `kernel(meter, f, w, panel, schur)` on them in place — the caller's
/// choice of dense partial factorization, which also writes any LDLᵀ
/// pivots. The trailing
/// block left in `schur` is the update the parent reads. Nothing here
/// touches the heap, and no entry of the front is copied.
#[allow(clippy::too_many_arguments)]
pub(crate) fn factor_front<'u, M: FrontMeter>(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    children: impl IntoIterator<Item = (usize, &'u [f64])>,
    meter: &mut M,
    panel: &mut [f64],
    schur: &mut [f64],
    kernel: impl FnOnce(&mut M, usize, usize, &mut [f64], &mut [f64]) -> Result<(), DenseError>,
) -> Result<(), FactorError> {
    let c0 = sym.sn_ptr[s];
    let w = sym.sn_width(s);
    let f = sym.front_order(s);
    let r = f - w;
    meter.hold(Buf::Front, f * f * 8);
    if r > 0 {
        meter.hold(Buf::Update, update_len(r) * 8);
    }
    let tick = meter.start();
    let entries = assemble_front(ap, sym, s, children, panel, schur);
    meter.assembled(tick, sym, s, entries);
    for &c in &sym.tree.children[s] {
        meter.release(Buf::Update, update_len(sym.sn_rows[c].len()) * 8);
    }
    kernel(meter, f, w, panel, schur).map_err(|e| FactorError::from_dense(e, c0))?;
    meter.factored(s, flops_partial(f, w));
    meter.hold(Buf::Panel, f * w * 8);
    meter.release(Buf::Front, f * f * 8);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    fn small_problem() -> (Symbolic, CscMatrix) {
        let a = gen::laplace2d(4, 4, gen::Stencil2d::FivePoint);
        analyze(&a, &AmalgOpts::default())
    }

    /// Assemble supernode `s` without children into buffers with stale
    /// contents (assembly must overwrite every entry): the update range of
    /// exactly `update_len(r)` entries sits between NaN neighbours that
    /// assembly must leave alone.
    fn assemble_alone(ap: &CscMatrix, sym: &Symbolic, s: usize) -> (Vec<f64>, Vec<f64>, u64) {
        let mut panel = vec![f64::NAN; sym.front_order(s) * sym.sn_width(s)];
        let len = update_len(sym.sn_rows[s].len());
        let mut arena = vec![f64::NAN; len + 2];
        let entries = assemble_front(ap, sym, s, [], &mut panel, &mut arena[1..=len]);
        assert!(
            arena[0].is_nan() && arena[len + 1].is_nan(),
            "a neighbour was written"
        );
        (panel, arena[1..=len].to_vec(), entries)
    }

    #[test]
    fn assembly_zeroes_exactly_the_update_layout() {
        // Nested dissection of a 3-D grid gives separator fronts whose
        // updates span several strips.
        let a = gen::laplace3d(8, 8, 8, gen::Stencil3d::SevenPoint);
        let fill = parfact_order::order_matrix(&a, parfact_order::Method::default());
        let (sym, ap) = analyze(&fill.apply_sym_lower(&a), &AmalgOpts::default());
        let mut wide = 0;
        for s in 0..sym.nsuper() {
            let r = sym.sn_rows[s].len();
            let (panel, schur, _) = assemble_alone(&ap, &sym, s);
            assert!(panel.iter().all(|v| v.is_finite()), "supernode {s}");
            assert!(schur.iter().all(|&v| v == 0.0), "supernode {s}");
            if r > chol::NB {
                assert!(schur.len() < r * r);
                wide += 1;
            }
        }
        assert!(wide > 0, "no update spans two strips");
    }

    #[test]
    fn assemble_places_matrix_entries() {
        let (sym, ap) = small_problem();
        let s = 0;
        let (panel, schur, entries) = assemble_alone(&ap, &sym, s);
        // No children: the entry count is exactly the pivot columns' nnz,
        // and the trailing block is a zeroed square of the right order.
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        let nnz: usize = (c0..c1).map(|c| ap.col(c).0.len()).sum();
        assert_eq!(entries, nnz as u64);
        let r = sym.sn_rows[s].len();
        assert_eq!(schur, vec![0.0; update_len(r)]);
        // Diagonal of the first pivot column must be the matrix diagonal.
        assert_eq!(panel[0], ap.get(c0, c0).unwrap());
        assert!(panel.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn extend_add_splits_columns_at_the_pivot_boundary() {
        // Strict supernodes guarantee a non-root supernode with below rows.
        let a = gen::laplace2d(4, 4, gen::Stencil2d::FivePoint);
        let (sym, ap) = analyze(
            &a,
            &AmalgOpts {
                min_width: 0,
                relax_frac: 0.0,
            },
        );
        let s = (0..sym.nsuper())
            .find(|&s| sym.sn_rows[s].len() >= 2)
            .unwrap();
        let (f, w) = (sym.front_order(s), sym.sn_width(s));
        let r = f - w;
        let (mut panel, mut schur, _) = assemble_alone(&ap, &sym, s);
        let (panel0, schur0) = (panel.clone(), schur.clone());
        // An update over the last pivot column and the first two below
        // rows: one column lands in the panel, two in the trailing block.
        let rel = [w as u32 - 1, w as u32, w as u32 + 1];
        #[rustfmt::skip]
        let data = vec![
            1.0, 2.0, 3.0,
            0.0, 4.0, 0.0, // an exact zero is skipped, not counted
            0.0, 0.0, 6.0,
        ];
        let added = extend_add(&rel, &data, &mut panel, &mut schur, f, w);
        assert_eq!(added, 5, "five nonzero lower entries");
        let mut want_panel = panel0;
        let lc = w - 1;
        want_panel[lc * f + lc] += 1.0;
        want_panel[lc * f + w] += 2.0;
        want_panel[lc * f + w + 1] += 3.0;
        assert_eq!(panel, want_panel);
        let mut want_schur = schur0;
        want_schur[CLayout::Strips.at(r, 0, 0).0] += 4.0;
        want_schur[CLayout::Strips.at(r, 1, 1).0] += 6.0;
        assert_eq!(schur, want_schur);
    }

    #[test]
    fn extend_add_reads_and_writes_columns_across_strip_boundaries() {
        // A child of order 60 (two strips) into a front of order 130 with
        // 10 pivots (a trailing block of three strips): its first three
        // columns land in the panel, the rest on every other front column,
        // so child and front columns cross strip boundaries at different
        // places.
        let (f, w) = (130usize, 10usize);
        let rel: Vec<u32> = (7..10).chain((0..57).map(|i| 10 + 2 * i)).collect();
        let r = rel.len();
        // Child entry (i, j), every seventh an exact zero.
        let value = |i: usize, j: usize| match (i * r + j) % 7 {
            0 => 0.0,
            v => (i + 2 * j) as f64 + v as f64 / 8.0,
        };
        let mut data = vec![f64::NAN; update_len(r)];
        for j in 0..r {
            for i in j..r {
                data[CLayout::Strips.at(r, i, j).0] = value(i, j);
            }
        }
        let (rs, base) = (f - w, 0.5);
        let mut panel = vec![base; f * w];
        let mut schur = vec![base; update_len(rs)];
        let added = extend_add(&rel, &data, &mut panel, &mut schur, f, w);
        // The front as a plain lower matrix, then the same sums by entry.
        let mut want = vec![base; f * f];
        let mut nonzero = 0;
        for j in 0..r {
            for i in j..r {
                let (fi, fj) = (rel[i] as usize, rel[j] as usize);
                if value(i, j) != 0.0 {
                    want[fj * f + fi] += value(i, j);
                    nonzero += 1;
                }
            }
        }
        assert_eq!(added, nonzero);
        for fj in 0..f {
            for fi in fj..f {
                let got = if fj < w {
                    panel[fj * f + fi]
                } else {
                    schur[CLayout::Strips.at(rs, fi - w, fj - w).0]
                };
                assert_eq!(got, want[fj * f + fi], "front entry ({fi}, {fj})");
            }
        }
    }
}
