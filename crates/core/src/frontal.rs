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
//! dimension `f`), its trailing block in the buffer that then travels to
//! the parent as the update matrix (leading dimension `f - width`).
//!
//! That life-cycle is spelled out exactly once, in `factor_front`. The
//! engines (`seq`, both `smp` phases, the local subtrees of `dist`) are
//! schedulers around it: they decide which supernode runs next, where its
//! children's updates come from and where its own update goes. What a
//! front costs is charged through a `FrontMeter` — wall-clock ticks and
//! tracked bytes on the host engines, virtual compute time and rank memory
//! on the simulated machine.

use crate::error::FactorError;
use crate::factor::FactorKind;
use crate::workspace::FrontWorkspace;
use parfact_dense::blas::syrk_ln;
use parfact_dense::{chol, DenseError};
use parfact_sparse::csc::CscMatrix;
use parfact_symbolic::Symbolic;
use parfact_trace::{LocalRecorder, Phase, Tick};

/// A child's contribution to its parent: the Schur complement over the
/// child's below-pivot rows (dense lower storage).
///
/// The global row indices it spans are not stored — they are exactly
/// `sym.sn_rows[src]`, and where they land in the parent's front is
/// `sym.sn_rel[src]`. Dropping the owned index vector lets the workspace
/// arenas recycle update buffers without cloning row lists per supernode.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMatrix {
    /// Supernode whose elimination produced this update.
    pub src: usize,
    /// Column-major `r x r` buffer (`r = sym.sn_rows[src].len()`); lower
    /// triangle valid.
    pub data: Vec<f64>,
}

impl UpdateMatrix {
    /// Order of the update matrix.
    #[inline]
    pub fn order(&self, sym: &Symbolic) -> usize {
        sym.sn_rows[self.src].len()
    }
}

/// Assemble the front of supernode `s` where it will be factored: zero
/// `panel` (the `f x w` pivot columns) and `schur` (resized to the `r x r`
/// trailing block, `r = f - w`), place the pivot columns of `ap` at their
/// A positions (`sym.a_pos`), then extend-add every child update.
///
/// Returns the number of entries placed or added into the front
/// (original-matrix entries plus applied extend-add contributions), which
/// instrumentation converts to assembly byte counts.
pub(crate) fn assemble_front(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    children: &[UpdateMatrix],
    panel: &mut [f64],
    schur: &mut Vec<f64>,
) -> u64 {
    let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
    let w = c1 - c0;
    let f = w + sym.sn_rows[s].len();
    panel.fill(0.0);
    // clear + resize zeroes exactly the `r x r` block (a recycled buffer
    // may be larger) while keeping the buffer's capacity.
    schur.clear();
    schur.resize((f - w) * (f - w), 0.0);
    let mut entries = 0u64;
    // Original matrix entries of the pivot columns (lower part only).
    for (c, col) in (c0..c1).zip(panel.chunks_exact_mut(f)) {
        let k = ap.colptr()[c]..ap.colptr()[c + 1];
        entries += k.len() as u64;
        for (&p, &v) in sym.a_pos[k.clone()].iter().zip(&ap.values()[k]) {
            col[p as usize] = v;
        }
    }
    for upd in children {
        let rel = &sym.sn_rel[upd.src];
        entries += extend_add(rel, &upd.data, panel, schur, f, w);
    }
    entries
}

/// Add one update matrix (`rel.len() x rel.len()` column-major `data`,
/// lower triangle valid) into a front of order `f` with `w` pivots, where
/// `rel[i]` is the front position of the update's row `i`: a column at a
/// position below `w` lands in `panel`, one at or beyond it in `schur` (both
/// as `assemble_front` lays them out). The positions are increasing (both
/// index lists are sorted), so the child's lower triangle lands in the
/// parent's lower triangle. Returns the number of (nonzero) entries added.
pub fn extend_add(
    rel: &[u32],
    data: &[f64],
    panel: &mut [f64],
    schur: &mut [f64],
    f: usize,
    w: usize,
) -> u64 {
    let r = rel.len();
    let rs = f - w;
    let mut added = 0u64;
    for j in 0..r {
        let lj = rel[j] as usize;
        // The front column's rows, and the front row its first entry is.
        let (col, top) = if lj < w {
            (&mut panel[lj * f..(lj + 1) * f], 0)
        } else {
            (&mut schur[(lj - w) * rs..(lj - w + 1) * rs], w)
        };
        let src = &data[j * r..j * r + r];
        for (i, &v) in src.iter().enumerate().skip(j) {
            if v != 0.0 {
                col[rel[i] as usize - top] += v;
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
    /// An update matrix travelling from a child to its parent.
    Update,
}

/// Where [`factor_front`] charges the time, flops and memory of a front.
/// The hooks fire in a fixed order — `hold(Front)`, `hold(Update)`,
/// `start`, `assembled`, `release(Update)` per child, (dense kernel),
/// `factored`, `hold(Panel)`, `release(Front)` — which is what keeps
/// memory high-water marks and virtual clocks reproducible.
pub(crate) trait FrontMeter {
    /// An in-flight assembly timing.
    type Tick;
    /// Assembly of a front begins.
    fn start(&mut self) -> Self::Tick;
    /// Supernode `s` is assembled from the matrix and all its children's
    /// updates: `entries` values were scattered or added into its front.
    fn assembled(&mut self, tick: Self::Tick, sym: &Symbolic, s: usize, entries: u64);
    /// The dense partial factorization of supernode `s` took `flops`.
    fn factored(&mut self, s: usize, flops: f64);
    /// `bytes` of `buf` became live.
    fn hold(&mut self, buf: Buf, bytes: usize);
    /// `bytes` of `buf` were released.
    fn release(&mut self, buf: Buf, bytes: usize);
}

/// Host engines: assembly is wall-timed as [`Phase::ExtendAdd`] (the dense
/// kernel times itself, see [`panel_kernel`]), every buffer that exists is
/// tracked.
impl FrontMeter for LocalRecorder<'_> {
    type Tick = Tick;

    fn start(&mut self) -> Tick {
        LocalRecorder::start(self)
    }

    fn assembled(&mut self, tick: Tick, _: &Symbolic, s: usize, entries: u64) {
        self.stop(tick, Phase::ExtendAdd, Some(s));
        self.add_assembled_entries(entries);
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

/// The sequential dense kernel of `kind` on an assembled front of order
/// `f` with `w` pivots, stored as [`assemble_front`] leaves it. `d`
/// receives the LDLᵀ pivots (unused for LLᵀ). LLᵀ runs the two steps of
/// [`chol::partial_potrf_split`] here so that each gets its own timer:
/// the pivot columns as [`Phase::Panel`], the one Schur update from all
/// of them as [`Phase::Gemm`]. LDLᵀ is timed whole as [`Phase::Panel`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn panel_kernel(
    kind: FactorKind,
    s: usize,
    rec: &mut LocalRecorder<'_>,
    f: usize,
    w: usize,
    panel: &mut [f64],
    schur: &mut [f64],
    d: &mut [f64],
) -> Result<(), DenseError> {
    let tick = rec.start();
    match kind {
        FactorKind::Llt => {
            chol::potrf_panel(f, w, panel, f, 0)?;
            rec.stop(tick, Phase::Panel, Some(s));
            if f > w {
                let tick = rec.start();
                syrk_ln(f - w, w, -1.0, &panel[w..], f, 1.0, schur, f - w);
                rec.stop(tick, Phase::Gemm, Some(s));
            }
        }
        FactorKind::Ldlt => {
            chol::partial_ldlt_split(f, w, panel, f, schur, f - w, d)?;
            rec.stop(tick, Phase::Panel, Some(s));
        }
    }
    Ok(())
}

/// The life of one front. The caller has staged the children's updates in
/// `wst.children`; this assembles the front of supernode `s` into `panel`
/// (its `f x w` slice of the factor) and an update buffer drawn from the
/// arena's pool, runs `kernel(meter, f, w, panel, schur)` on them
/// in place — the caller's choice of dense partial factorization, which
/// also writes any LDLᵀ pivots — and returns the update matrix (`None` for
/// a root) after recycling the children's buffers. With a warm `wst`
/// nothing here touches the heap, and no entry of the front is copied.
pub(crate) fn factor_front<M: FrontMeter>(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    wst: &mut FrontWorkspace,
    meter: &mut M,
    panel: &mut [f64],
    kernel: impl FnOnce(&mut M, usize, usize, &mut [f64], &mut [f64]) -> Result<(), DenseError>,
) -> Result<Option<UpdateMatrix>, FactorError> {
    let c0 = sym.sn_ptr[s];
    let w = sym.sn_width(s);
    let f = sym.front_order(s);
    let r = f - w;
    meter.hold(Buf::Front, f * f * 8);
    // The trailing block is born in the buffer that carries it upward.
    let mut data = if r > 0 {
        meter.hold(Buf::Update, r * r * 8);
        wst.take_buf(r * r)
    } else {
        Vec::new()
    };
    let tick = meter.start();
    let entries = assemble_front(ap, sym, s, &wst.children, panel, &mut data);
    meter.assembled(tick, sym, s, entries);
    for u in &wst.children {
        meter.release(Buf::Update, u.data.len() * 8);
    }
    kernel(meter, f, w, panel, &mut data).map_err(|e| FactorError::from_dense(e, c0))?;
    meter.factored(s, flops_partial(f, w));
    meter.hold(Buf::Panel, f * w * 8);
    meter.release(Buf::Front, f * f * 8);
    // Children are assembled; recycle their buffers for later fronts.
    while let Some(u) = wst.children.pop() {
        wst.recycle(u.data);
    }
    Ok((r > 0).then_some(UpdateMatrix { src: s, data }))
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
    /// contents (assembly must overwrite every entry).
    fn assemble_alone(ap: &CscMatrix, sym: &Symbolic, s: usize) -> (Vec<f64>, Vec<f64>, u64) {
        let mut panel = vec![f64::NAN; sym.front_order(s) * sym.sn_width(s)];
        let mut schur = vec![f64::NAN; 3];
        let entries = assemble_front(ap, sym, s, &[], &mut panel, &mut schur);
        (panel, schur, entries)
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
        assert_eq!(schur, vec![0.0; r * r]);
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
        want_schur[0] += 4.0;
        want_schur[r + 1] += 6.0;
        assert_eq!(schur, want_schur);
    }
}
