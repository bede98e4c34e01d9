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
//! That life-cycle is spelled out exactly once, in [`factor_front`]. The
//! engines (`seq`, both `smp` phases, the local subtrees of `dist`) are
//! schedulers around it: they decide which supernode runs next, where its
//! children's updates come from and where its own update goes. What a
//! front costs is charged through a [`FrontMeter`] — wall-clock ticks and
//! tracked bytes on the host engines, virtual compute time and rank memory
//! on the simulated machine.

use crate::error::FactorError;
use crate::factor::FactorKind;
use crate::workspace::FrontWorkspace;
use parfact_dense::{chol, DenseError};
use parfact_sparse::csc::CscMatrix;
use parfact_symbolic::Symbolic;
use parfact_trace::{LocalRecorder, Phase, Tick};

/// A child's contribution to its parent: the Schur complement over the
/// child's below-pivot rows (dense lower storage).
///
/// The global row indices it spans are not stored — they are exactly
/// `sym.sn_rows[src]`, resolved through [`UpdateMatrix::rows`]. Dropping
/// the owned index vector lets the workspace arenas recycle update
/// buffers without cloning row lists per supernode.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMatrix {
    /// Supernode whose elimination produced this update.
    pub src: usize,
    /// Column-major `r x r` buffer (`r = sym.sn_rows[src].len()`); lower
    /// triangle valid.
    pub data: Vec<f64>,
}

impl UpdateMatrix {
    /// Global row indices this update spans (the source's `sn_rows`).
    #[inline]
    pub fn rows<'a>(&self, sym: &'a Symbolic) -> &'a [usize] {
        &sym.sn_rows[self.src]
    }

    /// Order of the update matrix.
    #[inline]
    pub fn order(&self, sym: &Symbolic) -> usize {
        self.rows(sym).len()
    }
}

/// Scatter map from global indices into a front's local index space.
/// Reused across fronts to avoid repeated allocation.
#[derive(Clone, Default)]
pub struct FrontScatter {
    loc: Vec<usize>,
    touched: Vec<usize>,
}

impl FrontScatter {
    /// Workspace for matrices of order `n`.
    pub fn new(n: usize) -> Self {
        FrontScatter {
            loc: vec![usize::MAX; n],
            touched: Vec::new(),
        }
    }

    /// Grow the map to cover matrices of order `n` (no-op when already
    /// large enough; lets a default-constructed map be sized lazily).
    pub fn ensure(&mut self, n: usize) {
        if self.loc.len() < n {
            self.loc.resize(n, usize::MAX);
        }
    }

    /// Install the map for supernode `s`: pivot columns get `0..w`, below
    /// rows get `w..f`.
    pub fn set(&mut self, sym: &Symbolic, s: usize) {
        self.clear();
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        for (k, c) in (c0..c1).enumerate() {
            self.loc[c] = k;
            self.touched.push(c);
        }
        let w = c1 - c0;
        for (k, &r) in sym.sn_rows[s].iter().enumerate() {
            self.loc[r] = w + k;
            self.touched.push(r);
        }
    }

    /// Local index of global index `g` (must be inside the current front).
    #[inline]
    pub fn local(&self, g: usize) -> usize {
        let l = self.loc[g];
        debug_assert_ne!(l, usize::MAX, "global index {g} not in front");
        l
    }

    fn clear(&mut self) {
        for &t in &self.touched {
            self.loc[t] = usize::MAX;
        }
        self.touched.clear();
    }
}

/// Assemble the front of supernode `s` where it will be factored: zero
/// `panel` (the `f x w` pivot columns) and `schur` (resized to the `r x r`
/// trailing block, `r = f - w`), scatter the pivot columns of `ap`, then
/// extend-add every child update staged in `wst`.
///
/// Returns the number of entries scattered or added into the front
/// (original-matrix entries plus applied extend-add contributions), which
/// instrumentation converts to assembly byte counts.
pub(crate) fn assemble_front(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    wst: &mut FrontWorkspace,
    panel: &mut [f64],
    schur: &mut Vec<f64>,
) -> u64 {
    let scatter = &mut wst.scatter;
    let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
    let w = c1 - c0;
    let f = w + sym.sn_rows[s].len();
    panel.fill(0.0);
    // clear + resize zeroes the whole buffer (even a recycled one) while
    // keeping its capacity.
    schur.clear();
    schur.resize((f - w) * (f - w), 0.0);
    scatter.set(sym, s);
    let mut entries = 0u64;
    // Original matrix entries of the pivot columns (lower part only).
    for c in c0..c1 {
        let (rows, vals) = ap.col(c);
        let lc = c - c0;
        entries += rows.len() as u64;
        for (&r, &v) in rows.iter().zip(vals) {
            debug_assert!(r >= c);
            let lr = scatter.local(r);
            panel[lc * f + lr] = v;
        }
    }
    // Extend-add children updates.
    for upd in &wst.children {
        entries += extend_add(upd.rows(sym), &upd.data, scatter, panel, schur, f, w);
    }
    entries
}

/// Scatter-add one update matrix (`rows.len() x rows.len()` column-major
/// `data`, lower triangle valid) into a front of order `f` with `w` pivots
/// through the scatter map: a column that maps below `w` lands in `panel`,
/// one at or beyond it in `schur` (both as [`assemble_front`] lays them
/// out). The map is monotone (both index lists are sorted), so the child's
/// lower triangle lands in the parent's lower triangle. Returns the number
/// of (nonzero) entries added.
pub fn extend_add(
    rows: &[usize],
    data: &[f64],
    scatter: &FrontScatter,
    panel: &mut [f64],
    schur: &mut [f64],
    f: usize,
    w: usize,
) -> u64 {
    let r = rows.len();
    let rs = f - w;
    let mut added = 0u64;
    for j in 0..r {
        let lj = scatter.local(rows[j]);
        // The front column's rows, and the front row its first entry is.
        let (col, top) = if lj < w {
            (&mut panel[lj * f..(lj + 1) * f], 0)
        } else {
            (&mut schur[(lj - w) * rs..(lj - w + 1) * rs], w)
        };
        let src = &data[j * r..j * r + r];
        for (i, &v) in src.iter().enumerate().skip(j) {
            if v != 0.0 {
                col[scatter.local(rows[i]) - top] += v;
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
/// `f` with `w` pivots, stored as [`assemble_front`] leaves it, wall-timed
/// as [`Phase::Panel`]. `d` receives the LDLᵀ pivots (unused for LLᵀ).
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
        FactorKind::Llt => chol::partial_potrf_split(f, w, panel, f, schur, f - w)?,
        FactorKind::Ldlt => chol::partial_ldlt_split(f, w, panel, f, schur, f - w, d)?,
    }
    rec.stop(tick, Phase::Panel, Some(s));
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
    let entries = assemble_front(ap, sym, s, wst, panel, &mut data);
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

    #[test]
    fn scatter_maps_cols_then_rows() {
        let (sym, _) = small_problem();
        let mut sc = FrontScatter::new(sym.n);
        let s = 0;
        sc.set(&sym, s);
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        for (k, c) in (c0..c1).enumerate() {
            assert_eq!(sc.local(c), k);
        }
        for (k, &r) in sym.sn_rows[s].iter().enumerate() {
            assert_eq!(sc.local(r), (c1 - c0) + k);
        }
    }

    #[test]
    fn scatter_reuse_clears_previous_front() {
        let (sym, _) = small_problem();
        let mut sc = FrontScatter::new(sym.n);
        sc.set(&sym, 0);
        let first_cols = sym.sn_cols(0);
        sc.set(&sym, sym.nsuper() - 1);
        // Indices of supernode 0 that are not part of the root front must be
        // unmapped now (debug_assert fires in local()); check via raw array.
        for c in first_cols {
            let in_root = sym.sn_cols(sym.nsuper() - 1).contains(&c)
                || sym.sn_rows[sym.nsuper() - 1].contains(&c);
            if !in_root {
                assert_eq!(sc.loc[c], usize::MAX);
            }
        }
    }

    /// Assemble supernode `s` without children into buffers with stale
    /// contents (assembly must overwrite every entry); the workspace is
    /// left with the front's scatter map installed.
    fn assemble_alone(
        ap: &CscMatrix,
        sym: &Symbolic,
        s: usize,
    ) -> (FrontWorkspace, Vec<f64>, Vec<f64>, u64) {
        let mut wst = FrontWorkspace::new();
        wst.scatter.ensure(sym.n);
        let mut panel = vec![f64::NAN; sym.front_order(s) * sym.sn_width(s)];
        let mut schur = vec![f64::NAN; 3];
        let entries = assemble_front(ap, sym, s, &mut wst, &mut panel, &mut schur);
        (wst, panel, schur, entries)
    }

    #[test]
    fn assemble_places_matrix_entries() {
        let (sym, ap) = small_problem();
        let s = 0;
        let (_, panel, schur, entries) = assemble_alone(&ap, &sym, s);
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
        let (wst, mut panel, mut schur, _) = assemble_alone(&ap, &sym, s);
        let sc = &wst.scatter;
        let (panel0, schur0) = (panel.clone(), schur.clone());
        // An update over the last pivot column and the first two below
        // rows: one column lands in the panel, two in the trailing block.
        let rows = vec![sym.sn_ptr[s + 1] - 1, sym.sn_rows[s][0], sym.sn_rows[s][1]];
        #[rustfmt::skip]
        let data = vec![
            1.0, 2.0, 3.0,
            0.0, 4.0, 0.0, // an exact zero is skipped, not counted
            0.0, 0.0, 6.0,
        ];
        let added = extend_add(&rows, &data, sc, &mut panel, &mut schur, f, w);
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
