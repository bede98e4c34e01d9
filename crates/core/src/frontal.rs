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
//! That life-cycle is spelled out exactly once, in [`factor_front`]. The
//! engines (`seq`, both `smp` phases, the local subtrees of `dist`) are
//! schedulers around it: they decide which supernode runs next, where its
//! children's updates come from and where its own update goes. What a
//! front costs is charged through a [`FrontMeter`] — wall-clock ticks and
//! tracked bytes on the host engines, virtual compute time and rank memory
//! on the simulated machine.

use crate::dist::front::flops_partial;
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

/// Assemble the front of supernode `s`: zero the buffer, scatter the pivot
/// columns of `ap`, then extend-add every child update. `front` must have
/// room for `f*f` entries and is fully overwritten.
///
/// Returns `(f, entries)` — the front order and the number of entries
/// scattered or added into the front (original-matrix entries plus applied
/// extend-add contributions), which instrumentation converts to assembly
/// byte counts.
pub fn assemble_front(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    scatter: &mut FrontScatter,
    children_updates: &[UpdateMatrix],
    front: &mut Vec<f64>,
) -> (usize, u64) {
    let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
    let w = c1 - c0;
    let f = w + sym.sn_rows[s].len();
    front.clear();
    front.resize(f * f, 0.0);
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
            front[lc * f + lr] = v;
        }
    }
    // Extend-add children updates.
    for upd in children_updates {
        entries += extend_add(upd.rows(sym), &upd.data, scatter, front, f);
    }
    (f, entries)
}

/// Scatter-add one update matrix (`rows.len() x rows.len()` column-major
/// `data`, lower triangle valid) into a front through the scatter map.
/// The map is monotone (both index lists are sorted), so the child's lower
/// triangle lands in the parent's lower triangle. Returns the number of
/// (nonzero) entries added.
pub fn extend_add(
    rows: &[usize],
    data: &[f64],
    scatter: &FrontScatter,
    front: &mut [f64],
    f: usize,
) -> u64 {
    let r = rows.len();
    let mut added = 0u64;
    for j in 0..r {
        let lj = scatter.local(rows[j]);
        let src = &data[j * r..j * r + r];
        for (i, &v) in src.iter().enumerate().skip(j) {
            if v != 0.0 {
                let li = scatter.local(rows[i]);
                front[lj * f + li] += v;
                added += 1;
            }
        }
    }
    added
}

/// Extract the trailing `r x r` lower block of a partially-factored front
/// into `data` (resized to fit, upper triangle zeroed) as the update
/// matrix for the parent. The buffer typically comes from a
/// [`crate::workspace::FrontWorkspace`] pool.
pub fn extract_update_into(sym: &Symbolic, s: usize, front: &[f64], f: usize, data: &mut Vec<f64>) {
    let w = sym.sn_width(s);
    let r = f - w;
    // clear + resize zeroes the whole buffer (even a recycled one) while
    // keeping its capacity.
    data.clear();
    data.resize(r * r, 0.0);
    for j in 0..r {
        let src = &front[(w + j) * f + w..(w + j) * f + f];
        let dst = &mut data[j * r..(j + 1) * r];
        // Lower triangle only.
        dst[j..].copy_from_slice(&src[j..]);
    }
}

/// The buffers a front's life-cycle holds, as far as memory accounting
/// tells them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Buf {
    /// The dense `f x f` front being assembled and factored.
    Front,
    /// The `f x w` factor panel kept for the solves.
    Panel,
    /// An update matrix travelling from a child to its parent.
    Update,
}

/// Where [`factor_front`] charges the time, flops and memory of a front.
/// The hooks fire in a fixed order — `hold(Front)`, `start`, `assembled`,
/// `release(Update)` per child, (dense kernel), `factored`, `hold(Panel)`,
/// `hold(Update)`, `release(Front)` — which is what keeps memory
/// high-water marks and virtual clocks reproducible.
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
/// kernel times itself, see [`panel_kernel`]), every buffer is tracked.
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

    fn hold(&mut self, _: Buf, bytes: usize) {
        self.mem_alloc(bytes);
    }

    fn release(&mut self, _: Buf, bytes: usize) {
        self.mem_free(bytes);
    }
}

/// The sequential dense kernel of `kind` on an assembled `f x f` front
/// with `w` pivots, wall-timed as [`Phase::Panel`]. `d` receives the LDLᵀ
/// pivots (unused for LLᵀ).
pub(crate) fn panel_kernel(
    kind: FactorKind,
    s: usize,
    rec: &mut LocalRecorder<'_>,
    f: usize,
    w: usize,
    front: &mut [f64],
    d: &mut [f64],
) -> Result<(), DenseError> {
    let tick = rec.start();
    match kind {
        FactorKind::Llt => chol::partial_potrf(f, w, front, f)?,
        FactorKind::Ldlt => chol::partial_ldlt(f, w, front, f, d)?,
    }
    rec.stop(tick, Phase::Panel, Some(s));
    Ok(())
}

/// The life of one front. The caller has staged the children's updates in
/// `wst.children`; this assembles the front of supernode `s`, runs
/// `kernel(meter, f, w, front, scratch)` — the caller's choice of dense
/// partial factorization, which also writes any LDLᵀ pivots — copies the
/// factor panel into `panel`, and returns the front's own update matrix
/// (drawn from the arena's pool; `None` for a root) after recycling the
/// children's buffers. With a warm `wst` nothing here touches the heap.
pub(crate) fn factor_front<M: FrontMeter>(
    ap: &CscMatrix,
    sym: &Symbolic,
    s: usize,
    wst: &mut FrontWorkspace,
    meter: &mut M,
    panel: &mut [f64],
    kernel: impl FnOnce(&mut M, usize, usize, &mut [f64], &mut Vec<f64>) -> Result<(), DenseError>,
) -> Result<Option<UpdateMatrix>, FactorError> {
    let c0 = sym.sn_ptr[s];
    let w = sym.sn_width(s);
    let f = sym.front_order(s);
    wst.note_front(f * f);
    meter.hold(Buf::Front, f * f * 8);
    let tick = meter.start();
    let (_, entries) = assemble_front(ap, sym, s, &mut wst.scatter, &wst.children, &mut wst.front);
    meter.assembled(tick, sym, s, entries);
    for u in &wst.children {
        meter.release(Buf::Update, u.data.len() * 8);
    }
    kernel(meter, f, w, &mut wst.front, &mut wst.scratch)
        .map_err(|e| FactorError::from_dense(e, c0))?;
    meter.factored(s, flops_partial(f, w));
    panel.copy_from_slice(&wst.front[..f * w]);
    meter.hold(Buf::Panel, f * w * 8);
    let update = (f > w).then(|| {
        let r = f - w;
        let mut data = wst.take_buf(r * r);
        extract_update_into(sym, s, &wst.front, f, &mut data);
        meter.hold(Buf::Update, data.len() * 8);
        UpdateMatrix { src: s, data }
    });
    meter.release(Buf::Front, f * f * 8);
    // Children are assembled; recycle their buffers for later fronts.
    while let Some(u) = wst.children.pop() {
        wst.recycle(u.data);
    }
    Ok(update)
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

    #[test]
    fn assemble_places_matrix_entries() {
        let (sym, ap) = small_problem();
        let mut sc = FrontScatter::new(sym.n);
        let mut front = Vec::new();
        let s = 0;
        let (f, entries) = assemble_front(&ap, &sym, s, &mut sc, &[], &mut front);
        assert_eq!(f, sym.front_order(s));
        // No children: the entry count is exactly the pivot columns' nnz.
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        let nnz: usize = (c0..c1).map(|c| ap.col(c).0.len()).sum();
        assert_eq!(entries, nnz as u64);
        // Diagonal of the first pivot column must be the matrix diagonal.
        assert_eq!(front[0], ap.get(c0, c0).unwrap());
    }

    #[test]
    fn extend_add_accumulates_symmetrically_mapped_entries() {
        let (sym, ap) = small_problem();
        // Use the root supernode and synthesize an update over a subset of
        // its index space.
        let s = sym.nsuper() - 1;
        let mut sc = FrontScatter::new(sym.n);
        let mut front = Vec::new();
        let (f, _) = assemble_front(&ap, &sym, s, &mut sc, &[], &mut front);
        let before = front.clone();
        let cols: Vec<usize> = sym.sn_cols(s).collect();
        assert!(cols.len() >= 2, "root supernode too small for this test");
        let rows = vec![cols[0], cols[1]];
        let data = vec![10.0, 20.0, 0.0, 30.0]; // lower 2x2
        let added = extend_add(&rows, &data, &sc, &mut front, f);
        assert_eq!(added, 3, "three nonzero lower entries");
        let (l0, l1) = (sc.local(rows[0]), sc.local(rows[1]));
        assert_eq!(front[l0 * f + l0], before[l0 * f + l0] + 10.0);
        assert_eq!(front[l0 * f + l1], before[l0 * f + l1] + 20.0);
        assert_eq!(front[l1 * f + l1], before[l1 * f + l1] + 30.0);
    }

    #[test]
    fn extract_update_is_lower_trailing_block() {
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
            .find(|&s| !sym.sn_rows[s].is_empty() && sym.front_order(s) >= 3)
            .unwrap();
        let mut sc = FrontScatter::new(sym.n);
        let mut front = Vec::new();
        let (fo, _) = assemble_front(&ap, &sym, s, &mut sc, &[], &mut front);
        // Stamp recognizable values in the trailing block.
        let wo = sym.sn_width(s);
        for j in wo..fo {
            for i in j..fo {
                front[j * fo + i] = (100 * i + j) as f64;
            }
        }
        // A recycled buffer of the wrong size with stale contents: the
        // extraction must resize it and zero the upper triangle.
        let mut upd = vec![f64::NAN; 3];
        extract_update_into(&sym, s, &front, fo, &mut upd);
        let r = fo - wo;
        assert_eq!(upd.len(), r * r);
        for j in 0..r {
            for i in 0..r {
                let want = if i >= j {
                    (100 * (i + wo) + (j + wo)) as f64
                } else {
                    0.0
                };
                assert_eq!(upd[j * r + i], want);
            }
        }
    }
}
