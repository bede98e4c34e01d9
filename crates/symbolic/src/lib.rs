//! Symbolic analysis for sparse symmetric factorization.
//!
//! Given a fill-reducing permutation, this crate computes everything the
//! numeric phase needs to know about the factor *before touching a single
//! floating-point number*:
//!
//! - [`etree`] — the elimination tree and its postorder;
//! - [`colcount`] — per-column nonzero counts of `L` (the
//!   Gilbert–Ng–Peyton skeleton algorithm, near-linear time);
//! - [`supernode`] — fundamental supernodes and relaxed amalgamation;
//! - [`structure`] — per-supernode row structure of `L`, factor nnz and
//!   flop predictions;
//! - [`atree`] — the assembly (task) tree over supernodes that the
//!   parallel engines schedule;
//! - the assembly map — where each child-update row and each matrix entry
//!   lands in its front ([`Symbolic::sn_rel`], [`Symbolic::a_pos`]).
//!
//! The entry point is [`analyze`], which chains all of the above and
//! returns a [`Symbolic`] object. The input matrix must already carry the
//! fill-reducing permutation; `analyze` additionally postorders the
//! elimination tree and reports the extra permutation it applied (the
//! caller composes it with the fill-reducing one).
// Index loops over parallel arrays (`for j in 0..n` touching several
// slices) are the deliberate idiom of this numerical code; clippy's
// iterator rewrites obscure the subscript math.
#![allow(clippy::needless_range_loop)]

mod assembly;
pub mod atree;
pub mod colcount;
pub mod etree;
pub mod structure;
pub mod supernode;

use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_trace::{Collector, Phase};

/// Sentinel for "no parent" in tree arrays.
pub const NONE: usize = usize::MAX;

/// Supernode amalgamation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmalgOpts {
    /// Supernodes at most this wide are always merged into their parent
    /// when column-adjacent.
    pub min_width: usize,
    /// Merge when the explicit zeros introduced stay below this fraction of
    /// the combined supernode size.
    pub relax_frac: f64,
}

impl Default for AmalgOpts {
    fn default() -> Self {
        AmalgOpts {
            min_width: 8,
            relax_frac: 0.10,
        }
    }
}

/// Complete symbolic factorization.
#[derive(Debug, Clone)]
pub struct Symbolic {
    /// Order of the (postordered) matrix.
    pub n: usize,
    /// Postorder permutation applied on top of the caller's fill ordering.
    /// The numeric phase factors `P_post (P_fill A P_fillᵀ) P_postᵀ`.
    pub post: Perm,
    /// Elimination-tree parent of each (postordered) column; `NONE` at roots.
    pub parent: Vec<usize>,
    /// `nnz(L[:, j])` including the diagonal, per postordered column.
    pub colcount: Vec<usize>,
    /// Supernode partition: `sn_ptr[s]..sn_ptr[s+1]` are the columns of
    /// supernode `s`. Supernodes are numbered in column order, which is a
    /// postorder of the assembly tree.
    pub sn_ptr: Vec<usize>,
    /// Supernode owning each column.
    pub sn_of: Vec<usize>,
    /// Below-pivot row structure of each supernode (sorted, global indices).
    pub sn_rows: Vec<Vec<usize>>,
    /// Assembly tree over supernodes.
    pub tree: atree::AssemblyTree,
    /// Relative indices, parallel to `sn_rows`: `sn_rel[s][i]` is the
    /// position of row `sn_rows[s][i]` in the front of `tree.parent[s]`
    /// (pivot columns first, then the parent's `sn_rows`). Empty at roots.
    pub sn_rel: Vec<Vec<u32>>,
    /// A positions, parallel to the row indices of the postordered matrix
    /// [`analyze`] returns: stored entry `k` of column `c` sits at position
    /// `a_pos[k]` of the front of `sn_of[c]`. A matrix with another pattern
    /// cannot be factored under this analysis.
    pub a_pos: Vec<u32>,
}

impl Symbolic {
    /// Number of supernodes.
    pub fn nsuper(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Columns of supernode `s`.
    pub fn sn_cols(&self, s: usize) -> std::ops::Range<usize> {
        self.sn_ptr[s]..self.sn_ptr[s + 1]
    }

    /// Width (number of pivot columns) of supernode `s`.
    pub fn sn_width(&self, s: usize) -> usize {
        self.sn_ptr[s + 1] - self.sn_ptr[s]
    }

    /// Order of the frontal matrix of supernode `s` (width + below rows).
    pub fn front_order(&self, s: usize) -> usize {
        self.sn_width(s) + self.sn_rows[s].len()
    }

    /// Total nonzeros of `L` under this supernode partition (padding from
    /// amalgamation included, diagonal included).
    pub fn factor_nnz(&self) -> usize {
        (0..self.nsuper())
            .map(|s| {
                let w = self.sn_width(s);
                let r = self.sn_rows[s].len();
                w * (w + 1) / 2 + w * r
            })
            .sum()
    }

    /// Floating-point operations of the numeric factorization: the classic
    /// `Σ_j nnz(L[:,j])²` estimate evaluated per supernode front. This is
    /// the LAPACK convention (multiplies and adds counted separately;
    /// `n³/3` for a dense matrix).
    pub fn factor_flops(&self) -> f64 {
        let mut fl = 0.0;
        for s in 0..self.nsuper() {
            let w = self.sn_width(s);
            let r = self.sn_rows[s].len();
            for k in 0..w {
                let len = (w - k) + r;
                fl += (len * len) as f64;
            }
        }
        fl
    }
}

/// Run the full symbolic pipeline on a symmetric-lower matrix that already
/// carries its fill-reducing permutation.
///
/// Returns the [`Symbolic`] plus the postordered copy of the matrix (the
/// numeric phase factors exactly that matrix).
pub fn analyze(a: &CscMatrix, opts: &AmalgOpts) -> (Symbolic, CscMatrix) {
    analyze_with(a, opts, 1, &Collector::disabled())
}

/// [`analyze`] on `threads` workers with per-stage analysis tracing.
///
/// The result is **bitwise identical** to [`analyze`] at every thread
/// count: the column-count and row-structure passes decompose over etree
/// subtrees whose per-task contributions commute (see
/// [`colcount::col_counts_par`] and [`structure::supernode_rows_par`]); the
/// remaining stages are cheap tree sweeps that stay sequential.
pub fn analyze_with(
    a: &CscMatrix,
    opts: &AmalgOpts,
    threads: usize,
    tr: &Collector,
) -> (Symbolic, CscMatrix) {
    a.check_sym_lower()
        .expect("analyze() requires a symmetric-lower matrix");
    let n = a.ncols();
    let mut rec = tr.local(0);

    // 1. Elimination tree of the input, then postorder it.
    let t = rec.start();
    let parent0 = etree::etree(a);
    let postv = etree::postorder(&parent0);
    let post = Perm::from_vec(postv);
    let ap = post.apply_sym_lower(a);

    // 2. Relabeled etree (postordering relabels but preserves shape).
    let parent = etree::relabel(&parent0, &post);
    debug_assert!(etree::is_postordered(&parent));
    rec.stop(t, Phase::Etree, None);

    // 3. Column counts of L (subtree-parallel).
    let colcount = colcount::col_counts_par(&ap, &parent, threads, tr);

    // 4. Supernodes: fundamental, then relaxed amalgamation.
    let t = rec.start();
    let fundamental = supernode::fundamental_supernodes(&parent, &colcount);
    let sn_ptr = supernode::amalgamate(&fundamental, &parent, &colcount, opts);
    let mut sn_of = vec![0usize; n];
    for s in 0..sn_ptr.len() - 1 {
        for c in sn_ptr[s]..sn_ptr[s + 1] {
            sn_of[c] = s;
        }
    }
    rec.stop(t, Phase::Structure, None);

    // 5. Row structures per supernode (subtree-parallel).
    let sn_rows = structure::supernode_rows_par(&ap, &sn_ptr, &sn_of, &parent, threads, tr);

    // 6. Assembly tree and map.
    let t = rec.start();
    let tree = atree::AssemblyTree::build(&sn_ptr, &sn_of, &sn_rows);
    let (sn_rel, a_pos) = assembly::assembly_map(&ap, &sn_ptr, &sn_rows, &tree.children);
    rec.stop(t, Phase::Structure, None);

    let sym = Symbolic {
        n,
        post,
        parent,
        colcount,
        sn_ptr,
        sn_of,
        sn_rows,
        tree,
        sn_rel,
        a_pos,
    };
    (sym, ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;

    #[test]
    fn analyze_tridiagonal_has_no_fill() {
        let a = gen::tridiagonal(10);
        let (sym, ap) = analyze(
            &a,
            &AmalgOpts {
                min_width: 0,
                relax_frac: 0.0,
            },
        );
        assert_eq!(sym.n, 10);
        assert_eq!(ap.nnz(), a.nnz());
        // Tridiagonal factor has exactly the same pattern: nnz(L) = 2n - 1.
        assert_eq!(sym.factor_nnz(), 19);
        // Every colcount is 2 except the last.
        assert_eq!(sym.colcount[9], 1);
        assert!(sym.colcount[..9].iter().all(|&c| c == 2));
    }

    #[test]
    fn analyze_dense_block() {
        // Fully dense 5x5: one supernode of width 5.
        let mut coo = parfact_sparse::coo::CooMatrix::new(5, 5);
        for i in 0..5 {
            for j in 0..=i {
                coo.push(i, j, if i == j { 10.0 } else { 1.0 });
            }
        }
        let a = coo.to_csc();
        let (sym, _) = analyze(&a, &AmalgOpts::default());
        assert_eq!(sym.nsuper(), 1);
        assert_eq!(sym.sn_width(0), 5);
        assert_eq!(sym.factor_nnz(), 15);
    }

    #[test]
    fn factor_flops_counts_dense_case() {
        // Dense n=4: flops = sum_{k=0..3} (4-k)^2 = 16+9+4+1 = 30.
        let mut coo = parfact_sparse::coo::CooMatrix::new(4, 4);
        for i in 0..4 {
            for j in 0..=i {
                coo.push(i, j, if i == j { 8.0 } else { 1.0 });
            }
        }
        let (sym, _) = analyze(&coo.to_csc(), &AmalgOpts::default());
        assert_eq!(sym.factor_flops(), 30.0);
    }

    #[test]
    fn supernode_partition_covers_columns() {
        let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
        let (sym, _) = analyze(&a, &AmalgOpts::default());
        assert_eq!(*sym.sn_ptr.first().unwrap(), 0);
        assert_eq!(*sym.sn_ptr.last().unwrap(), 64);
        assert!(sym.sn_ptr.windows(2).all(|w| w[0] < w[1]));
        for s in 0..sym.nsuper() {
            for c in sym.sn_cols(s) {
                assert_eq!(sym.sn_of[c], s);
            }
        }
    }

    #[test]
    fn structure_containment_invariant() {
        // Every relative index and every A position names a slot of the
        // front whose global row is the row it was computed for — the
        // invariant extend-add and matrix assembly rely on.
        let a = gen::laplace3d(5, 5, 5, gen::Stencil3d::SevenPoint);
        let (sym, ap) = analyze(&a, &AmalgOpts::default());
        let global = |s: usize, pos: u32| {
            let (pos, w) = (pos as usize, sym.sn_width(s));
            match pos.checked_sub(w) {
                None => sym.sn_ptr[s] + pos,
                Some(k) => sym.sn_rows[s][k],
            }
        };
        for s in 0..sym.nsuper() {
            let p = sym.tree.parent[s];
            assert_eq!(sym.sn_rel[s].len(), sym.sn_rows[s].len());
            for (&r, &pos) in sym.sn_rows[s].iter().zip(&sym.sn_rel[s]) {
                assert_eq!(global(p, pos), r, "row {r} of supernode {s}");
            }
        }
        assert_eq!(sym.a_pos.len(), ap.nnz());
        for c in 0..sym.n {
            let k = ap.colptr()[c]..ap.colptr()[c + 1];
            for (&r, &pos) in ap.rowind()[k.clone()].iter().zip(&sym.a_pos[k]) {
                assert_eq!(global(sym.sn_of[c], pos), r, "entry ({r}, {c})");
            }
        }
    }

    #[test]
    fn analyze_with_is_bitwise_identical_across_thread_counts() {
        for a in [
            gen::laplace2d(11, 10, gen::Stencil2d::NinePoint),
            gen::laplace3d(5, 4, 5, gen::Stencil3d::SevenPoint),
            gen::random_spd(100, 4, 17),
        ] {
            let (seq, ap_seq) = analyze(&a, &AmalgOpts::default());
            for threads in [2, 4, 8] {
                let (par, ap_par) =
                    analyze_with(&a, &AmalgOpts::default(), threads, &Collector::disabled());
                assert_eq!(par.post, seq.post, "threads {threads}");
                assert_eq!(par.parent, seq.parent, "threads {threads}");
                assert_eq!(par.colcount, seq.colcount, "threads {threads}");
                assert_eq!(par.sn_ptr, seq.sn_ptr, "threads {threads}");
                assert_eq!(par.sn_of, seq.sn_of, "threads {threads}");
                assert_eq!(par.sn_rows, seq.sn_rows, "threads {threads}");
                assert_eq!(par.tree.parent, seq.tree.parent, "threads {threads}");
                assert_eq!(par.sn_rel, seq.sn_rel, "threads {threads}");
                assert_eq!(par.a_pos, seq.a_pos, "threads {threads}");
                assert_eq!(ap_par.nnz(), ap_seq.nnz(), "threads {threads}");
            }
        }
    }

    #[test]
    fn amalgamation_reduces_supernode_count() {
        let a = gen::laplace2d(16, 16, gen::Stencil2d::FivePoint);
        let strict = analyze(
            &a,
            &AmalgOpts {
                min_width: 0,
                relax_frac: 0.0,
            },
        )
        .0;
        let relaxed = analyze(
            &a,
            &AmalgOpts {
                min_width: 8,
                relax_frac: 0.2,
            },
        )
        .0;
        assert!(relaxed.nsuper() <= strict.nsuper());
        // Padding can only add nonzeros.
        assert!(relaxed.factor_nnz() >= strict.factor_nnz());
    }
}
