//! The assembly map: where every value the numeric phase assembles lands in
//! its front.
//!
//! The front of supernode `s` indexes its pivot columns first (`0..w`), then
//! its below-pivot rows `sn_rows[s]` (`w..f`). Two kinds of values are
//! assembled into it: the rows of each child's update (which lie in the
//! parent's front) and the stored entries of `s`'s columns of the matrix.
//! Where they land depends on the structure alone, so the analysis works it
//! out once, and every factorization, refactorization and solve reads it.

use parfact_sparse::csc::CscMatrix;

/// The assembly map of the postordered matrix `ap` under the supernode
/// partition `sn_ptr`, row structures `sn_rows` and assembly-tree
/// `children`: the relative indices (per supernode, the parent-front
/// position of each of its below-pivot rows; empty at roots) and the A
/// positions (per stored entry of `ap`, its position in the front of its
/// column's supernode).
///
/// One pass over the supernodes: each writes its front's positions into an
/// `n`-long map, then reads off its own matrix entries and its children's
/// rows, all of which lie in that front. Linear in `n + nnz(A) + Σ |sn_rows|`.
pub(crate) fn assembly_map(
    ap: &CscMatrix,
    sn_ptr: &[usize],
    sn_rows: &[Vec<usize>],
    children: &[Vec<usize>],
) -> (Vec<Vec<u32>>, Vec<u32>) {
    assert!(
        u32::try_from(ap.ncols()).is_ok(),
        "front positions are stored as u32"
    );
    let mut pos = vec![0u32; ap.ncols()];
    let mut rel = vec![Vec::new(); children.len()];
    let mut a_pos = Vec::with_capacity(ap.nnz());
    for s in 0..children.len() {
        let (c0, c1) = (sn_ptr[s], sn_ptr[s + 1]);
        let front = (c0..c1).chain(sn_rows[s].iter().copied());
        for (k, g) in front.enumerate() {
            pos[g] = k as u32;
        }
        for c in c0..c1 {
            a_pos.extend(ap.col(c).0.iter().map(|&r| pos[r]));
        }
        for &c in &children[s] {
            rel[c] = sn_rows[c].iter().map(|&r| pos[r]).collect();
        }
    }
    (rel, a_pos)
}
