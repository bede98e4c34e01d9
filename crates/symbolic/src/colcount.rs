//! Column counts of the Cholesky factor via the Gilbert–Ng–Peyton
//! skeleton-matrix algorithm — `nnz(L[:, j])` for every column in
//! near-linear `O(nnz(A) α(n))` time, *without* forming the structure of
//! `L`.
//!
//! This is the algorithm of Gilbert, Ng & Peyton (1994) as organized in
//! Davis' `cs_counts`: walk the skeleton entries of each row subtree,
//! crediting each new leaf and debiting the least common ancestor of
//! consecutive leaves so every path is counted exactly once.

use crate::NONE;
use parfact_sparse::csc::CscMatrix;
use parfact_trace::{Collector, Phase};

/// Internal: classify `(i, j)` as a row-subtree leaf and return the LCA of
/// `j` and the previous leaf of row `i` when it is a "subsequent" leaf.
/// `jleaf`: 0 = not a leaf, 1 = first leaf of row `i`, 2 = subsequent leaf.
/// `off` rebases the mutable per-node arrays: the parallel subtree pass
/// hands in arrays covering only its contiguous node range `[off, ...]`,
/// while the classic pass uses `off = 0` with full-length arrays.
#[allow(clippy::too_many_arguments)]
fn leaf(
    i: usize,
    j: usize,
    first: &[usize],
    maxfirst: &mut [usize],
    prevleaf: &mut [usize],
    ancestor: &mut [usize],
    jleaf: &mut u8,
    off: usize,
) -> usize {
    *jleaf = 0;
    if i <= j || (maxfirst[i - off] != NONE && first[j] <= maxfirst[i - off]) {
        return NONE;
    }
    maxfirst[i - off] = first[j];
    let jprev = prevleaf[i - off];
    prevleaf[i - off] = j;
    if jprev == NONE {
        *jleaf = 1;
        return i;
    }
    *jleaf = 2;
    // LCA of jprev and j: root of jprev in the partially-built ancestor
    // forest, with path compression.
    let mut q = jprev;
    while q != ancestor[q - off] {
        q = ancestor[q - off];
    }
    let mut s = jprev;
    while s != q {
        let sp = ancestor[s - off];
        ancestor[s - off] = q;
        s = sp;
    }
    q
}

/// Column counts (`nnz(L[:, j])`, diagonal included) of the Cholesky factor
/// of a **postordered** symmetric-lower matrix with the given (postordered)
/// elimination tree.
pub fn col_counts(a: &CscMatrix, parent: &[usize]) -> Vec<usize> {
    let n = a.ncols();
    assert_eq!(parent.len(), n);
    debug_assert!(crate::etree::is_postordered(parent));

    // The matrix is postordered, so post[k] = k and `first[j]` is the first
    // postorder index in j's subtree = j - subtree_size(j) + 1; computed by
    // the standard sweep.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for k in 0..n {
        let mut j = k;
        delta[k] = if first[k] == NONE { 1 } else { 0 };
        while j != NONE && first[j] == NONE {
            first[j] = k;
            j = parent[j];
        }
    }

    let mut maxfirst = vec![NONE; n];
    let mut prevleaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();

    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] -= 1;
        }
        // The sweep needs, for node j, the rows i > j with A[i][j] != 0 —
        // exactly column j of the lower-CSC storage.
        let (rows, _) = a.col(j);
        let mut jleaf = 0u8;
        for &i in rows {
            if i <= j {
                continue;
            }
            let q = leaf(
                i,
                j,
                &first,
                &mut maxfirst,
                &mut prevleaf,
                &mut ancestor,
                &mut jleaf,
                0,
            );
            if jleaf >= 1 {
                delta[j] += 1;
            }
            if jleaf == 2 {
                delta[q] -= 1;
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    // Accumulate deltas up the tree.
    let mut colcount = delta;
    for j in 0..n {
        if parent[j] != NONE {
            let c = colcount[j];
            colcount[parent[j]] += c;
        }
    }
    colcount.into_iter().map(|c| c as usize).collect()
}

/// Granularity of the parallel decomposition: maximal subtrees at most this
/// large become independent tasks. A function of the tree alone — never of
/// the thread count — so the task list (and the span structure it produces)
/// is reproducible across runs.
fn subtree_cap(n: usize) -> usize {
    64.max(n / 32)
}

/// Column counts on `threads` workers.
///
/// Maximal etree subtrees below a size cap run as independent tasks:
/// because the matrix is postordered, a subtree is a contiguous node range
/// `[lo, r]`, every entry `(i, j)` with `j` in the subtree and `i <= r` has
/// `i` in the subtree too (rows of `A[:, j]` are etree ancestors of `j`),
/// and the LCA of two subtree nodes stays in the subtree — so each task's
/// Gilbert–Ng–Peyton state (`maxfirst` / `prevleaf` / `ancestor` / private
/// deltas) is provably subtree-local. Entries whose row lies *above* a
/// subtree root are replayed by one sequential pass over the remaining
/// "top" rows, which sees the same ancestor evolution as the classic
/// algorithm (path compression never changes the roots found).
///
/// The output is **bitwise identical** to [`col_counts`] at every thread
/// count: every delta contribution is the same integer regardless of which
/// worker computes it, and integer accumulation commutes.
pub fn col_counts_par(
    a: &CscMatrix,
    parent: &[usize],
    threads: usize,
    tr: &Collector,
) -> Vec<usize> {
    let n = a.ncols();
    assert_eq!(parent.len(), n);
    debug_assert!(crate::etree::is_postordered(parent));
    if n == 0 {
        return Vec::new();
    }

    let mut rec0 = tr.local(0);
    let t = rec0.start();
    // Sequential prologue: first-descendant sweep seeds the deltas.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for k in 0..n {
        let mut j = k;
        delta[k] = if first[k] == NONE { 1 } else { 0 };
        while j != NONE && first[j] == NONE {
            first[j] = k;
            j = parent[j];
        }
    }

    // Carve the antichain of maximal subtrees below the cap. Everything not
    // inside one is a "top" node; ancestors of top nodes are top, so the
    // top pass below is closed under the rows it owns.
    let size = crate::etree::subtree_sizes(parent);
    let cap = subtree_cap(n);
    let mut tasks: Vec<(usize, usize)> = Vec::new(); // (lo, root)
    let mut is_top = vec![true; n];
    for r in 0..n {
        if size[r] <= cap && (parent[r] == NONE || size[parent[r]] > cap) {
            let lo = r + 1 - size[r];
            for x in lo..=r {
                is_top[x] = false;
            }
            tasks.push((lo, r));
        }
    }
    rec0.stop(t, Phase::Colcount, None);

    // Per-subtree pass: private deltas over the contiguous range [lo, r].
    let first_ref = &first;
    let run_subtree = |lo: usize, r: usize| -> Vec<isize> {
        let w = r + 1 - lo;
        let mut d = vec![0isize; w];
        let mut maxfirst = vec![NONE; w];
        let mut prevleaf = vec![NONE; w];
        let mut ancestor: Vec<usize> = (lo..=r).collect();
        let mut jleaf = 0u8;
        for j in lo..=r {
            // The root's parent decrement escapes the range; the merge loop
            // below applies it to the global deltas instead.
            if j != r {
                d[parent[j] - lo] -= 1;
            }
            let (rows, _) = a.col(j);
            for &i in rows {
                if i <= j || i > r {
                    continue;
                }
                let q = leaf(
                    i,
                    j,
                    first_ref,
                    &mut maxfirst,
                    &mut prevleaf,
                    &mut ancestor,
                    &mut jleaf,
                    lo,
                );
                if jleaf >= 1 {
                    d[j - lo] += 1;
                }
                if jleaf == 2 {
                    d[q - lo] -= 1;
                }
            }
            if j != r {
                ancestor[j - lo] = parent[j];
            }
        }
        d
    };

    let mut results: Vec<(usize, Vec<isize>)> = Vec::with_capacity(tasks.len());
    if threads <= 1 {
        for (idx, &(lo, r)) in tasks.iter().enumerate() {
            let mut rec = tr.local(0);
            let t = rec.start();
            let d = run_subtree(lo, r);
            rec.stop(t, Phase::Colcount, Some(idx));
            results.push((lo, d));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let out: std::sync::Mutex<Vec<(usize, Vec<isize>)>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (next, out, tasks) = (&next, &out, &tasks);
                scope.spawn(move || {
                    let mut rec = tr.local(w);
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(lo, r)) = tasks.get(idx) else {
                            break;
                        };
                        let t = rec.start();
                        let d = run_subtree(lo, r);
                        rec.stop(t, Phase::Colcount, Some(idx));
                        mine.push((lo, d));
                    }
                    out.lock().unwrap().append(&mut mine);
                });
            }
        });
        results = out.into_inner().unwrap();
    }

    let t = rec0.start();
    // Merge: ranges are disjoint and contributions additive, so order is
    // irrelevant to the result.
    for (lo, d) in results {
        for (k, v) in d.into_iter().enumerate() {
            delta[lo + k] += v;
        }
    }
    for &(_, r) in &tasks {
        if parent[r] != NONE {
            delta[parent[r]] -= 1;
        }
    }

    // Sequential top pass: entries whose row is a top node, over all
    // columns ascending, maintaining the global ancestor forest exactly as
    // the classic loop does.
    let mut maxfirst = vec![NONE; n];
    let mut prevleaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    let mut jleaf = 0u8;
    for j in 0..n {
        if is_top[j] && parent[j] != NONE {
            delta[parent[j]] -= 1;
        }
        let (rows, _) = a.col(j);
        for &i in rows {
            if i <= j || !is_top[i] {
                continue;
            }
            let q = leaf(
                i,
                j,
                &first,
                &mut maxfirst,
                &mut prevleaf,
                &mut ancestor,
                &mut jleaf,
                0,
            );
            if jleaf >= 1 {
                delta[j] += 1;
            }
            if jleaf == 2 {
                delta[q] -= 1;
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    // Accumulate deltas up the tree.
    let mut colcount = delta;
    for j in 0..n {
        if parent[j] != NONE {
            let c = colcount[j];
            colcount[parent[j]] += c;
        }
    }
    rec0.stop(t, Phase::Colcount, None);
    colcount.into_iter().map(|c| c as usize).collect()
}

/// Reference column counts via explicit symbolic factorization — `O(|L|)`,
/// used to validate [`col_counts`] in tests and small runs.
// lint:allow(R7) reference column counts: the oracle of the near-linear `col_counts` in the symbolic tests
pub fn col_counts_naive(a: &CscMatrix, parent: &[usize]) -> Vec<usize> {
    let n = a.ncols();
    // Structure of L row by row: row i of L = path union in etree from each
    // A-row entry up toward i (the row-subtree characterization).
    let mut count = vec![1usize; n]; // diagonal
    let at = a.to_csr();
    let mut mark = vec![NONE; n];
    for i in 0..n {
        mark[i] = i;
        let (cols, _) = at.row(i);
        for &j in cols {
            if j >= i {
                continue;
            }
            // Walk from j to the marked region, counting L[i][x] per node x.
            let mut x = j;
            while mark[x] != i {
                mark[x] = i;
                count[x] += 1; // L[i][x] is a nonzero below x's diagonal
                x = parent[x];
                debug_assert_ne!(x, NONE, "walk escaped the tree");
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{etree, postorder, relabel};
    use parfact_sparse::gen;
    use parfact_sparse::perm::Perm;

    fn counts_both_ways(a: &CscMatrix) -> (Vec<usize>, Vec<usize>) {
        let parent0 = etree(a);
        let post = Perm::from_vec(postorder(&parent0));
        let ap = post.apply_sym_lower(a);
        let parent = relabel(&parent0, &post);
        (col_counts(&ap, &parent), col_counts_naive(&ap, &parent))
    }

    #[test]
    fn tridiagonal_counts() {
        let a = gen::tridiagonal(7);
        let (fast, slow) = counts_both_ways(&a);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![2, 2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn grid_counts_match_naive() {
        let a = gen::laplace2d(7, 6, gen::Stencil2d::FivePoint);
        let (fast, slow) = counts_both_ways(&a);
        assert_eq!(fast, slow);
    }

    #[test]
    fn grid3d_counts_match_naive() {
        let a = gen::laplace3d(4, 4, 4, gen::Stencil3d::SevenPoint);
        let (fast, slow) = counts_both_ways(&a);
        assert_eq!(fast, slow);
    }

    #[test]
    fn random_counts_match_naive() {
        for seed in 0..5 {
            let a = gen::random_spd(60, 4, seed);
            let (fast, slow) = counts_both_ways(&a);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn parallel_counts_bitwise_match_sequential() {
        let cases: Vec<CscMatrix> = vec![
            gen::tridiagonal(9),
            gen::laplace2d(13, 11, gen::Stencil2d::NinePoint),
            gen::laplace3d(5, 4, 6, gen::Stencil3d::SevenPoint),
            gen::random_spd(120, 5, 42),
            gen::arrowhead(8),
        ];
        for (case, a) in cases.iter().enumerate() {
            let parent0 = etree(a);
            let post = Perm::from_vec(postorder(&parent0));
            let ap = post.apply_sym_lower(a);
            let parent = relabel(&parent0, &post);
            let seq = col_counts(&ap, &parent);
            for threads in [1, 2, 4, 8] {
                let par = col_counts_par(&ap, &parent, threads, &Collector::disabled());
                assert_eq!(par, seq, "case {case} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_counts_record_tagged_spans() {
        let a = gen::laplace2d(16, 16, gen::Stencil2d::FivePoint);
        let parent0 = etree(&a);
        let post = Perm::from_vec(postorder(&parent0));
        let ap = post.apply_sym_lower(&a);
        let parent = relabel(&parent0, &post);
        let tr = Collector::new(parfact_trace::TraceLevel::Timeline);
        let par = col_counts_par(&ap, &parent, 2, &tr);
        assert_eq!(par, col_counts(&ap, &parent));
        assert!(tr.snapshot().colcount_s > 0.0);
        let spans = tr.take_spans();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.phase == Phase::Colcount));
        // Subtree tasks carry their task index; the sequential prologue,
        // merge, and top pass are untagged.
        assert!(spans.iter().any(|s| s.supernode.is_some()));
        assert!(spans.iter().any(|s| s.supernode.is_none()));
    }

    #[test]
    fn arrowhead_reversed_fills_completely() {
        // Hub first: L is completely dense below the diagonal.
        let a = gen::arrowhead(6);
        let (fast, slow) = counts_both_ways(&a);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn dense_counts() {
        let mut coo = parfact_sparse::coo::CooMatrix::new(4, 4);
        for i in 0..4 {
            for j in 0..=i {
                coo.push(i, j, 1.0 + (i == j) as u8 as f64 * 6.0);
            }
        }
        let (fast, _) = counts_both_ways(&coo.to_csc());
        assert_eq!(fast, vec![4, 3, 2, 1]);
    }
}
