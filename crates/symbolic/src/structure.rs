//! Per-supernode row structure of the factor.
//!
//! For each supernode `s` with columns `c0..c1`, the below-pivot rows are
//!
//! ```text
//! rows(s) = ( ⋃_{c in c0..c1} pattern(A[:, c]) ∪ ⋃_{child t} rows(t) ) \ {0..c1}
//! ```
//!
//! computed in one bottom-up pass (children precede parents because the
//! partition is over a postordered matrix). This is the structure the
//! numeric phase allocates fronts from, and its sizes drive the flop and
//! memory predictions used by proportional mapping.

use crate::NONE;
use parfact_sparse::csc::CscMatrix;
use parfact_trace::{Collector, Phase};

/// Compute the below-pivot row structure of every supernode (sorted,
/// global row indices).
pub fn supernode_rows(a: &CscMatrix, sn_ptr: &[usize], sn_of: &[usize]) -> Vec<Vec<usize>> {
    let n = a.ncols();
    let nsuper = sn_ptr.len() - 1;
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); nsuper];
    // children[t] accumulated lazily: we only need each child's rows when
    // its parent is processed, and children always precede parents.
    let mut mark = vec![NONE; n];
    for s in 0..nsuper {
        let (c0, c1) = (sn_ptr[s], sn_ptr[s + 1]);
        let mut out: Vec<usize> = Vec::new();
        // Own matrix columns.
        for c in c0..c1 {
            let (rws, _) = a.col(c);
            for &r in rws {
                if r >= c1 && mark[r] != s {
                    mark[r] = s;
                    out.push(r);
                }
            }
        }
        rows[s] = out;
    }
    // Merge children rows bottom-up. Because supernodes are postordered, a
    // single ascending sweep suffices: by the time s is visited, every child
    // has already pushed its rows into s, so s can be finalized and its own
    // rows pushed to its parent.
    let mut mark2 = vec![NONE; n];
    for s in 0..nsuper {
        // Finalize: sort own set (may contain child rows merged earlier).
        rows[s].sort_unstable();
        rows[s].dedup();
        if rows[s].is_empty() {
            continue;
        }
        let parent = sn_of[rows[s][0]];
        debug_assert!(parent > s, "postorder violated: parent {parent} <= {s}");
        let pend = sn_ptr[parent + 1];
        // Mark what the parent already has to avoid quadratic duplication.
        for &r in &rows[parent] {
            mark2[r] = s * nsuper + parent; // unique stamp per (s, parent) merge
        }
        let stamp = s * nsuper + parent;
        let mut extra: Vec<usize> = Vec::new();
        for k in 0..rows[s].len() {
            let r = rows[s][k];
            if r >= pend && mark2[r] != stamp {
                mark2[r] = stamp;
                extra.push(r);
            }
        }
        rows[parent].extend_from_slice(&extra);
    }
    // The sweep already sorted each supernode when it was visited; the rows
    // merged *into* a parent after its own visit would be unsorted — but
    // parents are always visited after all their children, so every merge
    // happens before the parent's own finalize step. Assert in debug builds.
    debug_assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0] < w[1])));
    rows
}

/// Granularity of the parallel decomposition over the supernode tree.
/// Tree-shape-derived only — never thread-count-dependent — so the group
/// list is identical across runs and thread counts.
fn group_cap(nsuper: usize) -> usize {
    8.max(nsuper / 32)
}

/// [`supernode_rows`] on `threads` workers, **bitwise identical** output.
///
/// The supernode tree is postordered (it partitions a postordered matrix
/// into contiguous column blocks), so every subtree is a contiguous range
/// of supernode indices. Maximal subtrees below a size cap become
/// independent tasks: within a subtree the merge sweep is self-contained
/// because a child's merge target is its tree parent, which lives in the
/// same subtree for every node except the subtree root. Root contributions
/// cross the boundary upward only — they are deferred and appended before
/// the sequential sweep over the remaining "top" supernodes (the top set is
/// closed under parents, so every deferred target is swept there).
///
/// Determinism: each supernode's final row list is `sort+dedup` of a set
/// union, and unions commute — any execution order yields the same sorted
/// `Vec` per supernode.
///
/// `parent` is the (postordered) elimination tree; within an amalgamated
/// supernode the etree is a chain, so the supernode holding the etree
/// parent of a supernode's last column is its assembly parent.
pub fn supernode_rows_par(
    a: &CscMatrix,
    sn_ptr: &[usize],
    sn_of: &[usize],
    parent: &[usize],
    threads: usize,
    tr: &Collector,
) -> Vec<Vec<usize>> {
    let n = a.ncols();
    let nsuper = sn_ptr.len() - 1;
    if nsuper == 0 {
        return Vec::new();
    }
    let mut rec0 = tr.local(0);
    let t = rec0.start();
    let mut sn_parent = vec![NONE; nsuper];
    for s in 0..nsuper {
        let last = sn_ptr[s + 1] - 1;
        if parent[last] != NONE {
            sn_parent[s] = sn_of[parent[last]];
            debug_assert!(sn_parent[s] > s);
        }
    }
    // Subtree sizes in one ascending sweep (children precede parents).
    let mut size = vec![1usize; nsuper];
    for s in 0..nsuper {
        if sn_parent[s] != NONE {
            size[sn_parent[s]] += size[s];
        }
    }
    let cap = group_cap(nsuper);
    let mut groups: Vec<(usize, usize)> = Vec::new(); // inclusive [lo, root]
    let mut is_top = vec![true; nsuper];
    for r in 0..nsuper {
        if size[r] <= cap && (sn_parent[r] == NONE || size[sn_parent[r]] > cap) {
            let lo = r + 1 - size[r];
            for s in lo..=r {
                is_top[s] = false;
            }
            groups.push((lo, r));
        }
    }
    rec0.stop(t, Phase::Structure, None);

    let (sn_parent, is_top) = (&sn_parent, &is_top);
    // One group: scatter + merge exactly as the sequential sweep does,
    // except contributions to the (top) parent of the group root are
    // returned for later. `mark`/`mark2` are caller-provided scratch reused
    // across a worker's groups; stamps are globally unique so no clearing.
    type GroupOut = (Vec<Vec<usize>>, Vec<(usize, Vec<usize>)>);
    let run_group = |lo: usize, r: usize, mark: &mut [usize], mark2: &mut [usize]| -> GroupOut {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); r + 1 - lo];
        for s in lo..=r {
            let (c0, c1) = (sn_ptr[s], sn_ptr[s + 1]);
            let out = &mut rows[s - lo];
            for c in c0..c1 {
                let (rws, _) = a.col(c);
                for &rr in rws {
                    if rr >= c1 && mark[rr] != s {
                        mark[rr] = s;
                        out.push(rr);
                    }
                }
            }
        }
        let mut deferred: Vec<(usize, Vec<usize>)> = Vec::new();
        for s in lo..=r {
            rows[s - lo].sort_unstable();
            rows[s - lo].dedup();
            if rows[s - lo].is_empty() {
                continue;
            }
            let target = sn_of[rows[s - lo][0]];
            debug_assert_eq!(target, sn_parent[s]);
            let pend = sn_ptr[target + 1];
            if target <= r {
                let stamp = s * nsuper + target;
                for &rr in &rows[target - lo] {
                    mark2[rr] = stamp;
                }
                let mut extra: Vec<usize> = Vec::new();
                for k in 0..rows[s - lo].len() {
                    let rr = rows[s - lo][k];
                    if rr >= pend && mark2[rr] != stamp {
                        mark2[rr] = stamp;
                        extra.push(rr);
                    }
                }
                rows[target - lo].extend_from_slice(&extra);
            } else {
                debug_assert!(is_top[target]);
                let extra: Vec<usize> = rows[s - lo]
                    .iter()
                    .copied()
                    .filter(|&rr| rr >= pend)
                    .collect();
                if !extra.is_empty() {
                    deferred.push((target, extra));
                }
            }
        }
        (rows, deferred)
    };

    type TaskOut = (usize, Vec<Vec<usize>>, Vec<(usize, Vec<usize>)>);
    let mut results: Vec<TaskOut> = Vec::with_capacity(groups.len());
    if threads <= 1 {
        let mut mark = vec![NONE; n];
        let mut mark2 = vec![NONE; n];
        for (idx, &(lo, r)) in groups.iter().enumerate() {
            let mut rec = tr.local(0);
            let t = rec.start();
            let (grows, defs) = run_group(lo, r, &mut mark, &mut mark2);
            rec.stop(t, Phase::Structure, Some(idx));
            results.push((lo, grows, defs));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let out: std::sync::Mutex<Vec<TaskOut>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (next, out, groups, run_group) = (&next, &out, &groups, &run_group);
                scope.spawn(move || {
                    let mut rec = tr.local(w);
                    let mut mark = vec![NONE; n];
                    let mut mark2 = vec![NONE; n];
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(lo, r)) = groups.get(idx) else {
                            break;
                        };
                        let t = rec.start();
                        let (grows, defs) = run_group(lo, r, &mut mark, &mut mark2);
                        rec.stop(t, Phase::Structure, Some(idx));
                        mine.push((lo, grows, defs));
                    }
                    out.lock().unwrap().append(&mut mine);
                });
            }
        });
        results = out.into_inner().unwrap();
    }

    let t = rec0.start();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); nsuper];
    for (lo, grows, defs) in results {
        for (k, v) in grows.into_iter().enumerate() {
            rows[lo + k] = v;
        }
        // Deferred cross-group contributions land before the top sweep
        // finalizes their targets, so dedup happens there.
        for (target, extra) in defs {
            rows[target].extend_from_slice(&extra);
        }
    }
    // Sequential sweep over the top supernodes, same shape as
    // `supernode_rows` restricted to the top set.
    let mut mark = vec![NONE; n];
    for s in 0..nsuper {
        if !is_top[s] {
            continue;
        }
        let (c0, c1) = (sn_ptr[s], sn_ptr[s + 1]);
        for c in c0..c1 {
            let (rws, _) = a.col(c);
            for &rr in rws {
                if rr >= c1 && mark[rr] != s {
                    mark[rr] = s;
                    rows[s].push(rr);
                }
            }
        }
    }
    let mut mark2 = vec![NONE; n];
    for s in 0..nsuper {
        if !is_top[s] {
            continue;
        }
        rows[s].sort_unstable();
        rows[s].dedup();
        if rows[s].is_empty() {
            continue;
        }
        let target = sn_of[rows[s][0]];
        debug_assert_eq!(target, sn_parent[s]);
        let pend = sn_ptr[target + 1];
        let stamp = s * nsuper + target;
        for &rr in &rows[target] {
            mark2[rr] = stamp;
        }
        let mut extra: Vec<usize> = Vec::new();
        for k in 0..rows[s].len() {
            let rr = rows[s][k];
            if rr >= pend && mark2[rr] != stamp {
                mark2[rr] = stamp;
                extra.push(rr);
            }
        }
        rows[target].extend_from_slice(&extra);
    }
    rec0.stop(t, Phase::Structure, None);
    debug_assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0] < w[1])));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{etree, postorder, relabel};
    use crate::{colcount, supernode, AmalgOpts};
    use parfact_sparse::gen;
    use parfact_sparse::perm::Perm;

    fn full_pipeline(a: &CscMatrix) -> (Vec<usize>, Vec<usize>, Vec<Vec<usize>>, CscMatrix) {
        let parent0 = etree(a);
        let post = Perm::from_vec(postorder(&parent0));
        let ap = post.apply_sym_lower(a);
        let parent = relabel(&parent0, &post);
        let cc = colcount::col_counts(&ap, &parent);
        let fund = supernode::fundamental_supernodes(&parent, &cc);
        let ptr = supernode::amalgamate(
            &fund,
            &parent,
            &cc,
            &AmalgOpts {
                min_width: 0,
                relax_frac: 0.0,
            },
        );
        let mut sn_of = vec![0usize; ap.ncols()];
        for s in 0..ptr.len() - 1 {
            for c in ptr[s]..ptr[s + 1] {
                sn_of[c] = s;
            }
        }
        let rows = supernode_rows(&ap, &ptr, &sn_of);
        (ptr, sn_of, rows, ap)
    }

    /// Reference: structure of L column-by-column via the etree reach.
    fn naive_l_pattern(ap: &CscMatrix, parent: &[usize]) -> Vec<Vec<usize>> {
        let n = ap.ncols();
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let at = ap.to_csr();
        let mut mark = vec![usize::MAX; n];
        for i in 0..n {
            mark[i] = i;
            let (cs, _) = at.row(i);
            for &j in cs {
                if j >= i {
                    continue;
                }
                let mut x = j;
                while mark[x] != i {
                    mark[x] = i;
                    cols[x].push(i);
                    x = parent[x];
                }
            }
        }
        for c in cols.iter_mut() {
            c.sort_unstable();
        }
        cols
    }

    #[test]
    fn supernode_rows_match_naive_l_pattern_strict() {
        // With strict supernodes (no amalgamation padding across distinct
        // structures), the first column of each supernode has exactly the
        // supernode's rows beyond the pivot block.
        for a in [
            gen::laplace2d(6, 6, gen::Stencil2d::FivePoint),
            gen::random_spd(40, 3, 11),
            gen::laplace3d(3, 3, 4, gen::Stencil3d::SevenPoint),
        ] {
            let (ptr, _sn_of, rows, ap) = full_pipeline(&a);
            let parent0 = etree(&ap);
            let lpat = naive_l_pattern(&ap, &parent0);
            for s in 0..ptr.len() - 1 {
                let (c0, c1) = (ptr[s], ptr[s + 1]);
                let expect: Vec<usize> = lpat[c0].iter().copied().filter(|&r| r >= c1).collect();
                assert_eq!(rows[s], expect, "supernode {s} cols {c0}..{c1}");
            }
        }
    }

    #[test]
    fn parallel_rows_bitwise_match_sequential() {
        for a in [
            gen::laplace2d(12, 9, gen::Stencil2d::FivePoint),
            gen::laplace3d(4, 5, 4, gen::Stencil3d::SevenPoint),
            gen::random_spd(130, 4, 3),
            gen::tridiagonal(40),
        ] {
            let parent0 = etree(&a);
            let post = Perm::from_vec(postorder(&parent0));
            let ap = post.apply_sym_lower(&a);
            let parent = relabel(&parent0, &post);
            let cc = colcount::col_counts(&ap, &parent);
            let fund = supernode::fundamental_supernodes(&parent, &cc);
            let ptr = supernode::amalgamate(
                &fund,
                &parent,
                &cc,
                &AmalgOpts {
                    min_width: 4,
                    relax_frac: 0.2,
                },
            );
            let mut sn_of = vec![0usize; ap.ncols()];
            for s in 0..ptr.len() - 1 {
                for c in ptr[s]..ptr[s + 1] {
                    sn_of[c] = s;
                }
            }
            let seq = supernode_rows(&ap, &ptr, &sn_of);
            for threads in [1, 2, 4, 8] {
                let par = supernode_rows_par(
                    &ap,
                    &ptr,
                    &sn_of,
                    &parent,
                    threads,
                    &parfact_trace::Collector::disabled(),
                );
                assert_eq!(par, seq, "threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_rows_record_structure_spans() {
        let a = gen::laplace2d(14, 14, gen::Stencil2d::FivePoint);
        let (ptr, sn_of, seq, ap) = full_pipeline(&a);
        let parent0 = etree(&ap);
        let tr = parfact_trace::Collector::new(parfact_trace::TraceLevel::Timeline);
        let par = supernode_rows_par(&ap, &ptr, &sn_of, &parent0, 2, &tr);
        assert_eq!(par, seq);
        assert!(tr.snapshot().structure_s > 0.0);
        let spans = tr.take_spans();
        assert!(spans.iter().all(|s| s.phase == Phase::Structure));
        assert!(spans.iter().any(|s| s.supernode.is_some()));
        assert!(spans.iter().any(|s| s.supernode.is_none()));
    }

    #[test]
    fn roots_have_no_rows() {
        let a = gen::laplace2d(8, 5, gen::Stencil2d::FivePoint);
        let (ptr, _, rows, _) = full_pipeline(&a);
        // The last supernode is a root of the assembly tree: nothing below.
        assert!(rows[ptr.len() - 2].is_empty());
    }
}
