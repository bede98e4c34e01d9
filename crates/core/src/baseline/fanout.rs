//! Distributed **fan-out** column Cholesky — the classic fine-grained
//! algorithm the multifrontal method displaced.
//!
//! Columns are dealt cyclically to ranks. When a rank finishes column `k`
//! it "fans it out": one message per rank that owns any column updated by
//! `k`. Every column is a separate message, so the message count grows
//! with `nnz(L)` instead of with the number of supernodes — on a
//! latency-bound machine this is the difference between scaling and
//! stalling, which is precisely the baseline contrast of EXP-F1.

use crate::baseline::leftlook::symbolic_l;
use crate::error::FactorError;
use parfact_mpsim::Rank;
use parfact_sparse::csc::CscMatrix;
use parfact_symbolic::etree;
use std::collections::HashMap;

/// Fraction of a core's peak flop rate a scalar simplicial update stream
/// achieves. The cost model's `flop_time` is the *dense-kernel* rate;
/// column-at-a-time indexed gather/scatter kernels on this class of core
/// reach roughly a tenth of it (0.2-0.5 of 3.4 Gflop/s on Blue Gene/P-era
/// hardware). Without this derating the model would credit the fan-out
/// baseline with BLAS-3 throughput it cannot have.
pub const SCALAR_EFFICIENCY: f64 = 0.12;

/// Column owner under the cyclic deal.
#[inline]
pub fn owner(j: usize, p: usize) -> usize {
    j % p
}

// Tag namespace of the fan-out baseline. Disjoint from the multifrontal
// engine's namespace in `dist::front` by construction: the two algorithms
// never share a `Machine` run. Centralized here (rather than inline
// literals at the send sites) so the R5 lint can hold every message to a
// named tag scheme.

/// Tag of the fan-out message carrying factored column `j`.
#[inline]
fn col_tag(j: usize) -> u64 {
    j as u64
}

/// Per-rank result: the owned columns of `L` (global index, rows, values).
pub struct FanoutColumns {
    pub cols: Vec<(usize, Vec<usize>, Vec<f64>)>,
}

/// SPMD fan-out factorization. All ranks pass the same (replicated)
/// matrix; each computes and returns its owned columns of `L`.
pub fn factorize_rank(rank: &mut Rank, a: &CscMatrix) -> Result<FanoutColumns, FactorError> {
    let me = rank.rank();
    let p = rank.nranks();
    let n = a.ncols();
    // Replicated symbolic phase (cheap relative to numeric).
    let parent = etree::etree(a);
    let pattern = symbolic_l(a, &parent);
    let mut rowlist: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, pat) in pattern.iter().enumerate() {
        for &i in pat {
            if i > k {
                rowlist[i].push(k);
            }
        }
    }
    // How many of my columns consume column k (cache eviction counts).
    let mut uses = vec![0usize; n];
    for j in (me..n).step_by(p) {
        for &k in &rowlist[j] {
            uses[k] += 1;
        }
    }

    let mut mine: Vec<(usize, Vec<usize>, Vec<f64>)> = Vec::new();
    let mut cache: HashMap<usize, (Vec<usize>, Vec<f64>)> = HashMap::new();
    let mut work = vec![0.0f64; n];

    for j in (me..n).step_by(p) {
        // Scatter A[:, j].
        let (arows, avals) = a.col(j);
        for (&r, &v) in arows.iter().zip(avals) {
            work[r] = v;
        }
        // Apply each needed earlier column, fetching remote ones on demand.
        for &k in &rowlist[j] {
            let (krows, kvals): (&[usize], &[f64]) = if owner(k, p) == me {
                let (_, r, v) = mine
                    .iter()
                    .find(|(g, _, _)| *g == k)
                    .expect("own column not yet computed");
                (r, v)
            } else {
                let entry = cache.entry(k).or_insert_with(|| {
                    rank.recv::<(Vec<usize>, Vec<f64>)>(owner(k, p), col_tag(k))
                });
                (&entry.0, &entry.1)
            };
            let pos = krows.binary_search(&j).expect("structure mismatch");
            let ljk = kvals[pos];
            if ljk != 0.0 {
                for (&r, &v) in krows[pos..].iter().zip(&kvals[pos..]) {
                    work[r] -= v * ljk;
                }
                let fl = 2.0 * (krows.len() - pos) as f64;
                rank.compute(fl);
                // Derate to scalar speed: extra time, not extra flops.
                rank.advance(fl * (1.0 / SCALAR_EFFICIENCY - 1.0) * rank.model().flop_time_s);
            }
            // Evict when no further own column needs k.
            uses[k] -= 1;
            if uses[k] == 0 && owner(k, p) != me {
                if let Some((r, v)) = cache.remove(&k) {
                    rank.free((r.len() * 8) + (v.len() * 8));
                }
            }
        }
        // Scale column j.
        let djj = work[j];
        if djj <= 0.0 || !djj.is_finite() {
            return Err(FactorError::NotPositiveDefinite { col: j, value: djj });
        }
        let root = djj.sqrt();
        let pat = &pattern[j];
        let mut rows = Vec::with_capacity(pat.len());
        let mut vals = Vec::with_capacity(pat.len());
        for &r in pat {
            let v = if r == j { root } else { work[r] / root };
            rows.push(r);
            vals.push(v);
            work[r] = 0.0;
        }
        let fl = pat.len() as f64;
        rank.compute(fl);
        rank.advance(fl * (1.0 / SCALAR_EFFICIENCY - 1.0) * rank.model().flop_time_s);
        rank.alloc(rows.len() * 16);
        // Fan out: one message per rank owning an updated column.
        let mut dests = vec![false; p];
        for &i in &pat[1..] {
            dests[owner(i, p)] = true;
        }
        for (d, &needed) in dests.iter().enumerate() {
            if needed && d != me {
                rank.send(d, col_tag(j), (rows.clone(), vals.clone()));
            }
        }
        mine.push((j, rows, vals));
    }
    // Account cached columns that were fetched but never evicted. Drained
    // in sorted column order so the accounting walk is reproducible (the
    // byte sum is commutative, but a canonical order costs nothing and
    // keeps the send path free of unordered iteration).
    let mut leftovers: Vec<(Vec<usize>, Vec<f64>)> = cache.drain().map(|(_, rv)| rv).collect();
    leftovers.sort_unstable_by_key(|(r, _)| r.first().copied());
    for (r, v) in leftovers {
        rank.free(r.len() * 8 + v.len() * 8);
    }
    Ok(FanoutColumns { cols: mine })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::leftlook::factorize_leftlooking;
    use parfact_mpsim::{model::CostModel, Machine};
    use parfact_sparse::gen;

    /// `L` from every rank's columns, and the messages the ranks sent.
    fn run_fanout(a: &CscMatrix, p: usize) -> (CscMatrix, u64) {
        let n = a.ncols();
        let report = Machine::new(p, CostModel::bluegene_p()).run(|rank| {
            factorize_rank(rank, a)
                .expect("fan-out factorization failed")
                .cols
        });
        let msgs = report.stats.iter().map(|s| s.msgs_sent).sum();
        let mut cols: Vec<_> = report.results.into_iter().flatten().collect();
        cols.sort_unstable_by_key(|&(j, _, _)| j);
        let (mut colptr, mut rowind, mut vals) = (vec![0], Vec::new(), Vec::new());
        for (_, r, v) in cols {
            rowind.extend(r);
            vals.extend(v);
            colptr.push(rowind.len());
        }
        (CscMatrix::from_parts(n, n, colptr, rowind, vals), msgs)
    }

    #[test]
    fn fanout_matches_leftlooking_bitwise() {
        let a = gen::laplace2d(9, 8, gen::Stencil2d::FivePoint);
        let reference = factorize_leftlooking(&a).unwrap();
        for p in [1, 2, 3, 5] {
            let (l, _) = run_fanout(&a, p);
            assert_eq!(l.nnz(), reference.l.nnz(), "p={p}");
            for (x, y) in l.values().iter().zip(reference.l.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "p={p}");
            }
        }
    }

    #[test]
    fn fanout_rejects_indefinite() {
        let a = gen::indefinite(20, 3);
        let r = std::panic::catch_unwind(|| run_fanout(&a, 2));
        assert!(r.is_err());
    }

    #[test]
    fn fanout_message_count_grows_with_ranks() {
        let a = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
        let (_, m2) = run_fanout(&a, 2);
        let (_, m8) = run_fanout(&a, 8);
        assert!(
            m8 > m2,
            "fan-out must send more messages at higher rank counts: {m8} vs {m2}"
        );
    }
}
