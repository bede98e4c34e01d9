//! Multilevel nested dissection.
//!
//! Recursively bisect the graph, carve a vertex separator out of the edge
//! cut, order the two halves first and the separator **last**, and switch
//! to minimum degree below a size cutoff. The separator hierarchy is what
//! gives the assembly tree its balanced binary shape — the property the
//! subtree-to-subcube mapping in `parfact-core` exploits.
//!
//! Each subproblem is a task on a pool of workers. A task owns only its
//! subgraph (`u32` arrays, unit weights implied) and its global ids; every
//! worker keeps one `Worker` workspace — the bisection's level graphs and
//! refinement state, the minimum-degree arrays, the separator marks — and
//! reuses it for every task it runs. The separator is read off the
//! refinement's boundary list, and both halves are cut out in one pass.

use crate::mindeg::MinDegree;
use crate::partition::{narrow, Bisector, Graph, PartOpts};
use parfact_sparse::graph::AdjGraph;
use parfact_sparse::perm::Perm;
use parfact_trace::{Collector, LocalRecorder, Phase};
use std::sync::{Condvar, Mutex};

/// Nested-dissection options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdOpts {
    /// Subgraphs at most this large are ordered with minimum degree.
    pub cutoff: usize,
    /// Bisection parameters.
    pub part: PartOpts,
}

impl Default for NdOpts {
    fn default() -> Self {
        NdOpts {
            cutoff: 96,
            part: PartOpts::default(),
        }
    }
}

/// Extract a vertex separator from an edge-cut bipartition: take the
/// boundary of whichever side has the smaller boundary. Removing it leaves
/// no edge between the remaining parts of side 0 and side 1.
#[cfg(test)]
fn vertex_separator(g: &AdjGraph, side: &[u8]) -> Vec<bool> {
    let n = g.nvert();
    let boundary: Vec<u32> = (0..n)
        .filter(|&v| g.neighbors(v).iter().any(|&u| side[u] != side[v]))
        .map(|v| v as u32)
        .collect();
    let mut in_sep = Vec::new();
    separator(&boundary, side, &mut in_sep);
    in_sep
}

/// Mark in `in_sep` (one entry per vertex of `side`) the vertices of
/// `boundary` — those with a neighbour across the cut — on the side with
/// fewer of them (side 0 on a tie).
fn separator(boundary: &[u32], side: &[u8], in_sep: &mut Vec<bool>) {
    let on1 = boundary.iter().filter(|&&v| side[v as usize] == 1).count();
    let pick = u8::from(boundary.len() - on1 > on1);
    in_sep.clear();
    in_sep.resize(side.len(), false);
    for &v in boundary {
        if side[v as usize] == pick {
            in_sep[v as usize] = true;
        }
    }
}

/// Stable content hash seeding each subproblem's RNG: FNV-1a over the
/// subproblem's global vertex ids, mixed with the base seed and recursion
/// depth. The seed depends only on *what* is being bisected, never on
/// execution order, the worker a task lands on, or what was bisected
/// before it — the prerequisite for thread-count-independent output (and a
/// reproducibility fix in its own right: repeated calls on the same
/// subgraph now reproduce the same stream).
fn subgraph_seed(base: u64, depth: usize, ids: &[u32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(PRIME);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    eat(&mut h, base);
    eat(&mut h, depth as u64);
    for &id in ids {
        eat(&mut h, id as u64);
    }
    h
}

/// One nested-dissection subproblem on the work pool.
struct Task {
    /// Recursion-tree path id (root 1, children `2p` and `2p+1`, wrapping
    /// far below any reachable depth). Tags this task's trace spans so
    /// tooling can rebuild the task DAG from a span stream.
    path: usize,
    /// Position of this subproblem's block in the final order: fixed at
    /// the parent's bisection time, independent of completion order.
    offset: usize,
    /// Unit-weight subgraph with sorted adjacency lists.
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    /// Global vertex ids, parallel to the subgraph's local numbering.
    ids: Vec<u32>,
    depth: usize,
}

/// Ordered blocks of one worker: block `(offset, len)` puts the next `len`
/// ids of `ids` at positions `offset..offset + len` of the final order.
#[derive(Default)]
struct Done {
    blocks: Vec<(usize, usize)>,
    ids: Vec<u32>,
}

impl Done {
    fn push(&mut self, offset: usize, ids: impl Iterator<Item = u32>) {
        let start = self.ids.len();
        self.ids.extend(ids);
        self.blocks.push((offset, self.ids.len() - start));
    }
}

/// The workspace of one nested-dissection worker, reused by every task it
/// runs.
#[derive(Default)]
struct Worker {
    bisector: Bisector,
    mindeg: MinDegree,
    /// All ones: the vertex and edge weights of every task's subgraph.
    unit: Vec<i32>,
    /// The task's vertex degrees, its weighted degrees under unit weights.
    wdeg: Vec<i32>,
    /// Index of each vertex within its half.
    local: Vec<u32>,
    in_sep: Vec<bool>,
    /// A leaf's order in local numbering.
    leaf: Vec<u32>,
    done: Done,
}

impl Worker {
    /// Process one task: order it outright (leaf / degenerate split) or
    /// bisect and hand both halves to `spawn`.
    fn run(
        &mut self,
        task: Task,
        opts: &NdOpts,
        rec: &mut LocalRecorder<'_>,
        spawn: &mut dyn FnMut(Task),
    ) {
        let Task {
            path,
            offset,
            xadj,
            adjncy,
            ids,
            depth,
        } = task;
        let sn = ids.len();
        if sn > opts.cutoff && depth <= 64 {
            let mut popts = opts.part;
            popts.seed = subgraph_seed(opts.part.seed, depth, &ids);
            if self.unit.len() < sn.max(adjncy.len()) {
                self.unit.resize(sn.max(adjncy.len()), 1);
            }
            let g = Graph {
                xadj: &xadj,
                adjncy: &adjncy,
                adjwgt: &self.unit[..adjncy.len()],
                vwgt: &self.unit[..sn],
            };
            self.wdeg.clear();
            self.wdeg
                .extend(xadj.windows(2).map(|w| (w[1] - w[0]) as i32));
            let (side, boundary) = self.bisector.bisect(g, &self.wdeg, &popts, rec, Some(path));
            let t = rec.start();
            separator(boundary, side, &mut self.in_sep);
            // Index of each non-separator vertex within its half.
            self.local.clear();
            let (mut size, mut nnz) = ([0usize; 2], [0usize; 2]);
            for v in 0..sn {
                let h = side[v] as usize;
                self.local.push(size[h] as u32);
                if !self.in_sep[v] {
                    size[h] += 1;
                    nnz[h] += (xadj[v + 1] - xadj[v]) as usize;
                }
            }
            // A degenerate split (e.g. a clique), where the separator
            // swallowed a side, falls through to minimum degree to
            // guarantee progress.
            if size[0] > 0 && size[1] > 0 {
                // Children are ordered before their separator; their block
                // positions follow from the split sizes alone.
                let in_sep = &self.in_sep;
                self.done.push(
                    offset + size[0] + size[1],
                    (0..sn).filter(|&v| in_sep[v]).map(|v| ids[v]),
                );
                let mut halves = [0, 1].map(|h| {
                    let mut xadj = Vec::with_capacity(size[h] + 1);
                    xadj.push(0);
                    Task {
                        path: path.wrapping_mul(2).wrapping_add(h),
                        offset: offset + h * size[0],
                        xadj,
                        adjncy: Vec::with_capacity(nnz[h]),
                        ids: Vec::with_capacity(size[h]),
                        depth: depth + 1,
                    }
                });
                // A non-separator vertex has all its non-separator
                // neighbours on its own side, and `local` increases with
                // `v` within a side, so the rows come out sorted.
                for v in 0..sn {
                    if self.in_sep[v] {
                        continue;
                    }
                    let half = &mut halves[side[v] as usize];
                    let row = &adjncy[xadj[v] as usize..xadj[v + 1] as usize];
                    half.adjncy.extend(
                        row.iter()
                            .filter(|&&u| !in_sep[u as usize])
                            .map(|&u| self.local[u as usize]),
                    );
                    half.xadj.push(half.adjncy.len() as u32);
                    half.ids.push(ids[v]);
                }
                rec.stop(t, Phase::Bisect, Some(path));
                for half in halves {
                    spawn(half);
                }
                return;
            }
            rec.stop(t, Phase::Bisect, Some(path));
        }
        let t = rec.start();
        self.leaf.clear();
        self.mindeg.order(&xadj, &adjncy, &mut self.leaf);
        self.done
            .push(offset, self.leaf.iter().map(|&l| ids[l as usize]));
        rec.stop(t, Phase::Mindeg, Some(path));
    }
}

/// Why a pool lock can fail: another worker panicked holding it.
const POISONED: &str = "nested-dissection worker panicked";

/// The shared LIFO task pool of the multi-threaded ordering.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when tasks are pushed and when `pending` reaches zero.
    wake: Condvar,
}

struct PoolState {
    queue: Vec<Task>,
    /// Unfinished tasks: children are registered before their parent
    /// retires, so this reaches zero only when the whole recursion tree is
    /// done and idle workers may exit.
    pending: usize,
}

impl Pool {
    /// The next task, sleeping while the queue is empty and tasks are
    /// still running; `None` once all are done.
    fn next(&self) -> Option<Task> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if let Some(task) = st.queue.pop() {
                return Some(task);
            }
            if st.pending == 0 {
                return None;
            }
            st = self.wake.wait(st).expect(POISONED);
        }
    }

    /// Retire a finished task after queueing the children it `created`.
    fn retire(&self, created: &mut Vec<Task>) {
        let spawned = created.len();
        let mut st = self.state.lock().expect(POISONED);
        st.pending = st.pending + spawned - 1;
        st.queue.append(created);
        let finished = st.pending == 0;
        drop(st);
        if finished {
            self.wake.notify_all();
        } else {
            for _ in 0..spawned {
                self.wake.notify_one();
            }
        }
    }
}

/// Nested dissection on `threads` workers, recording per-stage spans
/// (coarsen / bisect / refine / mindeg) into `tr`.
///
/// The permutation is **bitwise identical for every thread count**: after a
/// bisection both halves become independent tasks whose block positions in
/// the final order are computed immediately (left half at the parent's
/// offset, right half after it, separator last), and every subproblem's RNG
/// is seeded by `subgraph_seed` from its own content. Min-degree leaf
/// subgraphs are just more tasks, so they batch across the same workers.
///
/// # Panics
/// If `g` has more than [`crate::partition::MAX_GRAPH`] vertices or
/// adjacency entries: the multilevel graphs are `u32`/`i32` throughout.
pub fn nested_dissection_with(g: &AdjGraph, opts: &NdOpts, threads: usize, tr: &Collector) -> Perm {
    let n = g.nvert();
    let (xadj, adjncy) = narrow(g);
    let root = Task {
        path: 1,
        offset: 0,
        xadj,
        adjncy,
        ids: (0..n as u32).collect(),
        depth: 0,
    };
    let mut done: Vec<Done> = Vec::new();
    if threads <= 1 {
        let mut rec = tr.local(0);
        let mut worker = Worker::default();
        let mut stack = vec![root];
        while let Some(task) = stack.pop() {
            worker.run(task, opts, &mut rec, &mut |t| stack.push(t));
        }
        done.push(worker.done);
    } else {
        let pool = Pool {
            state: Mutex::new(PoolState {
                queue: vec![root],
                pending: 1,
            }),
            wake: Condvar::new(),
        };
        let results: Mutex<Vec<Done>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (pool, results) = (&pool, &results);
                scope.spawn(move || {
                    let mut rec = tr.local(w);
                    let mut worker = Worker::default();
                    let mut created = Vec::new();
                    while let Some(task) = pool.next() {
                        worker.run(task, opts, &mut rec, &mut |t| created.push(t));
                        pool.retire(&mut created);
                    }
                    results.lock().expect(POISONED).push(worker.done);
                });
            }
        });
        done = results.into_inner().expect(POISONED);
    }
    // Blocks carry their own offsets and tile [0, n) exactly, so assembly
    // order is irrelevant; `from_vec` re-validates permutation-ness.
    let mut order = vec![0usize; n];
    for d in &done {
        let mut ids = d.ids.iter();
        for &(offset, len) in &d.blocks {
            for (slot, &id) in order[offset..offset + len].iter_mut().zip(ids.by_ref()) {
                *slot = id as usize;
            }
        }
    }
    Perm::from_vec(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill_in;
    use parfact_sparse::gen;
    use parfact_sparse::perm::Perm;
    use proptest::prelude::*;

    /// Nested dissection on one thread, untraced.
    fn nested_dissection(g: &AdjGraph, opts: &NdOpts) -> Perm {
        nested_dissection_with(g, opts, 1, &Collector::disabled())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn vertex_separator_always_separates(
            n in 5usize..=60,
            k in 1usize..=5,
            seed in any::<u64>(),
        ) {
            let g = AdjGraph::from_sym_lower(&gen::random_spd(n, k, seed));
            let b = bisect(&WGraph::from_adj(&g), &PartOpts::default());
            let in_sep = vertex_separator(&g, &b.side);
            for v in 0..g.nvert() {
                if in_sep[v] {
                    continue;
                }
                for &u in g.neighbors(v) {
                    if !in_sep[u] {
                        prop_assert_eq!(b.side[u], b.side[v], "uncovered edge {}-{}", u, v);
                    }
                }
            }
        }
    }

    #[test]
    fn separator_separates() {
        let a = gen::laplace2d(8, 8, gen::Stencil2d::FivePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let b = bisect(&WGraph::from_adj(&g), &PartOpts::default());
        let in_sep = vertex_separator(&g, &b.side);
        // No edge may connect side-0 and side-1 vertices that are both
        // outside the separator.
        for v in 0..g.nvert() {
            if in_sep[v] {
                continue;
            }
            for &u in g.neighbors(v) {
                if !in_sep[u] {
                    assert_eq!(b.side[u], b.side[v], "uncovered cut edge {u}-{v}");
                }
            }
        }
        // Separator of an 8x8 grid should be around one grid line.
        let sep_size = in_sep.iter().filter(|&&x| x).count();
        assert!(sep_size <= 16, "separator too big: {sep_size}");
        assert!(sep_size >= 4);
    }

    #[test]
    fn nd_orders_grid_with_low_fill() {
        let a = gen::laplace2d(12, 12, gen::Stencil2d::FivePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let opts = NdOpts {
            cutoff: 16,
            ..NdOpts::default()
        };
        let p = nested_dissection(&g, &opts);
        assert_eq!(p.len(), 144);
        let f_nd = fill_in(&g, &p);
        let f_nat = fill_in(&g, &Perm::identity(144));
        assert!(
            f_nd < f_nat,
            "nested dissection fill {f_nd} must beat natural {f_nat}"
        );
    }

    #[test]
    fn nd_handles_small_graph_via_cutoff() {
        let a = gen::tridiagonal(10);
        let g = AdjGraph::from_sym_lower(&a);
        let p = nested_dissection(&g, &NdOpts::default());
        assert_eq!(p.len(), 10);
        assert_eq!(fill_in(&g, &p), 0);
    }

    #[test]
    fn nd_handles_clique() {
        // Complete graph: bisection is degenerate; ND must still terminate.
        let n = 20;
        let mut coo = parfact_sparse::coo::CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..=i {
                coo.push(i, j, if i == j { 30.0 } else { -1.0 });
            }
        }
        let g = AdjGraph::from_sym_lower(&coo.to_csc());
        let p = nested_dissection(
            &g,
            &NdOpts {
                cutoff: 4,
                ..NdOpts::default()
            },
        );
        assert_eq!(p.len(), n);
        assert_eq!(fill_in(&g, &p), 0); // clique: no fill under any order
    }

    #[test]
    fn nd_deterministic() {
        let a = gen::laplace2d(10, 9, gen::Stencil2d::FivePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let p1 = nested_dissection(&g, &NdOpts::default());
        let p2 = nested_dissection(&g, &NdOpts::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn nd_parallel_matches_sequential_exactly() {
        let a = gen::laplace2d(17, 13, gen::Stencil2d::NinePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let opts = NdOpts {
            cutoff: 12,
            ..NdOpts::default()
        };
        let seq = nested_dissection(&g, &opts);
        for threads in [2, 3, 4, 8] {
            let tr = parfact_trace::Collector::disabled();
            let par = nested_dissection_with(&g, &opts, threads, &tr);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn nd_records_stage_spans_at_timeline_level() {
        let a = gen::laplace2d(14, 14, gen::Stencil2d::FivePoint);
        let g = AdjGraph::from_sym_lower(&a);
        let opts = NdOpts {
            cutoff: 16,
            ..NdOpts::default()
        };
        let tr = parfact_trace::Collector::new(parfact_trace::TraceLevel::Timeline);
        nested_dissection_with(&g, &opts, 2, &tr);
        let c = tr.snapshot();
        assert!(c.coarsen_s > 0.0 && c.bisect_s > 0.0 && c.mindeg_s > 0.0);
        let spans = tr.take_spans();
        assert!(spans.iter().all(|s| s.phase.is_analysis()));
        // Every span carries a recursion-tree tag, and the root task (path
        // 1) bisected rather than went to minimum degree.
        assert!(spans.iter().all(|s| s.supernode.is_some()));
        assert!(spans
            .iter()
            .any(|s| s.supernode == Some(1) && s.phase == Phase::Coarsen));
    }

    #[test]
    fn subgraph_seed_depends_on_content_only() {
        let ids: Vec<u32> = (10..40).collect();
        let a = subgraph_seed(7, 3, &ids);
        assert_eq!(a, subgraph_seed(7, 3, &ids.clone()));
        assert_ne!(a, subgraph_seed(8, 3, &ids));
        assert_ne!(a, subgraph_seed(7, 4, &ids));
        let mut other = ids.clone();
        other[0] = 9;
        assert_ne!(a, subgraph_seed(7, 3, &other));
    }

    #[test]
    fn nd_on_disconnected_graph() {
        let mut coo = parfact_sparse::coo::CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 2.0);
        }
        for i in 0..3 {
            coo.push(i + 1, i, -1.0); // path 0-1-2-3
        }
        for i in 4..7 {
            coo.push(i + 1, i, -1.0); // path 4-5-6-7
        }
        let g = AdjGraph::from_sym_lower(&coo.to_csc());
        let p = nested_dissection(
            &g,
            &NdOpts {
                cutoff: 2,
                ..NdOpts::default()
            },
        );
        assert_eq!(p.len(), 8);
    }

    use crate::partition::{bisect, WGraph};
}
