//! Mapping the assembly tree onto ranks: **subtree-to-subcube**
//! (proportional) mapping, plus the flat baseline it is measured against.
//!
//! Proportional mapping assigns the root front the whole machine and splits
//! each node's rank range among its children in proportion to subtree work.
//! Once a range narrows to one rank, the entire subtree below runs locally
//! on that rank with zero communication — the property that makes the
//! multifrontal method scale: communication only happens in the thin top of
//! the tree, over geometrically shrinking rank groups.
//!
//! Read as runs of supernodes (`Plan`), it is the schedule of the dist
//! engine and, with one "rank" per thread, of the SMP factor and solve.
//! The plan also places each update in its owner's arena by first fit over
//! the order the owner runs its fronts (`Plan::new` says why the dist
//! engine's deadline order keeps the postorder layout).

use crate::dist::front;
use crate::frontal::update_len;
use parfact_symbolic::{Symbolic, NONE};
use std::ops::Range;

/// How a supernode's front is laid out over its rank range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Single rank: plain sequential front.
    Local,
    /// Block-cyclic over a `pr x pc` process grid with square blocks of
    /// `nb` rows/columns. `pr == 1` gives the 1-D column layout, `pc == 1`
    /// the 1-D row layout.
    Grid { pr: usize, pc: usize, nb: usize },
}

impl Layout {
    /// Ranks used by this layout.
    pub fn nranks(&self) -> usize {
        match self {
            Layout::Local => 1,
            Layout::Grid { pr, pc, .. } => pr * pc,
        }
    }
}

/// A complete mapping of the assembly tree.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Rank range `[lo, hi)` per supernode.
    pub group: Vec<(usize, usize)>,
    /// Front layout per supernode.
    pub layout: Vec<Layout>,
    /// Total ranks.
    pub nranks: usize,
}

/// Mapping strategy selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapStrategy {
    /// Subtree-to-subcube proportional mapping. `use_2d` picks 2-D grids
    /// for distributed fronts (the paper's scalable choice); otherwise 1-D
    /// column layouts are used everywhere.
    Proportional { use_2d: bool, nb: usize },
    /// Flat mapping: every supernode is distributed over all ranks (no
    /// subtree locality) — the classic baseline that drowns in latency.
    Flat { use_2d: bool, nb: usize },
}

impl Default for MapStrategy {
    fn default() -> Self {
        MapStrategy::Proportional {
            use_2d: true,
            nb: parfact_dense::chol::NB,
        }
    }
}

/// Pick the most square factor pair `(pr, pc)` with `pr * pc == np` and
/// `pr <= pc`.
pub fn grid_shape(np: usize) -> (usize, usize) {
    let mut best = (1, np);
    let mut d = 1;
    while d * d <= np {
        if np.is_multiple_of(d) {
            best = (d, np / d);
        }
        d += 1;
    }
    best
}

fn layout_for(np: usize, use_2d: bool, nb: usize) -> Layout {
    if np == 1 {
        Layout::Local
    } else if use_2d {
        let (pr, pc) = grid_shape(np);
        Layout::Grid { pr, pc, nb }
    } else {
        Layout::Grid { pr: 1, pc: np, nb }
    }
}

/// Split rank range `[lo, hi)` among `nodes` proportionally to their
/// subtree weights. Nodes are laid out in **descending weight** order with
/// rounded (not floored) boundaries, so near-equal heavy children land on
/// disjoint near-equal ranges and featherweight children share the tail
/// rank instead of stealing a boundary.
fn split_range(
    lo: usize,
    hi: usize,
    nodes: &[usize],
    weights: &[f64],
    group: &mut [(usize, usize)],
) {
    let np = hi - lo;
    let total: f64 = nodes.iter().map(|&c| weights[c]).sum();
    let mut order: Vec<usize> = nodes.to_vec();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap().then(a.cmp(&b)));
    let mut pos = 0.0f64;
    for &c in &order {
        let share = weights[c] / total * np as f64;
        let start = (pos.round() as usize).min(np - 1);
        let end = ((pos + share).round() as usize).clamp(start + 1, np);
        group[c] = (lo + start, lo + end);
        pos += share;
    }
}

/// Build a mapping for `p` ranks.
pub fn map_tree(sym: &Symbolic, p: usize, strategy: MapStrategy) -> Mapping {
    assert!(p >= 1);
    let nsuper = sym.nsuper();
    match strategy {
        MapStrategy::Flat { use_2d, nb } => Mapping {
            group: vec![(0, p); nsuper],
            layout: vec![layout_for(p, use_2d, nb); nsuper],
            nranks: p,
        },
        MapStrategy::Proportional { use_2d, nb } => {
            let weights = sym.tree.subtree_sum(|s| {
                // Subtree flop weight: the same per-front estimate the
                // symbolic phase reports.
                let w = sym.sn_width(s);
                let r = sym.sn_rows[s].len();
                let mut fl = 0.0;
                for k in 0..w {
                    let len = (w - k) + r;
                    fl += (len * len) as f64;
                }
                fl + 1.0 // keep zero-work supernodes mappable
            });
            let mut group = vec![(0usize, 0usize); nsuper];
            let mut layout = vec![Layout::Local; nsuper];
            // Roots share [0, p), then ranges split recursively (reverse
            // postorder: parents are assigned before children).
            split_range(0, p, &sym.tree.roots, &weights, &mut group);
            for s in (0..nsuper).rev() {
                let (lo, hi) = group[s];
                let np = hi - lo;
                layout[s] = layout_for(np, use_2d, nb);
                let kids = &sym.tree.children[s];
                if kids.is_empty() {
                    continue;
                }
                if np == 1 {
                    for &c in kids {
                        group[c] = (lo, hi);
                    }
                    continue;
                }
                split_range(lo, hi, kids, &weights, &mut group);
            }
            Mapping {
                group,
                layout,
                nranks: p,
            }
        }
    }
}

/// One rank's work list for the event-driven scheduler (see
/// `dist::factorize_rank`): the rank's distributed supernodes in postorder,
/// plus its local supernodes tagged with the **grid deadline** they feed —
/// the position in `grid` of the distributed ancestor that consumes their
/// subtree's update. Every supernode of one local subtree shares its root's
/// deadline, so sorting by `(deadline, supernode)` groups subtrees by due
/// date while keeping each subtree internally postordered.
pub(crate) struct RankSchedule {
    /// Distributed supernodes of this rank, ascending (postorder).
    pub(crate) grid: Vec<usize>,
    /// `(deadline, supernode)` for every local supernode, sorted. The
    /// deadline indexes into `grid`; `usize::MAX` means nothing distributed
    /// ever consumes the subtree (it ends at a root).
    pub(crate) local: Vec<(usize, usize)>,
}

impl Mapping {
    /// Leader (first rank) of supernode `s`'s group.
    pub fn leader(&self, s: usize) -> usize {
        self.group[s].0
    }

    /// Rank `me`'s schedule, given the local runs it owns (see [`Plan`]):
    /// a run is due when the distributed parent of its root runs, and all
    /// its supernodes with it.
    pub(crate) fn rank_schedule<'r>(
        &self,
        sym: &Symbolic,
        me: usize,
        runs: impl IntoIterator<Item = &'r Range<usize>>,
    ) -> RankSchedule {
        let grid: Vec<usize> = (0..sym.nsuper())
            .filter(|&s| self.participates(s, me) && self.layout[s] != Layout::Local)
            .collect();
        let mut local = Vec::new();
        for sns in runs {
            // Nesting puts `me` in the parent's group, so it is in `grid`.
            let due = match sym.tree.parent[sns.end - 1] {
                NONE => usize::MAX,
                p => grid.binary_search(&p).expect("a local run's parent"),
            };
            local.extend(sns.clone().map(|s| (due, s)));
        }
        local.sort_unstable();
        RankSchedule { grid, local }
    }

    /// True when `rank` participates in supernode `s`.
    pub fn participates(&self, s: usize, rank: usize) -> bool {
        let (lo, hi) = self.group[s];
        rank >= lo && rank < hi
    }

    /// Group size of supernode `s`.
    pub fn group_size(&self, s: usize) -> usize {
        self.group[s].1 - self.group[s].0
    }

    /// Validate nesting (`group(child) ⊆ group(parent)`) and layout/rank
    /// agreement.
    pub fn validate(&self, sym: &Symbolic) -> bool {
        for s in 0..sym.nsuper() {
            let (lo, hi) = self.group[s];
            if lo >= hi || hi > self.nranks {
                return false;
            }
            if self.layout[s].nranks() != hi - lo {
                return false;
            }
            let p = sym.tree.parent[s];
            if p != NONE {
                let (plo, phi) = self.group[p];
                if lo < plo || hi > phi {
                    return false;
                }
            }
        }
        true
    }
}

/// A mapping read as a schedule, the one the engines share: the
/// supernodes split into runs, each a whole local subtree (group size 1)
/// owned by one thread or rank, or one supernode of the top (group size >
/// 1); and where each update lives while it waits for its parent.
pub(crate) struct Plan {
    /// The runs in postorder; they partition the supernodes.
    pub(crate) runs: Vec<Run>,
    /// The thread or rank count the mapping was built for.
    pub(crate) threads: usize,
    /// Where the update of supernode `s` (`update_len(|sn_rows[s]|)`
    /// entries: its lower triangle in strips) starts in the arena of its
    /// runner ([`Plan::runner`]). Grid fronts of the dist engine, and
    /// updates of no entries, have no place (0).
    pub(crate) at: Vec<usize>,
    /// Each owner's arena length in entries, by owner.
    pub(crate) arena: Vec<usize>,
}

/// What [`Plan::deal`] cut off for each run of one owner, in ascending
/// order, with the run's supernodes.
pub(crate) type Runs<C> = Vec<(Range<usize>, C)>;

/// A run of supernodes, consecutive in postorder: a whole local subtree
/// (`sns` ends at its root) owned by thread or rank `owner`, or one top
/// supernode (`owner == None`).
pub(crate) struct Run {
    pub(crate) sns: Range<usize>,
    pub(crate) owner: Option<usize>,
}

impl Plan {
    /// The dist engine's plan of `map`: a rank's arena holds the updates of
    /// its local runs and, past them, room for its largest share of a grid
    /// front (`front::share_len`, the strips of a `DistFront`). A rank runs
    /// one grid front at a time, between its local fronts, so its shares
    /// take turns in one region. The region starts past the updates still
    /// live when the front runs (`dist::factorize_rank`): mostly none, so it
    /// mostly starts at 0, on pages the updates already touched.
    ///
    /// The postorder layout also holds in the order the rank runs them (by
    /// deadline, `Mapping::rank_schedule`): every run is whole and
    /// postordered inside in it, and a run's root is shipped as soon as it
    /// is factored. So the updates live at a front are those of its own run
    /// that were live at it in postorder, which the layout kept apart
    /// (`tests::layouts_are_conflict_free_in_every_engines_order`).
    pub(crate) fn new(sym: &Symbolic, map: &Mapping) -> Plan {
        let mut plan = Plan::laid_out(sym, map, false);
        let mut share = vec![0; map.nranks];
        for s in plan.top() {
            let Layout::Grid { pr, pc, nb } = map.layout[s] else {
                unreachable!("a top supernode of the dist plan is a grid front");
            };
            let (lo, hi) = map.group[s];
            for (rel, most) in share[lo..hi].iter_mut().enumerate() {
                let mine = front::share_len(sym.front_order(s), nb, (pr, pc), (rel / pc, rel % pc));
                *most = mine.max(*most);
            }
        }
        for (len, share) in plan.arena.iter_mut().zip(share) {
            *len += share;
        }
        plan
    }

    /// The host engines' plan on `threads` threads: thread 0 (the calling
    /// one) runs the top after its own runs, in the same arena.
    pub(crate) fn host(sym: &Symbolic, threads: usize) -> Plan {
        Plan::laid_out(sym, &map_tree(sym, threads, MapStrategy::default()), true)
    }

    /// Cut `map` into runs and lay out each owner's updates by
    /// [`first_fit`] over its local runs in postorder, for owner 0
    /// followed by the top supernodes when `top` is set.
    fn laid_out(sym: &Symbolic, map: &Mapping, top: bool) -> Plan {
        let (tree, threads) = (&sym.tree, map.nranks);
        let local = |s: usize| map.group_size(s) == 1;
        // The first supernode of the subtree rooted at `s`, in postorder.
        let mut first = vec![0usize; sym.nsuper()];
        let mut runs = Vec::new();
        for s in 0..sym.nsuper() {
            first[s] = tree.children[s]
                .iter()
                .map(|&c| first[c])
                .min()
                .unwrap_or(s);
            let p = tree.parent[s];
            if !local(s) {
                runs.push(Run {
                    sns: s..s + 1,
                    owner: None,
                });
            } else if p == NONE || !local(p) {
                runs.push(Run {
                    sns: first[s]..s + 1,
                    owner: Some(map.leader(s)),
                });
            }
        }
        let mut at = vec![0; sym.nsuper()];
        let arena = (0..threads)
            .map(|t| {
                let local = runs.iter().filter(|r| r.owner == Some(t));
                let tops = runs.iter().filter(|r| top && t == 0 && r.owner.is_none());
                let seq = local.chain(tops).flat_map(|r| r.sns.clone());
                first_fit(sym, seq, &mut at)
            })
            .collect();
        Plan {
            runs,
            threads,
            at,
            arena,
        }
    }

    /// Bytes of arena this plan lays out, summed over its owners.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.iter().sum::<usize>() * std::mem::size_of::<f64>()
    }

    /// Threads that own at least one local subtree (at least one: the top
    /// runs on the calling thread).
    pub(crate) fn workers(&self) -> usize {
        let mut owns = vec![false; self.threads];
        for t in self.runs.iter().filter_map(|r| r.owner) {
            owns[t] = true;
        }
        owns.iter().filter(|&&o| o).count().max(1)
    }

    /// The top supernodes, ascending.
    pub(crate) fn top(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .filter(|r| r.owner.is_none())
            .map(|r| r.sns.start)
    }

    /// The thread that runs supernode `s`: its subtree's owner, or thread
    /// 0 (the calling one) for the top.
    pub(crate) fn runner(&self, s: usize) -> usize {
        let i = self.runs.partition_point(|r| r.sns.end <= s);
        self.runs[i].owner.unwrap_or(0)
    }

    /// Split something laid out in supernode order run by run: `cut` sees
    /// every run in postorder and splits off its part. Returns the parts of
    /// each owner's runs, by owner, in ascending order, and the top
    /// supernodes' parts.
    pub(crate) fn deal<C>(
        &self,
        mut cut: impl FnMut(&Range<usize>) -> C,
    ) -> (Vec<Runs<C>>, Vec<(usize, C)>) {
        let mut mine: Vec<Runs<C>> = (0..self.threads).map(|_| Vec::new()).collect();
        let mut top = Vec::new();
        for run in &self.runs {
            let part = cut(&run.sns);
            match run.owner {
                Some(t) => mine[t].push((run.sns.clone(), part)),
                None => top.push((run.sns.start, part)),
            }
        }
        (mine, top)
    }

    /// Run `job(t, subtrees, state)` once for every thread `t` that owns a
    /// local subtree, each on an OS thread of its own (the first on the
    /// calling one), with the `t`-th item of `states` and its subtrees in
    /// ascending order, each paired with what `cut` split off for it (see
    /// [`Plan::deal`]; the top's parts are dropped). Returns the jobs'
    /// results by thread.
    pub(crate) fn on_threads<C: Send, S: Send, R: Send>(
        &self,
        cut: impl FnMut(&Range<usize>) -> C,
        states: impl IntoIterator<Item = S>,
        job: impl Fn(usize, Runs<C>, S) -> R + Sync,
    ) -> Vec<R> {
        let mut work = self
            .deal(cut)
            .0
            .into_iter()
            .zip(states)
            .enumerate()
            .filter(|(_, (subtrees, _))| !subtrees.is_empty());
        let here = work.next();
        std::thread::scope(|scope| {
            let job = &job;
            let spawned: Vec<_> = work
                .map(|(t, (subtrees, state))| scope.spawn(move || job(t, subtrees, state)))
                .collect();
            let mut out: Vec<R> = here
                .map(|(t, (subtrees, state))| job(t, subtrees, state))
                .into_iter()
                .collect();
            for h in spawned {
                out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            out
        })
    }
}

/// Lay out the updates of `seq`, one owner's fronts in the order it runs
/// them, in one arena by first fit: the update of `s`
/// (`update_len(|sn_rows[s]|)` entries) takes the lowest place `at[s]`
/// where it overlaps no live update. It lives from the start of its front until its parent is
/// assembled, or to the end of `seq` when the parent is not in it. Returns
/// the arena's length: the highest entry an update reaches.
fn first_fit(sym: &Symbolic, seq: impl Iterator<Item = usize>, at: &mut [usize]) -> usize {
    // The live updates as `(start, end, supernode)`, by start.
    let mut live: Vec<(usize, usize, usize)> = Vec::new();
    let mut len = 0;
    for s in seq {
        let n = update_len(sym.sn_rows[s].len());
        if n > 0 {
            let (mut start, mut i) = (0, 0);
            while i < live.len() && live[i].0 < start + n {
                (start, i) = (live[i].1, i + 1);
            }
            live.insert(i, (start, start + n, s));
            (at[s], len) = (start, len.max(start + n));
        }
        live.retain(|&(_, _, x)| sym.tree.parent[x] != s);
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfact_sparse::gen;
    use parfact_symbolic::{analyze, AmalgOpts};

    fn sym_for_grid() -> Symbolic {
        let a = gen::laplace2d(16, 16, gen::Stencil2d::FivePoint);
        let fill = parfact_order::order_matrix(&a, parfact_order::Method::default());
        let af = fill.apply_sym_lower(&a);
        analyze(&af, &AmalgOpts::default()).0
    }

    #[test]
    fn grid_shapes() {
        assert_eq!(grid_shape(1), (1, 1));
        assert_eq!(grid_shape(4), (2, 2));
        assert_eq!(grid_shape(6), (2, 3));
        assert_eq!(grid_shape(7), (1, 7));
        assert_eq!(grid_shape(16), (4, 4));
        assert_eq!(grid_shape(12), (3, 4));
    }

    #[test]
    fn proportional_mapping_is_nested_and_valid() {
        let sym = sym_for_grid();
        for p in [1, 2, 3, 4, 8, 16, 17] {
            let m = map_tree(&sym, p, MapStrategy::default());
            assert!(m.validate(&sym), "p={p}");
            // Roots own the whole machine.
            for &r in &sym.tree.roots {
                assert_eq!(m.group[r], (0, p));
            }
        }
    }

    #[test]
    fn proportional_mapping_uses_all_ranks_at_leaves() {
        let sym = sym_for_grid();
        let p = 8;
        let m = map_tree(&sym, p, MapStrategy::default());
        // Every rank must participate in at least one supernode.
        let mut used = vec![false; p];
        for s in 0..sym.nsuper() {
            let (lo, hi) = m.group[s];
            for r in lo..hi {
                used[r] = true;
            }
        }
        assert!(used.iter().all(|&u| u), "idle ranks: {used:?}");
    }

    #[test]
    fn flat_mapping_distributes_everything() {
        let sym = sym_for_grid();
        let m = map_tree(
            &sym,
            4,
            MapStrategy::Flat {
                use_2d: false,
                nb: 48,
            },
        );
        assert!(m.validate(&sym));
        assert!(m.group.iter().all(|&g| g == (0, 4)));
        assert!(m.layout.iter().all(|&l| l
            == Layout::Grid {
                pr: 1,
                pc: 4,
                nb: 48
            }));
    }

    #[test]
    fn one_rank_is_all_local() {
        let sym = sym_for_grid();
        let m = map_tree(&sym, 1, MapStrategy::default());
        assert!(m.layout.iter().all(|&l| l == Layout::Local));
    }

    #[test]
    fn rank_schedule_orders_locals_by_deadline() {
        let sym = sym_for_grid();
        let p = 8;
        let m = map_tree(&sym, p, MapStrategy::default());
        let plan = Plan::new(&sym, &m);
        for me in 0..p {
            let runs = plan.runs.iter().filter(|r| r.owner == Some(me));
            let sched = m.rank_schedule(&sym, me, runs.map(|r| &r.sns));
            assert!(sched.grid.windows(2).all(|w| w[0] < w[1]), "postorder");
            assert!(sched.local.windows(2).all(|w| w[0] < w[1]), "sorted");
            for &(d, s) in &sched.local {
                assert!(d == usize::MAX || d < sched.grid.len());
                let par = sym.tree.parent[s];
                if par != NONE && m.layout[par] == Layout::Local {
                    // Local subtrees share one deadline and stay internally
                    // postordered, so running in list order is dependency-safe.
                    let at = |x| sched.local.iter().position(|&e| e == x).unwrap();
                    assert!(at((d, par)) > at((d, s)), "child before parent");
                }
            }
            let expect = (0..sym.nsuper()).filter(|&s| m.participates(s, me)).count();
            assert_eq!(sched.grid.len() + sched.local.len(), expect);
        }
    }

    /// The most update entries alive at once in a sequential run: when
    /// front `s` starts (postorder), its children's updates and every
    /// other update still waiting for its parent are alive next to its own.
    /// Counted in the layout's entries (`update_len`), as the arenas are.
    fn live_stack(sym: &Symbolic) -> usize {
        let entries = |s: usize| update_len(sym.sn_rows[s].len());
        let (mut live, mut most) = (0usize, 0usize);
        for s in 0..sym.nsuper() {
            live += entries(s);
            most = most.max(live);
            live -= sym.tree.children[s]
                .iter()
                .map(|&c| entries(c))
                .sum::<usize>();
        }
        most
    }

    /// Run the fronts of `order` as an engine does, on the arenas `plan`
    /// lays out, and assert that no update is written over one still live
    /// in the same arena. An update lives from the start of its front until
    /// its parent is assembled; with `ships`, a run's root is shipped (and
    /// dead) as soon as it is factored. Returns the highest entry written
    /// in each arena.
    fn replay(
        sym: &Symbolic,
        plan: &Plan,
        order: impl IntoIterator<Item = usize>,
        ships: bool,
    ) -> Vec<usize> {
        let mut live: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); plan.threads];
        let mut peak = vec![0; plan.threads];
        for s in order {
            let (w, a, n) = (plan.runner(s), plan.at[s], update_len(sym.sn_rows[s].len()));
            if n > 0 {
                for &(b, e, x) in &live[w] {
                    assert!(a + n <= b || e <= a, "{s} is written over {x} in arena {w}");
                }
                live[w].push((a, a + n, s));
                peak[w] = peak[w].max(a + n);
            }
            for &c in &sym.tree.children[s] {
                live.iter_mut().for_each(|l| l.retain(|&(_, _, x)| x != c));
            }
            let run = &plan.runs[plan.runs.partition_point(|r| r.sns.end <= s)];
            if ships && run.sns.end == s + 1 {
                live[w].retain(|&(_, _, x)| x != s);
            }
        }
        peak
    }

    /// The entries of rank `me`'s largest share of a grid front: the
    /// blocks on or below the diagonal at its grid position, whole.
    fn largest_share(sym: &Symbolic, map: &Mapping, me: usize) -> usize {
        let share = |s: usize| {
            let Layout::Grid { pr, pc, nb } = map.layout[s] else {
                return 0;
            };
            let (f, rel) = (sym.front_order(s), me - map.group[s].0);
            let (n, len) = (f.div_ceil(nb), |b: usize| nb.min(f - b * nb));
            let blocks = (0..n).flat_map(|bj| (bj..n).map(move |bi| (bi, bj)));
            let mine = blocks.filter(|&(bi, bj)| (bi % pr, bj % pc) == (rel / pc, rel % pc));
            mine.map(|(bi, bj)| len(bi) * len(bj)).sum()
        };
        let groups = (0..sym.nsuper()).filter(|&s| map.participates(s, me));
        groups.map(share).max().unwrap_or(0)
    }

    /// A small matrix of each family the benchmark runs, after nested
    /// dissection.
    fn small_problems() -> Vec<Symbolic> {
        [
            gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint),
            gen::laplace2d(40, 40, gen::Stencil2d::FivePoint),
            gen::elasticity3d(5, 5, 5),
        ]
        .iter()
        .map(|a| {
            let fill = parfact_order::order_matrix(a, parfact_order::Method::default());
            analyze(&fill.apply_sym_lower(a), &AmalgOpts::default()).0
        })
        .collect()
    }

    #[test]
    fn layouts_are_conflict_free_in_every_engines_order() {
        for sym in small_problems() {
            // Sequential: postorder, one arena.
            let plan = Plan::host(&sym, 1);
            assert_eq!(replay(&sym, &plan, 0..sym.nsuper(), false), plan.arena);
            assert!(plan.arena[0] >= live_stack(&sym));
            // SMP: each thread's runs, then the top on thread 0's arena.
            for t in [2, 3, 4] {
                let plan = Plan::host(&sym, t);
                let runs = |o| plan.runs.iter().filter(move |r| r.owner == o);
                let order = (0..t).flat_map(|w| runs(Some(w))).chain(runs(None));
                let order = order.flat_map(|r| r.sns.clone());
                assert_eq!(replay(&sym, &plan, order, false), plan.arena, "t = {t}");
            }
            // Dist: every rank's local fronts in the order of either
            // schedule; a run's root is shipped at once. The largest grid
            // share fits past every update written, so a share fits past
            // the live ones wherever they end (`dist::factorize_rank`).
            for p in [2, 8, 64] {
                let map = map_tree(&sym, p, MapStrategy::default());
                let plan = Plan::new(&sym, &map);
                for me in 0..p {
                    let runs = plan.runs.iter().filter(|r| r.owner == Some(me));
                    let sched = map.rank_schedule(&sym, me, runs.map(|r| &r.sns));
                    let by_deadline = sched.local.iter().map(|&(_, s)| s);
                    let sync = (0..sym.nsuper())
                        .filter(|&s| map.participates(s, me) && map.layout[s] == Layout::Local);
                    for order in [by_deadline.collect::<Vec<_>>(), sync.collect()] {
                        let peak = replay(&sym, &plan, order, true);
                        let share = largest_share(&sym, &map, me);
                        assert_eq!(plan.arena[me], peak[me] + share, "p = {p}, rank {me}");
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "benchmark-sized matrices: run in release"]
    fn host_arenas_stay_within_half_again_the_live_stack() {
        // The benchmark's lap3d-32, lap2d-400 and elas-16: every host arena
        // at 1 to 4 threads holds at most 1.5 times the largest set of
        // updates alive at once in a sequential run. Prints the arenas in
        // MB, and the dist arenas' total over 64 ranks.
        let mb = |entries: usize| entries as f64 * 8.0 / 1e6;
        for (name, a) in [
            (
                "lap3d-32",
                gen::laplace3d(32, 32, 32, gen::Stencil3d::SevenPoint),
            ),
            (
                "lap2d-400",
                gen::laplace2d(400, 400, gen::Stencil2d::FivePoint),
            ),
            ("elas-16", gen::elasticity3d(16, 16, 16)),
        ] {
            let fill = parfact_order::order_matrix(&a, parfact_order::Method::default());
            let sym = analyze(&fill.apply_sym_lower(&a), &AmalgOpts::default()).0;
            let most = live_stack(&sym);
            let mut line = format!("{name}: live stack {:.1} MB", mb(most));
            for t in 1..=4 {
                let plan = Plan::host(&sym, t);
                for (w, &len) in plan.arena.iter().enumerate() {
                    assert!(
                        len as f64 <= 1.5 * most as f64,
                        "{name}, {t} threads: arena {w} holds {len} entries for {most}"
                    );
                }
                let arenas: Vec<String> = plan
                    .arena
                    .iter()
                    .map(|&l| format!("{:.1}", mb(l)))
                    .collect();
                line += &format!(", t = {t}: {}", arenas.join(" / "));
            }
            let plan = Plan::new(&sym, &map_tree(&sym, 64, MapStrategy::default()));
            let (total, most) = (plan.arena.iter().sum(), plan.arena.iter().max());
            let most = mb(*most.unwrap_or(&0));
            println!(
                "{line}, dist p = 64: {:.1} MB over the ranks, {most:.1} the largest",
                mb(total)
            );
        }
    }

    #[test]
    fn deep_subtrees_localize() {
        let sym = sym_for_grid();
        let m = map_tree(&sym, 16, MapStrategy::default());
        // Leaves overwhelmingly map to single ranks under proportional
        // mapping (that is the point of subtree-to-subcube).
        let leaf_local = (0..sym.nsuper())
            .filter(|&s| sym.tree.children[s].is_empty())
            .filter(|&s| m.group_size(s) == 1)
            .count();
        let leaves = (0..sym.nsuper())
            .filter(|&s| sym.tree.children[s].is_empty())
            .count();
        // The tree is shallow after amalgamation, so demand a majority
        // rather than near-totality.
        assert!(
            2 * leaf_local >= leaves,
            "{leaf_local}/{leaves} leaves local"
        );
    }
}
