//! Distributed-memory multifrontal factorization on the machine simulator.
//!
//! Every rank runs `factorize_rank` (SPMD). Supernodes mapped to a single
//! rank (the local subtrees produced by subtree-to-subcube mapping) run
//! the front loop of all three engines (`crate::seq::factor_run`) on the
//! slab parts of the rank's runs, charged to the rank's virtual clock;
//! supernodes mapped to a rank group are factored as block-cyclic
//! [`front::DistFront`]s. Between fronts, the
//! **parallel extend-add** routes every Schur-complement entry from the
//! ranks that computed it to the ranks that own its position in the parent
//! front, as point-to-point messages.
//!
//! The input matrix and the symbolic analysis are replicated (read-only)
//! across ranks — in a production code `A` would be distributed, but that
//! affects none of the algorithms under study; fronts and factor blocks,
//! which dominate memory, are fully distributed and tracked per rank.
//!
//! [`DistRun::run`] writes the factor into the caller's [`Factor`] slab in
//! place, like the host engines: each rank writes the panels of its local
//! fronts and its pivot segments of its grid fronts. That is host work, so
//! no virtual clock, statistic or trace includes it; the ranks' tracked
//! memory still holds their share. The triangular solve is a machine run of
//! its own over the slab and the run's [`Mapping`] ([`DistRun::solve`]).

pub mod front;
pub mod solve;

use crate::error::FactorError;
use crate::factor::{Factor, FactorKind, FactorWriter};
use crate::frontal::{flops_partial, update_column, update_len, Buf, FrontMeter};
use crate::mapping::{Layout, MapStrategy, Mapping, Plan, RankSchedule, Runs};
use crate::seq::{factor_run, Slab};
use crate::sweep;
use front::{cyclic, DistFront};
use parfact_mpsim::model::CostModel;
use parfact_mpsim::{Fault, FaultCounts, FaultPlan, Machine, Rank, RunVerdict};
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::perm::Perm;
use parfact_symbolic::{Symbolic, NONE};
use parfact_trace::{Phase, SpanEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// Extend-add message tag: the namespace is per *child* (sender side), so
/// concurrent children of one parent cannot collide. Goes through the
/// single [`front::tag`] constructor like every other tag in the engine.
fn ext_tag(child: usize) -> u64 {
    front::tag(child, front::PHASE_EXTADD)
}

/// One extend-add contribution list headed to a single rank: **values
/// only**, in the canonical enumeration order both sides can regenerate.
type ExtBuf = Vec<f64>;

/// How a rank ships extend-add contributions to remote owners.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sends {
    /// Blocking sends and no panel lookahead: the strict-postorder
    /// schedule (the EXP-A7 ablation baseline).
    Blocking,
    /// Nonblocking sends ([`Rank::isend`]): the event-driven schedule.
    Nonblocking,
    /// Checkpoint mode: sends destined to a distributed parent are
    /// buffered in [`RankState::pending`], keyed by the *destination*
    /// supernode, and flushed when this rank itself reaches that front.
    /// Deferring the send to the epoch that consumes it means a completed
    /// epoch never has messages in flight — which is what makes a set of
    /// per-rank snapshots at the same epoch a consistent global state.
    Deferred,
}

/// The restartable per-rank state.
///
/// `Clone` is the checkpoint mechanism: a snapshot of this struct (plus the
/// local-schedule cursor and the updates then live in the rank's arena)
/// after a completed distributed front is everything a rank needs to
/// resume from that epoch. The arena itself lives in [`RankRun`], outside
/// the snapshot.
#[derive(Clone)]
struct RankState {
    /// Bytes of factor data this rank holds: whole panels of its local
    /// fronts, the pivot strips of its grid shares.
    factor_bytes: usize,
    /// Extend-add contributions this rank stashed for itself (dest == self).
    self_stash: HashMap<u64, ExtBuf>,
    /// Deferred sends `(dst, tag, values)` by consuming front
    /// ([`Sends::Deferred`] only).
    pending: HashMap<usize, Vec<(usize, u64, ExtBuf)>>,
    sends: Sends,
}

/// One rank's run of the SPMD program: the machine handle, the replicated
/// problem and plan, its local runs, the restartable state and its arena.
struct RankRun<'a, 's> {
    rank: &'a mut Rank,
    ap: &'a CscMatrix,
    sym: &'a Symbolic,
    map: &'a Mapping,
    plan: &'a Plan,
    runs: &'a mut Runs<Slab<'s>>,
    out: &'a FactorWriter<'a>,
    st: RankState,
    arena: Vec<f64>,
}

/// The SPMD factorization program. All ranks call this with identical
/// (replicated) `ap`, `sym`, `map` and its `plan`, one writer over the grid
/// fronts' panels and their own local `runs`, and fill their share of the
/// slab; it returns the bytes of factor the rank holds. Only
/// `FactorKind::Llt` is supported distributed (the paper's SPD scaling
/// study); use SMP/seq for LDLᵀ.
///
/// With `sync` set, every rank walks its supernodes in strict postorder
/// over blocking sends/receives — the ablation baseline (EXP-A7).
/// Otherwise the rank runs an **event-driven schedule**: distributed
/// supernodes keep their postorder (their collectives must line up across
/// the group), but local subtrees are moved around them by deadline — a
/// subtree must finish before the distributed ancestor that consumes its
/// update runs, and is otherwise free to fill the gaps while extend-add
/// messages for the next distributed front are still in flight. Sends go
/// out nonblocking ([`Rank::isend`]) so their modelled transfer time hides
/// under that compute.
///
/// With a `store` (event-driven schedule only) the run checkpoints: sends
/// to distributed parents are deferred until the sender itself reaches the
/// consuming front ([`Sends::Deferred`]) and the rank state is snapshotted
/// into the store after every completed distributed front. On entry the
/// rank restores the latest snapshot the store holds for it (the driver
/// has already rewound the store to a consistent cut) into a fresh arena
/// and resumes from the epoch after it — so a restarted machine re-executes
/// only the epochs past the cut, and rewrites the slab panels of every
/// front past it with the same bits.
///
/// Factors are **bitwise identical** in every mode: message matching stays
/// `(src, tag)` and extend-add contributions are accumulated in canonical
/// (child ascending, source-rank ascending) order no matter when they
/// travelled or arrived.
#[allow(clippy::too_many_arguments)]
fn factorize_rank(
    rank: &mut Rank,
    ap: &CscMatrix,
    sym: &Symbolic,
    map: &Mapping,
    plan: &Plan,
    runs: &mut Runs<Slab<'_>>,
    out: &FactorWriter<'_>,
    sync: bool,
    store: Option<&CheckpointStore>,
) -> Result<usize, FactorError> {
    debug_assert!(
        !(sync && store.is_some()),
        "checkpoints need deferred sends"
    );
    let me = rank.rank();
    let sends = match (sync, store) {
        (true, _) => Sends::Blocking,
        (false, None) => Sends::Nonblocking,
        (false, Some(_)) => Sends::Deferred,
    };
    let mut run = RankRun {
        rank,
        ap,
        sym,
        map,
        plan,
        runs,
        out,
        st: RankState {
            factor_bytes: 0,
            self_stash: HashMap::new(),
            pending: HashMap::new(),
            sends,
        },
        arena: vec![0.0; plan.arena[me]],
    };

    if sync {
        for s in (0..sym.nsuper()).filter(|&s| map.participates(s, me)) {
            match map.layout[s] {
                Layout::Local => run.do_local(s)?,
                Layout::Grid { .. } => run.do_grid(s, None)?,
            }
        }
        return Ok(run.st.factor_bytes);
    }

    let sched = map.rank_schedule(sym, me, run.runs.iter().map(|(sns, _)| sns));
    let mut next = 0usize; // next unprocessed entry of sched.local
    let mut start = 0usize; // first unprocessed entry of sched.grid
    if let Some((pos, snap)) = store.and_then(|cs| cs.restore(me, &sched)) {
        for (s, data) in snap.updates {
            run.arena[plan.at[s]..][..data.len()].copy_from_slice(&data);
        }
        (run.st, next, start) = (snap.st, snap.next_local, pos + 1);
    }
    for (gi, &g) in sched.grid.iter().enumerate().skip(start) {
        // Local subtrees due at this distributed front must finish first:
        // peer ranks of the group block on their extend-add contributions,
        // and entering the front's collectives while they still wait would
        // deadlock the group.
        while next < sched.local.len() && sched.local[next].0 <= gi {
            run.do_local(sched.local[next].1)?;
            next += 1;
        }
        // Deferred sends into this front go out before any blocking probe
        // — every participant flushes before it waits, so the group cannot
        // deadlock on its own deferred messages.
        if let Some(deferred) = run.st.pending.remove(&g) {
            for (dst, tag, buf) in deferred {
                run.rank.isend(dst, tag, buf);
            }
        }
        // Probe the extend-add messages this front expects. `probe_all`
        // waits (physically) until every header is posted but leaves the
        // virtual clock untouched — the latest arrival is the horizon the
        // front cannot start before, so any local subtree whose estimated
        // cost fits below it runs for free, hidden under the wait.
        let expected = expected_ext_keys(sym, map, g, me);
        let arrivals = run.rank.probe_all(&expected);
        let horizon = arrivals.iter().fold(run.rank.clock(), |m, &a| m.max(a));
        while next < sched.local.len() {
            let s = sched.local[next].1;
            if run.rank.clock() + local_cost_estimate(sym, s, run.rank.model()) > horizon {
                break;
            }
            run.do_local(s)?;
            next += 1;
        }
        // Receive the messages in virtual-arrival order, ties broken by
        // `(src, tag)`, then let `do_grid` fold the buffers in canonical
        // order (bitwise determinism).
        let mut order: Vec<(f64, (usize, u64))> = arrivals.into_iter().zip(expected).collect();
        order.sort_by(|a, b| a.partial_cmp(b).expect("NaN arrival"));
        let bufs: HashMap<(usize, u64), ExtBuf> = order
            .into_iter()
            .map(|(_, (src, tag))| ((src, tag), run.rank.recv(src, tag)))
            .collect();
        run.do_grid(g, Some(bufs))?;
        if let Some(cs) = store {
            cs.record(g, &run, &sched.local[..next]);
        }
    }
    // Local subtrees nothing distributed ever consumes (they end at roots).
    while next < sched.local.len() {
        run.do_local(sched.local[next].1)?;
        next += 1;
    }
    Ok(run.st.factor_bytes)
}

/// One rank's restartable frontier: the full mutable state after a
/// completed distributed front, how far through its local schedule and a
/// copy of each update then live. Everything after can be replayed.
#[derive(Clone)]
struct RankSnapshot {
    st: RankState,
    next_local: usize,
    updates: Vec<(usize, Vec<f64>)>,
}

/// Per-rank checkpoint snapshots, shared across simulator runs so a
/// restarted machine can resume from the last epoch every rank completed.
///
/// An **epoch** is the global postorder index of a distributed (grid)
/// front. Under the deferred-send discipline of a checkpointing
/// `factorize_rank`, a rank that has completed front `g` has consumed
/// every message any front `<= g` needed and has *sent nothing* any front
/// `> g` consumes (those sends sit in `RankState::pending`, inside the
/// snapshot). A cut at the minimum completed epoch across ranks is
/// therefore consistent: restoring every rank to its largest snapshot
/// at-or-below the cut re-creates a machine state with no in-flight
/// messages, from which a fresh run replays to a bitwise-identical factor.
pub struct CheckpointStore {
    slots: Vec<Mutex<BTreeMap<usize, RankSnapshot>>>,
}

impl CheckpointStore {
    /// Empty store for a `p`-rank machine.
    pub fn new(p: usize) -> Self {
        CheckpointStore {
            slots: (0..p).map(|_| Mutex::new(BTreeMap::new())).collect(),
        }
    }

    /// Snapshot `run` after distributed front `g`, with `done` the entries
    /// of its local schedule run so far. Their live updates wait for a
    /// local parent not run yet (a run's root was shipped).
    fn record(&self, g: usize, run: &RankRun<'_, '_>, done: &[(usize, usize)]) {
        let (sym, map) = (run.sym, run.map);
        let live = done.iter().filter(|&&(due, s)| {
            let p = sym.tree.parent[s];
            p != NONE && map.layout[p] == Layout::Local && done.binary_search(&(due, p)).is_err()
        });
        let updates = live.map(|&(_, s)| {
            let n = update_len(sym.sn_rows[s].len());
            (s, run.arena[run.plan.at[s]..][..n].to_vec())
        });
        self.slots[run.rank.rank()].lock().unwrap().insert(
            g,
            RankSnapshot {
                st: run.st.clone(),
                next_local: done.len(),
                updates: updates.collect(),
            },
        );
    }

    /// The latest snapshot of rank `me`, with its position in the rank's
    /// grid schedule (resume restarts at `pos + 1`).
    fn restore(&self, me: usize, sched: &RankSchedule) -> Option<(usize, RankSnapshot)> {
        let slot = self.slots[me].lock().unwrap();
        let (&g, snap) = slot.iter().next_back()?;
        let pos = sched
            .grid
            .iter()
            .position(|&x| x == g)
            .expect("snapshot for a front outside this rank's schedule");
        Some((pos, snap.clone()))
    }

    /// After a failed attempt: compute the machine-wide consistent cut (the
    /// first epoch some rank has not completed) and drop every snapshot at
    /// or beyond it, so the next attempt restores a mutually consistent
    /// state. Returns the cut (exclusive) for diagnostics; `usize::MAX`
    /// means every rank finished its distributed work.
    pub fn rewind_to_consistent_cut(&self, sym: &Symbolic, map: &Mapping) -> usize {
        let mut cut = usize::MAX;
        for (r, slot) in self.slots.iter().enumerate() {
            let grid = map.rank_schedule(sym, r, []).grid;
            let last = slot.lock().unwrap().keys().next_back().copied();
            // First own front this rank has *not* completed: everything
            // strictly below it is done from r's perspective.
            let next_own = match last {
                None => grid.first().copied(),
                Some(l) => grid.iter().copied().find(|&g| g > l),
            };
            cut = cut.min(next_own.unwrap_or(usize::MAX));
        }
        for slot in &self.slots {
            slot.lock().unwrap().retain(|&g, _| g < cut);
        }
        cut
    }
}

/// What a simulated rank is charged for a locally-factored front: the
/// front and the panel are tracked rank memory, assembly and the partial
/// factorization advance the virtual clock by their modelled flops
/// ([`assembly_flops`], [`flops_partial`], not per kernel step). Update
/// matrices in flight between local fronts are not tracked.
impl FrontMeter for Rank {
    type Tick = ();

    fn start(&mut self) {}

    fn assembled(&mut self, (): (), sym: &Symbolic, s: usize, _: u64) {
        self.compute_as(assembly_flops(sym, s), Phase::ExtendAdd, Some(s));
    }

    fn step(&mut self, (): (), _: Phase, _: usize) {}

    fn factored(&mut self, s: usize, flops: f64) {
        self.compute_as(flops, Phase::Panel, Some(s));
    }

    fn hold(&mut self, buf: Buf, bytes: usize) {
        if buf != Buf::Update {
            self.alloc(bytes);
        }
    }

    fn release(&mut self, buf: Buf, bytes: usize) {
        if buf != Buf::Update {
            self.free(bytes);
        }
    }
}

impl RankRun<'_, '_> {
    /// Factor one single-rank supernode with the engines' front loop on its
    /// run's slab part and the rank's arena; a run's root ships its update
    /// to the parent at once.
    fn do_local(&mut self, s: usize) -> Result<(), FactorError> {
        let (ap, sym, plan) = (self.ap, self.sym, self.plan);
        let i = self.runs.partition_point(|(sns, _)| sns.end <= s);
        let (sns, out) = &mut self.runs[i];
        let root = s + 1 == sns.end;
        let (arena, rank) = (&mut self.arena, &mut *self.rank);
        factor_run(ap, sym, plan, s..s + 1, out, arena, &[], rank, 1).map_err(|(_, e)| e)?;
        self.st.factor_bytes += sym.front_order(s) * sym.sn_width(s) * 8;
        let r = sym.sn_rows[s].len();
        if root && r > 0 {
            // Out of `self` while `send_update` borrows it.
            let arena = std::mem::take(&mut self.arena);
            let upd = &arena[plan.at[s]..][..update_len(r)];
            self.send_update(s, |j, rows| {
                &upd[update_column(r, j)][rows.start - j..rows.end - j]
            });
            self.arena = arena;
        }
        Ok(())
    }

    /// Factor one distributed supernode: assemble A entries and extend-add
    /// contributions (from `bufs` when the event-driven scheduler
    /// pre-drained them, from blocking receives otherwise), run the
    /// block-cyclic partial factorization, and ship the Schur complement to
    /// the parent.
    fn do_grid(
        &mut self,
        s: usize,
        mut bufs: Option<HashMap<(usize, u64), ExtBuf>>,
    ) -> Result<(), FactorError> {
        let (sym, map) = (self.sym, self.map);
        let me = self.rank.rank();
        let (c0, c1) = (sym.sn_ptr[s], sym.sn_ptr[s + 1]);
        let w = c1 - c0;
        let f = sym.front_order(s);
        let Layout::Grid { pr, pc, nb } = map.layout[s] else {
            unreachable!("do_grid on a local supernode");
        };
        let lo = map.group[s].0;
        let mut df = DistFront::new(s, f, w, pr, pc, nb, lo, self.rank);
        let my = df.my;
        // Assemble my share of the original-matrix entries: my columns only,
        // and of those the rows in my block rows.
        let mut nassemble = 0usize;
        for c in c0..c1 {
            let (gc, lc) = cyclic(c - c0, nb, pc);
            if gc != my.1 {
                continue;
            }
            let (r0, col) = df.col_mut(lc);
            let k = self.ap.colptr()[c]..self.ap.colptr()[c + 1];
            for (&p, &v) in sym.a_pos[k.clone()].iter().zip(&self.ap.values()[k]) {
                let (gr, lr) = cyclic(p as usize, nb, pr);
                if gr == my.0 {
                    col[lr - r0] += v;
                    nassemble += 1;
                }
            }
        }
        self.rank
            .compute_as(nassemble as f64, Phase::ExtendAdd, Some(s));
        // Fold extend-add contributions: one message from every rank of every
        // child's group, accumulated children-ascending, sources in group
        // order — the canonical order both schedules share.
        for &c in &sym.tree.children[s] {
            let (clo, chi) = map.group[c];
            let em = ExtMap::new(sym, map, s, c);
            let (own, own_before) = em.rows_owned_by(my.0);
            for q in clo..chi {
                let vals = if q == me {
                    self.st.self_stash.remove(&ext_tag(c)).unwrap_or_default()
                } else if let Some(bufs) = bufs.as_mut() {
                    bufs.remove(&(q, ext_tag(c)))
                        .expect("pre-drained extend-add buffer")
                } else {
                    self.rank.recv::<ExtBuf>(q, ext_tag(c))
                };
                // Walk q's canonical segment stream; my share of the values
                // arrives in exactly that order: nothing for a column that is
                // not mine, else one value per row of the segment in my
                // block rows, all into one column of one strip.
                let mut rest = &vals[..];
                for_each_update_segment(sym, map, c, q, |j, rows| {
                    let (gc, lc) = em.col[j];
                    if gc != my.1 {
                        return;
                    }
                    let (r0, col) = df.col_mut(lc);
                    let own = &own[own_before[rows.start]..own_before[rows.end]];
                    let (seg, tail) = rest.split_at(own.len());
                    for (&lr, &v) in own.iter().zip(seg) {
                        col[lr - r0] += v;
                    }
                    rest = tail;
                });
                debug_assert!(rest.is_empty(), "extend-add stream mismatch");
                self.rank
                    .compute_as(vals.len() as f64, Phase::ExtendAdd, Some(s));
            }
        }
        // Distributed partial factorization (panel lookahead unless the
        // schedule is the blocking one).
        df.factorize(self.rank, c0, self.st.sends != Sends::Blocking)?;
        // Ship the Schur complement to the parent.
        if f > w && sym.tree.parent[s] != NONE {
            self.send_update(s, |j, rows| {
                let (r0, col) = df.col(cyclic(w + j, nb, pc).1);
                let lr = cyclic(w + rows.start, nb, pr).1;
                &col[lr - r0..lr - r0 + rows.len()]
            });
        }
        // Retain pivot blocks (their values go to the slab); release
        // pure-Schur blocks.
        let released = df.release_schur();
        self.rank.free(released);
        self.st.factor_bytes += df.bytes();
        // SAFETY: every rank of the grid writes its own segments of panel
        // `s` here, and no other rank touches that panel.
        unsafe { df.write_pivots(self.out) };
        Ok(())
    }

    /// Split child `s`'s update among the owners of its distributed parent
    /// and ship the pieces. `segment(j, rows)` is this rank's stored slice
    /// of update column `j` over `rows`, for every segment
    /// [`for_each_update_segment`] names; a whole segment goes to one grid
    /// column, each entry to the grid row of its row.
    fn send_update<'d>(
        &mut self,
        s: usize,
        segment: impl Fn(usize, std::ops::Range<usize>) -> &'d [f64],
    ) {
        let (sym, map) = (self.sym, self.map);
        let parent = sym.tree.parent[s];
        let Layout::Grid { pr, pc, .. } = map.layout[parent] else {
            // Nested rank groups make this impossible: a parent's group
            // contains the child's, so it cannot be smaller.
            unreachable!("a distributed front cannot have a single-rank parent");
        };
        let em = ExtMap::new(sym, map, parent, s);
        // Per-destination-rank slices, indexed by relative grid rank (so the
        // emission order is fixed).
        let mut parts: Vec<ExtBuf> = vec![Default::default(); pr * pc];
        for_each_update_segment(sym, map, s, self.rank.rank(), |j, rows| {
            let gc = em.col[j].0;
            let vals = segment(j, rows.clone());
            for (&(gr, _), &v) in em.row[rows].iter().zip(vals) {
                parts[gr * pc + gc].push(v);
            }
        });
        self.ship(s, parent, parts);
    }

    /// Hand child `s`'s extend-add contributions to the owners of its
    /// distributed `parent`: `parts[rel]` goes to the `rel`-th rank of the
    /// parent's group.
    ///
    /// Extend-add messages carry **values only**: the coordinate stream is
    /// deterministic (canonical enumeration order shared by sender and
    /// receiver), so indices never go on the wire, and receivers expect
    /// exactly one message per child rank — so a buffer goes to every
    /// destination, empty if this rank computed nothing for it. The
    /// event-driven schedule sends them nonblocking — the receiver matches
    /// by `(src, tag)` whenever it gets there, and the modelled transfer
    /// hides under the sender's subsequent compute.
    fn ship(&mut self, s: usize, parent: usize, parts: Vec<ExtBuf>) {
        let plo = self.map.group[parent].0;
        for (rel, buf) in parts.into_iter().enumerate() {
            let dst = plo + rel;
            if dst == self.rank.rank() {
                self.st.self_stash.insert(ext_tag(s), buf);
                continue;
            }
            match self.st.sends {
                Sends::Blocking => self.rank.send(dst, ext_tag(s), buf),
                Sends::Nonblocking => self.rank.isend(dst, ext_tag(s), buf),
                Sends::Deferred => {
                    let list = self.st.pending.entry(parent).or_default();
                    list.push((dst, ext_tag(s), buf));
                }
            }
        }
    }
}

/// The `(src, tag)` keys of every extend-add message distributed supernode
/// `s` expects from remote ranks.
fn expected_ext_keys(sym: &Symbolic, map: &Mapping, s: usize, me: usize) -> Vec<(usize, u64)> {
    let mut keys = Vec::new();
    for &c in &sym.tree.children[s] {
        let (clo, chi) = map.group[c];
        for q in clo..chi {
            if q != me {
                keys.push((q, ext_tag(c)));
            }
        }
    }
    keys
}

/// Modelled cost of assembling local supernode `s`: one add per entry of
/// its children's update matrices.
fn assembly_flops(sym: &Symbolic, s: usize) -> f64 {
    let adds = sym.tree.children[s].iter().map(|&c| {
        let r = sym.sn_rows[c].len();
        (r * (r + 1) / 2) as f64
    });
    adds.sum()
}

/// Modelled seconds a local supernode's factorization will take — the
/// greedy-fill budget check of the event-driven scheduler: exactly what
/// `impl FrontMeter for Rank` will charge for it.
fn local_cost_estimate(sym: &Symbolic, s: usize, model: &CostModel) -> f64 {
    let fl = flops_partial(sym.front_order(s), sym.sn_width(s)) + assembly_flops(sym, s);
    fl * model.flop_time_s
}

/// The canonical order of the update (Schur complement) entries of
/// supernode `child` held by machine rank `q`, as column segments: `cb(j,
/// rows)` stands for entries `(i, j)`, `i` ascending over `rows`, both
/// indexing the child's `sn_rows`. Sender and receiver both walk this —
/// the sender to cut its update into per-owner value lists, the receiver to
/// regenerate the coordinates of the values it was sent — which is why
/// extend-add messages carry no indices.
///
/// A single-rank child holds the whole lower triangle column by column; a
/// rank of a distributed child holds its blocks in `(bi, bj)` order, each
/// column-major, clipped to the update part (`>= w`) and, on diagonal
/// blocks, to the lower triangle.
fn for_each_update_segment(
    sym: &Symbolic,
    map: &Mapping,
    child: usize,
    q: usize,
    mut cb: impl FnMut(usize, std::ops::Range<usize>),
) {
    let w = sym.sn_width(child);
    let f = sym.front_order(child);
    match map.layout[child] {
        Layout::Local => (0..f - w).for_each(|j| cb(j, j..f - w)),
        Layout::Grid { pr, pc, nb } => {
            let rel = q - map.group[child].0;
            let my = (rel / pc, rel % pc);
            for bi in (my.0..f.div_ceil(nb)).step_by(pr) {
                let row_end = f.min((bi + 1) * nb);
                let my_cols = (my.1..=bi).step_by(pc);
                for lj in my_cols.flat_map(|bj| bj * nb..f.min((bj + 1) * nb)) {
                    // `lj <= li` is the lower-triangle clip of a diagonal
                    // block and no clip at all below the diagonal.
                    let row_start = w.max(bi * nb).max(lj);
                    if lj >= w && row_start < row_end {
                        cb(lj - w, row_start - w..row_end - w);
                    }
                }
            }
        }
    }
}

/// Where a child's update lands in its block-cyclic parent front, decided
/// once per child row — not per entry: for child row `i` (an index into the
/// child's `sn_rows`), `row[i]` is the grid row owning the parent-front row
/// it maps to (the child's relative index `sym.sn_rel[child][i]`) and that
/// row's local index there, `col[i]` the same along the grid columns (see
/// [`front::cyclic`]). Entry `(i, j)` of the update belongs to grid position
/// `(row[i].0, col[j].0)`. The sender reads the owners, the receiver the
/// local indices of what it owns.
struct ExtMap {
    row: Vec<(usize, usize)>,
    col: Vec<(usize, usize)>,
}

impl ExtMap {
    fn new(sym: &Symbolic, map: &Mapping, parent: usize, child: usize) -> Self {
        let Layout::Grid { pr, pc, nb } = map.layout[parent] else {
            unreachable!("extend-add into a single-rank parent is a local assembly");
        };
        let (row, col) = sym.sn_rel[child]
            .iter()
            .map(|&g| (cyclic(g as usize, nb, pr), cyclic(g as usize, nb, pc)))
            .unzip();
        ExtMap { row, col }
    }

    /// The child rows that land in the block rows of grid row `gr`, as
    /// local rows there in child-row order, and how many of them precede
    /// each child row — so the owned part of child rows `a..b` is
    /// `own[before[a]..before[b]]`.
    fn rows_owned_by(&self, gr: usize) -> (Vec<usize>, Vec<usize>) {
        let mine = self.row.iter().filter(|&&(g, _)| g == gr);
        let own = mine.map(|&(_, lr)| lr).collect();
        let mut before = vec![0usize; self.row.len() + 1];
        for (i, &(g, _)) in self.row.iter().enumerate() {
            before[i + 1] = before[i] + usize::from(g == gr);
        }
        (own, before)
    }
}

/// What a distributed factorization produces, with *simulated* times. `F`
/// is the factor: [`run_distributed_prepared`] allocates one and hands it
/// back here, [`DistRun::run`] writes the caller's slab and reports `()`.
pub struct DistOutcome<F = Factor> {
    /// The factor the run wrote.
    pub factor: F,
    /// The tree-to-rank mapping the run factored under: where each panel
    /// lives, for the distributed solve and the scalability model.
    pub map: Mapping,
    /// Simulated numeric-factorization makespan (seconds).
    pub factor_time_s: f64,
    /// Per-rank statistics at the end of the factorization.
    pub stats: Vec<parfact_mpsim::RankStats>,
    /// The src x dst x tag-class communication matrix of the run. `Some`
    /// iff the run recorded it — see [`DistRun::comm`].
    pub comm: Option<parfact_trace::CommMatrixReport>,
    /// Max per-rank factor bytes held at the end.
    pub max_factor_bytes: usize,
    /// Total flops across ranks during factorization.
    pub total_flops: f64,
    /// Per-rank recorded events, virtual timestamps (empty unless the run
    /// was traced — see [`DistRun::timeline`]).
    pub events: Vec<Vec<SpanEvent>>,
    /// The solve [`run_distributed_prepared`] chains when it is given a
    /// right-hand side (`None` otherwise).
    pub solve: Option<DistSolve>,
}

impl<F> DistOutcome<F> {
    /// Modelled factorization Gflop/s over the makespan.
    pub fn factor_gflops(&self) -> f64 {
        if self.factor_time_s > 0.0 {
            self.total_flops / self.factor_time_s / 1e9
        } else {
            0.0
        }
    }

    /// Max per-rank peak tracked memory (fronts + factor), bytes.
    pub fn max_mem_peak(&self) -> u64 {
        self.stats.iter().map(|s| s.mem_peak).max().unwrap_or(0)
    }

    /// Per-rank statistics in the shared report schema.
    pub fn rank_reports(&self) -> Vec<parfact_trace::RankReport> {
        self.stats
            .iter()
            .enumerate()
            .map(|(r, s)| s.to_report(r))
            .collect()
    }

    /// The recorded events of every rank, merged and sorted into the
    /// canonical span order.
    pub fn merged_events(&self) -> Vec<SpanEvent> {
        let mut all: Vec<SpanEvent> = self.events.iter().flatten().cloned().collect();
        parfact_trace::sort_spans(&mut all);
        all
    }

    /// The same outcome around another factor.
    fn with_factor<G>(self, factor: G, solve: Option<DistSolve>) -> DistOutcome<G> {
        DistOutcome {
            factor,
            map: self.map,
            factor_time_s: self.factor_time_s,
            stats: self.stats,
            comm: self.comm,
            max_factor_bytes: self.max_factor_bytes,
            total_flops: self.total_flops,
            events: self.events,
            solve,
        }
    }
}

/// What a distributed solve ([`DistRun::solve`]) produces: the solution
/// and the *simulated* statistics of its own machine run.
pub struct DistSolve {
    /// `X` of `A X = B` in the original index space: `n x nrhs`
    /// column-major, like the right-hand-side block.
    pub x: Vec<f64>,
    /// Simulated triangular-solve makespan (seconds).
    pub time_s: f64,
    /// Per-rank statistics at the end of the solve.
    pub stats: Vec<parfact_mpsim::RankStats>,
    /// The solve's communication matrix (see [`DistRun::comm`]).
    pub comm: Option<parfact_trace::CommMatrixReport>,
    /// Per-rank solve lanes, virtual timestamps from the solve's start
    /// (empty unless traced — see [`DistRun::timeline`]).
    pub events: Vec<Vec<SpanEvent>>,
}

/// Run ordering + analysis on the host, then factor (and optionally solve)
/// on a simulated `p`-rank machine with the event-driven schedule. The
/// distributed engine is `LLᵀ` only, mirroring the paper's SPD scaling
/// study; a matrix that is not SPD returns
/// [`FactorError::NotPositiveDefinite`] like the host engines.
pub fn run_distributed(
    p: usize,
    model: CostModel,
    a: &CscMatrix,
    ordering: parfact_order::Method,
    amalg: &parfact_symbolic::AmalgOpts,
    strategy: MapStrategy,
    b: Option<&[f64]>,
) -> Result<DistOutcome, FactorError> {
    let (sym, ap, total_perm) = prepare(a, ordering, amalg);
    run_distributed_prepared(p, model, &ap, &sym, &total_perm, strategy, false, b)
}

/// Host-side ordering + symbolic analysis, reusable across rank counts.
pub fn prepare(
    a: &CscMatrix,
    ordering: parfact_order::Method,
    amalg: &parfact_symbolic::AmalgOpts,
) -> (Arc<Symbolic>, CscMatrix, Perm) {
    let fill = parfact_order::order_matrix(a, ordering);
    let af = fill.apply_sym_lower(a);
    let (sym, ap) = parfact_symbolic::analyze(&af, amalg);
    let total_perm = sym.post.compose(&fill);
    (Arc::new(sym), ap, total_perm)
}

/// Factor (and optionally solve for the single right-hand side `b`) a
/// prepared problem on a simulated `p`-rank machine: the positional
/// shorthand for an untraced, fault-free [`DistRun`]. It allocates the
/// factor, runs [`DistRun::run`] into it and, given `b`, chains
/// [`DistRun::solve`] over the result.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_prepared(
    p: usize,
    model: CostModel,
    ap: &CscMatrix,
    sym: &Arc<Symbolic>,
    total_perm: &Perm,
    strategy: MapStrategy,
    sync_schedule: bool,
    b: Option<&[f64]>,
) -> Result<DistOutcome, FactorError> {
    let mut run = DistRun::new(p, model, ap);
    run.opts.strategy = strategy;
    run.opts.sync_schedule = sync_schedule;
    let mut factor = Factor::allocate(sym, FactorKind::Llt, total_perm.clone());
    let out = run.run(&mut factor)?.outcome;
    let solve = b.map(|b| run.solve(&factor, &out.map, b, 1)).transpose()?;
    Ok(out.with_factor(factor, solve))
}

/// How to run a prepared problem on the simulated machine — the single
/// driver behind every distributed entry point: [`DistRun::run`] factors
/// into a [`Factor`] slab, [`DistRun::solve`] solves over it in a run of
/// its own. Build with [`DistRun::new`] and override fields by name:
///
/// ```
/// # use parfact_core::dist::{prepare, DistRun};
/// # use parfact_core::factor::{Factor, FactorKind};
/// # use parfact_mpsim::model::CostModel;
/// # let a = parfact_sparse::gen::laplace2d(8, 8, parfact_sparse::gen::Stencil2d::FivePoint);
/// let (sym, ap, perm) = prepare(&a, Default::default(), &Default::default());
/// let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm);
/// let run = DistRun {
///     comm: true,
///     ..DistRun::new(4, CostModel::bluegene_p(), &ap)
/// };
/// let out = run.run(&mut factor).unwrap().outcome;
/// assert!(out.comm.is_some());
/// let x = run.solve(&factor, &out.map, &vec![1.0; a.nrows()], 1).unwrap().x;
/// assert_eq!(x.len(), a.nrows());
/// ```
pub struct DistRun<'a> {
    /// The permuted matrix (see [`prepare`]), replicated on every rank; the
    /// factor a run writes carries the symbolic analysis and permutation.
    pub ap: &'a CscMatrix,
    /// The machine, mapping, schedule and fault plan.
    pub opts: DistOpts,
    /// Record per-rank compute spans (attributed to supernodes and phases)
    /// and communication/wait spans with virtual timestamps into
    /// [`DistOutcome::events`], and the solve's lanes into
    /// [`DistSolve::events`].
    pub timeline: bool,
    /// Record the src x dst x tag-class communication matrix
    /// ([`DistOutcome::comm`]). Like span tracing, the recording is pure
    /// counter arithmetic on the send path and never reads or writes a
    /// virtual clock, so factors and makespans stay bitwise identical with
    /// it on or off (pinned by the scalability test suite).
    pub comm: bool,
}

/// How the distributed engine runs: the simulated machine, the mapping,
/// the schedule and the fault plan. The façade's `Engine::Dist` carries one
/// and hands it to [`DistRun`] whole.
#[derive(Debug, Clone, PartialEq)]
pub struct DistOpts {
    /// Number of simulated ranks.
    pub ranks: usize,
    /// Machine cost model for the virtual clocks.
    pub model: CostModel,
    /// Assembly-tree-to-rank mapping strategy.
    pub strategy: MapStrategy,
    /// Run the strict-postorder blocking schedule instead of the default
    /// event-driven one (the EXP-A7 ablation baseline). The factor is
    /// bitwise identical either way; only the simulated clocks differ.
    /// A fault plan's checkpoints defer sends, which needs the event-driven
    /// schedule, so this with a non-empty `faults` is
    /// [`FactorError::Unsupported`].
    pub sync_schedule: bool,
    /// Deterministic fault-injection plan (see [`FaultPlan::parse`] for the
    /// `crash:`/`delay:`/`dup:` grammar). A non-empty plan turns recovery
    /// on: every rank snapshots itself after each distributed front, so a
    /// restart resumes from the [`CheckpointStore`]'s consistent cut, and
    /// receives get a deadline derived from the cost model, so a lost
    /// message surfaces as [`FactorError::TimedOut`] with full `(rank, src,
    /// tag, waited)` context. Empty by default: the fault machinery is
    /// bypassed.
    pub faults: FaultPlan,
    /// Restarts allowed after a fault verdict before it surfaces as the
    /// typed [`FactorError`] (`RankFailed` / `TimedOut` / `Deadlock`).
    pub max_restarts: usize,
}

impl Default for DistOpts {
    fn default() -> Self {
        DistOpts {
            ranks: 4,
            model: CostModel::bluegene_p(),
            strategy: MapStrategy::default(),
            sync_schedule: false,
            faults: FaultPlan::new(),
            max_restarts: 2,
        }
    }
}

/// What a distributed factorization reports on top of its [`DistOutcome`]:
/// the fault-injection and recovery record (all zero for a fault-free run).
pub struct FaultRun {
    /// The successful attempt's outcome (mapping, per-rank stats); its
    /// factor is in the caller's slab.
    pub outcome: DistOutcome<()>,
    /// Injected-fault activity accumulated over every attempt.
    pub counts: FaultCounts,
    /// Restarts performed before the run completed.
    pub restarts: u64,
    /// Sum of every attempt's virtual makespan — the end-to-end cost of the
    /// run *including* the crashed attempts, for recovery-overhead studies.
    /// A run that never restarted reports its own makespan.
    pub total_makespan_s: f64,
}

impl<'a> DistRun<'a> {
    /// An untraced run under the default [`DistOpts`] (no faults,
    /// event-driven schedule, default mapping) on `ranks` ranks of `model`.
    pub fn new(ranks: usize, model: CostModel, ap: &'a CscMatrix) -> Self {
        DistRun {
            ap,
            opts: DistOpts {
                ranks,
                model,
                ..DistOpts::default()
            },
            timeline: false,
            comm: false,
        }
    }

    /// Factor into `factor`'s slab in place (an LLᵀ factor allocated under
    /// the symbolic analysis of `ap`), running the machine and restarting
    /// after fault verdicts. Recovery follows the plan: a non-empty
    /// [`DistOpts::faults`] checkpoints and arms the receive deadline, an
    /// empty one does neither. Each attempt runs under
    /// [`Machine::run_verdict`]:
    ///
    /// - **Completed** — every panel of the slab has been overwritten by the
    ///   ranks that factored it; the rank clocks give the makespan.
    /// - A rank returning a numeric error ([`FactorError`], e.g. a non-SPD
    ///   pivot) ends the run with the lowest such rank's error immediately
    ///   — its peers are unwound by the simulator, no panic, no hang —
    ///   and degenerate inputs are never retried.
    /// - **RankFailed / TimedOut / Deadlocked** — the machine restarts with
    ///   the crash faults removed from the plan
    ///   ([`FaultPlan::without_crashes`]; link delay/duplication faults
    ///   persist), from the checkpoint store's consistent cut. After
    ///   `max_restarts` restarts the verdict surfaces as the typed
    ///   [`FactorError`] — never a hang, never a panic.
    ///
    /// Tracing never touches the virtual clocks and the recovered factor is
    /// **bitwise identical** to a fault-free run's — the properties the
    /// timeline and fault-recovery test suites pin down. On an error the
    /// slab may be partly overwritten, as with the host engines.
    pub fn run(&self, factor: &mut Factor) -> Result<FaultRun, FactorError> {
        self.run_with(factor, &CheckpointStore::new(self.opts.ranks))
    }

    /// [`DistRun::run`], checkpointing into `store` (an empty store for
    /// `opts.ranks` ranks) when the fault plan turns recovery on.
    pub(crate) fn run_with(
        &self,
        factor: &mut Factor,
        store: &CheckpointStore,
    ) -> Result<FaultRun, FactorError> {
        let (o, sym) = (&self.opts, Arc::clone(&factor.sym));
        let p = o.ranks;
        if factor.kind != FactorKind::Llt {
            return Err(FactorError::Unsupported(
                "the distributed engine factors LLt only; use Sequential or Smp for LDLt"
                    .to_string(),
            ));
        }
        let recover = !o.faults.is_empty();
        if o.sync_schedule && recover {
            return Err(FactorError::Unsupported(
                "a fault plan checkpoints by deferring sends, which needs the event-driven \
                 schedule; drop sync_schedule or the plan"
                    .to_string(),
            ));
        }
        let (MapStrategy::Proportional { nb, .. } | MapStrategy::Flat { nb, .. }) = o.strategy;
        // One rank never tiles a front, so only there is `nb` free.
        if p == 0 || (nb == 0 && p > 1) {
            return Err(FactorError::Unsupported(format!(
                "a distributed run needs at least one rank, and a positive block size \
                 to tile a front over several (got ranks = {p}, nb = {nb})"
            )));
        }
        // A fault the machine cannot apply would otherwise be ignored.
        o.faults.validate().map_err(FactorError::Unsupported)?;
        for fault in &o.faults.faults {
            let (src, dst) = match *fault {
                Fault::CrashAt { rank, .. } | Fault::CrashOnSend { rank, .. } => (rank, None),
                Fault::DelayLink { src, dst, .. } | Fault::DuplicateLink { src, dst } => {
                    (src, Some(dst))
                }
            };
            if src.max(dst.unwrap_or(0)) >= p || dst == Some(src) {
                return Err(FactorError::Unsupported(format!(
                    "fault {fault:?} names a rank outside 0..{p} or a link from a rank to itself"
                )));
            }
        }
        let map = crate::mapping::map_tree(&sym, p, o.strategy);
        assert!(map.validate(&sym), "invalid mapping");
        let store = recover.then_some(store);
        // Generous machine-wide deadline: the whole factorization's flops and
        // a factor's worth of traffic, with the model's 4x margin. It costs
        // nothing physically: the scanner fires it at quiescence, in no host
        // time.
        let timeout = recover.then(|| {
            let bytes = 8.0 * sym.factor_nnz() as f64 * p as f64;
            o.model.recv_timeout_for(sym.factor_flops(), bytes)
        });
        let mut attempt_plan = o.faults.clone();
        let mut counts = FaultCounts::default();
        let mut restarts = 0u64;
        let mut total_makespan_s = 0.0f64;
        // Each rank's local runs behind a lock of its own, which it holds
        // for an attempt; the grid fronts' panels behind the writer.
        let plan = Plan::new(&sym, &map);
        let mut rest = Slab::new(factor);
        let (runs, top) = plan.deal(|sns| rest.cut(&sym, sns.end));
        let runs: Vec<Mutex<Runs<Slab>>> = runs.into_iter().map(Mutex::new).collect();
        let out = FactorWriter::new(top.into_iter().map(|(s, part)| (s, part.panels)));
        loop {
            let mut machine = Machine::new(p, o.model)
                .trace_events(self.timeline)
                .fault_plan(attempt_plan.clone());
            if self.comm {
                machine = machine.comm_matrix(&front::COMM_CLASSES, front::comm_class);
            }
            if let Some(t) = timeout {
                machine = machine.recv_timeout(t);
            }
            let vr = machine.run_verdict(|rank| {
                // A crashed attempt unwound with the lock held; this one
                // redoes every front past its snapshot.
                let lock = runs[rank.rank()].lock();
                let mut runs = lock.unwrap_or_else(PoisonError::into_inner);
                let (sync, plan) = (o.sync_schedule, &plan);
                factorize_rank(
                    rank, self.ap, &sym, &map, plan, &mut runs, &out, sync, store,
                )
            });
            counts.merge(&vr.fault_counts);
            total_makespan_s += vr.makespan_s;
            // A numeric error outranks fault verdicts: an indefinite matrix is
            // a property of the input, not of the machine, and is not retried.
            if let Some(e) = vr
                .results
                .iter()
                .flatten()
                .find_map(|r| r.as_ref().err().cloned())
            {
                return Err(e);
            }
            if vr.verdict.is_completed() {
                // Every rank returned its factor bytes: errors ended the run.
                let bytes = vr.results.iter().flatten().flatten().max().copied();
                let outcome = DistOutcome {
                    factor: (),
                    map,
                    factor_time_s: vr.makespan_s,
                    max_factor_bytes: bytes.unwrap_or(0),
                    total_flops: vr.stats.iter().map(|s| s.flops).sum(),
                    stats: vr.stats,
                    comm: vr.comm,
                    events: vr.events,
                    solve: None,
                };
                return Ok(FaultRun {
                    outcome,
                    counts,
                    restarts,
                    total_makespan_s,
                });
            }
            if restarts >= o.max_restarts as u64 {
                return Err(verdict_error(vr.verdict));
            }
            restarts += 1;
            // Crash faults fired; keep link faults (delay/dup) live so the
            // retry exercises the same wire conditions.
            attempt_plan = attempt_plan.without_crashes();
            if let Some(cs) = store {
                cs.rewind_to_consistent_cut(&sym, &map);
            }
        }
    }

    /// Solve `A X = B` on the machine, as a run of its own over `factor`,
    /// the slab a [`DistRun::run`] wrote under `map`: `b` is an `n x nrhs`
    /// column-major block in the original index space. Each rank reads only
    /// the panels `map` gives it (see [`mod@solve`]); the run's own clocks start
    /// at zero, and no fault plan applies to it.
    pub fn solve(
        &self,
        factor: &Factor,
        map: &Mapping,
        b: &[f64],
        nrhs: usize,
    ) -> Result<DistSolve, FactorError> {
        let n = factor.sym.n;
        if b.len() != n * nrhs {
            return Err(FactorError::DimensionMismatch {
                expected: n * nrhs,
                got: b.len(),
            });
        }
        let bp = sweep::permute_in(&factor.perm, b, nrhs);
        let mut machine = Machine::new(map.nranks, self.opts.model).trace_events(self.timeline);
        if self.comm {
            machine = machine.comm_matrix(&front::COMM_CLASSES, front::comm_class);
        }
        let rep = machine.run(|rank| solve::solve_rank(rank, map, factor, &bp, nrhs));
        let xp = rep.results.into_iter().flatten().next();
        let xp = xp.ok_or(FactorError::Internal("rank 0 returned no solution"))?;
        Ok(DistSolve {
            x: sweep::permute_out(&factor.perm, &xp, nrhs),
            time_s: rep.makespan_s,
            stats: rep.stats,
            comm: rep.comm,
            events: rep.events,
        })
    }
}

/// Map a terminal machine verdict onto the factorization error taxonomy.
fn verdict_error(v: RunVerdict) -> FactorError {
    match v {
        RunVerdict::Completed => unreachable!("completed runs do not error"),
        RunVerdict::RankFailed { ranks, detail } => FactorError::RankFailed { ranks, detail },
        RunVerdict::TimedOut {
            rank,
            src,
            tag,
            waited_s,
        } => FactorError::TimedOut {
            rank,
            src,
            tag,
            waited_s,
        },
        RunVerdict::Deadlocked { detail } => FactorError::Deadlock { detail },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::reconstruction_error;
    use crate::mapping::MapStrategy;
    use parfact_mpsim::model::CostModel;
    use parfact_order::Method;
    use parfact_sparse::{gen, ops};
    use parfact_symbolic::AmalgOpts;

    fn seq_reference(a: &CscMatrix, ordering: Method) -> (Factor, CscMatrix) {
        let fill = parfact_order::order_matrix(a, ordering);
        let af = fill.apply_sym_lower(a);
        let (sym, ap) = parfact_symbolic::analyze(&af, &AmalgOpts::default());
        let perm = sym.post.compose(&fill);
        let sym = Arc::new(sym);
        let f = crate::seq::factorize_seq(&ap, &sym, FactorKind::Llt, perm).unwrap();
        (f, ap)
    }

    /// [`run_distributed`] of an SPD `a` on the Blue Gene/P model, default
    /// ordering and amalgamation.
    fn bgp(p: usize, a: &CscMatrix, strategy: MapStrategy, b: Option<&[f64]>) -> DistOutcome {
        let (ordering, amalg) = (Method::default(), AmalgOpts::default());
        run_distributed(p, CostModel::bluegene_p(), a, ordering, &amalg, strategy, b).unwrap()
    }

    #[test]
    fn dist_matches_seq_bitwise_across_rank_counts() {
        let a = gen::laplace2d(14, 12, gen::Stencil2d::FivePoint);
        let (fseq, ap) = seq_reference(&a, Method::default());
        for p in [1usize, 2, 3, 4, 6, 8] {
            let out = bgp(p, &a, MapStrategy::default(), None);
            assert_eq!(
                out.factor.max_abs_diff(&fseq),
                0.0,
                "p={p}: distributed factor must equal sequential bitwise"
            );
            assert!(reconstruction_error(&out.factor, &ap) < 1e-10);
        }
    }

    #[test]
    fn run_overwrites_every_entry_of_the_slab() {
        // The ranks write the caller's slab in place: whatever it held
        // before, every entry ends up as a run into a zeroed slab leaves it.
        let a = gen::laplace3d(6, 5, 4, gen::Stencil3d::SevenPoint);
        let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
        let bits = |f: &Factor| f.panels.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for p in [1usize, 2, 4, 8] {
            let run = DistRun::new(p, CostModel::bluegene_p(), &ap);
            let mut fresh = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
            run.run(&mut fresh).unwrap();
            let mut stale = fresh.clone();
            stale.panels.fill(-1.0);
            run.run(&mut stale).unwrap();
            assert!(
                bits(&stale) == bits(&fresh),
                "p={p}: a stale entry survived"
            );
        }
    }

    #[test]
    fn dist_1d_layout_matches_too() {
        let a = gen::laplace3d(4, 4, 4, gen::Stencil3d::SevenPoint);
        let (fseq, _) = seq_reference(&a, Method::default());
        let out = bgp(
            4,
            &a,
            MapStrategy::Proportional {
                use_2d: false,
                nb: parfact_dense::chol::NB,
            },
            None,
        );
        assert_eq!(out.factor.max_abs_diff(&fseq), 0.0);
    }

    #[test]
    fn dist_flat_mapping_matches() {
        let a = gen::laplace2d(10, 10, gen::Stencil2d::FivePoint);
        let (fseq, _) = seq_reference(&a, Method::default());
        let out = bgp(
            4,
            &a,
            MapStrategy::Flat {
                use_2d: true,
                nb: parfact_dense::chol::NB,
            },
            None,
        );
        assert_eq!(out.factor.max_abs_diff(&fseq), 0.0);
    }

    #[test]
    fn nonstandard_block_sizes_stay_correct() {
        // Only nb == chol::NB matches the sequential factor bitwise; other
        // block sizes reorder panel arithmetic but must still reconstruct.
        let a = gen::laplace2d(12, 11, gen::Stencil2d::FivePoint);
        let (_, ap) = parfact_symbolic::analyze(
            &parfact_order::order_matrix(&a, Method::default()).apply_sym_lower(&a),
            &AmalgOpts::default(),
        );
        for nb in [8usize, 23, 64] {
            let out = run_distributed(
                5,
                CostModel::zero_cost(),
                &a,
                Method::default(),
                &AmalgOpts::default(),
                MapStrategy::Proportional { use_2d: true, nb },
                None,
            )
            .unwrap();
            let err = reconstruction_error(&out.factor, &ap);
            assert!(err < 1e-10, "nb={nb}: reconstruction error {err}");
        }
    }

    #[test]
    fn dist_solve_end_to_end() {
        let a = gen::elasticity3d(3, 3, 2);
        let n = a.nrows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 * 0.25 - 1.0).collect();
        let mut b = vec![0.0; n];
        a.sym_spmv(&xstar, &mut b);
        for p in [1usize, 3, 4] {
            let out = bgp(p, &a, MapStrategy::default(), Some(&b));
            let solve = out.solve.expect("solution requested");
            assert!(
                ops::sym_residual_inf(&a, &solve.x, &b) < 1e-12,
                "p={p} residual too large"
            );
            assert!(solve.time_s > 0.0);
        }
    }

    #[test]
    fn dist_scaling_improves_makespan() {
        // Strong scaling on the model machine: more ranks, less time.
        // (Needs a problem big enough that flops dominate latency; the
        // simulated times are build-profile independent.)
        let a = gen::laplace3d(16, 16, 16, gen::Stencil3d::SevenPoint);
        let t1 = bgp(1, &a, MapStrategy::default(), None).factor_time_s;
        let t8 = bgp(8, &a, MapStrategy::default(), None).factor_time_s;
        assert!(
            t8 < t1 / 1.8,
            "8 ranks must beat 1 rank by ~2x: t1={t1:.6} t8={t8:.6}"
        );
    }

    #[test]
    fn dist_memory_per_rank_shrinks() {
        // Needs a problem whose fronts dwarf the block-tile padding, or the
        // per-rank tile overhead hides the distribution savings.
        let a = gen::laplace3d(10, 10, 10, gen::Stencil3d::SevenPoint);
        let m1 = bgp(1, &a, MapStrategy::default(), None).max_factor_bytes;
        let m8 = bgp(8, &a, MapStrategy::default(), None).max_factor_bytes;
        assert!(m8 < m1, "per-rank factor memory must shrink: {m1} -> {m8}");
    }

    #[test]
    fn dist_returns_err_on_indefinite() {
        let a = gen::indefinite(40, 2);
        let r = run_distributed(
            4,
            CostModel::zero_cost(),
            &a,
            Method::Natural,
            &AmalgOpts::default(),
            MapStrategy::default(),
            None,
        );
        assert!(
            matches!(r, Err(FactorError::NotPositiveDefinite { .. })),
            "indefinite input must surface as Err, not a panic"
        );
    }

    #[test]
    fn traced_run_is_bitwise_identical_and_records_lanes() {
        let a = gen::laplace3d(5, 5, 4, gen::Stencil3d::SevenPoint);
        let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
        let b = vec![1.0; a.nrows()];
        let run = |timeline| {
            let run = DistRun {
                timeline,
                comm: timeline,
                ..DistRun::new(4, CostModel::bluegene_p(), &ap)
            };
            let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
            let out = run.run(&mut factor).unwrap().outcome;
            let solve = run.solve(&factor, &out.map, &b, 1).unwrap();
            out.with_factor(factor, Some(solve))
        };
        let plain = run(false);
        assert!(plain.events.iter().all(Vec::is_empty));
        let traced = run(true);
        // Tracing must not perturb the virtual clocks or the numbers.
        assert_eq!(traced.factor.max_abs_diff(&plain.factor), 0.0);
        assert_eq!(traced.factor_time_s, plain.factor_time_s);
        assert_eq!(traced.events.len(), 4);
        assert!(traced.events.iter().all(|ev| !ev.is_empty()));
        let merged = traced.merged_events();
        // Every rank has compute spans attributed to supernodes, and the
        // spans hold the lane invariants exactly (virtual clocks).
        let tl = parfact_trace::Timeline::from_spans(&merged);
        tl.validate(0.0).unwrap();
        for r in 0..4 {
            assert!(
                merged
                    .iter()
                    .any(|e| e.who == r && e.supernode.is_some() && e.dur_s > 0.0),
                "rank {r} recorded no attributed compute span"
            );
        }
        assert!(merged.iter().any(|e| e.phase == Phase::Comm));
        assert!(merged.iter().any(|e| e.phase == Phase::Wait));
        // The solve run is traced too, on its own clocks: attributed
        // solve-lane spans exist, and each run's spans end by its makespan.
        let solve = traced.solve.as_ref().unwrap();
        let mut solve_spans: Vec<SpanEvent> = solve.events.concat();
        parfact_trace::sort_spans(&mut solve_spans);
        parfact_trace::Timeline::from_spans(&solve_spans)
            .validate(0.0)
            .unwrap();
        assert!(solve_spans
            .iter()
            .any(|e| e.phase == Phase::Solve && e.supernode.is_some()));
        let end = |spans: &[SpanEvent]| {
            let ends = spans.iter().map(|e| e.start_s + e.dur_s);
            ends.fold(0.0f64, f64::max)
        };
        assert!(end(&merged) <= traced.factor_time_s + 1e-12);
        assert!(end(&solve_spans) <= solve.time_s + 1e-12);
    }

    /// Rank `r`'s latest snapshot in `store`: the distributed front it was
    /// taken after, and how many local updates it holds for a local parent
    /// still to come.
    fn latest_snapshot(store: &CheckpointStore, r: usize) -> Option<(usize, usize)> {
        let snaps = store.slots[r].lock().unwrap();
        let (&g, snap) = snaps.iter().next_back()?;
        Some((g, snap.updates.len()))
    }

    #[test]
    fn a_restart_restores_a_half_finished_local_subtree() {
        // lap3d-16 on 16 ranks: rank 11 finishes distributed front 782
        // (virtual clock 0.58 ms) with three updates of a local subtree
        // waiting for their parent, and front 783 at 1.50 ms. Crashing it
        // at 1 ms puts the consistent cut at 783, so the restart restores
        // that snapshot and finishes the subtree from it. `parfact-solve
        // --gen lap3d:16 --ranks 16 --inject crash:11@t=0.001` runs the
        // same restart.
        let a = gen::laplace3d(16, 16, 16, gen::Stencil3d::SevenPoint);
        let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
        let (p, fresh) = (16, || Factor::allocate(&sym, FactorKind::Llt, perm.clone()));
        let bits = |f: &Factor| f.panels.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut reference = fresh();
        DistRun::new(p, CostModel::bluegene_p(), &ap)
            .run(&mut reference)
            .unwrap();
        let crashing = |max_restarts| DistRun {
            opts: DistOpts {
                ranks: p,
                faults: FaultPlan::parse("crash:11@t=0.001").unwrap(),
                max_restarts,
                ..DistOpts::default()
            },
            ..DistRun::new(p, CostModel::bluegene_p(), &ap)
        };
        // The crashed attempt alone, and the cut a restart resumes from.
        let store = CheckpointStore::new(p);
        let failed = crashing(0).run_with(&mut fresh(), &store);
        assert!(matches!(failed, Err(FactorError::RankFailed { .. })));
        let map = crate::mapping::map_tree(&sym, p, MapStrategy::default());
        assert_eq!(store.rewind_to_consistent_cut(&sym, &map), 783);
        assert_eq!(latest_snapshot(&store, 11), Some((782, 3)));
        // The whole recovery: one crash, one restart, the fault-free bits.
        let mut recovered = fresh();
        let run = crashing(1).run(&mut recovered).unwrap();
        assert_eq!((run.counts.crashes, run.restarts), (1, 1));
        assert!(bits(&recovered) == bits(&reference));
    }

    #[test]
    fn sync_schedule_matches_async_bitwise() {
        let a = gen::laplace3d(6, 5, 4, gen::Stencil3d::SevenPoint);
        let (fseq, _) = seq_reference(&a, Method::default());
        let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
        for p in [2usize, 4, 7] {
            let run = |sync| {
                run_distributed_prepared(
                    p,
                    CostModel::bluegene_p(),
                    &ap,
                    &sym,
                    &perm,
                    MapStrategy::default(),
                    sync,
                    None,
                )
                .unwrap()
            };
            let sync = run(true);
            let async_ = run(false);
            assert_eq!(
                async_.factor.max_abs_diff(&sync.factor),
                0.0,
                "p={p}: async factor must equal sync-schedule factor bitwise"
            );
            assert_eq!(async_.factor.max_abs_diff(&fseq), 0.0, "p={p}: vs seq");
        }
    }
}
