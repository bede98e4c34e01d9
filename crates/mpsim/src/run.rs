//! The [`Machine`], its runs, and the reports and verdicts they return.

use crate::model::CostModel;
use crate::rank::{CommRow, CommSpec, Rank, RankFaults, RankStats};
use crate::world::{Abort, Aborted, End, RankCrashed, Shared, TimeoutAbort};
use crate::{FaultCounts, FaultPlan};
use parfact_trace::{CommMatrixReport, SpanEvent};
use std::any::Any;
use std::sync::Arc;

/// Install (once, process-wide) a panic hook that silences the machine's
/// internal unwind sentinels. Ranks crash, time out, and abort by panicking
/// with typed payloads that the machine always catches; without this filter
/// every injected fault would spray "thread panicked" noise and backtraces
/// on stderr. Any other panic payload falls through to the previous hook
/// untouched.
fn install_sentinel_panic_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let sentinel = p.is::<Aborted>() || p.is::<RankCrashed>() || p.is::<TimeoutAbort>();
            if !sentinel {
                prev(info);
            }
        }));
    });
}

/// The src×dst×class traffic matrix of a run, row `src` being `rows[src]`:
/// what `src` sent, so a column sum counts what was *posted to* a rank
/// (drained or not).
fn comm_report(class_names: &[impl AsRef<str>], rows: &[&CommRow]) -> CommMatrixReport {
    let (nranks, nclasses) = (rows.len(), class_names.len());
    let mut m = CommMatrixReport {
        nranks,
        class_names: class_names.iter().map(|s| s.as_ref().to_string()).collect(),
        bytes: Vec::with_capacity(nranks * nranks * nclasses),
        msgs: Vec::with_capacity(nranks * nranks * nclasses),
    };
    // A row is indexed `dst * nclasses + class`, so the rows laid end to
    // end are the matrix's `(src * nranks + dst) * nclasses + class`.
    for row in rows {
        assert_eq!(
            (row.nranks, row.nclasses),
            (nranks, nclasses),
            "ragged comm row"
        );
        m.bytes.extend_from_slice(&row.bytes);
        m.msgs.extend_from_slice(&row.msgs);
    }
    m
}

/// Report of a completed SPMD run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank statistics.
    pub stats: Vec<RankStats>,
    /// Per-rank recorded events (empty unless [`Machine::trace_events`]).
    pub events: Vec<Vec<SpanEvent>>,
    /// Simulated makespan: the maximum final virtual clock (seconds).
    pub makespan_s: f64,
    /// Injected-fault activity (all zero without a [`FaultPlan`]).
    pub fault_counts: FaultCounts,
    /// Full src×dst×class traffic matrix (`None` unless
    /// [`Machine::comm_matrix`] installed a tag classifier).
    pub comm: Option<CommMatrixReport>,
}

impl<R> RunReport<R> {
    /// Total flops across ranks.
    pub fn total_flops(&self) -> f64 {
        self.stats.iter().map(|s| s.flops).sum()
    }

    /// Total payload bytes sent across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total messages sent across ranks.
    pub fn total_msgs(&self) -> u64 {
        self.stats.iter().map(|s| s.msgs_sent).sum()
    }

    /// Modelled aggregate Gflop/s achieved over the makespan.
    pub fn gflops(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.total_flops() / self.makespan_s / 1e9
        } else {
            0.0
        }
    }

    /// Maximum per-rank peak tracked memory (bytes).
    pub fn max_mem_peak(&self) -> u64 {
        self.stats.iter().map(|s| s.mem_peak).max().unwrap_or(0)
    }
}

/// Structured outcome of a [`Machine::run_verdict`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// Every rank ran its program to completion.
    Completed,
    /// One or more ranks crashed under the fault plan; surviving ranks
    /// either completed or were unwound once provably stuck on the dead
    /// ranks' undelivered sends. `detail` has a per-rank diagnostic.
    RankFailed {
        /// Crashed ranks, ascending.
        ranks: Vec<usize>,
        /// Per-rank diagnostic text.
        detail: String,
    },
    /// A blocking receive exceeded the machine-wide receive deadline (and
    /// no rank crashed). Reported for the lowest-numbered timed-out rank.
    TimedOut {
        /// The rank whose receive timed out.
        rank: usize,
        /// Source rank it was matching.
        src: usize,
        /// Message tag it was matching.
        tag: u64,
        /// Virtual seconds it waited.
        waited_s: f64,
    },
    /// Protocol deadlock: every rank finished or blocked with no matching
    /// message in flight and no crashed rank to blame.
    Deadlocked {
        /// Per-rank diagnostic text.
        detail: String,
    },
}

impl RunVerdict {
    /// True for [`RunVerdict::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RunVerdict::Completed)
    }
}

/// Report of a fault-aware run ([`Machine::run_verdict`]): per-rank results
/// where available, statistics for every rank (including crashed ones, up
/// to the crash point), and the structured verdict.
#[derive(Debug)]
pub struct VerdictReport<R> {
    /// The structured outcome.
    pub verdict: RunVerdict,
    /// Per-rank return values; `None` for ranks that crashed, timed out or
    /// were unwound.
    pub results: Vec<Option<R>>,
    /// Per-rank statistics (crashed ranks report up to the crash point).
    pub stats: Vec<RankStats>,
    /// Per-rank recorded events (empty unless [`Machine::trace_events`]).
    pub events: Vec<Vec<SpanEvent>>,
    /// Injected-fault activity over the run.
    pub fault_counts: FaultCounts,
    /// Maximum final virtual clock across ranks (seconds).
    pub makespan_s: f64,
    /// Full src×dst×class traffic matrix (`None` unless
    /// [`Machine::comm_matrix`] installed a tag classifier).
    pub comm: Option<CommMatrixReport>,
}

/// A simulated message-passing machine with a fixed rank count and cost
/// model.
pub struct Machine {
    nranks: usize,
    model: CostModel,
    trace: bool,
    plan: FaultPlan,
    recv_timeout: Option<f64>,
    comm: Option<Arc<CommSpec>>,
}

/// How one rank's program ended.
enum RankEnd<R> {
    Done(R),
    Crashed {
        at_s: f64,
    },
    TimedOut {
        src: usize,
        tag: u64,
        waited_s: f64,
    },
    /// Unwound by an abort: a peer's panic or timeout, a deadlock, or a
    /// crash-induced stall.
    Stalled,
}

struct RankSlot<R> {
    end: RankEnd<R>,
    stats: RankStats,
    events: Vec<SpanEvent>,
    comm: Option<CommRow>,
}

impl Machine {
    /// Create a machine with `nranks` ranks.
    pub fn new(nranks: usize, model: CostModel) -> Self {
        assert!(nranks > 0);
        Machine {
            nranks,
            model,
            trace: false,
            plan: FaultPlan::new(),
            recv_timeout: None,
            comm: None,
        }
    }

    /// Account every send into a src×dst traffic matrix broken down by tag
    /// class: `classify` maps a message tag to an index into `class_names`.
    /// Off by default. Recording is pure counter arithmetic on the sending
    /// rank — it never touches virtual clocks, so enabling the matrix
    /// changes no result, clock, or makespan bit (tested). The assembled
    /// matrix comes back in [`RunReport::comm`] / [`VerdictReport::comm`].
    pub fn comm_matrix<F>(mut self, class_names: &[&str], classify: F) -> Self
    where
        F: Fn(u64) -> usize + Send + Sync + 'static,
    {
        assert!(!class_names.is_empty(), "comm_matrix needs >= 1 class");
        self.comm = Some(Arc::new(CommSpec {
            names: class_names.iter().map(|s| s.to_string()).collect(),
            classify: Box::new(classify),
        }));
        self
    }

    /// Record communication events (and [`Rank::compute_as`] spans) on
    /// every rank; they come back in [`RunReport::events`]. Off by default
    /// — recording allocates per event but never perturbs virtual clocks.
    pub fn trace_events(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Apply a [`FaultPlan`] to every run on this machine. Faults fire at
    /// deterministic virtual points, so repeated runs reproduce bitwise.
    /// Use [`Machine::run_verdict`] to observe the structured outcome;
    /// under [`Machine::run`] an injected crash or timeout panics with a
    /// diagnostic message.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Set a machine-wide receive deadline (virtual seconds): every
    /// blocking receive/wait that cannot be satisfied within it — the
    /// matching head arrives later, or its source crashed/finished without
    /// sending — aborts the run with a [`RunVerdict::TimedOut`] instead of
    /// waiting for the deadlock scanner. Derive a safe value from the cost
    /// model with [`CostModel::recv_timeout_for`]; it must dominate every
    /// legitimate wait (load imbalance included) or healthy runs will be
    /// misreported as timed out.
    pub fn recv_timeout(mut self, timeout_s: f64) -> Self {
        assert!(timeout_s > 0.0, "recv_timeout must be positive");
        self.recv_timeout = Some(timeout_s);
        self
    }

    /// Run an SPMD program that is expected to complete: `f` is executed
    /// once per rank, each on its own OS thread. This is
    /// [`Machine::run_verdict`] with every other verdict turned into a
    /// panic: a protocol deadlock panics with its per-rank diagnostic
    /// string as the payload, and an injected crash or timeout (only
    /// possible with a [`FaultPlan`] or [`Machine::recv_timeout`]) panics
    /// with a message pointing at `run_verdict`. A panic in any rank aborts
    /// the whole run (peers unblock) and is propagated to the caller.
    pub fn run<R, F>(&self, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        let v = self.run_verdict(f);
        let fault = match v.verdict {
            RunVerdict::Completed => None,
            RunVerdict::Deadlocked { detail } => std::panic::panic_any(detail),
            RunVerdict::RankFailed { detail, .. } => Some(detail.trim_end().to_string()),
            RunVerdict::TimedOut {
                rank,
                src,
                tag,
                waited_s,
            } => Some(format!(
                "rank {rank} timed out after {waited_s:.6}s waiting on (src={src}, tag={tag})"
            )),
        };
        if let Some(note) = fault {
            panic!("mpsim run aborted by injected fault: {note}; use Machine::run_verdict for fault-injection runs");
        }
        RunReport {
            results: v
                .results
                .into_iter()
                .map(|r| r.expect("a completed run has every rank's result"))
                .collect(),
            stats: v.stats,
            events: v.events,
            makespan_s: v.makespan_s,
            fault_counts: v.fault_counts,
            comm: v.comm,
        }
    }

    /// Run an SPMD program under the machine's fault plan and receive
    /// deadline, and report the structured [`RunVerdict`] instead of
    /// panicking: injected crashes become [`RunVerdict::RankFailed`],
    /// exceeded deadlines [`RunVerdict::TimedOut`], unresolvable blockage
    /// with no crashed rank [`RunVerdict::Deadlocked`]. Real panics in the
    /// program still propagate.
    ///
    /// Each rank runs on its own OS thread; statistics and events are
    /// collected for every rank, including crashed and unwound ones.
    pub fn run_verdict<R, F>(&self, f: F) -> VerdictReport<R>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        install_sentinel_panic_filter();
        let shared = Arc::new(Shared::new(self.nranks, self.model));
        let mut slots: Vec<Option<RankSlot<R>>> = (0..self.nranks).map(|_| None).collect();
        let fref = &f;
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .iter_mut()
                .enumerate()
                .map(|(r, slot)| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("mpsim-rank-{r}"))
                        .stack_size(4 << 20)
                        .spawn_scoped(scope, move || {
                            let mut rank = Rank {
                                rank: r,
                                nranks: self.nranks,
                                shared: Arc::clone(&shared),
                                clock: 0.0,
                                compute_s: 0.0,
                                comm_s: 0.0,
                                comm_hidden_s: 0.0,
                                flops: 0.0,
                                bytes_sent: 0,
                                msgs_sent: 0,
                                bytes_recv: 0,
                                msgs_recv: 0,
                                mem_cur: 0,
                                mem_peak: 0,
                                comm: self.comm.as_ref().map(|s| {
                                    (Arc::clone(s), CommRow::new(self.nranks, s.names.len()))
                                }),
                                trace: self.trace,
                                events: Vec::new(),
                                faults: RankFaults::compile(&self.plan, r, &self.model),
                                recv_timeout: self.recv_timeout,
                            };
                            let out =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    fref(&mut rank)
                                }));
                            let end = match out {
                                Ok(v) => {
                                    // This rank will never send again; peers
                                    // blocked on it may now be provably
                                    // deadlocked.
                                    shared.retire(r, End::Done);
                                    RankEnd::Done(v)
                                }
                                Err(p) => {
                                    if let Some(c) = p.downcast_ref::<RankCrashed>() {
                                        // `crash_now` retired the rank; peers
                                        // keep running (or time out / stall
                                        // on us).
                                        RankEnd::Crashed { at_s: c.at_s }
                                    } else if let Some(t) = p.downcast_ref::<TimeoutAbort>() {
                                        shared.retire(r, End::Failed);
                                        RankEnd::TimedOut {
                                            src: t.src,
                                            tag: t.tag,
                                            waited_s: t.waited_s,
                                        }
                                    } else if p.is::<Aborted>() {
                                        RankEnd::Stalled
                                    } else {
                                        shared.retire(r, End::Failed);
                                        return Err(p);
                                    }
                                }
                            };
                            *slot = Some(RankSlot {
                                end,
                                stats: rank.stats(),
                                events: rank.take_events(),
                                comm: rank.comm.take().map(|(_, row)| row),
                            });
                            Ok(())
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(p)) | Err(p) => {
                        first_panic.get_or_insert(p);
                    }
                }
            }
        });
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
        // Without a real panic every rank filled its slot.
        let slots: Vec<RankSlot<R>> = slots
            .into_iter()
            .map(|s| s.expect("rank ended without a slot"))
            .collect();
        let comm = self.comm.as_ref().map(|spec| {
            let rows: Vec<&CommRow> = slots
                .iter()
                .map(|s| s.comm.as_ref().expect("rank ended without its comm row"))
                .collect();
            let m = comm_report(&spec.names, &rows);
            if cfg!(debug_assertions) {
                reconcile(&m, &slots, &shared);
            }
            m
        });
        let (abort, fault_counts) = {
            let mut w = shared.world.lock();
            (w.abort.take(), w.faults)
        };
        let mut results = Vec::with_capacity(self.nranks);
        let mut stats = Vec::with_capacity(self.nranks);
        let mut events = Vec::with_capacity(self.nranks);
        let mut crashed: Vec<usize> = Vec::new();
        let mut crash_detail = String::new();
        let mut timeout: Option<(usize, usize, u64, f64)> = None;
        for (r, slot) in slots.into_iter().enumerate() {
            stats.push(slot.stats);
            events.push(slot.events);
            match slot.end {
                RankEnd::Done(v) => results.push(Some(v)),
                RankEnd::Crashed { at_s } => {
                    use std::fmt::Write;
                    crashed.push(r);
                    let _ = writeln!(crash_detail, "rank {r} crashed at t={at_s:.6}s");
                    results.push(None);
                }
                RankEnd::TimedOut { src, tag, waited_s } => {
                    if timeout.is_none() {
                        timeout = Some((r, src, tag, waited_s));
                    }
                    results.push(None);
                }
                RankEnd::Stalled => results.push(None),
            }
        }
        let verdict = if !crashed.is_empty() {
            if let Some(Abort::RankFailure(diag)) = &abort {
                crash_detail.push_str(diag);
            }
            RunVerdict::RankFailed {
                ranks: crashed,
                detail: crash_detail,
            }
        } else if let Some((rank, src, tag, waited_s)) = timeout {
            RunVerdict::TimedOut {
                rank,
                src,
                tag,
                waited_s,
            }
        } else if let Some(Abort::Deadlock(detail)) = abort {
            RunVerdict::Deadlocked { detail }
        } else {
            RunVerdict::Completed
        };
        let makespan = stats.iter().fold(0.0f64, |m, s| m.max(s.clock_s));
        VerdictReport {
            verdict,
            results,
            stats,
            events,
            fault_counts,
            makespan_s: makespan,
            comm,
        }
    }
}

/// Debug-build reconciliation: the traffic matrix must agree with the
/// per-rank counters exactly — row sums with what each rank sent, column
/// sums with what each rank drained plus what is still queued at its
/// mailbox (crashed receivers and fault-injected duplicates leave messages
/// behind).
fn reconcile<R>(m: &CommMatrixReport, slots: &[RankSlot<R>], shared: &Shared) {
    let world = shared.world.lock();
    let (n, nc) = (m.nranks, m.nclasses());
    let (mut sent, mut posted) = (vec![(0u64, 0u64); n], vec![(0u64, 0u64); n]);
    for (i, (&b, &k)) in m.bytes.iter().zip(&m.msgs).enumerate() {
        // Cell `i` is `(src * n + dst) * nc + class`.
        let (src, dst) = (i / (n * nc), i / nc % n);
        sent[src] = (sent[src].0 + b, sent[src].1 + k);
        posted[dst] = (posted[dst].0 + b, posted[dst].1 + k);
    }
    for (r, slot) in slots.iter().enumerate() {
        let s = &slot.stats;
        assert_eq!(
            sent[r],
            (s.bytes_sent, s.msgs_sent),
            "rank {r}: comm-matrix row disagrees with (bytes_sent, msgs_sent)"
        );
        let q = &world.boxes[r];
        // lint:allow(R2) commutative u64 sums over undrained queues — order-free, debug accounting only
        let leftover_bytes: u64 = q
            .map
            .values()
            .flat_map(|d| d.iter())
            .map(|msg| msg.bytes as u64)
            .sum();
        // lint:allow(R2) commutative u64 sum over undrained queues — order-free, debug accounting only
        let leftover_msgs: u64 = q.map.values().map(|d| d.len() as u64).sum();
        assert_eq!(
            posted[r],
            (s.bytes_recv + leftover_bytes, s.msgs_recv + leftover_msgs),
            "rank {r}: comm-matrix column disagrees with (bytes, msgs) received + queued"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective;
    use parfact_trace::Phase;

    #[test]
    fn single_rank_runs() {
        let r = Machine::new(1, CostModel::zero_cost()).run(|rank| {
            rank.compute(1000.0);
            rank.rank() * 10
        });
        assert_eq!(r.results, vec![0]);
        assert_eq!(r.stats[0].flops, 1000.0);
    }

    /// A mailbox's table holds what is queued, not every `(src, tag)` the
    /// rank ever received: once a rank has drained everything sent to it,
    /// the table is empty again.
    #[test]
    fn drained_mailboxes_hold_no_entries() {
        let (p, tags) = (4usize, 5u64);
        let r = Machine::new(p, CostModel::zero_cost()).run(|rank| {
            let me = rank.rank();
            let peers = (0..p).filter(|&q| q != me);
            for q in peers.clone() {
                for t in 0..tags {
                    rank.isend(q, t, vec![me as f64; 3]);
                    rank.isend(q, t, me as u64);
                }
            }
            for t in 0..tags {
                for q in peers.clone() {
                    assert_eq!(rank.recv::<Vec<f64>>(q, t), vec![q as f64; 3]);
                    assert_eq!(rank.recv::<u64>(q, t), q as u64);
                }
            }
            // Everything addressed to this rank has been consumed, so no
            // peer can add to its mailbox any more.
            let world = rank.shared.world.lock();
            let mailbox = &world.boxes[me];
            (mailbox.map.len(), mailbox.depth)
        });
        assert_eq!(r.results, vec![(0, 0); p]);
    }

    #[test]
    fn ping_pong_values_and_clock() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.5,
            flop_time_s: 0.0,
        };
        let r = Machine::new(2, m).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, 42u64); // 8 bytes: occupancy 1 + 4 = 5
                let x: u64 = rank.recv(1, 2);
                x
            } else {
                let x: u64 = rank.recv(0, 1); // arrival at 5 -> clock 5
                rank.send(0, 2, x + 1); // clock 10
                x + 1
            }
        });
        assert_eq!(r.results, vec![43, 43]);
        // Rank 1 finishes at 10; rank 0 waits for arrival at 10.
        assert_eq!(r.stats[1].clock_s, 10.0);
        assert_eq!(r.stats[0].clock_s, 10.0);
        assert_eq!(r.makespan_s, 10.0);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let r = Machine::new(2, CostModel::zero_cost()).run(|rank| {
            if rank.rank() == 0 {
                for i in 0..10u64 {
                    rank.send(1, 3, i);
                }
                0
            } else {
                let mut got = Vec::new();
                for _ in 0..10 {
                    got.push(rank.recv::<u64>(0, 3));
                }
                assert_eq!(got, (0..10).collect::<Vec<_>>());
                1
            }
        });
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    fn tags_demultiplex() {
        let r = Machine::new(2, CostModel::zero_cost()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 7, 70u64);
                rank.send(1, 8, 80u64);
                0
            } else {
                // Receive in the opposite order of sending.
                let b: u64 = rank.recv(0, 8);
                let a: u64 = rank.recv(0, 7);
                assert_eq!((a, b), (70, 80));
                1
            }
        });
        assert_eq!(r.results.len(), 2);
    }

    #[test]
    fn vectors_round_trip() {
        let r = Machine::new(2, CostModel::bluegene_p()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 0, vec![1.0f64, 2.0, 3.0]);
                0.0
            } else {
                let v: Vec<f64> = rank.recv(0, 0);
                v.iter().sum::<f64>()
            }
        });
        assert_eq!(r.results[1], 6.0);
        // 24 payload bytes tracked.
        assert_eq!(r.total_bytes(), 24);
        assert_eq!(r.total_msgs(), 1);
    }

    #[test]
    fn deterministic_timing_across_runs() {
        let run = || {
            Machine::new(4, CostModel::bluegene_p()).run(|rank| {
                let p = rank.nranks();
                // All-to-all ping with compute in between.
                for d in 0..p {
                    if d != rank.rank() {
                        rank.send(d, 5, vec![rank.rank() as f64; 100]);
                    }
                }
                rank.compute(1e6);
                let mut acc = 0.0;
                for s in 0..p {
                    if s != rank.rank() {
                        let v: Vec<f64> = rank.recv(s, 5);
                        acc += v[0];
                    }
                }
                acc
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        for (x, y) in a.stats.iter().zip(&b.stats) {
            assert_eq!(x.clock_s, y.clock_s);
        }
    }

    #[test]
    fn compute_and_memory_tracking() {
        let r = Machine::new(1, CostModel::bluegene_p()).run(|rank| {
            rank.alloc(1000);
            rank.alloc(500);
            rank.free(1000);
            rank.alloc(200);
            rank.compute(3.4e9); // 1 second at 3.4 Gflop/s
            rank.stats().mem_peak
        });
        assert_eq!(r.results[0], 1500);
        assert!((r.stats[0].clock_s - 1.0).abs() < 1e-9);
        assert!((r.stats[0].compute_s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate_and_unblock_peers() {
        Machine::new(3, CostModel::zero_cost()).run(|rank| {
            if rank.rank() == 0 {
                panic!("boom");
            }
            // Peers block on a message that will never come; the abort
            // must wake and unwind them rather than hang the test.
            let _: u64 = rank.recv(0, 9);
        });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_is_diagnosed() {
        Machine::new(2, CostModel::zero_cost()).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 0, 1u64);
            } else {
                let _: Vec<f64> = rank.recv(0, 0);
            }
        });
    }

    #[test]
    fn gflops_reporting() {
        let r = Machine::new(2, CostModel::bluegene_p()).run(|rank| {
            rank.compute(3.4e9);
            rank.rank()
        });
        // 2 ranks x 3.4 Gflop in 1 simulated second = 6.8 Gflop/s.
        assert!((r.gflops() - 6.8).abs() < 1e-6);
    }

    #[test]
    fn isend_hides_transfer_under_compute() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.5,
            flop_time_s: 1.0,
        };
        let r = Machine::new(2, m).run(|rank| {
            if rank.rank() == 0 {
                // 8 bytes: α = 1 occupies the sender, β·8 = 4 is pipelined.
                rank.isend(1, 1, 42u64);
                assert_eq!(rank.clock(), 1.0);
                rank.compute(6.0); // clock 7: transfer fully hidden
                assert_eq!(rank.clock(), 7.0);
            } else {
                let x: u64 = rank.recv(0, 1);
                assert_eq!(x, 42);
                // Arrival = sender clock after α (1) + transfer (4).
                assert_eq!(rank.clock(), 5.0);
            }
            rank.rank()
        });
        assert_eq!(r.stats[0].comm_hidden_s, 4.0);
        assert_eq!(r.stats[0].comm_s, 1.0);
        // Blocking send of the same message would have finished at 11.
        assert_eq!(r.stats[0].clock_s, 7.0);
    }

    /// What the dist scheduler relies on: a probe reports the *virtual*
    /// arrival, so "has it arrived yet?" is decided against the clock, never
    /// against whether the message is physically posted.
    #[test]
    fn probe_all_decides_by_virtual_time_only() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 1.0,
        };
        let r = Machine::new(2, m).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 4, 9u64); // arrival at virtual t = 1
                0
            } else {
                // The probe returns only once the message is physically
                // posted, yet at virtual t = 0.5 it has not arrived.
                rank.advance(0.5);
                let t = rank.probe_all(&[(0, 4)])[0];
                assert!(t > rank.clock());
                assert_eq!(rank.clock(), 0.5); // probing never advances time
                rank.advance(1.0);
                assert!(rank.probe_all(&[(0, 4)])[0] <= rank.clock());
                let got: u64 = rank.recv(0, 4);
                assert_eq!(got, 9);
                assert_eq!(rank.clock(), 1.5); // already arrived: no wait
                1
            }
        });
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    fn probe_all_reports_arrivals_without_consuming() {
        let m = CostModel {
            alpha_s: 2.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 0.0,
        };
        let r = Machine::new(2, m).run(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 6, 5u64); // arrives at 2
                rank.send(1, 7, 6u64); // arrives at 4
                0
            } else {
                let keys = [(0usize, 7u64), (0usize, 6u64)];
                assert_eq!(rank.probe_all(&keys), vec![4.0, 2.0]);
                // Probing neither advances time nor consumes: a second probe
                // sees the same heads.
                assert_eq!(rank.clock(), 0.0);
                assert_eq!(rank.probe_all(&keys), vec![4.0, 2.0]);
                let x: u64 = rank.recv(0, 6);
                assert_eq!(x, 5);
                assert_eq!(rank.clock(), 2.0);
                let y: u64 = rank.recv(0, 7);
                assert_eq!(y, 6);
                assert_eq!(rank.clock(), 4.0);
                1
            }
        });
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_with_diagnostic() {
        // Both ranks receive from each other without anyone sending: a
        // protocol bug that would otherwise park both ranks forever.
        Machine::new(2, CostModel::zero_cost()).run(|rank| {
            let peer = 1 - rank.rank();
            let _: u64 = rank.recv(peer, 42);
        });
    }

    #[test]
    fn deadlock_diagnostic_lists_pending_keys() {
        let caught = std::panic::catch_unwind(|| {
            Machine::new(3, CostModel::zero_cost()).run(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 7, 1u64);
                }
                // Rank 1 consumes its message then joins the others in
                // waiting for one that never comes.
                if rank.rank() == 1 {
                    let _: u64 = rank.recv(0, 7);
                }
                let _: u64 = rank.recv((rank.rank() + 1) % 3, 99);
            });
        });
        let payload = caught.expect_err("deadlock must abort the run");
        let msg = payload
            .downcast_ref::<String>()
            .expect("diagnostic is a string");
        assert!(msg.contains("deadlock"), "{msg}");
        for r in 0..3 {
            assert!(msg.contains(&format!("rank {r} waiting on")), "{msg}");
        }
        assert!(msg.contains("tag=99"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected_when_sender_already_finished() {
        // Rank 0 exits without sending; rank 1 waits on it forever. Not all
        // ranks are *blocked*, but the blockage still can never resolve.
        Machine::new(2, CostModel::zero_cost()).run(|rank| {
            if rank.rank() == 1 {
                let _: u64 = rank.recv(0, 11);
            }
        });
    }

    #[test]
    fn events_off_by_default_and_never_perturb_clocks() {
        let program = |rank: &mut Rank| {
            if rank.rank() == 0 {
                rank.compute_as(1e6, Phase::Panel, Some(3));
                rank.send(1, 1, vec![1.0f64; 64]);
            } else {
                let _: Vec<f64> = rank.recv(0, 1);
            }
            rank.clock()
        };
        let plain = Machine::new(2, CostModel::bluegene_p()).run(program);
        assert!(plain.events.iter().all(Vec::is_empty));
        let traced = Machine::new(2, CostModel::bluegene_p())
            .trace_events(true)
            .run(program);
        // Bitwise identical virtual time with and without tracing.
        assert_eq!(plain.results, traced.results);
        assert!(!traced.events[0].is_empty());
    }

    #[test]
    fn traced_run_records_compute_comm_and_wait_spans() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.5,
            flop_time_s: 1.0,
        };
        let r = Machine::new(2, m).trace_events(true).run(|rank| {
            if rank.rank() == 0 {
                rank.compute_as(2.0, Phase::Panel, Some(5)); // [0, 2]
                rank.send(1, 1, 42u64); // comm [2, 7]: α + 8·β
                rank.isend(1, 2, 7u64); // comm [7, 8]: α only, arrives at 12
            } else {
                let t = rank.probe_all(&[(0, 1)]); // marker at arrival 7
                assert_eq!(t, vec![7.0]);
                let _: u64 = rank.recv(0, 1); // wait [0, 7]
                let _: u64 = rank.recv(0, 2); // wait [7, 12]
            }
            0
        });
        let ev0 = &r.events[0];
        let kinds: Vec<(Phase, f64, f64)> =
            ev0.iter().map(|e| (e.phase, e.start_s, e.dur_s)).collect();
        assert_eq!(
            kinds,
            vec![
                (Phase::Panel, 0.0, 2.0),
                (Phase::Comm, 2.0, 5.0),
                (Phase::Comm, 7.0, 1.0),
            ]
        );
        assert_eq!(ev0[0].supernode, Some(5));
        assert!(ev0.iter().all(|e| e.who == 0));
        let ev1 = &r.events[1];
        // Probe marker (zero duration) plus the two real waits.
        assert!(ev1.contains(&SpanEvent {
            phase: Phase::Wait,
            supernode: None,
            who: 1,
            start_s: 7.0,
            dur_s: 0.0,
        }));
        let waits: Vec<(f64, f64)> = ev1
            .iter()
            .filter(|e| e.phase == Phase::Wait && e.dur_s > 0.0)
            .map(|e| (e.start_s, e.dur_s))
            .collect();
        assert_eq!(waits, vec![(0.0, 7.0), (7.0, 5.0)]);
    }

    #[test]
    fn queue_peak_is_tracked() {
        let r = Machine::new(2, CostModel::zero_cost()).run(|rank| {
            if rank.rank() == 0 {
                for i in 0..5u64 {
                    rank.send(1, 3, i);
                }
                // Handshake so rank 1 drains only after all 5 are queued.
                rank.send(1, 4, 1u64);
                0
            } else {
                let _: u64 = rank.recv(0, 4);
                for _ in 0..5 {
                    let _: u64 = rank.recv(0, 3);
                }
                1
            }
        });
        assert!(r.stats[1].queue_peak >= 5, "peak {}", r.stats[1].queue_peak);
    }

    // ---- fault injection ----

    #[test]
    fn clean_run_verdict_is_completed() {
        let v = Machine::new(2, CostModel::zero_cost()).run_verdict(|rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, 7u64);
            } else {
                let got: u64 = rank.recv(0, 1);
                assert_eq!(got, 7);
            }
            rank.rank()
        });
        assert!(v.verdict.is_completed());
        assert_eq!(v.results, vec![Some(0), Some(1)]);
        assert!(v.fault_counts.is_zero());
    }

    #[test]
    fn crash_at_virtual_time_yields_rank_failed() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 1.0,
        };
        let v = Machine::new(2, m)
            .fault_plan(FaultPlan::new().crash_at(1, 5.0))
            .run_verdict(|rank| {
                if rank.rank() == 1 {
                    rank.compute(10.0); // crashes at the boundary, clock >= 5
                    rank.send(0, 1, 1u64);
                } else {
                    let _: u64 = rank.recv(1, 1); // never satisfied
                }
                rank.rank()
            });
        match &v.verdict {
            RunVerdict::RankFailed { ranks, detail } => {
                assert_eq!(ranks, &vec![1]);
                assert!(detail.contains("rank 1 crashed"), "detail: {detail}");
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
        assert_eq!(v.results, vec![None, None]);
        assert_eq!(v.fault_counts.crashes, 1);
        // The crashed rank's stats cover work up to the crash point.
        assert!(v.stats[1].clock_s >= 5.0);
    }

    #[test]
    fn crash_on_nth_send_fires_before_that_send() {
        let v = Machine::new(2, CostModel::zero_cost())
            .fault_plan(FaultPlan::new().crash_on_send(0, 3))
            .run_verdict(|rank| {
                if rank.rank() == 0 {
                    for i in 0..5u64 {
                        rank.send(1, 1, i);
                    }
                } else {
                    let mut got = Vec::new();
                    for _ in 0..5 {
                        got.push(rank.recv::<u64>(0, 1));
                    }
                    return got.len();
                }
                0
            });
        assert!(matches!(
            v.verdict,
            RunVerdict::RankFailed { ref ranks, .. } if ranks == &vec![0]
        ));
        // Exactly two sends escaped before the third was suppressed.
        assert_eq!(v.stats[0].msgs_sent, 2);
        assert_eq!(v.fault_counts.crashes, 1);
    }

    /// Regression: when every live rank is blocked but a *crashed* rank is
    /// the one holding the undelivered sends, the verdict must be
    /// `RankFailed` — the old all-blocked scan reported a spurious
    /// `Deadlock` because it never distinguished crashed from live ranks.
    #[test]
    fn crashed_sender_is_rank_failure_not_deadlock() {
        for nranks in [2usize, 4] {
            let v = Machine::new(nranks, CostModel::zero_cost())
                .fault_plan(FaultPlan::new().crash_on_send(1, 1))
                .run_verdict(move |rank| {
                    if rank.rank() == 1 {
                        // First send crashes: every peer below waits forever.
                        for dst in 0..rank.nranks() {
                            if dst != 1 {
                                rank.send(dst, 1, 1u64);
                            }
                        }
                    } else {
                        let _: u64 = rank.recv(1, 1);
                    }
                    0
                });
            match &v.verdict {
                RunVerdict::RankFailed { ranks, detail } => {
                    assert_eq!(ranks, &vec![1]);
                    assert!(detail.contains("crashed"), "detail: {detail}");
                }
                other => panic!("nranks={nranks}: expected RankFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn messages_posted_before_a_crash_still_deliver() {
        let v = Machine::new(2, CostModel::zero_cost())
            .fault_plan(FaultPlan::new().crash_on_send(1, 2))
            .run_verdict(|rank| {
                if rank.rank() == 1 {
                    rank.send(0, 1, 41u64); // delivered
                    rank.send(0, 2, 42u64); // crash fires instead
                    0
                } else {
                    rank.recv::<u64>(1, 1) as usize
                }
            });
        // Rank 0 got the first message and finished; the crash only lost
        // the future send.
        assert_eq!(v.results[0], Some(41));
        assert!(matches!(v.verdict, RunVerdict::RankFailed { .. }));
    }

    #[test]
    fn delay_link_shifts_arrival_without_charging_sender() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 0.0,
        };
        let run = |plan: FaultPlan| {
            Machine::new(2, m).fault_plan(plan).run_verdict(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, 1u64);
                } else {
                    let _: u64 = rank.recv(0, 1);
                }
                rank.clock()
            })
        };
        let base = run(FaultPlan::new());
        let slow = run(FaultPlan::new().delay_link(0, 1, 10.0));
        // Sender occupancy unchanged; receiver sees the message 10·α later.
        assert_eq!(slow.results[0], base.results[0]);
        assert_eq!(
            slow.results[1].unwrap(),
            base.results[1].unwrap() + 10.0 * m.alpha_s
        );
        assert_eq!(slow.fault_counts.delayed_msgs, 1);
        assert_eq!(base.fault_counts.delayed_msgs, 0);
    }

    #[test]
    fn duplicate_link_delivers_twice_and_counts() {
        let v = Machine::new(2, CostModel::zero_cost())
            .fault_plan(FaultPlan::new().duplicate_link(0, 1))
            .run_verdict(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, 9u64);
                    0
                } else {
                    let a: u64 = rank.recv(0, 1);
                    let b: u64 = rank.recv(0, 1); // the injected copy
                    (a + b) as usize
                }
            });
        assert!(v.verdict.is_completed());
        assert_eq!(v.results[1], Some(18));
        assert_eq!(v.fault_counts.duplicated_msgs, 1);
    }

    #[test]
    fn machine_recv_timeout_yields_timed_out_verdict() {
        let v = Machine::new(2, CostModel::zero_cost())
            .recv_timeout(2.0)
            .run_verdict(|rank| {
                if rank.rank() == 0 {
                    let _: u64 = rank.recv(1, 7); // never sent
                }
                rank.rank()
            });
        match v.verdict {
            RunVerdict::TimedOut {
                rank,
                src,
                tag,
                waited_s,
            } => {
                assert_eq!((rank, src, tag), (0, 1, 7));
                assert!(waited_s > 0.0 && waited_s <= 2.0);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(v.results[1], Some(1));
        assert_eq!(v.fault_counts.timeouts, 1);
    }

    #[test]
    fn fault_runs_reproduce_bitwise() {
        let m = CostModel::bluegene_p();
        let plan = FaultPlan::new()
            .crash_at(2, 1e-5)
            .delay_link(0, 1, 250.0)
            .duplicate_link(1, 3);
        let run = || {
            Machine::new(4, m)
                .fault_plan(plan.clone())
                .recv_timeout(1.0)
                .run_verdict(|rank| {
                    let r = rank.rank();
                    rank.compute(1e4 * (r + 1) as f64);
                    rank.send((r + 1) % rank.nranks(), 1, vec![r as f64; 32]);
                    let from = (r + rank.nranks() - 1) % rank.nranks();
                    let _: Vec<f64> = rank.recv(from, 1);
                    rank.clock()
                })
        };
        let a = run();
        let b = run();
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.fault_counts, b.fault_counts);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        for (x, y) in a.stats.iter().zip(&b.stats) {
            assert_eq!(x.clock_s.to_bits(), y.clock_s.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn legacy_run_panics_descriptively_on_injected_crash() {
        let _ = Machine::new(2, CostModel::zero_cost())
            .fault_plan(FaultPlan::new().crash_on_send(1, 1))
            .run(|rank| {
                if rank.rank() == 1 {
                    rank.send(0, 1, 1u64);
                } else {
                    let _: u64 = rank.recv(1, 1);
                }
                0
            });
    }

    #[test]
    #[should_panic(expected = "rank 0 timed out after 2.000000s waiting on (src=1, tag=7)")]
    fn run_panics_descriptively_on_timeout() {
        let _ = Machine::new(2, CostModel::zero_cost())
            .recv_timeout(2.0)
            .run(|rank| {
                if rank.rank() == 0 {
                    let _: u64 = rank.recv(1, 7); // never sent
                }
            });
    }

    // ---- communication matrix ----

    /// Classifier used by the matrix tests: even tags class 0, odd class 1.
    fn parity(tag: u64) -> usize {
        (tag % 2) as usize
    }

    #[test]
    fn comm_matrix_counts_per_link_and_class() {
        let r = Machine::new(3, CostModel::zero_cost())
            .comm_matrix(&["even", "odd"], parity)
            .run(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 2, vec![1.0f64; 4]); // 32 B, class 0
                    rank.send(2, 3, vec![1.0f64; 2]); // 16 B, class 1
                    rank.isend(2, 5, 7u64); // 8 B, class 1
                } else if rank.rank() == 1 {
                    let _: Vec<f64> = rank.recv(0, 2);
                } else {
                    let _: Vec<f64> = rank.recv(0, 3);
                    let _: u64 = rank.recv(0, 5);
                }
                0
            });
        let m = r.comm.expect("matrix requested");
        assert_eq!(m.class_names, vec!["even", "odd"]);
        assert_eq!(m.at(0, 1, 0), (32, 1));
        assert_eq!(m.at(0, 2, 1), (16 + 8, 2));
        assert_eq!(m.at(0, 2, 0), (0, 0));
        assert_eq!(m.sent_bytes(0), 56);
        assert_eq!(m.posted_bytes(2), 24);
        assert_eq!(m.class_bytes(1), 24);
        assert_eq!(m.total_bytes(), 56);
        assert_eq!(m.total_msgs(), 3);
        // Row/column sums reconcile with the per-rank counters.
        assert_eq!(r.stats[0].bytes_sent, 56);
        assert_eq!(r.stats[2].bytes_recv, 24);
        assert_eq!(r.stats[2].msgs_recv, 2);
    }

    #[test]
    fn comm_matrix_off_by_default_and_never_perturbs_clocks() {
        let program = |rank: &mut Rank| {
            if rank.rank() == 0 {
                rank.compute(1e6);
                rank.send(1, 4, vec![2.0f64; 128]);
                rank.isend(1, 5, vec![3.0f64; 64]);
            } else {
                let _: Vec<f64> = rank.recv(0, 4);
                let _: Vec<f64> = rank.recv(0, 5);
            }
            rank.clock()
        };
        let plain = Machine::new(2, CostModel::bluegene_p()).run(program);
        assert!(plain.comm.is_none());
        let traced = Machine::new(2, CostModel::bluegene_p())
            .comm_matrix(&["even", "odd"], parity)
            .run(program);
        // Bitwise identical virtual time with and without the matrix.
        for (a, b) in plain.results.iter().zip(&traced.results) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.makespan_s.to_bits(), traced.makespan_s.to_bits());
        assert_eq!(traced.comm.unwrap().total_msgs(), 2);
    }

    /// Fault-injected duplicates are posted into the network, so the sender
    /// counts both copies — row sums, column sums, and receive counters all
    /// agree (the end-of-run debug reconciliation also checks this).
    #[test]
    fn duplicated_messages_count_in_matrix_and_stats() {
        let v = Machine::new(2, CostModel::zero_cost())
            .fault_plan(FaultPlan::new().duplicate_link(0, 1))
            .comm_matrix(&["even", "odd"], parity)
            .run_verdict(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, 9u64);
                } else {
                    let a: u64 = rank.recv(0, 1);
                    let b: u64 = rank.recv(0, 1); // the injected copy
                    assert_eq!(a + b, 18);
                }
                0
            });
        assert!(v.verdict.is_completed());
        assert_eq!(v.fault_counts.duplicated_msgs, 1);
        assert_eq!(v.stats[0].bytes_sent, 16);
        assert_eq!(v.stats[0].msgs_sent, 2);
        assert_eq!(v.stats[1].bytes_recv, 16);
        let m = v.comm.expect("matrix requested");
        assert_eq!(m.at(0, 1, 1), (16, 2));
    }

    /// An undrained duplicate stays queued; the reconciliation assertion
    /// accepts it as leftover rather than mis-flagging a lost byte.
    #[test]
    fn undrained_duplicate_reconciles_as_leftover() {
        let v = Machine::new(2, CostModel::zero_cost())
            .fault_plan(FaultPlan::new().duplicate_link(0, 1))
            .comm_matrix(&["even", "odd"], parity)
            .run_verdict(|rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, 9u64);
                } else {
                    let _: u64 = rank.recv(0, 1); // drain one of two copies
                }
                0
            });
        assert!(v.verdict.is_completed());
        assert_eq!(v.stats[0].bytes_sent, 16);
        assert_eq!(v.stats[1].bytes_recv, 8);
        assert_eq!(v.comm.unwrap().posted_bytes(1), 16);
    }

    #[test]
    fn broadcast_forwards_land_in_matrix_rows() {
        // Binomial-tree bcast/ibcast forward through intermediate ranks;
        // each forward must appear on the forwarder's row so the matrix
        // reconciles (checked by the debug assertion at run end).
        let r = Machine::new(4, CostModel::bluegene_p())
            .comm_matrix(&["even", "odd"], parity)
            .run(|rank| {
                let world = collective::Group::new((0..rank.nranks()).collect());
                let seed = (rank.rank() == 0).then(|| vec![1.0f64; 16]);
                let v = collective::bcast(rank, &world, 0, seed, 6);
                assert_eq!(v.len(), 16);
                let seed = (rank.rank() == 0).then(|| vec![2.0f64; 8]);
                let w = collective::ibcast(rank, &world, 0, seed, 8);
                v[0] + w[0]
            });
        let m = r.comm.expect("matrix requested");
        // Every non-root rank received both payloads exactly once.
        for dst in 1..4 {
            assert_eq!(m.posted_bytes(dst), 16 * 8 + 8 * 8);
        }
        // Forwarding ranks sent some of that traffic (root did not send to
        // every rank directly in a 4-rank binomial tree).
        let forwarded: u64 = (1..4).map(|s| m.sent_bytes(s)).sum();
        assert!(forwarded > 0, "no forwards recorded");
        assert_eq!(
            m.total_bytes(),
            (0..4).map(|s| r.stats[s].bytes_sent).sum::<u64>()
        );
    }

    #[test]
    fn fault_markers_appear_on_traced_timelines() {
        let v = Machine::new(2, CostModel::zero_cost())
            .trace_events(true)
            .fault_plan(FaultPlan::new().crash_on_send(1, 1))
            .run_verdict(|rank| {
                if rank.rank() == 1 {
                    rank.send(0, 1, 1u64);
                } else {
                    let _: u64 = rank.recv(1, 1);
                }
                0
            });
        let faults: Vec<&SpanEvent> = v.events[1]
            .iter()
            .filter(|e| e.phase == Phase::Fault)
            .collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].dur_s, 0.0);
    }
}
