//! A deterministic message-passing machine simulator.
//!
//! This crate stands in for MPI on a massively parallel machine (the SC'09
//! testbed was a Blue Gene/P-class system): each *rank* runs as a real OS
//! thread executing the real distributed algorithm and exchanging real
//! data, while a per-rank **virtual clock** advances according to an α–β
//! communication model and a per-flop compute rate ([`model::CostModel`]).
//!
//! What is real: every byte of payload, the algorithm's control flow, its
//! message pattern, and all numeric results (bit-for-bit deterministic —
//! receives are matched by `(source, tag)`, never by arrival order).
//! What is modelled: *time*. The simulated makespan is derived from the
//! same flop/byte/message counts that determine wall-clock time on real
//! hardware, which is what the scaling experiments measure.
//!
//! # Communication primitives
//!
//! The surface is what the distributed factorization uses: two sends, a
//! blocking receive, a probe and a wait-any, plus the binomial-tree
//! broadcasts in [`collective`].
//!
//! [`Rank::send`] models an eager blocking send: the sender is occupied for
//! the full `α + bytes·β`. [`Rank::isend`] models a nonblocking send whose
//! transfer is pipelined by the network: the sender pays only `α`, the
//! `bytes·β` transfer proceeds in the background (counted in
//! `comm_hidden_s`), and the message arrives at the receiver at
//! `clock_after_α + bytes·β`. On the receive side, [`Rank::recv`] takes one
//! `(source, tag)` message; [`Rank::probe_all`] reports the virtual arrival
//! times of several without consuming them, and [`Rank::wait_any`] takes
//! the earliest, so a schedule can react to what has *virtually* arrived.
//!
//! Determinism is preserved by a strict rule: every nonblocking decision is
//! a function of **virtual** arrival times, never of host-thread timing.
//! An operation that needs to know an arrival time physically blocks the OS
//! thread (without advancing the virtual clock) until the message is
//! posted, then decides. This is safe for SPMD programs in which every
//! expected message is eventually sent without further action from the
//! waiter; genuine protocol errors are caught by all-ranks-blocked deadlock
//! detection, which aborts the run with a per-rank diagnostic instead of
//! hanging.
//!
//! # Runs and verdicts
//!
//! [`Machine::run_verdict`] runs a program under an optional [`FaultPlan`]
//! and machine-wide receive deadline ([`Machine::recv_timeout`]) and
//! returns how it ended: completed, a crashed rank, a timed-out receive, or
//! a protocol deadlock. [`Machine::run`] is the same run for programs that
//! expect to complete, and panics on any other verdict.
//!
//! ```
//! use parfact_mpsim::{Machine, model::CostModel};
//!
//! let report = Machine::new(4, CostModel::bluegene_p()).run(|rank| {
//!     // SPMD program: ring-pass a token.
//!     let p = rank.nranks();
//!     let next = (rank.rank() + 1) % p;
//!     let prev = (rank.rank() + p - 1) % p;
//!     rank.send(next, 7, rank.rank() as u64);
//!     let token: u64 = rank.recv(prev, 7);
//!     token
//! });
//! assert_eq!(report.results, vec![3, 0, 1, 2]);
//! assert!(report.makespan_s > 0.0);
//! ```

pub mod collective;
pub mod fault;
pub mod model;
pub mod payload;

pub use fault::{Fault, FaultCounts, FaultPlan};

use model::CostModel;
use parfact_trace::{CommMatrixReport, Phase, SpanEvent};
use parking_lot::{Condvar, Mutex};
use payload::Payload;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A message in flight.
struct Msg {
    data: Box<dyn Any + Send>,
    /// Virtual time at which the message is fully available at the receiver.
    arrival: f64,
    /// Payload bytes, as charged to the sender. Read back when the message
    /// is consumed (receive counters) and for the end-of-run reconciliation
    /// of undrained queues against the communication matrix.
    bytes: usize,
}

#[derive(Default)]
struct Queues {
    map: HashMap<(usize, u64), std::collections::VecDeque<Msg>>,
    /// Messages currently queued (all keys).
    depth: usize,
    /// High-water mark of `depth`. A physical diagnostic of buffering
    /// pressure: it can vary run-to-run with host scheduling (unlike clocks
    /// and numeric results, which are deterministic).
    depth_peak: usize,
}

impl Queues {
    fn head_arrival(&self, key: &(usize, u64)) -> Option<f64> {
        self.map.get(key).and_then(|q| q.front()).map(|m| m.arrival)
    }
}

#[derive(Default)]
struct Mailbox {
    queues: Mutex<Queues>,
    signal: Condvar,
}

/// One parked rank's registration: what it waits for, and the absolute
/// virtual deadline of the wait (if any). Deadline-bearing waits are
/// resolved *at quiescence* by the scanner, which elects the earliest
/// deadline to fire — never by rank threads racing each other on host time.
struct Blocked {
    keys: Vec<(usize, u64)>,
    /// Absolute virtual deadline (wait-start clock + the machine-wide
    /// receive timeout), if the machine has one.
    deadline: Option<f64>,
}

/// Deadlock-detection registry: which ranks are parked in a blocking
/// receive (and on which keys), which have finished their program, and
/// which have crashed under an injected fault — finished and crashed ranks
/// can never send again.
struct WaitState {
    blocked: Vec<Option<Blocked>>,
    done: Vec<bool>,
    crashed: Vec<bool>,
    /// Rank elected by the scanner to fire its timeout. Set only at
    /// quiescence (every rank finished, crashed, or parked), consumed by
    /// the elected rank on its next poll. While an election is pending the
    /// scanner makes no further decisions.
    elected: Option<usize>,
}

/// Why a blocked run was aborted: a genuine protocol deadlock, or a
/// blockage caused by a crashed rank holding undelivered sends. The two get
/// different verdicts — conflating them (the old detector's behaviour)
/// mis-diagnoses an injected rank failure as a protocol bug.
#[derive(Clone)]
enum AbortReason {
    Deadlock(String),
    RankFailure(String),
}

/// Machine-wide tallies of injected-fault activity (lock-free: bumped from
/// rank threads, snapshotted after the run).
#[derive(Default)]
struct FaultTallies {
    crashes: AtomicU64,
    delayed_msgs: AtomicU64,
    duplicated_msgs: AtomicU64,
    timeouts: AtomicU64,
}

impl FaultTallies {
    fn snapshot(&self) -> FaultCounts {
        FaultCounts {
            crashes: self.crashes.load(Ordering::Relaxed),
            delayed_msgs: self.delayed_msgs.load(Ordering::Relaxed),
            duplicated_msgs: self.duplicated_msgs.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    boxes: Vec<Mailbox>,
    failed: AtomicBool,
    /// Registry used only for deadlock detection — see `register_blocked`.
    waiting: Mutex<WaitState>,
    /// Diagnostic set by the rank that detects an unresolvable blockage;
    /// every parked rank re-raises it.
    abort_reason: Mutex<Option<AbortReason>>,
    faults: FaultTallies,
    model: CostModel,
}

impl Shared {
    /// With the `waiting` lock held: if every rank is either finished or
    /// parked, and no parked rank's keys have a posted message anywhere,
    /// the blockage can never resolve by itself. Resolution is decided
    /// *here*, at quiescence, where every parked clock is frozen and the
    /// state is a deterministic function of the program and fault plan:
    ///
    /// 1. with a crashed rank in the picture, abort as a rank failure — the
    ///    precise verdict, without burning receive deadlines;
    /// 2. else elect the earliest receive deadline to fire (the rank aborts
    ///    the run with a typed timeout);
    /// 3. else record a protocol deadlock.
    ///
    /// Rank threads never resolve machine-wide deadlines on their own —
    /// that would race the abort against still-running peers and make
    /// failed-attempt clocks (and the makespan) host-timing-dependent.
    ///
    /// Lock order: `waiting` before any mailbox `queues`; waiters never
    /// hold their own `queues` lock while taking `waiting`.
    fn deadlock_scan(&self, w: &mut WaitState) {
        // A run that already failed (peer panic or timeout) aborts through
        // the failure flag; a deadlock verdict now would be spurious and
        // could mask the real panic.
        if self.failed.load(Ordering::SeqCst) {
            return;
        }
        // A pending election will wake its rank and change the state;
        // nothing further is decidable until it is consumed.
        if w.elected.is_some() {
            return;
        }
        let any_blocked = w.blocked.iter().any(Option::is_some);
        let all_stuck = any_blocked
            && w.done
                .iter()
                .zip(&w.crashed)
                .zip(&w.blocked)
                .all(|((&done, &crashed), blocked)| done || crashed || blocked.is_some());
        if !all_stuck {
            return;
        }
        let live = w.blocked.iter().enumerate().any(|(r, entry)| match entry {
            Some(b) => {
                let q = self.boxes[r].queues.lock();
                b.keys.iter().any(|k| q.head_arrival(k).is_some())
            }
            None => false,
        });
        if live {
            return;
        }
        let any_crashed = w.crashed.iter().any(|&c| c);
        // A crashed rank explains the blockage outright: abort with the
        // rank-failure verdict instead of electing a timeout that would burn
        // the full deadline first. Otherwise the earliest deadline fires;
        // deadlines are virtual, so the choice is deterministic, and ties
        // break by rank number.
        let winner = if any_crashed {
            None
        } else {
            w.blocked
                .iter()
                .enumerate()
                .filter_map(|(r, e)| e.as_ref().and_then(|b| b.deadline).map(|d| (d, r)))
                .min_by(|a, b| a.partial_cmp(b).expect("NaN deadline"))
                .map(|(_, r)| r)
        };
        if let Some(r) = winner {
            w.elected = Some(r);
            self.boxes[r].signal.notify_all();
            return;
        }
        // Classify *before* declaring deadlock: when a crashed rank is in
        // the picture, every live rank being blocked is the expected
        // consequence of the rank failure (the dead rank holds undelivered
        // sends), not a protocol bug — the verdict must be a rank failure,
        // never a spurious deadlock.
        use std::fmt::Write;
        let mut diag = if any_crashed {
            String::from(
                "mpsim rank failure: a crashed rank holds undelivered sends and \
                 every surviving rank is finished or blocked on them\n",
            )
        } else {
            String::from(
                "mpsim deadlock: every rank is finished or blocked in recv \
                 with no matching message in flight\n",
            )
        };
        for (r, entry) in w.blocked.iter().enumerate() {
            if w.crashed[r] {
                let _ = writeln!(diag, "  rank {r} crashed");
                continue;
            }
            match entry {
                Some(b) => {
                    let list = b
                        .keys
                        .iter()
                        .map(|(s, t)| format!("(src={s}, tag={t})"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    let _ = writeln!(diag, "  rank {r} waiting on: {list}");
                }
                None => {
                    let _ = writeln!(diag, "  rank {r} finished");
                }
            }
        }
        *self.abort_reason.lock() = Some(if any_crashed {
            AbortReason::RankFailure(diag)
        } else {
            AbortReason::Deadlock(diag)
        });
        self.failed.store(true, Ordering::SeqCst);
        for b in &self.boxes {
            b.signal.notify_all();
        }
    }

    /// Mark rank `r`'s program as completed: it can never send again, so a
    /// deadlock among the remaining ranks may now be decidable.
    fn mark_done(&self, r: usize) {
        let mut w = self.waiting.lock();
        w.done[r] = true;
        self.deadlock_scan(&mut w);
    }
}

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
            let sentinel = p.is::<PeerAborted>()
                || p.is::<DeadlockAbort>()
                || p.is::<StalledOnCrash>()
                || p.is::<RankCrashed>()
                || p.is::<TimeoutAbort>();
            if !sentinel {
                prev(info);
            }
        }));
    });
}

/// Panic payload used to abort ranks once a peer panicked or timed out.
/// Filtered out when the machine picks which panic to propagate.
struct PeerAborted;

/// Panic payload used to unwind ranks parked in a genuine deadlock; the
/// machine reports the run as [`RunVerdict::Deadlocked`].
struct DeadlockAbort;

/// Panic payload used to unwind ranks that are provably blocked on a
/// crashed rank's undelivered sends. The machine reports the run as
/// [`RunVerdict::RankFailed`], never as a deadlock.
struct StalledOnCrash;

/// Panic payload raised by a rank the fault plan crashes. Caught by the
/// machine and turned into a [`RunVerdict::RankFailed`].
struct RankCrashed {
    at_s: f64,
}

/// Panic payload raised by a blocking receive that exceeded the
/// machine-wide [`Machine::recv_timeout`], on the `(src, tag)` it was
/// matching and the virtual seconds it waited. Caught by the machine and
/// turned into a [`RunVerdict::TimedOut`].
struct TimeoutAbort {
    src: usize,
    tag: u64,
    waited_s: f64,
}

/// This rank's view of the machine's [`FaultPlan`], compiled once at rank
/// start so the per-operation checks are cheap.
#[derive(Default)]
struct RankFaults {
    /// Earliest virtual time at which this rank crashes.
    crash_at: Option<f64>,
    /// Earliest send ordinal (1-based) at which this rank crashes.
    crash_on_send: Option<u64>,
    /// Extra in-network delay (seconds) per destination rank.
    delay_out: HashMap<usize, f64>,
    /// Destinations whose messages are delivered twice.
    dup_out: HashSet<usize>,
    /// Sends attempted so far (for `crash_on_send`).
    sends: u64,
}

impl RankFaults {
    fn compile(plan: &FaultPlan, rank: usize, model: &CostModel) -> Self {
        let mut f = RankFaults::default();
        for fault in &plan.faults {
            match *fault {
                Fault::CrashAt { rank: r, at_s } if r == rank => {
                    f.crash_at = Some(f.crash_at.map_or(at_s, |t: f64| t.min(at_s)));
                }
                Fault::CrashOnSend { rank: r, nth } if r == rank => {
                    f.crash_on_send = Some(f.crash_on_send.map_or(nth, |k: u64| k.min(nth)));
                }
                Fault::DelayLink { src, dst, alphas } if src == rank => {
                    *f.delay_out.entry(dst).or_insert(0.0) += alphas * model.alpha_s;
                }
                Fault::DuplicateLink { src, dst } if src == rank => {
                    f.dup_out.insert(dst);
                }
                _ => {}
            }
        }
        f
    }
}

/// Tag-classification spec for the per-link communication matrix: class
/// names plus a pure function mapping a message tag to a class index.
/// Installed once per machine ([`Machine::comm_matrix`]) and shared by
/// every rank.
struct CommSpec {
    names: Vec<String>,
    classify: Box<dyn Fn(u64) -> usize + Send + Sync>,
}

/// One rank's outgoing traffic, accounted per `(destination, tag class)`.
/// Recording is pure counter arithmetic on the sending rank — it never
/// reads or writes virtual clocks, so traced and untraced runs are bitwise
/// identical (same discipline as span recording).
#[derive(Debug, Clone, PartialEq)]
struct CommRow {
    /// Number of ranks (row length).
    pub nranks: usize,
    /// Number of tag classes.
    pub nclasses: usize,
    /// Payload bytes sent, indexed `dst * nclasses + class`. Every posted
    /// copy is counted, including fault-injected duplicates.
    pub bytes: Vec<u64>,
    /// Messages sent, same indexing.
    pub msgs: Vec<u64>,
}

impl CommRow {
    fn new(nranks: usize, nclasses: usize) -> Self {
        CommRow {
            nranks,
            nclasses,
            bytes: vec![0; nranks * nclasses],
            msgs: vec![0; nranks * nclasses],
        }
    }
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

/// Per-rank execution statistics (virtual time and counters).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Final virtual clock (seconds).
    pub clock_s: f64,
    /// Virtual seconds spent computing.
    pub compute_s: f64,
    /// Virtual seconds spent in communication (send occupancy + recv waits).
    pub comm_s: f64,
    /// Modelled transfer seconds hidden under compute by [`Rank::isend`]:
    /// `bytes·β` that never occupied the sender's clock.
    pub comm_hidden_s: f64,
    /// Peak number of messages queued at this rank's mailbox at once
    /// (physical high-water mark; diagnostic, not deterministic).
    pub queue_peak: u64,
    /// Floating-point operations executed (as reported via `compute`).
    pub flops: f64,
    /// Payload bytes sent (every posted copy, fault duplicates included).
    pub bytes_sent: u64,
    /// Messages sent (every posted copy, fault duplicates included).
    pub msgs_sent: u64,
    /// Payload bytes received (consumed from the mailbox).
    pub bytes_recv: u64,
    /// Messages received (consumed from the mailbox).
    pub msgs_recv: u64,
    /// Peak tracked memory (bytes) — fronts/factors report via `alloc`/`free`.
    pub mem_peak: u64,
}

impl RankStats {
    /// Fold this rank's statistics into the shared report schema
    /// ([`parfact_trace::RankReport`]) used by every engine's
    /// `FactorReport`.
    pub fn to_report(&self, rank: usize) -> parfact_trace::RankReport {
        parfact_trace::RankReport {
            rank,
            clock_s: self.clock_s,
            compute_s: self.compute_s,
            comm_s: self.comm_s,
            comm_hidden_s: self.comm_hidden_s,
            queue_peak: self.queue_peak,
            flops: self.flops,
            bytes_sent: self.bytes_sent,
            msgs_sent: self.msgs_sent,
            bytes_recv: self.bytes_recv,
            msgs_recv: self.msgs_recv,
            mem_peak_bytes: self.mem_peak,
        }
    }
}

/// Handle a rank's program uses to talk to the machine.
pub struct Rank {
    rank: usize,
    nranks: usize,
    shared: Arc<Shared>,
    clock: f64,
    compute_s: f64,
    comm_s: f64,
    comm_hidden_s: f64,
    flops: f64,
    bytes_sent: u64,
    msgs_sent: u64,
    bytes_recv: u64,
    msgs_recv: u64,
    mem_cur: u64,
    mem_peak: u64,
    /// Outgoing-traffic matrix row, present when the machine installed a
    /// [`Machine::comm_matrix`] spec. Pure counters: recording never reads
    /// or advances any clock.
    comm: Option<(Arc<CommSpec>, CommRow)>,
    /// When on, communication ops and [`Rank::compute_as`] append
    /// [`SpanEvent`]s (virtual timestamps, `who = rank`). Recording never
    /// touches the clocks, so traced and untraced runs are bitwise
    /// identical.
    trace: bool,
    events: Vec<SpanEvent>,
    /// Compiled view of the machine's fault plan for this rank.
    faults: RankFaults,
    /// Machine-wide default receive deadline (virtual seconds), applied by
    /// every blocking receive/wait; `None` leaves lost-message detection to
    /// the deadlock scanner alone.
    recv_timeout: Option<f64>,
}

impl Rank {
    /// This rank's id in `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the machine.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Current virtual time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The machine's cost model.
    pub fn model(&self) -> &CostModel {
        &self.shared.model
    }

    /// Advance the virtual clock by the cost of `flops` floating-point
    /// operations. Call this next to the real computation it accounts for.
    pub fn compute(&mut self, flops: f64) {
        let dt = flops * self.shared.model.flop_time_s;
        self.clock += dt;
        self.compute_s += dt;
        self.flops += flops;
        self.maybe_crash();
    }

    /// [`Rank::compute`] plus an attributed [`SpanEvent`] (when event
    /// tracing is on): the span covers the virtual interval the charge
    /// occupied and tags it with a phase and optionally a supernode.
    pub fn compute_as(&mut self, flops: f64, phase: Phase, supernode: Option<usize>) {
        let t0 = self.clock;
        self.compute(flops);
        self.push_span(phase, supernode, t0, self.clock - t0);
    }

    /// Drain the recorded events (chronological for this rank).
    pub fn take_events(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events)
    }

    #[inline]
    fn push_span(&mut self, phase: Phase, supernode: Option<usize>, start_s: f64, dur_s: f64) {
        if self.trace {
            self.events.push(SpanEvent {
                phase,
                supernode,
                who: self.rank,
                start_s,
                dur_s,
            });
        }
    }

    /// Advance the virtual clock by an explicit amount of seconds (e.g.
    /// memory-bound phases accounted by bytes / bandwidth).
    pub fn advance(&mut self, seconds: f64) {
        self.clock += seconds;
        self.compute_s += seconds;
        self.maybe_crash();
    }

    /// Crash this rank now if its fault plan schedules a crash at or before
    /// the current virtual clock. Called at operation boundaries, so the
    /// crash point is a deterministic function of virtual time.
    #[inline]
    fn maybe_crash(&mut self) {
        if let Some(t) = self.faults.crash_at {
            if self.clock >= t {
                self.crash_now();
            }
        }
    }

    /// Count a send attempt and crash if the plan kills this rank on it.
    #[inline]
    fn note_send_attempt(&mut self) {
        self.faults.sends += 1;
        if let Some(n) = self.faults.crash_on_send {
            if self.faults.sends >= n {
                self.crash_now();
            }
        }
    }

    /// Execute an injected crash: mark the rank dead in the wait registry
    /// (so the blockage scanner can attribute stalls to it), wake every
    /// parked peer, and unwind with the crash sentinel. The rank's already
    /// posted messages stay deliverable — a crash loses future sends only.
    fn crash_now(&mut self) -> ! {
        self.shared.faults.crashes.fetch_add(1, Ordering::Relaxed);
        self.push_span(Phase::Fault, None, self.clock, 0.0);
        {
            let mut w = self.shared.waiting.lock();
            w.crashed[self.rank] = true;
            w.blocked[self.rank] = None;
            self.shared.deadlock_scan(&mut w);
        }
        for b in &self.shared.boxes {
            b.signal.notify_all();
        }
        std::panic::panic_any(RankCrashed { at_s: self.clock });
    }

    /// Report a tracked allocation (fronts, factor blocks).
    pub fn alloc(&mut self, bytes: usize) {
        self.mem_cur += bytes as u64;
        self.mem_peak = self.mem_peak.max(self.mem_cur);
    }

    /// Report a tracked deallocation.
    pub fn free(&mut self, bytes: usize) {
        self.mem_cur = self.mem_cur.saturating_sub(bytes as u64);
    }

    fn post(&self, dst: usize, tag: u64, data: Box<dyn Any + Send>, arrival: f64, bytes: usize) {
        let mbox = &self.shared.boxes[dst];
        {
            let mut q = mbox.queues.lock();
            q.map.entry((self.rank, tag)).or_default().push_back(Msg {
                data,
                arrival,
                bytes,
            });
            q.depth += 1;
            q.depth_peak = q.depth_peak.max(q.depth);
        }
        mbox.signal.notify_all();
    }

    /// Post `payload` applying this rank's outgoing link faults: per-link
    /// in-network delay shifts the arrival (the sender's clock is
    /// untouched), and a duplicated link posts a second copy at the same
    /// arrival. Returns the number of copies posted (2 on a duplicated
    /// link) so the sender's byte and message counters can account every
    /// copy that actually entered the network — the receiver drains (or
    /// leaves queued) exactly that many.
    fn deliver<T: Payload>(
        &self,
        dst: usize,
        tag: u64,
        payload: T,
        arrival: f64,
        bytes: usize,
    ) -> u64 {
        let mut arrival = arrival;
        if let Some(&extra) = self.faults.delay_out.get(&dst) {
            if extra > 0.0 {
                arrival += extra;
                self.shared
                    .faults
                    .delayed_msgs
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let dup = self.faults.dup_out.contains(&dst);
        let copies = if dup { 2 } else { 1 };
        if dup {
            self.post(dst, tag, Box::new(payload.clone()), arrival, bytes);
            self.shared
                .faults
                .duplicated_msgs
                .fetch_add(1, Ordering::Relaxed);
        }
        self.post(dst, tag, Box::new(payload), arrival, bytes);
        copies
    }

    /// Account `copies` posted copies of a `bytes`-byte message to `dst`
    /// under `tag` on the sender's counters and (when installed) the
    /// communication-matrix row. Counter arithmetic only — no clock access,
    /// so accounting can never perturb virtual time.
    #[inline]
    fn note_posted(&mut self, dst: usize, tag: u64, bytes: usize, copies: u64) {
        self.bytes_sent += bytes as u64 * copies;
        self.msgs_sent += copies;
        if let Some((spec, row)) = self.comm.as_mut() {
            let class = (spec.classify)(tag);
            debug_assert!(
                class < spec.names.len(),
                "tag {tag} classified to {class} of {} classes",
                spec.names.len()
            );
            let i = dst * row.nclasses + class.min(row.nclasses - 1);
            row.bytes[i] += bytes as u64 * copies;
            row.msgs[i] += copies;
        }
    }

    /// Send `payload` to rank `dst` with `tag`. The sender is occupied for
    /// `α + bytes·β` virtual seconds (store-and-forward injection); the
    /// message becomes available to the receiver at the sender's clock after
    /// injection.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: u64, payload: T) {
        assert!(dst < self.nranks, "send to rank {dst} of {}", self.nranks);
        assert_ne!(dst, self.rank, "self-sends are not modelled; restructure");
        self.maybe_crash();
        self.note_send_attempt();
        let bytes = payload.nbytes();
        let dt = self.shared.model.msg_time(bytes);
        self.push_span(Phase::Comm, None, self.clock, dt);
        self.clock += dt;
        self.comm_s += dt;
        let copies = self.deliver(dst, tag, payload, self.clock, bytes);
        self.note_posted(dst, tag, bytes, copies);
    }

    /// Nonblocking send: the sender is occupied for `α` only; the `bytes·β`
    /// transfer is pipelined by the modelled network and charged to
    /// [`RankStats::comm_hidden_s`] instead of the clock. The message
    /// arrives at the receiver at `clock_after_α + bytes·β`.
    pub fn isend<T: Payload>(&mut self, dst: usize, tag: u64, payload: T) {
        assert!(dst < self.nranks, "isend to rank {dst} of {}", self.nranks);
        assert_ne!(dst, self.rank, "self-sends are not modelled; restructure");
        self.maybe_crash();
        self.note_send_attempt();
        let bytes = payload.nbytes();
        let (alpha_s, beta_s_per_byte) =
            (self.shared.model.alpha_s, self.shared.model.beta_s_per_byte);
        let transfer = bytes as f64 * beta_s_per_byte;
        self.push_span(Phase::Comm, None, self.clock, alpha_s);
        self.clock += alpha_s;
        self.comm_s += alpha_s;
        self.comm_hidden_s += transfer;
        let copies = self.deliver(dst, tag, payload, self.clock + transfer, bytes);
        self.note_posted(dst, tag, bytes, copies);
    }

    /// Receive the next message from `src` with `tag`, blocking until it is
    /// available. The receiver's clock advances to at least the message's
    /// arrival time. Matching is strictly by `(src, tag)` — there is no
    /// wildcard receive, which keeps execution and floating point
    /// deterministic.
    ///
    /// Past the machine-wide receive deadline (the head arrives later, or
    /// the scanner fires this rank's deadline) the rank has waited until
    /// the deadline — its clock advances there — and the run aborts with
    /// [`RunVerdict::TimedOut`].
    pub fn recv<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        self.maybe_crash();
        let deadline = self.deadline();
        let late = match self.wait_heads(&[(src, tag)], deadline) {
            Ok(arrivals) => deadline.filter(|&d| arrivals[0] > d).map(|d| TimeoutAbort {
                src,
                tag,
                waited_s: d - self.clock,
            }),
            Err(t) => Some(t),
        };
        if let Some(t) = late {
            self.wait_until(deadline.expect("a timeout needs a deadline"));
            self.timeout_abort(t);
        }
        self.take(src, tag)
    }

    /// Block (physically, without advancing the virtual clock) until every
    /// key in `keys` has a message at the head of its queue; return the head
    /// arrival times in `keys` order, consuming nothing. This is the
    /// primitive that event-driven schedulers use to make decisions from
    /// virtual time only.
    pub fn probe_all(&mut self, keys: &[(usize, u64)]) -> Vec<f64> {
        self.maybe_crash();
        let arrivals = self
            .wait_heads(keys, self.deadline())
            .unwrap_or_else(|t| self.timeout_abort(t));
        if let Some(next) = arrivals.iter().copied().reduce(f64::min) {
            // One marker per poll, at the nearest head arrival (the
            // scheduler's event horizon).
            self.push_span(Phase::Wait, None, next, 0.0);
        }
        arrivals
    }

    /// Wait until the earliest (in virtual time) of the pending messages in
    /// `keys`, receive it, and return `(index_into_keys, value)`. Ties on
    /// arrival time break by `(src, tag)`, keeping the choice deterministic.
    /// The clock advances to the chosen message's arrival if it lies in the
    /// future.
    pub fn wait_any<T: Payload>(&mut self, keys: &[(usize, u64)]) -> (usize, T) {
        assert!(!keys.is_empty(), "wait_any on an empty key set");
        self.maybe_crash();
        let deadline = self.deadline();
        let arrivals = self
            .wait_heads(keys, deadline)
            .unwrap_or_else(|t| self.timeout_abort(t));
        let mut best = 0usize;
        for i in 1..keys.len() {
            let better =
                (arrivals[i], keys[i].0, keys[i].1) < (arrivals[best], keys[best].0, keys[best].1);
            if better {
                best = i;
            }
        }
        let (src, tag) = keys[best];
        if let Some(d) = deadline.filter(|&d| arrivals[best] > d) {
            self.timeout_abort(TimeoutAbort {
                src,
                tag,
                waited_s: d - self.clock,
            });
        }
        (best, self.take(src, tag))
    }

    /// The machine-wide deadline of a receive that starts now, if any.
    fn deadline(&self) -> Option<f64> {
        self.recv_timeout.map(|t| self.clock + t)
    }

    /// Abort the run on the machine-wide receive deadline: tally it, mark
    /// the timeline, and unwind with the sentinel.
    fn timeout_abort(&mut self, t: TimeoutAbort) -> ! {
        self.shared.faults.timeouts.fetch_add(1, Ordering::Relaxed);
        self.push_span(Phase::Fault, None, self.clock, 0.0);
        std::panic::panic_any(t)
    }

    /// Advance the clock to `t` if it lies in the future, as a recorded
    /// wait.
    fn wait_until(&mut self, t: f64) {
        if t > self.clock {
            self.push_span(Phase::Wait, None, self.clock, t - self.clock);
            self.comm_s += t - self.clock;
            self.clock = t;
        }
    }

    /// Consume the head message of `(src, tag)`, which [`Rank::wait_heads`]
    /// saw posted, and wait until its arrival.
    fn take<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        let msg = {
            use std::collections::hash_map::Entry;
            let mut q = self.shared.boxes[self.rank].queues.lock();
            let Entry::Occupied(mut queue) = q.map.entry((src, tag)) else {
                panic!("message head vanished between wait and pop");
            };
            let msg = queue
                .get_mut()
                .pop_front()
                .expect("queued keys are never empty");
            // An empty queue means what an absent one does; dropping it keeps
            // the table the size of what is queued, not of every `(src,
            // tag)` ever received (the dist engine uses each tag once).
            if queue.get().is_empty() {
                queue.remove();
            }
            q.depth -= 1;
            msg
        };
        // Receive counters are bumped here, on the deterministic consume
        // path — never read back from mailbox state at snapshot time, which
        // (like `queue_peak`) could race host scheduling.
        self.bytes_recv += msg.bytes as u64;
        self.msgs_recv += 1;
        self.wait_until(msg.arrival);
        match msg.data.downcast::<T>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "rank {}: type mismatch receiving (src={src}, tag={tag}): expected {}",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Abort this rank because the run failed elsewhere: re-raise the
    /// recorded abort diagnostic (deadlock or crash-induced stall) as the
    /// matching sentinel, otherwise unwind with `PeerAborted` (filtered out
    /// by the machine).
    fn check_failed(&self) {
        if self.shared.failed.load(Ordering::SeqCst) {
            match &*self.shared.abort_reason.lock() {
                Some(AbortReason::Deadlock(_)) => std::panic::panic_any(DeadlockAbort),
                Some(AbortReason::RankFailure(_)) => std::panic::panic_any(StalledOnCrash),
                None => std::panic::panic_any(PeerAborted),
            }
        }
    }

    /// Park until every key in `keys` has a queue head; return the head
    /// arrivals in `keys` order. Blocks the OS thread only — the virtual
    /// clock is untouched. All blocking receives funnel through here so the
    /// deadlock detector sees every parked rank.
    ///
    /// A deadline never resolves on this thread: the rank parks and the
    /// deadlock scanner decides at quiescence, when every parked clock is
    /// frozen — otherwise the abort would race still-running peers and the
    /// failed attempt's clocks (and makespan) would depend on host timing.
    /// A rank elected by the scanner returns the timeout on its smallest
    /// missing `(src, tag)` key.
    fn wait_heads(
        &self,
        keys: &[(usize, u64)],
        deadline: Option<f64>,
    ) -> Result<Vec<f64>, TimeoutAbort> {
        for &(src, _) in keys {
            assert!(src < self.nranks, "recv from rank {src} of {}", self.nranks);
        }
        let mbox = &self.shared.boxes[self.rank];
        loop {
            let missing: Vec<(usize, u64)> = {
                let q = mbox.queues.lock();
                let missing: Vec<(usize, u64)> = keys
                    .iter()
                    .copied()
                    .filter(|k| q.head_arrival(k).is_none())
                    .collect();
                if missing.is_empty() {
                    return Ok(keys
                        .iter()
                        .map(|k| q.head_arrival(k).expect("head present"))
                        .collect());
                }
                missing
            };
            self.check_failed();
            if let Some(d) = deadline {
                let elected = {
                    let mut w = self.shared.waiting.lock();
                    let e = w.elected == Some(self.rank);
                    if e {
                        w.elected = None;
                    }
                    e
                };
                if elected {
                    let &(src, tag) = missing.iter().min().expect("elected with no missing key");
                    return Err(TimeoutAbort {
                        src,
                        tag,
                        waited_s: d - self.clock,
                    });
                }
            }
            self.register_blocked(&missing, deadline);
            {
                let mut q = mbox.queues.lock();
                let still_missing = missing.iter().any(|k| q.head_arrival(k).is_none());
                if still_missing && !self.shared.failed.load(Ordering::SeqCst) {
                    mbox.signal.wait_for(&mut q, Duration::from_millis(50));
                }
            }
            self.unregister_blocked();
            self.check_failed();
        }
    }

    /// Record this rank as parked on `missing`. The rank that completes the
    /// "everyone is finished or parked" condition verifies the deadlock: no
    /// registered key anywhere has a posted message. Between registering
    /// and unregistering a rank sends nothing, so if the scan finds no
    /// satisfying message the blockage cannot resolve — fail the run with a
    /// per-rank diagnostic instead of hanging.
    fn register_blocked(&self, missing: &[(usize, u64)], deadline: Option<f64>) {
        let mut w = self.shared.waiting.lock();
        w.blocked[self.rank] = Some(Blocked {
            keys: missing.to_vec(),
            deadline,
        });
        self.shared.deadlock_scan(&mut w);
    }

    fn unregister_blocked(&self) {
        self.shared.waiting.lock().blocked[self.rank] = None;
    }

    /// Snapshot of this rank's statistics.
    pub fn stats(&self) -> RankStats {
        let queue_peak = self.shared.boxes[self.rank].queues.lock().depth_peak as u64;
        RankStats {
            clock_s: self.clock,
            compute_s: self.compute_s,
            comm_s: self.comm_s,
            comm_hidden_s: self.comm_hidden_s,
            queue_peak,
            flops: self.flops,
            bytes_sent: self.bytes_sent,
            msgs_sent: self.msgs_sent,
            bytes_recv: self.bytes_recv,
            msgs_recv: self.msgs_recv,
            mem_peak: self.mem_peak,
        }
    }
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
    /// Unwound by a peer abort, deadlock, or crash-induced stall.
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
        let shared = Arc::new(Shared {
            boxes: (0..self.nranks).map(|_| Mailbox::default()).collect(),
            failed: AtomicBool::new(false),
            waiting: Mutex::new(WaitState {
                blocked: (0..self.nranks).map(|_| None).collect(),
                done: vec![false; self.nranks],
                crashed: vec![false; self.nranks],
                elected: None,
            }),
            abort_reason: Mutex::new(None),
            faults: FaultTallies::default(),
            model: self.model,
        });
        let abort = |shared: &Shared| {
            shared.failed.store(true, Ordering::SeqCst);
            for b in &shared.boxes {
                b.signal.notify_all();
            }
        };
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
                                nranks: shared.boxes.len(),
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
                                    shared.mark_done(r);
                                    RankEnd::Done(v)
                                }
                                Err(p) => {
                                    if let Some(c) = p.downcast_ref::<RankCrashed>() {
                                        // The crash registry was updated in
                                        // `crash_now`; peers keep running
                                        // (or time out / stall on us).
                                        RankEnd::Crashed { at_s: c.at_s }
                                    } else if let Some(t) = p.downcast_ref::<TimeoutAbort>() {
                                        abort(&shared);
                                        shared.mark_done(r);
                                        RankEnd::TimedOut {
                                            src: t.src,
                                            tag: t.tag,
                                            waited_s: t.waited_s,
                                        }
                                    } else if p.is::<PeerAborted>()
                                        || p.is::<DeadlockAbort>()
                                        || p.is::<StalledOnCrash>()
                                    {
                                        RankEnd::Stalled
                                    } else {
                                        abort(&shared);
                                        shared.mark_done(r);
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
                        if p.downcast_ref::<PeerAborted>().is_none() {
                            first_panic.get_or_insert(p);
                        }
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
        let abort_reason = shared.abort_reason.lock().clone();
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
            if let Some(AbortReason::RankFailure(diag)) = &abort_reason {
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
        } else if let Some(AbortReason::Deadlock(detail)) = abort_reason {
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
            fault_counts: shared.faults.snapshot(),
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
        let q = shared.boxes[r].queues.lock();
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
    use model::CostModel;

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
            let mailbox = rank.shared.boxes[me].queues.lock();
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
            // Peers block on a message that will never come; the failure
            // flag must wake and abort them rather than hang the test.
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
                let got: (usize, u64) = rank.wait_any(&[(0, 4)]);
                assert_eq!(got, (0, 9));
                assert_eq!(rank.clock(), 1.5); // already arrived: no wait
                1
            }
        });
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    fn wait_any_picks_earliest_virtual_arrival() {
        let m = CostModel {
            alpha_s: 1.0,
            beta_s_per_byte: 0.0,
            flop_time_s: 1.0,
        };
        let r = Machine::new(3, m).run(|rank| {
            match rank.rank() {
                0 => {
                    // Arrives at t = 1.
                    rank.send(2, 5, 100u64);
                    0
                }
                1 => {
                    // Same tag, later virtual arrival (t = 4) — but often
                    // physically posted first.
                    rank.compute(3.0);
                    rank.send(2, 5, 200u64);
                    0
                }
                _ => {
                    let keys = [(1usize, 5u64), (0usize, 5u64)];
                    let (i1, v1): (usize, u64) = rank.wait_any(&keys);
                    assert_eq!((i1, v1), (1, 100)); // rank 0's message first
                                                    // Only one pending key remains: drop the consumed one.
                    let (i2, v2): (usize, u64) = rank.wait_any(&keys[..1]);
                    assert_eq!((i2, v2), (0, 200));
                    assert_eq!(rank.clock(), 4.0);
                    1
                }
            }
        });
        assert_eq!(r.results, vec![0, 0, 1]);
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
                let (i, y): (usize, u64) = rank.wait_any(&keys[..1]);
                assert_eq!((i, y), (0, 6));
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
        // protocol bug that used to hang forever in 50 ms condvar waits.
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
                let _: (usize, u64) = rank.wait_any(&[(0, 2)]); // wait [7, 12]
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
