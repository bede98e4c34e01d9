//! The handle a rank's program uses to talk to the machine.

use crate::model::CostModel;
use crate::payload::Payload;
use crate::world::{End, Msg, RankCrashed, Shared, TimeoutAbort};
use crate::{Fault, FaultPlan};
use parfact_trace::{Phase, SpanEvent};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// This rank's view of the machine's [`FaultPlan`], compiled once at rank
/// start so the per-operation checks are cheap.
#[derive(Default)]
pub(crate) struct RankFaults {
    /// Earliest virtual time at which this rank crashes.
    pub(crate) crash_at: Option<f64>,
    /// Earliest send ordinal (1-based) at which this rank crashes.
    pub(crate) crash_on_send: Option<u64>,
    /// Extra in-network delay (seconds) per destination rank.
    pub(crate) delay_out: HashMap<usize, f64>,
    /// Destinations whose messages are delivered twice.
    pub(crate) dup_out: HashSet<usize>,
    /// Sends attempted so far (for `crash_on_send`).
    pub(crate) sends: u64,
}

impl RankFaults {
    pub(crate) fn compile(plan: &FaultPlan, rank: usize, model: &CostModel) -> Self {
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
pub(crate) struct CommSpec {
    pub(crate) names: Vec<String>,
    pub(crate) classify: Box<dyn Fn(u64) -> usize + Send + Sync>,
}

/// One rank's outgoing traffic, accounted per `(destination, tag class)`.
/// Recording is pure counter arithmetic on the sending rank — it never
/// reads or writes virtual clocks, so traced and untraced runs are bitwise
/// identical (same discipline as span recording).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CommRow {
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
    pub(crate) fn new(nranks: usize, nclasses: usize) -> Self {
        CommRow {
            nranks,
            nclasses,
            bytes: vec![0; nranks * nclasses],
            msgs: vec![0; nranks * nclasses],
        }
    }
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
    pub(crate) rank: usize,
    pub(crate) nranks: usize,
    pub(crate) shared: Arc<Shared>,
    pub(crate) clock: f64,
    pub(crate) compute_s: f64,
    pub(crate) comm_s: f64,
    pub(crate) comm_hidden_s: f64,
    pub(crate) flops: f64,
    pub(crate) bytes_sent: u64,
    pub(crate) msgs_sent: u64,
    pub(crate) bytes_recv: u64,
    pub(crate) msgs_recv: u64,
    pub(crate) mem_cur: u64,
    pub(crate) mem_peak: u64,
    /// Outgoing-traffic matrix row, present when the machine installed a
    /// [`Machine::comm_matrix`] spec. Pure counters: recording never reads
    /// or advances any clock.
    pub(crate) comm: Option<(Arc<CommSpec>, CommRow)>,
    /// When on, communication ops and [`Rank::compute_as`] append
    /// [`SpanEvent`]s (virtual timestamps, `who = rank`). Recording never
    /// touches the clocks, so traced and untraced runs are bitwise
    /// identical.
    pub(crate) trace: bool,
    pub(crate) events: Vec<SpanEvent>,
    /// Compiled view of the machine's fault plan for this rank.
    pub(crate) faults: RankFaults,
    /// Machine-wide default receive deadline (virtual seconds), applied by
    /// every blocking receive/wait; `None` leaves lost-message detection to
    /// the scan alone.
    pub(crate) recv_timeout: Option<f64>,
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

    /// Execute an injected crash: mark the rank dead (so the scan can
    /// attribute stalls to it) and unwind with the crash sentinel. The
    /// rank's already posted messages stay deliverable — a crash loses
    /// future sends only.
    fn crash_now(&mut self) -> ! {
        self.push_span(Phase::Fault, None, self.clock, 0.0);
        self.shared.retire(self.rank, End::Crashed);
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
        let delay = self
            .faults
            .delay_out
            .get(&dst)
            .filter(|&&extra| extra > 0.0);
        let arrival = delay.map_or(arrival, |extra| arrival + extra);
        let msg = |data: Box<dyn Any + Send>| Msg {
            data,
            arrival,
            bytes,
        };
        let dup = self.faults.dup_out.contains(&dst);
        let mut copies = Vec::with_capacity(2);
        if dup {
            copies.push(msg(Box::new(payload.clone())));
        }
        copies.push(msg(Box::new(payload)));
        self.shared
            .post(self.rank, dst, tag, copies, delay.is_some());
        1 + u64::from(dup)
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
    /// the scan fires this rank's deadline) the rank has waited until
    /// the deadline — its clock advances there — and the run aborts with
    /// [`RunVerdict::TimedOut`](crate::RunVerdict::TimedOut).
    pub fn recv<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        self.maybe_crash();
        let deadline = self.deadline();
        let Some(msg) = self.shared.recv(self.rank, (src, tag), deadline) else {
            let d = deadline.expect("a timeout needs a deadline");
            let waited_s = d - self.clock;
            self.wait_until(d);
            self.timeout_abort(src, tag, waited_s);
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

    /// Block (physically, without advancing the virtual clock) until every
    /// key in `keys` has a message at the head of its queue; return the head
    /// arrival times in `keys` order, consuming nothing. This is the
    /// primitive that event-driven schedulers use to make decisions from
    /// virtual time only.
    pub fn probe_all(&mut self, keys: &[(usize, u64)]) -> Vec<f64> {
        self.maybe_crash();
        let deadline = self.deadline();
        let arrivals = self
            .shared
            .probe(self.rank, keys, deadline)
            .unwrap_or_else(|(src, tag)| {
                let d = deadline.expect("only a deadline elects");
                self.timeout_abort(src, tag, d - self.clock)
            });
        if let Some(next) = arrivals.iter().copied().reduce(f64::min) {
            // One marker per poll, at the nearest head arrival (the
            // scheduler's event horizon).
            self.push_span(Phase::Wait, None, next, 0.0);
        }
        arrivals
    }

    /// The machine-wide deadline of a receive that starts now, if any.
    fn deadline(&self) -> Option<f64> {
        self.recv_timeout.map(|t| self.clock + t)
    }

    /// Abort the run on the machine-wide receive deadline, having waited
    /// `waited_s` on `(src, tag)`: tally it, mark the timeline, and unwind
    /// with the sentinel.
    fn timeout_abort(&mut self, src: usize, tag: u64, waited_s: f64) -> ! {
        self.shared.world.lock().faults.timeouts += 1;
        self.push_span(Phase::Fault, None, self.clock, 0.0);
        std::panic::panic_any(TimeoutAbort { src, tag, waited_s })
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

    /// Snapshot of this rank's statistics.
    pub fn stats(&self) -> RankStats {
        let queue_peak = self.shared.world.lock().boxes[self.rank].depth_peak as u64;
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
