//! The metrics engine: a shared [`Collector`] holding the merged counters
//! and span events, fed by per-thread / per-rank [`LocalRecorder`]s.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Every hook on the hot path is a single
//!    predictable branch on a plain `bool`; no `Instant::now()`, no atomic
//!    traffic, no allocation. The default [`TraceLevel::Off`] makes the
//!    instrumented engines bench identically to the uninstrumented seed.
//! 2. **No cross-thread contention while recording.** Worker threads
//!    accumulate into a private [`LocalRecorder`] (plain fields) and merge
//!    into the collector once, under its lock, when the recorder drops. The only
//!    shared-at-record-time state is the memory high-water mark, which must
//!    be global to mean anything under concurrency — and is touched per
//!    front, not per entry.
//! 3. **Engine-agnostic.** The same counter set describes the sequential,
//!    SMP, and distributed engines; distributed runs additionally fold the
//!    simulator's per-rank statistics into the report (see
//!    [`crate::report`]).

use crate::fields::{record, wire_enum, Wire};
use crate::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much instrumentation to collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No recording. Every hook reduces to one branch.
    #[default]
    Off,
    /// Aggregate counters and per-phase times.
    Counters,
    /// Counters plus span events — one [`SpanEvent`] per (front, phase)
    /// from every engine, the analysis stages, and the simulator's
    /// communication events (send/wait spans with virtual timestamps) —
    /// and a post-run profile: per-lane timelines, Chrome-trace export,
    /// and critical-path analysis (see [`crate::timeline`] and
    /// [`crate::profile`]).
    Timeline,
}

impl TraceLevel {
    /// Is anything recorded at all?
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }

    /// Are span events, communication events and the timeline profile
    /// recorded?
    pub fn timeline(self) -> bool {
        self == TraceLevel::Timeline
    }
}

wire_enum! {
    /// Instrumented phases of the numeric factorization, each with its
    /// stable wire name.
    ///
    /// On the host engines (sequential, SMP subtrees and top) an LLᵀ front
    /// times its pivot columns, with each panel's update from the panels
    /// left of it, as `Panel` and its one Schur update as `Gemm`, at any
    /// thread count; an LDLᵀ front is timed whole as `Panel`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Phase {
        /// Front assembly: scatter of original-matrix entries plus extend-add
        /// of children update matrices.
        ExtendAdd = "extend_add",
        /// Partial dense factorization of the pivot block (POTRF/LDLᵀ + TRSM).
        Panel = "panel",
        /// Trailing (Schur) update, where it runs as a distinct stage.
        Gemm = "gemm",
        /// Triangular solves.
        Solve = "solve",
        /// Time a rank's virtual clock was occupied sending (α + β·bytes for a
        /// blocking send, α alone for a nonblocking one). Distributed engine at
        /// [`TraceLevel::Timeline`] only.
        Comm = "comm",
        /// Time a rank's virtual clock sat blocked for a message that had not
        /// yet arrived. Distributed engine at [`TraceLevel::Timeline`] only.
        Wait = "wait",
        /// Analysis: graph coarsening (heavy-edge matching + contraction)
        /// inside a multilevel bisection.
        Coarsen = "coarsen",
        /// Analysis: initial partition and projection of a multilevel
        /// bisection, plus separator extraction.
        Bisect = "bisect",
        /// Analysis: boundary Fiduccia–Mattheyses refinement passes.
        Refine = "refine",
        /// Analysis: minimum-degree ordering of leaf subgraphs below the
        /// nested-dissection cutoff.
        Mindeg = "mindeg",
        /// Analysis: elimination tree construction, postorder and matrix
        /// permutation.
        Etree = "etree",
        /// Analysis: factor column counts (Gilbert–Ng–Peyton sweeps).
        Colcount = "colcount",
        /// Analysis: supernode partition and per-supernode row structure.
        Structure = "structure",
        /// An injected-fault marker (crash or receive timeout) from the
        /// simulator's fault plan: a zero-duration instant stamped at the
        /// rank's virtual clock. Distributed engine at
        /// [`TraceLevel::Timeline`] under fault injection only.
        Fault = "fault",
    }
}

impl Wire for Phase {
    fn to_json(&self) -> Json {
        Json::str(self.name())
    }
    fn from_json(j: &Json) -> Option<Phase> {
        Phase::from_name(j.as_str()?)
    }
}

impl Phase {
    /// True for the phases of the analysis front-end (ordering + symbolic).
    /// The critical-path profile excludes them the way it excludes `Solve`:
    /// its readiness model describes the numeric factorization only.
    pub fn is_analysis(self) -> bool {
        matches!(
            self,
            Phase::Coarsen
                | Phase::Bisect
                | Phase::Refine
                | Phase::Mindeg
                | Phase::Etree
                | Phase::Colcount
                | Phase::Structure
        )
    }
}

record! {
    /// One timed event: `who` (thread or rank) spent `dur_s` in `phase`,
    /// optionally attributed to a supernode, starting `start_s` seconds after
    /// the collector was created.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpanEvent {
        phase: Phase = required;
        /// Supernode the work belonged to, if attributable.
        supernode: Option<usize> = required;
        /// Recording thread (SMP) or rank (distributed).
        who: usize = required;
        start_s: f64 = required;
        dur_s: f64 = required;
    }
}

/// Canonical span order: by start time, ties broken by recorder id
/// (rank/worker), further ties kept in append order (stable sort). Both
/// [`Collector::take_spans`] and the distributed engine's event merge use
/// this so every consumer sees one ordering.
pub fn sort_spans(spans: &mut [SpanEvent]) {
    spans.sort_by(|a, b| {
        a.start_s
            .partial_cmp(&b.start_s)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.who.cmp(&b.who))
    });
}

record! {
    /// A plain snapshot of every counter. This is both the merge unit (what a
    /// [`LocalRecorder`] accumulates) and the report payload. The analysis
    /// times postdate the first schema revision.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Counters {
        /// Frontal matrices factored.
        fronts_factored: u64 = required, sum;
        /// Floating-point operations of the partial factorizations (the LAPACK
        /// multiply-and-add-counted-separately convention; `n³/3` dense).
        flops: f64 = required, sum;
        /// Bytes scattered into fronts during assembly (original entries +
        /// extend-add contributions actually applied).
        bytes_assembled: u64 = required, sum;
        /// Payload bytes sent between ranks (distributed engine only).
        bytes_sent: u64 = required, sum;
        /// Messages sent between ranks (distributed engine only).
        msgs_sent: u64 = required, sum;
        /// Seconds spent assembling fronts (scatter + extend-add).
        extend_add_s: f64 = required, sum <- ExtendAdd;
        /// Seconds spent in partial dense factorization kernels.
        panel_s: f64 = required, sum <- Panel;
        /// Seconds spent in distinct trailing-update (GEMM-like) stages.
        gemm_s: f64 = required, sum <- Gemm;
        /// Analysis seconds: multilevel coarsening.
        coarsen_s: f64 = default, sum <- Coarsen;
        /// Analysis seconds: initial partition + projection + separator.
        bisect_s: f64 = default, sum <- Bisect;
        /// Analysis seconds: FM refinement.
        refine_s: f64 = default, sum <- Refine;
        /// Analysis seconds: minimum-degree on leaf subgraphs.
        mindeg_s: f64 = default, sum <- Mindeg;
        /// Analysis seconds: elimination tree + postorder + permutation.
        etree_s: f64 = default, sum <- Etree;
        /// Analysis seconds: column counts.
        colcount_s: f64 = default, sum <- Colcount;
        /// Analysis seconds: supernode partition + row structure.
        structure_s: f64 = default, sum <- Structure;
        /// High-water mark of tracked working memory (fronts, panels, update
        /// matrices), bytes.
        mem_peak_bytes: u64 = required, max;
    }
}

/// What one worker (thread id for SMP, 0 for sequential) contributed:
/// attributed kernel seconds, flops, and its own allocation high-water
/// mark. Accumulated in the [`Collector`] as recorders flush, so the host
/// engines can report per-worker rows the way the distributed engine
/// reports per-rank rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerSummary {
    /// Recorder id (`who` passed to [`Collector::local`]).
    pub who: usize,
    /// Seconds attributed to numeric kernels (extend-add + panel + gemm) on
    /// this worker.
    pub compute_s: f64,
    /// Factorization flops performed by this worker.
    pub flops: f64,
    /// High-water mark of tracked memory *allocated by* this worker, bytes.
    /// (An update freed by a different worker, as an SMP local root's by
    /// the top, is debited there; per-worker peaks attribute allocation pressure, the global
    /// [`Counters::mem_peak_bytes`] remains the true concurrent peak.)
    pub mem_peak_bytes: u64,
}

/// The shared sink every engine records into.
///
/// Construct one per factorization with [`Collector::new`], hand it to an
/// engine, then [`Collector::snapshot`] / [`Collector::take_spans`] feed
/// the report. A `Collector::disabled()`
/// collector is free to pass around: every hook is one branch.
pub struct Collector {
    level: TraceLevel,
    epoch: Instant,
    /// Everything the recorders flushed so far (its `mem_peak_bytes` is
    /// unused: the high-water mark is the atomic below).
    counters: Mutex<Counters>,
    mem_cur: AtomicU64,
    mem_peak: AtomicU64,
    spans: Mutex<Vec<SpanEvent>>,
    workers: Mutex<BTreeMap<usize, WorkerSummary>>,
}

impl Collector {
    /// A collector recording at `level`.
    pub fn new(level: TraceLevel) -> Self {
        Collector {
            level,
            // lint:allow(R1) span-timestamp epoch: wall-clock origin for traces, never feeds virtual time
            epoch: Instant::now(),
            counters: Mutex::new(Counters::default()),
            mem_cur: AtomicU64::new(0),
            mem_peak: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            workers: Mutex::new(BTreeMap::new()),
        }
    }

    /// The no-op collector engines use when the caller asked for nothing.
    pub fn disabled() -> Self {
        Collector::new(TraceLevel::Off)
    }

    /// Recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Is anything recorded at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// Open a private recorder for thread / rank `who`. Its contents merge
    /// into this collector when it drops (or on [`LocalRecorder::flush`]).
    pub fn local(&self, who: usize) -> LocalRecorder<'_> {
        LocalRecorder {
            tr: self,
            who,
            c: Counters::default(),
            spans: Vec::new(),
            mem_cur: Cell::new(0),
            mem_peak: Cell::new(0),
        }
    }

    /// Report a tracked working-memory allocation. Global (atomic) so the
    /// high-water mark is meaningful when several threads hold fronts
    /// concurrently.
    #[inline]
    pub fn mem_alloc(&self, bytes: usize) {
        if !self.enabled() {
            return;
        }
        let cur = self.mem_cur.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.mem_peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Report a tracked working-memory release.
    #[inline]
    pub fn mem_free(&self, bytes: usize) {
        if !self.enabled() {
            return;
        }
        // Saturating: merges of untracked frees must not wrap.
        let mut cur = self.mem_cur.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes as u64);
            match self.mem_cur.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The single merge point: fold a recorder's counters, spans and
    /// per-worker contribution in (called from [`LocalRecorder::flush`],
    /// once per recorder, enabled collectors only). Seconds and flops of a
    /// worker accumulate — an engine may open several recorders for the
    /// same `who` — and its memory peak takes the max.
    fn absorb(&self, c: &Counters, spans: &mut Vec<SpanEvent>, s: WorkerSummary) {
        self.counters.lock().unwrap().merge(c);
        if !spans.is_empty() {
            self.spans.lock().unwrap().append(spans);
        }
        let mut map = self.workers.lock().unwrap();
        let e = map.entry(s.who).or_insert(WorkerSummary {
            who: s.who,
            ..WorkerSummary::default()
        });
        e.compute_s += s.compute_s;
        e.flops += s.flops;
        e.mem_peak_bytes = e.mem_peak_bytes.max(s.mem_peak_bytes);
    }

    /// Per-worker summaries accumulated so far, ordered by worker id.
    /// Meaningful once every recorder has flushed (host engines call this
    /// after the factorization joins its workers).
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        self.workers.lock().unwrap().values().copied().collect()
    }

    /// Snapshot every counter.
    pub fn snapshot(&self) -> Counters {
        Counters {
            mem_peak_bytes: self.mem_peak.load(Ordering::Relaxed),
            ..*self.counters.lock().unwrap()
        }
    }

    /// Remove and return the recorded span events, sorted by start time
    /// (stable, ties broken by recorder id) — per-thread recorders merge in
    /// drop order, so the raw buffer interleaves arbitrarily.
    pub fn take_spans(&self) -> Vec<SpanEvent> {
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap());
        sort_spans(&mut spans);
        spans
    }

    /// Seconds since the collector was created (span timestamps base).
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// An in-flight timing started by [`LocalRecorder::start`]. `None` inside
/// means tracing is off and no clock was read.
#[must_use]
pub struct Tick(Option<Instant>);

/// A thread's (or rank's) private accumulation buffer. All fields are plain
/// — recording is branch + add. Contents merge into the parent collector on
/// drop.
pub struct LocalRecorder<'a> {
    tr: &'a Collector,
    who: usize,
    c: Counters,
    spans: Vec<SpanEvent>,
    // This worker's own allocation high-water (Cells so the hooks stay
    // `&self` like the collector's). The global collector peak remains the
    // concurrent truth; this feeds the per-worker summary.
    mem_cur: Cell<u64>,
    mem_peak: Cell<u64>,
}

impl LocalRecorder<'_> {
    /// Is anything recorded at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tr.enabled()
    }

    /// Begin timing a phase. Free when tracing is off.
    #[inline]
    pub fn start(&self) -> Tick {
        if self.enabled() {
            // lint:allow(R1) phase-timing tick: measures real host work for reports, never feeds virtual time
            Tick(Some(Instant::now()))
        } else {
            Tick(None)
        }
    }

    /// Finish a timing: accumulate into the phase counter and, at
    /// [`TraceLevel::Timeline`], record a span event.
    #[inline]
    pub fn stop(&mut self, tick: Tick, phase: Phase, supernode: Option<usize>) {
        let Some(t0) = tick.0 else { return };
        let dur_s = t0.elapsed().as_secs_f64();
        self.c.add_phase(phase, dur_s);
        if self.tr.level.timeline() {
            let end_s = self.tr.now_s();
            self.spans.push(SpanEvent {
                phase,
                supernode,
                who: self.who,
                start_s: end_s - dur_s,
                dur_s,
            });
        }
    }

    /// Count one factored front.
    #[inline]
    pub fn front_done(&mut self) {
        if self.enabled() {
            self.c.fronts_factored += 1;
        }
    }

    /// Count factorization flops.
    #[inline]
    pub fn add_flops(&mut self, flops: f64) {
        if self.enabled() {
            self.c.flops += flops;
        }
    }

    /// Count entries scattered into a front during assembly.
    #[inline]
    pub fn add_assembled_entries(&mut self, entries: u64) {
        if self.enabled() {
            self.c.bytes_assembled += entries * 8;
        }
    }

    /// Tracked allocation — updates both the global high-water mark and
    /// this worker's own.
    #[inline]
    pub fn mem_alloc(&self, bytes: usize) {
        if !self.enabled() {
            return;
        }
        self.tr.mem_alloc(bytes);
        let cur = self.mem_cur.get() + bytes as u64;
        self.mem_cur.set(cur);
        self.mem_peak.set(self.mem_peak.get().max(cur));
    }

    /// Tracked release (saturating locally: an update allocated on another
    /// worker, as an SMP local root's, may be freed here).
    #[inline]
    pub fn mem_free(&self, bytes: usize) {
        if !self.enabled() {
            return;
        }
        self.tr.mem_free(bytes);
        self.mem_cur
            .set(self.mem_cur.get().saturating_sub(bytes as u64));
    }

    /// Merge into the parent collector now (drop does this implicitly). A
    /// disabled recorder holds nothing and takes no lock.
    pub fn flush(&mut self) {
        if !self.enabled() {
            return;
        }
        let summary = WorkerSummary {
            who: self.who,
            compute_s: self.c.extend_add_s + self.c.panel_s + self.c.gemm_s,
            flops: self.c.flops,
            mem_peak_bytes: self.mem_peak.get(),
        };
        self.tr.absorb(&self.c, &mut self.spans, summary);
        self.c = Counters::default();
    }
}

impl Drop for LocalRecorder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let tr = Collector::disabled();
        {
            let mut rec = tr.local(0);
            let t = rec.start();
            rec.stop(t, Phase::Panel, Some(3));
            rec.add_flops(1e9);
            rec.front_done();
            rec.add_assembled_entries(10);
            rec.mem_alloc(1 << 20);
        }
        tr.mem_alloc(123);
        assert_eq!(tr.snapshot(), Counters::default());
        assert!(tr.take_spans().is_empty());
    }

    #[test]
    fn concurrent_recording_merges_exactly() {
        let tr = Collector::new(TraceLevel::Counters);
        let nthreads = 8usize;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for w in 0..nthreads {
                let tr = &tr;
                scope.spawn(move || {
                    let mut rec = tr.local(w);
                    for _ in 0..per_thread {
                        rec.front_done();
                        rec.add_flops(2.0);
                        rec.add_assembled_entries(3);
                    }
                });
            }
        });
        let c = tr.snapshot();
        let total = nthreads as u64 * per_thread;
        assert_eq!(c.fronts_factored, total);
        assert_eq!(c.flops, 2.0 * total as f64);
        assert_eq!(c.bytes_assembled, 3 * 8 * total);
    }

    #[test]
    fn concurrent_memory_high_water_is_global() {
        let tr = Collector::new(TraceLevel::Counters);
        let nthreads = 4usize;
        let barrier = std::sync::Barrier::new(nthreads);
        std::thread::scope(|scope| {
            for _ in 0..nthreads {
                let (tr, barrier) = (&tr, &barrier);
                scope.spawn(move || {
                    tr.mem_alloc(100);
                    // All threads hold 100 bytes simultaneously.
                    barrier.wait();
                    barrier.wait();
                    tr.mem_free(100);
                });
            }
        });
        assert_eq!(tr.snapshot().mem_peak_bytes, 100 * nthreads as u64);
        // Frees below zero saturate rather than wrap.
        tr.mem_free(1 << 40);
        tr.mem_alloc(1);
        assert_eq!(tr.snapshot().mem_peak_bytes, 100 * nthreads as u64);
    }

    #[test]
    fn spans_recorded_only_at_timeline_level() {
        for (level, expect) in [(TraceLevel::Counters, 0usize), (TraceLevel::Timeline, 2)] {
            let tr = Collector::new(level);
            {
                let mut rec = tr.local(7);
                let t = rec.start();
                rec.stop(t, Phase::ExtendAdd, Some(0));
                let t = rec.start();
                rec.stop(t, Phase::Panel, None);
            }
            let spans = tr.take_spans();
            assert_eq!(spans.len(), expect, "level {level:?}");
            if expect > 0 {
                assert_eq!(spans[0].phase, Phase::ExtendAdd);
                assert_eq!(spans[0].supernode, Some(0));
                assert_eq!(spans[1].supernode, None);
                assert_eq!(spans[0].who, 7);
                assert!(spans[0].dur_s >= 0.0 && spans[0].start_s >= 0.0);
            }
            let c = tr.snapshot();
            assert!(c.extend_add_s >= 0.0 && c.panel_s >= 0.0);
        }
    }

    #[test]
    fn flush_is_idempotent_with_drop() {
        let tr = Collector::new(TraceLevel::Counters);
        {
            let mut rec = tr.local(0);
            rec.add_flops(1.0);
            rec.flush();
            rec.add_flops(2.0);
            // Drop flushes the remainder.
        }
        assert_eq!(tr.snapshot().flops, 3.0);
    }

    #[test]
    fn counters_merge_and_phase_routing() {
        let mut a = Counters {
            flops: 1.0,
            mem_peak_bytes: 10,
            ..Counters::default()
        };
        let b = Counters {
            flops: 2.0,
            mem_peak_bytes: 7,
            msgs_sent: 4,
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 3.0);
        assert_eq!(a.mem_peak_bytes, 10);
        assert_eq!(a.msgs_sent, 4);

        let mut c = Counters::default();
        for (phase, field) in [(Phase::ExtendAdd, 0), (Phase::Panel, 1), (Phase::Gemm, 2)] {
            c.add_phase(phase, 1.0);
            let vals = [c.extend_add_s, c.panel_s, c.gemm_s];
            assert_eq!(vals[field], 1.0);
        }
    }

    #[test]
    fn phase_names_round_trip() {
        for p in [
            Phase::ExtendAdd,
            Phase::Panel,
            Phase::Gemm,
            Phase::Solve,
            Phase::Comm,
            Phase::Wait,
            Phase::Coarsen,
            Phase::Bisect,
            Phase::Refine,
            Phase::Mindeg,
            Phase::Etree,
            Phase::Colcount,
            Phase::Structure,
            Phase::Fault,
        ] {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);

        assert!(Phase::Coarsen.is_analysis() && Phase::Structure.is_analysis());
        assert!(!Phase::Panel.is_analysis() && !Phase::Solve.is_analysis());

        let mut c = Counters::default();
        for p in [
            Phase::Coarsen,
            Phase::Bisect,
            Phase::Refine,
            Phase::Mindeg,
            Phase::Etree,
            Phase::Colcount,
            Phase::Structure,
        ] {
            c.add_phase(p, 1.0);
        }
        let vals = [
            c.coarsen_s,
            c.bisect_s,
            c.refine_s,
            c.mindeg_s,
            c.etree_s,
            c.colcount_s,
            c.structure_s,
        ];
        assert_eq!(vals, [1.0; 7]);
    }

    #[test]
    fn worker_summaries_track_per_worker_compute_and_memory() {
        let tr = Collector::new(TraceLevel::Counters);
        std::thread::scope(|scope| {
            for w in 0..3usize {
                let tr = &tr;
                scope.spawn(move || {
                    let mut rec = tr.local(w);
                    rec.add_flops((w + 1) as f64 * 100.0);
                    rec.mem_alloc(1000 * (w + 1));
                    rec.mem_free(1000 * (w + 1));
                    rec.mem_alloc(500);
                    rec.mem_free(500);
                });
            }
        });
        let ws = tr.worker_summaries();
        assert_eq!(ws.len(), 3);
        for (w, s) in ws.iter().enumerate() {
            assert_eq!(s.who, w);
            assert_eq!(s.flops, (w + 1) as f64 * 100.0);
            assert_eq!(s.mem_peak_bytes, 1000 * (w as u64 + 1));
            assert!(s.compute_s >= 0.0);
        }
        // A second recorder for the same worker accumulates time/flops and
        // maxes memory.
        {
            let mut rec = tr.local(1);
            rec.add_flops(1.0);
            rec.mem_alloc(10);
        }
        let ws = tr.worker_summaries();
        assert_eq!(ws[1].flops, 201.0);
        assert_eq!(ws[1].mem_peak_bytes, 2000);
    }

    #[test]
    fn disabled_collector_records_no_worker_summaries() {
        let tr = Collector::disabled();
        {
            let mut rec = tr.local(0);
            rec.add_flops(1.0);
            rec.mem_alloc(64);
        }
        assert!(tr.worker_summaries().is_empty());
    }

    #[test]
    fn take_spans_returns_start_order_with_stable_ties() {
        let tr = Collector::new(TraceLevel::Timeline);
        let span = |who: usize, start_s: f64| SpanEvent {
            phase: Phase::Panel,
            supernode: None,
            who,
            start_s,
            dur_s: 0.1,
        };
        // Simulate two recorders merging out of global time order.
        tr.spans
            .lock()
            .unwrap()
            .extend([span(1, 3.0), span(1, 0.5), span(0, 3.0), span(0, 0.25)]);
        let got = tr.take_spans();
        let key: Vec<(usize, f64)> = got.iter().map(|s| (s.who, s.start_s)).collect();
        assert_eq!(key, vec![(0, 0.25), (1, 0.5), (0, 3.0), (1, 3.0)]);
    }
}
