//! Per-rank / per-worker timelines assembled from merged [`SpanEvent`]s,
//! and their export to the Chrome Trace Event Format.
//!
//! A [`Timeline`] groups spans into **lanes**: one `(who, kind)` pair per
//! lane, where `who` is the recording rank (distributed) or worker thread
//! (SMP) and [`LaneKind`] classifies the span's phase as compute,
//! communication, or wait. Within a lane spans are sorted by start time and
//! must not overlap — each lane is the serial history of one clock
//! (distributed ranks advance a virtual α-β clock; host workers advance
//! wall time). Gaps between consecutive spans in the compute lane are the
//! lane's *idle* time.
//!
//! [`Timeline::to_chrome_trace`] emits the Trace Event Format JSON
//! (`{"traceEvents": [...]}` with "X" complete events and "M" metadata
//! naming each process/thread) that Perfetto and `chrome://tracing` load
//! directly. Each `who` becomes a process (`pid`) and each lane kind a
//! thread (`tid`) within it, so the viewer shows a Gantt row per lane.

use crate::collector::{sort_spans, Phase, SpanEvent};
use crate::json::Json;

/// Which Gantt row of a rank/worker a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaneKind {
    /// Numeric work: assembly, panels, trailing updates, solves.
    Compute,
    /// Virtual-clock occupancy of sends (α + β·bytes, or α for isend).
    Comm,
    /// Virtual-clock stalls waiting for unarrived messages.
    Wait,
    /// Analysis-phase work (ordering + symbolic): wall-clock spans with
    /// their own time origin, kept off the numeric lanes so virtual-clock
    /// traces stay exactly adjacent.
    Analysis,
}

impl LaneKind {
    /// Lane a phase is drawn in.
    pub fn of(phase: Phase) -> LaneKind {
        match phase {
            Phase::Comm => LaneKind::Comm,
            // Fault markers are zero-duration instants stamped where the
            // rank stopped or timed out — drawn on the wait lane so they
            // sit next to the stall they explain.
            Phase::Wait | Phase::Fault => LaneKind::Wait,
            p if p.is_analysis() => LaneKind::Analysis,
            _ => LaneKind::Compute,
        }
    }

    /// Stable display / wire name.
    pub fn name(self) -> &'static str {
        match self {
            LaneKind::Compute => "compute",
            LaneKind::Comm => "comm",
            LaneKind::Wait => "wait",
            LaneKind::Analysis => "analysis",
        }
    }

    /// Chrome-trace thread id: fixed so lanes sort compute → comm → wait →
    /// analysis.
    pub fn tid(self) -> u64 {
        match self {
            LaneKind::Compute => 0,
            LaneKind::Comm => 1,
            LaneKind::Wait => 2,
            LaneKind::Analysis => 3,
        }
    }

    /// All kinds, in `tid` order.
    pub const ALL: [LaneKind; 4] = [
        LaneKind::Compute,
        LaneKind::Comm,
        LaneKind::Wait,
        LaneKind::Analysis,
    ];
}

/// One Gantt row: every span of one `(who, kind)` pair, sorted by start.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Rank (distributed) or worker thread (SMP/seq).
    pub who: usize,
    pub kind: LaneKind,
    pub spans: Vec<SpanEvent>,
}

impl Lane {
    /// Total time covered by spans (+0.0 for none: `Iterator::sum` over
    /// no `f64`s gives -0.0).
    pub fn busy_s(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| s.dur_s)
            .fold(0.0, |acc, d| acc + d)
    }

    /// Earliest span start (None for an empty lane).
    pub fn start_s(&self) -> Option<f64> {
        self.spans.first().map(|s| s.start_s)
    }

    /// Latest span end (None for an empty lane).
    pub fn end_s(&self) -> Option<f64> {
        self.spans
            .iter()
            .map(|s| s.start_s + s.dur_s)
            .fold(None, |m, e| Some(m.map_or(e, |m: f64| m.max(e))))
    }
}

/// Per-rank/per-worker timelines built from a merged span stream.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Lanes sorted by `(who, kind)`.
    pub lanes: Vec<Lane>,
}

impl Timeline {
    /// Group spans into lanes. The input need not be sorted; each lane ends
    /// up ordered by start time.
    pub fn from_spans(spans: &[SpanEvent]) -> Timeline {
        let mut sorted = spans.to_vec();
        sort_spans(&mut sorted);
        let mut lanes: Vec<Lane> = Vec::new();
        for s in sorted {
            let kind = LaneKind::of(s.phase);
            match lanes.iter_mut().find(|l| l.who == s.who && l.kind == kind) {
                Some(lane) => lane.spans.push(s),
                None => lanes.push(Lane {
                    who: s.who,
                    kind,
                    spans: vec![s],
                }),
            }
        }
        lanes.sort_by_key(|l| (l.who, l.kind));
        Timeline { lanes }
    }

    /// The distinct `who` ids present, ascending.
    pub fn whos(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.lanes.iter().map(|l| l.who).collect();
        ids.dedup();
        ids
    }

    /// Latest span end across every lane (the makespan origin is 0).
    pub fn end_s(&self) -> f64 {
        self.lanes
            .iter()
            .filter_map(|l| l.end_s())
            .fold(0.0, f64::max)
    }

    /// Check the lane invariants: within each lane, spans are sorted by
    /// start, have non-negative duration, and *intervals* (positive
    /// duration) overlap by at most `tol_s`. Zero-duration spans are
    /// instant markers (e.g. probe events) and may sit inside an interval
    /// — they are exempt from the overlap check. Distributed
    /// (virtual-clock) traces hold this exactly with `tol_s = 0`; host
    /// traces need a small epsilon because span bounds are reconstructed
    /// from two separate `Instant` reads.
    ///
    /// Returns `Err(description)` naming the first violated lane.
    pub fn validate(&self, tol_s: f64) -> Result<(), String> {
        for lane in &self.lanes {
            for (i, s) in lane.spans.iter().enumerate() {
                if s.dur_s < 0.0 || s.dur_s.is_nan() {
                    return Err(format!(
                        "lane ({}, {}): span {} has negative duration {}",
                        lane.who,
                        lane.kind.name(),
                        i,
                        s.dur_s
                    ));
                }
            }
            for (i, w) in lane.spans.windows(2).enumerate() {
                if w[1].start_s < w[0].start_s {
                    return Err(format!(
                        "lane ({}, {}): spans {} and {} out of order",
                        lane.who,
                        lane.kind.name(),
                        i,
                        i + 1
                    ));
                }
            }
            let mut prev_end: Option<f64> = None;
            for (i, s) in lane.spans.iter().enumerate().filter(|(_, s)| s.dur_s > 0.0) {
                if let Some(pe) = prev_end {
                    let overlap = pe - s.start_s;
                    if overlap > tol_s {
                        return Err(format!(
                            "lane ({}, {}): span {} overlaps the previous interval \
                             by {:.3e}s (tol {:.3e})",
                            lane.who,
                            lane.kind.name(),
                            i,
                            overlap,
                            tol_s
                        ));
                    }
                }
                let end = s.start_s + s.dur_s;
                prev_end = Some(prev_end.map_or(end, |pe: f64| pe.max(end)));
            }
        }
        Ok(())
    }

    /// Export as Chrome Trace Event Format JSON. `who_label` names each
    /// process, e.g. `"rank"` (distributed) or `"worker"` (SMP).
    ///
    /// Every `who` gets all three lane kinds as named threads (even if a
    /// lane recorded nothing) so traces from different runs line up in the
    /// viewer. Spans become "X" complete events with microsecond
    /// timestamps; zero-duration spans (probe markers) become "i" instant
    /// events.
    pub fn to_chrome_trace(&self, who_label: &str) -> Json {
        let us = |s: f64| Json::num_f64(s * 1e6);
        let mut events: Vec<Json> = Vec::new();
        for who in self.whos() {
            events.push(Json::Obj(vec![
                ("name".into(), Json::str("process_name")),
                ("ph".into(), Json::str("M")),
                ("pid".into(), Json::num_usize(who)),
                ("tid".into(), Json::num_u64(0)),
                (
                    "args".into(),
                    Json::Obj(vec![(
                        "name".into(),
                        Json::str(&format!("{who_label} {who}")),
                    )]),
                ),
            ]));
            for kind in LaneKind::ALL {
                events.push(Json::Obj(vec![
                    ("name".into(), Json::str("thread_name")),
                    ("ph".into(), Json::str("M")),
                    ("pid".into(), Json::num_usize(who)),
                    ("tid".into(), Json::num_u64(kind.tid())),
                    (
                        "args".into(),
                        Json::Obj(vec![("name".into(), Json::str(kind.name()))]),
                    ),
                ]));
            }
        }
        for lane in &self.lanes {
            for s in &lane.spans {
                let mut args = vec![("phase".into(), Json::str(s.phase.name()))];
                if let Some(sn) = s.supernode {
                    args.push(("supernode".into(), Json::num_usize(sn)));
                }
                let mut ev = vec![
                    ("name".into(), Json::str(s.phase.name())),
                    ("cat".into(), Json::str(lane.kind.name())),
                    ("pid".into(), Json::num_usize(lane.who)),
                    ("tid".into(), Json::num_u64(lane.kind.tid())),
                    ("ts".into(), us(s.start_s)),
                ];
                if s.dur_s > 0.0 {
                    ev.insert(1, ("ph".into(), Json::str("X")));
                    ev.push(("dur".into(), us(s.dur_s)));
                } else {
                    ev.insert(1, ("ph".into(), Json::str("i")));
                    ev.push(("s".into(), Json::str("t")));
                }
                ev.push(("args".into(), Json::Obj(args)));
                events.push(Json::Obj(ev));
            }
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, who: usize, start_s: f64, dur_s: f64) -> SpanEvent {
        SpanEvent {
            phase,
            supernode: Some(1),
            who,
            start_s,
            dur_s,
        }
    }

    #[test]
    fn lanes_group_by_who_and_kind() {
        let spans = vec![
            span(Phase::Panel, 0, 0.0, 1.0),
            span(Phase::Comm, 0, 1.0, 0.5),
            span(Phase::Panel, 1, 0.2, 0.3),
            span(Phase::Gemm, 0, 2.0, 1.0),
            span(Phase::Wait, 1, 0.5, 0.25),
        ];
        let tl = Timeline::from_spans(&spans);
        assert_eq!(tl.lanes.len(), 4);
        assert_eq!(tl.whos(), vec![0, 1]);
        let compute0 = &tl.lanes[0];
        assert_eq!((compute0.who, compute0.kind), (0, LaneKind::Compute));
        assert_eq!(compute0.spans.len(), 2);
        assert_eq!(compute0.busy_s(), 2.0);
        assert_eq!(tl.end_s(), 3.0);
        tl.validate(0.0).unwrap();
    }

    #[test]
    fn validate_catches_overlap_and_negative_duration() {
        let tl = Timeline::from_spans(&[
            span(Phase::Panel, 0, 0.0, 1.0),
            span(Phase::Panel, 0, 0.5, 1.0),
        ]);
        assert!(tl.validate(0.0).is_err());
        assert!(tl.validate(0.6).is_ok());

        let tl = Timeline::from_spans(&[span(Phase::Panel, 0, 0.0, -1.0)]);
        assert!(tl.validate(0.0).is_err());
    }

    #[test]
    fn chrome_trace_has_metadata_and_events() {
        let tl = Timeline::from_spans(&[
            span(Phase::Panel, 3, 0.5, 1.0),
            span(Phase::Comm, 3, 1.5, 0.0), // instant marker
        ]);
        let j = tl.to_chrome_trace("rank");
        let events = j.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 4 thread_name + 2 spans.
        assert_eq!(events.len(), 7);
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 5);
        let x = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(x.get("pid").unwrap().as_usize(), Some(3));
        assert_eq!(x.get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(0.5e6));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(1.0e6));
        assert_eq!(
            x.get("args").unwrap().get("supernode").unwrap().as_usize(),
            Some(1)
        );
        let i = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(i.get("s").unwrap().as_str(), Some("t"));
        // Round-trips through the writer/parser.
        let text = j.to_string_compact();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("traceEvents").unwrap().as_arr().unwrap().len(), 7);
    }
}
