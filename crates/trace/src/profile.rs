//! Critical-path analysis over the assembly tree plus per-rank activity
//! breakdown — the "where did the makespan go" half of the profiler.
//!
//! ## Model
//!
//! Spans attribute work to supernodes. For supernode `s`:
//!
//! * `start(s)`  = earliest start of any span attributed to `s`,
//! * `finish(s)` = latest end of any span attributed to `s`,
//! * `elapsed(s) = finish(s) − start(s)` — *elapsed*, not summed, because a
//!   grid-mapped front's spans come from several ranks at once,
//! * `ready(s)`  = latest `finish` over the children of `s` (0 for leaves),
//! * `wait(s)   = max(0, start(s) − ready(s))` — time `s` sat schedulable
//!   but unstarted: extend-add/panel waits, queueing, rank imbalance.
//!
//! The **critical path** starts at the supernode with the latest finish and
//! repeatedly steps to the child with the latest finish. Its length sums
//! each node's envelope clipped at its critical child's finish (per-rank
//! clock skew can make raw envelopes overlap); `wait` summed along the
//! path is the part the scheduler could in principle remove, and the two
//! together never exceed the makespan. The supernodes whose
//! `wait` is largest are reported as the top **blocking edges**
//! (`blocker → waiter`, where the blocker is the last-finishing child).
//!
//! Per-rank activity comes straight from the lanes: `busy` is compute-lane
//! span time, `wait` the wait-lane span time, and `idle_frac` the fraction
//! of the makespan the rank spent neither computing nor sending.

use crate::collector::{Phase, SpanEvent};
use crate::fields::record;
use crate::report::RankReport;
use crate::timeline::{LaneKind, Timeline};

record! {
    /// A dependency edge on which a supernode sat waiting.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct BlockingEdge {
        /// The last-finishing child (the blocker); `None` when the wait was not
        /// attributable to a child (e.g. queueing on the owning rank).
        blocker: Option<usize> = optional;
        /// The supernode that waited.
        waiter: usize = required;
        /// Seconds between the waiter becoming ready and starting.
        wait_s: f64 = default;
    }
}

record! {
    /// One rank's (or worker's) share of the makespan.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RankActivity {
        who: usize = required;
        /// Compute-lane span time.
        busy_s: f64 = default;
        /// Comm-lane span time (virtual-clock send occupancy).
        comm_s: f64 = default;
        /// Wait-lane span time (virtual-clock stalls).
        wait_s: f64 = default;
        /// `1 − (busy + comm) / makespan`, clamped to `[0, 1]`.
        idle_frac: f64 = default;
    }
}

record! {
    /// The profiler's summary, embedded in
    /// [`FactorReport`](crate::report::FactorReport) at
    /// [`TraceLevel::Timeline`](crate::collector::TraceLevel::Timeline).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ProfileReport {
        /// Active time along the critical path: each supernode contributes its
        /// envelope clipped to start no earlier than its critical child's
        /// finish, so overlapping envelopes (per-rank clock skew lets a grid
        /// parent's earliest span precede its child's latest) are not
        /// double-counted. Together with [`critical_path_wait_s`] this is
        /// bounded by the makespan.
        ///
        /// [`critical_path_wait_s`]: ProfileReport::critical_path_wait_s
        critical_path_s: f64 = default;
        /// Sum of waits along the critical path (schedulable slack).
        critical_path_wait_s: f64 = default;
        /// Supernodes on the critical path.
        critical_path_len: usize = default;
        /// End of the last span (distributed: the virtual makespan).
        makespan_s: f64 = default;
        /// Per-rank/per-worker breakdown, ascending by `who`.
        ranks: Vec<RankActivity> = default;
        /// Largest waits, descending (at most [`TOP_BLOCKING_EDGES`]).
        blocking_edges: Vec<BlockingEdge> = default;
        /// Rank with the deepest receive-queue high-water mark, when per-rank
        /// simulator stats are available and any queueing happened.
        congested_rank: Option<usize> = optional;
    }
}

impl ProfileReport {
    /// Fraction of the busiest rank's makespan that was idle.
    pub fn max_idle_frac(&self) -> f64 {
        self.ranks.iter().map(|r| r.idle_frac).fold(0.0, f64::max)
    }
}

/// How many blocking edges [`analyze`] keeps, largest wait first.
pub const TOP_BLOCKING_EDGES: usize = 8;

/// Per-supernode span aggregate.
#[derive(Clone, Copy)]
struct Node {
    start: f64,
    finish: f64,
}

/// Build the profile from the merged span stream.
///
/// `parent[s]` is the assembly-tree parent of supernode `s`; any value
/// `>= parent.len()` (the symbolic layer's `NONE`) marks a root. Supernode
/// ids are assumed postordered (children numbered before parents), which
/// every engine in this codebase guarantees. `rank_stats` supplies the
/// simulator's per-rank queue depths for congestion flagging (pass `[]`
/// for host engines). At most [`TOP_BLOCKING_EDGES`] blocking edges are
/// kept.
pub fn analyze(parent: &[usize], spans: &[SpanEvent], rank_stats: &[RankReport]) -> ProfileReport {
    let nsuper = parent.len();
    // Solve and analysis spans are excluded up front: the readiness model
    // (a supernode is ready when its children finish) describes the
    // factorization — the backward solve walks the tree in the opposite
    // direction, and the analysis front-end runs before any supernode
    // exists — folding their envelopes in would stretch every node's
    // finish past the factor makespan and distort the critical path.
    // Communication the solve performs is unattributed and stays in the
    // comm lanes.
    let spans: Vec<SpanEvent> = spans
        .iter()
        .filter(|s| s.phase != Phase::Solve && !s.phase.is_analysis())
        .cloned()
        .collect();
    let spans = &spans[..];
    let timeline = Timeline::from_spans(spans);
    let makespan_s = timeline.end_s();

    // Per-supernode [start, finish] envelopes from attributed spans.
    let mut nodes: Vec<Option<Node>> = vec![None; nsuper];
    for s in spans {
        let Some(sn) = s.supernode else { continue };
        if sn >= nsuper {
            continue;
        }
        let end = s.start_s + s.dur_s;
        let node = nodes[sn].get_or_insert(Node {
            start: s.start_s,
            finish: end,
        });
        node.start = node.start.min(s.start_s);
        node.finish = node.finish.max(end);
    }

    // ready(s) = latest child finish; remember which child it was.
    let mut ready: Vec<f64> = vec![0.0; nsuper];
    let mut last_child: Vec<Option<usize>> = vec![None; nsuper];
    for s in 0..nsuper {
        let (Some(node), p) = (nodes[s], parent[s]) else {
            continue;
        };
        if p < nsuper && node.finish > ready[p] {
            ready[p] = node.finish;
            last_child[p] = Some(s);
        }
    }

    // Critical path: from the latest-finishing supernode, walk down the
    // latest-finishing children.
    let mut critical_path_s = 0.0;
    let mut critical_path_wait_s = 0.0;
    let mut critical_path_len = 0;
    let root = (0..nsuper)
        .filter(|&s| nodes[s].is_some())
        .max_by(|&a, &b| {
            let (fa, fb) = (nodes[a].unwrap().finish, nodes[b].unwrap().finish);
            fa.partial_cmp(&fb).unwrap_or(std::cmp::Ordering::Equal)
        });
    let mut cursor = root;
    while let Some(s) = cursor {
        let node = nodes[s].unwrap();
        // Clip the envelope at the critical child's finish (`ready`):
        // consecutive path segments then tile [leaf start, root finish]
        // without overlap, keeping active + wait time <= makespan.
        critical_path_s += (node.finish - node.start.max(ready[s])).max(0.0);
        critical_path_wait_s += (node.start - ready[s]).max(0.0);
        critical_path_len += 1;
        cursor = last_child[s];
    }

    // The largest blocking edges by wait, over every supernode with spans.
    let mut edges: Vec<BlockingEdge> = (0..nsuper)
        .filter_map(|s| {
            let node = nodes[s]?;
            let wait_s = node.start - ready[s];
            (last_child[s].is_some() && wait_s > 0.0).then(|| BlockingEdge {
                blocker: last_child[s],
                waiter: s,
                wait_s,
            })
        })
        .collect();
    edges.sort_by(|a, b| {
        b.wait_s
            .partial_cmp(&a.wait_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    edges.truncate(TOP_BLOCKING_EDGES);

    // Per-rank activity from the lanes.
    let mut ranks: Vec<RankActivity> = Vec::new();
    for who in timeline.whos() {
        // Folded from +0.0: `Iterator::sum` over no lanes gives -0.0.
        let lane_busy = |kind: LaneKind| -> f64 {
            timeline
                .lanes
                .iter()
                .filter(|l| l.who == who && l.kind == kind)
                .map(|l| l.busy_s())
                .fold(0.0, |acc, s| acc + s)
        };
        let busy_s = lane_busy(LaneKind::Compute);
        let comm_s = lane_busy(LaneKind::Comm);
        let wait_s = lane_busy(LaneKind::Wait);
        let idle_frac = if makespan_s > 0.0 {
            (1.0 - (busy_s + comm_s) / makespan_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        ranks.push(RankActivity {
            who,
            busy_s,
            comm_s,
            wait_s,
            idle_frac,
        });
    }

    // Congested rank: deepest receive-queue high-water mark, if any queued.
    let congested_rank = rank_stats
        .iter()
        .max_by_key(|r| r.queue_peak)
        .filter(|r| r.queue_peak > 0)
        .map(|r| r.rank);

    ProfileReport {
        critical_path_s,
        critical_path_wait_s,
        critical_path_len,
        makespan_s,
        ranks,
        blocking_edges: edges,
        congested_rank,
    }
}

impl ProfileReport {
    /// Human-readable summary block (used by the CLI tools).
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "critical path: {:.3}ms over {} supernodes ({:.3}ms of it waiting); makespan {:.3}ms",
            self.critical_path_s * 1e3,
            self.critical_path_len,
            self.critical_path_wait_s * 1e3,
            self.makespan_s * 1e3,
        );
        if !self.ranks.is_empty() {
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>12} {:>12} {:>8}",
                "who", "busy", "comm", "wait", "idle"
            );
            for r in &self.ranks {
                let _ = writeln!(
                    out,
                    "{:>6} {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>7.1}%",
                    r.who,
                    r.busy_s * 1e3,
                    r.comm_s * 1e3,
                    r.wait_s * 1e3,
                    r.idle_frac * 100.0,
                );
            }
        }
        if let Some(r) = self.congested_rank {
            let _ = writeln!(out, "congested rank (deepest recv queue): {r}");
        }
        for e in &self.blocking_edges {
            match e.blocker {
                Some(b) => {
                    let _ = writeln!(
                        out,
                        "blocking: supernode {} waited {:.3}ms on child {}",
                        e.waiter,
                        e.wait_s * 1e3,
                        b
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "blocking: supernode {} waited {:.3}ms",
                        e.waiter,
                        e.wait_s * 1e3
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Phase;
    use crate::fields::Wire;

    const NONE: usize = usize::MAX;

    fn span(phase: Phase, sn: usize, who: usize, start_s: f64, dur_s: f64) -> SpanEvent {
        SpanEvent {
            phase,
            supernode: Some(sn),
            who,
            start_s,
            dur_s,
        }
    }

    /// Chain 0 → 1 → 2 (parent pointers up), each 1s of work, node 2
    /// starting 0.5s after node 1 finishes.
    fn chain_spans() -> (Vec<usize>, Vec<SpanEvent>) {
        let parent = vec![1, 2, NONE];
        let spans = vec![
            span(Phase::Panel, 0, 0, 0.0, 1.0),
            span(Phase::Panel, 1, 0, 1.0, 1.0),
            span(Phase::Panel, 2, 1, 2.5, 1.0),
        ];
        (parent, spans)
    }

    #[test]
    fn solve_spans_do_not_distort_the_profile() {
        let (parent, mut spans) = chain_spans();
        let base = analyze(&parent, &spans, &[]);
        // Backward-solve spans visit the tree root-to-leaf after the
        // factorization; the profile must come out identical with them.
        spans.push(span(Phase::Solve, 2, 1, 3.5, 0.3));
        spans.push(span(Phase::Solve, 1, 0, 3.9, 0.3));
        spans.push(span(Phase::Solve, 0, 0, 4.3, 0.3));
        let p = analyze(&parent, &spans, &[]);
        assert_eq!(p, base);
    }

    #[test]
    fn chain_critical_path_and_waits() {
        let (parent, spans) = chain_spans();
        let p = analyze(&parent, &spans, &[]);
        assert_eq!(p.critical_path_len, 3);
        assert!((p.critical_path_s - 3.0).abs() < 1e-12);
        assert!((p.critical_path_wait_s - 0.5).abs() < 1e-12);
        assert!((p.makespan_s - 3.5).abs() < 1e-12);
        assert_eq!(p.blocking_edges.len(), 1);
        assert_eq!(p.blocking_edges[0].waiter, 2);
        assert_eq!(p.blocking_edges[0].blocker, Some(1));
        assert!((p.blocking_edges[0].wait_s - 0.5).abs() < 1e-12);
        // Rank 1 computed 1s of a 3.5s makespan and never sent.
        let r1 = p.ranks.iter().find(|r| r.who == 1).unwrap();
        assert!((r1.idle_frac - (1.0 - 1.0 / 3.5)).abs() < 1e-12);
        assert_eq!(p.congested_rank, None);
    }

    #[test]
    fn balanced_tree_picks_late_child() {
        // Children 0 (fast) and 1 (slow) under root 2.
        let parent = vec![2, 2, NONE];
        let spans = vec![
            span(Phase::Panel, 0, 0, 0.0, 0.5),
            span(Phase::Panel, 1, 1, 0.0, 2.0),
            span(Phase::Panel, 2, 0, 2.25, 1.0),
        ];
        let p = analyze(&parent, &spans, &[]);
        assert_eq!(p.critical_path_len, 2);
        assert!((p.critical_path_s - 3.0).abs() < 1e-12);
        assert!((p.critical_path_wait_s - 0.25).abs() < 1e-12);
        assert_eq!(p.blocking_edges[0].blocker, Some(1));
    }

    #[test]
    fn grid_front_elapsed_is_envelope_not_sum() {
        // One supernode factored by two ranks concurrently: elapsed must be
        // the [min start, max end] envelope, not the 2s total of span time.
        let parent = vec![NONE];
        let spans = vec![
            span(Phase::Panel, 0, 0, 0.0, 1.0),
            span(Phase::Gemm, 0, 1, 0.25, 1.0),
        ];
        let p = analyze(&parent, &spans, &[]);
        assert!((p.critical_path_s - 1.25).abs() < 1e-12);
    }

    #[test]
    fn overlapping_envelopes_do_not_exceed_makespan() {
        // Per-rank clock skew: the grid parent's earliest span (rank 0
        // assembling an early child) starts before its critical child's
        // latest span (rank 1, skewed clock) ends. The path must clip the
        // overlap, not count it twice.
        let parent = vec![1, NONE];
        let spans = vec![
            span(Phase::Panel, 0, 1, 0.0, 2.0),     // child: [0, 2] on rank 1
            span(Phase::ExtendAdd, 1, 0, 1.0, 0.5), // parent starts at 1.0 < 2.0
            span(Phase::Panel, 1, 0, 2.5, 1.0),     // parent envelope [1.0, 3.5]
        ];
        let p = analyze(&parent, &spans, &[]);
        assert_eq!(p.critical_path_len, 2);
        // Child contributes 2.0, parent contributes [2.0, 3.5] = 1.5 only.
        assert!((p.critical_path_s - 3.5).abs() < 1e-12);
        assert_eq!(p.critical_path_wait_s, 0.0);
        assert!(p.critical_path_s + p.critical_path_wait_s <= p.makespan_s + 1e-12);
    }

    #[test]
    fn congested_rank_needs_nonzero_queue() {
        let mk = |rank: usize, queue_peak: u64| RankReport {
            rank,
            queue_peak,
            ..RankReport::default()
        };
        let (parent, spans) = chain_spans();
        let p = analyze(&parent, &spans, &[mk(0, 0), mk(1, 0)]);
        assert_eq!(p.congested_rank, None);
        let p = analyze(&parent, &spans, &[mk(0, 2), mk(1, 7)]);
        assert_eq!(p.congested_rank, Some(1));
    }

    #[test]
    fn comm_and_wait_lanes_feed_rank_activity() {
        let parent = vec![NONE];
        let mut spans = vec![span(Phase::Panel, 0, 0, 0.0, 2.0)];
        spans.push(SpanEvent {
            phase: Phase::Comm,
            supernode: None,
            who: 0,
            start_s: 2.0,
            dur_s: 0.5,
        });
        spans.push(SpanEvent {
            phase: Phase::Wait,
            supernode: None,
            who: 1,
            start_s: 0.0,
            dur_s: 1.5,
        });
        let p = analyze(&parent, &spans, &[]);
        let r0 = p.ranks.iter().find(|r| r.who == 0).unwrap();
        assert_eq!((r0.busy_s, r0.comm_s, r0.wait_s), (2.0, 0.5, 0.0));
        assert!(r0.idle_frac.abs() < 1e-12);
        let r1 = p.ranks.iter().find(|r| r.who == 1).unwrap();
        assert_eq!(r1.wait_s, 1.5);
        assert_eq!(r1.idle_frac, 1.0);
    }

    #[test]
    fn json_round_trip() {
        let (parent, spans) = chain_spans();
        let p = analyze(&parent, &spans, &[]);
        let j = p.to_json();
        let back = ProfileReport::from_json(&j).unwrap();
        assert_eq!(p, back);
        let mut s = String::new();
        p.render(&mut s);
        assert!(s.contains("critical path"));
    }
}
