//! The numeric phase behind the façade: one engine dispatch and the
//! report assembly every factorization and refactorization shares.

use super::Engine;
use crate::dist;
use crate::error::FactorError;
use crate::factor::Factor;
use crate::workspace::Workspace;
use parfact_sparse::csc::CscMatrix;
use parfact_symbolic::Symbolic;
use parfact_trace::{Collector, FactorReport, SpanEvent, TraceLevel};
use std::sync::Arc;
use std::time::Instant;

#[cfg(doc)]
use super::SparseCholesky;

/// Critical-path / idle analysis of a timeline-traced run. `None` unless
/// the run was traced at [`TraceLevel::Timeline`] and produced spans.
fn timeline_profile(
    sym: &Symbolic,
    trace: TraceLevel,
    spans: &[parfact_trace::SpanEvent],
    ranks: &[parfact_trace::RankReport],
) -> Option<parfact_trace::ProfileReport> {
    if !trace.timeline() || spans.is_empty() {
        return None;
    }
    Some(parfact_trace::profile::analyze(
        &sym.tree.parent,
        spans,
        ranks,
    ))
}

/// Per-worker rows for the host engines, in the shared rank-report schema:
/// `rank` is the worker id, `clock_s` stays zero (host workers have no
/// virtual clock — [`parfact_trace::FactorReport::sim_makespan_s`] treats
/// all-zero clocks as "no simulated makespan"), and `mem_peak_bytes` is
/// the worker's own allocation high-water mark.
fn worker_ranks(tr: &Collector) -> Vec<parfact_trace::RankReport> {
    tr.worker_summaries()
        .into_iter()
        .map(|w| parfact_trace::RankReport {
            rank: w.who,
            compute_s: w.compute_s,
            flops: w.flops,
            mem_peak_bytes: w.mem_peak_bytes,
            ..parfact_trace::RankReport::default()
        })
        .collect()
}

/// Predicted-vs-measured scalability rows for a host engine: the model at
/// `p = 1` (all-local mapping: zero traffic, factor + largest front
/// memory) against the workers' measured peaks.
fn host_scalability(
    sym: &Symbolic,
    ranks: &[parfact_trace::RankReport],
) -> Option<parfact_trace::ScalabilityReport> {
    if ranks.is_empty() {
        return None;
    }
    let map = crate::mapping::map_tree(sym, 1, crate::mapping::MapStrategy::default());
    let pred = crate::scalability::predict(sym, &map);
    Some(parfact_trace::ScalabilityReport {
        nranks: ranks.len(),
        ranks: ranks
            .iter()
            .map(|r| parfact_trace::RankScalability {
                rank: r.rank,
                measured_bytes: r.bytes_sent,
                predicted_bytes: 0.0,
                measured_mem_peak: r.mem_peak_bytes,
                // Every worker shares one address space; the single-rank
                // model bounds the whole process.
                predicted_mem_peak: pred.mem[0],
            })
            .collect(),
        comm: None,
    })
}

/// One numeric factorization of `ap` into `factor` (allocated under the
/// symbolic analysis it carries), timed and recorded into `report` — the
/// single dispatch and report-assembly path behind
/// [`SparseCholesky::factorize`] and [`SparseCholesky::refactorize`].
/// `engine`, `numeric_s`, `update_arena_bytes`, `counters`, `ranks`, `spans` (the analysis-phase
/// spans passed in, then this run's), `faults` (`Some` exactly when a
/// distributed run had a fault plan), `scalability` and `profile` describe
/// this run; the rest of the report is left alone, and all of it on error.
///
/// Every engine overwrites the factor's slab in place: the host engines
/// through the arenas in `ws`, the distributed engine's simulated ranks
/// each writing their share. On error the slab may be partly overwritten.
pub(super) fn numeric_phase(
    ap: &CscMatrix,
    engine: &Engine,
    trace: TraceLevel,
    mut spans: Vec<SpanEvent>,
    ws: &mut Workspace,
    factor: &mut Factor,
    report: &mut FactorReport,
) -> Result<(), FactorError> {
    let sym = Arc::clone(&factor.sym);
    // lint:allow(R1) numeric-phase timer: reports wall time of real host work
    let t0 = Instant::now();
    if let Engine::Dist(d) = engine {
        // Rank statistics come from the simulator and are always collected;
        // span events (compute, comm, wait lanes in virtual time) are
        // recorded only at `TraceLevel::Timeline`, the comm matrix whenever
        // tracing is on.
        let run = dist::DistRun {
            ap,
            opts: d.clone(),
            timeline: trace.timeline(),
            comm: trace.enabled(),
        }
        .run(factor)?;
        let out = run.outcome;
        report.faults = (!d.faults.is_empty()).then_some(parfact_trace::FaultReport {
            crashes: run.counts.crashes,
            timeouts: run.counts.timeouts,
            delayed_msgs: run.counts.delayed_msgs,
            duplicated_msgs: run.counts.duplicated_msgs,
            restarts: run.restarts,
            total_makespan_s: run.total_makespan_s,
        });
        // Traffic summed, memory peak maxed over the ranks; per-phase
        // seconds stay zero (the simulator attributes time per rank, see
        // `report.ranks`). Every supernode is factored once on the machine.
        report.update_arena_bytes = run.arena_bytes;
        report.counters = parfact_trace::Counters {
            flops: out.total_flops,
            bytes_sent: out.stats.iter().map(|s| s.bytes_sent).sum(),
            msgs_sent: out.stats.iter().map(|s| s.msgs_sent).sum(),
            mem_peak_bytes: out.max_mem_peak(),
            fronts_factored: sym.nsuper() as u64,
            ..parfact_trace::Counters::default()
        };
        report.ranks = out.rank_reports();
        spans.extend(out.merged_events());
        // Predicted-vs-measured per rank: the model needs only the symbolic
        // structure and the mapping the run factored under.
        report.scalability = trace.enabled().then(|| {
            let pred = crate::scalability::predict(&sym, &out.map);
            let row = |(r, s): (usize, &parfact_mpsim::RankStats)| parfact_trace::RankScalability {
                rank: r,
                measured_bytes: s.bytes_sent,
                predicted_bytes: pred.bytes[r],
                measured_mem_peak: s.mem_peak,
                predicted_mem_peak: pred.mem[r],
            };
            parfact_trace::ScalabilityReport {
                nranks: d.ranks,
                ranks: out.stats.iter().enumerate().map(row).collect(),
                comm: out.comm,
            }
        });
    } else {
        let tr = Collector::new(trace);
        report.update_arena_bytes = match engine {
            Engine::Smp(smp) => crate::smp::factorize_smp_into(ap, &sym, smp, &tr, ws, factor)?,
            _ => crate::seq::factorize_seq_into(ap, &sym, &tr, ws, factor)?,
        };
        report.faults = None;
        report.counters = tr.snapshot();
        report.ranks = worker_ranks(&tr);
        spans.extend(tr.take_spans());
        report.scalability = host_scalability(&sym, &report.ranks);
    }
    report.numeric_s = t0.elapsed().as_secs_f64();
    report.engine = engine.name().to_string();
    // Analysis spans lead the numeric stream unshifted: they render in
    // their own timeline lane (`LaneKind::Analysis`), and each phase keeps
    // its own clock origin — shifting virtual-clock dist spans by a
    // wall-clock offset would break their exact adjacency.
    report.spans = spans;
    report.profile = timeline_profile(&sym, trace, &report.spans, &report.ranks);
    Ok(())
}
