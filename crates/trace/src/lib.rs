//! # parfact-trace
//!
//! Zero-cost-when-disabled instrumentation for the parfact solver stack.
//!
//! The SC'09 paper this project reproduces argues from *where time goes*:
//! per-phase breakdowns, per-supernode work, communication volume, and load
//! imbalance across processors. This crate provides the measurement layer
//! those claims need, shared by all three engines (sequential, SMP,
//! simulated-distributed):
//!
//! - [`Collector`] — the shared sink: merged counters (flops, bytes
//!   assembled/sent, messages, fronts factored, per-phase time), memory
//!   high-water tracking, and span events.
//! - [`LocalRecorder`] — a per-thread / per-rank buffer that records with
//!   plain field updates and merges into the collector once, on drop.
//! - [`TraceLevel`] — `Off` (default; every hook is a single branch),
//!   `Counters`, or `Timeline` (counters + [`SpanEvent`]s + simulator
//!   communication events + the post-run profile).
//! - [`FactorReport`] / [`RankReport`] — the serializable run record,
//!   with JSON round-tripping via the dependency-free [`json`] module.
//!   Each report type is one field table (`fields.rs`) that generates the
//!   struct, its encoder and its decoder. The one other encoding,
//!   [`FactorReport::to_prometheus`], is a flattening of that JSON into
//!   Prometheus text exposition, so both carry the same values.
//! - [`timeline`] — per-rank/per-worker lanes (compute/comm/wait) built
//!   from the merged span stream, with Chrome Trace Event Format export
//!   for Perfetto / `chrome://tracing`.
//! - [`profile`] — critical-path analysis over the assembly tree plus
//!   per-rank idle/overlap breakdown and top-k blocking edges.
//!
//! The crate has no dependencies and knows nothing about matrices; engines
//! decide what to count, this crate makes counting cheap and reporting
//! uniform. (The profiler takes the assembly tree as a plain `parent`
//! slice for the same reason.)

pub mod collector;
mod fields;
pub mod json;
mod metrics;
pub mod profile;
pub mod report;
pub mod timeline;

pub use collector::{
    sort_spans, Collector, Counters, LocalRecorder, Phase, SpanEvent, Tick, TraceLevel,
    WorkerSummary,
};
pub use profile::{BlockingEdge, ProfileReport, RankActivity};
pub use report::{
    AnalysisReport, CommMatrixReport, FactorReport, FaultReport, RankReport, RankScalability,
    ScalabilityReport, SolveReport,
};
pub use timeline::{Lane, LaneKind, Timeline};
