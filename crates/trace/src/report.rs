//! Factorization reports: the serializable record a solver run produces.
//!
//! A [`FactorReport`] combines problem shape (n, nnz, supernode count),
//! phase wall-clock times, the counter snapshot from the [`crate::Collector`],
//! per-rank statistics for distributed runs, and (at
//! [`crate::TraceLevel::Timeline`]) the recorded span events. It converts to and
//! from the JSON tree in [`crate::json`], so reports can be written to disk
//! by experiment harnesses and read back by analysis tooling.

use crate::collector::{Counters, SpanEvent};
use crate::fields::{record, Wire};
use crate::json::{Json, JsonError};
use crate::profile::ProfileReport;

record! {
    /// Per-rank statistics for a distributed (simulated-MPI) run. Mirrors the
    /// simulator's `RankStats` so those fold into the report without loss.
    /// The overlap fields postdate the first schema revision (reports written
    /// before nonblocking communication existed lack them), the receive
    /// counters the comm-matrix revision.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct RankReport {
        rank: usize = required;
        /// Simulated virtual clock at completion (seconds).
        clock_s: f64 = required;
        /// Simulated compute time (seconds).
        compute_s: f64 = required;
        /// Simulated communication time (seconds).
        comm_s: f64 = required;
        /// Modelled transfer time hidden under compute by nonblocking sends
        /// (seconds): β·bytes that never occupied the sender's clock.
        comm_hidden_s: f64 = default;
        /// Peak number of messages queued at this rank's mailbox at once.
        queue_peak: u64 = default;
        /// Modelled floating-point operations executed by this rank.
        flops: f64 = required;
        /// Payload bytes this rank sent.
        bytes_sent: u64 = required;
        /// Messages this rank sent.
        msgs_sent: u64 = required;
        /// Payload bytes this rank received (consumed from its mailbox).
        bytes_recv: u64 = default;
        /// Messages this rank received.
        msgs_recv: u64 = default;
        /// Peak tracked memory on this rank, bytes.
        mem_peak_bytes: u64 = required;
    }
}

record! {
    /// Aggregated record of the triangular solves performed against a factor.
    /// Accumulated across `solve_with` calls (a one-column call and a
    /// batched block both add to it), so `rhs` counts right-hand-side
    /// *columns*, not calls.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct SolveReport {
        /// Solve invocations (one blocked sweep each, any nrhs).
        solves: u64 = required;
        /// Total right-hand-side columns processed.
        rhs: u64 = required;
        /// The most threads any of the solves swept on (1: the sequential
        /// sweep). Reports written before the field existed read 0.
        threads: usize = default;
        /// Wall-clock seconds across all solves (including refinement sweeps).
        seconds: f64 = required;
        /// Solve flops that ran: `4 * nnz(L)` per column sweep pair (the
        /// base solve and each refinement step taken) plus `4 * nnz(A)`
        /// per residual product.
        flops: f64 = required;
    }
}

impl SolveReport {
    /// Aggregate solve throughput in Gflop/s; `0.0` when no time recorded.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

record! {
    /// Per-stage breakdown of the analysis front-end (ordering + symbolic).
    /// Stage times are summed across analysis workers, so on a multithreaded
    /// run their total can exceed the `ordering_s + symbolic_s` wall clock.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct AnalysisReport {
        /// Worker threads the analysis phase ran with.
        threads: usize = required;
        /// Seconds in multilevel coarsening (matching + contraction).
        coarsen_s: f64 = required;
        /// Seconds in initial partitioning, projection and separator extraction.
        bisect_s: f64 = required;
        /// Seconds in FM refinement passes.
        refine_s: f64 = required;
        /// Seconds ordering leaf subgraphs by minimum degree.
        mindeg_s: f64 = required;
        /// Seconds building the elimination tree, postorder and permutation.
        etree_s: f64 = required;
        /// Seconds computing factor column counts.
        colcount_s: f64 = required;
        /// Seconds computing supernode row structure.
        structure_s: f64 = required;
    }
}

impl AnalysisReport {
    /// Stage rows as `(stage name, seconds)`, in pipeline order, as
    /// `parfact-solve` prints them on its `analysis:` line.
    pub fn stages(&self) -> [(&'static str, f64); 7] {
        [
            ("coarsen", self.coarsen_s),
            ("bisect", self.bisect_s),
            ("refine", self.refine_s),
            ("mindeg", self.mindeg_s),
            ("etree", self.etree_s),
            ("colcount", self.colcount_s),
            ("structure", self.structure_s),
        ]
    }

    /// Lift the analysis stage counters out of a merged counter snapshot.
    pub fn from_counters(c: &Counters, threads: usize) -> AnalysisReport {
        AnalysisReport {
            threads,
            coarsen_s: c.coarsen_s,
            bisect_s: c.bisect_s,
            refine_s: c.refine_s,
            mindeg_s: c.mindeg_s,
            etree_s: c.etree_s,
            colcount_s: c.colcount_s,
            structure_s: c.structure_s,
        }
    }
}

record! {
    /// Injected-fault and recovery activity of a distributed run. Only present
    /// when a run executed under a fault plan (which is what turns
    /// checkpointed recovery on); a fault-free run omits the section entirely.
    /// Every field defaults: the section only ever grows.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct FaultReport {
        /// Ranks that crashed under the injected plan (across all attempts).
        crashes: u64 = default;
        /// Receives that hit their deadline.
        timeouts: u64 = default;
        /// Messages delayed by an injected link fault.
        delayed_msgs: u64 = default;
        /// Duplicate message copies injected.
        duplicated_msgs: u64 = default;
        /// Checkpoint restarts the recovery driver performed.
        restarts: u64 = default;
        /// Sum of every attempt's simulated makespan, crashed attempts
        /// included — the end-to-end virtual cost of the recovered run, for
        /// recovery-overhead comparisons against a fault-free makespan.
        total_makespan_s: f64 = default;
    }
}

/// Src×dst traffic matrix of a distributed run, broken down by tag class
/// (`extadd` / `panel` / `solve` for the multifrontal engine).
/// The simulator builds it from its per-rank rows;
/// serialized sparsely (only nonzero links) so large rank counts stay compact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommMatrixReport {
    /// Number of ranks (matrix is nranks×nranks×classes).
    pub nranks: usize,
    /// Tag-class names, indexed by class.
    pub class_names: Vec<String>,
    /// Payload bytes, indexed `(src * nranks + dst) * nclasses + class`.
    pub bytes: Vec<u64>,
    /// Message counts, same indexing.
    pub msgs: Vec<u64>,
}

impl CommMatrixReport {
    /// Number of tag classes.
    pub fn nclasses(&self) -> usize {
        self.class_names.len()
    }

    /// `(bytes, msgs)` on the `src → dst` link in `class`.
    pub fn at(&self, src: usize, dst: usize, class: usize) -> (u64, u64) {
        let i = (src * self.nranks + dst) * self.nclasses() + class;
        (self.bytes[i], self.msgs[i])
    }

    /// Total bytes across all links and classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Largest `nranks² · classes` a decoded matrix may have: 8192 ranks (the
/// paper's largest machine) × 4 tag classes, 2 GiB per dense array. The
/// size comes from the file, so it is bounded before anything is allocated.
const MAX_COMM_CELLS: usize = 1 << 28;

/// Sparse triplet encoding: `[src, dst, class, bytes, msgs]` for nonzero
/// links only. A p=128 matrix is mostly zeros.
impl Wire for CommMatrixReport {
    fn to_json(&self) -> Json {
        let nc = self.nclasses();
        let mut entries = Vec::new();
        for src in 0..self.nranks {
            for dst in 0..self.nranks {
                for class in 0..nc {
                    let (b, m) = self.at(src, dst, class);
                    if b != 0 || m != 0 {
                        entries.push(Json::Arr(vec![
                            src.to_json(),
                            dst.to_json(),
                            class.to_json(),
                            b.to_json(),
                            m.to_json(),
                        ]));
                    }
                }
            }
        }
        Json::Obj(vec![
            ("nranks".to_string(), self.nranks.to_json()),
            ("classes".to_string(), self.class_names.to_json()),
            ("entries".to_string(), Json::Arr(entries)),
        ])
    }

    fn from_json(j: &Json) -> Option<CommMatrixReport> {
        let nranks = usize::from_json(j.get("nranks")?)?;
        let class_names = Vec::<String>::from_json(j.get("classes")?)?;
        let nc = class_names.len();
        let cells = nranks
            .checked_mul(nranks)
            .and_then(|n| n.checked_mul(nc))
            .filter(|&n| n <= MAX_COMM_CELLS)?;
        let mut m = CommMatrixReport {
            nranks,
            class_names,
            bytes: vec![0; cells],
            msgs: vec![0; cells],
        };
        for e in j.get("entries")?.as_arr()? {
            let e = e.as_arr()?;
            if e.len() != 5 {
                return None;
            }
            let (src, dst, class) = (e[0].as_usize()?, e[1].as_usize()?, e[2].as_usize()?);
            if src >= nranks || dst >= nranks || class >= nc {
                return None;
            }
            let i = (src * nranks + dst) * nc + class;
            m.bytes[i] = e[3].as_u64()?;
            m.msgs[i] = e[4].as_u64()?;
        }
        Some(m)
    }
}

record! {
    /// One rank's predicted-vs-measured scalability record.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct RankScalability {
        rank: usize = required;
        /// Payload bytes this rank actually sent during factorization.
        measured_bytes: u64 = required;
        /// Bytes the analytical model predicts this rank sends.
        predicted_bytes: f64 = required;
        /// Measured peak tracked working memory, bytes.
        measured_mem_peak: u64 = required;
        /// Peak working memory the model predicts, bytes.
        predicted_mem_peak: f64 = required;
    }
}

record! {
    /// Predicted-vs-measured communication volume and peak working memory of a
    /// run — the paper's scalability diagnostic: does measured per-process
    /// comm volume and memory track the analytical model as p grows?
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ScalabilityReport {
        /// Ranks (or workers) the run executed on.
        nranks: usize = required;
        /// Per-rank predicted and measured terms.
        ranks: Vec<RankScalability> = required;
    } + {
        /// Measured src×dst×class traffic matrix (distributed runs only).
        comm: Option<CommMatrixReport>;
    }
}

impl ScalabilityReport {
    /// Total measured comm volume (bytes sent across ranks).
    pub fn measured_total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.measured_bytes).sum()
    }

    /// Total predicted comm volume (bytes).
    pub fn predicted_total_bytes(&self) -> f64 {
        self.ranks.iter().map(|r| r.predicted_bytes).sum()
    }

    /// Measured / predicted total comm volume; `None` when the model
    /// predicts zero (p = 1: nothing to send).
    pub fn volume_model_ratio(&self) -> Option<f64> {
        let p = self.predicted_total_bytes();
        (p > 0.0).then(|| self.measured_total_bytes() as f64 / p)
    }

    /// Max/mean of per-rank measured comm volume (1.0 = perfectly
    /// balanced); `None` when nothing was sent.
    pub fn volume_balance(&self) -> Option<f64> {
        Self::balance(self.ranks.iter().map(|r| r.measured_bytes as f64))
    }

    /// Max/mean of per-rank measured peak memory (1.0 = perfectly
    /// balanced); `None` when nothing was tracked.
    pub fn memory_balance(&self) -> Option<f64> {
        Self::balance(self.ranks.iter().map(|r| r.measured_mem_peak as f64))
    }

    /// Memory efficiency: total measured peak memory across ranks relative
    /// to the single largest rank peak times p — 1.0 means every rank peaks
    /// equally (the paper's per-process memory-overhead metric).
    pub fn memory_efficiency(&self) -> Option<f64> {
        let max = self
            .ranks
            .iter()
            .map(|r| r.measured_mem_peak)
            .max()
            .unwrap_or(0);
        if max == 0 || self.ranks.is_empty() {
            return None;
        }
        let total: u64 = self.ranks.iter().map(|r| r.measured_mem_peak).sum();
        Some(total as f64 / (max as f64 * self.ranks.len() as f64))
    }

    fn balance(vals: impl Iterator<Item = f64> + Clone) -> Option<f64> {
        let n = vals.clone().count();
        if n == 0 {
            return None;
        }
        let max = vals.clone().fold(0.0f64, f64::max);
        let mean = vals.sum::<f64>() / n as f64;
        (mean > 0.0).then(|| max / mean)
    }
}

impl Wire for ScalabilityReport {
    fn to_json(&self) -> Json {
        let mut fields = self.fields_to_json();
        // Derived ratios, written for tooling, ignored on read.
        for (name, ratio) in [
            ("volume_model_ratio", self.volume_model_ratio()),
            ("volume_balance", self.volume_balance()),
            ("memory_balance", self.memory_balance()),
            ("memory_efficiency", self.memory_efficiency()),
        ] {
            fields.extend(ratio.map(|r| (name.to_string(), r.to_json())));
        }
        if let Some(c) = &self.comm {
            fields.push(("comm_matrix".to_string(), c.to_json()));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json) -> Option<ScalabilityReport> {
        let mut s = ScalabilityReport::fields_from_json(j).ok()?;
        if let Some(c) = j.get("comm_matrix") {
            s.comm = Some(CommMatrixReport::from_json(c)?);
        }
        Some(s)
    }
}

record! {
    /// The full record of one factorization.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FactorReport {
        /// Engine that produced the factor: `"sequential"`, `"smp"`, `"dist"`.
        engine: String = required;
        /// Matrix order.
        n: usize = required;
        /// Structural nonzeros in the lower triangle of A (as analyzed).
        nnz_a: usize = default;
        /// Nonzeros in the computed factor L.
        factor_nnz: usize = default;
        /// Supernodes in the assembly tree.
        nsuper: usize = default;
        /// Flops predicted by symbolic analysis (`factor_flops()`).
        predicted_flops: f64 = default;
        /// Number of `refactorize` calls performed on this factor object.
        refactorizations: u64 = default;
        /// Wall-clock seconds spent ordering.
        ordering_s: f64 = default;
        /// Wall-clock seconds spent in symbolic analysis.
        symbolic_s: f64 = default;
        /// Wall-clock seconds of the most recent numeric factorization.
        numeric_s: f64 = default;
        /// Bytes of update arena the most recent run's plan laid out,
        /// summed over its workers: every update's lower triangle at its
        /// planned place. On the host engines a prediction the workspace's
        /// arenas meet exactly on a fresh solver; for the distributed
        /// engine the simulated ranks' arenas, each also holding one
        /// region for its largest share of a grid front.
        update_arena_bytes: usize = default;
    } + {
        /// Aggregated counters from the collector (summed across threads or
        /// folded from ranks).
        counters: Counters;
        /// Per-rank breakdown (distributed engine only; empty otherwise).
        ranks: Vec<RankReport>;
        /// Span events (only at `TraceLevel::Timeline`; empty otherwise).
        spans: Vec<SpanEvent>;
        /// Timeline profile: critical path, per-rank idle breakdown, blocking
        /// edges (only at `TraceLevel::Timeline`; `None` otherwise).
        profile: Option<ProfileReport>;
        /// Solve-phase aggregate (only when the facade performed solves and the
        /// report was enriched via `report_with_solve`; `None` otherwise).
        solve: Option<SolveReport>;
        /// Analysis-phase breakdown (only when analysis tracing was on;
        /// `None` otherwise).
        analysis: Option<AnalysisReport>;
        /// Injected-fault / recovery activity (only when the run had a
        /// fault plan; `None` otherwise).
        faults: Option<FaultReport>;
        /// Predicted-vs-measured comm volume and peak memory (only when the
        /// run recorded them, i.e. tracing on; `None` otherwise).
        scalability: Option<ScalabilityReport>;
    }
}

impl FactorReport {
    /// Flops the run actually performed: the counted total when tracing was
    /// on, the symbolic prediction otherwise (the two agree to within
    /// amalgamation padding, see the engine parity tests).
    pub fn effective_flops(&self) -> f64 {
        if self.counters.flops > 0.0 {
            self.counters.flops
        } else {
            self.predicted_flops
        }
    }

    /// End-to-end numeric factorization rate in Gflop/s (flops over
    /// `numeric_s` wall-clock — includes assembly and extraction overhead).
    /// `0.0` when no time was recorded.
    pub fn factor_gflops(&self) -> f64 {
        if self.numeric_s > 0.0 {
            self.effective_flops() / self.numeric_s / 1e9
        } else {
            0.0
        }
    }

    /// Dense-kernel rate in Gflop/s: flops over the time attributed to the
    /// panel-factorization and trailing-update phases only. Requires phase
    /// timing ([`crate::TraceLevel::Counters`] or above); `None` when those
    /// phases recorded no time.
    pub fn kernel_gflops(&self) -> Option<f64> {
        let t = self.counters.panel_s + self.counters.gemm_s;
        if t > 0.0 {
            Some(self.effective_flops() / t / 1e9)
        } else {
            None
        }
    }

    /// Simulated makespan of a distributed run: the slowest rank's virtual
    /// clock. `None` for shared-memory engines — their per-worker rank rows
    /// carry no virtual clock (`clock_s == 0`), so a report with only such
    /// rows has no simulated makespan.
    pub fn sim_makespan_s(&self) -> Option<f64> {
        let m = self.ranks.iter().map(|r| r.clock_s).fold(0.0f64, f64::max);
        (m > 0.0).then_some(m)
    }

    /// Load imbalance: max/mean of per-rank (or per-worker) compute time
    /// (1.0 = perfectly balanced). `None` when no per-rank rows or no
    /// compute time was recorded.
    pub fn load_imbalance(&self) -> Option<f64> {
        if self.ranks.is_empty() {
            return None;
        }
        let max = self
            .ranks
            .iter()
            .map(|r| r.compute_s)
            .fold(0.0f64, f64::max);
        let mean: f64 =
            self.ranks.iter().map(|r| r.compute_s).sum::<f64>() / self.ranks.len() as f64;
        if mean > 0.0 {
            Some(max / mean)
        } else {
            None
        }
    }

    /// Serialize to a JSON tree. Sections a run did not produce are left
    /// out.
    pub fn to_json(&self) -> Json {
        let mut fields = self.fields_to_json();
        let mut put = |name: &str, v: Json| fields.push((name.to_string(), v));
        // Derived values, written for downstream tooling but never read
        // back (from_json ignores them), so round-trips stay exact.
        put("factor_gflops", self.factor_gflops().to_json());
        put("counters", self.counters.to_json());
        for (name, v) in [
            ("kernel_gflops", self.kernel_gflops()),
            ("sim_makespan_s", self.sim_makespan_s()),
            ("load_imbalance", self.load_imbalance()),
        ] {
            if let Some(v) = v {
                put(name, v.to_json());
            }
        }
        if !self.ranks.is_empty() {
            put("ranks", self.ranks.to_json());
        }
        if !self.spans.is_empty() {
            put("spans", self.spans.to_json());
        }
        if let Some(p) = &self.profile {
            put("profile", p.to_json());
        }
        if let Some(s) = &self.solve {
            let mut solve = s.fields_to_json();
            solve.push(("solve_gflops".to_string(), s.gflops().to_json()));
            put("solve", Json::Obj(solve));
        }
        if let Some(a) = &self.analysis {
            put("analysis", a.to_json());
        }
        if let Some(f) = &self.faults {
            put("faults", f.to_json());
        }
        if let Some(s) = &self.scalability {
            put("scalability", s.to_json());
        }
        Json::Obj(fields)
    }

    /// Serialize to a compact JSON string (one line).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Serialize to indented JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Deserialize from a JSON tree. Unknown fields are ignored; missing
    /// fields default (so reports stay readable across schema growth).
    pub fn from_json(j: &Json) -> Result<FactorReport, JsonError> {
        let field_err = |name: &str| JsonError {
            pos: 0,
            msg: format!("bad or missing report field '{name}'"),
        };
        // The sections decode by the table's modes: absent reads as the
        // default, present must decode.
        let decode = || {
            Ok(FactorReport {
                counters: record!(@get default, j, "counters"),
                ranks: record!(@get default, j, "ranks"),
                spans: record!(@get default, j, "spans"),
                profile: record!(@get optional, j, "profile"),
                solve: record!(@get optional, j, "solve"),
                analysis: record!(@get optional, j, "analysis"),
                faults: record!(@get optional, j, "faults"),
                scalability: record!(@get optional, j, "scalability"),
                ..FactorReport::fields_from_json(j)?
            })
        };
        decode().map_err(field_err)
    }

    /// Deserialize from JSON text.
    // lint:allow(R7) the reader of the report round-trip tests (tests/fault_recovery.rs among them); `to_json_string` is its writer
    pub fn from_json_str(text: &str) -> Result<FactorReport, JsonError> {
        FactorReport::from_json(&crate::json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Phase;

    fn sample_report() -> FactorReport {
        FactorReport {
            engine: "dist".to_string(),
            n: 10_000,
            nnz_a: 49_600,
            factor_nnz: 312_345,
            nsuper: 1_234,
            predicted_flops: 3.21e8,
            refactorizations: 2,
            ordering_s: 0.012,
            symbolic_s: 0.003,
            numeric_s: 0.207,
            update_arena_bytes: 27_100_000,
            counters: Counters {
                fronts_factored: 1_234,
                flops: 3.3e8,
                bytes_assembled: 9_876_543,
                bytes_sent: 1 << 54, // beyond 2^53: exercises exact u64 text
                msgs_sent: 4_321,
                extend_add_s: 0.04,
                panel_s: 0.15,
                gemm_s: 0.01,
                coarsen_s: 0.004,
                bisect_s: 0.003,
                refine_s: 0.002,
                mindeg_s: 0.001,
                etree_s: 0.0005,
                colcount_s: 0.0006,
                structure_s: 0.0007,
                mem_peak_bytes: 12_582_912,
            },
            ranks: vec![
                RankReport {
                    rank: 0,
                    clock_s: 1.5,
                    compute_s: 1.2,
                    comm_s: 0.3,
                    comm_hidden_s: 0.07,
                    queue_peak: 3,
                    flops: 1.6e8,
                    bytes_sent: 500,
                    msgs_sent: 10,
                    bytes_recv: 650,
                    msgs_recv: 11,
                    mem_peak_bytes: 6_000_000,
                },
                RankReport {
                    rank: 1,
                    clock_s: 1.4,
                    compute_s: 0.8,
                    comm_s: 0.6,
                    comm_hidden_s: 0.11,
                    queue_peak: 5,
                    flops: 1.7e8,
                    bytes_sent: 700,
                    msgs_sent: 12,
                    bytes_recv: 550,
                    msgs_recv: 9,
                    mem_peak_bytes: 6_582_912,
                },
            ],
            spans: vec![
                SpanEvent {
                    phase: Phase::ExtendAdd,
                    supernode: Some(7),
                    who: 1,
                    start_s: 0.001,
                    dur_s: 0.0005,
                },
                SpanEvent {
                    phase: Phase::Panel,
                    supernode: None,
                    who: 0,
                    start_s: 0.002,
                    dur_s: 0.01,
                },
            ],
            profile: None,
            solve: None,
            analysis: None,
            faults: None,
            scalability: None,
        }
    }

    #[test]
    fn faults_section_round_trips() {
        let mut r = sample_report();
        r.faults = Some(FaultReport {
            crashes: 1,
            timeouts: 2,
            delayed_msgs: 30,
            duplicated_msgs: 4,
            restarts: 1,
            total_makespan_s: 0.125,
        });
        let text = r.to_json_string();
        assert!(text.contains("\"faults\""));
        let back = FactorReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        // Reports without the section parse to None; partial sections
        // (older writers) default missing fields.
        let plain = sample_report();
        let back = FactorReport::from_json_str(&plain.to_json_string()).unwrap();
        assert_eq!(back.faults, None);
        let partial =
            FactorReport::from_json_str("{\"engine\":\"dist\",\"n\":4,\"faults\":{\"crashes\":3}}")
                .unwrap();
        let f = partial.faults.unwrap();
        assert_eq!(f.crashes, 3);
        assert_eq!(f.restarts, 0);
    }

    #[test]
    fn analysis_section_round_trips() {
        let mut r = sample_report();
        r.analysis = Some(AnalysisReport {
            threads: 4,
            coarsen_s: 0.004,
            bisect_s: 0.003,
            refine_s: 0.002,
            mindeg_s: 0.001,
            etree_s: 0.0005,
            colcount_s: 0.0006,
            structure_s: 0.0007,
        });
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let a = r.analysis.unwrap();
        assert_eq!(a.stages().len(), 7);
        let total: f64 = a.stages().iter().map(|(_, s)| s).sum();
        assert!((total - 0.0118).abs() < 1e-12);
        // Reports without the section parse to None.
        let plain = sample_report();
        let back = FactorReport::from_json_str(&plain.to_json_string()).unwrap();
        assert_eq!(back.analysis, None);
    }

    #[test]
    fn pre_analysis_counters_still_parse() {
        // Counter blocks written before the analysis stages were
        // instrumented lack the per-stage fields; they default to zero.
        let text = "{\"engine\":\"smp\",\"n\":4,\"counters\":{\
                    \"fronts_factored\":1,\"flops\":2.0,\
                    \"bytes_assembled\":8,\"bytes_sent\":0,\"msgs_sent\":0,\
                    \"extend_add_s\":0.1,\"panel_s\":0.2,\"gemm_s\":0.3,\
                    \"mem_peak_bytes\":64}}";
        let r = FactorReport::from_json_str(text).unwrap();
        assert_eq!(r.counters.coarsen_s, 0.0);
        assert_eq!(r.counters.structure_s, 0.0);
        assert_eq!(r.counters.panel_s, 0.2);
    }

    #[test]
    fn solve_section_round_trips() {
        let mut r = sample_report();
        r.solve = Some(SolveReport {
            solves: 3,
            rhs: 40,
            threads: 2,
            seconds: 0.004,
            flops: 5.0e7,
        });
        let text = r.to_json_string();
        assert!(text.contains("\"solve_gflops\""));
        let back = FactorReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        let g = r.solve.unwrap().gflops();
        assert!((g - 5.0e7 / 0.004 / 1e9).abs() < 1e-12, "g={g}");
        // Reports without the section parse to None.
        let plain = sample_report();
        let back = FactorReport::from_json_str(&plain.to_json_string()).unwrap();
        assert_eq!(back.solve, None);
    }

    #[test]
    fn profile_section_round_trips() {
        use crate::profile::{BlockingEdge, RankActivity};
        let mut r = sample_report();
        r.profile = Some(ProfileReport {
            critical_path_s: 1.25,
            critical_path_wait_s: 0.25,
            critical_path_len: 17,
            makespan_s: 1.5,
            ranks: vec![RankActivity {
                who: 0,
                busy_s: 1.2,
                comm_s: 0.2,
                wait_s: 0.1,
                idle_frac: 0.0667,
            }],
            blocking_edges: vec![BlockingEdge {
                blocker: Some(3),
                waiter: 9,
                wait_s: 0.2,
            }],
            congested_rank: Some(1),
        });
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        // Reports without the section parse to None.
        let plain = sample_report();
        let back = FactorReport::from_json_str(&plain.to_json_string()).unwrap();
        assert_eq!(back.profile, None);
    }

    #[test]
    fn empty_profile_section_round_trips() {
        // A degenerate profile (no spans at all — e.g. a zero-front
        // problem) still round-trips: empty vectors and a None congested
        // rank must not be confused with an absent section.
        let mut r = sample_report();
        r.profile = Some(ProfileReport::default());
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.profile.as_ref().unwrap().max_idle_frac(), 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        for text in [r.to_json_string(), r.to_json_pretty()] {
            let back = FactorReport::from_json_str(&text).unwrap();
            assert_eq!(back, r);
        }
        // The >2^53 counter survived exactly.
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.counters.bytes_sent, 1 << 54);
    }

    #[test]
    fn shared_memory_report_omits_rank_and_span_sections() {
        let r = FactorReport {
            engine: "sequential".to_string(),
            n: 100,
            ..FactorReport::default()
        };
        let text = r.to_json_string();
        assert!(!text.contains("\"ranks\""));
        assert!(!text.contains("\"spans\""));
        let back = FactorReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.sim_makespan_s(), None);
        assert_eq!(back.load_imbalance(), None);
    }

    #[test]
    fn dist_summaries() {
        let r = sample_report();
        assert_eq!(r.sim_makespan_s(), Some(1.5));
        let imb = r.load_imbalance().unwrap();
        assert!((imb - 1.2 / 1.0).abs() < 1e-12, "imb={imb}");
    }

    #[test]
    fn gflops_rates_derive_from_counters() {
        let r = sample_report();
        // Counted flops win over the prediction.
        assert_eq!(r.effective_flops(), 3.3e8);
        let fg = r.factor_gflops();
        assert!((fg - 3.3e8 / 0.207 / 1e9).abs() < 1e-12, "fg={fg}");
        let kg = r.kernel_gflops().unwrap();
        assert!((kg - 3.3e8 / 0.16 / 1e9).abs() < 1e-9, "kg={kg}");
        // Untimed run: end-to-end rate is zero, kernel rate absent.
        let empty = FactorReport::default();
        assert_eq!(empty.factor_gflops(), 0.0);
        assert_eq!(empty.kernel_gflops(), None);
        // Untraced (counters zero) but timed: falls back to the prediction.
        let untraced = FactorReport {
            predicted_flops: 2e9,
            numeric_s: 0.5,
            ..FactorReport::default()
        };
        assert_eq!(untraced.factor_gflops(), 4.0);
        // The derived fields appear in JSON output...
        let text = sample_report().to_json_string();
        assert!(text.contains("\"factor_gflops\""));
        assert!(text.contains("\"kernel_gflops\""));
        assert!(text.contains("\"sim_makespan_s\""));
        assert!(text.contains("\"load_imbalance\""));
        // ...without disturbing the round trip.
        let back = FactorReport::from_json_str(&text).unwrap();
        assert_eq!(back, sample_report());
    }

    #[test]
    fn missing_required_fields_error() {
        assert!(FactorReport::from_json_str("{}").is_err());
        assert!(FactorReport::from_json_str("{\"engine\":\"smp\"}").is_err());
        // Minimal valid document.
        let r = FactorReport::from_json_str("{\"engine\":\"smp\",\"n\":5}").unwrap();
        assert_eq!(r.engine, "smp");
        assert_eq!(r.n, 5);
        assert_eq!(r.counters, Counters::default());
        // A comm matrix sizes its dense arrays from the file: a rank count
        // whose square overflows, or fits but is beyond the cap, is an
        // error — not a panic, not an allocation.
        for nranks in ["4294967296", "3000000"] {
            let text = format!(
                "{{\"engine\":\"dist\",\"n\":4,\"scalability\":{{\"nranks\":2,\"ranks\":[],\
                 \"comm_matrix\":{{\"nranks\":{nranks},\"classes\":[\"extadd\"],\"entries\":[]}}}}}}"
            );
            let e = FactorReport::from_json_str(&text).unwrap_err();
            assert!(e.msg.contains("scalability"), "{e}");
        }
    }

    #[test]
    fn pre_overlap_rank_records_still_parse() {
        // Reports written before the overlap counters existed lack
        // `comm_hidden_s`/`queue_peak`; they must read back with defaults.
        let text = "{\"engine\":\"dist\",\"n\":4,\"ranks\":[{\"rank\":0,\
                    \"clock_s\":1.0,\"compute_s\":0.5,\"comm_s\":0.5,\
                    \"flops\":10.0,\"bytes_sent\":8,\"msgs_sent\":1,\
                    \"mem_peak_bytes\":64}]}";
        let r = FactorReport::from_json_str(text).unwrap();
        assert_eq!(r.ranks.len(), 1);
        assert_eq!(r.ranks[0].comm_hidden_s, 0.0);
        assert_eq!(r.ranks[0].queue_peak, 0);
    }

    fn sample_scalability() -> ScalabilityReport {
        ScalabilityReport {
            nranks: 2,
            ranks: vec![
                RankScalability {
                    rank: 0,
                    measured_bytes: 500,
                    predicted_bytes: 400.0,
                    measured_mem_peak: 6_000_000,
                    predicted_mem_peak: 5.5e6,
                },
                RankScalability {
                    rank: 1,
                    measured_bytes: 700,
                    predicted_bytes: 800.0,
                    measured_mem_peak: 6_582_912,
                    predicted_mem_peak: 7.0e6,
                },
            ],
            comm: Some(CommMatrixReport {
                nranks: 2,
                class_names: vec!["extadd".into(), "panel".into()],
                bytes: vec![0, 0, 400, 100, 600, 100, 0, 0],
                msgs: vec![0, 0, 4, 1, 5, 2, 0, 0],
            }),
        }
    }

    #[test]
    fn scalability_section_round_trips() {
        let mut r = sample_report();
        r.scalability = Some(sample_scalability());
        let text = r.to_json_string();
        assert!(text.contains("\"scalability\""));
        // Derived ratios are written for tooling...
        assert!(text.contains("\"volume_model_ratio\""));
        assert!(text.contains("\"volume_balance\""));
        assert!(text.contains("\"memory_balance\""));
        assert!(text.contains("\"memory_efficiency\""));
        // ...but ignored on read, so the round trip is exact.
        let back = FactorReport::from_json_str(&text).unwrap();
        assert_eq!(back, r);
        // Reports without the section parse to None.
        let plain = sample_report();
        let back = FactorReport::from_json_str(&plain.to_json_string()).unwrap();
        assert_eq!(back.scalability, None);
    }

    #[test]
    fn scalability_summaries() {
        let s = sample_scalability();
        assert_eq!(s.measured_total_bytes(), 1200);
        assert_eq!(s.predicted_total_bytes(), 1200.0);
        assert!((s.volume_model_ratio().unwrap() - 1.0).abs() < 1e-12);
        let vb = s.volume_balance().unwrap();
        assert!((vb - 700.0 / 600.0).abs() < 1e-12, "vb={vb}");
        let mb = s.memory_balance().unwrap();
        assert!(mb > 1.0 && mb < 1.1, "mb={mb}");
        let me = s.memory_efficiency().unwrap();
        assert!(me > 0.9 && me <= 1.0, "me={me}");
        let m = s.comm.as_ref().unwrap();
        assert_eq!(m.at(0, 1, 0), (400, 4));
        assert_eq!(m.total_bytes(), 1200);
    }

    #[test]
    fn zero_comm_single_rank_scalability_round_trips() {
        // A p=1 run sends nothing: ratios that would divide by zero are
        // absent, and the empty matrix still round-trips.
        let s = ScalabilityReport {
            nranks: 1,
            ranks: vec![RankScalability {
                rank: 0,
                measured_bytes: 0,
                predicted_bytes: 0.0,
                measured_mem_peak: 1024,
                predicted_mem_peak: 1000.0,
            }],
            comm: Some(CommMatrixReport {
                nranks: 1,
                class_names: vec!["extadd".into()],
                bytes: vec![0],
                msgs: vec![0],
            }),
        };
        assert_eq!(s.volume_model_ratio(), None);
        assert_eq!(s.volume_balance(), None);
        assert_eq!(s.memory_balance(), Some(1.0));
        assert_eq!(s.memory_efficiency(), Some(1.0));
        let mut r = sample_report();
        r.scalability = Some(s);
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_scalability_report_round_trips() {
        let mut r = sample_report();
        r.scalability = Some(ScalabilityReport::default());
        let s = r.scalability.as_ref().unwrap();
        assert_eq!(s.volume_model_ratio(), None);
        assert_eq!(s.memory_balance(), None);
        assert_eq!(s.memory_efficiency(), None);
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn host_engine_worker_rows_have_no_sim_makespan() {
        // Shared-memory engines publish per-worker rows with no virtual
        // clock; they must not fake a simulated makespan, but load
        // imbalance (a wall-time ratio) is still meaningful.
        let r = FactorReport {
            engine: "smp".to_string(),
            n: 100,
            ranks: vec![
                RankReport {
                    rank: 0,
                    compute_s: 0.4,
                    flops: 1e6,
                    mem_peak_bytes: 4096,
                    ..RankReport::default()
                },
                RankReport {
                    rank: 1,
                    compute_s: 0.2,
                    flops: 5e5,
                    mem_peak_bytes: 2048,
                    ..RankReport::default()
                },
            ],
            ..FactorReport::default()
        };
        assert_eq!(r.sim_makespan_s(), None);
        let imb = r.load_imbalance().unwrap();
        assert!((imb - 0.4 / 0.3).abs() < 1e-12, "imb={imb}");
        let back = FactorReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn pre_comm_matrix_rank_records_still_parse() {
        // Reports written before receive accounting lack `bytes_recv` /
        // `msgs_recv`; they must read back with zero defaults.
        let text = "{\"engine\":\"dist\",\"n\":4,\"ranks\":[{\"rank\":0,\
                    \"clock_s\":1.0,\"compute_s\":0.5,\"comm_s\":0.5,\
                    \"flops\":10.0,\"bytes_sent\":8,\"msgs_sent\":1,\
                    \"mem_peak_bytes\":64}]}";
        let r = FactorReport::from_json_str(text).unwrap();
        assert_eq!(r.ranks[0].bytes_recv, 0);
        assert_eq!(r.ranks[0].msgs_recv, 0);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let r = FactorReport::from_json_str(
            "{\"engine\":\"sequential\",\"n\":3,\"future_field\":[1,2,3]}",
        )
        .unwrap();
        assert_eq!(r.n, 3);
    }
}
