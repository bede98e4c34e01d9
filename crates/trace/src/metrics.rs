//! A small, dependency-free metrics registry with Prometheus-style text
//! exposition.
//!
//! Engines publish what a run measured — phase timings, kernel rates,
//! communication matrices, memory high-water marks — into a [`Registry`] of
//! counters, gauges and histograms, which renders to the Prometheus text
//! exposition format (scrape-ready). [`Registry::from_report`] builds the
//! whole surface from a finished [`FactorReport`], so both CLIs can emit
//! metrics without threading a registry through the engines.
//!
//! The exposition writer is paired with a minimal parser
//! ([`Registry::parse_prometheus`]) used by the golden round-trip tests:
//! `parse(render(r)) == r` bit-for-bit on every sample value.

use crate::report::FactorReport;
use std::collections::HashMap;

/// Metric family kind, mirroring the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }

    fn from_name(s: &str) -> Option<Kind> {
        match s {
            "counter" => Some(Kind::Counter),
            "gauge" => Some(Kind::Gauge),
            "histogram" => Some(Kind::Histogram),
            _ => None,
        }
    }
}

/// A histogram sample: cumulative bucket counts over fixed upper bounds,
/// plus sum and count (the Prometheus histogram data model).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Bucket upper bounds, ascending. An implicit `+Inf` bucket follows.
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound (same length as `bounds`), then total
    /// observations in `count`.
    pub counts: Vec<u64>,
    /// Sum of every observed value.
    pub sum: f64,
    /// Total observations (the `+Inf` cumulative count).
    pub count: u64,
}

impl Histogram {
    /// A histogram over `bounds` with every bucket empty.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        for (i, &b) in self.bounds.iter().enumerate() {
            if v <= b {
                self.counts[i] += 1;
            }
        }
        self.sum += v;
        self.count += 1;
    }
}

/// One sample within a family: a label set and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs, in render order.
    pub labels: Vec<(String, String)>,
    /// Scalar value (counter/gauge families).
    pub value: f64,
    /// Histogram value (histogram families); `value` is unused then.
    pub hist: Option<Histogram>,
}

/// A metric family: name, help text, kind, and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub name: String,
    pub help: String,
    pub kind: Kind,
    pub samples: Vec<Sample>,
}

/// An insertion-ordered collection of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    families: Vec<Family>,
    /// Family name → its position in `families`. This index and the next
    /// are for lookups only: render order is insertion order.
    by_name: HashMap<String, usize>,
    /// Per family, label set → the sample's position in `Family::samples`.
    by_labels: Vec<HashMap<Vec<(String, String)>, usize>>,
}

/// Labels are passed as `&[("rank", "3")]` slices.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The families, in insertion order.
    pub fn families(&self) -> &[Family] {
        &self.families
    }

    /// Find-or-insert of the family `name`, by position; `help` and `kind`
    /// apply on first touch.
    fn family_pos(&mut self, name: &str, help: &str, kind: Kind) -> usize {
        if let Some(&pos) = self.by_name.get(name) {
            return pos;
        }
        self.by_name.insert(name.to_string(), self.families.len());
        self.by_labels.push(HashMap::new());
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.len() - 1
    }

    /// Find-or-insert of the sample `labels` in the family at `pos`; a new
    /// sample is a histogram over `bounds` when given.
    fn sample_mut(
        &mut self,
        pos: usize,
        labels: Vec<(String, String)>,
        bounds: Option<&[f64]>,
    ) -> &mut Sample {
        let samples = &mut self.families[pos].samples;
        let at = match self.by_labels[pos].get(&labels) {
            Some(&at) => at,
            None => {
                self.by_labels[pos].insert(labels.clone(), samples.len());
                samples.push(Sample {
                    labels,
                    value: 0.0,
                    hist: bounds.map(Histogram::new),
                });
                samples.len() - 1
            }
        };
        &mut samples[at]
    }

    /// The one find-or-insert behind `counter`, `gauge` and `observe`.
    fn upsert(
        &mut self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: Labels,
        bounds: Option<&[f64]>,
    ) -> &mut Sample {
        let pos = self.family_pos(name, help, kind);
        assert_eq!(
            self.families[pos].kind, kind,
            "metric '{name}' re-registered with a different kind"
        );
        let labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.sample_mut(pos, labels, bounds)
    }

    /// Set a counter sample (monotonic totals; by convention the name ends
    /// in `_total`).
    pub fn counter(&mut self, name: &str, help: &str, labels: Labels, value: f64) {
        self.upsert(name, help, Kind::Counter, labels, None).value = value;
    }

    /// Set a gauge sample (point-in-time values).
    pub fn gauge(&mut self, name: &str, help: &str, labels: Labels, value: f64) {
        self.upsert(name, help, Kind::Gauge, labels, None).value = value;
    }

    /// Record an observation into a histogram sample, creating it over
    /// `bounds` on first touch.
    pub fn observe(&mut self, name: &str, help: &str, labels: Labels, bounds: &[f64], v: f64) {
        self.upsert(name, help, Kind::Histogram, labels, Some(bounds))
            .hist
            .as_mut()
            .expect("histogram family sample without histogram")
            .observe(v);
    }

    /// Render to the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` headers followed by one line per sample, with
    /// histogram samples expanded into `_bucket`/`_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            out.push_str(&format!("# HELP {} {}\n", f.name, escape(&f.help, false)));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.name()));
            for s in &f.samples {
                match &s.hist {
                    None => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            render_labels(&s.labels, None),
                            fmt_value(s.value)
                        ));
                    }
                    Some(h) => {
                        for (i, &b) in h.bounds.iter().enumerate() {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                f.name,
                                render_labels(&s.labels, Some(&fmt_value(b))),
                                h.counts[i]
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            render_labels(&s.labels, Some("+Inf")),
                            h.count
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            f.name,
                            render_labels(&s.labels, None),
                            fmt_value(h.sum)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            f.name,
                            render_labels(&s.labels, None),
                            h.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// Parse text previously produced by [`Registry::to_prometheus`].
    /// Supports exactly the subset that writer emits (HELP/TYPE headers,
    /// labeled samples, histogram expansion); used by the golden
    /// round-trip tests and by downstream tooling that re-reads emitted
    /// metrics files.
    pub fn parse_prometheus(text: &str) -> Result<Registry, String> {
        let mut reg = Registry::new();
        for (ln, line) in text.lines().enumerate() {
            let err = |msg: &str| format!("line {}: {msg}: {line}", ln + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                // Kind is patched by the TYPE line that follows.
                let pos = reg.family_pos(name, "", Kind::Gauge);
                reg.families[pos].help = unescape(help).map_err(&err)?;
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').ok_or_else(|| err("bad TYPE"))?;
                let kind = Kind::from_name(kind).ok_or_else(|| err("unknown kind"))?;
                let pos = reg.family_pos(name, "", kind);
                reg.families[pos].kind = kind;
                continue;
            }
            if line.starts_with('#') {
                continue; // comment
            }
            // Sample line: name{labels} value
            let (head, value) = line.rsplit_once(' ').ok_or_else(|| err("no value"))?;
            let (name, mut labels) = match head.split_once('{') {
                Some((n, rest)) => {
                    let body = rest.strip_suffix('}').ok_or_else(|| err("unclosed {"))?;
                    (n, parse_labels(body).map_err(&err)?)
                }
                None => (head, Vec::new()),
            };
            let num = |v: &str| -> Result<f64, String> {
                if v == "+Inf" {
                    Ok(f64::INFINITY)
                } else {
                    v.parse::<f64>().map_err(|_| err("bad number"))
                }
            };
            // Histogram sub-series attach to their base family.
            let sub_series = ["_bucket", "_sum", "_count"].into_iter().find_map(|part| {
                let pos = *reg.by_name.get(name.strip_suffix(part)?)?;
                (reg.families[pos].kind == Kind::Histogram).then_some((pos, part))
            });
            if let Some((pos, part)) = sub_series {
                let le = match part {
                    "_bucket" => {
                        let at = labels.iter().position(|(k, _)| k == "le");
                        Some(labels.remove(at.ok_or_else(|| err("bucket without le"))?).1)
                    }
                    _ => None,
                };
                let h = reg.sample_mut(pos, labels, Some(&[])).hist.as_mut();
                let h = h.ok_or_else(|| err("not a histogram sample"))?;
                match (part, le.as_deref()) {
                    ("_sum", _) => h.sum = num(value)?,
                    ("_count", _) | (_, Some("+Inf")) => h.count = num(value)? as u64,
                    (_, le) => {
                        h.bounds.push(num(le.expect("a bucket has le"))?);
                        h.counts.push(num(value)? as u64);
                    }
                }
                continue;
            }
            let v = num(value)?;
            let pos = *reg
                .by_name
                .get(name)
                .ok_or_else(|| err("sample before TYPE"))?;
            reg.sample_mut(pos, labels, None).value = v;
        }
        Ok(reg)
    }

    /// Build the full metrics surface from a finished factorization report:
    /// run shape, phase timings, kernel rates, per-rank statistics, the
    /// communication matrix, memory high-water marks, and the
    /// predicted-vs-measured scalability terms.
    pub fn from_report(r: &FactorReport) -> Registry {
        let mut m = Registry::new();
        let eng: Labels = &[("engine", &r.engine)];
        m.gauge("parfact_info", "Run identity; value is always 1.", eng, 1.0);
        m.gauge("parfact_n", "Matrix order.", &[], r.n as f64);
        m.gauge(
            "parfact_factor_nnz",
            "Nonzeros in the computed factor L.",
            &[],
            r.factor_nnz as f64,
        );
        m.gauge(
            "parfact_nsuper",
            "Supernodes in the assembly tree.",
            &[],
            r.nsuper as f64,
        );
        for (phase, secs) in [
            ("ordering", r.ordering_s),
            ("symbolic", r.symbolic_s),
            ("numeric", r.numeric_s),
        ] {
            m.gauge(
                "parfact_phase_seconds",
                "Wall-clock seconds per solver phase.",
                &[("phase", phase)],
                secs,
            );
        }
        for (phase, secs) in r.counters.phase_seconds() {
            if secs > 0.0 && !phase.is_analysis() {
                m.gauge(
                    "parfact_kernel_seconds",
                    "Attributed seconds per numeric kernel phase (summed across workers).",
                    &[("kernel", phase.name())],
                    secs,
                );
            }
        }
        m.counter(
            "parfact_flops_total",
            "Floating-point operations performed by the factorization.",
            &[],
            r.effective_flops(),
        );
        m.gauge(
            "parfact_factor_gflops",
            "End-to-end numeric factorization rate, Gflop/s.",
            &[],
            r.factor_gflops(),
        );
        if let Some(kg) = r.kernel_gflops() {
            m.gauge(
                "parfact_kernel_gflops",
                "Dense-kernel rate over panel+gemm attributed time, Gflop/s.",
                &[],
                kg,
            );
        }
        m.gauge(
            "parfact_mem_peak_bytes",
            "Peak tracked working memory, bytes (max across workers/ranks).",
            &[],
            r.counters.mem_peak_bytes as f64,
        );
        if let Some(ms) = r.sim_makespan_s() {
            m.gauge(
                "parfact_sim_makespan_seconds",
                "Simulated makespan: the slowest rank's virtual clock.",
                &[],
                ms,
            );
        }
        if let Some(imb) = r.load_imbalance() {
            m.gauge(
                "parfact_load_imbalance",
                "Max/mean per-rank compute time (1.0 = balanced).",
                &[],
                imb,
            );
        }
        const RANK_HELP: &str = "Per-rank statistic; labels: rank, stat.";
        for rk in &r.ranks {
            let rs = rk.rank.to_string();
            for (stat, v) in [
                ("clock_s", rk.clock_s),
                ("compute_s", rk.compute_s),
                ("comm_s", rk.comm_s),
                ("comm_hidden_s", rk.comm_hidden_s),
                ("flops", rk.flops),
                ("bytes_sent", rk.bytes_sent as f64),
                ("bytes_recv", rk.bytes_recv as f64),
                ("msgs_sent", rk.msgs_sent as f64),
                ("msgs_recv", rk.msgs_recv as f64),
                ("mem_peak_bytes", rk.mem_peak_bytes as f64),
            ] {
                m.gauge(
                    "parfact_rank_stat",
                    RANK_HELP,
                    &[("rank", &rs), ("stat", stat)],
                    v,
                );
            }
        }
        if !r.ranks.is_empty() {
            // Distribution of per-rank traffic and memory: log-spaced byte
            // buckets from 64 KiB to 4 GiB.
            let bounds: Vec<f64> = (0..17).map(|i| 65536.0 * 2f64.powi(i)).collect();
            for rk in &r.ranks {
                m.observe(
                    "parfact_rank_bytes_sent_dist",
                    "Distribution of per-rank sent bytes.",
                    &[],
                    &bounds,
                    rk.bytes_sent as f64,
                );
                m.observe(
                    "parfact_rank_mem_peak_dist",
                    "Distribution of per-rank peak tracked memory, bytes.",
                    &[],
                    &bounds,
                    rk.mem_peak_bytes as f64,
                );
            }
        }
        if let Some(s) = &r.scalability {
            for rk in &s.ranks {
                let rs = rk.rank.to_string();
                // Every field but the `rank` key, which is the label.
                for (stat, v) in rk.gauges().filter(|(stat, _)| *stat != "rank") {
                    m.gauge(
                        "parfact_scalability_rank",
                        "Predicted-vs-measured per-rank comm volume and peak memory.",
                        &[("rank", &rs), ("stat", stat)],
                        v,
                    );
                }
            }
            if let Some(ratio) = s.volume_model_ratio() {
                m.gauge(
                    "parfact_volume_model_ratio",
                    "Measured / predicted total communication volume.",
                    &[],
                    ratio,
                );
            }
            if let Some(b) = s.volume_balance() {
                m.gauge(
                    "parfact_volume_balance",
                    "Max/mean per-rank measured comm volume (1.0 = balanced).",
                    &[],
                    b,
                );
            }
            if let Some(b) = s.memory_balance() {
                m.gauge(
                    "parfact_memory_balance",
                    "Max/mean per-rank measured peak memory (1.0 = balanced).",
                    &[],
                    b,
                );
            }
            if let Some(c) = &s.comm {
                let nc = c.nclasses();
                for src in 0..c.nranks {
                    for dst in 0..c.nranks {
                        for class in 0..nc {
                            let (b, msgs) = c.at(src, dst, class);
                            if b == 0 && msgs == 0 {
                                continue;
                            }
                            let (ss, ds) = (src.to_string(), dst.to_string());
                            let lbl: Labels =
                                &[("src", &ss), ("dst", &ds), ("class", &c.class_names[class])];
                            m.counter(
                                "parfact_comm_bytes_total",
                                "Payload bytes per link and tag class.",
                                lbl,
                                b as f64,
                            );
                            m.counter(
                                "parfact_comm_msgs_total",
                                "Messages per link and tag class.",
                                lbl,
                                msgs as f64,
                            );
                        }
                    }
                }
            }
        }
        if let Some(s) = &r.solve {
            m.counter(
                "parfact_solve_rhs_total",
                "Right-hand-side columns solved.",
                &[],
                s.rhs as f64,
            );
            m.gauge(
                "parfact_solve_gflops",
                "Aggregate triangular-solve rate, Gflop/s.",
                &[],
                s.gflops(),
            );
        }
        if let Some(f) = &r.faults {
            // Every field but the one that is not an event count.
            for (kind, v) in f.gauges().filter(|(kind, _)| *kind != "total_makespan_s") {
                m.counter(
                    "parfact_fault_events_total",
                    "Injected-fault and recovery events by kind.",
                    &[("kind", kind)],
                    v,
                );
            }
        }
        m
    }
}

/// Render `{k="v",...}`, optionally with a trailing `le` label (histogram
/// buckets). Empty label sets render as nothing.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v, true)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Shortest round-trippable decimal text for a value (Rust's `{:?}` f64
/// formatting), matching the JSON writer so both surfaces agree.
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:?}")
    }
}

/// Escape for the exposition format: `\` and newline always, `"` inside
/// label values only (HELP text keeps its quotes bare).
fn escape(v: &str, quotes: bool) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quotes => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`], in one pass: `\n` is a newline, any other
/// escaped character is itself.
fn unescape(v: &str) -> Result<String, &'static str> {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some(e) => out.push(e),
                None => return Err("dangling escape"),
            },
            c => out.push(c),
        }
    }
    Ok(out)
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"").ok_or("label without =\"")?;
        let key = rest[..eq].trim_start_matches(',').to_string();
        rest = &rest[eq + 2..];
        // The value runs to the first quote that no backslash escapes.
        let mut escaped = false;
        let end = rest.find(|c| {
            let closes = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            closes
        });
        let end = end.ok_or("unterminated label value")?;
        out.push((key, unescape(&rest[..end])?));
        rest = &rest[end + 1..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CommMatrixReport, RankReport, RankScalability, ScalabilityReport};

    fn sample_registry() -> Registry {
        let mut m = Registry::new();
        m.gauge("up", "Is the exporter up.", &[], 1.0);
        m.counter(
            "bytes_total",
            "Bytes by direction.",
            &[("dir", "tx")],
            1.25e9,
        );
        m.counter("bytes_total", "Bytes by direction.", &[("dir", "rx")], 3.0);
        m.gauge(
            "temp_celsius",
            "Temperature with \"quotes\" and back\\slash.",
            &[("sensor", "a\"b\\c")],
            36.625,
        );
        for v in [0.05, 0.2, 0.2, 7.5] {
            m.observe(
                "latency_seconds",
                "Request latency.",
                &[("path", "/solve")],
                &[0.1, 1.0, 5.0],
                v,
            );
        }
        m
    }

    #[test]
    fn exposition_golden_format() {
        let text = sample_registry().to_prometheus();
        let expected = "\
# HELP up Is the exporter up.
# TYPE up gauge
up 1
# HELP bytes_total Bytes by direction.
# TYPE bytes_total counter
bytes_total{dir=\"tx\"} 1250000000
bytes_total{dir=\"rx\"} 3
# HELP temp_celsius Temperature with \"quotes\" and back\\\\slash.
# TYPE temp_celsius gauge
temp_celsius{sensor=\"a\\\"b\\\\c\"} 36.625
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{path=\"/solve\",le=\"0.1\"} 1
latency_seconds_bucket{path=\"/solve\",le=\"1\"} 3
latency_seconds_bucket{path=\"/solve\",le=\"5\"} 3
latency_seconds_bucket{path=\"/solve\",le=\"+Inf\"} 4
latency_seconds_sum{path=\"/solve\"} 7.95
latency_seconds_count{path=\"/solve\"} 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_round_trips_through_parser() {
        let mut reg = sample_registry();
        // A backslash followed by `n` is not a newline; a label value may
        // hold every character the format escapes.
        reg.gauge(
            "install_dir",
            "path C:\\new",
            &[("path", "C:\\new \"x\"\nline two")],
            1.0,
        );
        let text = reg.to_prometheus();
        let back = Registry::parse_prometheus(&text).expect("parse");
        assert_eq!(back, reg);
        // And the re-rendered text is byte-identical.
        assert_eq!(back.to_prometheus(), text);
    }

    #[test]
    fn upsert_overwrites_same_label_set() {
        let mut m = Registry::new();
        m.gauge("g", "h", &[("a", "1")], 1.0);
        m.gauge("g", "h", &[("a", "1")], 2.0);
        m.gauge("g", "h", &[("a", "2")], 3.0);
        assert_eq!(m.families()[0].samples.len(), 2);
        assert_eq!(m.families()[0].samples[0].value, 2.0);
        // The label-set index stays consistent as a family grows: 10 000
        // distinct sets land in insertion order, and overwriting the first
        // finds it again.
        let mut m = Registry::new();
        for i in 0..10_000 {
            m.gauge("g", "h", &[("a", &i.to_string())], i as f64);
        }
        m.gauge("g", "h", &[("a", "0")], -1.0);
        let samples = &m.families()[0].samples;
        assert_eq!(samples.len(), 10_000);
        assert_eq!(samples[0].value, -1.0);
        assert!(samples[1..]
            .iter()
            .enumerate()
            .all(|(i, s)| { s.labels[0].1 == (i + 1).to_string() && s.value == (i + 1) as f64 }));
    }

    #[test]
    fn report_surface_round_trips() {
        let r = FactorReport {
            engine: "dist".to_string(),
            n: 1000,
            factor_nnz: 5000,
            nsuper: 77,
            numeric_s: 0.25,
            predicted_flops: 1e9,
            ranks: vec![
                RankReport {
                    rank: 0,
                    clock_s: 0.2,
                    compute_s: 0.15,
                    comm_s: 0.05,
                    flops: 5e8,
                    bytes_sent: 1 << 20,
                    msgs_sent: 64,
                    bytes_recv: 1 << 19,
                    msgs_recv: 32,
                    mem_peak_bytes: 1 << 22,
                    ..RankReport::default()
                },
                RankReport {
                    rank: 1,
                    clock_s: 0.21,
                    compute_s: 0.16,
                    comm_s: 0.05,
                    flops: 5e8,
                    bytes_sent: 1 << 19,
                    msgs_sent: 32,
                    bytes_recv: 1 << 20,
                    msgs_recv: 64,
                    mem_peak_bytes: 1 << 21,
                    ..RankReport::default()
                },
            ],
            scalability: Some(ScalabilityReport {
                nranks: 2,
                ranks: vec![
                    RankScalability {
                        rank: 0,
                        measured_bytes: 1 << 20,
                        predicted_bytes: 9e5,
                        measured_mem_peak: 1 << 22,
                        predicted_mem_peak: 4e6,
                    },
                    RankScalability {
                        rank: 1,
                        measured_bytes: 1 << 19,
                        predicted_bytes: 6e5,
                        measured_mem_peak: 1 << 21,
                        predicted_mem_peak: 2e6,
                    },
                ],
                comm: Some(CommMatrixReport {
                    nranks: 2,
                    class_names: vec!["extadd".into(), "panel".into()],
                    bytes: vec![0, 0, 1 << 19, 1 << 19, 1 << 18, 1 << 18, 0, 0],
                    msgs: vec![0, 0, 32, 32, 16, 16, 0, 0],
                }),
            }),
            ..FactorReport::default()
        };
        let reg = Registry::from_report(&r);
        let text = reg.to_prometheus();
        for needle in [
            "parfact_info{engine=\"dist\"} 1",
            "parfact_phase_seconds{phase=\"numeric\"} 0.25",
            "parfact_rank_stat{rank=\"0\",stat=\"bytes_sent\"} 1048576",
            "parfact_comm_bytes_total{src=\"0\",dst=\"1\",class=\"extadd\"} 524288",
            "parfact_volume_model_ratio",
            "parfact_sim_makespan_seconds 0.21",
            "parfact_rank_bytes_sent_dist_count 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Golden round trip: parse back, bit-identical re-exposition.
        let back = Registry::parse_prometheus(&text).expect("parse");
        assert_eq!(back, reg);
        assert_eq!(back.to_prometheus(), text);
    }
}
