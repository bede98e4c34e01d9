//! `parfact-benchmark`: the end-to-end and per-layer benchmark registered in
//! `BENCHMARK.json`. See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! parfact-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                   [--quick] [--out FILE]
//! parfact-benchmark compare A.json B.json
//! parfact-benchmark list
//! ```
//!
//! A run handles one workload in one process, so that the peak resident set
//! is that workload's. Its last line on standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! `--out FILE` adds the run's full record to a result file, and a traced
//! run's spans to `FILE.spans.tsv`. `--quick` is a smoke test: small grids
//! and the fewest trials, whatever `--seconds` says.
//! It uses `std` and the layer crates' public items only.

mod compare;
mod e2e;
mod host;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workload;

use json::Json;
use metrics::{Better, Gate, END_TO_END, PER_LAYER};
use stats::Summary;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Tally, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", parsed.seconds));
    }
    // With no time to fill, every loop stops at its minimum count.
    if parsed.quick {
        parsed.seconds = 0.0;
    }
    Ok(parsed)
}

/// One reported metric: the gated value and, for the result file, the
/// statistics of the samples behind it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    /// The bound of an end-to-end metric, the direction of a per-layer one.
    note: String,
    /// The gated value: the order statistic of `samples` the metric names.
    value: f64,
    samples: Vec<f64>,
    summary: Summary,
}

impl Reported {
    fn new(
        name: &'static str,
        unit: &'static str,
        note: String,
        gate: Gate,
        samples: Vec<f64>,
    ) -> Reported {
        let summary = Summary::of(&samples);
        Reported {
            name,
            unit,
            note,
            value: match gate {
                Gate::Median => summary.median,
                Gate::LowerDecile => summary.p10,
            },
            samples,
            summary,
        }
    }

    fn to_json(&self, full: bool) -> Json {
        let s = &self.summary;
        let mut fields = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if full && s.n > 1 {
            fields.extend([
                ("n", Json::Num(s.n as f64)),
                ("median", Json::Num(s.median)),
                ("p10", Json::Num(s.p10)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
            ]);
            if let Some((p, v)) = s.tail {
                fields.extend([("tail_p", Json::Num(p)), ("tail", Json::Num(v))]);
            }
            let samples = self.samples.iter().map(|&x| Json::Num(x)).collect();
            fields.push(("samples", Json::Arr(samples)));
        }
        Json::obj(fields)
    }

    fn print(&self) {
        let s = &self.summary;
        print!(
            "  {:<32} {:>14.6e} {:<8} {:<11}",
            self.name, self.value, self.unit, self.note
        );
        if s.n > 1 {
            print!(
                " n={} median={:.4e} p10={:.4e} q1={:.4e} q3={:.4e} min={:.4e} max={:.4e}",
                s.n, s.median, s.p10, s.q1, s.q3, s.min, s.max
            );
            if s.spread().is_finite() {
                print!(" spread={:.1}%", s.spread() * 100.0);
            }
            if let Some((p, v)) = s.tail {
                print!(" p{:.1}={v:.4e}", p * 100.0);
            }
        }
        println!();
    }
}

struct RunResult {
    tally: Tally,
    metrics: Vec<Reported>,
    /// Not gated: rates and the residual limit, for the reader.
    info: Vec<(&'static str, f64)>,
    /// Virtual statistics that must repeat bit for bit.
    exact: Vec<(&'static str, f64)>,
    flags: Vec<&'static str>,
}

fn end_to_end(args: &Args) -> RunResult {
    let rec = e2e::run(args.workload, args.seed, args.seconds, args.quick);
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let samples = match m.name {
                "peak_rss_bytes" => host::peak_rss_bytes().into_iter().collect(),
                name => rec.samples.get(name).cloned().unwrap_or_default(),
            };
            let note = format!("bound +{:.0}%", m.bound * 100.0);
            Reported::new(m.name, m.unit, note, m.gate, samples)
        })
        .collect();
    let info = vec![
        (
            "factor_gflops",
            rec.factor_flops / rec.median_of("factor_s") / 1e9,
        ),
        (
            "solve_gflops",
            4.0 * rec.factor_nnz / rec.median_of("solve_s") / 1e9,
        ),
        ("residual_limit", workload::RESIDUAL_LIMIT),
    ];
    let exact = rec.sim.map_or(Vec::new(), |s| {
        vec![
            ("sim_makespan_s", s.makespan_s),
            ("sim_comm_bytes", s.comm_bytes),
            ("sim_mem_peak_bytes", s.mem_peak_bytes),
            ("sim_msgs", s.msgs),
        ]
    });
    RunResult {
        tally: rec.tally,
        metrics,
        info,
        exact,
        flags: Vec::new(),
    }
}

fn per_layer(args: &Args) -> Result<RunResult, String> {
    let mut layers = layers::run(args.workload, args.seed, args.seconds, args.quick);
    if let Some(out) = &args.out {
        let path = format!("{out}.spans.tsv");
        append_spans(&path, args.workload.name, &layers.spans)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let mut flags = Vec::new();
    if layers.value("seq.unattributed_frac") > layers::UNATTRIBUTED_LIMIT {
        flags.push("unattributed");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let note = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let samples = layers.samples.remove(m.name).unwrap_or_default();
            Reported::new(m.name, m.unit, note.to_string(), Gate::Median, samples)
        })
        .collect();
    Ok(RunResult {
        tally: layers.tally,
        metrics,
        info: Vec::new(),
        exact: Vec::new(),
        flags,
    })
}

/// Append this run's spans to the dump; a new file gets the header first.
fn append_spans(path: &str, workload: &str, spans: &[spans::Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        file.write_all(spans::TSV_HEADER.as_bytes())?;
    }
    file.write_all(spans::to_tsv(workload, spans).as_bytes())
}

/// Add this run's record to the result file, creating it if need be.
fn append_record(path: &str, record: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            doc.get("runs")
                .map(|r| r.as_arr().to_vec())
                .unwrap_or_default()
        }
        Err(_) => Vec::new(),
    };
    runs.push(record);
    let mut text =
        String::from("{\"schema\": \"parfact-benchmark/1\", \"claim\": null, \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        text.push_str(&run.encode());
        text.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    text.push_str("]}\n");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let wl = args.workload;
    println!(
        "parfact-benchmark: workload {} seed {} seconds {} trace {}{}",
        wl.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.quick {
            " QUICK (numbers not comparable)"
        } else {
            ""
        }
    );
    println!("  why: {}", wl.why);
    let result = if args.trace {
        per_layer(args)?
    } else {
        end_to_end(args)
    };
    // Correct: nothing failed and every metric has a finite value.
    let complete = result.metrics.iter().all(|m| m.value.is_finite());
    let correct = result.tally.failed == 0 && complete;
    for m in &result.metrics {
        m.print();
    }
    for (name, v) in result.info.iter().chain(&result.exact) {
        println!("  {name:<32} {v:>14.6e}");
    }
    for flag in &result.flags {
        println!("  flag: {flag}");
    }
    println!(
        "  ops_attempted {} ops_failed {} wall {:.1} s",
        result.tally.attempted,
        result.tally.failed,
        t0.elapsed().as_secs_f64()
    );

    let metrics_json = |full| {
        Json::Obj(
            result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.to_json(full)))
                .collect(),
        )
    };
    let pairs = |kv: &[(&'static str, f64)]| {
        Json::Obj(
            kv.iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                .collect(),
        )
    };
    if let Some(path) = &args.out {
        let record = Json::obj(vec![
            ("workload", Json::str(wl.name)),
            ("trace", Json::Num(args.trace as u8 as f64)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("quick", Json::Bool(args.quick)),
            ("wall_s", Json::Num(t0.elapsed().as_secs_f64())),
            ("host", host::descriptor()),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.tally.attempted as f64)),
            ("failed", Json::Num(result.tally.failed as f64)),
            ("metrics", metrics_json(true)),
            ("info", pairs(&result.info)),
            ("exact", pairs(&result.exact)),
            (
                "flags",
                Json::Arr(result.flags.iter().map(|f| Json::str(f)).collect()),
            ),
        ]);
        append_record(path, record)?;
    }
    let last = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(result.tally.failed as f64)),
        ("metrics", metrics_json(false)),
    ]);
    println!("{}", last.encode());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("compare") => Err("usage: parfact-benchmark compare A.json B.json".to_string()),
        // A run that completes exits 0; its last line says whether it was correct.
        _ => parse_args(&args).and_then(|a| run(&a)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("parfact-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
