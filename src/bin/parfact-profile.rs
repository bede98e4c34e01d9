//! `parfact-profile` — timeline profiler for the distributed engine.
//!
//! Runs one factorization at [`parfact::TraceLevel::Timeline`], writes the
//! per-rank Gantt trace as Chrome Trace Event JSON (load it in Perfetto or
//! `chrome://tracing`), and prints the critical-path profile: where the
//! virtual time went per rank (compute / comm / wait), which assembly-tree
//! edges blocked the longest, and how close the run is to its critical
//! path.
//!
//! ```text
//! parfact-profile <matrix.mtx | --gen spec> [options]
//!
//!   --gen <spec>        lap2d:NX[xNY] | lap3d:NX[xNYxNZ] | elast3d:NX[xNYxNZ]
//!   --ranks <p>         simulated ranks                  (default 4)
//!   --threads <t>       profile the SMP engine instead (t host threads;
//!                       not with --ranks, --sync or --inject)
//!   --ordering <m>      nd | amd | rcm | natural         (default nd)
//!   --analysis-threads <t>  worker threads for the analysis phase
//!                       (default: inherit; result is bitwise identical)
//!   --sync              strict-postorder blocking schedule (EXP-A7 baseline;
//!                       not with --inject, whose checkpoints need the
//!                       event-driven schedule)
//!   --inject <spec>     fault plan for the distributed run: crash:<r>@t=<s>
//!                       | crash:<r>@send=<k> | delay:<src>-<dst>:<alphas>
//!                       | dup:<src>-<dst> (comma-separated); checkpointed
//!                       recovery is enabled and the trace shows the final
//!                       (successful) attempt
//!   --out <file>        Chrome trace output path   (default trace.json)
//!   --metrics-out <f>   also export the run's report as Prometheus text
//!                       exposition (phase timings, per-rank stats, comm
//!                       matrix, scalability model)
//!   --top <k>           blocking edges to show           (default 8)
//! ```

use parfact::core::smp::SmpOpts;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, SparseCholesky};
use parfact::order::Method;
use parfact::sparse::{gen, io};
use parfact::trace::{profile, Timeline};
use parfact::TraceLevel;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    matrix: String,
    gen: Option<String>,
    ranks: Option<usize>,
    threads: usize,
    ordering: Method,
    analysis_threads: usize,
    sync: bool,
    inject: parfact::mpsim::FaultPlan,
    out: String,
    metrics_out: Option<String>,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrix: String::new(),
        gen: None,
        ranks: None,
        threads: 0,
        ordering: Method::default(),
        analysis_threads: 0,
        sync: false,
        inject: parfact::mpsim::FaultPlan::new(),
        out: "trace.json".to_string(),
        metrics_out: None,
        top: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gen" => args.gen = Some(it.next().ok_or("--gen needs a spec")?),
            "--ranks" => {
                args.ranks = Some(
                    it.next()
                        .ok_or("--ranks needs a count")?
                        .parse()
                        .map_err(|_| "--ranks needs an integer")?,
                )
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|_| "--threads needs an integer")?
            }
            "--ordering" => {
                args.ordering = match it.next().ok_or("--ordering needs a value")?.as_str() {
                    "nd" => Method::default(),
                    "amd" | "mindeg" => Method::MinDegree,
                    "rcm" => Method::Rcm,
                    "natural" => Method::Natural,
                    other => return Err(format!("unknown ordering '{other}'")),
                }
            }
            "--analysis-threads" => {
                args.analysis_threads = it
                    .next()
                    .ok_or("--analysis-threads needs a count")?
                    .parse()
                    .map_err(|_| "--analysis-threads needs an integer")?
            }
            "--sync" => args.sync = true,
            "--inject" => {
                let spec = it.next().ok_or("--inject needs a fault spec")?;
                args.inject = parfact::mpsim::FaultPlan::parse(&spec)?;
            }
            "--out" => args.out = it.next().ok_or("--out needs a file")?,
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a file")?)
            }
            "--top" => {
                args.top = it
                    .next()
                    .ok_or("--top needs a count")?
                    .parse()
                    .map_err(|_| "--top needs an integer")?
            }
            "--help" | "-h" => return Err("usage".into()),
            other if args.matrix.is_empty() && !other.starts_with('-') => {
                args.matrix = other.to_string()
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if args.matrix.is_empty() && args.gen.is_none() {
        return Err("no matrix file or --gen spec given".into());
    }
    if args.threads > 0 && (args.ranks.is_some() || args.sync || !args.inject.is_empty()) {
        return Err("--ranks, --sync and --inject need the distributed engine".into());
    }
    if args.ranks == Some(0) {
        return Err("--ranks must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "usage" {
                eprintln!("error: {msg}\n");
            }
            eprintln!("usage: parfact-profile <matrix.mtx | --gen spec> [--ranks p] [--threads t] [--ordering nd|amd|rcm|natural] [--analysis-threads t] [--sync] [--inject spec] [--out f] [--metrics-out f] [--top k]");
            return ExitCode::from(2);
        }
    };

    let a = match &args.gen {
        Some(spec) => match gen::by_spec(spec) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match io::read_sym_lower(Path::new(&args.matrix)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error reading {}: {e}", args.matrix);
                return ExitCode::FAILURE;
            }
        },
    };

    let ranks = args.ranks.unwrap_or(4);
    let (engine, label) = if args.threads > 0 {
        (
            Engine::Smp(SmpOpts {
                threads: args.threads,
                ..SmpOpts::default()
            }),
            "worker",
        )
    } else {
        (
            Engine::Dist(DistOpts {
                ranks,
                sync_schedule: args.sync,
                faults: args.inject.clone(),
                checkpoint: !args.inject.is_empty(),
                ..DistOpts::default()
            }),
            "rank",
        )
    };
    println!(
        "profiling: n = {}, nnz(lower) = {}, engine = {}{}",
        a.nrows(),
        a.nnz(),
        match &engine {
            Engine::Smp(s) => format!("smp x{}", s.threads),
            _ => format!("dist x{ranks}"),
        },
        if args.sync { " (sync schedule)" } else { "" }
    );

    let opts = FactorOpts::new()
        .ordering(args.ordering)
        .engine(engine)
        .analysis_threads(args.analysis_threads)
        .trace(TraceLevel::Timeline);
    let chol = match SparseCholesky::factorize(&a, &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("factorization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = chol.report();

    if let Some(f) = &r.faults {
        println!(
            "faults: {} crash(es), {} restart(s), {} delayed / {} duplicated msg(s), {} timeout(s)",
            f.crashes, f.restarts, f.delayed_msgs, f.duplicated_msgs, f.timeouts
        );
    }

    let tl = Timeline::from_spans(&r.spans);
    let json = tl.to_chrome_trace(label).to_string_compact() + "\n";
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("error writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "trace: {} spans across {} lanes written to {} (open in https://ui.perfetto.dev)",
        r.spans.len(),
        tl.lanes.len(),
        args.out
    );

    if let Some(path) = &args.metrics_out {
        let reg = parfact::trace::Registry::from_report(r);
        if let Err(e) = std::fs::write(path, reg.to_prometheus()) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "metrics: {} families written to {path} (Prometheus text exposition)",
            reg.families().len()
        );
    }

    // Analysis-phase breakdown: the pipeline stages and their wall-clock
    // shares, rendered ahead of the numeric critical-path profile. These
    // spans also appear in the Chrome trace on each worker's "analysis"
    // lane.
    if let Some(ar) = &r.analysis {
        let total = ar.total_s().max(f64::MIN_POSITIVE);
        println!("analysis ({} threads, {:.1} ms):", ar.threads, total * 1e3);
        for (name, s) in ar.stages() {
            if s > 0.0 {
                println!(
                    "  {name:<9} {:>8.2} ms  {:>5.1}%",
                    s * 1e3,
                    100.0 * s / total
                );
            }
        }
    }

    // The report's profile keeps a fixed top-k; recompute at the requested
    // depth so --top works without touching the report schema.
    let p = profile::analyze(&chol.symbolic().tree.parent, &r.spans, &r.ranks, args.top);
    let mut text = String::new();
    p.render(&mut text);
    print!("{text}");
    ExitCode::SUCCESS
}
