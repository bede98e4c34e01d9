//! `parfact-solve` — command-line direct solver for Matrix Market systems.
//!
//! ```text
//! parfact-solve <matrix.mtx | --gen spec> [options]
//!
//!   --gen <spec>        generate the problem instead of reading a file:
//!                       lap2d:NX[xNY] | lap3d:NX[xNYxNZ] | elast3d:NX[xNYxNZ]
//!   --rhs <file>        right-hand side: whitespace-separated numbers
//!                       (default: b = A * ones, so x* = ones)
//!   --out <file>        write the solution, one value per line
//!   --ordering <m>      nd | amd | rcm | natural        (default nd)
//!   --nd-cutoff <n>     nested-dissection leaf size: subgraphs at most
//!                       this large switch to minimum degree (default 96;
//!                       only valid with --ordering nd)
//!   --analysis-threads <t>  worker threads for the ordering + symbolic
//!                       phase (default: inherit --threads / machine);
//!                       the result is bitwise identical at any count
//!   --ldlt              LDLt instead of Cholesky (symmetric indefinite)
//!   --threads <t>       SMP engine with t threads (default: sequential);
//!                       the solve phase uses the same thread pool
//!   --ranks <p>         distributed engine on p simulated ranks
//!   --sync              strict-postorder blocking schedule for the
//!                       distributed run (needs --ranks; not with
//!                       --inject, whose checkpoints need the
//!                       event-driven schedule)
//!   --inject <spec>     fault plan for the distributed run (needs --ranks);
//!                       comma-separated: crash:<r>@t=<s> | crash:<r>@send=<k>
//!                       | delay:<src>-<dst>:<alphas> | dup:<src>-<dst>.
//!                       Checkpointed recovery is enabled automatically;
//!                       the run restarts from the last consistent cut and
//!                       the factor is bitwise identical to a fault-free run
//!   --refine <k>        iterative-refinement steps     (default 1)
//!   --nrhs <k>          solve k right-hand sides as one blocked batch
//!                       (columns beyond the first are rotations of b);
//!                       --out writes the first column  (default 1)
//!   --stats             print condition estimate and log-determinant
//!   --report <file>     write the factorization report (counters traced,
//!                       solve section included) as JSON
//!   --metrics-out <f>   export the same report as Prometheus text
//!                       exposition (counters and gauges, one sample per
//!                       number of the --report JSON); implies counter
//!                       tracing like --report
//!   --trace-out <file>  record a timeline trace and write it as Chrome
//!                       Trace Event JSON (open in Perfetto), solve spans
//!                       included; also prints the critical-path profile
//! ```
//!
//! The matrix must be square and symmetric (Matrix Market `symmetric`, or
//! `general` with both triangles present — the lower triangle is used).

use parfact::core::analysis;
use parfact::core::smp::SmpOpts;
use parfact::core::solver::{
    DistOpts, Engine, FactorOpts, RhsBlock, SolveEngine, SolveOpts, SparseCholesky,
};
use parfact::core::FactorKind;
use parfact::order::Method;
use parfact::sparse::{gen, io, ops};
use parfact::trace::Timeline;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    matrix: String,
    gen: Option<String>,
    rhs: Option<String>,
    out: Option<String>,
    ordering: Method,
    nd_cutoff: Option<usize>,
    analysis_threads: usize,
    ldlt: bool,
    threads: usize,
    ranks: usize,
    sync: bool,
    inject: parfact::mpsim::FaultPlan,
    refine: usize,
    nrhs: usize,
    stats: bool,
    report: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrix: String::new(),
        gen: None,
        rhs: None,
        out: None,
        ordering: Method::default(),
        nd_cutoff: None,
        analysis_threads: 0,
        ldlt: false,
        threads: 0,
        ranks: 0,
        sync: false,
        inject: parfact::mpsim::FaultPlan::new(),
        refine: 1,
        nrhs: 1,
        stats: false,
        report: None,
        metrics_out: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gen" => args.gen = Some(it.next().ok_or("--gen needs a spec")?),
            "--rhs" => args.rhs = Some(it.next().ok_or("--rhs needs a file")?),
            "--out" => args.out = Some(it.next().ok_or("--out needs a file")?),
            "--ordering" => {
                args.ordering = match it.next().ok_or("--ordering needs a value")?.as_str() {
                    "nd" => Method::default(),
                    "amd" | "mindeg" => Method::MinDegree,
                    "rcm" => Method::Rcm,
                    "natural" => Method::Natural,
                    other => return Err(format!("unknown ordering '{other}'")),
                }
            }
            "--nd-cutoff" => {
                let c: usize = it
                    .next()
                    .ok_or("--nd-cutoff needs a size")?
                    .parse()
                    .map_err(|_| "--nd-cutoff needs an integer")?;
                if c == 0 {
                    return Err("--nd-cutoff must be at least 1".into());
                }
                args.nd_cutoff = Some(c);
            }
            "--analysis-threads" => {
                args.analysis_threads = it
                    .next()
                    .ok_or("--analysis-threads needs a count")?
                    .parse()
                    .map_err(|_| "--analysis-threads needs an integer")?
            }
            "--ldlt" => args.ldlt = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|_| "--threads needs an integer")?
            }
            "--refine" => {
                args.refine = it
                    .next()
                    .ok_or("--refine needs a count")?
                    .parse()
                    .map_err(|_| "--refine needs an integer")?
            }
            "--ranks" => {
                args.ranks = it
                    .next()
                    .ok_or("--ranks needs a count")?
                    .parse()
                    .map_err(|_| "--ranks needs an integer")?;
                if args.ranks == 0 {
                    return Err("--ranks must be positive".into());
                }
            }
            "--sync" => args.sync = true,
            "--inject" => {
                let spec = it.next().ok_or("--inject needs a fault spec")?;
                args.inject = parfact::mpsim::FaultPlan::parse(&spec)?;
            }
            "--nrhs" => {
                args.nrhs = it
                    .next()
                    .ok_or("--nrhs needs a count")?
                    .parse()
                    .map_err(|_| "--nrhs needs an integer")?;
                if args.nrhs == 0 {
                    return Err("--nrhs must be at least 1".into());
                }
            }
            "--stats" => args.stats = true,
            "--report" => args.report = Some(it.next().ok_or("--report needs a file")?),
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a file")?)
            }
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a file")?),
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
    if !args.matrix.is_empty() && args.gen.is_some() {
        return Err("give either a matrix file or --gen, not both".into());
    }
    if args.ranks > 0 && args.threads > 1 {
        return Err("--ranks and --threads are mutually exclusive".into());
    }
    if !args.inject.is_empty() && args.ranks == 0 {
        return Err("--inject needs the distributed engine (--ranks)".into());
    }
    if args.sync && args.ranks == 0 {
        return Err("--sync needs the distributed engine (--ranks)".into());
    }
    if let Some(c) = args.nd_cutoff {
        match args.ordering {
            Method::NestedDissection(ref mut nd) => nd.cutoff = c,
            _ => return Err("--nd-cutoff only applies to --ordering nd".into()),
        }
    }
    Ok(args)
}

fn read_vector(path: &str, n: usize) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v: Result<Vec<f64>, _> = text.split_whitespace().map(|t| t.parse::<f64>()).collect();
    let v = v.map_err(|e| format!("parsing {path}: {e}"))?;
    if v.len() != n {
        return Err(format!("rhs has {} entries, matrix has {n} rows", v.len()));
    }
    Ok(v)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "usage" {
                eprintln!("error: {msg}\n");
            }
            eprintln!("usage: parfact-solve <matrix.mtx | --gen spec> [--rhs f] [--out f] [--ordering nd|amd|rcm|natural] [--nd-cutoff n] [--analysis-threads t] [--ldlt] [--threads t] [--ranks p] [--sync] [--inject spec] [--refine k] [--nrhs k] [--stats] [--report f] [--metrics-out f] [--trace-out f]");
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
    println!("matrix: n = {}, nnz(lower) = {}", a.nrows(), a.nnz());

    let b = match &args.rhs {
        Some(path) => match read_vector(path, a.nrows()) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let ones = vec![1.0; a.nrows()];
            let mut b = vec![0.0; a.nrows()];
            a.sym_spmv(&ones, &mut b);
            println!("rhs: b = A*ones (so the exact solution is all ones)");
            b
        }
    };

    let opts = FactorOpts::new()
        .ordering(args.ordering)
        .kind(if args.ldlt {
            FactorKind::Ldlt
        } else {
            FactorKind::Llt
        })
        .engine(if args.ranks > 0 {
            // A fault plan turns checkpointed recovery on: crashes restart
            // from the last consistent cut instead of failing the run.
            Engine::Dist(DistOpts {
                ranks: args.ranks,
                sync_schedule: args.sync,
                faults: args.inject.clone(),
                ..DistOpts::default()
            })
        } else if args.threads > 1 {
            Engine::Smp(SmpOpts {
                threads: args.threads,
            })
        } else {
            Engine::Sequential
        })
        .analysis_threads(args.analysis_threads)
        .trace(if args.trace_out.is_some() {
            parfact::TraceLevel::Timeline
        } else if args.report.is_some() || args.metrics_out.is_some() {
            parfact::TraceLevel::Counters
        } else {
            parfact::TraceLevel::Off
        });
    let chol = match SparseCholesky::factorize(&a, &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("factorization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = chol.report();
    let kernel = match r.kernel_gflops() {
        Some(kg) => format!(", kernel {kg:.2} GF/s"),
        None => String::new(),
    };
    println!(
        "factor: nnz(L) = {} ({:.2}x), {:.3} Gflop | ordering {:.0} ms, symbolic {:.0} ms, numeric {:.0} ms ({:.2} GF/s{kernel}, {} microkernel)",
        chol.factor_nnz(),
        chol.factor_nnz() as f64 / a.nnz() as f64,
        chol.factor_flops() / 1e9,
        r.ordering_s * 1e3,
        r.symbolic_s * 1e3,
        r.numeric_s * 1e3,
        r.factor_gflops(),
        parfact::dense::kernel_name()
    );
    if let Some(f) = &r.faults {
        println!(
            "faults: {} crash(es), {} restart(s), {} delayed / {} duplicated msg(s), {} timeout(s)",
            f.crashes, f.restarts, f.delayed_msgs, f.duplicated_msgs, f.timeouts
        );
    }
    if let Some(ar) = &r.analysis {
        let stages: Vec<String> = ar
            .stages()
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(name, s)| format!("{name} {:.1} ms", s * 1e3))
            .collect();
        println!("analysis: {} threads | {}", ar.threads, stages.join(", "));
    }

    // Build the right-hand-side block: column 0 is b, further columns are
    // rotations of it (distinct systems, same norm scale).
    let n = a.nrows();
    let mut block = Vec::with_capacity(n * args.nrhs);
    for j in 0..args.nrhs {
        block.extend((0..n).map(|i| b[(i + j) % n.max(1)]));
    }
    let engine = if args.threads > 1 {
        SolveEngine::Smp {
            threads: args.threads,
        }
    } else {
        SolveEngine::Auto
    };
    let solve_opts = SolveOpts::new()
        .refine(args.refine)
        .residual(true)
        .engine(engine);
    let out = match chol.solve_with(RhsBlock::new(&block, args.nrhs), &solve_opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let x = out.x[..n].to_vec();
    let rsolve = chol.report_with_solve();
    let solve_line = match &rsolve.solve {
        Some(s) => format!(
            " | {:.1} ms, {:.2} GF/s, {} thread{}",
            s.seconds * 1e3,
            s.gflops(),
            s.threads,
            if s.threads == 1 { "" } else { "s" }
        ),
        None => String::new(),
    };
    println!(
        "solve: nrhs = {}, residual inf-norm = {:.3e} (col 0: {:.3e}){solve_line}",
        args.nrhs,
        out.residual.unwrap_or(f64::NAN),
        ops::sym_residual_inf(&a, &x, &b)
    );

    if args.stats {
        let cond = analysis::cond1_estimate(&a, chol.factor(), 5);
        let (logdet, sign) = chol.factor().log_det();
        println!("stats: cond1 estimate = {cond:.3e}, log|det A| = {logdet:.6} (sign {sign:+.0})");
    }

    if let Some(path) = &args.trace_out {
        // The enriched report lays solve spans after the factor spans, so
        // the Chrome trace shows both phases on one axis.
        let tl = Timeline::from_spans(&rsolve.spans);
        let label = if args.ranks > 0 { "rank" } else { "worker" };
        let json = tl.to_chrome_trace(label).to_string_compact() + "\n";
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} spans across {} lanes written to {path} (open in https://ui.perfetto.dev)",
            rsolve.spans.len(),
            tl.lanes.len()
        );
        if let Some(p) = &rsolve.profile {
            let mut text = String::new();
            p.render(&mut text);
            print!("{text}");
        }
    }

    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, rsolve.to_json_pretty() + "\n") {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }

    if let Some(path) = &args.metrics_out {
        let text = rsolve.to_prometheus();
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "metrics: {} samples written to {path} (Prometheus text exposition)",
            text.lines().filter(|l| !l.starts_with('#')).count()
        );
    }

    if let Some(out) = &args.out {
        let text: String = x.iter().map(|v| format!("{v:.17e}\n")).collect();
        if let Err(e) = std::fs::write(out, text) {
            eprintln!("error writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("solution written to {out}");
    }
    ExitCode::SUCCESS
}
