//! The traced run: the benchmark calls each layer's public functions on the
//! workload's matrix inside spans, and turns span self-times, the program's
//! own `FactorReport` counters and exact counts into per-layer metrics.
//!
//! A span that feeds a metric directly carries the metric's name.

use crate::e2e::{Recorder, Session};
use crate::host;
use crate::spans::{self_times_by_name, Span, Tracer};
use crate::stats::median;
use crate::workload::{Script, Tally, Workload, BATCH};
use parfact_core::mapping::{map_tree, MapStrategy};
use parfact_core::smp::SmpOpts;
use parfact_core::solver::{Engine, FactorOpts, SparseCholesky};
use parfact_core::{dist, scalability, seq, smp, smp_solve, FactorKind};
use parfact_dense::{blas, chol};
use parfact_mpsim::model::CostModel;
use parfact_mpsim::Machine;
use parfact_order::Method;
use parfact_sparse::{io, CscMatrix};
use parfact_symbolic::{AmalgOpts, Symbolic};
use parfact_trace::{Collector, TraceLevel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rank counts of the strong-scaling sweep, with the span each run gets.
const SWEEP: [(usize, &str); 3] = [
    (1, "dist.host_s.p1"),
    (8, "dist.host_s.p8"),
    (64, "dist.host_s.p64"),
];
/// Front-order buckets of the replay: `[lo, hi)` with the metric suffix.
const BUCKETS: [(usize, usize, &str); 4] = [
    (0, 32, "f_lt32"),
    (32, 128, "f_32_127"),
    (128, 512, "f_128_511"),
    (512, usize::MAX, "f_ge512"),
];
/// Messages of the simulator ping-pong.
const PINGPONG_MSGS: u64 = 100_000;
const PINGPONG_TAG: u64 = 1;
/// Above this share of the numeric phase outside the instrumented stages,
/// the record is flagged `unattributed`.
pub const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// Samples per metric name; the reported value is their median.
#[derive(Default)]
pub struct Layers {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub spans: Vec<Span>,
    pub tally: Tally,
}

impl Layers {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |s| median(s))
    }
}

/// `C ← A Bᵀ` at 512³: the dense kernel's rate on this host in this run.
fn gemm_peak_gflops(quick: bool) -> f64 {
    let n = if quick { 128 } else { 512 };
    let a: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64 * 0.1 - 0.6).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.2 - 0.6).collect();
    let mut c = vec![0.0f64; n * n];
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            blas::gemm_nt(
                n,
                n,
                n,
                1.0,
                black_box(&a),
                n,
                black_box(&b),
                n,
                0.0,
                &mut c,
                n,
            );
            black_box(&mut c);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * (n * n * n) as f64 / median(&times) / 1e9
}

/// Triad `a ← b + s·c`. The arrays should be four times the last-level
/// cache each; they are capped at 128 MiB because this class of host takes
/// about 27 µs to fault a page in, and three arrays of four times its 260 MB
/// shared L3 cost 21 s of a 20 s run. Three capped arrays still exceed that
/// cache together. Returns `(GB/s, array bytes)`; the bytes moved are
/// computed as three arrays per pass, and both sizes are reported.
fn stream_triad(quick: bool) -> (f64, usize) {
    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let bytes = if quick {
        16 << 20
    } else {
        (4 * llc).min(128 << 20)
    };
    let len = bytes / 8;
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut a = vec![0.0f64; len];
    let times: Vec<f64> = (0..3)
        .map(|pass| {
            let s = 2.0 + pass as f64;
            let t0 = Instant::now();
            for ((ai, bi), ci) in a.iter_mut().zip(black_box(&b)).zip(black_box(&c)) {
                *ai = bi + s * ci;
            }
            black_box(&mut a);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    (3.0 * (len * 8) as f64 / median(&times) / 1e9, len * 8)
}

/// Two simulated ranks bounce an 8-byte message; host messages per second.
fn pingpong_msgs_per_s(quick: bool) -> f64 {
    let round_trips = if quick { 1_000 } else { PINGPONG_MSGS / 2 };
    let machine = Machine::new(2, CostModel::bluegene_p());
    let t0 = Instant::now();
    machine.run(|rank| {
        for i in 0..round_trips {
            if rank.rank() == 0 {
                rank.send(1, PINGPONG_TAG, i);
                let _: u64 = rank.recv(1, PINGPONG_TAG);
            } else {
                let v: u64 = rank.recv(0, PINGPONG_TAG);
                rank.send(0, PINGPONG_TAG, v);
            }
        }
    });
    (2 * round_trips) as f64 / t0.elapsed().as_secs_f64()
}

/// Flops of the partial factorization of a front of width `w` with `r` rows
/// below, by the convention of `Symbolic::factor_flops`.
fn front_flops(w: usize, r: usize) -> f64 {
    (0..w).map(|k| ((w - k + r) * (w - k + r)) as f64).sum()
}

/// Replay the workload's exact front shapes through `partial_potrf` on
/// synthetic diagonally dominant fronts, in postorder, and charge each
/// front's kernel time to its size bucket. Only the kernel call is timed.
fn replay_fronts(sym: &Symbolic, out: &mut Layers) {
    let fmax = (0..sym.nsuper())
        .map(|s| sym.front_order(s))
        .max()
        .unwrap_or(0);
    let mut front = vec![0.0f64; fmax * fmax];
    let mut secs = [0.0f64; 4];
    let mut fronts = [0.0f64; 4];
    let mut flops = [0.0f64; 4];
    for s in 0..sym.nsuper() {
        let (f, w) = (sym.front_order(s), sym.sn_width(s));
        let off = 1.0 / f as f64;
        for j in 0..f {
            let col = &mut front[j * f..(j + 1) * f];
            col[j] = 2.0;
            for (i, v) in col.iter_mut().enumerate().skip(j + 1) {
                *v = (((i ^ j) & 7) as f64 * 0.125 - 0.5) * off;
            }
        }
        let t0 = Instant::now();
        let ok = chol::partial_potrf(f, w, black_box(&mut front[..f * f]), f);
        let dt = t0.elapsed().as_secs_f64();
        if ok.is_err() {
            out.tally
                .reject("partial_potrf rejected a diagonally dominant front");
        }
        let b = BUCKETS
            .iter()
            .position(|&(lo, hi, _)| (lo..hi).contains(&f))
            .expect("buckets cover all orders");
        secs[b] += dt;
        fronts[b] += 1.0;
        flops[b] += front_flops(w, f - w);
    }
    for (b, &(_, _, suffix)) in BUCKETS.iter().enumerate() {
        out.put(format!("dense.replay_s.{suffix}"), secs[b]);
        out.put(format!("dense.replay_fronts.{suffix}"), fronts[b]);
        out.put(format!("dense.replay_flops.{suffix}"), flops[b]);
    }
    out.put("dense.replay_s", secs.iter().sum());
}

/// One pass over every layer on matrix `a`.
fn pass(
    wl: &'static Workload,
    a: &CscMatrix,
    b1: &[f64],
    b16: &[f64],
    quick: bool,
    tr: &mut Tracer,
    out: &mut Layers,
) {
    let threads = host::threads();
    let off = Collector::disabled();

    // sparse: generation and the Matrix Market round trip.
    tr.span("sparse.gen_s", |_| black_box(wl.matrix(quick)));
    let (text, _) = tr.span("sparse.mm_write_s", |_| io::write_sym_lower(a));
    let (parsed, _) = tr.span("sparse.mm_parse_s", |_| io::parse_sym_lower(&text));
    if parsed.ok().as_ref() != Some(a) {
        out.tally
            .reject("Matrix Market round trip changed the matrix");
    }
    out.put("sparse.mm_bytes", text.len() as f64);
    drop(text);

    // order, sparse::perm, symbolic: the analysis the façade runs, by hand.
    tr.span("order.nd_s.t1", |_| {
        black_box(parfact_order::order_matrix_with(
            a,
            Method::default(),
            1,
            &off,
        ))
    });
    let (fill, _) = tr.span("order.nd_s.tN", |_| {
        parfact_order::order_matrix_with(a, Method::default(), threads, &off)
    });
    let (af, _) = tr.span("sparse.perm_apply_s", |_| fill.apply_sym_lower(a));
    tr.span("symbolic.analyze_s.t1", |_| {
        black_box(parfact_symbolic::analyze_with(
            &af,
            &AmalgOpts::default(),
            1,
            &off,
        ))
    });
    let ((sym, ap), _) = tr.span("symbolic.analyze_s.tN", |_| {
        parfact_symbolic::analyze_with(&af, &AmalgOpts::default(), threads, &off)
    });
    let perm = sym.post.compose(&fill);
    let sym = Arc::new(sym);
    let nnz_l = sym.factor_nnz() as f64;
    out.put("order.factor_nnz", nnz_l);
    out.put("order.factor_flops", sym.factor_flops());
    out.put("symbolic.nsuper", sym.nsuper() as f64);
    out.put(
        "symbolic.front_max",
        (0..sym.nsuper())
            .map(|s| sym.front_order(s))
            .max()
            .unwrap_or(0) as f64,
    );
    out.put("symbolic.mean_width", sym.n as f64 / sym.nsuper() as f64);

    // dense: the kernel alone on this workload's front shapes.
    tr.span("dense.replay", |_| replay_fronts(&sym, out));

    // core::seq and core::smp: the numeric engines, called directly, cold.
    let (factor, _) = tr.span("seq.factorize_s", |_| {
        out.tally
            .attempt(|| seq::factorize_seq(&ap, &sym, FactorKind::Llt, perm.clone()))
    });
    tr.span("smp.factorize_s.tN", |_| {
        out.tally.attempt(|| {
            smp::factorize_smp(
                &ap,
                &sym,
                FactorKind::Llt,
                perm.clone(),
                &SmpOpts::default(),
            )
        })
    });

    // The solve paths on that factor.
    if let Some(factor) = factor {
        tr.span("solve.seq_s.r1", |_| {
            out.tally.attempt(|| factor.try_solve_many(b1, 1))
        });
        tr.span("solve.seq_s.r16", |_| {
            out.tally.attempt(|| factor.try_solve_many(b16, BATCH))
        });
        tr.span("solve.smp_s.r1", |_| {
            out.tally
                .attempt(|| smp_solve::solve_smp_many(&factor, b1, 1, 0))
        });
        tr.span("solve.smp_s.r16", |_| {
            out.tally
                .attempt(|| smp_solve::solve_smp_many(&factor, b16, BATCH, 0))
        });
    }

    // core::solver with the program's own counters on, sequential engine:
    // the stage times the program itself reports.
    let counters = FactorOpts::new().trace(TraceLevel::Counters);
    let (chol, _) = tr.span("trace.counters_run", |_| {
        out.tally
            .attempt(|| SparseCholesky::factorize(a, &counters))
    });
    if let Some(mut chol) = chol {
        let r = chol.report();
        let c = &r.counters;
        out.put("trace.counters_numeric_s", r.numeric_s);
        out.put("frontal.extend_add_s", c.extend_add_s);
        out.put("frontal.panel_s", c.panel_s + c.gemm_s);
        out.put("frontal.bytes_assembled", c.bytes_assembled as f64);
        out.put(
            "seq.unattributed_frac",
            1.0 - (c.extend_add_s + c.panel_s + c.gemm_s) / r.numeric_s,
        );
        if let Some(an) = &r.analysis {
            out.put("order.coarsen_s", an.coarsen_s);
            out.put("order.bisect_s", an.bisect_s);
            out.put("order.refine_s", an.refine_s);
            out.put("order.mindeg_s", an.mindeg_s);
            out.put("symbolic.etree_s", an.etree_s);
            out.put("symbolic.colcount_s", an.colcount_s);
            out.put("symbolic.structure_s", an.structure_s);
        }
        tr.span("smp.refactor_s.tN", |_| {
            out.tally
                .attempt(|| chol.refactorize(a, Engine::Smp(SmpOpts::default())))
        });
    }
    let timeline = FactorOpts::new().trace(TraceLevel::Timeline);
    let (chol, _) = tr.span("trace.timeline_run", |_| {
        out.tally
            .attempt(|| SparseCholesky::factorize(a, &timeline))
    });
    if let Some(chol) = chol {
        out.put("trace.timeline_numeric_s", chol.report().numeric_s);
    }
    // The steady script factors in set-up, outside any span.
    if wl.script == Script::Steady {
        let opts = FactorOpts::new().engine(wl.engine());
        tr.span("facade.factorize", |_| {
            out.tally.attempt(|| SparseCholesky::factorize(a, &opts))
        });
    }

    // core::mapping, core::dist and mpsim: the strong-scaling sweep.
    let strategy = MapStrategy::default();
    tr.span("mapping.map_tree_s", |_| {
        black_box(map_tree(&sym, 64, strategy))
    });
    let mut makespan_p1 = f64::NAN;
    for (p, host_span) in SWEEP {
        let (run, _) = tr.span(host_span, |_| {
            out.tally.attempt(|| {
                dist::run_distributed_prepared(
                    p,
                    CostModel::bluegene_p(),
                    &ap,
                    &sym,
                    &perm,
                    strategy,
                    false,
                    None,
                )
            })
        });
        let Some(run) = run else { continue };
        let sum = |f: fn(&parfact_mpsim::RankStats) -> f64| run.stats.iter().map(f).sum::<f64>();
        let makespan = run.stats.iter().map(|s| s.clock_s).fold(0.0, f64::max);
        out.put(format!("dist.makespan_s.p{p}"), makespan);
        if p == 1 {
            makespan_p1 = makespan;
            continue;
        }
        let comm_s = sum(|s| s.comm_s);
        let comm_bytes = sum(|s| s.bytes_sent as f64);
        out.put(
            format!("dist.efficiency.p{p}"),
            makespan_p1 / (p as f64 * makespan),
        );
        out.put(format!("dist.comm_bytes.p{p}"), comm_bytes);
        out.put(format!("dist.msgs.p{p}"), sum(|s| s.msgs_sent as f64));
        out.put(
            format!("dist.comm_frac.p{p}"),
            comm_s / (p as f64 * makespan),
        );
        out.put(
            format!("dist.mem_peak_bytes.p{p}"),
            run.max_mem_peak() as f64,
        );
        if p == 64 {
            let hidden_s = sum(|s| s.comm_hidden_s);
            out.put("dist.hidden_frac.p64", hidden_s / (hidden_s + comm_s));
            let predicted = scalability::predict(&sym, &map_tree(&sym, p, strategy)).total_bytes();
            out.put("dist.volume_model_ratio.p64", comm_bytes / predicted);
        }
    }
}

/// The whole traced run on workload `wl`.
pub fn run(wl: &'static Workload, seed: u64, seconds: f64, quick: bool) -> Layers {
    let mut out = Layers::default();
    let mut tr = Tracer::new(true);
    let t_run = Instant::now();

    // Before anything else, so that the warm-up trial inside set-up is the
    // process's first call into the program.
    let mut first = Recorder::default();
    let session = Session::set_up(wl, seed, quick, &mut first);
    out.tally.absorb(first.tally);
    let Some(mut session) = session else {
        return out;
    };

    // What this host can do, measured in this run.
    let (gflops, _) = tr.span("dense.gemm_peak", |_| gemm_peak_gflops(quick));
    out.put("dense.gemm_nt_gflops", gflops);
    let ((gbs, array_bytes), _) = tr.span("host.stream_triad", |_| stream_triad(quick));
    out.put("host.stream_gbs", gbs);
    out.put("host.stream_array_bytes", array_bytes as f64);
    out.put("host.llc_bytes", host::llc_bytes().unwrap_or(0) as f64);
    let (msgs_per_s, _) = tr.span("mpsim.pingpong", |_| pingpong_msgs_per_s(quick));
    out.put("mpsim.pingpong_msgs_per_s", msgs_per_s);

    // Passes until the next one would overrun; the script's trials run in
    // each pass once under spans and once without, for the span overhead.
    let mut traced = Recorder::default();
    let mut untraced = Recorder::default();
    let mut off = Tracer::new(false);
    let mut passes = 0u64;
    loop {
        tr.trial = passes as usize;
        tr.span("pass", |tr| {
            session.trial(2 * passes + 1, tr, &mut traced);
            session.trial(2 * passes + 2, &mut off, &mut untraced);
            let (a, b1, b16) = session.inputs();
            pass(wl, a, b1, b16, quick, tr, &mut out);
        });
        passes += 1;
        let elapsed = t_run.elapsed().as_secs_f64();
        if elapsed + elapsed / passes as f64 > seconds {
            break;
        }
    }
    out.tally.absorb(traced.tally);
    out.tally.absorb(untraced.tally);

    // Span self-times: a span named after a metric is that metric's sample.
    let by_name = self_times_by_name(&tr.spans);
    let span_median = |name: &str| by_name.get(name).map_or(f64::NAN, |s| median(s));
    for (name, samples) in &by_name {
        if crate::metrics::PER_LAYER.iter().any(|m| m.name == *name) {
            out.samples.insert(name.to_string(), samples.clone());
        }
    }

    // Ratios and differences of the medians above.
    let seq_s = out.value("seq.factorize_s");
    let nnz_l = out.value("order.factor_nnz");
    out.put(
        "dense.replay_gflops",
        out.value("order.factor_flops") / out.value("dense.replay_s") / 1e9,
    );
    out.put("seq.kernel_gap", seq_s / out.value("dense.replay_s"));
    out.put("seq.alloc_gap_s", seq_s - span_median("facade.refactorize"));
    out.put("smp.speedup", seq_s / out.value("smp.factorize_s.tN"));
    for (r, cols) in [("r1", 1.0), ("r16", BATCH as f64)] {
        let t = out.value(&format!("solve.seq_s.{r}"));
        out.put(format!("solve.gflops.{r}"), 4.0 * nnz_l * cols / t / 1e9);
    }
    // Computed bytes: each sweep reads L once and there are two sweeps.
    out.put(
        "solve.bw_frac.r1",
        16.0 * nnz_l / out.value("solve.seq_s.r1") / (out.value("host.stream_gbs") * 1e9),
    );
    let engine_s = match wl.ranks {
        0 => seq_s,
        p => out.value(&format!("dist.host_s.p{p}")),
    };
    out.put(
        "facade.glue_s",
        span_median("facade.factorize")
            - out.value("order.nd_s.tN")
            - out.value("sparse.perm_apply_s")
            - out.value("symbolic.analyze_s.tN")
            - engine_s,
    );
    out.put(
        "facade.solve_overhead_frac",
        span_median("facade.solve.r1") / out.value("solve.seq_s.r1") - 1.0,
    );
    out.put("facade.first_call_s", session.warm_up_s);
    out.put("dist.p1_vs_seq", out.value("dist.host_s.p1") / seq_s);
    out.put(
        "mpsim.host_us_per_msg",
        (out.value("dist.host_s.p64") - out.value("dist.host_s.p1")) / out.value("dist.msgs.p64")
            * 1e6,
    );
    out.put(
        "trace.counters_overhead_frac",
        out.value("trace.counters_numeric_s") / seq_s - 1.0,
    );
    out.put(
        "trace.timeline_overhead_frac",
        out.value("trace.timeline_numeric_s") / seq_s - 1.0,
    );
    out.put(
        "bench.span_overhead_frac",
        traced.median_of("time_to_solution_s") / untraced.median_of("time_to_solution_s") - 1.0,
    );
    out.spans = tr.spans;
    out
}
