//! The experiment harness: regenerates every table and figure of the
//! (reconstructed) evaluation. See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for recorded results.
//!
//! ```text
//! experiments <id>        # t1 t2 f1..f6 a1..a7 r1
//! experiments all         # everything, in order
//! experiments all --quick # smaller sizes / fewer points (CI smoke run)
//! ```
//!
//! Simulated quantities (distributed runs) come from the α-β-γ machine
//! model and are host-independent; wall-clock quantities (SMP/sequential
//! runs) depend on this machine.

use parfact_bench::{fmt_bytes, fmt_time, scaling_matrices, suite, Problem, Table};
use parfact_core::baseline::fanout;
use parfact_core::dist::{prepare, run_distributed_prepared, DistRun};
use parfact_core::factor::{Factor, FactorKind};
use parfact_core::mapping::MapStrategy;
use parfact_core::smp::{resolve_threads, SmpOpts};
use parfact_core::solver::{Engine, FactorOpts, SparseCholesky};
use parfact_mpsim::model::CostModel;
use parfact_mpsim::Machine;
use parfact_order::Method;
use parfact_sparse::csc::CscMatrix;
use parfact_sparse::gen;
use parfact_symbolic::AmalgOpts;
use std::time::Instant;

fn nb_default() -> usize {
    parfact_dense::chol::NB
}

/// One (matrix, ranks) scaling measurement shared by EXP-F1..F4.
struct ScalPoint {
    matrix: &'static str,
    ranks: usize,
    factor_s: f64,
    solve_s: f64,
    gflops: f64,
    msgs: u64,
    bytes: u64,
    factor_bytes_per_rank: usize,
    peak_bytes_per_rank: u64,
    factor_total_bytes: u64,
    /// Transfer seconds hidden under compute by nonblocking sends (summed
    /// over ranks) vs. comm seconds still exposed on rank clocks.
    hidden_s: f64,
    exposed_s: f64,
    /// Largest mailbox backlog any rank saw (messages).
    queue_peak: u64,
    /// Critical path through the assembly tree (timeline profile).
    crit_s: f64,
    /// Worst per-rank idle fraction.
    idle_max: f64,
}

struct Ctx {
    quick: bool,
    sweep: std::cell::RefCell<Option<std::rc::Rc<Vec<ScalPoint>>>>,
}

impl Ctx {
    fn ranks(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 4, 16]
        } else {
            vec![1, 2, 4, 8, 16, 32, 64, 128]
        }
    }

    /// The shared strong-scaling sweep behind EXP-F1..F4: each
    /// (matrix, ranks) point is factored once and solved once over that
    /// factor, each a machine run of its own, and reused.
    fn sweep(&self) -> std::rc::Rc<Vec<ScalPoint>> {
        if let Some(rc) = self.sweep.borrow().as_ref() {
            return rc.clone();
        }
        let mut points = Vec::new();
        for p in self.scaling_problems() {
            let (sym, ap, perm) = prepare(&p.a, Method::default(), &AmalgOpts::default());
            let total = (sym.factor_nnz() * 8) as u64;
            let b = vec![1.0; p.a.nrows()];
            for &r in &self.ranks() {
                // Traced runs: event recording never touches the virtual
                // clocks, so timings are identical to untraced runs.
                let run = DistRun {
                    timeline: true,
                    comm: true,
                    ..DistRun::new(r, CostModel::bluegene_p(), &ap)
                };
                let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
                let out = run.run(&mut factor).expect("SPD").outcome;
                let solve = run.solve(&factor, &out.map, &b, 1).expect("solve");
                // Every column but `solve_s` and `queue_peak` (the mailbox
                // backlog over both runs) describes the factorization.
                let profile = parfact_trace::profile::analyze(
                    &sym.tree.parent,
                    &out.merged_events(),
                    &out.rank_reports(),
                );
                points.push(ScalPoint {
                    matrix: p.name,
                    ranks: r,
                    factor_s: out.factor_time_s,
                    solve_s: solve.time_s,
                    gflops: out.factor_gflops(),
                    msgs: out.stats.iter().map(|s| s.msgs_sent).sum(),
                    bytes: out.stats.iter().map(|s| s.bytes_sent).sum(),
                    factor_bytes_per_rank: out.max_factor_bytes,
                    peak_bytes_per_rank: out.max_mem_peak(),
                    factor_total_bytes: total,
                    hidden_s: out.stats.iter().map(|s| s.comm_hidden_s).sum(),
                    exposed_s: out.stats.iter().map(|s| s.comm_s).sum(),
                    queue_peak: (out.stats.iter().chain(&solve.stats))
                        .map(|s| s.queue_peak)
                        .max()
                        .unwrap_or(0),
                    crit_s: profile.critical_path_s,
                    idle_max: profile.max_idle_frac(),
                });
            }
        }
        let rc = std::rc::Rc::new(points);
        *self.sweep.borrow_mut() = Some(rc.clone());
        rc
    }

    fn scaling_problems(&self) -> Vec<Problem> {
        if self.quick {
            vec![Problem {
                name: "lap3d-16",
                a: gen::laplace3d(16, 16, 16, gen::Stencil3d::SevenPoint),
                desc: "3-D Poisson 16^3 (quick)",
            }]
        } else {
            scaling_matrices()
        }
    }

    fn suite(&self) -> Vec<Problem> {
        if self.quick {
            vec![
                Problem {
                    name: "lap2d-60",
                    a: gen::laplace2d(60, 60, gen::Stencil2d::FivePoint),
                    desc: "2-D Poisson 60x60 (quick)",
                },
                Problem {
                    name: "lap3d-16",
                    a: gen::laplace3d(16, 16, 16, gen::Stencil3d::SevenPoint),
                    desc: "3-D Poisson 16^3 (quick)",
                },
                Problem {
                    name: "elas-6",
                    a: gen::elasticity3d(6, 6, 6),
                    desc: "3-D elasticity 6^3 (quick)",
                },
            ]
        } else {
            suite()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let ctx = Ctx {
        quick,
        sweep: std::cell::RefCell::new(None),
    };
    let all = [
        "t1", "t2", "f1", "f2", "f3", "f4", "f5", "f6", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
        "r1",
    ];
    let run: Vec<&str> = match ids.as_slice() {
        [] | ["all"] => all.to_vec(),
        ids => ids.to_vec(),
    };
    // Every Gflop/s figure below was produced by this register tile.
    println!(
        "host: {} threads, {} dense microkernel\n",
        resolve_threads(0),
        parfact_dense::kernel_name()
    );
    for id in run {
        let t = Instant::now();
        match id {
            "t1" => exp_t1(&ctx),
            "t2" => exp_t2(&ctx),
            "f1" => exp_f1(&ctx),
            "f2" => exp_f2(&ctx),
            "f3" => exp_f3(&ctx),
            "f4" => exp_f4(&ctx),
            "f5" => exp_f5(&ctx),
            "f6" => exp_f6(&ctx),
            "a1" => exp_a1(&ctx),
            "a2" => exp_a2(&ctx),
            "a3" => exp_a3(&ctx),
            "a4" => exp_a4(&ctx),
            "a5" => exp_a5(&ctx),
            "a6" => exp_a6(&ctx),
            "a7" => exp_a7(&ctx),
            "r1" => exp_r1(&ctx),
            other => {
                eprintln!("unknown experiment id '{other}' (use t1,t2,f1..f6,a1..a7,r1,all)");
                std::process::exit(2);
            }
        }
        println!(
            "  [{id} finished in {}]\n",
            fmt_time(t.elapsed().as_secs_f64())
        );
    }
}

/// EXP-T1: the test-matrix suite with symbolic statistics.
fn exp_t1(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-T1: test-matrix suite (nested dissection ordering)",
        &[
            "matrix",
            "n",
            "nnz(A)",
            "nnz(L)",
            "fill",
            "Gflop",
            "supernodes",
            "description",
        ],
    );
    for p in ctx.suite() {
        let (sym, _, _) = prepare(&p.a, Method::default(), &AmalgOpts::default());
        t.row(vec![
            p.name.into(),
            p.a.nrows().to_string(),
            p.a.nnz().to_string(),
            sym.factor_nnz().to_string(),
            format!("{:.2}", sym.factor_nnz() as f64 / p.a.nnz() as f64),
            format!("{:.3}", sym.factor_flops() / 1e9),
            sym.nsuper().to_string(),
            p.desc.into(),
        ]);
    }
    t.emit("t1_suite");
}

/// EXP-T2: per-phase breakdown at several rank counts (simulated numeric /
/// solve, host wall-clock ordering + symbolic).
fn exp_t2(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-T2: phase breakdown (ordering/symbolic on host; factor/solve simulated, BG/P model)",
        &["matrix", "ranks", "ordering", "symbolic", "factor", "solve"],
    );
    let ranks = if ctx.quick {
        vec![1, 4]
    } else {
        vec![1, 16, 64]
    };
    for p in ctx.suite() {
        let t0 = Instant::now();
        let fill = parfact_order::order_matrix(&p.a, Method::default());
        let t_ord = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let af = fill.apply_sym_lower(&p.a);
        let (sym, ap) = parfact_symbolic::analyze(&af, &AmalgOpts::default());
        let t_sym = t1.elapsed().as_secs_f64();
        let perm = sym.post.compose(&fill);
        let sym = std::sync::Arc::new(sym);
        let b = vec![1.0; p.a.nrows()];
        for &r in &ranks {
            let out = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::default(),
                false,
                Some(&b),
            )
            .expect("SPD");
            t.row(vec![
                p.name.into(),
                r.to_string(),
                fmt_time(t_ord),
                fmt_time(t_sym),
                fmt_time(out.factor_time_s),
                fmt_time(out.solve.expect("solved").time_s),
            ]);
        }
    }
    t.emit("t2_phases");
}

/// EXP-F1: strong scaling of numeric factorization, multifrontal vs the
/// fan-out baseline.
fn exp_f1(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-F1: strong scaling of factorization time (simulated, BG/P model)",
        &[
            "matrix",
            "ranks",
            "multifrontal",
            "MF speedup",
            "crit path",
            "idle max",
            "comm hidden",
            "comm exposed",
            "fan-out",
            "FO speedup",
        ],
    );
    let fo_ranks: Vec<usize> = if ctx.quick {
        vec![1, 4, 16]
    } else {
        vec![1, 4, 16, 64]
    };
    // Fan-out baseline matrix: the simplicial kernel is slow in real time,
    // so run it on the 24^3 problem (same family) at a few rank counts.
    let fo_matrix: CscMatrix = {
        let dim = if ctx.quick { 16 } else { 24 };
        let a = gen::laplace3d(dim, dim, dim, gen::Stencil3d::SevenPoint);
        let fill = parfact_order::order_matrix(&a, Method::default());
        fill.apply_sym_lower(&a)
    };
    let fo_label = if ctx.quick { "16^3" } else { "24^3" };
    let mut fo_times: Vec<(usize, f64)> = Vec::new();
    for &r in &fo_ranks {
        let report = Machine::new(r, CostModel::bluegene_p()).run(|rank| {
            fanout::factorize_rank(rank, &fo_matrix).expect("fan-out");
        });
        fo_times.push((r, report.makespan_s));
    }
    let t1_fo = fo_times[0].1;
    let sweep = ctx.sweep();
    let mut t1_mf = std::collections::HashMap::new();
    for pt in sweep.iter() {
        if pt.ranks == 1 {
            t1_mf.insert(pt.matrix, pt.factor_s);
        }
    }
    for pt in sweep.iter() {
        let (fo_cell, fo_speed) = match fo_times.iter().find(|(r, _)| *r == pt.ranks) {
            Some((_, ft)) => (
                format!("{} ({fo_label})", fmt_time(*ft)),
                format!("{:.2}x", t1_fo / ft),
            ),
            None => ("-".into(), "-".into()),
        };
        t.row(vec![
            pt.matrix.into(),
            pt.ranks.to_string(),
            fmt_time(pt.factor_s),
            format!("{:.2}x", t1_mf[pt.matrix] / pt.factor_s),
            fmt_time(pt.crit_s),
            format!("{:.1}%", pt.idle_max * 100.0),
            fmt_time(pt.hidden_s),
            fmt_time(pt.exposed_s),
            fo_cell,
            fo_speed,
        ]);
    }
    t.emit("f1_strong_scaling");
}

/// EXP-F2: modelled Gflop/s of the multifrontal factorization vs ranks.
fn exp_f2(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-F2: modelled aggregate Gflop/s vs ranks (BG/P model; 3.4 Gflop/s peak per rank)",
        &["matrix", "ranks", "Gflop/s", "efficiency", "msgs", "bytes"],
    );
    for pt in ctx.sweep().iter() {
        t.row(vec![
            pt.matrix.into(),
            pt.ranks.to_string(),
            format!("{:.2}", pt.gflops),
            format!("{:.1}%", 100.0 * pt.gflops / (3.4 * pt.ranks as f64)),
            pt.msgs.to_string(),
            fmt_bytes(pt.bytes),
        ]);
    }
    t.emit("f2_gflops");
}

/// EXP-F3: per-rank memory vs ranks.
fn exp_f3(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-F3: max per-rank memory vs ranks (factor bytes at end; peak = fronts + factor)",
        &[
            "matrix",
            "ranks",
            "factor/rank",
            "peak/rank",
            "factor total",
        ],
    );
    for pt in ctx.sweep().iter() {
        t.row(vec![
            pt.matrix.into(),
            pt.ranks.to_string(),
            fmt_bytes(pt.factor_bytes_per_rank as u64),
            fmt_bytes(pt.peak_bytes_per_rank),
            fmt_bytes(pt.factor_total_bytes),
        ]);
    }
    t.emit("f3_memory");
}

/// EXP-F4: triangular-solve scaling.
fn exp_f4(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-F4: solve scaling (simulated) - solve scales worse than factorization",
        &[
            "matrix",
            "ranks",
            "factor",
            "solve",
            "factor speedup",
            "solve speedup",
            "queue peak",
        ],
    );
    let sweep = ctx.sweep();
    let mut t1: std::collections::HashMap<&str, (f64, f64)> = std::collections::HashMap::new();
    for pt in sweep.iter() {
        if pt.ranks == 1 {
            t1.insert(pt.matrix, (pt.factor_s, pt.solve_s));
        }
    }
    for pt in sweep.iter() {
        let (t1f, t1s) = t1[pt.matrix];
        t.row(vec![
            pt.matrix.into(),
            pt.ranks.to_string(),
            fmt_time(pt.factor_s),
            fmt_time(pt.solve_s),
            format!("{:.2}x", t1f / pt.factor_s),
            format!("{:.2}x", t1s / pt.solve_s),
            pt.queue_peak.to_string(),
        ]);
    }
    t.emit("f4_solve");
}

/// EXP-F5: real wall-clock SMP scaling on this host.
fn exp_f5(ctx: &Ctx) {
    let ncpu = resolve_threads(0);
    let mut t = Table::new(
        &format!("EXP-F5: SMP wall-clock factorization scaling (this host: {ncpu} core(s))"),
        &["matrix", "threads", "numeric wall", "speedup"],
    );
    let mut threads = vec![1usize];
    let mut k = 2;
    while k <= ncpu {
        threads.push(k);
        k *= 2;
    }
    if *threads.last().unwrap() != ncpu {
        threads.push(ncpu);
    }
    for p in ctx.scaling_problems() {
        let mut t1 = 0.0;
        for &th in &threads {
            let engine = if th == 1 {
                Engine::Sequential
            } else {
                Engine::Smp(SmpOpts { threads: th })
            };
            let opts = FactorOpts::new().engine(engine);
            let chol = SparseCholesky::factorize(&p.a, &opts).expect("SPD");
            let tn = chol.report().numeric_s;
            if th == 1 {
                t1 = tn;
            }
            t.row(vec![
                p.name.into(),
                th.to_string(),
                fmt_time(tn),
                format!("{:.2}x", t1 / tn),
            ]);
        }
    }
    t.emit("f5_smp");
    if ncpu == 1 {
        println!("  [note: single-core host — speedup column is necessarily ~1.0x;");
        println!("   the engines' correctness is still exercised (bitwise vs sequential)]");
    }
}

/// EXP-F6: weak scaling — 3-D grids sized so factorization work per rank
/// stays roughly constant (flops ~ m^6 for an m^3 grid, so m ~ m0 * p^(1/6)).
fn exp_f6(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-F6: weak scaling (3-D Poisson, ~constant flops per rank; simulated)",
        &["grid", "n", "ranks", "Gflop", "factor", "efficiency"],
    );
    let points: Vec<(usize, usize)> = if ctx.quick {
        vec![(12, 1), (15, 4)]
    } else {
        vec![(16, 1), (20, 4), (25, 16), (32, 64), (40, 256), (50, 1024)]
    };
    let mut t1 = 0.0;
    for (m, p) in points {
        let a = gen::laplace3d(m, m, m, gen::Stencil3d::SevenPoint);
        let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
        let out = run_distributed_prepared(
            p,
            CostModel::bluegene_p(),
            &ap,
            &sym,
            &perm,
            MapStrategy::default(),
            false,
            None,
        )
        .expect("SPD");
        if p == 1 {
            t1 = out.factor_time_s;
        }
        t.row(vec![
            format!("{m}^3"),
            a.nrows().to_string(),
            p.to_string(),
            format!("{:.3}", sym.factor_flops() / 1e9),
            fmt_time(out.factor_time_s),
            format!("{:.1}%", 100.0 * t1 / out.factor_time_s),
        ]);
    }
    t.emit("f6_weak_scaling");
}

/// EXP-A1: subtree-to-subcube vs flat mapping.
fn exp_a1(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-A1: mapping ablation — proportional (subtree-to-subcube) vs flat",
        &[
            "matrix",
            "ranks",
            "proportional",
            "flat",
            "flat/prop",
            "prop msgs",
            "flat msgs",
        ],
    );
    let ranks = if ctx.quick { vec![4, 16] } else { vec![16, 64] };
    for p in ctx.scaling_problems() {
        let (sym, ap, perm) = prepare(&p.a, Method::default(), &AmalgOpts::default());
        for &r in &ranks {
            let prop = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::default(),
                false,
                None,
            )
            .expect("SPD");
            let flat = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::Flat {
                    use_2d: true,
                    nb: nb_default(),
                },
                false,
                None,
            )
            .expect("SPD");
            t.row(vec![
                p.name.into(),
                r.to_string(),
                fmt_time(prop.factor_time_s),
                fmt_time(flat.factor_time_s),
                format!("{:.2}x", flat.factor_time_s / prop.factor_time_s),
                prop.stats
                    .iter()
                    .map(|s| s.msgs_sent)
                    .sum::<u64>()
                    .to_string(),
                flat.stats
                    .iter()
                    .map(|s| s.msgs_sent)
                    .sum::<u64>()
                    .to_string(),
            ]);
        }
    }
    t.emit("a1_mapping");
}

/// EXP-A2: 1-D vs 2-D front layouts.
fn exp_a2(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-A2: front layout ablation — 2-D grids vs 1-D column layout",
        &["matrix", "ranks", "2-D", "1-D", "1D/2D"],
    );
    let ranks = if ctx.quick {
        vec![4, 16]
    } else {
        vec![16, 64, 128]
    };
    for p in ctx.scaling_problems() {
        let (sym, ap, perm) = prepare(&p.a, Method::default(), &AmalgOpts::default());
        for &r in &ranks {
            let d2 = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::Proportional {
                    use_2d: true,
                    nb: nb_default(),
                },
                false,
                None,
            )
            .expect("SPD");
            let d1 = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::Proportional {
                    use_2d: false,
                    nb: nb_default(),
                },
                false,
                None,
            )
            .expect("SPD");
            t.row(vec![
                p.name.into(),
                r.to_string(),
                fmt_time(d2.factor_time_s),
                fmt_time(d1.factor_time_s),
                format!("{:.2}x", d1.factor_time_s / d2.factor_time_s),
            ]);
        }
    }
    t.emit("a2_layout");
}

/// EXP-A3: machine-model sensitivity.
fn exp_a3(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-A3: machine sensitivity at fixed ranks (latency/bandwidth sweeps + presets)",
        &["matrix", "machine", "factor", "Gflop/s", "efficiency"],
    );
    let r = if ctx.quick { 8 } else { 64 };
    let bg = CostModel::bluegene_p();
    let machines: Vec<(String, CostModel)> = vec![
        ("BG/P".into(), bg),
        (
            "BG/P, 10x latency".into(),
            CostModel {
                alpha_s: bg.alpha_s * 10.0,
                ..bg
            },
        ),
        (
            "BG/P, 0.1x latency".into(),
            CostModel {
                alpha_s: bg.alpha_s * 0.1,
                ..bg
            },
        ),
        (
            "BG/P, 10x bandwidth".into(),
            CostModel {
                beta_s_per_byte: bg.beta_s_per_byte / 10.0,
                ..bg
            },
        ),
        (
            "BG/P, 0.1x bandwidth".into(),
            CostModel {
                beta_s_per_byte: bg.beta_s_per_byte * 10.0,
                ..bg
            },
        ),
        ("modern cluster".into(), CostModel::modern_cluster()),
    ];
    for p in ctx.scaling_problems() {
        let (sym, ap, perm) = prepare(&p.a, Method::default(), &AmalgOpts::default());
        for (name, m) in &machines {
            let out = run_distributed_prepared(
                r,
                *m,
                &ap,
                &sym,
                &perm,
                MapStrategy::default(),
                false,
                None,
            )
            .expect("SPD");
            let gf = out.factor_gflops();
            let peak = r as f64 / m.flop_time_s / 1e9;
            t.row(vec![
                p.name.into(),
                format!("{name} (p={r})"),
                fmt_time(out.factor_time_s),
                format!("{gf:.2}"),
                format!("{:.1}%", 100.0 * gf / peak),
            ]);
        }
    }
    t.emit("a3_machines");
}

/// EXP-A4: ordering quality across the suite.
fn exp_a4(ctx: &Ctx) {
    use parfact_symbolic::{colcount, etree};
    // Light predictor: column counts only — no factor structures, so even
    // catastrophic orderings (natural order on 3-D problems) stay cheap.
    fn counts_only(a: &CscMatrix, method: Method) -> (usize, f64) {
        let fill = parfact_order::order_matrix(a, method);
        let af = fill.apply_sym_lower(a);
        let parent0 = etree::etree(&af);
        let post = parfact_sparse::perm::Perm::from_vec(etree::postorder(&parent0));
        let ap = post.apply_sym_lower(&af);
        let parent = etree::relabel(&parent0, &post);
        let cc = colcount::col_counts(&ap, &parent);
        let nnz: usize = cc.iter().sum();
        let flops: f64 = cc.iter().map(|&c| 2.0 * (c * c) as f64).sum();
        (nnz, flops)
    }
    let mut t = Table::new(
        "EXP-A4: ordering quality - fill, flops, and sequential factor wall time",
        &[
            "matrix",
            "ordering",
            "nnz(L)",
            "fill",
            "Gflop",
            "numeric wall",
        ],
    );
    for p in ctx.suite() {
        for (label, method) in [
            ("natural", Method::Natural),
            ("RCM", Method::Rcm),
            ("min degree", Method::MinDegree),
            ("nested dissection", Method::default()),
        ] {
            let (nnz_l, flops) = counts_only(&p.a, method);
            let wall = if flops < 20e9 {
                let chol = SparseCholesky::factorize(&p.a, &FactorOpts::new().ordering(method))
                    .expect("SPD");
                fmt_time(chol.report().numeric_s)
            } else {
                "(skipped: too much fill)".into()
            };
            t.row(vec![
                p.name.into(),
                label.into(),
                nnz_l.to_string(),
                format!("{:.2}", nnz_l as f64 / p.a.nnz() as f64),
                format!("{:.3}", flops / 1e9),
                wall,
            ]);
        }
    }
    t.emit("a4_orderings");
}

/// EXP-A5: supernode amalgamation sweep.
fn exp_a5(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-A5: relaxed-supernode amalgamation sweep (sequential numeric wall time)",
        &[
            "matrix",
            "min_width",
            "relax",
            "supernodes",
            "nnz(L)",
            "Gflop",
            "numeric wall",
        ],
    );
    let probs = ctx.scaling_problems();
    let p = &probs[0];
    for (mw, relax) in [
        (0usize, 0.0f64),
        (4, 0.05),
        (8, 0.10),
        (16, 0.20),
        (32, 0.40),
    ] {
        let amalg = AmalgOpts {
            min_width: mw,
            relax_frac: relax,
        };
        let chol = SparseCholesky::factorize(&p.a, &FactorOpts::new().amalg(amalg)).expect("SPD");
        let sym = chol.symbolic();
        t.row(vec![
            p.name.into(),
            mw.to_string(),
            format!("{relax:.2}"),
            sym.nsuper().to_string(),
            sym.factor_nnz().to_string(),
            format!("{:.3}", sym.factor_flops() / 1e9),
            fmt_time(chol.report().numeric_s),
        ]);
    }
    t.emit("a5_amalgamation");
}

/// EXP-R1: machine-readable factorization reports — one JSON document per
/// engine, emitted to stdout (and `target/experiments/` alongside the
/// tables) for downstream tooling.
fn exp_r1(ctx: &Ctx) {
    use parfact_core::solver::DistOpts;
    use parfact_trace::TraceLevel;
    println!("EXP-R1: factorization reports (JSON, counters traced)");
    let p = &ctx.suite()[0];
    let engines = [
        Engine::Sequential,
        Engine::Smp(SmpOpts::default()),
        Engine::Dist(DistOpts {
            ranks: if ctx.quick { 4 } else { 16 },
            ..DistOpts::default()
        }),
    ];
    let mut docs = Vec::new();
    for engine in engines {
        let chol = SparseCholesky::factorize(
            &p.a,
            &FactorOpts::new().engine(engine).trace(TraceLevel::Counters),
        )
        .expect("SPD");
        let r = chol.report();
        let kernel = match r.kernel_gflops() {
            Some(kg) => format!("{kg:.2}"),
            None => "-".to_string(),
        };
        println!(
            "  [{}: {:.2} GF/s end-to-end, {} GF/s in dense kernels]",
            r.engine,
            r.factor_gflops(),
            kernel
        );
        println!("{}", r.to_json_string());
        docs.push(r.to_json_pretty());
    }
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("r1_reports.json");
        let body = format!("[\n{}\n]\n", docs.join(",\n"));
        if std::fs::write(&path, body).is_ok() {
            println!("  [reports written to {}]", path.display());
        }
    }
}

/// EXP-A6: distributed-front block size (panel width) sweep.
fn exp_a6(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-A6: block-cyclic block size nb (= panel width) sweep, proportional 2-D mapping",
        &["matrix", "ranks", "nb", "factor", "msgs", "bytes"],
    );
    let r = if ctx.quick { 8 } else { 64 };
    for p in ctx.scaling_problems() {
        let (sym, ap, perm) = prepare(&p.a, Method::default(), &AmalgOpts::default());
        for nb in [16usize, 32, 48, 64, 96] {
            let out = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::Proportional { use_2d: true, nb },
                false,
                None,
            )
            .expect("SPD");
            t.row(vec![
                p.name.into(),
                r.to_string(),
                nb.to_string(),
                fmt_time(out.factor_time_s),
                out.stats
                    .iter()
                    .map(|s| s.msgs_sent)
                    .sum::<u64>()
                    .to_string(),
                fmt_bytes(out.stats.iter().map(|s| s.bytes_sent).sum::<u64>()),
            ]);
        }
    }
    t.emit("a6_blocksize");
}

/// EXP-A7: schedule ablation — event-driven (default) vs strict-postorder
/// synchronous schedule. Both produce bitwise-identical factors; the ratio
/// column isolates how much of the comm cost the overlap hides.
fn exp_a7(ctx: &Ctx) {
    let mut t = Table::new(
        "EXP-A7: schedule ablation — event-driven vs synchronous postorder (BG/P model)",
        &[
            "matrix",
            "ranks",
            "sync",
            "async",
            "async/sync",
            "hidden comm",
            "crit path",
            "idle max",
            "bitwise",
        ],
    );
    let ranks = if ctx.quick {
        vec![4, 16]
    } else {
        vec![8, 32, 64, 128]
    };
    for p in ctx.scaling_problems() {
        let (sym, ap, perm) = prepare(&p.a, Method::default(), &AmalgOpts::default());
        for &r in &ranks {
            let sync = run_distributed_prepared(
                r,
                CostModel::bluegene_p(),
                &ap,
                &sym,
                &perm,
                MapStrategy::default(),
                true,
                None,
            )
            .expect("SPD");
            let evd = DistRun {
                timeline: true,
                ..DistRun::new(r, CostModel::bluegene_p(), &ap)
            };
            let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
            let evd = evd.run(&mut factor).expect("SPD").outcome;
            let profile = parfact_trace::profile::analyze(
                &sym.tree.parent,
                &evd.merged_events(),
                &evd.rank_reports(),
            );
            let hidden: f64 = evd.stats.iter().map(|s| s.comm_hidden_s).sum();
            let identical = factor.max_abs_diff(&sync.factor) == 0.0;
            t.row(vec![
                p.name.into(),
                r.to_string(),
                fmt_time(sync.factor_time_s),
                fmt_time(evd.factor_time_s),
                format!("{:.3}x", evd.factor_time_s / sync.factor_time_s),
                fmt_time(hidden),
                fmt_time(profile.critical_path_s),
                format!("{:.1}%", profile.max_idle_frac() * 100.0),
                if identical { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.emit("a7_schedule");
}
