//! Scalability-analytics contracts: comm-matrix recording is provably
//! non-perturbing (traced ≡ untraced, bitwise), the matrix reconciles with
//! the per-rank send/receive counters for arbitrary message patterns, the
//! paper's predicted communication volume brackets the measured volume,
//! and the metrics export mirrors the report's JSON leaf for leaf.

#[path = "../crates/trace/tests/exposition/mod.rs"]
mod exposition;

use parfact::core::dist::{prepare, DistRun};
use parfact::core::mapping::{map_tree, MapStrategy};
use parfact::core::scalability::predict;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, SparseCholesky};
use parfact::core::{Factor, FactorKind};
use parfact::mpsim::model::CostModel;
use parfact::mpsim::{FaultPlan, Machine};
use parfact::order::Method;
use parfact::sparse::gen;
use parfact::symbolic::AmalgOpts;
use parfact::trace::CommMatrixReport;
use parfact::TraceLevel;
use proptest::prelude::*;

/// Acceptance criterion: turning the comm matrix on changes *nothing* —
/// not a factor bit, not a virtual clock tick, of the factorization or of
/// the solve run over it — at 2, 4, and 8 ranks.
#[test]
fn comm_matrix_recording_is_bitwise_non_perturbing() {
    let a = gen::laplace3d(6, 5, 4, gen::Stencil3d::SevenPoint);
    let b = vec![1.0; a.nrows()];
    let (sym, ap, perm) = prepare(&a, Method::default(), &AmalgOpts::default());
    for ranks in [2usize, 4, 8] {
        let run = |comm: bool| {
            let run = DistRun {
                comm,
                ..DistRun::new(ranks, CostModel::bluegene_p(), &ap)
            };
            let mut factor = Factor::allocate(&sym, FactorKind::Llt, perm.clone());
            let out = run.run(&mut factor).unwrap().outcome;
            let solve = run.solve(&factor, &out.map, &b, 1).unwrap();
            (factor, out, solve)
        };
        let (plain_factor, plain, plain_solve) = run(false);
        let (recorded_factor, recorded, recorded_solve) = run(true);
        assert!(plain.comm.is_none() && plain_solve.comm.is_none());
        assert_eq!(
            recorded_factor.max_abs_diff(&plain_factor),
            0.0,
            "ranks={ranks}: recording perturbed the factor"
        );
        assert_eq!(
            recorded.factor_time_s.to_bits(),
            plain.factor_time_s.to_bits(),
            "ranks={ranks}: recording perturbed the factor makespan"
        );
        assert_eq!(
            recorded_solve.time_s.to_bits(),
            plain_solve.time_s.to_bits(),
            "ranks={ranks}: recording perturbed the solve makespan"
        );
        let runs = [
            (&recorded.stats, &plain.stats, &recorded.comm),
            (
                &recorded_solve.stats,
                &plain_solve.stats,
                &recorded_solve.comm,
            ),
        ];
        for (recorded, plain, m) in runs {
            // Every deterministic stat agrees (`queue_peak` is a physical
            // high-water diagnostic and legitimately varies run to run).
            for (r, (a, b)) in recorded.iter().zip(plain).enumerate() {
                let det = |s: &parfact::mpsim::RankStats| {
                    (
                        s.clock_s.to_bits(),
                        s.compute_s.to_bits(),
                        s.comm_s.to_bits(),
                        s.comm_hidden_s.to_bits(),
                        s.flops.to_bits(),
                        (s.bytes_sent, s.msgs_sent, s.bytes_recv, s.msgs_recv),
                        s.mem_peak,
                    )
                };
                assert_eq!(det(a), det(b), "ranks={ranks}: rank {r} stats differ");
            }
            // The matrix agrees with the independent per-rank counters.
            let m = m.as_ref().expect("matrix recorded");
            assert_eq!(m.nranks, ranks);
            for (r, stats) in recorded.iter().enumerate() {
                assert_eq!(
                    link_sum(m, |src, _| src == r).0,
                    stats.bytes_sent,
                    "ranks={ranks}: row {r} sum != bytes_sent"
                );
                assert_eq!(
                    link_sum(m, |_, dst| dst == r).0,
                    stats.bytes_recv,
                    "ranks={ranks}: column {r} sum != bytes_recv"
                );
            }
            assert!(m.total_bytes() > 0, "ranks={ranks}: no traffic recorded");
            // No traffic on the diagonal: ranks never message themselves.
            for r in 0..ranks {
                for c in 0..m.nclasses() {
                    assert_eq!(m.at(r, r, c), (0, 0), "ranks={ranks}: self-send");
                }
            }
        }
    }
}

/// Acceptance criterion: the paper's model predicts the measured total
/// communication volume within 2x, through the public solver facade (the
/// report's `volume_model_ratio`), on a 3-D problem where the top of the
/// tree is genuinely distributed.
#[test]
fn measured_volume_is_within_2x_of_model() {
    let a = gen::laplace3d(12, 12, 12, gen::Stencil3d::SevenPoint);
    let opts = FactorOpts::new()
        .engine(Engine::Dist(DistOpts {
            ranks: 16,
            ..DistOpts::default()
        }))
        .trace(TraceLevel::Counters);
    let chol = SparseCholesky::factorize(&a, &opts).unwrap();
    let r = chol.report();
    let sc = r.scalability.as_ref().expect("dist traced run has model");
    let ratio = sc
        .volume_model_ratio()
        .expect("both measured and predicted volume present");
    assert!(
        (0.5..=2.0).contains(&ratio),
        "measured/predicted volume ratio {ratio} out of [0.5, 2]: measured {} predicted {}",
        sc.measured_total_bytes(),
        sc.predicted_total_bytes()
    );
    // The matrix rode along and its totals agree with the rank rows.
    let m = sc.comm.as_ref().expect("comm matrix recorded");
    let row_total: u64 = sc.ranks.iter().map(|r| r.measured_bytes).sum();
    assert_eq!(m.total_bytes(), row_total);
}

/// The standalone predictor and the report agree: same mapping, same
/// numbers (the solver does not re-derive the model differently).
#[test]
fn report_prediction_matches_standalone_predictor() {
    let a = gen::laplace2d(24, 24, gen::Stencil2d::FivePoint);
    let ranks = 8;
    let opts = FactorOpts::new()
        .engine(Engine::Dist(DistOpts {
            ranks,
            ..DistOpts::default()
        }))
        .trace(TraceLevel::Counters);
    let chol = SparseCholesky::factorize(&a, &opts).unwrap();
    let sc = chol.report().scalability.clone().expect("scalability");
    let map = map_tree(chol.symbolic(), ranks, MapStrategy::default());
    let pred = predict(chol.symbolic(), &map);
    assert_eq!(sc.ranks.len(), ranks);
    for (r, row) in sc.ranks.iter().enumerate() {
        assert_eq!(row.predicted_bytes, pred.bytes[r], "rank {r} bytes");
        assert_eq!(row.predicted_mem_peak, pred.mem[r], "rank {r} mem");
    }
}

/// `--metrics-out` payload: the Prometheus exposition of a real
/// distributed report exports every numeric leaf of the report's JSON once,
/// with the same text, and carries the scalability section — comm matrix
/// included, reconciled with the rank counters — with or without a fault
/// plan on the machine.
#[test]
fn metrics_exposition_from_real_run_mirrors_report_json() {
    let a = gen::laplace3d(7, 6, 5, gen::Stencil3d::SevenPoint);
    for faults in ["", "delay:0-1:10"] {
        let opts = FactorOpts::new()
            .engine(Engine::Dist(DistOpts {
                ranks: 4,
                faults: FaultPlan::parse(faults).unwrap(),
                ..DistOpts::default()
            }))
            .trace(TraceLevel::Counters);
        let chol = SparseCholesky::factorize(&a, &opts).unwrap();
        let sc = chol.report().scalability.as_ref().expect("scalability");
        let m = sc.comm.as_ref().expect("comm matrix recorded");
        for row in &sc.ranks {
            assert_eq!(
                link_sum(m, |src, _| src == row.rank).0,
                row.measured_bytes,
                "faults={faults:?}: row {} sum != bytes_sent",
                row.rank
            );
        }
        let text = exposition::check_exposition(chol.report());
        for needle in [
            "parfact_numeric_s ",
            "parfact_counters_mem_peak_bytes ",
            "parfact_scalability_volume_model_ratio ",
            "parfact_comm_bytes_total{",
            "parfact_ranks{i=\"0\",field=\"bytes_sent\"} ",
        ] {
            assert!(
                text.contains(needle),
                "faults={faults:?}: missing {needle} in exposition"
            );
        }
    }
}

/// One scripted message in a random exchange plan.
#[derive(Debug, Clone)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u64,
    words: usize,
}

/// Deterministic random exchange plan: `nmsgs` messages between distinct
/// ranks (self-sends excluded — with `p = 1` the plan is empty and the
/// matrix must be all zeros). Derived from a seed because the vendored
/// proptest shim has no collection strategies.
fn make_plan(p: usize, seed: u64, nmsgs: usize) -> Vec<Msg> {
    if p < 2 {
        return Vec::new();
    }
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..nmsgs)
        .map(|_| {
            let src = (next() % p as u64) as usize;
            // Offset by 1..p so dst != src always.
            let dst = (src + 1 + (next() % (p as u64 - 1)) as usize) % p;
            Msg {
                src,
                dst,
                tag: next() % 24,
                words: (next() % 64) as usize,
            }
        })
        .collect()
}

/// `(bytes, msgs)` summed over the links of `m` that `on_link(src, dst)`
/// selects: a row (`src == r`) or a column (`dst == r`).
fn link_sum(m: &CommMatrixReport, on_link: impl Fn(usize, usize) -> bool) -> (u64, u64) {
    let mut sum = (0, 0);
    for src in 0..m.nranks {
        for dst in (0..m.nranks).filter(|&dst| on_link(src, dst)) {
            for class in 0..m.nclasses() {
                let (b, k) = m.at(src, dst, class);
                sum = (sum.0 + b, sum.1 + k);
            }
        }
    }
    sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite invariant at 1–8 ranks: for *any* message pattern, the
    /// comm-matrix row sums equal each rank's `bytes_sent`/`msgs_sent` and
    /// the column sums equal `bytes_recv`/`msgs_recv` once the plan drains
    /// — the matrix and the scalar counters never disagree.
    #[test]
    fn comm_matrix_reconciles_with_rank_counters(
        p in 1usize..=8,
        seed in any::<u64>(),
        nmsgs in 0usize..40,
    ) {
        let plan = make_plan(p, seed, nmsgs);
        let classify = |t: u64| (t % 3) as usize;
        let report = Machine::new(p, CostModel::zero_cost())
            .comm_matrix(&["a", "b", "c"], classify)
            .run({
                let plan = plan.clone();
                move |rank| {
                    let me = rank.rank();
                    // Send everything first (sends never block), then drain
                    // in plan order; per-(src,tag) FIFO matching makes the
                    // consume order deterministic.
                    for m in plan.iter().filter(|m| m.src == me) {
                        rank.send(m.dst, m.tag, vec![0.5f64; m.words]);
                    }
                    for m in plan.iter().filter(|m| m.dst == me) {
                        let v: Vec<f64> = rank.recv(m.src, m.tag);
                        assert_eq!(v.len(), m.words);
                    }
                }
            });
        let m = report.comm.as_ref().expect("classifier installed");
        let mut total_bytes = 0u64;
        let mut total_msgs = 0u64;
        for r in 0..p {
            let s = &report.stats[r];
            prop_assert_eq!(link_sum(m, |src, _| src == r), (s.bytes_sent, s.msgs_sent), "row {}", r);
            prop_assert_eq!(link_sum(m, |_, dst| dst == r), (s.bytes_recv, s.msgs_recv), "col {}", r);
            total_bytes += report.stats[r].bytes_sent;
            total_msgs += report.stats[r].msgs_sent;
        }
        prop_assert_eq!(m.total_bytes(), total_bytes);
        prop_assert_eq!(m.msgs.iter().sum::<u64>(), total_msgs);
        // Class totals partition the grand total.
        let by_class: u64 = (0..3)
            .map(|c| m.bytes.iter().skip(c).step_by(m.nclasses()).sum::<u64>())
            .sum();
        prop_assert_eq!(by_class, total_bytes);
        // Expected byte count from the plan itself.
        let planned: u64 = plan.iter().map(|m| 8 * m.words as u64).sum();
        prop_assert_eq!(total_bytes, planned);
        prop_assert_eq!(total_msgs, plan.len() as u64);
    }
}
