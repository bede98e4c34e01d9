//! Byte-exact goldens of the two report encodings: the compact JSON of a
//! [`FactorReport`] with every section present and every field set to a
//! distinct non-zero value, and the Prometheus exposition
//! [`FactorReport::to_prometheus`] flattens from that JSON. A PR that means
//! to change an encoding re-captures them and says so: run with
//! `PARFACT_PRINT_GOLDEN=1 cargo test -p parfact-trace --test golden --
//! --nocapture` and replace `tests/golden/report.{json,prom}` with what it
//! prints.

mod exposition;

use parfact_trace::{
    AnalysisReport, BlockingEdge, CommMatrixReport, Counters, FactorReport, FaultReport, Phase,
    ProfileReport, RankActivity, RankReport, RankScalability, ScalabilityReport, SolveReport,
    SpanEvent,
};

fn full_report() -> FactorReport {
    let rank = |i: usize| {
        let (u, f) = (i as u64, i as f64);
        RankReport {
            rank: i,
            clock_s: 1.5 + f,
            compute_s: 1.25 + f,
            comm_s: 0.125 + f,
            comm_hidden_s: 0.0625 + f,
            queue_peak: 3 + u,
            flops: 1.6e8 + f,
            bytes_sent: 500_000 + u,
            msgs_sent: 10 + u,
            bytes_recv: 650_000 + u,
            msgs_recv: 20 + u,
            mem_peak_bytes: 6_000_000 + u,
        }
    };
    let scal = |i: usize| {
        let (u, f) = (i as u64, i as f64);
        RankScalability {
            rank: i,
            measured_bytes: 700 + u,
            predicted_bytes: 800.5 + f,
            measured_mem_peak: 9_000 + u,
            predicted_mem_peak: 9_500.25 + f,
        }
    };
    FactorReport {
        // Every character a label value escapes: quote, backslash, newline.
        engine: "dist \"golden\" C:\\new\nline".to_string(),
        n: 10_000,
        nnz_a: 49_600,
        factor_nnz: 312_345,
        nsuper: 1_234,
        predicted_flops: 3.21e8,
        refactorizations: 2,
        ordering_s: 0.012,
        symbolic_s: 0.003,
        numeric_s: 0.207,
        counters: Counters {
            fronts_factored: 1_233,
            flops: 3.3e8,
            bytes_assembled: 9_876_543,
            bytes_sent: 1 << 54, // beyond 2^53: exact u64 text
            msgs_sent: 4_321,
            extend_add_s: 0.04,
            panel_s: 0.15,
            gemm_s: 0.01,
            coarsen_s: 0.0041,
            bisect_s: 0.0032,
            refine_s: 0.0023,
            mindeg_s: 0.0014,
            etree_s: 0.0005,
            colcount_s: 0.0006,
            structure_s: 0.0007,
            mem_peak_bytes: 12_582_912,
        },
        ranks: (0..3).map(rank).collect(),
        spans: vec![
            SpanEvent {
                phase: Phase::ExtendAdd,
                supernode: Some(7),
                who: 1,
                start_s: 0.001,
                dur_s: 0.0005,
            },
            SpanEvent {
                phase: Phase::Wait,
                supernode: None,
                who: 2,
                start_s: 0.002,
                dur_s: 0.01,
            },
        ],
        profile: Some(ProfileReport {
            critical_path_s: 1.75,
            critical_path_wait_s: 0.25,
            critical_path_len: 17,
            makespan_s: 3.5,
            ranks: vec![RankActivity {
                who: 2,
                busy_s: 1.2,
                comm_s: 0.2,
                wait_s: 0.1,
                idle_frac: 0.0667,
            }],
            blocking_edges: vec![
                BlockingEdge {
                    blocker: Some(3),
                    waiter: 9,
                    wait_s: 0.21,
                },
                BlockingEdge {
                    blocker: None,
                    waiter: 11,
                    wait_s: 0.19,
                },
            ],
            congested_rank: Some(1),
        }),
        solve: Some(SolveReport {
            solves: 3,
            rhs: 40,
            threads: 6,
            seconds: 0.004,
            flops: 5.0e7,
        }),
        analysis: Some(AnalysisReport {
            threads: 4,
            coarsen_s: 0.0042,
            bisect_s: 0.0033,
            refine_s: 0.0024,
            mindeg_s: 0.0015,
            etree_s: 0.00051,
            colcount_s: 0.00061,
            structure_s: 0.00071,
        }),
        faults: Some(FaultReport {
            crashes: 1,
            timeouts: 2,
            delayed_msgs: 30,
            duplicated_msgs: 4,
            restarts: 5,
            total_makespan_s: 0.375,
        }),
        scalability: Some(ScalabilityReport {
            nranks: 3,
            ranks: (0..3).map(scal).collect(),
            comm: Some(CommMatrixReport {
                nranks: 3,
                class_names: vec!["extadd".into(), "panel".into()],
                // (src * 3 + dst) * 2 + class; the diagonal stays empty.
                bytes: vec![
                    0, 0, 400, 101, 0, 102, 600, 103, 0, 0, 300, 0, 104, 105, 200, 106, 0, 0,
                ],
                msgs: vec![0, 0, 4, 1, 0, 2, 5, 3, 0, 0, 6, 0, 7, 8, 9, 10, 0, 0],
            }),
        }),
    }
}

/// Compare against the committed golden, or print the fresh text when
/// re-capturing.
fn check(name: &str, got: &str, want: &str) {
    if std::env::var_os("PARFACT_PRINT_GOLDEN").is_some() {
        println!("---- {name} ----\n{got}\n---- end {name} ----");
        return;
    }
    assert_eq!(got, want.trim_end_matches('\n'), "{name} moved");
}

#[test]
fn report_json_is_pinned_and_round_trips() {
    let r = full_report();
    let text = r.to_json_string();
    check("report.json", &text, include_str!("golden/report.json"));
    assert_eq!(FactorReport::from_json_str(&text).unwrap(), r);
}

#[test]
fn metrics_exposition_is_pinned_and_mirrors_report_json() {
    let text = exposition::check_exposition(&full_report());
    check(
        "report.prom",
        text.trim_end_matches('\n'),
        include_str!("golden/report.prom"),
    );
    // The engine name's quote, backslash and newline come out escaped.
    assert!(text.contains(r#"parfact_engine{value="dist \"golden\" C:\\new\nline"} 1"#));
}
