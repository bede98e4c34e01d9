//! Timeline-profiler integration tests: lane invariants on arbitrary
//! systems (proptest) and the structure of the exported Chrome trace.

use parfact::core::smp::SmpOpts;
use parfact::core::solver::{DistOpts, Engine, FactorOpts, SparseCholesky};
use parfact::sparse::gen;
use parfact::trace::json::{self, Json};
use parfact::trace::{LaneKind, Timeline};
use parfact::TraceLevel;
use proptest::prelude::*;

fn dist_opts(ranks: usize) -> FactorOpts {
    FactorOpts::new()
        .engine(Engine::Dist(DistOpts {
            ranks,
            ..DistOpts::default()
        }))
        .trace(TraceLevel::Timeline)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On arbitrary SPD systems and rank counts, the recorded spans form a
    /// valid timeline: every span has non-negative duration, lanes are
    /// start-sorted, and real (positive-duration) intervals on one lane
    /// never overlap — in *exact* virtual time, tolerance zero.
    #[test]
    fn dist_spans_form_valid_lanes(
        n in 12usize..=50,
        k in 1usize..=4,
        seed in any::<u64>(),
        ranks in 1usize..=6,
    ) {
        let a = gen::random_spd(n, k, seed);
        let chol = SparseCholesky::factorize(&a, &dist_opts(ranks)).unwrap();
        let r = chol.report();
        prop_assert!(!r.spans.is_empty());
        let tl = Timeline::from_spans(&r.spans);
        // The full stream (numeric virtual-time lanes + wall-clock analysis
        // lanes) tolerates float rounding; the numeric lanes alone must be
        // exact — tolerance zero.
        prop_assert!(tl.validate(1e-9).is_ok(), "{:?}", tl.validate(1e-9));
        let numeric: Vec<_> = r
            .spans
            .iter()
            .filter(|s| !s.phase.is_analysis())
            .cloned()
            .collect();
        let ntl = Timeline::from_spans(&numeric);
        prop_assert!(ntl.validate(0.0).is_ok(), "{:?}", ntl.validate(0.0));
        // Every rank that did attributed work appears, and no numeric span
        // starts before virtual time zero or after the profiled makespan.
        // Analysis lanes run on their own wall-clock origin and belong to
        // analysis workers, not ranks, so only non-negativity applies.
        let p = r.profile.as_ref().unwrap();
        for lane in &tl.lanes {
            if lane.kind == LaneKind::Analysis {
                for s in &lane.spans {
                    prop_assert!(s.start_s >= 0.0);
                }
                continue;
            }
            prop_assert!(lane.who < ranks);
            for s in &lane.spans {
                prop_assert!(s.start_s >= 0.0);
                prop_assert!(s.start_s + s.dur_s <= p.makespan_s + 1e-12);
            }
        }
        prop_assert!(p.critical_path_s <= p.makespan_s + 1e-12);
    }
}

/// Golden structural test of the Chrome Trace Event export: parse the JSON
/// back and check the contract that Perfetto / `chrome://tracing` rely on.
#[test]
fn chrome_trace_export_structure() {
    let a = gen::laplace3d(6, 6, 5, gen::Stencil3d::SevenPoint);
    let ranks = 4;
    // Pin the analysis pool to 2 workers so analysis-lane pids stay inside
    // the rank range regardless of the host's core count.
    let chol = SparseCholesky::factorize(&a, &dist_opts(ranks).analysis_threads(2)).unwrap();
    let tl = Timeline::from_spans(&chol.report().spans);
    let text = tl.to_chrome_trace("rank").to_string_compact();

    let j = json::parse(&text).expect("export is valid JSON");
    assert!(j.get("displayTimeUnit").is_some());
    let events = j
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut lanes_named: Vec<(u64, u64)> = Vec::new(); // (pid, tid)
    let mut process_named = vec![false; ranks];
    let mut x_events = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        let pid = ev.get("pid").and_then(|p| p.as_f64()).expect("pid") as usize;
        assert!(pid < ranks, "pid {pid} out of range");
        match ph {
            "M" => {
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap();
                let arg = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .expect("metadata name arg");
                match name {
                    "process_name" => {
                        assert_eq!(arg, format!("rank {pid}"));
                        process_named[pid] = true;
                    }
                    "thread_name" => {
                        let tid = ev.get("tid").and_then(|t| t.as_f64()).unwrap() as u64;
                        let expected = LaneKind::ALL.iter().find(|k| k.tid() == tid).unwrap();
                        assert_eq!(arg, expected.name());
                        lanes_named.push((pid as u64, tid));
                    }
                    other => panic!("unexpected metadata event '{other}'"),
                }
            }
            "X" => {
                // Complete events carry microsecond timestamps + duration.
                let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts");
                let dur = ev.get("dur").and_then(|d| d.as_f64()).expect("dur");
                assert!(ts >= 0.0 && dur > 0.0);
                assert!(ev.get("name").is_some() && ev.get("cat").is_some());
                x_events += 1;
            }
            "i" => {
                // Instant events (zero-duration markers) need a scope.
                assert_eq!(ev.get("s").and_then(|s| s.as_str()), Some("t"));
            }
            other => panic!("unexpected event phase '{other}'"),
        }
    }
    assert!(x_events > 0, "no complete events exported");
    assert!(process_named.iter().all(|&p| p), "every rank gets a name");
    // The acceptance bar: the 3 numeric lanes (compute/comm/wait) per
    // rank, plus an analysis lane on every pid that hosted an analysis
    // worker (pid 0 always does — the sequential prologue runs there).
    for pid in 0..ranks as u64 {
        let numeric = lanes_named
            .iter()
            .filter(|(p, t)| *p == pid && *t != LaneKind::Analysis.tid())
            .count();
        assert_eq!(numeric, 3, "rank {pid} must expose 3 numeric lanes");
    }
    assert!(
        lanes_named.contains(&(0, LaneKind::Analysis.tid())),
        "worker 0 must expose an analysis lane"
    );
}

/// The sync (strict postorder) schedule skews per-rank clocks far more
/// than the event-driven one; the profile invariant must hold regardless.
#[test]
fn sync_schedule_profile_stays_within_makespan() {
    let a = gen::laplace3d(6, 6, 6, gen::Stencil3d::SevenPoint);
    for ranks in [4, 8] {
        let chol = SparseCholesky::factorize(
            &a,
            &FactorOpts::new()
                .engine(Engine::Dist(DistOpts {
                    ranks,
                    sync_schedule: true,
                    ..DistOpts::default()
                }))
                .trace(TraceLevel::Timeline),
        )
        .unwrap();
        let p = chol.report().profile.as_ref().unwrap();
        assert!(
            p.critical_path_s + p.critical_path_wait_s <= p.makespan_s + 1e-12,
            "ranks {ranks}: path {} + wait {} vs makespan {}",
            p.critical_path_s,
            p.critical_path_wait_s,
            p.makespan_s
        );
        assert!(p.critical_path_s > 0.0);
    }
}

/// The same factorization traced and untraced produces bitwise-identical
/// factors through the façade — tracing is pure observation.
#[test]
fn timeline_trace_is_pure_observation() {
    let a = gen::laplace2d(18, 16, gen::Stencil2d::FivePoint);
    let plain = SparseCholesky::factorize(
        &a,
        &FactorOpts::new().engine(Engine::Dist(DistOpts::default())),
    )
    .unwrap();
    let traced = SparseCholesky::factorize(&a, &dist_opts(DistOpts::default().ranks)).unwrap();
    assert_eq!(traced.factor().max_abs_diff(plain.factor()), 0.0);
    assert!(plain.report().spans.is_empty());
    assert!(!traced.report().spans.is_empty());
}

/// Paths of the number leaves under `j` that read as negative zero.
fn negative_zeros(j: &Json, path: &str, out: &mut Vec<String>) {
    match j {
        Json::Num(text) => {
            if text
                .parse::<f64>()
                .is_ok_and(|v| v == 0.0 && v.is_sign_negative())
            {
                out.push(format!("{path} = {text}"));
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                negative_zeros(item, &format!("{path}[{i}]"), out);
            }
        }
        Json::Obj(fields) => {
            for (key, value) in fields {
                negative_zeros(value, &format!("{path}.{key}"), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

/// A rank with no comm or wait lane reports +0.0 seconds there, not
/// -0.0: the sequential and SMP engines record no such lanes at all, and
/// the JSON, the Prometheus export and the printed profile all show the
/// sign.
#[test]
fn timeline_reports_hold_no_negative_zero() {
    let a = gen::laplace2d(20, 20, gen::Stencil2d::FivePoint);
    for engine in [
        Engine::Sequential,
        Engine::Smp(SmpOpts { threads: 2 }),
        Engine::Dist(DistOpts {
            ranks: 4,
            ..DistOpts::default()
        }),
    ] {
        let opts = FactorOpts::new().engine(engine).trace(TraceLevel::Timeline);
        let chol = SparseCholesky::factorize(&a, &opts).unwrap();
        let r = chol.report();
        assert!(r.profile.is_some());
        let mut found = Vec::new();
        negative_zeros(&r.to_json(), "report", &mut found);
        assert!(found.is_empty(), "{}: {found:?}", r.engine);
    }
}
