//! `compare A.json B.json`: hold set B against set A by the benchmark's own
//! bounds. Lower is better for every end-to-end metric.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's value is worse than A's by more than the bound.
    Regression,
    /// The quartile spread of a side exceeds the bound, so the two values
    /// cannot be told apart at that resolution.
    Unresolved,
    /// An exact metric is not bit-for-bit equal.
    Differs,
}

/// One set's value of a metric for one workload: the median of the values
/// its runs of that workload reported, and their quartile spread as a share
/// of that median, which is the figure the acceptance rule limits. A set
/// with one run of the workload has the quartile spread of that run's
/// samples instead (`None` for a single sample).
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: Option<f64>,
}

/// `(value, within-run spread)` of one metric in one run's record; an
/// `exact` entry is the bare number.
fn reading(metric: &Json) -> Option<(f64, Option<f64>)> {
    if let Some(value) = metric.as_f64() {
        return Some((value, None));
    }
    let q = |k| metric.get(k).and_then(Json::as_f64);
    let within = q("q3")
        .zip(q("q1"))
        .zip(q("median"))
        .map(|((q3, q1), median)| (q3 - q1) / median);
    Some((q("value")?, within))
}

impl Side {
    fn of(readings: &[(f64, Option<f64>)]) -> Side {
        let values: Vec<f64> = readings.iter().map(|r| r.0).collect();
        let runs = Summary::of(&values);
        Side {
            value: runs.median,
            spread: match readings {
                [only] => only.1,
                _ => Some(runs.spread()),
            },
        }
    }
}

pub fn bounded(a: Side, b: Side, bound: f64) -> Verdict {
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    if spread > bound {
        Verdict::Unresolved
    } else if b.value > a.value * (1.0 + bound) {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Every value, of either set, must be the same bit for bit.
pub fn exact(values: &[f64]) -> Verdict {
    if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
        Verdict::Ok
    } else {
        Verdict::Differs
    }
}

enum Rule {
    Bound(f64),
    Exact,
    Info,
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc.get("runs").map_or(Vec::new(), |r| r.as_arr().to_vec()))
}

fn key(run: &Json) -> (String, f64) {
    (
        run.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        run.get("trace").and_then(Json::as_f64).unwrap_or(-1.0),
    )
}

/// Print one line per metric and workload. `Ok(true)` if every
/// (workload, trace) record and every metric is in both files, no operation
/// failed, nothing regressed, nothing exact differs and nothing is
/// unresolved. A set may hold several runs of a workload (other seeds).
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    compare_runs(&load(path_a)?, &load(path_b)?)
}

fn compare_runs(runs_a: &[Json], runs_b: &[Json]) -> Result<bool, String> {
    let mut keys: Vec<(String, f64)> = Vec::new();
    for r in runs_a.iter().chain(runs_b) {
        if !keys.contains(&key(r)) {
            keys.push(key(r));
        }
    }
    let mut clean = true;
    let mut unresolved = 0;
    for k in &keys {
        let (workload, trace) = k;
        let of_key = |runs: &[Json]| -> Vec<Json> {
            runs.iter().filter(|r| key(r) == *k).cloned().collect()
        };
        let (group_a, group_b) = (of_key(runs_a), of_key(runs_b));
        if group_a.is_empty() || group_b.is_empty() {
            println!("{workload} trace={trace}: MISSING from one of the files");
            clean = false;
            continue;
        }
        for r in group_a.iter().chain(&group_b) {
            if r.get("quick").and_then(Json::as_bool) != Some(false) {
                return Err(format!("{workload}: a --quick record is not comparable"));
            }
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{workload} trace={trace}: FAILED operations or a wrong answer");
                clean = false;
            }
        }
        // (section of the record, metric, unit, rule)
        let mut rows: Vec<(&str, &str, &str, Rule)> = Vec::new();
        if *trace == 0.0 {
            for m in &END_TO_END {
                rows.push(("metrics", m.name, m.unit, Rule::Bound(m.bound)));
            }
        } else {
            for m in &PER_LAYER {
                let rule = if m.exact { Rule::Exact } else { Rule::Info };
                rows.push(("metrics", m.name, m.unit, rule));
            }
        }
        // Virtual statistics of the end-to-end simulated runs.
        for (name, _) in group_a[0].get("exact").map_or(&[][..], Json::as_obj) {
            rows.push(("exact", name.as_str(), "", Rule::Exact));
        }
        for (section, name, unit, rule) in rows {
            // Every record of the group must have a number for the metric.
            let readings = |group: &[Json]| -> Option<Vec<(f64, Option<f64>)>> {
                let of = |r: &Json| reading(r.get(section)?.get(name)?);
                group.iter().map(of).collect()
            };
            let (Some(ra), Some(rb)) = (readings(&group_a), readings(&group_b)) else {
                println!("{workload:<12} {name:<32} MISSING from a record");
                clean = false;
                continue;
            };
            let (a, b) = (Side::of(&ra), Side::of(&rb));
            let (rule, verdict) = match rule {
                Rule::Bound(bound) => (
                    format!("<= +{:.0}%", bound * 100.0),
                    Some(bounded(a, b, bound)),
                ),
                Rule::Exact => {
                    let all: Vec<f64> = ra.iter().chain(&rb).map(|r| r.0).collect();
                    ("exact".to_string(), Some(exact(&all)))
                }
                Rule::Info => (String::new(), None),
            };
            let word = match verdict {
                None => "info",
                Some(Verdict::Ok) => "ok",
                Some(Verdict::Unresolved) => {
                    unresolved += 1;
                    "UNRESOLVED"
                }
                Some(Verdict::Regression) => "REGRESSION",
                Some(Verdict::Differs) => "DIFFERS",
            };
            clean &= matches!(verdict, None | Some(Verdict::Ok));
            let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
            println!(
                "{workload:<12} {name:<32} {:>16.9e} -> {:>16.9e} {unit:<8} {:>+8.2}%  spread {:>5.1}%  {rule:<10} {word}",
                a.value,
                b.value,
                (b.value / a.value - 1.0) * 100.0,
                spread * 100.0
            );
        }
    }
    println!(
        "compare: {} workload records, {unresolved} metrics unresolved, {}",
        keys.len(),
        if clean { "clean" } else { "NOT CLEAN" }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: Option<f64>) -> Side {
        Side { value, spread }
    }

    #[test]
    fn bound_applies_to_the_median_and_spread_wider_than_bound_is_unresolved() {
        let tight = Some(0.02);
        assert_eq!(
            bounded(side(1.0, tight), side(1.09, tight), 0.10),
            Verdict::Ok
        );
        assert_eq!(
            bounded(side(1.0, tight), side(0.5, tight), 0.10),
            Verdict::Ok
        );
        assert_eq!(
            bounded(side(1.0, tight), side(1.11, tight), 0.10),
            Verdict::Regression
        );
        // Either side's spread above the bound hides the answer.
        assert_eq!(
            bounded(side(1.0, Some(0.2)), side(1.5, tight), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            bounded(side(1.0, tight), side(1.0, Some(0.11)), 0.10),
            Verdict::Unresolved
        );
        // A single sample has no spread to object with.
        assert_eq!(
            bounded(side(100.0, None), side(104.0, None), 0.05),
            Verdict::Ok
        );
        assert_eq!(
            bounded(side(100.0, None), side(106.0, None), 0.05),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let x = 0.1015233617843187f64;
        assert_eq!(exact(&[x, x, x]), Verdict::Ok);
        assert_eq!(
            exact(&[x, x, f64::from_bits(x.to_bits() + 1)]),
            Verdict::Differs
        );
        assert_eq!(exact(&[0.0, -0.0]), Verdict::Differs);
    }

    #[test]
    fn a_side_is_the_median_of_its_runs_and_their_quartile_spread() {
        let m = r#"{"value": 1.9, "unit": "s", "median": 2.0, "q1": 1.9, "q3": 2.1}"#;
        let (value, within) = reading(&Json::parse(m).unwrap()).unwrap();
        assert_eq!(value, 1.9);
        // Over the median, as `Summary::spread` has it.
        assert!((within.unwrap() - 0.1).abs() < 1e-12);
        let single = Json::parse(r#"{"value": 5.0, "unit": "B"}"#).unwrap();
        assert_eq!(reading(&single), Some((5.0, None)));
        assert_eq!(reading(&Json::Num(3.0)), Some((3.0, None)));
        // A NaN is encoded as null.
        let nan = Json::parse(r#"{"value": null, "unit": "s"}"#).unwrap();
        assert!(reading(&nan).is_none());

        // One run: the spread inside it. Several: the spread between them,
        // whatever theirs inside were.
        let s = Side::of(&[(2.0, Some(0.3))]);
        assert_eq!((s.value, s.spread), (2.0, Some(0.3)));
        assert!(Side::of(&[(1.0, None)]).spread.is_none());
        let ten: Vec<_> = (1..=10).map(|i| (f64::from(i), Some(9.9))).collect();
        let s = Side::of(&ten);
        assert_eq!((s.value, s.spread), (5.5, Some(1.0)));
    }

    /// An end-to-end record in which every metric reads `value`.
    fn record(workload: &str, value: &str) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        let text = format!(
            r#"{{"workload": "{workload}", "trace": 0, "quick": false, "correct": true,
                "metrics": {{{}}}, "exact": {{"sim_msgs": 7}}}}"#,
            metrics.join(", ")
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn a_record_or_metric_on_one_side_only_is_not_clean() {
        let a = [record("cold3d", "1.0"), record("cold2d", "1.0")];
        assert_eq!(compare_runs(&a, &a), Ok(true));
        assert_eq!(compare_runs(&a, &a[..1]), Ok(false));
        assert_eq!(compare_runs(&a[..1], &a), Ok(false));
        let nan = [record("cold3d", "1.0"), record("cold2d", "null")];
        assert_eq!(compare_runs(&a, &nan), Ok(false));
        let slower = [record("cold3d", "1.3"), record("cold2d", "1.0")];
        assert_eq!(compare_runs(&a, &slower), Ok(false));
        assert_eq!(compare_runs(&slower, &a), Ok(true));
    }
}
