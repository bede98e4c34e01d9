//! The contract of `FactorReport::to_prometheus`, checked against the
//! report's own JSON. Shared by the trace crate's golden test and by the
//! workspace's real-run test, which includes this file by path.

use parfact_trace::json::Json;
use parfact_trace::FactorReport;
use std::collections::{BTreeMap, BTreeSet};

/// Render `r` and assert that the exposition mirrors `r.to_json()`:
///
/// * every numeric JSON leaf outside `spans` is exactly one sample, named
///   by the flattening rule, whose value is the leaf's text;
/// * the only other samples are string info samples (`value` label, 1);
/// * names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// * each family has one `# TYPE` line, with all its samples right after it.
///
/// Returns the exposition text.
pub fn check_exposition(r: &FactorReport) -> String {
    let text = r.to_prometheus();
    let mut typed = BTreeSet::new();
    let mut family = "";
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            assert!(valid_name(name), "bad family name {name:?}");
            assert!(matches!(kind, "gauge" | "counter"), "bad kind {line:?}");
            assert!(typed.insert(name), "second TYPE line for {name}");
            family = name;
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        assert_eq!(name, family, "sample {line:?} outside its family");
        assert!(
            series == name || series.ends_with('}'),
            "bad labels {line:?}"
        );
        assert!(value.parse::<f64>().is_ok(), "bad value {line:?}");
        let dup = samples.insert(series.to_string(), value.to_string());
        assert!(dup.is_none(), "two samples {series}");
    }
    let mut leaves = Vec::new();
    numeric_leaves(&r.to_json(), "parfact", &[], &mut leaves);
    for (series, value) in leaves {
        assert_eq!(
            samples.remove(&series).as_deref(),
            Some(value.as_str()),
            "JSON leaf {series}"
        );
    }
    for (series, value) in &samples {
        assert!(
            series.contains("value=\"") && value == "1",
            "sample {series} {value} is not a JSON leaf"
        );
    }
    text
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `(series, value text)` of every numeric leaf under `j`, by the naming
/// rule: object keys join the name, array positions and element members
/// are the `i` and `field` labels, the comm matrix's triplets are the two
/// `parfact_comm_*_total` counters, and `spans` is left out.
fn numeric_leaves(j: &Json, name: &str, labels: &[String], out: &mut Vec<(String, String)>) {
    let with = |label: String| [labels, &[label]].concat();
    match j {
        Json::Obj(fields) if labels.is_empty() => {
            for (key, v) in fields {
                match key.as_str() {
                    "spans" => {}
                    "entries" if name.ends_with("_comm_matrix") => comm_leaves(j, v, out),
                    _ => numeric_leaves(v, &format!("{name}_{key}"), labels, out),
                }
            }
        }
        Json::Obj(fields) => {
            for (key, v) in fields {
                numeric_leaves(v, name, &with(format!("field=\"{key}\"")), out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                numeric_leaves(v, name, &with(format!("i=\"{i}\"")), out);
            }
        }
        Json::Num(text) if labels.is_empty() => out.push((name.to_string(), text.clone())),
        Json::Num(text) => out.push((format!("{name}{{{}}}", labels.join(",")), text.clone())),
        _ => {}
    }
}

fn comm_leaves(matrix: &Json, entries: &Json, out: &mut Vec<(String, String)>) {
    let classes = matrix.get("classes").unwrap().as_arr().unwrap();
    for e in entries.as_arr().unwrap() {
        let e = e.as_arr().unwrap();
        let num = |k: usize| match &e[k] {
            Json::Num(text) => text.clone(),
            other => panic!("comm entry member {other:?}"),
        };
        let class = classes[e[2].as_usize().unwrap()].as_str().unwrap();
        let labels = format!("src=\"{}\",dst=\"{}\",class=\"{class}\"", num(0), num(1));
        out.push((format!("parfact_comm_bytes_total{{{labels}}}"), num(3)));
        out.push((format!("parfact_comm_msgs_total{{{labels}}}"), num(4)));
    }
}
