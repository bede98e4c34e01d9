//! Prometheus text exposition of a [`FactorReport`], written straight from
//! the tree [`FactorReport::to_json`] builds: every value is the same
//! `Json::Num` text in both encodings, and a field added to a report table
//! shows up in both.
//!
//! The tree flattens by one rule:
//!
//! * A sample is named `parfact_` followed by the object keys on its path,
//!   joined by `_`: `parfact_numeric_s`, `parfact_counters_flops`,
//!   `parfact_scalability_volume_model_ratio`.
//! * An array is one family. Each element is labelled `i` (its position),
//!   and each member of an element object is one sample labelled `field`:
//!   `parfact_ranks{i="3",field="bytes_sent"}`. (Report arrays hold scalars
//!   or flat objects, so an element needs no more labels than these.)
//! * A string is an info sample, `parfact_engine{value="dist"} 1`; a bool
//!   is 1 or 0; a `null` is skipped.
//!
//! Two sections are special. `spans` is an event stream and is left out
//! (the Chrome trace carries it). The comm matrix's sparse
//! `[src, dst, class, bytes, msgs]` triplets become the counters
//! `parfact_comm_bytes_total{src,dst,class}` and
//! `parfact_comm_msgs_total{src,dst,class}`. Every other family is a gauge.
//! A family's samples are contiguous, under its one `# TYPE` line.

use crate::json::Json;
use crate::report::FactorReport;
use std::fmt::Write as _;

impl FactorReport {
    /// The report as Prometheus text exposition (format 0.0.4).
    pub fn to_prometheus(&self) -> String {
        let mut out = Exposition::default();
        out.walk("parfact", &mut Vec::new(), &self.to_json());
        out.text
    }
}

/// Labels of a sample, in render order.
type Labels = Vec<(&'static str, String)>;

#[derive(Default)]
struct Exposition {
    text: String,
    /// The family whose `# TYPE` line was written last.
    family: String,
}

impl Exposition {
    /// Write the samples under `j`, in tree order: `name` is the family
    /// name so far, `labels` what the enclosing arrays contributed.
    fn walk(&mut self, name: &str, labels: &mut Labels, j: &Json) {
        match j {
            Json::Obj(fields) if labels.is_empty() => {
                for (key, v) in fields {
                    match key.as_str() {
                        "spans" => {}
                        "entries" if name.ends_with("_comm_matrix") => self.comm_links(j, v),
                        _ => self.walk(&format!("{name}_{key}"), labels, v),
                    }
                }
            }
            Json::Obj(fields) => {
                let members = fields.iter().map(|(key, v)| (key.clone(), v));
                self.labelled(name, labels, "field", members);
            }
            Json::Arr(items) => {
                let items = items.iter().enumerate().map(|(i, v)| (i.to_string(), v));
                self.labelled(name, labels, "i", items);
            }
            Json::Num(text) => self.sample(name, "gauge", labels, text),
            Json::Bool(b) => self.sample(name, "gauge", labels, if *b { "1" } else { "0" }),
            Json::Str(s) => {
                labels.push(("value", s.clone()));
                self.sample(name, "gauge", labels, "1");
                labels.pop();
            }
            Json::Null => {}
        }
    }

    /// Walk each `(label value, child)` with the label `key` added.
    fn labelled<'a>(
        &mut self,
        name: &str,
        labels: &mut Labels,
        key: &'static str,
        children: impl Iterator<Item = (String, &'a Json)>,
    ) {
        for (value, child) in children {
            labels.push((key, value));
            self.walk(name, labels, child);
            labels.pop();
        }
    }

    /// The nonzero links of the comm matrix `m`, one counter family for
    /// the bytes and one for the messages.
    fn comm_links(&mut self, m: &Json, entries: &Json) {
        let classes = m.get("classes").and_then(Json::as_arr).unwrap_or_default();
        let links: Vec<_> = entries
            .as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(|e| {
                let [Json::Num(src), Json::Num(dst), class, Json::Num(bytes), Json::Num(msgs)] =
                    e.as_arr()?
                else {
                    return None;
                };
                let class = class.as_usize().and_then(|c| classes.get(c)?.as_str());
                let labels = vec![
                    ("src", src.clone()),
                    ("dst", dst.clone()),
                    ("class", class.unwrap_or_default().to_string()),
                ];
                Some((labels, [bytes, msgs]))
            })
            .collect();
        for (col, name) in ["parfact_comm_bytes_total", "parfact_comm_msgs_total"]
            .into_iter()
            .enumerate()
        {
            for (labels, values) in &links {
                self.sample(name, "counter", labels, values[col]);
            }
        }
    }

    /// One `name{labels} value` line, after the family's `# TYPE` line
    /// when it is the family's first sample.
    fn sample(&mut self, name: &str, kind: &str, labels: &Labels, value: &str) {
        if self.family != name {
            self.family = name.to_string();
            let _ = writeln!(self.text, "# TYPE {name} {kind}");
        }
        self.text.push_str(name);
        for (n, (key, v)) in labels.iter().enumerate() {
            self.text.push(if n == 0 { '{' } else { ',' });
            let _ = write!(self.text, "{key}=\"{}\"", escape(v));
        }
        if !labels.is_empty() {
            self.text.push('}');
        }
        let _ = writeln!(self.text, " {value}");
    }
}

/// Escape a label value: `\`, `"` and newline.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}
