//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-times derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass of the traced run the span belongs to.
    pub trial: usize,
}

/// Times closures and, when `on`, keeps a span for each. With `on` false
/// it is only a stopwatch, which is how the end-to-end run uses it.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<usize>,
    pub trial: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            trial: 0,
            spans: Vec::new(),
        }
    }

    /// Run `f` and return its value with the seconds it took.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start: 0.0,
                end: 0.0,
                parent: self.stack.last().copied(),
                trial: self.trial,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let t0 = Instant::now();
        let value = f(self);
        let t1 = Instant::now();
        if let Some(i) = slot {
            self.stack.pop();
            self.spans[i].start = (t0 - self.epoch).as_secs_f64();
            self.spans[i].end = (t1 - self.epoch).as_secs_f64();
        }
        (value, (t1 - t0).as_secs_f64())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start.max(spans[p].start), s.end.min(spans[p].end)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self-time samples grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t);
    }
    out
}

pub const TSV_HEADER: &str = "id\tparent\tworkload\ttrial\tname\tstart_s\tend_s\tself_s\n";

/// The span dump: one line per span, tab-separated, in [`TSV_HEADER`]'s
/// columns. `id` and `parent` number the spans of one run.
pub fn to_tsv(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{i}\t{parent}\t{workload}\t{}\t{}\t{:.9}\t{:.9}\t{own:.9}\n",
            s.trial, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            trial: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a` for one second: the union covers [1, 6].
            span("b", 3.0, 6.0, Some(0)),
            span("c", 8.0, 9.0, Some(0)),
            // A grandchild reduces `a`, not the root.
            span("a1", 1.5, 2.0, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![4.0, 2.5, 3.0, 1.0, 0.5]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["root"], vec![4.0]);
    }

    #[test]
    fn tracer_nests_spans_and_times_when_off() {
        let mut tr = Tracer::new(true);
        let (v, outer) = tr.span("outer", |tr| {
            let (x, inner) = tr.span("inner", |_| 21 * 2);
            assert!(inner >= 0.0);
            x
        });
        assert_eq!(v, 42);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].start <= tr.spans[1].start && tr.spans[1].end <= tr.spans[0].end);
        assert!(outer >= tr.spans[1].end - tr.spans[1].start);
        let tsv = to_tsv("w", &tr.spans);
        assert_eq!(tsv.lines().count(), 2);
        let inner = tsv.lines().nth(1).unwrap();
        assert!(inner.starts_with("1\t0\tw\t0\tinner\t"));
        assert_eq!(inner.split('\t').count(), TSV_HEADER.split('\t').count());

        let mut off = Tracer::new(false);
        let (_, secs) = off.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(off.spans.is_empty());
    }
}
