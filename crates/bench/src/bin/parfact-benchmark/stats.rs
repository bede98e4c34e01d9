//! Order statistics of timing samples.

/// Quantile `p` of ascending-sorted `v` by the exclusive method — the one
/// Python's `statistics.quantiles` uses, so the quartiles printed here are
/// the ones the acceptance rule computes from the same values. Positions
/// outside the samples clamp to the nearest one instead of extrapolating.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
        }
    }
}

/// Median, quartiles, lower decile and range of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The fastest sample when there are fewer than ten.
    pub p10: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(p, value)`; `None` below twenty samples, where that percentile
    /// would not lie above the median.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = (n >= 20).then(|| {
            let p = 1.0 - 10.0 / n as f64;
            (p, v[n - 11])
        });
        Summary {
            n,
            median: quantile_sorted(&v, 0.5),
            p10: quantile_sorted(&v, 0.1),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            tail,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1..10], n=10)[0] == 1.1; below ten samples
        // the position clamps to the first.
        assert!((s.p10 - 1.1).abs() < 1e-15);
        assert_eq!(Summary::of(&v[..9]).p10, 1.0);
        assert!((s.spread() - 1.0).abs() < 1e-15);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(Summary::of(&[1.0; 19]).tail, None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, value) = Summary::of(&v).tail.unwrap();
        assert_eq!(p, 0.75);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}
