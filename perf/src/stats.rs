//! Order statistics over small sample vectors.

/// The `p`-quantile (0 ≤ p ≤ 1) by the same nearest-rank rule
/// `TuningService::suggest_p99` uses, so harness and library
/// percentiles are comparable. Returns 0 for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() - 1) as f64 * p).ceil() as usize;
    samples[idx]
}

/// Median with the midpoint rule for even counts. Returns 0 for an
/// empty sample.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the benchmark contract's spread rule uses.
/// With fewer than two samples both quartiles equal the sample.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (samples[0], samples[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric's per-round samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        let (q1, q3) = quartiles(&mut v);
        Self {
            median: median(&mut v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Interquartile range as a share of the median — the contract's
    /// run-to-run spread.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let mut v = vec![3.0, 1.0];
        assert_eq!(quartiles(&mut v), (0.5, 3.5));
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_takes_midpoints() {
        let mut v: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.median, 5.5);
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
