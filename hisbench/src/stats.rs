//! Sample statistics used by every workload: nearest-rank percentiles,
//! medians, and the quartile spread the benchmark contract is judged by.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of all samples at or below it. No
/// interpolation, so every reported value is a latency that was actually
/// observed.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. Multiplying
/// before dividing keeps whole ranks whole (0.9 * 100 is not 90 in f64).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Sorts `values` ascending (NaN-free input assumed) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    values
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for quoting a tail at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread the benchmark contract bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values.to_vec());
    let n = v.len();
    let quantile = |k: usize| {
        // Python's exclusive method: position k * (n + 1) / 4 on a
        // 1-based axis, the index clamped to the sample and the
        // remainder (which may then extrapolate) applied linearly.
        let m = (n + 1) as i64;
        let j = (k as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (k as i64 * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if mid == 0.0 {
        return None;
    }
    Some((quantile(3) - quantile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_returns_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Odd count: the median is the middle sample, not an average.
        assert_eq!(percentile(&[1.0, 2.0, 100.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(100, 90.0));
        assert!(!tail_supported(860, 99.0));
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert!((quartile_spread(&[3.0, 1.0]).unwrap() - 1.5).abs() < 1e-12);
        // statistics.quantiles([2.2, 2.4, 2.3, 2.9, 2.25], n=4) == [2.225, 2.3, 2.65]
        let s5 = quartile_spread(&[2.2, 2.4, 2.3, 2.9, 2.25]).unwrap();
        assert!((s5 - (2.65 - 2.225) / 2.3).abs() < 1e-12);
        assert!(quartile_spread(&[1.0]).is_none());
    }
}
