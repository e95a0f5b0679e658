//! Order statistics the benchmark reports its timings with.

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a bug in the
/// runner, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`idx = ⌈q·n⌉ − 1`), the same rule
/// `LatencyStats::from_sojourns` uses for the simulated sojourns.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    v[idx]
}

/// The highest percentile that still has at least ten samples beyond
/// it: `(quantile, value)`, or `None` with fewer than eleven samples.
pub fn hi_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // 1-based rank n − 10 leaves exactly ten samples above it.
    let rank = n - 10;
    Some((rank as f64 / n as f64, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
    }

    #[test]
    fn hi_percentile_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(hi_percentile(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Rank 1 of 11: ten samples lie beyond it.
        assert_eq!(hi_percentile(&eleven), Some((1.0 / 11.0, 1.0)));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(hi_percentile(&hundred), Some((0.9, 90.0)));
    }
}
