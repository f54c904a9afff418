//! Order statistics for timing samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`SAMPLES_BEYOND`] samples above it, so a tail
//! figure is never a single outlier.

/// Samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (any order), the
/// same "inclusive" rule as numpy's default. `None` on an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median (`0.0` on an empty slice, which no caller passes).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The highest percentile, capped at `cap`, that leaves at least
/// [`SAMPLES_BEYOND`] of `n` samples above it; the median when the sample
/// is too small to support anything higher.
#[must_use]
pub fn supported_percentile(n: usize, cap: f64) -> f64 {
    if n < 2 * SAMPLES_BEYOND {
        return 0.5;
    }
    (1.0 - SAMPLES_BEYOND as f64 / n as f64).min(cap)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) gives them — the rule the acceptance spread
/// is computed with. Needs at least two values.
#[must_use]
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance check bounds.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles_exclusive(values) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.25), Some(12.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // Too few samples: only the median is supported.
        assert_eq!(supported_percentile(8, 0.99), 0.5);
        assert_eq!(supported_percentile(19, 0.99), 0.5);
        // 32 samples leave ten beyond p68.75.
        assert!((supported_percentile(32, 0.99) - 0.6875).abs() < 1e-12);
        // p99 is reached once 1000 samples exist, and never exceeded.
        assert!(supported_percentile(999, 0.99) < 0.99);
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(100_000, 0.99), 0.99);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles_exclusive(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
