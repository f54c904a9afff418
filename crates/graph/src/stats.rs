//! Descriptive statistics and distribution helpers used across experiments.

/// Summary statistics of a sample of non-negative integers (degrees).
///
/// Section 6.4 reports node indegrees as `mean ± std` (e.g. `28 ± 3.4` for
/// `ℓ = 0`); Property M2 (load balance) asks for bounded indegree variance.
///
/// # Examples
///
/// ```
/// use sandf_graph::DegreeStats;
///
/// let stats = DegreeStats::from_samples(&[2, 4, 4, 4, 5, 5, 7, 9]);
/// assert_eq!(stats.mean, 5.0);
/// assert_eq!(stats.variance, 4.0);
/// assert_eq!(stats.min, 2);
/// assert_eq!(stats.max, 9);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DegreeStats {
    /// Sample mean.
    pub mean: f64,
    /// Population variance (divides by `n`, matching the paper's usage).
    pub variance: f64,
    /// Smallest sample.
    pub min: usize,
    /// Largest sample.
    pub max: usize,
    /// Number of samples.
    pub count: usize,
}

impl DegreeStats {
    /// Computes statistics over a sample. Returns all-zero statistics for an
    /// empty sample.
    #[must_use]
    pub fn from_samples(samples: &[usize]) -> Self {
        if samples.is_empty() {
            return Self { mean: 0.0, variance: 0.0, min: 0, max: 0, count: 0 };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / n;
        let variance = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        Self {
            mean,
            variance,
            min: *samples.iter().min().expect("nonempty"),
            max: *samples.iter().max().expect("nonempty"),
            count: samples.len(),
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Aggregate statistics of one real-valued metric over a sample set — a
/// sweep cell's replicates, a soak phase's membership samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Summary {
    /// Number of samples aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` denominator; 0 for `n < 2`).
    pub std_dev: f64,
    /// Half-width of the 95% normal-approximation confidence interval of
    /// the mean: `1.96 · std_dev / √count` (0 for `n < 2`).
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Aggregates a sample set.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let (std_dev, ci95) = if count < 2 {
            (0.0, 0.0)
        } else {
            let var =
                samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (count - 1) as f64;
            let std_dev = var.sqrt();
            (std_dev, 1.96 * std_dev / (count as f64).sqrt())
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self { count, mean, std_dev, ci95, min, max }
    }
}

/// A histogram over non-negative integers, convertible to an empirical
/// probability mass function.
///
/// Used to compare simulated degree distributions against the paper's degree
/// Markov chain and against binomial references (Figures 6.1 and 6.3).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from samples.
    #[must_use]
    pub fn from_samples(samples: &[usize]) -> Self {
        let mut h = Self::new();
        for &x in samples {
            h.record(x);
        }
        h
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// The number of observations of `value`.
    #[must_use]
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The empirical probability mass function, indexed by value. Empty when
    /// no observation was recorded.
    #[must_use]
    pub fn pmf(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        let n = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// Empirical mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.iter().enumerate().map(|(v, &c)| v as f64 * c as f64).sum::<f64>()
            / self.total as f64
    }

    /// Empirical (population) variance.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        self.counts
            .iter()
            .enumerate()
            .map(|(v, &c)| (v as f64 - mean).powi(2) * c as f64)
            .sum::<f64>()
            / self.total as f64
    }

    /// The `q`-quantile by the nearest-rank method: the smallest recorded
    /// value such that at least `⌈q·n⌉` observations are `≤` it. Returns
    /// `None` for an empty histogram.
    ///
    /// Nearest-rank always returns an actually-observed value (on a
    /// singleton histogram every quantile is that value), is monotone in
    /// `q`, and depends only on the multiset of samples — the three
    /// properties pinned by this crate's property tests.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q ≤ 1`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.total == 0 {
            return None;
        }
        // ⌈q·n⌉ computed in f64 is exact here: totals are far below 2^52.
        let rank = (q * self.total as f64).ceil() as u64;
        let mut cumulative = 0;
        for (value, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(value);
            }
        }
        // Unreachable: cumulative reaches `total ≥ rank` on the last bucket.
        Some(self.counts.len() - 1)
    }

    /// The median (nearest-rank 0.5-quantile).
    #[must_use]
    pub fn p50(&self) -> Option<usize> {
        self.quantile(0.5)
    }

    /// The nearest-rank 0.95-quantile.
    #[must_use]
    pub fn p95(&self) -> Option<usize> {
        self.quantile(0.95)
    }

    /// The nearest-rank 0.99-quantile.
    #[must_use]
    pub fn p99(&self) -> Option<usize> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }
}

/// Total variation distance between two probability mass functions (padded
/// with zeros to the longer length): `½ Σ |p_i − q_i|`.
///
/// The fundamental theorem of ergodic Markov chains (Section 3.2) is stated
/// in terms of this distance; the exact-enumeration experiment (Lemma 7.5)
/// asserts it is negligible between the computed stationary distribution and
/// the uniform one.
#[must_use]
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    let len = p.len().max(q.len());
    let mut sum = 0.0;
    for i in 0..len {
        let pi = p.get(i).copied().unwrap_or(0.0);
        let qi = q.get(i).copied().unwrap_or(0.0);
        sum += (pi - qi).abs();
    }
    sum / 2.0
}

/// Pearson χ² statistic of observed counts against a uniform expectation.
///
/// Used by the uniformity experiment (Lemma 7.6 / Property M3): over a long
/// run, every id `v ≠ u` should appear in `u`'s view equally often.
///
/// Returns `None` when there are fewer than two categories or no
/// observations.
#[must_use]
pub fn chi_square_uniform(counts: &[u64]) -> Option<f64> {
    if counts.len() < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let expected = total as f64 / counts.len() as f64;
    Some(
        counts
            .iter()
            .map(|&o| {
                let diff = o as f64 - expected;
                diff * diff / expected
            })
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_stats_handles_empty() {
        let s = DegreeStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn degree_stats_single_sample() {
        let s = DegreeStats::from_samples(&[7]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!((s.min, s.max), (7, 7));
    }

    #[test]
    fn std_dev_is_sqrt_variance() {
        let s = DegreeStats::from_samples(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_records_and_normalizes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(2);
        h.record(2);
        h.record(5);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(1), 0);
        assert_eq!(h.count(99), 0);
        let pmf = h.pmf();
        assert_eq!(pmf.len(), 6);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(pmf[2], 0.5);
    }

    #[test]
    fn histogram_moments() {
        let h = Histogram::from_samples(&[1, 3]);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.variance(), 1.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::from_samples(&[1, 1]);
        let b = Histogram::from_samples(&[3]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(3), 1);
    }

    #[test]
    fn empty_histogram_pmf_is_empty() {
        assert!(Histogram::new().pmf().is_empty());
        assert_eq!(Histogram::new().mean(), 0.0);
        assert_eq!(Histogram::new().variance(), 0.0);
    }

    #[test]
    fn total_variation_of_identical_is_zero() {
        assert_eq!(total_variation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }

    #[test]
    fn total_variation_of_disjoint_is_one() {
        assert!((total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_variation_pads_lengths() {
        assert!((total_variation(&[1.0], &[0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chi_square_uniform_is_zero_for_uniform_counts() {
        assert_eq!(chi_square_uniform(&[5, 5, 5, 5]), Some(0.0));
    }

    #[test]
    fn chi_square_uniform_grows_with_imbalance() {
        let balanced = chi_square_uniform(&[10, 10, 10, 10]).unwrap();
        let skewed = chi_square_uniform(&[40, 0, 0, 0]).unwrap();
        assert!(skewed > balanced);
        assert!((skewed - 120.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_uniform_rejects_degenerate_inputs() {
        assert_eq!(chi_square_uniform(&[]), None);
        assert_eq!(chi_square_uniform(&[3]), None);
        assert_eq!(chi_square_uniform(&[0, 0]), None);
    }
}
