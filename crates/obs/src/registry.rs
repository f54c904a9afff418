//! The metrics registry: atomic counters, gauges, and fixed-bucket
//! histograms under hierarchical dotted names.
//!
//! Handles are `Arc`-shared and record through lock-free atomics; the
//! registry lock is touched only at registration and render time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
struct Counter {
    value: AtomicU64,
}

/// A cheap, cloneable handle to a registered counter.
#[derive(Clone, Debug)]
pub struct CounterHandle {
    inner: Arc<Counter>,
}

impl CounterHandle {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observation of an `f64` quantity.
#[derive(Debug, Default)]
struct Gauge {
    /// `f64` bits, so the atomic store stays lock-free.
    bits: AtomicU64,
}

/// A cheap, cloneable handle to a registered gauge.
#[derive(Clone, Debug)]
pub struct GaugeHandle {
    inner: Arc<Gauge>,
}

impl GaugeHandle {
    /// Records the latest value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.inner.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The latest recorded value (0.0 before the first `set`).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.inner.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, ascending bucket upper bounds, plus an implicit
/// overflow bucket. Records are lock-free atomic increments; quantiles are
/// answered conservatively as the upper bound of the bucket containing the
/// requested rank (the standard Prometheus-style estimate).
#[derive(Debug)]
struct BucketHistogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
    total: AtomicU64,
}

impl BucketHistogram {
    fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must be strictly ascending");
        let counts = bounds.iter().map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            counts,
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }
}

/// A cheap, cloneable handle to a registered histogram.
#[derive(Clone, Debug)]
pub struct HistogramHandle {
    inner: Arc<BucketHistogram>,
}

impl HistogramHandle {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let h = &*self.inner;
        match h.bounds.partition_point(|&b| b < value) {
            i if i < h.counts.len() => h.counts[i].fetch_add(1, Ordering::Relaxed),
            _ => h.overflow.fetch_add(1, Ordering::Relaxed),
        };
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// The nearest-rank `q`-quantile as the upper bound of the bucket
    /// holding that rank (`None` with no observations; the largest bound
    /// when the rank falls in the overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ q ≤ 1`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let h = &*self.inner;
        let total = h.total.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (count, &bound) in h.counts.iter().zip(&h.bounds) {
            seen += count.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bound);
            }
        }
        Some(*h.bounds.last().expect("nonempty bounds"))
    }

    /// Median estimate (see [`quantile`](Self::quantile)).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Exact arithmetic mean of the observations (`sum / count`; unlike the
    /// quantiles it carries no bucket-resolution error). `None` with no
    /// observations.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let total = self.count();
        (total > 0).then(|| self.sum() as f64 / total as f64)
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(CounterHandle),
    Gauge(GaugeHandle),
    Histogram(HistogramHandle),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// A registry of metrics under hierarchical dotted names.
///
/// Clone-cheap: clones share the same metric set, so a registry can be
/// handed to every layer of a run. Names are dotted paths of
/// `[a-zA-Z0-9_]` segments (e.g. `sim.step.lost`, `node.3.deletions`);
/// registration is idempotent — asking twice for the same name and kind
/// returns handles to the same metric.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self { metrics: Arc::new(Mutex::new(BTreeMap::new())) }
    }

    fn validate(name: &str) {
        assert!(!name.is_empty(), "metric name must be nonempty");
        assert!(
            name.split('.')
                .all(|seg| !seg.is_empty()
                    && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')),
            "metric name must be dotted [a-zA-Z0-9_] segments, got {name:?}"
        );
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics on a malformed name or if the name is already registered as
    /// a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> CounterHandle {
        Self::validate(name);
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(CounterHandle { inner: Arc::default() }))
        {
            Metric::Counter(handle) => handle.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a malformed name or if the name is already registered as
    /// a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        Self::validate(name);
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(GaugeHandle { inner: Arc::default() }))
        {
            Metric::Gauge(handle) => handle.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) a fixed-bucket histogram with the given
    /// ascending bucket upper bounds (an overflow bucket is implicit).
    /// The bounds of an already-registered histogram are kept.
    ///
    /// # Panics
    ///
    /// Panics on a malformed name, empty or non-ascending bounds, or if
    /// the name is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: Vec<u64>) -> HistogramHandle {
        Self::validate(name);
        let mut metrics = self.metrics.lock();
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(HistogramHandle { inner: Arc::new(BucketHistogram::new(bounds)) })
        }) {
            Metric::Histogram(handle) => handle.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The registered metric names, in sorted order. Golden tests pin this
    /// list (names drift loudly; values are run-dependent).
    #[must_use]
    pub fn metric_names(&self) -> Vec<String> {
        self.metrics.lock().keys().cloned().collect()
    }

    /// The current value of a registered counter, if any.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(handle)) => Some(handle.get()),
            _ => None,
        }
    }

    /// Prometheus-style text exposition. Dots become underscores and every
    /// family is prefixed `sandf_`; histograms render as summaries
    /// (`{quantile="…"}` samples plus `_sum` and `_count`).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock();
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            let flat = format!("sandf_{}", name.replace('.', "_"));
            match metric {
                Metric::Counter(handle) => {
                    let _ = writeln!(out, "# TYPE {flat} counter");
                    let _ = writeln!(out, "{flat} {}", handle.get());
                }
                Metric::Gauge(handle) => {
                    let _ = writeln!(out, "# TYPE {flat} gauge");
                    let _ = writeln!(out, "{flat} {}", handle.get());
                }
                Metric::Histogram(handle) => {
                    let _ = writeln!(out, "# TYPE {flat} summary");
                    for (q, v) in [(0.5, handle.p50()), (0.95, handle.p95()), (0.99, handle.p99())]
                    {
                        let _ = writeln!(
                            out,
                            "{flat}{{quantile=\"{q}\"}} {}",
                            v.map_or_else(|| "NaN".to_string(), |v| v.to_string())
                        );
                    }
                    let _ = writeln!(out, "{flat}_sum {}", handle.sum());
                    let _ = writeln!(out, "{flat}_count {}", handle.count());
                }
            }
        }
        out
    }

    /// A TSV dump: `name<TAB>kind<TAB>value` rows, histograms expanded into
    /// `.count`, `.sum`, `.p50`, `.p95`, `.p99` rows.
    #[must_use]
    pub fn render_tsv(&self) -> String {
        let metrics = self.metrics.lock();
        let mut out = String::from("metric\tkind\tvalue\n");
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(handle) => {
                    let _ = writeln!(out, "{name}\tcounter\t{}", handle.get());
                }
                Metric::Gauge(handle) => {
                    let _ = writeln!(out, "{name}\tgauge\t{}", handle.get());
                }
                Metric::Histogram(handle) => {
                    let _ = writeln!(out, "{name}.count\thistogram\t{}", handle.count());
                    let _ = writeln!(out, "{name}.sum\thistogram\t{}", handle.sum());
                    for (label, v) in
                        [("p50", handle.p50()), ("p95", handle.p95()), ("p99", handle.p99())]
                    {
                        let _ = writeln!(
                            out,
                            "{name}.{label}\thistogram\t{}",
                            v.map_or_else(|| "-".to_string(), |v| v.to_string())
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("sim.step.lost");
        let b = registry.counter("sim.step.lost");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.counter_value("sim.step.lost"), Some(5));
    }

    #[test]
    fn gauges_hold_the_latest_value() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("sim.graph.mean_out");
        assert_eq!(g.get(), 0.0);
        g.set(27.25);
        assert_eq!(registry.gauge("sim.graph.mean_out").get(), 27.25);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("span.step", vec![10, 100, 1000]);
        for v in [1, 2, 3, 50, 2000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 2056);
        assert_eq!(h.p50(), Some(10));
        assert_eq!(h.quantile(0.8), Some(100));
        // The overflow record reports the largest finite bound.
        assert_eq!(h.p99(), Some(1000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("span.empty", vec![1, 2]);
        assert_eq!(h.p50(), None);
    }

    #[test]
    fn prometheus_exposition_has_type_lines_and_flat_names() {
        let registry = MetricsRegistry::new();
        registry.counter("net.udp.sent").add(3);
        registry.gauge("sim.nodes").set(24.0);
        let h = registry.histogram("sim.profile.step_ns", vec![8, 64]);
        h.record(5);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE sandf_net_udp_sent counter"));
        assert!(text.contains("sandf_net_udp_sent 3"));
        assert!(text.contains("sandf_sim_nodes 24"));
        assert!(text.contains("sandf_sim_profile_step_ns{quantile=\"0.5\"} 8"));
        assert!(text.contains("sandf_sim_profile_step_ns_count 1"));
    }

    #[test]
    fn tsv_dump_lists_every_metric_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter("b.two").inc();
        registry.counter("a.one").inc();
        let tsv = registry.render_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "metric\tkind\tvalue");
        assert_eq!(lines[1], "a.one\tcounter\t1");
        assert_eq!(lines[2], "b.two\tcounter\t1");
    }

    #[test]
    fn hierarchical_numeric_segments_are_legal() {
        let registry = MetricsRegistry::new();
        registry.counter("node.3.deletions").inc();
        assert_eq!(registry.counter_value("node.3.deletions"), Some(1));
    }

    #[test]
    #[should_panic(expected = "dotted")]
    fn malformed_names_are_rejected() {
        let _ = MetricsRegistry::new().counter("sim..lost");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("x.y");
        let _ = registry.gauge("x.y");
    }

    #[test]
    fn handles_work_across_threads() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("t.hits");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
