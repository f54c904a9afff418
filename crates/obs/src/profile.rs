//! RAII profiling spans feeding per-span duration histograms.
//!
//! A [`SpanTimer`] reads the monotonic clock on creation and records the
//! elapsed nanoseconds into a [`HistogramHandle`] on drop. When the handle
//! comes from a disabled registry the clock is never read, so instrumented
//! hot loops pay a single branch.
//!
//! Span durations are wall-clock and therefore **not** deterministic —
//! golden tests must pin span *names* only, never values.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::registry::{HistogramHandle, MetricsRegistry};

/// Exponential bucket upper bounds for durations in nanoseconds: 256 ns
/// doubling up to ~17 s. Sub-microsecond steps resolve the engine's hot
/// paths; the top buckets absorb whole-replicate spans.
#[must_use]
pub fn duration_buckets() -> Vec<u64> {
    (0..27).map(|i| 256u64 << i).collect()
}

/// An RAII scope timer: created via [`HistogramHandle`]-based helpers,
/// records elapsed nanoseconds on drop.
#[derive(Debug)]
pub struct SpanTimer {
    hist: HistogramHandle,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Starts a span recording into `hist` on drop. No clock is read when
    /// the handle is disabled.
    #[must_use]
    pub fn start(hist: &HistogramHandle) -> Self {
        let start = hist.is_enabled().then(Instant::now);
        Self { hist: hist.clone(), start }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(nanos);
        }
    }
}

/// A cache of named span histograms over one registry, so call sites can
/// say `profiler.span("sim.step")` without re-locking the registry per
/// span.
#[derive(Clone, Debug)]
pub struct Profiler {
    registry: MetricsRegistry,
    prefix: String,
    /// Span name → its histogram; only looked up, never iterated, so its
    /// order cannot reach output.
    cache: Arc<Mutex<HashMap<String, HistogramHandle>>>,
}

impl Profiler {
    /// Creates a profiler registering spans under `<prefix>.<name>_ns`.
    #[must_use]
    pub fn new(registry: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            registry: registry.clone(),
            prefix: prefix.to_string(),
            cache: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The histogram behind a span name (registered on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut cache = self.cache.lock();
        if let Some(handle) = cache.get(name) {
            return handle.clone();
        }
        let handle =
            self.registry.histogram(&format!("{}.{name}_ns", self.prefix), duration_buckets());
        cache.insert(name.to_string(), handle.clone());
        handle
    }

    /// Opens an RAII span; elapsed nanoseconds are recorded when the
    /// returned guard drops.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::start(&self.histogram(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let registry = MetricsRegistry::new();
        let profiler = Profiler::new(&registry, "sim.profile");
        {
            let _guard = profiler.span("step");
        }
        let hist = profiler.histogram("step");
        assert_eq!(hist.count(), 1);
        assert!(registry.metric_names().contains(&"sim.profile.step_ns".to_string()));
    }

    #[test]
    fn nested_spans_record_independently() {
        let registry = MetricsRegistry::new();
        let profiler = Profiler::new(&registry, "p");
        {
            let _outer = profiler.span("outer");
            for _ in 0..3 {
                let _inner = profiler.span("inner");
            }
        }
        assert_eq!(profiler.histogram("outer").count(), 1);
        assert_eq!(profiler.histogram("inner").count(), 3);
    }

    #[test]
    fn disabled_registry_skips_the_clock() {
        let registry = MetricsRegistry::disabled();
        let profiler = Profiler::new(&registry, "p");
        {
            let guard = profiler.span("step");
            assert!(guard.start.is_none(), "no clock read on disabled registry");
        }
        assert_eq!(profiler.histogram("step").count(), 0);
    }

    #[test]
    fn duration_buckets_are_ascending() {
        let buckets = duration_buckets();
        assert!(buckets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(buckets[0], 256);
    }
}
