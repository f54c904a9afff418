//! RAII profiling spans feeding per-span duration histograms.
//!
//! A [`SpanTimer`] reads the monotonic clock on creation and records the
//! elapsed nanoseconds into a [`HistogramHandle`] on drop. Instrumented
//! code that is not profiled holds no handle and starts no span.
//!
//! Span durations are wall-clock and therefore **not** deterministic —
//! golden tests must pin span *names* only, never values.

use std::time::Instant;

use crate::registry::HistogramHandle;

/// Exponential bucket upper bounds for durations in nanoseconds: 256 ns
/// doubling up to ~17 s. Sub-microsecond steps resolve the engine's hot
/// paths; the top buckets absorb whole-replicate spans.
#[must_use]
pub fn duration_buckets() -> Vec<u64> {
    (0..27).map(|i| 256u64 << i).collect()
}

/// An RAII scope timer over a [`HistogramHandle`]: records elapsed
/// nanoseconds on drop.
#[derive(Debug)]
pub struct SpanTimer {
    hist: HistogramHandle,
    start: Instant,
}

impl SpanTimer {
    /// Starts a span recording into `hist` on drop.
    #[must_use]
    pub fn start(hist: &HistogramHandle) -> Self {
        Self { hist: hist.clone(), start: Instant::now() }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn span_records_on_drop() {
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("sim.profile.step_ns", duration_buckets());
        {
            let _guard = SpanTimer::start(&hist);
        }
        assert_eq!(hist.count(), 1);
        assert!(registry.metric_names().contains(&"sim.profile.step_ns".to_string()));
    }

    #[test]
    fn nested_spans_record_independently() {
        let registry = MetricsRegistry::new();
        let outer = registry.histogram("p.outer_ns", duration_buckets());
        let inner = registry.histogram("p.inner_ns", duration_buckets());
        {
            let _outer = SpanTimer::start(&outer);
            for _ in 0..3 {
                let _inner = SpanTimer::start(&inner);
            }
        }
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 3);
    }

    #[test]
    fn duration_buckets_are_ascending() {
        let buckets = duration_buckets();
        assert!(buckets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(buckets[0], 256);
    }
}
