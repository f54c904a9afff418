//! Spans recorded by the benchmark around its calls into a layer.
//!
//! The tree of a traced run is workload → `setup` / `timed` / `verify` →
//! one span per call (or per batch of calls) into a layer's public
//! functions. Spans live in a `Vec` and are written out when the run
//! ends. With tracing off every method is a direct call: no clock read,
//! no allocation.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` indexes the span that was open when this
/// one started; `calls` is how many layer calls the span covers (batched
/// kernels record one span per batch).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
    pub calls: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), run: 0, spans: Vec::new(), open: Vec::new() }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from here on (the set-up repetition they
    /// belong to), so spans of one repetition share an identifier.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            calls: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `enter` returned.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the driver.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` — `calls` calls into a layer — inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        self.spans[id].calls = calls;
        out
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover, clamped at zero so overlapping or mis-nested
    /// children show up in [`closure_error`](Self::closure_error) instead
    /// of cancelling out.
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Share of span `id` spent outside every child span — for the
    /// `timed` span, the benchmark's own code between layer calls.
    #[must_use]
    pub fn self_share(&self, id: usize) -> f64 {
        let duration = self.spans[id].duration_ns();
        if duration == 0 {
            0.0
        } else {
            self.self_ns(id) as f64 / duration as f64
        }
    }

    /// The closure check: the self times of span `id` and everything
    /// below it must add up to its duration. Returns the relative gap.
    #[must_use]
    pub fn closure_error(&self, id: usize) -> f64 {
        let duration = self.spans[id].duration_ns();
        if duration == 0 {
            return 0.0;
        }
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children_ns[p] += span.duration_ns();
            }
        }
        let mut in_subtree = vec![false; self.spans.len()];
        in_subtree[id] = true;
        let mut sum = 0u64;
        // Parents always precede their children in the vector.
        for k in id..self.spans.len() {
            if k != id {
                in_subtree[k] = self.spans[k].parent.is_some_and(|p| in_subtree[p]);
            }
            if in_subtree[k] {
                sum += self.spans[k].duration_ns().saturating_sub(children_ns[k]);
            }
        }
        (sum as f64 - duration as f64).abs() / duration as f64
    }

    /// Number of spans recorded strictly inside span `id`.
    #[must_use]
    pub fn descendants(&self, id: usize) -> u64 {
        let mut in_subtree = vec![false; self.spans.len()];
        in_subtree[id] = true;
        let mut count = 0;
        for k in id + 1..self.spans.len() {
            in_subtree[k] = self.spans[k].parent.is_some_and(|p| in_subtree[p]);
            count += u64::from(in_subtree[k]);
        }
        count
    }

    /// Measured cost of recording one empty span, in nanoseconds.
    #[must_use]
    pub fn span_cost_ns() -> f64 {
        const PROBES: u64 = 100_000;
        let mut probe = Tracer::new(true);
        let start = Instant::now();
        for _ in 0..PROBES {
            probe.time("probe", 1, || std::hint::black_box(0u64));
        }
        start.elapsed().as_nanos() as f64 / PROBES as f64
    }

    /// The trace as JSON: `{"spans": [{name, start_ns, end_ns, parent, run, calls}]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                    ("run", Json::from(u64::from(s.run))),
                    ("calls", Json::from(s.calls)),
                ])
            })
            .collect();
        Json::object([("spans", Json::Array(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, run: 0, calls: 1 }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer { spans, ..Tracer::new(true) }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer_with(vec![
            span("timed", 0, 1000, None),
            span("flat.round", 100, 500, Some(0)),
            span("flat.round", 500, 900, Some(0)),
            span("inner", 600, 700, Some(2)),
        ]);
        assert_eq!(t.self_ns(0), 200);
        assert_eq!(t.self_ns(1), 400);
        assert_eq!(t.self_ns(2), 300);
        assert!((t.self_share(0) - 0.2).abs() < 1e-12);
        assert_eq!(t.descendants(0), 3);
        assert_eq!(t.descendants(2), 1);
    }

    #[test]
    fn closure_holds_for_nested_spans_and_breaks_for_overlap() {
        let nested = tracer_with(vec![
            span("timed", 0, 1000, None),
            span("a", 0, 400, Some(0)),
            span("b", 400, 1000, Some(0)),
            span("c", 450, 650, Some(2)),
        ]);
        assert_eq!(nested.closure_error(0), 0.0);
        // Children that cover more than the parent cannot cancel out.
        let overlapping = tracer_with(vec![
            span("timed", 0, 1000, None),
            span("a", 0, 800, Some(0)),
            span("b", 200, 1000, Some(0)),
        ]);
        assert!((overlapping.closure_error(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn closure_ignores_spans_outside_the_subtree() {
        let t = tracer_with(vec![
            span("setup", 0, 500, None),
            span("timed", 500, 1500, None),
            span("a", 500, 1400, Some(1)),
        ]);
        assert_eq!(t.closure_error(1), 0.0);
        assert_eq!(t.self_ns(1), 100);
    }

    #[test]
    fn leaf_spans_nest_under_the_open_span_and_carry_their_call_count() {
        let mut t = Tracer::new(true);
        let root = t.enter("timed");
        t.set_run(3);
        t.time("flat.leave", 1500, || ());
        t.exit(root);
        let leaf = &t.spans()[1];
        assert_eq!(
            (leaf.name, leaf.calls, leaf.parent, leaf.run),
            ("flat.leave", 1500, Some(root), 3)
        );
        assert_eq!(t.spans()[root].run, 0);
        assert!(t.spans()[root].end_ns >= leaf.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("timed");
        assert_eq!(t.time("x", 1, || 7), 7);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
