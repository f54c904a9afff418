//! # sandf-obs — observability for the S&F stack
//!
//! The paper's evaluation (Sections 6–7) lives on per-event accounting:
//! duplication vs. deletion vs. loss rates (Lemmas 6.6/6.7), degree
//! trajectories, overlap decay. This crate is the uniform measurement
//! layer those signals flow through, across the layers that record them
//! (`sim`, `daemon`, `bench`):
//!
//! * a [`MetricsRegistry`] of cheap atomic [`CounterHandle`]s,
//!   [`GaugeHandle`]s, and fixed-bucket [`HistogramHandle`]s, registered
//!   under hierarchical dotted names (`sim.step.lost`, `daemon.net.sent`,
//!   `node.3.deletions`), with a Prometheus-style text exposition
//!   ([`MetricsRegistry::render_prometheus`]) and a TSV dump
//!   ([`MetricsRegistry::render_tsv`]);
//! * a bounded ring-buffer [`EventJournal`] of structured
//!   [`JournalEvent`]s with JSONL export, so any run can be replayed for
//!   debugging;
//! * RAII profiling spans ([`SpanTimer`]) feeding per-span duration
//!   histograms, so perf work has baseline numbers.
//!
//! Everything record-side is overhead-conscious: handles are `Arc`-shared
//! atomics, the simulator's `sim.step.*` counters are published from its
//! own ledger when a caller asks (no engine stores an observer), and an
//! engine with no profiler attached starts no span.
//!
//! Counter and journal contents are **deterministic** for a fixed seed in
//! single-threaded simulation runs — only span histograms carry wall-clock
//! values. Golden tests therefore pin metric *names* and counter values,
//! never span durations.
//!
//! ## Example
//!
//! ```
//! use sandf_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let lost = registry.counter("sim.step.lost");
//! lost.inc();
//! lost.add(2);
//! assert_eq!(lost.get(), 3);
//! assert!(registry.render_prometheus().contains("sandf_sim_step_lost 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod profile;
pub mod registry;

pub use journal::{EventJournal, JournalEntry, JournalEvent};
pub use profile::{duration_buckets, SpanTimer};
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
