//! The observability report: one instrumented run with every `sandf-obs`
//! pillar attached.
//!
//! [`obs_report`] runs a seeded simulation with a [`SimRecorder`] counting
//! `sim.step.*`, a bounded [`EventJournal`] mirroring the step-event
//! stream, and (optionally) the engine's hot-path profiler. The result
//! bundles the Prometheus exposition, the TSV dump, the journal JSONL, and
//! the sorted metric-name list. (The live substrate's `daemon.*` catalog is
//! pinned next to the daemon, in `crates/daemon/tests`.)
//!
//! Determinism contract: with `profile: false`, the whole report is a pure
//! function of the config — two runs with the same seed produce
//! byte-identical exposition, TSV, and journal (the simulation is
//! single-threaded and the recorder observes it inline). Profiling spans
//! read the wall clock, so that switch trades determinism for coverage;
//! golden tests pin metric *names* for the full report and metric *values*
//! only for the deterministic subset.

use sandf_obs::{EventJournal, MetricsRegistry};
use sandf_sim::experiment::initial_degree;
use sandf_sim::{topology, DelayModel, Engine, FlatSimulation, SimRecorder, SimStats, UniformLoss};

use crate::sweeps::paper_config;

/// Scale and switches of an observability report run.
#[derive(Clone, Copy, Debug)]
pub struct ObsReportConfig {
    /// System size of the instrumented simulation.
    pub n: usize,
    /// Rounds to run (`n` steps each).
    pub rounds: usize,
    /// Uniform message-loss rate.
    pub loss: f64,
    /// Largest per-message delay in global steps; `0` = immediate delivery.
    /// A nonzero bound exercises the `in_flight` counter and the journal's
    /// two-phase (`in_flight` then `delivered`) records.
    pub max_delay: u64,
    /// RNG seed of the simulation.
    pub seed: u64,
    /// Journal ring-buffer capacity (oldest events are evicted beyond it).
    pub journal_capacity: usize,
    /// Attach the engine's hot-path profiler (`sim.profile.*_ns` spans).
    /// Span values read the wall clock, so they are not run-to-run stable.
    pub profile: bool,
}

impl ObsReportConfig {
    /// The full-scale report: a 1000-node run with every pillar on.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n: 1_000,
            rounds: 30,
            loss: 0.02,
            max_delay: 8,
            seed: 2_009,
            journal_capacity: 1 << 16,
            profile: true,
        }
    }

    /// A toy-scale report for CI smoke tests and golden pins.
    #[must_use]
    pub fn toy() -> Self {
        Self {
            n: 64,
            rounds: 12,
            loss: 0.05,
            max_delay: 4,
            seed: 7,
            journal_capacity: 4_096,
            profile: true,
        }
    }
}

/// Everything an [`obs_report`] run produces.
pub struct ObsReport {
    /// Prometheus text exposition of the whole registry.
    pub prometheus: String,
    /// `name\tkind\tvalue` TSV dump of the whole registry.
    pub tsv: String,
    /// The journal contents as JSONL, one event per line.
    pub journal_jsonl: String,
    /// Sorted registered metric names (the golden-pinned surface).
    pub metric_names: Vec<String>,
    /// The simulation's own final ledger, for cross-checking.
    pub stats: SimStats,
}

/// Runs one instrumented simulation and renders every observability
/// output.
#[must_use]
pub fn obs_report(config: &ObsReportConfig) -> ObsReport {
    let registry = MetricsRegistry::new();
    let journal = EventJournal::new(config.journal_capacity);

    let protocol = paper_config();
    let nodes = topology::circulant(config.n, protocol, initial_degree(protocol, config.n));
    let loss = UniformLoss::new(config.loss).expect("valid loss rate");
    let delay = if config.max_delay == 0 {
        DelayModel::Immediate
    } else {
        DelayModel::UniformSteps { max: config.max_delay }
    };
    let mut sim = FlatSimulation::with_delay(nodes, loss, delay, config.seed);
    sim.subscribe(Box::new(SimRecorder::with_journal(&registry, journal.clone())));
    if config.profile {
        sim.attach_profiler(&registry);
    }
    for _ in 0..config.n * config.rounds {
        sim.step();
    }
    sim.settle();

    ObsReport {
        prometheus: registry.render_prometheus(),
        tsv: registry.render_tsv(),
        journal_jsonl: journal.to_jsonl(),
        metric_names: registry.metric_names(),
        stats: *sim.stats(),
    }
}
