//! The `perf_smoke` measurement core: one large-`n` run, one
//! machine-readable JSON report.
//!
//! Every PR extends the repo's performance trajectory by committing a
//! `BENCH_PR<k>.json` produced by the `perf_smoke` binary (see
//! `EXPERIMENTS.md` § Performance methodology). The report carries the
//! scale (`nodes` × `rounds`), per-phase wall-clock taken from
//! `sandf-obs` span histograms, the end-to-end steps/sec throughput, peak
//! RSS read from `/proc/self/status`, and the run's [`SimStats`] — the
//! stats double as a determinism fingerprint, since the flat and classic
//! engines must produce identical counters for identical seeds, and the
//! par engine identical counters for any thread count.
//!
//! The JSON is hand-rolled (the workspace deliberately has no serde);
//! [`PerfReport::to_json`] emits a stable key order so diffs between PRs
//! stay readable.

use sandf_baselines::ShuffleBehavior;
use sandf_core::{NodeId, SfConfig};
use sandf_obs::{duration_buckets, MetricsRegistry, SpanTimer, Stopwatch};
use sandf_sim::{
    topology, Engine, FlatSimulation, ParSimulation, SimStats, Simulation, UniformLoss,
};

use crate::sweeps::initial_degree;

/// Which engine a perf run drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PerfEngine {
    /// The struct-of-arrays fast path ([`FlatSimulation`]) — the default.
    Flat,
    /// The per-node reference engine ([`Simulation`]), for comparison runs.
    Classic,
    /// The sharded multi-threaded engine ([`ParSimulation`]); honours
    /// [`PerfSmokeConfig::threads`].
    Par,
}

impl PerfEngine {
    /// The name used in the JSON report and on the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::Classic => "classic",
            Self::Par => "par",
        }
    }
}

/// Which protocol behavior a perf run drives through the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PerfProtocol {
    /// Send & Forget — the default, supported by every engine.
    Sf,
    /// The shuffle baseline ([`ShuffleBehavior`] with gossip size 3) on
    /// the arena engines; the classic engine is S&F-only.
    Shuffle,
}

impl PerfProtocol {
    /// The name used in the JSON report and on the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Sf => "sandf",
            Self::Shuffle => "shuffle",
        }
    }
}

/// Scale and parameters of one perf-smoke run.
#[derive(Clone, Copy, Debug)]
pub struct PerfSmokeConfig {
    /// System size `n`.
    pub nodes: usize,
    /// Central-entity rounds to run (`steps = nodes × rounds`).
    pub rounds: usize,
    /// Uniform message-loss rate.
    pub loss: f64,
    /// RNG seed (fixed so the stats fingerprint is comparable across PRs).
    pub seed: u64,
    /// Protocol configuration.
    pub config: SfConfig,
    /// Engine under measurement.
    pub engine: PerfEngine,
    /// Protocol behavior under measurement.
    pub protocol: PerfProtocol,
    /// Worker-thread count for [`PerfEngine::Par`] (ignored by the
    /// single-threaded engines).
    pub threads: usize,
}

impl PerfSmokeConfig {
    /// The standard smoke scale: `s = 16`, `d_L = 6`, 1% loss, seed 42.
    /// CI runs this at `nodes = 100_000`; the committed trajectory point
    /// uses `nodes = 1_000_000`, `rounds = 50`.
    #[must_use]
    pub fn at_scale(nodes: usize, rounds: usize) -> Self {
        Self {
            nodes,
            rounds,
            loss: 0.01,
            seed: 42,
            config: SfConfig::new(16, 6).expect("smoke parameters are legal"),
            engine: PerfEngine::Flat,
            protocol: PerfProtocol::Sf,
            threads: 1,
        }
    }
}

/// The measured outcome of one perf-smoke run.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// The run's parameters.
    pub config: PerfSmokeConfig,
    /// Wall-clock of topology + engine construction, in milliseconds.
    pub build_ms: f64,
    /// Wall-clock of the stepping loop, in milliseconds.
    pub run_ms: f64,
    /// Wall-clock of end-of-run measurement (stats aggregation), in
    /// milliseconds.
    pub measure_ms: f64,
    /// Steps executed (`nodes × rounds`).
    pub steps: u64,
    /// Throughput of the stepping loop.
    pub steps_per_sec: f64,
    /// Peak resident set size, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// The run's system-wide counters — the determinism fingerprint.
    pub stats: SimStats,
}

/// Reads peak RSS (`VmHWM`) from `/proc/self/status`. `None` off Linux or
/// when the field is missing.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Runs one perf smoke at the given scale and returns the report.
///
/// Phase timings are recorded through `sandf-obs` span histograms
/// (`perf.build_ns` / `perf.run_ns` / `perf.measure_ns` in `registry`), so
/// an attached exporter sees the same numbers the JSON reports.
///
/// # Panics
///
/// Panics on `engine: classic, protocol: shuffle` — the classic per-node
/// engine runs only S&F; the zoo rides the arena engines through the
/// [`Engine`]/`ProtocolBehavior` traits.
#[must_use]
pub fn run(config: PerfSmokeConfig, registry: &MetricsRegistry) -> PerfReport {
    let loss = UniformLoss::new(config.loss).expect("loss rate validated by caller");
    let initial = initial_degree(config.config, config.nodes);
    match (config.engine, config.protocol) {
        // The arena engines take the lazy circulant: at n = 10⁷ the boxed
        // node set would transiently dwarf the arena it becomes (~5 GB of
        // `SfNode`s vs. ~1 GB of slots), so the build phase streams.
        (PerfEngine::Flat, PerfProtocol::Sf) => execute(config, registry, || {
            let nodes = topology::circulant_iter(config.nodes, config.config, initial);
            FlatSimulation::new(nodes, loss, config.seed)
        }),
        (PerfEngine::Classic, PerfProtocol::Sf) => execute(config, registry, || {
            let nodes = topology::circulant(config.nodes, config.config, initial);
            Simulation::new(nodes, loss, config.seed)
        }),
        (PerfEngine::Par, PerfProtocol::Sf) => execute(config, registry, || {
            let nodes = topology::circulant_iter(config.nodes, config.config, initial);
            let mut sim = ParSimulation::new(nodes, loss, config.seed, config.threads);
            sim.attach_profiler(registry);
            sim
        }),
        (PerfEngine::Flat, PerfProtocol::Shuffle) => execute(config, registry, || {
            FlatSimulation::from_views(
                ShuffleBehavior::new(3),
                config.config,
                ring_views(config.nodes, initial),
                loss,
                config.seed,
            )
        }),
        (PerfEngine::Par, PerfProtocol::Shuffle) => execute(config, registry, || {
            let mut sim = ParSimulation::from_views(
                ShuffleBehavior::new(3),
                config.config,
                ring_views(config.nodes, initial),
                loss,
                config.seed,
                config.threads,
            );
            sim.attach_profiler(registry);
            sim
        }),
        (PerfEngine::Classic, PerfProtocol::Shuffle) => {
            panic!("the classic engine runs only S&F; use --engine flat or par for shuffle")
        }
    }
}

/// The ring bootstrap the zoo protocols start from (the S&F runs use
/// `topology::circulant`, which is the same shape with S&F slot layout).
pub(crate) fn ring_views(n: usize, k: usize) -> Vec<(NodeId, Vec<NodeId>)> {
    (0..n)
        .map(|i| {
            let view = (1..=k).map(|d| NodeId::new(((i + d) % n) as u64)).collect();
            (NodeId::new(i as u64), view)
        })
        .collect()
}

/// The measurement core, generic over the unified [`Engine`] trait: build
/// (timed), run (timed), aggregate (timed), cross-check the engine ledger
/// against the per-node ledger.
fn execute<E: Engine>(
    config: PerfSmokeConfig,
    registry: &MetricsRegistry,
    build: impl FnOnce() -> E,
) -> PerfReport {
    let build_hist = registry.histogram("perf.build_ns", duration_buckets());
    let run_hist = registry.histogram("perf.run_ns", duration_buckets());
    let measure_hist = registry.histogram("perf.measure_ns", duration_buckets());

    let build_watch = Stopwatch::start();
    let mut sim = {
        let _span = SpanTimer::start(&build_hist);
        build()
    };
    let build_ms = ns_to_ms(build_watch.elapsed_ns());

    let run_watch = Stopwatch::start();
    {
        let _span = SpanTimer::start(&run_hist);
        sim.run_rounds(config.rounds);
    }
    let run_ns = run_watch.elapsed_ns();

    let measure_watch = Stopwatch::start();
    let stats = {
        let _span = SpanTimer::start(&measure_hist);
        let stats = sim.stats();
        // Sanity: no initiations lost between the ledgers (departed nodes
        // aside — this run has no churn).
        assert_eq!(
            stats.actions,
            sim.aggregate_node_stats().initiated,
            "engine and node ledgers disagree"
        );
        stats
    };
    let measure_ms = ns_to_ms(measure_watch.elapsed_ns());

    let steps = (config.nodes * config.rounds) as u64;
    let steps_per_sec =
        if run_ns == 0 { 0.0 } else { steps as f64 / (run_ns as f64 / 1_000_000_000.0) };

    PerfReport {
        config,
        build_ms,
        run_ms: ns_to_ms(run_ns),
        measure_ms,
        steps,
        steps_per_sec,
        peak_rss_bytes: peak_rss_bytes(),
        stats,
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

impl PerfReport {
    /// Serializes the report as a single JSON object with a stable key
    /// order (hand-rolled; the workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let rss = self.peak_rss_bytes.map_or_else(|| "null".to_string(), |bytes| bytes.to_string());
        let s = self.stats;
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"sandf-perf-smoke/v1\",\n",
                "  \"nodes\": {nodes},\n",
                "  \"rounds\": {rounds},\n",
                "  \"config\": {{ \"s\": {s_param}, \"d_l\": {d_l} }},\n",
                "  \"loss\": {loss},\n",
                "  \"seed\": {seed},\n",
                "  \"engine\": \"{engine}\",\n",
                "  \"protocol\": \"{protocol}\",\n",
                "  \"threads\": {threads},\n",
                "  \"phases_ms\": {{ \"build\": {build:.3}, \"run\": {run:.3}, ",
                "\"measure\": {measure:.3} }},\n",
                "  \"steps\": {steps},\n",
                "  \"steps_per_sec\": {sps:.1},\n",
                "  \"peak_rss_bytes\": {rss},\n",
                "  \"stats\": {{ \"actions\": {actions}, \"self_loops\": {self_loops}, ",
                "\"sent\": {sent}, \"lost\": {lost}, \"dead_letters\": {dead_letters}, ",
                "\"stored\": {stored}, \"deleted\": {deleted}, ",
                "\"duplications\": {duplications} }}\n",
                "}}\n",
            ),
            nodes = c.nodes,
            rounds = c.rounds,
            s_param = c.config.view_size(),
            d_l = c.config.lower_threshold(),
            loss = c.loss,
            seed = c.seed,
            engine = c.engine.name(),
            protocol = c.protocol.name(),
            threads = c.threads,
            build = self.build_ms,
            run = self.run_ms,
            measure = self.measure_ms,
            steps = self.steps,
            sps = self.steps_per_sec,
            rss = rss,
            actions = s.actions,
            self_loops = s.self_loops,
            sent = s.sent,
            lost = s.lost,
            dead_letters = s.dead_letters,
            stored = s.stored,
            deleted = s.deleted,
            duplications = s.duplications,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(engine: PerfEngine) -> PerfReport {
        let mut config = PerfSmokeConfig::at_scale(256, 4);
        config.engine = engine;
        run(config, &MetricsRegistry::new())
    }

    #[test]
    fn report_counts_every_step() {
        let report = tiny(PerfEngine::Flat);
        assert_eq!(report.steps, 256 * 4);
        assert_eq!(report.stats.actions, 256 * 4);
        assert!(report.steps_per_sec > 0.0);
    }

    #[test]
    fn flat_and_classic_agree_on_the_fingerprint() {
        assert_eq!(tiny(PerfEngine::Flat).stats, tiny(PerfEngine::Classic).stats);
    }

    #[test]
    fn par_fingerprint_is_thread_count_invariant() {
        let baseline = {
            let mut config = PerfSmokeConfig::at_scale(256, 4);
            config.engine = PerfEngine::Par;
            run(config, &MetricsRegistry::new())
        };
        assert_eq!(baseline.stats.actions, 256 * 4);
        for threads in [2, 8] {
            let mut config = PerfSmokeConfig::at_scale(256, 4);
            config.engine = PerfEngine::Par;
            config.threads = threads;
            let report = run(config, &MetricsRegistry::new());
            assert_eq!(report.stats, baseline.stats, "{threads} threads diverged");
        }
    }

    #[test]
    fn par_run_exports_engine_phase_metrics() {
        let registry = MetricsRegistry::new();
        let mut config = PerfSmokeConfig::at_scale(128, 2);
        config.engine = PerfEngine::Par;
        config.threads = 2;
        let _ = run(config, &registry);
        let names = registry.metric_names();
        for name in [
            "sim.profile.par.action_ns",
            "sim.profile.par.merge_ns",
            "sim.profile.par.deliver_ns",
            "sim.par.shard_imbalance",
        ] {
            assert!(names.contains(&name.to_string()), "metric {name} not registered");
        }
    }

    #[test]
    fn shuffle_protocol_runs_on_both_arena_engines() {
        let mut config = PerfSmokeConfig::at_scale(256, 4);
        config.protocol = PerfProtocol::Shuffle;
        let flat = run(config, &MetricsRegistry::new());
        assert_eq!(flat.stats.actions, 256 * 4);
        assert!(flat.to_json().contains("\"protocol\": \"shuffle\""));
        config.engine = PerfEngine::Par;
        config.threads = 2;
        let par = run(config, &MetricsRegistry::new());
        assert_eq!(par.stats.actions, 256 * 4);
    }

    #[test]
    #[should_panic(expected = "classic engine runs only S&F")]
    fn classic_engine_rejects_the_zoo() {
        let mut config = PerfSmokeConfig::at_scale(64, 1);
        config.engine = PerfEngine::Classic;
        config.protocol = PerfProtocol::Shuffle;
        let _ = run(config, &MetricsRegistry::new());
    }

    #[test]
    fn json_is_well_formed_enough_to_grep() {
        let json = tiny(PerfEngine::Flat).to_json();
        for key in [
            "\"schema\": \"sandf-perf-smoke/v1\"",
            "\"nodes\": 256",
            "\"rounds\": 4",
            "\"phases_ms\"",
            "\"steps\": 1024",
            "\"steps_per_sec\"",
            "\"peak_rss_bytes\"",
            "\"stats\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn phase_spans_land_in_the_registry() {
        let registry = MetricsRegistry::new();
        let _ = run(PerfSmokeConfig::at_scale(128, 2), &registry);
        for name in ["perf.build_ns", "perf.run_ns", "perf.measure_ns"] {
            assert!(
                registry.metric_names().contains(&name.to_string()),
                "span {name} not registered"
            );
        }
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
