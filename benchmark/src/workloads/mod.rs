//! The five workload drivers and what they share.
//!
//! Every driver makes its inputs from the workload seed with its own
//! generator (victims, sponsors, rumour origin); the program under test
//! receives only those inputs and an engine seed derived from it.

pub mod churn;
pub mod daemon;
pub mod kernels;
pub mod rumor;
pub mod steady;

use sandf_core::SfConfig;

use crate::metrics::MetricSet;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::verify::Checks;

/// Protocol parameters common to every workload (`s = 16`, `d_L = 6`).
#[must_use]
pub fn protocol() -> SfConfig {
    SfConfig::new(16, 6).expect("s=16, d_L=6 is a valid configuration")
}

/// Circulant bootstrap outdegree (the `perf_smoke` convention).
pub const BOOTSTRAP_DEGREE: usize = 12;

/// Membership-channel loss rate.
pub const LOSS: f64 = 0.01;

/// Problem sizes. `full` is what `BENCHMARK.json` measures; `smoke` is
/// the sub-second variant the unit tests drive.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub steady_n: usize,
    pub churn_n: usize,
    pub rumor_n: usize,
    pub daemon_n: usize,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Rounds the daemon completes before its window opens.
    pub daemon_warmup_rounds: u64,
    /// Calls per nanosecond-scale calibration kernel.
    pub kernel_calls: u64,
    /// Buffer of the sequential-read bandwidth probe.
    pub mem_probe_bytes: usize,
    /// Nodes of the par engine's churn segment (traced run only).
    pub par_churn_n: usize,
}

impl Scale {
    #[must_use]
    pub fn full() -> Self {
        Self {
            steady_n: 2_000_000,
            churn_n: 300_000,
            rumor_n: 500_000,
            daemon_n: 1000,
            setup_reps: 3,
            daemon_warmup_rounds: 250,
            kernel_calls: 10_000_000,
            mem_probe_bytes: 1 << 30,
            par_churn_n: 300_000,
        }
    }

    #[cfg(test)]
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            steady_n: 1000,
            churn_n: 1000,
            rumor_n: 1000,
            daemon_n: 1000,
            setup_reps: 2,
            daemon_warmup_rounds: 3,
            kernel_calls: 8192,
            mem_probe_bytes: 1 << 20,
            par_churn_n: 1000,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: MetricSet,
    pub per_layer: MetricSet,
    /// Behaviour digest of a sim workload (`None` for the daemon, whose
    /// sockets make no two runs alike).
    pub fingerprint: Option<u64>,
}

impl Outcome {
    #[must_use]
    pub fn new() -> Self {
        Self {
            checks: Checks::default(),
            attempted: 0,
            failed: 0,
            end_to_end: MetricSet::end_to_end(),
            per_layer: MetricSet::per_layer(),
            fingerprint: None,
        }
    }

    /// Failed operations plus failed checks.
    #[must_use]
    pub fn failed_total(&self) -> u64 {
        self.failed + self.checks.failures
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed_total() == 0
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// Returns the list of known names for an unknown one, and the I/O
/// error text when the daemon cannot boot.
pub fn run(
    name: &str,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    match name {
        "steady_flat" => Ok(steady::run_flat(scale, seed, seconds, tracer)),
        "steady_par" => Ok(steady::run_par(scale, seed, seconds, tracer)),
        "churn_flat" => Ok(churn::run(scale, seed, seconds, tracer)),
        "rumor_push" => Ok(rumor::run(scale, seed, seconds, tracer)),
        "daemon_udp" => daemon::run(scale, seed, seconds, tracer),
        other => {
            let known: Vec<&str> = crate::metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
            Err(format!("unknown workload {other:?}; known: {}", known.join(", ")))
        }
    }
}

/// SplitMix64 of `seed` and a per-use tag: the benchmark's own input
/// generator and every engine seed hang off the one `--seed`.
#[must_use]
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rounds a region of `seconds` holds at `per_second`, at least `min`.
/// The work is a fixed function of `--seconds`, so a fixed seed repeats
/// the run exactly; the rates are sized so the region lasts about
/// `seconds` on the reference box (see the README).
#[must_use]
pub fn rounds_for(seconds: f64, per_second: f64, min: usize) -> usize {
    ((seconds * per_second).round() as usize).max(min)
}

/// `setup_s`: the median of the repeated set-ups.
pub fn record_setup(outcome: &mut Outcome, setups: &[f64]) {
    outcome.end_to_end.set("setup_s", median(setups));
}

/// The rate a run reports from rates measured over equal pieces of
/// homogeneous work (the rounds of a steady sim, one-second slices of the
/// daemon's window): their 90th percentile. Neighbours on the shared box
/// come and go in bursts of a few seconds and only ever slow a piece
/// down, so the fast decile estimates the undisturbed rate and repeats
/// between runs where the mean and the median do not.
#[must_use]
pub fn undisturbed_rate(piece_rates: &[f64]) -> f64 {
    quantile(piece_rates, 0.9).unwrap_or(0.0)
}

/// What is read when a workload's verification is done: `peak_rss_mb`,
/// and the benchmark's own per-layer metrics from the `timed` span.
pub fn record_run_end(outcome: &mut Outcome, tracer: &Tracer, timed: usize, verify_s: f64) {
    match crate::sys::peak_rss_mib() {
        Some(mib) => outcome.end_to_end.set("peak_rss_mb", mib),
        None => outcome
            .checks
            .check(false, "peak RSS readable", || "no VmHWM in /proc/self/status".into()),
    }
    outcome.per_layer.set("bench.verify_s", verify_s);
    if !tracer.enabled() {
        return;
    }
    let timed_s = tracer.spans()[timed].duration_ns() as f64 / 1e9;
    outcome.per_layer.set("bench.driver_self_share", tracer.self_share(timed));
    outcome.per_layer.set("bench.closure_error", tracer.closure_error(timed));
    if timed_s > 0.0 {
        let cost_s = tracer.descendants(timed) as f64 * Tracer::span_cost_ns() / 1e9;
        outcome.per_layer.set("bench.trace_overhead_share", cost_s / timed_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, NOT_EXERCISED, PER_LAYER, WORKLOADS};

    #[test]
    fn derived_seeds_differ_by_tag_and_seed() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn undisturbed_rate_is_the_fast_decile() {
        let rates: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(undisturbed_rate(&rates), 10.0);
        // One slow burst among the pieces does not move it.
        assert_eq!(undisturbed_rate(&[100.0, 100.0, 55.0, 100.0, 100.0]), 100.0);
        assert_eq!(undisturbed_rate(&[]), 0.0);
    }

    #[test]
    fn rounds_scale_with_seconds_and_respect_the_minimum() {
        assert_eq!(rounds_for(10.0, 0.8, 1), 8);
        assert_eq!(rounds_for(10.0, 3.2, 1), 32);
        assert_eq!(rounds_for(0.05, 0.8, 2), 2);
    }

    /// Which metrics each workload must actually measure (everything
    /// else stays at its preset).
    fn exercised(workload: &str, metric: &str) -> bool {
        let layer = metric.split('.').next().unwrap_or(metric);
        match workload {
            "steady_flat" => {
                matches!(layer, "scan" | "loss" | "mem" | "bench")
                    || metric == "topology.circulant_s"
                    || metric == "rand.gen_range_ns"
                    || (layer == "flat" && !FLAT_CHURN.contains(&metric))
            }
            "steady_par" => {
                matches!(layer, "par" | "bench")
                    || metric == "topology.circulant_s"
                    || metric == "rand.stream_build_ns"
            }
            "churn_flat" => {
                layer == "bench"
                    || metric == "topology.circulant_s"
                    || FLAT_CHURN.contains(&metric)
                    || FLAT_ROUND.contains(&metric)
            }
            "rumor_push" => {
                matches!(layer, "broadcast" | "bench")
                    || metric == "topology.random_s"
                    || metric == "rand.stream_build_ns"
                    || FLAT_ROUND.contains(&metric)
            }
            "daemon_udp" => {
                matches!(layer, "daemon" | "core" | "codec" | "udp" | "obs" | "bench")
            }
            _ => false,
        }
    }

    const FLAT_ROUND: &[&str] = &[
        "flat.build_s",
        "flat.round_ns_per_step",
        "flat.round_rate_p50",
        "flat.round_rate_p10",
        "flat.useful_share",
    ];
    const FLAT_CHURN: &[&str] = &[
        "flat.leave_us",
        "flat.leave_s",
        "flat.join_us",
        "flat.join_s",
        "flat.count_instances_ms",
        "flat.degree_stats_us",
        "flat.mass_leave_s",
        "flat.live_after",
        "flat.dense_after",
    ];
    /// Legitimately zero at the seed state (counts of things that must
    /// not happen, or that a 1000-node smoke run is too small to show).
    const MAY_BE_ZERO: &[&str] = &[
        "daemon.dropped",
        "daemon.dead_letters",
        "daemon.recv_errors",
        "daemon.violations",
        "daemon.late_p50_ms",
        "bench.closure_error",
        "bench.driver_self_share",
        "broadcast.lost",
        "flat.deliver_span_s",
    ];

    #[test]
    fn every_workload_smoke_runs_and_emits_every_declared_metric() {
        let scale = Scale::smoke();
        for (name, _) in WORKLOADS {
            for traced in [false, true] {
                let mut tracer = Tracer::new(traced);
                let outcome = run(name, &scale, 42, 0.2, &mut tracer).expect("workload runs");
                assert!(outcome.correct(), "{name} traced={traced}: {:#?}", outcome.checks.notes);
                assert!(outcome.attempted >= 1, "{name}");
                assert_eq!(outcome.end_to_end.iter().count(), END_TO_END.len());
                assert_eq!(outcome.per_layer.iter().count(), PER_LAYER.len());
                for (def, value) in outcome.end_to_end.iter() {
                    assert!(value.is_finite() && value > 0.0, "{name} {} = {value}", def.name);
                    let rumor_only = matches!(def.name, "rounds_to_99" | "msgs_per_node");
                    if rumor_only && *name != "rumor_push" {
                        assert_eq!(value, NOT_EXERCISED, "{name} {}", def.name);
                    }
                }
                for (def, value) in outcome.per_layer.iter() {
                    assert!(value.is_finite() && value >= 0.0, "{name} {} = {value}", def.name);
                    if traced && exercised(name, def.name) && !MAY_BE_ZERO.contains(&def.name) {
                        assert!(value > 0.0, "{name} did not measure {}", def.name);
                    }
                    if !exercised(name, def.name) {
                        assert_eq!(value, 0.0, "{name} unexpectedly measured {}", def.name);
                    }
                }
                assert_eq!(outcome.fingerprint.is_some(), *name != "daemon_udp", "{name}");
            }
        }
    }

    #[test]
    fn sim_workloads_repeat_exactly_for_a_fixed_seed() {
        let scale = Scale::smoke();
        for name in ["steady_flat", "steady_par", "churn_flat", "rumor_push"] {
            let digest = |seed| {
                run(name, &scale, seed, 0.2, &mut Tracer::new(false)).unwrap().fingerprint.unwrap()
            };
            assert_eq!(digest(42), digest(42), "{name}");
            assert_ne!(digest(42), digest(2009), "{name}");
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        let err = run("nope", &Scale::smoke(), 1, 0.1, &mut Tracer::new(false)).unwrap_err();
        assert!(err.contains("steady_flat"), "{err}");
    }
}
