//! `steady_flat` and `steady_par`: nothing but `round()` on the same
//! problem, once on the serial central-entity engine and once on the
//! phase-split sharded engine pinned to one worker thread.

use std::hint::black_box;
use std::time::Instant;

use sandf_core::NodeStats;
use sandf_obs::{duration_buckets, MetricsRegistry};
use sandf_sim::{topology, Engine, FlatSimulation, ParSimulation, UniformLoss};

use super::churn::{ChurnPlan, ChurnScript, LayerSpans};
use super::{
    derive_seed, kernels, protocol, record_run_end, record_setup, rounds_for, undisturbed_rate,
    Outcome, Scale, BOOTSTRAP_DEGREE, LOSS,
};
use crate::stats::{median, quantile, quartiles_exclusive};
use crate::trace::Tracer;
use crate::verify::{edge_ledger, fingerprint, ledger, observation_5_1};

/// Timed rounds per second of `--seconds` (≈1.2 s a round at n=2×10⁶).
const FLAT_ROUNDS_PER_SECOND: f64 = 0.8;
/// ≈0.29 s a round at n=2×10⁶ on one worker thread.
const PAR_ROUNDS_PER_SECOND: f64 = 3.2;
/// Burn-in rounds of each set-up: per-round cost is flat from the first
/// round on, so one round to fault the arena in is enough.
const BURN_IN: usize = 1;
/// Rounds run with the flat profiler attached, after the timed region
/// (it reads the clock twice per step, which would distort the region).
const PROFILED_ROUNDS: usize = 2;
/// Rounds of the 2-thread segment per second of `--seconds`.
const PAR_2T_ROUNDS_PER_SECOND: f64 = 2.0;
/// Rounds of the par churn segment.
const PAR_CHURN_ROUNDS: usize = 10;

fn loss() -> UniformLoss {
    UniformLoss::new(LOSS).expect("valid loss rate")
}

/// Per-round data-plane figures of the flat engine from `(actions, wall)`
/// pairs; shared by every workload that steps a `FlatSimulation`.
pub fn record_flat_rounds(out: &mut Outcome, rounds: &[(u64, f64)], useful_share: f64) {
    let actions: u64 = rounds.iter().map(|r| r.0).sum();
    let wall: f64 = rounds.iter().map(|r| r.1).sum();
    let rates: Vec<f64> = rounds.iter().map(|&(a, w)| a as f64 / w).collect();
    out.per_layer.set("flat.round_ns_per_step", wall * 1e9 / actions as f64);
    out.per_layer.set("flat.round_rate_p50", median(&rates));
    out.per_layer.set("flat.round_rate_p10", quantile(&rates, 0.10).unwrap_or(0.0));
    out.per_layer.set("flat.useful_share", useful_share);
}

/// Draining the bootstrap iterator alone, without building an engine.
pub fn drain_circulant(tr: &mut Tracer, n: usize) -> f64 {
    let start = Instant::now();
    tr.time("topology.circulant", n as u64, || {
        let edges: usize =
            topology::circulant_iter(n, protocol(), BOOTSTRAP_DEGREE).map(|v| v.out_degree()).sum();
        black_box(edges);
    });
    start.elapsed().as_secs_f64()
}

/// Span and metric names of the engine a shared helper is driving.
#[derive(Clone, Copy, Debug)]
pub struct EngineNames {
    pub build: &'static str,
    pub burn_in: &'static str,
    pub round: &'static str,
    pub build_metric: &'static str,
}

pub const FLAT: EngineNames = EngineNames {
    build: "flat.build",
    burn_in: "flat.burn_in",
    round: "flat.round",
    build_metric: "flat.build_s",
};

const PAR: EngineNames = EngineNames {
    build: "par.build",
    burn_in: "par.burn_in",
    round: "par.round",
    build_metric: "par.build_s",
};

/// The set-up of a sim workload — build the engine, burn in — repeated
/// `reps` times from the same seed; `setup_s` is the median. Returns the
/// last engine and its edge count at build.
pub fn setup_engine<E: Engine>(
    out: &mut Outcome,
    tr: &mut Tracer,
    reps: usize,
    burn_in: usize,
    names: &EngineNames,
    build: impl Fn() -> E,
) -> (E, u64) {
    let setup = tr.enter("setup");
    let mut setups = Vec::with_capacity(reps);
    let mut built = None;
    for rep in 0..reps {
        // Free the previous arena first: peak RSS is one arena, not two.
        drop(built.take());
        tr.set_run(rep as u32);
        let start = Instant::now();
        let mut sim = tr.time(names.build, 1, &build);
        out.per_layer.set(names.build_metric, start.elapsed().as_secs_f64());
        let edges_at_build = sim.degree_stats().edges();
        tr.time(names.burn_in, (sim.len() * burn_in) as u64, || sim.run_rounds(burn_in));
        setups.push(start.elapsed().as_secs_f64());
        built = Some((sim, edges_at_build));
    }
    tr.set_run(0);
    tr.exit(setup);
    record_setup(out, &setups);
    built.expect("at least one set-up")
}

/// The timed region of a steady workload: `rounds` × `round()`. Every
/// round does the same work, so `steps_per_sec` is the
/// [`undisturbed_rate`] of the per-round rates. Returns the `timed` span
/// and the per-round walls.
fn timed_rounds<E: Engine>(
    out: &mut Outcome,
    tr: &mut Tracer,
    sim: &mut E,
    rounds: usize,
    names: &EngineNames,
) -> (usize, Vec<f64>) {
    let n = sim.len() as u64;
    let before = sim.stats().actions;
    let mut walls = Vec::with_capacity(rounds);
    let timed = tr.enter("timed");
    for _ in 0..rounds {
        let start = Instant::now();
        tr.time(names.round, n, || sim.round());
        walls.push(start.elapsed().as_secs_f64());
    }
    tr.exit(timed);
    out.attempted = sim.stats().actions - before;
    let rates: Vec<f64> = walls.iter().map(|w| n as f64 / w).collect();
    out.end_to_end.set("steps_per_sec", undisturbed_rate(&rates));
    (timed, walls)
}

/// Verification of a churn-free run, then the figures read at its end.
fn verify_steady<E: Engine>(
    out: &mut Outcome,
    tr: &mut Tracer,
    sim: &mut E,
    timed: usize,
    expected_actions: u64,
    edges_at_build: u64,
) {
    let verify = tr.enter("verify");
    let start = Instant::now();
    sim.settle();
    let (stats, degrees) = (sim.stats(), sim.degree_stats());
    ledger(&mut out.checks, &stats, expected_actions, sim.in_flight());
    edge_ledger(&mut out.checks, &stats, edges_at_build, degrees.edges());
    out.failed += observation_5_1(&mut out.checks, &degrees, sim.config());
    out.fingerprint = Some(fingerprint(&stats, &degrees, &[]));
    let verify_s = start.elapsed().as_secs_f64();
    tr.exit(verify);
    record_run_end(out, tr, timed, verify_s);
}

pub fn run_flat(scale: &Scale, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let n = scale.steady_n;
    let rounds = rounds_for(seconds, FLAT_ROUNDS_PER_SECOND, 2);
    let mut out = Outcome::new();
    let (mut sim, edges_at_build) =
        setup_engine(&mut out, tr, scale.setup_reps, BURN_IN, &FLAT, || {
            FlatSimulation::new(
                topology::circulant_iter(n, protocol(), BOOTSTRAP_DEGREE),
                loss(),
                derive_seed(seed, 1),
            )
        });

    let before = *sim.stats();
    let (timed, walls) = timed_rounds(&mut out, tr, &mut sim, rounds, &FLAT);
    let per_round: Vec<(u64, f64)> = walls.iter().map(|&w| (n as u64, w)).collect();
    let useful =
        (sim.stats().sent - before.sent) as f64 / (sim.stats().actions - before.actions) as f64;
    record_flat_rounds(&mut out, &per_round, useful);
    verify_steady(&mut out, tr, &mut sim, timed, (n * (BURN_IN + rounds)) as u64, edges_at_build);

    if tr.enabled() {
        let calibrate = tr.enter("calibrate");
        let steps_per_sec = out.end_to_end.get("steps_per_sec");
        profile_flat(&mut out, tr, &mut sim);
        drop(sim);
        out.per_layer.set("topology.circulant_s", drain_circulant(tr, n));
        roofline(&mut out, tr, scale, useful, steps_per_sec);
        kernels::flat_step_parts(&mut out, tr, scale, derive_seed(seed, 2));
        tr.exit(calibrate);
    }
    out
}

/// `flat.step_span_s` / `flat.deliver_span_s`: seconds per round inside
/// the engine's own `step` and `deliver` spans, read back from the
/// profiler's histograms through the registry.
fn profile_flat(out: &mut Outcome, tr: &mut Tracer, sim: &mut FlatSimulation<UniformLoss>) {
    let registry = MetricsRegistry::new();
    sim.attach_profiler(&registry);
    tr.time("flat.profiled_rounds", (sim.len() * PROFILED_ROUNDS) as u64, || {
        sim.run_rounds(PROFILED_ROUNDS);
    });
    let seconds_per_round = |name: &str| {
        registry.histogram(name, duration_buckets()).sum() as f64 / 1e9 / PROFILED_ROUNDS as f64
    };
    out.per_layer.set("flat.step_span_s", seconds_per_round("sim.profile.step_ns"));
    out.per_layer.set("flat.deliver_span_s", seconds_per_round("sim.profile.deliver_ns"));
}

/// Whether `steady_flat` can move by touching fewer bytes or only by
/// doing fewer operations: computed bytes per step against a sequential
/// read bandwidth measured in this same process.
fn roofline(out: &mut Outcome, tr: &mut Tracer, scale: &Scale, useful: f64, steps_per_sec: f64) {
    let s = protocol().view_size();
    // One node's share of the arena arrays: slot ids (u32) and flags
    // (u8), degree ledger (u32), per-node counters, id → dense index
    // (u32) and the live list entry (2 × u32). An action reads the
    // initiator's share; a useful one also writes the receiver's.
    let node_bytes = s * (4 + 1) + 4 + std::mem::size_of::<NodeStats>() + 4 + 8;
    let bytes_per_step = node_bytes as f64 * (1.0 + useful);
    out.per_layer.set("flat.bytes_per_step_computed", bytes_per_step);

    let words = scale.mem_probe_bytes / 8;
    let buffer: Vec<u64> = (0..words as u64).collect();
    const PASSES: usize = 3;
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        let sum = tr.time("mem.read", words as u64, || {
            black_box(&buffer).iter().fold(0u64, |acc, &w| acc.wrapping_add(w))
        });
        black_box(sum);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let gbps = (words * 8) as f64 / best / 1e9;
    out.per_layer.set("mem.read_gbps", gbps);
    out.per_layer.set("flat.bw_share_computed", bytes_per_step * steps_per_sec / (gbps * 1e9));
}

pub fn run_par(scale: &Scale, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let n = scale.steady_n;
    let rounds = rounds_for(seconds, PAR_ROUNDS_PER_SECOND, 2);
    let mut out = Outcome::new();
    let (mut sim, edges_at_build) =
        setup_engine(&mut out, tr, scale.setup_reps, BURN_IN, &PAR, || {
            ParSimulation::new(
                topology::circulant_iter(n, protocol(), BOOTSTRAP_DEGREE),
                loss(),
                derive_seed(seed, 1),
                1,
            )
        });

    // The par profiler reads the clock three times a round, so it can
    // stay attached through the timed region of the traced run.
    let registry = MetricsRegistry::new();
    if tr.enabled() {
        sim.attach_profiler(&registry);
    }
    let (timed, walls) = timed_rounds(&mut out, tr, &mut sim, rounds, &PAR);
    let rate_1t = out.end_to_end.get("steps_per_sec");
    out.per_layer
        .set("par.round_ns_per_step_1t", walls.iter().sum::<f64>() * 1e9 / out.attempted as f64);
    out.per_layer.set("par.shard_imbalance", sim.shard_imbalance());
    if tr.enabled() {
        for (metric, name) in [
            ("par.action_span_s", "sim.profile.par.action_ns"),
            ("par.merge_span_s", "sim.profile.par.merge_ns"),
            ("par.deliver_span_s", "sim.profile.par.deliver_ns"),
        ] {
            let total_ns = registry.histogram(name, duration_buckets()).sum();
            out.per_layer.set(metric, total_ns as f64 / 1e9);
        }
    }
    verify_steady(&mut out, tr, &mut sim, timed, (n * (BURN_IN + rounds)) as u64, edges_at_build);

    if tr.enabled() {
        let calibrate = tr.enter("calibrate");
        two_threads(&mut out, tr, &mut sim, seconds, rate_1t);
        drop(sim);
        out.per_layer.set("topology.circulant_s", drain_circulant(tr, n));
        par_churn(&mut out, tr, scale, seed);
        kernels::stream_build(&mut out, tr, scale);
        tr.exit(calibrate);
    }
    out
}

/// The 2-thread rate, speed-up and efficiency. On a 2-vCPU box shared
/// with the benchmark's own main thread these spread by ±11 %, which is
/// why they are per-layer figures and the gated rate is the 1-thread one.
fn two_threads(
    out: &mut Outcome,
    tr: &mut Tracer,
    sim: &mut ParSimulation<UniformLoss>,
    seconds: f64,
    rate_1t: f64,
) {
    let rounds = rounds_for(seconds, PAR_2T_ROUNDS_PER_SECOND, 2);
    let n = sim.len() as f64;
    sim.set_threads(2);
    let mut rates = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        tr.time("par.round_2t", n as u64, || sim.round());
        rates.push(n / start.elapsed().as_secs_f64());
    }
    // The same estimator as the 1-thread rate it is compared with.
    let rate_2t = undisturbed_rate(&rates);
    out.per_layer.set("par.steps_per_sec_2t", rate_2t);
    out.per_layer.set("par.speedup_2t", rate_2t / rate_1t);
    out.per_layer.set("par.efficiency_2t", rate_2t / rate_1t / 2.0);
    if let Some((q1, med, q3)) = quartiles_exclusive(&rates) {
        let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        out.checks.note(format!(
            "2-thread per-round rate quartiles {q1:.0} / {med:.0} / {q3:.0} steps/s over {rounds} \
             rounds on {cores} available cores"
        ));
    }
}

/// `par.leave_us` / `par.join_us` from a short churn segment, run once
/// on one thread and once on two from the same seed: the two runs must
/// end in identical `SimStats` and degree histograms (`par.thread_invariant`).
fn par_churn(out: &mut Outcome, tr: &mut Tracer, scale: &Scale, seed: u64) {
    let n = scale.par_churn_n;
    let plan =
        ChurnPlan { per_round: (n / 200).max(1), rounds: PAR_CHURN_ROUNDS, mass_round: None };
    let spans = LayerSpans {
        leave: "par.leave",
        mass_leave: "par.mass_leave",
        join: "par.join_via",
        round: "par.round_churn",
    };
    let mut digests = Vec::with_capacity(2);
    for threads in [1, 2] {
        let mut sim = ParSimulation::new(
            topology::circulant_iter(n, protocol(), BOOTSTRAP_DEGREE),
            loss(),
            derive_seed(seed, 3),
            threads,
        );
        let mut script = ChurnScript::new(&sim, derive_seed(seed, 4));
        for round in 0..plan.rounds {
            script.iteration(&mut sim, &plan, round, &spans, tr);
        }
        sim.settle();
        digests.push(fingerprint(sim.stats(), sim.degree_stats(), &[]));
        if threads == 1 {
            out.per_layer.set("par.leave_us", script.leave_seconds * 1e6 / script.leaves as f64);
            out.per_layer.set("par.join_us", script.join_seconds * 1e6 / script.joins as f64);
            out.failed += script.failed_ops;
        }
    }
    let invariant = digests[0] == digests[1];
    out.per_layer.set("par.thread_invariant", f64::from(u8::from(invariant)));
    out.checks.check(invariant, "par: 1- and 2-thread runs end in identical SimStats", || {
        format!("digests {:#x} vs {:#x}", digests[0], digests[1])
    });
}
