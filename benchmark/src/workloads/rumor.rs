//! `rumor_push`: a fanout-1 push rumour riding the live views of a flat
//! simulation over a random overlay — the only workload where
//! `sim::broadcast` runs and the only one with application-level outcome
//! metrics (the Doerr et al. `log₂n + ln n` yardstick).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_sim::{
    doerr_spread_prediction, topology, BroadcastConfig, BroadcastLayer, FlatSimulation,
    RumorChannel, UniformLoss,
};

use super::steady::{record_flat_rounds, setup_engine, FLAT};
use super::{derive_seed, kernels, protocol, record_run_end, Outcome, Scale, LOSS};
use crate::trace::Tracer;
use crate::verify::{fingerprint, ledger, observation_5_1};

/// Bootstrap outdegree of the random overlay.
const RANDOM_DEGREE: usize = 8;
const BURN_IN: usize = 4;
/// Rumour rounds per epoch; `msgs_per_node` is read at this horizon.
const HORIZON: usize = 40;
/// One 40-round epoch (≈13 s at n=5×10⁵) per this many `--seconds`.
const SECONDS_PER_EPOCH: f64 = 10.0;
/// Coverage every epoch must reach by the horizon.
const REQUIRED_COVERAGE: f64 = 0.999;

pub fn run(scale: &Scale, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let config = protocol();
    let n = scale.rumor_n;
    let epochs = ((seconds / SECONDS_PER_EPOCH).round() as usize).max(1);
    let mut out = Outcome::new();
    let (mut sim, _) = setup_engine(&mut out, tr, scale.setup_reps, BURN_IN, &FLAT, || {
        FlatSimulation::new(
            topology::random_iter(n, config, RANDOM_DEGREE, derive_seed(seed, 1)),
            UniformLoss::new(LOSS).expect("valid loss rate"),
            derive_seed(seed, 2),
        )
    });

    let mut origins = StdRng::seed_from_u64(derive_seed(seed, 3));
    let before = *sim.stats();
    let mut rounds: Vec<(u64, f64)> = Vec::with_capacity(epochs * HORIZON);
    let mut step_s = 0.0;
    let mut layers = Vec::with_capacity(epochs);

    let timed = tr.enter("timed");
    let region = Instant::now();
    for epoch in 0..epochs {
        // The first rumour starts at the smallest live id, later ones at
        // an origin the benchmark draws.
        let live = sim.live_ids();
        let origin = if epoch == 0 {
            *live.iter().min().expect("a live node")
        } else {
            live[origins.gen_range(0..live.len())]
        };
        let mut layer = BroadcastLayer::with_channel(
            derive_seed(seed, 10 + epoch as u64),
            BroadcastConfig::push(1, u8::MAX),
            RumorChannel::Uniform { rate: LOSS },
        );
        layer.seed_rumor_at(origin);
        for _ in 0..HORIZON {
            let start = Instant::now();
            tr.time("flat.round", n as u64, || sim.round());
            let stepped = Instant::now();
            rounds.push((n as u64, (stepped - start).as_secs_f64()));
            tr.time("broadcast.step", n as u64, || layer.step(&sim));
            step_s += stepped.elapsed().as_secs_f64();
        }
        layers.push(layer);
    }
    let wall = region.elapsed().as_secs_f64();
    tr.exit(timed);

    let actions = sim.stats().actions - before.actions;
    let first = layers[0].report();
    let messages: u64 = layers.iter().map(|l| l.stats().messages()).sum();
    out.attempted = actions + messages;
    out.end_to_end.set("steps_per_sec", actions as f64 / wall);
    out.end_to_end.set("msgs_per_node", first.stats.messages() as f64 / n as f64);
    if let Some(to_99) = first.to_99 {
        out.end_to_end.set("rounds_to_99", to_99 as f64);
    }
    let useful = (sim.stats().sent - before.sent) as f64 / actions as f64;
    record_flat_rounds(&mut out, &rounds, useful);
    let membership_s: f64 = rounds.iter().map(|r| r.1).sum();
    out.per_layer.set("broadcast.step_s", step_s);
    out.per_layer.set("broadcast.step_ns_per_node", step_s * 1e9 / (rounds.len() * n) as f64);
    out.per_layer.set("broadcast.membership_share", membership_s / wall);
    out.per_layer.set("broadcast.sent", first.stats.sent as f64);
    out.per_layer.set("broadcast.lost", first.stats.lost as f64);
    out.per_layer.set("broadcast.duplicates", first.stats.duplicates as f64);
    out.per_layer.set(
        "broadcast.duplicate_share",
        first.stats.duplicates as f64 / first.stats.delivered.max(1) as f64,
    );
    out.per_layer.set("broadcast.to_half", first.to_half.unwrap_or(0) as f64);

    let verify = tr.enter("verify");
    let start = Instant::now();
    sim.settle();
    let stats = *sim.stats();
    ledger(&mut out.checks, &stats, (n * (BURN_IN + epochs * HORIZON)) as u64, sim.in_flight());
    out.failed += observation_5_1(&mut out.checks, sim.degree_stats(), config);
    for (epoch, layer) in layers.iter().enumerate() {
        let report = layer.report();
        let covered = report.coverage >= REQUIRED_COVERAGE && report.to_99.is_some();
        out.failed += u64::from(!covered);
        out.checks.check(covered, "rumour coverage >= 0.999 at the 40-round horizon", || {
            format!("epoch {epoch}: coverage {:.5}, to_99 {:?}", report.coverage, report.to_99)
        });
        let s = layer.stats();
        out.checks.check(
            s.sent == s.lost + s.dead_letters + s.delivered,
            "rumour ledger: sent = lost + dead_letters + delivered",
            || format!("epoch {epoch}: {s:?}"),
        );
    }
    out.checks.note(format!(
        "rounds_to_99 {:?} against the Doerr et al. yardstick log2 n + ln n = {:.1}",
        first.to_99,
        doerr_spread_prediction(n)
    ));
    let digests: Vec<u64> = layers.iter().map(BroadcastLayer::fingerprint).collect();
    out.fingerprint = Some(fingerprint(&stats, sim.degree_stats(), &digests));
    let verify_s = start.elapsed().as_secs_f64();
    tr.exit(verify);
    record_run_end(&mut out, tr, timed, verify_s);

    if tr.enabled() {
        let calibrate = tr.enter("calibrate");
        drop(sim);
        let start = Instant::now();
        tr.time("topology.random", n as u64, || {
            let edges: usize =
                topology::random_iter(n, config, RANDOM_DEGREE, derive_seed(seed, 1))
                    .map(|v| v.out_degree())
                    .sum();
            black_box(edges);
        });
        out.per_layer.set("topology.random_s", start.elapsed().as_secs_f64());
        kernels::stream_build(&mut out, tr, scale);
        tr.exit(calibrate);
    }
    out
}
