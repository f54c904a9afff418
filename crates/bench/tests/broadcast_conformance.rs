//! PR 10 statistical conformance: rumor spread time must *agree* with the
//! Doerr et al. `log₂ n + ln n` yardstick where agreement is the correct
//! answer, and must *disagree* where it is not — both directions are
//! load-bearing, mirroring the PR 6 scenario envelope.
//!
//! **Agreement** — fanout-1 push over live S&F views bootstrapped from a
//! seeded random topology is (approximately) the random phone-call model
//! the bound is stated for: the measured rounds-to-99 % must sit within
//! `ci95 + DOERR_TOLERANCE_ROUNDS` of `log₂ n + ln n`, at n = 10³ and
//! n = 10⁴. The tolerance absorbs what the model idealizes away — views
//! of size ~16 instead of fresh uniform samples, 1 % membership-channel
//! loss, and the 99 % milestone sitting slightly off the bound's
//! `n − o(n)` regime. It is pinned tight: calibration runs put the gap at
//! ~0.7 rounds (n = 10³) and ~1.3 rounds (n = 10⁴).
//!
//! **Divergence** — a hard 2-region partition of the *rumor* channel
//! must leave the prediction band decisively: coverage saturates near the
//! origin region's share and the 99 % milestone is never reached. If the
//! gap ever becomes marginal, the conformance harness has lost its
//! detection power and a partitioned dissemination could masquerade as
//! healthy spread.
//!
//! **Heal** — the same partition, healed a few rounds after the rumor
//! starts, must land strictly between the two: the rumor channel runs a
//! round-indexed fault, so a rumor can start inside a partition and
//! finish after the heal.

use sandf_bench::sweep::Summary;
use sandf_core::SfConfig;
use sandf_sim::{
    doerr_spread_prediction, topology, BroadcastConfig, BroadcastLayer, Engine, FlatSimulation,
    PhaseFault, SpreadReport, UniformLoss,
};

/// Additive slack (in rounds) around the `log₂ n + ln n` prediction; see
/// the module docs for what it absorbs and the calibrated gaps.
const DOERR_TOLERANCE_ROUNDS: f64 = 2.5;

/// Pinned minimum relative gap for the divergence direction: the
/// partition run's (sentinel) spread time must exceed the prediction by
/// at least this factor.
const PARTITION_MIN_GAP: f64 = 2.0;

const SEEDS: [u64; 5] = [3, 11, 42, 271, 2009];
const BURN_IN: usize = 20;
const ROUNDS: usize = 60;

/// Rumor rounds the healed partition lasts.
const HEAL_AFTER: usize = 6;

/// A hard 2-region partition over membership rounds `[0, rounds)`.
fn hard_partition(rounds: usize) -> PhaseFault {
    PhaseFault::Partition { regions: 2, start: 0, duration: rounds as u64, sever: 1.0, base: 0.0 }
}

/// One lossless-rumor spread over live S&F views (1 % membership loss —
/// the rumor channel, not the membership channel, is the lossless part).
fn spread(n: usize, seed: u64, channel: PhaseFault) -> SpreadReport {
    let config = SfConfig::new(16, 6).expect("legal config");
    let mut sim = FlatSimulation::new(
        topology::random_iter(n, config, 8, seed),
        UniformLoss::new(0.01).expect("valid rate"),
        seed,
    );
    sim.run_rounds(BURN_IN);
    let mut layer = BroadcastLayer::with_channel(seed, BroadcastConfig::default(), channel);
    let origin = Engine::live_ids(&sim).into_iter().min().expect("non-empty sim");
    layer.seed_rumor_at(origin);
    layer.run(&mut sim, ROUNDS);
    layer.report()
}

/// `to_99` with the `rounds + 1` sentinel for never-reached, as a sample.
fn to_99_sample(report: &SpreadReport) -> f64 {
    report.to_99.map_or((ROUNDS + 1) as f64, |r| r as f64)
}

fn to_99_summary(n: usize, channel: &PhaseFault) -> Summary {
    let samples: Vec<f64> =
        SEEDS.iter().map(|&seed| to_99_sample(&spread(n, seed, channel.clone()))).collect();
    Summary::from_samples(&samples)
}

#[test]
fn lossless_spread_time_tracks_the_doerr_prediction() {
    for n in [1_000usize, 10_000] {
        let measured = to_99_summary(n, &PhaseFault::Uniform(UniformLoss::none()));
        let predicted = doerr_spread_prediction(n);
        let gap = (measured.mean - predicted).abs();
        let band = measured.ci95 + DOERR_TOLERANCE_ROUNDS;
        assert!(
            gap <= band,
            "n = {n}: rounds-to-99% {:.2}±{:.2} strays {gap:.2} rounds from the \
             log₂n+ln n prediction {predicted:.2} (band {band:.2})",
            measured.mean,
            measured.ci95,
        );
    }
}

#[test]
fn hard_partition_leaves_the_doerr_band_proving_detection_power() {
    let n = 1_000usize;
    let channel = hard_partition(BURN_IN + ROUNDS);
    let measured = to_99_summary(n, &channel);
    let predicted = doerr_spread_prediction(n);
    // The sentinel must dominate: 99 % is unreachable when half the
    // system is unreachable, so the gap is decisive, not marginal.
    let gap = (measured.mean - predicted) / predicted;
    assert!(
        gap >= PARTITION_MIN_GAP,
        "hard-partition spread time {:.2} is only {gap:.2}× beyond the prediction \
         {predicted:.2} — the conformance check has lost its detection power",
        measured.mean,
    );
    // And the mechanism must be the predicted one: the rumor saturates
    // the origin's region and never crosses.
    let report = spread(n, SEEDS[0], channel);
    assert!(
        report.coverage <= 0.5 + 0.01,
        "partition coverage {:.4} exceeds the origin region's share",
        report.coverage
    );
    assert!(report.to_99.is_none(), "99 % coverage should be unreachable under a hard partition");
}

#[test]
fn a_partition_healed_mid_rumor_lands_between_lossless_and_never_healed() {
    let n = 1_000usize;
    let lossless = to_99_summary(n, &PhaseFault::Uniform(UniformLoss::none()));
    let healed = to_99_summary(n, &hard_partition(BURN_IN + HEAL_AFTER));
    let never = to_99_summary(n, &hard_partition(BURN_IN + ROUNDS));
    assert!(
        lossless.mean < healed.mean && healed.mean < never.mean,
        "rounds-to-99%: lossless {:.2}, healed after {HEAL_AFTER} rounds {:.2}, never healed {:.2}",
        lossless.mean,
        healed.mean,
        never.mean,
    );
}
