//! PR 5 statistical equivalence: `ParSimulation` is a *distinct
//! statistical mode* of the protocol — per-`(node, round)` RNG streams and
//! a phase-split round (all actions, then all deliveries) — so lockstep
//! equality against the sequential engine is the wrong bar. The right bar
//! is the one the sweep harness already uses: replicated steady-state
//! statistics must agree within 95% confidence intervals.
//!
//! The scheduling-matched flat baseline is `round_permuted` (every live
//! node initiates exactly once per round), not `round` (uniform draws
//! *with replacement*): with-replacement scheduling has Binomial per-round
//! action counts whose heavier tails inflate boundary events (duplications
//! at `d_L`, deletions at `s`) and degree variance — a scheduling
//! difference, not an engine difference. Against the matched baseline, at
//! one fixed parameter point over 5 seeded replicates, we require
//! (via [`Summary::from_samples`]):
//!
//! * duplication rate, drain rate (deletions per send), and indegree
//!   variance within the combined ci95 half-widths, and
//! * indegree mean within ci95 **plus a pinned phase-split allowance**:
//!   because all of a round's actions clear view slots before any of its
//!   deliveries land, receivers are systematically less full at delivery
//!   time, so par deletes slightly less and settles ≈0.5 ids higher at
//!   this scale. The allowance pins that measured bias so it cannot
//!   silently grow.
//!
//! As the absolute anchor, both engines' indegree means must stay within
//! 1.0 of the paper's degree-Markov-chain prediction (`DegreeMc`), so
//! neither mode can drift away from the analysis while staying close to
//! the other. Everything is seeded, so a pass here is a pass in CI.

use sandf_bench::sweep::Summary;
use sandf_core::{SfConfig, SfNode};
use sandf_graph::DegreeStats;
use sandf_markov::{DegreeMc, DegreeMcParams};
use sandf_sim::experiment::initial_degree;
use sandf_sim::{topology, Engine, FlatSimulation, ParSimulation, SimStats, UniformLoss};

const SEEDS: [u64; 5] = [3, 11, 42, 271, 2009];
const N: usize = 192;
const BURN_IN: usize = 60;
const MEASURE: usize = 40;
const LOSS: f64 = 0.01;

/// Measured phase-split bias on the mean indegree at this scale (≈0.52),
/// pinned with headroom but tight enough to catch a real regression.
const PHASE_SPLIT_MEAN_ALLOWANCE: f64 = 0.75;

/// Both engines must land this close to the degree-MC predicted mean.
const MC_MEAN_TOLERANCE: f64 = 1.0;

fn config() -> SfConfig {
    SfConfig::new(16, 6).expect("legal config")
}

/// The bootstrap and channel both engines start from — what
/// `ExperimentParams::build` hands the flat engine at this point.
fn bootstrap() -> (Vec<SfNode>, UniformLoss) {
    let nodes = topology::circulant(N, config(), initial_degree(config(), N));
    (nodes, UniformLoss::new(LOSS).expect("valid rate"))
}

/// The per-replicate metric vector: indegree mean, indegree variance,
/// drain (deletion) rate, duplication rate.
fn metrics(stats: &SimStats, in_degrees: &[usize]) -> [f64; 4] {
    let degrees = DegreeStats::from_samples(in_degrees);
    [
        degrees.mean,
        degrees.std_dev().powi(2),
        stats.deletion_rate().unwrap_or(0.0),
        stats.duplication_rate().unwrap_or(0.0),
    ]
}

/// Flat engine under the scheduling-matched `round_permuted` regime.
fn flat_samples() -> Vec<[f64; 4]> {
    SEEDS
        .iter()
        .map(|&seed| {
            let (nodes, loss) = bootstrap();
            let mut sim = FlatSimulation::new(nodes, loss, seed);
            for _ in 0..BURN_IN {
                sim.round_permuted();
            }
            sim.reset_stats();
            for _ in 0..MEASURE {
                sim.round_permuted();
            }
            metrics(sim.stats(), &sim.graph().in_degrees())
        })
        .collect()
}

/// The classic `Simulation`'s samples under the same regime (one row per
/// seed, columns as [`metrics`]), recorded bit for bit before that
/// per-node reference engine was deleted. The flat engine, its
/// seed-for-seed twin, must still reproduce them exactly.
const CLASSIC_SAMPLES: [[f64; 4]; 5] = [
    [10.1875, 3.8398437499999996, 0.011829197922677438, 0.019619157530294286],
    [10.052083333333334, 4.486870659722228, 0.01443001443001443, 0.017893217893217895],
    [10.072916666666666, 4.421766493055561, 0.018292682926829267, 0.02148664343786295],
    [10.104166666666666, 4.124565972222223, 0.01586851799376594, 0.017568716350240862],
    [10.052083333333334, 4.653537326388894, 0.015968063872255488, 0.019389791844881665],
];

fn par_samples(threads: usize) -> Vec<[f64; 4]> {
    SEEDS
        .iter()
        .map(|&seed| {
            let (nodes, loss) = bootstrap();
            let sim =
                ParSimulation::new(nodes, loss, seed, threads).run_replicate(BURN_IN, MEASURE);
            metrics(sim.stats(), &sim.graph().in_degrees())
        })
        .collect()
}

fn summary(samples: &[[f64; 4]], i: usize) -> Summary {
    let column: Vec<f64> = samples.iter().map(|s| s[i]).collect();
    Summary::from_samples(&column)
}

#[test]
fn par_statistics_agree_with_classic_within_ci95() {
    let flat = flat_samples();
    for (seed, (f, c)) in SEEDS.iter().zip(flat.iter().zip(&CLASSIC_SAMPLES)) {
        let same = f.iter().zip(c).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "seed {seed}: flat {f:?} left the classic engine's samples {c:?}");
    }
    let par = par_samples(2);
    for (i, name) in [(1, "indegree_variance"), (2, "drain_rate"), (3, "duplication_rate")] {
        let c = summary(&CLASSIC_SAMPLES, i);
        let p = summary(&par, i);
        let gap = (c.mean - p.mean).abs();
        let band = c.ci95 + p.ci95;
        assert!(
            gap <= band,
            "{name}: par {:.4}±{:.4} vs classic {:.4}±{:.4} — gap {gap:.4} exceeds the \
             combined ci95 band {band:.4}",
            p.mean,
            p.ci95,
            c.mean,
            c.ci95,
        );
    }
}

#[test]
fn par_statistics_agree_with_flat_within_ci95() {
    let flat = flat_samples();
    let par = par_samples(2);
    for (i, name) in [(1, "indegree_variance"), (2, "drain_rate"), (3, "duplication_rate")] {
        let c = summary(&flat, i);
        let p = summary(&par, i);
        let gap = (c.mean - p.mean).abs();
        let band = c.ci95 + p.ci95;
        assert!(
            gap <= band,
            "{name}: par {:.4}±{:.4} vs flat {:.4}±{:.4} — gap {gap:.4} exceeds the \
             combined ci95 band {band:.4}",
            p.mean,
            p.ci95,
            c.mean,
            c.ci95,
        );
    }
}

#[test]
fn par_indegree_mean_is_within_the_pinned_phase_split_band() {
    let c = summary(&flat_samples(), 0);
    let p = summary(&par_samples(2), 0);
    let gap = (c.mean - p.mean).abs();
    let band = c.ci95 + p.ci95 + PHASE_SPLIT_MEAN_ALLOWANCE;
    assert!(
        gap <= band,
        "indegree mean: par {:.4}±{:.4} vs flat {:.4}±{:.4} — gap {gap:.4} exceeds \
         ci95 + the pinned phase-split allowance ({band:.4})",
        p.mean,
        p.ci95,
        c.mean,
        c.ci95,
    );
}

#[test]
fn both_engines_track_the_degree_mc_prediction() {
    let mc = DegreeMc::solve(DegreeMcParams::new(config(), LOSS)).expect("chain converges");
    let predicted = mc.mean_in();
    for (name, samples) in [("flat", flat_samples()), ("par", par_samples(2))] {
        let measured = summary(&samples, 0).mean;
        assert!(
            (measured - predicted).abs() <= MC_MEAN_TOLERANCE,
            "{name}: measured mean indegree {measured:.4} is more than \
             {MC_MEAN_TOLERANCE} from the degree-MC prediction {predicted:.4}"
        );
    }
}
