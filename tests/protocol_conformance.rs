//! Conformance suite for the unified engine/protocol matrix: every
//! protocol in the zoo (the three Section 3.1 baselines and the three
//! Section 5 variants) runs on both fast engines (`FlatSimulation`,
//! `ParSimulation`) through [`ProtocolBehavior`], and each (engine,
//! protocol) pair is checked for
//!
//! 1. **degree bounds** — outdegrees never exceed the slot capacity `s`,
//!    and for the S&F family (variants) the full Observation 5.1 band
//!    (even, inside `[d_L, s]`) holds;
//! 2. **id provenance** — views only ever hold ids the system assigned
//!    (a forged id would expose e.g. a sentinel leak in the arena slot
//!    encoding);
//! 3. **statistical agreement** — for shuffle and push-pull, the two
//!    engines agree within overlapping 95% confidence bands over seed
//!    replicates (the flat engine itself is held to each behavior's exact
//!    one-step law by `tests/exact_step_law.rs`, so this pins par to it);
//! 4. **Section 3.1 drainage ordering** at n = 10⁴ — the shuffle
//!    population drains under loss while S&F holds its band.

use proptest::collection::vec;
use proptest::prelude::*;
use sandf::baselines::{PushOnlyBehavior, PushPullBehavior, ShuffleBehavior};
use sandf::variants::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};
use sandf::{
    Engine, FlatSimulation, NodeId, ParSimulation, ProtocolBehavior, SfConfig, UniformLoss,
};

/// Ring bootstrap: node `i`'s view is the next `k` ids around the ring.
fn ring_views(n: usize, k: usize) -> Vec<(NodeId, Vec<NodeId>)> {
    (0..n as u64)
        .map(|i| {
            let view: Vec<NodeId> =
                (1..=k as u64).map(|d| NodeId::new((i + d) % n as u64)).collect();
            (NodeId::new(i), view)
        })
        .collect()
}

fn loss(rate: f64) -> UniformLoss {
    UniformLoss::new(rate).expect("valid rate")
}

/// Degree-bound + id-provenance schedule for one (engine, protocol)
/// pair. `band` additionally enforces the Observation 5.1 band (even
/// degrees in `[d_L, s]`) — on for the S&F variants, off for the
/// baselines (which obey only the capacity bound).
fn bounds_hold<E: Engine>(
    mut sim: E,
    n: usize,
    config: SfConfig,
    leaves: &[u8],
    rounds: usize,
    band: bool,
) -> Result<(), TestCaseError> {
    let mut live: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
    for &x in leaves {
        sim.run_rounds(rounds);
        if live.len() > n / 2 {
            let id = live[usize::from(x) % live.len()];
            prop_assert!(sim.leave(id), "{} should have been live", id);
            live.retain(|&v| v != id);
        }
        let graph = sim.graph();
        for d in graph.out_degrees() {
            prop_assert!(d <= config.view_size(), "outdegree {} exceeds s", d);
            if band {
                prop_assert_eq!(d % 2, 0, "odd outdegree");
                prop_assert!(d >= config.lower_threshold(), "outdegree {} below d_L", d);
            }
        }
        for &u in graph.ids() {
            for v in graph.out_neighbors(u).expect("id comes from the graph") {
                prop_assert!(
                    v.as_u64() < n as u64,
                    "view of {} holds {}, an id the system never assigned",
                    u,
                    v
                );
            }
        }
    }
    Ok(())
}

const N: usize = 24;

fn zoo_config() -> SfConfig {
    SfConfig::new(8, 2).expect("legal config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Baselines × {flat, par}: capacity bound + provenance under random
    /// loss rates, churn (leaves), and round counts.
    #[test]
    fn baselines_respect_bounds_on_both_engines(
        leaves in vec(any::<u8>(), 1..5),
        rate_milli in 0..300u32,
        seed in any::<u64>(),
    ) {
        let config = zoo_config();
        let l = loss(f64::from(rate_milli) / 1000.0);
        let views = ring_views(N, 4);
        bounds_hold(
            FlatSimulation::from_views(PushOnlyBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            ParSimulation::from_views(PushOnlyBehavior, config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            FlatSimulation::from_views(PushPullBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            ParSimulation::from_views(PushPullBehavior::new(3), config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            FlatSimulation::from_views(ShuffleBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, false,
        )?;
        bounds_hold(
            ParSimulation::from_views(ShuffleBehavior::new(3), config, views, l, seed, 2),
            N, config, &leaves, 2, false,
        )?;
    }

    /// Variants × {flat, par}: the full Observation 5.1 band (even
    /// degrees in `[d_L, s]`) plus provenance. Replace and undelete keep
    /// the vanilla two-slot draws; batched clears `b + 1` at a time with
    /// odd `b`, preserving parity.
    #[test]
    fn variants_respect_the_band_on_both_engines(
        leaves in vec(any::<u8>(), 1..5),
        rate_milli in 0..300u32,
        seed in any::<u64>(),
    ) {
        let config = zoo_config();
        let l = loss(f64::from(rate_milli) / 1000.0);
        let views = ring_views(N, 4);
        bounds_hold(
            FlatSimulation::from_views(ReplaceBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            ParSimulation::from_views(ReplaceBehavior, config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            FlatSimulation::from_views(UndeleteBehavior, config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            ParSimulation::from_views(UndeleteBehavior, config, views.clone(), l, seed, 2),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            FlatSimulation::from_views(BatchedBehavior::new(3), config, views.clone(), l, seed),
            N, config, &leaves, 2, true,
        )?;
        bounds_hold(
            ParSimulation::from_views(BatchedBehavior::new(3), config, views, l, seed, 2),
            N, config, &leaves, 2, true,
        )?;
    }
}

// ---------------------------------------------------------------------
// Statistical agreement: flat vs. par.
// ---------------------------------------------------------------------

/// Mean and 95% confidence half-width over replicates.
fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let k = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / k;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
    (mean, 1.96 * (var / k).sqrt())
}

fn assert_bands_overlap(label: &str, a: (f64, f64), b: (f64, f64), allowance: f64) {
    assert!(
        (a.0 - b.0).abs() <= a.1 + b.1 + allowance,
        "{label}: ci95 bands disjoint — {:.1}±{:.1} vs {:.1}±{:.1}",
        a.0,
        a.1,
        b.0,
        b.1
    );
}

const AGREE_N: usize = 400;
const AGREE_BOOT: usize = 6;
const AGREE_LOSS: f64 = 0.08;
const AGREE_SEEDS: u64 = 12;

/// Agreement runs use a roomy capacity (s = 16 for views of 6) and low
/// per-exchange mobility, so the statistic tracks the *protocol's* id
/// dynamics rather than scheduling artifacts. Par's phase-split round
/// (all sends, then all deliveries, then reply waves) is a documented
/// distinct statistical mode (see `par_statistics.rs`): under heavy slot
/// pressure or high per-round id mobility, its within-round ordering
/// differences dominate the comparison without any protocol drift.
fn agree_config() -> SfConfig {
    SfConfig::new(16, 2).expect("legal config")
}

/// Pinned phase-split bias allowance for par on the push-pull growth
/// statistic. Flat's within-round delivery lets freshly pushed ids
/// attract more same-round traffic, skewing arrivals toward full views
/// (more capacity overwrites, fewer net inserts); par's phase split
/// spreads arrivals evenly. Measured bias ≈ 71 ids at these parameters;
/// pinned with headroom but tight enough that a real drift (e.g. the
/// ≈ 390-id gap a reply-size-3 run exposes) still fails.
const PAR_PUSH_PULL_ALLOWANCE: f64 = 150.0;

fn flat_total_ids<B: ProtocolBehavior>(behavior: B, rounds: usize, seed: u64) -> f64 {
    let mut sim = FlatSimulation::from_views(
        behavior,
        agree_config(),
        ring_views(AGREE_N, AGREE_BOOT),
        loss(AGREE_LOSS),
        seed,
    );
    sim.run_rounds(rounds);
    sim.graph().edge_count() as f64
}

fn par_total_ids<B: ProtocolBehavior>(behavior: B, rounds: usize, seed: u64) -> f64 {
    let mut sim = ParSimulation::from_views(
        behavior,
        agree_config(),
        ring_views(AGREE_N, AGREE_BOOT),
        loss(AGREE_LOSS),
        seed,
        2,
    );
    sim.run_rounds(rounds);
    sim.graph().edge_count() as f64
}

/// Shuffle: the two engines agree on the total surviving id instances
/// after 12 lossy rounds (ci95 over 12 seeds), strictly.
#[test]
fn shuffle_agrees_across_engines() {
    let rounds = 12;
    let flat_ids: Vec<f64> = (0..AGREE_SEEDS)
        .map(|seed| flat_total_ids(ShuffleBehavior::new(2), rounds, seed))
        .collect();
    let par_ids: Vec<f64> =
        (0..AGREE_SEEDS).map(|seed| par_total_ids(ShuffleBehavior::new(2), rounds, seed)).collect();
    let (f, p) = (mean_ci(&flat_ids), mean_ci(&par_ids));
    assert_bands_overlap("shuffle flat vs par", f, p, 0.0);
    // Sanity: the comparison is meaningful only if loss actually drained
    // ids (otherwise both trivially sit at the initial count).
    let initial = (AGREE_N * AGREE_BOOT) as f64;
    assert!(f.0 < initial * 0.95, "no drainage — the agreement check is vacuous");
}

/// Push-pull: the same comparison on the growth statistic (it only copies
/// ids, so the population grows toward capacity), with par's pinned
/// phase-split allowance.
#[test]
fn push_pull_agrees_across_engines() {
    let rounds = 4;
    let flat_ids: Vec<f64> = (0..AGREE_SEEDS)
        .map(|seed| flat_total_ids(PushPullBehavior::new(1), rounds, seed))
        .collect();
    let par_ids: Vec<f64> = (0..AGREE_SEEDS)
        .map(|seed| par_total_ids(PushPullBehavior::new(1), rounds, seed))
        .collect();
    let (f, p) = (mean_ci(&flat_ids), mean_ci(&par_ids));
    assert_bands_overlap("push-pull flat vs par", f, p, PAR_PUSH_PULL_ALLOWANCE);
    let initial = (AGREE_N * AGREE_BOOT) as f64;
    assert!(f.0 > initial * 1.05, "no growth — the agreement check is vacuous");
}

/// Section 3.1 drainage ordering at n = 10⁴: under the same uniform
/// loss, the shuffle population loses a visible fraction of its ids
/// while S&F (whose compensation floor replenishes deletions) keeps its
/// total at or above the `d_L · n` band floor — and strictly above
/// shuffle. Runs on the flat engine, which makes n = 10⁴ cheap.
#[test]
fn drainage_ordering_holds_at_ten_thousand_nodes() {
    let n = 10_000;
    let config = zoo_config();
    let rate = 0.10;
    let rounds = 50;
    let initial = (n * 4) as f64;

    let mut shuffle = FlatSimulation::from_views(
        ShuffleBehavior::new(3),
        config,
        ring_views(n, 4),
        loss(rate),
        7,
    );
    shuffle.run_rounds(rounds);
    let shuffle_total = shuffle.graph().edge_count() as f64;

    let mut sf =
        FlatSimulation::from_views(sandf::SfBehavior, config, ring_views(n, 4), loss(rate), 7);
    sf.run_rounds(rounds);
    let sf_total = sf.graph().edge_count() as f64;

    assert!(
        shuffle_total < initial * 0.90,
        "shuffle should drain under {rate} loss: {shuffle_total} of {initial}"
    );
    assert!(
        sf_total >= (config.lower_threshold() * n) as f64,
        "S&F fell through the d_L band floor: {sf_total}"
    );
    assert!(
        sf_total > shuffle_total,
        "drainage ordering inverted: S&F {sf_total} ≤ shuffle {shuffle_total}"
    );
}
