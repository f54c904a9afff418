//! PR 6 statistical envelope: the scenario runner's measurements must
//! *agree* with the references where agreement is the correct answer, and
//! must *disagree* where it is not — both directions are load-bearing.
//!
//! **Agreement** — a pure uniform-loss scenario is the paper's own model,
//! so its measured mean indegree must sit inside the CI band around
//! the §6.2 degree-MC prediction (the `par_statistics.rs` anchor), and
//! within the combined ci95 of a scheduling-matched flat-engine
//! baseline (`round_permuted`), plus the pinned phase-split allowance the
//! par engine is known to carry.
//!
//! **Divergence** — a long hard 2-region partition has the *same marginal
//! loss rate* (0.5) as a uniform channel, but utterly different dynamics:
//! cross-region entries are destroyed on every send attempt while
//! in-region gossip keeps succeeding, so views purify regionally, the
//! realized loss rate decays far below the marginal, and the indegree
//! recovers toward the lossless value — which the degree MC at ℓ = 0.5
//! cannot predict. The envelope must flag this `OUT`; if it ever stops
//! doing so, the harness has lost its detection power and a correlated
//! fault could masquerade as uniform loss.

use sandf_bench::scenario::{run_scenario, Scenario, MC_MEAN_TOLERANCE};
use sandf_bench::sweep::Summary;
use sandf_core::SfConfig;
use sandf_graph::DegreeStats;
use sandf_obs::MetricsRegistry;
use sandf_sim::{topology, Engine, FlatSimulation, UniformLoss};

/// Measured phase-split bias allowance, as pinned by `par_statistics.rs`.
const PHASE_SPLIT_MEAN_ALLOWANCE: f64 = 0.75;

const FLAT_SEEDS: [u64; 5] = [3, 11, 42, 271, 2009];
const ROUNDS: usize = 100;
const LOSS: f64 = 0.01;

const UNIFORM_SPEC: &str = "\
scenario uniform-envelope
n 192
view 16 6
degree 12
replicates 5
seed 2009
burn_in 0

phase 100 uniform 0.01
";

const PARTITION_SPEC: &str = "\
scenario hard-partition
n 96
view 16 6
degree 10
replicates 5
seed 2009
burn_in 10

phase 200 partition 2 1 0
";

fn flat_mean_indegree() -> Summary {
    let config = SfConfig::new(16, 6).expect("legal config");
    let samples: Vec<f64> = FLAT_SEEDS
        .iter()
        .map(|&seed| {
            let nodes = topology::circulant(192, config, 12);
            let loss = UniformLoss::new(LOSS).expect("valid rate");
            let mut sim = FlatSimulation::new(nodes, loss, seed);
            for _ in 0..ROUNDS {
                sim.round_permuted();
            }
            DegreeStats::from_samples(&sim.graph().in_degrees()).mean
        })
        .collect();
    Summary::from_samples(&samples)
}

#[test]
fn uniform_scenario_agrees_with_the_degree_mc_prediction() {
    let scenario = Scenario::parse(UNIFORM_SPEC).expect("spec parses");
    let report = run_scenario(&scenario, 2, &MetricsRegistry::new());
    let row = &report.outcomes[0];
    assert_eq!(
        row.within_envelope(MC_MEAN_TOLERANCE),
        Some(true),
        "uniform loss is the paper's model; measured {:.4}±{:.4} must sit within \
         {MC_MEAN_TOLERANCE} + ci95 of the degree-MC prediction {:?}",
        row.summary("mean_in").mean,
        row.summary("mean_in").ci95,
        row.mc_mean,
    );
    // The realized per-send loss rate must track the configured rate.
    assert!(
        (row.summary("loss_rate").mean - LOSS).abs()
            <= 3.0 * row.summary("loss_rate").ci95.max(0.003),
        "realized loss rate {:.4} strays from the configured {LOSS}",
        row.summary("loss_rate").mean
    );
}

#[test]
fn uniform_scenario_agrees_with_the_flat_engine_within_ci95() {
    let scenario = Scenario::parse(UNIFORM_SPEC).expect("spec parses");
    let report = run_scenario(&scenario, 2, &MetricsRegistry::new());
    let measured = report.outcomes[0].summary("mean_in");
    let flat = flat_mean_indegree();
    let gap = (measured.mean - flat.mean).abs();
    let band = measured.ci95 + flat.ci95 + PHASE_SPLIT_MEAN_ALLOWANCE;
    assert!(
        gap <= band,
        "scenario runner {:.4}±{:.4} vs flat baseline {:.4}±{:.4} — gap {gap:.4} \
         exceeds the combined ci95 + phase-split allowance ({band:.4})",
        measured.mean,
        measured.ci95,
        flat.mean,
        flat.ci95,
    );
}

#[test]
fn hard_partition_fails_the_envelope_proving_detection_power() {
    let scenario = Scenario::parse(PARTITION_SPEC).expect("spec parses");
    let report = run_scenario(&scenario, 2, &MetricsRegistry::new());
    let row = &report.outcomes[0];
    assert_eq!(
        row.within_envelope(MC_MEAN_TOLERANCE),
        Some(false),
        "a 200-round hard partition must escape the uniform envelope: measured \
         {:.4}±{:.4} vs predicted {:?} — if this is now inside the band, the \
         envelope has lost its detection power",
        row.summary("mean_in").mean,
        row.summary("mean_in").ci95,
        row.mc_mean,
    );
    // The gap should be decisive, not marginal.
    let gap = row.mc_gap().expect("the degree MC converges at 0.5");
    assert!(gap >= 2.0, "divergence gap {gap:.4} has become marginal");
    // And the mechanism must be the predicted one: regional view
    // purification collapses the realized loss rate far below the 0.5
    // marginal rate a uniform channel would hold.
    assert!(
        row.summary("loss_rate").mean < row.effective_rate - 0.1,
        "realized loss {:.4} no longer decays below the marginal {:.4} — the \
         purification dynamic changed",
        row.summary("loss_rate").mean,
        row.effective_rate,
    );
}
