//! Lemmas 6.6 and 6.7: in the steady state the duplication probability
//! equals the loss rate plus the deletion probability, and lies within
//! `[ℓ, ℓ + δ]`.

use sandf::sim::experiment::{steady_state_event_rates, ExperimentParams};
use sandf::{Engine, SfConfig};

fn rates(loss: f64, seed: u64) -> sandf::sim::experiment::EventRates {
    let config = SfConfig::new(40, 18).expect("paper parameters");
    steady_state_event_rates(&ExperimentParams { n: 500, config, loss, burn_in: 400, seed }, 400)
}

#[test]
fn lemma_6_6_dup_equals_loss_plus_del() {
    for (k, loss) in [0.0, 0.01, 0.05, 0.1].into_iter().enumerate() {
        let r = rates(loss, 40 + k as u64);
        let gap = (r.duplication - (r.loss + r.deletion)).abs();
        assert!(
            gap < 0.008,
            "ℓ={loss}: dup {} vs ℓ+del {} (gap {gap})",
            r.duplication,
            r.loss + r.deletion
        );
    }
}

#[test]
fn lemma_6_7_dup_within_the_band() {
    // δ = 0.01 is the design budget of the (18, 40) configuration.
    let delta = 0.01;
    for (k, loss) in [0.01, 0.05, 0.1].into_iter().enumerate() {
        let r = rates(loss, 50 + k as u64);
        assert!(r.duplication >= loss - 0.005, "ℓ={loss}: dup {} below ℓ", r.duplication);
        assert!(r.duplication <= loss + delta + 0.005, "ℓ={loss}: dup {} above ℓ+δ", r.duplication);
    }
}

#[test]
fn observation_6_5_deletions_vanish_with_loss() {
    let low = rates(0.0, 60);
    let high = rates(0.1, 61);
    assert!(
        high.deletion < low.deletion,
        "deletions should shrink with loss: {} -> {}",
        low.deletion,
        high.deletion
    );
    assert!(high.deletion < 0.002, "deletions at 10% loss: {}", high.deletion);
}

#[test]
fn edge_population_is_stationary() {
    // The corollary of Lemma 6.6: the total edge count neither drains nor
    // blows up in the steady state.
    let config = SfConfig::new(40, 18).expect("paper parameters");
    let nodes = sandf::sim::topology::circulant(400, config, 30);
    let mut sim =
        sandf::FlatSimulation::new(nodes, sandf::UniformLoss::new(0.05).expect("valid"), 62);
    sim.run_rounds(400);
    let reference = sim.graph().edge_count() as f64;
    for _ in 0..5 {
        sim.run_rounds(100);
        let now = sim.graph().edge_count() as f64;
        assert!(
            (now - reference).abs() / reference < 0.05,
            "edge population drifted: {reference} -> {now}"
        );
    }
}
