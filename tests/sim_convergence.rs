//! Convergence from poor initial topologies: the paper's Properties M2
//! (load balance) and M4 (spatial independence) must emerge "starting from
//! any initial state" that is sufficiently connected.

use sandf::sim::topology;
use sandf::{DegreeStats, Engine, FlatSimulation, SfConfig, UniformLoss};

fn converged_from(nodes: Vec<sandf::SfNode>, seed: u64) -> FlatSimulation<UniformLoss> {
    let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01).expect("valid"), seed);
    sim.run_rounds(500);
    sim
}

#[test]
fn hub_cluster_balances_out() {
    // Six hubs start with all the indegree (~n/6·d0 each); Property M2
    // demands the system spread that load. The hub-cluster start is the
    // harshest imbalance that still satisfies the paper's joining rule
    // (outdegree ≥ d_L).
    // NOTE: a hub start violates Assumption 7.7 (all views identical →
    // α ≪ 2/3), so the §7.4 connectivity guarantee does not apply and a
    // stray node pair occasionally isolates itself before mixing in
    // (observed in ~1/3 of seeds at d_L = 6). Tolerate up to one such pair;
    // the load-balance claim is about the bulk.
    let config = SfConfig::new(16, 6).expect("legal");
    let n = 200;
    let sim = converged_from(topology::hub_cluster(n, config, 6), 1);
    let graph = sim.graph();
    assert!(graph.weakly_connected_components() <= 2, "more than one straggler component");
    let stats = DegreeStats::from_samples(&graph.in_degrees());
    let hub_in = graph.in_degree(sandf::NodeId::new(0)).expect("hub is live") as f64;
    assert!(
        hub_in < stats.mean + 6.0 * stats.std_dev().max(1.0),
        "hub indegree {hub_in} still an outlier (mean {}, std {})",
        stats.mean,
        stats.std_dev()
    );
    assert!(stats.std_dev() < stats.mean, "indegree spread did not tighten: {stats:?}");
}

#[test]
fn star_below_dl_is_the_documented_pathology() {
    // The star start (outdegree 2 < d_L = 6) violates the Section 5 joining
    // precondition; the paper's convergence guarantees do NOT apply, and
    // indeed healing is glacial. Pin that observed behavior so the builder's
    // documentation stays honest.
    let config = SfConfig::new(16, 6).expect("legal");
    let sim = converged_from(topology::star(200, config), 3);
    let graph = sim.graph();
    let mean_out = DegreeStats::from_samples(&graph.out_degrees()).mean;
    assert!(
        mean_out < 8.0,
        "star healed unexpectedly fast (mean outdegree {mean_out}); update the docs!"
    );
}

#[test]
fn ring_topology_develops_random_structure() {
    let config = SfConfig::new(16, 6).expect("legal");
    let n = 200;
    let sim = converged_from(topology::ring(n, config), 2);
    let graph = sim.graph();
    assert!(graph.is_weakly_connected());
    // A ring has indegree exactly 2 everywhere; after convergence the mean
    // indegree should sit near the steady-state outdegree, far above 2.
    let stats = DegreeStats::from_samples(&graph.in_degrees());
    assert!(stats.mean > 6.0, "views never grew: {stats:?}");
    // Spatial independence: most entries independent despite the fully
    // dependent start.
    let report = sim.dependence();
    assert!(
        report.independent_fraction() > 0.85,
        "dependence stuck at {}",
        report.independent_fraction()
    );
}

#[test]
fn random_topologies_with_different_seeds_converge_to_similar_statistics() {
    let config = SfConfig::new(16, 6).expect("legal");
    let mut means = Vec::new();
    for seed in 0..3u64 {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let nodes = topology::random(150, config, 8, &mut rng);
        let sim = converged_from(nodes, 100 + seed);
        let graph = sim.graph();
        assert!(graph.is_weakly_connected());
        means.push(DegreeStats::from_samples(&graph.out_degrees()).mean);
    }
    let spread = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - means.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1.0, "steady-state means disagree across seeds: {means:?}");
}

#[test]
fn heavy_loss_does_not_partition_a_well_provisioned_system() {
    // Section 7.4's connectivity conditions: with d_L well above the
    // minimum, even 10% loss keeps the overlay whole.
    let config = SfConfig::new(40, 26).expect("d_L from the paper's connectivity example");
    let nodes = topology::circulant(300, config, 30);
    let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).expect("valid"), 5);
    for _ in 0..10 {
        sim.run_rounds(50);
        assert!(sim.graph().is_weakly_connected(), "partition under loss");
    }
}
