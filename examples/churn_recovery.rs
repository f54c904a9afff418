//! Churn under loss: nodes join and leave while 5 % of messages vanish.
//!
//! Demonstrates the Section 6.5 dynamics end to end: joiners integrate
//! (Corollary 6.14), leavers' ids decay (Lemma 6.10, Figure 6.4), and the
//! surviving system stays connected and balanced.
//!
//! Run with: `cargo run --example churn_recovery`

use sandf::markov::decay;
use sandf::sim::topology;
use sandf::{DegreeStats, Engine, FlatSimulation, NodeId, SfConfig, UniformLoss};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SfConfig::new(40, 18)?;
    let loss = 0.05;
    let nodes = topology::circulant(300, config, 30);
    let mut sim = FlatSimulation::new(nodes, UniformLoss::new(loss)?, 23);

    println!("burn-in: 200 rounds, n=300, 5% loss ...");
    sim.run_rounds(200);

    // --- A wave of churn: 30 nodes leave, 30 join. ---
    let victims: Vec<NodeId> = sim.live_ids().into_iter().take(30).collect();
    for v in &victims {
        sim.leave(*v);
    }
    let mut joiners = Vec::new();
    for k in 0..30 {
        let sponsor = sim.live_ids()[k % sim.len()];
        joiners.push(sim.join_via(sponsor)?);
    }
    println!("churn applied: 30 leaves + 30 joins (n stays 300)");

    let dead_instances_at_0: usize = victims.iter().map(|v| sim.count_id_instances(*v)).sum();

    // --- Track recovery. ---
    println!("round\tdead_id_instances\tbound\tjoiner_instances\tconnected");
    let survival = decay::leave_survival_bound(loss, 0.01, 18, 40, 200);
    for round in 1..=200usize {
        sim.round();
        if round % 20 == 0 {
            let dead: usize = victims.iter().map(|v| sim.count_id_instances(*v)).sum();
            let joined: usize = joiners.iter().map(|j| sim.count_id_instances(*j)).sum();
            let bound = (dead_instances_at_0 as f64 * survival[round - 1]).ceil();
            println!("{round}\t{dead}\t{bound}\t{joined}\t{}", sim.graph().is_weakly_connected());
        }
    }

    let graph = sim.graph();
    let stats = DegreeStats::from_samples(&graph.in_degrees());
    println!(
        "\nfinal: n={}, weakly connected: {}, indegree {:.1} ± {:.1}",
        graph.node_count(),
        graph.is_weakly_connected(),
        stats.mean,
        stats.std_dev()
    );
    let d_in_joiners: f64 =
        joiners.iter().map(|j| graph.in_degree(*j).unwrap_or(0) as f64).sum::<f64>()
            / joiners.len() as f64;
    println!(
        "joiners' average indegree after 200 rounds: {d_in_joiners:.1} (veterans: {:.1})",
        stats.mean
    );
    assert!(graph.is_weakly_connected(), "churn partitioned the overlay");
    Ok(())
}
