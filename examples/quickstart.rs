//! Quick start: a 100-node S&F system under 1 % message loss.
//!
//! Run with: `cargo run --example quickstart`

use sandf::sim::topology;
use sandf::{DegreeStats, Engine, FlatSimulation, SfConfig, UniformLoss};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parameters from the paper's running example (Section 6.3): view size
    // s = 40, lower degree threshold d_L = 18, targeting an expected
    // outdegree of about 30.
    let config = SfConfig::new(40, 18)?;

    // Start from a regular ring-like topology; the protocol will randomize
    // it (Properties M2-M4 hold "starting from any initial state"). The
    // paper's analysis assumes n >> s, so give the 40-slot views a
    // thousand nodes to sample from.
    let nodes = topology::circulant(1000, config, 30);
    let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01)?, 7);

    println!("running 1000 nodes under 1% uniform loss: 200 burn-in rounds ...");
    sim.run_rounds(200);
    sim.reset_stats(); // measure the steady state, not the transient
    println!("... then 200 measured rounds");
    sim.run_rounds(200);

    let graph = sim.graph();
    let out = DegreeStats::from_samples(&graph.out_degrees());
    let in_ = DegreeStats::from_samples(&graph.in_degrees());
    let dependence = sim.dependence();
    let stats = sim.stats();

    println!("weakly connected: {}", graph.is_weakly_connected());
    println!(
        "outdegree: mean {:.1}, std {:.1}, range [{}, {}]",
        out.mean,
        out.std_dev(),
        out.min,
        out.max
    );
    println!(
        "indegree:  mean {:.1}, std {:.1}, range [{}, {}]  (load balance, Property M2)",
        in_.mean,
        in_.std_dev(),
        in_.min,
        in_.max
    );
    println!(
        "independent view entries: {:.1}%  (Property M4; Lemma 7.9 floor: {:.1}%)",
        dependence.independent_fraction() * 100.0,
        sandf::markov::alpha_lower_bound(0.01, 0.01) * 100.0
    );
    println!(
        "events: {} actions, {} sent, {} lost, {} duplications, {} deletions",
        stats.actions, stats.sent, stats.lost, stats.duplications, stats.deleted
    );
    println!(
        "duplication rate {:.3} vs loss+deletion {:.3}  (Lemma 6.6 says they match)",
        stats.duplication_rate().unwrap_or(0.0),
        stats.loss_rate().unwrap_or(0.0) + stats.deletion_rate().unwrap_or(0.0)
    );
    Ok(())
}
