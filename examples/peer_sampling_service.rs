//! Peer sampling in anger: push-sum aggregation over evolving S&F views.
//!
//! The paper motivates membership views as a source of fresh, independent
//! random node samples for applications such as "gathering statistics [and]
//! gossip-based aggregation" (Section 1). This example computes the global
//! average of per-node values with the push-sum protocol, drawing each
//! round's communication partner from the node's *current S&F view* — so
//! aggregation quality directly reflects view uniformity and temporal
//! independence.
//!
//! It runs on the arena fast path: a [`FlatSimulation`] driven through the
//! unified [`Engine`] trait, reading every live node's view in one pass
//! with [`Engine::for_each_live_row`] — the same hook the broadcast layer
//! gossips over (see `examples/broadcast_quickstart.rs`).
//!
//! Run with: `cargo run --example peer_sampling_service`

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sandf::sim::topology;
use sandf::{Engine, FlatSimulation, SfConfig, UniformLoss};

const N: usize = 200;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SfConfig::new(16, 6)?;
    let mut sim =
        FlatSimulation::new(topology::circulant(N, config, 10), UniformLoss::new(0.01)?, 11);

    // Let the membership converge first (Section 7: steady state).
    sim.run_rounds(100);

    // Each node holds a value; the true average is known.
    let values: Vec<f64> = (0..N).map(|i| (i * i % 1000) as f64).collect();
    let true_avg = values.iter().sum::<f64>() / N as f64;

    // Push-sum state: (sum, weight) per node.
    let mut sums = values.clone();
    let mut weights = vec![1.0f64; N];
    let mut rng = StdRng::seed_from_u64(99);

    println!("push-sum over S&F views, n={N}, true average {true_avg:.3}");
    println!("round\tmax_relative_error");
    for round in 1..=60 {
        // Keep the membership evolving underneath the aggregation.
        sim.round();
        // One push-sum round: each node halves its mass and ships half to
        // a partner drawn from its *current* S&F view, all views read in
        // a single arena pass.
        let mut inbox: Vec<(f64, f64)> = vec![(0.0, 0.0); N];
        let mut shares: Vec<(usize, f64, f64)> = Vec::with_capacity(N);
        sim.for_each_live_row(|_| true, &mut |id, view| {
            let i = id as usize % N;
            let target = view.choose(&mut rng).map_or(i, |&peer| peer as usize % N);
            sums[i] /= 2.0;
            weights[i] /= 2.0;
            shares.push((target, sums[i], weights[i]));
        });
        for (target, sum, weight) in shares {
            inbox[target].0 += sum;
            inbox[target].1 += weight;
        }
        for i in 0..N {
            sums[i] += inbox[i].0;
            weights[i] += inbox[i].1;
        }
        let worst = (0..N)
            .map(|i| ((sums[i] / weights[i]) - true_avg).abs() / true_avg)
            .fold(0.0f64, f64::max);
        if round % 6 == 0 {
            println!("{round}\t{worst:.2e}");
        }
        if round == 60 {
            assert!(worst < 1e-3, "push-sum should have converged, error {worst}");
            println!("converged: every node's estimate within {worst:.1e} of the true average");
        }
    }
    Ok(())
}
