//! Rumor-spreading broadcast in five minutes: gossip an application
//! payload over live S&F membership views and compare the measured spread
//! time against the Doerr et al. `log₂ n + ln n` yardstick.
//!
//! The [`BroadcastLayer`] rides on any engine through the unified
//! [`Engine`] trait: after each membership round it walks every live
//! node's current view and pushes the rumor along those edges (here with
//! pull enabled too, so uninformed nodes actively fetch). The rumor
//! channel is faulted independently of the membership channel — this
//! example drops 10 % of rumor messages while the membership loses 1 %.
//!
//! Run with: `cargo run --example broadcast_quickstart`

use sandf::sim::topology;
use sandf::{
    doerr_spread_prediction, BroadcastConfig, BroadcastLayer, Engine, FlatSimulation, PhaseFault,
    SfConfig, UniformLoss,
};

const N: usize = 5_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SfConfig::new(16, 6)?;
    let mut sim =
        FlatSimulation::new(topology::random_iter(N, config, 8, 42), UniformLoss::new(0.01)?, 42);
    // Warm the peer-sampling service up before the rumor starts.
    sim.run_rounds(20);

    let mut layer = BroadcastLayer::with_channel(
        42,
        BroadcastConfig::push_pull(1, u8::MAX),
        PhaseFault::Uniform(UniformLoss::new(0.10)?),
    );
    let origin = Engine::live_ids(&sim).into_iter().min().expect("non-empty system");
    layer.seed_rumor_at(origin);

    println!("rumor broadcast over live S&F views, n={N}, 10% rumor loss");
    println!("round\tinformed\tcoverage");
    for round in 1..=40 {
        sim.round();
        layer.step(&sim);
        if round % 4 == 0 || layer.coverage() >= 1.0 {
            println!("{round}\t{}\t{:.4}", layer.informed_live(), layer.coverage());
        }
        if layer.coverage() >= 1.0 {
            break;
        }
    }

    let report = layer.report();
    let predicted = doerr_spread_prediction(N);
    println!();
    println!("50% coverage at round {:?}", report.to_half);
    println!("99% coverage at round {:?} (log2 n + ln n = {predicted:.1})", report.to_99);
    println!("messages per node: {:.1}", report.messages_per_node);
    assert!(report.coverage >= 0.99, "spread stalled at {:.4}", report.coverage);
    Ok(())
}
