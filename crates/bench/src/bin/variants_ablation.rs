//! Ablation of the Section 5 optimizations the paper deferred to future
//! work: vanilla S&F vs. undeletion, replace-when-full, and batched sends,
//! under identical loss schedules.
//!
//! The design questions this answers (DESIGN.md, experiment B2):
//!
//! * does *undeletion* reduce neighbor dependence compared to duplication,
//!   as the paper's motivation for avoiding in-view replication suggests?
//! * does *replace-when-full* change the degree balance (it trades
//!   deletion-loss for displacement churn)?
//! * how much does *batching* coarsen the degree distribution (moves of
//!   ±(b+1) instead of ±2)?

use sandf_bench::sweeps::ring_views;
use sandf_bench::{fmt, header, note};
use sandf_core::SfConfig;
use sandf_graph::DegreeStats;
use sandf_sim::{FlatSimulation, ProtocolBehavior, SfBehavior, UniformLoss};
use sandf_variants::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};

const N: usize = 256;
const ROUNDS: usize = 400;

fn row<B: ProtocolBehavior>(
    label: &str,
    behavior: B,
    config: SfConfig,
    k: usize,
    loss: f64,
    seed: u64,
) {
    let rate = UniformLoss::new(loss).expect("valid rate");
    let mut sim = FlatSimulation::from_views(behavior, config, ring_views(N, k), rate, seed);
    sim.run_rounds(ROUNDS);
    let graph = sim.graph();
    let stats = sim.aggregate_node_stats();
    let sent = stats.sent.max(1) as f64;
    println!(
        "{label}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        fmt(loss),
        fmt(DegreeStats::from_samples(&graph.out_degrees()).mean),
        fmt(DegreeStats::from_samples(&graph.in_degrees()).std_dev()),
        fmt(1.0 - sim.dependence().independent_fraction()),
        graph.edge_count(),
        fmt(stats.duplications as f64 / sent),
        fmt(stats.deletions as f64 / sent),
        graph.is_weakly_connected(),
    );
}

fn main() {
    note("Section 5 optimization ablation, n=256, 400 rounds, s=16, d_L=6 (batched: s=24)");
    header(&[
        "variant",
        "loss",
        "mean_out",
        "in_std",
        "dependent_frac",
        "total_ids",
        "compensation_rate",
        "displacement_rate",
        "connected",
    ]);
    let config = SfConfig::new(16, 6).expect("legal");
    let batched_config = SfConfig::new(24, 6).expect("legal");
    for (k, &loss) in [0.0, 0.01, 0.05, 0.1].iter().enumerate() {
        let seed = 1000 + k as u64;
        row("vanilla", SfBehavior, config, 10, loss, seed);
        row("undelete", UndeleteBehavior, config, 10, loss, seed + 10);
        row("replace", ReplaceBehavior, config, 10, loss, seed + 20);
        row("batched_b3", BatchedBehavior::new(3), batched_config, 12, loss, seed + 30);
    }
    println!();
    note("reading guide: dependent_frac includes the dependent bootstrap tags only until they");
    note("wash out; compare variants within a loss row, not against the Lemma 7.9 bound");
}
