//! Determinism regression: the flat engine's draw sequence is pinned
//! byte for byte against recorded golden outputs.
//!
//! For 3 seeds × {`UniformLoss`, `GilbertElliott`} the goldens record:
//!
//! * the `SimStats` debug rendering after a delayed, settled run,
//! * the full `SimRecorder` obs exposition (`render_prometheus`), and
//! * the loss-ablation sweep TSV (which also pins the hoisted-topology
//!   sweep path: building the circulant once per cell and cloning it per
//!   replicate must not move a byte).
//!
//! To regenerate after an *intentional* RNG/format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sandf-bench --test flat_equivalence
//! ```

mod support;

use sandf_bench::sweeps::loss_ablation_table;
use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_obs::MetricsRegistry;
use sandf_sim::{
    topology, DelayModel, Engine, FaultModel, FlatSimulation, GilbertElliott, SimRecorder,
    UniformLoss,
};

use support::golden;

const SEEDS: [u64; 3] = [11, 42, 2009];
const ROUNDS: usize = 30;

fn config() -> SfConfig {
    SfConfig::new(16, 6).expect("legal config")
}

fn nodes() -> Vec<SfNode> {
    topology::circulant(64, config(), 10)
}

fn uniform() -> UniformLoss {
    UniformLoss::new(0.05).expect("valid rate")
}

fn bursty() -> GilbertElliott {
    GilbertElliott::new(0.05, 0.2, 0.01, 0.5).expect("valid channel")
}

/// One scenario's artifact: final `SimStats` plus the recorder's full
/// Prometheus exposition. Both are deterministic (counter metrics only —
/// no wall-clock spans), so byte equality is the right bar.
fn flat_artifact<L: FaultModel>(loss: L, seed: u64) -> String {
    let registry = MetricsRegistry::new();
    let mut sim =
        FlatSimulation::new(nodes(), loss, seed).delayed(DelayModel::UniformSteps { max: 8 });
    sim.run_rounds(ROUNDS);
    sim.settle();
    SimRecorder::new(&registry).record(&sim);
    format!("{:?}\n{}", sim.stats(), registry.render_prometheus())
}

fn sweep_artifact() -> String {
    loss_ablation_table(60, 10, 10, 2, 99)
}

/// The combined scenario the isolated tests above do not cover: churn
/// (`leave` + `join_via`) **and** a bursty Gilbert–Elliott channel
/// **and** `round_permuted` scheduling, all under delayed delivery. Every
/// epoch runs five permuted rounds, removes one of the original nodes
/// (stranding its in-flight traffic as dead letters), and joins a
/// replacement via a still-live sponsor; the run then settles. The engine
/// must stay in lockstep with its golden through all of it — same RNG
/// draw sequence, same joiner ids, same dead letters, byte-identical
/// artifact.
fn churn_artifact<L: FaultModel>(loss: L, seed: u64) -> String {
    let registry = MetricsRegistry::new();
    let mut sim =
        FlatSimulation::new(nodes(), loss, seed).delayed(DelayModel::UniformSteps { max: 8 });
    for epoch in 0..4u64 {
        for _ in 0..5 {
            sim.round_permuted();
        }
        sim.leave(NodeId::new(epoch)).expect("original node is live");
        sim.join_via(NodeId::new(epoch + 10)).expect("sponsor has enough neighbours");
    }
    sim.settle();
    SimRecorder::new(&registry).record(&sim);
    format!("{:?}\n{}", sim.stats(), registry.render_prometheus())
}

/// The scenario grid: golden file name → flat artifact.
fn scenarios() -> Vec<(String, String)> {
    let mut all = Vec::new();
    for seed in SEEDS {
        all.push((format!("pr4_uniform_{seed}.txt"), flat_artifact(uniform(), seed)));
        all.push((format!("pr4_gilbert_elliott_{seed}.txt"), flat_artifact(bursty(), seed)));
    }
    all
}

#[test]
fn flat_engine_matches_recorded_goldens() {
    for (name, flat) in scenarios() {
        assert_eq!(
            flat,
            golden(&name, &flat),
            "{name}: flat engine is not byte-identical to the golden"
        );
    }
}

#[test]
fn combined_churn_bursty_permuted_scenario_stays_in_lockstep() {
    for seed in SEEDS {
        let name = format!("pr5_churn_ge_permuted_{seed}.txt");
        let flat = churn_artifact(bursty(), seed);
        let golden = golden(&name, &flat);
        assert_eq!(flat, golden, "{name}: flat engine fell out of lockstep under combined churn");
        // The scenario only earns its keep if churn actually strands
        // traffic: the settled run must have seen dead letters.
        assert!(
            golden.contains("dead_letters: "),
            "{name}: artifact lost the stats debug rendering"
        );
    }
}

#[test]
fn hoisted_sweep_tsv_matches_recorded_golden() {
    let name = "pr4_loss_ablation.tsv";
    let actual = sweep_artifact();
    assert_eq!(
        actual,
        golden(name, &actual),
        "{name}: sweep TSV drifted (topology hoist must not move a byte)"
    );
}
