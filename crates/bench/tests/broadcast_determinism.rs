//! PR 10 determinism regression: the rumor layer must be **bit-identical
//! across engines and thread counts**, pinned against recorded goldens.
//!
//! For 3 seeds × {`UniformLoss`, `GilbertElliott`} membership loss (the
//! rumor channel mirrors the pairing: `Uniform` / `Bursty`), the goldens
//! record a per-round [`BroadcastLayer::fingerprint`] trail plus the final
//! [`SpreadReport`] debug rendering:
//!
//! * `pr10_broadcast_*` — asserted against the flat engine: per-round
//!   equal fingerprints mean the broadcast state never drifts by a bit.
//! * `pr10_broadcast_par_*` — produced by the 1-thread par engine and
//!   asserted for threads ∈ {1, 2, 8}: thread count may change
//!   wall-clock, never a byte of rumor state.
//!
//! The goldens also freeze the rumor RNG-stream derivation (tags `b'g'` /
//! `b'h'` over the FNV layout) — a change shows up here as a diff, not as
//! silent drift.
//!
//! To regenerate after an *intentional* RNG/format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sandf-bench --test broadcast_determinism
//! ```

mod support;

use std::fmt::Write as _;

use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_sim::{
    topology, BroadcastConfig, BroadcastLayer, Engine, FlatSimulation, GilbertElliott, LossModel,
    ParSimulation, PhaseFault, UniformLoss,
};

use support::golden;

const SEEDS: [u64; 3] = [11, 42, 2009];
const THREADS: [usize; 3] = [1, 2, 8];
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

/// The rumor channel paired with each membership-loss scenario, written
/// as the scenario-DSL `phase` line of that fault.
fn rumor_channel(scenario: &str) -> PhaseFault {
    let line = match scenario {
        "uniform" => "phase 1 uniform 0.1",
        _ => "phase 1 bursty 0.1 0.3 0.02 0.7",
    };
    let words: Vec<&str> = line.split_whitespace().skip(1).collect();
    PhaseFault::parse_phase(&words).expect("legal phase line").1
}

/// One scenario's artifact: the per-round broadcast fingerprint trail
/// plus the final spread report. Fingerprints are order-independent
/// digests of the full rumor state, so byte equality of the artifact is
/// bit equality of the layer.
fn broadcast_artifact<E: Engine>(mut sim: E, seed: u64, rumor: PhaseFault) -> String {
    let mut layer =
        BroadcastLayer::with_channel(seed, BroadcastConfig::push_pull(1, u8::MAX), rumor);
    layer.seed_rumor_at(NodeId::new(0));
    let mut out = String::new();
    for round in 1..=ROUNDS {
        sim.round();
        layer.step(&sim);
        writeln!(out, "round {round:02} fingerprint {:016x}", layer.fingerprint())
            .expect("write to string");
    }
    writeln!(out, "{:?}", layer.report()).expect("write to string");
    out
}

fn check_golden(name: &str, reference: &str, others: &[(String, String)]) {
    let golden = golden(name, reference);
    assert_eq!(reference, golden, "{name}: reference run is not byte-identical to the golden");
    for (label, artifact) in others {
        assert_eq!(artifact, &golden, "{name}: {label} run is not byte-identical to the golden");
    }
}

/// The flat engine: the same seeds, loss, and rumor channel must yield
/// bit-identical broadcast state, round by round.
#[test]
fn flat_broadcast_matches_recorded_goldens() {
    fn scenario<L: LossModel + Clone + Send + 'static>(loss: L, name: &str, seed: u64) {
        let flat =
            broadcast_artifact(FlatSimulation::new(nodes(), loss, seed), seed, rumor_channel(name));
        check_golden(&format!("pr10_broadcast_{name}_{seed}.txt"), &flat, &[]);
    }
    for seed in SEEDS {
        scenario(uniform(), "uniform", seed);
        scenario(bursty(), "gilbert_elliott", seed);
    }
}

/// Par byte-identity: the broadcast state over `ParSimulation` must not
/// depend on the thread count.
#[test]
fn par_broadcast_is_byte_identical_for_every_thread_count() {
    fn scenario<L: LossModel + Clone + Send + 'static>(loss: L, name: &str, seed: u64) {
        let artifacts: Vec<(String, String)> = THREADS
            .iter()
            .map(|&t| {
                let sim = ParSimulation::new(nodes(), loss.clone(), seed, t);
                (format!("{t}-thread"), broadcast_artifact(sim, seed, rumor_channel(name)))
            })
            .collect();
        check_golden(
            &format!("pr10_broadcast_par_{name}_{seed}.txt"),
            &artifacts[0].1.clone(),
            &artifacts[1..],
        );
    }
    for seed in SEEDS {
        scenario(uniform(), "uniform", seed);
        scenario(bursty(), "gilbert_elliott", seed);
    }
}
