//! PR 5 determinism regression: `ParSimulation` must be **byte-identical
//! for any thread count**, pinned against recorded golden outputs.
//!
//! For 3 seeds × {`UniformLoss`, `GilbertElliott`} the goldens record,
//! from a single-threaded par run (threads = 1 exercises the same
//! shard/merge code path without spawning — it *is* the parallel
//! semantics, serialized):
//!
//! * the `SimStats` debug rendering after a delayed, settled run,
//! * the full `SimRecorder` obs exposition (`render_prometheus`), and
//! * the `par_degree_table` sweep TSV (pinning the engine end to end
//!   through the replicated-sweep executor).
//!
//! Every golden is then asserted for threads ∈ {1, 2, 8}: thread count
//! may change wall-clock, never a byte of output. The goldens also freeze
//! the par RNG-stream derivation itself — a change to the FNV layout or
//! the merge ordering shows up here as a diff, not as silent drift.
//!
//! To regenerate after an *intentional* RNG/format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sandf-bench --test par_determinism
//! ```

mod support;

use sandf_bench::sweeps::par_degree_table;
use sandf_core::{SfConfig, SfNode};
use sandf_obs::MetricsRegistry;
use sandf_sim::{
    topology, DelayModel, Engine, FaultModel, GilbertElliott, ParSimulation, SimRecorder,
    UniformLoss,
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

/// One scenario's artifact: final `SimStats` plus the recorder's full
/// Prometheus exposition after a delayed, settled run. Counter metrics
/// only — no wall-clock spans — so byte equality is the right bar.
fn par_artifact<L: FaultModel + Sync>(loss: L, seed: u64, threads: usize) -> String {
    let registry = MetricsRegistry::new();
    let mut sim = ParSimulation::new(nodes(), loss, seed, threads)
        .delayed(DelayModel::UniformSteps { max: 6 });
    sim.run_rounds(ROUNDS);
    sim.settle();
    SimRecorder::new(&registry).record(&sim);
    format!("{:?}\n{}", sim.stats(), registry.render_prometheus())
}

/// The scenario grid: golden file name → artifact producer per thread
/// count.
fn scenarios() -> Vec<(String, Vec<String>)> {
    let mut all = Vec::new();
    for seed in SEEDS {
        all.push((
            format!("pr5_par_uniform_{seed}.txt"),
            THREADS.iter().map(|&t| par_artifact(uniform(), seed, t)).collect(),
        ));
        all.push((
            format!("pr5_par_gilbert_elliott_{seed}.txt"),
            THREADS.iter().map(|&t| par_artifact(bursty(), seed, t)).collect(),
        ));
    }
    all
}

#[test]
fn par_engine_matches_recorded_goldens_for_every_thread_count() {
    for (name, artifacts) in scenarios() {
        // Goldens are always written from the single-threaded run.
        let golden = golden(&name, &artifacts[0]);
        for (&threads, artifact) in THREADS.iter().zip(&artifacts) {
            assert_eq!(
                *artifact, golden,
                "{name}: {threads}-thread run is not byte-identical to the golden"
            );
        }
    }
}

#[test]
fn par_sweep_tsv_matches_recorded_golden_for_every_thread_count() {
    let name = "pr5_par_degree.tsv";
    let artifacts: Vec<String> =
        THREADS.iter().map(|&t| par_degree_table(48, 10, 10, t, 2, 99)).collect();
    let golden = golden(name, &artifacts[0]);
    for (&threads, artifact) in THREADS.iter().zip(&artifacts) {
        assert_eq!(
            *artifact, golden,
            "{name}: {threads}-thread sweep TSV is not byte-identical to the golden"
        );
    }
}
