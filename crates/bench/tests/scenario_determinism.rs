//! PR 6 determinism regression: the scenario runner is **byte-identical
//! for any thread count**, pinned against recorded golden outputs.
//!
//! For 3 seeds × {partition-heal, weak-links (per-link), hub-loss
//! (targeted victims + churn)} the goldens record the full envelope TSV
//! plus the `sim.fault.*` counter exposition from a run with 1 engine
//! thread. Every golden is then asserted for engine threads ∈ {1, 2, 8}
//! — following the `par_determinism.rs` pattern: thread count may change
//! wall-clock, never a byte of output. The goldens also freeze the
//! scenario → `ScheduledFault` compilation and the per-replicate salt
//! derivation; a change to either shows up here as a diff, not as silent
//! drift.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sandf-bench --test scenario_determinism
//! ```

mod support;

use sandf_bench::scenario::{builtin_specs, run_scenario, with_seed, MC_MEAN_TOLERANCE};
use sandf_obs::MetricsRegistry;

use support::golden;

const SEEDS: [u64; 3] = [11, 42, 2009];
const THREADS: [usize; 3] = [1, 2, 8];
const SCENARIOS: [&str; 3] = ["partition-heal", "weak-links", "hub-loss"];

/// One scenario's artifact at a seed: envelope TSV + `sim.fault.*`
/// counters. Counters are order-independent sums, so they are as
/// thread-count-invariant as the table itself.
fn artifact(scenario_name: &str, seed: u64, threads: usize) -> String {
    let spec = builtin_specs()
        .iter()
        .find(|&&(name, _)| name == scenario_name)
        .unwrap_or_else(|| panic!("unknown builtin {scenario_name}"))
        .1;
    let mut scenario = with_seed(spec, seed);
    // Toy scale: the builtins' structure (phases, fault families, churn)
    // at a fraction of the cost — determinism is scale-independent.
    scenario.n = 48;
    scenario.replicates = 2;
    let registry = MetricsRegistry::new();
    let report = run_scenario(&scenario, threads, &registry);
    let counters: String = registry
        .render_prometheus()
        .lines()
        .filter(|line| line.contains("sim_fault"))
        .map(|line| format!("{line}\n"))
        .collect();
    format!("{}{counters}", report.to_tsv(MC_MEAN_TOLERANCE))
}

#[test]
fn scenario_runner_matches_recorded_goldens_for_every_thread_count() {
    for scenario in SCENARIOS {
        for seed in SEEDS {
            let name = format!("pr6_scenario_{}_{seed}.txt", scenario.replace('-', "_"));
            let artifacts: Vec<String> =
                THREADS.iter().map(|&t| artifact(scenario, seed, t)).collect();
            // Goldens are always written from the 1-thread run.
            let golden = golden(&name, &artifacts[0]);
            for (&threads, artifact) in THREADS.iter().zip(&artifacts) {
                assert_eq!(
                    *artifact, golden,
                    "{name}: {threads}-thread run is not byte-identical to the golden"
                );
            }
        }
    }
}

#[test]
fn sweep_worker_count_does_not_leak_into_the_report() {
    // The executor's own thread pool (SANDF_SWEEP_THREADS) is the second
    // axis of parallelism; pin it per-process here by running the same
    // scenario twice in-process — the sweep uses the same default both
    // times — and asserting the seeds-only contract: same spec + same
    // seed → same bytes, different seed → different bytes.
    let a = artifact("partition-heal", 11, 2);
    let b = artifact("partition-heal", 11, 2);
    assert_eq!(a, b, "same spec and seed must reproduce byte-identically");
    let c = artifact("partition-heal", 42, 2);
    assert_ne!(a, c, "distinct base seeds should give distinct replicate draws");
}
