//! Determinism regression test for the sweep executor: one spec, executed
//! serially and on thread pools of several sizes, must produce
//! byte-identical summary tables. This is the executor's core contract —
//! seeds derive from `(base_seed, cell key, replicate)` alone, and
//! aggregation reassembles results in task order, so neither thread count
//! nor completion order can leak into the output.

use rand::rngs::StdRng;
use rand::RngCore;
use sandf_bench::sweep::{default_threads, SweepSpec};
use sandf_core::SfConfig;
use sandf_sim::experiment::ExperimentParams;
use sandf_sim::Engine;

/// A cell is its loss rate; its key is the text its seeds hash from.
fn key(loss: &f64) -> String {
    format!("loss={loss}")
}

/// A real simulation workload (not a toy arithmetic closure): builds an
/// S&F system per replicate and measures steady-state statistics, exactly
/// the way the bench sweeps do.
fn simulate(&loss: &f64, rng: &mut StdRng) -> Vec<f64> {
    let config = SfConfig::new(16, 6).expect("legal config");
    let params = ExperimentParams { n: 48, config, loss, burn_in: 0, seed: rng.next_u64() };
    let sim = params.build().run_replicate(30, 30);
    let graph = sim.graph();
    let out = graph.out_degrees();
    let mean_out = out.iter().sum::<usize>() as f64 / out.len() as f64;
    vec![mean_out, sim.stats().duplications as f64, sim.stats().lost as f64]
}

const METRICS: &[&str] = &["mean_out", "duplications", "lost"];

#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let spec = SweepSpec::new(vec![0.0, 0.05, 0.1], key, 6, 2026);
    let serial = spec.run_with_threads(1, METRICS, simulate);
    let serial_tsv = serial.to_tsv(&["loss"], |loss| vec![format!("{loss}")]);

    // The default pool (whatever width this machine gives it) and two
    // fixed widths straddling typical core counts.
    let default_pool = spec.run(METRICS, simulate);
    assert_eq!(
        serial_tsv,
        default_pool.to_tsv(&["loss"], |loss| vec![format!("{loss}")]),
        "default pool ({} threads) diverged from serial execution",
        default_threads()
    );
    for threads in [2, 5, 16] {
        let pooled = spec.run_with_threads(threads, METRICS, simulate);
        assert_eq!(
            serial_tsv,
            pooled.to_tsv(&["loss"], |loss| vec![format!("{loss}")]),
            "{threads}-thread pool diverged from serial execution"
        );
    }
}

#[test]
fn base_seed_changes_results_but_reruns_do_not() {
    let spec_a = SweepSpec::new(vec![0.05], key, 4, 1);
    let spec_b = SweepSpec::new(vec![0.05], key, 4, 2);
    let a1 = spec_a.run(METRICS, simulate).to_tsv(&["loss"], |loss| vec![format!("{loss}")]);
    let a2 = spec_a.run(METRICS, simulate).to_tsv(&["loss"], |loss| vec![format!("{loss}")]);
    let b = spec_b.run(METRICS, simulate).to_tsv(&["loss"], |loss| vec![format!("{loss}")]);
    assert_eq!(a1, a2, "identical specs must reproduce identical tables");
    assert_ne!(a1, b, "a different base seed must give different replicate streams");
}
