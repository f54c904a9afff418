//! # sandf-bench — the paper's evaluation, regenerated
//!
//! One binary, `repro <name> [args]`, with one entry per figure/table of
//! Gurevich & Keidar's evaluation and per extension experiment of
//! `DESIGN.md` B2–B8 (`cargo run --release -p sandf-bench -- fig6_1`; no
//! name prints the list). README.md § "Reproducing the paper's evaluation"
//! is the one table of every name and the artifact it regenerates;
//! `EXPERIMENTS.md` records the paper-vs-measured comparisons. This
//! library is what the entries call.
//!
//! Every artifact prints TSV to stdout (self-describing headers,
//! `#`-prefixed commentary) with fixed seeds, so output is reproducible.
//! Two take arguments: `scenario_run [SPEC.scn ...]` (no arguments = the
//! built-in scenario library) and `obs_report [--toy] [--journal]`; every
//! other takes none. Performance is not measured here — not even
//! per-task wall-clock: the workspace benchmark (`BENCHMARK.json`,
//! `benchmark/`) is the one perf harness.
//!
//! ## The replicated-sweep executor
//!
//! Stochastic experiments run on the [`sweep`] executor: a [`sweep::SweepSpec`]
//! declares a parameter grid × a replicate count, a thread pool fans the
//! `(cell, replicate)` tasks out, and each task's RNG seed is the stable
//! hash `FNV1a64("<base_seed>/<cell key>/<replicate>")` — so tables are
//! **bit-identical regardless of thread count or execution order**, and
//! editing the grid never perturbs other cells' random streams. Results
//! aggregate through [`sweep::Summary`] (mean, sample std, 95% CI, min,
//! max), and [`sweep::SweepResults::to_tsv`] emits `<metric>_mean` /
//! `<metric>_ci95` columns.
//!
//! The measurement cores of `indegree_stats`, `loss_ablation`,
//! `thresholds`, `baseline_compare`, `churn_sweep`, and `uniformity` live
//! in [`sweeps`] as library functions with explicit scale parameters;
//! the `repro` entries call them at paper scale, the integration tests at
//! toy scale (see `tests/golden_indegree.rs` and
//! `tests/sweep_determinism.rs`).
//! `EXPERIMENTS.md` documents the seeding scheme, the CI formula, and how
//! to add a sweep. Thread count can be pinned with `SANDF_SWEEP_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obsrep;
pub mod scenario;
pub mod sweep;
pub mod sweeps;

/// Prints a `#`-prefixed commentary line.
pub fn note(text: &str) {
    println!("# {text}");
}

/// Prints a TSV header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Formats a float compactly for TSV output.
#[must_use]
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 0.001 {
        format!("{x:.6}")
    } else {
        format!("{x:.3e}")
    }
}
