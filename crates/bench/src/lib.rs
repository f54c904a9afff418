//! # sandf-bench — the paper's evaluation, regenerated
//!
//! One binary per figure/table of Gurevich & Keidar's evaluation (see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured comparisons):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig6_1` | Figure 6.1 — degree laws: analytical vs. degree-MC vs. binomial |
//! | `fig6_3` | Figure 6.3 — degree-MC distributions under loss (+ sim overlay) |
//! | `indegree_stats` | §6.4 — mean ± std of indegree per loss rate |
//! | `thresholds` | §6.3 — `(d_L, s)` selection sweep; §7.4 connectivity condition |
//! | `fig6_4` | Figure 6.4 — departed-id survival bound (+ sim overlay) |
//! | `join_leave` | §6.5 — Lemma 6.10 decay and Corollary 6.14 join integration |
//! | `independence` | §7.4 — measured dependent fraction vs. `2(ℓ+δ)` bound |
//! | `temporal` | §7.5 — edge-overlap decay vs. `O(s log n)`; `τ_ε` table |
//! | `uniformity` | Lemma 7.6 — χ² of id representation over a long run |
//! | `exact_uniform` | Lemma 7.5 — exact tiny-system enumeration |
//! | `baseline_compare` | §3.1 — S&F vs. shuffle vs. push-pull vs. push-only under loss |
//!
//! All binaries print TSV to stdout (self-describing headers, `#`-prefixed
//! commentary) and take no arguments; seeds are fixed so output is
//! reproducible.
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
//! in [`sweeps`] as library functions with explicit scale parameters; the
//! binaries call them at paper scale, the integration tests at toy scale
//! (see `tests/golden_indegree.rs` and `tests/sweep_determinism.rs`).
//! `EXPERIMENTS.md` documents the seeding scheme, the CI formula, and how
//! to add a sweep. Thread count can be pinned with `SANDF_SWEEP_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod obsrep;
pub mod perf;
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

/// Parses the value following `flag` in a binary's argument list: `None`
/// when the flag is absent.
///
/// # Errors
///
/// A message naming the flag when its value is missing or does not parse.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
            value.parse().map(Some).map_err(|_| format!("bad value for {flag}: {value}"))
        }
    }
}
