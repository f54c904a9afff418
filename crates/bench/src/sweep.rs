//! The parallel replicated-sweep executor.
//!
//! Every quantitative claim in the paper's evaluation (Sections 6–7) is a
//! statistic over many independent runs. This module provides the
//! substrate those statistics stand on, once, for every `repro` artifact:
//!
//! * a declarative [`SweepSpec`] — a parameter grid × a replicate count;
//! * a thread-pool executor fanning the `(cell, replicate)` tasks out over
//!   `std::thread` workers;
//! * **deterministic seeding**: each task's RNG seed is a stable FNV-1a
//!   hash ([`sandf_sim::stream::fnv1a64`]) of `(base_seed, cell key,
//!   replicate index)`, so results are
//!   bit-identical regardless of thread count or execution order, and
//!   adding a cell to a grid never perturbs the other cells' streams;
//! * a [`Summary`] aggregation layer (mean, sample std, 95% confidence
//!   interval, min, max per cell and metric) with TSV emission that
//!   extends the crate's `note`/`header`/`fmt` helpers.
//!
//! # Seeding scheme
//!
//! ```text
//! seed(cell, r) = FNV1a64("<base_seed>/<cell.key()>/<r>")
//! ```
//!
//! The key is textual so it is independent of struct layout; two cells
//! with equal keys get equal streams by construction (and a debug
//! assertion rejects duplicate keys in one spec). The hash is the one the
//! engines' per-entity streams use, over this text rather than their
//! tagged 25-byte layout ([`sandf_sim::stream`]).
//!
//! # Confidence intervals
//!
//! [`Summary::ci95`] is the half-width of the normal-approximation 95%
//! interval, `1.96 · std / √count` — the convention used throughout the
//! evaluation tables. With fewer than two samples it is zero.
//!
//! # Example
//!
//! ```
//! use sandf_bench::sweep::{Summary, SweepCell, SweepSpec};
//!
//! struct Cell { p: f64 }
//! impl SweepCell for Cell {
//!     fn key(&self) -> String { format!("p={}", self.p) }
//! }
//!
//! let spec = SweepSpec::new(vec![Cell { p: 0.1 }, Cell { p: 0.2 }], 4, 7);
//! let results = spec.run(&["doubled"], |cell, rng| {
//!     use rand::Rng;
//!     vec![cell.p * 2.0 + rng.gen_bool(0.5) as u64 as f64 * 0.0]
//! });
//! assert_eq!(results.summary(1, "doubled").mean, 0.4);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rand::rngs::StdRng;
use rand::SeedableRng;
pub use sandf_graph::Summary;
use sandf_sim::stream::fnv1a64;

use crate::fmt;

/// One cell of a parameter grid. The key must be a stable, unique textual
/// encoding of the cell's parameters — it feeds the seed hash.
pub trait SweepCell {
    /// Stable textual key identifying this cell's parameters.
    fn key(&self) -> String;
}

/// The seed for one `(cell, replicate)` task under `base_seed`.
#[must_use]
pub fn replicate_seed(base_seed: u64, cell_key: &str, replicate: usize) -> u64 {
    fnv1a64(format!("{base_seed}/{cell_key}/{replicate}").bytes())
}

/// A declarative replicated sweep: a grid of cells, each run
/// `replicates` times with independent deterministic seeds.
#[derive(Clone, Debug)]
pub struct SweepSpec<P> {
    /// The parameter grid.
    pub cells: Vec<P>,
    /// Independent replicates per cell.
    pub replicates: usize,
    /// Base seed; distinct bases give fully independent sweeps.
    pub base_seed: u64,
}

impl<P: SweepCell + Sync> SweepSpec<P> {
    /// Builds a spec.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, `replicates` is zero, or two cells
    /// share a key (which would silently duplicate random streams).
    #[must_use]
    pub fn new(cells: Vec<P>, replicates: usize, base_seed: u64) -> Self {
        assert!(!cells.is_empty(), "sweep needs at least one cell");
        assert!(replicates > 0, "sweep needs at least one replicate");
        let mut keys: Vec<String> = cells.iter().map(SweepCell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "duplicate cell keys in sweep");
        Self { cells, replicates, base_seed }
    }

    /// Runs the sweep on the default pool: `SANDF_SWEEP_THREADS` if set,
    /// otherwise the machine's available parallelism.
    ///
    /// `run` receives the cell and the replicate's seeded RNG and returns
    /// one `f64` per metric name, in order. It must be deterministic given
    /// the RNG — everything else about execution (thread count, completion
    /// order) is guaranteed not to influence results.
    ///
    /// # Panics
    ///
    /// Panics if `run` returns a different number of values than
    /// `metrics` names, or if a worker panics.
    pub fn run<F>(&self, metrics: &'static [&'static str], run: F) -> SweepResults<'_, P>
    where
        F: Fn(&P, &mut StdRng) -> Vec<f64> + Sync,
    {
        self.run_with_threads(default_threads(), metrics, run)
    }

    /// Runs the sweep on exactly `threads` worker threads. Results are
    /// byte-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, if `run` returns a different number of
    /// values than `metrics` names, or if a worker panics.
    pub fn run_with_threads<F>(
        &self,
        threads: usize,
        metrics: &'static [&'static str],
        run: F,
    ) -> SweepResults<'_, P>
    where
        F: Fn(&P, &mut StdRng) -> Vec<f64> + Sync,
    {
        assert!(threads > 0, "sweep needs at least one worker");
        let keys: Vec<String> = self.cells.iter().map(SweepCell::key).collect();
        let tasks = self.cells.len() * self.replicates;
        let workers = threads.min(tasks);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<f64>)>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let keys = &keys;
                let run = &run;
                scope.spawn(move || loop {
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= tasks {
                        break;
                    }
                    let cell = task / self.replicates;
                    let replicate = task % self.replicates;
                    let seed = replicate_seed(self.base_seed, &keys[cell], replicate);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let values = run(&self.cells[cell], &mut rng);
                    assert_eq!(
                        values.len(),
                        metrics.len(),
                        "replicate returned {} values for {} metrics",
                        values.len(),
                        metrics.len()
                    );
                    tx.send((task, values)).expect("collector outlives workers");
                });
            }
            drop(tx);

            // Reassemble in task order: aggregation never sees completion
            // order, which is what makes output thread-count-independent.
            let mut by_task: Vec<Option<Vec<f64>>> = (0..tasks).map(|_| None).collect();
            for (task, values) in rx {
                by_task[task] = Some(values);
            }
            let samples: Vec<Vec<f64>> = by_task
                .into_iter()
                .map(|v| v.expect("worker panicked before finishing its task"))
                .collect();

            let summaries: Vec<Vec<Summary>> = (0..self.cells.len())
                .map(|cell| {
                    (0..metrics.len())
                        .map(|metric| {
                            let column: Vec<f64> = (0..self.replicates)
                                .map(|r| samples[cell * self.replicates + r][metric])
                                .collect();
                            Summary::from_samples(&column)
                        })
                        .collect()
                })
                .collect();
            SweepResults { cells: &self.cells, replicates: self.replicates, metrics, summaries }
        })
    }
}

/// The worker count used by [`SweepSpec::run`].
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("SANDF_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Aggregated results of one sweep: per cell, per metric, a [`Summary`].
#[derive(Clone, Debug)]
pub struct SweepResults<'a, P> {
    cells: &'a [P],
    replicates: usize,
    metrics: &'static [&'static str],
    summaries: Vec<Vec<Summary>>,
}

impl<P> SweepResults<'_, P> {
    /// The grid the results cover.
    #[must_use]
    pub fn cells(&self) -> &[P] {
        self.cells
    }

    /// Replicates behind every summary.
    #[must_use]
    pub fn replicates(&self) -> usize {
        self.replicates
    }

    /// The metric names, in column order.
    #[must_use]
    pub fn metrics(&self) -> &[&'static str] {
        self.metrics
    }

    /// The summary for one cell index and metric name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name or out-of-range cell.
    #[must_use]
    pub fn summary(&self, cell: usize, metric: &str) -> &Summary {
        let m = self
            .metrics
            .iter()
            .position(|&name| name == metric)
            .unwrap_or_else(|| panic!("unknown metric {metric:?}"));
        &self.summaries[cell][m]
    }

    /// Renders the full TSV table: `key_cols` columns describing each cell
    /// (produced by `key_fields`), then `<metric>_mean` and `<metric>_ci95`
    /// for every metric. Floats are formatted with the crate's [`fmt`], so
    /// the table is byte-stable across runs and thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `key_fields` returns a different number of fields than
    /// `key_cols` has names.
    #[must_use]
    pub fn to_tsv(&self, key_cols: &[&str], key_fields: impl Fn(&P) -> Vec<String>) -> String {
        let mut out = String::new();
        let mut cols: Vec<String> = key_cols.iter().map(ToString::to_string).collect();
        for metric in self.metrics {
            cols.push(format!("{metric}_mean"));
            cols.push(format!("{metric}_ci95"));
        }
        out.push_str(&cols.join("\t"));
        out.push('\n');
        for (cell, summaries) in self.cells.iter().zip(&self.summaries) {
            let mut fields = key_fields(cell);
            assert_eq!(fields.len(), key_cols.len(), "key field/column mismatch");
            for summary in summaries {
                fields.push(fmt(summary.mean));
                fields.push(fmt(summary.ci95));
            }
            out.push_str(&fields.join("\t"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    struct Cell(u64);
    impl SweepCell for Cell {
        fn key(&self) -> String {
            format!("cell={}", self.0)
        }
    }

    fn spec() -> SweepSpec<Cell> {
        SweepSpec::new((0..5).map(Cell).collect(), 8, 42)
    }

    fn noisy(cell: &Cell, rng: &mut StdRng) -> Vec<f64> {
        let noise = rng.gen_range(0u64..1000) as f64 / 1000.0;
        vec![cell.0 as f64 + noise, noise]
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let spec = spec();
        let reference = spec.run_with_threads(1, &["value", "noise"], noisy);
        for threads in [2, 3, 8] {
            let parallel = spec.run_with_threads(threads, &["value", "noise"], noisy);
            assert_eq!(reference.summaries, parallel.summaries, "{threads} threads diverged");
        }
    }

    #[test]
    fn seeds_differ_per_cell_and_replicate() {
        let a = replicate_seed(1, "cell=0", 0);
        let b = replicate_seed(1, "cell=0", 1);
        let c = replicate_seed(1, "cell=1", 0);
        let d = replicate_seed(2, "cell=0", 0);
        assert!(a != b && a != c && a != d && b != c);
        assert_eq!(a, replicate_seed(1, "cell=0", 0));
    }

    #[test]
    fn summaries_have_sane_shape() {
        let spec = spec();
        let results = spec.run_with_threads(4, &["value", "noise"], noisy);
        for cell in 0..5 {
            let s = results.summary(cell, "value");
            assert_eq!(s.count, 8);
            assert!(s.min >= cell as f64 && s.max < cell as f64 + 1.0);
            assert!(s.mean >= s.min && s.mean <= s.max);
            assert!(s.ci95 > 0.0, "noise should give a nonzero interval");
        }
    }

    #[test]
    fn tsv_lists_every_cell_with_ci_columns() {
        let spec = spec();
        let results = spec.run_with_threads(2, &["value", "noise"], noisy);
        let tsv = results.to_tsv(&["cell"], |c| vec![c.0.to_string()]);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "cell\tvalue_mean\tvalue_ci95\tnoise_mean\tnoise_ci95");
        assert!(lines[1].starts_with("0\t"));
    }

    #[test]
    #[should_panic(expected = "duplicate cell keys")]
    fn duplicate_keys_are_rejected() {
        let _ = SweepSpec::new(vec![Cell(1), Cell(1)], 2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_are_rejected() {
        let _ = SweepSpec::new(vec![Cell(1)], 0, 0);
    }
}
