//! Measurement hooks that accumulate statistics across simulation rounds.

use std::collections::BTreeMap;

use sandf_core::NodeId;
use sandf_graph::{chi_square_uniform, Histogram};

use crate::traits::{widen, Engine};

/// Accumulates in/outdegree histograms across snapshots, pooling all nodes —
/// the empirical counterpart of the degree-MC stationary distributions of
/// Figures 6.1 and 6.3.
#[derive(Clone, Debug, Default)]
pub struct DegreeSampler {
    out_degrees: Histogram,
    in_degrees: Histogram,
    samples: u64,
}

impl DegreeSampler {
    /// Creates an empty sampler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the degrees of every live node in the simulation.
    pub fn sample(&mut self, sim: &impl Engine) {
        let graph = sim.graph();
        for d in graph.out_degrees() {
            self.out_degrees.record(d);
        }
        for d in graph.in_degrees() {
            self.in_degrees.record(d);
        }
        self.samples += 1;
    }

    /// The pooled outdegree histogram.
    #[must_use]
    pub fn out_degrees(&self) -> &Histogram {
        &self.out_degrees
    }

    /// The pooled indegree histogram.
    #[must_use]
    pub fn in_degrees(&self) -> &Histogram {
        &self.in_degrees
    }

    /// Number of snapshots recorded.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Counts, per node id, how often it appears in other nodes' views —
/// the empirical side of Property M3 / Lemma 7.6: in the steady state every
/// `v ≠ u` has the same probability of appearing in `u`'s view.
#[derive(Clone, Debug, Default)]
pub struct OccupancyCounter {
    appearances: BTreeMap<NodeId, u64>,
    snapshots: u64,
}

impl OccupancyCounter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records, for every live node `v`, the number of *other* views that
    /// currently contain `v` (presence, not multiplicity — matching the
    /// event `v ∈ u.lv`).
    pub fn sample(&mut self, sim: &impl Engine) {
        let mut seen: Vec<u32> = Vec::new();
        sim.for_each_live_row(&mut |viewer, view| {
            seen.clear();
            seen.extend_from_slice(view);
            seen.sort_unstable();
            seen.dedup();
            for &v in &seen {
                if v != viewer {
                    *self.appearances.entry(widen(v)).or_insert(0) += 1;
                }
            }
        });
        self.snapshots += 1;
    }

    /// Appearance counts in id order (one entry per id seen).
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        self.appearances.values().copied().collect()
    }

    /// Appearance count for a specific id.
    #[must_use]
    pub fn count(&self, id: NodeId) -> u64 {
        self.appearances.get(&id).copied().unwrap_or(0)
    }

    /// Number of snapshots recorded.
    #[must_use]
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Pearson χ² statistic of the appearance counts against uniformity
    /// (`None` with fewer than two ids observed). Under Lemma 7.6 this
    /// should stay near its degrees of freedom (`ids − 1`) over long runs.
    #[must_use]
    pub fn chi_square(&self) -> Option<f64> {
        let counts = self.counts();
        chi_square_uniform(&counts)
    }

    /// The ratio between the most- and least-represented ids (`None` when
    /// degenerate). Close to 1 under uniformity.
    #[must_use]
    pub fn max_min_ratio(&self) -> Option<f64> {
        let counts = self.counts();
        let max = counts.iter().max()?;
        let min = counts.iter().min()?;
        (*min > 0).then(|| *max as f64 / *min as f64)
    }
}

#[cfg(test)]
mod tests {
    use sandf_core::SfConfig;

    use crate::engine::Simulation;
    use crate::flat::FlatSimulation;
    use crate::loss::UniformLoss;
    use crate::topology;

    use super::*;

    /// The same circulant (every degree 4) on the classic oracle and on the
    /// arena engine: the observers read both through [`Engine`], so every
    /// test below also holds the oracle's `for_each_live_row` / `graph` to
    /// the arena's, fresh and 20 rounds in.
    fn engines() -> (Simulation<UniformLoss>, FlatSimulation<UniformLoss>) {
        let nodes = || topology::circulant(16, SfConfig::new(12, 4).unwrap(), 4);
        (
            Simulation::new(nodes(), UniformLoss::none(), 3),
            FlatSimulation::new(nodes(), UniformLoss::none(), 3),
        )
    }

    fn degrees(sim: &impl Engine) -> DegreeSampler {
        let mut sampler = DegreeSampler::new();
        sampler.sample(sim);
        sampler
    }

    fn occupancy(sim: &impl Engine) -> OccupancyCounter {
        let mut counter = OccupancyCounter::new();
        counter.sample(sim);
        counter
    }

    #[test]
    fn degree_sampler_pools_all_nodes() {
        let (mut classic, mut flat) = engines();
        let mut sampler = degrees(&flat);
        sampler.sample(&classic);
        assert_eq!(sampler.samples(), 2);
        assert_eq!(sampler.out_degrees().total(), 32);
        // Circulant: every outdegree is 4.
        assert_eq!(sampler.out_degrees().count(4), 32);
        assert_eq!(sampler.in_degrees().count(4), 32);
        classic.run_rounds(20);
        flat.run_rounds(20);
        let (on_classic, on_flat) = (degrees(&classic), degrees(&flat));
        assert_eq!(on_classic.out_degrees(), on_flat.out_degrees());
        assert_eq!(on_classic.in_degrees(), on_flat.in_degrees());
    }

    #[test]
    fn occupancy_counts_presence_not_multiplicity() {
        let (mut classic, mut flat) = engines();
        // Circulant(16, d0=4): each id appears in exactly 4 views.
        let fresh = occupancy(&flat);
        assert!(flat.live_ids().into_iter().all(|id| fresh.count(id) == 4));
        // At d = d_L every send duplicates, so 20 rounds in the views hold
        // repeated ids: presence counts each (viewer, id) pair once.
        classic.run_rounds(20);
        flat.run_rounds(20);
        let (on_classic, on_flat) = (occupancy(&classic), occupancy(&flat));
        let ids = flat.live_ids();
        for &id in &ids {
            assert_eq!(on_classic.count(id), on_flat.count(id), "engines disagree on {id}");
        }
        // Exactly: all edges, less the repeated copies, less each viewer's
        // own id.
        let graph = flat.graph();
        assert!(graph.parallel_edge_count() > 0, "no duplicate arose in 20 rounds");
        let own = ids.iter().filter(|&&u| graph.edge_multiplicity(u, u) > 0).count();
        let presence: u64 = on_flat.counts().iter().sum();
        assert_eq!(presence as usize + own, graph.edge_count() - graph.parallel_edge_count());
    }

    #[test]
    fn occupancy_chi_square_is_zero_for_regular_topology() {
        let (mut classic, mut flat) = engines();
        for fresh in [occupancy(&classic), occupancy(&flat)] {
            assert_eq!(fresh.chi_square(), Some(0.0));
            assert_eq!(fresh.max_min_ratio(), Some(1.0));
            assert_eq!(fresh.snapshots(), 1);
        }
        classic.run_rounds(20);
        flat.run_rounds(20);
        let (on_classic, on_flat) = (occupancy(&classic), occupancy(&flat));
        assert_eq!(on_classic.counts(), on_flat.counts());
        assert_eq!(on_classic.chi_square(), on_flat.chi_square());
        assert!(on_flat.chi_square() > Some(0.0), "20 rounds left the circulant regular");
    }
}
