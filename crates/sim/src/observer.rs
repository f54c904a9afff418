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
        sim.for_each_live_row(|_| true, &mut |viewer, view| {
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

    use crate::flat::FlatSimulation;
    use crate::loss::UniformLoss;
    use crate::topology;

    use super::*;

    /// A circulant (every degree 4) on the flat engine; the observers read
    /// it through [`Engine`].
    fn engine() -> FlatSimulation<UniformLoss> {
        let nodes = topology::circulant(16, SfConfig::new(12, 4).unwrap(), 4);
        FlatSimulation::new(nodes, UniformLoss::none(), 3)
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
        let mut sim = engine();
        let mut sampler = degrees(&sim);
        sampler.sample(&sim);
        assert_eq!(sampler.samples(), 2);
        assert_eq!(sampler.out_degrees().total(), 32);
        // Circulant: every outdegree is 4.
        assert_eq!(sampler.out_degrees().count(4), 32);
        assert_eq!(sampler.in_degrees().count(4), 32);
        sim.run_rounds(20);
        let (sampler, out) = (degrees(&sim), sim.graph().out_degrees());
        for d in 0..=12 {
            let nodes = out.iter().filter(|&&x| x == d).count() as u64;
            assert_eq!(sampler.out_degrees().count(d), nodes, "outdegree {d}");
        }
    }

    #[test]
    fn occupancy_counts_presence_not_multiplicity() {
        let mut sim = engine();
        // Circulant(16, d0=4): each id appears in exactly 4 views.
        let fresh = occupancy(&sim);
        assert!(sim.live_ids().into_iter().all(|id| fresh.count(id) == 4));
        // At d = d_L every send duplicates, so 20 rounds in the views hold
        // repeated ids: presence counts each (viewer, id) pair once.
        sim.run_rounds(20);
        let counted = occupancy(&sim);
        // Exactly: all edges, less the repeated copies, less each viewer's
        // own id.
        let ids = sim.live_ids();
        let graph = sim.graph();
        assert!(graph.parallel_edge_count() > 0, "no duplicate arose in 20 rounds");
        let own = ids.iter().filter(|&&u| graph.edge_multiplicity(u, u) > 0).count();
        let presence: u64 = counted.counts().iter().sum();
        assert_eq!(presence as usize + own, graph.edge_count() - graph.parallel_edge_count());
    }

    #[test]
    fn occupancy_chi_square_is_zero_for_regular_topology() {
        let mut sim = engine();
        let fresh = occupancy(&sim);
        assert_eq!(fresh.chi_square(), Some(0.0));
        assert_eq!(fresh.max_min_ratio(), Some(1.0));
        assert_eq!(fresh.snapshots(), 1);
        sim.run_rounds(20);
        assert!(occupancy(&sim).chi_square() > Some(0.0), "20 rounds left the circulant regular");
    }
}
