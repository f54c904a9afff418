//! High-level experiment runners used by the bench harness and the
//! integration tests. Every runner is deterministic given its seed.

use sandf_core::SfConfig;
use sandf_graph::{edge_jaccard, Histogram, MembershipGraph};

use crate::flat::FlatSimulation;
use crate::loss::UniformLoss;
use crate::observer::{DegreeSampler, OccupancyCounter};
use crate::topology;
use crate::traits::Engine;

/// Common experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentParams {
    /// System size `n`.
    pub n: usize,
    /// Protocol configuration (`s`, `d_L`).
    pub config: SfConfig,
    /// Uniform message-loss rate `ℓ`.
    pub loss: f64,
    /// Rounds to run before measuring (reaching the steady state).
    pub burn_in: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentParams {
    /// Builds the simulation these parameters describe (circulant bootstrap
    /// at [`initial_degree`], uniform loss, seeded RNG), without running it.
    /// The result is owned and `Send`, so callers may move it onto a worker
    /// thread and drive it there — e.g. via
    /// [`FlatSimulation::run_replicate`].
    #[must_use]
    pub fn build(&self) -> FlatSimulation<UniformLoss> {
        let nodes = topology::circulant(self.n, self.config, initial_degree(self.config, self.n));
        let loss = UniformLoss::new(self.loss).expect("loss rate validated by caller");
        FlatSimulation::new(nodes, loss, self.seed)
    }
}

/// The initial outdegree every experiment bootstraps its circulant with:
/// two thirds of the way from `d_L` to `s`, clamped to `n − 2`, even — so
/// the system starts inside the legal band.
#[must_use]
pub fn initial_degree(config: SfConfig, n: usize) -> usize {
    let s = config.view_size();
    let d_l = config.lower_threshold();
    let mid = d_l + (s - d_l) * 2 / 3;
    mid.min(n.saturating_sub(2)).max(2) & !1
}

/// Pooled steady-state degree histograms (empirical counterpart of the
/// degree MC of Section 6.2; overlaid on Figures 6.1/6.3).
#[derive(Clone, Debug)]
pub struct DegreeDistributions {
    /// Pooled outdegree histogram.
    pub out_degrees: Histogram,
    /// Pooled indegree histogram.
    pub in_degrees: Histogram,
}

/// Runs to the steady state and samples degree distributions every
/// `sample_every` rounds, `samples` times.
#[must_use]
pub fn steady_state_degrees(
    params: &ExperimentParams,
    samples: usize,
    sample_every: usize,
) -> DegreeDistributions {
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    let mut sampler = DegreeSampler::new();
    for _ in 0..samples {
        sim.run_rounds(sample_every);
        sampler.sample(&sim);
    }
    DegreeDistributions {
        out_degrees: sampler.out_degrees().clone(),
        in_degrees: sampler.in_degrees().clone(),
    }
}

/// Measured protocol event rates in the steady state, for checking the
/// loss-compensation identities of Lemmas 6.6 and 6.7.
#[derive(Clone, Copy, Debug)]
pub struct EventRates {
    /// Empirical duplication probability per non-self-loop action.
    pub duplication: f64,
    /// Empirical deletion probability per non-self-loop action.
    pub deletion: f64,
    /// Empirical loss rate (including dead letters).
    pub loss: f64,
}

/// Measures duplication/deletion/loss rates over `measure_rounds` rounds
/// after burn-in.
#[must_use]
pub fn steady_state_event_rates(params: &ExperimentParams, measure_rounds: usize) -> EventRates {
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    sim.reset_stats();
    sim.run_rounds(measure_rounds);
    let stats = sim.stats();
    EventRates {
        duplication: stats.duplication_rate().unwrap_or(0.0),
        deletion: stats.deletion_rate().unwrap_or(0.0),
        loss: stats.loss_rate().unwrap_or(0.0),
    }
}

/// Tracks the decay of a departed node's id instances (Lemma 6.10 /
/// Figure 6.4): returns, for each round after the leave, the fraction of the
/// original instance count still present in live views.
#[must_use]
pub fn leave_decay(params: &ExperimentParams, track_rounds: usize) -> Vec<f64> {
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    let victim = sim.live_ids()[0];
    sim.leave(victim);
    let initial = sim.count_id_instances(victim).max(1) as f64;
    let mut fractions = Vec::with_capacity(track_rounds);
    for _ in 0..track_rounds {
        sim.round();
        fractions.push(sim.count_id_instances(victim) as f64 / initial);
    }
    fractions
}

/// Result of the join-integration experiment (Lemma 6.13 / Corollary 6.14).
#[derive(Clone, Debug)]
pub struct JoinIntegration {
    /// Average indegree `D_in` of the steady-state system at join time.
    pub d_in_at_join: f64,
    /// Number of instances of the joiner's id after each round since joining.
    pub instances_per_round: Vec<usize>,
}

/// Lets a steady-state system absorb one joiner and tracks how many
/// instances of its id exist after each round. Corollary 6.14: with
/// `ℓ + δ ≪ 1` and `s / d_L = 2`, after `2s` rounds the joiner is expected
/// to have created at least `D_in / 4` instances.
#[must_use]
pub fn join_integration(params: &ExperimentParams, track_rounds: usize) -> JoinIntegration {
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    let graph = sim.graph();
    let d_in_at_join = graph.in_degrees().iter().sum::<usize>() as f64 / graph.node_count() as f64;
    let sponsor = sim.live_ids()[0];
    let joiner = sim.join_via(sponsor).expect("steady-state sponsor has a full enough view");
    let mut instances_per_round = Vec::with_capacity(track_rounds);
    for _ in 0..track_rounds {
        sim.round();
        instances_per_round.push(sim.count_id_instances(joiner));
    }
    JoinIntegration { d_in_at_join, instances_per_round }
}

/// One point of the temporal-independence decay curve (Section 7.5).
#[derive(Clone, Copy, Debug)]
pub struct OverlapPoint {
    /// Actions initiated per node since the reference snapshot.
    pub actions_per_node: f64,
    /// Edge-multiset Jaccard similarity with the reference snapshot.
    pub jaccard: f64,
}

/// Measures how fast the membership graph forgets a steady-state snapshot:
/// records the edge-overlap with the initial graph after every
/// `measure_every` rounds, `points` times. Property M5 predicts decay to the
/// independent-graph baseline after `O(s log n)` actions per node.
#[must_use]
pub fn temporal_overlap(
    params: &ExperimentParams,
    points: usize,
    measure_every: usize,
) -> Vec<OverlapPoint> {
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    let reference: MembershipGraph = sim.graph();
    let mut curve = Vec::with_capacity(points + 1);
    curve.push(OverlapPoint { actions_per_node: 0.0, jaccard: 1.0 });
    for k in 1..=points {
        sim.run_rounds(measure_every);
        curve.push(OverlapPoint {
            actions_per_node: (k * measure_every) as f64,
            jaccard: edge_jaccard(&reference, &sim.graph()),
        });
    }
    curve
}

/// Result of the uniformity experiment (Lemma 7.6 / Property M3).
#[derive(Clone, Copy, Debug)]
pub struct UniformityReport {
    /// Pearson χ² of per-id appearance counts against uniformity.
    pub chi_square: f64,
    /// Degrees of freedom (`ids − 1`).
    pub degrees_of_freedom: usize,
    /// Ratio of the most- to the least-represented id.
    pub max_min_ratio: f64,
}

/// Samples id-appearance counts over a long steady-state run and tests them
/// against uniformity.
#[must_use]
pub fn uniformity(
    params: &ExperimentParams,
    samples: usize,
    sample_every: usize,
) -> UniformityReport {
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    let mut counter = OccupancyCounter::new();
    for _ in 0..samples {
        sim.run_rounds(sample_every);
        counter.sample(&sim);
    }
    let counts = counter.counts();
    UniformityReport {
        chi_square: counter.chi_square().unwrap_or(0.0),
        degrees_of_freedom: counts.len().saturating_sub(1),
        max_min_ratio: counter.max_min_ratio().unwrap_or(1.0),
    }
}

/// One checkpoint of a continuous-churn run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPoint {
    /// Rounds elapsed.
    pub round: usize,
    /// Live node count (constant: each leave is paired with a join).
    pub n: usize,
    /// Weakly connected components of the live subgraph.
    pub components: usize,
    /// Mean live indegree.
    pub mean_in_degree: f64,
    /// Standard deviation of live indegrees.
    pub in_degree_std: f64,
    /// Fraction of view entries pointing at departed nodes (staleness).
    pub stale_fraction: f64,
}

/// Runs the system under *continuous churn*: every `churn_interval` rounds
/// one random node leaves (crashes) and one joins via a random sponsor
/// (Section 5's joining rule). Checkpoints every `checkpoint_every` rounds.
///
/// The paper requires churn to "cease from some point onward" for its
/// steady-state properties; this runner measures how far the system stays
/// from that ideal while churn is *ongoing* — connectivity, load balance,
/// and the stale-id fraction (Section 6.5's decaying instances, in
/// flight). Dead ids decay with a per-round rate of roughly
/// `(1−ℓ−δ)·d_L/s²` (Lemma 6.9), so churn intervals short relative to
/// `s²/d_L` rounds let stale entries accumulate and eventually shred the
/// overlay — the `churn_sweep` bench maps that boundary.
///
/// # Panics
///
/// Panics if `churn_interval` is zero.
#[must_use]
pub fn continuous_churn(
    params: &ExperimentParams,
    churn_interval: usize,
    rounds: usize,
    checkpoint_every: usize,
) -> Vec<ChurnPoint> {
    assert!(churn_interval > 0, "churn interval must be positive");
    let mut sim = params.build();
    sim.run_rounds(params.burn_in);
    let mut points = Vec::new();
    for round in 1..=rounds {
        if round % churn_interval == 0 {
            // Crash a random live node, then admit a replacement through a
            // random sponsor.
            let victim = sim.live_ids()[round % sim.len()];
            sim.leave(victim);
            let sponsor = sim.live_ids()[(round / 2) % sim.len()];
            let _ = sim.join_via(sponsor);
        }
        sim.round();
        if round % checkpoint_every == 0 {
            let graph = sim.graph();
            let in_stats = sandf_graph::DegreeStats::from_samples(&graph.in_degrees());
            let total_edges = graph.edge_count();
            let stale = graph.dangling_edge_count();
            points.push(ChurnPoint {
                round,
                n: graph.node_count(),
                components: graph.weakly_connected_components(),
                mean_in_degree: in_stats.mean,
                in_degree_std: in_stats.std_dev(),
                stale_fraction: if total_edges == 0 {
                    0.0
                } else {
                    stale as f64 / total_edges as f64
                },
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(loss: f64, seed: u64) -> ExperimentParams {
        ExperimentParams { n: 64, config: SfConfig::new(16, 6).unwrap(), loss, burn_in: 60, seed }
    }

    #[test]
    fn steady_state_degrees_have_sane_support() {
        let dist = steady_state_degrees(&params(0.01, 1), 10, 2);
        assert_eq!(dist.out_degrees.total(), 64 * 10);
        let mean_out = dist.out_degrees.mean();
        assert!((6.0..=16.0).contains(&mean_out), "mean outdegree {mean_out}");
        // Mean in == mean out only up to dangling edges; without churn they
        // must agree exactly.
        assert!((dist.in_degrees.mean() - mean_out).abs() < 1e-9);
    }

    #[test]
    fn event_rates_satisfy_loss_compensation() {
        // Lemma 6.6: dup = ℓ + del in the steady state.
        let rates = steady_state_event_rates(&params(0.05, 2), 400);
        assert!((rates.loss - 0.05).abs() < 0.01, "loss {}", rates.loss);
        let lhs = rates.duplication;
        let rhs = rates.loss + rates.deletion;
        assert!((lhs - rhs).abs() < 0.02, "dup {lhs} vs loss+del {rhs}");
    }

    #[test]
    fn leave_decay_is_monotonically_shrinking_overall() {
        let fractions = leave_decay(&params(0.01, 3), 300);
        assert!(fractions[0] <= 1.2);
        let last = *fractions.last().unwrap();
        assert!(last < 0.3, "dead id should mostly vanish, still {last}");
    }

    #[test]
    fn join_integration_creates_instances() {
        let result = join_integration(&params(0.01, 4), 40);
        assert!(result.d_in_at_join > 0.0);
        let last = *result.instances_per_round.last().unwrap();
        assert!(last >= 2, "joiner should gain representation, has {last}");
    }

    #[test]
    fn temporal_overlap_decays() {
        let curve = temporal_overlap(&params(0.0, 5), 8, 10);
        assert_eq!(curve.len(), 9);
        assert_eq!(curve[0].jaccard, 1.0);
        let last = curve.last().unwrap().jaccard;
        assert!(last < 0.5, "overlap should decay, still {last}");
    }

    #[test]
    fn continuous_churn_keeps_the_system_healthy() {
        let points = continuous_churn(&params(0.01, 8), 8, 240, 60);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.n, 64, "leave/join pairing broke the population");
            assert!(p.components <= 2, "churn partitioned the overlay: {p:?}");
            assert!(p.mean_in_degree > 4.0, "views collapsed: {p:?}");
            assert!(p.stale_fraction < 0.5, "stale ids dominate: {p:?}");
        }
    }

    #[test]
    fn uniformity_report_is_reasonable() {
        // Samples of Pr(v ∈ u.lv) are correlated across nearby rounds, so
        // the bands here are loose; the dedicated uniformity bench runs far
        // longer for the Lemma 7.6 check.
        // Spacing samples ~2·s rounds apart keeps them roughly independent
        // (temporal independence needs O(s log n) actions per node).
        let report = uniformity(&params(0.01, 6), 40, 30);
        assert_eq!(report.degrees_of_freedom, 63);
        assert!(report.max_min_ratio < 2.5, "ratio {}", report.max_min_ratio);
        // Residual cross-sample correlation inflates χ² well beyond its dof
        // even under perfect uniformity; the band below still rejects gross
        // bias (a star topology scores two orders of magnitude higher).
        assert!(report.chi_square < 63.0 * 10.0, "chi2 {}", report.chi_square);
    }
}
