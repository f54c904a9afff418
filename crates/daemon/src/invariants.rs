//! The live invariant checker: Observation 5.1 outdegree bounds and the
//! Lemma 6.10 stale-fraction ceiling, evaluated against wall-clock rounds.
//!
//! # Observation 5.1 (exact)
//!
//! Every live node's outdegree must be even and within `[d_L, s]` at every
//! quiescent point. The daemon's event loop runs protocol steps atomically
//! in one thread, so every check sees a quiescent state and any violation
//! is a real protocol bug — the check has no tolerance.
//!
//! # Lemma 6.10 (banded)
//!
//! Id instances of a departed node decay per round by at least the
//! survival factor `1 − (1 − ℓ − δ)·d_L/s²`. The lemma's `ℓ` is the
//! *actual* message-loss probability, which for a live daemon varies as
//! faults are injected and healed — a partition raises `ℓ` to near 1 for
//! its window, slowing decay. A ceiling computed from the configured base
//! loss would therefore under-estimate survivors during and after a
//! partition and fire false alarms precisely in the scenario the soak
//! harness drives. Instead the checker advances each departure cohort's
//! bound incrementally, one check window at a time, using the **realized**
//! loss of that window: `(base drops + injected drops + dead letters) /
//! sends`, and the realized duplication fraction `δ` = duplicating sends /
//! sends, both measured from the wire counters. The ceiling is then the cohorts'
//! total surviving instances (≤ `leaves · s · bound`) over the measured
//! edge count, with a multiplicative headroom and small additive slack for
//! sampling noise (the same banded-verdict style as
//! `sandf_bench::scenario`).
//!
//! # Cost
//!
//! A check reads the live rows three times (outdegrees, ids, entries):
//! O(live · s) with no hashing beyond one multiplicative probe per view
//! entry. A row is a node's id and the ids its view holds; the daemon
//! hands the checker its arena rows, and [`InvariantChecker::check`]
//! reads the same pair off each `&SfNode` it is given. The Lemma 6.10
//! ceiling needs only three numbers from the overlay — edges, dangling
//! edges and weakly connected components — so the walk counts them in
//! place instead of snapshotting a
//! [`MembershipGraph`](sandf_graph::MembershipGraph): every entry is an
//! edge, an entry whose id is not live is dangling, and the rest are
//! unioned in the workspace's [`DisjointSets`]. Entries resolve to seats
//! (positions in the walk) through the workspace's one id table, an
//! [`IdIndex`] over the live ids (the same index a graph snapshot
//! resolves its edges with).
//! The id list, the index and the union-find are kept across checks and
//! rebuilt in place, so a steady-state check allocates nothing. All three
//! are sized from live counts, never from ids: the index follows each
//! check's live count and the buffers keep the largest, so scratch memory
//! is O(live) whatever ids the fleet has issued.

use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_graph::{DisjointSets, IdIndex};
use sandf_markov::decay::survival_factor;

/// Multiplicative headroom on the Lemma 6.10 ceiling. The lemma bounds
/// expectations; a live run is one sample path.
pub const STALE_HEADROOM: f64 = 1.5;

/// Additive slack on the ceiling, absorbing measurement granularity at
/// small edge counts.
pub const STALE_SLACK: f64 = 0.02;

/// One departure cohort: `leaves` nodes that left in the same window, and
/// the current Lemma 6.10 survival bound on their id instances.
#[derive(Clone, Copy, Debug)]
struct Cohort {
    leaves: f64,
    bound: f64,
}

/// Cumulative wire counters at a check point. All fields are totals since
/// daemon start; the checker differences them internally.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WireTotals {
    /// Messages handed to the send path (outermost layer).
    pub sent: u64,
    /// Drops by every loss source: base loss + injected faults + dead
    /// letters to departed peers.
    pub dropped: u64,
    /// Duplicating sends among them (messages marked dependent).
    pub duplications: u64,
}

/// The result of one invariant check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The round the check ran at.
    pub round: u64,
    /// Live node count.
    pub live: usize,
    /// Mean outdegree over live nodes.
    pub mean_out: f64,
    /// Minimum outdegree.
    pub min_out: usize,
    /// Maximum outdegree.
    pub max_out: usize,
    /// Nodes violating Observation 5.1, with their outdegrees (truncated
    /// to the first [`MAX_REPORTED_VIOLATIONS`]).
    pub degree_violations: Vec<(NodeId, usize)>,
    /// Total Observation 5.1 offenders (may exceed the reported list).
    pub degree_violation_count: usize,
    /// Measured stale-edge fraction: dangling edges / total edges.
    pub stale_fraction: f64,
    /// The banded Lemma 6.10 ceiling (headroom and slack applied).
    pub stale_ceiling: f64,
    /// Whether the stale fraction exceeded the ceiling.
    pub stale_violation: bool,
    /// Weakly connected components of the live overlay.
    pub components: usize,
    /// Realized message-loss rate over the window ending at this check.
    pub window_loss: f64,
    /// Realized duplication fraction over the window.
    pub window_delta: f64,
}

/// Cap on per-check reported degree offenders (the journal is bounded).
pub const MAX_REPORTED_VIOLATIONS: usize = 16;

/// What a check reads of one live node: its id, and the ids in its
/// occupied slots, with multiplicity.
pub(crate) trait NodeRow {
    /// The node's id and its view's ids.
    fn row(self) -> (NodeId, impl Iterator<Item = NodeId>);
}

impl NodeRow for &SfNode {
    fn row(self) -> (NodeId, impl Iterator<Item = NodeId>) {
        (self.id(), self.view().ids())
    }
}

/// An arena row, as the daemon reads it.
impl<E: Iterator<Item = NodeId>> NodeRow for (NodeId, E) {
    fn row(self) -> (NodeId, impl Iterator<Item = NodeId>) {
        self
    }
}

/// The overlay counts the Lemma 6.10 ceiling and the component check read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Overlay {
    /// Every view entry of every live node, with multiplicity.
    edges: usize,
    /// Entries naming an id that is not live.
    dangling: usize,
    /// Weakly connected components of the live nodes (0 when none).
    components: usize,
}

/// The scratch behind one overlay pass, kept across checks.
#[derive(Clone, Debug)]
struct OverlayPass {
    /// The live ids, in seat (walk) order: the keys `index` reads back.
    ids: Vec<NodeId>,
    /// Id → seat, over `ids`.
    index: IdIndex,
    sets: DisjointSets,
}

impl OverlayPass {
    fn new() -> Self {
        Self { ids: Vec::new(), index: IdIndex::new(), sets: DisjointSets::new(0) }
    }

    /// Counts edges, dangling edges and components over the `live` rows
    /// `rows` yields.
    ///
    /// # Panics
    ///
    /// Panics on a repeated node id, as a graph snapshot does.
    fn measure<I>(&mut self, rows: I, live: usize) -> Overlay
    where
        I: Iterator<Item: NodeRow> + Clone,
    {
        self.ids.clear();
        self.ids.extend(rows.clone().map(|row| row.row().0));
        self.index.rebuild(&self.ids);
        self.sets.reset(live);
        let (mut edges, mut dangling) = (0, 0);
        for (seat, row) in rows.enumerate() {
            // Most entries name a node already in the seat's set: one find
            // decides that, and the seat's root is found again only after
            // a union may have moved it.
            let mut root = self.sets.find(seat);
            for id in row.row().1 {
                edges += 1;
                match self.index.get(&self.ids, id) {
                    None => dangling += 1,
                    Some(other) => {
                        if self.sets.find(other) != root {
                            self.sets.union(root, other);
                            root = self.sets.find(root);
                        }
                    }
                }
            }
        }
        Overlay { edges, dangling, components: self.sets.count() }
    }
}

/// The checker's persistent state across checks.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    config: SfConfig,
    cohorts: Vec<Cohort>,
    last_round: u64,
    last: WireTotals,
    overlay: OverlayPass,
}

impl InvariantChecker {
    /// Creates a checker for a daemon using `config`.
    #[must_use]
    pub fn new(config: SfConfig) -> Self {
        Self {
            config,
            cohorts: Vec::new(),
            last_round: 0,
            last: WireTotals::default(),
            overlay: OverlayPass::new(),
        }
    }

    /// Records a departure of `count` nodes; their survival bound starts
    /// at 1 and begins decaying from the next check window (conservative:
    /// the partial current window is not credited).
    pub fn record_leaves(&mut self, count: usize) {
        if count > 0 {
            self.cohorts.push(Cohort { leaves: count as f64, bound: 1.0 });
        }
    }

    /// Sum over cohorts of the bounded surviving instance count.
    #[must_use]
    pub fn surviving_instances_bound(&self) -> f64 {
        let s = self.config.view_size() as f64;
        self.cohorts.iter().map(|c| c.leaves * s * c.bound).sum()
    }

    /// Runs one check at `round` over the live nodes, with cumulative wire
    /// totals. Nodes must be sampled at a quiescent point (no step in
    /// flight), which the single-threaded event loop guarantees.
    pub fn check<'a, I>(&mut self, round: u64, nodes: I, totals: WireTotals) -> CheckOutcome
    where
        I: IntoIterator<Item = &'a SfNode>,
        I::IntoIter: Clone,
    {
        self.check_rows(round, nodes.into_iter(), totals)
    }

    /// [`check`](Self::check) over the live nodes' rows.
    pub(crate) fn check_rows<I>(&mut self, round: u64, rows: I, totals: WireTotals) -> CheckOutcome
    where
        I: Iterator<Item: NodeRow> + Clone,
    {
        let d_l = self.config.lower_threshold();
        let s = self.config.view_size();

        // Observation 5.1, per node, exact.
        let mut degree_violations = Vec::new();
        let mut degree_violation_count = 0;
        let (mut live, mut sum_out, mut min_out, mut max_out) = (0usize, 0usize, usize::MAX, 0);
        for row in rows.clone() {
            let (id, entries) = row.row();
            let d = entries.count();
            live += 1;
            sum_out += d;
            min_out = min_out.min(d);
            max_out = max_out.max(d);
            if !d.is_multiple_of(2) || d < d_l || d > s {
                degree_violation_count += 1;
                if degree_violations.len() < MAX_REPORTED_VIOLATIONS {
                    degree_violations.push((id, d));
                }
            }
        }
        if live == 0 {
            min_out = 0;
        }

        // Realized per-window loss and duplication rates.
        let d_sent = totals.sent.saturating_sub(self.last.sent);
        let d_dropped = totals.dropped.saturating_sub(self.last.dropped);
        let d_dup = totals.duplications.saturating_sub(self.last.duplications);
        let (window_loss, window_delta) = if d_sent == 0 {
            (0.0, 0.0)
        } else {
            (d_dropped.min(d_sent) as f64 / d_sent as f64, d_dup.min(d_sent) as f64 / d_sent as f64)
        };

        // Advance every cohort's Lemma 6.9/6.10 bound across the window.
        let elapsed = round.saturating_sub(self.last_round);
        if elapsed > 0 {
            // `ℓ + δ` capped below 1 so the factor stays a probability.
            let (l, d) = if window_loss + window_delta >= 1.0 {
                (window_loss.min(0.999), (1.0 - window_loss.min(0.999)).min(window_delta))
            } else {
                (window_loss, window_delta)
            };
            let factor = survival_factor(l, d, d_l, s).clamp(0.0, 1.0);
            let step = factor.powi(i32::try_from(elapsed.min(1 << 30)).unwrap_or(i32::MAX));
            for cohort in &mut self.cohorts {
                cohort.bound *= step;
            }
            // Prune cohorts whose bounded contribution is below one-tenth
            // of an edge; they can no longer move the ceiling.
            let s_f = s as f64;
            self.cohorts.retain(|c| c.leaves * s_f * c.bound >= 0.1);
        }
        self.last_round = round;
        self.last = totals;

        // Lemma 6.10 ceiling against the measured overlay.
        let overlay = self.overlay.measure(rows, live);
        let total_edges = overlay.edges;
        let stale_fraction =
            if total_edges == 0 { 0.0 } else { overlay.dangling as f64 / total_edges as f64 };
        let raw_ceiling = if total_edges == 0 {
            1.0
        } else {
            (self.surviving_instances_bound() / total_edges as f64).min(1.0)
        };
        let stale_ceiling = (raw_ceiling * STALE_HEADROOM + STALE_SLACK).min(1.0);
        let stale_violation = stale_fraction > stale_ceiling;

        CheckOutcome {
            round,
            live,
            mean_out: if live == 0 { 0.0 } else { sum_out as f64 / live as f64 },
            min_out,
            max_out,
            degree_violations,
            degree_violation_count,
            stale_fraction,
            stale_ceiling,
            stale_violation,
            components: overlay.components,
            window_loss,
            window_delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use sandf_core::LocalView;
    use sandf_graph::MembershipGraph;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn nodes(n: u64, degree: u64) -> Vec<SfNode> {
        (0..n)
            .map(|i| {
                let ids: Vec<NodeId> = (1..=degree).map(|k| NodeId::new((i + k) % n)).collect();
                SfNode::with_view(NodeId::new(i), config(), &ids).unwrap()
            })
            .collect()
    }

    fn totals(sent: u64, dropped: u64) -> WireTotals {
        WireTotals { sent, dropped, duplications: 0 }
    }

    #[test]
    fn healthy_fleet_passes_both_invariants() {
        let fleet = nodes(32, 6);
        let mut checker = InvariantChecker::new(config());
        let outcome = checker.check(10, fleet.iter(), totals(1000, 50));
        assert_eq!(outcome.live, 32);
        assert!(outcome.degree_violations.is_empty());
        assert_eq!(outcome.degree_violation_count, 0);
        assert!(!outcome.stale_violation);
        assert_eq!(outcome.stale_fraction, 0.0);
        assert!((outcome.mean_out - 6.0).abs() < 1e-9);
        assert_eq!(outcome.components, 1);
        assert!((outcome.window_loss - 0.05).abs() < 1e-9);
    }

    #[test]
    fn odd_and_out_of_band_degrees_are_flagged() {
        let mut fleet = nodes(8, 6);
        // Violate parity on node 0 and the lower bound on node 1 (cleared
        // to degree 0 < d_L = 4, which is even but out of band).
        fleet[0].view_mut().insert_at_first_empty(NodeId::new(3)).unwrap();
        let slots: Vec<usize> =
            (0..config().view_size()).filter(|&i| fleet[1].view().entry(i).is_some()).collect();
        for i in slots {
            fleet[1].view_mut().clear_slot(i);
        }
        let mut checker = InvariantChecker::new(config());
        let outcome = checker.check(1, fleet.iter(), totals(10, 0));
        assert_eq!(outcome.degree_violation_count, 2);
        let flagged: Vec<u64> =
            outcome.degree_violations.iter().map(|(id, _)| id.as_u64()).collect();
        assert!(flagged.contains(&0) && flagged.contains(&1));
    }

    #[test]
    fn fresh_departure_cohort_allows_its_stale_edges() {
        // 24 nodes, each pointing at the next 6; drop the last 4 nodes so
        // a sixth of edges dangle.
        let fleet = nodes(24, 6);
        let live: Vec<SfNode> = fleet[..20].to_vec();
        let mut checker = InvariantChecker::new(config());
        checker.record_leaves(4);
        let outcome = checker.check(1, live.iter(), totals(100, 0));
        assert!(outcome.stale_fraction > 0.0);
        // Ceiling bound: 4 leavers × s=12 instances ≥ their actual ≤ 24
        // dangling edges; with headroom the measured fraction must pass.
        assert!(
            !outcome.stale_violation,
            "stale {} vs ceiling {}",
            outcome.stale_fraction, outcome.stale_ceiling
        );
    }

    #[test]
    fn unexplained_stale_edges_violate_the_ceiling() {
        // Same dangling edges but no recorded departures: nothing licenses
        // the staleness, so the ceiling (just the slack) is exceeded.
        let fleet = nodes(24, 6);
        let live: Vec<SfNode> = fleet[..20].to_vec();
        let mut checker = InvariantChecker::new(config());
        let outcome = checker.check(1, live.iter(), totals(100, 0));
        assert!(outcome.stale_fraction > STALE_SLACK);
        assert!(outcome.stale_violation);
    }

    #[test]
    fn high_loss_windows_slow_the_bound_decay() {
        let fleet = nodes(16, 6);
        let mut lossy = InvariantChecker::new(config());
        let mut clean = InvariantChecker::new(config());
        lossy.record_leaves(8);
        clean.record_leaves(8);
        // 100 rounds at 90% realized loss vs 0% loss.
        let _ = lossy.check(100, fleet.iter(), totals(1000, 900));
        let _ = clean.check(100, fleet.iter(), totals(1000, 0));
        assert!(
            lossy.surviving_instances_bound() > clean.surviving_instances_bound() * 2.0,
            "lossy {} vs clean {}",
            lossy.surviving_instances_bound(),
            clean.surviving_instances_bound()
        );
    }

    #[test]
    fn cohorts_decay_toward_zero_and_are_pruned() {
        let fleet = nodes(16, 6);
        let mut checker = InvariantChecker::new(config());
        checker.record_leaves(4);
        let mut round = 0;
        let mut sent = 0;
        for _ in 0..60 {
            round += 50;
            sent += 1000;
            let _ = checker.check(round, fleet.iter(), totals(sent, 0));
        }
        assert_eq!(checker.surviving_instances_bound(), 0.0, "cohort must be pruned");
    }

    #[test]
    fn window_rates_are_deltas_not_totals() {
        let fleet = nodes(8, 6);
        let mut checker = InvariantChecker::new(config());
        let o1 =
            checker.check(10, fleet.iter(), WireTotals { duplications: 200, ..totals(1000, 500) });
        assert!((o1.window_loss - 0.5).abs() < 1e-9);
        assert!((o1.window_delta - 0.2).abs() < 1e-9);
        // Second window: 1000 more sends, zero more drops, 100 more
        // duplications.
        let o2 =
            checker.check(20, fleet.iter(), WireTotals { duplications: 300, ..totals(2000, 500) });
        assert_eq!(o2.window_loss, 0.0);
        assert!((o2.window_delta - 0.1).abs() < 1e-9);
    }

    /// A node holding `view` as is: any length up to `s`, any parity.
    fn raw_node(id: u64, view: &[u64]) -> SfNode {
        let ids: Vec<NodeId> = view.iter().map(|&raw| NodeId::new(raw)).collect();
        let s = config().view_size();
        SfNode::from_view(NodeId::new(id), config(), LocalView::from_ids(s, &ids, false))
    }

    /// A raw id from one of three bands: small, just above `u32`, and just
    /// below `u64::MAX`.
    fn sparse_id(rng: &mut StdRng) -> u64 {
        let offset = rng.gen_range(0..512u64);
        match rng.gen_range(0..3u32) {
            0 => offset,
            1 => (1 << 32) + offset,
            _ => u64::MAX - offset,
        }
    }

    /// A fleet of `n` nodes seated from `universe` (distinct ids; the
    /// universe ids left out play departed nodes), split into `islands`
    /// by universe position. A view draws from its own island, with
    /// self-entries, repeats and ids no node was ever seated under.
    fn fleet(rng: &mut StdRng, universe: &[u64], n: usize, islands: usize) -> Vec<SfNode> {
        let s = config().view_size();
        let mut order: Vec<usize> = (0..universe.len()).collect();
        order.shuffle(rng);
        order[..n]
            .iter()
            .map(|&at| {
                let mut view: Vec<u64> = Vec::new();
                for _ in 0..rng.gen_range(0..=s) {
                    let entry = match rng.gen_range(0..20u32) {
                        0..=1 => universe[at],
                        2..=3 if !view.is_empty() => view[rng.gen_range(0..view.len())],
                        4..=5 => sparse_id(rng),
                        _ => {
                            let peers = universe.len().div_ceil(islands);
                            let k = rng.gen_range(0..peers) * islands + at % islands;
                            universe[k.min(universe.len() - 1)]
                        }
                    };
                    view.push(entry);
                }
                raw_node(universe[at], &view)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one-pass counts equal a full graph snapshot's, check after
        /// check on one checker while the fleet shrinks and grows, and the
        /// stale fraction is the snapshot's ratio bit for bit.
        #[test]
        fn one_pass_agrees_with_the_membership_graph(
            seed in any::<u64>(),
            sizes in proptest::collection::vec(0usize..=200, 1..6),
            islands in 1usize..=4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut universe: Vec<u64> = (0..260).map(|_| sparse_id(&mut rng)).collect();
            universe.sort_unstable();
            universe.dedup();
            let mut checker = InvariantChecker::new(config());
            let mut pass = OverlayPass::new();
            for (k, &n) in sizes.iter().enumerate() {
                let fleet = fleet(&mut rng, &universe, n.min(universe.len()), islands);
                let graph = MembershipGraph::from_nodes(&fleet);
                let want = Overlay {
                    edges: graph.edge_count(),
                    dangling: graph.dangling_edge_count(),
                    components: graph.weakly_connected_components(),
                };
                prop_assert_eq!(pass.measure(fleet.iter(), fleet.len()), want, "check {}", k);
                let outcome = checker.check(k as u64 + 1, fleet.iter(), totals(100, 5));
                let stale = if want.edges == 0 {
                    0.0
                } else {
                    want.dangling as f64 / want.edges as f64
                };
                prop_assert_eq!(outcome.stale_fraction.to_bits(), stale.to_bits());
                prop_assert_eq!(outcome.components, want.components);
            }
        }
    }

    #[test]
    fn a_node_that_left_reads_as_dangling_at_the_next_check() {
        let fleet = nodes(16, 6);
        let mut checker = InvariantChecker::new(config());
        assert_eq!(checker.check(1, fleet.iter(), totals(10, 0)).stale_fraction, 0.0);
        // Node 15 leaves; nodes 9..=14 each hold one entry for it, and the
        // index keeps its slot count, so only a cleared index reads them.
        let outcome = checker.check(2, fleet[..15].iter(), totals(20, 0));
        assert_eq!(outcome.stale_fraction.to_bits(), (6.0f64 / 90.0).to_bits());
        assert_eq!(outcome.components, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_ids_are_rejected() {
        let mut fleet = nodes(8, 6);
        fleet.push(fleet[3].clone());
        let _ = InvariantChecker::new(config()).check(1, fleet.iter(), totals(10, 0));
    }

    #[test]
    fn scratch_is_sized_by_the_live_count_not_by_ids() {
        let high: Vec<SfNode> = (0..64u64)
            .map(|k| {
                let peers: Vec<u64> = (1..=6).map(|j| u64::MAX - (k + j) % 64).collect();
                raw_node(u64::MAX - k, &peers)
            })
            .collect();
        let ring = nodes(1000, 6);
        let mut checker = InvariantChecker::new(config());
        for fleet in [&high, &ring, &high] {
            let outcome = checker.check(1, fleet.iter(), totals(10, 0));
            assert_eq!(outcome.components, 1);
            let slots = checker.overlay.index.slot_count();
            assert!(slots <= 4 * fleet.len() + 16, "{slots} slots for {} live", fleet.len());
        }
    }
}
