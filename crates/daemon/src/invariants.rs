//! The live invariant checker: the workspace's one paper monitor
//! ([`sandf_markov::monitor`]) run over the daemon's fleet — Observation
//! 5.1 outdegree bounds exactly and the Lemma 6.10 stale-fraction ceiling,
//! banded, evaluated against wall-clock rounds and the wire's counters.
//! The monitor's docs give the rationale of both checks and their cost.
//!
//! The daemon hands the checker its arena: each live row is read through
//! the arena's one compaction ([`Arena::compact_row`]) into a buffer the
//! checker keeps, and every id resolves through the arena's own id table
//! ([`Arena::dense_of`]), so a steady-state check allocates nothing.
//! [`InvariantChecker::check`] takes `&SfNode`s instead, seats them in an
//! arena of its own and runs the same walk, so its fleet must be one an
//! arena holds: at least one node, distinct ids below
//! [`ARENA_ID_LIMIT`](sandf_sim::ARENA_ID_LIMIT), and an id table sized by
//! the largest id.

use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_markov::monitor::Monitor;
pub use sandf_markov::monitor::{CheckOutcome, WireTotals};
use sandf_sim::{slot_word, Arena, SfBehavior};

/// The checker's persistent state across checks.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    /// The paper monitor: departure cohorts, counters, union-find.
    pub monitor: Monitor,
    /// One row's visible words, [compacted](Arena::compact_row) in place.
    words: Vec<u32>,
}

impl InvariantChecker {
    /// Creates a checker for a daemon using `config`.
    #[must_use]
    pub fn new(config: SfConfig) -> Self {
        Self { monitor: Monitor::new(config), words: vec![0; config.view_size()] }
    }

    /// Runs one check at `round` over the live nodes, with cumulative wire
    /// totals. Nodes must be sampled at a quiescent point (no step in
    /// flight), which the single-threaded event loop guarantees.
    ///
    /// # Panics
    ///
    /// Panics unless the nodes are a fleet an [`Arena`] holds (see
    /// [`Arena::from_nodes`]): at least one, with distinct ids below
    /// [`ARENA_ID_LIMIT`](sandf_sim::ARENA_ID_LIMIT).
    pub fn check<'a, I>(&mut self, round: u64, nodes: I, totals: WireTotals) -> CheckOutcome
    where
        I: IntoIterator<Item = &'a SfNode>,
        I::IntoIter: Clone,
    {
        let nodes = nodes.into_iter();
        let rows = nodes.clone().count();
        self.check_arena(round, &Arena::from_nodes(nodes), rows, totals)
    }

    /// [`check`](Self::check) over the live rows of `arena`, which has
    /// issued `rows` rows, live and departed.
    pub(crate) fn check_arena(
        &mut self,
        round: u64,
        arena: &Arena,
        rows: usize,
        totals: WireTotals,
    ) -> CheckOutcome {
        let words = &mut self.words;
        let walk = |visit: &mut dyn FnMut(u32, &[u32])| {
            for k in arena.live_dense() {
                let d = arena.compact_row::<SfBehavior>(k, words);
                visit(slot_word(arena.id_at(k)), &words[..d]);
            }
        };
        let resolve = |word: u32| arena.dense_of(NodeId::new(word.into()));
        self.monitor.check(round, totals, rows, walk, resolve)
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
    use sandf_markov::monitor::STALE_SLACK;
    use sandf_sim::ARENA_ID_LIMIT;

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
        checker.monitor.record_leaves(0, 4);
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
        lossy.monitor.record_leaves(0, 8);
        clean.monitor.record_leaves(0, 8);
        // 100 rounds at 90% realized loss vs 0% loss.
        let _ = lossy.check(100, fleet.iter(), totals(1000, 900));
        let _ = clean.check(100, fleet.iter(), totals(1000, 0));
        assert!(
            lossy.monitor.surviving_instances_bound()
                > clean.monitor.surviving_instances_bound() * 2.0,
            "lossy {} vs clean {}",
            lossy.monitor.surviving_instances_bound(),
            clean.monitor.surviving_instances_bound()
        );
    }

    #[test]
    fn cohorts_decay_toward_zero_and_are_pruned() {
        let fleet = nodes(16, 6);
        let mut checker = InvariantChecker::new(config());
        checker.monitor.record_leaves(0, 4);
        let mut round = 0;
        let mut sent = 0;
        for _ in 0..60 {
            round += 50;
            sent += 1000;
            let _ = checker.check(round, fleet.iter(), totals(sent, 0));
        }
        assert_eq!(checker.monitor.surviving_instances_bound(), 0.0, "cohort must be pruned");
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

    /// A raw id from one of three bands of the arena's id space: small,
    /// around `2^16` and around `2^20`. An arena's id table is sized by its
    /// largest id, so a seated id stays far below [`ARENA_ID_LIMIT`].
    fn sparse_id(rng: &mut StdRng) -> u64 {
        let offset = rng.gen_range(0..512u64);
        match rng.gen_range(0..3u32) {
            0 => offset,
            1 => (1 << 16) + offset,
            _ => (1 << 20) + offset,
        }
    }

    /// A fleet of `n` nodes seated from `universe` (distinct ids; the
    /// universe ids left out play departed nodes), split into `islands`
    /// by universe position. A view draws from its own island, with
    /// self-entries, repeats, ids no node was ever seated under and ids
    /// beyond every id table, just below [`ARENA_ID_LIMIT`].
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
                        4 => sparse_id(rng),
                        5 => ARENA_ID_LIMIT - 1 - rng.gen_range(0..512u64),
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

        /// The one walk's counts equal a full graph snapshot's, check after
        /// check on one checker while the fleet shrinks and grows: the
        /// stale fraction and mean outdegree are the snapshot's ratios bit
        /// for bit, and the walked rows' indegrees its `in_degrees()`.
        #[test]
        fn one_pass_agrees_with_the_membership_graph(
            seed in any::<u64>(),
            sizes in proptest::collection::vec(1usize..=200, 1..6),
            islands in 1usize..=4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut universe: Vec<u64> = (0..260).map(|_| sparse_id(&mut rng)).collect();
            universe.sort_unstable();
            universe.dedup();
            let mut checker = InvariantChecker::new(config());
            for (k, &n) in sizes.iter().enumerate() {
                let fleet = fleet(&mut rng, &universe, n.min(universe.len()), islands);
                let graph = MembershipGraph::from_nodes(&fleet);
                let outcome = checker.check(k as u64 + 1, fleet.iter(), totals(100, 5));
                let (edges, dangling) = (graph.edge_count(), graph.dangling_edge_count());
                let stale = if edges == 0 { 0.0 } else { dangling as f64 / edges as f64 };
                prop_assert_eq!(outcome.stale_fraction.to_bits(), stale.to_bits(), "check {}", k);
                let mean = edges as f64 / fleet.len() as f64;
                prop_assert_eq!(outcome.mean_out.to_bits(), mean.to_bits(), "check {}", k);
                prop_assert_eq!(outcome.components, graph.weakly_connected_components());
                let degrees = graph.out_degrees();
                prop_assert_eq!(outcome.min_out, degrees.iter().copied().min().unwrap());
                prop_assert_eq!(outcome.max_out, degrees.iter().copied().max().unwrap());
                let in_degrees: Vec<usize> = checker.monitor.in_degrees().collect();
                prop_assert_eq!(in_degrees, graph.in_degrees(), "check {}", k);
            }
        }
    }

    #[test]
    fn a_node_that_left_reads_as_dangling_at_the_next_check() {
        let fleet = nodes(16, 6);
        let mut checker = InvariantChecker::new(config());
        assert_eq!(checker.check(1, fleet.iter(), totals(10, 0)).stale_fraction, 0.0);
        // Node 15 leaves; nodes 9..=14 each hold one entry for it.
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
}
