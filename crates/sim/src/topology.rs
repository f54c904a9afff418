//! Initial-topology builders.
//!
//! The paper's convergence properties (M2–M4) must hold "starting from any
//! [sufficiently connected] initial state", so experiments exercise several
//! shapes. Section 6.1's analysis additionally assumes an initial state where
//! every node has the same sum degree `d_s(u) = d_m` — provided here by the
//! circulant builder.
//!
//! [`random`] draws from a generator the caller passes in; the streaming
//! [`random_iter`] gives each node its own stream under the
//! [`stream::TOPOLOGY`] tag (the [`crate::stream`] table).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf_core::{Entry, LocalView, NodeId, SfConfig, SfNode};

use crate::stream::{self, stream_seed};

/// Node `id` whose view holds `targets` (independent) in its first slots,
/// built in one allocation: the view's own slot vector.
fn node_from_targets(id: u64, config: SfConfig, targets: impl IntoIterator<Item = u64>) -> SfNode {
    let mut slots = vec![None; config.view_size()];
    for (off, target) in targets.into_iter().enumerate() {
        let slot = slots.get_mut(off).expect("topology builder exceeded view capacity");
        *slot = Some(Entry::independent(NodeId::new(target)));
    }
    SfNode::from_view(NodeId::new(id), config, LocalView::from_slots(slots))
}

/// A circulant topology: node `i` points at `i+1, …, i+d0 (mod n)`.
///
/// Every node has outdegree and indegree exactly `d0`, hence sum degree
/// `d_s(u) = 3·d0` for all `u` — the regular initial state of Section 6.1
/// (use `d0 = d_m / 3`). The graph is weakly (indeed strongly) connected.
///
/// # Panics
///
/// Panics if `d0` is odd or exceeds the view size, or if `d0 ≥ n`.
#[must_use]
pub fn circulant(n: usize, config: SfConfig, d0: usize) -> Vec<SfNode> {
    circulant_iter(n, config, d0).collect()
}

/// The lazy form of [`circulant`]: yields the same nodes in the same order
/// without materializing them. Feed it straight into the arena engines'
/// streaming constructors so building an `n = 10⁷` simulation never holds
/// more than one boxed node at a time.
///
/// # Panics
///
/// Panics if `d0` is odd or exceeds the view size, or if `d0 ≥ n`.
pub fn circulant_iter(n: usize, config: SfConfig, d0: usize) -> impl Iterator<Item = SfNode> {
    assert!(d0.is_multiple_of(2), "initial outdegree must be even (Observation 5.1)");
    assert!(d0 <= config.view_size(), "initial outdegree exceeds view size");
    assert!(d0 < n, "circulant requires d0 < n");
    let n = n as u64;
    (0..n).map(move |i| {
        // `i + k < 2n`, so one compare wraps it.
        let targets = (i + 1..=i + d0 as u64).map(|t| if t >= n { t - n } else { t });
        node_from_targets(i, config, targets)
    })
}

/// A random topology: each node selects `d0` out-neighbors uniformly at
/// random without replacement from the other nodes (indegrees come out
/// roughly binomial).
///
/// # Panics
///
/// Panics if `d0` is odd, exceeds the view size, or `d0 ≥ n`.
#[must_use]
pub fn random<R: Rng + ?Sized>(n: usize, config: SfConfig, d0: usize, rng: &mut R) -> Vec<SfNode> {
    assert!(d0.is_multiple_of(2), "initial outdegree must be even (Observation 5.1)");
    assert!(d0 <= config.view_size(), "initial outdegree exceeds view size");
    assert!(d0 < n, "random topology requires d0 < n");
    let everyone: Vec<u64> = (0..n as u64).collect();
    (0..n as u64)
        .map(|i| {
            let mut others: Vec<u64> = everyone.iter().copied().filter(|&x| x != i).collect();
            others.shuffle(rng);
            node_from_targets(i, config, others[..d0].iter().copied())
        })
        .collect()
}

/// The streaming, seeded form of [`random`]: node `i` draws its `d0`
/// distinct targets from its own stream (tag [`stream::TOPOLOGY`],
/// coordinates `(i, 0)`), so the same seed yields the same topology
/// without materializing `O(n)` scratch per node — [`random`] shuffles a
/// full id vector per node and is `O(n²)`, unusable past `n ≈ 10⁴`. Feed this into the arena engines' streaming
/// constructors for expander-like bootstraps at `n = 10⁶⁺`.
///
/// # Panics
///
/// Panics at the call, before any node is drawn, if `d0` is odd, exceeds
/// the view size, or `d0 ≥ n`.
pub fn random_iter(
    n: usize,
    config: SfConfig,
    d0: usize,
    seed: u64,
) -> impl Iterator<Item = SfNode> {
    assert!(d0.is_multiple_of(2), "initial outdegree must be even (Observation 5.1)");
    assert!(d0 <= config.view_size(), "initial outdegree exceeds view size");
    assert!(d0 < n, "random topology requires d0 < n");
    // One scratch list for the whole pass, refilled per node.
    let mut targets: Vec<u64> = Vec::with_capacity(d0);
    (0..n as u64).map(move |i| {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, stream::TOPOLOGY, i, 0));
        targets.clear();
        while targets.len() < d0 {
            let x = rng.gen_range(0..n as u64);
            if x != i && !targets.contains(&x) {
                targets.push(x);
            }
        }
        node_from_targets(i, config, targets.iter().copied())
    })
}

/// A directed ring with `d0 = 2`: node `i` points at `i±1 (mod n)` — the
/// most fragile connected initial state, used to test convergence from poor
/// topologies.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn ring(n: usize, config: SfConfig) -> Vec<SfNode> {
    assert!(n >= 3, "ring requires at least 3 nodes");
    (0..n as u64)
        .map(|i| {
            let (prev, next) = ((i + n as u64 - 1) % n as u64, (i + 1) % n as u64);
            node_from_targets(i, config, [prev, next])
        })
        .collect()
}

/// A star: every spoke points at the hub (twice, to keep outdegrees even),
/// and the hub points at the first two spokes. Extremely unbalanced.
///
/// **Caveat**: with outdegree 2 this start violates the paper's joining
/// precondition (a node must know at least `d_L` ids, Section 5) whenever
/// `d_L > 2`; integration is then extremely slow (spokes' non-self-loop
/// probability is only `2/(s(s−1))` per action) and small components can
/// split off while the hub's full view deletes spoke ids. Use
/// [`hub_cluster`] for a *legal* maximally skewed start. Keeping this
/// builder documents the failure mode.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn star(n: usize, config: SfConfig) -> Vec<SfNode> {
    assert!(n >= 3, "star requires at least 3 nodes");
    (0..n as u64)
        .map(|i| node_from_targets(i, config, if i == 0 { [1, 2] } else { [0, 0] }))
        .collect()
}

/// A hub cluster: every node's view is `{0, 1, …, d0−1}` (the hubs), with
/// self-entries skipped and wrapped. All indegree mass concentrates on `d0`
/// hubs while every outdegree is a legal `d0 ≥ d_L` — the harshest initial
/// imbalance that still satisfies the paper's joining rule.
///
/// # Panics
///
/// Panics if `d0` is odd, exceeds the view size, or `d0 + 1 ≥ n`.
#[must_use]
pub fn hub_cluster(n: usize, config: SfConfig, d0: usize) -> Vec<SfNode> {
    assert!(d0.is_multiple_of(2), "initial outdegree must be even (Observation 5.1)");
    assert!(d0 <= config.view_size(), "initial outdegree exceeds view size");
    assert!(d0 + 1 < n, "hub cluster requires d0 + 1 < n");
    (0..n as u64)
        .map(|i| node_from_targets(i, config, (0..=d0 as u64).filter(|&h| h != i).take(d0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sandf_graph::MembershipGraph;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(10, 2).unwrap()
    }

    /// Every builder against the construction it replaced, kept as the
    /// reference: per node an explicit target list (`%` wrap-around), each
    /// id placed by `insert_at_first_empty`. Small, medium and large `n`
    /// and every even `d0` up to `s`; at `n = 13, d0 = 10` most circulant
    /// rows wrap.
    #[test]
    fn builders_match_the_per_target_reference() {
        fn reference(n: u64, mut targets: impl FnMut(u64) -> Vec<u64>) -> Vec<SfNode> {
            let node = |i: u64, targets: Vec<u64>| {
                let mut node = SfNode::new(NodeId::new(i), config());
                for t in targets {
                    node.view_mut().insert_at_first_empty(NodeId::new(t)).unwrap();
                }
                node
            };
            (0..n).map(|i| node(i, targets(i))).collect()
        }
        for n in [13, 64, 1000] {
            let m = n as u64;
            for d0 in (2..=config().view_size()).step_by(2) {
                let k = d0 as u64;
                let circulant_ref = reference(m, |i| (1..=k).map(|j| (i + j) % m).collect());
                assert_eq!(circulant(n, config(), d0), circulant_ref, "n = {n}, d0 = {d0}");
                let streamed: Vec<SfNode> = random_iter(n, config(), d0, 7).collect();
                let streamed_ref = reference(m, |i| {
                    let mut rng = StdRng::seed_from_u64(stream_seed(7, stream::TOPOLOGY, i, 0));
                    let mut targets = Vec::new();
                    while targets.len() < d0 {
                        let x = rng.gen_range(0..m);
                        if x != i && !targets.contains(&x) {
                            targets.push(x);
                        }
                    }
                    targets
                });
                assert_eq!(streamed, streamed_ref, "n = {n}, d0 = {d0}");
                let mut rng = StdRng::seed_from_u64(5);
                let shuffled_ref = reference(m, |i| {
                    let mut others: Vec<u64> = (0..m).filter(|&x| x != i).collect();
                    others.shuffle(&mut rng);
                    others[..d0].to_vec()
                });
                let shuffled = random(n, config(), d0, &mut StdRng::seed_from_u64(5));
                assert_eq!(shuffled, shuffled_ref, "n = {n}, d0 = {d0}");
                let hubs_ref = reference(m, |i| (0..=k).filter(|&h| h != i).take(d0).collect());
                assert_eq!(hub_cluster(n, config(), d0), hubs_ref, "n = {n}, d0 = {d0}");
            }
            let ring_ref = reference(m, |i| vec![(i + m - 1) % m, (i + 1) % m]);
            assert_eq!(ring(n, config()), ring_ref, "n = {n}");
            let star_ref = reference(m, |i| if i == 0 { vec![1, 2] } else { vec![0, 0] });
            assert_eq!(star(n, config()), star_ref, "n = {n}");
        }
    }

    #[test]
    fn circulant_is_regular_and_connected() {
        let nodes = circulant(20, config(), 4);
        let g = MembershipGraph::from_nodes(&nodes);
        assert!(g.is_weakly_connected());
        assert!(g.out_degrees().iter().all(|&d| d == 4));
        assert!(g.in_degrees().iter().all(|&d| d == 4));
        assert!(g.sum_degrees().iter().all(|&ds| ds == 12));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn circulant_rejects_odd_degree() {
        let _ = circulant(20, config(), 3);
    }

    /// The iterator is dropped unconsumed: the check runs at the call.
    #[test]
    #[should_panic(expected = "even")]
    fn random_iter_rejects_an_odd_degree_at_the_call() {
        let _ = random_iter(20, config(), 3, 7);
    }

    #[test]
    fn random_has_exact_outdegrees_and_no_self_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let nodes = random(30, config(), 6, &mut rng);
        let g = MembershipGraph::from_nodes(&nodes);
        assert!(g.out_degrees().iter().all(|&d| d == 6));
        assert_eq!(g.self_edge_count(), 0);
        assert_eq!(g.parallel_edge_count(), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = random(16, config(), 4, &mut StdRng::seed_from_u64(9));
        let b = random(16, config(), 4, &mut StdRng::seed_from_u64(9));
        for (x, y) in a.iter().zip(&b) {
            let vx: Vec<_> = x.view().ids().collect();
            let vy: Vec<_> = y.view().ids().collect();
            assert_eq!(vx, vy);
        }
    }

    #[test]
    fn ring_is_connected_with_degree_two() {
        let nodes = ring(12, config());
        let g = MembershipGraph::from_nodes(&nodes);
        assert!(g.is_weakly_connected());
        assert!(g.out_degrees().iter().all(|&d| d == 2));
    }

    #[test]
    fn star_concentrates_indegree_at_hub() {
        let nodes = star(10, config());
        let g = MembershipGraph::from_nodes(&nodes);
        assert!(g.is_weakly_connected());
        assert_eq!(g.in_degree(NodeId::new(0)), Some(18));
        assert!(g.out_degrees().iter().all(|&d| d == 2));
    }

    #[test]
    fn hub_cluster_is_legal_and_skewed() {
        let nodes = hub_cluster(20, config(), 4);
        let g = MembershipGraph::from_nodes(&nodes);
        assert!(g.is_weakly_connected());
        assert!(g.out_degrees().iter().all(|&d| d == 4));
        assert_eq!(g.self_edge_count(), 0);
        // Hubs absorb all indegree.
        assert!(g.in_degree(NodeId::new(0)).unwrap() >= 15);
        assert_eq!(g.in_degree(NodeId::new(10)), Some(0));
    }
}
