//! The lossy-network reference harness the arena behaviors are
//! conformance-tested against.
//!
//! Each step, a random node initiates; every produced message (requests
//! *and* replies) is independently lost with probability `ℓ` — the
//! Section 4.1 model. The drainage metric (`total_ids`) is the one the
//! paper's Section 3.1 argument is about: shuffle-style protocols bleed
//! ids under loss, keep-on-send protocols do not.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::NodeId;

use crate::traits::{GossipProtocol, Outgoing};

/// A per-node reference harness over any [`GossipProtocol`] implementation.
#[derive(Clone, Debug)]
pub struct BaselineHarness<P> {
    nodes: Vec<P>,
    loss: f64,
    rng: StdRng,
    /// Maximum request→reply chain length per action (guards against
    /// protocols that would ping-pong forever).
    max_chain: usize,
}

/// Aggregate metrics of a harness snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HarnessMetrics {
    /// Total id instances across all views.
    pub total_ids: usize,
}

impl<P: GossipProtocol> BaselineHarness<P> {
    /// Creates a harness over the given nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or `loss ∉ [0, 1]`.
    #[must_use]
    pub fn new(nodes: Vec<P>, loss: f64, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "harness needs at least one node");
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        Self { nodes, loss, rng: StdRng::seed_from_u64(seed), max_chain: 8 }
    }

    fn position(&self, id: NodeId) -> Option<usize> {
        self.nodes.iter().position(|n| n.id() == id)
    }

    /// One step: a random node initiates; the message chain (request,
    /// replies) is delivered subject to independent loss.
    ///
    /// Draw-order contract (pinned, matching the engine contract in
    /// `sandf-sim`'s traits module): loss is drawn at send time, *before*
    /// the receiver's liveness is known — a message to an id no node
    /// answers to consumes a loss draw and only then counts as a dead
    /// letter. The draw is consumed at every loss rate (including 0), so
    /// the downstream draw schedule is identical across rates and
    /// lossless-vs-lossy runs of the same seed stay paired.
    pub fn step(&mut self) {
        let initiator = self.rng.gen_range(0..self.nodes.len());
        let Some(mut outgoing) = self.nodes[initiator].initiate(&mut self.rng) else {
            return;
        };
        let mut from = self.nodes[initiator].id();
        for _ in 0..self.max_chain {
            let lost = self.rng.gen_bool(self.loss);
            if lost {
                return; // message lost; nothing downstream happens
            }
            let Some(receiver) = self.position(outgoing.to) else {
                return; // dead letter
            };
            let Outgoing { to, message } = outgoing;
            match self.nodes[receiver].receive(from, message, &mut self.rng) {
                Some(reply) => {
                    from = to;
                    outgoing = reply;
                }
                None => return,
            }
        }
    }

    /// One round: `n` random steps.
    pub fn round(&mut self) {
        for _ in 0..self.nodes.len() {
            self.step();
        }
    }

    /// Runs `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Snapshot metrics.
    #[must_use]
    pub fn metrics(&self) -> HarnessMetrics {
        HarnessMetrics { total_ids: self.nodes.iter().map(GossipProtocol::out_degree).sum() }
    }
}

#[cfg(test)]
mod tests {
    use crate::push_pull::PushPullNode;
    use crate::shuffle::ShuffleNode;

    use super::*;

    fn ring_bootstrap(n: usize, k: usize) -> Vec<Vec<NodeId>> {
        (0..n).map(|i| (1..=k).map(|d| NodeId::new(((i + d) % n) as u64)).collect()).collect()
    }

    #[test]
    fn shuffle_drains_under_loss_but_not_without() {
        let n = 64;
        let boots = ring_bootstrap(n, 6);
        let make = |seed: u64, loss: f64| {
            let nodes: Vec<ShuffleNode> = boots
                .iter()
                .enumerate()
                .map(|(i, b)| ShuffleNode::new(NodeId::new(i as u64), 12, 3, b))
                .collect();
            let mut h = BaselineHarness::new(nodes, loss, seed);
            h.run_rounds(150);
            h.metrics().total_ids
        };
        let lossless = make(1, 0.0);
        let lossy = make(1, 0.1);
        assert!(lossy * 2 < lossless, "shuffle should drain under loss: {lossless} vs {lossy}");
    }

    #[test]
    fn push_pull_is_loss_immune_and_never_shrinks() {
        let n = 32;
        let boots = ring_bootstrap(n, 4);
        let nodes: Vec<PushPullNode> = boots
            .iter()
            .enumerate()
            .map(|(i, b)| PushPullNode::new(NodeId::new(i as u64), 8, 2, b))
            .collect();
        let mut h = BaselineHarness::new(nodes, 0.2, 2);
        assert_eq!(h.metrics().total_ids, n * 4);
        h.run_rounds(100);
        assert!(h.metrics().total_ids >= n * 4);
        assert!(h.nodes.iter().all(|node| node.out_degree() > 0));
    }

    #[test]
    fn lossless_runs_pair_with_lossy_runs_of_the_same_seed() {
        // The loss draw is consumed at every rate and before the receiver
        // lookup, so a lossless run and a same-seeded run at a rate too
        // small to ever fire walk the same draw schedule — dead letters
        // (every view also holds id 99, which no node has) included.
        let run = |loss: f64| {
            let nodes: Vec<ShuffleNode> = ring_bootstrap(16, 4)
                .into_iter()
                .enumerate()
                .map(|(i, mut b)| {
                    b.push(NodeId::new(99));
                    ShuffleNode::new(NodeId::new(i as u64), 10, 3, &b)
                })
                .collect();
            let mut h = BaselineHarness::new(nodes, loss, 9);
            h.run_rounds(20);
            let views: Vec<Vec<NodeId>> = h
                .nodes
                .iter()
                .map(|n| {
                    let mut v = n.view_ids();
                    v.sort_unstable();
                    v
                })
                .collect();
            (h.metrics(), views)
        };
        let (lossless, views) = run(0.0);
        assert!(lossless.total_ids < 16 * 5, "dead letters must have destroyed ids");
        assert_eq!((lossless, views), run(1e-9));
    }
}
