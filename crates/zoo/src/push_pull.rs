//! A push-pull protocol in the style of Allavena–Demers–Hopcroft
//! (Section 3.1): reinforcement by push, mixing by pull, with sent ids kept.
//!
//! Keeping sent ids makes the protocol immune to loss (nothing is destroyed
//! when a message vanishes) at the cost of systematic spatial dependencies
//! between neighboring views — the trade-off S&F's duplication threshold is
//! designed to navigate.

use rand::seq::SliceRandom;
use rand::Rng;
use sandf_core::NodeId;

use crate::traits::{GossipProtocol, Outgoing, ProtocolMessage};

/// A push-pull gossip node with a bounded view.
#[derive(Clone, Debug)]
pub struct PushPullNode {
    id: NodeId,
    view: Vec<NodeId>,
    capacity: usize,
    /// Number of ids returned per pull reply.
    reply_size: usize,
}

impl PushPullNode {
    /// Creates a node with the given bootstrap view and capacity.
    ///
    /// # Panics
    ///
    /// Panics if the bootstrap exceeds `capacity` or a parameter is 0.
    #[must_use]
    pub fn new(id: NodeId, capacity: usize, reply_size: usize, bootstrap: &[NodeId]) -> Self {
        assert!(capacity > 0 && reply_size > 0, "parameters must be positive");
        assert!(bootstrap.len() <= capacity, "bootstrap exceeds capacity");
        Self { id, view: bootstrap.to_vec(), capacity, reply_size }
    }

    fn store<R: Rng + ?Sized>(&mut self, id: NodeId, rng: &mut R) {
        if id == self.id {
            return;
        }
        if self.view.len() < self.capacity {
            self.view.push(id);
        } else {
            let victim = rng.gen_range(0..self.view.len());
            self.view[victim] = id;
        }
    }
}

impl GossipProtocol for PushPullNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view_ids(&self) -> Vec<NodeId> {
        self.view.clone()
    }

    fn initiate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Outgoing> {
        let &target = self.view.choose(rng)?;
        // Push our own id (reinforcement) and request a pull (mixing); the
        // harness delivers the reply separately, subject to loss.
        Some(Outgoing { to: target, message: ProtocolMessage::Push { ids: vec![self.id] } })
    }

    fn receive<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        message: ProtocolMessage,
        rng: &mut R,
    ) -> Option<Outgoing> {
        match message {
            ProtocolMessage::Push { ids } => {
                for id in ids {
                    self.store(id, rng);
                }
                // Respond with a pull reply: ids are *copied*, never removed.
                let mut pool = self.view.clone();
                pool.shuffle(rng);
                pool.truncate(self.reply_size);
                Some(Outgoing { to: from, message: ProtocolMessage::PullReply { ids: pool } })
            }
            ProtocolMessage::PullReply { ids } => {
                for id in ids {
                    self.store(id, rng);
                }
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn push_keeps_local_view() {
        let mut node = PushPullNode::new(id(0), 8, 2, &[id(1), id(2)]);
        let mut rng = StdRng::seed_from_u64(1);
        node.initiate(&mut rng).unwrap();
        assert_eq!(node.out_degree(), 2);
    }

    #[test]
    fn push_triggers_pull_reply_with_copies() {
        let mut b = PushPullNode::new(id(1), 8, 2, &[id(3), id(4), id(5)]);
        let mut rng = StdRng::seed_from_u64(2);
        let before = b.out_degree();
        let reply = b.receive(id(0), ProtocolMessage::Push { ids: vec![id(0)] }, &mut rng).unwrap();
        // Reinforcement stored; reply ids are copies, view may only grow.
        assert!(b.out_degree() >= before);
        let ProtocolMessage::PullReply { ids } = reply.message else { panic!("wrong variant") };
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn lost_messages_destroy_nothing() {
        let mut a = PushPullNode::new(id(0), 8, 2, &[id(1), id(2)]);
        let b = PushPullNode::new(id(1), 8, 2, &[id(0), id(3)]);
        let mut rng = StdRng::seed_from_u64(3);
        let before = a.out_degree() + b.out_degree();
        let _lost = a.initiate(&mut rng).unwrap();
        // Neither the push nor any reply arrives; views are untouched.
        assert_eq!(a.out_degree() + b.out_degree(), before);
    }

    #[test]
    fn pull_reply_is_absorbed() {
        let mut a = PushPullNode::new(id(0), 8, 2, &[id(1)]);
        let mut rng = StdRng::seed_from_u64(4);
        let none =
            a.receive(id(1), ProtocolMessage::PullReply { ids: vec![id(7), id(8)] }, &mut rng);
        assert!(none.is_none());
        assert_eq!(a.out_degree(), 3);
    }
}
