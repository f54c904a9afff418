//! A shuffle protocol in the style of Cyclon / flipper (Section 3.1):
//! bidirectional exchanges that *delete* sent ids.
//!
//! Shuffles avoid spatial dependencies — ids move, they are never copied —
//! but the paper's central criticism applies: the exchange is not atomic in
//! a real network, so a lost request or reply permanently destroys the ids
//! that were in flight. "Those that delete the sent ids … are unable to
//! withstand message loss or node failures since the system gradually loses
//! more and more ids." The baseline-comparison bench demonstrates exactly
//! this drainage.

use rand::seq::SliceRandom;
use rand::Rng;
use sandf_core::NodeId;

use crate::traits::{GossipProtocol, Outgoing, ProtocolMessage};

/// A shuffle (Cyclon-style) gossip node.
#[derive(Clone, Debug)]
pub struct ShuffleNode {
    id: NodeId,
    view: Vec<NodeId>,
    capacity: usize,
    /// Number of ids exchanged per shuffle.
    gossip_size: usize,
}

impl ShuffleNode {
    /// Creates a node with the given bootstrap view, view capacity, and
    /// shuffle length.
    ///
    /// # Panics
    ///
    /// Panics if the bootstrap exceeds `capacity`, or either parameter is 0.
    #[must_use]
    pub fn new(id: NodeId, capacity: usize, gossip_size: usize, bootstrap: &[NodeId]) -> Self {
        assert!(capacity > 0 && gossip_size > 0, "parameters must be positive");
        assert!(bootstrap.len() <= capacity, "bootstrap exceeds capacity");
        Self { id, view: bootstrap.to_vec(), capacity, gossip_size }
    }

    /// Removes up to `count` randomly chosen ids from the view.
    fn take_random<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) -> Vec<NodeId> {
        let mut taken = Vec::with_capacity(count);
        for _ in 0..count {
            if self.view.is_empty() {
                break;
            }
            let k = rng.gen_range(0..self.view.len());
            taken.push(self.view.swap_remove(k));
        }
        taken
    }

    fn absorb(&mut self, ids: Vec<NodeId>) {
        // The shuffle/flipper protocols of Mahlmann–Schindelhauer operate on
        // multigraphs where self-loops and parallel edges are legal, which
        // is what makes the exchange conserve ids exactly when no message
        // is lost. Only capacity can drop an id.
        for id in ids {
            if self.view.len() < self.capacity {
                self.view.push(id);
            }
        }
    }
}

impl GossipProtocol for ShuffleNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view_ids(&self) -> Vec<NodeId> {
        self.view.clone()
    }

    fn initiate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Outgoing> {
        let &target = self.view.choose(rng)?;
        // Remove the target and up to gossip_size − 1 more ids; they travel
        // in the request and are *gone* from this view.
        let pos = self.view.iter().position(|&x| x == target).expect("chosen from view");
        self.view.swap_remove(pos);
        let mut ids = self.take_random(self.gossip_size.saturating_sub(1), rng);
        ids.push(self.id); // tell the peer who we are, Cyclon-style
        Some(Outgoing { to: target, message: ProtocolMessage::ShuffleRequest { ids } })
    }

    fn receive<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        message: ProtocolMessage,
        rng: &mut R,
    ) -> Option<Outgoing> {
        match message {
            ProtocolMessage::ShuffleRequest { ids } => {
                let reply_ids = self.take_random(self.gossip_size, rng);
                self.absorb(ids);
                Some(Outgoing {
                    to: from,
                    message: ProtocolMessage::ShuffleReply { ids: reply_ids },
                })
            }
            ProtocolMessage::ShuffleReply { ids } => {
                self.absorb(ids);
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
    fn initiate_removes_sent_ids() {
        let mut node = ShuffleNode::new(id(0), 8, 2, &[id(1), id(2), id(3)]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = node.initiate(&mut rng).unwrap();
        // Target + one more id left the view; own id joined the request.
        assert_eq!(node.out_degree(), 1);
        let ProtocolMessage::ShuffleRequest { ids } = out.message else { panic!("wrong variant") };
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&id(0)));
    }

    #[test]
    fn request_reply_conserves_ids_without_loss() {
        let mut a = ShuffleNode::new(id(0), 8, 2, &[id(1), id(5)]);
        let mut rng = StdRng::seed_from_u64(2);
        let a_before = a.out_degree();
        // The target is whichever view entry the RNG picked; build the peer
        // under that id so the request reaches its actual addressee.
        let req = a.initiate(&mut rng).unwrap();
        assert!(req.to == id(1) || req.to == id(5), "target from outside the view");
        let mut b = ShuffleNode::new(req.to, 8, 2, &[id(0), id(6)]);
        let total_before = a_before + b.out_degree();
        let reply = b.receive(id(0), req.message, &mut rng).unwrap();
        assert_eq!(reply.to, id(0));
        a.receive(id(1), reply.message, &mut rng);
        let total_after = a.out_degree() + b.out_degree();
        // The exchange moves ids around; without loss the population stays
        // within one of the original (the initiator's id entered, the
        // request's target-id copy left).
        assert!((total_after as i64 - total_before as i64).abs() <= 1);
    }

    #[test]
    fn lost_reply_destroys_ids() {
        let mut a = ShuffleNode::new(id(0), 8, 2, &[id(1), id(5)]);
        let mut b = ShuffleNode::new(id(1), 8, 2, &[id(0), id(6)]);
        let mut rng = StdRng::seed_from_u64(3);
        let before = a.out_degree() + b.out_degree();
        let req = a.initiate(&mut rng).unwrap();
        let _reply_lost = b.receive(id(0), req.message, &mut rng).unwrap();
        // Drop the reply on the floor: the ids b removed are gone.
        let after = a.out_degree() + b.out_degree();
        assert!(after < before, "loss must drain ids: {before} -> {after}");
    }

    #[test]
    fn empty_view_cannot_initiate() {
        let mut node = ShuffleNode::new(id(0), 4, 2, &[]);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(node.initiate(&mut rng).is_none());
    }
}
