//! The interface of the per-node reference implementations, so one
//! harness can drive either of them.

use rand::Rng;
use sandf_core::NodeId;

/// A message of one of the baseline protocols.
///
/// S&F needs only a single one-way message type; the baselines from the
/// paper's Section 3.1 taxonomy need request/reply pairs (pull-based mixing
/// and shuffles), which is exactly what makes them fragile under loss: a
/// lost reply strands ids that were already removed from the requester's
/// view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolMessage {
    /// One-way push of ids (reinforcement and/or mixing by push).
    Push {
        /// The pushed ids.
        ids: Vec<NodeId>,
    },
    /// A shuffle request carrying ids the initiator *removed* from its view.
    ShuffleRequest {
        /// The offered ids.
        ids: Vec<NodeId>,
    },
    /// The shuffle reply carrying ids the responder removed from its view.
    ShuffleReply {
        /// The returned ids.
        ids: Vec<NodeId>,
    },
    /// The pull reply with ids copied (not removed) from the responder.
    PullReply {
        /// The copied ids.
        ids: Vec<NodeId>,
    },
}

/// An addressed outgoing message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outgoing {
    /// The destination node.
    pub to: NodeId,
    /// The message body.
    pub message: ProtocolMessage,
}

/// A gossip membership protocol participant, driven by a shared harness.
pub trait GossipProtocol {
    /// This node's id.
    fn id(&self) -> NodeId;

    /// The ids currently in the local view (with multiplicity).
    fn view_ids(&self) -> Vec<NodeId>;

    /// The current outdegree.
    fn out_degree(&self) -> usize {
        self.view_ids().len()
    }

    /// Initiates one protocol action, possibly producing a message.
    fn initiate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Outgoing>;

    /// Handles a delivered message, possibly producing a reply.
    fn receive<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        message: ProtocolMessage,
        rng: &mut R,
    ) -> Option<Outgoing>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_compare_by_variant_and_payload() {
        let push = ProtocolMessage::Push { ids: vec![NodeId::new(1)] };
        let reply = ProtocolMessage::PullReply { ids: vec![NodeId::new(1)] };
        assert_ne!(push, reply);
        let a = Outgoing { to: NodeId::new(1), message: push };
        assert_eq!(a, a.clone());
    }
}
