//! The S&F node state machine (Figure 5.1).

use rand::Rng;

use crate::config::SfConfig;
use crate::error::JoinError;
use crate::event::{InitiateOutcome, ReceiveOutcome};
use crate::id::NodeId;
use crate::message::Message;
use crate::metrics::NodeStats;
use crate::view::{Entry, LocalView};

/// A single S&F protocol participant.
///
/// The node owns its local view and implements the two atomic *steps* of the
/// protocol (Section 4.1): [`initiate`](Self::initiate) and
/// [`receive`](Self::receive). Each step touches only this node's state, so a
/// step can execute atomically even when messages are lost — the caller (a
/// simulator or a network runtime) decides whether the produced message is
/// delivered, reordered, or dropped.
///
/// # Examples
///
/// Two nodes exchanging one message by hand:
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use sandf_core::{InitiateOutcome, NodeId, SfConfig, SfNode};
///
/// let config = SfConfig::lossless(6)?;
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// let mut alice = SfNode::with_view(a, config, &[b, b])?;
/// let mut bob = SfNode::with_view(b, config, &[a, a])?;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// if let InitiateOutcome::Sent { to, message, .. } = alice.initiate(&mut rng) {
///     assert_eq!(to, b);
///     bob.receive(message, &mut rng);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SfNode {
    id: NodeId,
    config: SfConfig,
    view: LocalView,
    stats: NodeStats,
}

impl SfNode {
    /// Creates a node with an empty view.
    ///
    /// A node with an empty view never produces messages (every action is a
    /// self-loop) but can still receive. With `d_L > 0`, prefer
    /// [`with_view`](Self::with_view), which enforces the paper's joining
    /// rule: a joiner must know at least `d_L` live ids (Section 5).
    #[must_use]
    pub fn new(id: NodeId, config: SfConfig) -> Self {
        Self { id, config, view: LocalView::new(config.view_size()), stats: NodeStats::new() }
    }

    /// Creates a node bootstrapped with the given ids, validating the
    /// Section 5 joining rule.
    ///
    /// The bootstrap entries are tagged *dependent*: a joiner typically
    /// copies another node's view, so its initial entries convey duplicated
    /// information (this keeps Assumption 7.7 accounting honest).
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] when fewer than `d_L` ids or more than `s` ids
    /// are supplied, or when the count is odd (outdegrees must stay even,
    /// Observation 5.1).
    pub fn with_view(id: NodeId, config: SfConfig, ids: &[NodeId]) -> Result<Self, JoinError> {
        config.check_bootstrap(ids.len())?;
        Ok(Self {
            id,
            config,
            view: LocalView::from_ids(config.view_size(), ids, true),
            stats: NodeStats::new(),
        })
    }

    /// Creates a node from a pre-built view, for constructing synthetic
    /// initial topologies in simulations and tests.
    ///
    /// # Panics
    ///
    /// Panics if the view's capacity differs from the configured view size.
    #[must_use]
    pub fn from_view(id: NodeId, config: SfConfig, view: LocalView) -> Self {
        assert_eq!(
            view.capacity(),
            config.view_size(),
            "view capacity must equal the configured view size"
        );
        Self { id, config, view, stats: NodeStats::new() }
    }

    /// This node with its event counters set to `stats`: a runtime that
    /// keeps a node's counters beside its view (the daemon does) hands the
    /// node back whole.
    #[must_use]
    pub fn with_stats(self, stats: NodeStats) -> Self {
        Self { stats, ..self }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> SfConfig {
        self.config
    }

    /// The local view.
    #[must_use]
    pub fn view(&self) -> &LocalView {
        &self.view
    }

    /// Mutable access to the local view.
    ///
    /// Intended for simulation harnesses that rewire topologies (churn
    /// bootstrapping, initial-state construction); the protocol itself never
    /// needs it. Mutating the view mid-run invalidates none of the protocol's
    /// invariant *checks*, but may of course violate Observation 5.1 if used
    /// carelessly.
    pub fn view_mut(&mut self) -> &mut LocalView {
        &mut self.view
    }

    /// The node's outdegree `d(u)` — its number of occupied view slots.
    #[must_use]
    pub fn out_degree(&self) -> usize {
        self.view.out_degree()
    }

    /// Event counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Resets the event counters (e.g. after a burn-in period).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Executes `S&F-InitiateAction` (Figure 5.1, left).
    ///
    /// Selects two distinct slots `i ≠ j` uniformly at random. If either is
    /// empty the action is a self-loop and the view is unchanged. Otherwise
    /// the node produces a message `[u, w]` addressed to `v = lv[i]` carrying
    /// `w = lv[j]`, and clears both slots — unless its outdegree is at most
    /// `d_L`, in which case the entries are *duplicated* (kept).
    ///
    /// The caller is responsible for delivering (or losing) the returned
    /// message; the node deliberately keeps no record of it ("send &
    /// forget").
    pub fn initiate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> InitiateOutcome {
        self.stats.initiated += 1;
        let (i, j) = self.view.pick_two_distinct_slots(rng);
        let (Some(target), Some(payload)) = (self.view.entry(i), self.view.entry(j)) else {
            self.stats.self_loops += 1;
            return InitiateOutcome::SelfLoop;
        };
        let duplicated = self.view.out_degree() <= self.config.lower_threshold();
        if duplicated {
            self.stats.duplications += 1;
        } else {
            self.view.clear_slot(i);
            self.view.clear_slot(j);
        }
        self.stats.sent += 1;
        InitiateOutcome::Sent {
            to: target.id,
            message: Message::new(self.id, payload.id, duplicated),
            duplicated,
            slots: (i, j),
        }
    }

    /// Executes `S&F-Receive` (Figure 5.1, right).
    ///
    /// Stores both received ids (the sender's own id and the payload) into
    /// empty slots chosen uniformly at random — unless the view is full
    /// (`d(u) = s`), in which case both are deleted.
    pub fn receive<R: Rng + ?Sized>(&mut self, message: Message, rng: &mut R) -> ReceiveOutcome {
        if self.view.out_degree() >= self.config.view_size() {
            self.stats.deletions += 1;
            return ReceiveOutcome::Deleted;
        }
        let sender_slot = self
            .view
            .insert_into_random_empty(
                rng,
                Entry { id: message.sender, dependent: message.dependent },
            )
            .expect("outdegree below s implies an empty slot");
        let payload_slot = self
            .view
            .insert_into_random_empty(
                rng,
                Entry { id: message.payload, dependent: message.dependent },
            )
            .expect("even outdegrees below even s leave two empty slots");
        self.stats.stored += 1;
        ReceiveOutcome::Stored { sender_slot, payload_slot }
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

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn full_node(owner: u64, config: SfConfig) -> SfNode {
        let ids: Vec<NodeId> = (0..config.view_size() as u64).map(|k| id(100 + k)).collect();
        SfNode::with_view(id(owner), config, &ids).unwrap()
    }

    #[test]
    fn with_view_enforces_joining_rule() {
        let config = SfConfig::new(10, 4).unwrap();
        assert_eq!(
            SfNode::with_view(id(0), config, &[id(1), id(2)]),
            Err(JoinError::TooFewIds { supplied: 2, d_l: 4 })
        );
        let eleven: Vec<NodeId> = (1..=11).map(id).collect();
        assert!(matches!(
            SfNode::with_view(id(0), config, &eleven),
            Err(JoinError::TooManyIds { .. })
        ));
        assert_eq!(
            SfNode::with_view(id(0), config, &[id(1), id(2), id(3), id(4), id(5)]),
            Err(JoinError::OddIdCount { supplied: 5 })
        );
        assert!(SfNode::with_view(id(0), config, &[id(1), id(2), id(3), id(4)]).is_ok());
    }

    #[test]
    fn bootstrap_entries_are_tagged_dependent() {
        let config = SfConfig::new(6, 0).unwrap();
        let node = SfNode::with_view(id(0), config, &[id(1), id(2)]).unwrap();
        assert!(node.view().entries().all(|e| e.dependent));
    }

    #[test]
    fn empty_view_always_self_loops() {
        let config = SfConfig::lossless(6).unwrap();
        let mut node = SfNode::new(id(0), config);
        let mut r = rng(3);
        for _ in 0..50 {
            assert!(node.initiate(&mut r).is_self_loop());
        }
        assert_eq!(node.stats().self_loops, 50);
        assert_eq!(node.stats().sent, 0);
    }

    #[test]
    fn initiate_clears_both_slots_above_threshold() {
        let config = SfConfig::new(6, 0).unwrap();
        let mut node =
            SfNode::with_view(id(0), config, &[id(1), id(2), id(3), id(4), id(5), id(6)]).unwrap();
        let mut r = rng(11);
        let outcome = node.initiate(&mut r);
        let InitiateOutcome::Sent { to, message, duplicated, slots } = outcome else {
            panic!("full view cannot self-loop");
        };
        assert!(!duplicated);
        assert_eq!(node.out_degree(), 4);
        assert!(node.view().entry(slots.0).is_none());
        assert!(node.view().entry(slots.1).is_none());
        assert_eq!(message.sender, id(0));
        assert_ne!(to, message.sender);
        assert!(!message.dependent);
    }

    #[test]
    fn initiate_duplicates_at_threshold() {
        let config = SfConfig::new(8, 2).unwrap();
        let mut node = SfNode::with_view(id(0), config, &[id(1), id(2)]).unwrap();
        let mut r = rng(5);
        // Outdegree equals d_L = 2: a successful action must duplicate.
        let outcome = loop {
            match node.initiate(&mut r) {
                InitiateOutcome::SelfLoop => continue,
                sent => break sent,
            }
        };
        let InitiateOutcome::Sent { duplicated, message, .. } = outcome else { unreachable!() };
        assert!(duplicated);
        assert!(message.dependent);
        assert_eq!(node.out_degree(), 2, "duplication keeps both entries");
        assert_eq!(node.stats().duplications, 1);
    }

    #[test]
    fn receive_stores_both_ids() {
        let config = SfConfig::lossless(6).unwrap();
        let mut node = SfNode::new(id(9), config);
        let mut r = rng(2);
        let outcome = node.receive(Message::new(id(1), id(2), false), &mut r);
        let ReceiveOutcome::Stored { sender_slot, payload_slot } = outcome else {
            panic!("empty view must store");
        };
        assert_ne!(sender_slot, payload_slot);
        assert_eq!(node.view().entry(sender_slot).unwrap().id, id(1));
        assert_eq!(node.view().entry(payload_slot).unwrap().id, id(2));
        assert_eq!(node.out_degree(), 2);
        assert_eq!(node.stats().stored, 1);
    }

    #[test]
    fn receive_deletes_when_full() {
        let config = SfConfig::new(6, 0).unwrap();
        let mut node = full_node(9, config);
        let mut r = rng(2);
        let outcome = node.receive(Message::new(id(1), id(2), false), &mut r);
        assert!(outcome.is_deleted());
        assert_eq!(node.out_degree(), 6);
        assert_eq!(node.stats().deletions, 1);
    }

    #[test]
    fn receive_propagates_dependence_tag() {
        let config = SfConfig::lossless(6).unwrap();
        let mut node = SfNode::new(id(9), config);
        let mut r = rng(2);
        node.receive(Message::new(id(1), id(2), true), &mut r);
        assert!(node.view().entries().all(|e| e.dependent));
        node.receive(Message::new(id(3), id(4), false), &mut r);
        assert_eq!(node.view().entries().filter(|e| e.dependent).count(), 2);
    }

    #[test]
    fn outdegree_parity_is_preserved() {
        // Observation 5.1: outdegrees stay even under any mix of steps.
        let config = SfConfig::new(8, 2).unwrap();
        let mut node = SfNode::with_view(id(0), config, &[id(1), id(2), id(3), id(4)]).unwrap();
        let mut r = rng(77);
        for step in 0..2_000 {
            if step % 3 == 0 {
                node.receive(Message::new(id(step), id(step + 1), false), &mut r);
            } else {
                node.initiate(&mut r);
            }
            assert_eq!(node.out_degree() % 2, 0, "odd outdegree after step {step}");
            assert!(node.out_degree() <= config.view_size());
        }
    }

    #[test]
    fn outdegree_never_falls_below_threshold() {
        let config = SfConfig::new(10, 4).unwrap();
        let mut node =
            SfNode::with_view(id(0), config, &[id(1), id(2), id(3), id(4), id(5), id(6)]).unwrap();
        let mut r = rng(13);
        for _ in 0..2_000 {
            node.initiate(&mut r);
            assert!(node.out_degree() >= config.lower_threshold());
        }
    }

    #[test]
    fn sent_message_carries_cleared_payload() {
        let config = SfConfig::new(6, 0).unwrap();
        let mut node =
            SfNode::with_view(id(0), config, &[id(1), id(2), id(3), id(4), id(5), id(6)]).unwrap();
        let before: Vec<NodeId> = node.view().ids().collect();
        let mut r = rng(21);
        let InitiateOutcome::Sent { to, message, .. } = node.initiate(&mut r) else {
            unreachable!()
        };
        assert!(before.contains(&to));
        assert!(before.contains(&message.payload));
        // Exactly the target and payload instances were removed.
        assert_eq!(node.view().ids().count(), 4);
    }

    #[test]
    fn from_view_panics_on_capacity_mismatch() {
        let config = SfConfig::new(8, 0).unwrap();
        let view = LocalView::new(6);
        let result = std::panic::catch_unwind(|| SfNode::from_view(id(0), config, view));
        assert!(result.is_err());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let config = SfConfig::lossless(6).unwrap();
        let mut node = SfNode::new(id(0), config);
        let mut r = rng(1);
        node.initiate(&mut r);
        assert_eq!(node.stats().initiated, 1);
        node.reset_stats();
        assert_eq!(node.stats().initiated, 0);
    }
}
