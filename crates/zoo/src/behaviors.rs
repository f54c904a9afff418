//! The baseline protocols as [`ProtocolBehavior`]s, executable on the
//! fast arena engines ([`FlatSimulation`](sandf_sim::FlatSimulation),
//! [`ParSimulation`](sandf_sim::ParSimulation)).
//!
//! Each protocol works on a fixed-slot arena window ([`SlotView`]): views
//! are multisets with bounded capacity, and every random choice (a slot, an
//! occupied entry, an empty slot, an eviction victim) is uniform, so a
//! behavior's law depends on its view's contents, not on slot positions.
//!
//! Wire format: every message is a [`IdBatch`] — `sender` is always the
//! emitting node, `kind` selects the protocol phase, and the payload ids
//! ride in the fixed-capacity array (which bounds `reply_size` /
//! `gossip_size` at [`IdBatch::CAPACITY`]).

use rand::Rng;
use sandf_core::{NodeId, SfConfig};
use sandf_sim::{IdBatch, ProtocolBehavior, Receipt, SlotView};

/// [`IdBatch::kind`]: a one-way push (push-only, and push-pull's request
/// half).
pub const KIND_PUSH: u8 = 0;
/// [`IdBatch::kind`]: a pull reply carrying ids *copied* from the
/// responder.
pub const KIND_PULL_REPLY: u8 = 1;
/// [`IdBatch::kind`]: a shuffle request carrying ids *removed* from the
/// initiator.
pub const KIND_SHUFFLE_REQUEST: u8 = 2;
/// [`IdBatch::kind`]: a shuffle reply carrying ids removed from the
/// responder.
pub const KIND_SHUFFLE_REPLY: u8 = 3;

/// Picks a uniformly random occupied slot offset, or `None` when the view
/// is empty.
fn random_occupied(view: &SlotView<'_>, rng: &mut impl Rng) -> Option<usize> {
    let occupied = view.occupied_offsets();
    if occupied.is_empty() {
        return None;
    }
    Some(occupied[rng.gen_range(0..occupied.len())])
}

/// Stores `id` with bounded-view semantics shared by the keep-sent-ids
/// baselines: below capacity the id lands in a random empty slot; at
/// capacity it overwrites a uniformly random victim (degree unchanged).
/// The node's own id is never stored.
fn store_bounded(view: &mut SlotView<'_>, id: NodeId, rng: &mut impl Rng) {
    if id == view.id {
        return;
    }
    if (*view.degree as usize) < view.len() {
        view.insert_into_random_empty(id, 0, rng);
    } else {
        let victim = rng.gen_range(0..view.len());
        view.set(victim, id, 0);
    }
}

/// Removes up to `count` uniformly random occupied entries, returning the
/// removed ids.
fn take_random(view: &mut SlotView<'_>, count: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    let mut taken = Vec::with_capacity(count);
    for _ in 0..count {
        let Some(off) = random_occupied(view, rng) else { break };
        taken.push(view.id_at(off).expect("occupied slot has an id"));
        view.clear(off);
        *view.degree -= 1;
    }
    taken
}

/// Absorbs shuffle ids: stored into random empty slots while capacity
/// lasts, silently dropped afterwards (multigraph semantics: duplicates
/// and the node's own id are kept). Returns how many ids were stored.
fn absorb(view: &mut SlotView<'_>, ids: impl Iterator<Item = NodeId>, rng: &mut impl Rng) -> usize {
    let mut stored = 0;
    for id in ids {
        if (*view.degree as usize) < view.len() {
            view.insert_into_random_empty(id, 0, rng);
            stored += 1;
        }
    }
    stored
}

/// Reinforcement-only push (a simplification of Lpbcast-style push
/// gossip): each action pushes the node's own id plus one copied view id
/// to a random neighbor; sent ids are kept, inducing the spatial
/// dependencies the paper sets out to avoid; a full receiver evicts
/// uniformly. Robust to loss but heavily correlated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushOnlyBehavior;

impl ProtocolBehavior for PushOnlyBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn initiate<R: Rng>(
        &self,
        _config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, IdBatch)> {
        let target_off = random_occupied(&view, rng)?;
        let extra_off = random_occupied(&view, rng).expect("view is non-empty");
        let target = view.id_at(target_off).expect("occupied slot has an id");
        let extra = view.id_at(extra_off).expect("occupied slot has an id");
        let mut msg = IdBatch::new(view.id, KIND_PUSH);
        msg.push(extra, false);
        Some((target, msg))
    }

    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut R,
    ) -> Receipt<IdBatch> {
        store_bounded(&mut view, msg.sender, rng);
        for (id, _) in msg.entries() {
            store_bounded(&mut view, id, rng);
        }
        Receipt::stored()
    }
}

/// Allavena-style push-pull over the arena: reinforcement by push, mixing by a pull reply whose ids are
/// copied, never removed — loss-immune, dependence-heavy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushPullBehavior {
    /// Ids returned per pull reply (≤ [`IdBatch::CAPACITY`]).
    pub reply_size: usize,
}

impl PushPullBehavior {
    /// Creates the behavior with the given pull-reply size.
    ///
    /// # Panics
    ///
    /// Panics if `reply_size` is zero or exceeds [`IdBatch::CAPACITY`].
    #[must_use]
    pub fn new(reply_size: usize) -> Self {
        assert!(
            reply_size > 0 && reply_size <= IdBatch::CAPACITY,
            "reply size must be in 1..={}",
            IdBatch::CAPACITY
        );
        Self { reply_size }
    }
}

impl ProtocolBehavior for PushPullBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn initiate<R: Rng>(
        &self,
        _config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, IdBatch)> {
        let target_off = random_occupied(&view, rng)?;
        let target = view.id_at(target_off).expect("occupied slot has an id");
        // The push carries only the sender id (reinforcement) and doubles
        // as the pull request (mixing); the reply travels separately,
        // subject to its own loss draw.
        Some((target, IdBatch::new(view.id, KIND_PUSH)))
    }

    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut R,
    ) -> Receipt<IdBatch> {
        match msg.kind {
            KIND_PUSH => {
                store_bounded(&mut view, msg.sender, rng);
                // Copy (never remove) up to reply_size distinct view
                // entries into the pull reply.
                let occupied = view.occupied_offsets();
                let take = self.reply_size.min(occupied.len());
                let picks = rand::seq::index::sample(rng, occupied.len(), take);
                let mut reply = IdBatch::new(view.id, KIND_PULL_REPLY);
                for pick in picks.into_vec() {
                    reply.push(view.id_at(occupied[pick]).expect("occupied slot has an id"), false);
                }
                Receipt::stored_with_reply(msg.sender, reply)
            }
            _ => {
                for (id, _) in msg.entries() {
                    store_bounded(&mut view, id, rng);
                }
                Receipt::stored()
            }
        }
    }
}

/// Cyclon/flipper-style shuffle over the arena: bidirectional exchanges that *delete* sent ids — the
/// Section 3.1 baseline that drains under loss, because a lost request or
/// reply permanently destroys the ids in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShuffleBehavior {
    /// Ids exchanged per shuffle (≤ [`IdBatch::CAPACITY`]).
    pub gossip_size: usize,
}

impl ShuffleBehavior {
    /// Creates the behavior with the given shuffle length.
    ///
    /// # Panics
    ///
    /// Panics if `gossip_size` is zero or exceeds [`IdBatch::CAPACITY`].
    #[must_use]
    pub fn new(gossip_size: usize) -> Self {
        assert!(
            gossip_size > 0 && gossip_size <= IdBatch::CAPACITY,
            "gossip size must be in 1..={}",
            IdBatch::CAPACITY
        );
        Self { gossip_size }
    }
}

impl ProtocolBehavior for ShuffleBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn initiate<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, IdBatch)> {
        let target_off = random_occupied(&view, rng)?;
        // The target instance and up to gossip_size − 1 more ids leave
        // the view inside the request; the sender id rides along
        // Cyclon-style (in the `sender` field).
        let target = view.id_at(target_off).expect("occupied slot has an id");
        view.clear(target_off);
        *view.degree -= 1;
        let removed = take_random(&mut view, self.gossip_size.saturating_sub(1), rng);
        let mut msg = IdBatch::new(view.id, KIND_SHUFFLE_REQUEST);
        for id in removed {
            msg.push(id, false);
        }
        Some((target, msg))
    }

    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut R,
    ) -> Receipt<IdBatch> {
        match msg.kind {
            KIND_SHUFFLE_REQUEST => {
                let removed = take_random(&mut view, self.gossip_size, rng);
                let stored = absorb(
                    &mut view,
                    std::iter::once(msg.sender).chain(msg.entries().map(|(id, _)| id)),
                    rng,
                );
                let mut reply = IdBatch::new(view.id, KIND_SHUFFLE_REPLY);
                for id in removed {
                    reply.push(id, false);
                }
                let deleted = stored == 0;
                Receipt { deleted, reply: Some((msg.sender, reply)) }
            }
            _ => {
                let stored = absorb(&mut view, msg.entries().map(|(id, _)| id), rng);
                if stored > 0 {
                    Receipt::stored()
                } else {
                    Receipt::deleted()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sandf_sim::EMPTY_SLOT;

    use super::*;

    fn window<'a>(ids: &'a mut [u32], degree: &'a mut u32) -> SlotView<'a> {
        SlotView { id: NodeId::new(99), ids, degree }
    }

    fn config() -> SfConfig {
        SfConfig::new(8, 2).unwrap()
    }

    #[test]
    fn push_only_keeps_the_view_intact() {
        let mut ids = [1, 2, EMPTY_SLOT, EMPTY_SLOT];
        let mut degree = 2u32;
        let mut rng = StdRng::seed_from_u64(1);
        let view = window(&mut ids, &mut degree);
        let (_, msg) = PushOnlyBehavior.initiate(config(), view, &mut rng).unwrap();
        assert_eq!(degree, 2, "push-only never removes ids");
        assert_eq!(msg.sender, NodeId::new(99), "reinforcement: own id rides as sender");
        assert_eq!(msg.len, 1, "one copied view id");
    }

    #[test]
    fn push_pull_replies_with_copies() {
        let mut ids = [3, 4, 5, EMPTY_SLOT];
        let mut degree = 3u32;
        let mut rng = StdRng::seed_from_u64(2);
        let view = window(&mut ids, &mut degree);
        let push = IdBatch::new(NodeId::new(7), KIND_PUSH);
        let receipt = PushPullBehavior::new(2).receive(config(), view, push, &mut rng);
        let (to, reply) = receipt.reply.expect("a push triggers a pull reply");
        assert_eq!(to, NodeId::new(7));
        assert_eq!(reply.kind, KIND_PULL_REPLY);
        assert_eq!(reply.len, 2);
        assert_eq!(degree, 4, "the pushed sender id was stored; copies removed nothing");
    }

    #[test]
    fn shuffle_removes_sent_ids_and_replies() {
        let mut ids = [1, 2, 3, EMPTY_SLOT];
        let mut degree = 3u32;
        let mut rng = StdRng::seed_from_u64(3);
        let behavior = ShuffleBehavior::new(2);
        let view = window(&mut ids, &mut degree);
        let (_, msg) = behavior.initiate(config(), view, &mut rng).unwrap();
        assert_eq!(degree, 1, "target + one more id left the view");
        assert_eq!(msg.len, 1, "one extra id in the request (sender rides separately)");

        // Deliver the request to a second window; its reply must carry
        // removed (not copied) ids.
        let mut ids_b = [10, 11, 12, 13];
        let mut degree_b = 4u32;
        let view_b = SlotView { id: NodeId::new(50), ids: &mut ids_b, degree: &mut degree_b };
        let receipt = behavior.receive(config(), view_b, msg, &mut rng);
        let (_, reply) = receipt.reply.expect("a request triggers a reply");
        assert_eq!(reply.kind, KIND_SHUFFLE_REPLY);
        assert_eq!(reply.len, 2, "gossip_size ids removed into the reply");
        // 4 − 2 removed + 2 absorbed (sender + payload) = 4.
        assert_eq!(degree_b, 4);
    }

    #[test]
    fn push_only_receive_cases() {
        // (case, slots before, sender, payload, degree after, id that must be stored);
        // the receiving node is 99, whose own id must never be stored.
        let cases = [
            ("fills empty slots", [EMPTY_SLOT; 2], 1, Some(2), 2, 2),
            ("evicts at capacity, keeping the view bounded", [1, 2], 3, None, 2, 3),
            ("never stores the node's own id", [EMPTY_SLOT; 2], 99, Some(1), 1, 1),
        ];
        for (case, mut ids, sender, payload, want_degree, holds) in cases {
            let mut degree = ids.iter().filter(|&&id| id != EMPTY_SLOT).count() as u32;
            let view = window(&mut ids, &mut degree);
            let mut msg = IdBatch::new(NodeId::new(sender), KIND_PUSH);
            if let Some(payload) = payload {
                msg.push(NodeId::new(payload), false);
            }
            PushOnlyBehavior.receive(config(), view, msg, &mut StdRng::seed_from_u64(5));
            assert_eq!(degree, want_degree, "{case}");
            assert!(ids.contains(&holds) && !ids.contains(&99), "{case}: {ids:?}");
        }
    }

    #[test]
    fn empty_views_self_loop() {
        let mut ids = [EMPTY_SLOT; 4];
        let mut degree = 0u32;
        let mut rng = StdRng::seed_from_u64(4);
        let view = window(&mut ids, &mut degree);
        assert!(ShuffleBehavior::new(2).initiate(config(), view, &mut rng).is_none());
        let view = window(&mut ids, &mut degree);
        assert!(PushOnlyBehavior.initiate(config(), view, &mut rng).is_none());
        assert_eq!(degree, 0);
    }
}
