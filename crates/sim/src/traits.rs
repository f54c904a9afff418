//! The engine/protocol unification layer.
//!
//! One engine shell, [`ArenaSim`](crate::ArenaSim), runs under two
//! schedules — [`FlatSimulation`](crate::FlatSimulation) (the serial
//! central-entity schedule) and [`ParSimulation`](crate::ParSimulation)
//! (sharded rounds) — and every protocol of the zoo runs on both. This
//! module holds the two seams:
//!
//! * [`Engine`] — the round-granular driving surface (rounds, settle,
//!   churn, faults, stats readers, and one row reader that hands out arena
//!   slot words, over which [`Engine::graph`] is written once). The shell
//!   implements it once for both schedules, so differential tests and
//!   sweeps are written once and instantiated per schedule;
//! * [`ProtocolBehavior`] — a membership protocol expressed over one
//!   node's slot window ([`SlotView`]): an initiate action, a receive
//!   handler that may answer a request with one reply (and a reply with
//!   none), and the bootstrap/visibility hooks churn and measurement
//!   need. The shell is generic over a behavior (defaulting to
//!   [`SfBehavior`], the paper's S&F protocol), which is how push-only,
//!   push-pull, shuffle, and the S&F variants run at
//!   multi-million-steps/sec scale.
//!
//! # Draw-order contract
//!
//! [`SfBehavior`] performs a fixed sequence of RNG draws (slot pick `i`,
//! distinct slot pick `j`, then per delivered message the nth-empty-slot
//! placement draws); the bench goldens pin it byte for byte. S&F never
//! replies, so the engines' one reply hop consumes zero draws for it.
//! The behaviors draw through any [`Rng`], so `tests/exact_step_law.rs`
//! can drive them with scripted words and enumerate their exact one-step
//! law; the engines pass their own `StdRng` streams.
//!
//! The engines draw message loss **at send time, before the receiver's
//! liveness is known** — a message to a departed node consumes a loss draw
//! and is then counted as a dead letter, never as lost. That order is part
//! of the pinned draw sequence: a dead letter is a property of the
//! receiver discovered at delivery, while loss is a property of the
//! channel decided at send.
//!
//! An action's order is written in one place, the engine shell's action
//! hop (`shell::action_hop`), which both schedules call: the capacity
//! gate (a closed gate draws nothing), the behavior's initiate draws, the
//! loss draw, then — for a survivor of a delayed engine — the delay draw.
//! The hop never sees the receiver, so it cannot draw loss by liveness.

use std::fmt;

use rand::Rng;
use sandf_core::{JoinError, Message, NodeId, SfConfig};
use sandf_graph::MembershipGraph;

use crate::degree::DegreeStats;
use crate::engine::{SimStats, StepSubscriber};

/// Empty-slot sentinel in the slot arenas. The arenas store ids as `u32`
/// words (half the footprint of the public `u64` id space), so real node
/// ids must stay below this sentinel; the engines reject ids at or above
/// [`ARENA_ID_LIMIT`] at construction and join time.
pub const EMPTY_SLOT: u32 = u32::MAX;

/// Exclusive upper bound on node ids representable in the slot arenas
/// (`u32::MAX` itself is the [`EMPTY_SLOT`] sentinel).
pub const ARENA_ID_LIMIT: u64 = u32::MAX as u64;

/// Narrows a node id to its arena slot word. The engines guarantee every
/// admitted id sits below [`ARENA_ID_LIMIT`], so the narrowing is
/// lossless; debug builds assert it.
#[inline]
#[must_use]
pub fn slot_word(id: NodeId) -> u32 {
    debug_assert!(id.as_u64() < ARENA_ID_LIMIT, "node id {id} exceeds the u32 arena id space");
    #[allow(clippy::cast_possible_truncation)]
    {
        id.as_u64() as u32
    }
}

/// Widens an arena slot word back to the public id space (the inverse of
/// [`slot_word`]).
#[inline]
pub(crate) fn widen(word: u32) -> NodeId {
    NodeId::new(u64::from(word))
}

/// Slot-flag bit: the entry is dependent (a duplicated id, in the paper's
/// sense).
pub const FLAG_DEPENDENT: u8 = 1;

/// Slot-flag bit: the entry is a tombstone — protocol-defined dead state
/// (used by the undelete variant). Tombstoned slots count as unoccupied
/// for degree purposes and are hidden from the graph readers.
pub const FLAG_TOMBSTONE: u8 = 2;

/// A mutable window over one node's slots in an engine's arena, handed to
/// [`ProtocolBehavior`] callbacks.
///
/// `ids[off] == EMPTY_SLOT` marks an empty slot; `flags` carries the
/// per-slot [`FLAG_DEPENDENT`] / [`FLAG_TOMBSTONE`] bits; `degree` is the
/// node's live outdegree ledger (the engine's graph readers trust it).
/// The window holds no counters: the engines count every event once, in
/// [`SimStats`], from the returned message and [`Receipt`].
pub struct SlotView<'a> {
    /// The node that owns this window.
    pub id: NodeId,
    /// Slot ids as arena words (`EMPTY_SLOT` = empty).
    pub ids: &'a mut [u32],
    /// Per-slot flag bits, parallel to `ids`.
    pub flags: &'a mut [u8],
    /// The node's outdegree ledger (live entries only — excludes
    /// tombstones).
    pub degree: &'a mut u32,
}

impl SlotView<'_> {
    /// Number of slots (the view size `s`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the window has zero slots (never true for a legal config).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Raw slot content (`EMPTY_SLOT` when empty).
    #[inline]
    #[must_use]
    pub fn raw(&self, off: usize) -> u32 {
        self.ids[off]
    }

    /// The id in a slot, or `None` when the slot is empty.
    #[inline]
    #[must_use]
    pub fn id_at(&self, off: usize) -> Option<NodeId> {
        (self.ids[off] != EMPTY_SLOT).then(|| NodeId::new(u64::from(self.ids[off])))
    }

    /// Whether a slot holds a live (non-empty, non-tombstone) entry.
    #[inline]
    #[must_use]
    pub fn is_live(&self, off: usize) -> bool {
        self.ids[off] != EMPTY_SLOT && self.flags[off] & FLAG_TOMBSTONE == 0
    }

    /// Empties a slot (does not touch the degree ledger).
    #[inline]
    pub fn clear(&mut self, off: usize) {
        self.ids[off] = EMPTY_SLOT;
        self.flags[off] = 0;
    }

    /// Writes a slot (does not touch the degree ledger).
    #[inline]
    pub fn set(&mut self, off: usize, id: NodeId, flags: u8) {
        self.ids[off] = slot_word(id);
        self.flags[off] = flags;
    }

    /// Stores `id` into the `nth` empty slot in slot order, with `nth`
    /// drawn as `gen_range(0..empty)` — the draw and slot of
    /// `LocalView::insert_into_random_empty`, which the byte-identity
    /// contract pins. The slot is selected from the window's empty-slot
    /// bitmask (bit `k` of word `k / 64` set when slot `k` is empty): the
    /// `nth` set bit, counting from the lowest. Increments the degree
    /// ledger.
    ///
    /// # Panics
    ///
    /// Panics when no slot is empty (callers check capacity first), or
    /// when the degree ledger counts an empty slot the window lacks.
    #[inline]
    pub fn insert_into_random_empty(&mut self, id: NodeId, flags: u8, rng: &mut impl Rng) {
        self.place([id], flags, rng);
    }

    /// Stores `entries[0]`, `entries[1]`, … each into a uniformly drawn
    /// slot among those still empty: the draws are `gen_range(0..empty)`,
    /// `gen_range(0..empty - 1)`, … in entry order, and entry `k` goes to
    /// the set bit of its drawn rank in the empty-slot mask with the bits
    /// of entries `0..k` cleared — the draws and slots of `N` successive
    /// [`insert_into_random_empty`](Self::insert_into_random_empty) calls,
    /// from one pass that builds each 64-slot mask word once.
    #[inline]
    fn place<const N: usize>(&mut self, entries: [NodeId; N], flags: u8, rng: &mut impl Rng) {
        /// A rank whose entry is stored.
        const PLACED: usize = usize::MAX;
        let empty = self.len() - *self.degree as usize;
        debug_assert!(empty >= N, "outdegree at most s - N implies N empty slots");
        let mut ranks = [0; N];
        for (k, rank) in ranks.iter_mut().enumerate() {
            *rank = rng.gen_range(0..empty - k);
        }
        let mut pending = N;
        for (w, chunk) in self.ids.chunks_mut(64).enumerate() {
            let mut mask = chunk
                .iter()
                .enumerate()
                .fold(0u64, |mask, (k, &id)| mask | (u64::from(id == EMPTY_SLOT) << k));
            for (rank, &id) in ranks.iter_mut().zip(&entries) {
                if *rank == PLACED {
                    continue;
                }
                let here = mask.count_ones() as usize;
                if *rank >= here {
                    *rank -= here;
                    continue;
                }
                let mut rest = mask;
                for _ in 0..*rank {
                    rest &= rest - 1;
                }
                let bit = rest.trailing_zeros() as usize;
                mask &= !(1 << bit);
                chunk[bit] = slot_word(id);
                self.flags[w * 64 + bit] = flags;
                *rank = PLACED;
                pending -= 1;
            }
            if pending == 0 {
                break;
            }
        }
        assert_eq!(pending, 0, "an empty slot was counted but not found");
        *self.degree += N as u32;
    }

    /// Offsets of the occupied (non-empty, non-tombstone) slots, in slot
    /// order.
    #[must_use]
    pub fn occupied_offsets(&self) -> Vec<usize> {
        (0..self.len()).filter(|&off| self.is_live(off)).collect()
    }
}

/// The outcome of delivering one message to a node: whether the payload
/// was discarded (full view / displacement), and at most one reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Receipt<M> {
    /// The delivered ids were discarded rather than stored.
    pub deleted: bool,
    /// A reply to route back through the channel, with its own loss draw;
    /// only a request may carry one.
    pub reply: Option<(NodeId, M)>,
}

impl<M> Receipt<M> {
    /// The ids were stored; no reply.
    #[must_use]
    pub fn stored() -> Self {
        Self { deleted: false, reply: None }
    }

    /// The ids were discarded; no reply.
    #[must_use]
    pub fn deleted() -> Self {
        Self { deleted: true, reply: None }
    }

    /// The ids were stored and the node replies to `to`.
    #[must_use]
    pub fn stored_with_reply(to: NodeId, msg: M) -> Self {
        Self { deleted: false, reply: Some((to, msg)) }
    }
}

/// A membership protocol expressed over one node's slot window, executable
/// on any arena engine ([`FlatSimulation`](crate::FlatSimulation),
/// [`ParSimulation`](crate::ParSimulation)).
///
/// The engine owns scheduling, the channel (loss, delay, dead letters),
/// churn bookkeeping, and the stats ledgers; the behavior owns the view
/// algebra.
///
/// **One reply hop.** A request gets at most one reply, and a reply gets
/// none: [`receive`](Self::receive) may return a reply only for a message
/// that [`initiate`](Self::initiate) sent. S&F never replies (Fig. 5.1);
/// push-pull and shuffle answer each request once, as the §3.1 baselines
/// do. Both engines route a reply back through the channel at once, with
/// its own loss draw, and panic when it gets a reply in turn: a behavior
/// that breaks the contract fails loudly, and its second reply is never
/// routed.
pub trait ProtocolBehavior: Clone + Send + Sync {
    /// The wire message. `Copy` so the engines' ring buffers and shard
    /// queues stay allocation-free.
    type Msg: Copy + Send + Sync + PartialEq + fmt::Debug;

    /// The message's originator (dead letters and delivery routing are
    /// attributed to it).
    fn sender(msg: &Self::Msg) -> NodeId;

    /// Whether the message carries duplicated ids (drives the engines'
    /// duplication counter; protocols without the concept keep the
    /// default).
    fn duplicated(_msg: &Self::Msg) -> bool {
        false
    }

    /// One action step at `view`'s node: `None` is a self-loop (no
    /// message), `Some((to, msg))` sends. Must maintain `view.degree`.
    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, Self::Msg)>;

    /// Delivers `msg` at `view`'s node; a request may produce one reply,
    /// a reply none (see the trait docs).
    fn receive<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        msg: Self::Msg,
        rng: &mut R,
    ) -> Receipt<Self::Msg>;

    /// Validates a bootstrap view of `supplied` ids for a joining node.
    /// The default accepts any non-empty set that fits the view.
    ///
    /// # Errors
    ///
    /// [`JoinError`] describing the violated constraint.
    fn validate_bootstrap(&self, config: SfConfig, supplied: usize) -> Result<(), JoinError> {
        if supplied == 0 {
            return Err(JoinError::TooFewIds { supplied, d_l: 1 });
        }
        if supplied > config.view_size() {
            return Err(JoinError::TooManyIds { supplied, s: config.view_size() });
        }
        Ok(())
    }

    /// How many sponsor-view ids `join_via` seeds a joiner with.
    fn join_seed_size(&self, config: SfConfig) -> usize {
        config.lower_threshold()
    }

    /// Whether a slot's entry is visible to the readers (views, graph,
    /// instance counts, dependence, the join sponsor pool); the arena's
    /// one row walk applies it. The default hides tombstones.
    fn slot_visible(flags: u8) -> bool {
        flags & FLAG_TOMBSTONE == 0
    }
}

/// The paper's S&F protocol as a [`ProtocolBehavior`] — the default
/// behavior of the flat and par engines.
///
/// It never replies, so the engines' reply hop is dead code on the S&F
/// path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SfBehavior;

impl ProtocolBehavior for SfBehavior {
    type Msg = Message;

    #[inline]
    fn sender(msg: &Message) -> NodeId {
        msg.sender
    }

    #[inline]
    fn duplicated(msg: &Message) -> bool {
        msg.dependent
    }

    #[inline]
    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, Message)> {
        let SlotView { id, ids, flags, degree } = view;
        let s = ids.len();
        debug_assert!(s >= 2, "view must have at least two slots");
        let i = rng.gen_range(0..s);
        let mut j = rng.gen_range(0..s - 1);
        if j >= i {
            j += 1;
        }
        let target = ids[i];
        let payload = ids[j];
        if target == EMPTY_SLOT || payload == EMPTY_SLOT {
            return None;
        }
        let duplicated = (*degree as usize) <= config.lower_threshold();
        if !duplicated {
            ids[i] = EMPTY_SLOT;
            flags[i] = 0;
            ids[j] = EMPTY_SLOT;
            flags[j] = 0;
            *degree -= 2;
        }
        let message = Message::new(id, NodeId::new(u64::from(payload)), duplicated);
        Some((NodeId::new(u64::from(target)), message))
    }

    #[inline]
    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: Message,
        rng: &mut R,
    ) -> Receipt<Message> {
        if *view.degree as usize >= view.len() {
            return Receipt::deleted();
        }
        let flags = if msg.dependent { FLAG_DEPENDENT } else { 0 };
        view.place([msg.sender, msg.payload], flags, rng);
        Receipt::stored()
    }

    /// The protocol's own joining rule, [`SfConfig::check_bootstrap`] —
    /// the checks `SfNode::with_view` makes.
    fn validate_bootstrap(&self, config: SfConfig, supplied: usize) -> Result<(), JoinError> {
        config.check_bootstrap(supplied)
    }
}

/// A compact multi-id wire message for the protocol zoo: a sender, a
/// protocol-defined discriminant, and up to [`IdBatch::CAPACITY`] id
/// payloads with per-id dependence bits. `Copy`, so engine queues stay
/// allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdBatch {
    /// The originator.
    pub sender: NodeId,
    /// Protocol-defined message kind (request/reply/push…).
    pub kind: u8,
    /// Number of valid entries in `ids`.
    pub len: u8,
    /// Id payloads (`ids[..len as usize]` are valid).
    pub ids: [u64; Self::CAPACITY],
    /// Per-payload dependence bits (bit `k` ↔ `ids[k]`).
    pub dep: u8,
}

impl IdBatch {
    /// Maximum payload ids per message.
    pub const CAPACITY: usize = 8;

    /// An empty batch from `sender` with the given kind.
    #[must_use]
    pub fn new(sender: NodeId, kind: u8) -> Self {
        Self { sender, kind, len: 0, ids: [0; Self::CAPACITY], dep: 0 }
    }

    /// Appends a payload id.
    ///
    /// # Panics
    ///
    /// Panics when the batch is full.
    pub fn push(&mut self, id: NodeId, dependent: bool) {
        let k = self.len as usize;
        assert!(k < Self::CAPACITY, "IdBatch overflow");
        self.ids[k] = id.as_u64();
        if dependent {
            self.dep |= 1 << k;
        }
        self.len += 1;
    }

    /// The valid payloads as `(id, dependent)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        (0..self.len as usize).map(|k| (NodeId::new(self.ids[k]), self.dep & (1 << k) != 0))
    }
}

/// The round-granular surface shared by both engines, for generic
/// differential tests and sweeps: the common denominator a test can drive
/// without knowing which engine — or which protocol — it holds.
///
/// The engine shell [`ArenaSim`](crate::ArenaSim) defines these methods
/// once, in its `Engine` impl, so callers of the flat and par engines
/// import the trait. What stays inherent is what the trait lacks or
/// returns differently:
///
/// * per-step and schedule-specific execution (flat's `step`,
///   `round_permuted`; par's thread count), `join_with`, `node_view`,
///   `to_nodes`, `dependence`, `run_replicate` and `subscriber_count`,
///   which no generic caller needs;
/// * `stats` and `degree_stats` by reference, where the trait returns
///   owned snapshots, and `leave` returning the departed node, where the
///   trait returns whether it was live;
/// * `live_ids` and `in_flight`, with the trait's own signatures, for
///   callers that read them without importing the trait.
pub trait Engine {
    /// The wire message type flowing through the engine's subscribers.
    type Msg: Copy + Send + Sync + PartialEq + fmt::Debug;
    /// The fault/loss model steering the channel.
    type Fault;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Whether no node is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live node ids (owned; engines differ in their internal
    /// storage), in the engine's live order — the order
    /// [`for_each_live_row`](Engine::for_each_live_row) and
    /// [`graph`](Engine::graph) walk. Flat's is insertion order, with
    /// `swap_remove` on leave, because its initiator draw indexes into
    /// it; par's is ascending dense (admission) order, because its shards
    /// walk the arena.
    fn live_ids(&self) -> Vec<NodeId>;

    /// The shared protocol configuration.
    fn config(&self) -> SfConfig;

    /// Accumulated system-wide counters.
    fn stats(&self) -> SimStats;

    /// Resets the system-wide counters (e.g. after burn-in).
    fn reset_stats(&mut self);

    /// Executes one round (`n` scheduled steps).
    fn round(&mut self);

    /// Executes `rounds` rounds.
    fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Completed rounds — the time base round-indexed fault models see in
    /// [`FaultCtx::round`](crate::FaultCtx::round).
    fn rounds_run(&self) -> u64;

    /// Messages currently in flight (0 under immediate delivery).
    fn in_flight(&self) -> usize;

    /// Delivers everything still in flight.
    fn settle(&mut self);

    /// Adds a node bootstrapped from a random sample of `sponsor`'s view —
    /// the sample size and the eligible (visible) slots are the behavior's
    /// choice. Under the default behavior that is the paper's joining rule
    /// (Section 5): the joiner starts with `d_L` ids and indegree 0. Flat
    /// shuffles with its global RNG; par with its control-plane stream, so
    /// churn schedules stay deterministic and thread-count-independent.
    ///
    /// # Errors
    ///
    /// [`JoinError`] when the sponsor cannot seed a legal bootstrap (e.g.
    /// [`JoinError::TooFewIds`] when its view holds fewer visible ids than
    /// the behavior's seed size).
    ///
    /// # Panics
    ///
    /// The arena engines panic if `sponsor` is not live.
    fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError>;

    /// Removes a node; `true` if it was live.
    fn leave(&mut self, id: NodeId) -> bool;

    /// A live node's outdegree, or `None` when departed.
    fn out_degree_of(&self, id: NodeId) -> Option<usize>;

    /// Total multiplicity of `id` across all live, visible slots. Ids at or
    /// above [`ARENA_ID_LIMIT`] cannot be stored, so they count zero.
    fn count_id_instances(&self, id: NodeId) -> usize;

    /// Streaming degree statistics: the live outdegree histogram the
    /// engine maintains incrementally at store/delete time. An `O(s)`
    /// snapshot — no arena scan — equal to a from-scratch rebuild over
    /// the live degree ledgers at all times.
    fn degree_stats(&self) -> DegreeStats;

    /// Snapshots the membership graph over the rows of
    /// [`for_each_live_row`](Engine::for_each_live_row): live order,
    /// protocol-visible slots only.
    ///
    /// The rows stream through [`graph_of_rows`], its target array sized
    /// exactly from [`degree_stats`](Engine::degree_stats)' edge count:
    /// the snapshot holds 4 B per edge and at most 32 B per node (its ids,
    /// row offsets, indegrees and id index).
    fn graph(&self) -> MembershipGraph {
        let edges = self.degree_stats().edges() as usize;
        graph_of_rows(self.len(), edges, |visit| self.for_each_live_row(visit))
    }

    /// Visits every live node's row, in the engine's live order: the
    /// node's id and the ids in its protocol-visible occupied slots
    /// (tombstones hidden), in slot order, all as arena slot words
    /// ([`slot_word`]) — the edges [`Engine::graph`] records for that
    /// node. The slice is only valid for the duration of the callback
    /// (one buffer is reused across nodes, so a full pass does no
    /// per-node allocation).
    ///
    /// This is the per-round piggyback hook for layers that consume the
    /// peer-sampling service rather than only measure it, e.g.
    /// [`crate::broadcast::BroadcastLayer`], which indexes its state by
    /// these words.
    fn for_each_live_row(&self, visit: &mut dyn FnMut(u32, &[u32]));

    /// The fault model, for measurement-time inspection: flat's channel,
    /// or par's prototype channel (its per-sender clones may have diverged
    /// for stateful models).
    fn fault(&self) -> &Self::Fault;

    /// Applies `f` to the fault model **and** every per-sender clone, so a
    /// mid-run retarget (e.g. aiming a
    /// [`PhaseFault::Victims`](crate::PhaseFault::Victims) at the current
    /// high-indegree nodes at a phase boundary) reaches all senders.
    fn update_fault(&mut self, f: impl FnMut(&mut Self::Fault));

    /// Registers a step-event observer. All subsequent steps (and delayed
    /// deliveries) are reported to it, in registration order, after the
    /// engine's own counters update. See [`StepSubscriber`]. Under par the
    /// stream is itself deterministic and thread-count-independent: action
    /// reports arrive in dense arena order, delivery reports in sorted
    /// bucket order, then reply reports in the bucket order of their
    /// requests.
    fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber<Self::Msg>>);
}

/// Snapshots, in visit order, the rows `rows` hands its visitor: each an
/// owner and the ids in its visible slots, as arena slot words
/// ([`slot_word`]), the shape of [`Engine::for_each_live_row`] and
/// [`Arena::for_each_row`](crate::Arena::for_each_row). `nodes` and
/// `edges` size the arrays.
///
/// The rows stream into the snapshot's compressed-sparse-row arrays: each
/// row's words are appended to one target array, and
/// [`MembershipGraph::from_flat_rows`] resolves them to positions in
/// place, so no per-node buffer and no second copy of the edges exist at
/// any point.
pub fn graph_of_rows(
    nodes: usize,
    edges: usize,
    rows: impl FnOnce(&mut dyn FnMut(u32, &[u32])),
) -> MembershipGraph {
    let mut ids = Vec::with_capacity(nodes);
    let mut offsets = Vec::with_capacity(nodes + 1);
    offsets.push(0u32);
    let mut words = Vec::with_capacity(edges);
    rows(&mut |owner, row| {
        ids.push(widen(owner));
        words.extend_from_slice(row);
        let end = u32::try_from(words.len()).expect("a graph snapshot holds fewer than 2^32 edges");
        offsets.push(end);
    });
    MembershipGraph::from_flat_rows(ids, offsets, words)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    use super::*;

    fn window<'a>(ids: &'a mut [u32], flags: &'a mut [u8], degree: &'a mut u32) -> SlotView<'a> {
        SlotView { id: NodeId::new(9), ids, flags, degree }
    }

    #[test]
    fn insert_into_random_empty_scans_in_slot_order() {
        let mut ids = [7u32, EMPTY_SLOT, 3, EMPTY_SLOT];
        let mut flags = [0u8; 4];
        let mut degree = 2u32;
        let mut rng = StdRng::seed_from_u64(1);
        let mut view = window(&mut ids, &mut flags, &mut degree);
        view.insert_into_random_empty(NodeId::new(5), FLAG_DEPENDENT, &mut rng);
        assert_eq!(degree, 3);
        assert_eq!(ids.iter().filter(|&&x| x == 5).count(), 1);
        let off = ids.iter().position(|&x| x == 5).unwrap();
        assert_eq!(flags[off], FLAG_DEPENDENT);
    }

    /// The scalar reference: the offset of the `nth` empty slot in slot
    /// order.
    fn nth_empty(ids: &[u32], nth: usize) -> usize {
        ids.iter().enumerate().filter(|&(_, &id)| id == EMPTY_SLOT).nth(nth).unwrap().0
    }

    /// A random window of `s` slots with at least `min_empty` empty ones,
    /// flags on the occupied slots, and its degree ledger.
    fn random_window(rng: &mut StdRng, s: usize, min_empty: usize) -> (Vec<u32>, Vec<u8>, u32) {
        loop {
            let p_empty = f64::from(rng.gen_range(0..=16u32)) / 16.0;
            let ids: Vec<u32> = (0..s)
                .map(|_| if rng.gen_bool(p_empty) { EMPTY_SLOT } else { rng.gen_range(0..1000) })
                .collect();
            let empty = ids.iter().filter(|&&id| id == EMPTY_SLOT).count();
            if empty >= min_empty {
                let flags = ids
                    .iter()
                    .map(|&id| if id == EMPTY_SLOT { 0 } else { rng.gen_range(0..4) })
                    .collect();
                return (ids, flags, u32::try_from(s - empty).unwrap());
            }
        }
    }

    #[test]
    fn mask_placement_matches_slot_order_scans_at_every_width() {
        let mut rng = StdRng::seed_from_u64(47);
        for s in [6, 16, 40, 64, 66, 90, 130] {
            let config = SfConfig::new(s, 0).unwrap();
            for _ in 0..400 {
                // The pair, through S&F's receive.
                let (mut ids, mut flags, mut degree) = random_window(&mut rng, s, 2);
                let (mut want_ids, mut want_flags) = (ids.clone(), flags.clone());
                let msg = Message::new(
                    NodeId::new(rng.gen_range(0..1000)),
                    NodeId::new(rng.gen_range(0..1000)),
                    rng.gen_bool(0.5),
                );
                let flag = if msg.dependent { FLAG_DEPENDENT } else { 0 };
                let mut want_rng = rng.clone();
                let empty = s - degree as usize;
                for (k, id) in [msg.sender, msg.payload].into_iter().enumerate() {
                    let off = nth_empty(&want_ids, want_rng.gen_range(0..empty - k));
                    want_ids[off] = slot_word(id);
                    want_flags[off] = flag;
                }
                let view = window(&mut ids, &mut flags, &mut degree);
                assert_eq!(SfBehavior.receive(config, view, msg, &mut rng), Receipt::stored());
                assert_eq!((ids, flags), (want_ids, want_flags), "s = {s}, pair");
                assert_eq!(degree as usize, s - empty + 2);
                assert_eq!(rng.next_u64(), want_rng.next_u64(), "s = {s}: draws diverged");

                // The single insert.
                let (mut ids, mut flags, mut degree) = random_window(&mut rng, s, 1);
                let (mut want_ids, mut want_flags) = (ids.clone(), flags.clone());
                let mut want_rng = rng.clone();
                let empty = s - degree as usize;
                let off = nth_empty(&want_ids, want_rng.gen_range(0..empty));
                want_ids[off] = 77;
                want_flags[off] = FLAG_DEPENDENT;
                let mut view = window(&mut ids, &mut flags, &mut degree);
                view.insert_into_random_empty(NodeId::new(77), FLAG_DEPENDENT, &mut rng);
                assert_eq!((ids, flags), (want_ids, want_flags), "s = {s}, single");
                assert_eq!(degree as usize, s - empty + 1);
                assert_eq!(rng.next_u64(), want_rng.next_u64(), "s = {s}: draws diverged");
            }
        }
    }

    #[test]
    fn sf_behavior_bootstrap_checks_match_the_protocol_order() {
        let config = SfConfig::new(12, 4).unwrap();
        let b = SfBehavior;
        assert_eq!(
            b.validate_bootstrap(config, 2),
            Err(JoinError::TooFewIds { supplied: 2, d_l: 4 })
        );
        assert_eq!(
            b.validate_bootstrap(config, 14),
            Err(JoinError::TooManyIds { supplied: 14, s: 12 })
        );
        assert_eq!(b.validate_bootstrap(config, 5), Err(JoinError::OddIdCount { supplied: 5 }));
        assert!(b.validate_bootstrap(config, 6).is_ok());
    }

    #[test]
    fn id_batch_roundtrips_entries() {
        let mut batch = IdBatch::new(NodeId::new(3), 1);
        batch.push(NodeId::new(10), true);
        batch.push(NodeId::new(11), false);
        let entries: Vec<(NodeId, bool)> = batch.entries().collect();
        assert_eq!(entries, vec![(NodeId::new(10), true), (NodeId::new(11), false)]);
        assert_eq!(batch.sender, NodeId::new(3));
    }

    #[test]
    fn tombstones_are_invisible_by_default() {
        assert!(SfBehavior::slot_visible(FLAG_DEPENDENT));
        assert!(!SfBehavior::slot_visible(FLAG_TOMBSTONE));
    }
}
