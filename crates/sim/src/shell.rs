//! The one engine shell: [`ArenaSim`], and the sealed [`Schedule`] that
//! makes it [`FlatSimulation`](crate::FlatSimulation) or
//! [`ParSimulation`](crate::ParSimulation).
//!
//! Both engines run the paper's §5 model over the same slot [`Arena`]; what
//! separates them is *when* nodes act and where their randomness comes
//! from. The shell owns everything else, once: the arena and the behavior,
//! the fault (flat's only channel, par's prototype for the per-sender
//! clones), the delay model and the one in-flight queue (`InFlight`), the
//! step clock and completed rounds, the system-wide [`SimStats`] and the
//! step-event subscribers. Every reader, the churn control plane, the
//! drivers and S&F's `delayed` are written here, over the live order the
//! schedule supplies. So are the hops of an action, each once: the action
//! hop (`action_hop`: capacity gate, initiate, send counts, loss draw,
//! delay draw, the §5 action in its pinned draw order), the delivery hop
//! (`deliver_hop`), the reply hop (`reply_hop`) and the receipt count
//! (`count_receipt`) that par's delivery shards share with the delivery
//! hop.
//!
//! What [`Engine`] declares is defined once, in the shell's `Engine` impl;
//! callers bring the trait into scope. The inherent block holds the rest:
//! what the trait lacks (`join_with`, `node_view`, `to_nodes`,
//! `dependence`, `run_replicate`, `subscriber_count`, and each schedule's
//! own methods in `flat.rs` and `par.rs`), and the readers whose inherent
//! signatures the benchmark pins — `stats` and `degree_stats` by
//! reference, the typed `leave`, and `live_ids` and `in_flight`, which the
//! trait declares identically.
//!
//! A [`Schedule`] carries only what differs. It is called for a round, a
//! settle, an admit, a leave, the live order, the join RNG and the
//! per-sender channels — never per step or per message. Around the hops a
//! schedule writes only how the acting node is chosen, how its RNG is
//! derived, how the degree histogram follows its row, and where an
//! in-flight message goes. The hot paths
//! (flat's step and due-time drain, par's three-phase round) are inherent
//! methods of the shell specialised to their schedule, so `self` there is
//! the whole engine: the out-of-line `notify(&mut self, …)` borrows
//! all of it, which keeps the stepping code around it as the optimizer lays
//! it out when no subscriber is registered (borrowing the subscriber field
//! alone cost `steady_par` ≈ 10 % of its set-up).

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;
use sandf_core::{JoinError, LocalView, NodeId, SfConfig, SfNode};
use sandf_graph::DependenceReport;

use crate::arena::Arena;
use crate::degree::DegreeStats;
use crate::engine::{DelayModel, SimStats, StepEvent, StepPhase, StepReport, StepSubscriber};
use crate::fault::{FaultCtx, FaultModel};
use crate::traits::{Engine, ProtocolBehavior, SfBehavior};

/// An engine's registered step-event observers. Boxed observers are not
/// clonable, so a clone starts with none — which is what lets the shell
/// derive `Clone`.
pub(crate) struct Subscribers<M>(Vec<Box<dyn StepSubscriber<M>>>);

impl<M> Default for Subscribers<M> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<M> Clone for Subscribers<M> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<M> fmt::Debug for Subscribers<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.len().fmt(f)
    }
}

impl<M> Subscribers<M> {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The one in-flight queue: `max + 1` buckets, so bucket `t % (max + 1)`
/// holds the messages due at time `t` (one bucket under
/// [`DelayModel::Immediate`]), and the count of messages across them.
/// Buckets are taken out to be drained and restored empty, so a steady run
/// reuses their allocations and no delivery allocates. Time is flat's
/// steps or par's rounds; the queue does not care which.
#[derive(Clone, Debug)]
pub(crate) struct InFlight<M> {
    buckets: Vec<Vec<(NodeId, M)>>,
    len: usize,
}

impl<M> InFlight<M> {
    /// An empty queue for `delay`.
    ///
    /// # Panics
    ///
    /// Panics when the delay bound is zero.
    fn new(delay: DelayModel) -> Self {
        let span = match delay {
            DelayModel::Immediate => 1,
            DelayModel::UniformSteps { max } => {
                assert!(max > 0, "delay bound must be positive");
                usize::try_from(max + 1).expect("delay bound exceeds address space")
            }
        };
        Self { buckets: (0..span).map(|_| Vec::new()).collect(), len: 0 }
    }

    fn bucket(&self, at: u64) -> usize {
        (at % self.buckets.len() as u64) as usize
    }

    /// Messages in flight.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of buckets: everything in flight is due within one span
    /// of the last time drained.
    pub(crate) fn span(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Whether the bucket of time `at` holds a message.
    pub(crate) fn holds(&self, at: u64) -> bool {
        !self.buckets[self.bucket(at)].is_empty()
    }

    /// Queues `message` to `to`, due at time `at`.
    pub(crate) fn push(&mut self, at: u64, to: NodeId, message: M) {
        let bucket = self.bucket(at);
        self.buckets[bucket].push((to, message));
        self.len += 1;
    }

    /// Takes the bucket of time `at` out of the queue, `None` when it is
    /// empty; hand it back with [`restore`](Self::restore) once drained.
    pub(crate) fn take(&mut self, at: u64) -> Option<Vec<(NodeId, M)>> {
        let bucket = self.bucket(at);
        if self.buckets[bucket].is_empty() {
            return None;
        }
        let batch = std::mem::take(&mut self.buckets[bucket]);
        self.len -= batch.len();
        Some(batch)
    }

    /// Puts a drained bucket's allocation back, emptied. Nothing may be
    /// queued at `at` in between: a message sent while a bucket drains is
    /// due at least one step or round later.
    pub(crate) fn restore(&mut self, at: u64, mut batch: Vec<(NodeId, M)>) {
        let bucket = self.bucket(at);
        debug_assert!(
            self.buckets[bucket].is_empty(),
            "a message was queued into a draining bucket"
        );
        batch.clear();
        self.buckets[bucket] = batch;
    }
}

/// The one action hop: the §5 action of the live node `from`, in the
/// pinned draw order. A closed capacity gate counts `skipped` and draws
/// nothing. Otherwise `initiate` runs the behavior at `from`'s row on
/// `rng`, the send is counted, its loss is drawn on `channel`, and a
/// survivor's delay is drawn last. Returns `Skipped`, `SelfLoop`, `Lost`
/// or `InFlight` due at the clock `now` plus the delay (`now` itself
/// under immediate delivery); the schedule decides where an in-flight
/// message goes. The fault reads `round`.
#[inline]
pub(crate) fn action_hop<B: ProtocolBehavior, L: FaultModel>(
    from: NodeId,
    channel: &mut L,
    rng: &mut StdRng,
    stats: &mut SimStats,
    (round, now): (u64, u64),
    delay: DelayModel,
    initiate: impl FnOnce(&mut StdRng) -> Option<(NodeId, B::Msg)>,
) -> StepEvent<B::Msg> {
    if !channel.node_acts(from, round) {
        stats.skipped += 1;
        return StepEvent::Skipped;
    }
    stats.actions += 1;
    let Some((to, message)) = initiate(rng) else {
        stats.self_loops += 1;
        return StepEvent::SelfLoop;
    };
    let duplicated = B::duplicated(&message);
    stats.sent += 1;
    if duplicated {
        stats.duplications += 1;
    }
    if channel.drops(FaultCtx { from, to, round }, rng) {
        stats.lost += 1;
        return StepEvent::Lost { to, message, duplicated };
    }
    let deliver_at = match delay {
        DelayModel::Immediate => now,
        DelayModel::UniformSteps { max } => now + rng.gen_range(1..=max),
    };
    StepEvent::InFlight { to, message, duplicated, deliver_at }
}

/// The one receipt count: a receive that kept its ids is `stored`, one
/// that dropped them on a full view `deleted`.
#[inline]
pub(crate) fn count_receipt(stats: &mut SimStats, deleted: bool) {
    if deleted {
        stats.deleted += 1;
    } else {
        stats.stored += 1;
    }
}

/// A delivery hop's outcome: the step event, plus the receiver's reply
/// (receiver, message) still to be routed.
pub(crate) type HopOutcome<M> = (StepEvent<M>, Option<(NodeId, M)>);

/// The one delivery hop: delivers `message` at `to`, drawing placement from
/// `rng`, or counts a dead letter when `to` has left. Counts the receipt as
/// stored or deleted and returns the event with the receiver's reply, if
/// any. Written over the shell's disjoint fields, so a schedule passes its
/// own RNG beside them.
#[inline]
pub(crate) fn deliver_hop<B: ProtocolBehavior>(
    arena: &mut Arena,
    behavior: &B,
    stats: &mut SimStats,
    to: NodeId,
    message: B::Msg,
    rng: &mut StdRng,
) -> HopOutcome<B::Msg> {
    let duplicated = B::duplicated(&message);
    let Some(k) = arena.dense_of(to) else {
        stats.dead_letters += 1;
        return (StepEvent::DeadLetter { to, message, duplicated }, None);
    };
    let receipt = arena.receive(behavior, k, message, rng);
    count_receipt(stats, receipt.deleted);
    (StepEvent::Delivered { to, message, duplicated, deleted: receipt.deleted }, receipt.reply)
}

/// The one reply hop: counts `reply` (receiver, message) as sent, then as
/// lost when the caller's loss draw says so (`lost`, drawn on the
/// schedule's own channel and RNG), else delivers it through
/// [`deliver_hop`]. Returns its delivery report, stamped `step`.
///
/// # Panics
///
/// Panics when the reply gets a reply: a request gets at most one reply
/// and a reply none (the [`ProtocolBehavior`] contract).
#[cold]
#[inline(never)]
pub(crate) fn reply_hop<B: ProtocolBehavior>(
    arena: &mut Arena,
    behavior: &B,
    stats: &mut SimStats,
    (to, message): (NodeId, B::Msg),
    lost: bool,
    rng: &mut StdRng,
    step: u64,
) -> StepReport<B::Msg> {
    let duplicated = B::duplicated(&message);
    stats.sent += 1;
    stats.replies += 1;
    if duplicated {
        stats.duplications += 1;
    }
    let event = if lost {
        stats.lost += 1;
        StepEvent::Lost { to, message, duplicated }
    } else {
        let (event, reply) = deliver_hop(arena, behavior, stats, to, message, rng);
        assert!(reply.is_none(), "a reply got a reply: a request gets at most one reply");
        event
    };
    StepReport { initiator: B::sender(&message), event, phase: StepPhase::Delivery, step }
}

/// What a scheduler adds to the shell: its live order, its RNG, its
/// per-sender channels and how it runs a round. Sealed — it is public only
/// so the shell's public methods may name it as a bound; its two
/// implementations are flat's central-entity schedule and par's sharded
/// rounds.
pub trait Schedule<L, B: ProtocolBehavior>: Sized {
    /// Executes one round.
    fn round(sim: &mut ArenaSim<Self, L, B>);

    /// Delivers everything still in flight.
    fn settle(sim: &mut ArenaSim<Self, L, B>);

    /// The live nodes' dense arena indices, in the schedule's live order.
    fn live_dense(sim: &ArenaSim<Self, L, B>) -> impl Iterator<Item = usize> + '_;

    /// Takes the node the arena just admitted at dense index `k` into the
    /// live order.
    fn admit(sim: &mut ArenaSim<Self, L, B>, k: usize);

    /// Drops the live node at dense index `k` from the live order, before
    /// the arena forgets it.
    fn leave(sim: &mut ArenaSim<Self, L, B>, k: usize);

    /// The RNG a `join_via` shuffles the sponsor's view with.
    fn join_rng(&mut self) -> &mut StdRng;

    /// The per-sender fault channels kept beside the shell's own (none for
    /// a schedule with one channel).
    fn channels(&mut self) -> &mut [L];
}

/// The arena engine, generic over its schedule `S` (sealed), fault model `L`
/// and [`ProtocolBehavior`] `B`. It is used through its two aliases,
/// [`FlatSimulation`](crate::FlatSimulation) and
/// [`ParSimulation`](crate::ParSimulation); the module docs of `shell.rs`
/// say what it owns and what the schedule adds.
///
/// A clone starts with no subscribers and shares an attached profiler.
#[derive(Clone)]
pub struct ArenaSim<S, L, B: ProtocolBehavior> {
    /// Views, ledgers and id tables.
    pub(crate) arena: Arena,
    /// The protocol executed over the arena.
    pub(crate) behavior: B,
    /// The fault: flat's channel, par's prototype for its per-sender
    /// clones.
    pub(crate) loss: L,
    pub(crate) delay: DelayModel,
    /// Messages sent and not yet delivered.
    pub(crate) queue: InFlight<B::Msg>,
    /// Steps taken (par: one per live node per round) — the clock stamped
    /// on [`StepReport::step`].
    pub(crate) steps: u64,
    /// Completed rounds — the time base for round-indexed fault models.
    pub(crate) rounds: u64,
    pub(crate) stats: SimStats,
    /// Registered step-event observers (not carried across clones).
    pub(crate) subscribers: Subscribers<B::Msg>,
    /// What the schedule keeps of its own.
    pub(crate) sched: S,
}

impl<S, L: fmt::Debug, B: ProtocolBehavior> fmt::Debug for ArenaSim<S, L, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArenaSim")
            .field("config", &self.arena.config)
            .field("live", &self.arena.degree_hist.live_nodes())
            .field("loss", &self.loss)
            .field("delay", &self.delay)
            .field("rounds", &self.rounds)
            .field("in_flight", &self.queue.len())
            .field("stats", &self.stats)
            .field("subscribers", &self.subscribers)
            .finish_non_exhaustive()
    }
}

impl<S: Schedule<L, B>, L, B: ProtocolBehavior> ArenaSim<S, L, B> {
    /// The shared constructor core: a fresh engine over a built arena,
    /// every node live.
    pub(crate) fn over(arena: Arena, behavior: B, loss: L, sched: S) -> Self {
        Self {
            arena,
            behavior,
            loss,
            delay: DelayModel::Immediate,
            queue: InFlight::new(DelayModel::Immediate),
            steps: 0,
            rounds: 0,
            stats: SimStats::default(),
            subscribers: Subscribers::default(),
            sched,
        }
    }

    /// The live nodes' dense arena indices, in the schedule's live order.
    pub(crate) fn live_dense(&self) -> impl Iterator<Item = usize> + '_ {
        S::live_dense(self)
    }

    /// Number of registered step-event observers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.0.len()
    }

    /// Reports `report` to every subscriber, in registration order; out of
    /// line so the subscriber-free path stays compact.
    #[cold]
    #[inline(never)]
    pub(crate) fn notify(&mut self, report: &StepReport<B::Msg>) {
        for subscriber in &mut self.subscribers.0 {
            subscriber.on_step(report);
        }
    }

    // `live_ids` and `in_flight` repeat `Engine` signatures on purpose: the
    // benchmark's rumor workload calls them without importing the trait.
    // The impl below delegates to them, so each body is still written once.

    /// The ids of the live nodes, in the schedule's live order. Flat's is
    /// insertion order, with `swap_remove` on leave (the order the
    /// initiator draw indexes into); par's is ascending dense order (the
    /// order its shards walk). Owned: flat keeps no id list of its own
    /// until the first `leave`.
    #[must_use]
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.live_dense().map(|k| self.arena.id_at(k)).collect()
    }

    /// Number of messages currently in flight (always 0 under
    /// [`DelayModel::Immediate`] between steps and rounds).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Accumulated system-wide counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Reconstitutes a live node's [`LocalView`] from the arena (slot
    /// positions, ids, and dependence tags all preserved; slots the
    /// behavior hides, i.e. tombstones, read as empty — as in every other
    /// reader), or `None` when departed. Intended for snapshots and tests,
    /// not hot paths.
    #[must_use]
    pub fn node_view(&self, id: NodeId) -> Option<LocalView> {
        self.arena.dense_of(id).map(|k| self.arena.view_at::<B>(k))
    }

    /// Reconstitutes every live node as an [`SfNode`], in live order.
    /// Views carry over exactly; *counters* do not (the arena keeps no
    /// per-node counters, so the rebuilt nodes start with zeroed
    /// [`NodeStats`](sandf_core::NodeStats) — read [`stats`](Self::stats)
    /// from the engine instead).
    #[must_use]
    pub fn to_nodes(&self) -> Vec<SfNode> {
        self.arena.to_nodes::<B>(self.live_dense())
    }

    /// Runs one measurement replicate: `burn_in` rounds, a stats reset, then
    /// `measure` rounds. Returns the simulation, for a sweep worker to read.
    #[must_use]
    pub fn run_replicate(mut self, burn_in: usize, measure: usize) -> Self {
        self.run_rounds(burn_in);
        self.reset_stats();
        self.run_rounds(measure);
        self
    }

    /// Adds a new node bootstrapped with the given ids (tagged dependent,
    /// filled in slot order — exactly like [`SfNode::with_view`] under
    /// the default behavior; other behaviors validate through
    /// [`ProtocolBehavior::validate_bootstrap`]).
    ///
    /// # Errors
    ///
    /// Returns the behavior's [`JoinError`]s, or
    /// [`JoinError::IdSpaceExhausted`] when the id allocator has reached
    /// the arena's `u32` id limit or a bootstrap id lies beyond it (the
    /// rejected join leaves the engine untouched).
    pub fn join_with(&mut self, bootstrap: &[NodeId]) -> Result<NodeId, JoinError> {
        let joined = self.arena.join_with(&self.behavior, bootstrap.iter().copied());
        self.admit(joined)
    }

    /// Hands a node the arena just admitted to the schedule.
    fn admit(&mut self, joined: Result<usize, JoinError>) -> Result<NodeId, JoinError> {
        let k = joined?;
        S::admit(self, k);
        Ok(self.arena.id_at(k))
    }

    /// Removes a node (a *leave* or *crash* — the paper treats them alike:
    /// the node simply stops participating, Section 5). Returns the
    /// departed node rebuilt from the arena — its view is exact, but its
    /// counters are zeroed; the engine-level [`stats`](Self::stats) are
    /// unaffected.
    pub fn leave(&mut self, id: NodeId) -> Option<SfNode> {
        let k = self.arena.dense_of(id)?;
        S::leave(self, k);
        self.arena.leave::<B>(id)
    }

    /// Streaming degree statistics — the live outdegree histogram,
    /// maintained incrementally at store/delete time (`O(s)` snapshot, no
    /// arena scan; equal to a from-scratch rebuild over the live degree
    /// ledgers at all times). Par's shards report signed per-bucket
    /// deltas, merged commutatively, so it is thread-count-independent
    /// like everything else.
    #[must_use]
    pub fn degree_stats(&self) -> &DegreeStats {
        &self.arena.degree_hist
    }

    /// Measures spatial dependence across all live views (Property M4),
    /// over the arena's rows in place.
    #[must_use]
    pub fn dependence(&self) -> DependenceReport {
        self.arena.dependence::<B>(self.live_dense())
    }
}

impl<S: Schedule<L, SfBehavior>, L> ArenaSim<S, L, SfBehavior> {
    /// Installs a message-delay model on a freshly built S&F engine
    /// (builder-style: `new(…).delayed(…)`). Under
    /// [`DelayModel::UniformSteps`] each message arrives `1..=max` time
    /// units after it was sent, and the unit is the schedule's: *steps*
    /// under flat, *rounds* under par.
    ///
    /// Only S&F is delayed. S&F is push-only (§5: a receive never
    /// replies), so a delayed engine never routes a reply; the reply
    /// routers of the other behaviors deliver at once.
    ///
    /// # Panics
    ///
    /// Panics when called after stepping began, or when the delay bound
    /// is zero.
    #[must_use]
    pub fn delayed(mut self, delay: DelayModel) -> Self {
        assert!(self.steps == 0, "the delay model must be installed before stepping");
        self.queue = InFlight::new(delay);
        self.delay = delay;
        self
    }
}

impl<S: Schedule<L, B>, L, B: ProtocolBehavior> Engine for ArenaSim<S, L, B> {
    type Msg = B::Msg;
    type Fault = L;

    fn len(&self) -> usize {
        usize::try_from(self.arena.degree_hist.live_nodes()).expect("live count fits usize")
    }

    fn live_ids(&self) -> Vec<NodeId> {
        Self::live_ids(self)
    }

    fn config(&self) -> SfConfig {
        self.arena.config
    }

    fn stats(&self) -> SimStats {
        *Self::stats(self)
    }

    fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    fn round(&mut self) {
        S::round(self);
    }

    fn rounds_run(&self) -> u64 {
        self.rounds
    }

    fn in_flight(&self) -> usize {
        Self::in_flight(self)
    }

    fn settle(&mut self) {
        S::settle(self);
    }

    fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError> {
        let joined = self.arena.join_via(&self.behavior, sponsor, self.sched.join_rng());
        self.admit(joined)
    }

    fn leave(&mut self, id: NodeId) -> bool {
        Self::leave(self, id).is_some()
    }

    fn out_degree_of(&self, id: NodeId) -> Option<usize> {
        self.arena.out_degree_of(id)
    }

    fn count_id_instances(&self, id: NodeId) -> usize {
        self.arena.count_id_instances::<B>(self.live_dense(), id)
    }

    fn degree_stats(&self) -> DegreeStats {
        Self::degree_stats(self).clone()
    }

    fn for_each_live_row(&self, visit: &mut dyn FnMut(u32, &[u32])) {
        self.arena.for_each_row::<B>(self.live_dense(), visit);
    }

    fn fault(&self) -> &L {
        &self.loss
    }

    fn update_fault(&mut self, mut f: impl FnMut(&mut L)) {
        f(&mut self.loss);
        for channel in self.sched.channels() {
            f(channel);
        }
    }

    fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber<B::Msg>>) {
        self.subscribers.0.push(subscriber);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use rand::{Rng, SeedableRng};
    use sandf_core::Message;

    use super::*;
    use crate::traits::{Receipt, SlotView};

    /// A [`Ping`] message: its sender, and whether it is a reply.
    type Hop = (NodeId, bool);

    /// A test-local request/reply behavior: each node sends a request to
    /// the id in its first slot, and a receive answers a request with one
    /// reply — and a reply too when rogue (`Ping(true)`), breaking the
    /// one-reply contract. Views never change.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Ping(pub(crate) bool);

    impl ProtocolBehavior for Ping {
        type Msg = Hop;

        fn sender(msg: &Hop) -> NodeId {
            msg.0
        }

        fn initiate<R: Rng>(&self, _: SfConfig, v: SlotView, _: &mut R) -> Option<(NodeId, Hop)> {
            Some((v.id_at(0)?, (v.id, false)))
        }

        fn receive<R: Rng>(&self, _: SfConfig, v: SlotView, m: Hop, _: &mut R) -> Receipt<Hop> {
            Receipt { deleted: false, reply: (!m.1 || self.0).then_some((m.0, (v.id, true))) }
        }
    }

    /// `n` nodes in a ring, each viewing its successor, for [`Ping`].
    pub(crate) fn ring(n: u64) -> (SfConfig, Vec<(NodeId, Vec<NodeId>)>) {
        let views = (0..n).map(|i| (NodeId::new(i), vec![NodeId::new((i + 1) % n)])).collect();
        (SfConfig::new(6, 0).unwrap(), views)
    }

    fn message(from: u64) -> Message {
        Message::new(NodeId::new(from), NodeId::new(from + 1), false)
    }

    /// A channel with a fixed gate and loss verdict, whose loss draw takes
    /// one word, as every real channel's does.
    #[derive(Clone, Copy)]
    struct Fixed {
        acts: bool,
        drops: bool,
    }

    impl FaultModel for Fixed {
        fn drops<R: Rng + ?Sized>(&mut self, _: FaultCtx, rng: &mut R) -> bool {
            rng.gen_range(0..2u64);
            self.drops
        }

        fn node_acts(&self, _: NodeId, _: u64) -> bool {
            self.acts
        }
    }

    /// One action hop of node 0 at round 3 and clock 10, whose initiate
    /// draws nothing and sends a duplicating message to node 1.
    fn act(mut channel: Fixed, delay: DelayModel, rng: &mut StdRng) -> (StepEvent, SimStats) {
        let mut stats = SimStats::default();
        let send = (NodeId::new(1), Message::new(NodeId::new(0), NodeId::new(2), true));
        let event = action_hop::<SfBehavior, _>(
            NodeId::new(0),
            &mut channel,
            rng,
            &mut stats,
            (3, 10),
            delay,
            |_| Some(send),
        );
        (event, stats)
    }

    #[test]
    fn a_closed_gate_counts_only_a_skip_and_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(7);
        let before = rng.clone();
        let mut stats = SimStats::default();
        let event = action_hop::<SfBehavior, _>(
            NodeId::new(0),
            &mut Fixed { acts: false, drops: false },
            &mut rng,
            &mut stats,
            (3, 10),
            DelayModel::UniformSteps { max: 5 },
            |_| panic!("a node behind a closed gate initiated"),
        );
        assert_eq!(event, StepEvent::Skipped);
        assert_eq!(stats, SimStats { skipped: 1, ..SimStats::default() });
        assert_eq!(rng, before, "a skipped node drew");
    }

    #[test]
    fn a_lost_send_draws_its_loss_and_no_delay() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut want = rng.clone();
        want.gen_range(0..2u64);
        let delay = DelayModel::UniformSteps { max: 5 };
        let (event, stats) = act(Fixed { acts: true, drops: true }, delay, &mut rng);
        assert!(matches!(event, StepEvent::Lost { duplicated: true, .. }), "{event:?}");
        let counted =
            SimStats { actions: 1, sent: 1, duplications: 1, lost: 1, ..SimStats::default() };
        assert_eq!(stats, counted);
        assert_eq!(rng, want, "only the initiate and loss draws were taken");
    }

    #[test]
    fn a_survivor_is_due_now_or_within_the_delay_bound() {
        let survive = Fixed { acts: true, drops: false };
        let mut rng = StdRng::seed_from_u64(7);
        let (event, stats) = act(survive, DelayModel::Immediate, &mut rng);
        assert!(matches!(event, StepEvent::InFlight { deliver_at: 10, .. }), "{event:?}");
        assert_eq!((stats.actions, stats.sent, stats.lost), (1, 1, 0));
        let mut seen = [false; 4];
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let delay = DelayModel::UniformSteps { max: 4 };
            let (event, _) = act(survive, delay, &mut rng);
            let StepEvent::InFlight { deliver_at, .. } = event else { panic!("{event:?}") };
            assert!((11..=14).contains(&deliver_at), "due at {deliver_at}");
            seen[(deliver_at - 11) as usize] = true;
        }
        assert!(seen.iter().all(|&hit| hit), "every delay in 1..=max is drawn");
    }

    #[test]
    fn in_flight_buckets_by_due_time_across_a_lap() {
        let mut queue = InFlight::new(DelayModel::UniformSteps { max: 3 });
        assert_eq!((queue.span(), queue.len()), (4, 0));
        assert_eq!(InFlight::<Message>::new(DelayModel::Immediate).span(), 1);
        // Times 2 and 6 share a bucket a lap apart; 4 and 5 have their own.
        for (at, from) in [(2, 10), (5, 11), (2, 12), (4, 14)] {
            queue.push(at, NodeId::new(from), message(from));
        }
        assert_eq!(queue.len(), 4);
        assert!(queue.holds(2) && queue.holds(6) && queue.holds(4) && queue.holds(5));
        assert!(!queue.holds(3) && !queue.holds(7));
        let batch = queue.take(6).unwrap();
        let order: Vec<NodeId> = batch.iter().map(|&(to, _)| to).collect();
        assert_eq!(order, [NodeId::new(10), NodeId::new(12)], "push order within a bucket");
        assert_eq!(queue.len(), 2);
        assert!(!queue.holds(2));
        let allocation = batch.as_ptr();
        queue.restore(6, batch);
        assert!(!queue.holds(2), "a bucket comes back empty");
        assert_eq!(queue.buckets[2].as_ptr(), allocation, "the drained allocation is reused");
        queue.push(10, NodeId::new(13), message(13));
        assert_eq!(queue.take(4).map(|b| b.len()), Some(1), "restore leaves other buckets alone");
        assert_eq!(queue.take(5).map(|b| b.len()), Some(1));
        assert_eq!(queue.take(10).map(|b| b.len()), Some(1));
        assert!(queue.is_empty() && queue.take(7).is_none());
    }
}
