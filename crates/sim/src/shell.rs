//! The one engine shell: [`ArenaSim`], and the sealed [`Schedule`] that
//! makes it [`FlatSimulation`](crate::FlatSimulation) or
//! [`ParSimulation`](crate::ParSimulation).
//!
//! Both engines run the paper's §5 model over the same slot [`Arena`]; what
//! separates them is *when* nodes act and where their randomness comes
//! from. The shell owns everything else, once: the arena and the behavior,
//! the fault (flat's only channel, par's prototype for the per-sender
//! clones), the delay model, completed rounds and the in-flight count, the
//! system-wide [`SimStats`] and the step-event subscribers. Every reader,
//! the churn control plane and the drivers are written here, over the live
//! order the schedule supplies.
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
//! per-sender channels — never per step or per message. The hot paths
//! (flat's step and due-time drain, par's three-phase round) are inherent
//! methods of the shell specialised to their schedule, so `self` there is
//! the whole engine: the out-of-line `notify(&mut self, …)` borrows
//! all of it, which keeps the stepping code around it as the optimizer lays
//! it out when no subscriber is registered (borrowing the subscriber field
//! alone cost `steady_par` ≈ 10 % of its set-up).

use std::fmt;

use rand::rngs::StdRng;
use sandf_core::{JoinError, LocalView, NodeId, NodeStats, SfConfig, SfNode};
use sandf_graph::DependenceReport;

use crate::arena::Arena;
use crate::degree::DegreeStats;
use crate::engine::{DelayModel, SimStats, StepReport, StepSubscriber};
use crate::traits::{Engine, ProtocolBehavior};

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

/// The preallocated delivery ring of a delayed schedule: `max + 1`
/// buckets, so bucket `t % len` holds what is due at time `t`. `None`
/// under [`DelayModel::Immediate`], which keeps the schedule's own default.
///
/// # Panics
///
/// Panics when the delay bound is zero.
pub(crate) fn ring_for<T>(delay: DelayModel) -> Option<Vec<Vec<T>>> {
    let DelayModel::UniformSteps { max } = delay else { return None };
    assert!(max > 0, "delay bound must be positive");
    let buckets = usize::try_from(max + 1).expect("delay bound exceeds address space");
    Some((0..buckets).map(|_| Vec::new()).collect())
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
    /// Completed rounds — the time base for round-indexed fault models.
    pub(crate) rounds: u64,
    /// Messages currently in flight across the schedule's ring.
    pub(crate) in_flight_count: usize,
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
            .field("in_flight", &self.in_flight_count)
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
            rounds: 0,
            in_flight_count: 0,
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
        self.in_flight_count
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
    /// Views carry over exactly; the per-node *counters* do not (the
    /// rebuilt nodes start with zeroed [`NodeStats`] — read
    /// [`Engine::aggregate_node_stats`] from the engine instead).
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
    /// per-node counters are zeroed; the engine-level
    /// [`stats`](Self::stats) are unaffected.
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
        self.arena.reset_stats();
    }

    fn aggregate_node_stats(&self) -> NodeStats {
        self.arena.aggregate_node_stats(self.live_dense())
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
