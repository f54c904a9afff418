//! The classic discrete-event engine — the lockstep oracle.
//!
//! The engine implements the paper's execution model (Section 5): "a central
//! entity repeatedly selects a random node, invokes its
//! `S&F-InitiateAction()` method, and waits for the completion of
//! `S&F-Receive` by the receiving node (in case a message was sent)". A
//! *round* is the period during which each node is expected to initiate
//! exactly one action — i.e. `n` random steps. The practical variant where
//! every node fires once per round in a random permutation is also provided
//! ([`Simulation::round_permuted`]).
//!
//! # What [`Simulation`] is for
//!
//! No experiment runs on it: the evaluation ([`crate::experiment`], the
//! observers, `sandf-bench`'s sweeps and `repro`) runs on
//! [`FlatSimulation`](crate::FlatSimulation). This type is the reference
//! the flat engine is held equal to, step by step: a `HashMap` of
//! [`SfNode`]s calling `sandf-core`'s `initiate` / `receive` directly, a
//! `BTreeMap` in-flight queue, an `O(live)` scan in `leave` — the obvious
//! implementation, kept obvious so that a disagreement points at the
//! optimized side. Its inherent API is what those comparisons call and no
//! more. The suites that lean on it:
//!
//! * in this crate, `flat.rs`'s `flat_equals_classic_*`,
//!   `flat_report_stream_matches_classic` and
//!   `to_nodes_roundtrips_through_the_classic_engine`, `arena.rs`'s
//!   `live_order_is_the_schedulers_not_the_arenas`, `par.rs`'s
//!   `steady_state_rates_track_the_classic_engine`, and `observer.rs`'s
//!   three tests (the [`Engine`] view readers of both sides);
//! * `tests/{churn_index, protocol_invariants, broadcast_invariants}.rs`;
//! * `crates/bench/tests/{flat_equivalence, degree_streaming,
//!   broadcast_determinism, par_statistics, scenario_envelope}.rs`;
//! * the 18 pinned tables of `crates/bench/tests/golden/evaluation/`, which
//!   this engine printed and the flat engine must reprint byte for byte.
//!
//! [`Engine`]: crate::Engine

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf_core::{
    InitiateOutcome, JoinError, Message, NodeId, NodeStats, ReceiveOutcome, SfConfig, SfNode,
};

use crate::chassis::Subscribers;
use crate::degree::DegreeStats;
use crate::fault::{FaultCtx, FaultModel};

/// System-wide event counters, the simulator-side complement of
/// [`NodeStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Total initiate steps executed.
    pub actions: u64,
    /// Actions that were self-loop transformations.
    pub self_loops: u64,
    /// Messages produced.
    pub sent: u64,
    /// Messages dropped by the loss model.
    pub lost: u64,
    /// Messages addressed to a node that already left or failed.
    pub dead_letters: u64,
    /// Messages delivered and stored by the receiver.
    pub stored: u64,
    /// Messages delivered but deleted (receiver's view was full).
    pub deleted: u64,
    /// Sends that duplicated instead of clearing (`d(u) = d_L`).
    pub duplications: u64,
    /// Action steps skipped because the fault model's capacity gate was
    /// closed ([`FaultModel::node_acts`](crate::FaultModel::node_acts)
    /// returned `false`). Not counted in `actions`, so the
    /// `actions = self_loops + sent` ledger is unaffected.
    pub skipped: u64,
    /// Messages sent as replies to a delivered message (request/reply
    /// protocols on the generic engines; always 0 for S&F, which never
    /// replies). Replies are also counted in `sent`, so the ledgers read
    /// `sent = lost + dead_letters + stored + deleted (+ in_flight)` and
    /// `actions = self_loops + (sent − replies)`.
    pub replies: u64,
}

impl SimStats {
    /// Empirical duplication probability over non-self-loop actions, the
    /// quantity bounded by Lemma 6.7 (`ℓ ≤ dup ≤ ℓ + δ`).
    #[must_use]
    pub fn duplication_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.duplications as f64 / self.sent as f64)
    }

    /// Empirical deletion probability over non-self-loop actions.
    #[must_use]
    pub fn deletion_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.deleted as f64 / self.sent as f64)
    }

    /// Empirical loss rate over sent messages (includes dead letters, which
    /// are losses from the protocol's perspective).
    #[must_use]
    pub fn loss_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| (self.lost + self.dead_letters) as f64 / self.sent as f64)
    }
}

/// What happened during one simulation step, for observers.
///
/// Generic over the wire message `M` so the protocol-generic engines can
/// report their own message types; plain S&F engines use the default.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepEvent<M = Message> {
    /// The initiator selected an empty slot; nothing was sent.
    SelfLoop,
    /// The initiator's step was skipped: the fault model's capacity gate
    /// was closed for this `(node, round)` pair, so no action ran and no
    /// RNG was consumed.
    Skipped,
    /// A message was produced but dropped by the loss model.
    Lost {
        /// The intended receiver.
        to: NodeId,
        /// The dropped message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
    },
    /// A message was addressed to a node that is no longer live.
    DeadLetter {
        /// The departed receiver.
        to: NodeId,
        /// The undeliverable message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
    },
    /// A message was delivered.
    Delivered {
        /// The receiver.
        to: NodeId,
        /// The delivered message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
        /// Whether the receiver deleted the ids (full view).
        deleted: bool,
    },
    /// A message was queued for later delivery (delayed simulations only).
    InFlight {
        /// The receiver.
        to: NodeId,
        /// The queued message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
        /// The global step at which delivery is scheduled.
        deliver_at: u64,
    },
}

/// Which part of the step machinery produced a [`StepReport`].
///
/// Under [`DelayModel::Immediate`] every report is an [`Action`]
/// (send and receive happen in one step). Under
/// [`DelayModel::UniformSteps`] a sent message first yields an `Action`
/// report with [`StepEvent::InFlight`], then — steps later — a separate
/// [`Delivery`] report with [`StepEvent::Delivered`] or
/// [`StepEvent::DeadLetter`]. Accounting consumers must key off this phase
/// to avoid double-counting sends.
///
/// [`Action`]: StepPhase::Action
/// [`Delivery`]: StepPhase::Delivery
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepPhase {
    /// An initiate action by the reported node.
    Action,
    /// A delayed message reaching its receiver; the reported initiator is
    /// the original sender.
    Delivery,
}

/// A report of one step: who initiated and what happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepReport<M = Message> {
    /// The initiating node (for [`StepPhase::Delivery`] reports, the
    /// original sender of the delivered message).
    pub initiator: NodeId,
    /// The step's outcome.
    pub event: StepEvent<M>,
    /// Whether this report is an action or a delayed delivery.
    pub phase: StepPhase,
    /// The global step counter when the report was produced.
    pub step: u64,
}

/// An observer of the simulation's step-event stream.
///
/// Register with [`Simulation::subscribe`]; the callback fires once per
/// [`StepReport`], including the delayed-delivery reports that
/// [`Simulation::step`] does not return. Subscribers run inline on the
/// stepping thread, so keep callbacks cheap; they must be `Send` because
/// simulations migrate across sweep worker threads.
pub trait StepSubscriber<M = Message>: Send {
    /// Called after each step (and each delayed delivery) with its report.
    fn on_step(&mut self, report: &StepReport<M>);
}

impl<M, F: FnMut(&StepReport<M>) + Send> StepSubscriber<M> for F {
    fn on_step(&mut self, report: &StepReport<M>) {
        self(report);
    }
}

/// Message-delay model: how long a sent message stays in flight.
///
/// The paper's model breaks actions into single-node *steps* precisely so
/// that messages may be delayed and actions may overlap in time
/// (Section 4.1: "we allow communication to be asynchronous"). With
/// [`DelayModel::Immediate`] the receive step executes right after the send
/// (the central-entity execution of Section 5); with
/// [`DelayModel::UniformSteps`] each message is delivered a uniformly
/// random number of *global steps* later, so arbitrary actions interleave
/// with in-flight messages — the asynchrony the protocol claims to
/// tolerate, and the `delay` tests verify it does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DelayModel {
    /// The receive step runs immediately after the send step.
    Immediate,
    /// Each delivered message arrives `1..=max` global steps after the
    /// send, sampled uniformly.
    UniformSteps {
        /// The largest possible delay, in steps.
        max: u64,
    },
}

/// A deterministic, seeded simulation of an S&F system under message loss.
///
/// # Examples
///
/// ```
/// use sandf_core::SfConfig;
/// use sandf_sim::{topology, Engine, Simulation, UniformLoss};
///
/// let config = SfConfig::new(16, 6)?;
/// let nodes = topology::circulant(64, config, 8);
/// let mut sim = Simulation::new(nodes, UniformLoss::new(0.01)?, 42);
/// sim.run_rounds(50);
/// assert!(sim.graph().is_weakly_connected());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A clone copies the simulation state but starts with **no**
/// subscribers (boxed observers are not clonable).
#[derive(Clone)]
pub struct Simulation<L> {
    config: SfConfig,
    nodes: HashMap<NodeId, SfNode>,
    live: Vec<NodeId>,
    /// Streaming live-outdegree histogram, maintained around every
    /// initiate/receive and at join/leave.
    degree_hist: DegreeStats,
    loss: L,
    delay: DelayModel,
    /// Global step counter (drives in-flight delivery times).
    now: u64,
    /// Completed rounds — the time base for round-indexed fault models.
    rounds: u64,
    /// Messages in flight, keyed by delivery step.
    in_flight: BTreeMap<u64, Vec<(NodeId, Message)>>,
    rng: StdRng,
    stats: SimStats,
    next_id: u64,
    /// Registered step-event observers (not carried across clones).
    subscribers: Subscribers<Message>,
}

impl<L: fmt::Debug> fmt::Debug for Simulation<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("config", &self.config)
            .field("live", &self.live.len())
            .field("loss", &self.loss)
            .field("delay", &self.delay)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight.values().map(Vec::len).sum::<usize>())
            .field("stats", &self.stats)
            .field("subscribers", &self.subscribers)
            .finish_non_exhaustive()
    }
}

/// A node's outdegree as the histogram's bucket type.
fn deg_of(node: &SfNode) -> u32 {
    u32::try_from(node.out_degree()).expect("outdegree exceeds u32")
}

impl<L: FaultModel> Simulation<L> {
    /// Creates a simulation over the given nodes with a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, contains duplicate ids, or mixes
    /// configurations.
    #[must_use]
    pub fn new(nodes: Vec<SfNode>, loss: L, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "simulation needs at least one node");
        let config = nodes[0].config();
        assert!(
            nodes.iter().all(|n| n.config() == config),
            "all nodes must share one configuration"
        );
        let live: Vec<NodeId> = nodes.iter().map(SfNode::id).collect();
        let next_id = live.iter().map(|id| id.as_u64() + 1).max().unwrap_or(0);
        let map: HashMap<NodeId, SfNode> = nodes.into_iter().map(|n| (n.id(), n)).collect();
        assert_eq!(map.len(), live.len(), "duplicate node ids");
        let degree_hist = DegreeStats::rebuild(config.view_size(), map.values().map(deg_of));
        Self {
            config,
            nodes: map,
            live,
            degree_hist,
            loss,
            delay: DelayModel::Immediate,
            now: 0,
            rounds: 0,
            in_flight: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
            next_id,
            subscribers: Subscribers::default(),
        }
    }

    /// Registers a step-event observer. All subsequent steps (and delayed
    /// deliveries) are reported to it, in registration order, after the
    /// engine's own counters update. See [`StepSubscriber`].
    pub fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber>) {
        self.subscribers.push(subscriber);
    }

    /// Reports `report` to every subscriber; out of line so the
    /// subscriber-free stepping path stays compact.
    #[cold]
    #[inline(never)]
    fn notify(&mut self, report: &StepReport) {
        self.subscribers.notify(report);
    }

    /// Creates a simulation with a message-delay model, so actions overlap
    /// in time (the asynchronous regime of Section 4.1).
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`new`](Self::new), or when the
    /// delay bound is zero.
    #[must_use]
    pub fn with_delay(nodes: Vec<SfNode>, loss: L, delay: DelayModel, seed: u64) -> Self {
        if let DelayModel::UniformSteps { max } = delay {
            assert!(max > 0, "delay bound must be positive");
        }
        let mut sim = Self::new(nodes, loss, seed);
        sim.delay = delay;
        sim
    }

    /// Number of messages currently in flight (always 0 under
    /// [`DelayModel::Immediate`]).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.values().map(Vec::len).sum()
    }

    /// Delivers every in-flight message whose delivery time has arrived.
    /// When `reports` is given, each delivery appends a
    /// [`StepPhase::Delivery`] report (the subscriber path); `None` skips
    /// report assembly on the subscriber-free fast path.
    fn deliver_due(&mut self, mut reports: Option<&mut Vec<StepReport>>) {
        while let Some((&at, _)) = self.in_flight.first_key_value() {
            if at > self.now {
                break;
            }
            let (_, batch) = self.in_flight.pop_first().expect("checked nonempty");
            for (to, message) in batch {
                let event = self.deliver(to, message);
                if let Some(out) = reports.as_deref_mut() {
                    out.push(StepReport {
                        initiator: message.sender,
                        event,
                        phase: StepPhase::Delivery,
                        step: self.now,
                    });
                }
            }
        }
    }

    /// Executes the receive step at `to` (or counts a dead letter).
    fn deliver(&mut self, to: NodeId, message: Message) -> StepEvent {
        match self.nodes.get_mut(&to) {
            None => {
                self.stats.dead_letters += 1;
                StepEvent::DeadLetter { to, message, duplicated: message.dependent }
            }
            Some(receiver) => {
                let deg_before = deg_of(receiver);
                let deleted =
                    matches!(receiver.receive(message, &mut self.rng), ReceiveOutcome::Deleted);
                self.degree_hist.shift(deg_before, deg_of(receiver));
                if deleted {
                    self.stats.deleted += 1;
                } else {
                    self.stats.stored += 1;
                }
                StepEvent::Delivered { to, message, duplicated: message.dependent, deleted }
            }
        }
    }

    /// The shared protocol configuration.
    #[must_use]
    pub fn config(&self) -> SfConfig {
        self.config
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The ids of the live nodes (unspecified order).
    #[must_use]
    pub fn live_ids(&self) -> &[NodeId] {
        &self.live
    }

    /// A live node by id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&SfNode> {
        self.nodes.get(&id)
    }

    /// Iterates over the live nodes, in live order.
    pub fn nodes(&self) -> impl Iterator<Item = &SfNode> {
        self.live.iter().map(|id| &self.nodes[id])
    }

    /// Accumulated system-wide counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Resets system-wide and per-node counters (e.g. after burn-in).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        // Every node is zeroed alike, so the map's order cannot reach output.
        for node in self.nodes.values_mut() {
            node.reset_stats();
        }
    }

    /// Sum of all per-node counters.
    #[must_use]
    pub fn aggregate_node_stats(&self) -> NodeStats {
        let mut total = NodeStats::new();
        // Its values are only summed as integers, so its order cannot reach output.
        for node in self.nodes.values() {
            total.merge(node.stats());
        }
        total
    }

    /// Executes one step by a uniformly random live node (the paper's
    /// central-entity model).
    pub fn step(&mut self) -> StepReport {
        let initiator = self.live[self.rng.gen_range(0..self.live.len())];
        self.step_node(initiator)
    }

    /// Executes one step by a specific node, which must be live.
    fn step_node(&mut self, initiator: NodeId) -> StepReport {
        self.now += 1;
        if self.subscribers.is_empty() {
            self.deliver_due(None);
        } else {
            self.deliver_due_observed();
        }
        if !self.loss.node_acts(initiator, self.rounds) {
            self.stats.skipped += 1;
            let report = StepReport {
                initiator,
                event: StepEvent::Skipped,
                phase: StepPhase::Action,
                step: self.now,
            };
            if !self.subscribers.is_empty() {
                self.notify(&report);
            }
            return report;
        }
        self.stats.actions += 1;
        let node = self.nodes.get_mut(&initiator).expect("initiator must be live");
        let deg_before = deg_of(node);
        let outcome = node.initiate(&mut self.rng);
        self.degree_hist.shift(deg_before, deg_of(node));
        let event = match outcome {
            InitiateOutcome::SelfLoop => {
                self.stats.self_loops += 1;
                StepEvent::SelfLoop
            }
            InitiateOutcome::Sent { to, message, duplicated, .. } => {
                self.stats.sent += 1;
                if duplicated {
                    self.stats.duplications += 1;
                }
                let ctx = FaultCtx { from: initiator, to, round: self.rounds };
                if self.loss.drops(ctx, &mut self.rng) {
                    self.stats.lost += 1;
                    StepEvent::Lost { to, message, duplicated }
                } else {
                    match self.delay {
                        DelayModel::Immediate => self.deliver(to, message),
                        DelayModel::UniformSteps { max } => {
                            let deliver_at = self.now + self.rng.gen_range(1..=max);
                            self.in_flight.entry(deliver_at).or_default().push((to, message));
                            StepEvent::InFlight { to, message, duplicated, deliver_at }
                        }
                    }
                }
            }
        };
        let report = StepReport { initiator, event, phase: StepPhase::Action, step: self.now };
        if !self.subscribers.is_empty() {
            self.notify(&report);
        }
        report
    }

    /// Delivers every message still in flight (advancing virtual time past
    /// the last scheduled delivery) — call before taking an
    /// end-of-experiment snapshot of a delayed simulation.
    pub fn settle(&mut self) {
        if let Some((&last, _)) = self.in_flight.last_key_value() {
            self.now = self.now.max(last);
            if self.subscribers.is_empty() {
                self.deliver_due(None);
            } else {
                self.deliver_due_observed();
            }
        }
    }

    /// The subscriber path of due-message delivery: collect the delivery
    /// reports, then notify. Out of line so it costs nothing when no
    /// subscriber is registered.
    #[cold]
    #[inline(never)]
    fn deliver_due_observed(&mut self) {
        let mut delivered = Vec::new();
        self.deliver_due(Some(&mut delivered));
        for report in &delivered {
            self.notify(report);
        }
    }

    /// Executes one round: `n` steps by uniformly random nodes, so that each
    /// node initiates once in expectation (Section 6.5's round definition).
    pub fn round(&mut self) {
        for _ in 0..self.live.len() {
            self.step();
        }
        self.rounds += 1;
    }

    /// Executes one round in which every live node initiates exactly once,
    /// in a fresh random order — the practical deployment pattern where
    /// every node runs a periodic timer.
    pub fn round_permuted(&mut self) {
        let mut order = self.live.clone();
        order.shuffle(&mut self.rng);
        for id in order {
            if self.nodes.contains_key(&id) {
                self.step_node(id);
            }
        }
        self.rounds += 1;
    }

    /// Completed rounds ([`round`](Self::round) /
    /// [`round_permuted`](Self::round_permuted) calls) — the time base
    /// round-indexed fault models see in [`FaultCtx::round`].
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds
    }

    /// Applies `f` to the fault model — e.g. to aim a
    /// [`VictimLoss`](crate::VictimLoss) at the current high-indegree
    /// nodes at a phase boundary. The same hook exists on all three
    /// engines (the par engine applies it to every per-sender channel).
    pub fn update_fault(&mut self, mut f: impl FnMut(&mut L)) {
        f(&mut self.loss);
    }

    /// Runs `rounds` central-entity rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Adds a new node bootstrapped with `d_L` ids copied from a random
    /// position in `sponsor`'s view (the paper's joining rule, Section 5;
    /// the joiner starts with "the minimal possible outdegree `d_L` and
    /// indegree 0", Section 6.5). Returns the joiner's fresh id.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::TooFewIds`] if the sponsor's view holds fewer
    /// than `d_L` ids.
    ///
    /// # Panics
    ///
    /// Panics if `sponsor` is not live.
    pub fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError> {
        let d_l = self.config.lower_threshold();
        let sponsor_node = self.nodes.get(&sponsor).expect("sponsor must be live");
        let mut pool: Vec<NodeId> = sponsor_node.view().ids().collect();
        if pool.len() < d_l {
            return Err(JoinError::TooFewIds { supplied: pool.len(), d_l });
        }
        pool.shuffle(&mut self.rng);
        // An even bootstrap of exactly d_L ids (d_L is even by construction);
        // with d_L = 0 the joiner starts empty and integrates via receives.
        let bootstrap: Vec<NodeId> = pool.into_iter().take(d_l).collect();
        self.join_with(&bootstrap)
    }

    /// Adds a new node bootstrapped with the given ids, propagating
    /// [`JoinError`] from [`SfNode::with_view`].
    fn join_with(&mut self, bootstrap: &[NodeId]) -> Result<NodeId, JoinError> {
        let id = NodeId::new(self.next_id);
        let node = SfNode::with_view(id, self.config, bootstrap)?;
        self.next_id += 1;
        self.degree_hist.add(deg_of(&node));
        self.nodes.insert(id, node);
        self.live.push(id);
        Ok(id)
    }

    /// Removes a node (a *leave* or *crash* — the paper treats them alike:
    /// the node simply stops participating, Section 5). Its id lingers in
    /// other views until the normal course of the protocol purges it
    /// (Section 6.5.2). Returns the removed node.
    pub fn leave(&mut self, id: NodeId) -> Option<SfNode> {
        let node = self.nodes.remove(&id)?;
        self.degree_hist.remove(deg_of(&node));
        let pos = self.live.iter().position(|&x| x == id).expect("live list out of sync");
        self.live.swap_remove(pos);
        Some(node)
    }

    /// Total multiplicity of `id` across all live views — the number of "id
    /// instances" tracked by the Section 6.5 decay analysis.
    #[must_use]
    pub fn count_id_instances(&self, id: NodeId) -> usize {
        // Its values are only summed as integers, so its order cannot reach output.
        self.nodes.values().map(|n| n.view().multiplicity(id)).sum()
    }

    /// Streaming degree statistics — the live outdegree histogram,
    /// maintained incrementally around every initiate/receive and at
    /// join/leave (`O(s)` snapshot, no per-node scan; equal to a
    /// from-scratch rebuild over the live nodes at all times).
    #[must_use]
    pub fn degree_stats(&self) -> &DegreeStats {
        &self.degree_hist
    }
}

#[cfg(test)]
mod tests {
    use crate::loss::UniformLoss;
    use crate::topology;
    use crate::Engine;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn small_sim(seed: u64) -> Simulation<UniformLoss> {
        let nodes = topology::circulant(24, config(), 4);
        Simulation::new(nodes, UniformLoss::none(), seed)
    }

    #[test]
    fn simulation_is_send() {
        // The oracle must be movable wherever the engines it is compared
        // with are: a non-Send field sneaking in (an Rc, a raw pointer)
        // should fail this at compile time.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&small_sim(1));
    }

    #[test]
    fn steps_preserve_total_counts() {
        let mut sim = small_sim(1);
        for _ in 0..500 {
            sim.step();
        }
        let s = sim.stats();
        assert_eq!(s.actions, 500);
        assert_eq!(s.actions, s.self_loops + s.sent);
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    }

    #[test]
    fn lossless_run_conserves_edges_with_dl_zero() {
        // Lemma 6.2: with ℓ = 0 and d_L = 0, sum degrees (hence total edge
        // count) are invariant.
        let config = SfConfig::lossless(12).unwrap();
        let nodes = topology::circulant(24, config, 4);
        let mut sim = Simulation::new(nodes, UniformLoss::none(), 5);
        let before = sim.graph().edge_count();
        sim.run_rounds(50);
        assert_eq!(sim.graph().edge_count(), before);
    }

    #[test]
    fn loss_shrinks_edges_without_duplication_floor() {
        // Without duplications (d_L = 0) and positive loss, ids drain away —
        // the failure mode S&F's threshold exists to prevent (Section 5).
        let config = SfConfig::lossless(12).unwrap();
        let nodes = topology::circulant(24, config, 4);
        let mut sim = Simulation::new(nodes, UniformLoss::new(0.2).unwrap(), 5);
        let before = sim.graph().edge_count();
        sim.run_rounds(100);
        let mid = sim.graph().edge_count();
        assert!(mid < before, "drain must start: {before} -> {mid}");
        sim.run_rounds(200);
        let after = sim.graph().edge_count();
        assert!(after < before / 2, "drain must continue: {before} -> {after}");
    }

    #[test]
    fn duplication_floor_keeps_system_alive_under_loss() {
        let nodes = topology::circulant(24, config(), 6);
        let mut sim = Simulation::new(nodes, UniformLoss::new(0.2).unwrap(), 5);
        sim.run_rounds(200);
        let g = sim.graph();
        let d_l = config().lower_threshold();
        assert!(g.out_degrees().iter().all(|&d| d >= d_l));
        assert!(sim.stats().duplications > 0);
    }

    #[test]
    fn same_seed_same_run() {
        let mut a = small_sim(33);
        let mut b = small_sim(33);
        a.run_rounds(20);
        b.run_rounds(20);
        assert_eq!(a.stats(), b.stats());
        let ga = a.graph();
        let gb = b.graph();
        for &id in ga.ids() {
            assert_eq!(ga.out_degree(id), gb.out_degree(id));
            assert_eq!(ga.in_degree(id), gb.in_degree(id));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = small_sim(1);
        let mut b = small_sim(2);
        a.run_rounds(20);
        b.run_rounds(20);
        assert_ne!(a.stats(), b.stats());
    }

    #[test]
    fn join_via_copies_dl_ids() {
        let mut sim = small_sim(7);
        sim.run_rounds(10);
        let sponsor = sim.live_ids()[0];
        let joiner = sim.join_via(sponsor).unwrap();
        let node = sim.node(joiner).unwrap();
        assert_eq!(node.out_degree(), config().lower_threshold());
        assert_eq!(sim.len(), 25);
        // The joiner's ids all point at previously existing nodes.
        assert!(node.view().ids().all(|id| id != joiner));
    }

    #[test]
    fn leave_makes_id_decay() {
        let mut sim = small_sim(9);
        sim.run_rounds(20);
        let victim = sim.live_ids()[3];
        let instances_before = sim.count_id_instances(victim);
        assert!(instances_before > 0);
        sim.leave(victim);
        assert_eq!(sim.len(), 23);
        sim.run_rounds(400);
        let instances_after = sim.count_id_instances(victim);
        assert!(
            instances_after < instances_before,
            "dead id should decay: {instances_before} -> {instances_after}"
        );
    }

    #[test]
    fn permuted_round_touches_every_node() {
        let mut sim = small_sim(11);
        sim.round_permuted();
        for node in sim.nodes() {
            assert_eq!(node.stats().initiated, 1);
        }
    }

    #[test]
    fn dead_letters_are_counted() {
        let mut sim = small_sim(13);
        let victim = sim.live_ids()[0];
        sim.leave(victim);
        sim.run_rounds(50);
        assert!(sim.stats().dead_letters > 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_node_set() {
        let _ = Simulation::new(Vec::new(), UniformLoss::none(), 0);
    }

    #[test]
    fn delayed_messages_conserve_the_ledger() {
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = Simulation::with_delay(
            nodes,
            UniformLoss::new(0.05).unwrap(),
            DelayModel::UniformSteps { max: 40 },
            3,
        );
        for _ in 0..2_000 {
            sim.step();
        }
        let s = sim.stats();
        assert_eq!(
            s.sent,
            s.lost + s.dead_letters + s.stored + s.deleted + sim.in_flight() as u64,
            "message ledger out of balance"
        );
        assert!(sim.in_flight() > 0, "no message was ever in flight");
        sim.settle();
        assert_eq!(sim.in_flight(), 0);
        let s = sim.stats();
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    }

    #[test]
    fn invariants_hold_under_heavy_delay() {
        // Observation 5.1 must survive arbitrarily interleaved actions —
        // the non-atomicity claim of Section 4.
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = Simulation::with_delay(
            nodes,
            UniformLoss::new(0.1).unwrap(),
            DelayModel::UniformSteps { max: 200 },
            7,
        );
        for _ in 0..5_000 {
            sim.step();
            for node in sim.nodes() {
                let d = node.out_degree();
                assert_eq!(d % 2, 0);
                assert!((4..=12).contains(&d));
            }
        }
    }

    #[test]
    fn delayed_and_immediate_steady_states_agree() {
        // The asynchrony claim, quantitatively: delays must not move the
        // steady-state degree statistics.
        let mean_out = |delay: DelayModel| {
            let nodes = topology::circulant(128, config(), 8);
            let mut sim = Simulation::with_delay(nodes, UniformLoss::new(0.02).unwrap(), delay, 11);
            for _ in 0..128 * 400 {
                sim.step();
            }
            sim.settle();
            let graph = sim.graph();
            graph.out_degrees().iter().sum::<usize>() as f64 / 128.0
        };
        let immediate = mean_out(DelayModel::Immediate);
        let delayed = mean_out(DelayModel::UniformSteps { max: 64 });
        assert!(
            (immediate - delayed).abs() < 0.6,
            "asynchrony shifted the steady state: {immediate} vs {delayed}"
        );
    }

    #[test]
    #[should_panic(expected = "delay bound")]
    fn zero_delay_bound_is_rejected() {
        let nodes = topology::circulant(8, config(), 4);
        let _ = Simulation::with_delay(
            nodes,
            UniformLoss::none(),
            DelayModel::UniformSteps { max: 0 },
            0,
        );
    }

    #[test]
    fn targeted_loss_starves_only_the_victim() {
        use crate::fault::VictimLoss;
        let victim = NodeId::new(0);
        let mut loss = VictimLoss::new(0.95, 0.0).unwrap();
        loss.set_victims(&[victim]);
        let nodes = topology::circulant(64, SfConfig::new(16, 6).unwrap(), 8);
        let mut sim = Simulation::new(nodes, loss, 17);
        sim.run_rounds(300);
        let graph = sim.graph();
        // The duplication floor keeps the victim alive and the overlay whole.
        assert!(graph.is_weakly_connected());
        let victim_out = graph.out_degree(victim).unwrap();
        assert!(victim_out >= 6, "victim fell below d_L: {victim_out}");
        // Everyone else is essentially loss-free.
        let mean: f64 = graph.out_degrees().iter().sum::<usize>() as f64 / 64.0;
        assert!(victim_out as f64 <= mean, "starved victim should not exceed the population mean");
    }

    #[test]
    fn subscriber_counts_match_sim_stats() {
        use std::sync::{Arc, Mutex};
        #[derive(Default)]
        struct Counts {
            actions: u64,
            deliveries: u64,
            self_loops: u64,
            lost: u64,
            delivered: u64,
        }
        let counts = Arc::new(Mutex::new(Counts::default()));
        let sink = Arc::clone(&counts);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = Simulation::new(nodes, UniformLoss::new(0.1).unwrap(), 21);
        sim.subscribe(Box::new(move |report: &StepReport| {
            let mut c = sink.lock().unwrap();
            match report.phase {
                StepPhase::Action => c.actions += 1,
                StepPhase::Delivery => c.deliveries += 1,
            }
            match report.event {
                StepEvent::SelfLoop => c.self_loops += 1,
                StepEvent::Lost { .. } => c.lost += 1,
                StepEvent::Delivered { .. } => c.delivered += 1,
                _ => {}
            }
        }));
        for _ in 0..600 {
            sim.step();
        }
        let c = counts.lock().unwrap();
        let s = sim.stats();
        assert_eq!(c.actions, s.actions);
        assert_eq!(c.self_loops, s.self_loops);
        assert_eq!(c.lost, s.lost);
        assert_eq!(c.delivered, s.stored + s.deleted);
        assert_eq!(c.deliveries, 0, "immediate mode never emits delivery-phase reports");
    }

    #[test]
    fn subscriber_sees_delayed_deliveries() {
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<(StepPhase, StepEvent)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = Simulation::with_delay(
            nodes,
            UniformLoss::none(),
            DelayModel::UniformSteps { max: 30 },
            23,
        );
        sim.subscribe(Box::new(move |r: &StepReport| {
            sink.lock().unwrap().push((r.phase, r.event))
        }));
        for _ in 0..500 {
            sim.step();
        }
        sim.settle();
        let log = log.lock().unwrap();
        let queued = log.iter().filter(|(_, e)| matches!(e, StepEvent::InFlight { .. })).count();
        let delivered = log
            .iter()
            .filter(|(p, e)| {
                *p == StepPhase::Delivery
                    && matches!(e, StepEvent::Delivered { .. } | StepEvent::DeadLetter { .. })
            })
            .count();
        assert!(queued > 0, "delayed mode must queue messages");
        assert_eq!(queued, delivered, "every queued message must produce a delivery report");
        let s = sim.stats();
        assert_eq!(delivered as u64, s.stored + s.deleted + s.dead_letters);
    }

    #[test]
    fn clones_do_not_carry_subscribers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&seen);
        let mut sim = small_sim(1);
        sim.subscribe(Box::new(move |_: &StepReport| {
            sink.fetch_add(1, Ordering::Relaxed);
        }));
        sim.clone().run_rounds(1);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            0,
            "the clone reported to the original's observer"
        );
        sim.step();
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn capacity_gate_skips_steps_and_preserves_the_ledger() {
        use crate::fault::NodeCapacity;
        // Everyone slow with period 2: roughly half of all central-entity
        // steps are skipped, and both ledgers still balance.
        let model = NodeCapacity::new(7, 1.0, 2, 0.1).unwrap();
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = Simulation::new(nodes, model, 19);
        sim.run_rounds(40);
        let s = *sim.stats();
        assert!(s.skipped > 0, "slow cohort never skipped");
        assert_eq!(s.actions + s.skipped, 40 * 24, "every step acts or skips");
        assert_eq!(s.actions, s.self_loops + s.sent);
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
        assert_eq!(sim.rounds_run(), 40);
        // Obs 5.1 still holds under the capacity fault.
        for node in sim.nodes() {
            let d = node.out_degree();
            assert_eq!(d % 2, 0);
            assert!((4..=12).contains(&d));
        }
    }

    #[test]
    fn update_fault_retargets_mid_run() {
        use crate::fault::VictimLoss;
        let victim = NodeId::new(5);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = Simulation::new(nodes, VictimLoss::new(1.0, 0.0).unwrap(), 23);
        sim.run_rounds(10);
        assert_eq!(sim.stats().lost, 0, "empty victim set must lose nothing");
        sim.update_fault(|f| f.set_victims(&[victim]));
        sim.run_rounds(30);
        assert!(sim.stats().lost > 0, "victim loss never fired after retarget");
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut sim = small_sim(15);
        sim.run_rounds(5);
        sim.reset_stats();
        assert_eq!(sim.stats(), &SimStats::default());
        assert_eq!(sim.aggregate_node_stats().initiated, 0);
    }
}
