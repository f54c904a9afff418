//! The multi-threaded fast path: a sharded, round-based scheduler over the
//! shared slot [`Arena`].
//!
//! Storage — the `n × s` slot words, the dense ledgers, the id tables and
//! the `u64`-id widening boundary — is the same [`Arena`] the flat engine
//! runs on and is documented once, in [`crate::arena`]. What this module
//! owns is the scheduler, the in-flight queue, and the determinism
//! contract.
//!
//! [`FlatSimulation`](crate::FlatSimulation) is bound by single-thread
//! throughput: one RNG stream forces every step to happen in sequence. The
//! sharded engine removes that bottleneck by changing *where randomness
//! comes from*: instead of one stream whose draw order serializes the run,
//! every `(node, round)` pair derives its own short-lived RNG from the
//! simulation seed ([`stream_seed`] under tags `a`, `d`, `r` and `c` of the
//! [`crate::stream`] table). A node's behavior in a round then depends only
//! on `(seed, node id, round)` and its own view, never on which thread ran
//! it, so the arena can be split into `T` contiguous shards and processed
//! concurrently while staying **byte-identical for any thread count**. That contract is
//! also why the live order here is *ascending dense order* (the order the
//! shards walk the arena in), not the flat engine's insertion order, and
//! why every sender owns a private clone of the loss channel. The
//! in-flight queue is a ring of `max + 1` buckets, one per delivery
//! *round* (a single bucket in immediate mode).
//!
//! Each round executes three phases:
//!
//! 1. **action phase (parallel)** — every live node initiates exactly
//!    once, in dense arena order within each shard, using its private
//!    per-`(seed, node, round)` RNG stream; outbound messages are
//!    buffered per shard;
//! 2. **merge phase (sequential, deterministic)** — the per-shard send
//!    buffers are concatenated in shard order (= global dense order, for
//!    every `T`) into the ring-buffer in-flight queue;
//! 3. **delivery phase (parallel)** — the bucket due this round is
//!    stably ordered by `(deliver_time, sender, slot)` (one bucket holds
//!    exactly one delivery time; each node sends at most one message — a
//!    single slot — per round, so ties fall back to send-round order),
//!    dead letters are counted sequentially, and the surviving messages
//!    are partitioned by receiver shard and applied concurrently, each
//!    receive drawing from a per-message RNG derived from
//!    `(seed, deliver_time, bucket position)`. Replies produced by a
//!    [`ProtocolBehavior`] receive (push-pull, shuffle — never S&F) are
//!    collected in bucket order and routed sequentially afterwards, in
//!    waves, each hop drawing from its own
//!    `(seed, deliver_time, wave, bucket position)` stream — so the reply
//!    traffic is thread-count-independent too.
//!
//! # A distinct — but valid — statistical mode
//!
//! The classic and flat engines are seed-for-seed identical to each other
//! and follow the paper's central-entity model: one uniformly random node
//! steps at a time, with one global RNG. `ParSimulation` is **not**
//! lockstep-equivalent to them — it is a round-based engine (every live
//! node initiates exactly once per round, like
//! [`round_permuted`](crate::FlatSimulation::round_permuted)), message
//! delays are drawn in *rounds* rather than steps, and each sender owns a
//! private loss channel (relevant for stateful models like
//! [`GilbertElliott`](crate::GilbertElliott)). All protocol transitions
//! (initiate, receive, duplication threshold, deletion-on-full) are the
//! same machine, so steady-state statistics — degree distributions,
//! duplication/deletion/loss rates — agree with the sequential engines
//! within sampling error; `crates/bench/tests/par_statistics.rs` checks
//! this against the classic engine at matched parameters.
//!
//! Like the flat engine, `ParSimulation` is generic over a
//! [`ProtocolBehavior`] (defaulting to [`SfBehavior`], the paper's S&F
//! protocol), which is how the baseline and variant protocol zoos reach
//! round-based multi-core scale; see the [`crate::traits`] module docs for
//! the byte-identity and draw-order contracts.
//!
//! ```
//! use sandf_core::SfConfig;
//! use sandf_sim::{topology, ParSimulation, UniformLoss};
//!
//! let config = SfConfig::new(16, 6)?;
//! let nodes = topology::circulant(10_000, config, 8);
//! let mut eight = ParSimulation::new(nodes.clone(), UniformLoss::new(0.01)?, 42, 8);
//! let mut one = ParSimulation::new(nodes, UniformLoss::new(0.01)?, 42, 1);
//! eight.run_rounds(5);
//! one.run_rounds(5);
//! assert_eq!(eight.stats(), one.stats()); // byte-identical for any thread count
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::{JoinError, LocalView, NodeId, NodeStats, SfConfig, SfNode};
use sandf_graph::{DependenceReport, MembershipGraph};
use sandf_obs::{duration_buckets, GaugeHandle, HistogramHandle, MetricsRegistry, SpanTimer};

use crate::arena::{Arena, Shard};
use crate::chassis::{ring_for, Subscribers};
use crate::degree::DegreeStats;
use crate::engine::{DelayModel, SimStats, StepEvent, StepPhase, StepReport, StepSubscriber};
use crate::fault::{FaultCtx, FaultModel};
use crate::stream::{self, stream_seed};
use crate::traits::{ProtocolBehavior, SfBehavior, MAX_REPLY_CHAIN};

/// The action-phase RNG stream of `node` in `round`.
#[inline]
fn action_seed(seed: u64, node: u64, round: u64) -> u64 {
    stream_seed(seed, stream::ACTION, node, round)
}

/// The delivery RNG stream of the message at sorted bucket position `pos`
/// delivered at time `at`.
#[inline]
fn delivery_seed(seed: u64, at: u64, pos: u64) -> u64 {
    stream_seed(seed, stream::DELIVERY, at, pos)
}

/// `reply_seed` packs `at·16 + wave`, injective only while a wave number
/// fits in four bits.
const _: () = assert!(MAX_REPLY_CHAIN < 16, "reply_seed's at·16 + wave needs MAX_REPLY_CHAIN < 16");

/// The RNG stream of the reply hop in `wave` (1-based) descending from
/// sorted bucket position `pos` of the bucket delivered at `at`.
#[inline]
fn reply_seed(seed: u64, at: u64, wave: u64, pos: u64) -> u64 {
    stream_seed(seed, stream::REPLY, at * 16 + wave, pos)
}

/// The control-plane RNG stream (sponsor-view shuffles in
/// [`ParSimulation::join_via`]).
#[inline]
fn control_seed(seed: u64) -> u64 {
    stream_seed(seed, stream::CONTROL, 0, 0)
}

/// Adds every counter of `delta` into `total`.
fn merge_stats(total: &mut SimStats, delta: &SimStats) {
    total.actions += delta.actions;
    total.self_loops += delta.self_loops;
    total.sent += delta.sent;
    total.replies += delta.replies;
    total.lost += delta.lost;
    total.dead_letters += delta.dead_letters;
    total.stored += delta.stored;
    total.deleted += delta.deleted;
    total.duplications += delta.duplications;
    total.skipped += delta.skipped;
}

/// Per-round span histograms and the shard-balance gauge, when a profiler
/// is attached.
#[derive(Clone, Debug)]
struct ParProfile {
    action: HistogramHandle,
    merge: HistogramHandle,
    deliver: HistogramHandle,
    imbalance: GaugeHandle,
}

/// Read-only context shared by all action-phase shard workers.
#[derive(Clone, Copy)]
struct ActionCtx {
    config: SfConfig,
    seed: u64,
    round: u64,
    delay: DelayModel,
    observed: bool,
}

/// What one action-phase shard worker produced.
struct ActionShardOut<M> {
    stats: SimStats,
    live: u64,
    /// Outbound messages as `(deliver_round, to, message)`, in dense order.
    sends: Vec<(u64, NodeId, M)>,
    /// Action reports in dense order (`step` assigned during the merge).
    reports: Vec<StepReport<M>>,
    /// Signed per-bucket movement of the live-outdegree histogram
    /// (addition commutes, so the sequential merge is shard-order
    /// independent).
    hist: Vec<i64>,
}

/// Read-only context shared by all delivery-phase shard workers.
#[derive(Clone, Copy)]
struct DeliveryCtx {
    config: SfConfig,
    seed: u64,
    /// The delivery time of the drained bucket.
    at: u64,
    /// The step stamped on delivery reports (end of the current round).
    end_step: u64,
    observed: bool,
}

/// One delivered message, routed to its receiver shard: the sorted bucket
/// position (drives the per-message RNG stream and the report order), the
/// receiver's dense index and id, and the message itself.
#[derive(Clone, Copy)]
struct RoutedMessage<M> {
    pos: usize,
    dense: usize,
    to: NodeId,
    message: M,
}

/// What one delivery-phase shard worker produced.
struct DeliveryShardOut<M> {
    stored: u64,
    deleted: u64,
    /// Delivery reports keyed by sorted bucket position.
    reports: Vec<(usize, StepReport<M>)>,
    /// Replies the receives produced, keyed by sorted bucket position;
    /// routed sequentially after the shards merge (empty for S&F).
    replies: Vec<(usize, NodeId, M)>,
    /// Signed per-bucket movement of the live-outdegree histogram.
    hist: Vec<i64>,
}

impl<M> DeliveryShardOut<M> {
    fn new(s: usize) -> Self {
        Self {
            stored: 0,
            deleted: 0,
            reports: Vec::new(),
            replies: Vec::new(),
            hist: vec![0; s + 1],
        }
    }
}

/// The sharded, multi-threaded fast path of the simulation stack.
///
/// Same arena layout as [`FlatSimulation`](crate::FlatSimulation) (one
/// contiguous `n × s` slot arena, dense ledgers, ring-buffer in-flight
/// queue), driven by round-based three-phase execution — parallel actions,
/// deterministic merge, parallel delivery — with per-`(seed, node, round)`
/// FNV-1a-derived RNG streams. Results are **byte-identical for any thread
/// count**; see the module docs for the scheme and for why this engine is
/// a distinct-but-valid statistical mode relative to
/// [`Simulation`](crate::Simulation).
///
/// The engine is generic over a [`ProtocolBehavior`] `B` (defaulting to
/// [`SfBehavior`]); build zoo instances with
/// [`from_views`](Self::from_views).
///
/// Under [`DelayModel::UniformSteps`] the bound is interpreted in
/// *rounds*: each message arrives `1..=max` rounds after it was sent.
/// Under [`DelayModel::Immediate`] messages are delivered in the same
/// round's delivery phase (after every node has acted).
///
/// As with the other engines, a clone starts with no subscribers and
/// shares an attached profiler.
#[derive(Clone)]
pub struct ParSimulation<L, B: ProtocolBehavior = SfBehavior> {
    /// Views, ledgers and id tables.
    arena: Arena,
    /// The protocol executing over the arena.
    behavior: B,
    /// Number of live nodes (the dense arena also carries departed ones).
    live_count: usize,
    /// Per-sender loss channels, indexed by dense node index. Stateful
    /// models ([`GilbertElliott`](crate::GilbertElliott)) advance
    /// per-sender, which keeps loss decisions shard-independent.
    loss: Vec<L>,
    /// Prototype channel cloned for nodes that join later.
    loss_proto: L,
    delay: DelayModel,
    /// Rounds executed so far (drives RNG stream derivation).
    round: u64,
    /// Global action counter (one per live node per round), stamped on
    /// reports for parity with the sequential engines.
    step_counter: u64,
    /// Delivery ring: bucket `t % ring.len()` holds the messages due at
    /// round `t`. A single bucket in immediate mode.
    ring: Vec<Vec<(NodeId, B::Msg)>>,
    /// Messages currently in flight across all ring buckets.
    in_flight_count: usize,
    seed: u64,
    /// Control-plane RNG (join_via shuffles) — deterministic and separate
    /// from the per-node streams.
    ctl_rng: StdRng,
    stats: SimStats,
    threads: usize,
    /// Shard balance of the last executed round: max shard live count over
    /// the perfectly balanced share (1.0 = balanced).
    last_imbalance: f64,
    /// Registered step-event observers (not carried across clones).
    subscribers: Subscribers<B::Msg>,
    /// Per-phase span histograms, when a profiler is attached.
    profile: Option<ParProfile>,
}

impl<L: fmt::Debug, B: ProtocolBehavior> fmt::Debug for ParSimulation<L, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParSimulation")
            .field("config", &self.arena.config)
            .field("live", &self.live_count)
            .field("loss", &self.loss_proto)
            .field("delay", &self.delay)
            .field("round", &self.round)
            .field("threads", &self.threads)
            .field("in_flight", &self.in_flight_count)
            .field("stats", &self.stats)
            .field("subscribers", &self.subscribers)
            .field("profiled", &self.profile.is_some())
            .finish_non_exhaustive()
    }
}

impl<L: FaultModel + Clone + Send> ParSimulation<L, SfBehavior> {
    /// Creates a sharded S&F simulation over the given nodes. `threads` is
    /// the number of contiguous arena shards processed concurrently; it
    /// affects wall-clock only, never results.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, contains duplicate ids, mixes
    /// configurations, uses ids at or beyond
    /// [`ARENA_ID_LIMIT`](crate::ARENA_ID_LIMIT), or if `threads` is zero.
    #[must_use]
    pub fn new(
        nodes: impl IntoIterator<Item = SfNode>,
        loss: L,
        seed: u64,
        threads: usize,
    ) -> Self {
        Self::over(Arena::from_nodes(nodes), SfBehavior, loss, seed, threads)
    }

    /// Creates a sharded simulation with a message-delay model. Under
    /// [`DelayModel::UniformSteps`] the bound `max` is interpreted in
    /// **rounds** (the engine's time unit): each message arrives
    /// `1..=max` rounds after the round that sent it.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`new`](Self::new), or when the
    /// delay bound is zero.
    #[must_use]
    pub fn with_delay(
        nodes: impl IntoIterator<Item = SfNode>,
        loss: L,
        delay: DelayModel,
        seed: u64,
        threads: usize,
    ) -> Self {
        Self::new(nodes, loss, seed, threads).delayed(delay)
    }
}

impl<L: FaultModel + Clone + Send, B: ProtocolBehavior> ParSimulation<L, B> {
    /// Creates a sharded simulation of an arbitrary [`ProtocolBehavior`]
    /// from explicit initial views (each `(node, neighbors)` pair fills the
    /// node's slots in order, untagged) — the zoo counterpart of
    /// [`new`](Self::new), mirroring
    /// [`FlatSimulation::from_views`](crate::FlatSimulation::from_views).
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty, contains duplicate or reserved ids, a
    /// view exceeds the configured view size, or `threads` is zero.
    #[must_use]
    pub fn from_views(
        behavior: B,
        config: SfConfig,
        views: Vec<(NodeId, Vec<NodeId>)>,
        loss: L,
        seed: u64,
        threads: usize,
    ) -> Self {
        Self::over(Arena::from_views(config, views), behavior, loss, seed, threads)
    }

    /// The shared constructor core: a fresh scheduler over a built arena,
    /// one loss channel per node.
    fn over(arena: Arena, behavior: B, loss: L, seed: u64, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        let n = arena.dense_id.len();
        Self {
            arena,
            behavior,
            live_count: n,
            loss: vec![loss.clone(); n],
            loss_proto: loss,
            delay: DelayModel::Immediate,
            round: 0,
            step_counter: 0,
            ring: vec![Vec::new()],
            in_flight_count: 0,
            seed,
            ctl_rng: StdRng::seed_from_u64(control_seed(seed)),
            stats: SimStats::default(),
            threads,
            last_imbalance: 1.0,
            subscribers: Subscribers::default(),
            profile: None,
        }
    }

    /// Installs a message-delay model on a freshly built simulation
    /// (builder-style, shared by all constructors). Under
    /// [`DelayModel::UniformSteps`] the bound is interpreted in rounds.
    ///
    /// # Panics
    ///
    /// Panics when called after the first round, or when the delay bound
    /// is zero.
    #[must_use]
    pub fn delayed(mut self, delay: DelayModel) -> Self {
        assert!(self.round == 0, "the delay model must be installed before the first round");
        if let Some(ring) = ring_for(delay) {
            self.ring = ring;
        }
        self.delay = delay;
        self
    }

    /// Registers a step-event observer. The report stream is itself
    /// deterministic and thread-count-independent: action reports arrive
    /// in dense arena order, delivery reports in sorted bucket order,
    /// reply reports in wave order.
    pub fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber<B::Msg>>) {
        self.subscribers.push(subscriber);
    }

    /// Number of registered step-event observers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Attaches per-phase profiling: `sim.profile.par.{action,merge,deliver}_ns`
    /// span histograms (one sample per round each) and the
    /// `sim.par.shard_imbalance` gauge (max shard live count over the
    /// balanced share; 1.0 = perfectly balanced).
    pub fn attach_profiler(&mut self, registry: &MetricsRegistry) {
        self.profile = Some(ParProfile {
            action: registry.histogram("sim.profile.par.action_ns", duration_buckets()),
            merge: registry.histogram("sim.profile.par.merge_ns", duration_buckets()),
            deliver: registry.histogram("sim.profile.par.deliver_ns", duration_buckets()),
            imbalance: registry.gauge("sim.par.shard_imbalance"),
        });
    }

    /// Reports `report` to every subscriber; out of line so the
    /// subscriber-free path stays compact.
    #[cold]
    #[inline(never)]
    fn notify(&mut self, report: &StepReport<B::Msg>) {
        self.subscribers.notify(report);
    }

    /// The shared protocol configuration.
    #[must_use]
    pub fn config(&self) -> SfConfig {
        self.arena.config
    }

    /// The behavior executing over the arena.
    #[must_use]
    pub fn behavior(&self) -> &B {
        &self.behavior
    }

    /// The configured shard/thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Reconfigures the shard/thread count. Results are unaffected — this
    /// trades wall-clock only, which is exactly the determinism contract
    /// the `par_determinism` golden tests pin.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// The ids of the live nodes, in dense arena order (the engine's
    /// deterministic iteration order).
    #[must_use]
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.arena.live_dense().map(|k| self.arena.id_at(k)).collect()
    }

    /// Number of messages currently in flight (0 after any complete round
    /// under [`DelayModel::Immediate`]).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight_count
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// The prototype fault channel, for measurement-time inspection
    /// (per-sender clones may have diverged for stateful models).
    #[must_use]
    pub fn fault(&self) -> &L {
        &self.loss_proto
    }

    /// Applies `f` to the prototype channel **and** every per-sender
    /// clone, so a mid-run retarget (e.g. aiming a
    /// [`VictimLoss`](crate::VictimLoss) at the current hubs) reaches all
    /// senders — the par counterpart of
    /// [`Simulation::update_fault`](crate::Simulation::update_fault).
    pub fn update_fault(&mut self, mut f: impl FnMut(&mut L)) {
        f(&mut self.loss_proto);
        for channel in &mut self.loss {
            f(channel);
        }
    }

    /// Accumulated system-wide counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Shard balance of the most recent round: the largest shard's live
    /// count divided by the perfectly balanced share (1.0 = balanced; 1.0
    /// before any round has run).
    #[must_use]
    pub fn shard_imbalance(&self) -> f64 {
        self.last_imbalance
    }

    /// Resets system-wide and per-node counters (e.g. after burn-in).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        let live: Vec<usize> = self.arena.live_dense().collect();
        self.arena.reset_stats(live.into_iter());
    }

    /// Sum of all live nodes' per-node counters.
    #[must_use]
    pub fn aggregate_node_stats(&self) -> NodeStats {
        self.arena.aggregate_node_stats(self.arena.live_dense())
    }

    /// A live node's outdegree, or `None` when departed.
    #[must_use]
    pub fn out_degree_of(&self, id: NodeId) -> Option<usize> {
        self.arena.out_degree_of(id)
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

    /// Reconstitutes every live node as an [`SfNode`], in dense arena
    /// order. Views carry over exactly; per-node counters are zeroed
    /// (read [`aggregate_node_stats`](Self::aggregate_node_stats) from
    /// the engine instead).
    #[must_use]
    pub fn to_nodes(&self) -> Vec<SfNode> {
        self.arena.to_nodes::<B>(self.arena.live_dense())
    }

    /// How the arena splits for the configured thread count: the shard
    /// length (in nodes) and the effective worker count (never more
    /// workers than nodes).
    fn shard_plan(&self) -> (usize, usize) {
        let nodes = self.arena.dense_id.len();
        let threads = self.threads.min(nodes).max(1);
        (nodes.div_ceil(threads), threads)
    }

    /// Executes one three-phase round: every live node initiates exactly
    /// once (parallel, per-node RNG streams), sends are merged
    /// deterministically into the in-flight ring, and the messages due
    /// this round are delivered (parallel).
    pub fn round(&mut self) {
        let (shard_len, threads) = self.shard_plan();
        let round = self.round;
        let observed = !self.subscribers.is_empty();

        // --- Phase 1: parallel per-shard actions. ---
        let outs = {
            let _span = self.profile.as_ref().map(|p| SpanTimer::start(&p.action));
            let ctx = ActionCtx {
                config: self.arena.config,
                seed: self.seed,
                round,
                delay: self.delay,
                observed,
            };
            let behavior = &self.behavior;
            let shards = self.arena.shards_mut(shard_len).zip(self.loss.chunks_mut(shard_len));
            run_shards(threads, shards, |(shard, losses)| {
                run_action_shard(ctx, behavior, shard, losses)
            })
        };

        // Shard balance, from the live counts the workers gathered anyway.
        let live_total: u64 = outs.iter().map(|o| o.live).sum();
        let max_shard = outs.iter().map(|o| o.live).max().unwrap_or(0);
        self.last_imbalance = if live_total == 0 {
            1.0
        } else {
            max_shard as f64 * outs.len() as f64 / live_total as f64
        };
        if let Some(profile) = &self.profile {
            profile.imbalance.set(self.last_imbalance);
        }

        // --- Phase 2: deterministic merge, in shard (= dense) order. ---
        let mut action_reports: Vec<StepReport<B::Msg>> = Vec::new();
        {
            let _span = self.profile.as_ref().map(|p| SpanTimer::start(&p.merge));
            let ring_len = self.ring.len() as u64;
            for out in outs {
                merge_stats(&mut self.stats, &out.stats);
                self.arena.degree_hist.apply_deltas(&out.hist);
                for (deliver_round, to, message) in out.sends {
                    let bucket = (deliver_round % ring_len) as usize;
                    self.ring[bucket].push((to, message));
                    self.in_flight_count += 1;
                }
                if observed {
                    action_reports.extend(out.reports);
                }
            }
        }
        if observed {
            let mut step = self.step_counter;
            for report in &mut action_reports {
                step += 1;
                report.step = step;
            }
            for report in &action_reports {
                self.notify(report);
            }
        }
        self.step_counter += live_total;
        let end_step = self.step_counter;

        // --- Phase 3: deliver the bucket due this round. ---
        {
            let _span = self.profile.as_ref().map(|p| SpanTimer::start(&p.deliver));
            self.deliver_bucket(round, shard_len, threads, end_step);
        }
        self.round += 1;
    }

    /// Drains the ring bucket due at time `at`: stably orders it by
    /// `(deliver_time, sender, slot)` (see the module docs), counts dead
    /// letters sequentially, applies the surviving receives in parallel
    /// per receiver shard, then routes any replies sequentially in waves.
    fn deliver_bucket(&mut self, at: u64, shard_len: usize, threads: usize, end_step: u64) {
        let bucket = (at % self.ring.len() as u64) as usize;
        if self.ring[bucket].is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.ring[bucket]);
        self.in_flight_count -= batch.len();
        // One bucket holds exactly one delivery time, and a sender emits at
        // most one message (one slot) per round, so a stable sort by sender
        // realizes the (deliver_time, sender, slot) order with send-round
        // ties resolved by insertion order — which the merge phase made
        // thread-count-independent.
        batch.sort_by_key(|(_, message)| B::sender(message));
        let observed = !self.subscribers.is_empty();

        // Route to receiver shards; count dead letters in bucket order.
        let shard_count = self.arena.dense_id.len().div_ceil(shard_len);
        let mut per_shard: Vec<Vec<RoutedMessage<B::Msg>>> = vec![Vec::new(); shard_count];
        let mut reports: Vec<(usize, StepReport<B::Msg>)> = Vec::new();
        for (pos, &(to, message)) in batch.iter().enumerate() {
            match self.arena.dense_of(to) {
                None => {
                    self.stats.dead_letters += 1;
                    if observed {
                        reports.push((
                            pos,
                            StepReport {
                                initiator: B::sender(&message),
                                event: StepEvent::DeadLetter {
                                    to,
                                    message,
                                    duplicated: B::duplicated(&message),
                                },
                                phase: StepPhase::Delivery,
                                step: end_step,
                            },
                        ));
                    }
                }
                Some(k) => {
                    per_shard[k / shard_len].push(RoutedMessage { pos, dense: k, to, message })
                }
            }
        }

        let ctx =
            DeliveryCtx { config: self.arena.config, seed: self.seed, at, end_step, observed };
        let behavior = &self.behavior;
        let shards = self.arena.shards_mut(shard_len).zip(&per_shard);
        let outs = run_shards(threads, shards, |(shard, items)| {
            run_delivery_shard(ctx, behavior, shard, items)
        });
        let mut replies: Vec<(usize, NodeId, B::Msg)> = Vec::new();
        for out in outs {
            self.stats.stored += out.stored;
            self.stats.deleted += out.deleted;
            self.arena.degree_hist.apply_deltas(&out.hist);
            if observed {
                reports.extend(out.reports);
            }
            replies.extend(out.replies);
        }
        if observed {
            reports.sort_by_key(|&(pos, _)| pos);
            for (_, report) in &reports {
                let report = *report;
                self.notify(&report);
            }
        }
        batch.clear();
        // Restore the allocation before routing replies: delayed replies
        // land `1..=max` rounds later, never back in this bucket (the ring
        // has `max + 1` buckets).
        self.ring[bucket] = batch;
        if !replies.is_empty() {
            replies.sort_by_key(|&(pos, _, _)| pos);
            self.process_reply_waves(replies, at, end_step);
        }
    }

    /// Routes the replies a drained bucket produced, sequentially and in
    /// waves: wave `w` holds the replies triggered by wave `w − 1` (wave 0
    /// being the parallel bucket delivery), each hop drawing loss and
    /// placement from its private `(seed, at, wave, pos)` stream — so the
    /// whole cascade is thread-count-independent. Chains stop after
    /// [`MAX_REPLY_CHAIN`] waves (excess replies dropped uncounted, like
    /// the flat engine's cap). Out of line — S&F never replies.
    #[cold]
    #[inline(never)]
    fn process_reply_waves(
        &mut self,
        mut pending: Vec<(usize, NodeId, B::Msg)>,
        at: u64,
        end_step: u64,
    ) {
        let observed = !self.subscribers.is_empty();
        let mut wave: u64 = 0;
        while !pending.is_empty() {
            wave += 1;
            if wave > MAX_REPLY_CHAIN as u64 {
                break;
            }
            let mut next: Vec<(usize, NodeId, B::Msg)> = Vec::new();
            for (pos, to, message) in std::mem::take(&mut pending) {
                let from = B::sender(&message);
                let duplicated = B::duplicated(&message);
                self.stats.sent += 1;
                self.stats.replies += 1;
                if duplicated {
                    self.stats.duplications += 1;
                }
                let mut rng = StdRng::seed_from_u64(reply_seed(self.seed, at, wave, pos as u64));
                let fctx = FaultCtx { from, to, round: self.round };
                let dropped = match self.arena.dense_of(from) {
                    Some(k) => self.loss[k].drops(fctx, &mut rng),
                    // The replier departed between hops (possible only
                    // through an exotic behavior); fall back to the
                    // prototype channel.
                    None => self.loss_proto.drops(fctx, &mut rng),
                };
                let event = if dropped {
                    self.stats.lost += 1;
                    StepEvent::Lost { to, message, duplicated }
                } else {
                    match self.delay {
                        DelayModel::Immediate => match self.arena.dense_of(to) {
                            None => {
                                self.stats.dead_letters += 1;
                                StepEvent::DeadLetter { to, message, duplicated }
                            }
                            Some(k) => {
                                let receipt =
                                    self.arena.receive(&self.behavior, k, message, &mut rng);
                                if receipt.deleted {
                                    self.stats.deleted += 1;
                                } else {
                                    self.stats.stored += 1;
                                }
                                if let Some((reply_to, reply_msg)) = receipt.reply {
                                    next.push((pos, reply_to, reply_msg));
                                }
                                StepEvent::Delivered {
                                    to,
                                    message,
                                    duplicated,
                                    deleted: receipt.deleted,
                                }
                            }
                        },
                        DelayModel::UniformSteps { max } => {
                            let deliver_round = at + rng.gen_range(1..=max);
                            let bucket = (deliver_round % self.ring.len() as u64) as usize;
                            self.ring[bucket].push((to, message));
                            self.in_flight_count += 1;
                            StepEvent::InFlight {
                                to,
                                message,
                                duplicated,
                                deliver_at: deliver_round,
                            }
                        }
                    }
                };
                if observed {
                    let report = StepReport {
                        initiator: from,
                        event,
                        phase: StepPhase::Delivery,
                        step: end_step,
                    };
                    self.notify(&report);
                }
            }
            pending = next;
        }
    }

    /// Delivers every message still in flight, draining buckets in
    /// increasing delivery-time order (without executing further actions)
    /// until the ring is empty — replies scheduled mid-drain extend the
    /// sweep.
    pub fn settle(&mut self) {
        if self.in_flight_count == 0 {
            return;
        }
        let (shard_len, threads) = self.shard_plan();
        let end_step = self.step_counter;
        // Pending deliveries all lie in [round, round + ring.len()): sends
        // from round r target r..=r+max and the last executed round was
        // round − 1. Draining in increasing time order keeps that window
        // invariant even when replies push messages further out.
        let mut at = self.round;
        while self.in_flight_count > 0 {
            self.deliver_bucket(at, shard_len, threads, end_step);
            at += 1;
        }
    }

    /// Runs `rounds` three-phase rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Runs one measurement replicate: burn-in, stats reset, measurement —
    /// the parallel counterpart of
    /// [`FlatSimulation::run_replicate`](crate::FlatSimulation::run_replicate).
    #[must_use]
    pub fn run_replicate(mut self, burn_in: usize, measure: usize) -> Self {
        self.run_rounds(burn_in);
        self.reset_stats();
        self.run_rounds(measure);
        self
    }

    /// Adds a new node bootstrapped with ids copied from a random
    /// position in `sponsor`'s view (the behavior's
    /// [`join_seed_size`](ProtocolBehavior::join_seed_size) many; `d_L`
    /// for S&F). The shuffle draws from the engine's dedicated
    /// control-plane RNG stream, so churn schedules stay deterministic and
    /// thread-count-independent.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::TooFewIds`] if the sponsor's view holds fewer
    /// visible ids than the seed size.
    ///
    /// # Panics
    ///
    /// Panics if `sponsor` is not live.
    pub fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError> {
        let joined = self.arena.join_via(&self.behavior, sponsor, &mut self.ctl_rng);
        self.admit(joined)
    }

    /// Adds a new node bootstrapped with the given ids (tagged dependent,
    /// filled in slot order — exactly like [`SfNode::with_view`] for the
    /// S&F behavior; other behaviors validate with their own
    /// [`validate_bootstrap`](ProtocolBehavior::validate_bootstrap)).
    ///
    /// # Errors
    ///
    /// Returns the [`JoinError`] the behavior's bootstrap validation
    /// produces, or [`JoinError::IdSpaceExhausted`] when the id allocator
    /// has reached the arena's `u32` id limit or a bootstrap id lies
    /// beyond it (the rejected join leaves the engine untouched).
    pub fn join_with(&mut self, bootstrap: &[NodeId]) -> Result<NodeId, JoinError> {
        let joined = self.arena.join_with(&self.behavior, bootstrap);
        self.admit(joined)
    }

    /// Gives a node the arena just admitted its sender channel.
    fn admit(&mut self, joined: Result<usize, JoinError>) -> Result<NodeId, JoinError> {
        let k = joined?;
        self.loss.push(self.loss_proto.clone());
        self.live_count += 1;
        Ok(self.arena.id_at(k))
    }

    /// Removes a node (leave/crash). Returns the departed node rebuilt
    /// from the arena with zeroed per-node counters, like
    /// [`FlatSimulation::leave`](crate::FlatSimulation::leave).
    pub fn leave(&mut self, id: NodeId) -> Option<SfNode> {
        let node = self.arena.leave::<B>(id)?;
        self.live_count -= 1;
        Some(node)
    }

    /// Total multiplicity of `id` across all live, behavior-visible slots.
    /// Ids at or beyond [`ARENA_ID_LIMIT`](crate::ARENA_ID_LIMIT) trivially
    /// count zero (the widening boundary never aliases them onto arena
    /// words).
    ///
    /// Windows are scanned two slots per u64 word; the per-slot
    /// visibility check only runs on the rare windows with a raw match.
    #[must_use]
    pub fn count_id_instances(&self, id: NodeId) -> usize {
        self.arena.count_id_instances::<B>(self.arena.live_dense(), id)
    }

    /// Streaming degree statistics — the live outdegree histogram,
    /// maintained incrementally at store/delete time (`O(s)` snapshot, no
    /// arena scan; shards report signed per-bucket deltas, merged
    /// commutatively, so the histogram is thread-count-independent like
    /// everything else).
    #[must_use]
    pub fn degree_stats(&self) -> &DegreeStats {
        &self.arena.degree_hist
    }

    /// Snapshots the membership graph (dense arena order, behavior-visible
    /// slots only).
    #[must_use]
    pub fn graph(&self) -> MembershipGraph {
        self.arena.graph::<B>(self.arena.live_dense())
    }

    /// Visits every live node's visible view in live order; the body of
    /// [`Engine::for_each_live_view`](crate::Engine::for_each_live_view).
    pub(crate) fn for_each_live_view(&self, visit: &mut dyn FnMut(NodeId, &[NodeId])) {
        self.arena.for_each_view::<B>(self.arena.live_dense(), visit);
    }

    /// Measures spatial dependence across all live views (Property M4).
    /// Reconstitutes the nodes first, so this is a measurement-time
    /// convenience, not a hot path.
    #[must_use]
    pub fn dependence(&self) -> DependenceReport {
        let nodes = self.to_nodes();
        DependenceReport::measure(nodes.iter())
    }
}

/// Runs `work` once per shard and collects the results in shard order:
/// inline on the caller's thread when `threads == 1` (no spawn), else one
/// scoped worker per shard.
fn run_shards<S: Send, T: Send>(
    threads: usize,
    shards: impl Iterator<Item = S>,
    work: impl Fn(S) -> T + Sync,
) -> Vec<T> {
    if threads == 1 {
        return shards.map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards.map(|shard| scope.spawn(move || work(shard))).collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    })
}

/// Records one node's degree moving from `before` to `after` in a shard's
/// signed histogram delta.
#[inline]
fn shift_delta(hist: &mut [i64], before: u32, after: u32) {
    if before != after {
        hist[before as usize] -= 1;
        hist[after as usize] += 1;
    }
}

/// Executes the action phase over one shard: every live node of the shard
/// initiates once with its private per-`(seed, node, round)` RNG stream.
/// `losses` is the shard's window into the per-sender channels.
fn run_action_shard<L: FaultModel, B: ProtocolBehavior>(
    ctx: ActionCtx,
    behavior: &B,
    mut shard: Shard<'_>,
    losses: &mut [L],
) -> ActionShardOut<B::Msg> {
    let mut out = ActionShardOut {
        stats: SimStats::default(),
        live: 0,
        sends: Vec::new(),
        reports: Vec::new(),
        hist: vec![0; ctx.config.view_size() + 1],
    };
    // One contiguous seed fill per shard per round: the FNV-1a stream
    // derivation is a pure hash of `(seed, node id, round)`, so batching
    // it into a single pass changes no draw and keeps the hot loop free
    // of the 25-byte hash setup. Departed and capacity-skipped nodes
    // simply never consume their seed.
    let seeds: Vec<u64> =
        shard.ids.iter().map(|&id| action_seed(ctx.seed, u64::from(id), ctx.round)).collect();
    for r in 0..shard.ids.len() {
        if !shard.is_live(r) {
            continue;
        }
        let id = shard.id(r);
        out.live += 1;
        if !losses[r].node_acts(id, ctx.round) {
            // Capacity gate closed: the node's step is skipped before any
            // RNG is seeded, so the skip is thread-count-independent.
            out.stats.skipped += 1;
            if ctx.observed {
                out.reports.push(StepReport {
                    initiator: id,
                    event: StepEvent::Skipped,
                    phase: StepPhase::Action,
                    step: 0,
                });
            }
            continue;
        }
        out.stats.actions += 1;
        let mut rng = StdRng::seed_from_u64(seeds[r]);
        let deg_before = shard.degree[r];
        let event = match behavior.initiate(ctx.config, shard.window(r), &mut rng) {
            None => {
                out.stats.self_loops += 1;
                StepEvent::SelfLoop
            }
            Some((to, message)) => {
                let duplicated = B::duplicated(&message);
                if duplicated {
                    out.stats.duplications += 1;
                }
                out.stats.sent += 1;
                let fctx = FaultCtx { from: id, to, round: ctx.round };
                if losses[r].drops(fctx, &mut rng) {
                    out.stats.lost += 1;
                    StepEvent::Lost { to, message, duplicated }
                } else {
                    let deliver_round = match ctx.delay {
                        DelayModel::Immediate => ctx.round,
                        DelayModel::UniformSteps { max } => ctx.round + rng.gen_range(1..=max),
                    };
                    out.sends.push((deliver_round, to, message));
                    StepEvent::InFlight { to, message, duplicated, deliver_at: deliver_round }
                }
            }
        };
        shift_delta(&mut out.hist, deg_before, shard.degree[r]);
        if ctx.observed {
            // `step` is assigned during the sequential merge, once the
            // preceding shards' live counts are known.
            out.reports.push(StepReport {
                initiator: id,
                event,
                phase: StepPhase::Action,
                step: 0,
            });
        }
    }
    out
}

/// Applies one shard's share of a drained delivery bucket. `items` arrive
/// in bucket order; the per-message RNG is derived from
/// `(seed, deliver_time, sorted bucket position)`. Replies are collected
/// (keyed by bucket position) for the sequential wave router.
fn run_delivery_shard<B: ProtocolBehavior>(
    ctx: DeliveryCtx,
    behavior: &B,
    mut shard: Shard<'_>,
    items: &[RoutedMessage<B::Msg>],
) -> DeliveryShardOut<B::Msg> {
    let mut out = DeliveryShardOut::new(ctx.config.view_size());
    // One contiguous seed fill per shard per drained bucket (pure hash;
    // see the action-phase counterpart).
    let seeds: Vec<u64> =
        items.iter().map(|m| delivery_seed(ctx.seed, ctx.at, m.pos as u64)).collect();
    for (i, &RoutedMessage { pos, dense, to, message }) in items.iter().enumerate() {
        let r = dense - shard.lo;
        let mut rng = StdRng::seed_from_u64(seeds[i]);
        let deg_before = shard.degree[r];
        let receipt = behavior.receive(ctx.config, shard.window(r), message, &mut rng);
        shift_delta(&mut out.hist, deg_before, shard.degree[r]);
        if receipt.deleted {
            out.deleted += 1;
        } else {
            out.stored += 1;
        }
        if let Some((reply_to, reply_msg)) = receipt.reply {
            out.replies.push((pos, reply_to, reply_msg));
        }
        if ctx.observed {
            out.reports.push((
                pos,
                StepReport {
                    initiator: B::sender(&message),
                    event: StepEvent::Delivered {
                        to,
                        message,
                        duplicated: B::duplicated(&message),
                        deleted: receipt.deleted,
                    },
                    phase: StepPhase::Delivery,
                    step: ctx.end_step,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::engine::Simulation;
    use crate::loss::{GilbertElliott, UniformLoss};
    use crate::telemetry::SimRecorder;
    use crate::topology;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn nodes() -> Vec<SfNode> {
        topology::circulant(24, config(), 4)
    }

    /// Asserts full observable equality of two par engines: stats, live
    /// set, per-node views (slots, ids, dependence tags), aggregates.
    fn assert_par_equal<L: FaultModel + Clone + Send>(a: &ParSimulation<L>, b: &ParSimulation<L>) {
        assert_eq!(a.stats(), b.stats(), "SimStats diverged");
        assert_eq!(a.len(), b.len(), "live count diverged");
        assert_eq!(a.in_flight(), b.in_flight(), "in-flight count diverged");
        assert_eq!(a.live_ids(), b.live_ids(), "live set diverged");
        assert_eq!(
            a.aggregate_node_stats(),
            b.aggregate_node_stats(),
            "aggregate NodeStats diverged"
        );
        for id in a.live_ids() {
            assert_eq!(a.node_view(id), b.node_view(id), "view of {id} diverged");
        }
    }

    #[test]
    fn identical_across_thread_counts_uniform() {
        let build =
            |threads| ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 42, threads);
        let mut one = build(1);
        one.run_rounds(40);
        // More shards than nodes (64 > 24) must also be byte-identical.
        for threads in [2, 3, 8, 24, 64] {
            let mut other = build(threads);
            other.run_rounds(40);
            assert_par_equal(&one, &other);
        }
        // And round by round, so divergence can't cancel out.
        let mut a = build(1);
        let mut b = build(8);
        for _ in 0..40 {
            a.round();
            b.round();
            assert_par_equal(&a, &b);
        }
    }

    #[test]
    fn identical_across_thread_counts_with_delay_churn_and_settle() {
        let run = |threads: usize| {
            let mut sim = ParSimulation::with_delay(
                nodes(),
                GilbertElliott::new(0.05, 0.2, 0.01, 0.5).unwrap(),
                DelayModel::UniformSteps { max: 6 },
                2009,
                threads,
            );
            sim.run_rounds(10);
            for round in 0..20 {
                let victim = sim.live_ids()[round % sim.len()];
                assert!(sim.leave(victim).is_some());
                let sponsor = sim.live_ids()[0];
                sim.join_via(sponsor).unwrap();
                sim.round();
            }
            sim.settle();
            assert_eq!(sim.in_flight(), 0);
            sim
        };
        let one = run(1);
        for threads in [2, 5, 8] {
            let other = run(threads);
            assert_par_equal(&one, &other);
        }
        assert!(one.stats().dead_letters > 0, "churn should produce dead letters");
    }

    #[test]
    fn report_streams_are_thread_count_independent() {
        use std::sync::{Arc, Mutex};
        let collect = |threads: usize| {
            let log: Arc<Mutex<Vec<StepReport>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            let mut sim = ParSimulation::with_delay(
                nodes(),
                UniformLoss::new(0.05).unwrap(),
                DelayModel::UniformSteps { max: 4 },
                23,
                threads,
            );
            sim.subscribe(Box::new(move |r: &StepReport| sink.lock().unwrap().push(*r)));
            sim.run_rounds(30);
            sim.settle();
            drop(sim);
            Arc::try_unwrap(log).map_err(|_| ()).unwrap().into_inner().unwrap()
        };
        let one = collect(1);
        assert!(!one.is_empty());
        assert_eq!(collect(2), one, "2-thread report stream diverged");
        assert_eq!(collect(8), one, "8-thread report stream diverged");
    }

    #[test]
    fn recorder_ledger_matches_stats() {
        let registry = MetricsRegistry::new();
        let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 41, 3);
        sim.subscribe(Box::new(SimRecorder::new(&registry)));
        sim.run_rounds(30);
        let s = *sim.stats();
        let counter = |name: &str| registry.counter_value(name).unwrap();
        assert_eq!(counter("sim.step.actions"), s.actions);
        assert_eq!(counter("sim.step.self_loops"), s.self_loops);
        assert_eq!(counter("sim.step.sent"), s.sent);
        assert_eq!(counter("sim.step.lost"), s.lost);
        assert_eq!(counter("sim.step.dead_letters"), s.dead_letters);
        assert_eq!(counter("sim.step.stored"), s.stored);
        assert_eq!(counter("sim.step.deleted"), s.deleted);
        assert_eq!(counter("sim.step.duplications"), s.duplications);
    }

    #[test]
    fn immediate_rounds_leave_nothing_in_flight() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 7, 4);
        for _ in 0..25 {
            sim.round();
            assert_eq!(sim.in_flight(), 0, "immediate mode must drain every round");
        }
        let s = sim.stats();
        assert_eq!(s.actions, 25 * 24);
        assert_eq!(s.actions, s.self_loops + s.sent);
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    }

    #[test]
    fn delayed_messages_conserve_the_ledger() {
        let mut sim = ParSimulation::with_delay(
            nodes(),
            UniformLoss::new(0.05).unwrap(),
            DelayModel::UniformSteps { max: 8 },
            3,
            2,
        );
        sim.run_rounds(50);
        let s = *sim.stats();
        assert_eq!(
            s.sent,
            s.lost + s.dead_letters + s.stored + s.deleted + sim.in_flight() as u64,
            "message ledger out of balance"
        );
        sim.settle();
        assert_eq!(sim.in_flight(), 0);
        let s = sim.stats();
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
        // Rounds executed after a settle stay consistent too.
        sim.run_rounds(10);
        sim.settle();
        let s = sim.stats();
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    }

    #[test]
    fn degrees_stay_in_the_legal_band() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 9, 4);
        for _ in 0..60 {
            sim.round();
            for id in sim.live_ids() {
                let d = sim.out_degree_of(id).unwrap();
                assert_eq!(d % 2, 0, "odd outdegree at {id}");
                assert!((4..=12).contains(&d), "outdegree {d} outside [d_L, s]");
            }
        }
    }

    #[test]
    fn steady_state_rates_track_the_classic_engine() {
        // Not lockstep — a distinct statistical mode — but the loss
        // compensation identity (Lemma 6.6: dup ≈ ℓ + del) and the mean
        // degree must land in the same place.
        let nodes_big = topology::circulant(256, SfConfig::new(16, 6).unwrap(), 10);
        let mut par = ParSimulation::new(nodes_big.clone(), UniformLoss::new(0.05).unwrap(), 5, 4)
            .run_replicate(80, 200);
        let mut classic = Simulation::new(nodes_big, UniformLoss::new(0.05).unwrap(), 5);
        classic.run_rounds(80);
        classic.reset_stats();
        classic.run_rounds(200);
        let (p, c) = (par.stats(), classic.stats());
        let dup_p = p.duplication_rate().unwrap();
        let dup_c = c.duplication_rate().unwrap();
        assert!((dup_p - dup_c).abs() < 0.02, "duplication rates diverged: {dup_p} vs {dup_c}");
        let mean_p = par.graph().out_degrees().iter().sum::<usize>() as f64 / 256.0;
        let mean_c = classic.graph().out_degrees().iter().sum::<usize>() as f64 / 256.0;
        assert!((mean_p - mean_c).abs() < 1.0, "mean degrees diverged: {mean_p} vs {mean_c}");
        par.round(); // the moved-out engine keeps working
    }

    #[test]
    fn profiler_records_spans_and_imbalance() {
        let registry = MetricsRegistry::new();
        let mut sim = ParSimulation::new(nodes(), UniformLoss::none(), 31, 3);
        sim.attach_profiler(&registry);
        sim.run_rounds(4);
        for name in
            ["sim.profile.par.action_ns", "sim.profile.par.merge_ns", "sim.profile.par.deliver_ns"]
        {
            let hist = registry.histogram(name, duration_buckets());
            assert_eq!(hist.count(), 4, "{name} should record one span per round");
        }
        let gauge = registry.gauge("sim.par.shard_imbalance");
        assert!(gauge.get() >= 1.0, "imbalance gauge not recorded");
        assert!((sim.shard_imbalance() - gauge.get()).abs() < 1e-12);
    }

    #[test]
    fn imbalance_reflects_uneven_shards() {
        // 24 nodes in 3 shards of 8; kill every live node of the last
        // shard and the max/mean live ratio rises above 1.
        let mut sim = ParSimulation::new(nodes(), UniformLoss::none(), 1, 3);
        for id in sim.live_ids().into_iter().skip(16) {
            sim.leave(id);
        }
        sim.round();
        assert!(sim.shard_imbalance() > 1.0, "imbalance {}", sim.shard_imbalance());
    }

    #[test]
    fn a_rejected_join_leaves_the_scheduler_untouched() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::none(), 1, 2);
        // `u32::MAX` is the empty-slot sentinel: stored, it would raise
        // the degree ledger over a view with no entries (and did, in
        // release builds).
        let sentinel = [NodeId::new(u64::from(u32::MAX)); 4];
        assert_eq!(
            sim.join_with(&sentinel),
            Err(JoinError::IdSpaceExhausted {
                next: u64::from(u32::MAX),
                limit: crate::traits::ARENA_ID_LIMIT
            })
        );
        assert_eq!(sim.len(), 24);
        assert_eq!(sim.degree_stats().live_nodes(), 24);
        sim.run_rounds(2);
        assert_eq!(sim.stats().actions, 2 * 24, "a rejected joiner must not act");
    }

    #[test]
    fn identical_across_thread_counts_under_scheduled_faults() {
        use crate::fault::{
            NodeCapacity, PerLinkLoss, PhaseFault, RegionalPartition, ScheduledFault, VictimLoss,
        };
        let schedule = || {
            let mut victims = VictimLoss::new(0.9, 0.01).unwrap();
            victims.set_victims(&[NodeId::new(1), NodeId::new(2)]);
            ScheduledFault::new(vec![
                (8, PhaseFault::Uniform(UniformLoss::new(0.05).unwrap())),
                (16, PhaseFault::Partition(RegionalPartition::new(2, 8, 8, 1.0, 0.05).unwrap())),
                (24, PhaseFault::Capacity(NodeCapacity::new(5, 0.4, 3, 0.02).unwrap())),
                (32, PhaseFault::PerLink(PerLinkLoss::new(9, 0.3, 0.0, 1.0).unwrap())),
                (u64::MAX, PhaseFault::Victims(victims)),
            ])
        };
        let build = |threads| ParSimulation::new(nodes(), schedule(), 42, threads);
        let mut one = build(1);
        one.run_rounds(40);
        let s = *one.stats();
        assert!(s.skipped > 0, "capacity phase never skipped a step");
        assert!(s.lost > 0, "schedule never lost a message");
        assert_eq!(s.actions + s.skipped, 40 * 24, "every live node acts or skips each round");
        for threads in [2, 3, 8, 64] {
            let mut other = build(threads);
            other.run_rounds(40);
            assert_par_equal(&one, &other);
        }
    }

    #[test]
    fn update_fault_reaches_every_sender_channel() {
        use crate::fault::VictimLoss;
        let victim = NodeId::new(5);
        let mut sim = ParSimulation::new(nodes(), VictimLoss::new(1.0, 0.0).unwrap(), 23, 4);
        sim.run_rounds(10);
        assert_eq!(sim.stats().lost, 0, "empty victim set must lose nothing");
        sim.update_fault(|f| f.set_victims(&[victim]));
        assert!(sim.fault().is_victim(victim));
        sim.run_rounds(30);
        assert!(sim.stats().lost > 0, "victim loss never fired after retarget");
    }

    #[test]
    fn targeted_loss_is_supported() {
        let mut loss = crate::fault::VictimLoss::new(1.0, 0.0).unwrap();
        loss.set_victims(&[NodeId::new(3)]);
        let mut sim = ParSimulation::new(nodes(), loss, 11, 4);
        sim.run_rounds(40);
        assert!(sim.stats().lost > 0, "targeted loss never fired");
        // The victim's indegree should have drained relative to the mean.
        let graph = sim.graph();
        let in_degrees = graph.in_degrees();
        let mean = in_degrees.iter().sum::<usize>() as f64 / in_degrees.len() as f64;
        let victim = sim.count_id_instances(NodeId::new(3)) as f64;
        assert!(victim < mean, "victim indegree {victim} not below mean {mean}");
    }

    #[test]
    fn clones_do_not_carry_subscribers() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::none(), 1, 2);
        sim.subscribe(Box::new(|_: &StepReport| {}));
        assert_eq!(sim.subscriber_count(), 1);
        assert_eq!(sim.clone().subscriber_count(), 0);
    }

    #[test]
    fn to_nodes_roundtrips() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 77, 3);
        sim.run_rounds(25);
        let rebuilt = sim.to_nodes();
        assert_eq!(rebuilt.len(), sim.len());
        for node in &rebuilt {
            assert_eq!(
                Some(node.view().clone()),
                sim.node_view(node.id()),
                "rebuilt view diverged"
            );
        }
    }

    #[test]
    fn set_threads_changes_nothing_but_wall_clock() {
        let mut a = ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 13, 1);
        let mut b = a.clone();
        a.run_rounds(10);
        b.set_threads(6);
        b.run_rounds(10);
        assert_par_equal(&a, &b);
        assert_eq!(b.threads(), 6);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn rejects_zero_threads() {
        let _ = ParSimulation::new(nodes(), UniformLoss::none(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_node_set() {
        let _ = ParSimulation::new(Vec::new(), UniformLoss::none(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "delay bound")]
    fn zero_delay_bound_is_rejected() {
        let _ = ParSimulation::with_delay(
            nodes(),
            UniformLoss::none(),
            DelayModel::UniformSteps { max: 0 },
            0,
            1,
        );
    }
}
