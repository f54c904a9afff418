//! The sharded schedule: a multi-threaded, round-based scheduler, run by
//! the engine shell [`ArenaSim`] over the shared slot [`Arena`].
//!
//! [`ParSimulation`] is the shell under this schedule. Storage — the
//! `n × s` slot words, the dense ledgers, the id tables and the `u64`-id
//! widening boundary — is the same [`Arena`] the flat schedule runs on and
//! is documented once, in [`crate::arena`]; the readers, the churn control
//! plane, the stats and the in-flight queue are the shell's. What this
//! module owns is the scheduler and the determinism contract.
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
//! why every sender owns a private clone of the loss channel. Time here is
//! the round: the shell's in-flight queue is indexed by delivery round, so
//! a delayed S&F engine (the one kind that is delayed) bounds its delay in
//! rounds, and in immediate mode the queue's one bucket is delivered in the
//! round that filled it.
//!
//! Each round executes three phases:
//!
//! 1. **action phase (parallel)** — every live node acts exactly once,
//!    in dense arena order within each shard, through the shell's one
//!    action hop, on its private per-`(seed, node, round)` RNG stream (the
//!    hash state after `seed ‖ tag` is computed once per phase, see
//!    [`crate::stream`]) and its own sender channel; every message the
//!    hop returns in flight is buffered in its shard's sends, due in its
//!    drawn round (this round under immediate delivery);
//! 2. **merge phase (sequential, deterministic)** — the per-shard send
//!    buffers are drained in shard order (= global dense order, for
//!    every `T`) into the shell's in-flight queue. Every per-shard
//!    buffer lives on the engine across rounds and is empty at each round
//!    boundary, so a steady round allocates nothing;
//! 3. **delivery phase (parallel)** — the bucket due this round is
//!    stably ordered by `(deliver_time, sender, slot)` (one bucket holds
//!    exactly one delivery time; each node sends at most one message — a
//!    single slot — per round, so ties fall back to send-round order),
//!    dead letters are counted sequentially, and the surviving messages
//!    are routed to their receiver shard as `(bucket position, dense
//!    index)` pairs — indices into the drained bucket, not copies of the
//!    messages — and applied concurrently, each
//!    receive drawing from a per-message RNG derived from
//!    `(seed, deliver_time, bucket position)` and counted through the
//!    shell's one receipt count. Replies produced by a
//!    [`ProtocolBehavior`] receive (push-pull, shuffle — never S&F) are
//!    collected in bucket order and routed sequentially afterwards through
//!    the shell's one reply hop, each delivered at once, its loss drawn on
//!    the replier's sender channel, and drawing from its own
//!    `(seed, deliver_time, bucket position)` stream — so the reply
//!    traffic is thread-count-independent too. A reply gets no reply, so
//!    one pass routes them all.
//!
//! # A distinct — but valid — statistical mode
//!
//! The flat engine follows the paper's central-entity model: one uniformly
//! random node steps at a time, with one global RNG. `ParSimulation` is
//! **not** lockstep-equivalent to it — it is a round-based engine (every live
//! node initiates exactly once per round, like
//! [`round_permuted`](crate::FlatSimulation::round_permuted)), message
//! delays are drawn in *rounds* rather than steps, and each sender owns a
//! private loss channel (relevant for stateful models like
//! [`GilbertElliott`](crate::GilbertElliott)). All protocol transitions
//! (initiate, receive, duplication threshold, deletion-on-full) are the
//! same machine, so steady-state statistics — degree distributions,
//! duplication/deletion/loss rates — agree with the sequential engine
//! within sampling error; `crates/bench/tests/par_statistics.rs` checks
//! this against the flat engine at matched parameters.
//!
//! Like the flat engine, `ParSimulation` is generic over a
//! [`ProtocolBehavior`] (defaulting to [`SfBehavior`], the paper's S&F
//! protocol), which is how the baseline and variant protocol zoos reach
//! round-based multi-core scale; see the [`crate::traits`] module docs for
//! the byte-identity and draw-order contracts.
//!
//! ```
//! use sandf_core::SfConfig;
//! use sandf_sim::{topology, Engine, ParSimulation, UniformLoss};
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

use rand::rngs::StdRng;
use rand::SeedableRng;
use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_obs::{duration_buckets, GaugeHandle, HistogramHandle, MetricsRegistry, SpanTimer};

use crate::arena::{Arena, Shard};
use crate::engine::{DelayModel, SimStats, StepEvent, StepPhase, StepReport};
use crate::fault::{FaultCtx, FaultModel};
use crate::shell::{action_hop, count_receipt, reply_hop, ArenaSim, Schedule};
use crate::stream::{self, absorb, stream_prefix, stream_seed};
use crate::traits::{ProtocolBehavior, SfBehavior};

/// The sharded, multi-threaded fast path of the simulation stack: the
/// shell [`ArenaSim`] under the `Par` schedule.
///
/// Same arena layout as [`FlatSimulation`](crate::FlatSimulation) (one
/// contiguous `n × s` slot arena, dense ledgers, in-flight queue), driven
/// by round-based three-phase execution — parallel actions,
/// deterministic merge, parallel delivery — with per-`(seed, node, round)`
/// FNV-1a-derived RNG streams. Results are **byte-identical for any thread
/// count**; see the module docs for the scheme and for why this engine is
/// a distinct-but-valid statistical mode relative to
/// [`FlatSimulation`](crate::FlatSimulation).
///
/// The engine is generic over a [`ProtocolBehavior`] `B` (defaulting to
/// [`SfBehavior`]); build zoo instances with
/// [`from_views`](ParSimulation::from_views).
///
/// Under [`DelayModel::UniformSteps`] (installed on S&F with
/// [`delayed`](ArenaSim::delayed)) the bound is interpreted in *rounds*:
/// each message arrives `1..=max` rounds after it was sent. Under
/// [`DelayModel::Immediate`] messages are delivered in the same round's
/// delivery phase (after every node has acted).
///
/// As with the flat engine, a clone starts with no subscribers and shares
/// an attached profiler.
pub type ParSimulation<L, B = SfBehavior> = ArenaSim<Par<L, <B as ProtocolBehavior>::Msg>, L, B>;

/// Streams per seed fill: a phase worker derives this many seeds in one
/// pass, into a buffer on its stack, ahead of the rows that consume them.
const SEED_CHUNK: usize = 256;

/// The RNG stream of the reply to the request at sorted bucket position
/// `pos` of the bucket delivered at `at`, under the fixed coordinate
/// `at·16 + 1` the zoo's par goldens were recorded with.
#[inline]
fn reply_seed(seed: u64, at: u64, pos: u64) -> u64 {
    stream_seed(seed, stream::REPLY, at * 16 + 1, pos)
}

/// The control-plane RNG stream (sponsor-view shuffles in
/// par's [`Engine::join_via`](crate::Engine::join_via)).
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

/// One shard's buffers, kept on the engine across rounds so a round
/// allocates nothing; both are empty at every round boundary, and a clone
/// starts with none.
struct ShardScratch<M> {
    /// The running round's outbound messages as `(deliver_round, to,
    /// message)`, in dense order; drained into the queue by the merge.
    sends: Vec<(u64, NodeId, M)>,
    /// The drained bucket's messages to this shard's receivers, as
    /// `(sorted bucket position, receiver's dense index)`, in bucket order.
    routes: Vec<(u32, u32)>,
}

impl<M> ShardScratch<M> {
    fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.routes.is_empty()
    }
}

impl<M> Default for ShardScratch<M> {
    fn default() -> Self {
        Self { sends: Vec::new(), routes: Vec::new() }
    }
}

impl<M> Clone for ShardScratch<M> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// What one action-phase shard worker produced besides its sends.
struct ActionShardOut<M> {
    stats: SimStats,
    live: u64,
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
    /// The FNV-1a state after `seed ‖ DELIVERY ‖ at`, `at` being the
    /// drained bucket's delivery time: each message's stream absorbs its
    /// sorted bucket position.
    prefix: u64,
    /// The step stamped on delivery reports (end of the current round).
    end_step: u64,
    observed: bool,
}

/// What one delivery-phase shard worker produced.
struct DeliveryShardOut<M> {
    /// The shard's receipts, counted stored or deleted.
    stats: SimStats,
    /// Delivery reports keyed by sorted bucket position.
    reports: Vec<(usize, StepReport<M>)>,
    /// Replies the receives produced, as (sorted bucket position, (receiver,
    /// message)); routed sequentially after the shards merge (empty for S&F).
    replies: Vec<(usize, (NodeId, M))>,
    /// Signed per-bucket movement of the live-outdegree histogram.
    hist: Vec<i64>,
}

impl<M> DeliveryShardOut<M> {
    fn new(s: usize) -> Self {
        Self {
            stats: SimStats::default(),
            reports: Vec::new(),
            replies: Vec::new(),
            hist: vec![0; s + 1],
        }
    }
}

/// The sharded schedule's own state, beside what the shell owns: the
/// per-sender channels, the stream seed and control-plane RNG and the
/// shard scratch.
#[derive(Clone)]
pub struct Par<L, M> {
    /// Per-sender loss channels, indexed by dense node index. Stateful
    /// models ([`GilbertElliott`](crate::GilbertElliott)) advance
    /// per-sender, which keeps loss decisions shard-independent.
    channels: Vec<L>,
    seed: u64,
    /// Control-plane RNG (join_via shuffles) — deterministic and separate
    /// from the per-node streams.
    ctl_rng: StdRng,
    threads: usize,
    /// Shard balance of the last executed round: max shard live count over
    /// the perfectly balanced share (1.0 = balanced).
    last_imbalance: f64,
    /// Per-phase span histograms, when a profiler is attached.
    profile: Option<ParProfile>,
    /// One entry per shard of the current plan.
    scratch: Vec<ShardScratch<M>>,
}

impl<L: FaultModel + Clone + Send, B: ProtocolBehavior> Schedule<L, B> for Par<L, B::Msg> {
    fn round(sim: &mut ParSimulation<L, B>) {
        sim.round();
    }

    fn settle(sim: &mut ParSimulation<L, B>) {
        sim.settle();
    }

    fn live_dense(sim: &ParSimulation<L, B>) -> impl Iterator<Item = usize> + '_ {
        sim.arena.live_dense()
    }

    /// Gives a node the arena just admitted its sender channel.
    fn admit(sim: &mut ParSimulation<L, B>, _k: usize) {
        sim.sched.channels.push(sim.loss.clone());
    }

    fn leave(_sim: &mut ParSimulation<L, B>, _k: usize) {}

    fn join_rng(&mut self) -> &mut StdRng {
        &mut self.ctl_rng
    }

    fn channels(&mut self) -> &mut [L] {
        &mut self.channels
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
        Self::sharded(Arena::from_nodes(nodes), SfBehavior, loss, seed, threads)
    }
}

impl<L: FaultModel + Clone + Send, B: ProtocolBehavior> ParSimulation<L, B> {
    /// Creates a sharded simulation of an arbitrary [`ProtocolBehavior`]
    /// from explicit initial views (each `(node, neighbors)` pair fills the
    /// node's slots in order, untagged) — the zoo counterpart of
    /// [`new`](ParSimulation::new), mirroring
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
        Self::sharded(Arena::from_views(config, views), behavior, loss, seed, threads)
    }

    /// The constructor core: a fresh schedule over a built arena, one loss
    /// channel per node.
    fn sharded(arena: Arena, behavior: B, loss: L, seed: u64, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        let sched = Par {
            channels: vec![loss.clone(); arena.dense_id.len()],
            seed,
            ctl_rng: StdRng::seed_from_u64(control_seed(seed)),
            threads,
            last_imbalance: 1.0,
            profile: None,
            scratch: Vec::new(),
        };
        Self::over(arena, behavior, loss, sched)
    }

    /// Attaches per-phase profiling: `sim.profile.par.{action,merge,deliver}_ns`
    /// span histograms (one sample per round each) and the
    /// `sim.par.shard_imbalance` gauge (max shard live count over the
    /// balanced share; 1.0 = perfectly balanced).
    pub fn attach_profiler(&mut self, registry: &MetricsRegistry) {
        self.sched.profile = Some(ParProfile {
            action: registry.histogram("sim.profile.par.action_ns", duration_buckets()),
            merge: registry.histogram("sim.profile.par.merge_ns", duration_buckets()),
            deliver: registry.histogram("sim.profile.par.deliver_ns", duration_buckets()),
            imbalance: registry.gauge("sim.par.shard_imbalance"),
        });
    }

    /// The configured shard/thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.sched.threads
    }

    /// Reconfigures the shard/thread count. Results are unaffected — this
    /// trades wall-clock only, which is exactly the determinism contract
    /// the `par_determinism` golden tests pin.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "thread count must be positive");
        self.sched.threads = threads;
    }

    /// Shard balance of the most recent round: the largest shard's live
    /// count divided by the perfectly balanced share (1.0 = balanced; 1.0
    /// before any round has run).
    #[must_use]
    pub fn shard_imbalance(&self) -> f64 {
        self.sched.last_imbalance
    }

    /// How the arena splits for the configured thread count: the shard
    /// length (in nodes) and the effective worker count (never more
    /// workers than nodes). Keeps one scratch entry per shard.
    fn shard_plan(&mut self) -> (usize, usize) {
        debug_assert!(
            self.sched.scratch.iter().all(ShardScratch::is_empty),
            "a scratch buffer carried state across a round boundary"
        );
        let nodes = self.arena.dense_id.len();
        let threads = self.sched.threads.min(nodes).max(1);
        let shard_len = nodes.div_ceil(threads);
        self.sched.scratch.resize_with(nodes.div_ceil(shard_len), ShardScratch::default);
        (shard_len, threads)
    }

    /// Executes one three-phase round: every live node initiates exactly
    /// once (parallel, per-node RNG streams), sends are merged
    /// deterministically into the in-flight queue, and the messages due
    /// this round are delivered (parallel).
    pub fn round(&mut self) {
        let (shard_len, threads) = self.shard_plan();
        let round = self.rounds;
        let observed = !self.subscribers.is_empty();

        // --- Phase 1: parallel per-shard actions. ---
        let outs = {
            let _span = self.sched.profile.as_ref().map(|p| SpanTimer::start(&p.action));
            let ctx = ActionCtx {
                config: self.arena.config,
                seed: self.sched.seed,
                round,
                delay: self.delay,
                observed,
            };
            let behavior = &self.behavior;
            let shards = self
                .arena
                .shards_mut(shard_len)
                .zip(self.sched.channels.chunks_mut(shard_len))
                .zip(&mut self.sched.scratch);
            run_shards(threads, shards, |((shard, losses), scratch)| {
                run_action_shard(ctx, behavior, shard, losses, &mut scratch.sends)
            })
        };

        // Shard balance, from the live counts the workers gathered anyway.
        let live_total: u64 = outs.iter().map(|o| o.live).sum();
        let max_shard = outs.iter().map(|o| o.live).max().unwrap_or(0);
        self.sched.last_imbalance = if live_total == 0 {
            1.0
        } else {
            max_shard as f64 * outs.len() as f64 / live_total as f64
        };
        if let Some(profile) = &self.sched.profile {
            profile.imbalance.set(self.sched.last_imbalance);
        }

        // --- Phase 2: deterministic merge, in shard (= dense) order. ---
        let mut action_reports: Vec<StepReport<B::Msg>> = Vec::new();
        {
            let _span = self.sched.profile.as_ref().map(|p| SpanTimer::start(&p.merge));
            for (out, scratch) in outs.into_iter().zip(&mut self.sched.scratch) {
                merge_stats(&mut self.stats, &out.stats);
                self.arena.degree_hist.apply_deltas(&out.hist);
                for &(deliver_round, to, message) in &scratch.sends {
                    self.queue.push(deliver_round, to, message);
                }
                scratch.sends.clear();
                if observed {
                    action_reports.extend(out.reports);
                }
            }
        }
        if observed {
            let mut step = self.steps;
            for report in &mut action_reports {
                step += 1;
                report.step = step;
            }
            for report in &action_reports {
                self.notify(report);
            }
        }
        self.steps += live_total;
        let end_step = self.steps;

        // --- Phase 3: deliver the bucket due this round. ---
        {
            let _span = self.sched.profile.as_ref().map(|p| SpanTimer::start(&p.deliver));
            self.deliver_bucket(round, shard_len, threads, end_step);
        }
        self.rounds += 1;
        debug_assert!(self.sched.scratch.iter().all(ShardScratch::is_empty));
    }

    /// Drains the bucket due at time `at`: stably orders it by
    /// `(deliver_time, sender, slot)` (see the module docs), counts dead
    /// letters sequentially, applies the surviving receives in parallel
    /// per receiver shard, then routes any replies sequentially, in
    /// bucket order.
    fn deliver_bucket(&mut self, at: u64, shard_len: usize, threads: usize, end_step: u64) {
        let Some(mut batch) = self.queue.take(at) else { return };
        // One bucket holds exactly one delivery time, and a sender emits at
        // most one message (one slot) per round, so a stable sort by sender
        // realizes the (deliver_time, sender, slot) order with send-round
        // ties resolved by insertion order — which the merge phase made
        // thread-count-independent.
        batch.sort_by_key(|(_, message)| B::sender(message));
        let observed = !self.subscribers.is_empty();

        // Route to receiver shards by bucket position; count dead letters
        // in bucket order.
        assert!(batch.len() - 1 <= u32::MAX as usize, "bucket positions must fit the routing word");
        let mut reports: Vec<(usize, StepReport<B::Msg>)> = Vec::new();
        for (pos, &(to, message)) in batch.iter().enumerate() {
            match self.arena.dense_of(to) {
                None => {
                    self.stats.dead_letters += 1;
                    if observed {
                        let (initiator, duplicated) =
                            (B::sender(&message), B::duplicated(&message));
                        let event = StepEvent::DeadLetter { to, message, duplicated };
                        let phase = StepPhase::Delivery;
                        reports.push((pos, StepReport { initiator, event, phase, step: end_step }));
                    }
                }
                Some(k) => self.sched.scratch[k / shard_len].routes.push((pos as u32, k as u32)),
            }
        }

        let prefix = absorb(stream_prefix(self.sched.seed, stream::DELIVERY), at);
        let ctx = DeliveryCtx { config: self.arena.config, prefix, end_step, observed };
        let behavior = &self.behavior;
        let batch_ref = batch.as_slice();
        let shards = self.arena.shards_mut(shard_len).zip(&mut self.sched.scratch);
        let outs = run_shards(threads, shards, |(shard, scratch)| {
            run_delivery_shard(ctx, behavior, shard, batch_ref, &mut scratch.routes)
        });
        let mut replies: Vec<(usize, (NodeId, B::Msg))> = Vec::new();
        for out in outs {
            merge_stats(&mut self.stats, &out.stats);
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
        self.queue.restore(at, batch);
        if !replies.is_empty() {
            replies.sort_by_key(|&(pos, _)| pos);
            self.route_replies(replies, at, end_step);
        }
    }

    /// Routes the replies a drained bucket produced, sequentially in bucket
    /// order, each delivered at once through the shell's [`reply_hop`]: the
    /// loss is drawn on the replier's own sender channel, and loss and
    /// placement draw from the reply's private `(seed, at, pos)` stream —
    /// so the reply traffic is thread-count-independent. A reply gets no
    /// reply. Out of line — S&F never replies.
    #[cold]
    #[inline(never)]
    fn route_replies(&mut self, replies: Vec<(usize, (NodeId, B::Msg))>, at: u64, end_step: u64) {
        for (pos, reply) in replies {
            let from = B::sender(&reply.1);
            let k = self.arena.dense_of(from).expect("a replier has just received, so it is live");
            let mut rng = StdRng::seed_from_u64(reply_seed(self.sched.seed, at, pos as u64));
            let ctx = FaultCtx { from, to: reply.0, round: self.rounds };
            let lost = self.sched.channels[k].drops(ctx, &mut rng);
            let (arena, stats) = (&mut self.arena, &mut self.stats);
            let report = reply_hop(arena, &self.behavior, stats, reply, lost, &mut rng, end_step);
            if !self.subscribers.is_empty() {
                self.notify(&report);
            }
        }
    }

    /// Delivers every message still in flight, draining buckets in
    /// increasing delivery-time order (without executing further actions).
    pub fn settle(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let (shard_len, threads) = self.shard_plan();
        let end_step = self.steps;
        // Pending deliveries all lie in [rounds, rounds + span): sends from
        // round r target r + 1..=r + max, and the last executed round was
        // rounds − 1.
        for at in self.rounds..self.rounds + self.queue.span() {
            self.deliver_bucket(at, shard_len, threads, end_step);
        }
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
/// `losses` is the shard's window into the per-sender channels; the
/// shard's outbound messages are appended to `sends`.
fn run_action_shard<L: FaultModel, B: ProtocolBehavior>(
    ctx: ActionCtx,
    behavior: &B,
    mut shard: Shard<'_>,
    losses: &mut [L],
    sends: &mut Vec<(u64, NodeId, B::Msg)>,
) -> ActionShardOut<B::Msg> {
    let mut out = ActionShardOut {
        stats: SimStats::default(),
        live: 0,
        reports: Vec::new(),
        hist: vec![0; ctx.config.view_size() + 1],
    };
    // Seeds are derived a chunk ahead of the rows that consume them: the
    // FNV-1a derivation is a pure hash of `(seed, node id, round)`, so a
    // separate pass changes no draw and keeps the hash chains out of the
    // protocol's dependent loads. Departed nodes never consume their
    // seed, and a capacity-skipped node's stream draws nothing.
    let prefix = stream_prefix(ctx.seed, stream::ACTION);
    let mut seeds = [0u64; SEED_CHUNK];
    let ids = shard.ids;
    for lo in (0..ids.len()).step_by(SEED_CHUNK) {
        let chunk = &ids[lo..ids.len().min(lo + SEED_CHUNK)];
        for (seed, &id) in seeds.iter_mut().zip(chunk) {
            *seed = absorb(absorb(prefix, u64::from(id)), ctx.round);
        }
        for (r, &seed) in (lo..lo + chunk.len()).zip(&seeds) {
            if !shard.is_live(r) {
                continue;
            }
            let id = shard.id(r);
            out.live += 1;
            let (mut rng, stats) = (StdRng::seed_from_u64(seed), &mut out.stats);
            let (deg_before, clock) = (shard.degree[r], (ctx.round, ctx.round));
            let event =
                action_hop::<B, _>(id, &mut losses[r], &mut rng, stats, clock, ctx.delay, |rng| {
                    behavior.initiate(ctx.config, shard.window(r), rng)
                });
            shift_delta(&mut out.hist, deg_before, shard.degree[r]);
            if let StepEvent::InFlight { to, message, deliver_at, .. } = event {
                sends.push((deliver_at, to, message));
            }
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
    }
    out
}

/// Applies one shard's share of a drained delivery bucket: `routes` holds
/// the bucket positions of `batch`'s messages to this shard's receivers,
/// in bucket order, and is left empty. The per-message RNG is derived from
/// `(seed, deliver_time, sorted bucket position)`. Replies are collected
/// (keyed by bucket position) for the sequential reply pass.
fn run_delivery_shard<B: ProtocolBehavior>(
    ctx: DeliveryCtx,
    behavior: &B,
    mut shard: Shard<'_>,
    batch: &[(NodeId, B::Msg)],
    routes: &mut Vec<(u32, u32)>,
) -> DeliveryShardOut<B::Msg> {
    let mut out = DeliveryShardOut::new(ctx.config.view_size());
    // Seeds a chunk ahead, as in the action phase.
    let mut seeds = [0u64; SEED_CHUNK];
    for chunk in routes.chunks(SEED_CHUNK) {
        for (seed, &(pos, _)) in seeds.iter_mut().zip(chunk) {
            *seed = absorb(ctx.prefix, u64::from(pos));
        }
        for (&(pos, dense), &seed) in chunk.iter().zip(&seeds) {
            let (pos, r) = (pos as usize, dense as usize - shard.lo);
            let (to, message) = batch[pos];
            let mut rng = StdRng::seed_from_u64(seed);
            let deg_before = shard.degree[r];
            let receipt = behavior.receive(ctx.config, shard.window(r), message, &mut rng);
            shift_delta(&mut out.hist, deg_before, shard.degree[r]);
            count_receipt(&mut out.stats, receipt.deleted);
            if let Some(reply) = receipt.reply {
                out.replies.push((pos, reply));
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
    }
    routes.clear();
    out
}

#[cfg(test)]
mod tests {
    use rand::Rng;
    use sandf_core::JoinError;

    use crate::loss::{GilbertElliott, UniformLoss};
    use crate::telemetry::SimRecorder;
    use crate::topology;
    use crate::Engine;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn nodes() -> Vec<SfNode> {
        topology::circulant(24, config(), 4)
    }

    /// Asserts full observable equality of two par engines: stats, live
    /// set, per-node views (slots, ids, dependence tags).
    fn assert_par_equal<L: FaultModel + Clone + Send>(a: &ParSimulation<L>, b: &ParSimulation<L>) {
        assert_eq!(a.stats(), b.stats(), "SimStats diverged");
        assert_eq!(a.len(), b.len(), "live count diverged");
        assert_eq!(a.in_flight(), b.in_flight(), "in-flight count diverged");
        assert_eq!(a.live_ids(), b.live_ids(), "live set diverged");
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
            let mut sim = ParSimulation::new(
                nodes(),
                GilbertElliott::new(0.05, 0.2, 0.01, 0.5).unwrap(),
                2009,
                threads,
            )
            .delayed(DelayModel::UniformSteps { max: 6 });
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
            let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 23, threads)
                .delayed(DelayModel::UniformSteps { max: 4 });
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
        let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 3, 2)
            .delayed(DelayModel::UniformSteps { max: 8 });
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
        // degree must land in the same place. The classic engine's rates
        // at this point are recorded bit for bit; the flat engine, its
        // seed-for-seed twin, still reproduces them exactly.
        const CLASSIC_DUP: f64 = 0.07057899461400359;
        const CLASSIC_MEAN: f64 = 9.34375;
        let nodes_big = topology::circulant(256, SfConfig::new(16, 6).unwrap(), 10);
        let mut par = ParSimulation::new(nodes_big.clone(), UniformLoss::new(0.05).unwrap(), 5, 4)
            .run_replicate(80, 200);
        let mut flat = crate::FlatSimulation::new(nodes_big, UniformLoss::new(0.05).unwrap(), 5);
        flat.run_rounds(80);
        flat.reset_stats();
        flat.run_rounds(200);
        let mean =
            |g: &sandf_graph::MembershipGraph| g.out_degrees().iter().sum::<usize>() as f64 / 256.0;
        let dup_f = flat.stats().duplication_rate().unwrap();
        assert_eq!(dup_f.to_bits(), CLASSIC_DUP.to_bits(), "flat left the classic run");
        assert_eq!(mean(&flat.graph()).to_bits(), CLASSIC_MEAN.to_bits());
        let dup_p = par.stats().duplication_rate().unwrap();
        assert!(
            (dup_p - CLASSIC_DUP).abs() < 0.02,
            "duplication rates diverged: {dup_p} vs {CLASSIC_DUP}"
        );
        let mean_p = mean(&par.graph());
        assert!(
            (mean_p - CLASSIC_MEAN).abs() < 1.0,
            "mean degrees diverged: {mean_p} vs {CLASSIC_MEAN}"
        );
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
        use crate::fault::tests::mixed_schedule;
        let build = |threads| ParSimulation::new(nodes(), mixed_schedule(), 42, threads);
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
        use crate::fault::PhaseFault;
        let victim = NodeId::new(5);
        let fault =
            PhaseFault::Victims { count: 1, victim_rate: 1.0, base: 0.0, victims: Vec::new() };
        let mut sim = ParSimulation::new(nodes(), fault, 23, 4);
        sim.run_rounds(10);
        assert_eq!(sim.stats().lost, 0, "empty victim set must lose nothing");
        sim.update_fault(|f| f.aim(&[victim]));
        assert!(matches!(sim.fault(), PhaseFault::Victims { victims, .. } if victims == &[victim]));
        sim.run_rounds(30);
        assert!(sim.stats().lost > 0, "victim loss never fired after retarget");
    }

    #[test]
    fn targeted_loss_is_supported() {
        let mut loss = crate::fault::PhaseFault::Victims {
            count: 1,
            victim_rate: 1.0,
            base: 0.0,
            victims: Vec::new(),
        };
        loss.aim(&[NodeId::new(3)]);
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

        // Switches 1 → 3 → 2 between rounds with messages in flight, and a
        // join that grows the 3-thread plan from two shards to three: the
        // kept per-shard buffers carry nothing across a plan change.
        let build = || {
            let config = SfConfig::new(8, 2).unwrap();
            ParSimulation::new(
                topology::circulant(4, config, 2),
                UniformLoss::new(0.1).unwrap(),
                13,
                1,
            )
            .delayed(DelayModel::UniformSteps { max: 3 })
        };
        let (mut one, mut switched) = (build(), build());
        let bootstrap = [NodeId::new(0), NodeId::new(2)];
        let mut met_in_flight = 0;
        // (threads, join first, shards of the plan)
        for (threads, join, shards) in [(1, false, 1), (3, false, 2), (3, true, 3), (2, true, 2)] {
            met_in_flight += one.in_flight();
            switched.set_threads(threads);
            if join {
                assert_eq!(one.join_with(&bootstrap), switched.join_with(&bootstrap));
            }
            one.run_rounds(6);
            switched.run_rounds(6);
            assert_par_equal(&one, &switched);
            assert_eq!(
                switched.sched.scratch.len(),
                shards,
                "{} nodes, {threads} threads",
                one.len()
            );
        }
        assert!(met_in_flight > 0, "the switches never met a message in flight");
        one.settle();
        switched.settle();
        assert_par_equal(&one, &switched);
    }

    #[test]
    fn clones_start_with_empty_scratch() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 5, 3)
            .delayed(DelayModel::UniformSteps { max: 4 });
        sim.run_rounds(5);
        let used = |sim: &ParSimulation<UniformLoss>| {
            sim.sched.scratch.iter().any(|s| s.sends.capacity() + s.routes.capacity() > 0)
        };
        assert!(used(&sim), "the rounds never used the kept buffers");
        let mut clone = sim.clone();
        assert!(!used(&clone), "a clone inherited scratch capacity");
        sim.run_rounds(5);
        clone.run_rounds(5);
        assert_par_equal(&sim, &clone);
    }

    /// A reply that replies breaks the [`ProtocolBehavior`] contract, and
    /// the reply pass fails loudly instead of routing it.
    #[test]
    #[should_panic(expected = "a reply got a reply")]
    fn a_reply_that_replies_panics() {
        let (config, views) = crate::shell::tests::ring(4);
        let rogue = crate::shell::tests::Ping(true);
        ParSimulation::from_views(rogue, config, views, UniformLoss::none(), 1, 1).round();
    }

    /// A per-sender channel that remembers the node whose sends it
    /// carries, and fails when another node's send draws on it.
    #[derive(Clone, Debug)]
    struct OwnedChannel(Option<NodeId>);

    impl FaultModel for OwnedChannel {
        fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, _: &mut R) -> bool {
            let owner = *self.0.get_or_insert(ctx.from);
            assert_eq!(owner, ctx.from, "{}'s send drew on {owner}'s channel", ctx.from);
            false
        }
    }

    /// A reply's loss is drawn on the replier's own sender channel.
    #[test]
    fn a_reply_draws_on_the_repliers_channel() {
        let (config, views) = crate::shell::tests::ring(6);
        let ping = crate::shell::tests::Ping(false);
        let mut sim = ParSimulation::from_views(ping, config, views, OwnedChannel(None), 7, 2);
        sim.run_rounds(5);
        assert_eq!((sim.stats().sent, sim.stats().replies), (60, 30));
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
        let _ = ParSimulation::new(nodes(), UniformLoss::none(), 0, 1)
            .delayed(DelayModel::UniformSteps { max: 0 });
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn delay_after_the_first_round_is_rejected() {
        let mut sim = ParSimulation::new(nodes(), UniformLoss::none(), 0, 1);
        sim.round();
        let _ = sim.delayed(DelayModel::UniformSteps { max: 4 });
    }
}
