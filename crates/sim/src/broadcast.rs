//! Rumor-spreading broadcast over live membership views — the first layer
//! that *consumes* the peer-sampling service instead of only measuring it.
//!
//! [`BroadcastLayer`] piggybacks a push (optionally push-pull) rumor on
//! top of any [`Engine`]: after each membership round, [`BroadcastLayer::step`]
//! walks every live node's current view via
//! [`Engine::for_each_live_view`] and gossips an application payload along
//! those edges. Per-node rumor state lives in a dense arena — `u8` age
//! counters, `u64`-word informed/channel bitsets — so the layer scales to
//! n = 10⁶ on `FlatSimulation`/`ParSimulation` without perturbing the
//! engines' own RNG streams or their byte-identical-across-threads
//! contract.
//!
//! # Determinism
//!
//! Every random draw a node makes in a broadcast round comes from its own
//! per-`(seed, node, round)` stream ([`stream_seed`]) under two tags of the
//! [`crate::stream`] table:
//!
//! * [`RUMOR`] (`b'g'`) — gossip draws: push targets, pull partner,
//!   per-message loss;
//! * [`RUMOR_CHANNEL`] (`b'h'`) — the per-round Gilbert–Elliott
//!   channel-state transition.
//!
//! Draws therefore never depend on view-iteration order, and newly
//! informed nodes are committed through a double buffer, so the layer is
//! bit-identical across engines in lockstep (classic ↔ flat) and across
//! thread counts (par), inheriting whatever determinism contract the
//! underlying engine offers.
//!
//! # Channels
//!
//! The rumor channel is faulted independently of the membership channel
//! by a [`RumorChannel`], mirroring the PR 6 fault zoo: uniform loss,
//! per-node Gilbert–Elliott bursts, regional partition (`id % regions`),
//! and victim loss. Loss applies per message at the *receiver*, after the
//! sender has paid for the send — lost rumors still count toward message
//! complexity, exactly like `SimStats::lost`.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::NodeId;
use sandf_obs::{CounterHandle, MetricsRegistry};

use crate::fault::FaultSpec;
use crate::stream::{fnv1a64, stream_seed, RUMOR, RUMOR_CHANNEL};
use crate::traits::Engine;

/// Push / push-pull rumor parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastConfig {
    /// Push targets an informed node draws from its view per round (≥ 1).
    pub fanout: usize,
    /// An informed node pushes while its age (rounds since it learned the
    /// rumor) is ≤ `max_age`; `u8::MAX` effectively never retires.
    pub max_age: u8,
    /// Push-pull: uninformed nodes also draw one partner per round and
    /// pull the rumor if the partner is informed (request + reply each
    /// traverse the lossy channel).
    pub pull: bool,
}

impl BroadcastConfig {
    /// A push-only configuration.
    ///
    /// # Panics
    ///
    /// Panics when `fanout` is zero.
    #[must_use]
    pub fn push(fanout: usize, max_age: u8) -> Self {
        assert!(fanout >= 1, "broadcast fanout must be at least 1");
        Self { fanout, max_age, pull: false }
    }

    /// The same, with pull enabled.
    ///
    /// # Panics
    ///
    /// Panics when `fanout` is zero.
    #[must_use]
    pub fn push_pull(fanout: usize, max_age: u8) -> Self {
        Self { pull: true, ..Self::push(fanout, max_age) }
    }
}

impl Default for BroadcastConfig {
    /// Fanout-1 push with an effectively unbounded age — the setting the
    /// Doerr et al. `log₂ n + ln n` spread prediction is stated for.
    fn default() -> Self {
        Self::push(1, u8::MAX)
    }
}

/// Loss model for the rumor channel, independent of the membership
/// channel. All rates are probabilities in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub enum RumorChannel {
    /// Every rumor arrives.
    Lossless,
    /// Each message drops i.i.d. with `rate`.
    Uniform {
        /// Per-message drop probability.
        rate: f64,
    },
    /// Per-receiver two-state Gilbert–Elliott channel: each node's state
    /// advances once per broadcast round from its own
    /// [`RUMOR_CHANNEL`] stream; inbound messages drop at `loss_good`
    /// or `loss_bad` depending on the receiver's state.
    Bursty {
        /// P(good → bad) per round.
        to_bad: f64,
        /// P(bad → good) per round.
        to_good: f64,
        /// Drop probability while the receiver is in the good state.
        loss_good: f64,
        /// Drop probability while the receiver is in the bad state.
        loss_bad: f64,
    },
    /// Regional partition: node `v` belongs to region `v.as_u64() % regions`;
    /// cross-region messages drop with `sever`, intra-region with `base`.
    Partition {
        /// Number of regions (≥ 1).
        regions: u64,
        /// Cross-region drop probability (1.0 = hard partition).
        sever: f64,
        /// Intra-region drop probability.
        base: f64,
    },
    /// Victim loss: messages *to* a victim drop with `victim_rate`,
    /// everything else with `base`. The victim list is sorted and deduped
    /// on construction ([`BroadcastLayer::set_channel`]).
    Victims {
        /// Inbound drop probability at a victim.
        victim_rate: f64,
        /// Drop probability elsewhere.
        base: f64,
        /// The victims (kept sorted for binary search).
        victims: Vec<NodeId>,
    },
}

impl RumorChannel {
    /// Validates rates and normalizes internal invariants (sorts victims).
    ///
    /// # Panics
    ///
    /// Panics when any probability is outside `[0, 1]` or `regions == 0`.
    fn normalize(&mut self) {
        let ok = |p: f64| (0.0..=1.0).contains(&p);
        match self {
            Self::Lossless => {}
            Self::Uniform { rate } => assert!(ok(*rate), "rumor loss rate {rate} not in [0,1]"),
            Self::Bursty { to_bad, to_good, loss_good, loss_bad } => {
                for p in [*to_bad, *to_good, *loss_good, *loss_bad] {
                    assert!(ok(p), "rumor channel probability {p} not in [0,1]");
                }
            }
            Self::Partition { regions, sever, base } => {
                assert!(*regions >= 1, "partition needs at least one region");
                assert!(ok(*sever) && ok(*base), "partition rates must be in [0,1]");
            }
            Self::Victims { victim_rate, base, victims } => {
                assert!(ok(*victim_rate) && ok(*base), "victim rates must be in [0,1]");
                victims.sort_unstable();
                victims.dedup();
            }
        }
    }
}

/// The rumor channel matching a membership fault at the same parameters:
/// `uniform`/`bursty`/`partition` map directly, `victims` aims at the same
/// `victims` set the membership fault was aimed at, and the
/// membership-specific models map to their marginals (`perlink` → uniform
/// at the effective rate in an `n`-node system; `capacity` gates sends
/// rather than dropping them, so the rumor channel stays lossless).
#[must_use]
pub fn rumor_channel_for(fault: &FaultSpec, n: usize, victims: &[NodeId]) -> RumorChannel {
    match *fault {
        FaultSpec::Uniform { rate } => RumorChannel::Uniform { rate },
        FaultSpec::Bursty { to_bad, to_good, loss_good, loss_bad } => {
            RumorChannel::Bursty { to_bad, to_good, loss_good, loss_bad }
        }
        FaultSpec::Partition { regions, sever, base } => {
            RumorChannel::Partition { regions, sever, base }
        }
        FaultSpec::PerLink { .. } => RumorChannel::Uniform { rate: fault.effective_rate(n) },
        FaultSpec::Capacity { .. } => RumorChannel::Lossless,
        FaultSpec::Victims { victim_rate, base, .. } => {
            RumorChannel::Victims { victim_rate, base, victims: victims.to_vec() }
        }
    }
}

/// System-wide rumor counters. All fields are order-independent sums, so
/// they are part of the layer's determinism contract (and of the golden
/// fingerprints in the test suite).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BroadcastStats {
    /// Push messages emitted.
    pub sent: u64,
    /// Push messages dropped by the rumor channel.
    pub lost: u64,
    /// Push messages addressed to a stale view entry (target not live).
    pub dead_letters: u64,
    /// Push messages that arrived at a live target.
    pub delivered: u64,
    /// Arrivals at a target already informed at the start of the round.
    pub duplicates: u64,
    /// Pull requests emitted by uninformed nodes.
    pub pull_requests: u64,
    /// Pull replies emitted by informed partners (request survived).
    pub pull_replies: u64,
    /// Pull exchanges that informed the requester (reply survived too).
    pub pull_hits: u64,
}

impl BroadcastStats {
    /// Every message the rumor layer put on the wire: pushes, pull
    /// requests, and pull replies.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.sent + self.pull_requests + self.pull_replies
    }
}

/// One provenance-trace edge: `to` learned the rumor from `from` in
/// broadcast round `round` (1-based), over an edge present in `from`'s
/// (push) or `to`'s (pull) view that round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEdge {
    /// Broadcast round of the delivery (1-based).
    pub round: u64,
    /// The informed endpoint that supplied the rumor.
    pub from: NodeId,
    /// The node that became informed.
    pub to: NodeId,
}

/// End-of-run summary: spread time to coverage milestones plus message
/// complexity.
#[derive(Clone, Debug, PartialEq)]
pub struct SpreadReport {
    /// Broadcast rounds executed.
    pub rounds: u64,
    /// Live nodes at the last step.
    pub live: usize,
    /// Informed live nodes at the last step.
    pub informed: usize,
    /// `informed / live` at the last step.
    pub coverage: f64,
    /// First round with coverage ≥ 50 %.
    pub to_half: Option<u64>,
    /// First round with coverage ≥ 99 %.
    pub to_99: Option<u64>,
    /// First round with coverage = 100 %.
    pub to_full: Option<u64>,
    /// Total rumor messages per live node.
    pub messages_per_node: f64,
    /// The raw counters behind the summary.
    pub stats: BroadcastStats,
}

/// `sim.broadcast.*` counter handles (registered lazily by
/// [`BroadcastLayer::attach_metrics`]).
struct BroadcastMetrics {
    sent: CounterHandle,
    lost: CounterHandle,
    dead_letters: CounterHandle,
    delivered: CounterHandle,
    duplicates: CounterHandle,
    pull_requests: CounterHandle,
    pull_replies: CounterHandle,
    pull_hits: CounterHandle,
    rounds: CounterHandle,
    informed: CounterHandle,
}

impl BroadcastMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            sent: registry.counter("sim.broadcast.sent"),
            lost: registry.counter("sim.broadcast.lost"),
            dead_letters: registry.counter("sim.broadcast.dead_letters"),
            delivered: registry.counter("sim.broadcast.delivered"),
            duplicates: registry.counter("sim.broadcast.duplicates"),
            pull_requests: registry.counter("sim.broadcast.pull_requests"),
            pull_replies: registry.counter("sim.broadcast.pull_replies"),
            pull_hits: registry.counter("sim.broadcast.pull_hits"),
            rounds: registry.counter("sim.broadcast.rounds"),
            informed: registry.counter("sim.broadcast.informed"),
        }
    }
}

/// The rumor layer. See the module docs for the model; drive it with
/// [`BroadcastLayer::run`] (membership round + rumor round interleaved) or
/// call [`BroadcastLayer::step`] after each engine round yourself.
pub struct BroadcastLayer {
    seed: u64,
    config: BroadcastConfig,
    channel: RumorChannel,
    round: u64,
    /// Dense rumor arena: id → slot plus per-slot columns. The map is only
    /// ever looked up, never iterated, so its order cannot reach output:
    /// slots are issued in the engine's live order, and `fingerprint` and
    /// `informed_ids` walk the columns and sort by id.
    slot_of: HashMap<NodeId, u32>,
    ids: Vec<NodeId>,
    /// Rounds since the slot became informed (saturating).
    age: Vec<u8>,
    /// Informed flags, one bit per slot. Monotone: bits are set, never
    /// cleared.
    informed: Vec<u64>,
    /// Gilbert–Elliott bad-state flags, one bit per slot.
    bad_state: Vec<u64>,
    /// Last round (as `round + 1`) each slot was observed live; 0 = never.
    live_epoch: Vec<u64>,
    stats: BroadcastStats,
    live_count: usize,
    informed_live: usize,
    to_half: Option<u64>,
    to_99: Option<u64>,
    to_full: Option<u64>,
    trace: Option<Vec<TraceEdge>>,
    metrics: Option<BroadcastMetrics>,
    /// Double buffer: slots informed during the current step.
    newly: Vec<u32>,
}

impl BroadcastLayer {
    /// A lossless-channel layer sharing the engine's `seed` (streams stay
    /// disjoint from the engine's via [`RUMOR`]/[`RUMOR_CHANNEL`]).
    #[must_use]
    pub fn new(seed: u64, config: BroadcastConfig) -> Self {
        Self::with_channel(seed, config, RumorChannel::Lossless)
    }

    /// A layer with an explicit rumor channel.
    ///
    /// # Panics
    ///
    /// Panics when `config.fanout` is zero or a channel rate is invalid.
    #[must_use]
    pub fn with_channel(seed: u64, config: BroadcastConfig, mut channel: RumorChannel) -> Self {
        assert!(config.fanout >= 1, "broadcast fanout must be at least 1");
        channel.normalize();
        Self {
            seed,
            config,
            channel,
            round: 0,
            slot_of: HashMap::new(),
            ids: Vec::new(),
            age: Vec::new(),
            informed: Vec::new(),
            bad_state: Vec::new(),
            live_epoch: Vec::new(),
            stats: BroadcastStats::default(),
            live_count: 0,
            informed_live: 0,
            to_half: None,
            to_99: None,
            to_full: None,
            trace: None,
            metrics: None,
            newly: Vec::new(),
        }
    }

    /// Swaps the rumor channel (e.g. between scenario phases). Channel
    /// state (Gilbert–Elliott bits) is preserved across swaps.
    ///
    /// # Panics
    ///
    /// Panics when a channel rate is invalid.
    pub fn set_channel(&mut self, mut channel: RumorChannel) {
        channel.normalize();
        self.channel = channel;
    }

    /// The current rumor channel.
    #[must_use]
    pub fn channel(&self) -> &RumorChannel {
        &self.channel
    }

    /// The rumor parameters.
    #[must_use]
    pub fn config(&self) -> BroadcastConfig {
        self.config
    }

    /// Marks `id` as an initial rumor holder (age 0).
    pub fn seed_rumor_at(&mut self, id: NodeId) {
        let slot = self.slot_for(id);
        if !bit(&self.informed, slot) {
            set_bit(&mut self.informed, slot);
            self.age[slot as usize] = 0;
            if let Some(m) = &self.metrics {
                m.informed.inc();
            }
        }
    }

    /// Starts recording `(round, from, to)` infection edges for
    /// provenance checks.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// The recorded infection edges (empty unless
    /// [`BroadcastLayer::enable_trace`] was called first).
    #[must_use]
    pub fn trace(&self) -> &[TraceEdge] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Registers the `sim.broadcast.*` counters on `registry` and streams
    /// all subsequent events into them.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(BroadcastMetrics::register(registry));
    }

    /// Broadcast rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Accumulated rumor counters.
    #[must_use]
    pub fn stats(&self) -> BroadcastStats {
        self.stats
    }

    /// Whether `id` holds the rumor.
    #[must_use]
    pub fn is_informed(&self, id: NodeId) -> bool {
        self.slot_of.get(&id).is_some_and(|&slot| bit(&self.informed, slot))
    }

    /// Live nodes observed at the last step.
    #[must_use]
    pub fn live_seen(&self) -> usize {
        self.live_count
    }

    /// Informed nodes among those live at the last step.
    #[must_use]
    pub fn informed_live(&self) -> usize {
        self.informed_live
    }

    /// `informed_live / live_seen` after the last step (0.0 before any).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.live_count == 0 {
            0.0
        } else {
            self.informed_live as f64 / self.live_count as f64
        }
    }

    /// Informed ids among the nodes live at the last step, sorted.
    #[must_use]
    pub fn informed_ids(&self) -> Vec<NodeId> {
        let mark = self.round;
        let mut out: Vec<NodeId> = self
            .ids
            .iter()
            .enumerate()
            .filter(|&(slot, _)| self.live_epoch[slot] == mark && bit(&self.informed, slot as u32))
            .map(|(_, &id)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Order-independent FNV-1a digest of the layer's observable state:
    /// round, ledger, milestones, counters, and every node's
    /// `(id, informed, age, live)` tuple in sorted-id order. Equal
    /// fingerprints mean bit-identical broadcast state — the quantity the
    /// cross-engine and cross-thread-count determinism tests (and the
    /// golden files) pin.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes: Vec<u8> = Vec::with_capacity(64 + self.ids.len() * 11);
        let sentinel = |m: Option<u64>| m.unwrap_or(u64::MAX);
        for word in [
            self.round,
            self.live_count as u64,
            self.informed_live as u64,
            sentinel(self.to_half),
            sentinel(self.to_99),
            sentinel(self.to_full),
            self.stats.sent,
            self.stats.lost,
            self.stats.dead_letters,
            self.stats.delivered,
            self.stats.duplicates,
            self.stats.pull_requests,
            self.stats.pull_replies,
            self.stats.pull_hits,
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let mut order: Vec<u32> = (0..self.ids.len() as u32).collect();
        order.sort_unstable_by_key(|&slot| self.ids[slot as usize]);
        for slot in order {
            bytes.extend_from_slice(&self.ids[slot as usize].as_u64().to_le_bytes());
            bytes.push(u8::from(bit(&self.informed, slot)));
            bytes.push(self.age[slot as usize]);
            bytes.push(u8::from(self.live_epoch[slot as usize] == self.round));
        }
        fnv1a64(bytes)
    }

    /// The end-of-run summary.
    #[must_use]
    pub fn report(&self) -> SpreadReport {
        let per_node = if self.live_count == 0 {
            0.0
        } else {
            self.stats.messages() as f64 / self.live_count as f64
        };
        SpreadReport {
            rounds: self.round,
            live: self.live_count,
            informed: self.informed_live,
            coverage: self.coverage(),
            to_half: self.to_half,
            to_99: self.to_99,
            to_full: self.to_full,
            messages_per_node: per_node,
            stats: self.stats,
        }
    }

    /// Interleaves `rounds` membership rounds with one rumor round each:
    /// `engine.round()` then [`BroadcastLayer::step`].
    pub fn run<E: Engine>(&mut self, engine: &mut E, rounds: usize) {
        for _ in 0..rounds {
            engine.round();
            self.step(engine);
        }
    }

    /// Executes one broadcast round over the engine's current live views.
    ///
    /// Pass A walks the live set: registers arena slots, stamps the
    /// liveness epoch, and advances per-node channel state. Pass B walks
    /// the views once via [`Engine::for_each_live_view`]: informed,
    /// un-retired nodes push `fanout` targets; with pull enabled,
    /// uninformed nodes draw one partner and pull against the *start of
    /// round* informed set. Newly informed slots commit after the pass
    /// (synchronous double buffer), then ages advance and coverage
    /// milestones update.
    pub fn step<E: Engine>(&mut self, engine: &E) {
        let round = self.round;
        let mark = round + 1;
        let live = engine.live_ids();
        let before = self.stats;

        // Pass A: liveness epochs + channel state.
        let bursty = matches!(self.channel, RumorChannel::Bursty { .. });
        for &id in &live {
            let slot = self.slot_for(id);
            self.live_epoch[slot as usize] = mark;
            if bursty {
                let (to_bad, to_good) = match self.channel {
                    RumorChannel::Bursty { to_bad, to_good, .. } => (to_bad, to_good),
                    _ => unreachable!(),
                };
                let mut rng = StdRng::seed_from_u64(stream_seed(
                    self.seed,
                    RUMOR_CHANNEL,
                    id.as_u64(),
                    round,
                ));
                let next = if bit(&self.bad_state, slot) {
                    !rng.gen_bool(to_good)
                } else {
                    rng.gen_bool(to_bad)
                };
                assign_bit(&mut self.bad_state, slot, next);
            }
        }

        // Pass B: gossip over the live views. All reads of the informed
        // set go through the start-of-round buffer; discoveries land in
        // `newly` and commit afterwards, so results are independent of
        // the engine's iteration order.
        let mut newly = std::mem::take(&mut self.newly);
        newly.clear();
        let this = &mut *self;
        engine.for_each_live_view(&mut |id, view| {
            let slot = this.slot_of[&id];
            let informed = bit(&this.informed, slot);
            if view.is_empty() {
                return;
            }
            if informed && this.age[slot as usize] <= this.config.max_age {
                let mut rng =
                    StdRng::seed_from_u64(stream_seed(this.seed, RUMOR, id.as_u64(), round));
                for _ in 0..this.config.fanout {
                    let target = view[rng.gen_range(0..view.len())];
                    this.stats.sent += 1;
                    let drop_p = this.loss_rate(id, target);
                    let dropped = rng.gen_bool(drop_p);
                    let target_slot = this
                        .slot_of
                        .get(&target)
                        .copied()
                        .filter(|&s| this.live_epoch[s as usize] == mark);
                    let Some(target_slot) = target_slot else {
                        this.stats.dead_letters += 1;
                        continue;
                    };
                    if dropped {
                        this.stats.lost += 1;
                        continue;
                    }
                    this.stats.delivered += 1;
                    if bit(&this.informed, target_slot) {
                        this.stats.duplicates += 1;
                    } else {
                        newly.push(target_slot);
                        if let Some(trace) = &mut this.trace {
                            trace.push(TraceEdge { round: mark, from: id, to: target });
                        }
                    }
                }
            } else if !informed && this.config.pull {
                let mut rng =
                    StdRng::seed_from_u64(stream_seed(this.seed, RUMOR, id.as_u64(), round));
                let partner = view[rng.gen_range(0..view.len())];
                this.stats.pull_requests += 1;
                let request_dropped = rng.gen_bool(this.loss_rate(id, partner));
                let partner_slot = this
                    .slot_of
                    .get(&partner)
                    .copied()
                    .filter(|&s| this.live_epoch[s as usize] == mark);
                let Some(partner_slot) = partner_slot else {
                    return;
                };
                if request_dropped || !bit(&this.informed, partner_slot) {
                    return;
                }
                this.stats.pull_replies += 1;
                if rng.gen_bool(this.loss_rate(partner, id)) {
                    this.stats.lost += 1;
                    return;
                }
                this.stats.pull_hits += 1;
                newly.push(slot);
                if let Some(trace) = &mut this.trace {
                    trace.push(TraceEdge { round: mark, from: partner, to: id });
                }
            }
        });

        // Ages advance for everyone informed at the start of the round…
        for (widx, word) in self.informed.iter().enumerate() {
            let mut w = *word;
            while w != 0 {
                let slot = widx * 64 + w.trailing_zeros() as usize;
                self.age[slot] = self.age[slot].saturating_add(1);
                w &= w - 1;
            }
        }
        // …then discoveries commit at age 0 (monotone: set, never cleared).
        let mut fresh = 0u64;
        for &slot in &newly {
            if !bit(&self.informed, slot) {
                set_bit(&mut self.informed, slot);
                self.age[slot as usize] = 0;
                fresh += 1;
            }
        }
        self.newly = newly;

        // Ledger + milestones.
        self.live_count = live.len();
        self.informed_live = live.iter().filter(|id| bit(&self.informed, self.slot_of[id])).count();
        self.round = mark;
        let coverage = self.coverage();
        if self.to_half.is_none() && coverage >= 0.5 {
            self.to_half = Some(mark);
        }
        if self.to_99.is_none() && coverage >= 0.99 {
            self.to_99 = Some(mark);
        }
        if self.to_full.is_none() && self.live_count > 0 && self.informed_live == self.live_count {
            self.to_full = Some(mark);
        }

        if let Some(m) = &self.metrics {
            let d = &self.stats;
            m.sent.add(d.sent - before.sent);
            m.lost.add(d.lost - before.lost);
            m.dead_letters.add(d.dead_letters - before.dead_letters);
            m.delivered.add(d.delivered - before.delivered);
            m.duplicates.add(d.duplicates - before.duplicates);
            m.pull_requests.add(d.pull_requests - before.pull_requests);
            m.pull_replies.add(d.pull_replies - before.pull_replies);
            m.pull_hits.add(d.pull_hits - before.pull_hits);
            m.rounds.inc();
            m.informed.add(fresh);
        }
    }

    /// Drop probability for one message `from → to` under the current
    /// channel (receiver-side, like the engines' loss models).
    fn loss_rate(&self, from: NodeId, to: NodeId) -> f64 {
        match &self.channel {
            RumorChannel::Lossless => 0.0,
            RumorChannel::Uniform { rate } => *rate,
            RumorChannel::Bursty { loss_good, loss_bad, .. } => match self.slot_of.get(&to) {
                Some(&slot) if bit(&self.bad_state, slot) => *loss_bad,
                _ => *loss_good,
            },
            RumorChannel::Partition { regions, sever, base } => {
                if from.as_u64() % regions == to.as_u64() % regions {
                    *base
                } else {
                    *sever
                }
            }
            RumorChannel::Victims { victim_rate, base, victims } => {
                if victims.binary_search(&to).is_ok() {
                    *victim_rate
                } else {
                    *base
                }
            }
        }
    }

    /// The arena slot for `id`, growing all columns on first sight.
    fn slot_for(&mut self, id: NodeId) -> u32 {
        if let Some(&slot) = self.slot_of.get(&id) {
            return slot;
        }
        let slot = u32::try_from(self.ids.len()).expect("rumor arena outgrew u32 slots");
        self.slot_of.insert(id, slot);
        self.ids.push(id);
        self.age.push(0);
        self.live_epoch.push(0);
        let words = self.ids.len().div_ceil(64);
        if self.informed.len() < words {
            self.informed.push(0);
            self.bad_state.push(0);
        }
        slot
    }
}

/// Tests one bit of a slot bitset.
#[inline]
fn bit(words: &[u64], slot: u32) -> bool {
    words[slot as usize / 64] & (1u64 << (slot % 64)) != 0
}

/// Sets one bit of a slot bitset.
#[inline]
fn set_bit(words: &mut [u64], slot: u32) {
    words[slot as usize / 64] |= 1u64 << (slot % 64);
}

/// Writes one bit of a slot bitset.
#[inline]
fn assign_bit(words: &mut [u64], slot: u32, value: bool) {
    if value {
        words[slot as usize / 64] |= 1u64 << (slot % 64);
    } else {
        words[slot as usize / 64] &= !(1u64 << (slot % 64));
    }
}

/// The Doerr et al. spread-time yardstick for fanout-1 push on good
/// expander-like views: `log₂ n + ln n` rounds to full coverage
/// (Frieze–Grimmett / Pittel; Doerr, Doerr & Kötzing's robust variant
/// matches it up to additive constants under constant message loss).
#[must_use]
pub fn doerr_spread_prediction(n: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = n as f64;
    n.log2() + n.ln()
}

#[cfg(test)]
mod tests {
    use sandf_core::SfConfig;

    use super::*;
    use crate::{topology, FlatSimulation, SfBehavior, UniformLoss};

    fn flat(n: usize, seed: u64) -> FlatSimulation<UniformLoss, SfBehavior> {
        let config = SfConfig::new(16, 6).unwrap();
        let nodes = topology::circulant(n, config, 8);
        FlatSimulation::new(nodes, UniformLoss::new(0.0).unwrap(), seed)
    }

    #[test]
    fn lossless_push_reaches_everyone() {
        let mut sim = flat(256, 7);
        sim.run_rounds(20);
        let mut layer = BroadcastLayer::new(7, BroadcastConfig::default());
        layer.seed_rumor_at(NodeId::new(0));
        layer.run(&mut sim, 60);
        let report = layer.report();
        assert_eq!(report.live, 256);
        assert_eq!(report.informed, 256);
        assert_eq!(report.coverage, 1.0);
        let full = report.to_full.expect("should finish in 60 rounds");
        assert!(report.to_half.unwrap() <= report.to_99.unwrap());
        assert!(report.to_99.unwrap() <= full);
        assert_eq!(report.stats.dead_letters, 0);
        assert_eq!(report.stats.lost, 0);
        assert_eq!(report.stats.messages(), report.stats.sent);
    }

    #[test]
    fn total_loss_never_spreads() {
        let mut sim = flat(64, 3);
        sim.run_rounds(10);
        let mut layer = BroadcastLayer::with_channel(
            3,
            BroadcastConfig::default(),
            RumorChannel::Uniform { rate: 1.0 },
        );
        layer.seed_rumor_at(NodeId::new(5));
        layer.run(&mut sim, 20);
        assert_eq!(layer.informed_live(), 1);
        assert_eq!(layer.stats().delivered, 0);
        assert_eq!(layer.stats().lost, layer.stats().sent);
    }

    #[test]
    fn replays_are_bit_identical() {
        let run = || {
            let mut sim = flat(128, 11);
            sim.run_rounds(10);
            let mut layer = BroadcastLayer::with_channel(
                11,
                BroadcastConfig::push_pull(2, 4),
                RumorChannel::Bursty { to_bad: 0.1, to_good: 0.3, loss_good: 0.02, loss_bad: 0.7 },
            );
            layer.seed_rumor_at(NodeId::new(1));
            layer.run(&mut sim, 25);
            (layer.report(), layer.informed_ids())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn informed_set_is_monotone_and_ledger_balances() {
        let mut sim = flat(96, 5);
        sim.run_rounds(10);
        let mut layer = BroadcastLayer::with_channel(
            5,
            BroadcastConfig::default(),
            RumorChannel::Uniform { rate: 0.3 },
        );
        layer.seed_rumor_at(NodeId::new(2));
        let mut prev: Vec<NodeId> = Vec::new();
        for _ in 0..30 {
            sim.round();
            layer.step(&sim);
            let now = layer.informed_ids();
            assert!(prev.iter().all(|id| now.contains(id)), "informed set shrank");
            assert_eq!(layer.live_seen(), Engine::len(&sim));
            assert!(layer.informed_live() <= layer.live_seen());
            prev = now;
        }
    }

    #[test]
    fn hard_partition_confines_the_rumor() {
        let mut sim = flat(128, 9);
        sim.run_rounds(20);
        let mut layer = BroadcastLayer::with_channel(
            9,
            BroadcastConfig::default(),
            RumorChannel::Partition { regions: 2, sever: 1.0, base: 0.0 },
        );
        layer.seed_rumor_at(NodeId::new(0)); // region 0 = even ids
        layer.run(&mut sim, 60);
        assert!(layer.informed_ids().iter().all(|id| id.as_u64() % 2 == 0));
        assert!(layer.coverage() <= 0.5 + f64::EPSILON);
    }

    #[test]
    fn victims_stay_dark_under_total_victim_loss() {
        let victims: Vec<NodeId> = (10..20).map(NodeId::new).collect();
        let mut sim = flat(64, 13);
        sim.run_rounds(10);
        let mut layer = BroadcastLayer::with_channel(
            13,
            BroadcastConfig::default(),
            RumorChannel::Victims { victim_rate: 1.0, base: 0.0, victims: victims.clone() },
        );
        layer.seed_rumor_at(NodeId::new(0));
        layer.run(&mut sim, 60);
        for v in victims {
            assert!(!layer.is_informed(v), "{v:?} should never learn the rumor");
        }
        assert_eq!(layer.informed_live(), 64 - 10);
    }

    #[test]
    fn trace_edges_cover_every_informed_node() {
        let mut sim = flat(128, 21);
        sim.run_rounds(15);
        let mut layer = BroadcastLayer::new(21, BroadcastConfig::default());
        layer.enable_trace();
        let origin = NodeId::new(3);
        layer.seed_rumor_at(origin);
        layer.run(&mut sim, 50);
        let informed = layer.informed_ids();
        // Membership tests only: the set's order cannot matter.
        let traced: std::collections::HashSet<NodeId> =
            layer.trace().iter().map(|e| e.to).collect();
        for id in informed {
            assert!(id == origin || traced.contains(&id), "{id:?} informed without a trace edge");
        }
    }

    #[test]
    fn prediction_is_log_shaped() {
        assert!(doerr_spread_prediction(1_000) > 16.0);
        assert!(doerr_spread_prediction(1_000) < 18.0);
        assert!(doerr_spread_prediction(10_000) < 23.5);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn bad_rate_is_rejected() {
        let _ = BroadcastLayer::with_channel(
            1,
            BroadcastConfig::default(),
            RumorChannel::Uniform { rate: 1.5 },
        );
    }
}
