//! Rumor-spreading broadcast over live membership views — the first layer
//! that *consumes* the peer-sampling service instead of only measuring it.
//!
//! [`BroadcastLayer`] piggybacks a push (optionally push-pull) rumor on
//! top of any [`Engine`]: after each membership round, [`BroadcastLayer::step`]
//! walks the rows of the live nodes that act via
//! [`Engine::for_each_live_row`] and gossips an application payload along
//! those edges. Per-node rumor state is indexed by raw node id, the arena
//! engines' `u32` word space ([`ARENA_ID_LIMIT`]) — the words a row hands
//! out, so the walk never widens an id: one `u8` age column and four
//! `u64`-word bitsets (informed, Gilbert–Elliott bad state, live
//! at the last step, registered), 1.5 bytes per id up to the largest id
//! seen. A push target's liveness and informed state are two bit reads,
//! so the layer scales to n = 10⁶ on `FlatSimulation`/`ParSimulation`
//! without perturbing the engines' own RNG streams or their
//! byte-identical-across-threads contract.
//!
//! # Determinism
//!
//! Every random draw a node makes in a broadcast round comes from its own
//! per-`(seed, node, round)` stream
//! ([`stream_seed`](crate::stream::stream_seed)) under two tags of the
//! [`crate::stream`] table; a step hashes each tag's `seed ‖ tag` prefix
//! once and absorbs each node's id and the round into it:
//!
//! * [`RUMOR`] (`b'g'`) — gossip draws: push targets, pull partner,
//!   per-message loss (drawn for every message, lossless or not);
//! * [`RUMOR_CHANNEL`] (`b'h'`) — the per-round Gilbert–Elliott
//!   channel-state transition.
//!
//! Draws therefore never depend on view-iteration order, and newly
//! informed nodes are committed through a double buffer, so the layer is
//! bit-identical run after run on the flat engine and across thread
//! counts on par, inheriting whatever determinism contract the underlying
//! engine offers.
//!
//! # Channels
//!
//! The rumor channel runs the workspace's one fault process, a
//! [`ScheduledFault`] of [`PhaseFault`]s. The layer owns its schedule and
//! draws on its own streams; the scenario driver hands it a clone of the
//! engine's, so rumor and membership run the same faults. Each step reads
//! the phase of the membership round it rides —
//! `engine.rounds_run() - 1`, that round's [`FaultCtx::round`] — so
//! partition windows and phase changes apply to rumors exactly as to
//! membership. A message's loss
//! rate is [`PhaseFault::rate`], the function the engines draw against,
//! read in the *receiver's* chain state: a `bursty` phase keeps one
//! Gilbert–Elliott bit per receiver, stepped once per step through the
//! one transition, [`GilbertElliott::advance`](crate::GilbertElliott::advance),
//! from the receiver's [`RUMOR_CHANNEL`] stream; every phase starts the
//! bits good, as the engines' channels do. A `capacity` phase
//! gates a node's push and pull through [`FaultModel::node_acts`]. Loss
//! applies per message at the *receiver*, after the sender has paid for
//! the send — lost rumors still count toward message complexity, exactly
//! like `SimStats::lost`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::NodeId;
use sandf_obs::{CounterHandle, MetricsRegistry};

use crate::fault::{FaultCtx, FaultModel, PhaseFault, ScheduledFault};
use crate::loss::UniformLoss;
use crate::stream::{absorb, fnv1a64, stream_prefix, RUMOR, RUMOR_CHANNEL};
use crate::traits::{widen, Engine, ARENA_ID_LIMIT};

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

/// The one rumor channel still spelled outside [`PhaseFault`]: i.i.d. loss
/// at `rate`, the constant `uniform` schedule it converts into.
#[derive(Clone, Debug, PartialEq)]
pub enum RumorChannel {
    /// Each message drops i.i.d. with `rate`.
    Uniform {
        /// Per-message drop probability.
        rate: f64,
    },
}

impl From<RumorChannel> for ScheduledFault {
    fn from(channel: RumorChannel) -> Self {
        let RumorChannel::Uniform { rate } = channel;
        PhaseFault::Uniform(UniformLoss { rate }).into()
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
    fault: ScheduledFault,
    round: u64,
    /// Rounds since the id became informed (saturating), indexed by raw
    /// id. The bitsets below hold one bit per raw id and grow with it.
    age: Vec<u8>,
    /// Informed flags. Monotone: bits are set, never cleared.
    informed: Vec<u64>,
    /// Gilbert–Elliott bad-state flags, one per receiver, of the phase
    /// `phase` names: cleared when a step rides another.
    bad_state: Vec<u64>,
    phase: usize,
    /// Ids live at the last step; before the first step, every
    /// registered id.
    live: Vec<u64>,
    /// Registered ids: seeded or seen live at least once.
    seen: Vec<u64>,
    stats: BroadcastStats,
    live_count: usize,
    informed_live: usize,
    to_half: Option<u64>,
    to_99: Option<u64>,
    to_full: Option<u64>,
    trace: Option<Vec<TraceEdge>>,
    metrics: Option<BroadcastMetrics>,
    /// Double buffer: ids informed during the current step.
    newly: Vec<u32>,
}

impl BroadcastLayer {
    /// A lossless-channel layer sharing the engine's `seed` (streams stay
    /// disjoint from the engine's via [`RUMOR`]/[`RUMOR_CHANNEL`]).
    #[must_use]
    pub fn new(seed: u64, config: BroadcastConfig) -> Self {
        Self::with_channel(seed, config, PhaseFault::Uniform(UniformLoss::none()))
    }

    /// A layer whose rumor channel runs `fault` (a [`ScheduledFault`], or
    /// one [`PhaseFault`] for the whole run), indexed by membership round.
    ///
    /// # Panics
    ///
    /// Panics when `config.fanout` is zero or a fault fails
    /// [`PhaseFault::check`].
    #[must_use]
    pub fn with_channel(
        seed: u64,
        config: BroadcastConfig,
        fault: impl Into<ScheduledFault>,
    ) -> Self {
        assert!(config.fanout >= 1, "broadcast fanout must be at least 1");
        Self {
            seed,
            config,
            fault: fault.into(),
            round: 0,
            age: Vec::new(),
            informed: Vec::new(),
            bad_state: Vec::new(),
            phase: 0,
            live: Vec::new(),
            seen: Vec::new(),
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

    /// The rumor parameters.
    #[must_use]
    pub fn config(&self) -> BroadcastConfig {
        self.config
    }

    /// Marks `id` as an initial rumor holder (age 0).
    ///
    /// # Panics
    ///
    /// Panics when `id` lies at or above [`ARENA_ID_LIMIT`].
    pub fn seed_rumor_at(&mut self, id: NodeId) {
        let i = self.register(id);
        if self.round == 0 {
            set_bit(&mut self.live, i);
        }
        if !bit(&self.informed, i.into()) {
            set_bit(&mut self.informed, i);
            self.age[i as usize] = 0;
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
        bit(&self.informed, id.as_u64())
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
        let mut out = Vec::with_capacity(self.informed_live);
        let both = self.live.iter().zip(&self.informed).map(|(l, i)| l & i);
        for_each_bit(both, |i| out.push(NodeId::new(i as u64)));
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
        let mut bytes: Vec<u8> = Vec::with_capacity(112 + self.age.len() * 11);
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
        for_each_bit(self.seen.iter().copied(), |i| {
            let id = i as u64;
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.push(u8::from(bit(&self.informed, id)));
            bytes.push(self.age[i]);
            bytes.push(u8::from(bit(&self.live, id)));
        });
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
    /// Pass A walks the live set: registers ids, rebuilds the `live`
    /// bitset, and, under a `bursty` phase, advances per-node channel
    /// state. Pass B walks, via [`Engine::for_each_live_row`], the rows of
    /// the nodes that act and no others: informed, un-retired nodes push
    /// `fanout` targets; with pull enabled, uninformed nodes draw one
    /// partner and pull against the *start of round* informed set. A
    /// retired node, or an uninformed one without pull, is refused before
    /// its row is read; a node the phase's capacity gate holds back reads
    /// its row and does neither. Newly informed ids commit after the pass
    /// (synchronous double buffer), then ages advance and coverage
    /// milestones update.
    ///
    /// # Panics
    ///
    /// Panics when a live id lies at or above [`ARENA_ID_LIMIT`].
    pub fn step<E: Engine>(&mut self, engine: &E) {
        let round = self.round;
        let mark = round + 1;
        // The membership round this step rides, as its messages saw it.
        let fault_round = engine.rounds_run().saturating_sub(1);
        let live = engine.live_ids();
        let before = self.stats;

        // Pass A: the live bitset + channel state.
        self.live.fill(0);
        for &id in &live {
            let i = self.register(id);
            set_bit(&mut self.live, i);
        }
        let index = self.fault.phase_index(fault_round);
        if std::mem::replace(&mut self.phase, index) != index {
            // A new phase's chains start in the good state.
            self.bad_state.fill(0);
        }
        let phase = &self.fault.phases()[index].1;
        if let PhaseFault::Bursty(chain) = phase {
            let prefix = stream_prefix(self.seed, RUMOR_CHANNEL);
            for &id in &live {
                let mut rng = StdRng::seed_from_u64(absorb(absorb(prefix, id.as_u64()), round));
                let mut bad = bit(&self.bad_state, id.as_u64());
                chain.advance(&mut bad, &mut rng);
                assign_bit(&mut self.bad_state, id.as_u64() as u32, bad);
            }
        }

        // Pass B: gossip over the rows of the nodes that act — informed
        // and not retired, or uninformed under pull; no other row is read.
        // All reads of the informed set go through the start-of-round
        // buffer; discoveries land in `newly` and commit afterwards, so
        // results are independent of the engine's iteration order.
        let mut newly = std::mem::take(&mut self.newly);
        newly.clear();
        let bursty = matches!(phase, PhaseFault::Bursty(_));
        let loss_rate = |from: u32, to: u32| {
            let ctx = FaultCtx { from: widen(from), to: widen(to), round: fault_round };
            phase.rate(ctx, bursty && bit(&self.bad_state, to.into()))
        };
        let (informed, age, config) = (&self.informed, &self.age, self.config);
        let acts = |id: u32| {
            if bit(informed, id.into()) {
                age[id as usize] <= config.max_age
            } else {
                config.pull
            }
        };
        let prefix = stream_prefix(self.seed, RUMOR);
        engine.for_each_live_row(acts, &mut |id, view| {
            if view.is_empty() || !phase.node_acts(widen(id), fault_round) {
                return;
            }
            let mut rng = StdRng::seed_from_u64(absorb(absorb(prefix, id.into()), round));
            if bit(informed, id.into()) {
                for _ in 0..config.fanout {
                    let target = view[rng.gen_range(0..view.len())];
                    self.stats.sent += 1;
                    let dropped = rng.gen_bool(loss_rate(id, target));
                    if !bit(&self.live, target.into()) {
                        self.stats.dead_letters += 1;
                        continue;
                    }
                    if dropped {
                        self.stats.lost += 1;
                        continue;
                    }
                    self.stats.delivered += 1;
                    if bit(informed, target.into()) {
                        self.stats.duplicates += 1;
                    } else {
                        newly.push(target);
                        if let Some(trace) = &mut self.trace {
                            let (from, to) = (widen(id), widen(target));
                            trace.push(TraceEdge { round: mark, from, to });
                        }
                    }
                }
            } else {
                let partner = view[rng.gen_range(0..view.len())];
                self.stats.pull_requests += 1;
                let request_dropped = rng.gen_bool(loss_rate(id, partner));
                if request_dropped
                    || !bit(&self.live, partner.into())
                    || !bit(informed, partner.into())
                {
                    return;
                }
                self.stats.pull_replies += 1;
                if rng.gen_bool(loss_rate(partner, id)) {
                    self.stats.lost += 1;
                    return;
                }
                self.stats.pull_hits += 1;
                newly.push(id);
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEdge { round: mark, from: widen(partner), to: widen(id) });
                }
            }
        });

        // Ages advance for everyone informed at the start of the round…
        let age = &mut self.age;
        for_each_bit(self.informed.iter().copied(), |i| age[i] = age[i].saturating_add(1));
        // …then discoveries commit at age 0 (monotone: set, never cleared).
        let mut fresh = 0u64;
        for &i in &newly {
            if !bit(&self.informed, i.into()) {
                set_bit(&mut self.informed, i);
                self.age[i as usize] = 0;
                fresh += 1;
            }
        }
        self.newly = newly;

        // Ledger + milestones.
        self.live_count = live.len();
        self.informed_live =
            self.live.iter().zip(&self.informed).map(|(l, i)| (l & i).count_ones() as usize).sum();
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

    /// Marks `id` registered and returns it as a column index, growing
    /// every column to cover it.
    fn register(&mut self, id: NodeId) -> u32 {
        assert!(
            id.as_u64() < ARENA_ID_LIMIT,
            "rumor layer: node id {id} exceeds the u32 arena id space"
        );
        let i = id.as_u64() as u32;
        if i as usize >= self.age.len() {
            self.age.resize(i as usize + 1, 0);
            let words = self.age.len().div_ceil(64);
            for column in [&mut self.informed, &mut self.bad_state, &mut self.live, &mut self.seen]
            {
                column.resize(words, 0);
            }
        }
        set_bit(&mut self.seen, i);
        i
    }
}

/// Tests bit `i` of an id bitset; ids past its end read as clear.
#[inline]
fn bit(words: &[u64], i: u64) -> bool {
    words.get((i / 64) as usize).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// Sets bit `i` of an id bitset.
#[inline]
fn set_bit(words: &mut [u64], i: u32) {
    words[i as usize / 64] |= 1 << (i % 64);
}

/// Writes bit `i` of an id bitset.
#[inline]
fn assign_bit(words: &mut [u64], i: u32, value: bool) {
    if value {
        set_bit(words, i);
    } else {
        words[i as usize / 64] &= !(1 << (i % 64));
    }
}

/// Calls `f` with the index of every set bit, in ascending order.
fn for_each_bit(words: impl IntoIterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, mut word) in words.into_iter().enumerate() {
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
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
    use crate::fault::tests::fraction_of;
    use crate::{topology, FlatSimulation, GilbertElliott, ParSimulation, SfBehavior};

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
                PhaseFault::Bursty(GilbertElliott::new(0.1, 0.3, 0.02, 0.7).unwrap()),
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
            PhaseFault::Partition { regions: 2, start: 0, duration: 80, sever: 1.0, base: 0.0 },
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
        let mut fault =
            PhaseFault::Victims { count: 10, victim_rate: 1.0, base: 0.0, victims: Vec::new() };
        fault.aim(&victims);
        let mut layer = BroadcastLayer::with_channel(13, BroadcastConfig::default(), fault);
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
    fn before_the_first_step_every_registered_id_reads_live() {
        let mut layer = BroadcastLayer::new(1, BroadcastConfig::default());
        layer.seed_rumor_at(NodeId::new(3));
        layer.seed_rumor_at(NodeId::new(1));
        assert_eq!(layer.informed_ids(), [NodeId::new(1), NodeId::new(3)]);
        assert_eq!((layer.live_seen(), layer.informed_live()), (0, 0));
        // Round, ledger, three unset milestones, eight zero counters, then
        // `(id, informed, age, live)` per registered id in ascending order.
        let mut bytes = Vec::new();
        for word in [0, 0, 0, u64::MAX, u64::MAX, u64::MAX, 0, 0, 0, 0, 0, 0, 0, 0] {
            bytes.extend_from_slice(&u64::to_le_bytes(word));
        }
        for id in [1u64, 3] {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&[1, 0, 1]);
        }
        assert_eq!(layer.fingerprint(), fnv1a64(bytes));
    }

    #[test]
    fn churn_turns_departed_targets_into_dead_letters() {
        let mut sim = flat(256, 17);
        sim.run_rounds(10);
        let mut layer = BroadcastLayer::new(17, BroadcastConfig::push(2, u8::MAX));
        layer.enable_trace();
        layer.seed_rumor_at(NodeId::new(0));
        while layer.coverage() < 0.25 {
            layer.run(&mut sim, 1);
        }
        let departed: Vec<NodeId> = (1..256).step_by(4).map(NodeId::new).collect();
        let dark: Vec<NodeId> =
            departed.iter().copied().filter(|&id| !layer.is_informed(id)).collect();
        assert!(!dark.is_empty() && dark.len() < departed.len(), "want both kinds of leaver");
        for &id in &departed {
            sim.leave(id).expect("live");
        }
        let joiners: Vec<NodeId> =
            (0..80).map(|k| sim.join_via(NodeId::new(2 * k)).expect("sponsor has ids")).collect();
        assert!(joiners.iter().all(|id| id.as_u64() >= 256), "joiners lie past the 256-id columns");
        let traced = layer.trace().len();
        for _ in 0..40 {
            sim.round();
            layer.step(&sim);
            let live = sim.live_ids();
            let informed = live.iter().filter(|&&id| layer.is_informed(id)).count();
            assert_eq!(layer.informed_live(), informed);
            assert_eq!(layer.live_seen(), live.len());
        }
        let stats = layer.stats();
        assert!(stats.dead_letters > 0, "stale view entries must be pushed to");
        assert_eq!(stats.sent, stats.lost + stats.dead_letters + stats.delivered);
        for id in dark {
            assert!(!layer.is_informed(id), "{id} learned the rumor after it left");
        }
        for edge in &layer.trace()[traced..] {
            assert!(!departed.contains(&edge.to), "{edge:?} delivered to a departed id");
        }
        let reached = joiners.iter().filter(|&&id| layer.is_informed(id)).count();
        assert!(reached > joiners.len() / 2, "only {reached} joiners learned the rumor");
        let mut expected: Vec<NodeId> =
            sim.live_ids().into_iter().filter(|&id| layer.is_informed(id)).collect();
        expected.sort_unstable();
        assert_eq!(layer.informed_ids(), expected);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 arena id space")]
    fn ids_beyond_the_arena_word_are_rejected() {
        BroadcastLayer::new(1, BroadcastConfig::default()).seed_rumor_at(NodeId::new(1 << 32));
    }

    #[test]
    fn prediction_is_log_shaped() {
        assert!(doerr_spread_prediction(1_000) > 16.0);
        assert!(doerr_spread_prediction(1_000) < 18.0);
        assert!(doerr_spread_prediction(10_000) < 23.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_rate_is_rejected() {
        let _ = BroadcastLayer::with_channel(
            1,
            BroadcastConfig::default(),
            RumorChannel::Uniform { rate: 1.5 },
        );
    }

    #[test]
    fn perlink_rumor_never_crosses_a_bad_link() {
        let mut sim = flat(128, 23);
        sim.run_rounds(10);
        let fault =
            PhaseFault::PerLink { salt: 31, bad_fraction: 0.5, good_rate: 0.0, bad_rate: 1.0 };
        let mut layer = BroadcastLayer::with_channel(23, BroadcastConfig::push(2, u8::MAX), fault);
        layer.enable_trace();
        layer.seed_rumor_at(NodeId::new(0));
        layer.run(&mut sim, 40);
        for edge in layer.trace() {
            let link = [31, edge.from.as_u64(), edge.to.as_u64()];
            assert!(fraction_of(&link) >= 0.5, "{edge:?} crossed a bad link");
        }
        assert!(layer.trace().len() > 64, "the rumor must spread over the good links");
        assert!(layer.stats().lost > 0, "bad links must drop pushes");
    }

    #[test]
    fn capacity_gates_pushes_in_the_membership_round_they_ride() {
        const BURN_IN: u64 = 10;
        let mut sim = flat(128, 29);
        sim.run_rounds(BURN_IN as usize);
        // Every node is slow: each pushes only in every other round.
        let fault = PhaseFault::Capacity { salt: 5, slow_fraction: 1.0, period: 2, base: 0.0 };
        let mut layer = BroadcastLayer::with_channel(29, BroadcastConfig::default(), fault.clone());
        layer.enable_trace();
        layer.seed_rumor_at(NodeId::new(0));
        layer.run(&mut sim, 40);
        // Broadcast round `r` (1-based) rides membership round
        // `BURN_IN + r - 1`, the round its gate is read at.
        for edge in layer.trace() {
            let fault_round = BURN_IN + edge.round - 1;
            assert!(fault.node_acts(edge.from, fault_round), "{edge:?} pushed while gated");
        }
        assert!(layer.trace().len() > 64, "the rumor must spread in the open rounds");
    }

    /// A lossless push-pull rumor at fanout 2, pinned: every message draws
    /// its loss even at rate 0, so the second target is drawn after the
    /// first loss draw.
    #[test]
    fn lossless_rumor_fingerprint_is_pinned() {
        let mut sim = flat(96, 37);
        sim.run_rounds(10);
        let mut layer = BroadcastLayer::new(37, BroadcastConfig::push_pull(2, 6));
        layer.seed_rumor_at(NodeId::new(4));
        layer.run(&mut sim, 12);
        assert_eq!(layer.fingerprint(), 0xacf6_2edc_87b4_7e26);
    }

    /// The rumor channel's mirror of flat's
    /// `each_bursty_phase_starts_the_one_chain_good`: a `bursty` phase
    /// whose chains turn bad at once and lose everything, a lossless
    /// `uniform` phase, then a `bursty` phase that never leaves the good
    /// state. That one loses nothing, unless a receiver's bit carries the
    /// first phase's bad state across the uniform one (it then loses
    /// nearly everything).
    #[test]
    fn each_bursty_phase_starts_the_receivers_chains_good() {
        let mut sim = flat(96, 5);
        sim.run_rounds(10);
        let bursty = |to_bad, to_good| {
            PhaseFault::Bursty(GilbertElliott::new(to_bad, to_good, 0.0, 1.0).unwrap())
        };
        let fault = ScheduledFault::new(vec![
            (13, bursty(1.0, 0.0)),
            (16, PhaseFault::Uniform(UniformLoss::none())),
            (u64::MAX, bursty(0.0, 0.001)),
        ]);
        let mut layer = BroadcastLayer::with_channel(5, BroadcastConfig::push(1, u8::MAX), fault);
        layer.seed_rumor_at(NodeId::new(4));
        layer.run(&mut sim, 3);
        let first = layer.stats();
        assert!(first.sent > 0 && first.lost == first.sent, "the first phase loses every push");
        layer.run(&mut sim, 3);
        assert_eq!(layer.stats().lost, first.lost, "the uniform phase is lossless");
        let before = layer.stats();
        layer.run(&mut sim, 6);
        assert!(layer.stats().sent > before.sent);
        assert_eq!(layer.stats().lost, before.lost, "the third phase's chains started bad");
    }

    /// Push-pull at fanout 2 retiring after age 3, over a `capacity` phase
    /// that holds half the nodes back every other round and then a
    /// `bursty` one, with a quarter of the nodes leaving mid-rumor: every
    /// reason a row is skipped or cut short, at once, pinned on both
    /// engines (par at two thread counts).
    #[test]
    fn gated_retiring_push_pull_under_churn_fingerprint_is_pinned() {
        fn run<E: Engine>(mut sim: E) -> u64 {
            sim.run_rounds(10);
            let fault = ScheduledFault::new(vec![
                (22, PhaseFault::Capacity { salt: 3, slow_fraction: 0.5, period: 2, base: 0.05 }),
                (u64::MAX, PhaseFault::Bursty(GilbertElliott::new(0.1, 0.3, 0.02, 0.7).unwrap())),
            ]);
            let mut layer =
                BroadcastLayer::with_channel(41, BroadcastConfig::push_pull(2, 3), fault);
            layer.seed_rumor_at(NodeId::new(7));
            layer.run(&mut sim, 6);
            for id in (1..96).step_by(4) {
                assert!(sim.leave(NodeId::new(id)), "{id} is live");
            }
            layer.run(&mut sim, 18);
            let stats = layer.stats();
            assert!(stats.pull_hits > 0 && stats.dead_letters > 0, "{stats:?}");
            layer.fingerprint()
        }
        let nodes = || topology::circulant(96, SfConfig::new(16, 6).unwrap(), 8);
        assert_eq!(run(flat(96, 41)), 0x1b93_a865_a2e6_541c);
        for threads in [1, 2] {
            assert_eq!(
                run(ParSimulation::new(nodes(), UniformLoss::none(), 41, threads)),
                0x81e6_cbc5_aeb2_e2e4
            );
        }
    }
}
