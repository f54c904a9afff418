//! The serial schedule: the paper's central-entity scheduler, run by the
//! engine shell [`ArenaSim`] over the shared slot [`Arena`].
//!
//! [`FlatSimulation`] is the shell under this schedule. The shell owns the
//! arena (see [`crate::arena`] for the storage layout and the `u64`-id
//! widening boundary), the fault and the stats; what this module owns is
//! the part that makes it *that* engine:
//!
//! * **one channel** — every send and reply draws its loss on the one
//!   fault channel the schedule keeps, so a `bursty` chain is one chain for
//!   all senders;
//! * **central-entity scheduler** — one global RNG; each step draws a
//!   uniformly random live node (the paper's §5 execution model). The live
//!   order is insertion order with `swap_remove` on leave, because the
//!   initiator draw indexes into it. Until the first `leave` that order is
//!   the dense order itself (the arena admits in insertion order and joins
//!   append), so no list exists: position `p` of the draw *is* dense index
//!   `p`, the step goes from the draw straight to the initiator's row, and
//!   a join extends the order by itself. The first `leave` materializes
//!   it once, in O(n): the live list, which packs each node's raw id next
//!   to its dense arena index so the stepping path never touches the id →
//!   dense table, and beside it `live_pos`, the inverse map from dense
//!   index to position in the list. From then on admitting a node is one
//!   `push` on each, and `leave` is O(1) — look the position up,
//!   `swap_remove` it, re-point the one entry that moved
//!   (`tests/churn_index.rs` holds it to an O(live) scan);
//! * **due-time delivery** — under
//!   [`DelayModel::UniformSteps`](crate::DelayModel::UniformSteps) (S&F
//!   only, bound in steps) a message waits in the shell's in-flight queue
//!   and is delivered at the start of the step it is due;
//! * **branch-light stepping** — the delivery drain is a single counter
//!   check per step while nothing is in flight;
//! * **reports on request** — `step` returns the action's report;
//!   [`step_into`](FlatSimulation::step_into) and
//!   [`settle_into`](FlatSimulation::settle_into) run the same step and
//!   settle and append every report they make to the caller's buffer
//!   (the due deliveries, the action, then any reply it triggered), which
//!   is how a caller journals a run. The engine stores no observer.
//!
//! # Protocol genericity
//!
//! The engine is generic over a [`ProtocolBehavior`] `B`, defaulting to
//! [`SfBehavior`] — the paper's S&F protocol. The behavior owns the view
//! algebra (initiate / receive over a [`SlotView`](crate::SlotView) window
//! into the arena); the engine owns scheduling, the lossy channel, and the
//! system-wide stats. Every hop is the shell's: an action goes through
//! its one action hop on the global RNG (what this schedule adds is the
//! initiator draw, and delivering inline the message the hop returns due
//! now), and a delivery through its one delivery hop, timed under
//! `sim.profile.deliver_ns`. Protocols
//! that reply (push-pull, shuffle) route the reply back through the
//! channel at once — one loss draw on the global RNG, then the shell's one
//! reply hop — and a reply gets no reply, so an action is at most two
//! hops. S&F never replies, so the reply hop is dead code on the default
//! path, and only S&F is delayed.
//!
//! # What holds it
//!
//! The engine's draw sequence (initiator pick, two-distinct-slot pick,
//! loss decision, delay sampling, nth-empty-slot receive placement) is
//! pinned byte for byte by the goldens of
//! `crates/bench/tests/flat_equivalence.rs` and the evaluation tables; its
//! one-step law, for every behavior, is held to the exact law enumerated
//! from the behavior code by `tests/exact_step_law.rs`.
//!
//! ```
//! use sandf_core::SfConfig;
//! use sandf_sim::{topology, Engine, FlatSimulation, UniformLoss};
//!
//! let config = SfConfig::new(16, 6)?;
//! let nodes = topology::circulant(10_000, config, 8);
//! let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01)?, 42);
//! sim.run_rounds(5);
//! assert_eq!(sim.stats().actions, 50_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_obs::{duration_buckets, HistogramHandle, MetricsRegistry, SpanTimer};

use crate::arena::Arena;
use crate::engine::{StepEvent, StepPhase, StepReport};
use crate::fault::{FaultCtx, FaultModel};
use crate::shell::{action_hop, deliver_hop, reply_hop, ArenaSim, HopOutcome, Schedule};
use crate::traits::{Engine, ProtocolBehavior, SfBehavior};

/// The serial central-entity engine: the shell [`ArenaSim`] under the
/// `Flat` schedule, generic over a [`ProtocolBehavior`] (default:
/// [`SfBehavior`]).
///
/// The module-level comment at the top of `flat.rs` spells out the
/// scheduler, the protocol genericity and what holds the engine to the
/// spec, and `arena.rs` the storage layout.
///
/// All views live in one contiguous `n × s` slot arena (`u32::MAX` marks
/// an empty slot, each slot word carries its id and its flag bits),
/// outdegrees are a dense array, counters are kept once, system-wide, in
/// [`SimStats`](crate::SimStats), and a delayed message waits in the
/// shell's in-flight queue.
///
/// ```
/// use sandf_core::SfConfig;
/// use sandf_sim::{topology, Engine, FlatSimulation, UniformLoss};
///
/// let config = SfConfig::new(16, 6)?;
/// let nodes = topology::circulant(10_000, config, 8);
/// let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01)?, 42);
/// sim.run_rounds(5);
/// assert_eq!(sim.stats().actions, 50_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A clone shares an attached profiler.
pub type FlatSimulation<L, B = SfBehavior> = ArenaSim<Flat<<L as FaultModel>::Channel>, L, B>;

/// One live-list entry: a node's raw id packed next to its dense arena
/// index, so resolving a drawn initiator costs no extra random read of
/// the id → dense table. Dense indices are stable (the arena never
/// compacts), so the pairing cannot go stale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct LiveRef {
    id: u32,
    dense: u32,
}

impl LiveRef {
    /// Pairs an admitted node's id with its dense index.
    fn new(arena: &Arena, k: usize) -> Self {
        let dense = u32::try_from(k).expect("the arena bounds dense indices below u32::MAX");
        Self { id: arena.dense_id[k], dense }
    }

    #[inline]
    fn node_id(self) -> NodeId {
        NodeId::new(u64::from(self.id))
    }
}

/// A live-list position as a `live_pos` word.
#[inline]
fn pos_word(pos: usize) -> u32 {
    u32::try_from(pos).expect("the live list is no longer than the dense index space")
}

/// The initiator-sampling population, in live order.
#[derive(Clone)]
enum LiveOrder {
    /// No node has left yet: the order is the arena's dense order, every
    /// dense index is live, and a join extends it by itself.
    Dense,
    /// Materialized by the first `leave`.
    Listed {
        /// Live (id, dense) pairs in live order (insertion order with
        /// `swap_remove` on leave).
        live: Vec<LiveRef>,
        /// Dense index → position in `live`, one word per dense node. A
        /// departed node's word is stale, and no lookup reaches it: the
        /// arena's `dense_of` answers `None` first.
        live_pos: Vec<u32>,
    },
}

impl LiveOrder {
    /// The live nodes' dense indices in live order, over an arena of
    /// `dense_len` nodes.
    fn dense_indices(&self, dense_len: usize) -> impl Iterator<Item = usize> + '_ {
        let (listed, dense) = match self {
            Self::Dense => (&[][..], 0..dense_len),
            Self::Listed { live, .. } => (live.as_slice(), 0..0),
        };
        listed.iter().map(|entry| entry.dense as usize).chain(dense)
    }
}

/// Span histograms for flat's hot paths, when a profiler is attached.
/// Clones share the histograms.
#[derive(Clone, Debug)]
struct StepProfile {
    step: HistogramHandle,
    deliver: HistogramHandle,
}

/// The central-entity schedule's own state, beside what the shell owns:
/// the live order, the global RNG, the one fault channel `C` and how far
/// the queue is drained.
#[derive(Clone)]
pub struct Flat<C> {
    /// The live order the initiator draw indexes into.
    order: LiveOrder,
    rng: StdRng,
    /// The fault channel every send and reply draws on.
    channel: C,
    /// All delivery times `≤ drained_to` have been drained.
    drained_to: u64,
    /// Hot-path span histograms, when a profiler is attached.
    profile: Option<StepProfile>,
}

impl<C: Default> Flat<C> {
    /// A fresh schedule over a freshly built arena: every node live, in
    /// dense (= insertion) order, and a fresh channel.
    fn seeded(seed: u64) -> Self {
        Self {
            order: LiveOrder::Dense,
            rng: StdRng::seed_from_u64(seed),
            channel: C::default(),
            drained_to: 0,
            profile: None,
        }
    }
}

impl<L: FaultModel, B: ProtocolBehavior> Schedule<L, B> for Flat<L::Channel> {
    fn round(sim: &mut FlatSimulation<L, B>) {
        sim.round();
    }

    fn settle(sim: &mut FlatSimulation<L, B>) {
        sim.settle();
    }

    fn live_dense(sim: &FlatSimulation<L, B>) -> impl Iterator<Item = usize> + '_ {
        sim.sched.order.dense_indices(sim.arena.dense_id.len())
    }

    /// Appends a node the arena just admitted to the live order: nothing
    /// to do while it is the dense order; otherwise joins take the next
    /// dense index, so its `live_pos` word is a push too.
    fn admit(sim: &mut FlatSimulation<L, B>, k: usize) {
        if let LiveOrder::Listed { live, live_pos } = &mut sim.sched.order {
            debug_assert_eq!(k, live_pos.len());
            live_pos.push(pos_word(live.len()));
            live.push(LiveRef::new(&sim.arena, k));
        }
    }

    /// The first departure materializes the live list and `live_pos` from
    /// the dense order, once, in O(n); every departure then swap-removes
    /// its entry in O(1).
    fn leave(sim: &mut FlatSimulation<L, B>, k: usize) {
        if let LiveOrder::Dense = sim.sched.order {
            let arena = &sim.arena;
            let dense_len = arena.dense_id.len();
            sim.sched.order = LiveOrder::Listed {
                live: (0..dense_len).map(|k| LiveRef::new(arena, k)).collect(),
                live_pos: (0..dense_len).map(pos_word).collect(),
            };
        }
        let LiveOrder::Listed { live, live_pos } = &mut sim.sched.order else {
            unreachable!("materialized above")
        };
        let pos = live_pos[k] as usize;
        debug_assert_eq!(live[pos].dense as usize, k, "live_pos out of sync");
        live.swap_remove(pos);
        if let Some(moved) = live.get(pos) {
            live_pos[moved.dense as usize] = pos_word(pos);
        }
    }

    fn join_rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

impl<L: FaultModel> FlatSimulation<L, SfBehavior> {
    /// Creates a flat S&F simulation over the given nodes with a seeded
    /// RNG.
    ///
    /// Accepts any node iterator and builds the arena in one streaming
    /// pass, so at large `n` (e.g. `topology::circulant_iter` at 10⁷
    /// nodes) construction never materializes the boxed node set — the
    /// peak footprint is the arena itself, not `n` heap nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, contains duplicate ids, mixes
    /// configurations, or uses an id at or above
    /// [`ARENA_ID_LIMIT`](crate::ARENA_ID_LIMIT) (the arena stores an id
    /// and its flag bits in one `u32` word, with `u32::MAX` reserved for
    /// empty slots).
    #[must_use]
    pub fn new(nodes: impl IntoIterator<Item = SfNode>, loss: L, seed: u64) -> Self {
        Self::over(Arena::from_nodes(nodes), SfBehavior, loss, Flat::seeded(seed))
    }
}

impl<L: FaultModel, B: ProtocolBehavior> FlatSimulation<L, B> {
    /// Creates a flat simulation running an arbitrary
    /// [`ProtocolBehavior`] over initial views given as id lists (filled
    /// in slot order, untagged). `config` supplies the view size `s` and
    /// — through the behavior's hooks — the bootstrap parameters.
    ///
    /// This is the protocol zoo's entry point; the S&F constructor
    /// [`new`](FlatSimulation::new) remains the fast path for the paper's
    /// protocol.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty, contains duplicate ids, uses an id at
    /// or above [`ARENA_ID_LIMIT`](crate::ARENA_ID_LIMIT), or a view wider
    /// than `s`.
    #[must_use]
    pub fn from_views(
        behavior: B,
        config: SfConfig,
        views: Vec<(NodeId, Vec<NodeId>)>,
        loss: L,
        seed: u64,
    ) -> Self {
        Self::over(Arena::from_views(config, views), behavior, loss, Flat::seeded(seed))
    }

    /// Attaches hot-path profiling under the `sim.profile.*` span names:
    /// `sim.profile.step_ns` and `sim.profile.deliver_ns`.
    pub fn attach_profiler(&mut self, registry: &MetricsRegistry) {
        self.sched.profile = Some(StepProfile {
            step: registry.histogram("sim.profile.step_ns", duration_buckets()),
            deliver: registry.histogram("sim.profile.deliver_ns", duration_buckets()),
        });
    }

    /// Executes one step by a uniformly random live node (the paper's
    /// central-entity model).
    pub fn step(&mut self) -> StepReport<B::Msg> {
        let (id, k) = self.draw();
        self.step_impl(id, k, None)
    }

    /// Executes one step, as [`step`](Self::step) does, and appends every
    /// report it makes to `reports`: the deliveries due at it, then its
    /// action, then the reply an immediate delivery triggered.
    pub fn step_into(&mut self, reports: &mut Vec<StepReport<B::Msg>>) {
        let (id, k) = self.draw();
        self.step_impl(id, k, Some(reports));
    }

    /// The initiator draw: a uniformly random live node, with its dense
    /// arena index.
    #[inline]
    fn draw(&mut self) -> (NodeId, usize) {
        match &self.sched.order {
            LiveOrder::Dense => {
                let k = self.sched.rng.gen_range(0..self.arena.dense_id.len());
                (self.arena.id_at(k), k)
            }
            LiveOrder::Listed { live, .. } => {
                let entry = live[self.sched.rng.gen_range(0..live.len())];
                (entry.node_id(), entry.dense as usize)
            }
        }
    }

    /// The stepping core: one action by the live node `initiator`, whose
    /// dense arena index `k` the caller already holds (from the draw, the
    /// packed live list, or the permuted round's order), through the
    /// shell's [`action_hop`] on the global RNG. A message due now is
    /// delivered inline; a delayed one joins the in-flight queue. Every
    /// report goes to `reports` when the caller asked for them.
    #[inline]
    fn step_impl(
        &mut self,
        initiator: NodeId,
        k: usize,
        mut reports: Option<&mut Vec<StepReport<B::Msg>>>,
    ) -> StepReport<B::Msg> {
        let _span = self.sched.profile.as_ref().map(|p| SpanTimer::start(&p.step));
        self.steps += 1;
        self.deliver_due(reports.as_deref_mut());
        let (arena, behavior) = (&mut self.arena, &self.behavior);
        let (rng, stats, clock) = (&mut self.sched.rng, &mut self.stats, (self.rounds, self.steps));
        let fault = (&self.loss, &mut self.sched.channel);
        let mut event =
            action_hop::<B, _>(initiator, fault, rng, stats, clock, self.delay, |rng| {
                arena.initiate(behavior, k, rng)
            });
        // The report of the reply an immediate delivery triggered; it
        // causally follows the action report, so it is reported after it.
        let mut chained: Option<StepReport<B::Msg>> = None;
        if let StepEvent::InFlight { to, message, deliver_at, .. } = event {
            if deliver_at == self.steps {
                let reply;
                (event, reply) = self.deliver(to, message);
                chained = reply.map(|reply| self.route_reply(reply));
            } else {
                self.queue.push(deliver_at, to, message);
            }
        }
        let report = StepReport { initiator, event, phase: StepPhase::Action, step: self.steps };
        if let Some(reports) = reports {
            reports.push(report);
            reports.extend(chained);
        }
        report
    }

    /// Delivers one message hop at `to` through the shell's
    /// [`deliver_hop`], timed under `sim.profile.deliver_ns`.
    #[inline]
    fn deliver(&mut self, to: NodeId, message: B::Msg) -> HopOutcome<B::Msg> {
        let _span = self.sched.profile.as_ref().map(|p| SpanTimer::start(&p.deliver));
        let rng = &mut self.sched.rng;
        deliver_hop(&mut self.arena, &self.behavior, &mut self.stats, to, message, rng)
    }

    /// Routes a reply back through the channel, delivered at once: one
    /// loss draw on the global RNG, then the shell's [`reply_hop`], its
    /// delivery timed like any other. A reply gets no reply, so this is
    /// the action's last hop. Out of line — S&F never replies.
    #[cold]
    #[inline(never)]
    fn route_reply(&mut self, reply: (NodeId, B::Msg)) -> StepReport<B::Msg> {
        let ctx = FaultCtx { from: B::sender(&reply.1), to: reply.0, round: self.rounds };
        let lost = self.loss.drops(&mut self.sched.channel, ctx, &mut self.sched.rng);
        let profile = self.sched.profile.as_ref().filter(|_| !lost);
        let _span = profile.map(|p| SpanTimer::start(&p.deliver));
        let (arena, stats, rng) = (&mut self.arena, &mut self.stats, &mut self.sched.rng);
        let event = reply_hop(arena, &self.behavior, stats, reply, lost, rng);
        StepReport {
            initiator: B::sender(&reply.1),
            event,
            phase: StepPhase::Delivery,
            step: self.steps,
        }
    }

    /// Drains every bucket whose delivery time has arrived, in increasing
    /// time order, reporting each delivery to `reports` when given. It
    /// costs one counter check when nothing is in flight.
    fn deliver_due(&mut self, mut reports: Option<&mut Vec<StepReport<B::Msg>>>) {
        if self.queue.is_empty() {
            self.sched.drained_to = self.steps;
            return;
        }
        for t in self.sched.drained_to + 1..=self.steps {
            let Some(batch) = self.queue.take(t) else { continue };
            for &(to, message) in &batch {
                let (event, reply) = self.deliver(to, message);
                debug_assert!(reply.is_none(), "only S&F is delayed, and S&F never replies");
                if let Some(out) = reports.as_deref_mut() {
                    out.push(StepReport {
                        initiator: B::sender(&message),
                        event,
                        phase: StepPhase::Delivery,
                        step: self.steps,
                    });
                }
            }
            self.queue.restore(t, batch);
        }
        self.sched.drained_to = self.steps;
    }

    /// Delivers every message still in flight, advancing the step clock to
    /// the last scheduled delivery — call before taking an
    /// end-of-experiment snapshot of a delayed simulation.
    pub fn settle(&mut self) {
        self.settle_impl(None);
    }

    /// Settles, as [`settle`](Self::settle) does, and appends a report of
    /// each delivery to `reports`, in delivery order.
    pub fn settle_into(&mut self, reports: &mut Vec<StepReport<B::Msg>>) {
        self.settle_impl(Some(reports));
    }

    /// The settling core, reporting each delivery to `reports` when given.
    fn settle_impl(&mut self, reports: Option<&mut Vec<StepReport<B::Msg>>>) {
        // Everything in flight is due in `(drained_to, drained_to + span]`.
        let drained = self.sched.drained_to;
        let Some(last) =
            (drained + 1..=drained + self.queue.span()).rev().find(|&t| self.queue.holds(t))
        else {
            return;
        };
        self.steps = self.steps.max(last);
        self.deliver_due(reports);
    }

    /// Executes one round: `n` steps by uniformly random nodes.
    pub fn round(&mut self) {
        for _ in 0..self.len() {
            self.step();
        }
        self.rounds += 1;
    }

    /// Executes one round in which every live node initiates exactly once,
    /// in a fresh random order.
    pub fn round_permuted(&mut self) {
        let mut order: Vec<usize> = self.live_dense().collect();
        order.shuffle(&mut self.sched.rng);
        for k in order {
            let id = self.arena.id_at(k);
            if self.arena.dense_of(id).is_some() {
                self.step_impl(id, k, None);
            }
        }
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use sandf_core::JoinError;

    use crate::engine::DelayModel;
    use crate::loss::UniformLoss;
    use crate::topology;
    use crate::traits::ARENA_ID_LIMIT;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn nodes() -> Vec<SfNode> {
        topology::circulant(24, config(), 4)
    }

    /// The scheduler's index invariant, in full (O(live), so a test-only
    /// check; `leave` and `admit` carry its O(1) `debug_assert!` slices).
    /// Before any departure: no list, and every dense index is live and
    /// in the arena's order. After: one `live_pos` word per dense node,
    /// and every live entry's word points back at that entry.
    fn assert_live_index<L: FaultModel, B: ProtocolBehavior>(sim: &FlatSimulation<L, B>) {
        match &sim.sched.order {
            LiveOrder::Dense => {
                let all = 0..sim.arena.dense_id.len();
                assert!(sim.arena.live_dense().eq(all.clone()), "a node left, yet no list");
                assert!(sim.live_dense().eq(all), "the dense order is the live order");
            }
            LiveOrder::Listed { live, live_pos } => {
                assert_eq!(live_pos.len(), sim.arena.dense_id.len(), "one word per dense node");
                assert_eq!(live.len(), sim.arena.live_dense().count(), "live count");
                for (pos, entry) in live.iter().enumerate() {
                    assert_eq!(
                        live_pos[entry.dense as usize] as usize, pos,
                        "live_pos of {entry:?}"
                    );
                    assert_eq!(sim.arena.dense_of(entry.node_id()), Some(entry.dense as usize));
                }
            }
        }
        assert_eq!(sim.len() as u64, sim.arena.degree_hist.live_nodes(), "len");
    }

    /// Appends the engine's observable state to `out`: stats, live count,
    /// in-flight count and live order, then each live node's view in id
    /// order. Checks the scheduler's index on the way. The `CLASSIC_*`
    /// digests below are FNV-1a-64 hashes of transcripts in exactly this
    /// layout. They descend from the classic `Simulation` (the per-node
    /// reference engine, since deleted): its transcripts also carried the
    /// aggregate and per-node counters, and flat matched them while it ran
    /// in lockstep with it. When the arena dropped its per-node counters,
    /// the last engine that kept them was checked against those full
    /// digests and then transcribed again without the counters, on the same
    /// runs, to give the digests below; flat matching them is flat matching
    /// that engine state for state.
    fn transcribe<L: FaultModel>(sim: &FlatSimulation<L>, out: &mut String) {
        use std::fmt::Write;
        assert_live_index(sim);
        let mut live = sim.live_ids();
        writeln!(out, "{:?}|{}|{}|{live:?}", sim.stats(), sim.len(), sim.in_flight()).unwrap();
        live.sort_unstable();
        for id in live {
            writeln!(out, "{id:?}:{:?}", sim.node_view(id).unwrap()).unwrap();
        }
    }

    fn assert_classic(transcript: &str, classic: u64, case: &str) {
        let digest = crate::stream::fnv1a64(transcript.bytes());
        assert_eq!(digest, classic, "{case}: flat diverged from the classic engine's run");
    }

    #[test]
    fn flat_equals_classic_over_uniform_loss() {
        const CLASSIC: [(u64, u64); 3] = [
            (1, 0x796a_8cc8_0a8b_b4e2),
            (33, 0x9c6b_ac8c_f9f5_9547),
            (2009, 0x81c8_a603_46de_5b4e),
        ];
        for (seed, classic) in CLASSIC {
            let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), seed);
            let mut out = String::new();
            for _ in 0..40 {
                flat.round();
                transcribe(&flat, &mut out);
            }
            assert_classic(&out, classic, &format!("seed {seed}"));
        }
    }

    #[test]
    fn flat_equals_classic_over_bursty_loss() {
        const CLASSIC: [(u64, u64); 2] = [(7, 0x1135_b1d0_f08d_133f), (21, 0x6067_e3b6_8668_81ae)];
        let loss = || crate::loss::GilbertElliott::new(0.05, 0.2, 0.01, 0.5).unwrap();
        for (seed, classic) in CLASSIC {
            let mut flat = FlatSimulation::new(nodes(), loss(), seed);
            flat.run_rounds(60);
            let mut out = String::new();
            transcribe(&flat, &mut out);
            assert_classic(&out, classic, &format!("seed {seed}"));
        }
    }

    #[test]
    fn flat_equals_classic_under_delay_and_settle() {
        use std::fmt::Write;
        const CLASSIC: [(u64, u64); 2] = [(3, 0x22ca_cbd1_0ce7_c5e7), (17, 0x6c5b_c6f9_f22c_8032)];
        let delay = DelayModel::UniformSteps { max: 40 };
        for (seed, classic) in CLASSIC {
            let mut flat =
                FlatSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), seed).delayed(delay);
            let mut out = String::new();
            for _ in 0..1_500 {
                writeln!(out, "{:?}", flat.step()).unwrap();
            }
            assert!(flat.in_flight() > 0, "no message was ever in flight");
            transcribe(&flat, &mut out);
            flat.settle();
            assert_eq!(flat.in_flight(), 0);
            transcribe(&flat, &mut out);
            assert_classic(&out, classic, &format!("seed {seed}"));
        }
    }

    #[test]
    fn flat_equals_classic_under_churn() {
        use std::fmt::Write;
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.02).unwrap(), 11);
        flat.run_rounds(10);
        let mut out = String::new();
        for round in 0..30 {
            let victim = flat.live_ids()[round % flat.len()];
            assert!(flat.leave(victim).is_some());
            let sponsor = flat.live_ids()[0];
            let joiner = flat.join_via(sponsor).unwrap();
            writeln!(out, "{victim:?}->{joiner:?}").unwrap();
            flat.round();
            transcribe(&flat, &mut out);
        }
        assert_classic(&out, 0x1939_9ea5_4c9f_8fec, "seed 11");
        assert!(flat.stats().dead_letters > 0, "churn should produce dead letters");
    }

    #[test]
    fn flat_equals_classic_in_permuted_rounds() {
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 13);
        for _ in 0..20 {
            flat.round_permuted();
        }
        let mut out = String::new();
        transcribe(&flat, &mut out);
        assert_classic(&out, 0x8932_93e5_333e_b8ed, "seed 13");
        assert_eq!(flat.stats().actions, 20 * 24);
    }

    #[test]
    fn flat_report_stream_matches_classic() {
        use std::fmt::Write;
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 5);
        let mut out = String::new();
        for _ in 0..600 {
            writeln!(out, "{:?}", flat.step()).unwrap();
        }
        assert_classic(&out, 0xf6f1_d4dc_b15c_2b64, "seed 5");
    }

    #[test]
    fn flat_equals_classic_under_scheduled_faults() {
        use std::fmt::Write;

        use crate::fault::tests::mixed_schedule;
        const CLASSIC: [(u64, u64); 2] =
            [(3, 0x90e5_0771_a6a9_346a), (2009, 0x5cf8_7d32_5771_fb39)];
        for (seed, classic) in CLASSIC {
            let mut flat = FlatSimulation::new(nodes(), mixed_schedule(), seed);
            let mut out = String::new();
            for _ in 0..40 {
                flat.round();
                writeln!(out, "{}", flat.rounds_run()).unwrap();
                transcribe(&flat, &mut out);
            }
            assert_classic(&out, classic, &format!("seed {seed}"));
            let s = *flat.stats();
            assert!(s.skipped > 0, "capacity phase never skipped a step");
            assert!(s.lost > 0, "schedule never lost a message");
        }
    }

    /// The one chain is shared by every sender, and each `bursty` phase
    /// starts it in the good state.
    #[test]
    fn each_bursty_phase_starts_the_one_chain_good() {
        let mut flat = FlatSimulation::new(nodes(), crate::fault::tests::two_bursty_phases(4), 5);
        flat.run_rounds(4);
        let first = *flat.stats();
        assert!(first.sent > 0 && first.lost == first.sent, "the first phase loses every send");
        assert_eq!(flat.sched.channel, (0, true), "the chain turned bad");
        flat.run_rounds(10);
        assert!(flat.stats().sent > first.sent);
        assert_eq!(flat.stats().lost, first.lost, "the second phase's chain started bad");
    }

    /// Every shape of `leave` against a reference live list (insertion
    /// order, `swap_remove` on leave, found by scan), with the index
    /// invariant checked after each: first, last and middle entry, a node
    /// that just joined, ids that already left or never existed (`None`,
    /// nothing moves), a clone that then diverges, and down to empty.
    #[test]
    fn live_pos_tracks_every_leave_shape() {
        type Flat = FlatSimulation<UniformLoss>;
        let leave = |model: &mut Vec<NodeId>, flat: &mut Flat, id: NodeId| {
            let view = flat.node_view(id);
            let departed = flat.leave(id);
            assert_eq!(departed.map(|n| n.view().clone()), view, "leave({id})");
            if let Some(pos) = model.iter().position(|&x| x == id) {
                model.swap_remove(pos);
            }
            assert_eq!(flat.live_ids(), *model, "live order after leave({id})");
            assert_live_index(flat);
        };
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::none(), 5);
        let mut model = flat.live_ids();
        assert!(matches!(flat.sched.order, LiveOrder::Dense), "no list before the first leave");
        for pick in [0usize, 22, 11] {
            let victim = model[pick];
            leave(&mut model, &mut flat, victim);
            assert!(matches!(flat.sched.order, LiveOrder::Listed { .. }), "the first leave lists");
        }
        let joined = flat.join_via(NodeId::new(1)).unwrap();
        model.push(joined);
        assert_eq!(flat.live_ids(), model);
        assert_live_index(&flat);
        for id in [joined, joined, NodeId::new(0), NodeId::new(999), NodeId::new(1 << 40)] {
            leave(&mut model, &mut flat, id);
        }
        let (mut model2, mut flat2) = (model.clone(), flat.clone());
        leave(&mut model2, &mut flat2, NodeId::new(7));
        model2.push(flat2.join_via(NodeId::new(2)).unwrap());
        assert_eq!(flat2.live_ids(), model2);
        assert_live_index(&flat2);
        assert_eq!(flat.live_ids(), model, "the clone's departures stay its own");
        while let Some(&victim) = model.last() {
            leave(&mut model, &mut flat, victim);
        }
        assert!(flat.is_empty());
    }

    #[test]
    fn step_into_hands_over_the_returned_reports() {
        // `step_into` runs the step `step` runs, and its stream is the
        // returned one, with each delayed delivery reported once, in its
        // own phase.
        let build = || {
            FlatSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 23)
                .delayed(DelayModel::UniformSteps { max: 20 })
        };
        let (mut sim, mut twin) = (build(), build());
        let mut log = Vec::new();
        for _ in 0..400 {
            sim.step_into(&mut log);
        }
        let returned: Vec<StepReport> = (0..400).map(|_| twin.step()).collect();
        sim.settle_into(&mut log);
        twin.settle();
        assert_eq!(sim.stats(), twin.stats(), "asking for reports moved the run");
        let (actions, deliveries): (Vec<StepReport>, Vec<StepReport>) =
            log.iter().partition(|r| r.phase == StepPhase::Action);
        assert_eq!(actions, returned, "handed-over action reports diverged");
        let s = sim.stats();
        assert_eq!(deliveries.len() as u64, s.stored + s.deleted + s.dead_letters);
        assert!(log.windows(2).all(|w| w[0].step <= w[1].step), "reports out of step order");
    }

    #[test]
    fn delayed_messages_conserve_the_ledger() {
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 3)
            .delayed(DelayModel::UniformSteps { max: 40 });
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
    fn flat_simulation_is_send_and_replicates() {
        fn assert_send<T: Send>(_: &T) {}
        let sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        assert_send(&sim);
        let sim = sim.run_replicate(5, 5);
        assert_eq!(sim.stats().actions, 5 * 24);
    }

    #[test]
    fn attached_profiler_records_spans() {
        let registry = MetricsRegistry::new();
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 31);
        sim.attach_profiler(&registry);
        sim.run_rounds(2);
        let hist = registry.histogram("sim.profile.step_ns", sandf_obs::duration_buckets());
        assert_eq!(hist.count(), sim.stats().actions);
    }

    #[test]
    fn to_nodes_roundtrips_through_a_rebuilt_engine() {
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 77);
        flat.run_rounds(25);
        // An engine rebuilt from the arena holds the same views slot by
        // slot, dependence tags included, and the same degree ledgers.
        let rebuilt = FlatSimulation::new(flat.to_nodes(), UniformLoss::new(0.1).unwrap(), 99);
        assert_eq!(rebuilt.live_ids(), flat.live_ids());
        for id in flat.live_ids() {
            assert_eq!(rebuilt.node_view(id), flat.node_view(id), "view of {id}");
        }
        assert_eq!(rebuilt.degree_stats(), flat.degree_stats());
        let tagged = flat.to_nodes().iter().any(|n| n.view().entries().any(|e| e.dependent));
        assert!(tagged, "no dependence tag to carry over");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_node_set() {
        let _ = FlatSimulation::new(Vec::new(), UniformLoss::none(), 0);
    }

    #[test]
    #[should_panic(expected = "delay bound")]
    fn zero_delay_bound_is_rejected() {
        let _ = FlatSimulation::new(nodes(), UniformLoss::none(), 0)
            .delayed(DelayModel::UniformSteps { max: 0 });
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn delay_after_the_first_step_is_rejected() {
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 0);
        sim.step();
        let _ = sim.delayed(DelayModel::UniformSteps { max: 4 });
    }

    /// A delayed message is delivered at the start of the very step it is
    /// due, also after a stretch with nothing in flight (here: the first
    /// 60 steps lose every message, more than a lap of the 9-bucket
    /// queue).
    #[test]
    fn delayed_messages_arrive_on_their_due_step() {
        use std::collections::BTreeMap;
        let mut log = Vec::new();
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::new(1.0).unwrap(), 29)
            .delayed(DelayModel::UniformSteps { max: 8 });
        for _ in 0..60 {
            sim.step_into(&mut log);
        }
        assert_eq!(sim.in_flight(), 0);
        sim.update_fault(|f| *f = UniformLoss::none());
        for _ in 0..2_000 {
            sim.step_into(&mut log);
        }
        let mut due: BTreeMap<u64, i64> = BTreeMap::new();
        for report in &log {
            match (report.phase, report.event) {
                (StepPhase::Action, StepEvent::InFlight { deliver_at, .. })
                    if deliver_at <= 2_060 =>
                {
                    *due.entry(deliver_at).or_default() += 1;
                }
                (StepPhase::Delivery, _) => *due.entry(report.step).or_default() -= 1,
                _ => {}
            }
        }
        assert!(due.values().all(|&d| d == 0), "deliveries off their due steps: {due:?}");
        let s = sim.stats();
        assert!(s.stored + s.deleted > 100, "too few deliveries to tell: {s:?}");
    }

    #[test]
    fn from_views_builds_a_runnable_zoo_arena() {
        let n = 12u64;
        let views: Vec<(NodeId, Vec<NodeId>)> = (0..n)
            .map(|i| (NodeId::new(i), vec![NodeId::new((i + 1) % n), NodeId::new((i + 2) % n)]))
            .collect();
        // S&F itself through the generic constructor: d_l = 4 > initial
        // degree 2, so every node starts in the duplication regime.
        let mut sim =
            FlatSimulation::from_views(SfBehavior, config(), views, UniformLoss::none(), 9);
        assert_eq!(sim.len(), 12);
        assert_eq!(sim.out_degree_of(NodeId::new(0)), Some(2));
        sim.run_rounds(20);
        let s = sim.stats();
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
        assert_eq!(s.replies, 0, "S&F never replies");
        assert!(sim.graph().is_weakly_connected());
    }

    /// A reply that replies breaks the [`ProtocolBehavior`] contract, and
    /// the reply hop fails loudly instead of routing it.
    #[test]
    #[should_panic(expected = "a reply got a reply")]
    fn a_reply_that_replies_panics() {
        let (config, views) = crate::shell::tests::ring(4);
        let rogue = crate::shell::tests::Ping(true);
        FlatSimulation::from_views(rogue, config, views, UniformLoss::none(), 1).step();
    }

    #[test]
    fn a_rejected_join_leaves_the_scheduler_untouched() {
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        // Congruent to live id 3 modulo 2^32: a truncating store would
        // alias it onto node 3 (and did, in release builds).
        let wide = [NodeId::new((1 << 32) + 3); 4];
        assert_eq!(
            sim.join_with(&wide),
            Err(JoinError::IdSpaceExhausted { next: (1 << 32) + 3, limit: ARENA_ID_LIMIT })
        );
        assert_eq!(sim.len(), 24);
        assert_eq!(sim.degree_stats().live_nodes(), 24);
        assert_eq!(sim.count_id_instances(NodeId::new(3)), 4);
    }
}
