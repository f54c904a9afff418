//! Adversarial fault models beyond i.i.d. loss.
//!
//! The paper's analysis assumes *uniform i.i.d. message loss*
//! (Section 4.1); [`LossModel`] captures exactly that surface plus the
//! bursty ablation ([`GilbertElliott`]). This module generalizes the
//! surface to **correlated, time-varying, and structural** faults — the
//! regimes where Obs 5.1 and the Lemma 6.10 decay bounds were never
//! proven to hold, and where the scenario harness in `sandf-bench` probes
//! whether they survive anyway:
//!
//! * [`RegionalPartition`] — the overlay splits into `r` regions for a
//!   window of rounds; cross-region messages are severed, then the
//!   partition heals;
//! * [`PerLinkLoss`] — loss is correlated *per directed link*: a fixed
//!   fraction of links is persistently bad, the rest persistently good
//!   (spatial correlation, unlike the temporal bursts of Gilbert–Elliott);
//! * [`NodeCapacity`] — heterogeneous node speeds: a fraction of nodes is
//!   slow and initiates only every `k`-th round (the fault is on *actions*,
//!   not messages);
//! * [`VictimLoss`] — targeted inbound loss on an explicit victim set
//!   (the harness points it at the highest-indegree nodes, the overlay's
//!   hubs).
//!
//! All of them implement the [`FaultModel`] trait, which both simulation
//! engines ([`FlatSimulation`](crate::FlatSimulation),
//! [`ParSimulation`](crate::ParSimulation)) are bound by. A blanket
//! impl lifts every [`LossModel`] into a [`FaultModel`], so existing code
//! and seeds are unchanged: a lifted model consumes the exact same RNG
//! draws as before.
//!
//! [`ScheduledFault`] composes per-phase models ([`PhaseFault`]) into a
//! round-indexed schedule — the compiled form of the declarative scenario
//! specs in `sandf_bench::scenario`.
//!
//! # The fault grammar
//!
//! [`FaultSpec`] is the one textual spelling of a fault, shared by every
//! surface that names one: a scenario spec's `phase` lines
//! (`sandf_bench::scenario`), the rumor channel mirroring a phase
//! ([`rumor_channel_for`](crate::rumor_channel_for)), and the live daemon's
//! `POST /ctl/fault` body (`sandf_daemon`). A fault is always written as a
//! phase — a duration in rounds, then the model and its positional
//! arguments — so a line means the same thing wherever it is sent:
//!
//! ```text
//! phase <rounds> <model> <args...>
//! ```
//!
//! | model | compiles to | semantics |
//! |---|---|---|
//! | `uniform <rate>` | [`UniformLoss`] | i.i.d. loss (the paper's model) |
//! | `bursty <to_bad> <to_good> <loss_good> <loss_bad>` | [`GilbertElliott`] | per-sender bursty channel |
//! | `partition <regions> <sever> <base>` | [`RegionalPartition`] | cross-region loss at `sever` for the phase window, then heal |
//! | `perlink <salt> <bad_fraction> <good_rate> <bad_rate>` | [`PerLinkLoss`] | persistent per-link quality |
//! | `capacity <salt> <slow_fraction> <period> <base>` | [`NodeCapacity`] | slow cohort acts every `period`-th round |
//! | `victims <count> <victim_rate> <base>` | [`VictimLoss`] | targeted loss on the `count` highest-indegree nodes, aimed at phase start |
//!
//! Rates are probabilities in `[0, 1]`; every argument is required.
//! [`FaultSpec::parse_phase`] is the only parser and the
//! [`Display`](std::fmt::Display) impl the only printer, so
//! `parse ∘ print = id` and a rejection is worded identically everywhere.
//!
//! # Determinism
//!
//! Models that need per-link or per-node randomness (`PerLinkLoss`,
//! `NodeCapacity`) derive it *statelessly* by hashing the salt and the ids
//! as little-endian words with the workspace's one FNV-1a ([`fnv1a64`], see
//! [`crate::stream`]) instead of drawing from the engine RNG, so a decision
//! depends only on the identities involved — never on evaluation order.
//! That is what keeps the par engine's sharded execution byte-identical for
//! any thread count under every model here.

use std::str::FromStr;

use rand::Rng;
use sandf_core::NodeId;

use crate::loss::{GilbertElliott, LossModel, LossRateError, UniformLoss};
use crate::stream::fnv1a64;

/// Maps a hash to a uniform `[0, 1)` fraction (53-bit mantissa).
#[inline]
fn hash_fraction(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Validates a probability, mirroring the [`LossModel`] constructors.
fn check_rate(rate: f64) -> Result<f64, LossRateError> {
    if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
        return Err(LossRateError { rate });
    }
    Ok(rate)
}

/// The identities of one message send, as seen by a [`FaultModel`].
///
/// `round` is the number of *completed* rounds when the send happens (the
/// flat engine counts [`round`](crate::FlatSimulation::round) /
/// [`round_permuted`](crate::FlatSimulation::round_permuted) calls; the par
/// engine counts its three-phase rounds), so schedules expressed in rounds
/// mean the same thing on both engines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultCtx {
    /// The sending node.
    pub from: NodeId,
    /// The intended receiver.
    pub to: NodeId,
    /// Rounds completed when the message was sent.
    pub round: u64,
}

/// The fault surface shared by both simulation engines.
///
/// A fault model decides, per message, whether the network [`drops`] it —
/// given the full send context ([`FaultCtx`]: sender, receiver, round) —
/// and, per `(node, round)`, whether a node gets to act at all
/// ([`node_acts`], the capacity gate). Every [`LossModel`] is a
/// `FaultModel` via the blanket impl (destination-only loss, every node
/// always acts), so the trait is a strict generalization.
///
/// Implementations may keep state, but models intended for the par engine
/// should derive per-link/per-node decisions statelessly from the context
/// (see the module docs) — the engine clones one channel per sender, so
/// order-dependent state is only locally consistent.
///
/// [`drops`]: FaultModel::drops
/// [`node_acts`]: FaultModel::node_acts
pub trait FaultModel {
    /// Returns `true` if the message described by `ctx` is lost.
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool;

    /// Whether `node` initiates an action in `round`. A `false` makes the
    /// engine skip the node's step entirely (counted in
    /// [`SimStats::skipped`](crate::SimStats::skipped), reported as
    /// [`StepEvent::Skipped`](crate::StepEvent::Skipped)); the default
    /// capacity gate is always open.
    fn node_acts(&self, _node: NodeId, _round: u64) -> bool {
        true
    }

    /// The long-run average message-loss rate, for analyses needing a
    /// scalar `ℓ` (e.g. the §6.2 degree-MC prediction). Time-varying
    /// models report their *final* (open-ended) regime.
    fn average_rate(&self) -> f64;
}

/// Every [`LossModel`] is a [`FaultModel`]: loss ignores the endpoints and
/// the capacity gate is always open. Lifted models consume exactly the RNG
/// draws of the underlying `is_lost`, which is what keeps pre-fault seeds
/// byte-identical.
impl<T: LossModel> FaultModel for T {
    fn drops<R: Rng + ?Sized>(&mut self, _ctx: FaultCtx, rng: &mut R) -> bool {
        self.is_lost(rng)
    }

    fn average_rate(&self) -> f64 {
        LossModel::average_rate(self)
    }
}

/// A regional partition for a window of rounds, then healing.
///
/// Nodes are split into `regions` regions by id (`id mod regions` — the
/// in-repo topologies assign contiguous ids, so regions are balanced).
/// During rounds `[start, start + duration)` every cross-region message is
/// lost with probability `sever` (1.0 = a hard partition); within a region
/// — and in every round outside the window — messages see the `base`
/// rate. This is the classic correlated failure the paper's i.i.d.
/// assumption excludes: losses are perfectly correlated with overlay
/// structure for the whole window.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegionalPartition {
    regions: u64,
    start: u64,
    duration: u64,
    sever: f64,
    base: f64,
}

impl RegionalPartition {
    /// Creates a partition of `regions` regions severed at rate `sever`
    /// during rounds `[start, start + duration)`, over a `base` uniform
    /// rate.
    ///
    /// # Errors
    ///
    /// Returns [`LossRateError`] for `sever` or `base` outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `regions < 2` (a one-region partition severs nothing).
    pub fn new(
        regions: u64,
        start: u64,
        duration: u64,
        sever: f64,
        base: f64,
    ) -> Result<Self, LossRateError> {
        assert!(regions >= 2, "a partition needs at least two regions");
        Ok(Self { regions, start, duration, sever: check_rate(sever)?, base: check_rate(base)? })
    }

    /// The region of a node.
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> u64 {
        node.as_u64() % self.regions
    }

    /// Whether the partition window covers `round`.
    #[must_use]
    pub fn active_in(&self, round: u64) -> bool {
        round >= self.start && round - self.start < self.duration
    }
}

impl FaultModel for RegionalPartition {
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool {
        let rate =
            if self.active_in(ctx.round) && self.region_of(ctx.from) != self.region_of(ctx.to) {
                self.sever
            } else {
                self.base
            };
        rate > 0.0 && rng.gen_bool(rate)
    }

    fn average_rate(&self) -> f64 {
        // The healed (open-ended) regime.
        self.base
    }
}

/// Spatially correlated loss: every *directed link* has a persistent
/// quality, drawn once from a hash of `(salt, from, to)`. A `bad_fraction`
/// of links loses at `bad_rate`; the rest at `good_rate`.
///
/// Unlike [`GilbertElliott`] (temporal correlation on a sender's channel),
/// the correlation here is spatial and permanent — the same pair of nodes
/// always sees the same link quality, independent of evaluation order,
/// which keeps the par engine thread-count-independent.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PerLinkLoss {
    salt: u64,
    bad_fraction: f64,
    good_rate: f64,
    bad_rate: f64,
}

impl PerLinkLoss {
    /// Creates a per-link model; `salt` decorrelates the link map across
    /// replicates (pass the replicate seed).
    ///
    /// # Errors
    ///
    /// Returns [`LossRateError`] for any probability outside `[0, 1]`.
    pub fn new(
        salt: u64,
        bad_fraction: f64,
        good_rate: f64,
        bad_rate: f64,
    ) -> Result<Self, LossRateError> {
        Ok(Self {
            salt,
            bad_fraction: check_rate(bad_fraction)?,
            good_rate: check_rate(good_rate)?,
            bad_rate: check_rate(bad_rate)?,
        })
    }

    /// Whether the directed link `from → to` is a bad one.
    #[must_use]
    pub fn link_is_bad(&self, from: NodeId, to: NodeId) -> bool {
        let words = [self.salt, from.as_u64(), to.as_u64()];
        hash_fraction(fnv1a64(words.into_iter().flat_map(u64::to_le_bytes))) < self.bad_fraction
    }
}

impl FaultModel for PerLinkLoss {
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool {
        let rate = if self.link_is_bad(ctx.from, ctx.to) { self.bad_rate } else { self.good_rate };
        rate > 0.0 && rng.gen_bool(rate)
    }

    fn average_rate(&self) -> f64 {
        self.bad_fraction * self.bad_rate + (1.0 - self.bad_fraction) * self.good_rate
    }
}

/// Heterogeneous node capacities: a `slow_fraction` of nodes (chosen by a
/// hash of `(salt, id)`) initiates only every `period`-th round, at a
/// per-node phase offset so the slow cohort doesn't fire in lockstep.
/// Messages additionally see a `base` uniform loss rate.
///
/// This faults the paper's *round* assumption itself — Section 6.5 defines
/// a round as every node initiating once — rather than the message
/// channel: slow nodes still receive at full speed, so their indegree
/// keeps growing while their outdegree refresh slows down.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NodeCapacity {
    salt: u64,
    slow_fraction: f64,
    period: u64,
    base: f64,
}

impl NodeCapacity {
    /// Creates a capacity model: a `slow_fraction` of nodes acts once per
    /// `period` rounds, over a `base` uniform loss rate.
    ///
    /// # Errors
    ///
    /// Returns [`LossRateError`] for `slow_fraction` or `base` outside
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` (slow nodes with period 1 are not slow).
    pub fn new(
        salt: u64,
        slow_fraction: f64,
        period: u64,
        base: f64,
    ) -> Result<Self, LossRateError> {
        assert!(period >= 2, "capacity period must be at least 2");
        Ok(Self {
            salt,
            slow_fraction: check_rate(slow_fraction)?,
            period,
            base: check_rate(base)?,
        })
    }

    /// Whether `node` belongs to the slow cohort.
    #[must_use]
    pub fn is_slow(&self, node: NodeId) -> bool {
        let words = [self.salt, node.as_u64()];
        hash_fraction(fnv1a64(words.into_iter().flat_map(u64::to_le_bytes))) < self.slow_fraction
    }
}

impl FaultModel for NodeCapacity {
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool {
        let _ = ctx;
        self.base > 0.0 && rng.gen_bool(self.base)
    }

    fn node_acts(&self, node: NodeId, round: u64) -> bool {
        if !self.is_slow(node) {
            return true;
        }
        // A per-node phase offset, so slow nodes don't all act in the same
        // round.
        let words = [self.salt, node.as_u64(), 1];
        let phase = fnv1a64(words.into_iter().flat_map(u64::to_le_bytes)) % self.period;
        round % self.period == phase
    }

    fn average_rate(&self) -> f64 {
        self.base
    }
}

/// Targeted inbound loss on an explicit victim set, over a `base` rate.
///
/// The scenario harness aims this at the overlay's highest-indegree nodes
/// — the hubs whose loss the degree-MC prediction is least equipped to
/// absorb; `repro loss_ablation` aims it at one badly connected peer
/// (the spatial flavor of the nonuniform loss Section 4.1 leaves out of the
/// analysis, complementing the temporal [`GilbertElliott`]). The victim
/// set is a sorted slab checked by binary search and replaceable wholesale
/// mid-run via [`set_victims`](Self::set_victims) — the shape the engines'
/// `update_fault` hook needs.
#[derive(Clone, PartialEq, Debug)]
pub struct VictimLoss {
    /// Sorted, deduplicated victim ids.
    victims: Vec<NodeId>,
    victim_rate: f64,
    base: f64,
}

impl VictimLoss {
    /// Creates a targeted model with an empty victim set.
    ///
    /// # Errors
    ///
    /// Returns [`LossRateError`] for a rate outside `[0, 1]`.
    pub fn new(victim_rate: f64, base: f64) -> Result<Self, LossRateError> {
        Ok(Self {
            victims: Vec::new(),
            victim_rate: check_rate(victim_rate)?,
            base: check_rate(base)?,
        })
    }

    /// Replaces the victim set (sorted and deduplicated internally, so the
    /// caller's ordering does not affect determinism).
    pub fn set_victims(&mut self, victims: &[NodeId]) {
        self.victims = victims.to_vec();
        self.victims.sort_unstable();
        self.victims.dedup();
    }

    /// The current victim set, sorted.
    #[must_use]
    pub fn victims(&self) -> &[NodeId] {
        &self.victims
    }

    /// Whether messages to `node` see the victim rate.
    #[must_use]
    pub fn is_victim(&self, node: NodeId) -> bool {
        self.victims.binary_search(&node).is_ok()
    }
}

impl FaultModel for VictimLoss {
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool {
        let rate = if self.is_victim(ctx.to) { self.victim_rate } else { self.base };
        rate > 0.0 && rng.gen_bool(rate)
    }

    fn average_rate(&self) -> f64 {
        self.base
    }
}

/// One phase's fault model — the closed sum of every model a scenario
/// phase can name, so a compiled schedule is a plain `Clone + Send` value
/// usable as any engine's `L` parameter.
#[derive(Clone, PartialEq, Debug)]
pub enum PhaseFault {
    /// Uniform i.i.d. loss (the paper's model).
    Uniform(UniformLoss),
    /// Bursty per-sender loss.
    Bursty(GilbertElliott),
    /// Regional partition-then-heal.
    Partition(RegionalPartition),
    /// Persistent per-link loss.
    PerLink(PerLinkLoss),
    /// Heterogeneous node capacities.
    Capacity(NodeCapacity),
    /// Targeted inbound loss on a victim set.
    Victims(VictimLoss),
}

impl FaultModel for PhaseFault {
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool {
        match self {
            Self::Uniform(m) => m.drops(ctx, rng),
            Self::Bursty(m) => m.drops(ctx, rng),
            Self::Partition(m) => m.drops(ctx, rng),
            Self::PerLink(m) => m.drops(ctx, rng),
            Self::Capacity(m) => m.drops(ctx, rng),
            Self::Victims(m) => m.drops(ctx, rng),
        }
    }

    fn node_acts(&self, node: NodeId, round: u64) -> bool {
        match self {
            Self::Capacity(m) => m.node_acts(node, round),
            _ => true,
        }
    }

    fn average_rate(&self) -> f64 {
        match self {
            Self::Uniform(m) => FaultModel::average_rate(m),
            Self::Bursty(m) => FaultModel::average_rate(m),
            Self::Partition(m) => m.average_rate(),
            Self::PerLink(m) => m.average_rate(),
            Self::Capacity(m) => m.average_rate(),
            Self::Victims(m) => m.average_rate(),
        }
    }
}

/// A round-indexed schedule of [`PhaseFault`]s — the compiled form of a
/// declarative scenario: phase `i` governs rounds
/// `[end[i-1], end[i])`, and the last phase is open-ended.
///
/// The schedule itself is a [`FaultModel`], so it plugs into any engine
/// unchanged; per-message dispatch is a linear scan over a handful of
/// phases.
#[derive(Clone, PartialEq, Debug)]
pub struct ScheduledFault {
    /// `(end_round_exclusive, fault)`, with strictly increasing ends; the
    /// final entry's end is ignored (open-ended).
    phases: Vec<(u64, PhaseFault)>,
}

impl ScheduledFault {
    /// Builds a schedule from `(end_round_exclusive, fault)` phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or the ends are not strictly
    /// increasing.
    #[must_use]
    pub fn new(phases: Vec<(u64, PhaseFault)>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase end rounds must be strictly increasing"
        );
        Self { phases }
    }

    /// A single-phase schedule.
    #[must_use]
    pub fn constant(fault: PhaseFault) -> Self {
        Self { phases: vec![(u64::MAX, fault)] }
    }

    /// The phase index governing `round` (the last phase is open-ended).
    #[must_use]
    pub fn phase_index(&self, round: u64) -> usize {
        self.phases.iter().position(|&(end, _)| round < end).unwrap_or(self.phases.len() - 1)
    }

    /// The phases as `(end_round_exclusive, fault)` slices.
    #[must_use]
    pub fn phases(&self) -> &[(u64, PhaseFault)] {
        &self.phases
    }

    /// Mutable access to one phase's fault (e.g. to aim a
    /// [`VictimLoss`] mid-run).
    pub fn phase_mut(&mut self, index: usize) -> &mut PhaseFault {
        &mut self.phases[index].1
    }

    /// The long-run loss rate at `round` — the governing phase's rate.
    #[must_use]
    pub fn rate_at(&self, round: u64) -> f64 {
        self.phases[self.phase_index(round)].1.average_rate()
    }
}

impl FaultModel for ScheduledFault {
    fn drops<R: Rng + ?Sized>(&mut self, ctx: FaultCtx, rng: &mut R) -> bool {
        let idx = self.phase_index(ctx.round);
        self.phases[idx].1.drops(ctx, rng)
    }

    fn node_acts(&self, node: NodeId, round: u64) -> bool {
        self.phases[self.phase_index(round)].1.node_acts(node, round)
    }

    fn average_rate(&self) -> f64 {
        // The open-ended final regime, matching RegionalPartition's
        // convention.
        self.phases.last().expect("schedule is nonempty").1.average_rate()
    }
}

/// One fault model as written in the [fault grammar](self#the-fault-grammar)
/// — engine-independent; compiled to a [`PhaseFault`] for a concrete round
/// window by [`build`](Self::build).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultSpec {
    /// `uniform <rate>` — i.i.d. loss.
    Uniform {
        /// Loss rate in `[0, 1]`.
        rate: f64,
    },
    /// `bursty <to_bad> <to_good> <loss_good> <loss_bad>` — Gilbert–Elliott.
    Bursty {
        /// Good→bad transition probability.
        to_bad: f64,
        /// Bad→good transition probability.
        to_good: f64,
        /// Loss rate in the good state.
        loss_good: f64,
        /// Loss rate in the bad state.
        loss_bad: f64,
    },
    /// `partition <regions> <sever> <base>` — regional partition for the
    /// phase's window, healing when the phase ends.
    Partition {
        /// Number of regions (`id % regions`).
        regions: u64,
        /// Cross-region loss rate during the window (1 = hard partition).
        sever: f64,
        /// In-region (and post-heal) loss rate.
        base: f64,
    },
    /// `perlink <salt> <bad_fraction> <good_rate> <bad_rate>` — persistent
    /// per-link quality.
    PerLink {
        /// Link-map salt (XORed with the replicate salt).
        salt: u64,
        /// Fraction of directed links that are bad.
        bad_fraction: f64,
        /// Loss rate on good links.
        good_rate: f64,
        /// Loss rate on bad links.
        bad_rate: f64,
    },
    /// `capacity <salt> <slow_fraction> <period> <base>` — heterogeneous
    /// node capacities.
    Capacity {
        /// Cohort salt (XORed with the replicate salt).
        salt: u64,
        /// Fraction of nodes in the slow cohort.
        slow_fraction: f64,
        /// Slow nodes act once per this many rounds.
        period: u64,
        /// Uniform loss rate underneath.
        base: f64,
    },
    /// `victims <count> <victim_rate> <base>` — targeted inbound loss on
    /// the `count` highest-indegree nodes, measured at phase start.
    Victims {
        /// Number of top-indegree victims.
        count: usize,
        /// Inbound loss rate at a victim.
        victim_rate: f64,
        /// Loss rate everywhere else.
        base: f64,
    },
}

/// Parses one numeric word of a spec line, naming the directive and the
/// argument on failure. Public so `sandf_bench::scenario`'s header
/// directives word their rejections exactly like the fault arguments.
///
/// # Errors
///
/// Returns the rejection message when `token` is not a `T`.
pub fn parse_num<T: FromStr>(directive: &str, what: &str, token: &str) -> Result<T, String> {
    token.parse().map_err(|_| format!("`{directive}` expects {what}, got {token:?}"))
}

/// Checks a directive's argument count, quoting its usage on failure
/// (shared with the scenario header directives like [`parse_num`]).
///
/// # Errors
///
/// Returns the rejection message when `args` does not hold `want` words.
pub fn expect_args(directive: &str, usage: &str, args: &[&str], want: usize) -> Result<(), String> {
    if args.len() != want {
        return Err(format!(
            "`{directive}` takes {want} argument(s): `{usage}` (got {})",
            args.len()
        ));
    }
    Ok(())
}

fn parse_rate(directive: &str, what: &str, token: &str) -> Result<f64, String> {
    let value: f64 = parse_num(directive, what, token)?;
    if !(0.0..=1.0).contains(&value) {
        return Err(format!("`{directive}` {what} {value} is outside [0, 1]"));
    }
    Ok(value)
}

impl FaultSpec {
    /// Parses the words after `phase` — `<rounds> <model> <args...>` — into
    /// the phase's duration and fault model (see the
    /// [grammar](self#the-fault-grammar)).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument and what was
    /// expected there.
    pub fn parse_phase(words: &[&str]) -> Result<(usize, Self), String> {
        if words.len() < 2 {
            return Err("`phase` takes a duration and a fault model: \
                        `phase <rounds> <fault> <args...>`"
                .into());
        }
        let rounds: usize = parse_num("phase", "an integer round count", words[0])?;
        if rounds == 0 {
            return Err("`phase` must last at least 1 round".into());
        }
        Ok((rounds, Self::parse(words[1], &words[2..])?))
    }

    /// The one place a fault keyword becomes a model.
    fn parse(kind: &str, args: &[&str]) -> Result<Self, String> {
        match kind {
            "uniform" => {
                expect_args("phase … uniform", "uniform <rate>", args, 1)?;
                Ok(Self::Uniform { rate: parse_rate("uniform", "rate", args[0])? })
            }
            "bursty" => {
                expect_args(
                    "phase … bursty",
                    "bursty <to_bad> <to_good> <loss_good> <loss_bad>",
                    args,
                    4,
                )?;
                let to_bad = parse_rate("bursty", "to_bad", args[0])?;
                let to_good = parse_rate("bursty", "to_good", args[1])?;
                if to_bad + to_good <= 0.0 {
                    return Err("`bursty` needs to_bad + to_good > 0 \
                                (a dead channel has no stationary state)"
                        .into());
                }
                Ok(Self::Bursty {
                    to_bad,
                    to_good,
                    loss_good: parse_rate("bursty", "loss_good", args[2])?,
                    loss_bad: parse_rate("bursty", "loss_bad", args[3])?,
                })
            }
            "partition" => {
                expect_args("phase … partition", "partition <regions> <sever> <base>", args, 3)?;
                let regions: u64 = parse_num("partition", "an integer region count", args[0])?;
                if regions < 2 {
                    return Err(format!("`partition` needs at least 2 regions, got {regions}"));
                }
                Ok(Self::Partition {
                    regions,
                    sever: parse_rate("partition", "sever rate", args[1])?,
                    base: parse_rate("partition", "base rate", args[2])?,
                })
            }
            "perlink" => {
                expect_args(
                    "phase … perlink",
                    "perlink <salt> <bad_fraction> <good_rate> <bad_rate>",
                    args,
                    4,
                )?;
                Ok(Self::PerLink {
                    salt: parse_num("perlink", "an integer salt", args[0])?,
                    bad_fraction: parse_rate("perlink", "bad_fraction", args[1])?,
                    good_rate: parse_rate("perlink", "good_rate", args[2])?,
                    bad_rate: parse_rate("perlink", "bad_rate", args[3])?,
                })
            }
            "capacity" => {
                expect_args(
                    "phase … capacity",
                    "capacity <salt> <slow_fraction> <period> <base>",
                    args,
                    4,
                )?;
                let period: u64 = parse_num("capacity", "an integer period", args[2])?;
                if period < 2 {
                    return Err(format!("`capacity` period must be ≥ 2, got {period}"));
                }
                Ok(Self::Capacity {
                    salt: parse_num("capacity", "an integer salt", args[0])?,
                    slow_fraction: parse_rate("capacity", "slow_fraction", args[1])?,
                    period,
                    base: parse_rate("capacity", "base rate", args[3])?,
                })
            }
            "victims" => {
                expect_args("phase … victims", "victims <count> <victim_rate> <base>", args, 3)?;
                let count: usize = parse_num("victims", "an integer victim count", args[0])?;
                if count == 0 {
                    return Err("`victims` needs at least one victim".into());
                }
                Ok(Self::Victims {
                    count,
                    victim_rate: parse_rate("victims", "victim_rate", args[1])?,
                    base: parse_rate("victims", "base rate", args[2])?,
                })
            }
            other => Err(format!(
                "unknown fault model {other:?} — expected one of \
                 uniform, bursty, partition, perlink, capacity, victims"
            )),
        }
    }

    /// The spec keyword naming this model.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Uniform { .. } => "uniform",
            Self::Bursty { .. } => "bursty",
            Self::Partition { .. } => "partition",
            Self::PerLink { .. } => "perlink",
            Self::Capacity { .. } => "capacity",
            Self::Victims { .. } => "victims",
        }
    }

    /// The phase's effective per-message loss rate in an `n`-node system —
    /// the rate the degree-MC prediction is solved at. For structured
    /// models this is the *marginal* rate of a message to a uniformly
    /// random target; the whole point of the envelope table is that
    /// structured loss at the same marginal rate need **not** behave like
    /// uniform loss at that rate.
    #[must_use]
    pub fn effective_rate(&self, n: usize) -> f64 {
        match *self {
            Self::Uniform { rate } => rate,
            Self::Bursty { to_bad, to_good, loss_good, loss_bad } => {
                let p_bad = to_bad / (to_bad + to_good);
                p_bad * loss_bad + (1.0 - p_bad) * loss_good
            }
            Self::Partition { regions, sever, base } => {
                let cross = (regions - 1) as f64 / regions as f64;
                cross * sever + (1.0 - cross) * base
            }
            Self::PerLink { bad_fraction, good_rate, bad_rate, .. } => {
                bad_fraction * bad_rate + (1.0 - bad_fraction) * good_rate
            }
            Self::Capacity { base, .. } => base,
            Self::Victims { count, victim_rate, base } => {
                let f = (count as f64 / n as f64).min(1.0);
                f * victim_rate + (1.0 - f) * base
            }
        }
    }

    /// Compiles the spec into a [`PhaseFault`] for the window
    /// `[start, start + duration)`. `salt` decorrelates hash-derived link
    /// maps and cohorts across replicates. A `victims` model starts with an
    /// empty victim set; the caller aims it
    /// ([`VictimLoss::set_victims`]) at the overlay's current hubs.
    #[must_use]
    pub fn build(&self, start: u64, duration: u64, salt: u64) -> PhaseFault {
        match *self {
            Self::Uniform { rate } => {
                PhaseFault::Uniform(UniformLoss::new(rate).expect("validated at parse time"))
            }
            Self::Bursty { to_bad, to_good, loss_good, loss_bad } => PhaseFault::Bursty(
                GilbertElliott::new(to_bad, to_good, loss_good, loss_bad)
                    .expect("validated at parse time"),
            ),
            Self::Partition { regions, sever, base } => PhaseFault::Partition(
                RegionalPartition::new(regions, start, duration, sever, base)
                    .expect("validated at parse time"),
            ),
            Self::PerLink { salt: s, bad_fraction, good_rate, bad_rate } => PhaseFault::PerLink(
                PerLinkLoss::new(s ^ salt, bad_fraction, good_rate, bad_rate)
                    .expect("validated at parse time"),
            ),
            Self::Capacity { salt: s, slow_fraction, period, base } => PhaseFault::Capacity(
                NodeCapacity::new(s ^ salt, slow_fraction, period, base)
                    .expect("validated at parse time"),
            ),
            Self::Victims { victim_rate, base, .. } => PhaseFault::Victims(
                VictimLoss::new(victim_rate, base).expect("validated at parse time"),
            ),
        }
    }
}

impl std::fmt::Display for FaultSpec {
    /// The canonical printing, `<model> <args...>`: prefixed with
    /// `phase <rounds> `, it parses back to `self`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Uniform { rate } => write!(f, "uniform {rate}"),
            Self::Bursty { to_bad, to_good, loss_good, loss_bad } => {
                write!(f, "bursty {to_bad} {to_good} {loss_good} {loss_bad}")
            }
            Self::Partition { regions, sever, base } => {
                write!(f, "partition {regions} {sever} {base}")
            }
            Self::PerLink { salt, bad_fraction, good_rate, bad_rate } => {
                write!(f, "perlink {salt} {bad_fraction} {good_rate} {bad_rate}")
            }
            Self::Capacity { salt, slow_fraction, period, base } => {
                write!(f, "capacity {salt} {slow_fraction} {period} {base}")
            }
            Self::Victims { count, victim_rate, base } => {
                write!(f, "victims {count} {victim_rate} {base}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn ctx(from: u64, to: u64, round: u64) -> FaultCtx {
        FaultCtx { from: NodeId::new(from), to: NodeId::new(to), round }
    }

    #[test]
    fn lifted_loss_model_matches_is_lost() {
        let mut lifted = UniformLoss::new(0.3).unwrap();
        let mut raw = UniformLoss::new(0.3).unwrap();
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        for k in 0..2_000 {
            assert_eq!(
                lifted.drops(ctx(1, k, 0), &mut ra),
                raw.is_lost(&mut rb),
                "blanket impl must consume identical draws"
            );
        }
        assert!(lifted.node_acts(NodeId::new(0), 0));
    }

    #[test]
    fn partition_severs_only_cross_region_in_window() {
        let mut p = RegionalPartition::new(2, 10, 5, 1.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // In-window, cross-region (even → odd): always lost.
        assert!((0..50).all(|_| p.drops(ctx(0, 1, 12), &mut rng)));
        // In-window, same region: never lost.
        assert!((0..50).all(|_| !p.drops(ctx(0, 2, 12), &mut rng)));
        // Before and after the window: healed.
        assert!((0..50).all(|_| !p.drops(ctx(0, 1, 9), &mut rng)));
        assert!((0..50).all(|_| !p.drops(ctx(0, 1, 15), &mut rng)));
        assert!(p.active_in(10) && p.active_in(14) && !p.active_in(15));
        assert_eq!(p.average_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two regions")]
    fn partition_rejects_one_region() {
        let _ = RegionalPartition::new(1, 0, 1, 1.0, 0.0);
    }

    #[test]
    fn per_link_quality_is_persistent_and_salted() {
        let model = PerLinkLoss::new(42, 0.3, 0.0, 1.0).unwrap();
        // Persistence: the same link always answers the same.
        for from in 0..20 {
            for to in 0..20 {
                let a = model.link_is_bad(NodeId::new(from), NodeId::new(to));
                let b = model.link_is_bad(NodeId::new(from), NodeId::new(to));
                assert_eq!(a, b);
            }
        }
        // Roughly the configured fraction of links is bad.
        let bad = (0..100u64)
            .flat_map(|f| (0..100u64).map(move |t| (f, t)))
            .filter(|&(f, t)| model.link_is_bad(NodeId::new(f), NodeId::new(t)))
            .count();
        let frac = bad as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "bad-link fraction {frac}");
        // A different salt yields a different link map.
        let other = PerLinkLoss::new(43, 0.3, 0.0, 1.0).unwrap();
        let differs = (0..100u64).any(|t| {
            model.link_is_bad(NodeId::new(0), NodeId::new(t))
                != other.link_is_bad(NodeId::new(0), NodeId::new(t))
        });
        assert!(differs, "salt must decorrelate link maps");
    }

    #[test]
    fn per_link_drops_follow_link_quality() {
        let mut model = PerLinkLoss::new(7, 0.5, 0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for from in 0..30u64 {
            for to in 0..30u64 {
                let lost = model.drops(ctx(from, to, 0), &mut rng);
                assert_eq!(lost, model.link_is_bad(NodeId::new(from), NodeId::new(to)));
            }
        }
        let expected = 0.5;
        assert!((FaultModel::average_rate(&model) - expected).abs() < 1e-12);
    }

    #[test]
    fn capacity_gates_slow_nodes_once_per_period() {
        let model = NodeCapacity::new(11, 0.5, 4, 0.0).unwrap();
        let slow: Vec<NodeId> = (0..200).map(NodeId::new).filter(|&n| model.is_slow(n)).collect();
        let fast: Vec<NodeId> = (0..200).map(NodeId::new).filter(|&n| !model.is_slow(n)).collect();
        assert!(slow.len() > 50 && fast.len() > 50, "both cohorts populated");
        for &node in fast.iter().take(20) {
            assert!((0..16).all(|r| model.node_acts(node, r)));
        }
        for &node in slow.iter().take(20) {
            let acting: Vec<u64> = (0..16).filter(|&r| model.node_acts(node, r)).collect();
            assert_eq!(acting.len(), 4, "slow node must act once per period");
            assert!(acting.windows(2).all(|w| w[1] - w[0] == 4));
        }
        // Phases are spread: not every slow node acts in the same round
        // (only the set's size is read, so its order cannot matter).
        let phases: std::collections::HashSet<u64> = slow
            .iter()
            .take(50)
            .map(|&n| (0..4).find(|&r| model.node_acts(n, r)).unwrap())
            .collect();
        assert!(phases.len() > 1, "slow phases must be spread");
    }

    #[test]
    #[should_panic(expected = "period must be at least 2")]
    fn capacity_rejects_period_one() {
        let _ = NodeCapacity::new(0, 0.5, 1, 0.0);
    }

    #[test]
    fn victim_loss_targets_only_the_set() {
        let mut model = VictimLoss::new(1.0, 0.0).unwrap();
        model.set_victims(&[NodeId::new(9), NodeId::new(3), NodeId::new(9)]);
        assert_eq!(model.victims(), &[NodeId::new(3), NodeId::new(9)]);
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..50).all(|_| model.drops(ctx(0, 3, 0), &mut rng)));
        assert!((0..50).all(|_| !model.drops(ctx(0, 4, 0), &mut rng)));
        assert_eq!(model.average_rate(), 0.0, "the scalar rate is the base rate");
        // Replacing the set retargets instantly.
        model.set_victims(&[NodeId::new(4)]);
        assert!((0..50).all(|_| !model.drops(ctx(0, 3, 0), &mut rng)));
        assert!((0..50).all(|_| model.drops(ctx(0, 4, 0), &mut rng)));
    }

    #[test]
    fn schedule_dispatches_by_round() {
        let schedule = ScheduledFault::new(vec![
            (10, PhaseFault::Uniform(UniformLoss::none())),
            (20, PhaseFault::Uniform(UniformLoss::new(1.0).unwrap())),
            (30, PhaseFault::Uniform(UniformLoss::new(0.25).unwrap())),
        ]);
        assert_eq!(schedule.phase_index(0), 0);
        assert_eq!(schedule.phase_index(9), 0);
        assert_eq!(schedule.phase_index(10), 1);
        assert_eq!(schedule.phase_index(29), 2);
        // Rounds past the last end stay in the final phase.
        assert_eq!(schedule.phase_index(1_000), 2);
        assert_eq!(schedule.rate_at(5), 0.0);
        assert_eq!(schedule.rate_at(15), 1.0);
        assert_eq!(schedule.rate_at(99), 0.25);
        assert_eq!(FaultModel::average_rate(&schedule), 0.25);

        let mut s = schedule;
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!s.drops(ctx(0, 1, 5), &mut rng));
        assert!(s.drops(ctx(0, 1, 15), &mut rng));
    }

    #[test]
    fn schedule_capacity_gate_follows_the_phase() {
        let cap = NodeCapacity::new(3, 1.0, 2, 0.0).unwrap();
        let schedule = ScheduledFault::new(vec![
            (5, PhaseFault::Uniform(UniformLoss::none())),
            (u64::MAX, PhaseFault::Capacity(cap)),
        ]);
        let node = NodeId::new(0);
        // Phase 0: everyone acts.
        assert!((0..5).all(|r| schedule.node_acts(node, r)));
        // Phase 1: the all-slow cohort acts every other round.
        let acting = (5..15).filter(|&r| schedule.node_acts(node, r)).count();
        assert_eq!(acting, 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_rejects_unordered_phases() {
        let _ = ScheduledFault::new(vec![
            (10, PhaseFault::Uniform(UniformLoss::none())),
            (10, PhaseFault::Uniform(UniformLoss::none())),
        ]);
    }

    #[test]
    fn fault_spec_parse_print_is_identity_over_every_model() {
        for line in [
            "4 uniform 0.05",
            "3 bursty 0.05 0.2 0.01 0.5",
            "6 partition 3 0.9 0.01",
            "4 perlink 11 0.25 0.005 0.8",
            "5 capacity 3 0.4 3 0.02",
            "4 victims 4 0.9 0.01",
        ] {
            let words: Vec<&str> = line.split_whitespace().collect();
            let (rounds, spec) = FaultSpec::parse_phase(&words).expect("legal phase");
            assert_eq!(words[1], spec.kind());
            let printed = format!("{rounds} {spec}");
            assert_eq!(printed, line, "print is not canonical");
            let reparsed: Vec<&str> = printed.split_whitespace().collect();
            assert_eq!(FaultSpec::parse_phase(&reparsed), Ok((rounds, spec)));
            // Every spec the parser accepts compiles.
            let _ = spec.build(10, rounds as u64, 7);
        }
    }

    #[test]
    fn fault_spec_rejections_say_what_was_expected() {
        for (line, fragment) in [
            ("5", "phase <rounds> <fault> <args...>"),
            ("0 uniform 0", "at least 1 round"),
            ("x uniform 0", "an integer round count"),
            ("5 gauss 0.3", "unknown fault model \"gauss\""),
            ("5 uniform 1.5", "`uniform` rate 1.5 is outside [0, 1]"),
            ("5 uniform NaN", "outside [0, 1]"),
            ("5 partition 2", "partition <regions> <sever> <base>"),
            ("5 partition 1 0.5 0", "at least 2 regions"),
            ("5 bursty 0 0 0.1 0.9", "no stationary state"),
            ("5 capacity 1 0.5 1 0", "period must be ≥ 2"),
            ("5 victims 0 0.5 0", "at least one victim"),
        ] {
            let words: Vec<&str> = line.split_whitespace().collect();
            let error = FaultSpec::parse_phase(&words).expect_err(line);
            assert!(error.contains(fragment), "{line:?}: {error:?} lacks {fragment:?}");
        }
    }

    #[test]
    fn effective_rates_are_marginals() {
        let half = FaultSpec::Partition { regions: 2, sever: 1.0, base: 0.0 };
        assert!((half.effective_rate(96) - 0.5).abs() < 1e-12);
        let mix = FaultSpec::PerLink { salt: 0, bad_fraction: 0.25, good_rate: 0.0, bad_rate: 0.8 };
        assert!((mix.effective_rate(96) - 0.2).abs() < 1e-12);
        let vic = FaultSpec::Victims { count: 24, victim_rate: 0.5, base: 0.0 };
        assert!((vic.effective_rate(96) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn rate_validation_is_enforced_everywhere() {
        assert!(RegionalPartition::new(2, 0, 1, 1.5, 0.0).is_err());
        assert!(RegionalPartition::new(2, 0, 1, 0.5, -0.1).is_err());
        assert!(PerLinkLoss::new(0, 2.0, 0.0, 0.0).is_err());
        assert!(PerLinkLoss::new(0, 0.5, f64::NAN, 0.0).is_err());
        assert!(NodeCapacity::new(0, 1.1, 2, 0.0).is_err());
        assert!(VictimLoss::new(0.5, 7.0).is_err());
        assert!(VictimLoss::new(-0.1, 0.0).is_err());
    }
}
