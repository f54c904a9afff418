//! Adversarial fault models beyond i.i.d. loss.
//!
//! The paper's analysis assumes *uniform i.i.d. message loss*
//! (Section 4.1); [`UniformLoss`] is exactly that channel, and
//! [`GilbertElliott`] its bursty ablation. This module generalizes the
//! surface to **correlated, time-varying, and structural** faults — the
//! regimes where Obs 5.1 and the Lemma 6.10 decay bounds were never
//! proven to hold, and where the scenario harness in `sandf-bench` probes
//! whether they survive anyway. [`PhaseFault`] is the one fault type: its
//! variants are the models, and it is parsed, checked, printed and run as
//! one value.
//!
//! Every engine ([`FlatSimulation`](crate::FlatSimulation),
//! [`ParSimulation`](crate::ParSimulation)) is bound by the
//! [`FaultModel`] trait, which [`UniformLoss`], [`GilbertElliott`],
//! [`PhaseFault`] and [`ScheduledFault`] implement. A fault value is
//! read-only: an engine holds one and every sender draws on it. What a
//! model remembers between messages — only `bursty`'s Gilbert–Elliott
//! chain state, one bit — is the model's [`Channel`](FaultModel::Channel),
//! kept by whoever holds the channel (see the `bursty` row below).
//!
//! [`ScheduledFault`] composes [`PhaseFault`]s into a round-indexed
//! schedule — the compiled form of the declarative scenario specs in
//! `sandf_bench::scenario`.
//!
//! # The fault grammar
//!
//! A [`PhaseFault`] has one textual spelling, shared by every surface that
//! names one: a scenario spec's `phase` lines (`sandf_bench::scenario`),
//! whose compiled schedule the engines and the rumor layer
//! ([`BroadcastLayer`](crate::BroadcastLayer)) both run, and the live
//! daemon's `POST /ctl/fault` body (`sandf_daemon`). A fault is always
//! written as a phase — a duration in rounds, then the model and its
//! positional arguments — so a line means the same thing wherever it is
//! sent:
//!
//! ```text
//! phase <rounds> <model> <args...>
//! ```
//!
//! | model | variant | semantics | the rumor layer reads |
//! |---|---|---|---|
//! | `uniform <rate>` | [`PhaseFault::Uniform`] | i.i.d. loss (the paper's model) | [`rate`](PhaseFault::rate) |
//! | `bursty <to_bad> <to_good> <loss_good> <loss_bad>` | [`PhaseFault::Bursty`] | Gilbert–Elliott bursty channel: one chain for all senders on flat and in the daemon, one per sender on par; each phase starts its chains good | [`rate`](PhaseFault::rate) in the receiver's chain state: one chain per *receiver*, kept across phases |
//! | `partition <regions> <sever> <base>` | [`PhaseFault::Partition`] | cross-region loss at `sever` for the phase window, then heal | [`rate`](PhaseFault::rate), windowed by membership round |
//! | `perlink <salt> <bad_fraction> <good_rate> <bad_rate>` | [`PhaseFault::PerLink`] | persistent per-link quality | [`rate`](PhaseFault::rate), link by link |
//! | `capacity <salt> <slow_fraction> <period> <base>` | [`PhaseFault::Capacity`] | slow cohort acts every `period`-th round | [`node_acts`](FaultModel::node_acts) gates push and pull; [`rate`](PhaseFault::rate) is `base` |
//! | `victims <count> <victim_rate> <base>` | [`PhaseFault::Victims`] | targeted loss on the `count` highest-indegree nodes, aimed at phase start | [`rate`](PhaseFault::rate), at the aimed victims |
//!
//! Rates are probabilities in `[0, 1]`; every argument is required.
//! [`PhaseFault::parse_phase`] is the only parser, [`PhaseFault::check`]
//! the only validator and the [`Display`](std::fmt::Display) impl the only
//! printer, so `parse ∘ print = id` and a rejection is worded identically
//! everywhere.
//!
//! # Determinism
//!
//! Models that need per-link or per-node randomness (`perlink`,
//! `capacity`) derive it *statelessly* by hashing the salt and the ids as
//! little-endian words with the workspace's one FNV-1a ([`fnv1a64`], see
//! [`crate::stream`]) instead of drawing from the engine RNG, so a decision
//! depends only on the identities involved — never on evaluation order.
//! That is what keeps the par engine's sharded execution byte-identical for
//! any thread count under every model here.

use std::str::FromStr;

use rand::Rng;
use sandf_core::NodeId;

use crate::loss::{bernoulli, GilbertElliott, UniformLoss};
use crate::stream::fnv1a64;

/// FNV-1a of `words` as little-endian bytes.
#[inline]
fn word_hash(words: &[u64]) -> u64 {
    fnv1a64(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// Maps a hash to a uniform `[0, 1)` fraction (53-bit mantissa).
#[inline]
fn hash_fraction(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
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

/// The fault surface shared by both simulation engines and the daemon.
///
/// A fault model decides, per message, whether the network [`drops`] it —
/// given the full send context ([`FaultCtx`]: sender, receiver, round) —
/// and, per `(node, round)`, whether a node gets to act at all
/// ([`node_acts`], the capacity gate).
///
/// The model itself is read-only, so one value serves every sender (par's
/// shards share one `&L`). Per-link and per-node decisions derive
/// statelessly from the context (see the module docs); the only state a
/// model carries between messages is its [`Channel`], which the holder of
/// the channel keeps and passes to every draw: flat and the daemon keep
/// one for all senders, par one per sender.
///
/// [`drops`]: FaultModel::drops
/// [`node_acts`]: FaultModel::node_acts
/// [`Channel`]: FaultModel::Channel
pub trait FaultModel {
    /// The state one channel carries between messages; `Default` is a
    /// fresh channel. `()` for a memoryless model.
    type Channel: Default + Clone + Send;

    /// Returns `true` if the message described by `ctx`, sent on
    /// `channel`, is lost.
    fn drops(&self, channel: &mut Self::Channel, ctx: FaultCtx, rng: &mut impl Rng) -> bool;

    /// Whether `node` initiates an action in `round`. A `false` makes the
    /// engine skip the node's step entirely (counted in
    /// [`SimStats::skipped`](crate::SimStats::skipped), reported as
    /// [`StepEvent::Skipped`](crate::StepEvent::Skipped)); the default
    /// capacity gate is always open.
    fn node_acts(&self, _node: NodeId, _round: u64) -> bool {
        true
    }
}

/// The paper's channel: i.i.d. loss, memoryless, so a channel holds
/// nothing.
impl FaultModel for UniformLoss {
    type Channel = ();

    fn drops(&self, (): &mut (), _: FaultCtx, rng: &mut impl Rng) -> bool {
        bernoulli(self.rate, rng)
    }
}

/// A bursty channel: the chain steps once per message, then the message
/// is lost at its state's rate. The channel is the chain state.
impl FaultModel for GilbertElliott {
    type Channel = bool;

    fn drops(&self, bad: &mut bool, _: FaultCtx, rng: &mut impl Rng) -> bool {
        self.advance(bad, rng);
        bernoulli(self.loss_in(*bad), rng)
    }
}

/// One fault model — the closed sum of every model a scenario phase can
/// name, so a compiled schedule is a plain `Clone + Send + Sync` value
/// usable as any engine's `L` parameter.
///
/// [`parse_phase`](Self::parse_phase) returns a model placed at rounds
/// `[0, rounds)` with its written salt; [`placed`](Self::placed) moves it
/// into a schedule, and [`aim`](Self::aim) points a `victims` model at the
/// overlay's hubs. A value built directly is not validated until
/// [`check`](Self::check) or [`ScheduledFault::new`] runs.
#[derive(Clone, PartialEq, Debug)]
pub enum PhaseFault {
    /// `uniform <rate>` — i.i.d. loss (the paper's model).
    Uniform(UniformLoss),
    /// `bursty <to_bad> <to_good> <loss_good> <loss_bad>` — Gilbert–Elliott
    /// bursty loss, its chain state kept by the channel's holder (see the
    /// grammar table).
    Bursty(GilbertElliott),
    /// `partition <regions> <sever> <base>` — the overlay splits into
    /// `regions` regions by id (`id mod regions`; the in-repo topologies
    /// assign contiguous ids, so regions are balanced). During rounds
    /// `[start, start + duration)` every cross-region message is lost with
    /// probability `sever` (1.0 = a hard partition); within a region — and
    /// in every round outside the window — messages see the `base` rate.
    /// Losses are perfectly correlated with overlay structure for the whole
    /// window, the classic failure the paper's i.i.d. assumption excludes.
    Partition {
        /// Number of regions (at least 2).
        regions: u64,
        /// First round of the window.
        start: u64,
        /// Rounds the window lasts.
        duration: u64,
        /// Cross-region loss rate during the window.
        sever: f64,
        /// In-region (and post-heal) loss rate.
        base: f64,
    },
    /// `perlink <salt> <bad_fraction> <good_rate> <bad_rate>` — spatially
    /// correlated loss: every *directed link* has a persistent quality,
    /// drawn once from a hash of `(salt, from, to)`; a `bad_fraction` of
    /// links loses at `bad_rate`, the rest at `good_rate`. Unlike `bursty`
    /// (temporal correlation on a channel) the correlation is
    /// spatial and permanent.
    PerLink {
        /// Link-map salt ([`placed`](PhaseFault::placed) XORs in the
        /// replicate salt).
        salt: u64,
        /// Fraction of directed links that are bad.
        bad_fraction: f64,
        /// Loss rate on good links.
        good_rate: f64,
        /// Loss rate on bad links.
        bad_rate: f64,
    },
    /// `capacity <salt> <slow_fraction> <period> <base>` — heterogeneous
    /// node capacities: a `slow_fraction` of nodes (chosen by a hash of
    /// `(salt, id)`) initiates only every `period`-th round, at a per-node
    /// phase offset so the slow cohort doesn't fire in lockstep; messages
    /// see a `base` uniform rate. This faults the paper's *round*
    /// assumption itself (Section 6.5: every node initiates once per
    /// round): slow nodes still receive at full speed, so their indegree
    /// keeps growing while their outdegree refresh slows down.
    Capacity {
        /// Cohort salt ([`placed`](PhaseFault::placed) XORs in the
        /// replicate salt).
        salt: u64,
        /// Fraction of nodes in the slow cohort.
        slow_fraction: f64,
        /// Slow nodes act once per this many rounds (at least 2).
        period: u64,
        /// Uniform loss rate underneath.
        base: f64,
    },
    /// `victims <count> <victim_rate> <base>` — targeted inbound loss on
    /// the `count` highest-indegree nodes, aimed at phase start (the hubs
    /// whose loss the degree-MC prediction is least equipped to absorb;
    /// `repro loss_ablation` aims it at one badly connected peer instead).
    Victims {
        /// Number of top-indegree victims (at least 1).
        count: usize,
        /// Inbound loss rate at a victim.
        victim_rate: f64,
        /// Loss rate everywhere else.
        base: f64,
        /// The aimed victims, sorted and deduplicated for binary search
        /// ([`aim`](PhaseFault::aim) keeps them so); empty until aimed.
        victims: Vec<NodeId>,
    },
}

/// The channel is the `bursty` chain state, which every other model
/// leaves alone.
impl FaultModel for PhaseFault {
    type Channel = bool;

    fn drops(&self, bad: &mut bool, ctx: FaultCtx, rng: &mut impl Rng) -> bool {
        match self {
            Self::Uniform(m) => m.drops(&mut (), ctx, rng),
            Self::Bursty(m) => m.drops(bad, ctx, rng),
            _ => bernoulli(self.rate(ctx, *bad), rng),
        }
    }

    fn node_acts(&self, node: NodeId, round: u64) -> bool {
        let &Self::Capacity { salt, slow_fraction, period, .. } = self else {
            return true;
        };
        if hash_fraction(word_hash(&[salt, node.as_u64()])) >= slow_fraction {
            return true;
        }
        // A per-node phase offset, so slow nodes don't all act in the same
        // round.
        round % period == word_hash(&[salt, node.as_u64(), 1]) % period
    }
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

impl PhaseFault {
    /// The loss probability of the message `ctx` on a channel whose
    /// `bursty` chain is in state `bad` — the one per-message rate
    /// function: [`drops`](FaultModel::drops) draws against it, and so
    /// does the rumor layer ([`BroadcastLayer`](crate::BroadcastLayer)).
    /// Only a bursty phase reads `bad`.
    #[must_use]
    pub fn rate(&self, ctx: FaultCtx, bad: bool) -> f64 {
        let (from, to) = (ctx.from.as_u64(), ctx.to.as_u64());
        match *self {
            Self::Uniform(m) => m.rate,
            Self::Bursty(m) => m.loss_in(bad),
            Self::Partition { regions, start, duration, sever, base } => {
                let active = ctx.round >= start && ctx.round - start < duration;
                if active && from % regions != to % regions {
                    sever
                } else {
                    base
                }
            }
            Self::PerLink { salt, bad_fraction, good_rate, bad_rate } => {
                if hash_fraction(word_hash(&[salt, from, to])) < bad_fraction {
                    bad_rate
                } else {
                    good_rate
                }
            }
            Self::Capacity { base, .. } => base,
            Self::Victims { ref victims, victim_rate, base, .. } => {
                if victims.binary_search(&ctx.to).is_ok() {
                    victim_rate
                } else {
                    base
                }
            }
        }
    }

    /// Parses the words after `phase` — `<rounds> <model> <args...>` — into
    /// the phase's duration and its model over rounds `[0, rounds)` (see
    /// the [grammar](self#the-fault-grammar)).
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
        let fault = Self::parse(words[1], &words[2..], rounds as u64)?;
        fault.check()?;
        Ok((rounds, fault))
    }

    /// The one place a fault keyword becomes a model (validated by the
    /// caller).
    fn parse(kind: &str, args: &[&str], duration: u64) -> Result<Self, String> {
        let usage = match kind {
            "uniform" => "uniform <rate>",
            "bursty" => "bursty <to_bad> <to_good> <loss_good> <loss_bad>",
            "partition" => "partition <regions> <sever> <base>",
            "perlink" => "perlink <salt> <bad_fraction> <good_rate> <bad_rate>",
            "capacity" => "capacity <salt> <slow_fraction> <period> <base>",
            "victims" => "victims <count> <victim_rate> <base>",
            other => {
                return Err(format!(
                    "unknown fault model {other:?} — expected one of \
                     uniform, bursty, partition, perlink, capacity, victims"
                ))
            }
        };
        expect_args(&format!("phase … {kind}"), usage, args, usage.split(' ').count() - 1)?;
        let rate = |i: usize, what: &str| parse_num::<f64>(kind, what, args[i]);
        Ok(match kind {
            "uniform" => Self::Uniform(UniformLoss { rate: rate(0, "rate")? }),
            "bursty" => Self::Bursty(GilbertElliott::unchecked(
                rate(0, "to_bad")?,
                rate(1, "to_good")?,
                rate(2, "loss_good")?,
                rate(3, "loss_bad")?,
            )),
            "partition" => Self::Partition {
                regions: parse_num(kind, "an integer region count", args[0])?,
                start: 0,
                duration,
                sever: rate(1, "sever rate")?,
                base: rate(2, "base rate")?,
            },
            "perlink" => Self::PerLink {
                salt: parse_num(kind, "an integer salt", args[0])?,
                bad_fraction: rate(1, "bad_fraction")?,
                good_rate: rate(2, "good_rate")?,
                bad_rate: rate(3, "bad_rate")?,
            },
            "capacity" => Self::Capacity {
                salt: parse_num(kind, "an integer salt", args[0])?,
                slow_fraction: rate(1, "slow_fraction")?,
                period: parse_num(kind, "an integer period", args[2])?,
                base: rate(3, "base rate")?,
            },
            _ => Self::Victims {
                count: parse_num(kind, "an integer victim count", args[0])?,
                victim_rate: rate(1, "victim_rate")?,
                base: rate(2, "base rate")?,
                victims: Vec::new(),
            },
        })
    }

    /// Validates the model's arguments: every rate in `[0, 1]`, plus the
    /// model's own rule (a live bursty chain, at least two regions, a slow
    /// period of at least 2, at least one victim). The parser and
    /// [`ScheduledFault::new`] both run it.
    ///
    /// # Errors
    ///
    /// Returns the first violation, worded as the grammar's rejection.
    pub fn check(&self) -> Result<(), String> {
        let (rates, rule): (Vec<(&str, f64)>, Option<String>) = match *self {
            Self::Uniform(m) => (vec![("rate", m.rate)], None),
            Self::Bursty(m) => (
                vec![
                    ("to_bad", m.to_bad),
                    ("to_good", m.to_good),
                    ("loss_good", m.loss_good),
                    ("loss_bad", m.loss_bad),
                ],
                (m.to_bad + m.to_good <= 0.0).then(|| {
                    "`bursty` needs to_bad + to_good > 0 \
                     (a dead channel has no stationary state)"
                        .to_string()
                }),
            ),
            Self::Partition { regions, sever, base, .. } => (
                vec![("sever rate", sever), ("base rate", base)],
                (regions < 2)
                    .then(|| format!("`partition` needs at least 2 regions, got {regions}")),
            ),
            Self::PerLink { bad_fraction, good_rate, bad_rate, .. } => (
                vec![
                    ("bad_fraction", bad_fraction),
                    ("good_rate", good_rate),
                    ("bad_rate", bad_rate),
                ],
                None,
            ),
            Self::Capacity { slow_fraction, period, base, .. } => (
                vec![("slow_fraction", slow_fraction), ("base rate", base)],
                (period < 2).then(|| format!("`capacity` period must be ≥ 2, got {period}")),
            ),
            Self::Victims { count, victim_rate, base, .. } => (
                vec![("victim_rate", victim_rate), ("base rate", base)],
                (count == 0).then(|| "`victims` needs at least one victim".to_string()),
            ),
        };
        if let Some((what, value)) = rates.into_iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
            return Err(format!("`{}` {what} {value} is outside [0, 1]", self.kind()));
        }
        rule.map_or(Ok(()), Err)
    }

    /// The spec keyword naming this model.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Uniform(_) => "uniform",
            Self::Bursty(_) => "bursty",
            Self::Partition { .. } => "partition",
            Self::PerLink { .. } => "perlink",
            Self::Capacity { .. } => "capacity",
            Self::Victims { .. } => "victims",
        }
    }

    /// The model placed into a schedule: a partition's window starts at
    /// round `start`, and `salt` (XORed into the written salt)
    /// decorrelates hash-derived link maps and cohorts across replicates.
    #[must_use]
    pub fn placed(mut self, start: u64, salt: u64) -> Self {
        match &mut self {
            Self::Partition { start: s, .. } => *s = start,
            Self::PerLink { salt: s, .. } | Self::Capacity { salt: s, .. } => *s ^= salt,
            _ => {}
        }
        self
    }

    /// Aims a `victims` model at `hubs` (sorted and deduplicated, so the
    /// caller's order cannot matter); every other model ignores it.
    pub fn aim(&mut self, hubs: &[NodeId]) {
        if let Self::Victims { victims, .. } = self {
            *victims = hubs.to_vec();
            victims.sort_unstable();
            victims.dedup();
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
            Self::Uniform(m) => m.rate,
            Self::Bursty(m) => {
                let p_bad = m.to_bad / (m.to_bad + m.to_good);
                p_bad * m.loss_bad + (1.0 - p_bad) * m.loss_good
            }
            Self::Partition { regions, sever, base, .. } => {
                let cross = (regions - 1) as f64 / regions as f64;
                cross * sever + (1.0 - cross) * base
            }
            Self::PerLink { bad_fraction, good_rate, bad_rate, .. } => {
                bad_fraction * bad_rate + (1.0 - bad_fraction) * good_rate
            }
            Self::Capacity { base, .. } => base,
            Self::Victims { count, victim_rate, base, .. } => {
                let f = (count as f64 / n as f64).min(1.0);
                f * victim_rate + (1.0 - f) * base
            }
        }
    }
}

impl std::fmt::Display for PhaseFault {
    /// The canonical printing, `<model> <args...>`: prefixed with
    /// `phase <rounds> `, it parses back to `self` (as parsed; a placed
    /// model prints its mixed salt).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Uniform(m) => write!(f, "uniform {}", m.rate),
            Self::Bursty(m) => {
                write!(f, "bursty {} {} {} {}", m.to_bad, m.to_good, m.loss_good, m.loss_bad)
            }
            Self::Partition { regions, sever, base, .. } => {
                write!(f, "partition {regions} {sever} {base}")
            }
            Self::PerLink { salt, bad_fraction, good_rate, bad_rate } => {
                write!(f, "perlink {salt} {bad_fraction} {good_rate} {bad_rate}")
            }
            Self::Capacity { salt, slow_fraction, period, base } => {
                write!(f, "capacity {salt} {slow_fraction} {period} {base}")
            }
            Self::Victims { count, victim_rate, base, .. } => {
                write!(f, "victims {count} {victim_rate} {base}")
            }
        }
    }
}

/// A round-indexed schedule of [`PhaseFault`]s — the compiled form of a
/// declarative scenario: phase `i` governs rounds
/// `[end[i-1], end[i])`, and the last phase is open-ended.
///
/// The schedule itself is a [`FaultModel`], so it plugs into any engine
/// unchanged; per-message dispatch is a linear scan over a handful of
/// phases. Its channel is the `bursty` chain state together with the
/// phase it belongs to, so every phase starts its chains good.
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
    /// Panics if `phases` is empty or longer than `u32::MAX` (its channel
    /// keeps a phase index in a `u32`), the ends are not strictly
    /// increasing, or a phase fails [`PhaseFault::check`] (with its
    /// message).
    #[must_use]
    pub fn new(phases: Vec<(u64, PhaseFault)>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        assert!(u32::try_from(phases.len()).is_ok(), "a schedule holds at most u32::MAX phases");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase end rounds must be strictly increasing"
        );
        for (_, fault) in &phases {
            if let Err(rejection) = fault.check() {
                panic!("{rejection}");
            }
        }
        Self { phases }
    }

    /// A single-phase schedule.
    #[must_use]
    pub fn constant(fault: PhaseFault) -> Self {
        Self::new(vec![(u64::MAX, fault)])
    }

    /// The phase index governing `round` (the last phase is open-ended).
    #[must_use]
    pub fn phase_index(&self, round: u64) -> usize {
        self.phases.iter().position(|&(end, _)| round < end).unwrap_or(self.phases.len() - 1)
    }

    /// The phase governing `round`.
    pub(crate) fn phase_at(&self, round: u64) -> &PhaseFault {
        &self.phases[self.phase_index(round)].1
    }

    /// The phases as `(end_round_exclusive, fault)` slices.
    #[must_use]
    pub fn phases(&self) -> &[(u64, PhaseFault)] {
        &self.phases
    }

    /// Mutable access to one phase's fault (e.g. to [`aim`](PhaseFault::aim)
    /// a `victims` phase mid-run).
    pub fn phase_mut(&mut self, index: usize) -> &mut PhaseFault {
        &mut self.phases[index].1
    }
}

impl FaultModel for ScheduledFault {
    /// The index of the phase the chain state belongs to, and the state:
    /// 8 bytes.
    type Channel = (u32, bool);

    fn drops(&self, (phase, bad): &mut (u32, bool), ctx: FaultCtx, rng: &mut impl Rng) -> bool {
        // `new` bounds the phase count by `u32::MAX`.
        #[allow(clippy::cast_possible_truncation)]
        let index = self.phase_index(ctx.round) as u32;
        if *phase != index {
            // A new phase's chain starts in the good state.
            (*phase, *bad) = (index, false);
        }
        self.phases[index as usize].1.drops(bad, ctx, rng)
    }

    fn node_acts(&self, node: NodeId, round: u64) -> bool {
        self.phase_at(round).node_acts(node, round)
    }
}

/// A single model as a one-phase schedule ([`ScheduledFault::constant`]).
impl From<PhaseFault> for ScheduledFault {
    fn from(fault: PhaseFault) -> Self {
        Self::constant(fault)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn ctx(from: u64, to: u64, round: u64) -> FaultCtx {
        FaultCtx { from: NodeId::new(from), to: NodeId::new(to), round }
    }

    /// The hashed `[0, 1)` fraction a per-link or per-node model compares
    /// against its configured fraction.
    pub(crate) fn fraction_of(words: &[u64]) -> f64 {
        hash_fraction(word_hash(words))
    }

    fn parsed(line: &str) -> (usize, PhaseFault) {
        let words: Vec<&str> = line.split_whitespace().collect();
        PhaseFault::parse_phase(&words).expect("legal phase")
    }

    /// The schedule both engines' scheduled-fault tests replay: eight rounds
    /// each of `uniform`, `partition`, `capacity` and `perlink`, then
    /// `victims` aimed at ids 1 and 2 for good.
    pub(crate) fn mixed_schedule() -> ScheduledFault {
        let mut victims = parsed("1 victims 2 0.9 0.01").1;
        victims.aim(&[NodeId::new(1), NodeId::new(2)]);
        ScheduledFault::new(vec![
            (8, parsed("8 uniform 0.05").1),
            (16, parsed("8 partition 2 1 0.05").1.placed(8, 0)),
            (24, parsed("8 capacity 5 0.4 3 0.02").1),
            (32, parsed("8 perlink 9 0.3 0 1").1),
            (u64::MAX, victims),
        ])
    }

    #[test]
    fn lifted_loss_model_matches_is_lost() {
        use crate::loss::LossModel;
        let lifted = UniformLoss::new(0.3).unwrap();
        let mut raw = lifted;
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        for k in 0..2_000 {
            assert_eq!(
                lifted.drops(&mut (), ctx(1, k, 0), &mut ra),
                raw.is_lost(&mut rb),
                "the fault surface must consume the i.i.d. draws"
            );
        }
        assert!(lifted.node_acts(NodeId::new(0), 0));
    }

    /// A schedule of two `bursty` phases: the first's chain turns bad at
    /// its first message and loses everything, the second's never leaves
    /// the good state and loses nothing, unless a chain carries the first
    /// phase's bad state into it (it then loses nearly everything).
    pub(crate) fn two_bursty_phases(first_rounds: u64) -> ScheduledFault {
        ScheduledFault::new(vec![
            (first_rounds, parsed("1 bursty 1 0 0 1").1),
            (u64::MAX, parsed("1 bursty 0 0.001 0 1").1),
        ])
    }

    #[test]
    fn each_phase_of_a_schedule_starts_its_chain_good() {
        let schedule = two_bursty_phases(4);
        let (mut rng, mut channel) = (StdRng::seed_from_u64(4), Default::default());
        assert!((0..50).all(|_| schedule.drops(&mut channel, ctx(0, 1, 3), &mut rng)));
        assert_eq!(channel, (0, true), "the first phase's chain turned bad");
        assert!((0..50).all(|_| !schedule.drops(&mut channel, ctx(0, 1, 4), &mut rng)));
        assert_eq!(channel, (1, false), "the second phase's chain started good");
    }

    #[test]
    fn partition_severs_only_cross_region_in_window() {
        let p = PhaseFault::Partition { regions: 2, start: 10, duration: 5, sever: 1.0, base: 0.0 };
        let (mut rng, mut channel) = (StdRng::seed_from_u64(1), false);
        // In-window, cross-region (even → odd): always lost.
        assert!((0..50).all(|_| p.drops(&mut channel, ctx(0, 1, 12), &mut rng)));
        // In-window, same region: never lost.
        assert!((0..50).all(|_| !p.drops(&mut channel, ctx(0, 2, 12), &mut rng)));
        // Before and after the window: healed.
        assert!((0..50).all(|_| !p.drops(&mut channel, ctx(0, 1, 9), &mut rng)));
        assert!((0..50).all(|_| !p.drops(&mut channel, ctx(0, 1, 15), &mut rng)));
        // The window's first and last rounds sever.
        assert!(
            p.drops(&mut channel, ctx(0, 1, 10), &mut rng)
                && p.drops(&mut channel, ctx(0, 1, 14), &mut rng)
        );
    }

    #[test]
    #[should_panic(expected = "`partition` needs at least 2 regions, got 1")]
    fn partition_rejects_one_region() {
        let _ = ScheduledFault::constant(PhaseFault::Partition {
            regions: 1,
            start: 0,
            duration: 1,
            sever: 1.0,
            base: 0.0,
        });
    }

    #[test]
    fn per_link_quality_is_persistent_and_salted() {
        // With rates 0 and 1 a drop is exactly a bad link.
        let link_is_bad = |salt: u64, from: u64, to: u64| {
            let model =
                PhaseFault::PerLink { salt, bad_fraction: 0.3, good_rate: 0.0, bad_rate: 1.0 };
            model.drops(&mut false, ctx(from, to, 0), &mut StdRng::seed_from_u64(from ^ to))
        };
        // Persistence: the same link always answers the same.
        for from in 0..20 {
            for to in 0..20 {
                assert_eq!(link_is_bad(42, from, to), link_is_bad(42, from, to));
            }
        }
        // Roughly the configured fraction of links is bad.
        let bad = (0..100u64)
            .flat_map(|f| (0..100u64).map(move |t| (f, t)))
            .filter(|&(f, t)| link_is_bad(42, f, t))
            .count();
        let frac = bad as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "bad-link fraction {frac}");
        // A different salt yields a different link map.
        let differs = (0..100u64).any(|t| link_is_bad(42, 0, t) != link_is_bad(43, 0, t));
        assert!(differs, "salt must decorrelate link maps");
    }

    #[test]
    fn per_link_drops_follow_link_quality() {
        let model =
            PhaseFault::PerLink { salt: 7, bad_fraction: 0.5, good_rate: 0.0, bad_rate: 1.0 };
        let (mut rng, mut channel) = (StdRng::seed_from_u64(3), false);
        for from in 0..30u64 {
            for to in 0..30u64 {
                let lost = model.drops(&mut channel, ctx(from, to, 0), &mut rng);
                assert_eq!(lost, fraction_of(&[7, from, to]) < 0.5);
            }
        }
        let expected = 0.5;
        assert!((model.effective_rate(30) - expected).abs() < 1e-12);
    }

    #[test]
    fn capacity_gates_slow_nodes_once_per_period() {
        let model = PhaseFault::Capacity { salt: 11, slow_fraction: 0.5, period: 4, base: 0.0 };
        let is_slow = |n: &NodeId| fraction_of(&[11, n.as_u64()]) < 0.5;
        let slow: Vec<NodeId> = (0..200).map(NodeId::new).filter(is_slow).collect();
        let fast: Vec<NodeId> = (0..200).map(NodeId::new).filter(|n| !is_slow(n)).collect();
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
    #[should_panic(expected = "`capacity` period must be ≥ 2, got 1")]
    fn capacity_rejects_period_one() {
        let _ = ScheduledFault::constant(PhaseFault::Capacity {
            salt: 0,
            slow_fraction: 0.5,
            period: 1,
            base: 0.0,
        });
    }

    #[test]
    fn victim_loss_targets_only_the_set() {
        let mut model =
            PhaseFault::Victims { count: 2, victim_rate: 1.0, base: 0.0, victims: Vec::new() };
        model.aim(&[NodeId::new(9), NodeId::new(3), NodeId::new(9)]);
        let PhaseFault::Victims { victims, .. } = &model else { unreachable!() };
        assert_eq!(victims, &[NodeId::new(3), NodeId::new(9)]);
        let (mut rng, mut channel) = (StdRng::seed_from_u64(2), false);
        assert!((0..50).all(|_| model.drops(&mut channel, ctx(0, 3, 0), &mut rng)));
        assert!((0..50).all(|_| !model.drops(&mut channel, ctx(0, 4, 0), &mut rng)));
        // Replacing the set retargets instantly.
        model.aim(&[NodeId::new(4)]);
        assert!((0..50).all(|_| !model.drops(&mut channel, ctx(0, 3, 0), &mut rng)));
        assert!((0..50).all(|_| model.drops(&mut channel, ctx(0, 4, 0), &mut rng)));
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
        let rate_at = |round| schedule.phases()[schedule.phase_index(round)].1.effective_rate(1);
        assert_eq!(rate_at(5), 0.0);
        assert_eq!(rate_at(15), 1.0);
        assert_eq!(rate_at(99), 0.25);

        let (mut rng, mut channel) = (StdRng::seed_from_u64(9), (0, false));
        assert!(!schedule.drops(&mut channel, ctx(0, 1, 5), &mut rng));
        assert!(schedule.drops(&mut channel, ctx(0, 1, 15), &mut rng));
    }

    #[test]
    fn schedule_capacity_gate_follows_the_phase() {
        let cap = PhaseFault::Capacity { salt: 3, slow_fraction: 1.0, period: 2, base: 0.0 };
        let schedule = ScheduledFault::new(vec![
            (5, PhaseFault::Uniform(UniformLoss::none())),
            (u64::MAX, cap),
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
            let (rounds, spec) = parsed(line);
            let words: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(words[1], spec.kind());
            let printed = format!("{rounds} {spec}");
            assert_eq!(printed, line, "print is not canonical");
            let reparsed: Vec<&str> = printed.split_whitespace().collect();
            assert_eq!(PhaseFault::parse_phase(&reparsed), Ok((rounds, spec.clone())));
            // Every model the parser accepts goes into a schedule.
            let _ = ScheduledFault::constant(spec.placed(10, 7));
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
            let error = PhaseFault::parse_phase(&words).expect_err(line);
            assert!(error.contains(fragment), "{line:?}: {error:?} lacks {fragment:?}");
        }
    }

    #[test]
    fn effective_rates_are_marginals() {
        let half =
            PhaseFault::Partition { regions: 2, start: 0, duration: 1, sever: 1.0, base: 0.0 };
        assert!((half.effective_rate(96) - 0.5).abs() < 1e-12);
        let mix =
            PhaseFault::PerLink { salt: 0, bad_fraction: 0.25, good_rate: 0.0, bad_rate: 0.8 };
        assert!((mix.effective_rate(96) - 0.2).abs() < 1e-12);
        let vic =
            PhaseFault::Victims { count: 24, victim_rate: 0.5, base: 0.0, victims: Vec::new() };
        assert!((vic.effective_rate(96) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn rate_validation_is_enforced_everywhere() {
        let partition =
            |sever, base| PhaseFault::Partition { regions: 2, start: 0, duration: 1, sever, base };
        let per_link = |bad_fraction, good_rate| PhaseFault::PerLink {
            salt: 0,
            bad_fraction,
            good_rate,
            bad_rate: 0.0,
        };
        let victims = |victim_rate, base| PhaseFault::Victims {
            count: 1,
            victim_rate,
            base,
            victims: Vec::new(),
        };
        for (fault, rejection) in [
            (partition(1.5, 0.0), "`partition` sever rate 1.5 is outside [0, 1]"),
            (partition(0.5, -0.1), "`partition` base rate -0.1 is outside [0, 1]"),
            (per_link(2.0, 0.0), "`perlink` bad_fraction 2 is outside [0, 1]"),
            (per_link(0.5, f64::NAN), "`perlink` good_rate NaN is outside [0, 1]"),
            (
                PhaseFault::Capacity { salt: 0, slow_fraction: 1.1, period: 2, base: 0.0 },
                "`capacity` slow_fraction 1.1 is outside [0, 1]",
            ),
            (victims(0.5, 7.0), "`victims` base rate 7 is outside [0, 1]"),
            (victims(-0.1, 0.0), "`victims` victim_rate -0.1 is outside [0, 1]"),
        ] {
            assert_eq!(fault.check(), Err(rejection.to_string()));
        }
    }

    /// Each model's drop and gate decisions, pinned: one line per model,
    /// placed at round 10 with salt 7 (the victims aimed at four hubs),
    /// `drops` folded over a `(from, to, round)` grid straddling the
    /// partition window and `node_acts` over a `(node, round)` grid, into
    /// one FNV-1a digest. The digests were recorded when every model was
    /// its own struct compiled from a separate spec type.
    #[test]
    fn every_model_decides_as_it_did() {
        for (line, digest) in [
            ("6 uniform 0.3", 0x44a7_efa1_aaa3_65ad),
            ("6 bursty 0.1 0.3 0.2 0.7", 0xec24_342f_c07e_b98f),
            ("6 partition 3 0.9 0.1", 0xf714_4102_facb_82ac),
            ("6 perlink 11 0.3 0.05 0.8", 0x7f63_7528_44ae_c753),
            ("6 capacity 3 0.4 3 0.1", 0xa260_50fd_1ed7_347b),
            ("6 victims 4 0.9 0.1", 0x8915_7156_d04c_15c6),
        ] {
            let mut fault = parsed(line).1.placed(10, 7);
            fault.aim(&[9, 3, 1, 5].map(NodeId::new));
            let (mut rng, mut channel) = (StdRng::seed_from_u64(2009), false);
            let mut decisions = Vec::new();
            for round in 8..18 {
                for from in 0..12 {
                    for to in 0..12 {
                        let lost = fault.drops(&mut channel, ctx(from, to, round), &mut rng);
                        decisions.push(u8::from(lost));
                    }
                }
            }
            for node in 0..32 {
                for round in 0..16 {
                    decisions.push(u8::from(fault.node_acts(NodeId::new(node), round)));
                }
            }
            assert_eq!(fnv1a64(decisions), digest, "{line}");
        }
    }
}
