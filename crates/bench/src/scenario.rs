//! Declarative fault scenarios compiled onto the replicated-sweep executor.
//!
//! A *scenario* is a small text spec — a header naming the system scale and
//! a sequence of `phase` lines naming a fault model and a duration — that
//! compiles to a [`ScheduledFault`] (see `sandf_sim::fault`) and runs as a
//! replicated sweep with one cell per phase. The output is a CI-banded
//! *envelope table*: per phase, the measured indegree statistics next to
//! the §6.2 degree-Markov-chain prediction at the phase's effective loss
//! rate, and (for churn phases) the Lemma 6.10 departed-id decay bound.
//!
//! # Spec grammar
//!
//! One directive per line; blank lines and `#` comments are ignored.
//!
//! ```text
//! scenario <name>              # required; [A-Za-z0-9_-]+
//! n <nodes>                    # required; system size ≥ 4
//! view <s> <d_L>               # required; the SfConfig thresholds
//! degree <d0>                  # initial outdegree (default: 2/3 point)
//! replicates <r>               # sweep replicates per phase (default 3)
//! seed <u64>                   # base seed (default 42)
//! burn_in <rounds>             # lossless warm-up rounds (default 0)
//! protocol <name>              # sandf | push_only | push_pull | shuffle
//!                              # (default sandf; baselines run through the
//!                              # unified Engine/ProtocolBehavior traits)
//! broadcast <fanout> <max_age> [pull]
//!                              # optional rumor layer over the live views:
//!                              # each measured phase seeds a rumor at the
//!                              # lowest live id and reports coverage,
//!                              # spread time, and message complexity
//!
//! phase <rounds> <fault> <args...>
//! churn <leaves> <joins>       # optional, attaches to the phase above
//! ```
//!
//! The `phase` line — duration, fault model, positional arguments — is the
//! workspace's one fault grammar: its table, parser and printer live in
//! [`sandf_sim::fault`] ([`FaultSpec`]), and the same line can be POSTed
//! to a live daemon's `/ctl/fault`. This module adds the header
//! directives and `churn` around it.
//!
//! The canonical printer ([`std::fmt::Display`]) emits exactly this
//! grammar, so `parse ∘ print ∘ parse = parse` (round-trip identity —
//! pinned by `tests/scenario_spec.rs`).
//!
//! # Execution semantics
//!
//! Each replicate replays the scenario from round 0 on a fresh circulant
//! topology: `burn_in` lossless rounds, then phase 0, 1, … up to and
//! including the cell's phase, with engine statistics reset at the target
//! phase's start — so a phase's row reports *that phase's* loss and
//! capacity-skip rates, while its degree snapshot reflects the full
//! history (partitions that healed, churn that integrated). Churn is
//! applied at phase start (lowest live ids leave, joiners enter via the
//! highest live sponsor); `victims` phases re-aim the victim set at the
//! measured top-indegree nodes via the engines' `update_fault` hook.
//!
//! Replicates run on the [`ParSimulation`] engine, whose output is
//! byte-identical for any thread count, and draw their seeds from the
//! sweep executor's stable `(base_seed, cell, replicate)` hash — the
//! resulting TSV is deterministic across thread counts and machines
//! (pinned by `tests/scenario_determinism.rs`).

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::RngCore;
use sandf_core::{NodeId, SfConfig};
use sandf_graph::DegreeStats;
use sandf_markov::decay::leave_survival_bound;
use sandf_markov::{DegreeMc, DegreeMcParams};
use sandf_obs::MetricsRegistry;
use sandf_sim::experiment::initial_degree;
use sandf_sim::fault::{expect_args, parse_num};
use sandf_sim::stream::fnv1a64;
pub use sandf_sim::FaultSpec;
use sandf_sim::{
    rumor_channel_for, topology, BroadcastConfig, BroadcastLayer, Engine, ParSimulation,
    PhaseFault, ScheduledFault, UniformLoss,
};

use crate::fmt;
use crate::sweep::{Summary, SweepCell, SweepSpec};
use crate::sweeps::{ring_views, with_behavior};

/// The envelope tolerance added to the ci95 half-width when comparing the
/// measured mean indegree against the degree-MC prediction — the same
/// absolute anchor `tests/par_statistics.rs` uses.
pub const MC_MEAN_TOLERANCE: f64 = 1.0;

/// The metric columns every scenario cell reports, in order.
pub const SCENARIO_METRICS: &[&str] =
    &["mean_in", "in_std", "loss_rate", "skipped_frac", "stale_frac", "connected"];

/// The metric columns when the spec carries a `broadcast` directive: the
/// base columns plus the rumor layer's coverage, spread time to 99 %
/// (phase `rounds + 1` when unreached), and per-node message complexity,
/// all measured over the target phase.
pub const SCENARIO_BROADCAST_METRICS: &[&str] = &[
    "mean_in",
    "in_std",
    "loss_rate",
    "skipped_frac",
    "stale_frac",
    "connected",
    "bcast_coverage",
    "bcast_to99",
    "bcast_msgs_per_node",
];

// ---------------------------------------------------------------------------
// The AST
// ---------------------------------------------------------------------------

/// The protocol a scenario drives through the par engine. The default is
/// S&F; the baselines run through the unified `Engine`/`ProtocolBehavior`
/// traits on the same fault schedule. The §6.2 degree-MC and Lemma 6.10
/// predictions model S&F only, so the `mc_*`/`decay_bound` columns show
/// `-` for every other protocol — the envelope table still reports the
/// measured statistics under the scheduled faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolSpec {
    /// Send & Forget (the default).
    #[default]
    Sf,
    /// The push-only baseline.
    PushOnly,
    /// The push-pull baseline (reply size 3).
    PushPull,
    /// The shuffle baseline (gossip size 3).
    Shuffle,
}

impl ProtocolSpec {
    /// The spec keyword naming this protocol.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Sf => "sandf",
            Self::PushOnly => "push_only",
            Self::PushPull => "push_pull",
            Self::Shuffle => "shuffle",
        }
    }
}

/// The `broadcast` directive: runs a rumor layer
/// ([`sandf_sim::BroadcastLayer`]) over the live views during each
/// measured phase, seeded at the lowest live id when the phase begins.
/// The rumor channel mirrors the phase's fault model (see
/// [`sandf_sim::rumor_channel_for`]), so the envelope table reports how the scheduled
/// fault degrades dissemination, not just view quality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BroadcastSpec {
    /// Push targets per informed node per round (≥ 1).
    pub fanout: usize,
    /// Rounds an informed node keeps pushing (`255` ≈ forever).
    pub max_age: u8,
    /// Push-pull instead of push-only.
    pub pull: bool,
}

impl BroadcastSpec {
    /// The rumor parameters this directive names.
    #[must_use]
    pub fn config(&self) -> BroadcastConfig {
        if self.pull {
            BroadcastConfig::push_pull(self.fanout, self.max_age)
        } else {
            BroadcastConfig::push(self.fanout, self.max_age)
        }
    }
}

/// Churn applied at a phase's start: the `leaves` lowest live ids depart,
/// then `joins` new nodes enter via the highest live sponsor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChurnSpec {
    /// Nodes departing at phase start.
    pub leaves: usize,
    /// Nodes joining at phase start.
    pub joins: usize,
}

/// One phase of a scenario: a fault model governing `rounds` rounds, with
/// optional churn at the boundary.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Phase {
    /// Rounds this phase governs.
    pub rounds: usize,
    /// The fault model in force.
    pub fault: FaultSpec,
    /// Churn applied when the phase begins.
    pub churn: Option<ChurnSpec>,
}

/// A parsed scenario: scale header plus the phase schedule.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9_-]+`).
    pub name: String,
    /// System size.
    pub n: usize,
    /// View size `s`.
    pub view_size: usize,
    /// Lower threshold `d_L`.
    pub lower_threshold: usize,
    /// Initial outdegree of the circulant bootstrap topology.
    pub degree: usize,
    /// Sweep replicates per phase cell.
    pub replicates: usize,
    /// Base seed for the sweep's replicate-seed hash.
    pub seed: u64,
    /// Lossless warm-up rounds before phase 0.
    pub burn_in: usize,
    /// The protocol under test (default S&F).
    pub protocol: ProtocolSpec,
    /// Optional rumor layer riding the live views during measured phases.
    pub broadcast: Option<BroadcastSpec>,
    /// The phase schedule, in order.
    pub phases: Vec<Phase>,
}

/// A parse failure: the offending line (1-based; 0 for whole-spec errors)
/// and an actionable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioParseError {
    /// 1-based line number, or 0 when the spec as a whole is invalid.
    pub line: usize,
    /// What went wrong and what was expected.
    pub message: String,
}

impl std::fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario spec: {}", self.message)
        } else {
            write!(f, "scenario spec line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioParseError {}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn err(line: usize, message: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError { line, message: message.into() }
}

fn set_once<T>(slot: &mut Option<T>, value: T, directive: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate `{directive}` directive"));
    }
    *slot = Some(value);
    Ok(())
}

impl Scenario {
    /// Parses a scenario spec (the grammar in the module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioParseError`] naming the offending line and what
    /// was expected there.
    pub fn parse(text: &str) -> Result<Self, ScenarioParseError> {
        let mut name: Option<String> = None;
        let mut n: Option<usize> = None;
        let mut view: Option<(usize, usize)> = None;
        let mut degree: Option<usize> = None;
        let mut replicates: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut burn_in: Option<usize> = None;
        let mut protocol: Option<ProtocolSpec> = None;
        let mut broadcast: Option<BroadcastSpec> = None;
        let mut phases: Vec<Phase> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let directive = tokens.next().expect("non-empty line has a first token");
            let args: Vec<&str> = tokens.collect();
            // One directive; its rejection message gets the line number
            // prefixed below, so the fault grammar's own errors (which know
            // no lines) read the same here as on a daemon's `/ctl/fault`.
            let mut apply = || -> Result<(), String> {
                match directive {
                    "scenario" => {
                        expect_args("scenario", "scenario <name>", &args, 1)?;
                        let candidate = args[0];
                        if !candidate
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                        {
                            return Err(format!(
                                "scenario name {candidate:?} may only use [A-Za-z0-9_-]"
                            ));
                        }
                        set_once(&mut name, candidate.to_string(), "scenario")
                    }
                    "n" => {
                        expect_args("n", "n <nodes>", &args, 1)?;
                        let value: usize = parse_num("n", "an integer node count", args[0])?;
                        if value < 4 {
                            return Err(format!("`n` must be ≥ 4, got {value}"));
                        }
                        set_once(&mut n, value, "n")
                    }
                    "view" => {
                        expect_args("view", "view <s> <d_L>", &args, 2)?;
                        let s: usize = parse_num("view", "an integer view size", args[0])?;
                        let d_l: usize = parse_num("view", "an integer lower threshold", args[1])?;
                        if let Err(e) = SfConfig::new(s, d_l) {
                            return Err(format!("`view {s} {d_l}` is not a legal config: {e}"));
                        }
                        set_once(&mut view, (s, d_l), "view")
                    }
                    "degree" => {
                        expect_args("degree", "degree <d0>", &args, 1)?;
                        let value: usize = parse_num("degree", "an integer outdegree", args[0])?;
                        if value < 2 || !value.is_multiple_of(2) {
                            return Err(format!("`degree` must be even and ≥ 2, got {value}"));
                        }
                        set_once(&mut degree, value, "degree")
                    }
                    "replicates" => {
                        expect_args("replicates", "replicates <r>", &args, 1)?;
                        let value: usize = parse_num("replicates", "an integer count", args[0])?;
                        if value == 0 {
                            return Err("`replicates` must be at least 1".into());
                        }
                        set_once(&mut replicates, value, "replicates")
                    }
                    "seed" => {
                        expect_args("seed", "seed <u64>", &args, 1)?;
                        set_once(&mut seed, parse_num("seed", "an integer seed", args[0])?, "seed")
                    }
                    "burn_in" => {
                        expect_args("burn_in", "burn_in <rounds>", &args, 1)?;
                        let rounds = parse_num("burn_in", "an integer round count", args[0])?;
                        set_once(&mut burn_in, rounds, "burn_in")
                    }
                    "protocol" => {
                        expect_args("protocol", "protocol <name>", &args, 1)?;
                        let value = match args[0] {
                            "sandf" => ProtocolSpec::Sf,
                            "push_only" => ProtocolSpec::PushOnly,
                            "push_pull" => ProtocolSpec::PushPull,
                            "shuffle" => ProtocolSpec::Shuffle,
                            other => {
                                return Err(format!(
                                    "unknown protocol {other:?} — expected one of \
                                     sandf, push_only, push_pull, shuffle"
                                ));
                            }
                        };
                        set_once(&mut protocol, value, "protocol")
                    }
                    "broadcast" => {
                        if args.len() < 2 || args.len() > 3 {
                            return Err(
                                "`broadcast` expects `broadcast <fanout> <max_age> [pull]`".into(),
                            );
                        }
                        let fanout: usize = parse_num("broadcast", "an integer fanout", args[0])?;
                        if fanout == 0 {
                            return Err("`broadcast` fanout must be at least 1".into());
                        }
                        let max_age: u8 = parse_num("broadcast", "a max age in 0..=255", args[1])?;
                        let pull = match args.get(2) {
                            None => false,
                            Some(&"pull") => true,
                            Some(other) => {
                                return Err(format!(
                                    "`broadcast` third argument must be `pull`, got {other:?}"
                                ));
                            }
                        };
                        set_once(
                            &mut broadcast,
                            BroadcastSpec { fanout, max_age, pull },
                            "broadcast",
                        )
                    }
                    "phase" => {
                        let (rounds, fault) = FaultSpec::parse_phase(&args)?;
                        phases.push(Phase { rounds, fault, churn: None });
                        Ok(())
                    }
                    "churn" => {
                        expect_args("churn", "churn <leaves> <joins>", &args, 2)?;
                        let Some(phase) = phases.last_mut() else {
                            return Err("`churn` must follow a `phase` line".into());
                        };
                        if phase.churn.is_some() {
                            return Err("this phase already has a `churn` line".into());
                        }
                        phase.churn = Some(ChurnSpec {
                            leaves: parse_num("churn", "an integer leave count", args[0])?,
                            joins: parse_num("churn", "an integer join count", args[1])?,
                        });
                        Ok(())
                    }
                    other => Err(format!(
                        "unknown directive {other:?} — expected one of scenario, n, view, \
                         degree, replicates, seed, burn_in, protocol, broadcast, phase, churn"
                    )),
                }
            };
            apply().map_err(|message| err(idx + 1, message))?;
        }

        let name = name.ok_or_else(|| err(0, "missing required `scenario <name>` directive"))?;
        let n = n.ok_or_else(|| err(0, "missing required `n <nodes>` directive"))?;
        let (view_size, lower_threshold) =
            view.ok_or_else(|| err(0, "missing required `view <s> <d_L>` directive"))?;
        if phases.is_empty() {
            return Err(err(0, "a scenario needs at least one `phase` line"));
        }
        let config = SfConfig::new(view_size, lower_threshold).expect("validated above");
        let degree = degree.unwrap_or_else(|| initial_degree(config, n));
        if degree > n.saturating_sub(2) {
            return Err(err(0, format!("`degree {degree}` does not fit an n = {n} system")));
        }
        for phase in &phases {
            if let FaultSpec::Victims { count, .. } = phase.fault {
                if count >= n {
                    return Err(err(
                        0,
                        format!("`victims {count}` must target fewer than all n = {n} nodes"),
                    ));
                }
            }
            if let Some(churn) = phase.churn {
                if churn.leaves + 4 > n {
                    return Err(err(
                        0,
                        format!(
                            "`churn {} …` would leave fewer than 4 of n = {n} nodes",
                            churn.leaves
                        ),
                    ));
                }
            }
        }
        Ok(Self {
            name,
            n,
            view_size,
            lower_threshold,
            degree,
            replicates: replicates.unwrap_or(3),
            seed: seed.unwrap_or(42),
            burn_in: burn_in.unwrap_or(0),
            protocol: protocol.unwrap_or_default(),
            broadcast,
            phases,
        })
    }

    /// The protocol configuration the spec names.
    #[must_use]
    pub fn config(&self) -> SfConfig {
        SfConfig::new(self.view_size, self.lower_threshold).expect("validated at parse time")
    }

    /// Compiles the phase schedule to a [`ScheduledFault`]: `burn_in`
    /// lossless rounds (when nonzero), then each phase over its absolute
    /// round window. `salt` decorrelates hash-derived maps across
    /// replicates.
    #[must_use]
    pub fn compile(&self, salt: u64) -> ScheduledFault {
        let mut schedule = Vec::with_capacity(self.phases.len() + 1);
        let mut start = self.burn_in as u64;
        if self.burn_in > 0 {
            schedule.push((
                start,
                PhaseFault::Uniform(UniformLoss::new(0.0).expect("0 is a legal rate")),
            ));
        }
        for phase in &self.phases {
            let end = start + phase.rounds as u64;
            schedule.push((end, phase.fault.build(start, phase.rounds as u64, salt)));
            start = end;
        }
        ScheduledFault::new(schedule)
    }

    /// The index of spec phase `i` inside the compiled schedule (the
    /// burn-in prepends a lossless phase when nonzero).
    #[must_use]
    pub fn schedule_index(&self, phase: usize) -> usize {
        phase + usize::from(self.burn_in > 0)
    }
}

impl std::fmt::Display for Scenario {
    /// The canonical printing: parsing the output yields a `Scenario`
    /// equal to `self`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "scenario {}", self.name)?;
        writeln!(f, "n {}", self.n)?;
        writeln!(f, "view {} {}", self.view_size, self.lower_threshold)?;
        writeln!(f, "degree {}", self.degree)?;
        writeln!(f, "replicates {}", self.replicates)?;
        writeln!(f, "seed {}", self.seed)?;
        writeln!(f, "burn_in {}", self.burn_in)?;
        // Printed only when non-default, so pre-existing S&F specs (and
        // the recorded golden transcripts that echo them) are unchanged;
        // the round trip is still the identity because the parse default
        // is `sandf`.
        if self.protocol != ProtocolSpec::Sf {
            writeln!(f, "protocol {}", self.protocol.kind())?;
        }
        // Same non-default rule as `protocol`: absent directives stay
        // absent, so pre-PR-10 specs and goldens print byte-identically.
        if let Some(b) = self.broadcast {
            write!(f, "broadcast {} {}", b.fanout, b.max_age)?;
            if b.pull {
                write!(f, " pull")?;
            }
            writeln!(f)?;
        }
        for phase in &self.phases {
            writeln!(f)?;
            writeln!(f, "phase {} {}", phase.rounds, phase.fault)?;
            if let Some(churn) = phase.churn {
                writeln!(f, "churn {} {}", churn.leaves, churn.joins)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// One phase's row of the envelope table.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Phase index.
    pub phase: usize,
    /// Fault-model keyword.
    pub fault: &'static str,
    /// Rounds the phase governed.
    pub rounds: usize,
    /// The phase's effective (marginal) loss rate.
    pub effective_rate: f64,
    /// Degree-MC predicted mean indegree at the effective rate, if the
    /// chain converges there.
    pub mc_mean: Option<f64>,
    /// Degree-MC predicted indegree standard deviation.
    pub mc_std: Option<f64>,
    /// Lemma 6.10 ceiling on the stale-entry fraction at phase end (only
    /// for phases whose churn removed nodes).
    pub decay_bound: Option<f64>,
    /// Measured mean indegree across replicates.
    pub mean_in: Summary,
    /// Measured indegree standard deviation.
    pub in_std: Summary,
    /// Measured per-send loss rate during the phase.
    pub loss_rate: Summary,
    /// Fraction of scheduled steps skipped by capacity gating.
    pub skipped_frac: Summary,
    /// Fraction of view entries naming departed nodes at phase end.
    pub stale_frac: Summary,
    /// Fraction of replicates ending the phase weakly connected.
    pub connected: Summary,
    /// Rumor-layer columns (only when the spec carries `broadcast`).
    pub broadcast: Option<BroadcastOutcome>,
}

/// The rumor-layer columns of a broadcast-enabled scenario row, measured
/// over the target phase.
#[derive(Clone, Debug)]
pub struct BroadcastOutcome {
    /// Live-set coverage at phase end.
    pub coverage: Summary,
    /// Rounds to 99 % coverage (`rounds + 1` sentinel when unreached).
    pub to_99: Summary,
    /// Rumor messages per live node.
    pub msgs_per_node: Summary,
}

impl ScenarioOutcome {
    /// Absolute gap between the measured mean indegree and the degree-MC
    /// prediction (`None` when the chain did not converge).
    #[must_use]
    pub fn mc_gap(&self) -> Option<f64> {
        self.mc_mean.map(|m| (self.mean_in.mean - m).abs())
    }

    /// Whether the measured mean indegree sits inside the CI band around
    /// the degree-MC prediction: gap ≤ ci95 + `tolerance`.
    #[must_use]
    pub fn within_envelope(&self, tolerance: f64) -> Option<bool> {
        self.mc_gap().map(|gap| gap <= self.mean_in.ci95 + tolerance)
    }
}

/// The result of running one scenario: the per-phase envelope rows.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Replicates behind every row.
    pub replicates: usize,
    /// One row per phase, in order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ScenarioReport {
    /// Renders the envelope table: per phase, the key columns, the
    /// degree-MC and Lemma 6.10 predictions, the measured
    /// `<metric>_mean`/`<metric>_ci95` pairs, and an `in`/`OUT` verdict on
    /// the indegree envelope at `tolerance`. Byte-stable across runs and
    /// thread counts.
    #[must_use]
    pub fn to_tsv(&self, tolerance: f64) -> String {
        let mut out = String::new();
        let mut cols = vec![
            "phase".to_string(),
            "fault".to_string(),
            "rounds".to_string(),
            "eff_rate".to_string(),
            "mc_mean".to_string(),
            "mc_std".to_string(),
            "decay_bound".to_string(),
        ];
        for metric in SCENARIO_METRICS {
            cols.push(format!("{metric}_mean"));
            cols.push(format!("{metric}_ci95"));
        }
        let has_broadcast = self.outcomes.iter().any(|o| o.broadcast.is_some());
        if has_broadcast {
            for metric in &SCENARIO_BROADCAST_METRICS[SCENARIO_METRICS.len()..] {
                cols.push(format!("{metric}_mean"));
                cols.push(format!("{metric}_ci95"));
            }
        }
        cols.push("mc_gap".to_string());
        cols.push("verdict".to_string());
        out.push_str(&cols.join("\t"));
        out.push('\n');
        let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), fmt);
        for row in &self.outcomes {
            let mut fields = vec![
                row.phase.to_string(),
                row.fault.to_string(),
                row.rounds.to_string(),
                fmt(row.effective_rate),
                opt(row.mc_mean),
                opt(row.mc_std),
                opt(row.decay_bound),
            ];
            for summary in [
                &row.mean_in,
                &row.in_std,
                &row.loss_rate,
                &row.skipped_frac,
                &row.stale_frac,
                &row.connected,
            ] {
                fields.push(fmt(summary.mean));
                fields.push(fmt(summary.ci95));
            }
            if has_broadcast {
                if let Some(b) = &row.broadcast {
                    for summary in [&b.coverage, &b.to_99, &b.msgs_per_node] {
                        fields.push(fmt(summary.mean));
                        fields.push(fmt(summary.ci95));
                    }
                } else {
                    fields.extend((0..6).map(|_| "-".to_string()));
                }
            }
            fields.push(opt(row.mc_gap()));
            fields.push(match row.within_envelope(tolerance) {
                None => "-".to_string(),
                Some(true) => "in".to_string(),
                Some(false) => "OUT".to_string(),
            });
            out.push_str(&fields.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// One sweep cell: a phase of the scenario (replicates replay the run from
/// round 0 through this phase's end).
struct PhaseCell<'a> {
    scenario: &'a Scenario,
    phase: usize,
}

impl SweepCell for PhaseCell<'_> {
    fn key(&self) -> String {
        format!("{}/phase={}", self.scenario.name, self.phase)
    }
}

/// Runs one replicate of `scenario` through phase `target` inclusive on the
/// par engine, returning the [`SCENARIO_METRICS`] vector measured at the
/// end of the target phase. The `protocol` directive picks which
/// [`sandf_sim::ProtocolBehavior`] drives the slots; every protocol runs on
/// the same par engine, so thread invariance holds for the whole zoo.
fn run_replicate(
    scenario: &Scenario,
    target: usize,
    threads: usize,
    rng: &mut StdRng,
    counters: &FaultCounters,
    registry: &MetricsRegistry,
) -> Vec<f64> {
    let fault_salt = rng.next_u64();
    let sim_seed = rng.next_u64();
    let config = scenario.config();
    let fault = scenario.compile(fault_salt);
    match scenario.protocol {
        // S&F keeps its own constructor: `circulant` nodes lay their slots
        // out differently from `from_views`, and the goldens pin that.
        ProtocolSpec::Sf => {
            let nodes = topology::circulant(scenario.n, config, scenario.degree);
            let sim = ParSimulation::new(nodes, fault, sim_seed, threads);
            drive_replicate(sim, scenario, target, sim_seed, counters, registry)
        }
        baseline => with_behavior!(baseline.kind(), |behavior| {
            let views = ring_views(scenario.n, scenario.degree);
            let sim = ParSimulation::from_views(behavior, config, views, fault, sim_seed, threads);
            drive_replicate(sim, scenario, target, sim_seed, counters, registry)
        }),
    }
}

/// The replicate body, generic over the unified [`Engine`] trait: burn-in,
/// then per phase churn → victim re-aim → (at the target) stats reset →
/// rounds, then the [`SCENARIO_METRICS`] measurement.
fn drive_replicate<E: Engine<Fault = ScheduledFault>>(
    mut sim: E,
    scenario: &Scenario,
    target: usize,
    sim_seed: u64,
    counters: &FaultCounters,
    registry: &MetricsRegistry,
) -> Vec<f64> {
    sim.run_rounds(scenario.burn_in);
    counters.replicates.inc();

    let mut layer: Option<BroadcastLayer> = None;
    for (p, phase) in scenario.phases.iter().enumerate().take(target + 1) {
        if let Some(churn) = phase.churn {
            let mut live = sim.live_ids();
            live.sort_unstable();
            // The smallest ids leave, down to a floor of 4 live nodes.
            let leaving = churn.leaves.min(live.len().saturating_sub(4));
            for id in live.drain(..leaving) {
                assert!(sim.leave(id), "id came from live_ids");
                counters.churn_leaves.inc();
            }
            for _ in 0..churn.joins {
                let sponsor = *live.last().expect("at least 4 nodes stay live");
                if let Ok(joiner) = sim.join_via(sponsor) {
                    live.push(joiner);
                    counters.churn_joins.inc();
                }
            }
        }
        let mut victims: Vec<NodeId> = Vec::new();
        if let FaultSpec::Victims { count, .. } = phase.fault {
            victims = sim.graph().top_in_degree(count);
            let index = scenario.schedule_index(p);
            let aimed = victims.clone();
            sim.update_fault(|fault| {
                if let PhaseFault::Victims(v) = fault.phase_mut(index) {
                    v.set_victims(&aimed);
                }
            });
            counters.retargets.inc();
        }
        if p == target {
            sim.reset_stats();
            if let Some(spec) = scenario.broadcast {
                let channel = rumor_channel_for(&phase.fault, scenario.n, &victims);
                let mut l = BroadcastLayer::with_channel(sim_seed, spec.config(), channel);
                l.attach_metrics(registry);
                let origin = sim.live_ids().into_iter().min().expect("at least 4 nodes stay live");
                l.seed_rumor_at(origin);
                layer = Some(l);
            }
        }
        if let Some(l) = &mut layer {
            // The rumor rides the target phase round by round.
            for _ in 0..phase.rounds {
                sim.round();
                l.step(&sim);
            }
        } else {
            sim.run_rounds(phase.rounds);
        }
        counters.rounds.add(phase.rounds as u64);
    }

    let graph = sim.graph();
    let stats = sim.stats();
    let degrees = DegreeStats::from_samples(&graph.in_degrees());
    let edges = graph.edge_count();
    let steps = stats.actions + stats.skipped;
    let mut values = vec![
        degrees.mean,
        degrees.std_dev(),
        if stats.sent == 0 { 0.0 } else { stats.lost as f64 / stats.sent as f64 },
        if steps == 0 { 0.0 } else { stats.skipped as f64 / steps as f64 },
        if edges == 0 { 0.0 } else { graph.dangling_edge_count() as f64 / edges as f64 },
        f64::from(u8::from(graph.is_weakly_connected())),
    ];
    if let Some(l) = &layer {
        let report = l.report();
        let rounds = scenario.phases[target].rounds;
        values.push(report.coverage);
        values.push(report.to_99.map_or((rounds + 1) as f64, |v| v as f64));
        values.push(report.messages_per_node);
    }
    values
}

/// The `sim.fault.*` observability counters a scenario run maintains.
struct FaultCounters {
    replicates: sandf_obs::CounterHandle,
    rounds: sandf_obs::CounterHandle,
    churn_leaves: sandf_obs::CounterHandle,
    churn_joins: sandf_obs::CounterHandle,
    retargets: sandf_obs::CounterHandle,
}

impl FaultCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            replicates: registry.counter("sim.fault.replicates"),
            rounds: registry.counter("sim.fault.rounds"),
            churn_leaves: registry.counter("sim.fault.churn_leaves"),
            churn_joins: registry.counter("sim.fault.churn_joins"),
            retargets: registry.counter("sim.fault.victim_retargets"),
        }
    }
}

/// The Lemma 6.10 stale-fraction ceiling for a phase: each departed id had
/// at most `s` live instances at departure, each surviving `rounds` rounds
/// with probability at most the per-round survival factor compounded — so
/// the expected stale entries are bounded by `leaves · s · bound` over a
/// floor of `n · d_L / 2` remaining entries.
fn decay_ceiling(scenario: &Scenario, phase: &Phase) -> Option<f64> {
    let leaves = phase.churn.map_or(0, |c| c.leaves);
    if leaves == 0 {
        return None;
    }
    let loss = phase.fault.effective_rate(scenario.n);
    // δ = 0: omitting the duplication correction only weakens (raises) the
    // ceiling, keeping it sound.
    if loss >= 1.0 {
        return None;
    }
    let bound = *leave_survival_bound(
        loss,
        0.0,
        scenario.lower_threshold,
        scenario.view_size,
        phase.rounds,
    )
    .last()
    .expect("phase lasts at least one round");
    let stale_ceiling = leaves as f64 * scenario.view_size as f64 * bound;
    let entry_floor = scenario.n as f64 * scenario.lower_threshold as f64 / 2.0;
    Some((stale_ceiling / entry_floor).min(1.0))
}

/// The degree-MC prediction `(mean_in, std_in)` at a config and loss
/// rate, memoized process-wide: a multi-phase scenario revisits the same
/// handful of rates (and the golden tests revisit them across thread
/// counts), while a solve costs ~1 s in a debug build. The memo is a cache
/// keyed by exact inputs and only ever looked up, never iterated, so its
/// order cannot reach output: a hit returns what a fresh solve would.
fn degree_mc_prediction(config: SfConfig, rate: f64) -> Option<(f64, f64)> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};
    type Cache = Mutex<HashMap<(usize, usize, u64), Option<(f64, f64)>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let key = (config.view_size(), config.lower_threshold(), rate.to_bits());
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // Recover rather than propagate a poisoned cache: a replicate thread
    // that panics elsewhere must not turn every later prediction lookup
    // into a second panic (the map is never left mid-update).
    if let Some(hit) = cache.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
        return *hit;
    }
    let result = DegreeMc::solve(DegreeMcParams::new(config, rate))
        .ok()
        .map(|mc| (mc.mean_in(), mc.std_in()));
    cache.lock().unwrap_or_else(PoisonError::into_inner).insert(key, result);
    result
}

/// Runs `scenario` as a replicated sweep — one cell per phase, each
/// replicate replaying from round 0 through its phase on the par engine
/// with `threads` worker threads — and assembles the envelope report.
/// `sim.fault.*` counters land in `registry`.
///
/// The report is deterministic: thread counts (sweep workers and engine
/// threads alike) change wall-clock, never a byte of
/// [`ScenarioReport::to_tsv`].
#[must_use]
pub fn run_scenario(
    scenario: &Scenario,
    threads: usize,
    registry: &MetricsRegistry,
) -> ScenarioReport {
    let counters = FaultCounters::new(registry);
    let cells: Vec<PhaseCell<'_>> =
        (0..scenario.phases.len()).map(|phase| PhaseCell { scenario, phase }).collect();
    let spec = SweepSpec::new(cells, scenario.replicates, scenario.seed);
    let metrics: &'static [&'static str] =
        if scenario.broadcast.is_some() { SCENARIO_BROADCAST_METRICS } else { SCENARIO_METRICS };
    let results = spec.run(metrics, |cell, rng| {
        run_replicate(scenario, cell.phase, threads, rng, &counters, registry)
    });

    let config = scenario.config();
    let outcomes = scenario
        .phases
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let rate = phase.fault.effective_rate(scenario.n);
            // The degree MC (§6.2) and the Lemma 6.10 decay bound model
            // S&F's send/duplicate dynamics; for the baseline protocols the
            // measured columns stand alone and the model columns print `-`.
            let is_sf = scenario.protocol == ProtocolSpec::Sf;
            let mc = if is_sf { degree_mc_prediction(config, rate) } else { None };
            ScenarioOutcome {
                phase: i,
                fault: phase.fault.kind(),
                rounds: phase.rounds,
                effective_rate: rate,
                mc_mean: mc.map(|(mean, _)| mean),
                mc_std: mc.map(|(_, std)| std),
                decay_bound: if is_sf { decay_ceiling(scenario, phase) } else { None },
                mean_in: *results.summary(i, "mean_in"),
                in_std: *results.summary(i, "in_std"),
                loss_rate: *results.summary(i, "loss_rate"),
                skipped_frac: *results.summary(i, "skipped_frac"),
                stale_frac: *results.summary(i, "stale_frac"),
                connected: *results.summary(i, "connected"),
                broadcast: scenario.broadcast.map(|_| BroadcastOutcome {
                    coverage: *results.summary(i, "bcast_coverage"),
                    to_99: *results.summary(i, "bcast_to99"),
                    msgs_per_node: *results.summary(i, "bcast_msgs_per_node"),
                }),
            }
        })
        .collect();
    ScenarioReport { name: scenario.name.clone(), replicates: scenario.replicates, outcomes }
}

// ---------------------------------------------------------------------------
// Built-in scenario library
// ---------------------------------------------------------------------------

/// The built-in scenario specs `repro scenario_run` executes when
/// given no arguments: one per fault family, at CI-friendly scale.
#[must_use]
pub fn builtin_specs() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "partition-heal",
            "scenario partition-heal\n\
             n 96\n\
             view 16 6\n\
             degree 10\n\
             replicates 5\n\
             seed 2009\n\
             burn_in 10\n\
             \n\
             phase 30 uniform 0.01\n\
             phase 20 partition 2 1 0.01\n\
             phase 30 uniform 0.01\n",
        ),
        (
            "weak-links",
            "scenario weak-links\n\
             n 96\n\
             view 16 6\n\
             degree 10\n\
             replicates 5\n\
             seed 2009\n\
             burn_in 10\n\
             \n\
             phase 30 perlink 7 0.25 0.005 0.6\n\
             phase 30 uniform 0.005\n",
        ),
        (
            "hub-loss",
            "scenario hub-loss\n\
             n 96\n\
             view 16 6\n\
             degree 10\n\
             replicates 5\n\
             seed 2009\n\
             burn_in 10\n\
             \n\
             phase 30 uniform 0.01\n\
             phase 25 victims 6 0.9 0.01\n\
             churn 2 2\n\
             phase 25 uniform 0.01\n",
        ),
        (
            "slow-cohort",
            "scenario slow-cohort\n\
             n 96\n\
             view 16 6\n\
             degree 10\n\
             replicates 5\n\
             seed 2009\n\
             burn_in 10\n\
             \n\
             phase 30 capacity 3 0.3 4 0.02\n\
             phase 25 bursty 0.05 0.2 0.01 0.5\n",
        ),
        (
            "shuffle-drain",
            // The §3.1 contrast through the fault DSL: the shuffle baseline
            // (deletes sent ids) under escalating uniform loss — its id
            // population drains where S&F's holds. Model columns print `-`:
            // the degree MC and decay bound are S&F-only.
            "scenario shuffle-drain\n\
             n 96\n\
             view 16 6\n\
             degree 10\n\
             replicates 5\n\
             seed 2009\n\
             burn_in 10\n\
             protocol shuffle\n\
             \n\
             phase 30 uniform 0.02\n\
             phase 30 uniform 0.10\n\
             churn 2 2\n\
             phase 30 uniform 0.02\n",
        ),
    ]
}

/// Renders one scenario end to end for `repro scenario_run`: the spec
/// echoed as `#` commentary, the envelope TSV, and the `sim.fault.*`
/// exposition as trailing commentary.
#[must_use]
pub fn render_scenario(scenario: &Scenario, threads: usize) -> String {
    let registry = MetricsRegistry::new();
    let report = run_scenario(scenario, threads, &registry);
    let mut out = String::new();
    for line in scenario.to_string().lines() {
        if line.is_empty() {
            let _ = writeln!(out, "#");
        } else {
            let _ = writeln!(out, "# {line}");
        }
    }
    out.push_str(&report.to_tsv(MC_MEAN_TOLERANCE));
    for line in registry.render_prometheus().lines() {
        if line.contains("sim_fault") || line.contains("sim_broadcast") {
            let _ = writeln!(out, "# {line}");
        }
    }
    out
}

/// A scenario variant with the base seed replaced — the shape the golden
/// determinism tests sweep.
#[must_use]
pub fn with_seed(spec: &str, seed: u64) -> Scenario {
    let mut scenario = Scenario::parse(spec).expect("builtin specs parse");
    scenario.seed = seed;
    scenario
}

/// A stable hash of a report's TSV — handy for quick cross-machine
/// comparisons without shipping the table.
#[must_use]
pub fn tsv_fingerprint(tsv: &str) -> u64 {
    fnv1a64(tsv.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> String {
        "scenario tiny\nn 24\nview 12 4\ndegree 6\nreplicates 2\nseed 7\nburn_in 2\n\n\
         phase 4 uniform 0.05\nphase 3 partition 2 1 0.02\nchurn 1 1\n"
            .to_string()
    }

    #[test]
    fn parses_the_tiny_spec() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        assert_eq!(s.name, "tiny");
        assert_eq!(s.n, 24);
        assert_eq!((s.view_size, s.lower_threshold), (12, 4));
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[1].churn, Some(ChurnSpec { leaves: 1, joins: 1 }));
    }

    #[test]
    fn print_parse_is_identity() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        let reparsed = Scenario::parse(&s.to_string()).expect("canonical printing parses");
        assert_eq!(s, reparsed);
    }

    #[test]
    fn every_builtin_parses_and_round_trips() {
        for (name, spec) in builtin_specs() {
            let s = Scenario::parse(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(s.name, *name);
            assert_eq!(Scenario::parse(&s.to_string()).expect("round-trips"), s);
        }
    }

    #[test]
    fn compile_places_phase_windows_after_burn_in() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        let schedule = s.compile(0);
        // Lossless burn-in, then the two phases.
        assert_eq!(schedule.phases().len(), 3);
        assert_eq!(schedule.phases()[0].0, 2);
        assert_eq!(schedule.phases()[1].0, 6);
        assert_eq!(schedule.phases()[2].0, 9);
        assert_eq!(s.schedule_index(1), 2);
        // The partition window is the phase's own rounds.
        let PhaseFault::Partition(p) = &schedule.phases()[2].1 else {
            panic!("expected a partition phase");
        };
        assert!(p.active_in(6) && p.active_in(8) && !p.active_in(9) && !p.active_in(5));
    }

    #[test]
    fn runner_produces_one_row_per_phase_and_is_thread_invariant() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        let a = run_scenario(&s, 1, &MetricsRegistry::new());
        let b = run_scenario(&s, 3, &MetricsRegistry::new());
        assert_eq!(a.outcomes.len(), 2);
        assert_eq!(
            a.to_tsv(MC_MEAN_TOLERANCE),
            b.to_tsv(MC_MEAN_TOLERANCE),
            "engine thread count leaked into the report"
        );
    }

    #[test]
    fn protocol_directive_parses_and_round_trips() {
        let spec = tiny_spec().replace("burn_in 2\n", "burn_in 2\nprotocol shuffle\n");
        let s = Scenario::parse(&spec).expect("parses");
        assert_eq!(s.protocol, ProtocolSpec::Shuffle);
        let printed = s.to_string();
        assert!(printed.contains("protocol shuffle"), "non-default protocol must print");
        assert_eq!(Scenario::parse(&printed).expect("round-trips"), s);
    }

    #[test]
    fn default_protocol_is_sandf_and_stays_unprinted() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        assert_eq!(s.protocol, ProtocolSpec::Sf);
        // Keeping the default implicit keeps the pr6 golden transcripts
        // (which echo the canonical printing) byte-identical.
        assert!(!s.to_string().contains("protocol"));
    }

    #[test]
    fn rejects_unknown_protocol() {
        let spec = tiny_spec().replace("burn_in 2\n", "protocol chord\n");
        let error = Scenario::parse(&spec).expect_err("unknown protocol must be rejected");
        assert!(error.message.contains("chord") && error.message.contains("push_pull"));
    }

    #[test]
    fn baseline_protocols_run_thread_invariantly_without_model_columns() {
        let spec = tiny_spec().replace("burn_in 2\n", "burn_in 2\nprotocol shuffle\n");
        let s = Scenario::parse(&spec).expect("parses");
        let a = run_scenario(&s, 1, &MetricsRegistry::new());
        let b = run_scenario(&s, 3, &MetricsRegistry::new());
        assert_eq!(
            a.to_tsv(MC_MEAN_TOLERANCE),
            b.to_tsv(MC_MEAN_TOLERANCE),
            "engine thread count leaked into a baseline-protocol report"
        );
        for row in &a.outcomes {
            assert_eq!(row.mc_mean, None, "the degree MC models S&F only");
            assert_eq!(row.decay_bound, None, "the decay bound models S&F only");
            assert!(row.mean_in.mean > 0.0, "the shuffle run should still gossip");
        }
    }

    #[test]
    fn fault_counters_land_in_the_registry() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        let registry = MetricsRegistry::new();
        let _ = run_scenario(&s, 1, &registry);
        // 2 phases × 2 replicates.
        assert_eq!(registry.counter_value("sim.fault.replicates"), Some(4));
        assert!(registry.counter_value("sim.fault.churn_leaves").unwrap_or(0) > 0);
    }

    fn broadcast_spec() -> String {
        "scenario tiny-bcast\nn 24\nview 12 4\ndegree 6\nreplicates 2\nseed 7\nburn_in 2\n\
         broadcast 2 255\n\nphase 20 uniform 0.05\nphase 4 partition 2 1 0.02\n"
            .to_string()
    }

    #[test]
    fn broadcast_directive_parses_prints_and_rejects_bad_args() {
        let s = Scenario::parse(&broadcast_spec()).expect("parses");
        assert_eq!(s.broadcast, Some(BroadcastSpec { fanout: 2, max_age: 255, pull: false }));
        assert_eq!(Scenario::parse(&s.to_string()).expect("round-trips"), s);
        assert!(s.to_string().contains("broadcast 2 255\n"));

        let pull = broadcast_spec().replace("broadcast 2 255", "broadcast 1 8 pull");
        let s = Scenario::parse(&pull).expect("parses");
        assert_eq!(s.broadcast, Some(BroadcastSpec { fanout: 1, max_age: 8, pull: true }));
        assert!(s.to_string().contains("broadcast 1 8 pull\n"));

        for bad in ["broadcast 0 255", "broadcast 1", "broadcast 1 256", "broadcast 1 8 push"] {
            let spec = broadcast_spec().replace("broadcast 2 255", bad);
            assert!(Scenario::parse(&spec).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn specs_without_broadcast_print_no_broadcast_line() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        assert_eq!(s.broadcast, None);
        assert!(!s.to_string().contains("broadcast"));
    }

    #[test]
    fn broadcast_scenario_reports_rumor_columns_and_counters() {
        let s = Scenario::parse(&broadcast_spec()).expect("parses");
        let registry = MetricsRegistry::new();
        let report = run_scenario(&s, 1, &registry);
        let tsv = report.to_tsv(MC_MEAN_TOLERANCE);
        let header = tsv.lines().next().expect("header");
        assert!(header.contains("bcast_coverage_mean\tbcast_coverage_ci95"));
        assert!(header.contains("bcast_to99_mean"));
        assert!(header.contains("bcast_msgs_per_node_mean"));
        assert!(header.ends_with("mc_gap\tverdict"));
        let uniform = report.outcomes[0].broadcast.as_ref().expect("broadcast columns");
        // 20 rounds of fanout-2 push over a 24-node system under 5 % rumor
        // loss: the rumor saturates the live set.
        assert!(uniform.coverage.mean > 0.99, "coverage {}", uniform.coverage.mean);
        assert!(uniform.to_99.mean <= 20.0);
        assert!(registry.counter_value("sim.broadcast.sent").unwrap_or(0) > 0);
        assert!(registry.counter_value("sim.broadcast.rounds").unwrap_or(0) > 0);
        // The non-broadcast table is unchanged by the new columns.
        let plain = run_scenario(&Scenario::parse(&tiny_spec()).expect("parses"), 1, &registry);
        assert!(!plain.to_tsv(MC_MEAN_TOLERANCE).lines().next().expect("header").contains("bcast"));
    }
}
