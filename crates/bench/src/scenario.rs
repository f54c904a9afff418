//! Declarative fault scenarios compiled onto the replicated-sweep executor.
//!
//! A *scenario* is a small text spec — a header naming the system scale and
//! a sequence of `phase` lines naming a fault model and a duration — that
//! compiles to a [`ScheduledFault`] (see `sandf_sim::fault`) and runs as a
//! replicated sweep with one cell per phase. The output is a CI-banded
//! *envelope table*: per phase, the measured indegree statistics next to
//! the §6.2 degree-Markov-chain prediction at the phase's effective loss
//! rate, and (once a churn phase has removed nodes) the paper monitor's
//! banded Lemma 6.10 ceiling on the stale-entry fraction.
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
//! protocol <name>              # sandf | push_only | push_pull | shuffle |
//!                              # replace | undelete | batched (default
//!                              # sandf; every keyword of the zoo's one
//!                              # table, `sweeps::PROTOCOLS`)
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
//! [`sandf_sim::fault`] ([`PhaseFault`]), and the same line can be POSTed
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
//! The measurement is one walk of the workspace's paper monitor
//! ([`sandf_markov::monitor`]) at the target phase's end: the indegree
//! law, the stale-entry fraction and weak connectivity come from it, as
//! does `decay_bound`, the monitor's banded Lemma 6.10 ceiling. The
//! monitor follows the replicate from the burn-in's end: each churn
//! phase's leaves are a departure cohort, advanced at every phase end at
//! that phase's realized loss (`(lost + dead letters) / sent`) and
//! duplication (`duplications / sent`), so a cohort keeps bounding the
//! phases after its own. The printed ceiling is the mean over replicates.
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
use sandf_markov::monitor::{CheckOutcome, Monitor, WireTotals};
use sandf_markov::{DegreeMc, DegreeMcParams};
use sandf_obs::MetricsRegistry;
use sandf_sim::experiment::initial_degree;
use sandf_sim::fault::{expect_args, parse_num};
pub use sandf_sim::PhaseFault;
use sandf_sim::{
    BroadcastConfig, BroadcastLayer, Engine, ParSimulation, ScheduledFault, SimStats, UniformLoss,
};

use crate::fmt;
use crate::sweep::{metric_columns, metric_index, summary_fields, Summary, SweepSpec};
use crate::sweeps::{ring_views, with_behavior, PROTOCOLS};

/// The envelope tolerance added to the ci95 half-width when comparing the
/// measured mean indegree against the degree-MC prediction — the same
/// absolute anchor `tests/par_statistics.rs` uses.
pub const MC_MEAN_TOLERANCE: f64 = 1.0;

/// What a replicate returns: its banded Lemma 6.10 ceiling, which the
/// report prints as `decay_bound`, then [`SCENARIO_METRICS`].
const REPLICATE_METRICS: &[&str] =
    &["decay_bound", "mean_in", "in_std", "loss_rate", "skipped_frac", "stale_frac", "connected"];

/// What a replicate returns under `broadcast`: its ceiling, then
/// [`SCENARIO_BROADCAST_METRICS`].
const REPLICATE_BROADCAST_METRICS: &[&str] = &[
    "decay_bound",
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

/// The metric columns every scenario cell reports, in order.
pub const SCENARIO_METRICS: &[&str] = REPLICATE_METRICS.split_at(1).1;

/// The metric columns when the spec carries a `broadcast` directive: the
/// base columns plus the rumor layer's coverage, spread time to 99 %
/// (phase `rounds + 1` when unreached), and per-node message complexity,
/// all measured over the target phase.
pub const SCENARIO_BROADCAST_METRICS: &[&str] = REPLICATE_BROADCAST_METRICS.split_at(1).1;

// ---------------------------------------------------------------------------
// The AST
// ---------------------------------------------------------------------------

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
#[derive(Clone, PartialEq, Debug)]
pub struct Phase {
    /// Rounds this phase governs.
    pub rounds: usize,
    /// The fault model in force, as parsed (over rounds `[0, rounds)`).
    pub fault: PhaseFault,
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
    /// The protocol under test: a keyword of [`PROTOCOLS`] (default
    /// `"sandf"`). Every protocol replays on the same par engine and fault
    /// schedule; the §6.2 degree-MC and Lemma 6.10 predictions model S&F
    /// only, so the `mc_*`/`decay_bound` columns show `-` for every other
    /// keyword.
    pub protocol: &'static str,
    /// The `broadcast` directive: a rumor layer
    /// ([`sandf_sim::BroadcastLayer`]) riding the live views during each
    /// measured phase, seeded at the lowest live id when the phase begins.
    /// Its channel is a clone of the replicate's compiled, aimed schedule,
    /// so the envelope table reports how the scheduled fault degrades
    /// dissemination, not just view quality.
    pub broadcast: Option<BroadcastConfig>,
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
        let mut protocol: Option<&'static str> = None;
        let mut broadcast: Option<BroadcastConfig> = None;
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
                        let Some(&value) = PROTOCOLS.iter().find(|&&p| p == args[0]) else {
                            return Err(format!(
                                "unknown protocol {:?} — expected one of {}",
                                args[0],
                                PROTOCOLS.join(", ")
                            ));
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
                            BroadcastConfig { fanout, max_age, pull },
                            "broadcast",
                        )
                    }
                    "phase" => {
                        let (rounds, fault) = PhaseFault::parse_phase(&args)?;
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
            if let PhaseFault::Victims { count, .. } = phase.fault {
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
            protocol: protocol.unwrap_or("sandf"),
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
            schedule.push((end, phase.fault.clone().placed(start, salt)));
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
        if self.protocol != "sandf" {
            writeln!(f, "protocol {}", self.protocol)?;
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
    /// The paper monitor's banded Lemma 6.10 ceiling on the stale-entry
    /// fraction at phase end ([`sandf_markov::monitor`]), averaged over
    /// replicates: only once a churn phase at or before this one has
    /// removed nodes, and only for S&F.
    pub decay_bound: Option<f64>,
    /// The measured metric names, in column order: [`SCENARIO_METRICS`],
    /// or [`SCENARIO_BROADCAST_METRICS`] when the spec carries `broadcast`.
    pub metrics: &'static [&'static str],
    /// One summary across replicates per name of `metrics`, in its order.
    pub measured: Vec<Summary>,
}

impl ScenarioOutcome {
    /// The measured summary of one metric, e.g. `summary("mean_in")`.
    ///
    /// # Panics
    ///
    /// Panics on a name not in `metrics`.
    #[must_use]
    pub fn summary(&self, metric: &str) -> &Summary {
        &self.measured[metric_index(self.metrics, metric)]
    }

    /// Absolute gap between the measured mean indegree and the degree-MC
    /// prediction (`None` when the chain did not converge).
    #[must_use]
    pub fn mc_gap(&self) -> Option<f64> {
        self.mc_mean.map(|m| (self.summary("mean_in").mean - m).abs())
    }

    /// Whether the phase sits inside its envelope: the measured mean
    /// indegree inside the CI band around the degree-MC prediction (gap ≤
    /// ci95 + `tolerance`), and the mean stale-entry fraction at or below
    /// its Lemma 6.10 ceiling, `decay_bound`. Either test alone decides
    /// when the other has no prediction; `None` when neither has one.
    #[must_use]
    pub fn within_envelope(&self, tolerance: f64) -> Option<bool> {
        let indegree = self.mc_gap().map(|gap| gap <= self.summary("mean_in").ci95 + tolerance);
        let stale = self.decay_bound.map(|bound| self.summary("stale_frac").mean <= bound);
        // A verdict once either test predicts; `in` while neither fails.
        indegree.or(stale).map(|_| ![indegree, stale].contains(&Some(false)))
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
        let keys = ["phase", "fault", "rounds", "eff_rate", "mc_mean", "mc_std", "decay_bound"];
        // Every row of one report measures the same metrics.
        let metrics = self.outcomes.first().map_or(SCENARIO_METRICS, |row| row.metrics);
        let mut cols: Vec<String> = keys.iter().map(ToString::to_string).collect();
        cols.extend(metric_columns(metrics));
        cols.extend(["mc_gap", "verdict"].map(String::from));
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
            fields.extend(summary_fields(&row.measured));
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

/// Runs one replicate of `scenario` through phase `target` inclusive on the
/// par engine, returning the [`REPLICATE_METRICS`] vector measured at the
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
    with_behavior!(scenario.protocol, |behavior| {
        let views = ring_views(scenario.n, scenario.degree);
        let sim = ParSimulation::from_views(behavior, config, views, fault, sim_seed, threads);
        drive_replicate(sim, scenario, target, sim_seed, counters, registry)
    })
}

/// The replicate body, generic over the unified [`Engine`] trait: burn-in,
/// then per phase cohort advance → churn → victim re-aim → (at the target)
/// stats reset → rounds, then the [`REPLICATE_METRICS`] measurement.
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

    let mut monitor = Monitor::new(scenario.config());
    let mut round = scenario.burn_in as u64;
    // Rows issued: the bootstrap's ids and each joiner's, dense from 0.
    let mut rows = scenario.n;
    let mut layer: Option<BroadcastLayer> = None;
    for (p, phase) in scenario.phases.iter().enumerate().take(target + 1) {
        // Close the window of the previous phase (of the burn-in at p = 0).
        monitor.advance(round, wire_totals(sim.stats()));
        if let Some(churn) = phase.churn {
            let mut live = sim.live_ids();
            live.sort_unstable();
            // The smallest ids leave, down to a floor of 4 live nodes.
            let leaving = churn.leaves.min(live.len().saturating_sub(4));
            for id in live.drain(..leaving) {
                assert!(sim.leave(id), "id came from live_ids");
                counters.churn_leaves.inc();
            }
            monitor.record_leaves(round, leaving);
            for _ in 0..churn.joins {
                let sponsor = *live.last().expect("at least 4 nodes stay live");
                if let Ok(joiner) = sim.join_via(sponsor) {
                    live.push(joiner);
                    rows += 1;
                    counters.churn_joins.inc();
                }
            }
        }
        if let PhaseFault::Victims { count, .. } = phase.fault {
            let victims = sim.graph().top_in_degree(count);
            let index = scenario.schedule_index(p);
            sim.update_fault(|fault| fault.phase_mut(index).aim(&victims));
            counters.retargets.inc();
        }
        if p == target {
            sim.reset_stats();
            // The monitor's counters restart with the engine's: the window
            // just closed, so nothing decays.
            monitor.advance(round, WireTotals::default());
            if let Some(config) = scenario.broadcast {
                let fault = sim.fault().clone();
                let mut l = BroadcastLayer::with_channel(sim_seed, config, fault);
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
        round += phase.rounds as u64;
        counters.rounds.add(phase.rounds as u64);
    }

    let stats = sim.stats();
    let check = check_engine(&mut monitor, &sim, round, rows, wire_totals(stats));
    let degrees = DegreeStats::from_samples(&monitor.in_degrees().collect::<Vec<_>>());
    let steps = stats.actions + stats.skipped;
    let mut values = vec![
        check.stale_ceiling,
        degrees.mean,
        degrees.std_dev(),
        if stats.sent == 0 { 0.0 } else { stats.lost as f64 / stats.sent as f64 },
        if steps == 0 { 0.0 } else { stats.skipped as f64 / steps as f64 },
        check.stale_fraction,
        f64::from(u8::from(check.components <= 1)),
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

/// The monitor's counters, read from the engine's.
fn wire_totals(stats: SimStats) -> WireTotals {
    WireTotals {
        sent: stats.sent,
        dropped: stats.lost + stats.dead_letters,
        duplications: stats.duplications,
    }
}

/// One paper-monitor check over `sim`'s live rows, `rows` of them issued.
/// Bootstraps and joins issue ids densely, so an id is its own row, and a
/// live id is one the engine reports an outdegree for.
fn check_engine<E: Engine>(
    monitor: &mut Monitor,
    sim: &E,
    round: u64,
    rows: usize,
    totals: WireTotals,
) -> CheckOutcome {
    let walk = |visit: &mut dyn FnMut(u32, &[u32])| sim.for_each_live_row(|_| true, visit);
    let resolve = |word: u32| sim.out_degree_of(NodeId::new(word.into())).map(|_| word as usize);
    monitor.check(round, totals, rows, walk, resolve)
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

/// Runs `scenario` as a replicated sweep — one cell per phase index, each
/// replicate replaying from round 0 through that phase's end on the par
/// engine with `threads` worker threads — and assembles the envelope
/// report.
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
    let spec = SweepSpec::new(
        (0..scenario.phases.len()).collect(),
        |phase| format!("{}/phase={phase}", scenario.name),
        scenario.replicates,
        scenario.seed,
    );
    let replicate_metrics =
        if scenario.broadcast.is_some() { REPLICATE_BROADCAST_METRICS } else { REPLICATE_METRICS };
    let metrics = &replicate_metrics[1..];
    let results = spec.run(replicate_metrics, |&phase, rng| {
        run_replicate(scenario, phase, threads, rng, &counters, registry)
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
            let is_sf = scenario.protocol == "sandf";
            let mc = if is_sf { degree_mc_prediction(config, rate) } else { None };
            let departed =
                scenario.phases[..=i].iter().any(|p| p.churn.is_some_and(|c| c.leaves > 0));
            ScenarioOutcome {
                phase: i,
                fault: phase.fault.kind(),
                rounds: phase.rounds,
                effective_rate: rate,
                mc_mean: mc.map(|(mean, _)| mean),
                mc_std: mc.map(|(_, std)| std),
                decay_bound: (is_sf && departed).then(|| results.summary(i, "decay_bound").mean),
                metrics,
                measured: metrics.iter().map(|metric| *results.summary(i, metric)).collect(),
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

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use sandf_core::{LocalView, SfNode};
    use sandf_daemon::InvariantChecker;
    use sandf_markov::monitor::STALE_SLACK;
    use sandf_sim::{FlatSimulation, SfBehavior};

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
        // The partition window is the phase's own rounds, [6, 9).
        assert_eq!(
            schedule.phases()[2].1,
            PhaseFault::Partition { regions: 2, start: 6, duration: 3, sever: 1.0, base: 0.02 }
        );
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
        assert_eq!(s.protocol, "shuffle");
        let printed = s.to_string();
        assert!(printed.contains("protocol shuffle"), "non-default protocol must print");
        assert_eq!(Scenario::parse(&printed).expect("round-trips"), s);
    }

    #[test]
    fn default_protocol_is_sandf_and_stays_unprinted() {
        let s = Scenario::parse(&tiny_spec()).expect("parses");
        assert_eq!(s.protocol, "sandf");
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
            assert!(row.summary("mean_in").mean > 0.0, "the shuffle run should still gossip");
        }
    }

    #[test]
    fn every_protocol_keyword_round_trips_and_runs_thread_invariantly() {
        for protocol in PROTOCOLS {
            for spec in [tiny_spec(), broadcast_spec()] {
                let line = format!("protocol {protocol}\n");
                let s =
                    Scenario::parse(&spec.replace("burn_in 2\n", &format!("burn_in 2\n{line}")))
                        .unwrap_or_else(|e| panic!("{protocol}: {e}"));
                assert_eq!(s.protocol, protocol);
                let printed = s.to_string();
                assert_eq!(printed.contains(&line), protocol != "sandf", "{protocol}: printing");
                assert_eq!(Scenario::parse(&printed).expect("round-trips"), s);

                let a = run_scenario(&s, 1, &MetricsRegistry::new()).to_tsv(MC_MEAN_TOLERANCE);
                let b = run_scenario(&s, 2, &MetricsRegistry::new()).to_tsv(MC_MEAN_TOLERANCE);
                assert_eq!(a, b, "{protocol}: engine thread count leaked into the report");
                for row in a.lines().skip(1) {
                    // `mc_mean`, `mc_std`, `decay_bound`: the S&F models.
                    let model: Vec<&str> = row.split('\t').skip(4).take(3).collect();
                    if protocol == "sandf" {
                        assert_ne!(model[0], "-", "the degree MC models S&F: {row}");
                    } else {
                        assert_eq!(model, ["-"; 3], "{protocol}: model columns are S&F-only");
                    }
                }
            }
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
        assert_eq!(s.broadcast, Some(BroadcastConfig::push(2, 255)));
        assert_eq!(Scenario::parse(&s.to_string()).expect("round-trips"), s);
        assert!(s.to_string().contains("broadcast 2 255\n"));

        let pull = broadcast_spec().replace("broadcast 2 255", "broadcast 1 8 pull");
        let s = Scenario::parse(&pull).expect("parses");
        assert_eq!(s.broadcast, Some(BroadcastConfig::push_pull(1, 8)));
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
        let uniform = &report.outcomes[0];
        // 20 rounds of fanout-2 push over a 24-node system under 5 % rumor
        // loss: the rumor saturates the live set.
        let coverage = uniform.summary("bcast_coverage").mean;
        assert!(coverage > 0.99, "coverage {coverage}");
        assert!(uniform.summary("bcast_to99").mean <= 20.0);
        assert!(registry.counter_value("sim.broadcast.sent").unwrap_or(0) > 0);
        assert!(registry.counter_value("sim.broadcast.rounds").unwrap_or(0) > 0);
        // The non-broadcast table is unchanged by the new columns.
        let plain = run_scenario(&Scenario::parse(&tiny_spec()).expect("parses"), 1, &registry);
        assert!(!plain.to_tsv(MC_MEAN_TOLERANCE).lines().next().expect("header").contains("bcast"));
    }

    /// A spec with one churn phase, then a phase without churn.
    fn churn_then_calm() -> Scenario {
        Scenario::parse(
            "scenario calm\nn 48\nview 16 6\ndegree 10\nreplicates 2\nseed 7\nburn_in 4\n\n\
             phase 12 uniform 0.05\nchurn 6 2\nphase 9 uniform 0.3\n",
        )
        .expect("parses")
    }

    #[test]
    fn a_cohort_recorded_in_one_phase_still_bounds_the_next() {
        let report = run_scenario(&churn_then_calm(), 1, &MetricsRegistry::new());
        let [churn, calm] = [&report.outcomes[0], &report.outcomes[1]];
        let (first, next) = (churn.decay_bound.expect("churn"), calm.decay_bound.expect("cohort"));
        assert!(next >= calm.summary("stale_frac").mean, "{next} bounds the stale fraction");
        assert!(next > STALE_SLACK && next < first, "the cohort decays but still counts: {next}");
    }

    /// A stale fraction over its Lemma 6.10 ceiling reads `OUT` whatever
    /// the indegree envelope says; with no ceiling, only the indegree
    /// decides.
    #[test]
    fn a_stale_overload_flips_the_verdict() {
        let report = run_scenario(&churn_then_calm(), 1, &MetricsRegistry::new());
        let mut calm = report.outcomes[1].clone();
        let bound = calm.decay_bound.expect("cohort");
        // An infinite tolerance holds the indegree test open.
        assert_eq!(calm.within_envelope(f64::INFINITY), Some(true), "stale under {bound}");
        calm.measured[metric_index(calm.metrics, "stale_frac")].mean = bound + 0.01;
        assert_eq!(calm.within_envelope(f64::INFINITY), Some(false), "stale over {bound}");
        assert!(report.to_tsv(f64::INFINITY).lines().all(|line| !line.ends_with("OUT")));
        let overloaded = ScenarioReport { outcomes: vec![calm.clone()], ..report };
        assert!(overloaded.to_tsv(f64::INFINITY).lines().nth(1).expect("row").ends_with("\tOUT"));
        calm.mc_mean = None;
        assert_eq!(calm.within_envelope(f64::INFINITY), Some(false), "no degree-MC prediction");
        calm.decay_bound = None;
        assert_eq!(calm.within_envelope(f64::INFINITY), None);
    }

    #[test]
    fn the_decay_bound_advances_each_phase_at_its_realized_loss_and_duplication() {
        let s = churn_then_calm();
        let registry = MetricsRegistry::new();
        let rng = StdRng::seed_from_u64(5);
        let counters = FaultCounters::new(&registry);
        let values = run_replicate(&s, 1, 1, &mut rng.clone(), &counters, &registry);

        // The same replicate by hand, keeping each phase's counters.
        let mut rng = rng;
        let (salt, seed) = (rng.next_u64(), rng.next_u64());
        let views = ring_views(s.n, s.degree);
        let mut sim =
            ParSimulation::from_views(SfBehavior, s.config(), views, s.compile(salt), seed, 1);
        sim.run_rounds(4);
        let burn_in = *sim.stats();
        for id in 0..6 {
            assert!(sim.leave(NodeId::new(id)).is_some());
        }
        let joiner = sim.join_via(NodeId::new(47)).expect("joins");
        sim.join_via(joiner).expect("joins");
        sim.run_rounds(12);
        let churn = *sim.stats();
        sim.reset_stats();
        sim.run_rounds(9);
        let calm = *sim.stats();

        // Each window at its own rates, with and without its duplications,
        // through totals that never restart.
        let ceiling = |delta: bool| {
            let totals = |stats: &[SimStats]| WireTotals {
                sent: stats.iter().map(|s| s.sent).sum(),
                dropped: stats.iter().map(|s| s.lost + s.dead_letters).sum(),
                duplications: if delta { stats.iter().map(|s| s.duplications).sum() } else { 0 },
            };
            let mut monitor = Monitor::new(s.config());
            monitor.advance(4, totals(&[burn_in]));
            monitor.record_leaves(4, 6);
            monitor.advance(16, totals(&[churn]));
            check_engine(&mut monitor, &sim, 25, s.n + 2, totals(&[churn, calm])).stale_ceiling
        };
        assert_eq!(values[0].to_bits(), ceiling(true).to_bits());
        assert!(calm.duplications > 0 && values[0] > ceiling(false));
    }

    /// Checks `sim` with the scenario's walk and with a graph snapshot.
    fn assert_walk_reads_the_snapshot<E: Engine>(sim: &E, monitor: &mut Monitor, rows: usize) {
        let graph = sim.graph();
        let outcome = check_engine(monitor, sim, 1, rows, WireTotals::default());
        let stale = graph.dangling_edge_count() as f64 / graph.edge_count() as f64;
        assert!(stale > 0.0, "departed ids must dangle");
        assert_eq!(outcome.stale_fraction.to_bits(), stale.to_bits());
        assert_eq!(outcome.components, graph.weakly_connected_components());
        assert_eq!(outcome.components <= 1, graph.is_weakly_connected());
        // `mean_in` and `in_std` are `DegreeStats` of these, in this order.
        assert_eq!(monitor.in_degrees().collect::<Vec<_>>(), graph.in_degrees());
    }

    #[test]
    fn the_scenario_walk_reads_the_graph_snapshot_on_par_under_churn() {
        let config = SfConfig::new(12, 4).expect("valid");
        for threads in [1, 2] {
            let loss = UniformLoss::new(0.05).expect("valid rate");
            let mut sim =
                ParSimulation::from_views(SfBehavior, config, ring_views(40, 6), loss, 3, threads);
            let mut monitor = Monitor::new(config);
            let mut rows = 40;
            for step in 0..6 {
                let mut live = sim.live_ids();
                live.sort_unstable();
                // Departed rows sit between live ones and joiners follow.
                for k in [step, live.len() / 2, live.len() - 3] {
                    assert!(sim.leave(live[k]).is_some());
                }
                for sponsor in [live[live.len() - 2], live[live.len() - 1]] {
                    if sim.join_via(sponsor).is_ok() {
                        rows += 1;
                    }
                }
                sim.run_rounds(4);
                assert_walk_reads_the_snapshot(&sim, &mut monitor, rows);
            }
        }
    }

    #[test]
    fn a_seeded_stale_overload_reads_one_margin_on_par_flat_and_the_daemon() {
        fn margin_on_both<E: Engine>(mut sim: E, config: SfConfig) {
            sim.run_rounds(10);
            // 24 of 64 nodes leave; the monitors are told of 1.
            for id in 0..24 {
                assert!(sim.leave(NodeId::new(id)));
            }
            sim.run_rounds(3);
            let totals = wire_totals(sim.stats());
            let mut monitor = Monitor::new(config);
            monitor.record_leaves(10, 1);
            let engine = check_engine(&mut monitor, &sim, 13, 64, totals);

            let mut fleet = Vec::new();
            sim.for_each_live_row(|_| true, &mut |owner, row| {
                let ids: Vec<NodeId> = row.iter().map(|&w| NodeId::new(w.into())).collect();
                let view = LocalView::from_ids(config.view_size(), &ids, false);
                fleet.push(SfNode::from_view(NodeId::new(owner.into()), config, view));
            });
            let mut checker = InvariantChecker::new(config);
            checker.monitor.record_leaves(10, 1);
            let daemon = checker.check(13, &fleet, totals);

            let margin = |o: &CheckOutcome| o.stale_fraction - o.stale_ceiling;
            assert!(engine.stale_violation && daemon.stale_violation, "{}", margin(&engine));
            assert!((margin(&engine) - margin(&daemon)).abs() < 1e-9);
        }
        let config = SfConfig::new(16, 6).expect("valid");
        let loss = || UniformLoss::new(0.02).expect("valid rate");
        margin_on_both(
            ParSimulation::from_views(SfBehavior, config, ring_views(64, 10), loss(), 9, 2),
            config,
        );
        margin_on_both(
            FlatSimulation::from_views(SfBehavior, config, ring_views(64, 10), loss(), 9),
            config,
        );
    }
}
