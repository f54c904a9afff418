//! The paper-evaluation sweeps as library functions.
//!
//! Each function here is the measurement core of one `repro` artifact,
//! built on the [`crate::sweep`] executor: a
//! parameter grid becomes a [`SweepSpec`], every cell runs `replicates`
//! independent replicates (each seeded from the stable cell/replicate
//! hash), and the returned TSV gains `<metric>_mean` / `<metric>_ci95`
//! columns in place of the old single-run point estimates.
//!
//! Keeping the logic in the library has a second payoff: the integration
//! tests drive the *same* code paths as `repro` — the golden-output
//! smoke test and the determinism regression test call these functions at
//! reduced scale rather than re-implementing the experiments.
//!
//! All functions take an explicit scale (`n`, rounds, `replicates`,
//! `base_seed`) so tests can run them small while `repro` runs them at
//! paper scale.

use rand::RngCore;
use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_graph::{DegreeStats, MembershipGraph};
use sandf_markov::{select_thresholds, DegreeMc, DegreeMcParams};
use sandf_sim::experiment::{
    continuous_churn, initial_degree, steady_state_degrees, uniformity, ExperimentParams,
};
use sandf_sim::{
    topology, BroadcastConfig, BroadcastLayer, DelayModel, Engine, FlatSimulation, GilbertElliott,
    ParSimulation, PhaseFault, ProtocolBehavior, UniformLoss,
};

use crate::fmt;
use crate::sweep::SweepSpec;

/// The paper's running configuration (`s = 40`, `d_L = 18`; Section 6.4).
#[must_use]
pub fn paper_config() -> SfConfig {
    SfConfig::new(40, 18).expect("paper parameters are legal")
}

/// The ring bootstrap of every `from_views` run: node `i` points at the
/// next `k` ids around the ring — the shape `topology::circulant` seeds
/// S&F with, so a protocol keyword changes the behavior, not the starting
/// graph.
#[must_use]
pub fn ring_views(n: usize, k: usize) -> Vec<(NodeId, Vec<NodeId>)> {
    (0..n)
        .map(|i| {
            let view = (1..=k).map(|d| NodeId::new(((i + d) % n) as u64)).collect();
            (NodeId::new(i as u64), view)
        })
        .collect()
}

/// Reply size of push-pull, gossip size of shuffle, batch size of batched.
pub(crate) const GOSSIP: usize = 3;

/// Every keyword `with_behavior!` knows — S&F, the three §3.1 baselines
/// and the three Section 5 variants — in the zoo sweep's cell order.
pub const PROTOCOLS: [&str; 7] =
    ["sandf", "push_only", "push_pull", "shuffle", "replace", "undelete", "batched"];

/// The workspace's one keyword → behavior table: evaluates `$body` with
/// `$behavior` bound to the [`ProtocolBehavior`] value `$protocol` names
/// (one of [`PROTOCOLS`]). A macro because the seven values have seven
/// types — `$body` is instantiated once per arm.
macro_rules! with_behavior {
    ($protocol:expr, |$behavior:ident| $body:expr) => {
        match $protocol {
            "sandf" => {
                let $behavior = ::sandf_sim::SfBehavior;
                $body
            }
            "push_only" => {
                let $behavior = ::sandf_zoo::baselines::PushOnlyBehavior;
                $body
            }
            "push_pull" => {
                let $behavior =
                    ::sandf_zoo::baselines::PushPullBehavior::new($crate::sweeps::GOSSIP);
                $body
            }
            "shuffle" => {
                let $behavior =
                    ::sandf_zoo::baselines::ShuffleBehavior::new($crate::sweeps::GOSSIP);
                $body
            }
            "replace" => {
                let $behavior = ::sandf_zoo::variants::ReplaceBehavior;
                $body
            }
            "undelete" => {
                let $behavior = ::sandf_zoo::variants::UndeleteBehavior;
                $body
            }
            "batched" => {
                let $behavior = ::sandf_zoo::variants::BatchedBehavior::new($crate::sweeps::GOSSIP);
                $body
            }
            other => panic!("unknown protocol {other:?}"),
        }
    };
}
pub(crate) use with_behavior;

// ---------------------------------------------------------------------------
// indegree_stats — §6.4 in-text table
// ---------------------------------------------------------------------------

/// Scale of a steady-state sampling experiment: system size, burn-in, and
/// the post-burn-in sampling schedule.
#[derive(Clone, Copy, Debug)]
pub struct SampleScale {
    /// System size `n`.
    pub n: usize,
    /// Rounds to run before the first sample.
    pub burn_in: usize,
    /// Number of samples per replicate.
    pub samples: usize,
    /// Rounds between samples.
    pub sample_every: usize,
}

/// One loss rate of the §6.4 indegree table, with the paper's reported
/// numbers (where available) and the degree-MC prediction carried along as
/// key columns.
pub struct IndegreeCell {
    /// Uniform loss rate `ℓ`.
    pub loss: f64,
    /// Paper-reported (mean, std) indegree, if the paper reports this cell.
    pub paper: Option<(f64, f64)>,
    /// Degree-MC predicted mean indegree.
    pub mc_mean: f64,
    /// Degree-MC predicted indegree standard deviation.
    pub mc_std: f64,
}

/// The indegree sweep for an arbitrary configuration: per loss rate, the
/// degree-MC prediction next to replicated simulation means with 95% CIs.
/// `paper` pairs up with `losses` positionally; cells the paper does not
/// report show `-` in the paper columns.
#[must_use]
pub fn indegree_table_for(
    config: SfConfig,
    losses: &[f64],
    paper: &[Option<(f64, f64)>],
    scale: SampleScale,
    replicates: usize,
    base_seed: u64,
) -> String {
    assert_eq!(losses.len(), paper.len(), "one paper entry (or None) per loss rate");
    let cells: Vec<IndegreeCell> = losses
        .iter()
        .zip(paper)
        .map(|(&loss, &paper)| {
            let mc = DegreeMc::solve(DegreeMcParams::new(config, loss)).expect("chain converges");
            IndegreeCell { loss, paper, mc_mean: mc.mean_in(), mc_std: mc.std_in() }
        })
        .collect();
    let spec = SweepSpec::new(cells, |c| format!("loss={}", c.loss), replicates, base_seed);
    let results = spec.run(&["sim_in_mean", "sim_in_std"], |cell, rng| {
        let params = ExperimentParams {
            n: scale.n,
            config,
            loss: cell.loss,
            burn_in: scale.burn_in,
            seed: rng.next_u64(),
        };
        let dist = steady_state_degrees(&params, scale.samples, scale.sample_every);
        vec![dist.in_degrees.mean(), dist.in_degrees.variance().sqrt()]
    });
    results.to_tsv(&["loss", "paper_mean", "paper_std", "mc_mean", "mc_std"], |c| {
        let (paper_mean, paper_std) = match c.paper {
            Some((mean, std)) => (fmt(mean), fmt(std)),
            None => ("-".to_string(), "-".to_string()),
        };
        vec![fmt(c.loss), paper_mean, paper_std, fmt(c.mc_mean), fmt(c.mc_std)]
    })
}

/// §6.4 — "The average indegrees and their standard deviations are
/// 28 ± 3.4, 27 ± 3.6, 24 ± 4.1, 23 ± 4.3 for ℓ = 0, 0.01, 0.05, 0.1"
/// (`d_L = 18`, `s = 40`). Replicated simulation means with 95% CIs, next
/// to the paper's numbers and the degree-MC prediction.
#[must_use]
pub fn indegree_table(scale: SampleScale, replicates: usize, base_seed: u64) -> String {
    indegree_table_for(
        paper_config(),
        &[0.0, 0.01, 0.05, 0.1],
        &[Some((28.0, 3.4)), Some((27.0, 3.6)), Some((24.0, 4.1)), Some((23.0, 4.3))],
        scale,
        replicates,
        base_seed,
    )
}

// ---------------------------------------------------------------------------
// loss_ablation — uniform vs bursty vs targeted loss
// ---------------------------------------------------------------------------

/// One cell of the loss-model ablation: a channel at a long-run average
/// rate.
pub struct ChannelCell {
    /// Channel family name (`uniform` or `gilbert_elliott`).
    pub model: &'static str,
    /// Long-run average loss rate of the channel.
    pub avg_rate: f64,
    channel: PhaseFault,
}

fn channel_metrics(
    nodes: Vec<SfNode>,
    loss: PhaseFault,
    burn_in: usize,
    measure: usize,
    seed: u64,
) -> Vec<f64> {
    let sim = FlatSimulation::new(nodes, loss, seed).run_replicate(burn_in, measure);
    let graph = sim.graph();
    vec![
        DegreeStats::from_samples(&graph.out_degrees()).mean,
        DegreeStats::from_samples(&graph.in_degrees()).std_dev(),
        1.0 - sim.dependence().independent_fraction(),
        sim.stats().duplication_rate().unwrap_or(0.0),
        f64::from(u8::from(graph.is_weakly_connected())),
    ]
}

/// Loss-model ablation (DESIGN.md B4): a uniform channel vs a
/// Gilbert–Elliott bursty channel with the same long-run average rate, on
/// identical systems. If the replicated steady-state statistics agree, the
/// paper's i.i.d.-loss analysis transfers to bursty loss.
#[must_use]
pub fn loss_ablation_table(
    n: usize,
    burn_in: usize,
    measure: usize,
    replicates: usize,
    base_seed: u64,
) -> String {
    let config = paper_config();
    let mut cells = Vec::new();
    for &rate in &[0.01, 0.05, 0.1] {
        cells.push(ChannelCell {
            model: "uniform",
            avg_rate: rate,
            channel: PhaseFault::Uniform(UniformLoss::new(rate).expect("valid rate")),
        });
        // Bursty channel: the bad state loses 50% of messages; dwell times
        // are tuned so the stationary average matches `rate`:
        // avg = p_bad · 0.5 with p_bad = to_bad/(to_bad + to_good).
        let to_good = 0.05;
        let p_bad = rate / 0.5;
        let to_bad = to_good * p_bad / (1.0 - p_bad);
        let ge = GilbertElliott::new(to_bad, to_good, 0.0, 0.5).expect("valid channel");
        cells.push(ChannelCell {
            model: "gilbert_elliott",
            avg_rate: PhaseFault::Bursty(ge).effective_rate(n),
            channel: PhaseFault::Bursty(ge),
        });
    }
    let spec = SweepSpec::new(
        cells,
        |c| format!("{}/rate={}", c.model, c.avg_rate),
        replicates,
        base_seed,
    );
    // The bootstrap topology is identical across cells and replicates;
    // build it once and clone it in, instead of re-deriving it per run.
    let nodes = topology::circulant(n, config, initial_degree(config, n));
    let results = spec.run(
        &["mean_out", "in_std", "dependent_frac", "dup_rate", "connected"],
        |cell, rng| {
            channel_metrics(nodes.clone(), cell.channel.clone(), burn_in, measure, rng.next_u64())
        },
    );
    results.to_tsv(&["model", "avg_rate"], |c| vec![c.model.to_string(), fmt(c.avg_rate)])
}

/// Spatially targeted loss: one victim node suffers heavy inbound loss
/// (one cell per rate) over a 1% base rate. The victim's outdegree erodes
/// toward `d_L`, but the duplication floor keeps it participating and the
/// overlay whole.
#[must_use]
pub fn targeted_loss_table(n: usize, rounds: usize, replicates: usize, base_seed: u64) -> String {
    let config = paper_config();
    let victim_rates = vec![0.01, 0.25, 0.5, 0.9];
    let spec = SweepSpec::new(victim_rates, |r| format!("victim={r}"), replicates, base_seed);
    // Same topology for every cell/replicate — construct once, clone in.
    let nodes = topology::circulant(n, config, initial_degree(config, n));
    let results =
        spec.run(&["victim_in", "victim_out", "pop_mean_in", "connected"], |&victim_rate, rng| {
            let victim = NodeId::new(0);
            let loss =
                PhaseFault::Victims { count: 1, victim_rate, base: 0.01, victims: vec![victim] };
            let mut sim = FlatSimulation::new(nodes.clone(), loss, rng.next_u64());
            sim.run_rounds(rounds);
            let graph = sim.graph();
            vec![
                graph.in_degree(victim).unwrap_or(0) as f64,
                graph.out_degree(victim).unwrap_or(0) as f64,
                DegreeStats::from_samples(&graph.in_degrees()).mean,
                f64::from(u8::from(graph.is_weakly_connected())),
            ]
        });
    results.to_tsv(&["victim_inbound_loss"], |&r| vec![fmt(r)])
}

// ---------------------------------------------------------------------------
// thresholds — §6.3 selection validated against replicated simulation
// ---------------------------------------------------------------------------

/// One threshold selection (`d̂ → (d_L, s)`) to validate by simulation.
pub struct ThresholdCell {
    /// The target expected outdegree `d̂`.
    pub d_hat: usize,
    /// The selected lower threshold `d_L`.
    pub d_l: usize,
    /// The selected view size `s`.
    pub s: usize,
    /// Analytic duplication-probability bound at selection time.
    pub p_dup: f64,
    /// Analytic deletion-probability bound at selection time.
    pub p_del: f64,
    config: SfConfig,
}

/// §6.3 validation: for each `d̂ → (d_L, s)` selection (δ = 1%), replicated
/// simulations at loss 1% measure the realized duplication/deletion rates
/// and mean outdegree next to the analytic bounds the selection promised.
#[must_use]
pub fn threshold_validation_table(
    n: usize,
    burn_in: usize,
    measure: usize,
    replicates: usize,
    base_seed: u64,
) -> String {
    let cells: Vec<ThresholdCell> = [10usize, 20, 30]
        .iter()
        .map(|&d_hat| {
            let sel = select_thresholds(d_hat, 0.01).expect("valid inputs");
            ThresholdCell {
                d_hat,
                d_l: sel.d_l,
                s: sel.s,
                p_dup: sel.duplication_probability,
                p_del: sel.deletion_probability,
                config: sel.to_config().expect("selection gap is wide enough"),
            }
        })
        .collect();
    // The topology differs per cell (each selection yields its own `s`),
    // but not per replicate: build each cell's bootstrap once up front and
    // look it up by configuration inside the replicate closure.
    let topologies: Vec<(SfConfig, Vec<SfNode>)> = cells
        .iter()
        .map(|cell| {
            (cell.config, topology::circulant(n, cell.config, initial_degree(cell.config, n)))
        })
        .collect();
    let spec = SweepSpec::new(cells, |c| format!("d_hat={}", c.d_hat), replicates, base_seed);
    let results = spec.run(&["dup_rate", "del_rate", "mean_out"], |cell, rng| {
        let nodes = topologies
            .iter()
            .find(|(config, _)| *config == cell.config)
            .expect("every cell's topology was prepared")
            .1
            .clone();
        let loss = UniformLoss::new(0.01).expect("valid rate");
        let sim = FlatSimulation::new(nodes, loss, rng.next_u64()).run_replicate(burn_in, measure);
        let stats = sim.stats();
        vec![
            stats.duplication_rate().unwrap_or(0.0),
            stats.deletion_rate().unwrap_or(0.0),
            DegreeStats::from_samples(&sim.graph().out_degrees()).mean,
        ]
    });
    results.to_tsv(&["d_hat", "d_L", "s", "P_dup", "P_del"], |c| {
        vec![c.d_hat.to_string(), c.d_l.to_string(), c.s.to_string(), fmt(c.p_dup), fmt(c.p_del)]
    })
}

// ---------------------------------------------------------------------------
// baseline_compare — §3.1 protocol taxonomy under loss
// ---------------------------------------------------------------------------

/// §3.1 — S&F vs shuffle vs push-pull vs push-only under identical uniform
/// loss on the flat engine, replicated: one `(protocol, loss)` cell each. `ids_q1..q4` track the id
/// population at the quarter marks of the run: shuffles drain, S&F
/// compensates, push variants saturate.
#[must_use]
pub fn baseline_table(n: usize, rounds: usize, replicates: usize, base_seed: u64) -> String {
    let config = SfConfig::new(16, 6).expect("legal config");
    let mut cells = Vec::new();
    for &loss in &[0.0, 0.05, 0.1] {
        for protocol in ["sandf", "shuffle", "push_pull", "push_only"] {
            cells.push((protocol, loss));
        }
    }
    let spec = SweepSpec::new(cells, |(p, loss)| format!("{p}/loss={loss}"), replicates, base_seed);
    // Same ring bootstrap for every cell/replicate — build once, clone in.
    let views = ring_views(n, 8);
    let quarters = [(rounds / 4).max(1); 4];
    let results = spec.run(
        &["ids_q1", "ids_q2", "ids_q3", "ids_q4", "empty_views", "mean_out", "in_var"],
        |&(protocol, loss), rng| {
            let graphs = zoo_snapshots(
                protocol,
                "flat",
                config,
                views.clone(),
                loss,
                rng.next_u64(),
                &quarters,
            );
            let mut values: Vec<f64> = graphs.iter().map(|g| g.edge_count() as f64).collect();
            let last = graphs.last().expect("four quarters");
            let out_degrees = last.out_degrees();
            values.push(out_degrees.iter().filter(|&&d| d == 0).count() as f64);
            values.push(DegreeStats::from_samples(&out_degrees).mean);
            values.push(DegreeStats::from_samples(&last.in_degrees()).variance);
            values
        },
    );
    results.to_tsv(&["protocol", "loss"], |&(protocol, loss)| vec![protocol.to_string(), fmt(loss)])
}

// ---------------------------------------------------------------------------
// zoo_engine — the protocol zoo on the unified fast engines
// ---------------------------------------------------------------------------

fn snapshots<E: Engine>(mut sim: E, legs: &[usize]) -> Vec<MembershipGraph> {
    let graphs = legs
        .iter()
        .map(|&rounds| {
            sim.run_rounds(rounds);
            sim.graph()
        })
        .collect();
    // Every action either self-looped or sent one message that is not a
    // reply.
    let stats = sim.stats();
    assert_eq!(
        stats.actions,
        stats.self_loops + stats.sent - stats.replies,
        "the action ledger does not balance: {stats:?}"
    );
    graphs
}

/// Runs `protocol` on `engine` and snapshots the membership graph after
/// each leg of `legs` rounds. Each table reads its own metrics off the
/// snapshots.
fn zoo_snapshots(
    protocol: &str,
    engine: &str,
    config: SfConfig,
    views: Vec<(NodeId, Vec<NodeId>)>,
    loss: f64,
    seed: u64,
    legs: &[usize],
) -> Vec<MembershipGraph> {
    let loss = UniformLoss::new(loss).expect("valid rate");
    with_behavior!(protocol, |behavior| match engine {
        "flat" => snapshots(FlatSimulation::from_views(behavior, config, views, loss, seed), legs),
        _ => snapshots(ParSimulation::from_views(behavior, config, views, loss, seed, 2), legs),
    })
}

/// The whole protocol zoo — S&F, the three baselines, and the three
/// Section 5 variants — on both arena engines through the unified
/// [`Engine`]/[`ProtocolBehavior`] traits, under one uniform loss rate:
/// one `(protocol, engine)` cell each.
/// The id population (`total_ids`) reproduces the §3.1 taxonomy on the
/// fast engines: shuffle drains, S&F and the variants hold their band,
/// push variants saturate.
#[must_use]
pub fn zoo_engine_table(
    n: usize,
    rounds: usize,
    loss: f64,
    replicates: usize,
    base_seed: u64,
) -> String {
    let config = SfConfig::new(16, 6).expect("legal config");
    let mut cells = Vec::new();
    for protocol in PROTOCOLS {
        for engine in ["flat", "par"] {
            cells.push((protocol, engine));
        }
    }
    let spec = SweepSpec::new(cells, |(p, engine)| format!("{p}/{engine}"), replicates, base_seed);
    // Same ring bootstrap for every cell/replicate — build once, clone in.
    let views = ring_views(n, 8);
    let results =
        spec.run(&["total_ids", "mean_out", "in_std", "connected"], |&(protocol, engine), rng| {
            let seed = rng.next_u64();
            let graph =
                zoo_snapshots(protocol, engine, config, views.clone(), loss, seed, &[rounds])
                    .pop()
                    .expect("one leg");
            vec![
                graph.edge_count() as f64,
                DegreeStats::from_samples(&graph.out_degrees()).mean,
                DegreeStats::from_samples(&graph.in_degrees()).std_dev(),
                f64::from(u8::from(graph.is_weakly_connected())),
            ]
        });
    results.to_tsv(&["protocol", "engine"], |&(protocol, engine)| {
        vec![protocol.to_string(), engine.to_string()]
    })
}

// ---------------------------------------------------------------------------
// broadcast_sweep — rumor spreading over live views (PR 10)
// ---------------------------------------------------------------------------

/// View protocols the dissemination sweep rides on: S&F plus the §3.1
/// baselines whose views stay populated (push-only saturates into a
/// useless clique-of-stale-ids and is excluded from the headline grid).
const BROADCAST_PROTOCOLS: [&str; 3] = ["sandf", "push_pull", "shuffle"];

/// Rumor channels of the dissemination grid, named as in
/// [`broadcast_channel`].
const BROADCAST_CHANNELS: [&str; 5] = ["lossless", "uniform", "bursty", "partition", "victims"];

/// Metric columns of [`broadcast_table`] (spread-time milestones use the
/// `rounds + 1` sentinel when a run never reaches them).
pub const BROADCAST_METRICS: [&str; 5] =
    ["to_half", "to_99", "to_full", "coverage", "msgs_per_node"];

/// The named rumor channel at its grid-pinned rates: each row is the
/// scenario-DSL `phase` line of that fault, lasting the run's `rounds`
/// (burn-in plus rumor), so a partition never heals. Victims are ids
/// `1..=10` (the origin, id 0, is seeded directly and stays informed).
fn broadcast_channel(name: &str, rounds: usize) -> PhaseFault {
    let model = match name {
        "lossless" => "uniform 0",
        "uniform" => "uniform 0.2",
        "bursty" => "bursty 0.1 0.3 0.02 0.8",
        "partition" => "partition 2 1.0 0",
        "victims" => "victims 10 1.0 0",
        other => panic!("unknown rumor channel {other:?}"),
    };
    let line = format!("{rounds} {model}");
    let words: Vec<&str> = line.split_whitespace().collect();
    let (_, mut fault) = PhaseFault::parse_phase(&words).expect("grid rows are legal phase lines");
    fault.aim(&(1..=10).map(NodeId::new).collect::<Vec<_>>());
    fault
}

/// `Some(round)` → that round; `None` → the `rounds + 1` sentinel, so
/// unreached milestones stay finite (and visibly out of range) in means.
fn milestone(value: Option<u64>, rounds: usize) -> f64 {
    value.map_or_else(|| (rounds + 1) as f64, |v| v as f64)
}

fn broadcast_run<B: ProtocolBehavior>(
    behavior: B,
    config: SfConfig,
    views: Vec<(NodeId, Vec<NodeId>)>,
    channel: PhaseFault,
    seed: u64,
    burn_in: usize,
    rounds: usize,
) -> Vec<f64> {
    let loss = UniformLoss::new(0.01).expect("valid rate");
    let mut sim = FlatSimulation::from_views(behavior, config, views, loss, seed);
    sim.run_rounds(burn_in);
    let mut layer = BroadcastLayer::with_channel(seed, BroadcastConfig::default(), channel);
    let origin = Engine::live_ids(&sim).into_iter().min().expect("non-empty sim");
    layer.seed_rumor_at(origin);
    layer.run(&mut sim, rounds);
    let report = layer.report();
    vec![
        milestone(report.to_half, rounds),
        milestone(report.to_99, rounds),
        milestone(report.to_full, rounds),
        report.coverage,
        report.messages_per_node,
    ]
}

/// Dissemination grid (DESIGN.md PR 10): fanout-1 push rumor spreading
/// over the live views of S&F and the §3.1 baselines, under the rumor-
/// channel fault zoo (one `(protocol, channel)` cell each), with 1 %
/// uniform loss on the membership channel throughout. Spread-time milestones compare against
/// [`sandf_sim::doerr_spread_prediction`] (`log₂ n + ln n`); message
/// complexity is per live node.
#[must_use]
pub fn broadcast_table(
    n: usize,
    burn_in: usize,
    rounds: usize,
    replicates: usize,
    base_seed: u64,
) -> String {
    let config = SfConfig::new(16, 6).expect("legal config");
    let mut cells = Vec::new();
    for protocol in BROADCAST_PROTOCOLS {
        for channel in BROADCAST_CHANNELS {
            cells.push((protocol, channel));
        }
    }
    let spec =
        SweepSpec::new(cells, |(p, channel)| format!("{p}/{channel}"), replicates, base_seed);
    // Expander-like bootstrap: ring views take Θ(diameter²) S&F rounds to
    // mix, which at dissemination scales would swamp the rumor's own
    // spread time with membership warm-up (see EXPERIMENTS.md).
    let views: Vec<(NodeId, Vec<NodeId>)> = topology::random_iter(n, config, 8, base_seed)
        .map(|node| (node.id(), node.view().ids().collect()))
        .collect();
    let results = spec.run(&BROADCAST_METRICS, |&(protocol, channel), rng| {
        let seed = rng.next_u64();
        let views = views.clone();
        let channel = broadcast_channel(channel, burn_in + rounds);
        with_behavior!(protocol, |behavior| broadcast_run(
            behavior, config, views, channel, seed, burn_in, rounds
        ))
    });
    results.to_tsv(&["protocol", "channel"], |&(protocol, channel)| {
        vec![protocol.to_string(), channel.to_string()]
    })
}

// ---------------------------------------------------------------------------
// churn_sweep — sustainable-churn boundary
// ---------------------------------------------------------------------------

/// Sustainable-churn sweep (DESIGN.md B3): one node replaced every
/// `interval` rounds (one cell per interval); after `rounds` rounds of ongoing churn the final
/// connectivity, load balance, and stale-id fraction are measured per
/// replicate.
#[must_use]
pub fn churn_table(
    n: usize,
    burn_in: usize,
    rounds: usize,
    replicates: usize,
    base_seed: u64,
) -> String {
    let config = SfConfig::new(16, 6).expect("legal config");
    let intervals = vec![1usize, 2, 4, 8, 16];
    let spec = SweepSpec::new(intervals, |i| format!("interval={i}"), replicates, base_seed);
    let results = spec.run(
        &["components", "mean_in_degree", "in_degree_std", "stale_fraction"],
        |&interval, rng| {
            let params = ExperimentParams { n, config, loss: 0.01, burn_in, seed: rng.next_u64() };
            // A single checkpoint at the end: the sweep aggregates final
            // state across replicates rather than one run's trajectory.
            let points = continuous_churn(&params, interval, rounds, rounds);
            let p = points.last().expect("at least one checkpoint");
            vec![p.components as f64, p.mean_in_degree, p.in_degree_std, p.stale_fraction]
        },
    );
    results.to_tsv(&["churn_interval"], |i| vec![i.to_string()])
}

// ---------------------------------------------------------------------------
// delay_ablation — §4 asynchrony / non-atomic actions
// ---------------------------------------------------------------------------

/// Asynchrony ablation (DESIGN.md B7): the paper's model breaks actions
/// into single-node steps so the analysis survives non-atomic, overlapping
/// actions (Section 4). Every message is delayed up to `max_delay` global
/// steps (one cell per bound; `0` is the central entity's immediate
/// delivery) — by the largest setting, hundreds of other actions interleave
/// with each in-flight message — and the replicated steady-state statistics
/// must be flat in the delay bound.
#[must_use]
pub fn delay_table(n: usize, rounds: usize, replicates: usize, base_seed: u64) -> String {
    let config = paper_config();
    let bounds = vec![0u64, 16, 64, 256, 1024];
    let spec = SweepSpec::new(bounds, |max| format!("max_delay={max}"), replicates, base_seed);
    // Same topology for every cell/replicate — construct once, clone in.
    let nodes = topology::circulant(n, config, initial_degree(config, n));
    let results = spec.run(&["mean_out", "in_std", "dependent_frac", "connected"], |&max, rng| {
        let loss = UniformLoss::new(0.02).expect("valid rate");
        let delay = if max == 0 { DelayModel::Immediate } else { DelayModel::UniformSteps { max } };
        let mut sim = FlatSimulation::new(nodes.clone(), loss, rng.next_u64()).delayed(delay);
        for _ in 0..n * rounds {
            sim.step();
        }
        sim.settle();
        let graph = sim.graph();
        vec![
            DegreeStats::from_samples(&graph.out_degrees()).mean,
            DegreeStats::from_samples(&graph.in_degrees()).std_dev(),
            1.0 - sim.dependence().independent_fraction(),
            f64::from(u8::from(graph.is_weakly_connected())),
        ]
    });
    results.to_tsv(&["max_delay_steps"], |max| vec![max.to_string()])
}

// ---------------------------------------------------------------------------
// par_degree — the sharded engine on the §6.4 loss grid
// ---------------------------------------------------------------------------

/// The §6.4 degree grid driven by [`ParSimulation`]: steady-state degree
/// statistics and duplication rate per loss rate (one cell each). `threads` changes
/// wall-clock only — the engine is byte-identical for any thread count, so
/// the returned TSV is too; the thread-count determinism regression test
/// pins it for `threads ∈ {1, 2, 8}`.
#[must_use]
pub fn par_degree_table(
    n: usize,
    burn_in: usize,
    measure: usize,
    threads: usize,
    replicates: usize,
    base_seed: u64,
) -> String {
    let config = paper_config();
    let losses = vec![0.0, 0.01, 0.05, 0.1];
    let spec = SweepSpec::new(losses, |loss| format!("loss={loss}"), replicates, base_seed);
    // Same topology for every cell/replicate — construct once, clone in.
    let nodes = topology::circulant(n, config, initial_degree(config, n));
    let results = spec.run(&["mean_out", "in_std", "dup_rate", "connected"], |&loss, rng| {
        let loss = UniformLoss::new(loss).expect("valid rate");
        let sim = ParSimulation::new(nodes.clone(), loss, rng.next_u64(), threads)
            .run_replicate(burn_in, measure);
        let graph = sim.graph();
        vec![
            DegreeStats::from_samples(&graph.out_degrees()).mean,
            DegreeStats::from_samples(&graph.in_degrees()).std_dev(),
            sim.stats().duplication_rate().unwrap_or(0.0),
            f64::from(u8::from(graph.is_weakly_connected())),
        ]
    });
    results.to_tsv(&["loss"], |&loss| vec![fmt(loss)])
}

// ---------------------------------------------------------------------------
// uniformity — Lemma 7.6 / Property M3
// ---------------------------------------------------------------------------

/// Lemma 7.6 — uniform representation of ids in views over a long
/// steady-state run, replicated: χ², χ²/dof, and the max/min representation
/// ratio per loss rate (one cell each).
#[must_use]
pub fn uniformity_table(scale: SampleScale, replicates: usize, base_seed: u64) -> String {
    let config = paper_config();
    let losses = vec![0.0, 0.01, 0.05];
    let spec = SweepSpec::new(losses, |loss| format!("loss={loss}"), replicates, base_seed);
    let results = spec.run(&["chi_square", "chi2_over_dof", "max_min_ratio"], |&loss, rng| {
        let params = ExperimentParams {
            n: scale.n,
            config,
            loss,
            burn_in: scale.burn_in,
            seed: rng.next_u64(),
        };
        let report = uniformity(&params, scale.samples, scale.sample_every);
        vec![
            report.chi_square,
            report.chi_square / report.degrees_of_freedom.max(1) as f64,
            report.max_min_ratio,
        ]
    });
    results.to_tsv(&["loss"], |&loss| vec![fmt(loss)])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tiny-scale smoke runs of each table: shape checks only — the golden
    // and determinism integration tests pin exact bytes.

    #[test]
    fn threshold_validation_has_one_row_per_d_hat() {
        let tsv = threshold_validation_table(48, 10, 10, 2, 1);
        assert_eq!(tsv.lines().count(), 4);
        assert!(tsv.starts_with("d_hat\td_L\ts\tP_dup\tP_del\tdup_rate_mean\t"));
    }

    #[test]
    fn baseline_table_covers_the_protocol_grid() {
        let tsv = baseline_table(24, 20, 2, 5);
        // Header + 4 protocols × 3 loss rates.
        assert_eq!(tsv.lines().count(), 13);
        for protocol in ["sandf", "shuffle", "push_pull", "push_only"] {
            assert_eq!(tsv.lines().filter(|l| l.starts_with(&format!("{protocol}\t"))).count(), 3);
        }
    }

    #[test]
    fn zoo_table_covers_every_protocol_on_both_engines() {
        let tsv = zoo_engine_table(24, 8, 0.05, 2, 3);
        // Header + 7 protocols × 2 engines.
        assert_eq!(tsv.lines().count(), 15);
        assert!(tsv.starts_with("protocol\tengine\ttotal_ids_mean\t"));
        for protocol in PROTOCOLS {
            for engine in ["flat", "par"] {
                assert_eq!(
                    tsv.lines()
                        .filter(|l| l.starts_with(&format!("{protocol}\t{engine}\t")))
                        .count(),
                    1
                );
            }
        }
    }

    #[test]
    fn broadcast_table_covers_the_dissemination_grid() {
        let tsv = broadcast_table(32, 10, 25, 2, 17);
        // Header + 3 protocols × 5 channels.
        assert_eq!(tsv.lines().count(), 16);
        assert!(tsv.starts_with("protocol\tchannel\tto_half_mean\t"));
        for protocol in BROADCAST_PROTOCOLS {
            for channel in BROADCAST_CHANNELS {
                assert_eq!(
                    tsv.lines()
                        .filter(|l| l.starts_with(&format!("{protocol}\t{channel}\t")))
                        .count(),
                    1
                );
            }
        }
    }

    #[test]
    fn churn_table_has_one_row_per_interval() {
        let tsv = churn_table(32, 10, 20, 2, 9);
        assert_eq!(tsv.lines().count(), 6);
    }

    #[test]
    fn par_degree_table_is_thread_count_invariant() {
        let single = par_degree_table(48, 10, 10, 1, 2, 7);
        // Header + 4 loss rates.
        assert_eq!(single.lines().count(), 5);
        assert!(single.starts_with("loss\tmean_out_mean\tmean_out_ci95\t"));
        assert_eq!(par_degree_table(48, 10, 10, 3, 2, 7), single);
    }

    #[test]
    fn delay_table_has_one_row_per_bound() {
        let tsv = delay_table(32, 20, 2, 11);
        // Header + 5 delay bounds, immediate delivery first.
        assert_eq!(tsv.lines().count(), 6);
        assert!(tsv.starts_with("max_delay_steps\tmean_out_mean\tmean_out_ci95\t"));
        assert!(tsv.lines().nth(1).expect("first cell").starts_with("0\t"));
        assert!(tsv.lines().nth(5).expect("last cell").starts_with("1024\t"));
    }
}
