//! Property-based tests of the protocol's structural invariants
//! (Observation 5.1, Lemma 6.2) under arbitrary action interleavings and
//! loss patterns — first at the single-node level, then at the engine
//! level, where the same random schedules of rounds, loss rates, and
//! churn run on both engines (`FlatSimulation`, `ParSimulation`).

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sandf::baselines::{PushOnlyBehavior, PushPullBehavior, ShuffleBehavior};
use sandf::core::InitiateOutcome;
use sandf::variants::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};
use sandf::{
    DependenceReport, Engine, FlatSimulation, LocalView, MembershipGraph, Message, NodeId,
    ParSimulation, PhaseFault, ProtocolBehavior, ScheduledFault, SfBehavior, SfConfig, SfNode,
    UniformLoss,
};

/// One externally scheduled event.
#[derive(Clone, Debug)]
enum Event {
    /// Node `initiator % n` initiates; the message is delivered unless
    /// `lost`.
    Act { initiator: u8, lost: bool },
    /// Deliver a stale/forged message (adversarial reordering is legal for
    /// a transport that never duplicates — but even duplication must not
    /// break the invariants, so we inject arbitrary messages).
    Inject { to: u8, sender: u8, payload: u8 },
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u8>(), any::<bool>()).prop_map(|(initiator, lost)| Event::Act { initiator, lost }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(to, sender, payload)| Event::Inject {
            to,
            sender,
            payload
        }),
    ]
}

fn build_system(n: usize, config: SfConfig, d0: usize) -> Vec<SfNode> {
    (0..n as u64)
        .map(|i| {
            let bootstrap: Vec<NodeId> =
                (1..=d0 as u64).map(|k| NodeId::new((i + k) % n as u64)).collect();
            SfNode::with_view(NodeId::new(i), config, &bootstrap).expect("legal bootstrap")
        })
        .collect()
}

/// System size for the engine-level schedules.
const ENGINE_N: usize = 10;

fn engine_config() -> SfConfig {
    SfConfig::new(12, 4).expect("legal config")
}

/// One engine-level scheduled operation.
#[derive(Clone, Debug)]
enum EngineOp {
    /// Run `1 + (r % 3)` full rounds.
    Rounds(u8),
    /// Remove a live node (skipped when the system is nearly empty).
    Leave(u8),
    /// Join a new node via a live sponsor (skipped if the sponsor cannot
    /// seed a legal bootstrap view).
    Join(u8),
}

fn arb_engine_op() -> impl Strategy<Value = EngineOp> {
    prop_oneof![
        any::<u8>().prop_map(EngineOp::Rounds),
        any::<u8>().prop_map(EngineOp::Leave),
        any::<u8>().prop_map(EngineOp::Join),
    ]
}

/// One randomly drawn fault family for a scenario phase, parameters in
/// their legal ranges (rates arrive as milli-units).
#[derive(Clone, Debug)]
enum FaultKind {
    Uniform { rate_milli: u16 },
    Partition { regions: u64, sever_milli: u16, base_milli: u16 },
    Capacity { salt: u64, slow_milli: u16, period: u64, base_milli: u16 },
    Victims { victims: Vec<u8>, victim_milli: u16, base_milli: u16 },
    PerLink { salt: u64, bad_milli: u16, good_milli: u16 },
}

fn milli(m: u16) -> f64 {
    f64::from(m % 1000) / 1000.0
}

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        any::<u16>().prop_map(|rate_milli| FaultKind::Uniform { rate_milli }),
        (2..5u64, any::<u16>(), any::<u16>()).prop_map(|(regions, sever_milli, base_milli)| {
            FaultKind::Partition { regions, sever_milli, base_milli }
        }),
        (any::<u64>(), any::<u16>(), 2..5u64, any::<u16>()).prop_map(
            |(salt, slow_milli, period, base_milli)| FaultKind::Capacity {
                salt,
                slow_milli,
                period,
                base_milli
            }
        ),
        (vec(any::<u8>(), 1..4), any::<u16>(), any::<u16>()).prop_map(
            |(victims, victim_milli, base_milli)| FaultKind::Victims {
                victims,
                victim_milli,
                base_milli
            }
        ),
        (any::<u64>(), any::<u16>(), any::<u16>()).prop_map(|(salt, bad_milli, good_milli)| {
            FaultKind::PerLink { salt, bad_milli, good_milli }
        }),
    ]
}

/// Compiles randomly drawn phases into a [`ScheduledFault`]: phase `k`
/// lasts `1 + (rounds_k % 4)` rounds, partition windows align with their
/// phase, and the last phase is open-ended (the schedule's own
/// convention) so arbitrarily long op schedules stay covered.
fn build_schedule(phases: &[(u8, FaultKind)]) -> ScheduledFault {
    let mut compiled = Vec::with_capacity(phases.len());
    let mut start = 0u64;
    for (rounds, kind) in phases {
        let duration = u64::from(rounds % 4) + 1;
        let end = start + duration;
        let fault = match kind {
            FaultKind::Uniform { rate_milli } => PhaseFault::Uniform(
                UniformLoss::new(milli(*rate_milli)).expect("milli rates are legal"),
            ),
            FaultKind::Partition { regions, sever_milli, base_milli } => PhaseFault::Partition {
                regions: *regions,
                start,
                duration,
                sever: milli(*sever_milli),
                base: milli(*base_milli),
            },
            FaultKind::Capacity { salt, slow_milli, period, base_milli } => PhaseFault::Capacity {
                salt: *salt,
                slow_fraction: milli(*slow_milli),
                period: *period,
                base: milli(*base_milli),
            },
            FaultKind::Victims { victims, victim_milli, base_milli } => {
                let mut loss = PhaseFault::Victims {
                    count: victims.len(),
                    victim_rate: milli(*victim_milli),
                    base: milli(*base_milli),
                    victims: Vec::new(),
                };
                let ids: Vec<NodeId> =
                    victims.iter().map(|&v| NodeId::new(u64::from(v) % ENGINE_N as u64)).collect();
                loss.aim(&ids);
                loss
            }
            FaultKind::PerLink { salt, bad_milli, good_milli } => PhaseFault::PerLink {
                salt: *salt,
                bad_fraction: 0.5,
                good_rate: milli(*good_milli),
                bad_rate: milli(*bad_milli),
            },
        };
        compiled.push((end, fault));
        start = end;
    }
    ScheduledFault::new(compiled)
}

/// Drives one engine through a schedule, checking after every operation:
/// Obs. 5.1 (outdegrees even and inside `[d_L, s]`) and id provenance
/// (every view entry names an id the system actually assigned — never a
/// forged or corrupted id, which would expose e.g. a sentinel leak in the
/// flat/par slot encoding). Views *can* transiently hold their owner's id
/// — duplicate entries let a node be sent its own id — so that is
/// deliberately not asserted; `DependenceReport` tracks it as
/// `self_edges`. Generic over [`Engine`], so one function body covers
/// both engines.
fn obs_5_1_schedule<E: Engine>(
    mut sim: E,
    ops: &[EngineOp],
    config: SfConfig,
) -> Result<(), TestCaseError> {
    let mut live: Vec<NodeId> = (0..ENGINE_N as u64).map(NodeId::new).collect();
    let mut highest_assigned = ENGINE_N as u64 - 1;
    for op in ops {
        match *op {
            EngineOp::Rounds(r) => sim.run_rounds(1 + usize::from(r % 3)),
            EngineOp::Leave(x) => {
                if live.len() > 3 {
                    let id = live[usize::from(x) % live.len()];
                    prop_assert!(sim.leave(id), "{} should have been live", id);
                    live.retain(|&v| v != id);
                }
            }
            EngineOp::Join(x) => {
                let sponsor = live[usize::from(x) % live.len()];
                if let Ok(joiner) = sim.join_via(sponsor) {
                    highest_assigned = highest_assigned.max(joiner.as_u64());
                    live.push(joiner);
                }
            }
        }
        let graph = sim.graph();
        for d in graph.out_degrees() {
            prop_assert_eq!(d % 2, 0, "odd outdegree");
            prop_assert!(
                d >= config.lower_threshold() && d <= config.view_size(),
                "outdegree {} escaped [{}, {}]",
                d,
                config.lower_threshold(),
                config.view_size()
            );
        }
        for &u in graph.ids() {
            for v in graph.out_neighbors(u).expect("id comes from the graph") {
                prop_assert!(
                    v.as_u64() <= highest_assigned,
                    "view of {} holds {}, an id the system never assigned",
                    u,
                    v
                );
            }
        }
    }
    Ok(())
}

/// Runs one engine for a fixed number of immediate-delivery rounds and
/// reconciles the final edge count against the engine's stats ledger:
/// `edges = initial − 2·(sent − duplications) + 2·stored`, alongside the
/// send ledger `actions = self_loops + sent` and
/// `sent = lost + dead_letters + stored + deleted` (no churn here, so
/// nothing is in flight after a round and dead letters cannot arise).
fn id_ledger_holds<E: Engine>(mut sim: E, rounds: usize) -> Result<(), TestCaseError> {
    let initial = sim.graph().edge_count() as i64;
    sim.run_rounds(rounds);
    let s = sim.stats();
    // Steps accounting: with no churn, every live node is scheduled
    // once per round and either acts or is capacity-skipped.
    prop_assert_eq!(s.actions + s.skipped, (rounds * ENGINE_N) as u64);
    prop_assert_eq!(s.actions, s.self_loops + s.sent);
    prop_assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    prop_assert_eq!(s.dead_letters, 0);
    let expected = initial - 2 * (s.sent - s.duplications) as i64 + 2 * s.stored as i64;
    prop_assert_eq!(sim.graph().edge_count() as i64, expected, "edge ledger out of balance");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Observation 5.1: outdegrees stay even and inside [d_L, s] no matter
    /// how actions, losses, and injected messages interleave.
    #[test]
    fn observation_5_1_holds_under_arbitrary_schedules(
        events in vec(arb_event(), 1..400),
        seed in any::<u64>(),
    ) {
        let n = 8usize;
        let config = SfConfig::new(12, 4).expect("legal");
        let mut nodes = build_system(n, config, 6);
        let mut rng = StdRng::seed_from_u64(seed);

        for event in events {
            match event {
                Event::Act { initiator, lost } => {
                    let i = initiator as usize % n;
                    let outcome = nodes[i].initiate(&mut rng);
                    if let InitiateOutcome::Sent { to, message, .. } = outcome {
                        if !lost {
                            let j = to.index() % n;
                            nodes[j].receive(message, &mut rng);
                        }
                    }
                }
                Event::Inject { to, sender, payload } => {
                    let j = to as usize % n;
                    let msg = Message::new(
                        NodeId::new(u64::from(sender) % n as u64),
                        NodeId::new(u64::from(payload) % n as u64),
                        false,
                    );
                    nodes[j].receive(msg, &mut rng);
                }
            }
            for node in &nodes {
                let d = node.out_degree();
                prop_assert_eq!(d % 2, 0, "odd outdegree at {}", node.id());
                prop_assert!(d >= config.lower_threshold());
                prop_assert!(d <= config.view_size());
            }
        }
    }

    /// Lemma 6.2: with no loss and d_L = 0, every node's sum degree
    /// d(u) + 2·d_in(u) is invariant under any action schedule.
    #[test]
    fn lemma_6_2_sum_degree_invariant(
        initiators in vec(any::<u8>(), 1..500),
        seed in any::<u64>(),
    ) {
        let n = 8usize;
        let config = SfConfig::lossless(12).expect("legal");
        let mut nodes = build_system(n, config, 4);
        let before = MembershipGraph::from_nodes(&nodes).sum_degrees();
        let mut rng = StdRng::seed_from_u64(seed);

        for initiator in initiators {
            let i = initiator as usize % n;
            let outcome = nodes[i].initiate(&mut rng);
            if let InitiateOutcome::Sent { to, message, .. } = outcome {
                let j = to.index() % n;
                nodes[j].receive(message, &mut rng);
            }
        }
        let after = MembershipGraph::from_nodes(&nodes).sum_degrees();
        prop_assert_eq!(before, after);
    }

    /// Total edge conservation identity: every non-self-loop action without
    /// loss moves exactly zero or ±2 edges; the ledger
    /// `edges = initial − 2·(non-dup sends) + 2·(stores)` always balances.
    #[test]
    fn edge_ledger_balances(
        initiators in vec(any::<u8>(), 1..300),
        losses in vec(any::<bool>(), 300),
        seed in any::<u64>(),
    ) {
        let n = 6usize;
        let config = SfConfig::new(10, 2).expect("legal");
        let mut nodes = build_system(n, config, 4);
        let initial_edges = MembershipGraph::from_nodes(&nodes).edge_count() as i64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut removed = 0i64;
        let mut added = 0i64;

        for (k, initiator) in initiators.iter().enumerate() {
            let i = *initiator as usize % n;
            let outcome = nodes[i].initiate(&mut rng);
            if let InitiateOutcome::Sent { to, message, duplicated, .. } = outcome {
                if !duplicated {
                    removed += 2;
                }
                if !losses[k % losses.len()] {
                    let j = to.index() % n;
                    if !nodes[j].receive(message, &mut rng).is_deleted() {
                        added += 2;
                    }
                }
            }
        }
        let final_edges = MembershipGraph::from_nodes(&nodes).edge_count() as i64;
        prop_assert_eq!(final_edges, initial_edges - removed + added);
    }

    /// Obs. 5.1 at the engine level: outdegrees stay even and in
    /// `[d_L, s]`, and views only ever hold ids the system assigned,
    /// through arbitrary schedules of rounds, loss rates, and churn on
    /// both engines.
    #[test]
    fn engines_preserve_observation_5_1_under_random_schedules(
        ops in vec(arb_engine_op(), 1..10),
        rate_milli in 0..500u32,
        seed in any::<u64>(),
    ) {
        let config = engine_config();
        let loss = UniformLoss::new(f64::from(rate_milli) / 1000.0).expect("valid rate");
        let nodes = build_system(ENGINE_N, config, 6);
        obs_5_1_schedule(FlatSimulation::new(nodes.clone(), loss, seed), &ops, config)?;
        obs_5_1_schedule(ParSimulation::new(nodes, loss, seed, 2), &ops, config)?;
    }

    /// Id conservation at the engine level: over any schedule of rounds at
    /// any loss rate (including zero — the lossless conservation case),
    /// every id copy is accounted for. Each non-duplicating send removes
    /// exactly two view entries at the initiator, each stored delivery
    /// adds exactly two at the receiver, and nothing else moves an edge —
    /// so the edge count reconciles against the engine's own stats ledger,
    /// and the send ledger itself balances, on both engines.
    #[test]
    fn engines_conserve_ids_against_their_ledgers(
        rounds in 1..12usize,
        rate_milli in 0..500u32,
        seed in any::<u64>(),
    ) {
        let config = engine_config();
        let loss = UniformLoss::new(f64::from(rate_milli) / 1000.0).expect("valid rate");
        let nodes = build_system(ENGINE_N, config, 6);
        id_ledger_holds(FlatSimulation::new(nodes.clone(), loss, seed), rounds)?;
        id_ledger_holds(ParSimulation::new(nodes, loss, seed, 2), rounds)?;
    }

    /// Obs. 5.1 under the scenario fault models: random multi-phase
    /// schedules mixing partition-then-heal, capacity classes, targeted
    /// victims, per-link correlated loss, and uniform phases — still
    /// interleaved with churn ops — must keep outdegrees even and inside
    /// `[d_L, s]` with no forged ids, on both engines. Correlated
    /// faults shape *which* messages drop, never the per-node view
    /// algebra, so the safety invariants are fault-model-independent.
    #[test]
    fn engines_preserve_observation_5_1_under_scenario_faults(
        phases in vec((any::<u8>(), arb_fault_kind()), 1..4),
        ops in vec(arb_engine_op(), 1..8),
        seed in any::<u64>(),
    ) {
        let config = engine_config();
        let fault = build_schedule(&phases);
        let nodes = build_system(ENGINE_N, config, 6);
        obs_5_1_schedule(FlatSimulation::new(nodes.clone(), fault.clone(), seed), &ops, config)?;
        obs_5_1_schedule(ParSimulation::new(nodes, fault, seed, 2), &ops, config)?;
    }

    /// Id conservation under the scenario fault models. Capacity gating
    /// skips whole steps rather than dropping messages, so the ledger
    /// gains a term: `actions + skipped` must equal the total scheduled
    /// steps, and the send/edge ledgers must still balance exactly — on
    /// both engines, under every fault family.
    #[test]
    fn engines_conserve_ids_under_scenario_faults(
        phases in vec((any::<u8>(), arb_fault_kind()), 1..4),
        rounds in 1..12usize,
        seed in any::<u64>(),
    ) {
        let config = engine_config();
        let fault = build_schedule(&phases);
        let nodes = build_system(ENGINE_N, config, 6);
        id_ledger_holds(FlatSimulation::new(nodes.clone(), fault.clone(), seed), rounds)?;
        id_ledger_holds(ParSimulation::new(nodes, fault, seed, 2), rounds)?;
    }

    /// The dependence tag algebra: a view never reports more dependent
    /// entries than total entries, whatever happened to it.
    #[test]
    fn dependence_report_is_well_formed(
        initiators in vec(any::<u8>(), 1..200),
        seed in any::<u64>(),
    ) {
        let n = 6usize;
        let config = SfConfig::new(10, 4).expect("legal");
        let mut nodes = build_system(n, config, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        for initiator in initiators {
            let i = initiator as usize % n;
            if let InitiateOutcome::Sent { to, message, .. } = nodes[i].initiate(&mut rng) {
                let j = to.index() % n;
                nodes[j].receive(message, &mut rng);
            }
        }
        let report = DependenceReport::measure(nodes.iter().map(|node| (node.id(), node.view().entries())));
        prop_assert!(report.dependent_entries <= report.total_entries);
        prop_assert!(report.self_edges <= report.dependent_entries);
        let alpha = report.independent_fraction();
        prop_assert!((0.0..=1.0).contains(&alpha));
    }
}

/// Every reader of one engine must report the same live entries: the
/// reconstituted nodes, the graph snapshot, the streaming degree ledger,
/// per node `node_view` against `for_each_live_row`, `count_id_instances`
/// against a count over `node_view` (every live id and the departed one),
/// and `dependence` against `DependenceReport::measure` over `to_nodes`.
fn readers_agree<E: Engine>(
    label: &str,
    sim: &E,
    nodes: &[SfNode],
    node_view: impl Fn(NodeId) -> Option<LocalView>,
    dependence: DependenceReport,
    departed: NodeId,
) {
    let edges = sim.graph().edge_count();
    assert_eq!(nodes.iter().map(SfNode::out_degree).sum::<usize>(), edges, "{label}: to_nodes");
    assert_eq!(sim.degree_stats().edges(), edges as u64, "{label}: degree_stats");
    let widen = |word: u32| NodeId::new(u64::from(word));
    sim.for_each_live_row(|_| true, &mut |id, visible| {
        let mut expected: Vec<NodeId> = visible.iter().map(|&word| widen(word)).collect();
        let mut view: Vec<NodeId> = node_view(widen(id)).expect("live id").ids().collect();
        expected.sort_unstable();
        view.sort_unstable();
        assert_eq!(view, expected, "{label}: node_view({id})");
    });
    let live = sim.live_ids();
    for id in live.iter().copied().chain([departed]) {
        let views = live.iter().map(|&u| node_view(u).expect("live id").multiplicity(id));
        assert_eq!(sim.count_id_instances(id), views.sum(), "{label}: count_id_instances({id})");
    }
    let rows = nodes.iter().map(|node| (node.id(), node.view().entries()));
    assert_eq!(dependence, DependenceReport::measure(rows), "{label}: dependence");
}

/// 64 nodes, each viewing its 10 successors, at `SfConfig::new(16, 6)`.
fn successor_views() -> (SfConfig, Vec<(NodeId, Vec<NodeId>)>) {
    let views = (0..64u64)
        .map(|i| (NodeId::new(i), (1..=10).map(|d| NodeId::new((i + d) % 64)).collect()))
        .collect();
    (SfConfig::new(16, 6).expect("legal"), views)
}

fn readers_agree_on_both_engines<B: ProtocolBehavior + Copy>(name: &str, behavior: B) {
    let (config, views) = successor_views();
    let loss = UniformLoss::new(0.05).expect("valid rate");
    // Leave one node mid-run, so its id lingers in live views as stale
    // instances the count has to find.
    let departed = NodeId::new(7);
    let mut flat = FlatSimulation::from_views(behavior, config, views.clone(), loss, 2);
    flat.run_rounds(200);
    flat.leave(departed).expect("live");
    flat.run_rounds(2);
    let nodes = flat.to_nodes();
    let node_view = |id| flat.node_view(id);
    readers_agree(&format!("{name}/flat"), &flat, &nodes, node_view, flat.dependence(), departed);
    let mut par = ParSimulation::from_views(behavior, config, views, loss, 2, 2);
    par.run_rounds(200);
    par.leave(departed).expect("live");
    par.run_rounds(2);
    let nodes = par.to_nodes();
    let node_view = |id| par.node_view(id);
    readers_agree(&format!("{name}/par"), &par, &nodes, node_view, par.dependence(), departed);
}

/// Slots a behavior hides (the undelete variant's tombstones) are hidden
/// by every reader alike: `to_nodes`/`node_view`, `count_id_instances`,
/// `dependence` and the node `leave` returns as much as `graph`, on all
/// seven behaviors.
#[test]
fn readers_agree_for_every_behavior_on_both_engines() {
    readers_agree_on_both_engines("sandf", SfBehavior);
    readers_agree_on_both_engines("push_only", PushOnlyBehavior);
    readers_agree_on_both_engines("push_pull", PushPullBehavior::new(3));
    readers_agree_on_both_engines("shuffle", ShuffleBehavior::new(3));
    readers_agree_on_both_engines("replace", ReplaceBehavior);
    readers_agree_on_both_engines("undelete", UndeleteBehavior);
    readers_agree_on_both_engines("batched", BatchedBehavior::new(3));
}

/// The one-reply contract as an exact ledger: at ℓ = 0 with no churn every
/// push-pull and shuffle request reaches a live node and is answered once,
/// so exactly half of what is sent is replies, on both engines.
#[test]
fn request_reply_baselines_answer_every_request_once_on_both_engines() {
    fn ledger<B: ProtocolBehavior + Copy>(name: &str, behavior: B) {
        let (config, views) = successor_views();
        let none = UniformLoss::none();
        let mut flat = FlatSimulation::from_views(behavior, config, views.clone(), none, 3);
        let mut par = ParSimulation::from_views(behavior, config, views, none, 3, 2);
        flat.run_rounds(50);
        par.run_rounds(50);
        for (engine, s) in [("flat", *flat.stats()), ("par", *par.stats())] {
            assert!(s.replies > 0 && s.lost + s.dead_letters == 0, "{name}/{engine}: {s:?}");
            assert_eq!(s.sent, 2 * s.replies, "{name}/{engine}: {s:?}");
        }
    }
    ledger("push_pull", PushPullBehavior::new(3));
    ledger("shuffle", ShuffleBehavior::new(3));
}
