//! Property-based tests of the rumor layer's structural invariants under
//! random fault, churn, and rumor-channel schedules, on both engines
//! (`FlatSimulation`, `ParSimulation`):
//!
//! * **Monotonicity** — once a node holds the rumor it never un-learns
//!   it, no matter how views churn underneath.
//! * **Provenance** — every infection is witnessed by a trace edge that
//!   existed in *that round's* live views: a push edge lies in the
//!   sender's view, a pull edge in the requester's view. Nobody learns
//!   the rumor out of thin air.
//! * **Ledger** — after every step the layer's live count matches the
//!   engine's, and informed + uninformed partitions the live set.

use std::collections::{HashMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;
use sandf::{
    BroadcastConfig, BroadcastLayer, Engine, FlatSimulation, NodeId, ParSimulation, RumorChannel,
    SfConfig, SfNode, UniformLoss,
};

/// System size for the engine-level schedules.
const N: usize = 16;

fn build_system(n: usize, config: SfConfig, d0: usize) -> Vec<SfNode> {
    (0..n as u64)
        .map(|i| {
            let bootstrap: Vec<NodeId> =
                (1..=d0 as u64).map(|k| NodeId::new((i + k) % n as u64)).collect();
            SfNode::with_view(NodeId::new(i), config, &bootstrap).expect("legal bootstrap")
        })
        .collect()
}

/// One engine-level scheduled operation.
#[derive(Clone, Debug)]
enum Op {
    /// Run `1 + (r % 3)` membership+broadcast rounds.
    Rounds(u8),
    /// Remove a live node (skipped when the system is nearly empty).
    Leave(u8),
    /// Join a new node via a live sponsor.
    Join(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Rounds),
        any::<u8>().prop_map(Op::Leave),
        any::<u8>().prop_map(Op::Join),
    ]
}

/// One randomly drawn rumor channel, rates in milli-units.
#[derive(Clone, Debug)]
enum ChannelKind {
    Lossless,
    Uniform { rate_milli: u16 },
    Bursty { to_bad_milli: u16, to_good_milli: u16, good_milli: u16, bad_milli: u16 },
    Partition { regions: u64, sever_milli: u16, base_milli: u16 },
    Victims { victims: Vec<u8>, victim_milli: u16, base_milli: u16 },
}

fn milli(m: u16) -> f64 {
    f64::from(m % 1000) / 1000.0
}

fn arb_channel() -> impl Strategy<Value = ChannelKind> {
    prop_oneof![
        Just(ChannelKind::Lossless),
        any::<u16>().prop_map(|rate_milli| ChannelKind::Uniform { rate_milli }),
        (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()).prop_map(
            |(to_bad_milli, to_good_milli, good_milli, bad_milli)| ChannelKind::Bursty {
                to_bad_milli,
                to_good_milli,
                good_milli,
                bad_milli
            }
        ),
        (2..5u64, any::<u16>(), any::<u16>()).prop_map(|(regions, sever_milli, base_milli)| {
            ChannelKind::Partition { regions, sever_milli, base_milli }
        }),
        (vec(any::<u8>(), 1..4), any::<u16>(), any::<u16>()).prop_map(
            |(victims, victim_milli, base_milli)| ChannelKind::Victims {
                victims,
                victim_milli,
                base_milli
            }
        ),
    ]
}

fn compile_channel(kind: &ChannelKind) -> RumorChannel {
    match kind {
        ChannelKind::Lossless => RumorChannel::Lossless,
        ChannelKind::Uniform { rate_milli } => RumorChannel::Uniform { rate: milli(*rate_milli) },
        ChannelKind::Bursty { to_bad_milli, to_good_milli, good_milli, bad_milli } => {
            RumorChannel::Bursty {
                to_bad: milli(*to_bad_milli),
                to_good: milli(*to_good_milli),
                loss_good: milli(*good_milli),
                loss_bad: milli(*bad_milli),
            }
        }
        ChannelKind::Partition { regions, sever_milli, base_milli } => RumorChannel::Partition {
            regions: *regions,
            sever: milli(*sever_milli),
            base: milli(*base_milli),
        },
        ChannelKind::Victims { victims, victim_milli, base_milli } => RumorChannel::Victims {
            victim_rate: milli(*victim_milli),
            base: milli(*base_milli),
            victims: victims.iter().map(|&v| NodeId::new(u64::from(v) % N as u64)).collect(),
        },
    }
}

/// One membership round followed by one broadcast step, with the three
/// invariants checked against a view snapshot taken at the exact state
/// the step observes.
fn step_and_check<E: Engine>(
    sim: &mut E,
    layer: &mut BroadcastLayer,
    informed_ever: &mut HashSet<NodeId>,
) -> Result<(), TestCaseError> {
    sim.round();

    // Snapshot the live views the broadcast step is about to gossip over.
    let mut views: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let widen = |word: u32| NodeId::new(u64::from(word));
    sim.for_each_live_row(&mut |id, view| {
        views.insert(widen(id), view.iter().map(|&word| widen(word)).collect());
    });
    let traced = layer.trace().len();
    layer.step(sim);

    // Provenance: each fresh infection rides an edge of this round's
    // views — the sender's view for a push, the requester's for a pull.
    let round = layer.rounds();
    for edge in &layer.trace()[traced..] {
        prop_assert_eq!(edge.round, round, "trace edge stamped with a foreign round");
        let push_ok = views.get(&edge.from).is_some_and(|v| v.contains(&edge.to));
        let pull_ok = views.get(&edge.to).is_some_and(|v| v.contains(&edge.from));
        prop_assert!(
            push_ok || pull_ok,
            "{} infected {} without a view edge in round {}",
            edge.from,
            edge.to,
            round
        );
    }

    // Monotonicity: nobody un-learns the rumor.
    for &id in informed_ever.iter() {
        prop_assert!(layer.is_informed(id), "{} forgot the rumor", id);
    }

    // Ledger: the layer's live count matches the engine's, and
    // informed + uninformed partitions the live set exactly.
    let live = sim.live_ids();
    prop_assert_eq!(layer.live_seen(), live.len());
    let informed = live.iter().filter(|&&id| layer.is_informed(id)).count();
    let uninformed = live.iter().filter(|&&id| !layer.is_informed(id)).count();
    prop_assert_eq!(informed, layer.informed_live());
    prop_assert_eq!(informed + uninformed, live.len());

    for &id in &live {
        if layer.is_informed(id) {
            informed_ever.insert(id);
        }
    }
    Ok(())
}

/// Drives one engine through a random schedule of rounds, leaves, and
/// joins with the rumor layer riding on top.
fn broadcast_schedule<E: Engine>(
    mut sim: E,
    ops: &[Op],
    channel: RumorChannel,
    config: BroadcastConfig,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut layer = BroadcastLayer::with_channel(seed, config, channel);
    layer.enable_trace();
    let origin = sim.live_ids().into_iter().min().expect("non-empty system");
    layer.seed_rumor_at(origin);
    let mut informed_ever: HashSet<NodeId> = [origin].into();

    let mut live: Vec<NodeId> = sim.live_ids();
    for op in ops {
        match *op {
            Op::Rounds(r) => {
                for _ in 0..(1 + usize::from(r % 3)) {
                    step_and_check(&mut sim, &mut layer, &mut informed_ever)?;
                }
            }
            Op::Leave(x) => {
                if live.len() > 4 {
                    let id = live[usize::from(x) % live.len()];
                    prop_assert!(sim.leave(id), "{} should have been live", id);
                    live.retain(|&v| v != id);
                }
            }
            Op::Join(x) => {
                let sponsor = live[usize::from(x) % live.len()];
                if let Ok(joiner) = sim.join_via(sponsor) {
                    live.push(joiner);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Monotonicity, provenance, and the live ledger hold through
    /// arbitrary schedules of rounds, churn, membership loss, and rumor
    /// channels, on both engines.
    #[test]
    fn broadcast_invariants_hold_on_all_engines(
        ops in vec(arb_op(), 1..12),
        channel in arb_channel(),
        fanout in 1..3usize,
        pull in any::<bool>(),
        rate_milli in 0..500u32,
        seed in any::<u64>(),
    ) {
        let sf = SfConfig::new(12, 4).expect("legal config");
        let loss = UniformLoss::new(f64::from(rate_milli) / 1000.0).expect("valid rate");
        let nodes = build_system(N, sf, 6);
        let config = if pull {
            BroadcastConfig::push_pull(fanout, u8::MAX)
        } else {
            BroadcastConfig::push(fanout, u8::MAX)
        };
        let rumor = compile_channel(&channel);
        broadcast_schedule(
            FlatSimulation::new(nodes.clone(), loss, seed),
            &ops,
            rumor.clone(),
            config,
            seed,
        )?;
        broadcast_schedule(ParSimulation::new(nodes, loss, seed, 2), &ops, rumor, config, seed)?;
    }
}
