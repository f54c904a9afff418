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
    BroadcastConfig, BroadcastLayer, Engine, FlatSimulation, GilbertElliott, NodeId, ParSimulation,
    PhaseFault, SfConfig, SfNode, UniformLoss,
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

/// A rate in `[0, 1)`, in milli-units.
fn rate() -> impl Strategy<Value = f64> {
    (0..1000u16).prop_map(|m| f64::from(m) / 1000.0)
}

fn uniform(rate: f64) -> PhaseFault {
    PhaseFault::Uniform(UniformLoss::new(rate).expect("valid rate"))
}

/// One randomly drawn rumor channel, from every model of the fault
/// grammar.
fn arb_channel() -> impl Strategy<Value = PhaseFault> {
    prop_oneof![
        Just(uniform(0.0)),
        rate().prop_map(uniform),
        (rate(), rate(), rate(), rate()).prop_map(|(to_bad, to_good, good, bad)| {
            // A chain that never leaves the good state is uniform loss at
            // the good rate, the only form `check` accepts for it.
            if to_bad + to_good == 0.0 {
                return uniform(good);
            }
            PhaseFault::Bursty(GilbertElliott::new(to_bad, to_good, good, bad).expect("valid"))
        }),
        (2..5u64, 1..40u64, rate(), rate()).prop_map(|(regions, duration, sever, base)| {
            PhaseFault::Partition { regions, start: 0, duration, sever, base }
        }),
        (any::<u64>(), rate(), rate(), rate()).prop_map(
            |(salt, bad_fraction, good_rate, bad_rate)| PhaseFault::PerLink {
                salt,
                bad_fraction,
                good_rate,
                bad_rate
            }
        ),
        (any::<u64>(), rate(), 2..5u64, rate()).prop_map(|(salt, slow_fraction, period, base)| {
            PhaseFault::Capacity { salt, slow_fraction, period, base }
        }),
        (vec(0..N as u64, 1..4), rate(), rate()).prop_map(|(ids, victim_rate, base)| {
            let victims = Vec::new();
            let mut fault = PhaseFault::Victims { count: ids.len(), victim_rate, base, victims };
            fault.aim(&ids.into_iter().map(NodeId::new).collect::<Vec<_>>());
            fault
        }),
    ]
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
    sim.for_each_live_row(|_| true, &mut |id, view| {
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
    channel: PhaseFault,
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
        broadcast_schedule(
            FlatSimulation::new(nodes.clone(), loss, seed),
            &ops,
            channel.clone(),
            config,
            seed,
        )?;
        broadcast_schedule(ParSimulation::new(nodes, loss, seed, 2), &ops, channel, config, seed)?;
    }
}
