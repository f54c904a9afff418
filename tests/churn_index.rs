//! The flat engine's O(1) `leave` against an O(live) scan, and its
//! scaling.
//!
//! `FlatSimulation` finds a leaver's position in the live list through a
//! dense-indexed position table; the reference model below finds it by
//! scanning. The live list is the initiator-sampling population, so its
//! *order* is part of the engine's pinned draw sequence (§5's central
//! entity draws an index into it). The property test drives the engine
//! and the model through random interleavings of every operation that
//! touches the list and compares them after each one; the scaling guard
//! pins the complexity the table buys for the §6.5 churn experiments at
//! `n ≥ 10⁵`.

use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf::sim::topology;
use sandf::sim::DegreeStats;
use sandf::{Engine, FlatSimulation, NodeId, SfConfig, UniformLoss};

type Flat = FlatSimulation<UniformLoss>;

const N: usize = 12;

fn config() -> SfConfig {
    SfConfig::new(12, 4).expect("legal config")
}

/// Which live-list entry leaves: `First`, `Last` and `Middle` pin the
/// `swap_remove` edge cases, `At(x)` is the entry at `x % len`.
#[derive(Clone, Copy, Debug)]
enum Pick {
    First,
    Last,
    Middle,
    At(u8),
}

impl Pick {
    fn position(self, len: usize) -> usize {
        match self {
            Pick::First => 0,
            Pick::Last => len - 1,
            Pick::Middle => len / 2,
            Pick::At(x) => usize::from(x) % len,
        }
    }
}

/// One operation on the engine and its reference list.
#[derive(Clone, Debug)]
enum Op {
    Leave(Pick),
    /// Join via the sponsor at `x % len`.
    Join(u8),
    /// Join via the sponsor at `x % len`, then leave the joiner at once.
    JoinThenLeave(u8),
    /// Leave an id that already departed (the `x`-th, if any did).
    LeaveDeparted(u8),
    /// Leave an id no engine ever assigned.
    LeaveUnknown(u8),
    Round,
    RoundPermuted,
    /// Clone the engine and the list, set the originals aside, carry on
    /// with the clones: the clone must own its position table.
    Fork,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(|x| Op::Leave(Pick::At(x))),
        Just(Op::Leave(Pick::First)),
        Just(Op::Leave(Pick::Last)),
        Just(Op::Leave(Pick::Middle)),
        // Twice: joins have to keep pace with the four leave shapes, or
        // every schedule drains to the two-node floor.
        any::<u8>().prop_map(Op::Join),
        any::<u8>().prop_map(Op::Join),
        any::<u8>().prop_map(Op::JoinThenLeave),
        any::<u8>().prop_map(Op::LeaveDeparted),
        any::<u8>().prop_map(Op::LeaveUnknown),
        Just(Op::Round),
        Just(Op::RoundPermuted),
        Just(Op::Fork),
    ]
}

/// The reference live list: insertion order, a joiner appended, a leaver
/// found by scan and `swap_remove`d.
#[derive(Clone)]
struct Model(Vec<NodeId>);

impl Model {
    fn leave(&mut self, id: NodeId) -> bool {
        let pos = self.0.iter().position(|&x| x == id);
        pos.map(|pos| self.0.swap_remove(pos)).is_some()
    }
}

/// The live order against the model (as sequences: the order is the
/// sampling population's, not a set's), and the engine's ledgers against
/// its views.
fn assert_agree(model: &Model, flat: &Flat) -> Result<(), TestCaseError> {
    prop_assert_eq!(&model.0, &flat.live_ids(), "live order");
    prop_assert_eq!(model.0.len(), flat.len());
    let mut degrees = Vec::new();
    for &id in &model.0 {
        let view = flat.node_view(id).expect("listed live");
        prop_assert_eq!(Some(view.out_degree()), flat.out_degree_of(id), "degree of {}", id);
        degrees.push(u32::try_from(view.out_degree()).expect("small"));
    }
    prop_assert_eq!(flat.degree_stats(), &DegreeStats::rebuild(config().view_size(), degrees));
    let s = flat.stats();
    prop_assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    Ok(())
}

/// Leaves `id` on the engine and the model; they must agree on whether it
/// was live, and the departed node must carry the view it left with.
fn leave_both(model: &mut Model, flat: &mut Flat, id: NodeId) -> Result<bool, TestCaseError> {
    let view = flat.node_view(id);
    let departed = flat.leave(id);
    prop_assert_eq!(departed.map(|n| n.view().clone()), view.clone(), "leave({})", id);
    let listed = model.leave(id);
    prop_assert_eq!(listed, view.is_some(), "listed vs live: {}", id);
    prop_assert!(flat.out_degree_of(id).is_none(), "{} still live", id);
    Ok(listed)
}

fn run_schedule(seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let nodes = topology::circulant(N, config(), 4);
    let mut flat = FlatSimulation::new(nodes, UniformLoss::new(0.05).expect("legal rate"), seed);
    let mut model = Model(flat.live_ids());
    let mut departed: Vec<NodeId> = Vec::new();
    let mut set_aside: Vec<(Model, Flat)> = Vec::new();
    for op in ops {
        let len = model.0.len();
        match *op {
            // A floor of two live nodes keeps `round()` and sponsors legal.
            Op::Leave(pick) => {
                if len > 2 {
                    let id = model.0[pick.position(len)];
                    prop_assert!(leave_both(&mut model, &mut flat, id)?, "{} was live", id);
                    departed.push(id);
                }
            }
            Op::Join(x) | Op::JoinThenLeave(x) => {
                let sponsor = model.0[Pick::At(x).position(len)];
                let joined = flat.join_via(sponsor);
                if let Ok(id) = joined {
                    model.0.push(id);
                }
                if let (Ok(id), Op::JoinThenLeave(_)) = (joined, op) {
                    assert_agree(&model, &flat)?;
                    prop_assert!(leave_both(&mut model, &mut flat, id)?, "{} just joined", id);
                    departed.push(id);
                }
            }
            Op::LeaveDeparted(x) => {
                if !departed.is_empty() {
                    let id = departed[usize::from(x) % departed.len()];
                    prop_assert!(!leave_both(&mut model, &mut flat, id)?, "{} left twice", id);
                }
            }
            Op::LeaveUnknown(x) => {
                // Just past the allocator, far past it, and past the
                // arena's `u32` id space.
                for raw in [1_000 + u64::from(x), u64::from(u32::MAX) - 1, (1 << 40) + u64::from(x)]
                {
                    let id = NodeId::new(raw);
                    prop_assert!(!leave_both(&mut model, &mut flat, id)?, "{} never joined", id);
                }
            }
            Op::Round => flat.round(),
            Op::RoundPermuted => flat.round_permuted(),
            Op::Fork => {
                let forked = (model.clone(), flat.clone());
                set_aside.push((model, flat));
                (model, flat) = forked;
            }
        }
        assert_agree(&model, &flat)?;
    }
    // The originals each fork left behind were not disturbed by what
    // their clones went on to do, and still agree with their lists.
    for (mut model, mut flat) in set_aside {
        assert_agree(&model, &flat)?;
        let id = model.0[0];
        prop_assert!(leave_both(&mut model, &mut flat, id)?);
        flat.round();
        assert_agree(&model, &flat)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The position table against the scan it replaced: after every
    /// operation the engine agrees with the reference list on the live
    /// order (as a sequence), and its degree ledger with its views.
    #[test]
    fn flat_leave_agrees_with_the_classic_scan(
        seed in any::<u64>(),
        ops in vec(arb_op(), 1..80),
    ) {
        run_schedule(seed, &ops)?;
    }
}

/// A 25 % mass leave and a flash-crowd rejoin at `n = 2×10⁵`, the shape of
/// the §6.5 churn experiments. With the position table the churn takes
/// ≈0.2 s unoptimized on the 2-vCPU reference box; one O(live) scan per
/// leave makes it ≈10¹⁰ comparisons (17 s there, measured on the parent
/// commit) and grows quadratically. The bound is 20× from the first and
/// on the far side of the second, so only a complexity regression trips
/// it.
#[test]
fn mass_leave_and_rejoin_at_2e5_stay_linear() {
    const NODES: usize = 200_000;
    const CHURN: usize = 50_000;
    let config = SfConfig::new(16, 6).expect("legal config");
    let mut sim =
        FlatSimulation::new(topology::circulant_iter(NODES, config, 12), UniformLoss::none(), 7);
    let mut rng = StdRng::seed_from_u64(2009);
    let mut expected = sim.live_ids();
    expected.shuffle(&mut rng);
    let victims = expected.split_off(NODES - CHURN);

    let started = Instant::now();
    for &id in &victims {
        assert!(sim.leave(id).is_some(), "{id} was live");
    }
    assert_eq!(sim.len(), NODES - CHURN);
    for _ in 0..CHURN {
        let sponsor = expected[rng.gen_range(0..expected.len())];
        expected.push(sim.join_via(sponsor).expect("circulant views seed a full bootstrap"));
    }
    let elapsed = started.elapsed();

    assert_eq!(sim.len(), NODES);
    assert!(victims.iter().all(|&id| sim.out_degree_of(id).is_none()), "a victim is still live");
    let mut live = sim.live_ids();
    live.sort_unstable();
    expected.sort_unstable();
    assert_eq!(live, expected, "live set");
    assert!(elapsed < Duration::from_secs(5), "{CHURN} leaves + joins took {elapsed:?}");
}
