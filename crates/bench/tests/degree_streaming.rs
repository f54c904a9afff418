//! PR 9 streaming-statistics invariant, on both engines.
//!
//! The engines maintain a live outdegree histogram ([`DegreeStats`])
//! incrementally — every store/delete shifts one bucket — so measure
//! paths no longer rebuild an `O(n·s)` graph snapshot. The invariant
//! pinned here: after **any** schedule of rounds, joins, leaves, fault
//! swings, and settles, the streaming histogram equals a from-scratch
//! rebuild over the live nodes' degree ledgers.
//!
//! A second suite runs the u32 slot arena on *sparse, large* node ids
//! (well past 2¹⁶, non-contiguous) in lockstep with the same ring on ids
//! 0, 1, 2, …: any narrow truncation inside the arena would alias ids, and
//! any disagreement between the id → dense table and the identity path
//! would move a draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::{NodeId, SfConfig, SfNode};
use sandf_sim::{
    topology, DegreeStats, DelayModel, Engine, FlatSimulation, ParSimulation, UniformLoss,
};

const SEEDS: [u64; 3] = [11, 42, 2009];

fn config() -> SfConfig {
    SfConfig::new(16, 6).expect("legal config")
}

fn nodes() -> Vec<SfNode> {
    topology::circulant(48, config(), 6)
}

/// The invariant: streaming histogram == rebuild over the live ledgers.
fn assert_streaming_matches_rebuild<E: Engine>(sim: &E, ctx: &str) {
    let streaming = sim.degree_stats();
    let s = sim.config().view_size();
    let live = sim.live_ids();
    let rebuild = DegreeStats::rebuild(
        s,
        live.iter().map(|&id| {
            let d = sim.out_degree_of(id).expect("live node has a degree ledger");
            u32::try_from(d).expect("degree fits u32")
        }),
    );
    assert_eq!(streaming, rebuild, "{ctx}: streaming histogram diverged from rebuild");
    assert_eq!(
        usize::try_from(streaming.live_nodes()).expect("live count fits usize"),
        live.len(),
        "{ctx}: histogram mass diverged from the live set"
    );
}

/// Drives a random schedule (rounds, joins, leaves, loss swings, settles)
/// and checks the invariant after every operation.
fn random_schedule<E: Engine<Fault = UniformLoss>>(mut sim: E, seed: u64, label: &str) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5f5f);
    assert_streaming_matches_rebuild(&sim, &format!("{label} initial"));
    for step in 0..60 {
        match rng.gen_range(0..10u32) {
            0..=4 => sim.round(),
            5 => {
                // Fault swing mid-run: the histogram must track through
                // the new loss regime.
                let rate = f64::from(rng.gen_range(0u32..500)) / 1000.0;
                sim.update_fault(|f| *f = UniformLoss::new(rate).expect("legal rate"));
                sim.round();
            }
            6 | 7 => {
                let live = sim.live_ids();
                let sponsor = live[rng.gen_range(0..live.len())];
                // A sponsor thinned below d_L legitimately refuses.
                let _ = sim.join_via(sponsor);
            }
            8 => {
                let live = sim.live_ids();
                if live.len() > 8 {
                    let target = live[rng.gen_range(0..live.len())];
                    assert!(sim.leave(target), "{label}: live node refused to leave");
                }
            }
            _ => sim.settle(),
        }
        assert_streaming_matches_rebuild(&sim, &format!("{label} step {step}"));
    }
    sim.settle();
    assert_streaming_matches_rebuild(&sim, &format!("{label} settled"));
}

#[test]
fn flat_streaming_stats_survive_random_schedules() {
    for seed in SEEDS {
        let sim = FlatSimulation::new(nodes(), UniformLoss::new(0.05).expect("legal rate"), seed)
            .delayed(DelayModel::UniformSteps { max: 8 });
        random_schedule(sim, seed, "flat");
    }
}

#[test]
fn par_streaming_stats_survive_random_schedules() {
    for seed in SEEDS {
        for threads in [1usize, 3] {
            let sim = ParSimulation::new(
                nodes(),
                UniformLoss::new(0.05).expect("legal rate"),
                seed,
                threads,
            )
            .delayed(DelayModel::UniformSteps { max: 8 });
            random_schedule(sim, seed, &format!("par/{threads}"));
        }
    }
}

/// The sparse id of ring position `i`.
fn sparse_id(i: u64) -> u64 {
    1_000_000 + i * 99_991
}

/// A ring of 32 nodes, each viewing its next six; `id` names position
/// `i`. With `sparse_id` the ids stride by 99 991 starting at one million:
/// any 16-bit (or narrower) truncation in the arena aliases distinct ids,
/// and the id → dense table stays a modest ~17 MB.
fn ring_nodes(id: fn(u64) -> u64) -> Vec<SfNode> {
    (0..32u64)
        .map(|i| {
            let targets: Vec<NodeId> = (1..=6).map(|k| NodeId::new(id((i + k) % 32))).collect();
            SfNode::with_view(NodeId::new(id(i)), config(), &targets).expect("legal bootstrap")
        })
        .collect()
}

fn sparse_nodes() -> Vec<SfNode> {
    ring_nodes(sparse_id)
}

/// Every observable the Engine trait exposes, ids renamed by `position`
/// (ring position for an original node, 32 onward for joiners), for
/// lockstep comparison between the sparse and the dense ring.
fn engine_observables<E: Engine>(sim: &E, position: impl Fn(NodeId) -> u64) -> String {
    let mut out = format!("{:?}\nin_flight={}\n", sim.stats(), sim.in_flight());
    let mut live: Vec<(u64, NodeId)> =
        sim.live_ids().into_iter().map(|id| (position(id), id)).collect();
    live.sort_unstable();
    for (pos, id) in live {
        out.push_str(&format!(
            "{pos}: deg={:?} refs={}\n",
            sim.out_degree_of(id),
            sim.count_id_instances(id)
        ));
    }
    out.push_str(&format!("hist={:?}\n", sim.degree_stats().histogram()));
    out
}

#[test]
fn sparse_large_ids_run_in_lockstep_with_dense_ids() {
    // Joiners take the next id past the largest: 32, 33, … on the dense
    // ring, sparse_id(31) + 1, + 2, … on the sparse one.
    let from_sparse = |id: NodeId| match id.as_u64() {
        raw if raw > sparse_id(31) => 32 + raw - sparse_id(31) - 1,
        raw => (raw - sparse_id(0)) / 99_991,
    };
    let dense = |id: NodeId| id.as_u64();
    for seed in SEEDS {
        let loss = || UniformLoss::new(0.05).expect("legal rate");
        let mut sparse = FlatSimulation::new(sparse_nodes(), loss(), seed);
        let mut flat = FlatSimulation::new(ring_nodes(|i| i), loss(), seed);
        let check =
            |sparse: &FlatSimulation<UniformLoss>, flat: &FlatSimulation<UniformLoss>, at| {
                assert_eq!(
                    engine_observables(sparse, from_sparse),
                    engine_observables(flat, dense),
                    "seed {seed} {at}: the sparse ring fell out of lockstep"
                );
            };
        for round in 0..30 {
            sparse.round();
            flat.round();
            check(&sparse, &flat, format!("round {round}"));
        }
        // Churn with freshly minted ids: the widening boundary at join
        // must hand the sparse ring the next ids past its largest.
        for epoch in 0..4 {
            let sponsor = sparse.live_ids()[0];
            let joined = sparse.join_via(sponsor).unwrap();
            let twin = flat.join_via(NodeId::new(from_sparse(sponsor))).unwrap();
            assert_eq!(from_sparse(joined), twin.as_u64());
            let victim = sparse.live_ids()[epoch * 3];
            assert!(sparse.leave(victim).is_some());
            assert!(flat.leave(NodeId::new(from_sparse(victim))).is_some());
            sparse.round();
            flat.round();
            check(&sparse, &flat, format!("epoch {epoch}"));
        }
        sparse.settle();
        flat.settle();
        check(&sparse, &flat, "settled".to_string());
    }
}

#[test]
fn par_on_sparse_large_ids_is_thread_count_independent() {
    for seed in SEEDS {
        let build = |threads| {
            ParSimulation::new(
                sparse_nodes(),
                UniformLoss::new(0.05).expect("legal rate"),
                seed,
                threads,
            )
        };
        let mut one = build(1);
        one.run_rounds(30);
        for threads in [2usize, 7] {
            let mut other = build(threads);
            other.run_rounds(30);
            assert_eq!(
                engine_observables(&one, |id| id.as_u64()),
                engine_observables(&other, |id| id.as_u64()),
                "seed {seed}: par/{threads} diverged from par/1 on sparse ids"
            );
        }
    }
}
