//! The step vocabulary every engine speaks.
//!
//! The engines implement the paper's execution model (Section 5): "a
//! central entity repeatedly selects a random node, invokes its
//! `S&F-InitiateAction()` method, and waits for the completion of
//! `S&F-Receive` by the receiving node (in case a message was sent)". A
//! *round* is the period during which each node is expected to initiate
//! exactly one action — i.e. `n` random steps.
//!
//! This module holds what they report and how their channel delays: the
//! system-wide counters ([`SimStats`]) with their ledger laws, the per-step
//! report ([`StepReport`], [`StepEvent`], [`StepPhase`]) and its observer
//! ([`StepSubscriber`]), and the message-delay model ([`DelayModel`]). The
//! tests below hold the ledgers and the observer stream to those laws on
//! [`FlatSimulation`](crate::FlatSimulation), the engine the evaluation
//! runs on.

use sandf_core::{Message, NodeId};

/// System-wide event counters, the simulator-side complement of
/// [`NodeStats`](sandf_core::NodeStats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Total initiate steps executed.
    pub actions: u64,
    /// Actions that were self-loop transformations.
    pub self_loops: u64,
    /// Messages produced.
    pub sent: u64,
    /// Messages dropped by the loss model.
    pub lost: u64,
    /// Messages addressed to a node that already left or failed.
    pub dead_letters: u64,
    /// Messages delivered and stored by the receiver.
    pub stored: u64,
    /// Messages delivered but deleted (receiver's view was full).
    pub deleted: u64,
    /// Sends that duplicated instead of clearing (`d(u) = d_L`).
    pub duplications: u64,
    /// Action steps skipped because the fault model's capacity gate was
    /// closed ([`FaultModel::node_acts`](crate::FaultModel::node_acts)
    /// returned `false`). Not counted in `actions`, so the
    /// `actions = self_loops + sent` ledger is unaffected.
    pub skipped: u64,
    /// Messages sent as replies to a delivered message (request/reply
    /// protocols on the generic engines; always 0 for S&F, which never
    /// replies). Replies are also counted in `sent`, so the ledgers read
    /// `sent = lost + dead_letters + stored + deleted (+ in_flight)` and
    /// `actions = self_loops + (sent − replies)`.
    pub replies: u64,
}

impl SimStats {
    /// Empirical duplication probability over non-self-loop actions, the
    /// quantity bounded by Lemma 6.7 (`ℓ ≤ dup ≤ ℓ + δ`).
    #[must_use]
    pub fn duplication_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.duplications as f64 / self.sent as f64)
    }

    /// Empirical deletion probability over non-self-loop actions.
    #[must_use]
    pub fn deletion_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| self.deleted as f64 / self.sent as f64)
    }

    /// Empirical loss rate over sent messages (includes dead letters, which
    /// are losses from the protocol's perspective).
    #[must_use]
    pub fn loss_rate(&self) -> Option<f64> {
        (self.sent > 0).then(|| (self.lost + self.dead_letters) as f64 / self.sent as f64)
    }
}

/// What happened during one simulation step, for observers.
///
/// Generic over the wire message `M` so the protocol-generic engines can
/// report their own message types; plain S&F engines use the default.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepEvent<M = Message> {
    /// The initiator selected an empty slot; nothing was sent.
    SelfLoop,
    /// The initiator's step was skipped: the fault model's capacity gate
    /// was closed for this `(node, round)` pair, so no action ran and no
    /// RNG was consumed.
    Skipped,
    /// A message was produced but dropped by the loss model.
    Lost {
        /// The intended receiver.
        to: NodeId,
        /// The dropped message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
    },
    /// A message was addressed to a node that is no longer live.
    DeadLetter {
        /// The departed receiver.
        to: NodeId,
        /// The undeliverable message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
    },
    /// A message was delivered.
    Delivered {
        /// The receiver.
        to: NodeId,
        /// The delivered message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
        /// Whether the receiver deleted the ids (full view).
        deleted: bool,
    },
    /// A message was queued for later delivery (delayed simulations only).
    InFlight {
        /// The receiver.
        to: NodeId,
        /// The queued message.
        message: M,
        /// Whether the send duplicated.
        duplicated: bool,
        /// The global step at which delivery is scheduled.
        deliver_at: u64,
    },
}

/// Which part of the step machinery produced a [`StepReport`].
///
/// Under [`DelayModel::Immediate`] every report is an [`Action`]
/// (send and receive happen in one step). Under
/// [`DelayModel::UniformSteps`] a sent message first yields an `Action`
/// report with [`StepEvent::InFlight`], then — steps later — a separate
/// [`Delivery`] report with [`StepEvent::Delivered`] or
/// [`StepEvent::DeadLetter`]. Accounting consumers must key off this phase
/// to avoid double-counting sends.
///
/// [`Action`]: StepPhase::Action
/// [`Delivery`]: StepPhase::Delivery
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepPhase {
    /// An initiate action by the reported node.
    Action,
    /// A delayed message reaching its receiver; the reported initiator is
    /// the original sender.
    Delivery,
}

/// A report of one step: who initiated and what happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepReport<M = Message> {
    /// The initiating node (for [`StepPhase::Delivery`] reports, the
    /// original sender of the delivered message).
    pub initiator: NodeId,
    /// The step's outcome.
    pub event: StepEvent<M>,
    /// Whether this report is an action or a delayed delivery.
    pub phase: StepPhase,
    /// The global step counter when the report was produced.
    pub step: u64,
}

/// An observer of the simulation's step-event stream.
///
/// Register with [`Engine::subscribe`](crate::Engine::subscribe); the
/// callback fires once per [`StepReport`], including the delayed-delivery
/// reports that [`FlatSimulation::step`](crate::FlatSimulation::step) does
/// not return. Subscribers run inline on the stepping thread, so keep callbacks cheap; they must be `Send` because
/// simulations migrate across sweep worker threads.
pub trait StepSubscriber<M = Message>: Send {
    /// Called after each step (and each delayed delivery) with its report.
    fn on_step(&mut self, report: &StepReport<M>);
}

impl<M, F: FnMut(&StepReport<M>) + Send> StepSubscriber<M> for F {
    fn on_step(&mut self, report: &StepReport<M>) {
        self(report);
    }
}

/// Message-delay model: how long a sent message stays in flight.
///
/// The paper's model breaks actions into single-node *steps* precisely so
/// that messages may be delayed and actions may overlap in time
/// (Section 4.1: "we allow communication to be asynchronous"). With
/// [`DelayModel::Immediate`] the receive step executes right after the send
/// (the central-entity execution of Section 5); with
/// [`DelayModel::UniformSteps`] each message is delivered a uniformly
/// random number of *global steps* later, so arbitrary actions interleave
/// with in-flight messages — the asynchrony the protocol claims to
/// tolerate, and the `delay` tests verify it does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DelayModel {
    /// The receive step runs immediately after the send step.
    Immediate,
    /// Each delivered message arrives `1..=max` global steps after the
    /// send, sampled uniformly.
    UniformSteps {
        /// The largest possible delay, in steps.
        max: u64,
    },
}

#[cfg(test)]
mod tests {
    use sandf_core::SfConfig;

    use crate::loss::UniformLoss;
    use crate::topology;
    use crate::{Engine, FlatSimulation};

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn small_sim(seed: u64) -> FlatSimulation<UniformLoss> {
        let nodes = topology::circulant(24, config(), 4);
        FlatSimulation::new(nodes, UniformLoss::none(), seed)
    }

    /// Obs 5.1 on every live node: even outdegree inside `[d_L, s]`.
    fn assert_band(sim: &FlatSimulation<impl crate::FaultModel>) {
        for id in sim.live_ids() {
            let d = sim.out_degree_of(id).unwrap();
            assert_eq!(d % 2, 0);
            assert!((4..=12).contains(&d));
        }
    }

    #[test]
    fn simulation_is_send() {
        // The engine must be movable wherever sweeps and replicates take
        // it: a non-Send field sneaking in (an Rc, a raw pointer) should
        // fail this at compile time.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&small_sim(1));
    }

    #[test]
    fn steps_preserve_total_counts() {
        let mut sim = small_sim(1);
        for _ in 0..500 {
            sim.step();
        }
        let s = sim.stats();
        assert_eq!(s.actions, 500);
        assert_eq!(s.actions, s.self_loops + s.sent);
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    }

    #[test]
    fn lossless_run_conserves_edges_with_dl_zero() {
        // Lemma 6.2: with ℓ = 0 and d_L = 0, sum degrees (hence total edge
        // count) are invariant.
        let config = SfConfig::lossless(12).unwrap();
        let nodes = topology::circulant(24, config, 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::none(), 5);
        let before = sim.graph().edge_count();
        sim.run_rounds(50);
        assert_eq!(sim.graph().edge_count(), before);
    }

    #[test]
    fn loss_shrinks_edges_without_duplication_floor() {
        // Without duplications (d_L = 0) and positive loss, ids drain away —
        // the failure mode S&F's threshold exists to prevent (Section 5).
        let config = SfConfig::lossless(12).unwrap();
        let nodes = topology::circulant(24, config, 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.2).unwrap(), 5);
        let before = sim.graph().edge_count();
        sim.run_rounds(100);
        let mid = sim.graph().edge_count();
        assert!(mid < before, "drain must start: {before} -> {mid}");
        sim.run_rounds(200);
        let after = sim.graph().edge_count();
        assert!(after < before / 2, "drain must continue: {before} -> {after}");
    }

    #[test]
    fn duplication_floor_keeps_system_alive_under_loss() {
        let nodes = topology::circulant(24, config(), 6);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.2).unwrap(), 5);
        sim.run_rounds(200);
        let g = sim.graph();
        let d_l = config().lower_threshold();
        assert!(g.out_degrees().iter().all(|&d| d >= d_l));
        assert!(sim.stats().duplications > 0);
    }

    #[test]
    fn same_seed_same_run() {
        let mut a = small_sim(33);
        let mut b = small_sim(33);
        a.run_rounds(20);
        b.run_rounds(20);
        assert_eq!(a.stats(), b.stats());
        let ga = a.graph();
        let gb = b.graph();
        for &id in ga.ids() {
            assert_eq!(ga.out_degree(id), gb.out_degree(id));
            assert_eq!(ga.in_degree(id), gb.in_degree(id));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = small_sim(1);
        let mut b = small_sim(2);
        a.run_rounds(20);
        b.run_rounds(20);
        assert_ne!(a.stats(), b.stats());
    }

    #[test]
    fn join_via_copies_dl_ids() {
        let mut sim = small_sim(7);
        sim.run_rounds(10);
        let sponsor = sim.live_ids()[0];
        let joiner = sim.join_via(sponsor).unwrap();
        let view = sim.node_view(joiner).unwrap();
        assert_eq!(view.out_degree(), config().lower_threshold());
        assert_eq!(sim.len(), 25);
        // The joiner's ids all point at previously existing nodes.
        assert!(view.ids().all(|id| id != joiner));
    }

    #[test]
    fn leave_makes_id_decay() {
        let mut sim = small_sim(9);
        sim.run_rounds(20);
        let victim = sim.live_ids()[3];
        let instances_before = sim.count_id_instances(victim);
        assert!(instances_before > 0);
        sim.leave(victim);
        assert_eq!(sim.len(), 23);
        sim.run_rounds(400);
        let instances_after = sim.count_id_instances(victim);
        assert!(
            instances_after < instances_before,
            "dead id should decay: {instances_before} -> {instances_after}"
        );
    }

    #[test]
    fn permuted_round_touches_every_node() {
        use std::sync::{Arc, Mutex};
        let initiators = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&initiators);
        let mut sim = small_sim(11);
        sim.subscribe(Box::new(move |r: &StepReport| {
            if r.phase == StepPhase::Action {
                sink.lock().unwrap().push(r.initiator);
            }
        }));
        sim.round_permuted();
        let mut initiators = initiators.lock().unwrap().clone();
        initiators.sort_unstable();
        assert_eq!(initiators, sim.live_ids(), "every node initiates exactly once");
    }

    #[test]
    fn dead_letters_are_counted() {
        let mut sim = small_sim(13);
        let victim = sim.live_ids()[0];
        sim.leave(victim);
        sim.run_rounds(50);
        assert!(sim.stats().dead_letters > 0);
    }

    #[test]
    fn invariants_hold_under_heavy_delay() {
        // Observation 5.1 must survive arbitrarily interleaved actions —
        // the non-atomicity claim of Section 4.
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::with_delay(
            nodes,
            UniformLoss::new(0.1).unwrap(),
            DelayModel::UniformSteps { max: 200 },
            7,
        );
        for _ in 0..5_000 {
            sim.step();
            assert_band(&sim);
        }
    }

    #[test]
    fn delayed_and_immediate_steady_states_agree() {
        // The asynchrony claim, quantitatively: delays must not move the
        // steady-state degree statistics.
        let mean_out = |delay: DelayModel| {
            let nodes = topology::circulant(128, config(), 8);
            let mut sim =
                FlatSimulation::with_delay(nodes, UniformLoss::new(0.02).unwrap(), delay, 11);
            for _ in 0..128 * 400 {
                sim.step();
            }
            sim.settle();
            let graph = sim.graph();
            graph.out_degrees().iter().sum::<usize>() as f64 / 128.0
        };
        let immediate = mean_out(DelayModel::Immediate);
        let delayed = mean_out(DelayModel::UniformSteps { max: 64 });
        assert!(
            (immediate - delayed).abs() < 0.6,
            "asynchrony shifted the steady state: {immediate} vs {delayed}"
        );
    }

    #[test]
    fn targeted_loss_starves_only_the_victim() {
        use crate::fault::PhaseFault;
        let victim = NodeId::new(0);
        let mut loss =
            PhaseFault::Victims { count: 1, victim_rate: 0.95, base: 0.0, victims: Vec::new() };
        loss.aim(&[victim]);
        let nodes = topology::circulant(64, SfConfig::new(16, 6).unwrap(), 8);
        let mut sim = FlatSimulation::new(nodes, loss, 17);
        sim.run_rounds(300);
        let graph = sim.graph();
        // The duplication floor keeps the victim alive and the overlay whole.
        assert!(graph.is_weakly_connected());
        let victim_out = graph.out_degree(victim).unwrap();
        assert!(victim_out >= 6, "victim fell below d_L: {victim_out}");
        // Everyone else is essentially loss-free.
        let mean: f64 = graph.out_degrees().iter().sum::<usize>() as f64 / 64.0;
        assert!(victim_out as f64 <= mean, "starved victim should not exceed the population mean");
    }

    #[test]
    fn subscriber_counts_match_sim_stats() {
        use std::sync::{Arc, Mutex};
        #[derive(Default)]
        struct Counts {
            actions: u64,
            deliveries: u64,
            self_loops: u64,
            lost: u64,
            delivered: u64,
        }
        let counts = Arc::new(Mutex::new(Counts::default()));
        let sink = Arc::clone(&counts);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 21);
        sim.subscribe(Box::new(move |report: &StepReport| {
            let mut c = sink.lock().unwrap();
            match report.phase {
                StepPhase::Action => c.actions += 1,
                StepPhase::Delivery => c.deliveries += 1,
            }
            match report.event {
                StepEvent::SelfLoop => c.self_loops += 1,
                StepEvent::Lost { .. } => c.lost += 1,
                StepEvent::Delivered { .. } => c.delivered += 1,
                _ => {}
            }
        }));
        for _ in 0..600 {
            sim.step();
        }
        let c = counts.lock().unwrap();
        let s = sim.stats();
        assert_eq!(c.actions, s.actions);
        assert_eq!(c.self_loops, s.self_loops);
        assert_eq!(c.lost, s.lost);
        assert_eq!(c.delivered, s.stored + s.deleted);
        assert_eq!(c.deliveries, 0, "immediate mode never emits delivery-phase reports");
    }

    #[test]
    fn subscriber_sees_delayed_deliveries() {
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<(StepPhase, StepEvent)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::with_delay(
            nodes,
            UniformLoss::none(),
            DelayModel::UniformSteps { max: 30 },
            23,
        );
        sim.subscribe(Box::new(move |r: &StepReport| {
            sink.lock().unwrap().push((r.phase, r.event))
        }));
        for _ in 0..500 {
            sim.step();
        }
        sim.settle();
        let log = log.lock().unwrap();
        let queued = log.iter().filter(|(_, e)| matches!(e, StepEvent::InFlight { .. })).count();
        let delivered = log
            .iter()
            .filter(|(p, e)| {
                *p == StepPhase::Delivery
                    && matches!(e, StepEvent::Delivered { .. } | StepEvent::DeadLetter { .. })
            })
            .count();
        assert!(queued > 0, "delayed mode must queue messages");
        assert_eq!(queued, delivered, "every queued message must produce a delivery report");
        let s = sim.stats();
        assert_eq!(delivered as u64, s.stored + s.deleted + s.dead_letters);
    }

    #[test]
    fn clones_do_not_carry_subscribers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        use crate::shell::{ArenaSim, Schedule};
        use crate::SfBehavior;

        fn check<S: Schedule<UniformLoss, SfBehavior> + Clone>(
            mut sim: ArenaSim<S, UniformLoss, SfBehavior>,
        ) {
            let seen = Arc::new(AtomicU64::new(0));
            let sink = Arc::clone(&seen);
            sim.subscribe(Box::new(move |_: &StepReport| {
                sink.fetch_add(1, Ordering::Relaxed);
            }));
            assert_eq!(sim.subscriber_count(), 1);
            let mut clone = sim.clone();
            assert_eq!(clone.subscriber_count(), 0);
            clone.run_rounds(1);
            let reports = || seen.load(Ordering::Relaxed);
            assert_eq!(reports(), 0, "the clone reported to the original's observer");
            sim.run_rounds(1);
            assert!(reports() > 0, "the original stopped reporting");
        }
        let nodes = topology::circulant(24, config(), 4);
        check(small_sim(1));
        check(crate::ParSimulation::new(nodes, UniformLoss::none(), 1, 2));
    }

    #[test]
    fn capacity_gate_skips_steps_and_preserves_the_ledger() {
        use crate::fault::PhaseFault;
        // Everyone slow with period 2: roughly half of all central-entity
        // steps are skipped, and both ledgers still balance.
        let model = PhaseFault::Capacity { salt: 7, slow_fraction: 1.0, period: 2, base: 0.1 };
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::new(nodes, model, 19);
        sim.run_rounds(40);
        let s = *sim.stats();
        assert!(s.skipped > 0, "slow cohort never skipped");
        assert_eq!(s.actions + s.skipped, 40 * 24, "every step acts or skips");
        assert_eq!(s.actions, s.self_loops + s.sent);
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
        assert_eq!(sim.rounds_run(), 40);
        // Obs 5.1 still holds under the capacity fault.
        assert_band(&sim);
    }

    #[test]
    fn update_fault_retargets_mid_run() {
        use crate::fault::PhaseFault;
        let victim = NodeId::new(5);
        let nodes = topology::circulant(24, config(), 4);
        let fault =
            PhaseFault::Victims { count: 1, victim_rate: 1.0, base: 0.0, victims: Vec::new() };
        let mut sim = FlatSimulation::new(nodes, fault, 23);
        sim.run_rounds(10);
        assert_eq!(sim.stats().lost, 0, "empty victim set must lose nothing");
        sim.update_fault(|f| f.aim(&[victim]));
        sim.run_rounds(30);
        assert!(sim.stats().lost > 0, "victim loss never fired after retarget");
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut sim = small_sim(15);
        sim.run_rounds(5);
        sim.reset_stats();
        assert_eq!(sim.stats(), &SimStats::default());
        assert_eq!(sim.aggregate_node_stats().initiated, 0);
        // And after a leave, on both aliases of the shell.
        fn leave_then_reset(mut sim: impl Engine) {
            sim.run_rounds(5);
            assert!(sim.leave(NodeId::new(3)));
            sim.run_rounds(2);
            sim.reset_stats();
            assert_eq!(sim.stats(), SimStats::default());
            assert_eq!(sim.aggregate_node_stats(), sandf_core::NodeStats::new());
        }
        let nodes = topology::circulant(24, config(), 4);
        leave_then_reset(small_sim(15));
        leave_then_reset(crate::ParSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 15, 2));
    }
}
