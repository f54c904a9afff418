//! Bridges the engine's one ledger into `sandf-obs`.
//!
//! [`SimRecorder`] publishes an engine's [`SimStats`] as `sim.step.*`
//! counters: each [`record`](SimRecorder::record) adds the ledger's growth
//! since the last one, so an external scraper reading the metrics registry
//! sees the same ledger the simulation keeps internally — the
//! `recorder_matches_sim_stats` tests hold the two equal. The engines keep
//! no observer; a caller that journals a run asks flat for its step
//! reports (`step_into`, `settle_into`) and maps each through
//! [`journal_event`] into an [`EventJournal`](sandf_obs::EventJournal).
//!
//! Counter names:
//!
//! | metric                  | meaning                                      |
//! |-------------------------|----------------------------------------------|
//! | `sim.step.actions`      | initiate steps executed                      |
//! | `sim.step.self_loops`   | actions that were self-loop transformations  |
//! | `sim.step.sent`         | messages produced                            |
//! | `sim.step.lost`         | messages dropped by the loss model           |
//! | `sim.step.dead_letters` | messages addressed to departed nodes         |
//! | `sim.step.stored`       | messages delivered and stored                |
//! | `sim.step.deleted`      | messages delivered but deleted (full view)   |
//! | `sim.step.duplications` | sends that duplicated (`d(u) = d_L`)         |
//! | `sim.step.in_flight`    | messages queued in the in-flight queue       |
//! | `sim.step.skipped`      | steps skipped by a closed capacity gate      |
//!
//! `sim.step.in_flight` counts every message the engine's one in-flight
//! queue ever took: flat's delayed sends, and every par send that was not
//! lost. For S&F, which never replies, it reads `sent − lost` on par and
//! on a delayed flat engine, and 0 on an immediate flat engine, which
//! delivers inline.

use sandf_obs::{CounterHandle, JournalEvent, MetricsRegistry};

use crate::engine::{SimStats, StepEvent, StepReport};
use crate::shell::ArenaSim;
use crate::traits::ProtocolBehavior;

/// Publishes an engine's [`SimStats`] ledger as `sim.step.*` counters.
///
/// One recorder follows one engine: it remembers the ledger it last
/// published, and the next [`record`](Self::record) adds what grew since.
#[derive(Debug)]
pub struct SimRecorder {
    actions: CounterHandle,
    self_loops: CounterHandle,
    sent: CounterHandle,
    lost: CounterHandle,
    dead_letters: CounterHandle,
    stored: CounterHandle,
    deleted: CounterHandle,
    duplications: CounterHandle,
    in_flight: CounterHandle,
    skipped: CounterHandle,
    /// The engine's reset count, ledger and queued total at the last
    /// record.
    seen: (u64, SimStats, u64),
}

impl SimRecorder {
    /// Creates a recorder registering its counters in `registry`.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            actions: registry.counter("sim.step.actions"),
            self_loops: registry.counter("sim.step.self_loops"),
            sent: registry.counter("sim.step.sent"),
            lost: registry.counter("sim.step.lost"),
            dead_letters: registry.counter("sim.step.dead_letters"),
            stored: registry.counter("sim.step.stored"),
            deleted: registry.counter("sim.step.deleted"),
            duplications: registry.counter("sim.step.duplications"),
            in_flight: registry.counter("sim.step.in_flight"),
            skipped: registry.counter("sim.step.skipped"),
            seen: (0, SimStats::default(), 0),
        }
    }

    /// Adds the growth of `sim`'s ledger since the last record to the
    /// counters. When [`reset_stats`](crate::Engine::reset_stats) ran in
    /// between, the growth counts from zero, so no counter ever falls.
    pub fn record<S, L, B: ProtocolBehavior>(&mut self, sim: &ArenaSim<S, L, B>) {
        let (resets, mut was, queued) = self.seen;
        if sim.resets != resets {
            was = SimStats::default();
        }
        let now = sim.stats;
        self.actions.add(now.actions - was.actions);
        self.self_loops.add(now.self_loops - was.self_loops);
        self.sent.add(now.sent - was.sent);
        self.lost.add(now.lost - was.lost);
        self.dead_letters.add(now.dead_letters - was.dead_letters);
        self.stored.add(now.stored - was.stored);
        self.deleted.add(now.deleted - was.deleted);
        self.duplications.add(now.duplications - was.duplications);
        self.skipped.add(now.skipped - was.skipped);
        self.in_flight.add(sim.queue.queued() - queued);
        self.seen = (sim.resets, now, sim.queue.queued());
    }
}

/// The journal record of one S&F step report, as the report's initiator,
/// outcome and message payload.
#[must_use]
pub fn journal_event(report: &StepReport) -> JournalEvent {
    let initiator = report.initiator;
    match report.event {
        StepEvent::SelfLoop => JournalEvent::SelfLoop { initiator },
        StepEvent::Skipped => JournalEvent::Skipped { initiator },
        StepEvent::Lost { to, message, duplicated } => {
            JournalEvent::Lost { initiator, to, payload: message.payload, duplicated }
        }
        StepEvent::DeadLetter { to, message, duplicated } => {
            JournalEvent::DeadLetter { initiator, to, payload: message.payload, duplicated }
        }
        StepEvent::Delivered { to, message, duplicated, deleted } => {
            JournalEvent::Delivered { initiator, to, payload: message.payload, duplicated, deleted }
        }
        StepEvent::InFlight { to, message, duplicated, deliver_at } => JournalEvent::InFlight {
            initiator,
            to,
            payload: message.payload,
            duplicated,
            deliver_at,
        },
    }
}

#[cfg(test)]
mod tests {
    use sandf_obs::MetricsRegistry;

    use crate::engine::DelayModel;
    use crate::flat::FlatSimulation;
    use crate::loss::UniformLoss;
    use crate::topology;
    use crate::traits::Engine;

    use super::*;

    fn config() -> sandf_core::SfConfig {
        sandf_core::SfConfig::new(12, 4).unwrap()
    }

    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        registry.counter_value(name).unwrap()
    }

    /// Asserts that the nine counters published from `SimStats` equal
    /// `want`.
    fn assert_ledger(registry: &MetricsRegistry, want: &SimStats) {
        assert_eq!(counter(registry, "sim.step.actions"), want.actions);
        assert_eq!(counter(registry, "sim.step.self_loops"), want.self_loops);
        assert_eq!(counter(registry, "sim.step.sent"), want.sent);
        assert_eq!(counter(registry, "sim.step.lost"), want.lost);
        assert_eq!(counter(registry, "sim.step.dead_letters"), want.dead_letters);
        assert_eq!(counter(registry, "sim.step.stored"), want.stored);
        assert_eq!(counter(registry, "sim.step.deleted"), want.deleted);
        assert_eq!(counter(registry, "sim.step.duplications"), want.duplications);
        assert_eq!(counter(registry, "sim.step.skipped"), want.skipped);
    }

    #[test]
    fn recorder_matches_sim_stats() {
        let registry = MetricsRegistry::new();
        let mut recorder = SimRecorder::new(&registry);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 41);
        for _ in 0..8 {
            for _ in 0..100 {
                sim.step();
            }
            recorder.record(&sim);
        }
        recorder.record(&sim);
        let s = sim.stats();
        assert_ledger(&registry, s);
        // Each field the run can move did, so a field published from
        // another, or a ledger count that stopped, shows as a mismatch.
        let moved = [s.self_loops, s.lost, s.stored, s.deleted, s.duplications];
        assert!(moved.iter().all(|&n| n > 0), "a ledger field the run never moved: {s:?}");
        // An immediate flat engine delivers inline and queues nothing.
        assert_eq!(counter(&registry, "sim.step.in_flight"), 0);
    }

    #[test]
    fn recorder_matches_sim_stats_under_delay() {
        // Each queued message is counted once, and every delayed delivery
        // lands in stored, deleted or dead letters once it completes.
        let registry = MetricsRegistry::new();
        let mut recorder = SimRecorder::new(&registry);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.05).unwrap(), 43)
            .delayed(DelayModel::UniformSteps { max: 40 });
        for _ in 0..1_000 {
            sim.step();
        }
        recorder.record(&sim);
        let queued = counter(&registry, "sim.step.in_flight");
        assert_eq!(queued, sim.stats().sent - sim.stats().lost, "S&F queues every survivor");
        sim.settle();
        recorder.record(&sim);
        let s = sim.stats();
        assert_ledger(&registry, s);
        assert_eq!(counter(&registry, "sim.step.in_flight"), queued, "a settle queues nothing");
        assert_eq!(
            queued,
            counter(&registry, "sim.step.dead_letters")
                + counter(&registry, "sim.step.stored")
                + counter(&registry, "sim.step.deleted"),
            "every queued message must be accounted for after settle"
        );
    }

    /// A reset between two records counts the growth from zero, even when
    /// the reset ledger has grown past what was published before it.
    #[test]
    fn recorder_counts_growth_across_a_reset_from_zero() {
        let registry = MetricsRegistry::new();
        let mut recorder = SimRecorder::new(&registry);
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 45);
        sim.run_rounds(5);
        recorder.record(&sim);
        let burn_in = *sim.stats();
        sim.reset_stats();
        sim.run_rounds(20);
        recorder.record(&sim);
        let measured = *sim.stats();
        assert!(measured.sent > burn_in.sent, "the reset ledger never outgrew the burn-in");
        let mut sum = burn_in;
        crate::par::merge_stats(&mut sum, &measured);
        assert_ledger(&registry, &sum);
    }

    #[test]
    fn journal_is_seed_stable() {
        let run = || {
            let journal = sandf_obs::EventJournal::new(4_096);
            let nodes = topology::circulant(24, config(), 4);
            let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 47);
            let mut reports = Vec::new();
            for _ in 0..300 {
                sim.step_into(&mut reports);
            }
            for report in &reports {
                journal.record(report.step, journal_event(report));
            }
            journal.to_jsonl()
        };
        assert_eq!(run(), run(), "same seed must produce a byte-identical journal");
    }
}
